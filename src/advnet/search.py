"""Exact maximum-independent-set search on small graphs.

Graphs are given as a list of neighbor bitmasks (bit j of adj[i] set iff
i and j are adjacent; self-bits must be clear).  The solver runs a
branch-and-bound maximum-clique search on the complement graph with a
greedy coloring bound, and can reconstruct the lexicographically smallest
maximum independent set deterministically.
"""

from .errors import SearchLimitExceeded


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes):
        self.left = nodes

    def spend(self):
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise SearchLimitExceeded("search node budget exhausted")


def _complement(adj):
    n = len(adj)
    full = (1 << n) - 1
    return [full & ~adj[v] & ~(1 << v) for v in range(n)]


def _color_order(nbr, p):
    """Greedy coloring of candidate set p (bitmask) for the clique search.

    Returns (order, bounds): vertices grouped by color class; bounds[i] is
    the color number of order[i], an upper bound on the clique size
    extendable from {order[0..i]}.
    """
    order = []
    bounds = []
    color = 0
    remaining = p
    while remaining:
        color += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            bit = 1 << v
            avail &= ~nbr[v]
            avail &= ~bit
            remaining &= ~bit
            order.append(v)
            bounds.append(color)
    return order, bounds


def _clique_search(nbr, r, p, best, budget, target):
    """Expand clique r (list) with candidates p (bitmask).

    best is [size, vertices]; stops early once target (if given) reached.
    """
    budget.spend()
    order, bounds = _color_order(nbr, p)
    for i in range(len(order) - 1, -1, -1):
        if target is not None and best[0] >= target:
            return
        if len(r) + bounds[i] <= best[0]:
            return
        v = order[i]
        r.append(v)
        sub = p & nbr[v]
        if sub:
            _clique_search(nbr, r, sub, best, budget, target)
        elif len(r) > best[0]:
            best[0] = len(r)
            best[1] = list(r)
        r.pop()
        p &= ~(1 << v)


def _has_clique(nbr, p, k, budget):
    if k <= 0:
        return True
    best = [k - 1, []]
    _clique_search(nbr, [], p, best, budget, target=k)
    return best[0] >= k


def max_independent_set(adj, node_budget=None):
    """Exact maximum independent set; returns (size, vertices) where
    vertices is the lexicographically smallest optimal set."""
    n = len(adj)
    if n == 0:
        return 0, []
    comp = _complement(adj)
    budget = _Budget(node_budget)
    full = (1 << n) - 1
    best = [0, []]
    _clique_search(comp, [], full, best, budget, None)
    alpha = best[0]

    # Lexicographically smallest witness: include each vertex in ascending
    # order iff the prefix still extends to an optimum.
    chosen = []
    p = full
    for v in range(n):
        if not (p >> v) & 1:
            continue
        if len(chosen) + 1 == alpha:
            chosen.append(v)
            break
        sub = p & comp[v] & ~((1 << (v + 1)) - 1)
        if _has_clique(comp, sub, alpha - len(chosen) - 1, budget):
            chosen.append(v)
            p = sub
        else:
            p &= ~(1 << v)
    return alpha, chosen


def greedy_independent_set(adj):
    """Deterministic greedy lower bound (ascending vertex order)."""
    n = len(adj)
    chosen = []
    p = (1 << n) - 1
    while p:
        v = (p & -p).bit_length() - 1
        chosen.append(v)
        p &= ~adj[v]
        p &= ~(1 << v)
    return chosen


def greedy_clique_cover_size(adj):
    """Number of cliques in a greedy cover; an upper bound on the MIS."""
    n = len(adj)
    uncovered = (1 << n) - 1
    count = 0
    while uncovered:
        v = (uncovered & -uncovered).bit_length() - 1
        clique_mask = 1 << v
        cand = uncovered & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique_mask |= 1 << u
            cand &= adj[u]
            cand &= ~(1 << u)
        uncovered &= ~clique_mask
        count += 1
    return count
