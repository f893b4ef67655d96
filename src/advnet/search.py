"""Exact maximum-independent-set search on small graphs.

Graphs are given as a list of neighbor bitmasks (bit j of adj[i] set iff
i and j are adjacent; self-bits must be clear).  The solver runs a
branch-and-bound maximum-clique search on the complement graph.  Its bound
is a greedy colouring whose colour classes are bitmasks, built with one
`&=` per coloured vertex (bit-parallel, as in San Segundo et al.'s BBMC).
The branching order, classes from the highest down and each class from
its highest vertex down, fixes the tree and so the node count that a
`node_budget` limits; it is part of the search's contract.  The solver
reconstructs the lexicographically smallest maximum independent set
deterministically.
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


def _color_classes(block, p):
    """Greedy colouring of candidate set p (bitmask) for the clique search.

    Returns the colour classes as bitmasks, class k at index k-1: each
    class takes the lowest uncoloured vertex, then the lowest one left
    that is not its neighbour, and so on.  block[v] clears v and its
    neighbours.  A vertex of class k bounds by k the clique that it and
    the vertices of lower classes extend.  `_clique_search` branches on the
    classes from the last down, each from its highest vertex down; that
    order, and so the node count under a node budget, is part of the
    search's contract.
    """
    classes = []
    while p:
        cls = 0
        avail = p
        while avail:
            bit = avail & -avail
            cls |= bit
            avail &= block[bit.bit_length() - 1]
        classes.append(cls)
        p ^= cls
    return classes


def _clique_search(nbr, block, depth, p, best, budget, target):
    """Expand a clique of `depth` vertices with candidates p (bitmask).

    best is [size]; stops early once best reaches target.
    """
    budget.spend()
    classes = _color_classes(block, p)
    for k in range(len(classes), 0, -1):
        cls = classes[k - 1]
        while cls:
            if best[0] >= target or depth + k <= best[0]:
                return
            v = cls.bit_length() - 1
            bit = 1 << v
            cls ^= bit
            sub = p & nbr[v]
            if sub:
                _clique_search(nbr, block, depth + 1, sub, best, budget, target)
            elif depth + 1 > best[0]:
                best[0] = depth + 1
            p ^= bit


def _has_clique(nbr, block, p, k, budget):
    if k <= 0:
        return True
    best = [k - 1]
    _clique_search(nbr, block, 0, p, best, budget, target=k)
    return best[0] >= k


def max_independent_set(adj, node_budget=None):
    """Exact maximum independent set; returns (size, vertices) where
    vertices is the lexicographically smallest optimal set."""
    n = len(adj)
    if n == 0:
        return 0, []
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    block = [~(comp[v] | 1 << v) for v in range(n)]
    budget = _Budget(node_budget)
    best = [0]
    _clique_search(comp, block, 0, full, best, budget, n + 1)
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
        if _has_clique(comp, block, sub, alpha - len(chosen) - 1, budget):
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
