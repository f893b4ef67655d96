"""Exact maximum-independent-set search on small graphs.

Graphs are given as a list of neighbor bitmasks (bit j of adj[i] set iff
i and j are adjacent; a self-bit is ignored).  The solver runs a
branch-and-bound maximum-clique search on the complement graph.  A node is
one call of `expand`: it colours its candidate set and branches on it.
The bound is a greedy colouring whose colour classes are bitmasks, built
with one `&=` per coloured vertex (bit-parallel, as in San Segundo et al.'s
BBMC).  The branching order, classes from the highest down and each class
from its highest vertex down, fixes the tree and so the node count that a
`node_budget` limits; it is part of the search's contract.

The search keeps a maximum clique (the certificate) next to its size.  The
solver then reconstructs the lexicographically smallest maximum
independent set from it, diving again only where the certificate cannot
decide a vertex.  The main search and these witness dives draw on one node
budget; when it runs out, `SearchLimitExceeded.incumbent` holds the
largest independent set found so far.
"""

from .errors import SearchLimitExceeded


def _vertices(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def max_independent_set(adj, node_budget=None):
    """Exact maximum independent set; returns (size, vertices) where
    vertices is the lexicographically smallest optimal set."""
    n = len(adj)
    if n == 0:
        return 0, []
    full = (1 << n) - 1
    adj = [row & ~(1 << v) for v, row in enumerate(adj)]
    comp = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    left = float("inf") if node_budget is None else node_budget
    best, target = 0, n + 1
    cert = taken = 0

    def expand(depth, members, p):
        """Extend clique `members` (`depth` vertices) from candidates p.

        Colour classes: each takes the lowest uncoloured vertex, then the
        lowest one left that is not its neighbour in the complement, that
        is, one adjacent to it in the graph.  A vertex of class k bounds
        by k the clique that it and the vertices of lower classes extend.
        Stops once best reaches target; records each new best in cert.
        """
        nonlocal left, best, cert
        left -= 1
        if left < 0:
            raise SearchLimitExceeded("search node budget exhausted",
                                      _vertices(taken | cert))
        classes = []
        q = p
        while q:
            cls = 0
            avail = q
            while avail:
                bit = avail & -avail
                cls |= bit
                avail &= adj[bit.bit_length() - 1]
            classes.append(cls)
            q ^= cls
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if best >= target or depth + k <= best:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                sub = p & comp[v]
                if sub:
                    expand(depth + 1, members | bit, sub)
                elif depth + 1 > best:
                    best = depth + 1
                    cert = members | bit
                p ^= bit

    expand(0, 0, full)
    alpha = best

    # Lexicographically smallest witness: take each vertex v = min(p) in
    # ascending order iff the prefix still extends to an optimum.  cert is
    # a clique of the remaining size inside p, so v extends if it is in
    # cert, or if it conflicts with one member only (swap them); otherwise
    # a dive for one vertex fewer among v's candidates decides.
    p = full
    while p:
        bit = p & -p
        v = bit.bit_length() - 1
        sub = p & comp[v]
        if cert & bit:
            cert ^= bit
        else:
            conflicts = cert & adj[v]
            if conflicts & (conflicts - 1):
                best = cert.bit_count() - 2
                target = best + 1
                expand(0, 0, sub)
                if best < target:
                    p ^= bit
                    continue
            else:
                cert ^= conflicts
        taken |= bit
        p = sub
    return alpha, _vertices(taken)


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
