"""Adversarial channels as fan-out maps.

A channel maps each input symbol to a non-empty set of output symbols (the
fan-out set: everything the adversary can cause to be received).  Channels
come in three representations:

* explicit tables (small alphabets),
* symbolic channels (fan-out by rule, with an optional analytic
  confusability predicate),
* composites (product / concatenation / union trees over children).

Composites keep their operation tree and answer confusability lazily,
factor by factor, so powers of channels stay cheap even when their
materialized fan-out sets would not.
"""

import itertools
import math

from .errors import AlphabetMismatch, EmptyCode, EmptyFamily, SearchLimitExceeded
from .search import (greedy_clique_cover_size, greedy_independent_set,
                     max_independent_set)

#: Erasure symbol; lives outside every ordinary alphabet.
STAR = "*"

_MATERIALIZE_LIMIT = 1 << 20


class Channel:
    """Base class; subclasses fill in inputs and fan-outs."""

    def iter_inputs(self):
        raise NotImplementedError

    @property
    def input_count(self):
        raise NotImplementedError

    def inputs_tuple(self, limit=_MATERIALIZE_LIMIT):
        if limit is not None and self.input_count > limit:
            raise SearchLimitExceeded(
                f"{self.input_count} inputs exceed materialization limit {limit}")
        return tuple(self.iter_inputs())

    def fanout(self, x):
        raise NotImplementedError

    def confusable(self, x, xp):
        return fanouts_intersect(self, self, x, xp)

    def is_deterministic(self):
        return all(len(self.fanout(x)) == 1 for x in self.iter_inputs())


class TableChannel(Channel):
    def __init__(self, inputs, outputs, table):
        self._inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        out_set = set(self.outputs)
        self.table = {}
        for x in self._inputs:
            fan = frozenset(table[x])
            if not fan:
                raise AlphabetMismatch(f"empty fan-out at input {x!r}")
            if not fan <= out_set:
                raise AlphabetMismatch(f"fan-out of {x!r} leaves the output alphabet")
            self.table[x] = fan

    def iter_inputs(self):
        return iter(self._inputs)

    @property
    def input_count(self):
        return len(self._inputs)

    def fanout(self, x):
        return self.table[x]


class SymbolicChannel(Channel):
    """Channel given by a fan-out rule.

    inputs may be any finite iterable: pass (count, factory) for large
    spaces or a concrete sequence for small ones.  confusable_fn, when
    provided, must agree with fan-out intersection (callers validate this
    against explicit enumeration on small instances).
    """

    def __init__(self, inputs, fanout_fn, confusable_fn=None):
        if isinstance(inputs, tuple) and len(inputs) == 2 and callable(inputs[1]):
            self._count, self._factory = inputs
        else:
            seq = tuple(inputs)
            self._count, self._factory = len(seq), lambda: iter(seq)
        self._fanout_fn = fanout_fn
        self._confusable_fn = confusable_fn

    def iter_inputs(self):
        return self._factory()

    @property
    def input_count(self):
        return self._count

    def fanout(self, x):
        return frozenset(self._fanout_fn(x))

    def confusable(self, x, xp):
        if self._confusable_fn is not None:
            return self._confusable_fn(x, xp)
        return super().confusable(x, xp)


class ProductChannel(Channel):
    """n-ary product; inputs are tuples of factor inputs.  Products of
    products are flattened, which canonicalizes associativity."""

    def __init__(self, factors):
        flat = []
        for f in factors:
            if isinstance(f, ProductChannel):
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.factors = tuple(flat)

    def iter_inputs(self):
        return itertools.product(*(f.iter_inputs() for f in self.factors))

    @property
    def input_count(self):
        return math.prod(f.input_count for f in self.factors)

    def fanout(self, x):
        fans = [f.fanout(xi) for f, xi in zip(self.factors, x)]
        if math.prod(len(s) for s in fans) > _MATERIALIZE_LIMIT:
            raise SearchLimitExceeded("product fan-out too large to materialize")
        return frozenset(itertools.product(*fans))

    def confusable(self, x, xp):
        return all(f.confusable(a, b) for f, a, b in zip(self.factors, x, xp))


class ConcatChannel(Channel):
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def iter_inputs(self):
        return self.first.iter_inputs()

    @property
    def input_count(self):
        return self.first.input_count

    def fanout(self, x):
        out = set()
        for y in self.first.fanout(x):
            out |= self.second.fanout(y)
            if len(out) > _MATERIALIZE_LIMIT:
                raise SearchLimitExceeded("concat fan-out too large")
        return frozenset(out)

    def confusable(self, x, xp):
        # search over the middle alphabet: the fan-outs of the first stage
        mid, mid_p = self.first.fanout(x), self.first.fanout(xp)
        return any(fanouts_intersect(self.second, self.second, y, yp)
                   for y in mid for yp in mid_p)


class UnionChannel(Channel):
    def __init__(self, branches):
        self.branches = tuple(branches)

    def iter_inputs(self):
        return self.branches[0].iter_inputs()

    @property
    def input_count(self):
        return self.branches[0].input_count

    def fanout(self, x):
        out = set()
        for b in self.branches:
            out |= b.fanout(x)
        return frozenset(out)

    def confusable(self, x, xp):
        return any(fanouts_intersect(a, b, x, xp)
                   for a in self.branches for b in self.branches)


def fanouts_intersect(ch_a, ch_b, x_a, x_b):
    """Whether the fan-out of x_a under ch_a meets the fan-out of x_b under
    ch_b.  Recurses through composites so product fan-outs are never
    materialized."""
    if ch_a is ch_b and x_a == x_b:
        return True
    if isinstance(ch_a, UnionChannel):
        return any(fanouts_intersect(br, ch_b, x_a, x_b) for br in ch_a.branches)
    if isinstance(ch_b, UnionChannel):
        return any(fanouts_intersect(ch_a, br, x_a, x_b) for br in ch_b.branches)
    if (isinstance(ch_a, ProductChannel) and isinstance(ch_b, ProductChannel)
            and len(ch_a.factors) == len(ch_b.factors)):
        return all(fanouts_intersect(fa, fb, a, b)
                   for fa, fb, a, b in zip(ch_a.factors, ch_b.factors, x_a, x_b))
    if isinstance(ch_a, ConcatChannel) and isinstance(ch_b, ConcatChannel):
        return any(fanouts_intersect(ch_a.second, ch_b.second, y, yp)
                   for y in ch_a.first.fanout(x_a) for yp in ch_b.first.fanout(x_b))
    if ch_a is ch_b and isinstance(ch_a, SymbolicChannel) and ch_a._confusable_fn:
        return ch_a._confusable_fn(x_a, x_b)
    return bool(ch_a.fanout(x_a) & ch_b.fanout(x_b))


# -- constructors ------------------------------------------------------------

# `concat` and `union` check alphabets of at most this many inputs
_ALPHABET_CHECK_LIMIT = 1 << 16


def explicit(inputs, outputs, table):
    return TableChannel(inputs, outputs, table)


def identity_channel(symbols, outputs=None):
    symbols = tuple(symbols)
    outs = symbols if outputs is None else tuple(outputs)
    return TableChannel(symbols, outs, {x: {x} for x in symbols})


def product(ch1, ch2):
    return ProductChannel([ch1, ch2])


def power(ch, n):
    if n < 1:
        raise ValueError("power requires n >= 1")
    return ProductChannel([ch] * n) if n > 1 else ch


def concat(ch1, ch2):
    """Feed the output of ch1 into ch2.  Requires the outputs of ch1 to be
    valid inputs of ch2, checked when both alphabets are materializable."""
    outs = getattr(ch1, "outputs", None)
    if outs is not None:
        try:
            ins2 = set(ch2.inputs_tuple(_ALPHABET_CHECK_LIMIT))
        except (SearchLimitExceeded, NotImplementedError):
            ins2 = None
        if ins2 is not None and not set(outs) <= ins2:
            raise AlphabetMismatch("outputs of the first channel are not inputs of the second")
    return ConcatChannel(ch1, ch2)


def union(channels):
    channels = tuple(channels)
    if not channels:
        raise EmptyFamily("union of an empty family")
    first_inputs = channels[0].inputs_tuple(_ALPHABET_CHECK_LIMIT)
    for ch in channels[1:]:
        if ch.inputs_tuple(_ALPHABET_CHECK_LIMIT) != first_inputs:
            raise AlphabetMismatch("union members must share the input alphabet")
    return UnionChannel(channels)


# -- codes and capacity ------------------------------------------------------

def is_good_code(ch, code):
    """True iff the fan-out sets of the code's elements are pairwise disjoint."""
    code = tuple(code)
    if not code:
        raise EmptyCode("a code must be non-empty")
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            if ch.confusable(code[i], code[j]):
                return False
    return True


class CapacityResult:
    """One-shot capacity value (in bits) plus the witness code.

    When the search is exact, lower == upper == bits.  Otherwise bits holds
    the best-found lower bound and upper the clique-cover bound, with
    exact=False.
    """

    __slots__ = ("size", "bits", "witness", "exact", "lower_bits", "upper_bits")

    def __init__(self, size, witness, exact, upper_size=None):
        self.size = size
        self.witness = tuple(witness)
        self.exact = exact
        self.bits = math.log2(size) if size else 0.0
        self.lower_bits = self.bits
        self.upper_bits = self.bits if exact else math.log2(max(upper_size, 1))

    def value_in_base(self, base):
        """Capacity expressed as a logarithm in the given base."""
        return self.bits / math.log2(base)

    def __repr__(self):
        tag = "exact" if self.exact else "bounds"
        return f"CapacityResult(bits={self.bits:.6g}, |C|={self.size}, {tag})"


MAX_VERTICES = 512


def confusability_adjacency(ch, max_vertices=MAX_VERTICES):
    """Neighbor bitmasks of the confusability graph (self-loops dropped)."""
    if ch.input_count > max_vertices:
        raise SearchLimitExceeded(
            f"{ch.input_count} inputs exceed the search limit {max_vertices}")
    inputs = ch.inputs_tuple()
    n = len(inputs)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if ch.confusable(inputs[i], inputs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return inputs, adj


def one_shot_capacity(ch, max_vertices=MAX_VERTICES, node_budget=None):
    """Exact one-shot capacity via maximum independent set of the
    confusability graph.  The witness is the lexicographically smallest
    maximum good code in the canonical input order.  If the node budget is
    exhausted the result carries greedy lower/upper bounds instead."""
    inputs, adj = confusability_adjacency(ch, max_vertices=max_vertices)
    try:
        size, verts = max_independent_set(adj, node_budget=node_budget)
        return CapacityResult(size, (inputs[v] for v in verts), True)
    except SearchLimitExceeded:
        lower = greedy_independent_set(adj)
        upper = greedy_clique_cover_size(adj)
        return CapacityResult(len(lower), (inputs[v] for v in lower), False, upper)


def zero_error_bounds(ch, n_max):
    """(lower, upper) bounds on the zero-error capacity in bits.

    lower = max over n <= n_max of C(ch^n)/n.  upper is the universal
    log2|X| bound, and collapses to 0 when the one-shot capacity is 0.
    """
    best = 0.0
    one_shot = None
    for n in range(1, n_max + 1):
        res = one_shot_capacity(power(ch, n))
        if not res.exact:
            raise SearchLimitExceeded(f"capacity search for power {n} not exact")
        if n == 1:
            one_shot = res
        best = max(best, res.bits / n)
    upper = 0.0 if one_shot.bits == 0 else math.log2(ch.input_count)
    return best, upper


ISOMORPHISM_BUDGET = 2_000_000


def isomorphic(ch1, ch2):
    """A bijection between input alphabets preserving the adjacency
    structure, or None.  Backtracking with degree pruning."""
    in1, adj1 = confusability_adjacency(ch1)
    in2, adj2 = confusability_adjacency(ch2)
    if len(in1) != len(in2):
        return None
    n = len(in1)
    deg1 = [adj1[i].bit_count() for i in range(n)]
    deg2 = [adj2[i].bit_count() for i in range(n)]
    if sorted(deg1) != sorted(deg2):
        return None
    mapping = [None] * n
    used = [False] * n
    budget = [ISOMORPHISM_BUDGET]

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or deg1[i] != deg2[j]:
                continue
            ok = True
            for k in range(i):
                if (((adj1[i] >> k) & 1) != ((adj2[j] >> mapping[k]) & 1)):
                    ok = False
                    break
            if ok:
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchLimitExceeded("isomorphism search budget exhausted")
                mapping[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                mapping[i] = None
        return False

    if backtrack(0):
        return {in1[i]: in2[mapping[i]] for i in range(n)}
    return None


_COMPARE_LIMIT = 1 << 14


def same_fanout_map(ch1, ch2):
    """Exact equality of the two channels as fan-out maps."""
    xs1 = ch1.inputs_tuple(_COMPARE_LIMIT)
    xs2 = ch2.inputs_tuple(_COMPARE_LIMIT)
    if xs1 != xs2:
        return False
    return all(ch1.fanout(x) == ch2.fanout(x) for x in xs1)


def random_table_channel(rng, inputs, outputs):
    """Random explicit channel with non-empty fan-outs (test/selftest helper)."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    table = {}
    for x in inputs:
        k = rng.randint(1, len(outputs))
        table[x] = rng.sample(outputs, k)
    return TableChannel(inputs, outputs, table)
