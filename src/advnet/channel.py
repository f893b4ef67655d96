"""Adversarial channels as fan-out maps.

A channel maps each input symbol to a non-empty set of output symbols (the
fan-out set: everything the adversary can cause to be received).  Channels
come in three representations:

* explicit tables (small alphabets),
* symbolic channels (fan-out by rule, with an optional analytic
  confusability predicate; each input's fan-out is computed once and
  kept),
* composites (product / concatenation / union trees over children, and
  coordinate products: words whose coordinates split into parts, each
  read by its own channel).

Each class owns `confusable` (equal inputs, or meeting fan-outs).
Composites answer it lazily, factor by factor, so powers of channels stay
cheap even when their materialized fan-out sets would not;
`_fanouts_intersect` only compares two different channels, such as union
branches.  A table, or a symbolic channel without a predicate, lists its
fan-outs (`_listed`), and is confusable exactly where they meet: on it
`confusable_pair` scans a code in one pass over an output -> first
position index, and `confusability_adjacency` builds the graph from an
output -> inputs index.  A product is confusable exactly where every
factor is, so `confusability_adjacency` builds its graph as the strong
product of the factors' graphs, asking each distinct factor's own
`confusable` once per unordered pair of its inputs.  A coordinate
product's graph is the strong product of its parts' graphs too, lifted to
word order.  Every other channel answers pair by pair.  `BaseValue`, the
log of an exact count, is the one value type.
"""

import functools
import itertools
import math
from fractions import Fraction

from .errors import AlphabetMismatch, EmptyCode, EmptyFamily, InvalidParams, SearchLimitExceeded
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
        return x == xp or not self.fanout(x).isdisjoint(self.fanout(xp))


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

    inputs is (count, factory), factory() iterating the input space
    afresh on each call.  confusable_fn, when provided, must agree with
    fan-out intersection (callers validate this against explicit
    enumeration on small instances).  Each input's fan-out is computed
    once, on first use, and kept for the channel's lifetime, so a
    confusability search makes one fan-out call per input.
    """

    def __init__(self, inputs, fanout_fn, confusable_fn=None):
        self._count, self._factory = inputs
        self._fanout_fn = fanout_fn
        self._confusable_fn = confusable_fn
        self._fanouts = {}

    def iter_inputs(self):
        return self._factory()

    @property
    def input_count(self):
        return self._count

    def fanout(self, x):
        fan = self._fanouts.get(x)
        if fan is None:
            fan = self._fanouts[x] = frozenset(self._fanout_fn(x))
        return fan

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


class CoordinateProduct(Channel):
    """Channel on the words of length `length` over range(alphabet_size),
    in lexicographic order, that is a product over disjoint sets of
    coordinates.  Each part (coords, ch) reads a word's projection to
    coords, in increasing coordinate order, through ch, whose inputs are
    those sub-words in lexicographic order and whose outputs are sub-words
    on coords as well; the coordinates no part holds read as sent.  A
    fan-out is the product of the parts' fan-outs, so two words are
    confusable iff they agree off the parts and every part finds their
    projections confusable."""

    def __init__(self, alphabet_size, length, parts):
        self.alphabet_size, self.length = alphabet_size, length
        self.parts = tuple((tuple(sorted(coords)), ch) for coords, ch in parts)
        held = [c for coords, _ in self.parts for c in coords]
        if len(set(held)) != len(held) or not set(held) <= set(range(length)):
            raise InvalidParams("parts need disjoint coordinates inside the word")
        self.free = tuple(sorted(set(range(length)) - set(held)))

    def iter_inputs(self):
        return itertools.product(range(self.alphabet_size), repeat=self.length)

    @property
    def input_count(self):
        return self.alphabet_size ** self.length

    def fanout(self, x):
        fans = [ch.fanout(tuple(x[c] for c in coords)) for coords, ch in self.parts]
        if math.prod(len(s) for s in fans) > _MATERIALIZE_LIMIT:
            raise SearchLimitExceeded("coordinate product fan-out too large to materialize")
        made, y = set(), list(x)
        for subs in itertools.product(*fans):
            for (coords, _), sub in zip(self.parts, subs):
                for c, v in zip(coords, sub):
                    y[c] = v
            made.add(tuple(y))
        return frozenset(made)

    def confusable(self, x, xp):
        return (all(x[c] == xp[c] for c in self.free)
                and all(ch.confusable(tuple(x[c] for c in coords), tuple(xp[c] for c in coords))
                        for coords, ch in self.parts))


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
        return any(self.second.confusable(y, yp) for y in mid for yp in mid_p)


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
        return any(_fanouts_intersect(a, b, x, xp)
                   for a in self.branches for b in self.branches)


def _fanouts_intersect(ch_a, ch_b, x_a, x_b):
    """Whether the fan-out of x_a under ch_a meets the fan-out of x_b under
    ch_b; a channel compared with itself answers by its own `confusable`.
    Recurses through composites so product fan-outs are never
    materialized."""
    if ch_a is ch_b:
        return ch_a.confusable(x_a, x_b)
    if isinstance(ch_a, UnionChannel):
        return any(_fanouts_intersect(br, ch_b, x_a, x_b) for br in ch_a.branches)
    if isinstance(ch_b, UnionChannel):
        return any(_fanouts_intersect(ch_a, br, x_a, x_b) for br in ch_b.branches)
    if (isinstance(ch_a, ProductChannel) and isinstance(ch_b, ProductChannel)
            and len(ch_a.factors) == len(ch_b.factors)):
        return all(_fanouts_intersect(fa, fb, a, b)
                   for fa, fb, a, b in zip(ch_a.factors, ch_b.factors, x_a, x_b))
    if isinstance(ch_a, ConcatChannel) and isinstance(ch_b, ConcatChannel):
        return any(_fanouts_intersect(ch_a.second, ch_b.second, y, yp)
                   for y in ch_a.first.fanout(x_a) for yp in ch_b.first.fanout(x_b))
    return not ch_a.fanout(x_a).isdisjoint(ch_b.fanout(x_b))


# -- constructors ------------------------------------------------------------

# `concat` and `union` check alphabets of at most this many inputs
_ALPHABET_CHECK_LIMIT = 1 << 16


def explicit(inputs, outputs, table):
    return TableChannel(inputs, outputs, table)


def identity_channel(symbols):
    symbols = tuple(symbols)
    return TableChannel(symbols, symbols, {x: {x} for x in symbols})


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

def _listed(ch):
    """Whether ch is confusable exactly where its listed fan-outs meet: a
    table, or a symbolic channel without a predicate."""
    return isinstance(ch, TableChannel) or (isinstance(ch, SymbolicChannel)
                                            and ch._confusable_fn is None)


def confusable_pair(ch, code):
    """The first pair of confusable code elements in index order, the
    least (i, j) with i < j, or None.

    On listed fan-outs (`_listed`) this is one pass over the code that
    keeps an index from each output to the first position reaching it:
    position j's earliest collision is the least index over its fan-out,
    or, for an element met before, that element's first position.  It
    stops at the first j colliding with position 0, and reads a fan-out
    only where the pairwise scan would: element 0's once a later distinct
    element is met, each other distinct element's on reaching it.  Other
    channels take the pairwise scan."""
    code = tuple(code)
    if not code:
        raise EmptyCode("a code must be non-empty")
    if not _listed(ch):
        return next(((x, xp) for x, xp in itertools.combinations(code, 2)
                     if ch.confusable(x, xp)), None)
    first, index, best = {code[0]: 0}, None, (len(code), None)
    for j, x in enumerate(code[1:], 1):
        i = first.setdefault(x, j)
        if i == j:
            if index is None:
                index = dict.fromkeys(ch.fanout(code[0]), 0)
            i = min((index.setdefault(y, j) for y in ch.fanout(x)), default=j)
        if i < j and i < best[0]:
            best = i, j
            if i == 0:
                break
    i, j = best
    return None if j is None else (code[i], code[j])


def is_good_code(ch, code):
    """True iff the fan-out sets of the code's elements are pairwise disjoint."""
    return confusable_pair(ch, code) is None


@functools.total_ordering
class BaseValue:
    """e + log_a(count)/uses in base a: an int or Fraction exponent e, a
    positive int or Fraction count and a number of uses; exact=False marks
    an upper bound on what the value names.

    The one value type of capacities, beta values and bounds, each the log
    of a count.  Values add, and compare exactly: both sides raised to a
    common denominator are ratios of integers.  A pure exponent (count 1)
    reads in any alphabet; counts in two bases do not combine
    (AlphabetMismatch).  ints and Fractions act as pure exponents; floats
    compare with the display float `value`, the one place logs are taken.
    """

    __slots__ = ("exponent", "base", "exact", "count", "uses")

    def __init__(self, exponent, base, exact=True, count=1, uses=1):
        if count <= 0 or uses < 1:
            raise InvalidParams("a value needs a positive count and uses")
        self.exponent = exponent if isinstance(exponent, int) else Fraction(exponent)
        self.base, self.exact, self.count, self.uses = base, exact, count, uses

    @property
    def value(self):
        c = Fraction(self.count)
        logs = math.log2(c.numerator) - math.log2(c.denominator)
        return float(self.exponent) + (logs and logs / math.log2(self.base) / self.uses)

    @property
    def bits(self):
        return self.value * math.log2(self.base)

    def _with(self, other):
        """other as a value, and the one base of their counts (None: no count)."""
        other = other if isinstance(other, BaseValue) else BaseValue(other, None)
        bases = {v.base for v in (self, other) if v.count != 1}
        if len(bases) > 1:
            raise AlphabetMismatch(f"counts in bases {sorted(bases)} do not combine")
        return other, next(iter(bases), None)

    def __add__(self, other):
        if isinstance(other, float):
            return self.value + other
        other, base = self._with(other)
        k = math.lcm(self.uses, other.uses)
        count = (Fraction(self.count) ** (k // self.uses)
                 * Fraction(other.count) ** (k // other.uses))
        return BaseValue(self.exponent + other.exponent, base or self.base,
                         self.exact and other.exact, count, k)

    __radd__ = __add__

    def _sign(self, other):
        """Sign of self - other: of their display floats against a float."""
        if isinstance(other, float):
            return (self.value > other) - (self.value < other)
        other, base = self._with(other)
        x = self.exponent - other.exponent
        if base is None:
            return (x > 0) - (x < 0)
        d = math.lcm(x.denominator, self.uses, other.uses)
        n = x.numerator * (d // x.denominator)
        lhs = self.count ** (d // self.uses) * base ** max(n, 0)
        rhs = other.count ** (d // other.uses) * base ** max(-n, 0)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        return isinstance(other, (BaseValue, int, float, Fraction)) and self._sign(other) == 0

    def __lt__(self, other):
        return self._sign(other) < 0

    def __repr__(self):
        tag = "exact" if self.exact else "bound"
        return f"BaseValue({self.value:.6g} in base {self.base}, {tag})"


class CapacityResult:
    """One-shot capacity: `size` words of a good code (the witness) and an
    upper size, equal when the search is exact, else the clique-cover bound
    with exact=False.  `bits`/`lower_bits`/`upper_bits` read their logs."""

    __slots__ = ("size", "upper_size", "witness", "exact")

    def __init__(self, size, witness, exact, upper_size=None):
        self.size, self.witness, self.exact = size, tuple(witness), exact
        self.upper_size = size if exact else upper_size

    def value_in_base(self, base):
        """The capacity as a BaseValue; with exact=False, its upper bound."""
        return BaseValue(0, base, self.exact, max(self.upper_size, 1))

    @property
    def bits(self):
        return BaseValue(0, 2, count=max(self.size, 1)).value

    lower_bits = bits

    @property
    def upper_bits(self):
        return self.value_in_base(2).value

    def __repr__(self):
        tag = "exact" if self.exact else "bounds"
        return f"CapacityResult(bits={self.bits:.6g}, |C|={self.size}, {tag})"


MAX_VERTICES = 512


def confusability_adjacency(ch, max_vertices=MAX_VERTICES):
    """Neighbor bitmasks of the confusability graph (self-loops dropped).

    A table, or a symbolic channel without a predicate, is confusable
    exactly where listed fan-outs meet: its fan-outs are taken once, in
    input order, into an index from each output to the bitmask of the
    inputs reaching it, and row i ORs the index over fan-out(i).

    A product is confusable exactly where every factor is, so its graph is
    the strong product of the factors' graphs (Lovasz 1979): each distinct
    factor object answers its own `confusable` on every unordered pair of
    its inputs, the diagonal included (m(m+1)/2 calls for m inputs), and a
    product input's closed row is the tensor product of its factors' rows
    in `itertools.product` order, one big-int multiply per factor.  The
    self-bits are dropped at the end.

    A `CoordinateProduct` is confusable exactly where its free coordinates
    agree and every part is, so its graph is the strong product of the
    parts' graphs with vertices in word order.  Each part's graph comes
    from this function on the part's own channel, its self-bits added back;
    a sub-word's closed row lifts to the mask of the words that project
    into it, an OR of one mask per neighbour (the lift is the identity when
    the part holds every coordinate), and a word's row ANDs its
    projections' lifted rows, the free coordinates' being their agreement
    masks.  No fan-out of a whole word is listed.

    Concatenations would materialize fan-outs, unions compare branches, and
    an analytic predicate is cheaper than the fan-outs it stands for, so
    these stay pairwise.
    """
    if ch.input_count > max_vertices:
        raise SearchLimitExceeded(
            f"{ch.input_count} inputs exceed the search limit {max_vertices}")
    inputs = ch.inputs_tuple()
    n = len(inputs)
    adj = [0] * n
    if _listed(ch):
        fans = [ch.fanout(x) for x in inputs]
        index = {}
        for i, fan in enumerate(fans):
            for y in fan:
                index[y] = index.get(y, 0) | 1 << i
        for i, fan in enumerate(fans):
            row = 0
            for y in fan:
                row |= index[y]
            adj[i] = row & ~(1 << i)
        return inputs, adj
    if isinstance(ch, ProductChannel):
        rows = {f: _closed_rows(f) for f in dict.fromkeys(ch.factors)}
        # right to left: f's row spread to bits q*size, times a row of the
        # later factors (fewer than size bits), adds no carries
        graph, size = [1], 1
        for f in reversed(ch.factors):
            spread = [sum(1 << q * size for q in range(row.bit_length()) if row >> q & 1)
                      for row in rows[f]]
            graph = [s * rest for s in spread for rest in graph]
            size *= len(spread)
        return inputs, [row & ~(1 << i) for i, row in enumerate(graph)]
    if isinstance(ch, CoordinateProduct):
        graph = _coordinate_rows(ch, max_vertices)
        return inputs, [row & ~(1 << i) for i, row in enumerate(graph)]
    for i, j in itertools.combinations(range(n), 2):
        if ch.confusable(inputs[i], inputs[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return inputs, adj


def _closed_rows(ch):
    """Closed-neighbourhood bitmasks of ch, self-bits included as ch's own
    `confusable` answers them: one call per unordered pair of inputs."""
    inputs = ch.inputs_tuple()
    rows = [0] * len(inputs)
    for i, j in itertools.combinations_with_replacement(range(len(inputs)), 2):
        if ch.confusable(inputs[i], inputs[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _coordinate_rows(ch, max_vertices):
    """Closed rows of a `CoordinateProduct`, one per word in order: per
    part, the rows of its channel's graph with the self-bits (identity
    rows for the free coordinates), each lifted to the words whose
    projection it holds; a word's row ANDs its projections' lifted rows."""
    a, s = ch.alphabet_size, ch.length
    every = (1 << a ** s) - 1
    graph = [every] * a ** s
    for coords, part in ch.parts + (((ch.free, None),) if ch.free else ()):
        if part is None:
            rows = [1 << j for j in range(a ** len(coords))]
        else:
            got, adj = confusability_adjacency(part, max_vertices)
            if got != tuple(itertools.product(range(a), repeat=len(coords))):
                raise AlphabetMismatch("a part's inputs must be its sub-words in order")
            rows = [row | 1 << j for j, row in enumerate(adj)]
        # a part holding every coordinate reads the words themselves; else
        # a sub-word lifts to the mask of the words projecting to it
        if len(coords) < s:
            masks = [every]
            for c in coords:
                masks = [m & w for m in masks for w in _symbol_masks(a, s, c)]
            rows = [_union(masks, row) for row in rows]
        # per word, the index of its projection
        weights = {c: a ** k for k, c in enumerate(reversed(coords))}
        index = [0]
        for c in range(s):
            index = [i + v * weights.get(c, 0) for i in index for v in range(a)]
        graph = [g & rows[j] for g, j in zip(graph, index)]
    return graph


def _symbol_masks(a, s, c):
    """Per symbol v, the mask of the words of length s over range(a), in
    lexicographic order, whose coordinate c holds v."""
    step = a ** (s - 1 - c)
    ones = ((1 << step) - 1) * (((1 << a ** s) - 1) // ((1 << a * step) - 1))
    return [ones << v * step for v in range(a)]


def _union(masks, row):
    """The OR of masks[j] over the set bits j of row."""
    out = 0
    while row:
        low = row & -row
        out |= masks[low.bit_length() - 1]
        row ^= low
    return out


def one_shot_capacity(ch, max_vertices=MAX_VERTICES, node_budget=None):
    """Exact one-shot capacity via maximum independent set of the
    confusability graph.  The witness is the lexicographically smallest
    maximum good code in the canonical input order.  If the node budget is
    exhausted the result is inexact: its lower bound and witness are the
    search's incumbent, the largest good code it had found, or the greedy
    code when that is larger; its upper bound is a greedy clique cover."""
    inputs, adj = confusability_adjacency(ch, max_vertices=max_vertices)
    try:
        size, verts = max_independent_set(adj, node_budget=node_budget)
        return CapacityResult(size, (inputs[v] for v in verts), True)
    except SearchLimitExceeded as exc:
        lower = max(greedy_independent_set(adj), exc.incumbent, key=len)
        upper = greedy_clique_cover_size(adj)
        return CapacityResult(len(lower), (inputs[v] for v in lower), False, upper)


def zero_error_bounds(ch, n_max):
    """(lower, upper) bounds on the zero-error capacity as `BaseValue`s in
    base 2.

    lower = max over n <= n_max of C(ch^n)/n, the count C(ch^n) over n
    uses.  upper is the universal count |X|, and collapses to 0 when lower
    is 0: then the one-shot capacity is 0, so every two inputs are
    confusable, in every power too.
    """
    if n_max < 1:
        raise ValueError("zero_error_bounds requires n_max >= 1")
    best = BaseValue(0, 2)
    for n in range(1, n_max + 1):
        res = one_shot_capacity(power(ch, n))
        if not res.exact:
            raise SearchLimitExceeded(f"capacity search for power {n} not exact")
        best = max(best, BaseValue(0, 2, count=res.size, uses=n))
    return best, BaseValue(0, 2, count=1 if best == 0 else ch.input_count)


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
