"""Coordinate-restricted error/erasure channels and their capacities.

Words live in A^s for an alphabet of size a (encoded 0..a-1); received
words may carry the erasure symbol STAR.  A spec lists blocks (U, t, e):
the adversary owning block U may corrupt up to t coordinates of U into
different symbols and erase up to e of them.  Blocks may share coordinates
only when none of them carries erasures; a coordinate any of them corrupts
takes any other symbol.  The layout is read from the blocks: a result that
needs disjoint blocks checks `disjoint(blocks)`.

The adversary model lives here only: a `Block`'s coordinates may be word
positions or network edge ids, so `network.AdversarySpec` holds the same
blocks, checked by `check_blocks`.  `reader` is the one statement of what the
blocks may do, one coordinate at a time in a given order, cached per blocks,
alphabet and order; it memoizes the budgets each read leaves and retires a
block once its last coordinate is read.  Its joint form reads several
coordinates at once from the action patterns memoized per (coordinates,
budget): which keep their value, take another symbol or read STAR.
`in_fanout` walks words through the per-coordinate read; the sweeps of
`network.adversarial_fanouts` read each vertex's in-edges jointly, and
`actions` lists, once per blocks, the (corrupted, erased) choices of a
joint read, which `ball` applies to a word for word fan-outs,
`adversarial_strength` and a per-symbol adversary's symbol ball.
`chosen_subsets` lists the compound model's fixed vulnerable sets and
`restrict` narrows blocks to them.

Blocks that share no coordinate, directly or through other blocks, act
independently, so a spec is the product of its `components` (Shannon 1956;
Lovasz, IEEE T-IT 1979): `component_channel` lists each component's
fan-outs on its own a^|C| words, and the coordinates no block holds read
as sent.  `brute_force_capacity` searches that product's graph, which is
the explicit table's graph bit for bit, in word order; `explicit_channel`
lists every word's fan-out for the callers that need the table itself.

A product alphabet B^m is a spec over B with one block per symbol, over
its m sub-symbols.  Capacity values in this module are `BaseValue`s built
from integers: e + log_a(count)/uses, with the base a recorded.  Bounds
that never read the alphabet (Singleton type, overlap, rank, product
alphabet) are pure exponents; each bound takes one spec.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import codes, gf
from .channel import (STAR, BaseValue, CoordinateProduct, SymbolicChannel, TableChannel,
                      UnionChannel, is_good_code, one_shot_capacity, power)
from .errors import (AlphabetMismatch, FieldTooSmall, IndexOutOfRange,
                     InvalidParams, SearchLimitExceeded, UnsupportedVariant)


@dataclass(frozen=True)
class Block:
    """Coordinates one adversary owns (word positions or network edge ids),
    with its error budget t and erasure budget e."""

    coords: frozenset
    t: int
    e: int = 0

    def __init__(self, coords, t, e=0):
        object.__setattr__(self, "coords", frozenset(coords))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "e", e)
        if t < 0 or e < 0:
            raise InvalidParams("error/erasure powers must be non-negative")

    def __iter__(self):
        """Unpacks as (coords, t, e)."""
        return iter((self.coords, self.t, self.e))


def covered(blocks):
    """The coordinates some block holds."""
    return frozenset().union(*(b.coords for b in blocks))


def disjoint(blocks):
    """Whether no two blocks share a coordinate."""
    return sum(len(b.coords) for b in blocks) == len(covered(blocks))


def check_blocks(blocks):
    """Reject erasures on blocks that share a coordinate."""
    if any(b.e for b in blocks) and not disjoint(blocks):
        raise InvalidParams("blocks that share coordinates are erasure-free")


def restrict(blocks, chosen):
    """Each block narrowed to its chosen coordinates (V within U)."""
    return tuple(Block(b.coords & set(v), b.t, b.e) for b, v in zip(blocks, chosen))


@dataclass(frozen=True)
class HammingSpec:
    """Multi-adversary error/erasure channel on A^s.

    Budgets may exceed block sizes (t+e > |U| is allowed).  Blocks that
    share coordinates are erasure-free.
    """

    alphabet_size: int
    length: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.alphabet_size < 2:
            raise InvalidParams("alphabet size must be >= 2")
        for b in self.blocks:
            if any(not 0 <= i < self.length for i in b.coords):
                raise IndexOutOfRange("block coordinate outside the word length")
        check_blocks(self.blocks)

    def clip(self, chosen):
        """Restrict each block to a chosen coordinate subset (V within U)."""
        return HammingSpec(self.alphabet_size, self.length,
                           restrict(self.blocks, chosen))


def single_block(alphabet_size, length, coords, t, e=0):
    return HammingSpec(alphabet_size, length, (Block(coords, t, e),))


def subsets_upto(items, r):
    """The subsets of sorted(items) with at most r elements, as tuples,
    smallest first."""
    items = sorted(items)
    return [c for k in range(min(r, len(items)) + 1)
            for c in itertools.combinations(items, k)]


def words(a, s):
    return itertools.product(range(a), repeat=s)


# -- the adversary read ---------------------------------------------------------

@functools.cache
def reader(blocks, alphabet, order):
    """(read, spare) for the blocks over the alphabet, read in `order`.
    read(coord, v, spare) lists what coordinate coord, holding v, may read
    as: v itself, then each other symbol and STAR that a block holding
    coord, with budget of that kind left, can pay for from a budget in
    spare, each paired with the budgets then left (one per choice of budget
    and paying block), where the blocks coord ends in order have t = e = 0.
    The tuple read returns is memoized per (coord, v, spare).  A budget
    lists each block's remaining t and e in turn; spare, a frozenset of
    budgets, starts as the blocks' full budgets.

    read.joint(coords, values, spare), both tuples, lists every (in-tuple,
    budget left) that the coordinates coords, holding values and read in
    turn, may read as: the set that read's choices give coordinate by
    coordinate.  Per (coords, spare) it memoizes the patterns, which
    coordinates keep their value (kind 0), take another symbol (1) or
    read STAR (2), each with the budgets it leaves, from the same pay and
    retire rule.  A pattern reads as the product of its coordinates'
    alternatives, so a key with nothing left to spend is one pattern: its
    own values.  The tuple joint returns is memoized per (coords, values,
    spare)."""
    last = [max(b.coords, key=order.index, default=None) for b in blocks]
    paid, listed, patterns, alternatives, joined = {}, {}, {}, {}, {}

    def pay(spare, coord, erase):
        return frozenset(left[:j] + (left[j] - 1,) + left[j + 1:] for left in spare
                         for j, b in zip(range(int(erase), 2 * len(blocks), 2), blocks)
                         if left[j] and coord in b.coords)

    def retire(budgets, coord):
        return frozenset(tuple(0 if last[k // 2] == coord else n for k, n in enumerate(left))
                         for left in budgets)

    def budgets(coord, spare):
        """The budgets left by (keep, corrupt, erase) at coord from spare;
        an empty one means no block can pay."""
        left = paid.get((coord, spare))
        if left is None:
            left = paid[coord, spare] = tuple(retire(s, coord) for s in (
                spare, pay(spare, coord, False), pay(spare, coord, True)))
        return left

    def read(coord, v, spare):
        choices = listed.get((coord, v, spare))
        if choices is None:
            keep, errs, stars = budgets(coord, spare)
            choices = listed[coord, v, spare] = (
                ((v, keep),) + tuple((w, errs) for w in (alphabet if errs else ()) if w != v)
                + (((STAR, stars),) if stars else ()))
        return choices

    def joint(coords, values, spare):
        made = joined.get((coords, values, spare))
        if made is None:
            ways = patterns.get((coords, spare))
            if ways is None:
                ways = [((), spare)]
                for coord in coords:
                    ways = [(kinds + (kind,), left) for kinds, s in ways
                            for kind, left in enumerate(budgets(coord, s)) if left]
                ways = patterns[coords, spare] = tuple(ways)
            alts = [alternatives.get(v) or alternatives.setdefault(
                v, ((v,), tuple(w for w in alphabet if w != v), (STAR,))) for v in values]
            made = joined[coords, values, spare] = tuple(
                (got, left) for kinds, left in ways
                for got in itertools.product(*map(tuple.__getitem__, alts, kinds)))
        return made

    read.joint = joint
    return read, frozenset({tuple(n for b in blocks for n in (b.t, b.e))})


@functools.cache
def actions(blocks):
    """Each distinct (corrupted, erased) pair of position sets the blocks (a
    tuple) can make: the covered positions of a zero word read jointly over
    (0, 1) through `reader`, 1 marking a corrupted position and STAR an
    erased one."""
    order = tuple(covered(blocks))
    read, spare = reader(blocks, (0, 1), order)
    return tuple((frozenset(i for i, w in zip(order, got) if w == 1),
                  frozenset(i for i, w in zip(order, got) if w == STAR))
                 for got, _ in read.joint(order, (0,) * len(order), spare))


def ball(word, acts, alphabet):
    """Every word that the actions `acts` can make of word: corrupted
    positions take every other symbol of the alphabet, erased ones STAR."""
    made = set()
    for err, stars in acts:
        y = list(word)
        for i in stars:
            y[i] = STAR
        for vals in itertools.product(
                *[[v for v in alphabet if v != word[i]] for i in err]):
            for i, v in zip(err, vals):
                y[i] = v
            made.add(tuple(y))
    return made


def ball_size(n, t, e, a):
    """len(fanout(single_block(a, n, range(n), t, e), w)) for any word w
    over range(a): distinct actions of one block make distinct words."""
    return sum(math.comb(n, i) * (a - 1) ** i * math.comb(n - i, j)
               for i in range(min(t, n) + 1) for j in range(min(e, n - i) + 1))


def chosen_subsets(blocks):
    """Every per-block choice of vulnerable positions V_l, |V_l| <= t_l + e_l,
    for blocks (coords, t, e)."""
    return list(itertools.product(*[subsets_upto(coords, t + e)
                                    for coords, t, e in blocks]))


# -- membership --------------------------------------------------------------

def in_fanout(spec, x, y):
    """Whether y is a possible received word when x is sent: each coordinate
    of x can read, through `reader`, as that of y, on a budget the earlier
    reads left."""
    alphabet = range(spec.alphabet_size)
    if len(x) != spec.length or len(y) != spec.length:
        raise AlphabetMismatch("word length mismatch")
    if any(v not in alphabet for v in x) or any(w not in alphabet and w != STAR for w in y):
        raise AlphabetMismatch("symbol outside the alphabet")
    read, spare = reader(spec.blocks, alphabet, range(spec.length))
    for i, (v, w) in enumerate(zip(x, y)):
        spare = dict(read(i, v, spare)).get(w)
        if spare is None:
            return False
    return True


def fanout(spec, x):
    """Explicit fan-out set of x (tiny instances only)."""
    return frozenset(ball(x, actions(spec.blocks), range(spec.alphabet_size)))


# -- confusability -----------------------------------------------------------

def confusable_analytic(spec, x, xp):
    """Closed-form fan-out intersection test (disjoint blocks)."""
    if not disjoint(spec.blocks):
        raise UnsupportedVariant(
            "analytic confusability covers disjoint blocks only")
    held = covered(spec.blocks)
    for i in range(spec.length):
        if i not in held and x[i] != xp[i]:
            return False
    for b in spec.blocks:
        d = sum(1 for i in b.coords if x[i] != xp[i])
        if d > 2 * b.t + b.e:
            return False
    return True


# inputs of an explicit channel table (a compound channel allows its square)
TABLE_LIMIT = 1 << 12


def explicit_channel(spec):
    a, s = spec.alphabet_size, spec.length
    if a ** s > TABLE_LIMIT:
        raise SearchLimitExceeded("alphabet too large for an explicit table")
    inputs = list(words(a, s))
    table = {x: fanout(spec, x) for x in inputs}
    return TableChannel(inputs, frozenset().union(*table.values()), table)


def symbolic_channel(spec):
    a, s = spec.alphabet_size, spec.length
    conf = None
    if disjoint(spec.blocks):
        conf = lambda x, xp: confusable_analytic(spec, x, xp)
    return SymbolicChannel((a ** s, lambda: words(a, s)),
                           lambda x: fanout(spec, x),
                           confusable_fn=conf)


# -- capacity values ----------------------------------------------------------

def capacity_single_block(spec):
    """One-shot capacity of a single-block spec: a^(s-u) beta(a, u, 2t+e+1)
    codewords; where beta is not known exactly the value is an upper bound
    with beta's Singleton size (exact=False)."""
    if len(spec.blocks) != 1:
        raise InvalidParams("single-block spec required")
    b = spec.blocks[0]
    u = len(b.coords)
    bv = codes.beta(spec.alphabet_size, u, 2 * b.t + b.e + 1)
    return BaseValue(spec.length - u, spec.alphabet_size, bv.exact, bv.upper_size)


def block_sigma(block):
    return min(2 * block.t + block.e, len(block.coords))


def sigmas(spec):
    return tuple(block_sigma(b) for b in spec.blocks)


def sigma(spec):
    return sum(sigmas(spec))


def singleton_hamming_bound(spec):
    """Single-block spec: the tighter of the Singleton-type
    multi_block_bound and the Hamming-type max(1, a^s / |ball of radius
    t + floor(e/2) in U|) codewords, unfloored: n uses pack (a^s/|ball|)^n."""
    if len(spec.blocks) != 1:
        raise InvalidParams("single-block spec required")
    (coords, t, e), = spec.blocks
    a = spec.alphabet_size
    packing = BaseValue(spec.length, a,
                        count=Fraction(1, ball_size(len(coords), t + e // 2, 0, a)))
    return min(multi_block_bound(spec), max(BaseValue(0, a), packing))


def multi_block_bound(spec, n=1):
    """Upper bound n(s - sum_l min(2t_l+e_l, |U_l|)) on the capacity of n
    uses (also valid for the compound model), a pure exponent."""
    if not disjoint(spec.blocks):
        raise InvalidParams("disjoint blocks required")
    return BaseValue(n * (spec.length - sigma(spec)), spec.alphabet_size)


# -- compound channels ---------------------------------------------------------

def compound_channel(spec, n):
    """Union over coordinate choices V of the n-fold product of the clipped
    channels: the adversaries fix their vulnerable coordinates across uses."""
    if not disjoint(spec.blocks):
        raise InvalidParams("disjoint blocks required")
    choices = chosen_subsets(spec.blocks)
    if len(choices) * spec.alphabet_size ** (spec.length * n) > TABLE_LIMIT ** 2:
        raise SearchLimitExceeded("compound channel too large")
    return UnionChannel([power(explicit_channel(spec.clip(chosen)), n) for chosen in choices])


# -- achievability -------------------------------------------------------------

# codewords that `achievability_code` and `rank_achievability` check pairwise
PAIRWISE_LIMIT = 1 << 11


def achievability_code(spec, field):
    """[s, s-sigma, sigma+1] MDS code, checked pairwise to be good for the
    spec's channel."""
    if not disjoint(spec.blocks):
        raise InvalidParams("disjoint blocks required")
    if field.q != spec.alphabet_size:
        raise AlphabetMismatch("field order must match the alphabet size")
    sg = sigma(spec)
    if sg >= spec.length:
        raise InvalidParams("zero-rate spec: sigma >= s")
    gen = codes.mds_generator(field, spec.length, spec.length - sg)
    code = codes.BlockCode.from_generator(field, gen)
    cw = code.codewords
    if len(cw) > PAIRWISE_LIMIT:
        raise SearchLimitExceeded("code too large to verify pairwise")
    if not is_good_code(symbolic_channel(spec), cw):
        raise FieldTooSmall("construction not good for this spec")
    return code


# -- product alphabets ---------------------------------------------------------

def product_alphabet_bound(spec):
    """s max(0, m - 2t - e) / m in base-(b^m) units: multi_block_bound / m
    for s symbols over B^m, a spec over B with one block per symbol."""
    m = spec.length // len(spec.blocks) if spec.blocks else 1
    return BaseValue(Fraction(multi_block_bound(spec).exponent, m), spec.alphabet_size ** m)


def product_alphabet_channel(b, m, s, t, e):
    """Channel on (B^m)^s where every symbol independently suffers up to t
    sub-symbol errors and e erasures."""
    if (b ** m) ** s > TABLE_LIMIT:
        raise SearchLimitExceeded("product-alphabet channel too large")
    return power(explicit_channel(single_block(b, m, range(m), t, e)), s)


# -- overlapping adversaries ----------------------------------------------------

def adversarial_strength(blocks):
    """Exhaustive max size of a union of two per-block <=t subsets: the
    union of two <=t subsets of a block is one <=2t subset of it."""
    return max(len(err) for err, _ in actions(tuple(Block(b.coords, 2 * b.t) for b in blocks)))


def overlap_bound(spec):
    """s - adversarial_strength(blocks), a pure exponent; the strength ignores
    erasure budgets, so the blocks must carry none."""
    if any(b.e for b in spec.blocks):
        raise InvalidParams("erasure-free blocks required")
    return BaseValue(spec.length - adversarial_strength(spec.blocks),
                     spec.alphabet_size)


# -- the intersection witness ---------------------------------------------------

def keylong_witness(spec):
    """Deterministic witness (V, V', Ubar): per-block splits with
    |V_l|, |V'_l| <= t_l + e_l and |Ubar| = sigma such that any two words
    agreeing off Ubar have intersecting fan-outs under the clipped specs."""
    if not disjoint(spec.blocks):
        raise InvalidParams("disjoint blocks required")
    V, Vp, stars = [], [], []
    ubar = set()
    for b in spec.blocks:
        coords = sorted(b.coords)
        sg = block_sigma(b)
        chosen = coords[:sg]
        n1 = min(b.t, sg)
        n2 = min(b.t, sg - n1)
        u1 = set(chosen[:n1])
        u2 = set(chosen[n1:n1 + n2])
        ustar = set(chosen[n1 + n2:])
        V.append(frozenset(u1 | ustar))
        Vp.append(frozenset(u2 | ustar))
        stars.append(frozenset(ustar))
        ubar |= set(chosen)
    return tuple(V), tuple(Vp), frozenset(ubar), tuple(stars)


def keylong_common_output(spec, witness, x, xp):
    """The explicit common word z in the two clipped fan-outs."""
    V, Vp, _, stars = witness
    vbar = set().union(*V) if V else set()
    vpbar = set().union(*Vp) if Vp else set()
    starbar = set().union(*stars) if stars else set()
    z = list(x)
    for i in range(spec.length):
        if i in starbar:
            z[i] = STAR
        elif i in vbar:
            z[i] = xp[i]
        elif i in vpbar:
            z[i] = x[i]
    return tuple(z)


# -- rank-metric adversaries ----------------------------------------------------

@dataclass(frozen=True)
class RankMetricSpec:
    """Adversary on m x s matrices over F_q: may rewrite columns indexed by
    U as long as the difference matrix has rank at most t."""

    q: int
    m: int
    s: int
    coords: frozenset
    t: int

    def __init__(self, q, m, s, coords, t):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "coords", frozenset(coords))
        object.__setattr__(self, "t", t)
        if t < 0:
            raise InvalidParams("t must be non-negative")
        if any(not 0 <= i < s for i in self.coords):
            raise IndexOutOfRange("column index out of range")


def _differ_within(spec, m1, m2, bound):
    """Whether m2 - m1 is zero off the columns U and has rank <= bound."""
    diff = m2 - m1
    for j in range(spec.s):
        if j not in spec.coords and any(row[j] for row in diff.rows):
            return False
    return diff.rank() <= bound


def rank_in_fanout(spec, m1, m2):
    """Whether matrix m2 is reachable from m1 (both gf.Matrix over F_q)."""
    return _differ_within(spec, m1, m2, spec.t)


def rank_confusable(spec, m1, m2):
    """Fan-outs intersect iff columns agree off U and the difference has
    rank at most 2t."""
    return _differ_within(spec, m1, m2, 2 * spec.t)


def rank_explicit_channel(spec):
    field = gf.make_field(spec.q)
    total = spec.q ** (spec.m * spec.s)
    if total > TABLE_LIMIT:
        raise SearchLimitExceeded("matrix space too large")
    mats = []
    for combo in itertools.product(range(spec.q), repeat=spec.m * spec.s):
        rows = tuple(combo[i * spec.s:(i + 1) * spec.s] for i in range(spec.m))
        mats.append(gf.Matrix(field, rows))
    table = {m1: frozenset(m2 for m2 in mats if rank_in_fanout(spec, m1, m2))
             for m1 in mats}
    return TableChannel(mats, mats, table)


def rank_channel_bound(spec):
    """s - min(2t, |U|) in base-(q^m) units, a pure exponent."""
    return BaseValue(spec.s - min(2 * spec.t, len(spec.coords)), spec.q ** spec.m)


def rank_achievability(q, m, s, t):
    """Gabidulin code of rank distance 2t+1 achieving s - 2t, checked
    pairwise; requires q >= m >= s and 2t < s."""
    if not (q >= m >= s):
        raise FieldTooSmall("achievability needs q >= m >= s")
    if 2 * t >= s:
        raise InvalidParams("need 2t < s for a positive rate")
    field = gf.make_field(q)
    rc = codes.gabidulin(field, m, s, s - 2 * t)
    cw = rc.codewords()
    if len(cw) > PAIRWISE_LIMIT:
        raise SearchLimitExceeded("code too large to verify pairwise")
    for w1, w2 in itertools.combinations(cw, 2):
        if rc.rank_distance(w1, w2) <= 2 * t:
            raise FieldTooSmall("construction not good for this spec")
    return rc


# -- brute-force capacity helper -------------------------------------------------

BRUTE_FORCE_LIMIT = 1 << 10


def components(spec):
    """The spec split where its blocks do not meet: blocks that share a
    coordinate, directly or through other blocks, form one component.  Per
    component, by least coordinate, (coords, sub-spec): its coordinates in
    increasing order and its blocks renumbered onto them.  Blocks with no
    coordinates act on nothing and join none."""
    groups = []
    for b in spec.blocks:
        if b.coords:
            linked = [g for g in groups if not g.isdisjoint(b.coords)]
            groups = [g for g in groups if g not in linked] + [b.coords.union(*linked)]
    parts = []
    for group in sorted(groups, key=min):
        coords = tuple(sorted(group))
        pos = {c: k for k, c in enumerate(coords)}
        blocks = tuple(Block(map(pos.get, b.coords), b.t, b.e)
                       for b in spec.blocks if b.coords and b.coords <= group)
        parts.append((coords, HammingSpec(spec.alphabet_size, len(coords), blocks)))
    return parts


def component_channel(spec):
    """The spec's channel as a `CoordinateProduct` of its components'
    explicit tables.  No block reaches outside its component, so a word's
    fan-out is the product of its projections' fan-outs, and the
    coordinates no block holds read as sent."""
    return CoordinateProduct(spec.alphabet_size, spec.length,
                             [(coords, explicit_channel(sub)) for coords, sub in components(spec)])


def brute_force_capacity(spec, node_budget=None):
    """Exact one-shot capacity of a tiny spec by explicit search, as a
    BaseValue in base a; a spec of more than BRUTE_FORCE_LIMIT words raises
    SearchLimitExceeded before any word is listed.  The graph is the strong
    product of the components' graphs (`component_channel`), each from its
    own table on a^|C| words, with vertices in word order: it equals the
    graph of `explicit_channel(spec)` bit for bit, so the search, its
    witness and its incumbents are the table's.  When the node budget runs
    out it raises SearchLimitExceeded whose incumbent is the witness of the
    inexact result: the words of the largest good code found."""
    if spec.alphabet_size ** spec.length > BRUTE_FORCE_LIMIT:
        raise SearchLimitExceeded("too many words for a brute-force capacity")
    res = one_shot_capacity(component_channel(spec), max_vertices=BRUTE_FORCE_LIMIT,
                            node_budget=node_budget)
    if not res.exact:
        raise SearchLimitExceeded("budget exhausted in brute-force capacity", res.witness)
    return res.value_in_base(spec.alphabet_size)
