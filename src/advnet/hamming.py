"""Coordinate-restricted error/erasure channels and their capacities.

Words live in A^s for an alphabet of size a (encoded 0..a-1); received
words may carry the erasure symbol STAR.  A spec lists blocks (U, t, e):
the adversary owning block U may corrupt up to t coordinates of U into
different symbols and erase up to e of them.  Disjoint-variant blocks are
pairwise disjoint; the overlapping variant composes erasure-free block
adversaries acting in sequence (order irrelevant).

The action set lives here only: `block_actions` (one block's corrupted
and erased positions), `ball` (blocks applied in sequence to a word) and
`ball_size` serve these fan-outs and `network.adversarial_fanouts`;
`chosen_subsets` lists the compound model's fixed vulnerable sets.

Capacity values in this module are logarithms in base a, with the base
recorded on the returned value.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from . import codes, gf
from .channel import (STAR, ProductChannel, SymbolicChannel, TableChannel,
                      UnionChannel, one_shot_capacity)
from .errors import (AlphabetMismatch, FieldTooSmall, IndexOutOfRange,
                     InvalidParams, SearchLimitExceeded, UnsupportedVariant)

DISJOINT = "disjoint"
OVERLAPPING = "overlapping"


@dataclass(frozen=True)
class Block:
    coords: frozenset
    t: int
    e: int

    def __init__(self, coords, t, e):
        object.__setattr__(self, "coords", frozenset(coords))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "e", e)
        if t < 0 or e < 0:
            raise InvalidParams("error/erasure powers must be non-negative")

    def __iter__(self):
        """Unpacks as (coords, t, e), the block form `ball` takes."""
        return iter((self.coords, self.t, self.e))


@dataclass(frozen=True)
class HammingSpec:
    """Multi-adversary error/erasure channel on A^s.

    Budgets may exceed block sizes (t+e > |U| is allowed).  The overlapping
    variant is erasure-free.
    """

    alphabet_size: int
    length: int
    blocks: tuple
    variant: str = DISJOINT

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise InvalidParams("alphabet size must be >= 2")
        for b in self.blocks:
            if any(not 0 <= i < self.length for i in b.coords):
                raise IndexOutOfRange("block coordinate outside the word length")
        if self.variant == DISJOINT:
            seen = set()
            for b in self.blocks:
                if seen & b.coords:
                    raise InvalidParams("disjoint-variant blocks must not overlap")
                seen |= b.coords
        elif self.variant == OVERLAPPING:
            if any(b.e for b in self.blocks):
                raise InvalidParams("overlapping variant is erasure-free")
        else:
            raise UnsupportedVariant(self.variant)

    @property
    def covered(self):
        return frozenset().union(*(b.coords for b in self.blocks))

    def clip(self, chosen):
        """Restrict each block to a chosen coordinate subset (V within U)."""
        new = tuple(Block(b.coords & set(v), b.t, b.e)
                    for b, v in zip(self.blocks, chosen))
        return HammingSpec(self.alphabet_size, self.length, new, self.variant)


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


# -- the adversary action set ---------------------------------------------------

def block_actions(coords, t, e):
    """Every (corrupted, erased) choice of positions for one block: up to t
    corrupted positions, then up to e erased ones among the rest."""
    return [(err, stars) for err in subsets_upto(coords, t)
            for stars in subsets_upto(set(coords).difference(err), e)]


def ball(word, blocks, alphabet):
    """Every word that blocks (coords, t, e), acting in sequence, can make
    of word: each block sets up to t of its positions to other symbols of
    the alphabet and erases up to e others."""
    made = {tuple(word)}
    for coords, t, e in blocks:
        actions = block_actions(coords, t, e)
        before, made = made, set()
        for w in before:
            for err, stars in actions:
                y = list(w)
                for i in stars:
                    y[i] = STAR
                for vals in itertools.product(
                        *[[v for v in alphabet if v != w[i]] for i in err]):
                    for i, v in zip(err, vals):
                        y[i] = v
                    made.add(tuple(y))
    return made


def ball_size(n, t, e, a):
    """len(ball(w, [(range(n), t, e)], range(a))) for any word w over
    range(a): distinct actions of one block make distinct words."""
    return sum(math.comb(n, i) * (a - 1) ** i * math.comb(n - i, j)
               for i in range(min(t, n) + 1) for j in range(min(e, n - i) + 1))


def chosen_subsets(blocks):
    """Every per-block choice of vulnerable positions V_l, |V_l| <= t_l + e_l,
    for blocks (coords, t, e)."""
    return list(itertools.product(*[subsets_upto(coords, t + e)
                                    for coords, t, e in blocks]))


# -- discrepancy and erasure weight ------------------------------------------

def discrepancy(y, x, coords):
    """Number of non-erased disagreements between y and x inside coords."""
    for i in coords:
        if not 0 <= i < len(y):
            raise IndexOutOfRange(f"coordinate {i} out of range")
    return sum(1 for i in coords if y[i] != STAR and y[i] != x[i])


def erasure_weight(y, coords):
    for i in coords:
        if not 0 <= i < len(y):
            raise IndexOutOfRange(f"coordinate {i} out of range")
    return sum(1 for i in coords if y[i] == STAR)


# -- membership --------------------------------------------------------------

def in_fanout(spec, x, y):
    """Whether y is a possible received word when x is sent."""
    if len(x) != spec.length or len(y) != spec.length:
        raise AlphabetMismatch("word length mismatch")
    if spec.variant == DISJOINT:
        covered = spec.covered
        for i in range(spec.length):
            if i not in covered and y[i] != x[i]:
                return False
        for b in spec.blocks:
            if discrepancy(y, x, b.coords) > b.t:
                return False
            if erasure_weight(y, b.coords) > b.e:
                return False
        return True
    # overlapping: y = x off the union, and the changed coordinates admit an
    # assignment to blocks within their budgets (per-coordinate flow check)
    covered = spec.covered
    if any(y[i] == STAR for i in range(spec.length)):
        return False
    diff = [i for i in range(spec.length) if y[i] != x[i]]
    if any(i not in covered for i in diff):
        return False
    return _assignable(diff, spec.blocks)


def _assignable(positions, blocks):
    """Bipartite feasibility: each position to some block containing it,
    block ell taking at most t_ell positions (augmenting-path matching
    over block slots)."""
    slots = []
    for idx, b in enumerate(blocks):
        slots.extend([idx] * b.t)
    match = {}

    def try_place(pos, visited):
        for s_idx, b_idx in enumerate(slots):
            if s_idx in visited or pos not in blocks[b_idx].coords:
                continue
            visited.add(s_idx)
            if s_idx not in match or try_place(match[s_idx], visited):
                match[s_idx] = pos
                return True
        return False

    for pos in positions:
        if not try_place(pos, set()):
            return False
    return True


def fanout(spec, x):
    """Explicit fan-out set of x (tiny instances only)."""
    return frozenset(ball(x, spec.blocks, range(spec.alphabet_size)))


# -- confusability -----------------------------------------------------------

def confusable_analytic(spec, x, xp):
    """Closed-form fan-out intersection test (disjoint variant)."""
    if spec.variant != DISJOINT:
        raise UnsupportedVariant(
            "analytic confusability covers the disjoint variant only")
    covered = spec.covered
    for i in range(spec.length):
        if i not in covered and x[i] != xp[i]:
            return False
    for b in spec.blocks:
        d = sum(1 for i in b.coords if x[i] != xp[i])
        if d > 2 * b.t + b.e:
            return False
    return True


# inputs of an explicit channel table (a compound channel allows its square)
TABLE_LIMIT = 1 << 12


def explicit_channel(spec, limit=TABLE_LIMIT):
    a, s = spec.alphabet_size, spec.length
    if a ** s > limit:
        raise SearchLimitExceeded("alphabet too large for an explicit table")
    inputs = list(words(a, s))
    outputs = list(itertools.product(tuple(range(a)) + (STAR,), repeat=s))
    return TableChannel(inputs, outputs, {x: fanout(spec, x) for x in inputs})


def symbolic_channel(spec):
    a, s = spec.alphabet_size, spec.length
    conf = None
    if spec.variant == DISJOINT:
        conf = lambda x, xp: confusable_analytic(spec, x, xp)
    return SymbolicChannel((a ** s, lambda: words(a, s)),
                           lambda x: fanout(spec, x),
                           confusable_fn=conf)


# -- capacity values ----------------------------------------------------------

class BaseValue:
    """A capacity value or bound expressed as a log in the given base;
    exact=False means the value is an upper bound on what it names."""

    __slots__ = ("value", "base", "exact")

    def __init__(self, value, base, exact=True):
        self.value = value
        self.base = base
        self.exact = exact

    @property
    def bits(self):
        return self.value * math.log2(self.base)

    def __repr__(self):
        tag = "exact" if self.exact else "bound"
        return f"BaseValue({self.value:.6g} in base {self.base}, {tag})"


def capacity_single_block(spec):
    """One-shot capacity s - u + beta(a, u, 2t+e+1) of a single-block
    disjoint spec, in base-a units; where beta is not known exactly the
    value is an upper bound with beta's Singleton value (exact=False)."""
    if spec.variant != DISJOINT or len(spec.blocks) != 1:
        raise InvalidParams("single-block disjoint spec required")
    b = spec.blocks[0]
    u = len(b.coords)
    bv = codes.beta(spec.alphabet_size, u, 2 * b.t + b.e + 1)
    return BaseValue(spec.length - u + bv.upper_value, spec.alphabet_size, bv.exact)


def block_sigma(block):
    return min(2 * block.t + block.e, len(block.coords))


def sigmas(spec):
    return tuple(block_sigma(b) for b in spec.blocks)


def sigma(spec):
    return sum(sigmas(spec))


def multi_block_bound(spec, n=1):
    """Upper bound n(s - sum_l min(2t_l+e_l, |U_l|)) on the capacity of n
    uses (also valid for the compound model), base-a units."""
    if spec.variant != DISJOINT:
        raise InvalidParams("disjoint variant required")
    return BaseValue(n * (spec.length - sigma(spec)), spec.alphabet_size)


# -- compound channels ---------------------------------------------------------

def compound_channel(spec, n):
    """Union over coordinate choices V of the n-fold product of the clipped
    channels: the adversaries fix their vulnerable coordinates across uses."""
    if spec.variant != DISJOINT:
        raise InvalidParams("disjoint variant required")
    choices = chosen_subsets(spec.blocks)
    if len(choices) * spec.alphabet_size ** (spec.length * n) > TABLE_LIMIT ** 2:
        raise SearchLimitExceeded("compound channel too large")
    branches = []
    for chosen in choices:
        clipped = explicit_channel(spec.clip(chosen))
        branches.append(ProductChannel([clipped] * n) if n > 1 else clipped)
    return UnionChannel(branches)


def compound_confusable(spec, n, xs, xps):
    """Whether two n-tuples of words are confusable for the compound channel."""
    if spec.variant != DISJOINT:
        raise InvalidParams("disjoint variant required")
    choices = chosen_subsets(spec.blocks)

    @functools.cache
    def fan(chosen, w):
        return fanout(spec.clip(chosen), w)

    for ca in choices:
        for cb in choices:
            if all(fan(ca, x) & fan(cb, xp) for x, xp in zip(xs, xps)):
                return True
    return False


# -- achievability -------------------------------------------------------------

# codewords that `achievability_code` and `rank_achievability` check pairwise
PAIRWISE_LIMIT = 1 << 11


def achievability_code(spec, field):
    """[s, s-sigma, sigma+1] MDS code, checked pairwise to be good for the
    spec's channel."""
    if spec.variant != DISJOINT:
        raise InvalidParams("disjoint variant required")
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
    for w1, w2 in itertools.combinations(cw, 2):
        if confusable_analytic(spec, w1, w2):
            raise FieldTooSmall("construction not good for this spec")
    return code


# -- product alphabets ---------------------------------------------------------

def product_alphabet_bound(t, e, b, m, s, n=1):
    """n * s/m * max(0, m - 2t - e) in base-(b^m) units."""
    if m < 1:
        raise InvalidParams("m must be >= 1")
    return BaseValue(n * s / m * max(0, m - 2 * t - e), b ** m)


def product_alphabet_channel(b, m, s, t, e):
    """Channel on (B^m)^s where every symbol independently suffers up to t
    sub-symbol errors and e erasures."""
    symbol_spec = single_block(b, m, range(m), t, e)
    if (b ** m) ** s > TABLE_LIMIT:
        raise SearchLimitExceeded("product-alphabet channel too large")
    inner = explicit_channel(symbol_spec)
    return ProductChannel([inner] * s) if s > 1 else inner


# -- overlapping adversaries ----------------------------------------------------

def adversarial_strength(blocks):
    """Exhaustive max size of a union of two per-block <=t subsets."""
    choices = chosen_subsets((b.coords, b.t, 0) for b in blocks)
    return max(len(set().union(*first, *second))
               for first in choices for second in choices)


def overlap_bound(spec, n=1):
    if spec.variant != OVERLAPPING:
        raise InvalidParams("overlapping variant required")
    return BaseValue(n * (spec.length - adversarial_strength(spec.blocks)),
                     spec.alphabet_size)


# -- the intersection witness ---------------------------------------------------

def keylong_witness(spec):
    """Deterministic witness (V, V', Ubar): per-block splits with
    |V_l|, |V'_l| <= t_l + e_l and |Ubar| = sigma such that any two words
    agreeing off Ubar have intersecting fan-outs under the clipped specs."""
    if spec.variant != DISJOINT:
        raise InvalidParams("disjoint variant required")
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


def rank_channel_bound(spec, n=1):
    """n(s - min(2t, |U|)) in base-(q^m) units."""
    return BaseValue(n * (spec.s - min(2 * spec.t, len(spec.coords))), spec.q ** spec.m)


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


def brute_force_capacity(spec, node_budget=None):
    """Exact one-shot capacity of a tiny spec by explicit search, as a
    BaseValue in base a."""
    chan = explicit_channel(spec, BRUTE_FORCE_LIMIT)
    res = one_shot_capacity(chan, max_vertices=BRUTE_FORCE_LIMIT, node_budget=node_budget)
    if not res.exact:
        raise SearchLimitExceeded("budget exhausted in brute-force capacity")
    return BaseValue(res.value_in_base(spec.alphabet_size), spec.alphabet_size)
