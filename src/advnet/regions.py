"""Capacity-region bounds via cut-set porting, and rate verification.

A rate region bounds sum_{i in J} alpha_i by b_J for every non-empty
source subset J, with the attaining (terminal, cut).  b_J is a
`channel.BaseValue`, the log of an exact count in the network alphabet
(or a pure exponent, in any alphabet), flagged exact=False when it is an
upper bound; rates and bounds compare in integers.  Every region is
one `port` of a `hamming` point-to-point bound: b_J is its least value over
terminals and minimal cuts on `AdversarySpec.clip` of the adversary to the
cut.  A ported region bounds whichever capacity its point-to-point bound
bounds.  As in `hamming`, adversary blocks may share edges only when none
carries erasures; a region that needs disjoint blocks checks
`hamming.disjoint(blocks)`.

Verification implements the three achievability notions, each as one
`channel.confusable_pair` scan of the product code on a channel per
terminal: one-shot on the terminal's adversarial channel, n-shot on the
product over uses of those channels (a fresh network code and adversary
action per use), and compound on the union, over the vulnerable edge sets
the adversary may fix across all uses, of such products.  A one-shot
channel lists its fan-outs, so its scan is one indexed pass over the
messages; products and unions are scanned pair by pair.  The fan-outs
come from `network.adversarial_channels`: one sweep per message, or, for
a linear code under an error-only adversary, one sweep of the zero input
that every message's clean observation translates.
"""

import itertools
from dataclasses import dataclass, field

from . import hamming as hamming_mod
from .channel import BaseValue, ProductChannel, UnionChannel, confusable_pair
from .errors import AlphabetMismatch, EmptyCode, InvalidParams, UnsupportedVariant
from .network import (PER_SYMBOL, RANK, AdversarySpec, adversarial_channels,
                      enumerate_minimal_cuts, full_edge_adversary, source_subsets)
# bound here too: perfbench/spans.py traces them under this module's name
from .network import adversarial_fanouts, min_cut  # noqa: F401


@dataclass(frozen=True)
class Inequality:
    """sum_{i in subset} alpha_i <= value; `bound` is its display float."""

    subset: frozenset
    value: BaseValue = field(hash=False)   # equal values may differ in form
    terminal: str = None
    cut: tuple = None

    @property
    def bound(self):
        return self.value.value

    @property
    def exact(self):
        return self.value.exact

    def holds(self, alpha):
        return sum(alpha[i] for i in self.subset) <= self.value


class RateRegion:
    def __init__(self, n_sources, inequalities):
        self.n_sources = n_sources
        self.inequalities = tuple(inequalities)

    def bound_for(self, subset):
        subset = frozenset(subset)
        for ineq in self.inequalities:
            if ineq.subset == subset:
                return ineq
        raise KeyError(subset)

    def contains(self, alpha):
        """Whether rates alpha (ints, Fractions, floats or BaseValues) lie in it."""
        if len(alpha) != self.n_sources:
            raise InvalidParams(f"{len(alpha)} rates for {self.n_sources} sources")
        return (all(a >= 0 for a in alpha)
                and all(ineq.holds(alpha) for ineq in self.inequalities))

    def integer_points(self, box=None):
        """Lattice points of the region within the given per-coordinate box
        (defaults to one past the singleton bounds' display floats)."""
        if box is None:
            box = [int(self.bound_for({i}).bound) + 1 for i in range(self.n_sources)]
        ranges = [range(0, b + 1) for b in box]
        return [pt for pt in itertools.product(*ranges) if self.contains(pt)]

    def __repr__(self):
        parts = []
        for ineq in self.inequalities:
            left = "+".join(f"a{i + 1}" for i in sorted(ineq.subset))
            parts.append(f"{left} <= {ineq.bound:.6g}")
        return "RateRegion(" + ", ".join(parts) + ")"


def port(net, adv, alphabet_size, bound):
    """Per J, the least `hamming.BaseValue` bound(spec) over terminals and
    minimal cuts, spec being `adv.clip` to the cut; ties break on the cut."""
    adv.check_edges(net)
    ineqs = []
    for subset in source_subsets(len(net.sources)):
        ported = []
        for t in net.terminals:
            for cut in enumerate_minimal_cuts(net, sorted(subset), t):
                cut = tuple(net.edge_positions(cut))
                ported.append((bound(adv.clip(cut, alphabet_size)), cut, t))
        value, cut, t = min(ported, key=lambda p: p[:2])
        ineqs.append(Inequality(subset, value, t, cut))
    return RateRegion(len(net.sources), ineqs)


def theo1_region(net, adv, alphabet_size):
    """Single-block error/erasure adversary: per J the minimum over cuts of
    |cut minus U| + beta(a, |cut and U|, 2t+e+1), with beta's upper value
    where it is not known exactly."""
    if adv.variant is not None or len(adv.blocks) != 1:
        raise InvalidParams("single-block Hamming-type adversary required")
    return port(net, adv, alphabet_size, hamming_mod.capacity_single_block)


def singleton_hamming_region(net, t, e, alphabet_size):
    """All-edge adversary: per J the minimum over cuts of the tighter of
    max(0, |cut| - 2t - e) and the Hamming bound with radius t + floor(e/2),
    both attained at a min cut."""
    return port(net, full_edge_adversary(net, t, e), alphabet_size,
                hamming_mod.singleton_hamming_bound)


# theo2, product, overlap and rank values do not read the alphabet size: clip at 2.
def theo2_region(net, adv):
    """Disjoint multi-block adversary: per J the minimum over cuts of
    |cut| - sum_l min(2 t_l + e_l, |cut and U_l|); valid simultaneously for
    the one-shot, zero-error, and compound regions."""
    if adv.variant is not None or not hamming_mod.disjoint(adv.blocks):
        raise InvalidParams("disjoint adversary required")
    return port(net, adv, 2, hamming_mod.multi_block_bound)


def product_alphabet_region(net, t, e, m):
    """Sub-symbol adversary on every edge: per J the minimum over cuts of
    |cut| max(0, m - 2t - e) / m in base b^m, attained at a min cut."""
    if m < 1:
        raise InvalidParams("m must be >= 1")
    adv = AdversarySpec((hamming_mod.Block(range(m), t, e),), PER_SYMBOL)
    return port(net, adv, 2, hamming_mod.product_alphabet_bound)


def overlap_region(net, adv):
    """Erasure-free, possibly overlapping adversaries: per J the minimum
    over cuts of |cut| - adversarial_strength(blocks clipped to the cut)."""
    if adv.variant is not None or any(b.e for b in adv.blocks):
        raise InvalidParams("erasure-free Hamming-type adversary required")
    return port(net, adv, 2, hamming_mod.overlap_bound)


def rank_region(net, adv):
    """Rank-metric adversary on one edge set: per J the minimum over cuts of
    |cut| - min(2t, |cut and U|)."""
    if adv.variant != RANK:
        raise InvalidParams("rank adversary required")
    return port(net, adv, 2, hamming_mod.rank_channel_bound)


# -- verification ---------------------------------------------------------------

@dataclass
class VerifyResult:
    ok: bool
    rate: tuple
    terminal: str = None
    pair: tuple = None

    def __bool__(self):
        return self.ok


def _rates(net, source_codes, alphabet, n=1):
    """Per-use rates log_|alphabet|(|code|)/n, as `BaseValue`s, of
    source codes whose codewords are n-tuples of local codewords: tuples of
    alphabet symbols, one per out-edge of the source."""
    if len(source_codes) != len(net.sources):
        raise InvalidParams("one source code per source required")
    if not all(source_codes):
        raise EmptyCode("every source code must be non-empty")
    symbols = set(alphabet)
    for s, code in zip(net.sources, source_codes):
        width = len(net.out_edges(s))
        for cw in code:
            if len(cw) != n or not all(isinstance(u, tuple) and len(u) == width
                                       and symbols.issuperset(u) for u in cw):
                raise AlphabetMismatch(f"codeword {cw!r} of source {s} is not "
                                       f"{n} use(s) of {width} alphabet symbols")
    return tuple(BaseValue(0, len(alphabet), count=len(c), uses=n) for c in source_codes)


def _verdict(channels, inputs, rate, message=lambda x: x):
    """One `confusable_pair` scan of the inputs per terminal channel; the
    certificate of failure is (terminal, pair of messages)."""
    for t, ch in channels.items():
        pair = confusable_pair(ch, inputs)
        if pair is not None:
            return VerifyResult(False, rate, t, tuple(map(message, pair)))
    return VerifyResult(True, rate)


def verify_one_shot(net, code, source_codes, adv, alphabet=None):
    """Whether the product of the source codes is good for every terminal's
    adversarial channel."""
    alphabet_t = net._alphabet(alphabet)
    return _verdict(adversarial_channels(net, code, adv, alphabet_t),
                    list(itertools.product(*source_codes)),
                    _rates(net, [[(cw,) for cw in c] for c in source_codes], alphabet_t))


def verify_n_shot(net, codes_per_use, source_codes, adv, alphabet=None):
    """n-shot goodness: each use k has its own network code; the adversary
    picks a fresh admissible action per use.  Source codes contain n-tuples
    of local inputs."""
    return _verify_uses(net, codes_per_use, source_codes, [adv], alphabet)


def verify_compound(net, codes_per_use, source_codes, adv, alphabet=None):
    """Compound goodness: the adversary fixes per-block vulnerable edge sets
    (within budget sizes) across all uses, then acts freely within them."""
    if adv.variant is not None or not hamming_mod.disjoint(adv.blocks):
        raise UnsupportedVariant("compound verification needs a disjoint adversary")
    clipped = [AdversarySpec(hamming_mod.restrict(adv.blocks, choice))
               for choice in hamming_mod.chosen_subsets(adv.blocks)]
    return _verify_uses(net, codes_per_use, source_codes, clipped, alphabet)


def _verify_uses(net, codes_per_use, source_codes, advs, alphabet):
    """Goodness over n = len(codes_per_use) uses when the adversary keeps
    one of `advs` for every use and picks a fresh admissible action of it
    per use: per terminal, the union over `advs` of the product over uses
    of the adversarial channels, fed each message's per-use inputs."""
    alphabet_t = net._alphabet(alphabet)
    rate = _rates(net, source_codes, alphabet_t, len(codes_per_use))
    per_adv = [[adversarial_channels(net, code, adv, alphabet_t) for code in codes_per_use]
               for adv in advs]
    channels = {t: UnionChannel([ProductChannel([chs[t] for chs in uses])
                                 for uses in per_adv])
                for t in net.terminals}
    inputs = [tuple(zip(*m)) for m in itertools.product(*source_codes)]
    return _verdict(channels, inputs, rate, lambda x: tuple(zip(*x)))
