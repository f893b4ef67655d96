"""Capacity-region bounds via cut-set porting, and rate verification.

A rate region bounds sum_{i in J} alpha_i by b_J, a log in the network
alphabet size, for every non-empty source subset J, with an exactness flag
(False: an upper bound) and the attaining (terminal, cut).  `port` builds
one from a point-to-point bound: b_J is its least value over terminals and
minimal cuts on the adversary clipped to the cut, a `hamming.HammingSpec`
or, for a rank adversary, a `hamming.RankMetricSpec` with m = 1.  A ported
region bounds whichever capacity its point-to-point bound bounds.

Verification implements the three achievability notions: one-shot (a
product code good for every terminal's adversarial channel), n-shot
(a fresh network code and adversary action per use), and compound (the
adversary fixes its vulnerable edge set across all uses).
"""

import itertools
import math
from dataclasses import dataclass

from . import hamming as hamming_mod
from . import network as net_mod
from .errors import InvalidParams, UnsupportedVariant
from .network import (DISJOINT, OVERLAPPING, RANK, adversarial_fanouts,
                      enumerate_minimal_cuts, min_cut)


# slack on every rate comparison, for bounds computed as floating logs
TOL = 1e-9


@dataclass(frozen=True)
class Inequality:
    subset: frozenset
    bound: float
    exact: bool = True
    terminal: str = None
    cut: tuple = None

    def holds(self, alpha):
        return sum(alpha[i] for i in self.subset) <= self.bound + TOL


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
        if len(alpha) != self.n_sources or any(a < -TOL for a in alpha):
            return False
        return all(ineq.holds(alpha) for ineq in self.inequalities)

    def integer_points(self, box=None):
        """Lattice points of the region within the given per-coordinate box
        (defaults to the singleton bounds rounded down)."""
        if box is None:
            box = []
            for i in range(self.n_sources):
                b = self.bound_for({i}).bound
                box.append(int(math.floor(b + TOL)))
        ranges = [range(0, b + 1) for b in box]
        return [pt for pt in itertools.product(*ranges) if self.contains(pt)]

    def __repr__(self):
        parts = []
        for ineq in self.inequalities:
            left = "+".join(f"a{i + 1}" for i in sorted(ineq.subset))
            parts.append(f"{left} <= {ineq.bound:.6g}")
        return "RateRegion(" + ", ".join(parts) + ")"


def _subsets(n):
    for r in range(1, n + 1):
        for js in itertools.combinations(range(n), r):
            yield frozenset(js)


def port(net, adv, alphabet_size, bound):
    """Per J, the least `hamming.BaseValue` bound(spec) over terminals and
    minimal cuts, spec being adv clipped to the cut; ties break on the cut."""
    ineqs = []
    for subset in _subsets(len(net.sources)):
        ported = []
        for t in net.terminals:
            for cut in enumerate_minimal_cuts(net, sorted(subset), t):
                cut = tuple(net.edge_positions(cut))
                value = bound(_clip(adv, cut, alphabet_size))
                ported.append((float(value.value), cut, value.exact, t))
        value, cut, exact, t = min(ported, key=lambda p: p[:2])
        ineqs.append(Inequality(subset, value, exact, t, cut))
    return RateRegion(len(net.sources), ineqs)


def _clip(adv, cut, alphabet_size):
    """adv on the cut's edges as coordinates 0..|cut|-1 in edge order."""
    blocks = tuple(hamming_mod.Block({i for i, eid in enumerate(cut) if eid in b.edges},
                                     b.t, b.e) for b in adv.blocks)
    if adv.variant == RANK:
        coords, t, _ = blocks[0]
        return hamming_mod.RankMetricSpec(alphabet_size, 1, len(cut), coords, t)
    return hamming_mod.HammingSpec(alphabet_size, len(cut), blocks, adv.variant)


def _min_cut_minimize(net, value_fn):
    """The region whose bound for every J is the minimum over terminals of
    value_fn(min cut between J and the terminal), recording the terminal."""
    ineqs = []
    for subset in _subsets(len(net.sources)):
        values = [(value_fn(min_cut(net, sorted(subset), t)), t) for t in net.terminals]
        value, t = min(values, key=lambda pair: pair[0])
        ineqs.append(Inequality(subset, value, True, t, None))
    return RateRegion(len(net.sources), ineqs)


def theo1_region(net, adv, alphabet_size):
    """Single-block error/erasure adversary: per J the minimum over cuts of
    |cut minus U| + beta(a, |cut and U|, 2t+e+1), with beta's upper value
    where it is not known exactly."""
    if adv.variant != DISJOINT or len(adv.blocks) != 1:
        raise InvalidParams("single-block disjoint adversary required")
    return port(net, adv, alphabet_size, hamming_mod.capacity_single_block)


def singleton_hamming_region(net, t, e, alphabet_size):
    """All-edge adversary: per J the tighter of the Singleton-type bound
    max(0, mu - 2t - e) and the Hamming-type bound with radius floor(t+e/2),
    minimized over terminals."""
    tprime = t + e // 2

    def value(mu):
        singleton = max(0.0, mu - 2 * t - e)
        ball = hamming_mod.ball_size(mu, tprime, 0, alphabet_size)
        return min(singleton, max(0.0, mu - math.log(ball, alphabet_size)))

    return _min_cut_minimize(net, value)


# theo2, overlap and rank bounds do not read the alphabet size: clip at 2.
def theo2_region(net, adv):
    """Disjoint multi-block adversary: per J the minimum over cuts of
    |cut| - sum_l min(2 t_l + e_l, |cut and U_l|); valid simultaneously for
    the one-shot, zero-error, and compound regions."""
    if adv.variant != DISJOINT:
        raise InvalidParams("disjoint adversary required")
    return port(net, adv, 2, hamming_mod.multi_block_bound)


def product_alphabet_region(net, t, e, m):
    """Sub-symbol adversary on every edge: per J, mu * max(0, m-2t-e) / m."""
    if m < 1:
        raise InvalidParams("m must be >= 1")
    factor = max(0, m - 2 * t - e) / m
    return _min_cut_minimize(net, lambda mu: mu * factor)


def overlap_region(net, adv):
    """Overlapping erasure-free adversaries: per J the minimum over cuts of
    |cut| - adversarial_strength(blocks clipped to the cut)."""
    if adv.variant != OVERLAPPING:
        raise InvalidParams("overlapping adversary required")
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
    observation: object = None

    def __bool__(self):
        return self.ok


def _rates(source_codes, alphabet_size, n=1):
    return tuple(math.log(len(c), alphabet_size) / n for c in source_codes)


def verify_one_shot(net, code, source_codes, adv, alphabet=None):
    """Whether the product of the source codes is good for every terminal's
    adversarial channel; the certificate of failure is (terminal, pair)."""
    alphabet_t = net._alphabet(alphabet)
    rate = _rates(source_codes, len(alphabet_t))
    messages = [tuple(x) for x in itertools.product(*source_codes)]
    fans = {x: adversarial_fanouts(net, code, adv, x, alphabet_t) for x in messages}
    for t in net.terminals:
        for x, xp in itertools.combinations(messages, 2):
            common = fans[x][t] & fans[xp][t]
            if common:
                return VerifyResult(False, rate, t, (x, xp), next(iter(common)))
    return VerifyResult(True, rate)


def verify_n_shot(net, codes_per_use, source_codes, adv, alphabet=None):
    """n-shot goodness: each use k has its own network code; the adversary
    picks a fresh admissible action per use.  Source codes contain n-tuples
    of local inputs."""
    return _verify_uses(net, codes_per_use, source_codes, [adv], alphabet)


def verify_compound(net, codes_per_use, source_codes, adv, alphabet=None):
    """Compound goodness: the adversary fixes per-block vulnerable edge sets
    (within budget sizes) across all uses, then acts freely within them."""
    if adv.variant != DISJOINT:
        raise UnsupportedVariant("compound verification needs a disjoint adversary")
    clipped = [net_mod.AdversarySpec(blocks=tuple(
        net_mod.AdvBlock(v, b.t, b.e) for v, b in zip(choice, adv.blocks)))
        for choice in hamming_mod.chosen_subsets(adv.blocks)]
    return _verify_uses(net, codes_per_use, source_codes, clipped, alphabet)


def _verify_uses(net, codes_per_use, source_codes, advs, alphabet):
    """Goodness over n = len(codes_per_use) uses when the adversary of each
    message keeps one of `advs` for every use and picks a fresh admissible
    action of it per use; the certificate of failure is (terminal, pair)."""
    alphabet_t = net._alphabet(alphabet)
    n = len(codes_per_use)
    rate = _rates(source_codes, len(alphabet_t), n)
    messages = [tuple(x) for x in itertools.product(*source_codes)]
    fans = {}
    for ci, adv in enumerate(advs):
        for msg in messages:
            for k in range(n):
                x = tuple(msg[i][k] for i in range(len(net.sources)))
                fans[(ci, msg, k)] = adversarial_fanouts(net, codes_per_use[k], adv,
                                                         x, alphabet_t)
    for t in net.terminals:
        for m1, m2 in itertools.combinations(messages, 2):
            for ci in range(len(advs)):
                for cj in range(len(advs)):
                    if all(fans[(ci, m1, k)][t] & fans[(cj, m2, k)][t]
                           for k in range(n)):
                        return VerifyResult(False, rate, t, (m1, m2))
    return VerifyResult(True, rate)
