import itertools
import math
import random
from fractions import Fraction

import pytest

from advnet import codes, gf, hamming, netlib, network, regions, schemes
from advnet.channel import STAR, BaseValue, confusable_pair, one_shot_capacity
from advnet.errors import (AlphabetMismatch, DrawsExhausted, EmptyCode, IndexOutOfRange,
                           InvalidParams, UnsupportedVariant)
from advnet.network import (AdvBlock, AdversarySpec, NetworkCode, TableVertex,
                            adversarial_channel, adversarial_fanouts,
                            enumerate_minimal_cuts)
from advnet.search import max_independent_set
from test_benchmark_boundaries import _workloads
from test_network import TYPO_ADVERSARIES, random_small_network, random_table_code

A2 = (0, 1)


# ---------------------------------------------------------------------------
# bound regions on the standard example networks
# ---------------------------------------------------------------------------


def test_theo1_hub_region():
    net = netlib.two_source_hub(A2)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e4", "e6", "e7"}, 1, 0),))
    region = regions.theo1_region(net, adv, 2)
    assert region.bound_for({0}).bound == pytest.approx(1.0)
    assert region.bound_for({1}).bound == pytest.approx(1.0)
    assert region.bound_for({0, 1}).bound == pytest.approx(2.0)
    # the alpha_1 bound comes from the source-side cut, not a min cut of size 1
    ineq = region.bound_for({0})
    assert set(ineq.cut) == {"e1", "e2"}


def test_theo1_with_zero_budget_reduces_to_min_cut():
    net = netlib.two_source_hub(A2)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e4"}, 0, 0),))
    region = regions.theo1_region(net, adv, 2)
    assert region.bound_for({0}).bound == pytest.approx(2.0)
    assert region.bound_for({1}).bound == pytest.approx(1.0)
    assert region.bound_for({0, 1}).bound == pytest.approx(3.0)


def test_singleton_hamming_region_grid():
    net = netlib.two_source_grid(A2)
    region = regions.singleton_hamming_region(net, 1, 0, 2)
    assert region.bound_for({0}).bound == pytest.approx(1.0)
    assert region.bound_for({1}).bound == pytest.approx(1.0)
    assert region.bound_for({0, 1}).bound == pytest.approx(4 - math.log2(5))
    pts = region.integer_points((2, 2))
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0)]
    assert not region.contains((1, 1))


def test_singleton_region_large_alphabet():
    net = netlib.two_source_grid((0, 1, 2, 3, 4))
    region = regions.singleton_hamming_region(net, 1, 0, 5)
    # over a large alphabet the Singleton value 2 is the tighter sum bound
    assert region.bound_for({0, 1}).bound == pytest.approx(2.0)
    assert region.bound_for({0}).bound == pytest.approx(1.0)


def test_theo2_double_relay_region():
    net = netlib.two_source_double_relay((0, 1, 2, 3, 4))
    adv = AdversarySpec(blocks=(
        AdvBlock({"e5", "e6", "e7"}, 1, 0),
        AdvBlock({"e1", "e8", "e9", "e10", "e11", "e12"}, 1, 0)))
    region = regions.theo2_region(net, adv)
    assert region.bound_for({0}).bound == pytest.approx(1.0)
    assert region.bound_for({1}).bound == pytest.approx(2.0)
    assert region.bound_for({0, 1}).bound == pytest.approx(3.0)
    pts = region.integer_points()
    assert sorted(pts) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_theo2_single_block_matches_singleton_values():
    net = netlib.two_source_grid(A2)
    adv = network.full_edge_adversary(net, 1, 0)
    region = regions.theo2_region(net, adv)
    for subset in ({0}, {1}, {0, 1}):
        mu = network.min_cut(net, sorted(subset), "T")
        assert region.bound_for(subset).bound == pytest.approx(max(0, mu - 2))


def test_product_alphabet_region():
    net = netlib.single_path(A2)
    region = regions.product_alphabet_region(net, 1, 0, 3)
    assert region.bound_for({0}).bound == pytest.approx(1 / 3)
    region0 = regions.product_alphabet_region(net, 0, 0, 3)
    assert region0.bound_for({0}).bound == pytest.approx(1.0)
    region_z = regions.product_alphabet_region(net, 1, 1, 3)
    assert region_z.bound_for({0}).bound == pytest.approx(0.0)
    with pytest.raises(InvalidParams, match="m must be >= 1"):
        regions.product_alphabet_region(net, 0, 0, 0)


def test_overlap_region_reduces_to_theo2_on_disjoint_blocks():
    # on disjoint erasure-free blocks the adversarial strength is the sum of
    # min(2t, |U|), so one adversary needs no declared layout
    rng = random.Random(1706)
    nets = list(NETLIB.values())
    for k in range(60):
        net = nets[k % len(nets)]
        edges = rng.sample([e.id for e in net.edges], rng.randint(1, len(net.edges)))
        ends = sorted(rng.sample(range(1, len(edges)), min(rng.randint(0, 2), len(edges) - 1)))
        adv = AdversarySpec(tuple(AdvBlock(edges[i:j], rng.randint(0, 2))
                                  for i, j in zip([0] + ends, ends + [len(edges)])))
        assert hamming.disjoint(adv.blocks)
        r_o, r_d = regions.overlap_region(net, adv), regions.theo2_region(net, adv)
        assert ([(q.subset, q.bound, q.exact, q.terminal, q.cut) for q in r_o.inequalities]
                == [(q.subset, q.bound, q.exact, q.terminal, q.cut) for q in r_d.inequalities])
    for _ in range(300):
        s = rng.randint(1, 6)
        coords = rng.sample(range(s), rng.randint(0, s))
        split = rng.randint(0, len(coords))
        spec = hamming.HammingSpec(rng.randint(2, 5), s, tuple(
            hamming.Block(part, rng.randint(0, 2)) for part in (coords[:split], coords[split:])))
        assert hamming.overlap_bound(spec).value == hamming.multi_block_bound(spec).value


def test_rank_region_trivial_and_parallel():
    net = netlib.parallel_path(3, A2)
    adv0 = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 0),),
                         variant=network.RANK)
    r0 = regions.rank_region(net, adv0)
    assert r0.bound_for({0}).bound == pytest.approx(3.0)
    adv1 = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1),),
                         variant=network.RANK)
    r1 = regions.rank_region(net, adv1)
    assert r1.bound_for({0}).bound == pytest.approx(1.0)
    # the rank bound has no erasure term, so a rank block carries no erasures
    net4 = netlib.parallel_path(4, A2)
    for e in (1, 3):
        with pytest.raises(InvalidParams, match="erasure-free"):
            AdversarySpec((AdvBlock({"e1", "e2", "e3", "e4"}, 1, e),), network.RANK)
    adv4 = AdversarySpec((AdvBlock({"e1", "e2", "e3", "e4"}, 1, 0),), network.RANK)
    assert regions.rank_region(net4, adv4).bound_for({0}).bound == pytest.approx(2.0)


def test_region_contains_zero():
    net = netlib.two_source_hub(A2)
    adv = network.full_edge_adversary(net, 1)
    region = regions.theo2_region(net, adv)
    assert region.contains((0, 0))


# ---------------------------------------------------------------------------
# porting: each region builder against its per-cut formula
# ---------------------------------------------------------------------------

# Reference per-cut formulas of the four ported builders, written directly
# on edge sets; each returns (value, exact) for a cut.

def theo1_formula(adv, a):
    block = adv.blocks[0]

    def value(cut):
        inside = len(cut & block.coords)
        if not inside:
            return float(len(cut)), True
        bv = codes.beta(a, inside, 2 * block.t + block.e + 1)
        return len(cut) - inside + bv.upper_value, bv.exact
    return value


def theo2_formula(adv):
    return lambda cut: (float(len(cut) - sum(
        min(2 * b.t + b.e, len(cut & b.coords)) for b in adv.blocks)), True)


def overlap_formula(adv):
    def value(cut):
        clipped = tuple(hamming.Block(
            {i for i, eid in enumerate(sorted(cut)) if eid in b.coords}, b.t, 0)
            for b in adv.blocks)
        return float(len(cut) - hamming.adversarial_strength(clipped)), True
    return value


def rank_formula(adv):
    block = adv.blocks[0]
    return lambda cut: (float(len(cut) - min(2 * block.t, len(cut & block.coords))), True)


def assert_matches_formula(net, region, formula):
    """Each inequality is the least formula value over terminals and minimal
    cuts; its terminal and cut attain it with the recorded exactness, the
    cut first in edge order and then the terminal first among ties."""
    for ineq in region.inequalities:
        candidates = [(*formula(frozenset(cut)), t, tuple(net.edge_positions(cut)))
                      for t in net.terminals
                      for cut in enumerate_minimal_cuts(net, sorted(ineq.subset), t)]
        least = min(candidates, key=lambda c: (c[0], c[3]))
        assert (ineq.bound, ineq.exact, ineq.terminal, ineq.cut) == least


NETLIB = {"parallel_path": netlib.parallel_path(3), "single_path": netlib.single_path(),
          "chain_with_bypass": netlib.chain_with_bypass(),
          "two_source_hub": netlib.two_source_hub(), "two_source_grid": netlib.two_source_grid(),
          "two_source_double_relay": netlib.two_source_double_relay(),
          "triple_path_bottleneck": netlib.triple_path_bottleneck(),
          "fan_bottleneck": netlib.fan_bottleneck(), "butterfly": netlib.butterfly(),
          "two_source_shared_relay": netlib.two_source_shared_relay((2, 2), 3)}


@pytest.mark.parametrize("name", NETLIB)
def test_ported_regions_match_their_formulas(name):
    net = NETLIB[name]
    rng = random.Random(name)
    edges = [e.id for e in net.edges]

    def sample(k_max):
        return rng.sample(edges, rng.randint(1, min(k_max, len(edges))))

    for _ in range(3):
        adv = AdversarySpec(blocks=(AdvBlock(sample(len(edges)), rng.randint(0, 2),
                                             rng.randint(0, 1)),))
        a = rng.choice((2, 3, 4, 5, 7))
        assert_matches_formula(net, regions.theo1_region(net, adv, a), theo1_formula(adv, a))
        chosen = sample(len(edges))
        split = rng.randint(0, len(chosen))
        adv = AdversarySpec(blocks=tuple(
            AdvBlock(part, rng.randint(0, 2), rng.randint(0, 1))
            for part in (chosen[:split], chosen[split:]) if part))
        assert_matches_formula(net, regions.theo2_region(net, adv), theo2_formula(adv))
        adv = AdversarySpec(blocks=tuple(AdvBlock(sample(4), rng.randint(0, 2))
                                         for _ in range(rng.randint(1, 3))))
        assert_matches_formula(net, regions.overlap_region(net, adv), overlap_formula(adv))
        adv = AdversarySpec(blocks=(AdvBlock(sample(len(edges)), rng.randint(0, 3)),),
                            variant=network.RANK)
        assert_matches_formula(net, regions.rank_region(net, adv), rank_formula(adv))


# The two min-cut regions as they were written before they became ports:
# per J the least value over terminals of a formula on the min cut.

def singleton_hamming_formula(t, e, a):
    def value(mu):
        singleton = max(0.0, mu - 2 * t - e)
        ball = hamming.ball_size(mu, t + e // 2, 0, a)
        return min(singleton, max(0.0, mu - math.log(ball, a)))
    return value


def min_cut_formula(net, subset, value):
    return min(value(network.min_cut(net, sorted(subset), t)) for t in net.terminals)


def netlib_and_random_networks():
    rng = random.Random(1705)
    nets = list(NETLIB.values())
    while len(nets) < len(NETLIB) + 60:
        net = random_small_network(rng)
        if net is not None:
            nets.append(net)
    return nets


def test_singleton_hamming_region_is_its_min_cut_formula():
    for net in netlib_and_random_networks():
        for t, e, a in itertools.product(range(3), range(3), (2, 3, 5)):
            value = singleton_hamming_formula(t, e, a)
            for ineq in regions.singleton_hamming_region(net, t, e, a).inequalities:
                assert ineq.bound == min_cut_formula(net, ineq.subset, value)
                assert ineq.exact


def test_product_alphabet_region_is_its_min_cut_formula_rounded_once():
    for net in netlib_and_random_networks():
        for t, e, m in itertools.product(range(3), range(3), (1, 2, 3, 5)):
            k = max(0, m - 2 * t - e)
            for ineq in regions.product_alphabet_region(net, t, e, m).inequalities:
                mu = min_cut_formula(net, ineq.subset, lambda mu: mu)
                assert ineq.bound == mu * k / m
                assert abs(ineq.bound - min_cut_formula(net, ineq.subset,
                                                        lambda mu: mu * (k / m))) <= 1e-12
                assert ineq.exact


@pytest.mark.parametrize("name", NETLIB)
def test_every_inequality_carries_its_terminal_and_cut(name):
    net = NETLIB[name]
    edges = [e.id for e in net.edges]
    half = AdvBlock(edges[::2], 1, 1)
    built = [regions.theo1_region(net, AdversarySpec((half,)), 2),
             regions.singleton_hamming_region(net, 1, 0, 2),
             regions.theo2_region(net, AdversarySpec((half, AdvBlock(edges[1::2], 1)))),
             regions.product_alphabet_region(net, 1, 0, 3),
             regions.overlap_region(net, AdversarySpec(
                 (AdvBlock(edges[:4], 1), AdvBlock(edges[2:6], 1)))),
             regions.rank_region(net, AdversarySpec((AdvBlock(edges[::2], 1),), network.RANK))]
    for region in built:
        for ineq in region.inequalities:
            assert ineq.cut is not None
            assert network.is_cut(net, ineq.cut, sorted(ineq.subset), ineq.terminal)


def test_theo1_ports_the_upper_value_of_an_inexact_beta():
    net = netlib.two_source_double_relay()
    adv = network.full_edge_adversary(net, 1)
    region = regions.theo1_region(net, adv, 6)
    assert_matches_formula(net, region, theo1_formula(adv, 6))
    one, both = region.bound_for({1}), region.bound_for({0, 1})
    assert (one.value, one.exact) == (2, False)
    # 6^3 codewords exactly: a float log read it as 3.0000000000000004
    assert (both.value.count, both.value, both.exact) == (6 ** 3, 3, False)
    assert both.cut == ("e1", "e3", "e4", "e11", "e12")
    # a rate exactly at an inexact bound lies inside it, one word more does not
    assert region.contains((0, BaseValue(0, 6, count=6 ** 2)))
    assert not region.contains((0, BaseValue(0, 6, count=6 ** 2 + 1)))
    assert both.holds((0, BaseValue(0, 6, count=6 ** 3)))


def test_rates_and_bounds_compare_as_exact_counts():
    one_bit = regions.theo2_region(netlib.parallel_path(1), network.adversary_free())
    # 2^31 + 1 words over 31 uses: rate 1 + 2.2e-11, past any float slack
    assert not one_bit.contains((BaseValue(0, 2, count=2 ** 31 + 1, uses=31),))
    assert one_bit.contains((BaseValue(0, 2, count=2 ** 31, uses=31),))
    # equal inequalities hash alike whatever the form of their values
    assert len({*one_bit.inequalities, *one_bit.inequalities}) == 1


def test_theo2_regions_read_rates_over_any_alphabet():
    net = netlib.parallel_path(3)
    region = regions.theo2_region(net, network.full_edge_adversary(net, 1))
    assert region.bound_for({0}).value == 1
    for q in (2, 3, 5, 7):
        assert region.contains((BaseValue(0, q, count=q),))
        assert not region.contains((BaseValue(0, q, count=q + 1),))
    assert region.contains((Fraction(1),)) and not region.contains((Fraction(4, 3),))


def test_count_bounds_reject_rates_over_another_alphabet():
    net = netlib.parallel_path(3)
    region = regions.theo1_region(net, network.full_edge_adversary(net, 1), 3)
    assert region.bound_for({0}).value.count == 3
    assert region.contains((BaseValue(0, 3, count=3),))
    with pytest.raises(AlphabetMismatch):
        region.contains((BaseValue(0, 2, count=3),))


@pytest.mark.parametrize("alpha", [(1.0, 0.0), ()])
def test_contains_rejects_a_rate_vector_of_the_wrong_length(alpha):
    region = regions.theo2_region(netlib.parallel_path(1), network.adversary_free())
    with pytest.raises(InvalidParams):
        region.contains(alpha)


def test_port_clips_the_adversary_to_cut_coordinates_in_edge_order():
    net = netlib.two_source_double_relay()
    adv = AdversarySpec(blocks=(AdvBlock({"e2", "e10", "e11"}, 1, 1), AdvBlock({"e12"}, 0, 1)))

    def bound(spec):
        # encodes the first block's coordinates; the minimum favours many
        # and late ones
        assert spec.alphabet_size == 3 and hamming.disjoint(spec.blocks)
        assert [(b.t, b.e) for b in spec.blocks] == [(1, 1), (0, 1)]
        return hamming.BaseValue(-sum(2 ** i for i in spec.blocks[0].coords), 3)

    region = regions.port(net, adv, 3, bound)
    for ineq in region.inequalities:
        assert list(ineq.cut) == net.edge_positions(ineq.cut)
        assert ineq.bound == -sum(2 ** i for i, eid in enumerate(ineq.cut)
                                  if eid in adv.blocks[0].coords)
    assert any(ineq.bound and sorted(ineq.cut) != list(ineq.cut)
               for ineq in region.inequalities)


def test_negative_budgets_are_rejected():
    # a negative budget admits no action, so every fan-out would be empty
    for t, e in ((-1, 0), (0, -1)):
        with pytest.raises(InvalidParams):
            AdvBlock({"e1", "e2", "e3"}, t, e)
        with pytest.raises(InvalidParams):
            AdversarySpec((AdvBlock(range(2), t, e),), network.PER_SYMBOL)


def test_rank_adversary_has_one_block():
    with pytest.raises(InvalidParams):
        AdversarySpec(blocks=(AdvBlock({"e1"}, 1), AdvBlock({"e2"}, 1)),
                      variant=network.RANK)


def test_adversary_blocks_are_hamming_blocks_checked_by_variant():
    assert network.AdvBlock is hamming.Block
    with pytest.raises(UnsupportedVariant):
        AdversarySpec(variant="bogus")
    with pytest.raises(InvalidParams, match="erasure-free"):
        AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1), AdvBlock({"e2"}, 1, 1)))
    # the per-symbol adversary is one block over the sub-symbol positions
    for blocks in ((), (AdvBlock(range(2), 1), AdvBlock(range(2), 0, 1)),
                   (AdvBlock({0, 2}, 1),)):
        with pytest.raises(InvalidParams):
            AdversarySpec(blocks, network.PER_SYMBOL)


def test_overlap_region_rejects_erasures():
    # a region that ignored these erasure budgets would report a1 <= 1
    net = netlib.triple_path_bottleneck()
    with pytest.raises(InvalidParams, match="erasure-free"):
        adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1, 1), AdvBlock({"e2", "e3"}, 0, 2)))
        regions.overlap_region(net, adv)
    # disjoint blocks may carry erasures; the region still refuses them
    with pytest.raises(InvalidParams, match="erasure-free"):
        regions.overlap_region(net, AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1, 1),)))


def test_brute_force_port_is_tighter_than_theo2():
    net = netlib.two_source_grid()
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e4", "e6", "e7", "e8", "e9", "e10"}, 1),
                                AdvBlock({"e5"}, 1)))
    ported = regions.port(net, adv, 2, hamming.brute_force_capacity)
    theo2 = regions.theo2_region(net, adv)
    assert ported.bound_for({0, 1}).bound == pytest.approx(1.0)
    assert theo2.bound_for({0, 1}).bound == pytest.approx(2.0)
    for ineq in ported.inequalities:
        assert ineq.exact and ineq.bound <= theo2.bound_for(ineq.subset).bound + 1e-9


@pytest.mark.parametrize("net", [netlib.single_path(), netlib.parallel_path(2)],
                         ids=["single_path", "parallel_path2"])
@pytest.mark.parametrize("m", [2, 3])
def test_brute_force_per_symbol_port_is_within_the_product_alphabet_region(net, m):
    for t, e in ((0, 0), (1, 0), (0, 1), (1, 1)):
        adv = AdversarySpec((AdvBlock(range(m), t, e),), network.PER_SYMBOL)
        ported = regions.port(net, adv, 2, hamming.brute_force_capacity)
        region = regions.product_alphabet_region(net, t, e, m)
        for ineq in ported.inequalities:
            assert ineq.bound / m <= region.bound_for(ineq.subset).bound + 1e-9


def test_brute_force_port_bounds_network_capacity():
    rng = random.Random(1706)
    checked = 0
    while checked < 60:
        net = random_small_network(rng)
        if net is None or len(net.sources) != 1 or len(net.edges) < 2:
            continue
        code = random_table_code(rng, net, A2, erasures=True)
        edges = rng.sample([e.id for e in net.edges], rng.randint(2, len(net.edges)))
        split = rng.randint(1, len(edges) - 1)
        adv = AdversarySpec(blocks=(AdvBlock(edges[:split], rng.randint(0, 1), rng.randint(0, 1)),
                                    AdvBlock(edges[split:], rng.randint(0, 1), rng.randint(0, 1))))
        capacity = one_shot_capacity(adversarial_channel(net, code, adv, "T", A2))
        bound = regions.port(net, adv, 2, hamming.brute_force_capacity).bound_for({0})
        assert capacity.exact
        assert capacity.value_in_base(2) <= bound.bound + 1e-9, (edges, adv)
        checked += 1


def test_brute_force_bounds_overlapping_network_capacity():
    # brute force on the network, brute force on every cut, then the formula
    rng = random.Random(1706)
    checked = 0
    while checked < 40:
        net = random_small_network(rng)
        if net is None or len(net.sources) != 1 or len(net.edges) < 2:
            continue
        code = random_table_code(rng, net, A2)
        edges = [e.id for e in net.edges]
        adv = AdversarySpec(blocks=tuple(
            AdvBlock(rng.sample(edges, rng.randint(1, len(edges))), rng.randint(0, 1))
            for _ in range(2)))
        capacity = one_shot_capacity(adversarial_channel(net, code, adv, "T", A2))
        ported = regions.port(net, adv, 2, hamming.brute_force_capacity).bound_for({0})
        formula = regions.overlap_region(net, adv).bound_for({0})
        assert capacity.exact
        assert capacity.value_in_base(2) <= ported.bound + 1e-9, adv
        assert ported.bound <= formula.bound + 1e-9, adv
        checked += 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def majority_bottleneck_code():
    table = {}
    for vals in itertools.product((0, 1, STAR), repeat=3):
        clean = [0 if v == STAR else v for v in vals]
        table[vals] = (codes.majority_extend(*clean),)
    return NetworkCode({"V": TableVertex(table)})


def test_verify_singleton_codes_always_pass():
    net = netlib.two_source_hub(A2)
    code = majority_bottleneck_code_hub()
    adv = network.full_edge_adversary(net, 1, 0)
    res = regions.verify_one_shot(net, code, [[(0, 0)], [(1,)]], adv, A2)
    assert res.ok and res.rate == (0.0, 0.0)


def majority_bottleneck_code_hub():
    table = {}
    for vals in itertools.product((0, 1, STAR), repeat=3):
        clean = [0 if v == STAR else v for v in vals]
        table[vals] = (clean[0], clean[1], clean[2], clean[0])
    return NetworkCode({"V": TableVertex(table)})


def test_verify_majority_scheme_on_bottleneck():
    net = netlib.triple_path_bottleneck(A2)
    code = majority_bottleneck_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1, 0),))
    source_code = [[(a, a, a) for a in A2]]
    res = regions.verify_one_shot(net, code, source_code, adv, A2)
    assert res.ok and res.rate == (1.0,)


def test_verify_detects_overloaded_adversary():
    net = netlib.triple_path_bottleneck(A2)
    code = majority_bottleneck_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 2, 0),))
    source_code = [[(a, a, a) for a in A2]]
    res = regions.verify_one_shot(net, code, source_code, adv, A2)
    assert not res.ok
    assert res.pair is not None and res.terminal == "T"


@pytest.mark.parametrize("verify", [regions.verify_one_shot, regions.verify_n_shot,
                                    regions.verify_compound])
def test_verify_rejects_an_empty_source_code(verify):
    net = netlib.parallel_path(2)
    code = network.identity_routing_code(net)
    codes_arg = code if verify is regions.verify_one_shot else [code]
    with pytest.raises(EmptyCode):
        verify(net, codes_arg, [[]], network.adversary_free(), A2)


def butterfly_scheme():
    net = netlib.butterfly(A2)
    return net, schemes.build_adversary_free(net, (2,), 2)


def _verify_args(verify, scheme, codewords):
    """The scheme's code and one source code as `verify` takes them (one
    use for the n-shot and compound checks)."""
    if verify is regions.verify_one_shot:
        return scheme.network_code, [codewords]
    return [scheme.network_code], [[(cw,) for cw in codewords]]


@pytest.mark.parametrize("verify", [regions.verify_one_shot, regions.verify_n_shot,
                                    regions.verify_compound])
@pytest.mark.parametrize("codeword", [(0, 1, 0), (0, 7), (0,), (0, STAR)])
def test_verify_rejects_malformed_codewords(verify, codeword):
    """The butterfly's source has two out-edges and the alphabet is GF(2)."""
    net, scheme = butterfly_scheme()
    code, source_codes = _verify_args(verify, scheme, scheme.source_codes[0][:2] + [codeword])
    with pytest.raises(AlphabetMismatch):
        verify(net, code, source_codes, network.adversary_free(), A2)


@pytest.mark.parametrize("verify", [regions.verify_n_shot, regions.verify_compound])
def test_verify_rejects_codewords_of_another_number_of_uses(verify):
    net, scheme = butterfly_scheme()
    two_uses = [(cw, cw) for cw in scheme.source_codes[0]]
    with pytest.raises(AlphabetMismatch):
        verify(net, [scheme.network_code], [two_uses], network.adversary_free(), A2)


@pytest.mark.parametrize("verify", [regions.verify_one_shot, regions.verify_n_shot,
                                    regions.verify_compound])
def test_verify_needs_one_source_code_per_source(verify):
    net, scheme = butterfly_scheme()
    code, source_codes = _verify_args(verify, scheme, scheme.source_codes[0])
    with pytest.raises(InvalidParams):
        verify(net, code, source_codes * 2, network.adversary_free(), A2)


def test_an_edge_id_typo_is_rejected_not_ignored():
    net, scheme = butterfly_scheme()
    real = AdversarySpec((AdvBlock({"e1"}, 1),))
    assert not regions.verify_one_shot(net, scheme.network_code, scheme.source_codes, real, A2)
    assert regions.theo2_region(net, real).bound_for({0}).bound == pytest.approx(1.0)
    typo = AdversarySpec((AdvBlock({"e99"}, 1),))
    with pytest.raises(IndexOutOfRange):
        regions.verify_one_shot(net, scheme.network_code, scheme.source_codes, typo, A2)
    with pytest.raises(IndexOutOfRange):
        regions.theo2_region(net, typo)


@pytest.mark.parametrize("adv", TYPO_ADVERSARIES)
def test_port_rejects_blocks_naming_no_edge(adv):
    with pytest.raises(IndexOutOfRange):
        regions.port(netlib.butterfly(A2), adv, 2, lambda spec: hamming.BaseValue(0, 2))


def test_verify_n_shot_coincides_with_one_shot_for_n1():
    net = netlib.triple_path_bottleneck(A2)
    code = majority_bottleneck_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1, 0),))
    one = regions.verify_one_shot(net, code, [[(a, a, a) for a in A2]], adv, A2)
    multi = regions.verify_n_shot(net, [code], [[((a, a, a),) for a in A2]], adv, A2)
    assert one.ok == multi.ok == True  # noqa: E712
    assert multi.rate == (1.0,)


def test_compound_accepts_whatever_n_shot_accepts():
    rng = random.Random(5)
    net = netlib.triple_path_bottleneck(A2)
    code = majority_bottleneck_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1, 0),))
    # random 2-use source codes of size up to 3
    space = [(a, a, a) for a in A2]
    for _ in range(6):
        words = rng.sample([(w1, w2) for w1 in space for w2 in space],
                           rng.randint(1, 3))
        nres = regions.verify_n_shot(net, [code, code], [words], adv, A2)
        cres = regions.verify_compound(net, [code, code], [words], adv, A2)
        if nres.ok:
            assert cres.ok


def test_compound_strictly_weaker_adversary_example():
    # one fixed corruptible edge across two uses is weaker than fresh choices
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1, 0),))
    words = [((0, 0), (0, 0)), ((0, 1), (1, 0))]
    nres = regions.verify_n_shot(net, [code, code], [words], adv, A2)
    cres = regions.verify_compound(net, [code, code], [words], adv, A2)
    assert not nres.ok
    assert not cres.ok or nres.ok  # containment direction only


# ---------------------------------------------------------------------------
# verification against a per-message fan-out table
# ---------------------------------------------------------------------------


def refutations(net, codes_per_use, source_codes, advs, alphabet):
    """Oracle: every (terminal, pair of messages) that refutes goodness over
    len(codes_per_use) uses, from a table of each message's fan-outs per
    adversary and use.  The pair refutes when the fan-outs of some two of
    `advs` meet at every use."""
    n = len(codes_per_use)
    messages = list(itertools.product(*source_codes))
    fans = {(ci, m, k): adversarial_fanouts(net, codes_per_use[k], adv,
                                            tuple(c[k] for c in m), alphabet)
            for ci, adv in enumerate(advs) for m in messages for k in range(n)}
    return {(t, (m1, m2)) for t in net.terminals
            for m1, m2 in itertools.combinations(messages, 2)
            if any(all(fans[(ci, m1, k)][t] & fans[(cj, m2, k)][t] for k in range(n))
                   for ci in range(len(advs)) for cj in range(len(advs)))}


def one_shot_refutations(net, code, source_codes, adv, alphabet):
    uses = [[(c,) for c in source_code] for source_code in source_codes]
    return {(t, tuple(tuple(c for c, in m) for m in pair))
            for t, pair in refutations(net, [code], uses, [adv], alphabet)}


def assert_agrees(res, bad):
    assert res.ok == (not bad)
    if not res.ok:
        assert (res.terminal, res.pair) in bad


def random_source_codes(rng, net):
    return [rng.sample(list(itertools.product(A2, repeat=len(net.out_edges(s)))),
                       rng.randint(1, 2 ** len(net.out_edges(s))))
            for s in net.sources]


def test_verify_one_shot_agrees_with_the_fanout_table():
    rng = random.Random(17060)
    nets = [netlib.butterfly(A2), netlib.two_source_hub(A2)]
    verdicts = []
    while len(verdicts) < 30:
        net = nets.pop() if nets else random_small_network(rng)
        if net is None:
            continue
        code = random_table_code(rng, net, A2, erasures=True)
        edges = rng.sample([e.id for e in net.edges], rng.randint(1, len(net.edges)))
        adv = AdversarySpec(blocks=(AdvBlock(edges, rng.randint(0, 1), rng.randint(0, 1)),))
        source_codes = random_source_codes(rng, net)
        res = regions.verify_one_shot(net, code, source_codes, adv, A2)
        assert_agrees(res, one_shot_refutations(net, code, source_codes, adv, A2))
        verdicts.append(res.ok)
    assert 5 < sum(verdicts) < 25


def compound_advs(adv):
    return [AdversarySpec(hamming.restrict(adv.blocks, choice))
            for choice in hamming.chosen_subsets(adv.blocks)]


@pytest.mark.parametrize("case", ["parallel_path", "bottleneck"])
def test_n_shot_and_compound_agree_with_the_fanout_table(case):
    # the networks of the compound and n-shot cases above, on random
    # two-use codes
    if case == "parallel_path":
        net = netlib.parallel_path(2, A2)
        code = network.identity_routing_code(net)
    else:
        net = netlib.triple_path_bottleneck(A2)
        code = majority_bottleneck_code()
    edges = [e.id for e in net.out_edges("S")]
    adv = AdversarySpec(blocks=(AdvBlock(edges, 1, 0),))
    space = list(itertools.product(A2, repeat=len(edges)))
    rng = random.Random(len(edges))
    verdicts = []
    for _ in range(10):
        words = rng.sample([(w1, w2) for w1 in space for w2 in space], rng.randint(1, 4))
        for verify, advs in ((regions.verify_n_shot, [adv]),
                             (regions.verify_compound, compound_advs(adv))):
            res = verify(net, [code, code], [words], adv, A2)
            assert_agrees(res, refutations(net, [code, code], [words], advs, A2))
            verdicts.append(res.ok)
    assert any(verdicts) and not all(verdicts)


def test_verify_computes_each_message_fanout_once_for_all_terminals(monkeypatch):
    # the linear code sweeps the zero input once for both terminals; the
    # same functions as FuncVertexes sweep each message once
    net = netlib.butterfly(A2)
    scheme = schemes.build_adversary_free(net, (2,), 2, seed=0)
    funcs = NetworkCode({v: network.FuncVertex(lambda *vals, f=f: f(vals))
                         for v, f in scheme.network_code.functions.items()})
    messages = list(itertools.product(*scheme.source_codes))
    for code, swept in ((scheme.network_code, [((0, 0),)]), (funcs, messages)):
        calls = []

        def counted(*args):
            calls.append(args[3])
            return adversarial_fanouts(*args)

        monkeypatch.setattr(network, "adversarial_fanouts", counted)
        res = regions.verify_one_shot(net, code, scheme.source_codes,
                                      network.adversary_free(), A2)
        monkeypatch.undo()
        assert res.ok
        assert sorted(calls) == sorted(swept)


def test_index_scan_returns_the_pairwise_pair_on_the_verify_catalogue():
    """On every channel the verify workload scans (the double-relay code,
    the product-alphabet schemes, each adversary-free code with and without
    its refuting error, and each linear relay over all its inputs) the
    one-pass scan returns the pairwise scan's pair."""
    workloads = _workloads()
    fixtures = workloads.setup("verify")
    dr = fixtures["double_relay"]
    cases = [(dr.meta["network"], dr.network_code, dr.source_codes, dr.meta["adversary"],
              dr.alphabet)]
    cases += [(net, s.network_code, s.source_codes, s.meta["adversary"], s.alphabet)
              for net, s in fixtures["product_alphabet"].values()]
    for name, demands, q, seed, edge in workloads.AF_BUILDS:
        net = workloads.make_network(name, tuple(range(q)))
        try:
            s = schemes.build_adversary_free(net, demands, q, seed=seed)
        except DrawsExhausted:
            continue
        cases += [(net, s.network_code, s.source_codes, adv, s.alphabet)
                  for adv in (network.adversary_free(), AdversarySpec((AdvBlock({edge}, 1),)))]
    for name, q, seed, edges in workloads.LINEAR_RELAYS:
        net, code = workloads.relay_code(name, q, seed)
        cases.append((net, code, [[x for x, in network.global_inputs(net)]],
                      AdversarySpec((AdvBlock(set(edges), 1),)), net.alphabet))
    refuted = 0
    for net, code, source_codes, adv, alphabet in cases:
        messages = list(itertools.product(*source_codes))
        fresh = network.adversarial_channels(net, code, adv, alphabet)
        for t, c in network.adversarial_channels(net, code, adv, alphabet).items():
            want = next(((x, xp) for x, xp in itertools.combinations(messages, 2)
                         if fresh[t].confusable(x, xp)), None)
            assert confusable_pair(c, messages) == want, (net.terminals, t, adv)
            refuted += want is not None
    assert refuted > 50


# ---------------------------------------------------------------------------
# two-use linear impossibility on the fan bottleneck
# ---------------------------------------------------------------------------


def _linear_fanouts(net, matrix_rows, field):
    """Per-message fan-out signature for a 2x4 linear relay under a single
    corrupted out-edge."""
    code = NetworkCode({"V": network.LinearVertex(field, matrix_rows)})
    adv = AdversarySpec(blocks=(AdvBlock({"e3", "e4", "e5", "e6"}, 1, 0),))
    msgs = list(itertools.product((0, 1), repeat=2))
    fans = {}
    for x in msgs:
        fans[x] = adversarial_fanouts(net, code, adv, (x,), A2)["T"]
    return msgs, fans


def test_no_linear_code_pair_reaches_five_words_in_two_uses():
    net = netlib.fan_bottleneck(A2)
    F2 = gf.make_field(2)
    msgs = list(itertools.product((0, 1), repeat=2))
    signatures = {}
    for bits in range(256):
        rows = (tuple((bits >> j) & 1 for j in range(4)),
                tuple((bits >> (4 + j)) & 1 for j in range(4)))
        _, fans = _linear_fanouts(net, rows, F2)
        sig = tuple(bool(fans[a] & fans[b])
                    for a, b in itertools.combinations(msgs, 2))
        signatures.setdefault(sig, rows)
    best = 0
    mis_memo = {}
    for sig1 in signatures:
        for sig2 in signatures:
            key = (sig1, sig2)
            if key not in mis_memo:
                pair_idx = list(itertools.combinations(range(4), 2))
                adj = [0] * 16
                for u in range(16):
                    for v in range(u + 1, 16):
                        a1, a2 = divmod(u, 4)
                        b1, b2 = divmod(v, 4)
                        c1 = True if a1 == b1 else sig1[pair_idx.index(tuple(sorted((a1, b1))))]
                        c2 = True if a2 == b2 else sig2[pair_idx.index(tuple(sorted((a2, b2))))]
                        if c1 and c2:
                            adj[u] |= 1 << v
                            adj[v] |= 1 << u
                mis_memo[key] = max_independent_set(adj)[0]
            best = max(best, mis_memo[key])
    assert best < 5


# ---------------------------------------------------------------------------
# porting-lemma soundness on random instances
# ---------------------------------------------------------------------------


def test_verified_rates_respect_theo2_bounds():
    rng = random.Random(2718)
    net = netlib.two_source_hub(A2)
    checked = 0
    for _ in range(25):
        table = {}
        for vals in itertools.product((0, 1, STAR), repeat=3):
            table[vals] = tuple(rng.choice(A2) for _ in range(4))
        code = NetworkCode({"V": TableVertex(table)})
        edges = rng.sample([e.id for e in net.edges], rng.randint(1, 4))
        adv = AdversarySpec(blocks=(AdvBlock(edges, rng.randint(0, 1),
                                             rng.randint(0, 1)),))
        region = regions.theo2_region(net, adv)
        c1 = rng.sample(list(itertools.product(A2, repeat=2)), rng.randint(1, 2))
        c2 = rng.sample([(0,), (1,)], rng.randint(1, 2))
        res = regions.verify_one_shot(net, code, [c1, c2], adv, A2)
        if res.ok:
            checked += 1
            assert region.contains(res.rate), (edges, adv, res.rate)
    assert checked > 0
