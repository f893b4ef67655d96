import itertools
import math
import random

import pytest

from advnet import codes, gf, netlib, network, regions
from advnet.channel import STAR
from advnet.network import (AdvBlock, AdversarySpec, NetworkCode, TableVertex,
                            adversarial_fanouts)
from advnet.search import max_independent_set

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


def test_overlap_region_reduces_to_theo2_on_disjoint_blocks():
    net = netlib.two_source_double_relay(A2)
    blocks = (AdvBlock({"e5", "e6", "e7"}, 1, 0),
              AdvBlock({"e8", "e9", "e10"}, 1, 0))
    adv_o = AdversarySpec(blocks=blocks, variant=network.OVERLAPPING)
    adv_d = AdversarySpec(blocks=blocks, variant=network.DISJOINT)
    r_o = regions.overlap_region(net, adv_o)
    r_d = regions.theo2_region(net, adv_d)
    for subset in ({0}, {1}, {0, 1}):
        assert (r_o.bound_for(subset).bound
                == pytest.approx(r_d.bound_for(subset).bound))


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


def test_region_contains_zero():
    net = netlib.two_source_hub(A2)
    adv = network.full_edge_adversary(net, 1)
    region = regions.theo2_region(net, adv)
    assert region.contains((0, 0))


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
