import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from advnet import channel as ch
from advnet import codes, gf, hamming, network
from advnet.channel import STAR, BaseValue
from advnet.errors import (AlphabetMismatch, IndexOutOfRange, InvalidParams,
                           SearchLimitExceeded, UnsupportedVariant)


def random_disjoint_spec(rng, max_len=4, max_alpha=3):
    a = rng.randint(2, max_alpha)
    s = rng.randint(1, max_len)
    coords = list(range(s))
    rng.shuffle(coords)
    blocks = []
    used = 0
    for _ in range(rng.randint(1, 2)):
        if used >= s:
            break
        size = rng.randint(0, s - used)
        blk = coords[used:used + size]
        used += size
        blocks.append(hamming.Block(blk, rng.randint(0, 2), rng.randint(0, 1)))
    if not blocks:
        blocks = [hamming.Block([], 0, 0)]
    return hamming.HammingSpec(a, s, tuple(blocks))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_coordinates_outside_the_word_raise():
    with pytest.raises(IndexOutOfRange):
        hamming.single_block(2, 4, {1, 4}, t=1)
    with pytest.raises(IndexOutOfRange):
        hamming.RankMetricSpec(2, 2, 3, {0, 3}, 1)


def test_in_fanout_single_block():
    spec = hamming.single_block(2, 4, range(4), t=1)
    x = (0, 0, 0, 0)
    assert hamming.in_fanout(spec, x, x)
    assert hamming.in_fanout(spec, x, (0, 1, 0, 0))
    assert not hamming.in_fanout(spec, x, (0, 1, 1, 0))
    assert not hamming.in_fanout(spec, x, (0, STAR, 0, 0))  # e = 0


def test_in_fanout_rejects_symbols_outside_the_alphabet():
    spec = hamming.single_block(2, 3, range(3), 1)
    for x, y in [((0, 0, 0), (7, 0, 0)), ((7, 0, 0), (0, 0, 0)),
                 ((STAR, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, -1))]:
        with pytest.raises(AlphabetMismatch):
            hamming.in_fanout(spec, x, y)


def test_specs_store_their_blocks_as_tuples():
    blocks = [hamming.Block(range(3), 1)]
    spec = hamming.HammingSpec(2, 3, blocks)
    assert spec == hamming.HammingSpec(2, 3, tuple(blocks))
    assert hash(spec) == hash(hamming.HammingSpec(2, 3, tuple(blocks)))
    adv = network.AdversarySpec(blocks)
    assert adv == network.AdversarySpec(tuple(blocks))
    assert hash(adv) == hash(network.AdversarySpec(tuple(blocks)))


def test_in_fanout_two_blocks():
    spec = hamming.HammingSpec(2, 4, (hamming.Block({0, 1}, 1, 0),
                                      hamming.Block({2, 3}, 1, 0)))
    x = (0, 0, 0, 0)
    assert hamming.in_fanout(spec, x, (0, 1, 0, 1))
    assert not hamming.in_fanout(spec, x, (1, 1, 0, 0))


def random_overlapping_spec(rng, max_len=4, max_alpha=3):
    a = rng.randint(2, max_alpha)
    s = rng.randint(1, max_len)
    blocks = tuple(hamming.Block(rng.sample(range(s), rng.randint(0, s)),
                                 rng.randint(0, 2), 0)
                   for _ in range(rng.randint(1, 3)))
    return hamming.HammingSpec(a, s, blocks)


def test_fanout_enumeration_matches_membership():
    rng = random.Random(6)
    specs = [random_disjoint_spec(rng) for _ in range(15)]
    specs += [random_overlapping_spec(rng) for _ in range(15)]
    assert any(not hamming.disjoint(spec.blocks) for spec in specs)
    for spec in specs:
        a, s = spec.alphabet_size, spec.length
        for x in itertools.islice(hamming.words(a, s), 4):
            fan = hamming.fanout(spec, x)
            alphabet = tuple(range(a)) + (STAR,)
            expected = {y for y in itertools.product(alphabet, repeat=s)
                        if hamming.in_fanout(spec, x, y)}
            assert fan == expected


@pytest.mark.parametrize("a", [2, 3])
def test_ball_size_counts_the_ball(a):
    for n in range(5):
        for t in range(4):
            for e in range(3):
                word = tuple(i % a for i in range(n))
                made = hamming.fanout(hamming.single_block(a, n, range(n), t, e), word)
                assert len(made) == hamming.ball_size(n, t, e, a), (n, t, e, a)


# ---------------------------------------------------------------------------
# analytic confusability vs explicit intersection (the core oracle)
# ---------------------------------------------------------------------------


def test_confusable_analytic_matches_intersection_oracle():
    rng = random.Random(60)
    for _ in range(20):
        spec = random_disjoint_spec(rng)
        a, s = spec.alphabet_size, spec.length
        if a ** s > 128:
            continue
        all_words = list(hamming.words(a, s))
        for x in all_words:
            for xp in all_words:
                want = bool(hamming.fanout(spec, x) & hamming.fanout(spec, xp))
                got = hamming.confusable_analytic(spec, x, xp)
                assert got == want, (spec, x, xp)


def test_confusable_examples():
    spec = hamming.single_block(2, 4, range(4), t=1)
    x = (0, 0, 0, 0)
    assert hamming.confusable_analytic(spec, x, x)
    assert hamming.confusable_analytic(spec, x, (1, 1, 0, 0))
    assert not hamming.confusable_analytic(spec, x, (1, 1, 1, 0))


def test_two_block_spec_isomorphic_to_hh_squared():
    spec = hamming.HammingSpec(2, 8, (hamming.Block(range(4), 1, 0),
                                      hamming.Block(range(4, 8), 1, 0)))
    for x in [(0,) * 8, (1, 0) * 4]:
        for xp in [(0, 1) * 4, (1,) * 8, x]:
            d1 = sum(1 for i in range(4) if x[i] != xp[i])
            d2 = sum(1 for i in range(4, 8) if x[i] != xp[i])
            assert hamming.confusable_analytic(spec, x, xp) == (d1 <= 2 and d2 <= 2)


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


def test_capacity_single_block_formula():
    # adversary with no coordinates is powerless
    spec = hamming.single_block(3, 2, [], 5, 5)
    assert hamming.capacity_single_block(spec).value == pytest.approx(2.0)
    # binary length-4 full-access single-error channel
    spec = hamming.single_block(2, 4, range(4), 1)
    v = hamming.capacity_single_block(spec)
    assert v.exact and v.value == pytest.approx(1.0) and v.base == 2
    # one erasure on two of three coordinates
    spec = hamming.single_block(2, 3, {0, 1}, 0, 1)
    assert hamming.capacity_single_block(spec).value == pytest.approx(2.0)
    # beta(6, 5, 3) is not known exactly: the Singleton upper value 3
    v = hamming.capacity_single_block(hamming.single_block(6, 5, range(5), 1))
    assert not v.exact and v.value == pytest.approx(3.0)


def test_single_block_capacity_equals_brute_force():
    spec = hamming.single_block(2, 3, {0, 1}, 0, 1)
    assert hamming.brute_force_capacity(spec).value == pytest.approx(2.0)


def test_brute_force_capacity_of_a_clean_spec_searches_past_the_recursion_limit():
    # no blocks: all 1,024 words form one independent set, one search frame
    # per member, more than the default recursion limit of 1,000
    limit = sys.getrecursionlimit()
    got = hamming.brute_force_capacity(hamming.HammingSpec(2, 10, ()))
    assert (got, got.exact) == (BaseValue(10, 2), True)
    assert sys.getrecursionlimit() == limit


def test_exhausted_brute_force_capacity_raises_with_its_lower_code():
    spec = hamming.HammingSpec(2, 7, (hamming.Block((0, 1, 2), 1), hamming.Block((3, 4), 0, 1)))
    with pytest.raises(SearchLimitExceeded) as info:
        hamming.brute_force_capacity(spec, node_budget=1)
    code = info.value.incumbent
    assert code and ch.is_good_code(hamming.explicit_channel(spec), code)


def random_component_spec(rng, a, n_blocks, overlapping):
    """A spec over range(a) with n_blocks blocks on scattered coordinates:
    disjoint ones with erasure budgets, or, when `overlapping`, erasure-free
    ones on random subsets; some coordinates may stay free."""
    s = rng.randint(1, {2: 8, 3: 5, 4: 4}[a])
    coords = list(range(s))
    rng.shuffle(coords)
    blocks = []
    for _ in range(n_blocks):
        if overlapping:
            chosen = rng.sample(range(s), rng.randint(1, s))
            blocks.append(hamming.Block(chosen, rng.randint(0, 2)))
        else:
            size = rng.randint(0, len(coords))
            blocks.append(hamming.Block(coords[:size], rng.randint(0, 2), rng.randint(0, 1)))
            coords = coords[size:]
    return hamming.HammingSpec(a, s, tuple(blocks))


def test_component_rows_equal_the_explicit_rows_randomized():
    # the graph built from the components' tables is the table's graph,
    # bit for bit, in word order
    rng = random.Random(28)
    seen = set()
    for a in (2, 3, 4):
        for n_blocks in range(4):
            for overlapping in (False, True):
                for _ in range(4):
                    spec = random_component_spec(rng, a, n_blocks, overlapping)
                    parts = hamming.components(spec)
                    chan = hamming.component_channel(spec)
                    want = ch.confusability_adjacency(hamming.explicit_channel(spec), 1024)
                    assert ch.confusability_adjacency(chan, 1024) == want, spec
                    if spec.alphabet_size ** spec.length <= 256:
                        assert ch.same_fanout_map(chan, hamming.explicit_channel(spec)), spec
                    seen.update(name for name, holds in (
                        ("erasures", any(b.e for b in spec.blocks)),
                        ("overlapping", not hamming.disjoint(spec.blocks)),
                        ("scattered", any(c[-1] - c[0] >= len(c) for c, _ in parts)),
                        ("free", hamming.covered(spec.blocks) != set(range(spec.length))))
                        if holds)
    assert seen == {"erasures", "overlapping", "scattered", "free"}


def test_components_group_blocks_that_share_coordinates():
    # {1, 6} joins {1, 5} and {4, 6}; the empty block joins nothing
    spec = hamming.HammingSpec(2, 7, (hamming.Block({5, 1}, 1), hamming.Block({3}, 2),
                                      hamming.Block({6, 4}, 1), hamming.Block({1, 6}, 1),
                                      hamming.Block((), 2)))
    assert hamming.components(spec) == [
        ((1, 4, 5, 6), hamming.HammingSpec(2, 4, (hamming.Block({2, 0}, 1),
                                                  hamming.Block({3, 1}, 1),
                                                  hamming.Block({0, 3}, 1)))),
        ((3,), hamming.single_block(2, 1, {0}, 2))]
    # coordinates 0 and 2 read as sent
    assert hamming.component_channel(spec).free == (0, 2)


def _benchmark_hamming_specs():
    from test_benchmark_boundaries import _workloads
    workloads = _workloads()
    return [workloads.hamming_spec(*entry) for entry in workloads.HAMMING_SPECS]


@pytest.mark.parametrize("budget", [1, 10, 100, 20_000, None])
def test_brute_force_capacity_matches_the_table_search_on_the_benchmark(budget):
    # the same graph gives the same search: equal values, or equal incumbents
    for spec in _benchmark_hamming_specs():
        res = ch.one_shot_capacity(hamming.explicit_channel(spec),
                                   max_vertices=hamming.BRUTE_FORCE_LIMIT, node_budget=budget)
        if res.exact:
            got = hamming.brute_force_capacity(spec, node_budget=budget)
            assert got == res.value_in_base(spec.alphabet_size) and got.exact, spec
        else:
            with pytest.raises(SearchLimitExceeded) as info:
                hamming.brute_force_capacity(spec, node_budget=budget)
            assert info.value.incumbent == res.witness, spec


def test_brute_force_capacity_lists_only_the_components_fanouts(monkeypatch):
    # (2, 7): blocks on {0, 1, 2} and {3, 4} list 8 + 4 fan-outs, not 2**7;
    # a spec with no blocks lists none
    fanout, calls = hamming.fanout, []
    monkeypatch.setattr(hamming, "fanout", lambda spec, x: calls.append(x) or fanout(spec, x))
    spec = _benchmark_hamming_specs()[0]
    assert spec.length == 7
    assert hamming.brute_force_capacity(spec).value == pytest.approx(4.0)
    assert len(calls) == 12
    calls.clear()
    assert hamming.brute_force_capacity(hamming.HammingSpec(3, 4, ())).value == pytest.approx(4.0)
    assert calls == []


def test_prop_formula_matches_brute_force_randomized():
    rng = random.Random(99)
    done = 0
    while done < 12:
        a = rng.randint(2, 3)
        s = rng.randint(1, 3 if a == 3 else 4)
        u = rng.randint(0, s)
        t = rng.randint(0, 1)
        e = rng.randint(0, 1)
        spec = hamming.single_block(a, s, range(u), t, e)
        formula = hamming.capacity_single_block(spec)
        if not formula.exact:
            continue
        brute = hamming.brute_force_capacity(spec)
        assert brute.value == pytest.approx(formula.value), (a, s, u, t, e)
        done += 1


def test_multi_block_bound_values():
    spec = hamming.single_block(2, 3, range(3), 0, 0)
    assert hamming.multi_block_bound(spec, 5).value == pytest.approx(15)
    spec = hamming.HammingSpec(2, 8, (hamming.Block(range(4), 1, 0),
                                      hamming.Block(range(4, 8), 1, 0)))
    assert hamming.sigmas(spec) == (2, 2)
    assert hamming.multi_block_bound(spec).value == pytest.approx(4.0)
    # capacity exceeds the naive per-block sum: log2(5) > 2 bits
    big_code = [tuple(int(b) for b in w) for w in
                ("00000000", "00011101", "10100111", "11010110", "11101000")]
    chan = hamming.symbolic_channel(spec)
    assert ch.is_good_code(chan, big_code)


def test_equality_when_alphabet_large_enough():
    # q >= s: the bound s - sigma is met exactly
    for (a, s, u, t, e) in [(5, 3, 2, 1, 0), (4, 2, 1, 1, 0), (5, 2, 2, 0, 1)]:
        spec = hamming.single_block(a, s, range(u), t, e)
        bound = hamming.multi_block_bound(spec).value
        brute = hamming.brute_force_capacity(spec).value
        assert brute == pytest.approx(min(bound, s))


# ---------------------------------------------------------------------------
# compound channels
# ---------------------------------------------------------------------------


def test_compound_n1_equals_plain_fanout():
    rng = random.Random(13)
    for _ in range(8):
        spec = random_disjoint_spec(rng, max_len=3, max_alpha=2)
        comp = hamming.compound_channel(spec, 1)
        plain = hamming.explicit_channel(spec)
        assert ch.same_fanout_map(comp, plain)


def test_compound_capacity_chain():
    spec = hamming.single_block(2, 2, range(2), 1, 0)
    c1 = hamming.brute_force_capacity(spec).value
    plain2 = ch.one_shot_capacity(ch.power(hamming.explicit_channel(spec), 2))
    comp2 = ch.one_shot_capacity(hamming.compound_channel(spec, 2))
    a = spec.alphabet_size
    c_n = plain2.value_in_base(a)
    c_rest = comp2.value_in_base(a)
    assert 2 * c1 <= c_n + 1e-9 <= c_rest + 1e-9
    assert c_rest <= 2 * hamming.multi_block_bound(spec).value + 1e-9


def test_compound_confusable_consistency():
    spec = hamming.single_block(2, 2, range(2), 1, 0)
    comp = hamming.compound_channel(spec, 2)
    inputs = list(itertools.product(hamming.words(2, 2), repeat=2))
    for xs in inputs[:6]:
        for xps in inputs[:6]:
            want = bool(comp.fanout(xs) & comp.fanout(xps))
            got = comp.confusable(xs, xps)
            assert got == want


def test_compound_bound_single_block():
    spec = hamming.single_block(2, 3, range(3), 1, 0)
    assert hamming.multi_block_bound(spec, 4).value == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# achievability
# ---------------------------------------------------------------------------


def test_achievability_full_space_when_sigma_zero():
    spec = hamming.single_block(5, 3, range(3), 0, 0)
    code = hamming.achievability_code(spec, gf.make_field(5))
    assert len(code) == 125


def test_achievability_exfinale_style():
    spec = hamming.single_block(5, 5, range(5), 1, 0)
    code = hamming.achievability_code(spec, gf.make_field(5))
    assert len(code) == 125 and code.min_distance() == 3
    assert hamming.capacity_single_block(spec).value == pytest.approx(3.0)


def test_achievability_repetition():
    spec = hamming.single_block(2, 3, range(3), 1, 0)
    code = hamming.achievability_code(spec, gf.make_field(2))
    assert len(code) == 2
    assert hamming.brute_force_capacity(spec).value == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# product alphabets
# ---------------------------------------------------------------------------


def test_singleton_hamming_bound_is_at_least_brute_force():
    rng = random.Random(1705)
    for _ in range(60):
        a, s = rng.randint(2, 3), rng.randint(1, 4)
        spec = hamming.single_block(a, s, rng.sample(range(s), rng.randint(0, s)),
                                    rng.randint(0, 2), rng.randint(0, 2))
        bound = hamming.singleton_hamming_bound(spec)
        assert hamming.brute_force_capacity(spec) <= bound, spec
    # a = 2, s = 7, t = 1: the Hamming code meets the packing bound 7 - log2(8)
    assert hamming.singleton_hamming_bound(hamming.single_block(2, 7, range(7), 1)).value == 4
    with pytest.raises(InvalidParams):
        hamming.singleton_hamming_bound(hamming.HammingSpec(
            2, 2, (hamming.Block({0}, 1), hamming.Block({1}, 1))))


def test_sphere_packing_is_the_exact_quotient_per_use():
    # a = 2, s = 5, t = 1: |ball| = 6, so 32/6 words per use and (32/6)^n
    # over n uses; flooring to 5 would bound one use only
    bound = hamming.singleton_hamming_bound(hamming.single_block(2, 5, range(5), 1))
    assert bound == BaseValue(0, 2, count=Fraction(32, 6))
    assert bound == BaseValue(0, 2, count=Fraction(32, 6) ** 3, uses=3)
    assert BaseValue(0, 2, count=5) < bound < BaseValue(0, 2, count=6)
    assert bound.value == pytest.approx(5 - math.log2(6))


def per_symbol_spec(b, m, s, t, e):
    """s symbols over B^m, each with t errors and e erasures among its m
    sub-symbols: a per-symbol network adversary clipped to a cut of s
    edges."""
    adv = network.AdversarySpec((hamming.Block(range(m), t, e),), network.PER_SYMBOL)
    return adv.clip([f"e{i}" for i in range(s)], b)


def test_product_alphabet_bound_values():
    def bound(b, m, s, t, e):
        return hamming.product_alphabet_bound(per_symbol_spec(b, m, s, t, e))

    assert bound(2, 3, 4, 0, 0).value == pytest.approx(4)
    assert bound(2, 3, 2, 1, 0).value == pytest.approx(2 / 3)
    assert bound(2, 4, 3, 2, 1).value == pytest.approx(0.0)
    assert bound(3, 4, 3, 1, 0).base == 81


def test_product_alphabet_channel_is_power_of_symbol_channel():
    chan = hamming.product_alphabet_channel(2, 2, 2, 1, 0)
    x = ((0, 0), (1, 1))
    fan = chan.fanout(x)
    for y in fan:
        assert all(sum(1 for u, v in zip(xi, yi) if u != v) <= 1
                   for xi, yi in zip(x, y))
    res = ch.one_shot_capacity(chan)
    bound = hamming.product_alphabet_bound(per_symbol_spec(2, 2, 2, 1, 0))
    assert res.value_in_base(4) <= bound.value + 1e-9


@pytest.mark.parametrize("b, m, s, t, e", [
    (2, 2, 2, 1, 0), (2, 3, 2, 1, 1), (3, 2, 2, 0, 1), (2, 2, 3, 1, 1), (2, 2, 2, 2, 0)])
def test_per_symbol_clip_is_the_flattened_product_alphabet_channel(b, m, s, t, e):
    spec = per_symbol_spec(b, m, s, t, e)
    chan = hamming.product_alphabet_channel(b, m, s, t, e)

    def flat(word):
        return tuple(v for symbol in word for v in symbol)

    for x in chan.iter_inputs():
        assert hamming.fanout(spec, flat(x)) == {flat(y) for y in chan.fanout(x)}


@pytest.mark.parametrize("s", [0, -1])
def test_product_alphabet_channel_needs_a_symbol(s):
    with pytest.raises(ValueError):
        hamming.product_alphabet_channel(2, 2, s, 1, 0)


# ---------------------------------------------------------------------------
# overlapping adversaries
# ---------------------------------------------------------------------------


def test_overlap_membership_and_commutation():
    # two adversaries, overlapping coordinate sets, t = 1 each
    b1 = hamming.Block({0, 1}, 1, 0)
    b2 = hamming.Block({1, 2}, 1, 0)
    spec = hamming.HammingSpec(2, 3, (b1, b2))
    x = (0, 0, 0)
    assert hamming.in_fanout(spec, x, (1, 1, 0))
    assert hamming.in_fanout(spec, x, (0, 1, 1))
    assert not hamming.in_fanout(spec, x, (1, 1, 1))
    # sequential composition in either order gives the same fan-out
    fwd = hamming.HammingSpec(2, 3, (b1, b2))
    bwd = hamming.HammingSpec(2, 3, (b2, b1))
    for x in hamming.words(2, 3):
        assert hamming.fanout(fwd, x) == hamming.fanout(bwd, x)


def test_overlap_fanout_matches_two_step_composition():
    rng = random.Random(3)
    for _ in range(6):
        s = 3
        c1 = frozenset(rng.sample(range(s), rng.randint(0, s)))
        c2 = frozenset(rng.sample(range(s), rng.randint(0, s)))
        t1, t2 = rng.randint(0, 2), rng.randint(0, 2)
        spec = hamming.HammingSpec(2, s, (hamming.Block(c1, t1, 0),
                                          hamming.Block(c2, t2, 0)))
        s1 = hamming.single_block(2, s, c1, t1)
        s2 = hamming.single_block(2, s, c2, t2)
        for x in hamming.words(2, s):
            two_step = set()
            for z in hamming.fanout(s1, x):
                two_step |= hamming.fanout(s2, z)
            assert hamming.fanout(spec, x) == two_step


def test_adversarial_strength_values():
    # single block: sigma = min(2t, |U|)
    assert hamming.adversarial_strength((hamming.Block(range(4), 1, 0),)) == 2
    assert hamming.adversarial_strength((hamming.Block(range(3), 2, 0),)) == 3
    # identical blocks {0,1} with t = 1 each: strength 2
    b = hamming.Block({0, 1}, 1, 0)
    assert hamming.adversarial_strength((b, b)) == 2


def test_adversarial_strength_disjoint_reduces_to_sum():
    rng = random.Random(8)
    for _ in range(3):
        s = 6
        cut = rng.randint(1, 5)
        b1 = hamming.Block(range(cut), rng.randint(0, 2), 0)
        b2 = hamming.Block(range(cut, s), rng.randint(0, 2), 0)
        got = hamming.adversarial_strength((b1, b2))
        want = sum(min(2 * b.t, len(b.coords)) for b in (b1, b2))
        assert got == want


def block_choices(coords, t, e):
    """Every (corrupted, erased) choice of positions for one block: up to t
    corrupted positions, then up to e erased ones among the rest."""
    return [(err, stars) for err in hamming.subsets_upto(coords, t)
            for stars in hamming.subsets_upto(set(coords).difference(err), e)]


def sequential_ball(word, blocks, alphabet):
    """The blocks acting one after another, each on every word the blocks
    before it made: the oracle for `ball` over `actions`."""
    made = {tuple(word)}
    for coords, t, e in blocks:
        before, made = made, set()
        for w in before:
            for err, stars in block_choices(coords, t, e):
                y = list(w)
                for i in stars:
                    y[i] = STAR
                for vals in itertools.product(
                        *[[v for v in alphabet if v != w[i]] for i in err]):
                    for i, v in zip(err, vals):
                        y[i] = v
                    made.add(tuple(y))
    return made


def pairwise_strength(blocks):
    """Max size of a union of two per-block <=t choices, over all pairs:
    the oracle for `adversarial_strength`."""
    choices = hamming.chosen_subsets((b.coords, b.t, 0) for b in blocks)
    return max(len(set().union(*first, *second))
               for first in choices for second in choices)


def union_actions(blocks):
    """The distinct unions of one `block_choices` choice per block: the
    oracle for `actions`."""
    return {(frozenset(i for err, _ in combo for i in err),
             frozenset(i for _, stars in combo for i in stars))
            for combo in itertools.product(*[block_choices(*b) for b in blocks])}


def random_action_spec(rng):
    """A disjoint spec with erasures or an overlapping one: a in {2, 3, 4},
    s <= 6, up to 3 blocks."""
    a = rng.choice((2, 3, 4))
    s = rng.randint(1, 6)
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(s + 1), 2))
        coords = rng.sample(range(s), s)
        parts = [coords[:cuts[0]], coords[cuts[0]:cuts[1]], coords[cuts[1]:]]
        blocks = tuple(hamming.Block(p, rng.randint(0, 2), rng.randint(0, 1))
                       for p in parts[:rng.randint(1, 3)])
        return hamming.HammingSpec(a, s, blocks)
    blocks = tuple(hamming.Block(rng.sample(range(s), rng.randint(0, s)), rng.randint(0, 2))
                   for _ in range(rng.randint(1, 3)))
    return hamming.HammingSpec(a, s, blocks)


def test_action_ball_and_strength_match_their_oracles():
    rng = random.Random(1706)
    erasure_free = overlapping = 0
    for _ in range(400):
        spec = random_action_spec(rng)
        alphabet = range(spec.alphabet_size)
        acts = hamming.actions(spec.blocks)
        assert len(acts) == len(set(acts)) and set(acts) == union_actions(spec.blocks), spec
        overlapping += not hamming.disjoint(spec.blocks)
        for _ in range(3):
            x = tuple(rng.randrange(spec.alphabet_size) for _ in range(spec.length))
            assert hamming.fanout(spec, x) == sequential_ball(x, spec.blocks, alphabet)
        if not any(b.e for b in spec.blocks):   # the specs overlap_bound takes
            erasure_free += 1
            assert (hamming.adversarial_strength(spec.blocks)
                    == pairwise_strength(spec.blocks)), spec
    assert erasure_free > 150 and 400 - erasure_free > 100 and overlapping > 50


def test_actions_are_distinct_unions_of_block_actions():
    b = hamming.Block({0, 1, 2}, 1)
    acts = hamming.actions((b, b))
    # two t = 1 choices on the same 3 positions: 16 combinations, 7 unions
    assert len(acts) == len(set(acts)) == 7
    assert {err for err, stars in acts} == {frozenset(c) for c in
                                            hamming.subsets_upto(range(3), 2)}
    assert hamming.actions(()) == ((frozenset(), frozenset()),)


def test_reader_retires_each_block_after_its_last_coordinate():
    # every budget a read returns once a block's last coordinate in the read
    # order is read has that block's t and e at zero
    rng = random.Random(20)
    kinds = {True: 0, False: 0}
    for _ in range(400):
        spec = random_action_spec(rng)
        order = tuple(rng.sample(range(spec.length), spec.length))
        read, spare = hamming.reader(spec.blocks, range(spec.alphabet_size), order)
        ends = {j: max(map(order.index, b.coords)) for j, b in enumerate(spec.blocks)
                if b.coords}
        x = [rng.randrange(spec.alphabet_size) for _ in range(spec.length)]
        spares = {spare}
        for pos, i in enumerate(order):
            spares = {left for s in spares for _, left in read(i, x[i], s)}
            for left in frozenset().union(*spares):
                assert all(left[2 * j:2 * j + 2] == (0, 0)
                           for j, end in ends.items() if end <= pos), (spec, order, left)
        kinds[hamming.disjoint(spec.blocks)] += any(b.t + b.e for b in spec.blocks)
    assert kinds[True] > 100 and kinds[False] > 50


def _edge_by_edge(read, coords, values, spare):
    """Every (in-tuple, budget left) of coords holding values, one read call
    per partial read per coordinate: the oracle for `read.joint`."""
    reads = [((), spare)]
    for coord, v in zip(coords, values):
        reads = [(got + (w,), left) for got, s in reads for w, left in read(coord, v, s)]
    return reads


def test_joint_read_is_the_edge_by_edge_expansion():
    # each key reads jointly as the set of (in-tuple, budget left) that the
    # per-coordinate reads give in turn: groups of scattered coordinates in
    # a random read order (so blocks retire inside and between groups),
    # values with STAR among them, from every budget the earlier groups left
    rng = random.Random(29)
    seen = {"erasures": 0, "overlapping": 0, "star": 0, "several": 0}
    for _ in range(300):
        a = rng.choice((2, 3, 5))
        s = rng.randint(1, 6)
        coords = rng.sample(range(s), s)
        if rng.random() < 0.5:
            cuts = sorted(rng.sample(range(s + 1), 2))
            parts = [coords[:cuts[0]], coords[cuts[0]:cuts[1]], coords[cuts[1]:]]
            blocks = tuple(hamming.Block(p, rng.randint(0, 2), rng.randint(0, 1))
                           for p in parts[:rng.randint(1, 3)])
        else:
            blocks = tuple(hamming.Block(rng.sample(range(s), rng.randint(0, s)),
                                         rng.randint(0, 2)) for _ in range(rng.randint(1, 3)))
        seen["erasures"] += any(b.e for b in blocks)
        seen["overlapping"] += not hamming.disjoint(blocks)
        order = tuple(rng.sample(range(s), s))
        read, spare = hamming.reader(blocks, tuple(range(a)), order)
        spares, at = {spare}, 0
        while at < s:
            group = order[at:at + rng.randint(1, 3)]
            at += len(group)
            after = set()
            for sp in spares:
                values = tuple(STAR if rng.random() < 0.15 else rng.randrange(a) for _ in group)
                seen["star"] += STAR in values
                want = _edge_by_edge(read, group, values, sp)
                got = read.joint(group, values, sp)
                assert set(got) == set(want), (blocks, order, group, values, sp)
                after |= {left for _, left in got}
            seen["several"] += len(spares) > 1
            spares = after
    assert all(n > 30 for n in seen.values()), seen


def test_explicit_channel_outputs_are_the_reached_words():
    rng = random.Random(4)
    for _ in range(20):
        spec = random_action_spec(rng)
        chan = hamming.explicit_channel(spec)
        fans = [chan.fanout(x) for x in chan.inputs_tuple()]
        assert set(chan.outputs) == frozenset().union(*fans)


def test_overlap_bound():
    b1 = hamming.Block({0, 1}, 1, 0)
    b2 = hamming.Block({1, 2}, 1, 0)
    spec = hamming.HammingSpec(2, 4, (b1, b2))
    assert hamming.overlap_bound(spec).value == pytest.approx(4 - 3)


def test_overlap_rejects_erasures():
    with pytest.raises(InvalidParams, match="erasure-free"):
        hamming.HammingSpec(2, 3, (hamming.Block({0, 1}, 1, 1), hamming.Block({1, 2}, 1, 0)))


def test_analytic_confusability_rejects_overlapping():
    spec = hamming.HammingSpec(2, 3, (hamming.Block({0, 1}, 1, 0),
                                      hamming.Block({1, 2}, 1, 0)))
    with pytest.raises(UnsupportedVariant):
        hamming.confusable_analytic(spec, (0, 0, 0), (1, 1, 1))


# ---------------------------------------------------------------------------
# keylong witness
# ---------------------------------------------------------------------------


def test_keylong_witness_trivial():
    spec = hamming.HammingSpec(2, 3, (hamming.Block({0, 1}, 0, 0),))
    V, Vp, ubar, _ = hamming.keylong_witness(spec)
    assert all(not v for v in V) and all(not v for v in Vp) and not ubar


def test_keylong_witness_sizes():
    spec = hamming.single_block(2, 4, range(4), 1, 0)
    V, Vp, ubar, _ = hamming.keylong_witness(spec)
    assert len(ubar) == 2
    assert len(V[0]) == 1 and len(Vp[0]) == 1
    spec = hamming.single_block(2, 5, {0, 1, 2}, 1, 1)
    V, Vp, ubar, _ = hamming.keylong_witness(spec)
    assert len(ubar) == 3 == min(2 * 1 + 1, 3)


def test_keylong_intersection_property():
    rng = random.Random(14)
    for _ in range(10):
        spec = random_disjoint_spec(rng, max_len=4, max_alpha=2)
        witness = hamming.keylong_witness(spec)
        V, Vp, ubar, _ = witness
        clipped = spec.clip(V)
        clipped_p = spec.clip(Vp)
        a, s = spec.alphabet_size, spec.length
        for x in hamming.words(a, s):
            for xp in hamming.words(a, s):
                if any(x[i] != xp[i] for i in range(s) if i not in ubar):
                    continue
                z = hamming.keylong_common_output(spec, witness, x, xp)
                assert hamming.in_fanout(clipped, x, z)
                assert hamming.in_fanout(clipped_p, xp, z)


# ---------------------------------------------------------------------------
# rank-metric adversaries
# ---------------------------------------------------------------------------


def test_rank_confusable_matches_explicit_oracle():
    spec = hamming.RankMetricSpec(2, 2, 2, {0, 1}, 1)
    chan = hamming.rank_explicit_channel(spec)
    mats = chan.inputs_tuple()
    for m1 in mats:
        for m2 in mats:
            want = bool(chan.fanout(m1) & chan.fanout(m2))
            assert hamming.rank_confusable(spec, m1, m2) == want


def test_rank_confusable_respects_column_restriction():
    spec = hamming.RankMetricSpec(2, 2, 3, {0}, 1)
    F = gf.make_field(2)
    m1 = gf.Matrix(F, ((0, 0, 0),) * 2)
    m2 = gf.Matrix(F, ((1, 0, 0), (0, 0, 0)))
    m3 = gf.Matrix(F, ((0, 1, 0), (0, 0, 0)))
    assert hamming.rank_in_fanout(spec, m1, m2)
    assert not hamming.rank_in_fanout(spec, m1, m3)


def test_rank_fanout_rejects_matrices_of_another_shape():
    spec = hamming.RankMetricSpec(2, 2, 2, (0, 1), 0)
    F = gf.make_field(2)
    one_row = gf.Matrix(F, ((1, 1),))
    square = gf.Matrix(F, ((1, 1), (0, 1)))
    for m1, m2 in [(one_row, square), (square, one_row),
                   (one_row, gf.Matrix(F, ((1,),)))]:
        with pytest.raises(ValueError):
            hamming.rank_in_fanout(spec, m1, m2)


def test_rank_channel_bound_values():
    assert hamming.rank_channel_bound(hamming.RankMetricSpec(4, 3, 3, range(3), 0)).value == 3
    assert hamming.rank_channel_bound(hamming.RankMetricSpec(4, 3, 3, range(3), 2)).value == 0
    assert hamming.rank_channel_bound(hamming.RankMetricSpec(4, 3, 3, range(3), 1)).value == 1


def test_rank_achievability_q4():
    rc = hamming.rank_achievability(4, 3, 3, 1)
    words = rc.codewords()
    assert len(words) == 64
    dmin = min(rc.rank_distance(a, b)
               for a, b in itertools.combinations(words, 2))
    assert dmin == 3
    bound = hamming.rank_channel_bound(hamming.RankMetricSpec(4, 3, 3, range(3), 1))
    assert math.log(len(words), 4 ** 3) == pytest.approx(bound.value)
