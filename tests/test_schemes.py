import itertools
import math
import random

import pytest

from advnet import gf, netlib, network, regions, schemes
from advnet.channel import STAR
from advnet.errors import (AmbiguousDecode, DrawsExhausted, InvalidParams,
                           NoCodewordInRange, RegionViolated, UnsupportedSources)
from advnet.network import (AdvBlock, AdversarySpec, NetworkCode, evaluate,
                            full_edge_adversary)

A2 = (0, 1)


# ---------------------------------------------------------------------------
# adversary-free linear multicast
# ---------------------------------------------------------------------------


def test_adversary_free_on_path():
    net = netlib.single_path(A2)
    scheme = schemes.build_adversary_free(net, (1,), 2, seed=1)
    assert scheme.rate == (1.0,)
    adv = AdversarySpec(blocks=())
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, A2)
    assert res.ok


def test_adversary_free_on_butterfly():
    net = netlib.butterfly(A2)
    scheme = schemes.build_adversary_free(net, (2,), 2, max_draws=500, seed=3)
    adv = AdversarySpec(blocks=())
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, A2)
    assert res.ok and res.rate == (2.0,)
    # both terminals decode every message exactly
    fld = scheme.meta["field"]
    for msg in itertools.product(range(2), repeat=2):
        cw = gf.mat_vec_row(fld, msg, scheme.meta["encoders"][0])
        out = evaluate(net, scheme.network_code, (cw,))
        for t in ("T1", "T2"):
            assert scheme.decoders[t](out.observations[t]) == (msg,)


def test_adversary_free_two_sources():
    net = netlib.two_source_grid((0, 1, 2, 3, 4))
    scheme = schemes.build_adversary_free(net, (1, 1), 5, seed=7)
    adv = AdversarySpec(blocks=())
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, (0, 1, 2, 3, 4))
    assert res.ok and res.rate == (1.0, 1.0)


def test_adversary_free_region_violation():
    net = netlib.butterfly(A2)
    with pytest.raises(RegionViolated):
        schemes.build_adversary_free(net, (3,), 2)


def test_adversary_free_deterministic_with_seed():
    net = netlib.butterfly(A2)
    s1 = schemes.build_adversary_free(net, (2,), 2, max_draws=500, seed=11)
    s2 = schemes.build_adversary_free(net, (2,), 2, max_draws=500, seed=11)
    assert s1.meta["encoders"][0] == s2.meta["encoders"][0]
    assert all(s1.network_code.fn(v).matrix == s2.network_code.fn(v).matrix
               for v in net.intermediates)


def test_adversary_free_butterfly_gf2_builds_for_every_seed():
    # q == |T| == 2 is the tight case of the edge-by-edge construction
    net = netlib.butterfly(A2)
    for seed in range(40):
        scheme = schemes.build_adversary_free(net, (2,), 2, seed=seed)
        res = regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                      network.adversary_free(), A2)
        assert res.ok and res.rate == (2.0,), seed
        fld = scheme.meta["field"]
        for msg in itertools.product(range(2), repeat=2):
            cw = gf.mat_vec_row(fld, msg, scheme.meta["encoders"][0])
            out = evaluate(net, scheme.network_code, (cw,))
            for t in ("T1", "T2"):
                assert scheme.decoders[t](out.observations[t]) == (msg,), seed


def combination_network(n):
    """S feeds n relays by one edge each; one terminal per pair of relays."""
    relays = [f"V{k + 1}" for k in range(n)]
    edges = [network.Edge(f"e{k + 1}", "S", r) for k, r in enumerate(relays)]
    terminals = []
    for a, b in itertools.combinations(range(n), 2):
        t = f"T{a + 1}{b + 1}"
        terminals.append(t)
        for r in (a, b):
            edges.append(network.Edge(f"e{len(edges) + 1}", relays[r], t))
    return network.Network(["S"] + relays + terminals, edges, ("S",),
                           tuple(terminals))


def test_adversary_free_exhausts_when_no_linear_code_exists():
    # rate 2 to all six pairs of four relays needs four pairwise independent
    # vectors in F_q^2: none exist over GF(2), they do over GF(3) (q < |T|)
    net = combination_network(4)
    with pytest.raises(DrawsExhausted) as info:
        schemes.build_adversary_free(net, (2,), 2)
    assert info.value.terminal in net.terminals
    scheme = schemes.build_adversary_free(net, (2,), 3)
    res = regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                  network.adversary_free(), (0, 1, 2))
    assert res.ok and res.rate == (2.0,)


# ---------------------------------------------------------------------------
# one-shot rank-metric scheme, single source
# ---------------------------------------------------------------------------


def single_source_rank_scheme():
    net = netlib.parallel_path(3, None)
    return net, schemes.build_achiev1(net, (1,), 1, 2, max_draws=300, seed=5)


def test_achiev1_single_source_all_single_edge_substitutions():
    net, scheme = single_source_rank_scheme()
    messages = scheme.meta["messages"]
    local = scheme.meta["local_codeword"]
    assert len(messages) == 8
    alphabet = scheme.alphabet
    for msg in messages:
        cw = local(msg)
        for edge in [e.id for e in net.edges]:
            clean = evaluate(net, scheme.network_code, (cw,)).edge_values[edge]
            for wrong in alphabet:
                if wrong == clean:
                    continue
                out = evaluate(net, scheme.network_code, (cw,),
                               action={edge: wrong})
                got = scheme.decoders["T"](out.observations["T"])
                assert got == (msg,), (msg, edge, wrong)


def test_achiev1_single_source_verifies_one_shot():
    net, scheme = single_source_rank_scheme()
    adv = full_edge_adversary(net, 1)
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, scheme.alphabet)
    assert res.ok and res.rate == (1.0,)


def test_achiev1_region_violation():
    net = netlib.parallel_path(2, None)
    with pytest.raises(RegionViolated):
        schemes.build_achiev1(net, (1,), 1, 2)


def test_achiev1_rejects_many_sources():
    net = netlib.two_source_shared_relay((2, 2, 2), 6, None)
    with pytest.raises(UnsupportedSources):
        schemes.build_achiev1(net, (1, 1, 1), 0, 2)


# ---------------------------------------------------------------------------
# one-shot rank-metric scheme, two sources
# ---------------------------------------------------------------------------


def test_achiev1_two_sources_sampled_decoding():
    net = netlib.two_source_shared_relay((3, 3), 4, None)
    scheme = None
    for q in (2, 3):
        try:
            scheme = schemes.build_achiev1(net, (1, 1), 1, q,
                                           max_draws=400, seed=9)
            break
        except DrawsExhausted:
            continue
    assert scheme is not None
    meta = scheme.meta
    ext1, ext2 = meta["ext1"], meta["ext2"]
    rng = random.Random(17)
    edges = [e.id for e in net.edges]
    for _ in range(6):
        x1 = gf.Matrix(ext1, tuple((rng.randrange(ext1.q),)
                                   for _ in range(meta["n2"])))
        x2 = tuple(rng.randrange(ext2.q) for _ in range(1))
        p1 = meta["encode1"](x1)
        p2 = meta["encode2"](x2)
        cw = (schemes._columns(p1), schemes._columns(p2))
        clean = evaluate(net, scheme.network_code, cw)
        for _ in range(4):
            edge = rng.choice(edges)
            current = clean.edge_values[edge]
            wrong = tuple(rng.randrange(meta["field"].q) for _ in range(meta["m"]))
            if wrong == current:
                continue
            out = evaluate(net, scheme.network_code, cw, action={edge: wrong})
            got_x1, got_x2 = scheme.decoders["T"](out.observations["T"])
            assert got_x2 == x2
            assert got_x1 == tuple(r for r in x1.rows)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_achiev1_width_one_symbols(q):
    # a = (1,) or (1, 1) with t = 0 gives m = 1: edges carry 1-tuples
    adv = network.adversary_free()
    net = netlib.parallel_path(2, None)
    scheme = schemes.build_achiev1(net, (1,), 0, q)
    assert scheme.alphabet == tuple((v,) for v in range(q))
    assert regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                   adv, scheme.alphabet).ok
    assert scheme.source_codes == [[scheme.meta["local_codeword"](msg)
                                    for msg in scheme.meta["messages"]]]
    for msg in scheme.meta["messages"]:
        cw = scheme.meta["local_codeword"](msg)
        obs = evaluate(net, scheme.network_code, (cw,)).observations["T"]
        assert scheme.decoders["T"](obs) == (msg,)

    net = netlib.two_source_hub(None)
    scheme = schemes.build_achiev1(net, (1, 1), 0, q)
    meta = scheme.meta
    columns = meta["columns"]
    firsts = [gf.Matrix(meta["ext1"], ((v,),)) for v in range(q)]
    seconds = [(v,) for v in range(q)]
    codes = [[columns(meta["encode1"](x1)) for x1 in firsts],
             [columns(meta["encode2"](x2)) for x2 in seconds]]
    assert scheme.source_codes == codes
    assert regions.verify_one_shot(net, scheme.network_code, codes, adv,
                                   scheme.alphabet).ok
    for (x1, cw1), (x2, cw2) in itertools.product(zip(firsts, codes[0]),
                                                  zip(seconds, codes[1])):
        obs = evaluate(net, scheme.network_code, (cw1, cw2)).observations["T"]
        assert scheme.decoders["T"](obs) == (x1.rows, x2)


def test_achiev1_two_sources_verifies_one_shot_on_a_sub_code():
    net = netlib.two_source_shared_relay((3, 3), 4, None)
    scheme = schemes.build_achiev1(net, (1, 1), 1, 2, max_draws=400, seed=9)
    rng = random.Random(3)
    sub = [rng.sample(scheme.source_codes[0], 2), rng.sample(scheme.source_codes[1], 2)]
    res = regions.verify_one_shot(net, scheme.network_code, sub,
                                  full_edge_adversary(net, 1), scheme.alphabet)
    assert res.ok


# ---------------------------------------------------------------------------
# compound scheme
# ---------------------------------------------------------------------------


def test_achiev2_three_uses_fixed_edge():
    net = netlib.parallel_path(3, None)
    scheme = schemes.build_achiev2(net, (1,), 1, 2, max_draws=300, seed=5)
    assert scheme.n_uses == 3
    meta = scheme.meta
    ext1 = meta["ext1"]
    local = meta["local_codeword"]
    rng = random.Random(23)
    edges = [e.id for e in net.edges]
    for _ in range(8):
        rows = tuple((rng.randrange(ext1.q),) for _ in range(scheme.n_uses))
        uses = local(rows)
        edge = rng.choice(edges)
        per_use_obs = []
        for j in range(scheme.n_uses):
            wrong = tuple(rng.randrange(2) for _ in range(meta["n1"]))
            res = evaluate(net, scheme.network_codes[j], (uses[j],),
                           action={edge: wrong})
            per_use_obs.append(res.observations["T"])
        got = scheme.decoders["T"](per_use_obs)
        assert got == (rows,)


def test_achiev2_n1_matches_achiev1_semantics():
    net = netlib.parallel_path(1, None)
    scheme = schemes.build_achiev2(net, (1,), 0, 2, seed=2)
    assert scheme.n_uses == 1


def test_achiev2_varying_edges_break_decoding():
    net = netlib.parallel_path(3, None)
    scheme = schemes.build_achiev2(net, (1,), 1, 2, max_draws=300, seed=5)
    meta = scheme.meta
    ext1 = meta["ext1"]
    local = meta["local_codeword"]
    failures = 0
    rng = random.Random(29)
    edges = [e.id for e in net.edges]
    for _ in range(60):
        rows = tuple((rng.randrange(ext1.q),) for _ in range(scheme.n_uses))
        uses = local(rows)
        per_use_obs = []
        for j in range(scheme.n_uses):
            edge = rng.choice(edges)  # a fresh edge every use
            wrong = tuple(rng.randrange(2) for _ in range(meta["n1"]))
            res = evaluate(net, scheme.network_codes[j], (uses[j],),
                           action={edge: wrong})
            per_use_obs.append(res.observations["T"])
        try:
            got = scheme.decoders["T"](per_use_obs)
        except Exception:
            failures += 1
            continue
        if got != (rows,):
            failures += 1
    assert failures > 0


def two_source_compound_scheme():
    net = netlib.two_source_shared_relay((3, 3), 4, None)
    return net, schemes.build_achiev2(net, (1, 1), 1, 2, max_draws=400, seed=9)


def two_source_compound_trial(rng, net, scheme, vary_edge):
    """Send random messages over the uses with one corrupted edge per use,
    the same edge in every use unless vary_edge; True if decoding fails."""
    meta = scheme.meta
    ext1, ext2 = meta["ext1"], meta["ext2"]
    x1 = gf.Matrix(ext1, tuple((rng.randrange(ext1.q),) for _ in range(scheme.n_uses)))
    x2 = (rng.randrange(ext2.q),)
    uses1, uses2 = meta["local1"](x1), meta["local2"](x2)
    edges = [e.id for e in net.edges]
    edge = rng.choice(edges)
    per_use_obs = []
    for j in range(scheme.n_uses):
        if vary_edge:
            edge = rng.choice(edges)
        wrong = tuple(rng.randrange(2) for _ in range(meta["n1"]))
        res = evaluate(net, scheme.network_codes[j], (uses1[j], uses2[j]),
                       action={edge: wrong})
        per_use_obs.append(res.observations["T"])
    try:
        got = scheme.decoders["T"](per_use_obs)
    except (AmbiguousDecode, NoCodewordInRange):
        return True
    return got != (x1.rows, x2)


def test_achiev2_two_sources_fixed_edge():
    net, scheme = two_source_compound_scheme()
    assert scheme.n_uses == 3
    rng = random.Random(23)
    assert not any(two_source_compound_trial(rng, net, scheme, vary_edge=False)
                   for _ in range(6))


def test_achiev2_two_sources_varying_edges_break_decoding():
    net, scheme = two_source_compound_scheme()
    rng = random.Random(29)
    assert any(two_source_compound_trial(rng, net, scheme, vary_edge=True)
               for _ in range(10))


def compound_verdicts(net, scheme, sub):
    """(verify_compound, verify_n_shot) on a sub-code against one error."""
    adv = full_edge_adversary(net, 1)
    args = (net, scheme.network_codes, sub, adv, scheme.alphabet)
    return regions.verify_compound(*args).ok, regions.verify_n_shot(*args).ok


@pytest.mark.parametrize("sample_seed", range(3))
def test_achiev2_source_codes_are_compound_good_not_n_shot_good(sample_seed):
    net = netlib.parallel_path(3, None)
    scheme = schemes.build_achiev2(net, (1,), 1, 2, max_draws=300, seed=5)
    sub = [random.Random(sample_seed).sample(scheme.source_codes[0], 12)]
    assert compound_verdicts(net, scheme, sub) == (True, False)


def test_achiev2_two_source_codes_are_compound_good_not_n_shot_good():
    net, scheme = two_source_compound_scheme()
    rng = random.Random(1)
    sub = [rng.sample(scheme.source_codes[0], 3), rng.sample(scheme.source_codes[1], 3)]
    assert compound_verdicts(net, scheme, sub) == (True, False)


# ---------------------------------------------------------------------------
# every builder
# ---------------------------------------------------------------------------


def two_source_hub_scheme():
    net = netlib.two_source_hub(None)
    return net, schemes.build_achiev1(net, (1, 1), 0, 3)


ROUND_TRIP = {
    "adversary_free": lambda: (netlib.two_source_grid(None), schemes.build_adversary_free(
        netlib.two_source_grid(None), (1, 1), 5, seed=7)),
    "achiev1_one_source": single_source_rank_scheme,
    "achiev1_two_sources": two_source_hub_scheme,
    "achiev1_two_sources_one_error": lambda: (
        netlib.two_source_shared_relay((3, 3), 4, None), schemes.build_achiev1(
            netlib.two_source_shared_relay((3, 3), 4, None), (1, 1), 1, 2,
            max_draws=400, seed=9)),
    "achiev2_one_source": lambda: (netlib.parallel_path(3, None), schemes.build_achiev2(
        netlib.parallel_path(3, None), (1,), 1, 2, max_draws=300, seed=5)),
    "achiev2_two_sources": two_source_compound_scheme,
    "achiev2_single_use": lambda: (netlib.parallel_path(1, None), schemes.build_achiev2(
        netlib.parallel_path(1, None), (1,), 0, 2, seed=2)),
    "product_alphabet": lambda: (netlib.single_path(None), schemes.build_product_alphabet(
        netlib.single_path(None), (1,), 1, 0, 5, 3, seed=4)),
    "double_relay": lambda: (netlib.two_source_double_relay(None),
                             schemes.double_relay_scheme()),
}


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_every_builder_decodes_its_own_codewords(name):
    net, scheme = ROUND_TRIP[name]()
    assert [len(c) for c in scheme.source_codes] == [len(m) for m in scheme.messages]
    rng = random.Random(7)
    if math.prod(len(m) for m in scheme.messages) <= 32:
        sent = list(itertools.product(*scheme.messages))
    else:
        sent = [tuple(rng.choice(m) for m in scheme.messages) for _ in range(4)]
    for msgs in sent:
        words = [scheme.encode(i, msg) for i, msg in enumerate(msgs)]
        per_use = [words] if scheme.n_uses == 1 else [[w[u] for w in words]
                                                      for u in range(scheme.n_uses)]
        for t in net.terminals:
            obs = [evaluate(net, code, tuple(x)).observations[t]
                   for code, x in zip(scheme.network_codes, per_use)]
            got = scheme.decoders[t](obs[0] if scheme.n_uses == 1 else obs)
            assert got == msgs, (name, t, msgs)


@pytest.mark.parametrize("build", [
    lambda net, demands: schemes.build_adversary_free(net, demands, 2),
    lambda net, demands: schemes.build_achiev1(net, demands, 0, 2),
    lambda net, demands: schemes.build_achiev2(net, demands, 0, 2),
    lambda net, demands: schemes.build_product_alphabet(net, demands, 0, 0, 2, 1),
], ids=["adversary_free", "achiev1", "achiev2", "product_alphabet"])
@pytest.mark.parametrize("net, demands", [
    (netlib.two_source_hub(None), (1,)),
    (netlib.parallel_path(3, None), (1, 1)),
    (netlib.two_source_hub(None), (2, 0)),
], ids=["too_few_demands", "too_many_demands", "zero_demand"])
def test_demands_must_match_sources(build, net, demands):
    with pytest.raises(InvalidParams):
        build(net, demands)


# ---------------------------------------------------------------------------
# link-level coded scheme
# ---------------------------------------------------------------------------


def test_product_alphabet_path_rate_third():
    net = netlib.single_path(None)
    scheme = schemes.build_product_alphabet(net, (1,), 1, 0, 5, 3, seed=4)
    assert scheme.rate == (pytest.approx(1 / 3),)
    adv = scheme.meta["adversary"]
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, scheme.alphabet)
    assert res.ok
    bound = regions.product_alphabet_region(net, 1, 0, 3)
    assert bound.bound_for({0}).bound == pytest.approx(scheme.rate[0])


def test_product_alphabet_decodes_with_erasures():
    net = netlib.single_path(None)
    scheme = schemes.build_product_alphabet(net, (1,), 1, 1, 4, 4, seed=4)
    assert scheme.rate == (pytest.approx(1 / 4),)
    adv = scheme.meta["adversary"]
    res = regions.verify_one_shot(net, scheme.network_code,
                                  scheme.source_codes, adv, scheme.alphabet)
    assert res.ok


@pytest.mark.parametrize("net, demands, key", [
    (netlib.single_path(None), (1,), (1, 0, 5, 4)),
    (netlib.parallel_path(2, None), (2,), (0, 1, 2, 3)),
], ids=["single_path", "parallel_path2"])
def test_product_alphabet_vector_symbols_verify(net, demands, key):
    t, e, q, m = key
    k = m - 2 * t - e
    assert k >= 2               # the outer code acts on k-vectors
    scheme = schemes.build_product_alphabet(net, demands, *key, seed=0)
    assert scheme.rate == tuple(pytest.approx(k / m * a) for a in demands)
    res = regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                  scheme.meta["adversary"], scheme.alphabet)
    assert res.ok


def test_product_alphabet_two_sources_decode_under_erasures():
    # (t, e, q, m) = (0, 1, 2, 3): k = 2; a full verify takes seconds, so
    # check every message clean and under one erased sub-symbol per edge,
    # at every rotation of the erased positions
    net = netlib.two_source_hub(None)
    m = 3
    scheme = schemes.build_product_alphabet(net, (2, 1), 0, 1, 2, m, seed=0)
    decode = scheme.decoders["T"]
    edges = [e.id for e in net.edges]
    for msgs in itertools.product(*scheme.messages):
        x = tuple(scheme.encode(i, msg) for i, msg in enumerate(msgs))
        clean = evaluate(net, scheme.network_code, x)
        assert decode(clean.observations["T"]) == msgs
        for shift in range(m):
            action = {}
            for j, eid in enumerate(edges):
                y = list(clean.edge_values[eid])
                y[(j + shift) % m] = STAR
                action[eid] = tuple(y)
            got = evaluate(net, scheme.network_code, x, action).observations["T"]
            assert decode(got) == msgs


def test_product_alphabet_zero_budget_reduces_to_outer():
    net = netlib.single_path(None)
    scheme = schemes.build_product_alphabet(net, (1,), 0, 0, 2, 1, seed=4)
    assert scheme.rate == (1.0,)


# ---------------------------------------------------------------------------
# the hand-built double-relay scheme
# ---------------------------------------------------------------------------


def test_double_relay_zero_message_observation():
    scheme = schemes.double_relay_scheme()
    net = scheme.meta["network"]
    res = evaluate(net, scheme.network_code, ((0, 0), (0, 0, 0, 0, 0)))
    assert res.observations["T"] == (0, 0, 0, 0, 0)


def test_double_relay_clean_observation_is_codeword():
    scheme = schemes.double_relay_scheme()
    net = scheme.meta["network"]
    fld = gf.make_field(5)
    for a, b, c in [(1, 2, 3), (4, 0, 2), (2, 2, 2)]:
        x1 = (a, fld.mul(3, a))
        s = fld.add(fld.mul(2, b), c)
        x2 = (b, c, s, s, s)
        res = evaluate(net, scheme.network_code, (x1, x2))
        want = (fld.add(a, fld.add(fld.mul(2, b), fld.mul(3, c))), b, c,
                fld.add(fld.mul(3, a), fld.add(fld.mul(2, b), c)), a)
        assert res.observations["T"] == want
        assert scheme.decoders["T"](want) == (x1, x2)


def test_double_relay_sampled_attacks_decode():
    scheme = schemes.double_relay_scheme()
    net = scheme.meta["network"]
    rng = random.Random(31)
    u1 = ["e5", "e6", "e7"]
    u2 = ["e1", "e8", "e9", "e10", "e11", "e12"]
    for _ in range(40):
        a, b, c = rng.randrange(5), rng.randrange(5), rng.randrange(5)
        fld = gf.make_field(5)
        x1 = (a, fld.mul(3, a))
        s = fld.add(fld.mul(2, b), c)
        x2 = (b, c, s, s, s)
        action = {}
        clean = evaluate(net, scheme.network_code, (x1, x2)).edge_values
        for pool in (u1, u2):
            if rng.random() < 0.8:
                e = rng.choice(pool)
                v = rng.randrange(5)
                if v != clean[e]:
                    action[e] = v
        out = evaluate(net, scheme.network_code, (x1, x2), action=action)
        assert scheme.decoders["T"](out.observations["T"]) == (x1, x2)


# ---------------------------------------------------------------------------
# linear impossibility
# ---------------------------------------------------------------------------


def test_linear_impossibility_on_bottleneck():
    net = netlib.triple_path_bottleneck(A2)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1, 0),))
    out = schemes.linear_impossibility(net, adv, 2, target=1.0)
    assert len(out["results"]) == 8
    assert all(value == pytest.approx(0.0) for _, value in out["results"])
    assert out["all_below_target"]
    maj_code, source_codes = out["nonlinear"]
    res = regions.verify_one_shot(net, maj_code, source_codes, adv, A2)
    assert res.ok and res.rate == (1.0,)


def test_linear_impossibility_without_adversary():
    net = netlib.triple_path_bottleneck(A2)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 0, 0),))
    out = schemes.linear_impossibility(net, adv, 2, target=1.0)
    assert not out["all_below_target"]
    assert max(value for _, value in out["results"]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# supporting facts
# ---------------------------------------------------------------------------


def test_rank_does_not_grow_under_flattening():
    # collapsing row blocks to extension-field rows cannot raise the rank
    F2 = gf.make_field(2)
    F8, expand, flatten = gf.make_extension(F2, 3)
    rng = random.Random(41)
    for _ in range(25):
        rows = rng.randrange(1, 3) * 3
        cols = rng.randrange(1, 5)
        z = gf.Matrix(F2, tuple(tuple(rng.randrange(2) for _ in range(cols))
                                for _ in range(rows)))
        assert flatten(z).rank() <= z.rank()


def test_transfer_matrices_match_evaluation():
    net = netlib.two_source_grid(None)
    fld = gf.make_field(5)
    rng = random.Random(2)
    code = schemes._draw_linear_code(rng, net, fld)
    transfer = schemes.linear_transfer_matrices(net, code, fld)
    for _ in range(10):
        x1 = tuple(rng.randrange(5) for _ in range(3))
        x2 = tuple(rng.randrange(5) for _ in range(3))
        obs = evaluate(net, code, (x1, x2)).observations["T"]
        m1, m2 = transfer["T"][0], transfer["T"][1]
        want = tuple(fld.add(a, b) for a, b in
                     zip(gf.mat_vec_row(fld, x1, m1), gf.mat_vec_row(fld, x2, m2)))
        assert obs == want
