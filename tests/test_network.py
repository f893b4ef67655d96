import itertools
import random

import pytest

from advnet import channel as ch
from advnet import codes, gf, hamming, netlib, network, schemes
from advnet.channel import STAR, concat, same_fanout_map
from advnet.errors import (BadFreeze, CyclicGraph, Infeasible, InvalidParams,
                           NotACut, SearchLimitExceeded, TooLarge)
from advnet.network import (AdvBlock, AdversarySpec, Edge, FuncVertex,
                            LinearVertex, Network, NetworkCode, TableVertex,
                            adversarial_channel, adversarial_fanouts,
                            cut_to_sink_channel, edge_disjoint_paths,
                            enumerate_minimal_cuts, evaluate,
                            is_cut, linear_extension, min_cut,
                            transfer_channel, validate)

A2 = (0, 1)


def random_table_code(rng, net, alphabet, erasures=False):
    symbols = tuple(alphabet) + ((STAR,) if erasures else ())
    fns = {}
    for v in net.intermediates:
        r = len(net.in_edges(v))
        s = len(net.out_edges(v))
        table = {}
        for in_vals in itertools.product(symbols, repeat=r):
            table[in_vals] = tuple(rng.choice(alphabet) for _ in range(s))
        fns[v] = TableVertex(table)
    return NetworkCode(fns)


def random_small_network(rng):
    """Layered random network: 1-2 sources, 1-2 relays, one terminal."""
    n_src = rng.randint(1, 2)
    n_mid = rng.randint(1, 2)
    sources = [f"S{i + 1}" for i in range(n_src)]
    mids = [f"V{i + 1}" for i in range(n_mid)]
    vertices = sources + mids + ["T"]
    edges = []
    count = 0

    def add(tail, head):
        nonlocal count
        count += 1
        edges.append(Edge(f"e{count}", tail, head))

    for s in sources:
        add(s, rng.choice(mids))
        if rng.random() < 0.5:
            add(s, rng.choice(mids))
    for i, v in enumerate(mids):
        if i + 1 < n_mid and rng.random() < 0.4:
            add(v, mids[i + 1])
        add(v, "T")
        if rng.random() < 0.4:
            add(v, "T")
    net = Network(vertices, edges, sources, ["T"], A2)
    return net if not validate(net) else None


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------


def test_validate_single_path():
    assert validate(netlib.single_path(A2)) == []


def test_validate_detects_cycle():
    net = Network(("S", "A", "B", "T"),
                  [Edge("e1", "S", "A"), Edge("e2", "A", "B"),
                   Edge("e3", "B", "A"), Edge("e4", "B", "T")],
                  ("S",), ("T",))
    assert any("cycle" in p for p in validate(net))


def test_validate_chain_with_bypass_and_path_order():
    net = netlib.chain_with_bypass(A2)
    assert validate(net) == []
    e2 = net.edge_by_id["e2"]
    e5 = net.edge_by_id["e5"]
    assert net.precedes(e2, e5)
    assert not net.precedes(e5, e2)


def test_linear_extension_orders_parallel_edges_by_id():
    net = Network(("S", "V", "T"),
                  [Edge("b", "S", "V"), Edge("a", "S", "V"), Edge("c", "V", "T")],
                  ("S",), ("T",))
    assert linear_extension(net) == ("a", "b", "c")


def test_linear_extension_respects_path_order():
    net = netlib.chain_with_bypass(A2)
    order = linear_extension(net)
    assert order.index("e2") < order.index("e5")


def test_order_choice_does_not_change_min_cut():
    edges1 = [Edge("e1", "S", "A"), Edge("e2", "S", "B"),
              Edge("e3", "A", "T"), Edge("e4", "B", "T")]
    edges2 = [Edge("e4", "S", "A"), Edge("e3", "S", "B"),
              Edge("e2", "A", "T"), Edge("e1", "B", "T")]
    n1 = Network(("S", "A", "B", "T"), edges1, ("S",), ("T",))
    n2 = Network(("S", "A", "B", "T"), edges2, ("S",), ("T",))
    assert linear_extension(n1) != linear_extension(n2)
    assert min_cut(n1, [0], "T") == min_cut(n2, [0], "T") == 2


# ---------------------------------------------------------------------------
# cuts, flows, paths
# ---------------------------------------------------------------------------


def test_min_cut_single_path():
    net = netlib.single_path(A2)
    assert min_cut(net, [0], "T") == 1
    cuts = enumerate_minimal_cuts(net, [0], "T")
    assert sorted(sorted(c) for c in cuts) == [["e1"], ["e2"]]


def test_min_cut_two_source_hub():
    net = netlib.two_source_hub(A2)
    assert min_cut(net, [0], "T") == 2
    assert min_cut(net, [1], "T") == 1
    assert min_cut(net, [0, 1], "T") == 3
    cuts0 = enumerate_minimal_cuts(net, [0], "T")
    assert {"e1", "e2"} in cuts0
    assert {"e4", "e5", "e6", "e7"} in cuts0


def test_double_relay_cut_membership():
    net = netlib.two_source_double_relay(A2)
    cut = {"e2", "e5", "e6", "e7", "e8", "e9", "e10"}
    assert is_cut(net, cut, ["S1", "S2"], "T")
    cuts = enumerate_minimal_cuts(net, [0, 1], "T")
    assert cut in cuts


def test_min_cuts_double_relay():
    net = netlib.two_source_double_relay(A2)
    assert min_cut(net, [0], "T") == 2
    assert min_cut(net, [1], "T") == 4
    assert min_cut(net, [0, 1], "T") == 5


def test_minimal_cut_enumeration_matches_max_flow():
    rng = random.Random(50)
    for _ in range(10):
        net = random_small_network(rng)
        if net is None:
            continue
        for j in range(len(net.sources)):
            mu = min_cut(net, [j], "T")
            cuts = enumerate_minimal_cuts(net, [j], "T")
            assert min(len(c) for c in cuts) == mu


def test_edge_disjoint_paths_zero_demand():
    net = netlib.two_source_grid(A2)
    assert edge_disjoint_paths(net, (0, 0)) == {"T": []}


def test_edge_disjoint_paths_feasible():
    net = netlib.two_source_grid(A2)
    systems = edge_disjoint_paths(net, (1, 1))
    paths = systems["T"]
    assert len(paths) == 2
    used = [eid for _, p in paths for eid in p]
    assert len(used) == len(set(used))
    origins = sorted(s for s, _ in paths)
    assert origins == ["S1", "S2"]


def test_edge_disjoint_paths_hub():
    net = netlib.two_source_hub(A2)
    systems = edge_disjoint_paths(net, (2, 1))
    assert len(systems["T"]) == 3
    with pytest.raises(Infeasible):
        edge_disjoint_paths(net, (2, 2))


# ---------------------------------------------------------------------------
# evaluation and transfer channels
# ---------------------------------------------------------------------------


def test_evaluate_routing():
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    res = evaluate(net, code, ((1, 0),))
    assert res.observations["T"] == (1, 0)


def test_evaluate_with_override():
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    res = evaluate(net, code, ((1, 0),), action={"e3": STAR, "e1": 0})
    # e1 overridden before V reads it; e3 erased on the way to T
    assert res.observations["T"] == (STAR, 0)
    assert res.edge_values["e1"] == 0


def chain_code():
    """Vertex functions for the bypass chain over the binary alphabet."""
    v1 = TableVertex({(a,): (a, 1 - a) for a in (0, 1)}
                     | {(STAR,): (0, 0)})
    v2 = TableVertex({(a, b): ((a + b) % 2,)
                      for a in (0, 1, STAR) for b in (0, 1, STAR)
                      if a != STAR and b != STAR}
                     | {(a, b): (0,) for a in (0, 1, STAR) for b in (0, 1, STAR)
                        if a == STAR or b == STAR})
    v3 = TableVertex({(a, b): (b, a) for a in (0, 1) for b in (0, 1)}
                     | {(a, b): (0, 0) for a in (0, 1, STAR) for b in (0, 1, STAR)
                        if a == STAR or b == STAR})
    return NetworkCode({"V1": v1, "V2": v2, "V3": v3})


def test_transfer_channel_formula_on_bypass_chain():
    net = netlib.chain_with_bypass(A2)
    code = chain_code()
    chan = transfer_channel(net, code, ["e2", "e5"], A2)
    for x1 in (0, 1):
        for x2 in (0, 1):
            got = chan.fanout(((x1, x2),))
            f_v1 = code.fn("V1")((x2,))
            f_v2 = code.fn("V2")((x1, f_v1[0]))
            assert got == frozenset({(x2, f_v2[0])})


def test_cut_channel_on_non_antichain_cut():
    net = netlib.chain_with_bypass(A2)
    code = chain_code()
    chan = cut_to_sink_channel(net, code, ["e2", "e5"], "T", A2)
    for x2 in (0, 1):
        for x5 in (0, 1):
            got = chan.fanout((x2, x5))
            second = code.fn("V1")((x2,))[1]
            want = code.fn("V3")((second, x5))
            assert got == frozenset({tuple(want)})


def test_cut_channel_identity_when_cut_is_in_t():
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    chan = cut_to_sink_channel(net, code, ["e3", "e4"], "T", A2)
    for v in itertools.product((0, 1, STAR), repeat=2):
        assert chan.fanout(v) == frozenset({v})


def test_cut_channel_requires_a_cut():
    net = netlib.chain_with_bypass(A2)
    code = chain_code()
    with pytest.raises(NotACut):
        cut_to_sink_channel(net, code, ["e4"], "T", A2)


def test_factorization_through_cuts():
    net = netlib.chain_with_bypass(A2)
    code = chain_code()
    direct = transfer_channel(net, code, ["e6", "e7"], A2)
    for cut in ({"e2", "e5"}, {"e1", "e2"}, {"e4", "e5"}, {"e6", "e7"},
                {"e1", "e3", "e4"}):
        left = transfer_channel(net, code, cut, A2)
        right = cut_to_sink_channel(net, code, cut, "T", A2)
        assert same_fanout_map(concat(left, right), direct), cut


def test_factorization_on_random_networks():
    rng = random.Random(123)
    done = 0
    while done < 12:
        net = random_small_network(rng)
        if net is None:
            continue
        code = random_table_code(rng, net, A2, erasures=True)
        direct = transfer_channel(net, code, [e.id for e in net.in_edges("T")], A2)
        all_sources = list(range(len(net.sources)))
        for cut in enumerate_minimal_cuts(net, all_sources, "T")[:4]:
            left = transfer_channel(net, code, cut, A2)
            right = cut_to_sink_channel(net, code, cut, "T", A2)
            assert same_fanout_map(concat(left, right), direct)
        done += 1


# ---------------------------------------------------------------------------
# frozen channels
# ---------------------------------------------------------------------------


def hub_code(rng=None):
    rng = rng or random.Random(0)
    table = {}
    for vals in itertools.product((0, 1, STAR), repeat=3):
        clean = tuple(0 if v == STAR else v for v in vals)
        table[vals] = ((clean[0] + clean[1]) % 2, clean[1], clean[2],
                       (clean[0] + clean[2]) % 2)
    return NetworkCode({"V": TableVertex(table)})


def test_frozen_transfer_matches_manual_pinning():
    net = netlib.two_source_hub(A2)
    code = hub_code()
    frozen = {1: (1,)}
    chan = transfer_channel(net, code, ["e4", "e5", "e6", "e7"], A2, keep=[0], frozen=frozen)
    for x1 in itertools.product(A2, repeat=2):
        want = evaluate(net, code, (x1, (1,))).observations["T"]
        assert chan.fanout((x1,)) == frozenset({want})


def test_frozen_cut_channel_factorization():
    net = netlib.two_source_hub(A2)
    code = hub_code()
    frozen = {1: (0,)}
    cut = {"e1", "e2"}
    direct = transfer_channel(net, code, [e.id for e in net.in_edges("T")], A2,
                              keep=[0], frozen=frozen)
    left = transfer_channel(net, code, cut, A2, keep=[0], frozen=frozen)
    right = cut_to_sink_channel(net, code, cut, "T", A2, keep=[0], frozen=frozen)
    assert same_fanout_map(concat(left, right), direct)


@pytest.mark.parametrize("keep, frozen, reason", [
    ([], {0: (0, 0), 1: (0,)}, "proper non-empty"),
    ([0, 1], {}, "proper non-empty"),
    ([1], {}, "cover all non-selected"),
    ([0], None, "cover all non-selected"),
])
def test_bad_freeze_is_rejected_by_every_channel(keep, frozen, reason):
    net = netlib.two_source_hub(A2)
    code = hub_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e4"}, 0, 0),))
    with pytest.raises(BadFreeze, match=reason):
        adversarial_channel(net, code, adv, "T", A2, keep=keep, frozen=frozen)
    with pytest.raises(BadFreeze, match=reason):
        transfer_channel(net, code, ["e4", "e5", "e6", "e7"], A2, keep=keep, frozen=frozen)
    with pytest.raises(BadFreeze, match=reason):
        cut_to_sink_channel(net, code, ["e1", "e2", "e3"], "T", A2,
                            keep=keep, frozen=frozen)


# ---------------------------------------------------------------------------
# adversarial channels
# ---------------------------------------------------------------------------


def test_zero_power_adversary_is_deterministic_transfer():
    net = netlib.two_source_hub(A2)
    code = hub_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e4"}, 0, 0),))
    chan = adversarial_channel(net, code, adv, "T", A2)
    base = transfer_channel(net, code, [e.id for e in net.in_edges("T")], A2)
    assert same_fanout_map(chan, base)


def test_single_erasure_adversary_fanout():
    # erase at most one of e4, e6, e7: observation keeps coordinate e5 intact
    net = netlib.two_source_hub(A2)
    code = hub_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e4", "e6", "e7"}, 0, 1),))
    x = ((1, 0), (1,))
    z = evaluate(net, code, x).observations["T"]
    fans = adversarial_fanouts(net, code, adv, x, A2)
    expect = {z}
    for pos in (0, 2, 3):
        y = list(z)
        y[pos] = STAR
        expect.add(tuple(y))
    assert fans["T"] == frozenset(expect)


def test_single_error_adversary_fanout():
    net = netlib.triple_path_bottleneck(A2)
    fns = {"V": TableVertex({vals: (0 if STAR in vals else vals.count(1) % 2,)
                             for vals in itertools.product((0, 1, STAR), repeat=3)})}
    code = NetworkCode(fns)
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2", "e3"}, 1, 0),))
    x = ((0, 0, 0),)
    fans = adversarial_fanouts(net, code, adv, x, A2)
    # flipping any single input edge flips the parity
    assert fans["T"] == frozenset({(0,), (1,)})


def test_per_symbol_adversary():
    alphabet = tuple(itertools.product((0, 1), repeat=2))
    net = netlib.single_path(alphabet)
    code = network.identity_routing_code(net)
    adv = AdversarySpec(variant=network.PER_SYMBOL, t=1, e=0, m=2)
    x = (((0, 0),),)
    fans = adversarial_fanouts(net, code, adv, x, alphabet)
    obs = fans["T"]
    # each edge independently corrupts at most one sub-symbol
    assert ((0, 0),) in obs and ((1, 1),) in obs
    assert all(sum(a != b for a, b in zip(y[0], (0, 0))) <= 2 for y in obs)


@pytest.mark.parametrize("q", [3, 4])
def test_linear_vertex_on_tuples_is_digitwise(q):
    from advnet import gf
    F = gf.make_field(q)
    rng = random.Random(q)
    symbols = tuple(range(q)) + (STAR,)
    for _ in range(20):
        r, s, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        rows = tuple(tuple(rng.randrange(q) for _ in range(s)) for _ in range(r))
        values = tuple(STAR if rng.random() < 0.2
                       else tuple(rng.randrange(q) for _ in range(k)) for _ in range(r))
        vector = LinearVertex(F, rows, m=k)
        got = vector(values)
        assert vector.saw_erasure == (STAR in values)
        cleaned = [(0,) * k if v == STAR else v for v in values]
        digits = [LinearVertex(F, rows)(tuple(v[d] for v in cleaned)) for d in range(k)]
        assert got == tuple(tuple(digits[d][j] for d in range(k)) for j in range(s))
        # STAR on a field-element vertex also reads as zero
        digit0 = tuple(STAR if v == STAR else v[0] for v in values)
        assert LinearVertex(F, rows)(digit0) == digits[0]


def test_linear_vertex_rejects_wrong_number_of_inputs():
    from advnet import gf
    F3 = gf.make_field(3)
    rows = ((1, 2), (0, 1))
    for values in [(1,), (1, 2, 0)]:
        with pytest.raises(ValueError):
            LinearVertex(F3, rows)(values)
        with pytest.raises(ValueError):
            LinearVertex(F3, rows, m=2)(tuple((v, v) for v in values))


def test_linear_vertex_erasure_totalization():
    from advnet import gf
    F2 = gf.make_field(2)
    lv = LinearVertex(F2, ((1,), (1,)))
    assert lv((1, 1)) == (0,)
    assert lv((STAR, 1)) == (1,)
    assert lv.saw_erasure


def test_adversarial_channel_agrees_with_restricted_middle():
    # an adversary acting on a cut is no stronger than the full channel
    net = netlib.two_source_hub(A2)
    code = hub_code()
    adv = AdversarySpec(blocks=(AdvBlock({"e4", "e5"}, 1, 0),))
    chan = adversarial_channel(net, code, adv, "T", A2)
    for x in itertools.islice(network.global_inputs(net, A2), 4):
        fans = adversarial_fanouts(net, code, adv, x, A2)
        assert evaluate(net, code, x).observations["T"] in fans["T"]
        assert chan.fanout((x[0], x[1])) == fans["T"]


def test_cyclic_network_raises_typed_error():
    net = Network(("S", "A", "B", "T"),
                  [Edge("e1", "S", "A"), Edge("e2", "A", "B"),
                   Edge("e3", "B", "A"), Edge("e4", "A", "T")],
                  ("S",), ("T",), A2)
    code = NetworkCode({"A": FuncVertex(lambda a, b: (a, b)),
                        "B": FuncVertex(lambda a: (a,))})
    adv = AdversarySpec(blocks=(AdvBlock({"e2"}, 1, 0),))
    with pytest.raises(CyclicGraph):
        linear_extension(net)
    with pytest.raises(CyclicGraph):
        evaluate(net, code, ((1,),))
    with pytest.raises(CyclicGraph):
        adversarial_fanouts(net, code, adv, ((1,),), A2)


def _block_actions(edges, t, e, symbols):
    """Every explicit action of one block: any values on at most t edges,
    erasures on at most e others."""
    edges = sorted(edges)
    out = []
    for i in range(min(t, len(edges)) + 1):
        for err in itertools.combinations(edges, i):
            rest = [eid for eid in edges if eid not in err]
            for j in range(min(e, len(rest)) + 1):
                for stars in itertools.combinations(rest, j):
                    for vals in itertools.product(symbols, repeat=i):
                        out.append(dict(zip(err, vals)) | {eid: STAR for eid in stars})
    return out


@pytest.mark.parametrize("t,e", [(1, 0), (0, 1), (1, 1)])
def test_fanouts_match_explicit_actions_on_random_networks(t, e):
    # two blocks, corrupted edges possibly upstream of other corrupted ones
    rng = random.Random(1706 + 10 * t + e)
    checked = 0
    while checked < 6:
        net = random_small_network(rng)
        if net is None or len(net.edges) < 3:
            continue
        code = random_table_code(rng, net, A2, erasures=True)
        edges = rng.sample([edge.id for edge in net.edges], rng.randint(2, len(net.edges)))
        cut = rng.randint(1, len(edges) - 1)
        adv = AdversarySpec(blocks=(AdvBlock(edges[:cut], t, e), AdvBlock(edges[cut:], t, e)))
        actions = [a | b for a in _block_actions(edges[:cut], t, e, A2)
                   for b in _block_actions(edges[cut:], t, e, A2)]
        for x in network.global_inputs(net, A2):
            want = {evaluate(net, code, x, action=act).observations["T"]
                    for act in actions}
            assert adversarial_fanouts(net, code, adv, x, A2)["T"] == want
        checked += 1


def test_per_symbol_fanouts_match_explicit_actions():
    alphabet = tuple(itertools.product((0, 1), repeat=2))
    words = tuple(itertools.product((0, 1, STAR), repeat=2))
    net = netlib.single_path(alphabet)

    def relay(a):
        # erasure-aware and not a permutation of sub-symbols
        return ((int(a[0] == 1) ^ int(a[1] == 1), 1 if a[1] == STAR else int(a[0] == 1)),)

    code = NetworkCode({"V": FuncVertex(relay)})
    for t, e in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        adv = AdversarySpec(variant=network.PER_SYMBOL, t=t, e=e, m=2)

        def within(y, v):
            return (sum(1 for a, b in zip(y, v) if a != STAR and a != b) <= t
                    and y.count(STAR) <= e)

        for x in network.global_inputs(net, alphabet):
            want = set()
            for y1 in words:
                if not within(y1, x[0][0]):
                    continue
                clean = evaluate(net, code, x, action={"e1": y1}).edge_values["e2"]
                for y2 in words:
                    if within(y2, clean):
                        want.add(evaluate(net, code, x, action={"e1": y1, "e2": y2})
                                 .observations["T"])
            assert adversarial_fanouts(net, code, adv, x, alphabet)["T"] == want


def _edge_words(values, t, e, symbols):
    """Every assignment of symbols or erasures to the given clean values
    with at most t changed and at most e erased ones."""
    return [y for y in itertools.product(tuple(symbols) + (STAR,), repeat=len(values))
            if sum(1 for u, v in zip(y, values) if u not in (STAR, v)) <= t
            and y.count(STAR) <= e]


@pytest.mark.parametrize("a", [2, 3])
def test_count_actions_matches_enumerated_actions(a):
    symbols = tuple(range(a))
    net = netlib.parallel_path(3, symbols)
    edges = [edge.id for edge in net.edges]
    alphabet = tuple(itertools.product(symbols, repeat=2))
    path = netlib.single_path(alphabet)
    for t, e in itertools.product(range(3), range(3)):
        for cut in range(len(edges) + 1):
            adv = AdversarySpec(blocks=(AdvBlock(edges[:cut], t, e),
                                        AdvBlock(edges[cut:], t, e)))
            count = (len(_edge_words((0,) * cut, t, e, symbols))
                     * len(_edge_words((0,) * (len(edges) - cut), t, e, symbols)))
            assert network._count_actions(net, adv, symbols) == count
        # per-symbol: every edge of the path suffers its own sub-symbol action
        adv = AdversarySpec(variant=network.PER_SYMBOL, t=t, e=e, m=2)
        per_edge = len(_edge_words((0, 0), t, e, symbols))
        assert network._count_actions(path, adv, alphabet) == per_edge ** len(path.edges)


# ---------------------------------------------------------------------------
# size guards
# ---------------------------------------------------------------------------


def _hop_net(hops, alphabet=None):
    """A path of `hops` edges through hops - 1 relays."""
    vertices = ["S"] + [f"V{i}" for i in range(1, hops)] + ["T"]
    edges = [Edge(f"e{i + 1}", vertices[i], vertices[i + 1]) for i in range(hops)]
    return Network(vertices, edges, ("S",), ("T",), alphabet)


def _star_net(relays):
    """S -> V_i -> T for `relays` relays: that many vertices besides S and T."""
    mids = [f"V{i}" for i in range(relays)]
    edges = [Edge(f"a{i}", "S", v) for i, v in enumerate(mids)]
    edges += [Edge(f"b{i}", v, "T") for i, v in enumerate(mids)]
    return Network(["S", *mids, "T"], edges, ("S",), ("T",))


_STAR_21 = _star_net(21)


def _fanouts_past_limit():
    # 101**3 = 1,030,301 actions; 100 symbols make exactly 10**6
    net = _hop_net(3, range(101))
    return adversarial_fanouts(net, network.identity_routing_code(net),
                               network.full_edge_adversary(net, 3), ((0,),))


def _impossibility_past_limit():
    # two relay inputs and one output over GF(257): 257**2 = 66,049 codes
    net = Network(("S", "V", "T"), [Edge("e1", "S", "V"), Edge("e2", "S", "V"),
                                    Edge("e3", "V", "T")], ("S",), ("T",))
    return schemes.linear_impossibility(net, network.adversary_free(), 257, 1.0)


def _no_blocks(a, s):
    return hamming.HammingSpec(a, s, ())


# name -> (a call on the smallest input past the guard's value, the error
# it raises, the (owner, attribute) pairs that do the guarded work).  The
# limits: 2**16 field elements, 10**6 adversary actions, 2**20 vertex
# bipartitions, 2**12 table words (2**24 for a compound channel), 2**10
# words for brute force, 512 graph vertices, 2**14 compared inputs, 2**16
# linear codes and 2**11 codewords checked pairwise.  The sizes are written
# out rather than read from the constants, so that they pin the values.
SIZE_GUARDS = {
    "make_extension": (lambda: gf.make_extension(gf.make_field(257), 2),
                       TooLarge, [(gf, "_smallest_irreducible")]),
    "adversarial_fanouts": (_fanouts_past_limit, SearchLimitExceeded,
                            [(network, "_forward")]),
    "enumerate_minimal_cuts": (lambda: enumerate_minimal_cuts(_STAR_21, ["S"], "T"),
                               SearchLimitExceeded, [(_STAR_21, "edges")]),
    "explicit_channel": (lambda: hamming.explicit_channel(_no_blocks(2 ** 12 + 1, 1)),
                         SearchLimitExceeded, [(hamming, "fanout")]),
    "compound_channel": (lambda: hamming.compound_channel(_no_blocks(2 ** 24 + 1, 1), 1),
                         SearchLimitExceeded, [(hamming, "explicit_channel")]),
    "product_alphabet_channel": (
        lambda: hamming.product_alphabet_channel(2 ** 12 + 1, 1, 1, 0, 0),
        SearchLimitExceeded, [(hamming, "explicit_channel")]),
    "rank_explicit_channel": (   # 4099 is the least prime power past 2**12
        lambda: hamming.rank_explicit_channel(hamming.RankMetricSpec(4099, 1, 1, (), 0)),
        SearchLimitExceeded, [(hamming, "rank_in_fanout")]),
    "brute_force_capacity": (lambda: hamming.brute_force_capacity(_no_blocks(2 ** 10 + 1, 1)),
                             SearchLimitExceeded, [(hamming, "fanout")]),
    "confusability_adjacency": (
        lambda: ch.confusability_adjacency(ch.identity_channel(range(513))),
        SearchLimitExceeded, [(ch.Channel, "confusable")]),
    "same_fanout_map": (
        lambda: same_fanout_map(*[ch.identity_channel(range(2 ** 14 + 1))] * 2),
        SearchLimitExceeded, [(ch.TableChannel, "fanout")]),
    "linear_impossibility": (_impossibility_past_limit, InvalidParams,
                             [(network, "adversarial_fanouts")]),
    "achievability_code": (   # the [1, 1] code over GF(2053), a prime
        lambda: hamming.achievability_code(_no_blocks(2053, 1), gf.make_field(2053)),
        SearchLimitExceeded, [(hamming, "confusable_analytic")]),
    "rank_achievability": (lambda: hamming.rank_achievability(2053, 1, 1, 0),
                           SearchLimitExceeded, [(codes.RankCode, "rank_distance")]),
}


class _GuardedWork:
    """Stands in for the work a guard protects: calling or iterating fails."""

    def __call__(self, *_args):
        raise AssertionError("the guarded work ran")

    __iter__ = __call__


@pytest.mark.parametrize("name", SIZE_GUARDS)
def test_size_guard_fires_before_the_work(name, monkeypatch):
    call, error, work = SIZE_GUARDS[name]
    for owner, attr in work:
        monkeypatch.setattr(owner, attr, _GuardedWork())
    with pytest.raises(error):
        call()
