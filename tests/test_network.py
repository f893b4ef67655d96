import functools
import itertools
import random

import pytest

from advnet import channel as ch
from advnet import codes, gf, hamming, netlib, network, schemes
from advnet.channel import STAR, concat, same_fanout_map
from advnet.errors import (AlphabetMismatch, BadFreeze, CyclicGraph, IndexOutOfRange,
                           Infeasible, InvalidParams, MissingCodeFunction, NotACut,
                           SearchLimitExceeded, TooLarge)
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


@pytest.mark.parametrize("vertices, edges", [
    (("S", "S", "T"), [Edge("e1", "S", "T")]),
    (("S", "T"), [Edge("e1", "S", "T"), Edge("e1", "S", "T")])])
def test_duplicate_vertex_names_and_edge_ids_are_rejected(vertices, edges):
    with pytest.raises(InvalidParams):
        Network(vertices, edges, ("S",), ("T",))


@pytest.mark.parametrize("sources, terminals", [(("X",), ("T",)), (("S",), ("T", "X"))])
def test_sources_and_terminals_outside_the_vertices_are_rejected(sources, terminals):
    with pytest.raises(InvalidParams):
        Network(("S", "T"), [Edge("e1", "S", "T")], sources, terminals)


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


def scanned_layout(vertices, edges, terminals):
    """Oracle for a network's edge order and plan, by per-step scans: a
    topological sort that re-sorts its ready list after every vertex, then
    scans over every edge for each vertex's in- and out-edges and for each
    step's kept ids."""
    def natural(name):
        parts = []
        for digit, chunk in itertools.groupby(str(name), str.isdigit):
            chunk = "".join(chunk)
            parts.append(int(chunk) if digit else chunk)
        return tuple(parts)

    indeg = {v: sum(e.head == v for e in edges) for v in vertices}
    ready = sorted((v for v in vertices if indeg[v] == 0), key=natural)
    order = {}
    while ready:
        v = ready.pop(0)
        order[v] = len(order)
        for e in edges:
            if e.tail == v:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    ready = sorted(ready + [e.head], key=natural)
    ordered = sorted(edges, key=lambda e: (order[e.tail], natural(e.id)))
    ins = {v: [e.id for e in ordered if e.head == v] for v in vertices}
    outs = {v: [e.id for e in ordered if e.tail == v] for v in vertices}
    stepped = []
    for e in ordered:
        if e.tail not in stepped:
            stepped.append(e.tail)
    stepped += [v for v in vertices if ins[v] and not outs[v]]
    at = {v: i for i, v in enumerate(stepped)}
    plan = []
    for i, v in enumerate(stepped):
        kept = [e.id for e in ordered if at[e.tail] < i
                and (at[e.head] >= i or e.head in terminals)]
        plan.append((v, tuple(ins[v]), tuple(outs[v]), tuple(kept)))
    return tuple(ordered), tuple(plan)


NETLIB_NETWORKS = (
    [netlib.parallel_path(w) for w in (1, 2, 4)]
    + [getattr(netlib, name)() for name in (
        "single_path", "chain_with_bypass", "two_source_hub", "two_source_grid",
        "two_source_double_relay", "triple_path_bottleneck", "fan_bottleneck", "butterfly")]
    + [netlib.two_source_shared_relay(widths, out) for widths, out in
       (((1, 1), 1), ((2, 3), 2), ((3, 3), 4))])


def test_edge_order_and_plan_match_the_per_step_scans():
    rng = random.Random(11)
    for net in NETLIB_NETWORKS:
        # the same network given its vertices and edges in other orders
        for _ in range(3):
            vertices = rng.sample(net.vertices, len(net.vertices))
            edges = rng.sample(net.edges, len(net.edges))
            built = Network(vertices, edges, net.sources, net.terminals)
            ordered, plan = scanned_layout(vertices, edges, net.terminals)
            assert built.edges == ordered == net.edges
            # the plan holds edge positions, a vertex's out-edges as one slice
            ids = [e.id for e in built.edges]
            assert [(v, tuple(map(ids.__getitem__, ins)), tuple(ids[outs or slice(0)]),
                     tuple(map(ids.__getitem__, kept)))
                    for v, _, ins, outs, kept in built._plan] == list(plan)
            assert [step[1] for step in built._plan] == [
                net.sources.index(v) if v in net.sources else None for v, *_ in plan]


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
    with pytest.raises(Infeasible) as info:
        edge_disjoint_paths(net, (2, 2))
    # min cuts to T are 2, 1 and 3 for {0}, {1} and {0, 1}: {1} fails first
    assert (info.value.sources, info.value.terminal) == ({1}, "T")
    with pytest.raises(Infeasible) as info:
        network.check_demands(net, (1, 1), slack=1)
    assert (info.value.sources, info.value.terminal) == ({1}, "T")
    network.check_demands(net, (2, 1))


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


# too narrow, too wide, no source tuple, and one tuple too many
@pytest.mark.parametrize("x", [((0,),), ((0, 1, 1),), (), ((0, 1), (0, 1))])
def test_source_inputs_of_the_wrong_width_raise(x):
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    with pytest.raises(AlphabetMismatch):
        evaluate(net, code, x)
    with pytest.raises(AlphabetMismatch):
        adversarial_fanouts(net, code, network.full_edge_adversary(net, 1), x)


def test_source_symbols_outside_the_alphabet_raise():
    net = netlib.parallel_path(2, A2)
    code = network.identity_routing_code(net)
    adv = network.full_edge_adversary(net, 1)
    with pytest.raises(AlphabetMismatch):
        evaluate(net, code, ((0, 7),))
    with pytest.raises(AlphabetMismatch):
        adversarial_fanouts(net, code, adv, ((0, 7),))
    # without a network alphabet, evaluate takes any symbol and the fan-outs
    # check the alphabet they are given
    bare = netlib.parallel_path(2)
    assert evaluate(bare, code, ((0, 7),)).observations["T"] == (0, 7)
    with pytest.raises(AlphabetMismatch):
        adversarial_fanouts(bare, code, adv, ((0, 7),), A2)


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


def test_a_table_without_the_in_tuple_read_raises_naming_it():
    # the table covers {0, 1}^3 only; an erasure on e1 reads ('*', 0, 0)
    net = netlib.triple_path_bottleneck(A2)
    code = NetworkCode({"V": TableVertex({vals: (vals[0],)
                                          for vals in itertools.product(A2, repeat=3)})})
    erase = AdversarySpec((AdvBlock({"e1"}, 0, 1),))
    with pytest.raises(MissingCodeFunction, match=r"\('\*', 0, 0\)"):
        adversarial_fanouts(net, code, erase, ((0, 0, 0),))
    with pytest.raises(MissingCodeFunction, match=r"\('\*', 0, 0\)"):
        evaluate(net, code, ((0, 0, 0),), action={"e1": STAR})


def test_evaluate_without_a_vertex_function_raises():
    net = netlib.chain_with_bypass(A2)
    functions = chain_code().functions
    del functions["V2"]
    with pytest.raises(MissingCodeFunction):
        evaluate(net, NetworkCode(functions), ((0, 1),))


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
    adv = AdversarySpec((AdvBlock(range(2), 1, 0),), network.PER_SYMBOL)
    x = (((0, 0),),)
    fans = adversarial_fanouts(net, code, adv, x, alphabet)
    obs = fans["T"]
    # each edge independently corrupts at most one sub-symbol
    assert ((0, 0),) in obs and ((1, 1),) in obs
    assert all(sum(a != b for a, b in zip(y[0], (0, 0))) <= 2 for y in obs)


def test_per_symbol_joint_read_is_the_product_of_symbol_balls():
    alphabet = tuple(itertools.product((0, 1, 2), repeat=2))
    net = netlib.triple_path_bottleneck(alphabet)
    ins = tuple(net._position[e.id] for e in net.in_edges("V"))
    rng = random.Random(29)
    for t, e in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        block = AdvBlock(range(2), t, e)
        joint, spare, _ = network._adversary_read(
            net, AdversarySpec((block,), network.PER_SYMBOL), alphabet)
        balls = {v: hamming.ball(v, hamming.actions((block,)), (0, 1, 2)) for v in alphabet}
        for _ in range(10):
            values = tuple(rng.choice(alphabet) for _ in ins)
            got = joint(ins, values, spare)
            assert len(got) == len(set(got))
            assert set(got) == {(w, spare) for w in itertools.product(*map(balls.get, values))}


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


def test_adversarial_channel_computes_each_fanout_once(monkeypatch):
    # a linear code under an error-only adversary sweeps the zero input
    # alone; a table code, or an erasure block, sweeps each input once
    net = netlib.triple_path_bottleneck((0, 1, 2))
    linear = NetworkCode({"V": LinearVertex(gf.make_field(3), ((1,), (2,), (1,)))})
    inputs = list(network.global_inputs(net))
    table = NetworkCode({"V": TableVertex({x: linear.fn("V")(x) for x, in inputs})})
    errors = AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1, 0),))
    erasure = AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 0, 1),))
    for code, adv, swept in ((linear, errors, [((0, 0, 0),)]), (table, errors, inputs),
                             (linear, erasure, inputs)):
        fans = {x: adversarial_fanouts(net, code, adv, x)["T"] for x in inputs}
        want = ch.one_shot_capacity(ch.explicit(inputs, set().union(*fans.values()), fans))
        calls = []

        def counted(*args):
            calls.append(args[3])
            return adversarial_fanouts(*args)

        monkeypatch.setattr(network, "adversarial_fanouts", counted)
        got = ch.one_shot_capacity(adversarial_channel(net, code, adv, "T"))
        monkeypatch.undo()
        assert sorted(calls) == sorted(swept)
        assert (got.size, got.witness, got.exact) == (want.size, want.witness, want.exact)


def _random_linear_code(rng, net, fld):
    return NetworkCode({v: LinearVertex(fld, tuple(
        tuple(rng.randrange(fld.q) for _ in net.out_edges(v)) for _ in net.in_edges(v)))
        for v in net.intermediates})


def _random_error_adversary(rng, net, overlapping):
    """One or two error-only blocks of one to three edges, t in {1, 2};
    disjoint unless `overlapping`, which makes the second block share an
    edge with the first."""
    eids = [e.id for e in net.edges]
    first = rng.sample(eids, rng.randint(1, 3))
    blocks = [AdvBlock(first, rng.randint(1, 2))]
    rest = [e for e in eids if e not in first]
    if overlapping:
        blocks.append(AdvBlock({rng.choice(first), *rng.sample(eids, 1)}, rng.randint(1, 2)))
    elif rest and rng.random() < 0.7:
        blocks.append(AdvBlock(rng.sample(rest, min(len(rest), rng.randint(1, 3))),
                               rng.randint(1, 2)))
    return AdversarySpec(blocks)


def _channel_calls(monkeypatch, net, code, adv, xs, **kw):
    """Each terminal's fan-out of each of the inputs xs through
    `adversarial_channels`, and the inputs it swept with
    `adversarial_fanouts`."""
    calls = []

    def counted(*args):
        calls.append(args[3])
        return adversarial_fanouts(*args)

    monkeypatch.setattr(network, "adversarial_fanouts", counted)
    chans = network.adversarial_channels(net, code, adv, **kw)
    fans = {x: {t: c.fanout(x) for t, c in chans.items()} for x in xs}
    monkeypatch.undo()
    return fans, calls


def test_linear_error_only_fanouts_translate_the_zero_input(monkeypatch):
    # every input's fan-out is its clean observation plus the zero input's
    # fan-out, the only input swept
    rng = random.Random(23)
    cases = [(netlib.butterfly, (2, 3, 4)), (netlib.two_source_hub, (2, 3, 4)),
             (netlib.two_source_grid, (2,)), (netlib.fan_bottleneck, (2, 3, 4)),
             (netlib.triple_path_bottleneck, (2, 3, 4)),
             (lambda a: netlib.parallel_path(3, a), (2, 3, 4))]
    for make, qs in cases:
        for q in qs:
            net = make(tuple(range(q)))
            zero = tuple((0,) * len(net.out_edges(s)) for s in net.sources)
            inputs = list(network.global_inputs(net))
            for overlapping in (False, True):
                code = _random_linear_code(rng, net, gf.make_field(q))
                adv = _random_error_adversary(rng, net, overlapping)
                fans, calls = _channel_calls(monkeypatch, net, code, adv, inputs)
                assert calls == [zero]
                for x in inputs:
                    assert fans[x] == adversarial_fanouts(net, code, adv, x), (q, adv, x)


def test_linear_fanouts_translate_with_a_frozen_source(monkeypatch):
    net = netlib.two_source_hub((0, 1, 2))
    rng = random.Random(5)
    code = _random_linear_code(rng, net, gf.make_field(3))
    adv = AdversarySpec((AdvBlock({"e1", "e4"}, 1), AdvBlock({"e4", "e6", "e7"}, 1)))
    for keep, frozen in (((0,), {1: (2,)}), ((1,), {0: (1, 2)})):
        xs = list(network._input_space(net, None, keep)[1]())
        fans, calls = _channel_calls(monkeypatch, net, code, adv, xs, keep=keep, frozen=frozen)
        assert calls == [((0, 0), (0,))]
        for x in xs:
            full = network._assemble_global(net, keep, x, frozen)
            assert fans[x] == adversarial_fanouts(net, code, adv, full)


def test_linear_fanouts_sweep_no_input_clean(monkeypatch):
    # clean observations come from the transfer matrices: reading every
    # input's fan-outs sweeps as often as reading one input's
    net = netlib.butterfly((0, 1, 2))
    code = _random_linear_code(random.Random(6), net, gf.make_field(3))
    adv = AdversarySpec((AdvBlock({"e3", "e7"}, 1),))
    inputs = list(network.global_inputs(net))
    forward, sweeps = network._forward, []
    monkeypatch.setattr(network, "_forward", lambda *args, **kw: sweeps.append(args[3])
                        or forward(*args, **kw))
    counts = []
    for xs in (inputs[:1], inputs):
        sweeps.clear()
        chans = network.adversarial_channels(net, code, adv)
        for x in xs:
            for c in chans.values():
                c.fanout(x)
        counts.append(len(sweeps))
    assert counts[0] == counts[1] and len(inputs) == 9
    assert schemes.linear_transfer_matrices is network.linear_transfer_matrices


def _swept_transfer_matrices(net, code, fld):
    """The transfer matrices from one clean sweep of the unit inputs
    through a code of m-digit `LinearVertex`es, m the number of source
    out-edges."""
    widths = [len(net.out_edges(s)) for s in net.sources]
    total = sum(widths)
    units = [tuple(int(r == c) for c in range(total)) for r in range(total)]
    x = tuple(tuple(units[sum(widths[:i]):sum(widths[:i + 1])]) for i in range(len(widths)))
    digits = NetworkCode({v: LinearVertex(fld, code.fn(v).matrix, m=total)
                          for v in net.intermediates})
    (values, _), = network._forward(net, digits, network._steps(net), x, None)
    observed = network._observe(net, values)
    return {t: {i: gf.Matrix(fld, tuple(tuple(v[r] for v in observed[t])
                                        for r in range(sum(widths[:i]), sum(widths[:i + 1]))))
                for i in range(len(widths))} for t in net.terminals}


def test_transfer_matrices_equal_a_sweep_of_the_unit_inputs():
    # seeded random linear codes on the netlib networks, over prime and
    # extension fields
    rng = random.Random(29)
    makes = [lambda a: netlib.parallel_path(3, a), netlib.single_path, netlib.chain_with_bypass,
             netlib.two_source_hub, netlib.two_source_grid, netlib.two_source_double_relay,
             netlib.triple_path_bottleneck, netlib.fan_bottleneck, netlib.butterfly,
             netlib.diamond, lambda a: netlib.two_source_shared_relay((2, 1), 2, a)]
    for make in makes:
        for q in (2, 3, 4, 5):
            net = make(tuple(range(q)))
            fld = gf.make_field(q)
            for _ in range(3):
                code = _random_linear_code(rng, net, fld)
                got = schemes.linear_transfer_matrices(net, code, fld)
                assert got == _swept_transfer_matrices(net, code, fld), (make, q)


def test_adversarial_channels_sweep_each_input_outside_the_linear_case(monkeypatch):
    # erasures, symbols that are tuples, a mixed code, a code over two
    # fields and a field larger than the alphabet take one sweep per input,
    # as adversarial_fanouts
    F2, F3 = gf.make_field(2), gf.make_field(3)
    rng = random.Random(8)
    fan = netlib.fan_bottleneck((0, 1, 2))
    butterfly = netlib.butterfly((0, 1))
    mixed = _random_linear_code(rng, butterfly, F2)
    mixed.functions["V2"] = TableVertex({(a,): (a, 1 - a) for a in (0, 1)})
    two_fields = _random_linear_code(rng, butterfly, F2)
    two_fields.functions["V3"] = LinearVertex(F3, ((1,), (2,)))
    pairs = tuple(itertools.product((0, 1), repeat=2))
    cases = [
        (fan, _random_linear_code(rng, fan, F3), AdversarySpec((AdvBlock({"e1", "e3"}, 1, 1),))),
        (netlib.triple_path_bottleneck(pairs),
         NetworkCode({"V": LinearVertex(F2, ((1,), (1,), (1,)), m=2)}),
         AdversarySpec((AdvBlock({"e1", "e2"}, 1),))),
        (butterfly, mixed, AdversarySpec((AdvBlock({"e3", "e7"}, 1),))),
        (butterfly, two_fields, AdversarySpec((AdvBlock({"e3", "e7"}, 1),))),
        (netlib.triple_path_bottleneck((0, 1)),
         NetworkCode({"V": LinearVertex(F3, ((1,), (1,), (1,)))}),
         AdversarySpec((AdvBlock({"e1", "e2"}, 1),))),
    ]
    for net, code, adv in cases:
        inputs = list(network.global_inputs(net))
        fans, calls = _channel_calls(monkeypatch, net, code, adv, inputs)
        assert sorted(calls) == sorted(inputs)
        for x in inputs:
            assert fans[x] == adversarial_fanouts(net, code, adv, x)


def test_double_relay_fanouts_merge_states_of_spent_blocks(monkeypatch):
    # each block retires after its last edge is read, so states that differ
    # only in a spent block's leftover budget merge: five distinct (budget,
    # in-values) enter T, which lists 25 joint reads of its in-edges; kept
    # apart, the first block's leftover budget would make ten and 50
    scheme = schemes.double_relay_scheme()
    net, adv = scheme.meta["network"], scheme.meta["adversary"]
    x = tuple(code[1] for code in scheme.source_codes)
    at_t = tuple(net._position[e.id] for e in net.in_edges("T"))
    relay_reads, entering, listed = network._relay_reads, [], []

    def counted(keys, ins, read):
        reads = relay_reads(keys, ins, read)
        if ins == at_t:
            entering.extend(keys)
            listed.extend(reads)
        return reads

    monkeypatch.setattr(network, "_relay_reads", counted)
    fans = adversarial_fanouts(net, scheme.network_code, adv, x, scheme.alphabet)
    assert (len(entering), len(listed)) == (5, 25)
    assert fans["T"] == {got for _, got, _ in listed}


def test_adversarial_channels_share_relay_work_within_one_call():
    # over the double relay's 125 inputs, V1 runs once per distinct in-tuple
    # (125) and V2 once per distinct in-tuple (325, 13 per distinct (e2,
    # e5..e7)) for the whole channel; a second call starts from empty memos
    scheme = schemes.double_relay_scheme()
    net, adv, code = scheme.meta["network"], scheme.meta["adversary"], scheme.network_code
    inputs = list(itertools.product(*scheme.source_codes))
    assert len(inputs) == 125
    want = {x: adversarial_fanouts(net, code, adv, x, scheme.alphabet)["T"] for x in inputs}
    for _ in range(2):
        calls = {"V1": [], "V2": []}
        counted = NetworkCode({v: FuncVertex(lambda *vals, v=v: calls[v].append(vals)
                                             or code.fn(v)(vals)) for v in calls})
        chan = network.adversarial_channels(net, counted, adv, scheme.alphabet)["T"]
        assert {x: chan.fanout(x) for x in inputs} == want
        assert [len(calls[v]) for v in calls] == [len(set(calls[v])) for v in calls] == [125, 325]


def test_adversarial_channels_wrap_no_function(monkeypatch):
    # the per-call state is plain dicts: making channels and reading their
    # fan-outs, through the linear translation or not, wraps no function
    wrapped = []
    monkeypatch.setattr(functools, "update_wrapper",
                        lambda wrapper, *args, **kw: wrapped.append(wrapper) or wrapper)
    net = netlib.butterfly((0, 1, 2, 3))
    adv = AdversarySpec((AdvBlock({"e3", "e7"}, 1),))
    linear = _random_linear_code(random.Random(4), net, gf.make_field(4))
    table = random_table_code(random.Random(4), net, (0, 1, 2, 3))
    for code in (linear, table):
        for chan in network.adversarial_channels(net, code, adv).values():
            ch.one_shot_capacity(chan)
    assert wrapped == []


def random_dag(rng, n_terminals):
    """A valid random network over A2 with the given number of terminals:
    1-2 sources, 1-3 relays of in-degree at most 3, edges from each vertex
    to later ones; None when invalid."""
    sources = [f"S{i + 1}" for i in range(rng.randint(1, 2))]
    mids = [f"V{i + 1}" for i in range(rng.randint(1, 3))]
    terminals = [f"T{i + 1}" for i in range(n_terminals)]
    later = mids + terminals
    edges = []
    for i, v in enumerate(sources + mids):
        heads = later[max(0, i - len(sources) + 1):]
        for _ in range(rng.randint(1, 2)):
            edges.append(Edge(f"e{len(edges) + 1}", v, rng.choice(heads)))
    net = Network(sources + mids + terminals, edges, sources, terminals, A2)
    if validate(net) or any(len(net.in_edges(v)) > 3 for v in mids):
        return None
    return net


def test_fanouts_match_explicit_actions_on_random_dags():
    # fan-outs from one sweep per input, and from channels whose inputs
    # share their relay work, equal the union of the explicit actions'
    # observations: disjoint blocks with erasures, overlapping blocks
    # without, on DAGs with one terminal or two
    rng = random.Random(27)
    checked = 0
    while checked < 16:
        net = random_dag(rng, 1 + checked % 2)
        if net is None:
            continue
        overlapping = checked // 2 % 2
        code = random_table_code(rng, net, A2, erasures=not overlapping)
        eids = [e.id for e in net.edges]
        first = rng.sample(eids, rng.randint(1, min(3, len(eids))))
        rest = [e for e in eids if e not in first] if not overlapping else eids
        if not rest:
            continue
        second = rng.sample(rest, rng.randint(1, min(3, len(rest))))
        if overlapping:
            second = list({*second, rng.choice(first)})
        e = 0 if overlapping else 1
        blocks = [(first, rng.randint(0 if e else 1, 1), e), (second, 1, rng.randint(0, e))]
        adv = AdversarySpec(tuple(AdvBlock(*b) for b in blocks))
        actions = [a | b for a in _block_actions(*blocks[0], A2)
                   for b in _block_actions(*blocks[1], A2)]
        chans = network.adversarial_channels(net, code, adv)
        for x in network.global_inputs(net):
            want = {t: set() for t in net.terminals}
            for act in actions:
                for t, obs in evaluate(net, code, x, action=act).observations.items():
                    want[t].add(obs)
            assert adversarial_fanouts(net, code, adv, x) == want, (net.edges, adv, x)
            assert {t: c.fanout(x) for t, c in chans.items()} == want
        checked += 1


def test_a_vertex_output_that_does_not_fit_its_out_edges_raises():
    net = netlib.butterfly(A2)
    for width in (1, 3):
        code = NetworkCode({v: FuncVertex(lambda *vals: (vals[0],) * width)
                            for v in ("V1", "V2", "V3", "V4")})
        with pytest.raises(InvalidParams, match="out-edges"):
            evaluate(net, code, ((0, 1),))
        with pytest.raises(InvalidParams, match="out-edges"):
            adversarial_fanouts(net, code, AdversarySpec((AdvBlock({"e7"}, 1),)), ((0, 1),))


def test_adversary_checks_run_once_per_network_and_adversary(monkeypatch):
    net = netlib.triple_path_bottleneck((0, 1, 2))
    code = NetworkCode({"V": LinearVertex(gf.make_field(3), ((1,), (2,), (1,)))})
    adv = AdversarySpec(blocks=(AdvBlock({"e1", "e2"}, 1, 0),))
    count, counted = [], network._count_actions
    monkeypatch.setattr(network, "_count_actions", lambda *args: count.append(args)
                        or counted(*args))
    ch.one_shot_capacity(adversarial_channel(net, code, adv, "T"))
    assert len(count) == 1
    # a check that fails is not kept: every call raises
    far = _hop_net(3, range(101))
    for _ in range(2):
        with pytest.raises(SearchLimitExceeded):
            adversarial_fanouts(far, network.identity_routing_code(far),
                                network.full_edge_adversary(far, 3), ((0,),))
    assert len(count) == 3


def test_channels_of_huge_input_spaces_build_without_listing_them():
    # 512 symbols and three out-edges per source: 512**6 global inputs
    net = netlib.two_source_shared_relay((3, 3), 4)
    scheme = schemes.build_achiev1(net, (1, 1), 1, 2, max_draws=400, seed=9)
    adv = AdversarySpec(blocks=(AdvBlock({net.out_edges("S1")[0].id}, 1),))
    chan = adversarial_channel(net, scheme.network_code, adv, "T", scheme.alphabet)
    assert chan.input_count == len(scheme.alphabet) ** 6 == 512 ** 6
    assert transfer_channel(net, scheme.network_code, ["e1"], scheme.alphabet,
                            keep=(0,), frozen={1: scheme.source_codes[1][0]}
                            ).input_count == 512 ** 3
    x = tuple(c[1] for c in scheme.source_codes)
    fans = adversarial_fanouts(net, scheme.network_code, adv, x, scheme.alphabet)
    assert chan.fanout(x) == fans["T"]


def test_overlapping_blocks_run_each_distinct_action_once(monkeypatch):
    # two t = 1 blocks on the same three edges: 16 combinations of block
    # actions, 7 distinct corrupted sets, all in one sweep per input
    net = netlib.parallel_path(3, A2)
    code = network.identity_routing_code(net)
    cut = ("e4", "e5", "e6")
    adv = AdversarySpec((AdvBlock(cut, 1), AdvBlock(cut, 1)))
    spec = adv.clip(cut, 2)
    forward, calls = network._forward, []
    monkeypatch.setattr(network, "_forward", lambda *args, **kwargs:
                        calls.append(args) or forward(*args, **kwargs))
    for x in network.global_inputs(net):
        calls.clear()
        assert adversarial_fanouts(net, code, adv, x)["T"] == hamming.fanout(spec, x[0])
        assert len(calls) == 1


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


def test_double_relay_sweep_calls_each_relay_once_per_in_tuple(monkeypatch):
    # V2's five entering states hold two distinct (budget, in-values): its
    # step lists their joint reads twice, calls f_v2 once for each of the 13
    # in-tuples and, the majority vote correcting every read, passes on one
    # state per entering state, so T's step starts from five, which differ
    # in (budget, in-values) and which T reads jointly
    scheme = schemes.double_relay_scheme()
    net, adv, code = scheme.meta["network"], scheme.meta["adversary"], scheme.network_code
    calls = {"V1": [], "V2": []}
    counted = NetworkCode({v: FuncVertex(lambda *vals, v=v: calls[v].append(vals)
                                         or code.fn(v)(vals)) for v in calls})
    reads = []

    def counting_reader(*args):
        read, spare = hamming.reader(*args)
        counting = lambda *a: read(*a)
        counting.joint = lambda ps, values, s: reads.append(ps) or read.joint(ps, values, s)
        return counting, spare

    monkeypatch.setattr(network, "reader", counting_reader)
    x = tuple(c[1] for c in scheme.source_codes)
    fans = adversarial_fanouts(net, counted, adv, x, scheme.alphabet)
    assert len(calls["V1"]) == len(set(calls["V1"])) == 5
    assert len(calls["V2"]) == len(set(calls["V2"])) == 13
    # the sweep reads a vertex's in-edges jointly, by position
    ins = {v: tuple(net._position[e.id] for e in net.in_edges(v)) for v in ("V2", "T")}
    assert reads.count(ins["V2"]) == 2   # once per (budget, in-values)
    assert reads.count(ins["T"]) == 5    # once per state
    monkeypatch.undo()
    assert fans == adversarial_fanouts(net, code, adv, x, scheme.alphabet)


def test_double_relay_fanouts_match_explicit_actions():
    # 16 x 31 explicit actions of the two blocks (an edge may be "set" to
    # its own value), budget left in both blocks at each relay: codewords
    # and arbitrary inputs, whose relay reads are many to one
    scheme = schemes.double_relay_scheme()
    net, adv, code = scheme.meta["network"], scheme.meta["adversary"], scheme.network_code
    first, second = adv.blocks
    actions = [a | b for a in _block_actions(first.coords, first.t, first.e, scheme.alphabet)
               for b in _block_actions(second.coords, second.t, second.e, scheme.alphabet)]
    assert len(actions) == 16 * 31
    rng = random.Random(24)
    inputs = [tuple(rng.choice(c) for c in scheme.source_codes) for _ in range(2)]
    inputs += [(tuple(rng.choices(scheme.alphabet, k=2)), tuple(rng.choices(scheme.alphabet, k=5)))
               for _ in range(2)]
    for x in inputs:
        want = {evaluate(net, code, x, action=act).observations["T"] for act in actions}
        assert adversarial_fanouts(net, code, adv, x, scheme.alphabet) == {"T": want}


def test_a_terminal_that_relays_keeps_every_read():
    # T is a terminal with an out-edge (`validate` reports it) whose
    # function is constant: its step keeps each read of e1, which T
    # observes, instead of one state per output
    net = Network(("S", "T", "U"), [Edge("e1", "S", "T"), Edge("e2", "T", "U")],
                  ("S",), ("T", "U"), A2)
    code = NetworkCode({"T": FuncVertex(lambda a: (0,))})
    adv = AdversarySpec((AdvBlock({"e1", "e2"}, 1),))
    for x in network.global_inputs(net):
        want = {"T": set(), "U": set()}
        for act in _block_actions({"e1", "e2"}, 1, 0, A2):
            for term, obs in evaluate(net, code, x, action=act).observations.items():
                want[term].add(obs)
        assert adversarial_fanouts(net, code, adv, x) == want == {
            "T": {(0,), (1,)}, "U": {(0,), (1,)}}


@pytest.mark.parametrize("t,e", [(1, 0), (0, 1), (1, 1)])
def test_fanouts_match_explicit_actions_on_random_networks(t, e):
    # two blocks, corrupted edges possibly upstream of other corrupted ones;
    # from the seventh network on, erasure-free blocks share edges (which
    # block pays matters), and the last network is the two-terminal
    # butterfly (every terminal's reads must survive the merges)
    rng = random.Random(1706 + 10 * t + e)
    checked = 0
    while checked < 10:
        net = netlib.butterfly(A2) if checked == 9 else random_small_network(rng)
        if net is None or len(net.edges) < 3:
            continue
        code = random_table_code(rng, net, A2, erasures=True)
        edges = rng.sample([edge.id for edge in net.edges], rng.randint(2, len(net.edges)))
        cut = rng.randint(1, len(edges) - 1)
        reach = rng.randint(cut + 1, len(edges)) if checked >= 6 and not e else cut
        first, second = edges[:reach], edges[cut:]
        adv = AdversarySpec(blocks=(AdvBlock(first, t, e), AdvBlock(second, t, e)))
        actions = [a | b for a in _block_actions(first, t, e, A2)
                   for b in _block_actions(second, t, e, A2)]
        for x in network.global_inputs(net, A2):
            want = {term: set() for term in net.terminals}
            for act in actions:
                for term, obs in evaluate(net, code, x, action=act).observations.items():
                    want[term].add(obs)
            assert adversarial_fanouts(net, code, adv, x, A2) == want
        checked += 1


def test_overlapping_fanouts_match_the_clipped_hamming_fanout():
    # identity routing makes T's observation the second-hop word itself;
    # any two 3-edge blocks among the 4 second-hop edges overlap
    net = netlib.parallel_path(4, (0, 1, 2))
    code = network.identity_routing_code(net)
    cut = ("e5", "e6", "e7", "e8")
    rng = random.Random(1706)
    for _ in range(4):
        adv = AdversarySpec(blocks=tuple(AdvBlock(rng.sample(cut, 3), rng.randint(0, 2))
                                         for _ in range(rng.randint(2, 3))))
        spec = adv.clip(cut, 3)
        for x in network.global_inputs(net):
            assert adversarial_fanouts(net, code, adv, x)["T"] == hamming.fanout(spec, x[0])


def test_per_symbol_fanouts_match_explicit_actions():
    alphabet = tuple(itertools.product((0, 1), repeat=2))
    words = tuple(itertools.product((0, 1, STAR), repeat=2))
    net = netlib.single_path(alphabet)

    def relay(a):
        # erasure-aware and not a permutation of sub-symbols
        return ((int(a[0] == 1) ^ int(a[1] == 1), 1 if a[1] == STAR else int(a[0] == 1)),)

    code = NetworkCode({"V": FuncVertex(relay)})
    for t, e in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        adv = AdversarySpec((AdvBlock(range(2), t, e),), network.PER_SYMBOL)

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


def test_overlapping_blocks_are_counted_by_their_union():
    # the product of three balls is 323**3 = 33,698,267 > ACTION_LIMIT, but
    # the blocks together reach only the 8**4 words of one t = 4 block
    net = netlib.parallel_path(4, range(8))
    code = network.identity_routing_code(net)
    edges = [e.id for e in net.edges[:4]]
    overlapping = AdversarySpec(tuple(AdvBlock(edges, 2) for _ in range(3)))
    single = AdversarySpec((AdvBlock(edges, 4),))
    x = ((0, 1, 2, 3),)
    fanouts = adversarial_fanouts(net, code, overlapping, x)
    assert fanouts == adversarial_fanouts(net, code, single, x)
    assert len(fanouts["T"]) == 8 ** 4


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
        adv = AdversarySpec((AdvBlock(range(2), t, e),), network.PER_SYMBOL)
        per_edge = len(_edge_words((0, 0), t, e, symbols))
        assert network._count_actions(path, adv, alphabet) == per_edge ** len(path.edges)


# ---------------------------------------------------------------------------
# one-vertex sweeps
# ---------------------------------------------------------------------------


def _listed_channel(fans):
    """The predicate-free channel of one terminal's fan-outs, in input order."""
    return ch.SymbolicChannel((len(fans), fans.__iter__), fans.__getitem__)


def _assert_sweep_matches(net, code, vertex, adv, functions):
    """For each function of `vertex`, the sweep gives every terminal the
    fan-out of every input that `adversarial_channels` gives, in input
    order, and the same capacity and witness."""
    sweep = network.one_vertex_sweep(net, code, vertex, adv)
    for fn in functions:
        chans = network.adversarial_channels(
            net, NetworkCode({**code.functions, vertex: fn}), adv)
        fans = sweep(fn)
        assert list(fans) == list(chans)
        for t, chan in chans.items():
            assert list(fans[t]) == list(chan.iter_inputs())
            assert fans[t] == {x: chan.fanout(x) for x in fans[t]}, (t, vars(fn))
            want, got = ch.one_shot_capacity(chan), ch.one_shot_capacity(_listed_channel(fans[t]))
            assert (got.size, got.witness, got.exact) == (want.size, want.witness, want.exact)


def _relay_maps(fld, r, s):
    return [LinearVertex(fld, tuple(combo[i * s:(i + 1) * s] for i in range(r)))
            for combo in itertools.product(range(fld.q), repeat=r * s)]


# the verify benchmark's four linear-impossibility networks, and
# parallel_path(2) with every edge vulnerable
@pytest.mark.parametrize("make, q, edges", [
    (netlib.triple_path_bottleneck, 2, {"e1", "e2", "e3"}),
    (netlib.triple_path_bottleneck, 2, {"e1", "e2"}),
    (netlib.triple_path_bottleneck, 3, {"e1", "e2"}),
    (netlib.fan_bottleneck, 2, {"e1", "e2"}),
    (lambda a: netlib.parallel_path(2, a), 3, {"e1", "e2", "e3", "e4"})])
@pytest.mark.parametrize("t, e", [(1, 0), (1, 1)])
def test_one_vertex_sweep_equals_adversarial_channels_on_every_relay_map(make, q, edges, t, e):
    net = make(tuple(range(q)))
    maps = _relay_maps(gf.make_field(q), len(net.in_edges("V")), len(net.out_edges("V")))
    _assert_sweep_matches(net, NetworkCode({}), "V", AdversarySpec((AdvBlock(edges, t, e),)),
                          maps)


def _fan_out(a):
    return a, a


@pytest.mark.parametrize("adv", [
    AdversarySpec((AdvBlock({"e7"}, 1),)),
    AdversarySpec((AdvBlock({"e4", "e7", "e9"}, 1),)),
    AdversarySpec((AdvBlock({"e1", "e7"}, 1), AdvBlock({"e7", "e8"}, 1))),
    AdversarySpec((AdvBlock({"e5"}, 1), AdvBlock({"e7", "e8"}, 1, 1)))])
def test_one_vertex_sweep_on_the_butterfly_branches_after_the_relay(adv):
    # V3's out-edge e7 is vulnerable, so the rest of the plan branches, and
    # two terminals observe it; e3 and e6 bypass V3
    code = NetworkCode({v: FuncVertex(_fan_out) for v in ("V1", "V2", "V4")})
    net = netlib.butterfly(A2)
    symbols = A2 + ((STAR,) if any(b.e for b in adv.blocks) else ())
    pairs = list(itertools.product(symbols, repeat=2))
    tables = [TableVertex({p: (v,) for p, v in zip(pairs, vals)})
              for vals in itertools.product(A2, repeat=len(pairs))]
    if len(tables) > 64:
        tables = random.Random(3).sample(tables, 64)
    _assert_sweep_matches(net, code, "V3", adv, tables)
    net3 = netlib.butterfly((0, 1, 2))
    _assert_sweep_matches(net3, code, "V3", adv, _relay_maps(gf.make_field(3), 2, 1))


@pytest.mark.parametrize("adv", [
    network.full_edge_adversary(netlib.chain_with_bypass(), 1),
    AdversarySpec((AdvBlock({"e1", "e2"}, 1, 1),)),
    AdversarySpec((AdvBlock({"e1"}, 1), AdvBlock({"e4", "e6"}, 1)))])
def test_one_vertex_sweep_keeps_a_bypass_edge_written_before_the_relay(adv):
    # S writes e1 before V1's step and V2 reads it after, so e1 is part of
    # the state that the rest of the plan is memoized by
    net = netlib.chain_with_bypass(A2)
    F2 = gf.make_field(2)
    code = NetworkCode({"V2": LinearVertex(F2, ((1,), (1,))),
                        "V3": LinearVertex(F2, ((1, 0), (0, 1)))})
    symbols = A2 + ((STAR,) if any(b.e for b in adv.blocks) else ())
    tables = [TableVertex({(a,): out for a, out in zip(symbols, outs)})
              for outs in itertools.product(itertools.product(A2, repeat=2),
                                            repeat=len(symbols))]
    _assert_sweep_matches(net, code, "V1", adv, tables)


def test_one_vertex_sweep_with_a_source_stepped_after_the_relay():
    # A is ready, and stepped, before S2: the rest of the plan reads S2's
    # input, so its observations are not shared across inputs
    net = Network(("S1", "S2", "A", "T"),
                  [Edge("e1", "S1", "A"), Edge("e2", "A", "T"), Edge("e3", "S2", "T")],
                  ("S1", "S2"), ("T",), A2)
    assert [step[0] for step in net._plan] == ["S1", "A", "S2", "T"]
    adv = AdversarySpec((AdvBlock({"e1", "e3"}, 1),))
    _assert_sweep_matches(net, NetworkCode({}), "A", adv, _relay_maps(gf.make_field(2), 1, 1))


def _first_occurrence(q, n):
    """Every list of n values in range(q) in which each new value is the
    least one unused: one map per partition of n in-tuples into at most q
    classes, the maps that differ only by renaming outputs."""
    lists = [()]
    for _ in range(n):
        lists = [vals + (v,) for vals in lists for v in range(min(q, max(vals, default=-1) + 2))]
    return lists


def test_diamond_all_codes_through_one_vertex_sweep():
    # V1 forwards e1; every V2 table, up to renaming its outputs, under one
    # error on {e1, e2, e3}: the best code has q - 1 words at q = 2 and 3
    for q, count in ((2, 8), (3, 3281)):
        symbols = tuple(range(q))
        net = netlib.diamond(symbols)
        adv = AdversarySpec((AdvBlock({"e1", "e2", "e3"}, 1),))
        code = NetworkCode({"V1": FuncVertex(lambda a: (a,))})
        pairs = list(itertools.product(symbols, repeat=2))
        tables = [TableVertex({p: (v,) for p, v in zip(pairs, vals)})
                  for vals in _first_occurrence(q, len(pairs))]
        assert len(tables) == count
        sweep = network.one_vertex_sweep(net, code, "V2", adv)
        sizes = [ch.one_shot_capacity(_listed_channel(sweep(table)["T"])).size
                 for table in tables]
        assert max(sizes) == q - 1
        for i in range(0, count, max(1, count // 6)):
            full = NetworkCode({**code.functions, "V2": tables[i]})
            assert ch.one_shot_capacity(adversarial_channel(net, full, adv, "T")).size == sizes[i]
        _assert_sweep_matches(net, code, "V2", adv, tables[::max(1, count // 6)])


def test_one_vertex_sweep_runs_the_relay_before_it_as_a_relay(monkeypatch):
    # on the Diamond, V1 steps just before V2: each input's prefix lists
    # the reads of e1 at V1's relay step, for the (budget, in-values) no
    # earlier input listed: e1 = 0 at input (0, 0, 0), e1 = 1 at (1, 0, 0);
    # then V2's in-edges e2, e3 are listed once, for the 8 distinct
    # (budget, in-values) over all inputs
    calls, relay_reads = [], network._relay_reads
    monkeypatch.setattr(network, "_relay_reads", lambda keys, ins, read:
                        calls.append((ins, len(keys))) or relay_reads(keys, ins, read))
    net = netlib.diamond(A2)
    network.one_vertex_sweep(net, NetworkCode({"V1": FuncVertex(lambda a: (a,))}), "V2",
                             AdversarySpec((AdvBlock({"e1", "e2", "e3"}, 1),)))
    e1, e2, e3 = (net._position[eid] for eid in ("e1", "e2", "e3"))
    assert calls == [((e1,), 1), *[((e1,), 0)] * 3, ((e1,), 1), *[((e1,), 0)] * 3,
                     ((e2, e3), 8)]


def test_one_vertex_sweep_rejects_a_vertex_that_is_not_a_relay():
    net = netlib.butterfly(A2)
    adv = AdversarySpec((AdvBlock({"e7"}, 1),))
    for vertex in ("S", "T1", "V9"):
        with pytest.raises(InvalidParams):
            network.one_vertex_sweep(net, NetworkCode({}), vertex, adv)
    with pytest.raises(IndexOutOfRange):
        network.one_vertex_sweep(net, NetworkCode({}), "V3", AdversarySpec((AdvBlock({"e99"}, 1),)))


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
    "brute_force_capacity": (   # one block, so past the guard its table would list words
        lambda: hamming.brute_force_capacity(hamming.single_block(2 ** 10 + 1, 1, (0,), 1)),
        SearchLimitExceeded, [(hamming, "fanout"), (hamming, "words")]),
    "confusability_adjacency": (
        lambda: ch.confusability_adjacency(ch.identity_channel(range(513))),
        SearchLimitExceeded, [(ch.Channel, "confusable"), (ch.TableChannel, "fanout")]),
    "same_fanout_map": (
        lambda: same_fanout_map(*[ch.identity_channel(range(2 ** 14 + 1))] * 2),
        SearchLimitExceeded, [(ch.TableChannel, "fanout")]),
    "linear_impossibility": (_impossibility_past_limit, InvalidParams,
                             [(network, "adversarial_fanouts"), (network, "one_vertex_sweep")]),
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


def test_a_fanout_past_the_action_limit_surfaces_from_capacity(monkeypatch):
    # 101 inputs pass the vertex limit; the first fan-out read raises
    net = _hop_net(3, range(101))
    chan = network.adversarial_channels(net, network.identity_routing_code(net),
                                        network.full_edge_adversary(net, 3))["T"]
    monkeypatch.setattr(network, "_forward", _GuardedWork())
    with pytest.raises(SearchLimitExceeded, match="action space"):
        ch.one_shot_capacity(chan)


# a block naming "e99", an edge id the butterfly lacks: one block, disjoint
# blocks, overlapping blocks and a rank block
TYPO_ADVERSARIES = [
    AdversarySpec((AdvBlock({"e99"}, 1),)),
    AdversarySpec((AdvBlock({"e1"}, 1), AdvBlock({"e2", "e99"}, 0, 1))),
    AdversarySpec((AdvBlock({"e1", "e2"}, 1), AdvBlock({"e2", "e99"}, 1))),
    AdversarySpec((AdvBlock({"e1", "e99"}, 1),), network.RANK),
]


# after the adversaries, the other calls that take a caller's edge ids: an
# evaluation's action, and the edges of a transfer or cut-to-sink channel
@pytest.mark.parametrize("adv", TYPO_ADVERSARIES + [
    pytest.param(lambda net, code: evaluate(net, code, ((0, 1),), action={"e99": 0}),
                 id="evaluate"),
    pytest.param(lambda net, code: transfer_channel(net, code, ["e1", "e99"]),
                 id="transfer_channel"),
    pytest.param(lambda net, code: cut_to_sink_channel(net, code, ["e3", "e99"], "T1"),
                 id="cut_to_sink_channel")])
def test_fanouts_reject_blocks_naming_no_edge(adv):
    net = netlib.butterfly(A2)
    code = schemes.build_adversary_free(net, (2,), 2).network_code
    with pytest.raises(IndexOutOfRange):
        if callable(adv):
            adv(net, code)
        else:
            adversarial_fanouts(net, code, adv, ((0, 1),))
