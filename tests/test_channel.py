import itertools
import math
import random
import signal
import sys
from fractions import Fraction

import pytest

from advnet import channel as ch
from advnet import hamming, network, search
from advnet.errors import (AlphabetMismatch, EmptyCode, EmptyFamily, InvalidParams,
                           SearchLimitExceeded)

# ---------------------------------------------------------------------------
# helpers / oracles
# ---------------------------------------------------------------------------


def brute_force_mis(adj):
    """Independent oracle: enumerate all subsets (n <= 18)."""
    n = len(adj)
    best = 0
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, mask.bit_count())
    return best


def least_maximum_independent_set(adj):
    """Independent oracle: every independent set, each grown in ascending
    vertex order; the lexicographically least of the largest."""
    n = len(adj)
    sets = []

    def grow(chosen, start, blocked):
        sets.append(chosen)
        for v in range(start, n):
            if not (blocked >> v) & 1:
                grow(chosen + [v], v + 1, blocked | adj[v])

    grow([], 0, 0)
    top = max(map(len, sets))
    return min(s for s in sets if len(s) == top)


def hamming_ball(word, radius, alphabet=(0, 1)):
    out = set()
    n = len(word)
    for positions in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(radius + 1)):
        choices = [tuple(a for a in alphabet if a != word[i]) for i in positions]
        for repl in itertools.product(*choices):
            w = list(word)
            for i, v in zip(positions, repl):
                w[i] = v
            out.add(tuple(w))
    return out


def hh_channel():
    """Binary length-4 channel where at most one symbol can be corrupted."""
    inputs = list(itertools.product((0, 1), repeat=4))
    return ch.TableChannel(inputs, inputs, {x: hamming_ball(x, 1) for x in inputs})


def pentagon_channel():
    fan = {0: {0, 1}, 1: {1, 2}, 2: {2, 3}, 3: {3, 4}, 4: {4, 0}}
    return ch.TableChannel(range(5), range(5), fan)


def word(bits):
    return tuple(int(b) for b in bits)


def random_graph(rng, n, density):
    """Adjacency bitmasks of a random graph: each pair an edge with
    probability `density`."""
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


# ---------------------------------------------------------------------------
# MIS solver vs oracle
# ---------------------------------------------------------------------------


def test_mis_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        adj = random_graph(rng, rng.randint(1, 12), 0.4)
        size, verts = search.max_independent_set(adj)
        assert size == brute_force_mis(adj)
        for a, b in itertools.combinations(verts, 2):
            assert not (adj[a] >> b) & 1


def test_mis_restores_the_recursion_limit_when_its_budget_runs_out():
    limit = sys.getrecursionlimit()
    with pytest.raises(SearchLimitExceeded):
        search.max_independent_set(random_graph(random.Random(3), 30, 0.3), node_budget=2)
    assert sys.getrecursionlimit() == limit


def test_mis_witness_is_lexicographically_smallest():
    # 5-cycle: maximum independent sets are {0,2},{0,3},{1,3},{1,4},{2,4}
    adj = [0] * 5
    for i in range(5):
        j = (i + 1) % 5
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    size, verts = search.max_independent_set(adj)
    assert size == 2 and verts == [0, 2]


def test_mis_witness_is_the_least_maximum_set_on_random_graphs():
    rng = random.Random(1706)
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(12):
            adj = random_graph(rng, rng.randint(1, 14), density)
            size, verts = search.max_independent_set(adj)
            assert verts == least_maximum_independent_set(adj)
            assert size == len(verts)


# ((n, offsets, power), nodes expanded, independence number, witness start)
# for the confusability graph of the power of x -> {x + s mod n : s in offsets}
CIRCULANT_SEARCHES = (
    ((12, (0, 1), 2), 316, 36, [0, 2, 4, 6, 8, 10]),
    ((6, (0, 1), 3), 1560, 27, [0, 2, 4, 12, 14, 16]),
    ((16, (0, 1), 2), 757, 64, [0, 2, 4, 6, 8, 10]),
    ((11, (0, 2, 7), 2), 2618, 5, [0, 13, 30, 56, 93]),
    ((18, (0, 1), 2), 1081, 81, [0, 2, 4, 6, 8, 10]),
)


@pytest.mark.parametrize("key, nodes, alpha, start", CIRCULANT_SEARCHES, ids=[
    f"C{n}{{{','.join(map(str, offsets))}}}^{power}" for (n, offsets, power), *_ in CIRCULANT_SEARCHES])
def test_mis_node_count_is_pinned_on_circulant_powers(key, nodes, alpha, start):
    """The branching order and the witness rule fix the nodes a search
    expands, so a node budget stops it at the same point on every version
    of the kernel.  The ids leave the counts out, so a re-pin keeps them."""
    n, offsets, power = key
    base = ch.explicit(range(n), range(n),
                       {x: {(x + s) % n for s in offsets} for x in range(n)})
    _, adj = ch.confusability_adjacency(ch.power(base, power))
    size, verts = search.max_independent_set(adj, node_budget=nodes)
    assert size == alpha and verts[:len(start)] == start
    with pytest.raises(SearchLimitExceeded):
        search.max_independent_set(adj, node_budget=nodes - 1)


def test_exhausted_search_carries_an_independent_incumbent():
    """At every budget short of the search's total the incumbent is
    independent, and it never shrinks as the budget grows: once the main
    search has finished, a witness dive that runs out still holds a
    maximum set."""
    rng = random.Random(1706)
    maximum = 0
    for density in (0.1, 0.3, 0.5):
        for _ in range(5):
            adj = random_graph(rng, rng.randint(10, 30), density)
            alpha, _ = search.max_independent_set(adj)
            last = 0
            for budget in itertools.count(1):
                try:
                    search.max_independent_set(adj, node_budget=budget)
                    break
                except SearchLimitExceeded as exc:
                    got = exc.incumbent
                    assert got == sorted(set(got)) and last <= len(got) <= alpha
                    assert all(not (adj[a] >> b) & 1
                               for a, b in itertools.combinations(got, 2))
                    last = len(got)
                    maximum += last == alpha
    assert maximum


def test_mis_ignores_self_bits():
    """A row with its own bit set answers as the cleared row does.  A
    colouring that kept the bit would never finish: an alarm guards it."""
    def stalled(signum, frame):
        raise TimeoutError("search stalled on a self-bit")

    rng = random.Random(7)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(30)
    try:
        for _ in range(20):
            adj = random_graph(rng, rng.randint(1, 16), 0.4)
            looped = [row | (1 << v if rng.random() < 0.5 else 0)
                      for v, row in enumerate(adj)]
            assert search.max_independent_set(looped) == search.max_independent_set(adj)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_clique_cover_upper_bounds_mis():
    rng = random.Random(5)
    for _ in range(20):
        adj = random_graph(rng, rng.randint(2, 11), 0.5)
        assert search.greedy_clique_cover_size(adj) >= brute_force_mis(adj)
        assert len(search.greedy_independent_set(adj)) <= brute_force_mis(adj)


# ---------------------------------------------------------------------------
# basic channels, codes, capacity
# ---------------------------------------------------------------------------


def test_identity_channel_capacity():
    ident = ch.identity_channel(range(7))
    res = ch.one_shot_capacity(ident)
    assert res.exact and res.size == 7
    assert res.bits == pytest.approx(math.log2(7))
    assert not ident.confusable(0, 1)


def test_hh_confusability_examples():
    hh = hh_channel()
    assert hh.confusable(word("0000"), word("1100"))
    assert not hh.confusable(word("0000"), word("1111"))


def test_good_code_checks():
    hh = hh_channel()
    assert ch.is_good_code(hh, [word("0000")])
    assert ch.is_good_code(hh, [word("0000"), word("1111")])
    assert not ch.is_good_code(hh, [word("0000"), word("1100")])
    with pytest.raises(EmptyCode):
        ch.is_good_code(hh, [])


def test_confusable_pair_is_the_first_in_index_order():
    hh = hh_channel()
    code = [word("0000"), word("1111"), word("1100"), word("0011")]
    assert ch.confusable_pair(hh, code) == (word("0000"), word("1100"))
    assert ch.confusable_pair(hh, code[:2]) is None
    with pytest.raises(EmptyCode):
        ch.confusable_pair(hh, [])


def _pairwise_pair(c, code):
    return next(((x, xp) for x, xp in itertools.combinations(code, 2)
                 if c.confusable(x, xp)), None)


def _read_log(table):
    """A symbolic channel that lists the table's fan-outs, and the inputs
    whose fan-outs it has computed."""
    read = []
    return ch.SymbolicChannel((table.input_count, table.iter_inputs),
                              lambda x: read.append(x) or table.fanout(x)), read


def test_index_scan_returns_the_pairwise_pair_on_random_tables():
    # codes repeat elements; the scan reads no fan-out the pairwise scan skips
    rng = random.Random(17)
    found = 0
    for _ in range(3000):
        n_in = rng.randint(1, 8)
        table = ch.random_table_channel(rng, range(n_in), range(rng.randint(1, 12)))
        code = [rng.randrange(n_in) for _ in range(rng.randint(1, 9))]
        want = _pairwise_pair(table, code)
        indexed, read = _read_log(table)
        pairwise, pair_read = _read_log(table)
        assert ch.confusable_pair(table, code) == want == _pairwise_pair(pairwise, code)
        assert ch.confusable_pair(indexed, code) == want, code
        assert set(read) <= set(pair_read), code
        found += want is not None
    assert 1000 < found < 2900


def test_confusable_pair_asks_a_predicate_pair_by_pair():
    asked = []

    def near(x, xp):
        asked.append((x, xp))
        return abs(x - xp) <= 1

    c = ch.SymbolicChannel((20, lambda: iter(range(20))), lambda x: {x, x + 1}, near)
    code = [0, 3, 6, 9, 7, 2]
    pairs = list(itertools.combinations(code, 2))
    assert ch.confusable_pair(c, code) == (3, 2)
    assert asked == pairs[:pairs.index((3, 2)) + 1]


def test_hh_capacity_is_one_bit():
    res = ch.one_shot_capacity(hh_channel())
    assert res.exact and res.size == 2 and res.bits == 1.0


def test_five_word_code_good_for_hh_squared():
    hh = hh_channel()
    sq = ch.product(hh, hh)
    code = [(word(w[:4]), word(w[4:])) for w in
            ("00000000", "00011101", "10100111", "11010110", "11101000")]
    assert ch.is_good_code(sq, code)


def test_product_fanout_is_cartesian():
    rng = random.Random(3)
    for _ in range(10):
        c1 = ch.random_table_channel(rng, range(3), range(3))
        c2 = ch.random_table_channel(rng, range(3), range(4))
        prod = ch.product(c1, c2)
        for x1 in range(3):
            for x2 in range(3):
                want = {(y1, y2) for y1 in c1.fanout(x1) for y2 in c2.fanout(x2)}
                assert prod.fanout((x1, x2)) == want


def test_pentagon_capacities():
    pent = pentagon_channel()
    res = ch.one_shot_capacity(pent)
    assert res.exact and res.size == 2
    assert res.witness == (0, 2)
    sq = ch.power(pent, 2)
    res2 = ch.one_shot_capacity(sq)
    assert res2.exact and res2.size == 5
    assert res2.witness == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def test_pentagon_squared_has_no_six_word_code():
    # independent oracle: exhaustive 6-subsets of the 25 inputs
    pent = pentagon_channel()
    sq = ch.power(pent, 2)
    inputs = sq.inputs_tuple()
    confus = {}
    for a, b in itertools.combinations(range(25), 2):
        confus[(a, b)] = sq.confusable(inputs[a], inputs[b])
    for combo in itertools.combinations(range(25), 6):
        if all(not confus[(a, b)] for a, b in itertools.combinations(combo, 2)):
            pytest.fail(f"unexpected 6-word good code {combo}")


def test_power_flattens_products():
    pent = pentagon_channel()
    p4 = ch.power(ch.power(pent, 2), 2)
    assert len(p4.factors) == 4
    assert p4.input_count == 625


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------


def test_concat_radius_adds_for_hh():
    hh = hh_channel()
    cc = ch.concat(hh, hh)
    for x in [word("0000"), word("1010")]:
        assert cc.fanout(x) == frozenset(hamming_ball(x, 2))


def test_identity_neutral_for_concat():
    rng = random.Random(9)
    c = ch.random_table_channel(rng, range(4), range(4))
    ident = ch.identity_channel(range(4))
    assert ch.same_fanout_map(ch.concat(ident, c), c)


def test_concat_alphabet_mismatch():
    c1 = ch.random_table_channel(random.Random(0), range(3), range(5))
    c2 = ch.random_table_channel(random.Random(1), range(3), range(3))
    with pytest.raises(AlphabetMismatch):
        ch.concat(c1, c2)


def section31_channels():
    o1 = ch.TableChannel(range(3), range(3), {0: {0, 1}, 1: {0, 1}, 2: {2}})
    o2 = ch.TableChannel(range(3), range(3), {0: {0}, 1: {1, 2}, 2: {1, 2}})
    return o1, o2


def test_isomorphic_concat_capacity_differs():
    o1, o2 = section31_channels()
    assert ch.isomorphic(o1, o2) is not None
    c11 = ch.one_shot_capacity(ch.concat(o1, o1)).bits
    c21 = ch.one_shot_capacity(ch.concat(o2, o1)).bits
    assert c11 == 1.0
    assert c21 == 0.0


def test_isomorphic_identity_and_negative():
    pent = pentagon_channel()
    iso = ch.isomorphic(pent, pent)
    assert iso is not None
    assert ch.isomorphic(pent, ch.identity_channel(range(5))) is None


def test_isomorphic_capacity_invariance():
    rng = random.Random(77)
    for _ in range(5):
        c1 = ch.random_table_channel(rng, range(4), range(4))
        perm = list(range(4))
        rng.shuffle(perm)
        table = {perm[x]: c1.fanout(x) for x in range(4)}
        c2 = ch.TableChannel(range(4), range(4), table)
        f = ch.isomorphic(c1, c2)
        assert f is not None
        for n in (1, 2):
            a = ch.one_shot_capacity(ch.power(c1, n)).bits
            b = ch.one_shot_capacity(ch.power(c2, n)).bits
            assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def test_union_idempotent():
    c = ch.random_table_channel(random.Random(4), range(4), range(4))
    assert ch.same_fanout_map(ch.union([c, c]), c)


def test_union_requires_matching_alphabets():
    c1 = ch.random_table_channel(random.Random(0), range(3), range(3))
    c2 = ch.random_table_channel(random.Random(0), range(4), range(4))
    with pytest.raises(AlphabetMismatch):
        ch.union([c1, c2])
    with pytest.raises(EmptyFamily):
        ch.union([])


def test_every_channel_is_union_of_deterministic():
    rng = random.Random(12)
    for _ in range(10):
        c = ch.random_table_channel(rng, range(3), range(3))
        width = max(len(c.fanout(x)) for x in range(3))
        parts = []
        for j in range(width):
            table = {x: {sorted(c.fanout(x))[min(j, len(c.fanout(x)) - 1)]}
                     for x in range(3)}
            parts.append(ch.TableChannel(range(3), range(3), table))
        assert all(len(p.fanout(x)) == 1 for p in parts for x in range(3))
        assert ch.same_fanout_map(ch.union(parts), c)


def test_union_distributes_over_concat():
    rng = random.Random(21)
    for _ in range(10):
        outer1 = ch.random_table_channel(rng, range(3), range(3))
        outer2 = ch.random_table_channel(rng, range(3), range(3))
        mids = [ch.random_table_channel(rng, range(3), range(3)) for _ in range(3)]
        lhs = ch.union([ch.concat(ch.concat(outer1, m), outer2) for m in mids])
        rhs = ch.concat(ch.concat(outer1, ch.union(mids)), outer2)
        assert ch.same_fanout_map(lhs, rhs)


def test_product_of_concats_is_concat_of_products():
    rng = random.Random(31)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(2, 3)
        grid = [[ch.random_table_channel(rng, range(3), range(3)) for _ in range(m)]
                for _ in range(n)]
        rows = []
        for k in range(n):
            row = grid[k][0]
            for i in range(1, m):
                row = ch.concat(row, grid[k][i])
            rows.append(row)
        lhs = ch.ProductChannel(rows)
        rhs = ch.ProductChannel([grid[k][0] for k in range(n)])
        for i in range(1, m):
            rhs = ch.concat(rhs, ch.ProductChannel([grid[k][i] for k in range(n)]))
        assert ch.same_fanout_map(lhs, rhs)


# ---------------------------------------------------------------------------
# confusability against fan-out intersection
# ---------------------------------------------------------------------------


def random_composites(rng):
    """Random 3-symbol table channels and composites of every kind over them."""
    a, b, c, d = (ch.random_table_channel(rng, range(3), range(3)) for _ in range(4))
    pairs = tuple(itertools.product(range(3), repeat=2))
    return [a, ch.product(a, b), ch.power(a, 3), ch.concat(a, b),
            ch.union([a, b, c]), ch.product(ch.union([a, b]), ch.concat(c, d)),
            ch.concat(ch.union([a, b]), c),
            ch.union([ch.product(a, b), ch.product(c, d), ch.power(b, 2)]),
            ch.union([ch.concat(a, b), ch.concat(c, d)]),
            ch.union([ch.product(a, b), ch.random_table_channel(rng, pairs, pairs)])]


def test_confusable_is_fanout_intersection_on_composites():
    rng = random.Random(170605)
    for _ in range(5):
        for c in random_composites(rng):
            xs = c.inputs_tuple()
            for x, xp in itertools.product(xs, repeat=2):
                assert c.confusable(x, xp) == bool(c.fanout(x) & c.fanout(xp)), (c, x, xp)


def pairwise_rows(c, inputs):
    """Oracle: confusability rows by explicit pairwise fan-out intersection."""
    fans = [c.fanout(x) for x in inputs]
    return [sum(1 << j for j, fan in enumerate(fans) if j != i and fan & fans[i])
            for i in range(len(inputs))]


def assert_pairwise_graph(c):
    inputs, adj = ch.confusability_adjacency(c)
    assert inputs == c.inputs_tuple()
    assert adj == pairwise_rows(c, inputs), c


def test_benchmark_channel_graphs_are_pairwise_fanout_intersection():
    from test_benchmark_boundaries import _workloads
    workloads = _workloads()
    # five of the six Hamming specs have an erasing block: STAR outputs
    tables = [hamming.explicit_channel(workloads.hamming_spec(*args))
              for args in workloads.HAMMING_SPECS]
    assert sum(any(ch.STAR in y for y in c.outputs) for c in tables) == 5
    instances = ([workloads.random_table(*args) for args in workloads.RANDOM_TABLES]
                 + [workloads.circulant_channel(*args) for args in workloads.CIRCULANTS]
                 + tables)
    for c in instances:
        assert_pairwise_graph(c)


def test_exhausted_capacity_reports_the_search_incumbent():
    """The pentagon cubed runs out of the benchmark's node budget.  Its
    search had found alpha(C5^3) = 10 (Baumert et al., 1971), where the
    greedy code has 8; the answer stays inexact, as nothing proved it."""
    from test_benchmark_boundaries import _workloads
    workloads = _workloads()
    chan = workloads.circulant_channel(5, (0, 1), 3)
    _, adj = ch.confusability_adjacency(chan)
    assert len(search.greedy_independent_set(adj)) == 8
    res = ch.one_shot_capacity(chan, node_budget=workloads.NODE_BUDGET)
    assert (res.size, res.exact, round(2 ** res.upper_bits)) == (10, False, 27)
    assert len(res.witness) == 10 and ch.is_good_code(chan, res.witness)


def nested_table(rng, n_in, n_out):
    """A table whose fan-outs repeat, nest inside or around earlier ones,
    or are drawn afresh."""
    outs = range(n_out)
    fans = []
    for _ in range(n_in):
        kind = rng.randrange(4) if fans else 3
        if kind == 0:
            fan = set(rng.choice(fans))
        elif kind == 1:
            base = sorted(rng.choice(fans))
            fan = set(rng.sample(base, rng.randint(1, len(base))))
        elif kind == 2:
            fan = set(rng.choice(fans)) | set(rng.sample(outs, rng.randint(1, min(n_out, 3))))
        else:
            fan = set(rng.sample(outs, rng.randint(1, n_out)))
        fans.append(fan)
    return ch.TableChannel(range(n_in), outs, dict(enumerate(fans)))


def test_table_graphs_with_repeated_and_nested_fanouts_are_pairwise():
    rng = random.Random(1706)
    for _ in range(30):
        assert_pairwise_graph(nested_table(rng, rng.randint(1, 70), rng.randint(1, 12)))


def test_adversarial_channel_graphs_are_pairwise():
    # one error, or one erasure, on the relay's in- or out-edges
    from test_benchmark_boundaries import _workloads
    workloads = _workloads()
    for name, q, seed, edges in workloads.LINEAR_RELAYS:
        net, code = workloads.relay_code(name, q, seed)
        for t, e in ((1, 0), (0, 1)):
            adv = network.AdversarySpec((network.AdvBlock(set(edges), t, e),))
            c = network.adversarial_channels(net, code, adv)["T"]
            assert isinstance(c, ch.SymbolicChannel)
            assert_pairwise_graph(c)


def count_confusable(c, calls):
    """Log each `confusable` call on the object c into calls[c]; `del
    c.confusable` undoes it."""
    answer = c.confusable
    calls[c] = 0

    def logged(x, xp):
        calls[c] += 1
        return answer(x, xp)

    c.confusable = logged


def test_concat_and_union_graphs_stay_pairwise():
    rng = random.Random(170605)
    for _ in range(3):
        for c in random_composites(rng)[1:]:
            if isinstance(c, ch.ProductChannel):
                continue
            calls = {}
            count_confusable(c, calls)
            assert_pairwise_graph(c)
            n = c.input_count
            assert calls[c] == n * (n - 1) // 2


def test_product_graphs_ask_each_distinct_factor_once_per_pair():
    """A product's graph is the strong product of its factors' graphs: each
    distinct factor object answers every unordered pair of its inputs, the
    diagonal included, and the product itself is asked nothing."""
    rng = random.Random(170605)
    products = 0
    for _ in range(3):
        for c in random_composites(rng)[1:]:
            if not isinstance(c, ch.ProductChannel):
                continue
            products += 1
            calls = {}
            factors = dict.fromkeys(c.factors)
            for f in (c, *factors):
                count_confusable(f, calls)
            try:
                assert_pairwise_graph(c)
            finally:
                for f in (c, *factors):
                    del f.confusable
            assert calls.pop(c) == 0
            assert calls == {f: f.input_count * (f.input_count + 1) // 2 for f in factors}
    # product(a, b), power(a, 3) and a product of a union and a concat
    assert products == 9


def test_strong_product_rows_with_predicates_unions_and_unequal_tables():
    rng = random.Random(2517)
    spec = hamming.HammingSpec(2, 3, (hamming.Block({0, 1}, 1, 0), hamming.Block({2}, 0, 1)))
    sym = hamming.symbolic_channel(spec)
    assert sym._confusable_fn is not None
    small, large = (ch.random_table_channel(rng, range(n), range(4)) for n in (3, 7))
    mixed = ch.union([ch.random_table_channel(rng, range(4), range(3)) for _ in range(2)])
    table = ch.random_table_channel(rng, range(4), range(5))
    for c in (ch.power(sym, 2), ch.product(small, large), ch.product(large, small),
              ch.ProductChannel([mixed, table, mixed])):
        assert_pairwise_graph(c)


def _subword_table(rng, a, k, n_out):
    """A random table on the words of length k over range(a), in order,
    with n_out outputs, each a word of length k too."""
    outputs = rng.sample(list(itertools.product(range(a + 1), repeat=k)), n_out)
    return ch.random_table_channel(rng, itertools.product(range(a), repeat=k), outputs)


def test_coordinate_product_rows_are_pairwise_fanout_intersection():
    # scattered parts: tables, a strong power (its inputs are pairs of
    # symbols) and a predicate; the coordinates no part holds read as sent
    rng = random.Random(2805)
    power = ch.power(ch.random_table_channel(rng, range(3), range(4)), 2)
    sym = hamming.symbolic_channel(hamming.single_block(3, 2, {0, 1}, 1))
    for parts in ([((4, 1), _subword_table(rng, 3, 2, 5))],
                  [((0, 3), _subword_table(rng, 3, 2, 4)), ((2,), _subword_table(rng, 3, 1, 2))],
                  [((3, 0), power), ((1, 4), sym)],
                  []):
        c = ch.CoordinateProduct(3, 5, parts)
        assert_pairwise_graph(c)
        inputs = c.inputs_tuple()
        for x, xp in zip(inputs, rng.sample(inputs, len(inputs))):
            assert c.confusable(x, xp) == ch.Channel.confusable(c, x, xp), (x, xp)


def test_coordinate_product_checks_its_parts():
    rng = random.Random(3)
    table = _subword_table(rng, 2, 2, 3)
    with pytest.raises(InvalidParams):
        ch.CoordinateProduct(2, 3, [((0, 1), table), ((1, 2), table)])
    with pytest.raises(InvalidParams):
        ch.CoordinateProduct(2, 3, [((2, 3), table)])
    # inputs out of lexicographic order
    shuffled = ch.TableChannel(reversed(table.inputs_tuple()), table.outputs, table.table)
    with pytest.raises(AlphabetMismatch):
        ch.confusability_adjacency(ch.CoordinateProduct(2, 3, [((0, 2), shuffled)]))


def test_symbolic_predicate_answers_its_graph():
    def fan(x):
        fan_calls.append(x)
        return {x // 3, (x * 5) % 7 + 10}

    def predicate(x, xp):
        pred_calls.append((x, xp))
        return x == xp or x // 3 == xp // 3 or (x * 5) % 7 == (xp * 5) % 7

    fan_calls, pred_calls = [], []
    c = ch.SymbolicChannel((20, lambda: iter(range(20))), fan, confusable_fn=predicate)
    inputs, adj = ch.confusability_adjacency(c)
    assert (len(pred_calls), fan_calls) == (20 * 19 // 2, [])
    assert adj == pairwise_rows(c, inputs)


# ---------------------------------------------------------------------------
# capacity (in)equalities
# ---------------------------------------------------------------------------


def test_product_capacity_superadditive():
    rng = random.Random(41)
    for _ in range(10):
        c1 = ch.random_table_channel(rng, range(rng.randint(2, 5)), range(5))
        c2 = ch.random_table_channel(rng, range(rng.randint(2, 5)), range(5))
        lhs = ch.one_shot_capacity(ch.product(c1, c2)).bits
        rhs = ch.one_shot_capacity(c1).bits + ch.one_shot_capacity(c2).bits
        assert lhs >= rhs - 1e-12


def test_concat_capacity_bounded_by_min():
    rng = random.Random(42)
    for _ in range(10):
        c1 = ch.random_table_channel(rng, range(4), range(4))
        c2 = ch.random_table_channel(rng, range(4), range(4))
        cc = ch.one_shot_capacity(ch.concat(c1, c2)).bits
        assert cc <= min(ch.one_shot_capacity(c1).bits,
                         ch.one_shot_capacity(c2).bits) + 1e-12


def test_finer_channel_has_larger_capacity():
    rng = random.Random(43)
    for _ in range(10):
        coarse = ch.random_table_channel(rng, range(4), range(4))
        fine_table = {}
        for x in range(4):
            fan = sorted(coarse.fanout(x))
            keep = rng.randint(1, len(fan))
            fine_table[x] = set(fan[:keep])
        fine = ch.TableChannel(range(4), range(4), fine_table)
        assert (ch.one_shot_capacity(fine).bits
                >= ch.one_shot_capacity(coarse).bits - 1e-12)


# ---------------------------------------------------------------------------
# zero-error bounds
# ---------------------------------------------------------------------------


def test_zero_error_identity():
    ident = ch.identity_channel(range(4))
    lower, upper = ch.zero_error_bounds(ident, 2)
    assert lower == upper == 2
    assert (lower.count, lower.uses, upper.count) == (4, 1, 4)


def test_zero_error_pentagon_lower():
    # 5 words over 2 uses beat the 2 words of one use; the upper count is |X|
    lower, upper = ch.zero_error_bounds(pentagon_channel(), 2)
    assert (lower.base, lower.count, lower.uses) == (2, 5, 2)
    assert lower > ch.BaseValue(0, 2, count=2)
    assert (upper.base, upper.count, upper.uses) == (2, 5, 1)


def test_zero_error_pentagon_is_five_words_over_two_uses_exactly():
    # alpha(C5 x C5) = 5 (Lovasz 1979), found on the strong product's graph
    pentagon = pentagon_channel()
    assert_pairwise_graph(ch.power(pentagon, 2))
    lower, _ = ch.zero_error_bounds(pentagon, 2)
    assert (lower.count, lower.uses, lower.exact) == (5, 2, True)


@pytest.mark.parametrize("n_max", [0, -1])
def test_zero_error_bounds_need_a_power(n_max):
    with pytest.raises(ValueError):
        ch.zero_error_bounds(pentagon_channel(), n_max)


def test_zero_error_zero_capacity_collapses():
    c = ch.TableChannel(range(3), range(3), {0: {0, 1}, 1: {1, 2}, 2: {2, 0}})
    # all fan-outs pairwise intersect
    lower, upper = ch.zero_error_bounds(c, 2)
    assert lower == upper == ch.BaseValue(0, 2) == 0


def test_capacity_base_conversion():
    ident = ch.identity_channel(range(9))
    res = ch.one_shot_capacity(ident)
    assert res.value_in_base(3) == 2 and res.value_in_base(3).count == 9


def test_values_compare_in_integers():
    V = ch.BaseValue
    # log2(3) + log2(5) = log2(15); half of log2(9) is log2(3)
    assert V(0, 2, count=3) + V(0, 2, count=5) == V(0, 2, count=15)
    assert V(0, 2, count=9, uses=2) == V(0, 2, count=3) < V(Fraction(8, 5), 8)
    # 3^5 = 243 < 256 = 2^8: log2(3) < 8/5, in any base of the exponent
    assert V(0, 2, count=3) < Fraction(8, 5) and V(0, 2, count=3) + 1 > 2.5
    assert V(1, 3, count=Fraction(26, 3)) < 3 == V(1, 3, count=9)
    # a pure exponent reads in any alphabet; two counts need one base
    assert V(1, 2) == V(0, 5, count=5)
    with pytest.raises(AlphabetMismatch):
        V(0, 2, count=3) < V(0, 3, count=2)
    with pytest.raises(InvalidParams):
        V(0, 2, count=0)
