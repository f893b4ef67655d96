"""Job families of the three benchmark workloads.

Each workload is a closed loop: one client runs one job at a time, in the
order `job_stream` yields them.  Instances come from fixed catalogues whose
true answers are stored in `reference.json`; the workload seed only
permutes the catalogues and draws the messages and corruptions of the
decode jobs.  Because every run walks the same catalogues, runs with
different seeds do comparable work.

A job's `fn` is the timed part.  `check` compares its result with the
reference and `summary` gives the canonical form that traced and untraced
runs must agree on; both run outside the timed region.
"""

import random

from advnet import channel, codes, gf, hamming, netlib, network, regions, schemes
from advnet.errors import DrawsExhausted, SearchLimitExceeded

# One node budget for every capacity query, so that no job runs unbounded.
# `codes.beta` memoizes by (a, u, d) and ignores its budget, so the beta
# jobs run at the default budget instead.
NODE_BUDGET = 20_000


class Job:
    """One unit of work: `fn()` is timed, `check(result)` is not."""

    __slots__ = ("family", "key", "fn", "check", "summary")

    def __init__(self, family, key, fn, check, summary):
        self.family = family
        self.key = key
        self.fn = fn
        self.check = check
        self.summary = summary


class Answer:
    """What a job reports: a canonical summary, exactness and bound gap.
    `raised` names the exception a job reported as its answer, when the
    reference records that the program raises it for this instance."""

    __slots__ = ("summary", "exact", "gap", "raised")

    def __init__(self, summary, exact=True, gap=0.0, raised=None):
        self.summary = summary
        self.exact = exact
        self.gap = gap
        self.raised = raised


def _permuted(rng, items):
    """Endless walk over `items`, one fresh seeded permutation per pass."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


# -- capacity ------------------------------------------------------------------

# (n, offsets, power): fan-out of x on Z_n is {x + s : s in offsets}.  The
# confusability graphs are circulant, so every power is vertex-transitive;
# (5, (0, 1), 3) is the pentagon cubed.  Each takes 25-350 ms at NODE_BUDGET,
# seven of them exhaust it; instances of a few ms or of seconds are left
# out so that a run's total does not hinge on which ones it reaches.
CIRCULANTS = (
    (5, (0, 1), 3), (6, (0, 1), 3), (6, (0, 2), 3), (7, (0, 3), 3),
    (9, (0, 1), 2), (11, (0, 1), 2), (11, (0, 2, 7), 2), (12, (0, 1), 2),
    (13, (0, 1), 2), (13, (0, 3, 4), 2), (14, (0, 1), 2), (15, (0, 1), 2),
    (16, (0, 1), 2), (18, (0, 1), 2),
)

# (instance seed, inputs, outputs) for `channel.random_table_channel`.
RANDOM_TABLES = tuple((s, 96 + 16 * (s % 5), 8 << (s % 4)) for s in range(40))

# Keys outside the closed forms of `codes.beta` with a**u <= 729 whose search
# ends well inside a run; beta(3,6,3) exhausts the default budget (about
# 7 s) and runs once per run.  The other heavy keys (2,8,3), (2,9,3),
# (2,9,4), (3,5,3) and (3,6,4) take 5 to 17 s each and are left out.
BETA_LIGHT = (
    (2, 4, 3), (2, 5, 3), (2, 5, 4), (2, 6, 3), (2, 6, 4), (2, 6, 5),
    (2, 7, 3), (2, 7, 4), (2, 7, 5), (2, 7, 6), (2, 8, 4), (2, 8, 5),
    (2, 8, 6), (2, 8, 7), (2, 9, 5), (2, 9, 6), (2, 9, 7), (2, 9, 8),
    (3, 5, 4), (3, 6, 5),
)
BETA_HEAVY = (3, 6, 3)

REGION_NETWORKS = ("parallel_path3", "chain_with_bypass", "two_source_hub",
                   "two_source_grid", "two_source_double_relay", "butterfly",
                   "triple_path_bottleneck", "fan_bottleneck")


def make_network(name, alphabet=None):
    if name == "parallel_path3":
        return netlib.parallel_path(3, alphabet)
    return getattr(netlib, name)(alphabet)


def _region_catalogue():
    """(kind, network, alphabet size, blocks) with blocks (edges, t, e)."""
    rng = random.Random(170605468)
    out = []
    for i, name in enumerate(REGION_NETWORKS * 3):
        edges = sorted(e.id for e in make_network(name).edges)
        a = 2 + i % 4
        if i % 2 == 0:
            block = tuple(sorted(rng.sample(edges, rng.randint(2, 4))))
            out.append(("theo1", name, a, ((block, 1, int(i % 3 == 0)),)))
        else:
            chosen = rng.sample(edges, rng.randint(3, min(6, len(edges))))
            cut = rng.randint(1, len(chosen) - 1)
            out.append(("theo2", name, a,
                        ((tuple(sorted(chosen[:cut])), 1, 0),
                         (tuple(sorted(chosen[cut:])), 1, int(i % 3 == 1)))))
    return tuple(out)


REGIONS = _region_catalogue()

# Two-block disjoint specs (a, s, ((coords, t, e), (coords, t, e))), each
# 15-250 ms.
HAMMING_SPECS = (
    (2, 7, (((0, 1, 2), 1, 0), ((3, 4), 0, 1))),
    (2, 8, (((0, 1, 2), 1, 0), ((3, 4), 0, 1))),
    (2, 8, (((0, 1, 2), 1, 0), ((3, 4, 5), 1, 0))),
    (2, 9, (((0, 1, 2), 1, 0), ((3, 4), 0, 1))),
    (3, 5, (((0, 1), 0, 1), ((2, 3), 1, 0))),
    (4, 4, (((0, 1), 1, 0), ((2,), 0, 1))),
)


def circulant_channel(n, offsets, power):
    base = channel.explicit(range(n), range(n),
                            {x: {(x + s) % n for s in offsets} for x in range(n)})
    return channel.power(base, power)


def random_table(seed, n_in, n_out):
    return channel.random_table_channel(random.Random(seed), range(n_in), range(n_out))


def hamming_spec(a, s, blocks):
    return hamming.HammingSpec(a, s, tuple(hamming.Block(c, t, e) for c, t, e in blocks))


def region_adversary(blocks):
    return network.AdversarySpec(blocks=tuple(
        network.AdvBlock(edges, t, e) for edges, t, e in blocks))


def _capacity_answer(res):
    upper = round(2 ** res.upper_bits)
    return Answer(["capacity", res.size, upper, res.exact, [repr(w) for w in res.witness]],
                  res.exact, res.upper_bits - res.lower_bits)


def _capacity_check(ch, ref):
    def check(res):
        if len(res.witness) != res.size or not channel.is_good_code(ch, res.witness):
            return False
        if res.exact:
            return res.size == ref
        return res.size <= ref <= round(2 ** res.upper_bits)
    return check


def _capacity_job(family, key, ch, ref):
    """The channel object is built untimed; its graph and search are timed."""
    return Job(family, key,
               lambda: channel.one_shot_capacity(ch, node_budget=NODE_BUDGET),
               _capacity_check(ch, ref), _capacity_answer)


def _beta_job(key, ref):
    a, u, d = key

    def check(bv):
        if bv.exact:
            return bv.size == ref
        return bv.size <= ref <= bv.upper_size

    def summary(bv):
        return Answer(["beta", bv.size, bv.upper_size, bv.exact], bv.exact,
                      bv.upper_value - bv.value)

    return Job("beta", f"beta{key}", lambda: codes.beta(a, u, d), check, summary)


def _region_job(entry, ref):
    kind, name, a, blocks = entry
    net = make_network(name)
    adv = region_adversary(blocks)
    if kind == "theo1":
        fn = lambda: regions.theo1_region(net, adv, a)
    else:
        fn = lambda: regions.theo2_region(net, adv)

    def rows(region):
        return [[sorted(q.subset), q.bound, q.exact] for q in region.inequalities]

    def check(region):
        got = rows(region)
        if len(got) != len(ref):
            return False
        for (js, bound, exact), (rjs, rbound, rexact) in zip(got, ref):
            if js != rjs or bound > rbound + 1e-9:
                return False
            if rexact and (not exact or abs(bound - rbound) > 1e-9):
                return False
        return True

    def summary(region):
        return Answer(["region", rows(region)], all(q.exact for q in region.inequalities))

    return Job("region", f"{kind}:{name}:{a}:{blocks}", fn, check, summary)


def _hamming_job(entry, ref):
    """`brute_force_capacity` raises when NODE_BUDGET runs out; that answer
    is inexact, bracketed by 0 and the multi-block bound, not wrong."""
    spec = hamming_spec(*entry)
    bound = hamming.multi_block_bound(spec)

    def fn():
        try:
            return hamming.brute_force_capacity(spec, node_budget=NODE_BUDGET)
        except SearchLimitExceeded:
            return None

    def check(val):
        if val is None:
            return 0.0 <= ref <= bound.value + 1e-9
        return abs(val.value - ref) < 1e-9 and val.value <= bound.value + 1e-9

    def summary(val):
        if val is None:
            return Answer(["hamming", None], False, bound.bits)
        return Answer(["hamming", round(val.value, 12)], val.exact)

    return Job("hamming", f"hamming{entry}", fn, check, summary)


def capacity_stream(rng, refs):
    """Each round: 2 circulant powers, 16 random tables, 1 region bound,
    1 two-block brute-force capacity and, while unused keys remain, 1 beta
    key.  The symmetric and asymmetric families take comparable time; the
    median falls among the random tables (graph building) and the 90th
    percentile among the circulant and Hamming searches.  Beta keys never
    repeat within a run, so the memo never answers one; beta(3,6,3) runs
    in the first round."""
    circ = _permuted(rng, CIRCULANTS)
    rand = _permuted(rng, RANDOM_TABLES)
    regs = _permuted(rng, REGIONS)
    hams = _permuted(rng, HAMMING_SPECS)
    betas = list(BETA_LIGHT)
    rng.shuffle(betas)
    betas.insert(0, BETA_HEAVY)
    while True:
        batch = []
        for _ in range(2):
            key = next(circ)
            batch.append(_capacity_job("circulant", f"circ{key}", circulant_channel(*key),
                                       refs["circulant"][str(key)]))
        for _ in range(16):
            key = next(rand)
            batch.append(_capacity_job("random_table", f"rand{key}", random_table(*key),
                                       refs["random_table"][str(key)]))
        entry = next(regs)
        batch.append(_region_job(entry, refs["region"][str(entry)]))
        entry = next(hams)
        batch.append(_hamming_job(entry, refs["hamming"][str(entry)]))
        if betas:
            key = betas.pop(0)
            batch.append(_beta_job(key, refs["beta"][str(key)]))
        rng.shuffle(batch)
        yield from batch


# -- decode ----------------------------------------------------------------------

def setup_decode():
    """Schemes with fixed build seeds: two-source GF(8) in GF(512), single
    source GF(81), and the three-use compound scheme."""
    two = netlib.two_source_shared_relay((3, 3), 4, None)
    single = netlib.parallel_path(4, None)
    comp = netlib.parallel_path(3, None)
    return {
        "two_source": (two, schemes.build_achiev1(two, (1, 1), 1, 2, max_draws=400, seed=9)),
        "gf81": (single, schemes.build_achiev1(single, (2,), 1, 3, max_draws=400, seed=1)),
        "compound": (comp, schemes.build_achiev2(comp, (1,), 1, 2, max_draws=300, seed=5)),
    }


def _decode_job(family, fn, sent):
    return Job(family, family, fn, lambda got: got == sent,
               lambda got: Answer(["decode", repr(got)]))


def _two_source_job(rng, net, scheme):
    meta = scheme.meta
    ext1, ext2, fld = meta["ext1"], meta["ext2"], meta["field"]
    x1 = gf.Matrix(ext1, tuple((rng.randrange(ext1.q),) for _ in range(meta["n2"])))
    x2 = (rng.randrange(ext2.q),)
    edge = rng.choice(net.edges).id
    wrong = tuple(rng.randrange(fld.q) for _ in range(meta["m"]))
    columns = meta["columns"]

    def fn():
        sent = (columns(meta["encode1"](x1)), columns(meta["encode2"](x2)))
        out = network.evaluate(net, scheme.network_code, sent, action={edge: wrong})
        return scheme.decoders["T"](out.observations["T"])

    return _decode_job("two_source", fn, (x1.rows, x2))


def _gf81_job(rng, net, scheme):
    meta = scheme.meta
    ext1, fld = meta["ext1"], meta["field"]
    msg = tuple(rng.randrange(ext1.q) for _ in range(len(meta["messages"][0])))
    edge = rng.choice(net.edges).id
    wrong = tuple(rng.randrange(fld.q) for _ in range(meta["m"]))

    def fn():
        sent = (meta["local_codeword"](msg),)
        out = network.evaluate(net, scheme.network_code, sent, action={edge: wrong})
        return scheme.decoders["T"](out.observations["T"])

    return _decode_job("gf81", fn, (msg,))


def _compound_job(rng, net, scheme):
    meta = scheme.meta
    ext1, fld = meta["ext1"], meta["field"]
    rows = tuple((rng.randrange(ext1.q),) for _ in range(scheme.n_uses))
    edge = rng.choice(net.edges).id      # fixed across the uses
    wrongs = [tuple(rng.randrange(fld.q) for _ in range(meta["n1"]))
              for _ in range(scheme.n_uses)]

    def fn():
        uses = meta["local_codeword"](rows)
        obs = [network.evaluate(net, scheme.network_codes[j], (uses[j],),
                                action={edge: wrongs[j]}).observations["T"]
               for j in range(scheme.n_uses)]
        return scheme.decoders["T"](obs)

    return _decode_job("compound", fn, (rows,))


def decode_stream(rng, fixtures):
    """Each round: 4 compound, 8 two-source and 2 GF(81) decodes.  The
    characteristic-2 and odd-characteristic decodes take comparable time;
    the round keeps the median inside the two-source family and the 90th
    percentile inside the GF(81) family."""
    makers = ([(_compound_job, "compound")] * 4 + [(_two_source_job, "two_source")] * 8
              + [(_gf81_job, "gf81")] * 2)
    while True:
        order = makers[:]
        rng.shuffle(order)
        for make, name in order:
            yield make(rng, *fixtures[name])


# -- verify ----------------------------------------------------------------------

# (t, e, q, m) for build_product_alphabet with demand (1,) on the single
# path.
PRODUCT_ALPHABET = ((1, 0, 5, 3), (1, 1, 4, 4), (1, 0, 3, 3), (1, 0, 4, 3),
                    (0, 1, 3, 2), (1, 0, 2, 3))

AF_NETWORKS = (("parallel_path3", (3,)), ("butterfly", (2,)),
               ("two_source_hub", (2, 1)), ("two_source_grid", (2, 2)),
               ("fan_bottleneck", (2,)), ("chain_with_bypass", (2,)))


def _af_catalogue():
    """(network, demands, q, build seed, refuting edge).  The rate equals
    the min-cut, and the refuting edge lies on a minimum cut, so the
    cut-set bound rules out every code against one error on that edge."""
    out = []
    for name, demands in AF_NETWORKS:
        net = make_network(name)
        edge = _edge_on_min_cut(net, demands)
        for q in (2, 3, 4):
            for build_seed in range(4):
                out.append((name, demands, q, build_seed, edge))
    return tuple(out)


def _edge_on_min_cut(net, demands):
    """First edge (in edge order) lying on a cut of size sum(demands)
    between all sources and some terminal."""
    need = sum(demands)
    cuts = [c for t in net.terminals
            for c in network.enumerate_minimal_cuts(net, list(net.sources), t)
            if len(c) == need]
    return next(e.id for e in net.edges if any(e.id in c for c in cuts))


AF_BUILDS = _af_catalogue()

# (network, q, relay matrix seed, adversary edges): one error among the
# adversary edges, capacity at the single terminal.
LINEAR_RELAYS = tuple((name, q, s, edges)
                      for name, edges in (("triple_path_bottleneck", ("e1", "e2")),
                                          ("fan_bottleneck", ("e1", "e3", "e4")))
                      for q in (2, 3) for s in range(4))

# (network, q, adversary edges) for linear_impossibility with target 1.
IMPOSSIBILITY = (("triple_path_bottleneck", 2, ("e1", "e2", "e3")),
                 ("triple_path_bottleneck", 2, ("e1", "e2")),
                 ("triple_path_bottleneck", 3, ("e1", "e2")),
                 ("fan_bottleneck", 2, ("e1", "e2")))

DOUBLE_RELAY_SUBCODE = (3, 10)


def setup_verify():
    """The hand-built double-relay scheme and the product-alphabet schemes."""
    single = netlib.single_path(None)
    return {
        "double_relay": schemes.double_relay_scheme(),
        "product_alphabet": {
            key: (single, schemes.build_product_alphabet(single, (1,), *key, seed=4))
            for key in PRODUCT_ALPHABET},
    }


def _verify_answer(res):
    return Answer(["verify", res.ok, res.terminal, repr(res.pair)])


def _double_relay_job(rng, scheme):
    # any sub-code of a good code is good
    k1, k2 = DOUBLE_RELAY_SUBCODE
    sub = [rng.sample(scheme.source_codes[0], k1), rng.sample(scheme.source_codes[1], k2)]
    net, adv = scheme.meta["network"], scheme.meta["adversary"]
    return Job("double_relay", "double_relay",
               lambda: regions.verify_one_shot(net, scheme.network_code, sub, adv,
                                               scheme.alphabet),
               lambda res: res.ok, _verify_answer)


def _product_alphabet_job(key, net, scheme):
    return Job("product_alphabet", f"pa{key}",
               lambda: regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                               scheme.meta["adversary"], scheme.alphabet),
               lambda res: res.ok, _verify_answer)


def _af_job(entry, ref):
    """`build_adversary_free` draws random codes and raises DrawsExhausted
    when none of its draws works.  The draws are seeded, so whether an
    entry exhausts is part of its reference: an exhaustion the reference
    records is the program's answer, reported as such; any other is
    wrong.  A code that is built must pass both checks."""
    name, demands, q, build_seed, edge = entry
    net = make_network(name, tuple(range(q)))
    refute = network.AdversarySpec(blocks=(network.AdvBlock({edge}, 1, 0),))

    def fn():
        try:
            scheme = schemes.build_adversary_free(net, demands, q, seed=build_seed)
        except DrawsExhausted:
            return None
        free = regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                       network.adversary_free(), scheme.alphabet)
        attacked = regions.verify_one_shot(net, scheme.network_code, scheme.source_codes,
                                           refute, scheme.alphabet)
        return free, attacked

    def check(res):
        if res is None:
            return ref == "DrawsExhausted"
        return res[0].ok and not res[1].ok

    def summary(res):
        if res is None:
            return Answer(["adversary_free", "DrawsExhausted"], raised="DrawsExhausted")
        return Answer(["adversary_free", res[0].ok, res[1].ok, repr(res[1].pair)])

    return Job("adversary_free", f"af{entry}", fn, check, summary)


def relay_code(name, q, seed):
    net = make_network(name, tuple(range(q)))
    rng = random.Random(seed)
    r, s = len(net.in_edges("V")), len(net.out_edges("V"))
    rows = tuple(tuple(rng.randrange(q) for _ in range(s)) for _ in range(r))
    return net, network.NetworkCode({"V": network.LinearVertex(gf.make_field(q), rows)})


def _relay_job(entry, ref):
    name, q, seed, edges = entry
    net, code = relay_code(name, q, seed)
    adv = network.AdversarySpec(blocks=(network.AdvBlock(set(edges), 1, 0),))
    return _capacity_job("linear_relay", f"relay{entry}",
                         network.adversarial_channel(net, code, adv, "T"), ref)


def _impossibility_job(entry, ref):
    name, q, edges = entry
    net = make_network(name, tuple(range(q)))
    adv = network.AdversarySpec(blocks=(network.AdvBlock(set(edges), 1, 0),))

    def values(out):
        return [round(v, 9) for _, v in out["results"]]

    def check(out):
        return values(out) == ref["values"] and out["all_below_target"] == ref["all_below"]

    return Job("impossibility", f"imposs{entry}",
               lambda: schemes.linear_impossibility(net, adv, q, target=1.0), check,
               lambda out: Answer(["impossibility", values(out), out["all_below_target"]]))


def verify_stream(rng, fixtures, refs):
    """Each round: 2 double-relay sub-code checks, the 6 product-alphabet
    schemes, 4 adversary-free builds, 2 linear-relay capacities and 1
    linear-impossibility search.  The light product-alphabet checks put
    the median in a dense part of the latency distribution, below the gap
    before the heavier adversary-free codes."""
    afs = _permuted(rng, AF_BUILDS)
    relays = _permuted(rng, LINEAR_RELAYS)
    imps = _permuted(rng, IMPOSSIBILITY)
    dr = fixtures["double_relay"]
    while True:
        batch = [_double_relay_job(rng, dr) for _ in range(2)]
        for key in PRODUCT_ALPHABET:
            batch.append(_product_alphabet_job(key, *fixtures["product_alphabet"][key]))
        for _ in range(4):
            entry = next(afs)
            batch.append(_af_job(entry, refs["adversary_free"][str(entry)]))
        for _ in range(2):
            entry = next(relays)
            batch.append(_relay_job(entry, refs["linear_relay"][str(entry)]))
        entry = next(imps)
        batch.append(_impossibility_job(entry, refs["impossibility"][str(entry)]))
        rng.shuffle(batch)
        yield from batch


def setup(workload):
    """Fixed fields, networks and schemes; timed as part of setup_s."""
    if workload == "decode":
        return setup_decode()
    if workload == "verify":
        return setup_verify()
    return {}


def job_stream(workload, seed, fixtures, refs):
    rng = random.Random(seed)
    if workload == "capacity":
        return capacity_stream(rng, refs)
    if workload == "decode":
        return decode_stream(rng, fixtures)
    return verify_stream(rng, fixtures, refs)


def catalogue_keys():
    """Every catalogue entry that needs a stored reference, by family."""
    return {
        "circulant": CIRCULANTS,
        "random_table": RANDOM_TABLES,
        "beta": BETA_LIGHT + (BETA_HEAVY,),
        "region": REGIONS,
        "hamming": HAMMING_SPECS,
        "linear_relay": LINEAR_RELAYS,
        "impossibility": IMPOSSIBILITY,
        "adversary_free": AF_BUILDS,
    }

