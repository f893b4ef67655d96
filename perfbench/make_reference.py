"""Regenerate `reference.json`: the true answer for every catalogue entry.

    PYTHONPATH=src python3 perfbench/make_reference.py [--seconds 60]

Capacities and beta values come from up to three sources, each given
`--seconds`: advnet's own search without a node budget, networkx
`max_weight_clique` on a graph built here from first principles
(difference sets for the circulants, fan-out intersection for the tables,
the distance rule for the Hamming specs and codes), and published values
for instances neither search finishes.  All sources that answer must
agree, and at least one must.  Region and impossibility entries store the
program's own values at the commit that defined the benchmark, and
adversary-free entries whether the seeded draws of `build_adversary_free`
built a code or raised DrawsExhausted there.
"""

import argparse
import itertools
import json
import math
import multiprocessing
import sys
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from advnet import channel, codes, hamming, network, schemes  # noqa: E402
from advnet.errors import DrawsExhausted  # noqa: E402
import workloads as wl  # noqa: E402

# Independence numbers from the literature: the largest ternary code of
# length 6 and distance 3 has 38 words (Brouwer's tables of code bounds);
# alpha(C5^3) = 10 and alpha(C7^3) = 33 (Baumert et al., 1971); for odd
# cycles alpha(C_{2k+1}^2) = floor(k(2k+1)/2) (Hales, 1973); even cycles
# are perfect graphs, so alpha(C_{2k}^p) = k^p.  Circulants with offsets
# (0, s) where s generates Z_n are cycles.
LITERATURE = {
    ("beta", (3, 6, 3)): 38,
    ("circulant", (5, (0, 1), 3)): 10,
    ("circulant", (7, (0, 3), 3)): 33,
    ("circulant", (8, (0, 1), 3)): 64,
    ("circulant", (11, (0, 1), 2)): 27,
    ("circulant", (13, (0, 1), 2)): 39,
    ("circulant", (15, (0, 1), 2)): 52,
}


def clique_oracle(vertices, confusable):
    """Independence number of the confusability graph via networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(len(vertices)))
    for i, j in itertools.combinations(range(len(vertices)), 2):
        if not confusable(vertices[i], vertices[j]):
            g.add_edge(i, j)
    return nx.max_weight_clique(g, weight=None)[1]


def _child(conn, fn, family, entry):
    conn.send(fn(family, entry))
    conn.close()


def timed(fn, family, entry, seconds):
    """fn(family, entry) in a child process; None when it does not finish."""
    parent, child = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.get_context("spawn").Process(
        target=_child, args=(child, fn, family, entry))
    proc.start()
    child.close()
    value = parent.recv() if parent.poll(seconds) else None
    proc.terminate()
    proc.join()
    return value


def circulant_oracle(entry):
    n, offsets, power = entry
    diffs = {(a - b) % n for a in offsets for b in offsets}
    words = list(itertools.product(range(n), repeat=power))
    return clique_oracle(words, lambda x, y: all((b - a) % n in diffs for a, b in zip(x, y)))


def random_table_oracle(entry):
    ch = wl.random_table(*entry)
    xs = list(ch.iter_inputs())
    return clique_oracle(xs, lambda x, y: bool(ch.table[x] & ch.table[y]))


def hamming_oracle(entry):
    a, s, blocks = entry
    covered = {i for coords, _, _ in blocks for i in coords}

    def confusable(x, y):
        if any(x[i] != y[i] for i in range(s) if i not in covered):
            return False
        return all(sum(x[i] != y[i] for i in coords) <= 2 * t + e
                   for coords, t, e in blocks)

    return clique_oracle(list(itertools.product(range(a), repeat=s)), confusable)


def beta_oracle(key):
    a, u, d = key
    words = list(itertools.product(range(a), repeat=u))
    return clique_oracle(words, lambda x, y: codes.hamming_distance(x, y) < d)


def relay_oracle(entry):
    name, q, seed, edges = entry
    net, code = wl.relay_code(name, q, seed)
    adv = network.AdversarySpec(blocks=(network.AdvBlock(set(edges), 1, 0),))
    fans = {x: network.adversarial_fanouts(net, code, adv, x)["T"]
            for x in network.global_inputs(net)}
    xs = list(fans)
    return clique_oracle(xs, lambda x, y: bool(fans[x] & fans[y]))


ORACLES = {"circulant": circulant_oracle, "random_table": random_table_oracle,
           "hamming": hamming_oracle, "beta": beta_oracle, "linear_relay": relay_oracle}


def oracle_value(family, entry):
    alpha = ORACLES[family](entry)
    return math.log(alpha, entry[0]) if family == "hamming" else alpha


def program_value(family, entry):
    if family == "circulant":
        return channel.one_shot_capacity(wl.circulant_channel(*entry)).size
    if family == "random_table":
        return channel.one_shot_capacity(wl.random_table(*entry)).size
    if family == "beta":
        a, u, d = entry
        return codes.beta(a, u, d, node_budget=None).size
    if family == "hamming":
        spec = wl.hamming_spec(*entry)
        return hamming.brute_force_capacity(spec).value
    if family == "linear_relay":
        name, q, seed, edges = entry
        net, code = wl.relay_code(name, q, seed)
        adv = network.AdversarySpec(blocks=(network.AdvBlock(set(edges), 1, 0),))
        return channel.one_shot_capacity(network.adversarial_channel(net, code, adv, "T")).size
    if family == "region":
        region = wl._region_job(entry, None).fn()
        return [[sorted(q.subset), q.bound, q.exact] for q in region.inequalities]
    if family == "impossibility":
        out = wl._impossibility_job(entry, None).fn()
        return {"values": [round(v, 9) for _, v in out["results"]],
                "all_below": out["all_below_target"]}
    if family == "adversary_free":
        name, demands, q, build_seed, _edge = entry
        net = wl.make_network(name, tuple(range(q)))
        try:
            schemes.build_adversary_free(net, demands, q, seed=build_seed)
        except DrawsExhausted:
            return "DrawsExhausted"
        return "built"
    raise KeyError(family)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--out", default=str(HERE / "reference.json"))
    args = p.parse_args()
    refs = {}
    for family, entries in wl.catalogue_keys().items():
        refs[family] = {}
        for entry in entries:
            if family not in ORACLES:
                value = program_value(family, entry)
                sources = {"program": value}
            else:
                sources = {"program": timed(program_value, family, entry, args.seconds),
                           "networkx": timed(oracle_value, family, entry, args.seconds),
                           "literature": LITERATURE.get((family, entry))}
                found = [v for v in sources.values() if v is not None]
                if not found:
                    raise SystemExit(f"{family} {entry}: no source finished")
                if any(abs(v - found[0]) > 1e-9 for v in found):
                    raise SystemExit(f"{family} {entry}: sources disagree {sources}")
                value = found[0]
            refs[family][str(entry)] = value
            agreed = ",".join(k for k, v in sources.items() if v is not None)
            print(f"{family:14s} {agreed:28s} {entry} -> {value}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
