"""Spans and counters at the layer boundaries of advnet, installed from
outside the package.

`Tracer.install` replaces each boundary function or method with a wrapper,
in the defining module and in every module that binds the name itself, so
a call is recorded whichever name it goes through.  Span boundaries record
(name, start, end, parent, job); counter boundaries only count calls, since
field operations and confusability tests run millions of times per run.
Spans stay in memory until `write`.  While `active` is false the wrappers
only forward calls, so output checks do not count as layer work.
"""

import json
import time

from advnet import channel, codes, gf, hamming, network, regions, schemes, search

# boundary -> functions (module, attribute) or methods (class, attribute)
SPANS = {
    "gf.rref": [(gf.Matrix, "rank"), (gf.Matrix, "right_inverse")],
    "gf.matmul": [(gf.Matrix, "__matmul__")],
    "gf.make": [(gf, "make_field"), (gf, "make_extension")],
    "codes.rank_decode": [(codes.RankCode, "rank_decode")],
    "codes.beta": [(codes, "beta")],
    "codes.decode_hamming": [(codes, "decode_hamming")],
    "search.mis": [(search, "max_independent_set"), (channel, "max_independent_set"),
                   (codes, "max_independent_set")],
    "search.greedy": [(search, "greedy_independent_set"), (search, "greedy_clique_cover_size"),
                      (channel, "greedy_independent_set"),
                      (channel, "greedy_clique_cover_size")],
    "channel.adjacency": [(channel, "confusability_adjacency")],
    "channel.capacity": [(channel, "one_shot_capacity"), (hamming, "one_shot_capacity")],
    "hamming.brute_force_capacity": [(hamming, "brute_force_capacity")],
    "network.fanouts": [(network, "adversarial_fanouts"), (regions, "adversarial_fanouts")],
    "network.evaluate": [(network, "evaluate")],
    "network.cuts": [(network, "enumerate_minimal_cuts"), (network, "min_cut"),
                     (regions, "enumerate_minimal_cuts"), (regions, "min_cut"),
                     (schemes, "min_cut")],
    "regions.bound": [(regions, name) for name in (
        "theo1_region", "theo2_region", "singleton_hamming_region",
        "product_alphabet_region", "overlap_region", "rank_region")],
    "regions.verify": [(regions, "verify_one_shot"), (regions, "verify_n_shot"),
                       (regions, "verify_compound")],
    "schemes.build": [(schemes, name) for name in (
        "build_adversary_free", "build_achiev1", "build_achiev2",
        "build_product_alphabet", "double_relay_scheme")],
    "schemes.transfer": [(schemes, "linear_transfer_matrices")],
}

COUNTERS = {
    "gf.field_op": [(gf.PrimeField, name) for name in ("add", "neg", "mul", "inv")]
    + [(gf.ExtensionField, name) for name in ("add", "neg", "mul", "inv")]
    + [(gf.Field, "sub"), (gf.Field, "pow")],
    "channel.confusable": [(cls, "confusable") for cls in (
        channel.Channel, channel.SymbolicChannel, channel.ProductChannel,
        channel.ConcatChannel, channel.UnionChannel)],
    "hamming.fanout": [(hamming, "fanout")],
}

# The `Scheme.decoders` callables are per-scheme closures; `wrap_decoders`
# wraps them on the schemes a workload builds.
DECODE = "schemes.decode"

BOUNDARIES = tuple(SPANS) + (DECODE,)


def _vertices(args, result):
    return len(args[0])


def _observations(args, result):
    return sum(len(v) for v in result.values()) if result is not None else 0


def _exact(args, result):
    return int(result is not None and result.exact)


# boundary -> function of (args, result), summed over calls; reported as
# search.mis.vertices, network.fanouts.size and codes.beta.exact_frac
STATS = {
    "search.mis": _vertices,
    "network.fanouts": _observations,
    "codes.beta": _exact,
}


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent index, job, self]
        self.stack = []
        self.child_time = []
        self.counts = {name: 0 for name in COUNTERS}
        self.stats = {name: 0 for name in STATS}
        self.job = "setup"
        self.active = True          # off while the benchmark checks outputs

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every boundary for the rest of the process."""
        for name, targets in SPANS.items():
            for owner, attr in targets:
                setattr(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        for name, targets in COUNTERS.items():
            for owner, attr in targets:
                setattr(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))

    def wrap_decoders(self, scheme):
        scheme.decoders = {t: self._span_wrapper(DECODE, fn)
                           for t, fn in scheme.decoders.items()}

    def _span_wrapper(self, name, fn):
        tracer = self
        stat = STATS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.leave(name)
                if stat is not None:
                    tracer.stats[name] += stat(args, result)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        tracer = self
        counts = self.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- spans -------------------------------------------------------------------

    def enter(self):
        self.stack.append((len(self.spans), time.perf_counter()))
        self.spans.append(None)
        self.child_time.append(0.0)

    def leave(self, name):
        end = time.perf_counter()
        index, start = self.stack.pop()
        children = self.child_time.pop()
        duration = end - start
        if self.child_time:
            self.child_time[-1] += duration
        parent = self.stack[-1][0] if self.stack else -1
        self.spans[index] = [name, start, end, parent, self.job, duration - children]

    # -- results -----------------------------------------------------------------

    def layer_metrics(self):
        """calls and self time per boundary, counts and stats."""
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = (0, "count")
            out[f"{name}.self_s"] = (0.0, "s")
        for name, _start, _end, _parent, _job, self_s in self.spans:
            calls, _ = out[f"{name}.calls"]
            total, _ = out[f"{name}.self_s"]
            out[f"{name}.calls"] = (calls + 1, "count")
            out[f"{name}.self_s"] = (total + self_s, "s")
        for name, count in self.counts.items():
            out[f"{name}.calls"] = (count, "count")
        out["search.mis.vertices"] = (self.stats["search.mis"], "count")
        out["network.fanouts.size"] = (self.stats["network.fanouts"], "count")
        beta_calls = out["codes.beta.calls"][0]
        out["codes.beta.exact_frac"] = (
            self.stats["codes.beta"] / beta_calls if beta_calls else 0.0, "ratio")
        return out

    def write(self, path):
        """Spans as JSON: a name table and rows [name, start, end, parent,
        job, self]; times in seconds from the first span."""
        names = sorted(BOUNDARIES)
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - origin, 7), round(e - origin, 7), p, j, round(x, 7)]
                for n, s, e, p, j, x in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent", "job", "self"],
                       "spans": rows}, fh, separators=(",", ":"))
