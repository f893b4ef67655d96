"""Combinational networks, network codes, and the channels they induce.

A network is a directed acyclic multigraph with sources, terminals, and a
fixed total order on edges extending the path order (computed here as a
stable sort by topological depth of the tail, then by natural edge id).
Every edge carries one symbol of the network alphabet per use, possibly
replaced by the erasure symbol.  Network codes assign to each intermediate
vertex a total function from incoming to outgoing values; adversaries
change an edge's value as its head reads it, before any downstream use.

Each acyclic network compiles a plan once, on edge positions: one step
per vertex that emits (in edge order) or only reads, such as a terminal,
holding the vertex, its source index, its in-edges, its out-edges as one
slice (edges sort by their tail first) and the positions it or a later
step reads or an earlier terminal read.  One sweep, `_forward`, walks a
plan over states that hold edge values in a list by position, so a write
is one slice assignment and a branch one list copy: before each step,
states equal on the budget and on those positions merge; the step reads
its in-edges jointly, in one read(ps, values, spare) that lists every
in-tuple they may read as with the budget it leaves, then writes its
out-edges.  A relay's in-edges are read by no later step, so a relay
branches once per vertex: per distinct (budget, in-values) it takes one
joint read (`_relay_reads`) and keeps the distinct (output, budget left)
they give (`_relay_writes`), calling its function once per distinct
in-tuple; sweeps that share one dict share that work.  Any other step, an
earlier terminal above all, keeps every joint read in the states, as
those are its observations; the joint reads of a last terminal without
out-edges are its fan-out, so no end state is built.  `evaluate` and
`cut_to_sink_channel` (on the part of the plan that feeds the terminal)
sweep without reads from a start that holds the overrides: an edge in it
keeps its start value whatever its tail writes.  Cyclic networks have no
plan; evaluating one raises CyclicGraph.  `one_vertex_sweep` builds from
the relay helpers a sweep for codes that differ at one relay only, such
as the relay maps of `schemes.linear_impossibility`: each input runs up
to the relay once, each code runs the write phase, and the rest of the
plan runs once per distinct state after the relay, for all codes.

An adversary is a set of `hamming.Block`s whose coordinates are edge ids;
as in `hamming`, blocks may share edges only when none of them carries
erasures, and a result that needs disjoint blocks checks
`hamming.disjoint(blocks)`.  `adversarial_fanouts` reads a Hamming-type
adversary's edges through `hamming.reader`'s joint read in plan order, the
one statement of what the blocks may do, which memoizes the patterns of
each (in-edges, budget) and retires each block after its last edge; a
per-symbol adversary's one block, over sub-symbol positions, reads every
edge value as its `ball` of the block's `hamming.actions`, so in-edges read
jointly as the product of their balls.  A network keeps each adversary's
joint read, checked once, for all inputs.  `adversarial_channels`
makes the terminals' channels, on which `regions` verifies codes; their
inputs share one dict of relay work, and for a linear code under an
error-only adversary they sweep the zero input alone and translate its
fan-outs by each input's clean observation, read from the code's
`linear_transfer_matrices` with no sweep.
`AdversarySpec.clip` makes any adversary a `hamming` spec on a cut.
`check_demands` is the one cut-set demand check.
"""

import functools
import heapq
import itertools
import math
import re
from collections import defaultdict
from dataclasses import dataclass

from . import gf
from .channel import STAR, SymbolicChannel
from .errors import (AlphabetMismatch, BadFreeze, CyclicGraph, IndexOutOfRange,
                     Infeasible, InvalidParams, MissingCodeFunction, NotACut,
                     SearchLimitExceeded, UnsupportedVariant)
from .hamming import (Block as AdvBlock, HammingSpec, RankMetricSpec, actions,
                      ball, ball_size, check_blocks, covered, reader)

RANK = "rank"
PER_SYMBOL = "per_symbol"


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


def _natural_key(name):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", str(name)) if part)


class Network:
    """Directed acyclic multigraph with sources, terminals, and alphabet."""

    def __init__(self, vertices, edges, sources, terminals, alphabet=None):
        self.vertices = tuple(vertices)
        self.sources = tuple(sources)
        self.terminals = tuple(terminals)
        self.alphabet = tuple(alphabet) if alphabet is not None else None
        raw = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        for names, what in ((self.vertices, "vertex names"), ([e.id for e in raw], "edge ids")):
            if len(set(names)) != len(names):
                raise InvalidParams(f"duplicate {what}")
        vs = set(self.vertices)
        for e in raw:
            if e.tail not in vs or e.head not in vs:
                raise InvalidParams(f"edge {e.id} touches an unknown vertex")
        if not vs.issuperset(self.sources + self.terminals):
            raise InvalidParams("a source or terminal is not a vertex")
        self._cyclic = False
        try:
            order = self._topological_vertex_index(raw)
            raw.sort(key=lambda e: (order[e.tail], _natural_key(e.id)))
        except CyclicGraph:
            self._cyclic = True
        self.edges = tuple(raw)
        self.edge_by_id = {e.id: e for e in self.edges}
        self._position = {e.id: i for i, e in enumerate(self.edges)}
        self._symbols = frozenset(self.alphabet) if alphabet is not None else None
        self._reads = {}    # see `_adversary_read`
        ins = {v: [] for v in self.vertices}
        outs = {v: [] for v in self.vertices}
        for e in self.edges:
            ins[e.head].append(e)
            outs[e.tail].append(e)
        self._in = {v: tuple(es) for v, es in ins.items()}
        self._out = {v: tuple(es) for v, es in outs.items()}
        pos = self._position
        self._observed = tuple((t, tuple(pos[e.id] for e in ins[t])) for t in self.terminals)
        # the plan (see the module docstring); step i keeps the positions
        # written before it that it, a later step or an earlier terminal
        # reads: edge e from step at[tail] + 1 through step at[head], or to
        # the end when its head is a terminal
        stepped = [*dict.fromkeys(e.tail for e in self.edges),
                   *(v for v in self.vertices if ins[v] and not outs[v])]
        at = {v: i for i, v in enumerate(stepped)}
        kept = [[] for _ in stepped]
        for p, e in enumerate(self.edges):
            end = len(stepped) if e.head in self.terminals else at[e.head] + 1
            for i in range(at[e.tail] + 1, end):
                kept[i].append(p)
        self._plan = None if self._cyclic else tuple(
            (v, self.sources.index(v) if v in self.sources else None,
             tuple(pos[e.id] for e in ins[v]),
             slice(pos[outs[v][0].id], pos[outs[v][-1].id] + 1) if outs[v] else None,
             tuple(kept[i]))
            for i, v in enumerate(stepped))

    def _topological_vertex_index(self, edges):
        """Kahn's order, the ready vertex of least natural name first."""
        indeg = {v: 0 for v in self.vertices}
        outs = {v: [] for v in self.vertices}
        for e in edges:
            indeg[e.head] += 1
            outs[e.tail].append(e.head)
        item = {v: (_natural_key(v), i, v) for i, v in enumerate(self.vertices)}
        ready = [item[v] for v in self.vertices if indeg[v] == 0]
        heapq.heapify(ready)
        order = {}
        while ready:
            v = heapq.heappop(ready)[2]
            order[v] = len(order)
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, item[w])
        if len(order) != len(self.vertices):
            raise CyclicGraph("cycle detected")
        return order

    # -- structure accessors --------------------------------------------

    def in_edges(self, v):
        return self._in[v]

    def out_edges(self, v):
        return self._out[v]

    @property
    def intermediates(self):
        st = set(self.sources) | set(self.terminals)
        return tuple(v for v in self.vertices if v not in st)

    def source_index(self, s):
        return self.sources.index(s)

    def _alphabet(self, alphabet=None):
        alphabet = alphabet if alphabet is not None else self.alphabet
        if alphabet is None:
            raise AlphabetMismatch("no network alphabet given")
        return tuple(alphabet)

    def precedes(self, e1, e2):
        """Path order: a directed path starts with e1 and ends with e2."""
        return e1.id == e2.id or e2.tail in _reachable(self, {e1.head})

    def edge_positions(self, edge_ids):
        """The given edge ids sorted into the global edge order; an id the
        network lacks raises IndexOutOfRange."""
        try:
            return sorted(edge_ids, key=self._position.__getitem__)
        except KeyError:
            raise IndexOutOfRange(f"an edge id outside the network in {list(edge_ids)}") from None


def validate(net):
    """Check the defining properties; returns a list of violations."""
    problems = []
    if net._cyclic:
        problems.append("graph contains a directed cycle")
        return problems
    if not net.sources:
        problems.append("no sources")
    if not net.terminals:
        problems.append("no terminals")
    if set(net.sources) & set(net.terminals):
        problems.append("sources and terminals overlap")
    for s in net.sources:
        if net.in_edges(s):
            problems.append(f"source {s} has incoming edges")
    for t in net.terminals:
        if net.out_edges(t):
            problems.append(f"terminal {t} has outgoing edges")
    reach_from = {v: _reachable(net, {v}) for v in net.vertices}
    for s in net.sources:
        for t in net.terminals:
            if t not in reach_from[s]:
                problems.append(f"no directed path from {s} to {t}")
    for v in net.intermediates:
        if not any(v in reach_from[s] for s in net.sources):
            problems.append(f"vertex {v} unreachable from every source")
        elif not any(t in reach_from[v] for t in net.terminals):
            problems.append(f"vertex {v} reaches no terminal")
    return problems


def _reachable(net, start_vertices, blocked=()):
    """Vertices reachable from the start vertices along edges whose ids
    are not blocked."""
    seen = set(start_vertices)
    stack = list(start_vertices)
    while stack:
        v = stack.pop()
        for e in net.out_edges(v):
            if e.id not in blocked and e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return seen


def linear_extension(net):
    """Edge ids in the canonical total order."""
    if net._cyclic:
        raise CyclicGraph("cannot order edges of a cyclic graph")
    return tuple(e.id for e in net.edges)


# -- cuts and flows ----------------------------------------------------------

def _max_flow_unit_edges(net, source_caps, terminal):
    """Max flow from a virtual super-source (capacities per source) to the
    terminal, each network edge of capacity one.  Returns (value, flow)
    where flow maps edge id -> 0/1 and source name -> used units."""
    arcs = []      # (tail, head, cap, id)
    for e in net.edges:
        arcs.append([e.tail, e.head, 1, e.id])
    for s, cap in source_caps.items():
        arcs.append(["__SRC__", s, cap, f"__src_{s}"])
    adj = {}
    for idx, (t, h, c, _eid) in enumerate(arcs):
        adj.setdefault(t, []).append((idx, False))
        adj.setdefault(h, []).append((idx, True))
    flow = [0] * len(arcs)
    value = 0
    while True:
        parent = {"__SRC__": None}
        queue = ["__SRC__"]
        while queue and terminal not in parent:
            v = queue.pop(0)
            for idx, rev in adj.get(v, ()):  # forward if not rev
                t, h, c, _eid = arcs[idx]
                if not rev and flow[idx] < c and h not in parent:
                    parent[h] = (idx, False)
                    queue.append(h)
                elif rev and flow[idx] > 0 and t not in parent:
                    parent[t] = (idx, True)
                    queue.append(t)
        if terminal not in parent:
            break
        v = terminal
        while v != "__SRC__":
            idx, rev = parent[v]
            if rev:
                flow[idx] -= 1
                v = arcs[idx][1]
            else:
                flow[idx] += 1
                v = arcs[idx][0]
        value += 1
    return value, {arc[3]: f for arc, f in zip(arcs, flow)}


BIG = 1 << 20


def source_subsets(n):
    """The non-empty subsets of range(n) as frozensets, smallest first."""
    return [frozenset(js) for r in range(1, n + 1)
            for js in itertools.combinations(range(n), r)]


def min_cut(net, source_subset, terminal):
    """Minimum number of edges separating the given sources from the
    terminal (max-flow with unit edge capacities)."""
    caps = dict.fromkeys(_as_sources(net, source_subset), BIG)
    return _max_flow_unit_edges(net, caps, terminal)[0]


def _as_sources(net, source_subset):
    subset = [net.sources[s] if isinstance(s, int) else s for s in source_subset]
    if not subset:
        raise InvalidParams("source subset must be non-empty")
    return subset


def is_cut(net, edge_ids, source_subset, terminal):
    """Whether removing the edges disconnects the sources from the terminal."""
    return terminal not in _reachable(net, _as_sources(net, source_subset), set(edge_ids))


BIPARTITION_LIMIT = 1 << 20


def enumerate_minimal_cuts(net, source_subset, terminal):
    """All inclusion-minimal edge cuts between the sources and the terminal,
    via the crossing sets of vertex bipartitions."""
    subset = set(_as_sources(net, source_subset))
    others = [v for v in net.vertices if v not in subset and v != terminal]
    if 2 ** len(others) > BIPARTITION_LIMIT:
        raise SearchLimitExceeded("too many vertex bipartitions")
    crossings = set()
    for mask in range(2 ** len(others)):
        side = set(subset)
        for i, v in enumerate(others):
            if (mask >> i) & 1:
                side.add(v)
        crossing = frozenset(e.id for e in net.edges
                             if e.tail in side and e.head not in side)
        crossings.add(crossing)
    minimal = []
    for c in sorted(crossings, key=lambda c: (len(c), sorted(c))):
        if any(m <= c for m in minimal):
            continue
        minimal.append(c)
    return [set(c) for c in minimal]


def check_demands(net, demands, slack=0):
    """The cut-set bound (Ahlswede, Cai, Li & Yeung, IEEE T-IT 2000) less
    `slack`: Infeasible(J, t) for the first source subset J, smallest first,
    and terminal t with sum_J demands > min_cut(J, t) - slack."""
    for js in source_subsets(len(net.sources)):
        need = sum(demands[j] for j in js)
        for t in net.terminals:
            if need > min_cut(net, js, t) - slack:
                raise Infeasible(set(js), t)


def edge_disjoint_paths(net, demands):
    """Per-terminal systems of edge-disjoint source-to-terminal paths with
    exactly demands[i] paths starting at source i.  Raises Infeasible from
    `check_demands` when impossible."""
    if len(demands) != len(net.sources):
        raise InvalidParams("one demand per source required")
    caps = {s: a for s, a in zip(net.sources, demands) if a}
    flows = {t: _max_flow_unit_edges(net, caps, t) for t in net.terminals}
    if any(value < sum(demands) for value, _ in flows.values()):
        check_demands(net, demands)   # by max-flow/min-cut some J's demands exceed its min cut
    return {t: _decompose_paths(net, flow, caps, t) for t, (_, flow) in flows.items()}


def _decompose_paths(net, flow, caps, terminal):
    used = {eid: v for eid, v in flow.items() if v > 0 and not eid.startswith("__src_")}
    paths = []
    for s, cap in caps.items():
        count = flow.get(f"__src_{s}", 0)
        for _ in range(count):
            path = []
            v = s
            while v != terminal:
                nxt = next(e for e in net.out_edges(v) if used.get(e.id))
                used[nxt.id] -= 1
                path.append(nxt.id)
                v = nxt.head
            paths.append((s, tuple(path)))
    return paths


# -- network codes -----------------------------------------------------------

class TableVertex:
    """Explicit vertex function as a mapping from in-tuples to out-tuples;
    an in-tuple the table lacks raises MissingCodeFunction."""

    def __init__(self, table):
        self.table = dict(table)

    def __call__(self, values):
        try:
            return self.table[tuple(values)]
        except KeyError:
            raise MissingCodeFunction(f"no table entry for in-tuple {tuple(values)}") from None


class LinearVertex:
    """Matrix vertex function over F_q acting on symbols that are field
    elements (m = None) or length-m tuples over the field, digit by digit.
    Either way the product is `gf.mat_vec_row`, once per digit.  Erasures
    are replaced by zero before the product.
    `matrix` is the tuple of rows, one per in-edge."""

    def __init__(self, fld, matrix, m=None):
        self.field = fld
        self._coefficients = gf.Matrix(fld, matrix)
        self.matrix = self._coefficients.rows
        self.m = m

    def __call__(self, values):
        if STAR in values:
            zero = 0 if self.m is None else (0,) * self.m
            values = [zero if v == STAR else v for v in values]
        if self.m is None:
            return gf.mat_vec_row(self.field, values, self._coefficients)
        return _digitwise(self.field, values, self._coefficients)


def _digitwise(fld, values, coefficients):
    """The coefficient matrix applied to tuple symbols, one digit at a time."""
    return tuple(zip(*[gf.mat_vec_row(fld, digit, coefficients) for digit in zip(*values)]))


class FuncVertex:
    def __init__(self, fn):
        self.fn = fn

    def __call__(self, values):
        return self.fn(*values)


class NetworkCode:
    """Per-intermediate-vertex functions from in-edge to out-edge values."""

    def __init__(self, functions):
        self.functions = dict(functions)

    def fn(self, vertex):
        try:
            return self.functions[vertex]
        except KeyError:
            raise MissingCodeFunction(f"no function for vertex {vertex}")


def identity_routing_code(net):
    """Forward the i-th incoming value on the i-th outgoing edge (requires
    matching degrees); handy for path-style test networks."""
    fns = {}
    for v in net.intermediates:
        r, s = len(net.in_edges(v)), len(net.out_edges(v))
        if r < s:
            raise InvalidParams(f"vertex {v} cannot route {r} inputs to {s} outputs")
        fns[v] = (lambda s=s: lambda values: tuple(values[:s]))()
    return NetworkCode(fns)


# -- evaluation ---------------------------------------------------------------

def global_inputs(net, alphabet=None):
    """Iterator over all global inputs (tuple of per-source tuples)."""
    return _input_space(net, alphabet)[1]()


class EvalResult:
    __slots__ = ("edge_values", "observations")

    def __init__(self, edge_values, observations):
        self.edge_values = edge_values
        self.observations = observations


def _steps(net):
    if net._plan is None:
        raise CyclicGraph("cannot evaluate a cyclic network")
    return net._plan


def _merge(states, kept):
    """One state per distinct (budget, values at the `kept` positions)."""
    return list({(left, *map(values.__getitem__, kept)): (values, left)
                 for values, left in states}.values())


def _relay_reads(keys, ins, joint):
    """The joint reads (key, in-tuple read, budget left) of the in-edges at
    positions `ins`, for each key (budget, *values the edges hold) in turn:
    one joint(ins, values, budget) per key."""
    return [(key, got, left) for key in keys for got, left in joint(ins, key[1:], key[0])]


def _fit(out, outs):
    """A vertex function's output, if it fills the out-edge slice `outs`."""
    if len(out) != outs.stop - outs.start:
        raise InvalidParams(f"{len(out)} output values for {outs.stop - outs.start} out-edges")
    return out


def _relay_writes(fn, outs, reads, made, ends):
    """Into `ends`, a `defaultdict(dict)`, per key of the joint `reads`, a
    dict whose values are the distinct (output, budget left) they give.
    `made` maps in-tuples to outputs; fn runs once per in-tuple it lacks."""
    for key, got, left in reads:
        out = made.get(got)
        if out is None:
            out = made[got] = _fit(fn(got), outs)
        ends[key].setdefault((left, *out), (out, left))


def _forward(net, code, steps, x, read, spare=(), start=(), states=None, stop=None,
             shared=None):
    """The end states (edge values by position, spare budget) of one sweep
    over `steps`, or over its first `stop` steps, from `states` or else
    from one state that holds `start`, (position, value) pairs that hold
    again before each step, whatever their tails wrote.  A step reads its
    in-edges at positions ps, holding values, jointly as any (in-tuple,
    spare') in read(ps, values, spare), or as their values when read is
    None, then writes its out-edge slice: a source x[src], another vertex
    its function of what it read.  Before each step, states that agree on
    the budget and on every value still to be read or read by a terminal
    merge.

    A relay, a vertex other than a source with out-edges whose in-edges no
    later step reads (the last step keeps every edge a terminal reads),
    branches once: each state takes one successor per distinct (output,
    budget left) of the joint reads of its (budget, in-values), and its
    in-edges keep their written values.  `shared` keeps per relay its
    function, its output per in-tuple and those pairs per (budget,
    in-values).  Any other step, a terminal above all, branches once per
    joint read and keeps every read.  A sweep without branches (read None)
    ends in one state."""
    last = steps[-1][4]
    if states is None:
        states = [([None] * len(net.edges), spare)]
    for vertex, src, ins, outs, kept in steps[:stop]:
        if len(states) > 1:
            states = _merge(states, kept)
        for p, v in start:
            for values, _ in states:
                values[p] = v
        if read and src is None and outs and ins and ins[0] not in last:
            fn, made, ends = shared.get(vertex) or shared.setdefault(
                vertex, (code.fn(vertex), {}, defaultdict(dict)))
            entering = {}
            for values, left in states:
                entering.setdefault((left, *map(values.__getitem__, ins)), []).append(values)
            _relay_writes(fn, outs, _relay_reads([key for key in entering if key not in ends],
                                                 ins, read), made, ends)
            states = []
            for key, group in entering.items():
                pairs = ends[key].values()
                # a state's first successor reuses its list
                for values in group:
                    for j, (out, left) in enumerate(pairs):
                        if j:
                            values = values.copy()
                        values[outs] = out
                        states.append((values, left))
            continue
        if read and ins:
            branched = []
            for values, spare in states:
                # a state's last successor reuses its list
                *others, (got, left) = read(ins, tuple(map(values.__getitem__, ins)), spare)
                for got_other, left_other in others:
                    copy = values.copy()
                    for p, w in zip(ins, got_other):
                        copy[p] = w
                    branched.append((copy, left_other))
                for p, w in zip(ins, got):
                    values[p] = w
                branched.append((values, left))
            states = branched
        if outs:
            fn = code.fn(vertex) if src is None else None
            for values, _ in states:
                values[outs] = x[src] if fn is None else _fit(
                    fn(tuple(map(values.__getitem__, ins))), outs)
    return states


def _observe(net, values):
    return {t: tuple(map(values.__getitem__, at)) for t, at in net._observed}


def _check_input(net, x, symbols):
    """Raise AlphabetMismatch unless x holds one tuple per source, of one
    symbol per out-edge, from the set `symbols` (any symbol if None)."""
    if [len(xs) for xs in x] != [len(net.out_edges(s)) for s in net.sources]:
        raise AlphabetMismatch(f"input {x} is not one tuple per source of one symbol per out-edge")
    if symbols is not None and not symbols.issuperset(itertools.chain(*x)):
        raise AlphabetMismatch(f"input {x} holds a symbol outside the alphabet")


def evaluate(net, code, x, action=None):
    """One sweep in edge order.  x is a tuple of per-source tuples of network
    symbols; action maps edge ids to override values (symbols or the erasure
    symbol), read in place of the edges' values; an id the network lacks
    raises IndexOutOfRange."""
    action = action or {}
    net.edge_positions(action)
    _check_input(net, x, net._symbols)
    (values, _), = _forward(net, code, _steps(net), x, None,
                            start=[(net._position[eid], v) for eid, v in action.items()])
    return EvalResult(dict(zip(net._position, values)), _observe(net, values))


# -- deterministic channels ----------------------------------------------------

def _input_space(net, alphabet, keep=None):
    """(count, iterator factory) over inputs restricted to sources `keep`
    (all sources when None)."""
    alphabet = net._alphabet(alphabet)
    idxs = range(len(net.sources)) if keep is None else keep
    widths = [len(net.out_edges(net.sources[i])) for i in idxs]

    def factory():
        return itertools.product(*[itertools.product(alphabet, repeat=w) for w in widths])

    return len(alphabet) ** sum(widths), factory


def _kept_sources(net, keep, frozen):
    """Validate a keep/frozen pair: `keep` (source indices, or None for
    every source) must be a proper non-empty subset of the sources, and
    `frozen` must pin every source outside it."""
    if keep is None:
        return None
    keep = tuple(keep)
    if not keep or len(set(keep)) >= len(net.sources):
        raise BadFreeze("keep must be a proper non-empty subset of sources")
    if set(range(len(net.sources))) - set(keep) - set(frozen or {}):
        raise BadFreeze("frozen inputs must cover all non-selected sources")
    return keep


def _assemble_global(net, keep, xs, frozen):
    if keep is None:
        return tuple(xs)
    full = [None] * len(net.sources)
    for i, x in zip(keep, xs):
        full[i] = x
    for i, x in frozen.items():
        full[i] = tuple(x)
    return tuple(full)


def transfer_channel(net, code, edge_ids, alphabet=None, keep=None, frozen=None):
    """Deterministic channel from source inputs to the values on the given
    edges, in edge order.  With `keep` given, only those sources' inputs
    vary and `frozen` maps every other source index to its fixed input."""
    keep = _kept_sources(net, keep, frozen)
    ordered = net.edge_positions(edge_ids)

    def fanout_fn(xs):
        x = _assemble_global(net, keep, xs, frozen)
        res = evaluate(net, code, x)
        return (tuple(res.edge_values[eid] for eid in ordered),)

    return SymbolicChannel(_input_space(net, alphabet, keep), fanout_fn)


def _cone(net, terminal, resolved):
    """The plan steps that compute in(terminal), stopped at resolved edges."""
    needed = set()
    stack = [e for e in net.in_edges(terminal) if e.id not in resolved]
    while stack:
        e = stack.pop()
        if e.tail in net.sources:
            raise NotACut(f"{terminal} depends on unresolved source edge {e.id}")
        if e.tail not in needed:
            needed.add(e.tail)
            stack.extend(ie for ie in net.in_edges(e.tail) if ie.id not in resolved)
    return [step for step in _steps(net) if step[0] in needed or step[0] == terminal]


def cut_to_sink_channel(net, code, cut_ids, terminal, alphabet=None,
                        keep=None, frozen=None):
    """Deterministic channel from values on a cut to the terminal's
    incoming values, honoring the priority rule for non-antichain cuts.

    Inputs range over the extended alphabet on the cut edges (edge order);
    coordinates of cut edges that the sweep never reads are ignored.  With
    keep/frozen given (as for `transfer_channel`), the cut needs to
    separate only the kept sources and the frozen sources' emissions
    resolve the sweep.
    """
    keep = _kept_sources(net, keep, frozen)
    alphabet_t = net._alphabet(alphabet)
    cut_list = net.edge_positions(cut_ids)
    cut_set = set(cut_list)
    watched = _as_sources(net, keep) if keep is not None else list(net.sources)
    if not is_cut(net, cut_set, watched, terminal):
        raise NotACut(f"{sorted(cut_set)} does not separate {watched} from {terminal}")

    at = net._position
    frozen_values = []
    if keep is not None:
        for i, x in frozen.items():
            for pos, e in enumerate(net.out_edges(net.sources[i])):
                frozen_values.append((at[e.id], tuple(x)[pos]))
    steps = _cone(net, terminal, cut_set.union(net.edges[p].id for p, _ in frozen_values))
    cut_at = [at[eid] for eid in cut_list]
    in_at = [at[e.id] for e in net.in_edges(terminal)]

    ext = tuple(alphabet_t) + (STAR,)
    count = len(ext) ** len(cut_list)

    def factory():
        return itertools.product(ext, repeat=len(cut_list))

    def fanout_fn(vals):
        (values, _), = _forward(net, code, steps, None, None,
                                start=[*zip(cut_at, vals), *frozen_values])
        return (tuple(map(values.__getitem__, in_at)),)

    return SymbolicChannel((count, factory), fanout_fn)


# -- adversaries ---------------------------------------------------------------

@dataclass(frozen=True)
class AdversarySpec:
    """Network adversary: `hamming.Block`s of edge ids with error and
    erasure budgets (variant None), which may share edges only when none
    carries erasures.  The rank variant has one erasure-free block and
    serves bound computation only; the per_symbol variant has one block over
    the m sub-symbol positions of an edge value, and corrupts/erases within
    it on every edge independently."""

    blocks: tuple = ()
    variant: str = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.variant is None:
            check_blocks(self.blocks)
            return
        if self.variant not in (RANK, PER_SYMBOL):
            raise UnsupportedVariant(self.variant)
        if len(self.blocks) != 1:
            raise InvalidParams(f"a {self.variant} adversary has exactly one block")
        (coords, _, e), = self.blocks
        if self.variant == PER_SYMBOL and coords != frozenset(range(len(coords))):
            raise InvalidParams("a per_symbol block covers sub-symbols range(m)")
        if self.variant == RANK and e:
            raise InvalidParams("a rank adversary is erasure-free")

    def check_edges(self, net):
        """Raise IndexOutOfRange for a block naming an edge id net lacks;
        per-symbol blocks hold sub-symbol positions and are exempt."""
        if self.variant != PER_SYMBOL:
            for b in self.blocks:
                net.edge_positions(b.coords)

    def clip(self, cut, alphabet_size):
        """The adversary on the cut's edges as a `hamming` spec on
        coordinates 0..|cut|-1 in the order of `cut` (per_symbol: on the
        m |cut| sub-symbols, one block per edge): a `RankMetricSpec` with
        m = 1 for the rank variant, else a `HammingSpec`."""
        if self.variant == PER_SYMBOL:
            (coords, t, e), = self.blocks
            m = len(coords)
            return HammingSpec(alphabet_size, m * len(cut), tuple(
                AdvBlock(range(i * m, (i + 1) * m), t, e) for i in range(len(cut))))
        blocks = tuple(AdvBlock({i for i, eid in enumerate(cut) if eid in b.coords},
                                b.t, b.e) for b in self.blocks)
        if self.variant == RANK:
            (coords, t, _), = blocks
            return RankMetricSpec(alphabet_size, 1, len(cut), coords, t)
        return HammingSpec(alphabet_size, len(cut), blocks)


def adversary_free():
    return AdversarySpec(blocks=())


def full_edge_adversary(net, t, e=0):
    return AdversarySpec(blocks=(AdvBlock((edge.id for edge in net.edges), t, e),))


def _count_actions(net, adv, alphabet):
    if adv.variant is None:
        # the blocks' balls multiply; the union's ball bounds the words too
        a = len(alphabet)
        return min(math.prod(ball_size(len(b.coords), b.t, b.e, a) for b in adv.blocks),
                   ball_size(len(covered(adv.blocks)), sum(b.t for b in adv.blocks),
                             sum(b.e for b in adv.blocks), a))
    if adv.variant == PER_SYMBOL:
        (coords, t, e), = adv.blocks
        base = len({v for sym in alphabet for v in sym})
        return ball_size(len(coords), t, e, base) ** len(net.edges)
    raise UnsupportedVariant(f"cannot enumerate actions for variant {adv.variant}")


ACTION_LIMIT = 10 ** 6


def _adversary_read(net, adv, alphabet):
    """(read, spare, symbols) of an adversary over a tuple alphabet: the
    joint read of edge positions and start budget of a sweep and the
    alphabet's set.  The network keeps them per adversary and alphabet,
    once the edge and action-limit checks pass."""
    if (adv, alphabet) not in net._reads:
        adv.check_edges(net)
        if _count_actions(net, adv, alphabet) > ACTION_LIMIT:
            raise SearchLimitExceeded("adversary action space exceeds the limit")
        if adv.variant is None:
            order = tuple(p for _, _, ins, _, _ in _steps(net) for p in ins)
            blocks = tuple(AdvBlock(map(net._position.get, b.coords), b.t, b.e) for b in adv.blocks)
            read, spare = reader(blocks, alphabet, order)
            joint = read.joint
        else:   # per-symbol: _count_actions has rejected every other variant
            acts = actions(adv.blocks)
            base = sorted({v for sym in alphabet for v in sym})
            symbol_ball = functools.cache(lambda v: tuple(ball(v, acts, base)))
            joint = lambda ps, values, spare: [(got, spare) for got in
                                               itertools.product(*map(symbol_ball, values))]
            spare = ()
        net._reads[adv, alphabet] = joint, spare, frozenset(alphabet)
    return net._reads[adv, alphabet]


def _fanouts(net, code, steps, x, read, shared, spare=(), states=None):
    """Per terminal, its fan-out over the sweep of `steps` (as `_forward`).
    A last step without out-edges is not swept: the joint reads of its
    in-edges, one `_relay_reads` read per distinct (budget, in-values), are
    its fan-out."""
    vertex, _, ins, outs, _ = steps[-1]
    states = _forward(net, code, steps, x, read, spare, states=states,
                      stop=len(steps) - (outs is None), shared=shared)
    if outs is None:
        joint = frozenset(got for _, got, _ in _relay_reads(
            {(left, *map(values.__getitem__, ins)) for values, left in states}, ins, read))
    return {t: joint if t == vertex and outs is None
            else frozenset(tuple(map(values.__getitem__, at)) for values, _ in states)
            for t, at in net._observed}


def adversarial_fanouts(net, code, adv, x, alphabet=None, shared=None):
    """Fan-out sets at every terminal for global input x: the observations
    of all admissible adversary actions, from one sweep.  The network keeps
    the read per adversary and alphabet, once its checks pass; calls on one
    code, adversary and alphabet may share one dict of relay work."""
    alphabet = net._alphabet(alphabet)
    read, spare, symbols = _adversary_read(net, adv, alphabet)
    _check_input(net, x, symbols)
    return _fanouts(net, code, _steps(net), x, read, {} if shared is None else shared, spare)


def one_vertex_sweep(net, code, vertex, adv, alphabet=None):
    """Every input's fan-outs for the codes that differ only at `vertex`.

    Returns sweep(fn) -> {terminal: {x: fan-out}}, the `adversarial_fanouts`
    of every global input x, in input order, for `code` with the function
    of `vertex`, a relay (an intermediate vertex with in- and out-edges),
    replaced by fn.  The work shared across codes is done once:
    - per input, when the sweep is made: the plan up to the relay's step
      and the states entering it, and per distinct (budget, in-values) the
      joint reads of its in-edges;
    - across every fn: the end observations of the rest of the plan from
      each state after the step, memoized by the merge key the next step
      makes (the budget left and its kept positions: the relay's outputs
      and every bypass edge or earlier terminal read), shared across inputs
      unless a source steps after the relay;
    - within one fn: one call per distinct in-tuple over all inputs.
    Other relays share their work as in `_forward`.  The adversary's read
    is checked as `adversarial_fanouts` checks it.
    """
    alphabet = net._alphabet(alphabet)
    read, spare, _ = _adversary_read(net, adv, alphabet)
    steps = _steps(net)
    k = next((i for i, step in enumerate(steps) if step[0] == vertex), None)
    if vertex not in net.intermediates or k is None or not all(steps[k][2:4]):
        raise InvalidParams(f"{vertex} is not a relay with in- and out-edges")
    _, _, ins, outs, _ = steps[k]
    rest = steps[k + 1:]
    others = [p for p in rest[0][4] if not outs.start <= p < outs.stop]
    shared, keys, prefix = {}, {}, []
    memo = None if any(src is not None for _, src, *_ in rest) else {}
    for x in global_inputs(net, alphabet):
        # states that agree on the positions kept past the relay share its
        # rest, so a group enters it once per such agreement
        firsts, groups = {}, {}
        for values, left in _forward(net, code, steps, x, read, spare, stop=k, shared=shared):
            key = (left, *map(values.__getitem__, ins))
            other = tuple(map(values.__getitem__, others))
            firsts.setdefault(other, values)
            groups[key, other] = keys[key] = None
        prefix.append((x, list(groups), firsts, {} if memo is None else memo))
    reads = _relay_reads(keys, ins, read)

    def sweep(fn):
        ends = defaultdict(dict)
        _relay_writes(fn, outs, reads, {}, ends)
        fans = {t: {} for t in net.terminals}
        for x, groups, firsts, rests in prefix:
            got = []
            for key, other in groups:
                for after, (out, left) in ends[key].items():
                    end = rests.get((other, after))
                    if end is None:
                        values = firsts[other].copy()
                        values[outs] = out
                        end = rests[other, after] = _fanouts(
                            net, code, rest, x, read, shared, states=[(values, left)])
                    got.append(end)
            for t, fan in fans.items():
                fan[x] = got[0][t] if len(got) == 1 else frozenset().union(*(e[t] for e in got))
        return fans

    return sweep


def linear_transfer_matrices(net, code, fld):
    """Per-terminal transfer matrices of a linear network code: for each
    source i a matrix of shape |out(S_i)| x |in(T)| over the field, mapping
    emitted packets (as coefficients) to terminal observations.

    Each edge carries its global coding vector: a source's out-edges the
    unit vectors, and a vertex's out-edges its coefficient matrix applied to
    its in-edges' vectors, one coefficient at a time."""
    offsets = {}
    total = 0
    for s in net.sources:
        offsets[s] = total
        total += len(net.out_edges(s))
    units = [(0,) * r + (1,) + (0,) * (total - r - 1) for r in range(total)]
    values = [None] * len(net.edges)
    for vertex, src, ins, outs, _ in _steps(net):
        if outs is None:
            continue
        if src is not None:
            values[outs] = units[offsets[vertex]:offsets[vertex] + outs.stop - outs.start]
            continue
        values[outs] = _fit(_digitwise(fld, map(values.__getitem__, ins),
                                       code.fn(vertex)._coefficients), outs)
    observed = _observe(net, values)
    out = {}
    for t in net.terminals:
        per_source = {}
        for i, s in enumerate(net.sources):
            b = len(net.out_edges(s))
            rows = []
            for r in range(offsets[s], offsets[s] + b):
                rows.append(tuple(v[r] for v in observed[t]))
            per_source[i] = gf.Matrix(fld, tuple(rows))
        out[t] = per_source
    return out


def _code_field(net, code, alphabet):
    """The one field of a code whose intermediate vertices are all
    `LinearVertex`es on field elements (m = None) over a field whose
    elements are exactly `alphabet`; None for any other code."""
    fields = {fn.field if isinstance(fn, LinearVertex) and fn.m is None else None
              for fn in map(code.functions.get, net.intermediates)}
    if len(fields) != 1 or None in fields:
        return None
    fld, = fields
    return fld if set(alphabet) == set(range(fld.q)) else None


def adversarial_channels(net, code, adv, alphabet=None, keep=None, frozen=None):
    """Per terminal, the channel from (selected) source inputs to the
    terminal's observations under all admissible adversary actions.
    keep/frozen as for `transfer_channel`.

    Each input's fan-outs come from one `adversarial_fanouts` call; the
    calls share one dict of relay work (see `_forward`), which lives, as
    the fan-outs and the translation below do, only in this call.

    A linear code under an error-only adversary (Yeung & Cai, "Network
    error correction, part I/II", Comm. Inf. Syst. 2006): when every
    intermediate vertex is a `LinearVertex` on field elements over one
    field whose elements are the alphabet, and the adversary is Hamming
    type (variant None) with no erasure budget, blocks disjoint or not,
    an observation is T x + B e.  A corruption of an edge reads as any
    other symbol whatever the edge carries, so the errors e it may inject
    do not depend on x, and every input's fan-out is its clean observation
    plus the fan-out of the zero input.  The channels then share one
    `adversarial_fanouts` call, on the zero input and made on the first
    fan-out read.  The clean observation at terminal t is the sum over
    sources i of x_i T[t][i], T the code's `linear_transfer_matrices`
    (computed once per call), so an input costs no sweep: each product
    x_i T[t][i] is made once per (t, i, x_i), and products add, as the
    translate does, through the call's addition table.  Erasures are
    excluded and sweep each input: a vertex reads STAR as zero, so an
    erasure's effect depends on the value it hides.
    """
    keep = _kept_sources(net, keep, frozen)
    inputs = _input_space(net, alphabet, keep)
    alphabet = net._alphabet(alphabet)
    symbols = frozenset(alphabet)
    # relay work, fan-outs, the field's addition table and each source's
    # part of a terminal's clean observation, filled as used, and from the
    # first fan-out read on the translation or None
    shared, fans, sums, parts, shift = {}, {}, {}, {}, []

    def translation():
        fld = _code_field(net, code, alphabet)
        if fld is None or adv.variant is not None or any(b.e for b in adv.blocks):
            return None
        zero = tuple((0,) * len(net.out_edges(s)) for s in net.sources)
        return (fld, linear_transfer_matrices(net, code, fld),
                adversarial_fanouts(net, code, adv, zero, alphabet, shared))

    def plus(fld, u, v):
        return tuple(sums[ab] if ab in sums else sums.setdefault(ab, fld.add(*ab))
                     for ab in zip(u, v))

    def clean(fld, transfer, t, x):
        """Terminal t's clean observation: per source i with out-edges, x_i
        times its transfer matrix, added up."""
        obs = None
        for i, xi in enumerate(x):
            if xi:
                part = parts.get((t, i, xi))
                if part is None:
                    part = parts[t, i, xi] = gf.mat_vec_row(fld, xi, transfer[t][i])
                obs = part if obs is None else plus(fld, obs, part)
        return (0,) * len(net.in_edges(t)) if obs is None else obs

    def fanouts(xs):
        if xs in fans:
            return fans[xs]
        x = _assemble_global(net, keep, xs, frozen)
        if not shift:
            shift.append(translation())
        if shift[0] is None:
            fans[xs] = adversarial_fanouts(net, code, adv, x, alphabet, shared)
            return fans[xs]
        fld, transfer, zero = shift[0]
        _check_input(net, x, symbols)
        obs = {t: clean(fld, transfer, t, x) for t in net.terminals}
        fans[xs] = {t: frozenset(plus(fld, obs[t], z) for z in zero[t]) for t in net.terminals}
        return fans[xs]

    return {t: SymbolicChannel(inputs, lambda xs, t=t: fanouts(xs)[t])
            for t in net.terminals}


def adversarial_channel(net, code, adv, terminal, alphabet=None, keep=None, frozen=None):
    """The `adversarial_channels` entry of one terminal."""
    return adversarial_channels(net, code, adv, alphabet, keep, frozen)[terminal]
