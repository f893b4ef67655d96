"""Combinational networks, network codes, and the channels they induce.

A network is a directed acyclic multigraph with sources, terminals, and a
fixed total order on edges extending the path order (computed here as a
stable sort by topological depth of the tail, then by natural edge id).
Every edge carries one symbol of the network alphabet per use, possibly
replaced by the erasure symbol.  Network codes assign to each intermediate
vertex a total function from incoming to outgoing values; adversaries
override edge values during the single forward pass, before any
downstream read.

Each acyclic network compiles a plan once: one step per emitting vertex,
in edge order, holding the vertex, its source index (or its in-edge ids)
and its out-edge ids.  One branching pass, `_forward`, walks a plan and
serves every evaluation: `evaluate` with the action's overrides,
`adversarial_fanouts` with every admissible corruption, and
`cut_to_sink_channel` on the part of the plan that feeds the terminal.
Cyclic networks have no plan; evaluating one raises CyclicGraph.

The admissible corruptions are the Hamming-type actions of `hamming`
ported to edges: a disjoint block's passes come from `block_actions`
(positions only; values are chosen as each edge emits), and a per-symbol
adversary gives every edge value its own `ball` of sub-symbol actions.
"""

import itertools
import math
import re
from dataclasses import dataclass

from . import gf
from .channel import STAR, SymbolicChannel
from .errors import (AlphabetMismatch, BadFreeze, CyclicGraph, Infeasible,
                     InvalidParams, MissingCodeFunction, NotACut,
                     SearchLimitExceeded, UnsupportedVariant)
from .hamming import DISJOINT, OVERLAPPING, ball, ball_size, block_actions

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
        ids = [e.id for e in raw]
        if len(set(ids)) != len(ids):
            raise InvalidParams("duplicate edge ids")
        vs = set(self.vertices)
        for e in raw:
            if e.tail not in vs or e.head not in vs:
                raise InvalidParams(f"edge {e.id} touches an unknown vertex")
        self._cyclic = False
        try:
            order = self._topological_vertex_index(raw)
            raw.sort(key=lambda e: (order[e.tail], _natural_key(e.id)))
        except CyclicGraph:
            self._cyclic = True
        self.edges = tuple(raw)
        self.edge_by_id = {e.id: e for e in self.edges}
        self._in = {v: tuple(e for e in self.edges if e.head == v) for v in self.vertices}
        self._out = {v: tuple(e for e in self.edges if e.tail == v) for v in self.vertices}
        self._plan = None if self._cyclic else tuple(
            (v, self.sources.index(v) if v in self.sources else None,
             tuple(e.id for e in self._in[v]), tuple(e.id for e in self._out[v]))
            for v in dict.fromkeys(e.tail for e in self.edges))

    def _topological_vertex_index(self, edges):
        indeg = {v: 0 for v in self.vertices}
        outs = {v: [] for v in self.vertices}
        for e in edges:
            indeg[e.head] += 1
            outs[e.tail].append(e.head)
        ready = sorted((v for v in self.vertices if indeg[v] == 0), key=_natural_key)
        order = {}
        idx = 0
        while ready:
            v = ready.pop(0)
            order[v] = idx
            idx += 1
            added = []
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    added.append(w)
            if added:
                ready = sorted(set(ready) | set(added), key=_natural_key)
        if idx != len(self.vertices):
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
        if e1.id == e2.id:
            return True
        frontier = {e1.head}
        seen = set()
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in self._out[v]:
                if e.id == e2.id:
                    return True
                frontier.add(e.head)
        return False

    def edge_positions(self, edge_ids):
        """The given edge ids sorted into the global edge order."""
        pos = {e.id: i for i, e in enumerate(self.edges)}
        return sorted(edge_ids, key=lambda eid: pos[eid])


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
    for i, e1 in enumerate(net.edges):
        for e2 in net.edges[i + 1:]:
            if e1.id != e2.id and net.precedes(e2, e1):
                problems.append(f"edge order violates the path order: {e2.id} before {e1.id}")
    return problems


def _reachable(net, start_vertices):
    seen = set(start_vertices)
    stack = list(start_vertices)
    while stack:
        v = stack.pop()
        for e in net.out_edges(v):
            if e.head not in seen:
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
    flow_map = {arcs[i][3]: flow[i] for i in range(len(arcs))}
    return value, flow_map


BIG = 1 << 20


def min_cut(net, source_subset, terminal):
    """Minimum number of edges separating the given sources from the
    terminal (max-flow with unit edge capacities)."""
    subset = _as_sources(net, source_subset)
    caps = {s: BIG for s in subset}
    value, _ = _max_flow_unit_edges(net, caps, terminal)
    return value


def _as_sources(net, source_subset):
    subset = []
    for s in source_subset:
        if isinstance(s, int):
            subset.append(net.sources[s])
        else:
            subset.append(s)
    if not subset:
        raise InvalidParams("source subset must be non-empty")
    return subset


def is_cut(net, edge_ids, source_subset, terminal):
    """Whether removing the edges disconnects the sources from the terminal."""
    subset = set(_as_sources(net, source_subset))
    blocked = set(edge_ids)
    seen = set(subset)
    stack = list(subset)
    while stack:
        v = stack.pop()
        for e in net.out_edges(v):
            if e.id in blocked or e.head in seen:
                continue
            seen.add(e.head)
            stack.append(e.head)
    return terminal not in seen


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


def edge_disjoint_paths(net, demands):
    """Per-terminal systems of edge-disjoint source-to-terminal paths with
    exactly demands[i] paths starting at source i.  Raises Infeasible with
    the violated cut when impossible."""
    if len(demands) != len(net.sources):
        raise InvalidParams("one demand per source required")
    total = sum(demands)
    result = {}
    for t in net.terminals:
        caps = {s: demands[i] for i, s in enumerate(net.sources) if demands[i]}
        if not caps:
            result[t] = []
            continue
        value, flow = _max_flow_unit_edges(net, caps, t)
        if value < total:
            for r in range(1, len(net.sources) + 1):
                for js in itertools.combinations(range(len(net.sources)), r):
                    if sum(demands[j] for j in js) > min_cut(net, js, t):
                        raise Infeasible(set(js), t)
            raise Infeasible(set(range(len(net.sources))), t)
        paths = _decompose_paths(net, flow, caps, t)
        result[t] = paths
    return result


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
    """Explicit vertex function as a mapping from in-tuples to out-tuples."""

    def __init__(self, table):
        self.table = dict(table)

    def __call__(self, values):
        return self.table[tuple(values)]


class LinearVertex:
    """Matrix vertex function over F_q acting on symbols that are field
    elements (m = None) or length-m tuples over the field, digit by digit.
    Either way the product is `gf.mat_vec_row`, once per digit.  Erasures
    are replaced by zero before the product (recorded on the instance).
    `matrix` is the tuple of rows, one per in-edge."""

    def __init__(self, fld, matrix, m=None):
        self.field = fld
        self._coefficients = gf.Matrix(fld, matrix)
        self.matrix = self._coefficients.rows
        self.m = m
        self.saw_erasure = False

    def __call__(self, values):
        if STAR in values:
            self.saw_erasure = True
            zero = 0 if self.m is None else (0,) * self.m
            values = [zero if v == STAR else v for v in values]
        if self.m is None:
            return gf.mat_vec_row(self.field, values, self._coefficients)
        return tuple(zip(*[gf.mat_vec_row(self.field, digit, self._coefficients)
                           for digit in zip(*values)]))


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


def _forward(code, steps, x, replace, start=()):
    """Every edge-value map of one forward pass over `steps`, starting from
    the values in `start`.  Edge eid with clean value v may carry any value
    in replace(eid, v); each vertex function is called once per state."""
    states = [dict(start)]
    for vertex, src, ins, outs in steps:
        fn = None if src is not None else code.fn(vertex)
        branched = []
        for values in states:
            clean = x[src] if src is not None else fn(tuple(values[i] for i in ins))
            choices = list(itertools.product(
                *[replace(eid, v) for eid, v in zip(outs, clean)]))
            for choice in choices[1:]:
                branch = dict(values)
                branch.update(zip(outs, choice))
                branched.append(branch)
            if choices:
                values.update(zip(outs, choices[0]))
                branched.append(values)
        states = branched
    return states


def _observe(net, values):
    return {t: tuple(values[e.id] for e in net.in_edges(t)) for t in net.terminals}


def evaluate(net, code, x, action=None):
    """Single forward pass in edge order.  x is a tuple of per-source
    value tuples; action maps edge ids to override values (symbols or the
    erasure symbol), applied before any downstream read."""
    action = action or {}
    values, = _forward(code, _steps(net), x,
                       lambda eid, v: (action.get(eid, v),))
    return EvalResult(values, _observe(net, values))


# -- deterministic channels ----------------------------------------------------

def _input_space(net, alphabet, keep=None):
    """(count, iterator factory) over inputs restricted to sources `keep`
    (all sources when None)."""
    alphabet = net._alphabet(alphabet)
    idxs = range(len(net.sources)) if keep is None else keep
    spaces = [list(itertools.product(alphabet, repeat=len(net.out_edges(net.sources[i]))))
              for i in idxs]
    count = math.prod(len(space) for space in spaces)

    def factory():
        return itertools.product(*spaces)

    return count, factory


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
    count, factory = _input_space(net, alphabet, keep)

    def fanout_fn(xs):
        x = _assemble_global(net, keep, xs, frozen)
        res = evaluate(net, code, x)
        return (tuple(res.edge_values[eid] for eid in ordered),)

    return SymbolicChannel((count, factory), fanout_fn)


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
    return [step for step in _steps(net) if step[0] in needed]


def cut_to_sink_channel(net, code, cut_ids, terminal, alphabet=None,
                        keep=None, frozen=None):
    """Deterministic channel from values on a cut to the terminal's
    incoming values, honoring the priority rule for non-antichain cuts.

    Inputs range over the extended alphabet on the cut edges (edge order);
    coordinates of cut edges that the pass never reads are ignored.  With
    keep/frozen given (as for `transfer_channel`), the cut needs to
    separate only the kept sources and the frozen sources' emissions
    resolve the pass.
    """
    keep = _kept_sources(net, keep, frozen)
    alphabet_t = net._alphabet(alphabet)
    cut_list = net.edge_positions(cut_ids)
    cut_set = set(cut_list)
    watched = _as_sources(net, keep) if keep is not None else list(net.sources)
    if not is_cut(net, cut_set, watched, terminal):
        raise NotACut(f"{sorted(cut_set)} does not separate {watched} from {terminal}")

    frozen_values = {}
    if keep is not None:
        for i, x in frozen.items():
            s = net.sources[i]
            for pos, e in enumerate(net.out_edges(s)):
                frozen_values[e.id] = tuple(x)[pos]
    resolved = cut_set | set(frozen_values)
    steps = _cone(net, terminal, resolved)
    in_ids = [e.id for e in net.in_edges(terminal)]

    ext = tuple(alphabet_t) + (STAR,)
    count = len(ext) ** len(cut_list)

    def factory():
        return itertools.product(ext, repeat=len(cut_list))

    def fanout_fn(vals):
        start = dict(zip(cut_list, vals))
        start.update(frozen_values)
        values, = _forward(code, steps, None,
                           lambda eid, v: (start.get(eid, v),), start)
        return (tuple(values[eid] for eid in in_ids),)

    return SymbolicChannel((count, factory), fanout_fn)


# -- adversaries ---------------------------------------------------------------

@dataclass(frozen=True)
class AdvBlock:
    edges: frozenset
    t: int
    e: int = 0

    def __init__(self, edges, t, e=0):
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "e", e)
        if t < 0 or e < 0:
            raise InvalidParams("error/erasure budgets must be non-negative")

    def __iter__(self):
        """Unpacks as (edges, t, e), the block form of `hamming.ball`."""
        return iter((self.edges, self.t, self.e))


@dataclass(frozen=True)
class AdversarySpec:
    """Network adversary: disjoint blocks of vulnerable edges with error and
    erasure budgets; the per_symbol variant corrupts/erases up to (t, e)
    sub-symbols of every edge independently; the rank variant is used for
    bound computation only."""

    blocks: tuple = ()
    variant: str = DISJOINT
    t: int = 0
    e: int = 0
    m: int = 1

    def __post_init__(self):
        if self.t < 0 or self.e < 0:
            raise InvalidParams("error/erasure budgets must be non-negative")
        if self.variant in (DISJOINT, OVERLAPPING, RANK):
            seen = set()
            for b in self.blocks:
                if self.variant == DISJOINT and seen & b.edges:
                    raise InvalidParams("disjoint adversary blocks overlap")
                seen |= b.edges
            if self.variant == RANK and len(self.blocks) != 1:
                raise InvalidParams("a rank adversary has exactly one block")


def adversary_free():
    return AdversarySpec(blocks=())


def full_edge_adversary(net, t, e=0):
    return AdversarySpec(blocks=(AdvBlock((edge.id for edge in net.edges), t, e),))


def _count_actions(net, adv, alphabet):
    if adv.variant == DISJOINT:
        return math.prod(ball_size(len(b.edges), b.t, b.e, len(alphabet))
                         for b in adv.blocks)
    if adv.variant == PER_SYMBOL:
        base = len({v for sym in alphabet for v in sym})
        return ball_size(adv.m, adv.t, adv.e, base) ** len(net.edges)
    raise UnsupportedVariant(f"cannot enumerate actions for variant {adv.variant}")


ACTION_LIMIT = 10 ** 6


def adversarial_fanouts(net, code, adv, x, alphabet=None):
    """Fan-out sets at every terminal for global input x: the union over
    all admissible adversary actions of the forward-pass observations."""
    alphabet_t = net._alphabet(alphabet)
    if _count_actions(net, adv, alphabet_t) > ACTION_LIMIT:
        raise SearchLimitExceeded("adversary action space exceeds the limit")
    steps = _steps(net)
    if adv.variant == DISJOINT:
        # one pass per choice of corrupted and erased edges in every block;
        # a corrupted edge may carry any other value of its clean one
        passes = []
        for combo in itertools.product(*[block_actions(*b) for b in adv.blocks]):
            err = {eid for errs, _ in combo for eid in errs}
            stars = {eid for _, st in combo for eid in st}
            passes.append(lambda eid, v, err=err, stars=stars: (
                (STAR,) if eid in stars else
                [w for w in alphabet_t if w != v] if eid in err else (v,)))
    elif adv.variant == PER_SYMBOL:
        base = sorted({v for sym in alphabet_t for v in sym})
        balls = {}

        def symbol_ball(eid, v):
            if v not in balls:
                balls[v] = ball(v, [(range(len(v)), adv.t, adv.e)], base)
            return balls[v]

        passes = [symbol_ball]
    else:
        raise UnsupportedVariant(f"cannot enumerate actions for variant {adv.variant}")
    outs = {t: set() for t in net.terminals}
    for replace in passes:
        for values in _forward(code, steps, x, replace):
            for t, obs in _observe(net, values).items():
                outs[t].add(obs)
    return {t: frozenset(v) for t, v in outs.items()}


def adversarial_channel(net, code, adv, terminal, alphabet=None, keep=None,
                        frozen=None):
    """Channel from (selected) source inputs to the terminal's observations
    under all admissible adversary actions.  keep/frozen as for
    `transfer_channel`."""
    keep = _kept_sources(net, keep, frozen)
    count, factory = _input_space(net, alphabet, keep)

    def fanout_fn(xs):
        x = _assemble_global(net, keep, xs, frozen)
        fans = adversarial_fanouts(net, code, adv, x, alphabet)
        return fans[terminal]

    return SymbolicChannel((count, factory), fanout_fn)
