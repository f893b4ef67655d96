"""Constructive coding schemes for adversarial networks.

Every builder returns a `Scheme` whose source codes derive from its own
encoder, so `regions.verify_one_shot`/`verify_compound` can check any of
them by brute force.

The adversary-free multicast code is built edge by edge (Jaggi et al.,
IEEE T-IT 2005): a seeded generator proposes each edge's coefficients, a
fixed-order search backs it up, and the construction cannot miss when the
field has at least as many elements as there are terminals.  One builder,
`_rank_scheme`, serves the four rank-metric schemes (one or two sources,
one-shot or compound): it draws local encoder and vertex matrices from a
seeded generator until every terminal's stacked matrices have full rank;
the non-constructive existence argument behind them is replaced by
draw-and-check with a configurable budget.  The schemes differ only in
how many rows the first source's message has and in the layout that
places each packet row into a use and a symbol coordinate: one-shot
schemes send every row in the one use, a one-source compound scheme
sends digit d of every codeword in use d, and a two-source compound
scheme sends row block j, one digit of the second source's codeword, in
use j.  The product-alphabet scheme is the adversary-free scheme lifted
digit-wise to F_q^k vectors, with an inner [m, k] code on every link.
Drawn encoders and vertices multiply through `gf.mat_vec_row`, one kernel.
"""

import functools
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from . import channel, network
from . import codes as codes_mod
from . import gf
from .channel import STAR
from .errors import DrawsExhausted, InvalidParams, UnsupportedSources
from .network import (AdvBlock, AdversarySpec, FuncVertex, LinearVertex,
                      NetworkCode, PER_SYMBOL, TableVertex, check_demands,
                      edge_disjoint_paths, linear_transfer_matrices)
# bound here too: perfbench/spans.py traces it under this module's name
from .network import min_cut  # noqa: F401


@dataclass
class Scheme:
    """A verifiable communication scheme.

    messages[i] is the sequence of source i's messages, each in the form
    the decoders return it; encode(i, msg) is its local codeword, the
    tuple of the source's out-edge symbols (n_uses == 1) or an n-tuple of
    them, one per use.  decoders map a terminal to a function from its
    observation (or sequence of per-use observations) to the tuple of
    decoded messages.  source_codes, every source's local codewords in
    message order, is derived from the two and built on first use.  meta
    carries construction internals (fields, matrices, encoders) for
    reports and tests.
    """

    network_codes: list
    messages: list
    encode: Callable
    decoders: dict
    alphabet: tuple
    rate: tuple
    meta: dict = field(default_factory=dict)

    @property
    def n_uses(self):
        return len(self.network_codes)

    @property
    def network_code(self):
        return self.network_codes[0]

    @functools.cached_property
    def source_codes(self):
        return [[self.encode(i, msg) for msg in msgs]
                for i, msgs in enumerate(self.messages)]


def _check_positive(net, demands):
    if len(demands) != len(net.sources):
        raise InvalidParams(f"{len(demands)} demands for {len(net.sources)} sources")
    if any(a < 1 for a in demands):
        raise InvalidParams("demands must be positive integers")


def _draw_linear_code(rng, net, fld, m=None):
    fns = {}
    for v in net.intermediates:
        r, s = len(net.in_edges(v)), len(net.out_edges(v))
        rows = tuple(tuple(rng.randrange(fld.q) for _ in range(s)) for _ in range(r))
        fns[v] = LinearVertex(fld, rows, m)
    return NetworkCode(fns)


def _draw_matrix(rng, fld, nrows, ncols):
    return gf.Matrix(fld, tuple(tuple(rng.randrange(fld.q) for _ in range(ncols))
                                for _ in range(nrows)))


def _columns(matrix):
    return tuple(tuple(matrix.rows[r][c] for r in range(matrix.nrows))
                 for c in range(matrix.ncols))


# -- adversary-free linear multicast -------------------------------------------

# default draw budget of the seeded builders
MAX_DRAWS = 200


def build_adversary_free(net, demands, q, max_draws=MAX_DRAWS, seed=0):
    """Linear network code plus injective local encoders achieving the
    integer rate vector `demands` with no adversary.

    The code is built edge by edge after Jaggi, Sanders, Chou, Effros,
    Egner, Jain & Tolhuizen (IEEE T-IT 2005) on the edge-disjoint path
    systems of `network.edge_disjoint_paths`.  Source i feeds a_i unit
    input vectors; walking the edges in topological order, an edge on
    some terminals' paths combines its predecessor edges on those paths
    so that every such terminal's frontier (the latest edge of each of its
    paths) stays a basis of F_q^(sum a_i).  Each terminal rules out a
    proper subspace of the candidate coefficients, and F_q^k is not a
    union of q proper subspaces, so inside the min-cut region a valid
    choice exists at every edge whenever q >= |terminals|; demands outside
    it raise `Infeasible` from `network.check_demands`.

    `seed` seeds the generator that draws each edge's candidates, so it
    selects among codes.  `max_draws` is the per-edge draw budget; when it
    misses, the edge's candidates are searched in a fixed order.
    DrawsExhausted (naming a terminal that rejected the last candidate)
    is raised only when no candidate exists, which needs q < |terminals|.
    """
    _check_positive(net, demands)
    fld = gf.make_field(q)
    rng = random.Random(seed)
    h = sum(demands)
    offsets = [sum(demands[:i]) for i in range(len(demands))]
    # global coding vectors in F_q^h, keyed by edge id, and by message
    # index (an int) for the unit input vectors of the sources
    vectors = {r: tuple(int(j == r) for j in range(h)) for r in range(h)}
    frontier = {}   # terminal -> key of the latest edge on each of its paths
    on_paths = {}   # edge id -> (terminal, path index) pairs through it
    for t, paths in edge_disjoint_paths(net, demands).items():
        fed = list(offsets)
        frontier[t] = []
        for p, (s, path) in enumerate(paths):
            i = net.source_index(s)
            frontier[t].append(fed[i])
            fed[i] += 1
            for eid in path:
                on_paths.setdefault(eid, []).append((t, p))

    def dual(t):
        # v replaces path p's vector and keeps t's frontier a basis iff
        # entry p of v @ inverse(frontier) is nonzero
        return gf.Matrix(fld, [vectors[k] for k in frontier[t]]).right_inverse()

    duals = {t: dual(t) for t in frontier}
    coeffs = {}
    for e in net.edges:
        hits = on_paths.get(e.id, ())
        if not hits:
            coeffs[e.id], vectors[e.id] = {}, (0,) * h
            continue
        preds = list(dict.fromkeys(frontier[t][p] for t, p in hits))
        basis = gf.Matrix(fld, [vectors[k] for k in preds])
        c, vectors[e.id] = _choose_combination(rng, basis, hits, duals, max_draws)
        coeffs[e.id] = dict(zip(preds, c))
        for t, p in hits:
            frontier[t][p] = e.id
            duals[t] = dual(t)

    code = NetworkCode({v: LinearVertex(fld, tuple(
        tuple(coeffs[oe.id].get(ie.id, 0) for oe in net.out_edges(v))
        for ie in net.in_edges(v))) for v in net.intermediates})
    encoders = [gf.Matrix(fld, tuple(
        tuple(coeffs[e.id].get(offsets[i] + r, 0) for e in net.out_edges(s))
        for r in range(demands[i]))) for i, s in enumerate(net.sources)]
    transfer = linear_transfer_matrices(net, code, fld)

    def make_decoder(t):
        stacked = functools.reduce(gf.Matrix.vstack, [encoders[i] @ transfer[t][i]
                                                      for i in range(len(net.sources))])
        inv = stacked.right_inverse()
        if inv is None:
            raise AssertionError(f"constructed code does not decode at {t}")

        def decode(obs):
            x = gf.mat_vec_row(fld, obs, inv)
            return tuple(x[o:o + a] for o, a in zip(offsets, demands))

        return decode

    decoders = {t: make_decoder(t) for t in net.terminals}
    return Scheme([code], [list(itertools.product(range(q), repeat=a)) for a in demands],
                  lambda i, msg: gf.mat_vec_row(fld, msg, encoders[i]),
                  decoders, tuple(range(q)),
                  tuple(demands),
                  meta={"field": fld, "encoders": encoders})


def _choose_combination(rng, basis, hits, duals, max_draws):
    """Coefficients c over the rows of `basis` and v = c @ basis such that
    entry p of v @ duals[t] is nonzero for every (t, p) in hits: up to
    max_draws seeded draws, then every candidate in a fixed order."""
    fld = basis.field
    draws = (tuple(rng.randrange(fld.q) for _ in range(basis.nrows))
             for _ in range(max_draws))
    for c in itertools.chain(draws, itertools.product(range(fld.q), repeat=basis.nrows)):
        v = gf.mat_vec_row(fld, c, basis)
        rejected = [t for t, p in hits if not gf.mat_vec_row(fld, v, duals[t])[p]]
        if not rejected:
            return c, v
    raise DrawsExhausted(rejected[0], "no coefficients keep every frontier a basis; "
                         f"the last candidate fails at terminal {rejected[0]}")


# -- rank-metric schemes ---------------------------------------------------------

def build_achiev1(net, demands, t, q, max_draws=MAX_DRAWS, seed=0):
    """One-shot scheme against an adversary corrupting up to t arbitrary
    edges, for one or two sources, over the alphabet F_q^m with
    m = prod_i (a_i + 2t).  Nested rank-metric outer codes protect the
    messages; decoding peels the second source with a rank decoder, then
    block-decodes the first."""
    return _rank_scheme(net, demands, t, q, max_draws, seed, compound=False)


def build_achiev2(net, demands, t, q, max_draws=MAX_DRAWS, seed=0):
    """Compound-model scheme: the same linear network code is reused over
    several uses and the adversary must corrupt a fixed edge set in every
    use; alphabet F_q^n1 with n1 = a1 + 2t, for one or two sources
    (two-source packaging assumes a1 <= a2).

    Every codeword is spread across the uses, so decoding relies on the
    fixed edge set: one source sends n1 codewords and use d carries digit
    d of each of them; with two sources, use j carries digit j (over the
    first extension) of the second source's codeword.  A fixed set of t
    edges adds an error of rank <= t to each codeword, while an adversary
    who switches edges between uses can exceed it."""
    return _rank_scheme(net, demands, t, q, max_draws, seed, compound=True)


def _rank_scheme(net, demands, t, q, max_draws, seed, compound):
    """The nested rank-metric construction behind both builders.

    Source 1 sends `rows` messages of a1 elements of ext1 = GF(q^n1), each
    encoded by a Gabidulin [n1, a1] code d1: n2 rows with two sources, one
    (one-shot) or n1 (compound) with one source.  Source 2, if any, sends
    one message of a2 elements of ext2 = GF(q^(n1 n2)), encoded by the
    Gabidulin [n2, a2] code d2 over ext1.  Expanded over F_q and multiplied
    by the source's random encoder, a source's message becomes a packet
    matrix of n1 * rows rows.  Packet row i travels in use u at symbol
    coordinate c, (u, c) = layout(i): (0, i) one-shot, (i % n1, i // n1)
    one-source compound, (i // n1, i % n1) two-source compound."""
    n_sources = len(net.sources)
    if n_sources not in (1, 2):
        raise UnsupportedSources("the construction covers one or two sources")
    _check_positive(net, demands)
    check_demands(net, demands, slack=2 * t)
    two = n_sources == 2
    if compound and two and demands[0] > demands[1]:
        raise InvalidParams("two-source compound packaging assumes a1 <= a2")

    fld = gf.make_field(q)
    rng = random.Random(seed)
    a1 = demands[0]
    n1 = a1 + 2 * t
    d1 = codes_mod.gabidulin(fld, n1, n1, a1)
    ext1, phi1, phi1_inv = d1.ext_field, d1.expand, d1.flatten
    if two:
        a2 = demands[1]
        n2 = a2 + 2 * t
        d2 = codes_mod.gabidulin(ext1, n2, n2, a2)
        ext2, phi2, phi2_inv = d2.ext_field, d2.expand, d2.flatten
        rows = n2
    else:
        rows = n1 if compound else 1
    compound = compound and rows > 1   # a single use is the one-shot scheme
    as_row = not (compound or two)     # x1 is one row, sent as is
    size = n1 * rows                   # packet rows per source
    if not compound:
        n_uses, width = 1, size
        layout = lambda i: (0, i)
    else:
        n_uses, width = rows, n1
        layout = (lambda i: divmod(i, n1)) if two else (lambda i: divmod(i, n1)[::-1])
    cells = [layout(i) for i in range(size)]
    index = {cell: i for i, cell in enumerate(cells)}
    order = [[index[u, c] for c in range(width)] for u in range(n_uses)]

    heights = (n1, n2) if two else (n1,)
    last_fail = None
    for _ in range(max_draws):
        code = _draw_linear_code(rng, net, fld, m=width)
        enc = [_draw_matrix(rng, fld, h, len(net.out_edges(s)))
               for h, s in zip(heights, net.sources)]
        transfer = linear_transfer_matrices(net, code, fld)
        b_inv, a_inv, m2 = {}, {}, {}
        for t_ in net.terminals:            # a draw decodes iff these invert
            m1 = enc[0] @ transfer[t_][0]          # n1 x |in(T)| over F_q
            b_inv[t_] = m1.right_inverse()
            if two and b_inv[t_] is not None:
                m2[t_] = enc[1] @ transfer[t_][1]  # n2 x |in(T)| over F_q
                top = d1.generator @ m1.lift(ext1)
                a_inv[t_] = top.vstack(m2[t_].lift(ext1)).right_inverse()
            if b_inv[t_] is None or (two and a_inv[t_] is None):
                last_fail = t_
                break
        else:
            break
    else:
        raise DrawsExhausted(last_fail)

    def encode1(x1):
        """x1: rows x a1 matrix over ext1 -> packet matrix over F_q."""
        return phi1(x1 @ d1.generator) @ enc[0]

    def expand2(x2_row):
        return phi1(phi2(gf.Matrix(ext2, (tuple(x2_row),)) @ d2.generator))

    def encode2(x2_row):
        """x2: one row of a2 elements of ext2 -> packet matrix over F_q."""
        return expand2(x2_row) @ enc[1]

    def split(packets):
        uses = tuple(_columns(packets.submatrix(row_idx=rows_u)) for rows_u in order)
        return uses if compound else uses[0]

    def encode(i, msg):
        if i:
            return split(encode2(msg))
        return split(encode1(gf.Matrix(ext1, (msg,) if as_row else msg)))

    def make_decoder(t_):
        def decode(obs):
            per_use = obs if compound else (obs,)
            r = gf.Matrix(fld, tuple(tuple(sym[c] for sym in per_use[u])
                                     for u, c in cells))
            if two:
                p = phi1_inv(r) @ a_inv[t_]        # n2 x (a1+n2) over ext1
                r2 = phi2_inv(p.submatrix(col_idx=range(a1, a1 + n2)))
                x2 = d2.rank_decode(r2.rows[0], t)
                r = r - expand2(x2) @ m2[t_]
            x1 = tuple(d1.rank_decode(row, t) for row in phi1_inv(r @ b_inv[t_]).rows)
            if two:
                return (x1, x2)
            return (x1[0],) if as_row else (x1,)

        return decode

    q1 = list(itertools.product(range(ext1.q), repeat=a1))
    messages = [q1 if as_row else list(itertools.product(q1, repeat=rows))]
    meta = {"field": fld, "ext1": ext1, "n1": n1, "m": n1 * n2 if two else n1,
            "columns": _columns}
    if two:
        messages.append(list(itertools.product(range(ext2.q), repeat=a2)))
        meta.update(ext2=ext2, n2=n2, encode1=encode1, encode2=encode2)
    else:
        meta["local_codeword"] = lambda msg: encode(0, msg)
        if as_row:
            meta["messages"] = q1
    return Scheme([code] * n_uses, messages, encode,
                  {t_: make_decoder(t_) for t_ in net.terminals},
                  tuple(itertools.product(range(q), repeat=width)),
                  tuple(demands), meta)


# -- link-level coded scheme ------------------------------------------------------

def build_product_alphabet(net, demands, t, e, q, m, seed=0):
    """Scheme over the alphabet F_q^m against a per-edge sub-symbol
    adversary (up to t errors and e erasures per edge): an inner
    [m, m-2t-e, 2t+e+1] code on every link around an outer adversary-free
    linear code.  Achieves rate (m-2t-e)/m * demands.

    With k = m-2t-e, vertices, local encoders and terminal decoders are
    the adversary-free scheme's, applied to each of the k digits of the
    inner-decoded vectors."""
    k = m - 2 * t - e
    if k < 1:
        raise InvalidParams("need m >= 2t + e + 1")
    fld = gf.make_field(q)
    gen = codes_mod.mds_generator(fld, m, k)
    inner = codes_mod.BlockCode.from_generator(fld, gen)
    words = list(itertools.product(range(q), repeat=k))
    enc_table = {msg: gf.mat_vec_row(fld, msg, gen) for msg in words}
    dec_table = {cw: msg for msg, cw in enc_table.items()}
    base = build_adversary_free(net, demands, q, seed=seed)

    def inner_decode(values):
        return [dec_table[codes_mod.decode_hamming(inner, v)] for v in values]

    def inner_encode(vectors):
        return tuple(enc_table[vec] for vec in vectors)

    def make_fn(outer):
        return lambda values: inner_encode(outer(inner_decode(values)))

    code = NetworkCode({v: make_fn(LinearVertex(fld, base.network_code.fn(v).matrix, m=k))
                        for v in net.intermediates})
    local = [LinearVertex(fld, enc.rows, m=k) for enc in base.meta["encoders"]]

    def local_codeword(i, msg_vectors):
        """msg_vectors: a_i message k-tuples -> b_i inner codewords."""
        return inner_encode(local[i](msg_vectors))

    def make_decoder(outer):
        def decode(obs):
            per_digit = [outer(digit) for digit in zip(*inner_decode(obs))]
            return tuple(tuple(zip(*(msgs[i] for msgs in per_digit)))
                         for i in range(len(demands)))

        return decode

    decoders = {t_: make_decoder(base.decoders[t_]) for t_ in net.terminals}
    alphabet = tuple(itertools.product(range(q), repeat=m))
    rate = tuple(Fraction(k * a, m) for a in demands)
    return Scheme([code], [list(itertools.product(words, repeat=a)) for a in demands],
                  local_codeword, decoders, alphabet, rate,
                  meta={"field": fld, "adversary": AdversarySpec((AdvBlock(range(m), t, e),),
                                                                 PER_SYMBOL)})


# -- the hand-built double-relay scheme ---------------------------------------------

DOUBLE_RELAY_GEN = ((1, 0, 0, 3, 1), (2, 1, 0, 2, 0), (3, 0, 1, 1, 0))


def double_relay_scheme():
    """Rate-(1, 2) one-shot scheme over GF(5) on the two-relay example
    network, protected against one corruption among the second source's
    relay-two links and one among the remaining vulnerable links."""
    from . import netlib

    fld = gf.make_field(5)
    net = netlib.two_source_double_relay(tuple(range(5)))

    def clean(v):
        return 0 if v == STAR else v

    def f_v1(x1, x3, x4):
        x1, x3, x4 = clean(x1), clean(x3), clean(x4)
        return (fld.add(x1, fld.add(fld.mul(2, x3), fld.mul(3, x4))), x3, x4)

    def f_v2(x2, x5, x6, x7):
        x2 = clean(x2)
        maj = codes_mod.majority_extend(clean(x5), clean(x6), clean(x7))
        return (fld.add(x2, maj), fld.mul(2, x2))

    code = NetworkCode({"V1": FuncVertex(f_v1), "V2": FuncVertex(f_v2)})

    code1 = [(a, fld.mul(3, a)) for a in range(5)]
    code2 = [(b, c, fld.add(fld.mul(2, b), c), fld.add(fld.mul(2, b), c),
              fld.add(fld.mul(2, b), c))
             for b in range(5) for c in range(5)]

    gen = gf.Matrix(fld, DOUBLE_RELAY_GEN)
    block = codes_mod.BlockCode.from_generator(fld, gen)
    cw_to_msg = {}
    for msg in itertools.product(range(5), repeat=3):
        cw_to_msg[gf.mat_vec_row(fld, msg, gen)] = msg

    def decode(obs):
        a, b, c = cw_to_msg[codes_mod.decode_hamming(block, tuple(obs))]
        s = fld.add(fld.mul(2, b), c)
        return ((a, fld.mul(3, a)), (b, c, s, s, s))

    adv = AdversarySpec(blocks=(
        AdvBlock({"e5", "e6", "e7"}, 1, 0),
        AdvBlock({"e1", "e8", "e9", "e10", "e11", "e12"}, 1, 0)))
    return Scheme([code], [code1, code2], lambda i, msg: msg, {"T": decode},
                  tuple(range(5)), (1, 2), meta={"network": net, "adversary": adv})


# -- exhaustive linear impossibility ---------------------------------------------

ASSIGNMENT_LIMIT = 1 << 16


def linear_impossibility(net, adv, q, target):
    """For a single-relay network with one terminal, enumerate every
    linear vertex assignment and compute the exact one-shot capacity of
    the induced adversarial channel.  Returns the per-assignment
    capacities (all below `target` proves linear coding insufficient) and
    a nonlinear majority scheme achieving `target` when the relay has at
    least three inputs.  A network with more than one terminal or relay
    raises InvalidParams.

    One `network.one_vertex_sweep` serves every assignment: each input's
    source writes and the adversary's reads of the relay's in-edges are
    made once, the terminal's reads once per distinct relay output and
    budget left, and each relay matrix multiplies each distinct in-tuple
    once.  Its fan-outs give each assignment's confusability graph through
    a predicate-free `SymbolicChannel`, as `adversarial_channel` would; the
    maps share few graphs, and each distinct one is searched once."""
    if len(net.terminals) != 1:
        raise InvalidParams("exhaustive search covers single-terminal networks")
    relays = net.intermediates
    if len(relays) != 1:
        raise InvalidParams("exhaustive search covers single-relay networks")
    relay = relays[0]
    fld = gf.make_field(q)
    r = len(net.in_edges(relay))
    s = len(net.out_edges(relay))
    if q ** (r * s) > ASSIGNMENT_LIMIT:
        raise InvalidParams("too many linear assignments to enumerate")
    alphabet = tuple(range(q))
    sweep = network.one_vertex_sweep(net, NetworkCode({}), relay, adv, alphabet)
    terminal, = net.terminals
    results, all_below, sizes = [], True, {}
    for combo in itertools.product(range(q), repeat=r * s):
        rows = tuple(tuple(combo[i * s + j] for j in range(s)) for i in range(r))
        fans = sweep(LinearVertex(fld, rows))[terminal]
        _, adj = channel.confusability_adjacency(
            channel.SymbolicChannel((len(fans), fans.__iter__), fans.__getitem__))
        if tuple(adj) not in sizes:
            sizes[tuple(adj)] = max(channel.max_independent_set(adj)[0], 1)
        value = channel.BaseValue(0, q, count=sizes[tuple(adj)])
        results.append((rows, value.value))
        all_below = all_below and value < target

    nonlinear = None
    if r >= 3 and s == 1:
        maj_table = {}
        for vals in itertools.product(alphabet + (STAR,), repeat=r):
            cleaned = [0 if v == STAR else v for v in vals]
            maj_table[vals] = (codes_mod.majority_extend(*cleaned[:3]),)
        maj_code = NetworkCode({relay: TableVertex(maj_table)})
        rep = [tuple([a] * len(net.out_edges(net.sources[0])))
               for a in alphabet]
        nonlinear = (maj_code, [rep])
    return {"results": results, "all_below_target": all_below,
            "nonlinear": nonlinear}
