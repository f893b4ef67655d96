"""Small example networks used by the test and self-test suites.

Edge ids are numbered e1, e2, ... along arcs listed in path order, so
that the natural id order is a valid linear extension of each network's
path order.
"""

from .network import Edge, Network


def _numbered(vertices, arcs, sources, terminals, alphabet):
    """The network whose edges e1, e2, ... run along the (tail, head) arcs."""
    edges = [Edge(f"e{i + 1}", tail, head) for i, (tail, head) in enumerate(arcs)]
    return Network(vertices, edges, sources, terminals, alphabet)


def parallel_path(width, alphabet=None):
    """S -> V -> T with `width` parallel edges on both hops."""
    return _numbered(("S", "V", "T"), [("S", "V")] * width + [("V", "T")] * width,
                     ("S",), ("T",), alphabet)


def single_path(alphabet=None):
    """S -> V -> T, one edge per hop."""
    return parallel_path(1, alphabet)


def chain_with_bypass(alphabet=None):
    """Five-vertex chain with a bypass arc; the cut {e2, e5} is not an
    antichain (e2 precedes e5)."""
    return _numbered(("S", "V1", "V2", "V3", "T"),
                     [("S", "V2"), ("S", "V1"), ("V1", "V2"), ("V1", "V3"), ("V2", "V3"),
                      ("V3", "T"), ("V3", "T")], ("S",), ("T",), alphabet)


def two_source_hub(alphabet=None):
    """Two sources into one relay with four parallel edges to the sink."""
    return _numbered(("S1", "S2", "V", "T"),
                     [("S1", "V")] * 2 + [("S2", "V")] + [("V", "T")] * 4,
                     ("S1", "S2"), ("T",), alphabet)


def two_source_grid(alphabet=None):
    """Two sources, two relays, ten edges; every min-cut towards T has
    size at least three per source."""
    return _numbered(("S1", "S2", "V1", "V2", "T"),
                     [("S1", "V1")] * 2 + [("S1", "V2"), ("S2", "V1")] + [("S2", "V2")] * 2
                     + [("V1", "T")] * 2 + [("V2", "T")] * 2,
                     ("S1", "S2"), ("T",), alphabet)


def two_source_double_relay(alphabet=None):
    """Two sources and two relays with asymmetric fan-in: S1 reaches both
    relays once, S2 reaches relay one twice and relay two three times."""
    return _numbered(("S1", "S2", "V1", "V2", "T"),
                     [("S1", "V1"), ("S1", "V2")] + [("S2", "V1")] * 2 + [("S2", "V2")] * 3
                     + [("V1", "T")] * 3 + [("V2", "T")] * 2,
                     ("S1", "S2"), ("T",), alphabet)


def triple_path_bottleneck(alphabet=None):
    """Three parallel edges into a relay with a single outgoing edge."""
    return _numbered(("S", "V", "T"), [("S", "V")] * 3 + [("V", "T")],
                     ("S",), ("T",), alphabet)


def fan_bottleneck(alphabet=None):
    """Two edges into a relay that fans out four parallel edges to the sink."""
    return _numbered(("S", "V", "T"), [("S", "V")] * 2 + [("V", "T")] * 4,
                     ("S",), ("T",), alphabet)


def butterfly(alphabet=None):
    """The classic two-terminal multicast network with min-cut two."""
    return _numbered(("S", "V1", "V2", "V3", "V4", "T1", "T2"),
                     [("S", "V1"), ("S", "V2"), ("V1", "T1"), ("V1", "V3"), ("V2", "V3"),
                      ("V2", "T2"), ("V3", "V4"), ("V4", "T1"), ("V4", "T2")],
                     ("S",), ("T1", "T2"), alphabet)


def diamond(alphabet=None):
    """S -> V1 (e1), S -> V2 (e2, e3), V1 -> T (e4), V2 -> T (e5).  Under
    one error confined to {e1, e2, e3} no code reaches the ported cut-set
    bound: the smallest such example of Beemer, Kilic & Ravagnani,
    "Network decoding" (IEEE T-IT 2023)."""
    return _numbered(("S", "V1", "V2", "T"),
                     [("S", "V1"), ("S", "V2"), ("S", "V2"), ("V1", "T"), ("V2", "T")],
                     ("S",), ("T",), alphabet)


def two_source_shared_relay(widths, out_width, alphabet=None):
    """N sources with the given edge multiplicities into one relay, which
    fans out `out_width` parallel edges to the sink."""
    sources = tuple(f"S{i + 1}" for i in range(len(widths)))
    arcs = [(s, "V") for s, w in zip(sources, widths) for _ in range(w)]
    return _numbered(sources + ("V", "T"), arcs + [("V", "T")] * out_width,
                     sources, ("T",), alphabet)
