"""Probabilistic graph model and text-format I/O.

A probabilistic graph is an undirected, vertex-weighted graph whose edges
exist independently with a probability in (0, 1].  Vertices are dense
integer ids assigned at load time; the original text labels are retained
for output.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Container, Iterable, Iterator, Mapping, Optional, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed input files or invalid graph data."""


def canonical_edge(u: int, v: int) -> Edge:
    """Order an undirected edge as (min, max).  It checks nothing: callers
    pass ids they have checked (``check_integer``, ``graph_edge``) or made
    themselves, since a type guard here would slow every generator, which
    orders each edge it draws."""
    return (u, v) if u < v else (v, u)


def check_integer(name: str, value: object) -> int:
    """``value`` as an ``int`` if ``operator.index`` takes it (an ``int`` or
    a numpy integer, not ``1.0``) and it is not a ``bool``, else ValueError
    naming ``name``: ``True`` is no count, seed or vertex id."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def graph_edge(graph: ProbabilisticGraph, u: object, v: object) -> Edge:
    """The canonical edge (u, v) of ``graph``, else GraphError naming it as
    an unknown edge, also when an id is not an integer (``check_integer``):
    ``1.0`` and ``True`` equal 1 as dict keys, so they would name edges."""
    try:
        e = canonical_edge(check_integer("u", u), check_integer("v", v))
    except ValueError:
        e = None
    if e not in graph.edge_index:
        raise GraphError(f"unknown edge {(u, v) if e is None else e}")
    return e


def check_real(name: str, value: object) -> numbers.Real:
    """``value`` unchanged, its type kept, if it is a real number
    (``numbers.Real``: an ``int``, a ``float`` or a numpy number, not text,
    None or a ``bool``), else ValueError naming ``name``: as in
    ``check_integer``, ``True`` is no rate, radius or significance."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return value


def check_finite(name: str, value: object) -> numbers.Real:
    """``value`` unchanged if it is a finite real number (``check_real``,
    then not NaN or infinite), else ValueError naming ``name``."""
    if not math.isfinite(check_real(name, value)):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_instance(name: str, value: object, kind: type, error: type[ValueError] = ValueError):
    """``value`` unchanged if it is a ``kind``, else ``error`` (a ValueError
    subclass) naming ``name`` and the value."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {kind.__name__}, not {value!r}")
    return value


def check_graph(graph: object) -> ProbabilisticGraph:
    """``graph`` unchanged if it is a ``ProbabilisticGraph``, else GraphError
    naming the value: every public entry that reads a graph checks it
    first, directly or through ``check_vertex``."""
    return check_instance("graph", graph, ProbabilisticGraph, GraphError)


def check_vertex(graph: ProbabilisticGraph, v: object) -> int:
    """``v`` as an ``int`` vertex id of ``graph`` (``check_graph``, then
    ``check_integer``), else GraphError naming it as an unknown vertex."""
    check_graph(graph)
    v = check_integer("vertex", v)
    if not 0 <= v < graph.num_vertices:
        raise GraphError(f"unknown vertex {v}")
    return v


@dataclass(frozen=True)
class ProbabilisticGraph:
    """Undirected graph with independent edge probabilities and vertex weights.

    Immutable after construction; safe to share across worker threads.
    Vertex ids and the vertex count must be integers (``int`` or numpy
    integers: what ``check_integer`` accepts); ``1.0`` and ``True`` raise
    ``GraphError``.

    Attributes:
        num_vertices: vertices are the dense ids 0..num_vertices-1.
        edges: canonical (min, max) pairs of vertex ids, sorted, no duplicates.
        probabilities: existence probability per edge, aligned with ``edges``.
        weights: finite, non-negative information weight per vertex.
        labels: external label per vertex id (used by save/CLI output).
        coordinates: optional (x, y) per vertex, kept by spatial generators.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    probabilities: tuple[float, ...]
    weights: tuple[float, ...]
    labels: tuple[str, ...]
    coordinates: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        n = self.num_vertices
        try:
            check_integer("vertex count", n)
        except ValueError:
            raise GraphError(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.probabilities) != len(self.edges):
            raise GraphError("probabilities must align with edges")
        if len(self.weights) != n or len(self.labels) != n:
            raise GraphError("weights and labels must cover every vertex")
        if self.coordinates is not None:
            if len(self.coordinates) != n:
                raise GraphError("coordinates must cover every vertex")
            for v, (x, y) in enumerate(self.coordinates):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise GraphError(f"vertex {v} has non-finite coordinates ({x}, {y})")
        if len(set(self.labels)) != n:
            first: dict[str, int] = {}
            for v, lab in enumerate(self.labels):
                if lab in first:
                    raise GraphError(f"vertices {first[lab]} and {v} share the label {lab!r}")
                first[lab] = v
        # Canonical, in-range edges in strictly increasing order are sorted and distinct,
        # so earlier edges are collected only from where that order first breaks.
        seen: Optional[set[Edge]] = None
        prev_u = prev_v = -1
        for i, ((u, v), p) in enumerate(zip(self.edges, self.probabilities)):
            if (type(u) is int and type(v) is int and 0 <= u < v < n and seen is None
                    and (prev_u < u or (prev_u == u and prev_v < v)) and 0.0 < p <= 1.0):
                prev_u, prev_v = u, v
                continue
            try:
                check_integer("vertex id", u), check_integer("vertex id", v)
            except ValueError:
                raise GraphError(f"edge ({u!r},{v!r}) has a non-integer vertex id") from None
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) references an unknown vertex")
            if u > v:
                raise GraphError(f"edge ({u},{v}) is not in canonical order")
            if seen is None and (u, v) <= (prev_u, prev_v):
                seen = set(self.edges[:i])
            if seen is not None:
                if (u, v) in seen:
                    raise GraphError(f"duplicate edge ({u},{v})")
                seen.add((u, v))
            if not (0.0 < p <= 1.0):
                raise GraphError(f"edge ({u},{v}) probability {p} outside (0,1]")
            prev_u, prev_v = u, v
        if seen is not None:
            raise GraphError("edges must be sorted")
        if not all(0.0 <= w < math.inf for w in self.weights):
            for v, w in enumerate(self.weights):
                if not math.isfinite(w):
                    raise GraphError(f"vertex {v} has non-finite weight {w}")
                if w < 0:
                    raise GraphError(f"vertex {v} has negative weight {w}")

    @staticmethod
    def build(
        num_vertices: int,
        edges: Iterable[tuple[int, int, float]],
        weights: Optional[Sequence[float]] = None,
        labels: Optional[Sequence[str]] = None,
        coordinates: Optional[Sequence[tuple[float, float]]] = None,
    ) -> "ProbabilisticGraph":
        """Construct a graph from (u, v, p) triples, canonicalizing edge order."""
        by_edge: dict[Edge, float] = {}
        for u, v, p in edges:
            e = canonical_edge(u, v)
            if e in by_edge:
                raise GraphError(f"duplicate edge ({u},{v})")
            by_edge[e] = p
        ordered = sorted(by_edge)
        return ProbabilisticGraph(
            num_vertices=num_vertices,
            edges=tuple(ordered),
            probabilities=tuple(by_edge[e] for e in ordered),
            weights=tuple(weights) if weights is not None else (1.0,) * num_vertices,
            labels=tuple(labels) if labels is not None else tuple(str(i) for i in range(num_vertices)),
            coordinates=tuple(coordinates) if coordinates is not None else None,
        )

    @cached_property
    def edge_index(self) -> Mapping[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def label_index(self) -> Mapping[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def probability(self, u: int, v: int) -> float:
        """The probability of edge (u, v), named through ``graph_edge``:
        GraphError for an unknown edge or an id that is not an integer."""
        return self.probabilities[self.edge_index[graph_edge(self, u, v)]]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def signature(self) -> str:
        """Canonical text encoding of the graph structure, used for seed derivation."""
        return graph_signature(self.num_vertices, self.edges, map(repr, self.probabilities))


def graph_signature(num_vertices: int, edges: Sequence[Edge], probability_texts: Iterable[str]) -> str:
    """``ProbabilisticGraph.signature`` of a graph with these vertices and
    sorted canonical edges, whose probabilities are given as their
    ``repr`` text: callers that hold only the arrays can format each
    probability once and reuse the text."""
    parts = [f"{u}-{v}:{t}" for (u, v), t in zip(edges, probability_texts)]
    return f"n={num_vertices};e=" + ",".join(parts)


def candidate_edges(
    graph: ProbabilisticGraph, attached: set[int], selected: set[Edge]
) -> list[Edge]:
    """Unselected edges touching the connected subgraph, canonical order.
    Each attached vertex goes through ``check_vertex``."""
    edges = check_graph(graph).edges  # sorted, so edge-index order is canonical order
    touching = {i for v in attached for _, i in graph.adjacency[check_vertex(graph, v)]}
    return [edges[i] for i in sorted(touching) if edges[i] not in selected]


def induced_subgraph(
    graph: ProbabilisticGraph,
    keep_vertices: Iterable[int],
    keep_edges: Iterable[Edge],
) -> ProbabilisticGraph:
    """Restrict a graph to the given vertices and edges.

    Vertex ids are re-densified (ascending original id order); labels,
    weights, probabilities and coordinates are copied over.
    """
    check_graph(graph)
    kept = [check_vertex(graph, v) for v in sorted(set(keep_vertices))]
    remap = {old: new for new, old in enumerate(kept)}
    triples = []
    for u, v in keep_edges:
        e = graph_edge(graph, u, v)
        if u not in remap or v not in remap:
            raise GraphError(f"edge {e} endpoint outside the kept vertex set")
        triples.append((remap[u], remap[v], graph.probabilities[graph.edge_index[e]]))
    coords = None
    if graph.coordinates is not None:
        coords = [graph.coordinates[v] for v in kept]
    return ProbabilisticGraph.build(
        num_vertices=len(kept),
        edges=triples,
        weights=[graph.weights[v] for v in kept],
        labels=[graph.labels[v] for v in kept],
        coordinates=coords,
    )


def _records(
    stream: Iterable[str], where: str, form: str, sizes: Container[int]
) -> Iterator[tuple[str, list[str]]]:
    """Each data line of ``stream`` as its location (``where`` and its line
    number, as messages name it) and its fields.  Blank and ``#`` lines are
    skipped; a field count not in ``sizes`` raises GraphError quoting
    ``form``."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        at, parts = f"{where} {lineno}", line.split()
        if len(parts) not in sizes:
            raise GraphError(f"{at}: expected {form!r}, got {line!r}")
        yield at, parts


def load_graph(
    edge_stream: IO[str],
    weight_stream: Optional[IO[str]] = None,
    coord_stream: Optional[IO[str]] = None,
) -> ProbabilisticGraph:
    """Parse the edge-list and optional weight/coordinate formats.

    Edge lines are ``<u> <v> <p>`` with labels u, v and p in (0,1]; weight
    lines are ``<v> <w>`` with finite w >= 0; coordinate lines are ``<v> <x> <y>``
    with finite x and y.
    Lines starting with ``#`` and blank lines are ignored.  Dense vertex
    ids are the rank of each label in sorted order, which makes
    load -> save -> load the identity; vertices named only in the weight
    or coordinate file become isolated vertices.  Vertices with no weight
    line get weight 1.0; a second weight or coordinate line for a vertex is
    an error.
    """
    edge_lines: list[tuple[str, str, str, float]] = []
    for at, (lu, lv, token) in _records(edge_stream, "line", "<u> <v> <p>", (3,)):
        if lu == lv:
            raise GraphError(f"{at}: self-loop at {lu!r}")
        try:
            p = float(token)
        except ValueError:
            raise GraphError(f"{at}: malformed probability {token!r}") from None
        if not (0.0 < p <= 1.0):
            raise GraphError(f"{at}: probability {p} outside (0,1]")
        edge_lines.append((at, lu, lv, p))
    labels_seen = {lab for _, lu, lv, _ in edge_lines for lab in (lu, lv)}

    weight_by_label: dict[str, float] = {}
    for at, parts in _records(weight_stream or (), "weights line", "<v> <w>", (2,)):
        try:
            w = float(parts[1])
        except ValueError:
            raise GraphError(f"{at}: malformed weight {parts[1]!r}") from None
        if not math.isfinite(w):
            raise GraphError(f"{at}: non-finite weight {w}")
        if w < 0:
            raise GraphError(f"{at}: negative weight {w}")
        if parts[0] in weight_by_label:
            raise GraphError(f"{at}: repeated weight for {parts[0]!r}")
        weight_by_label[parts[0]] = w

    coord_by_label: dict[str, tuple[float, float]] = {}
    for at, parts in _records(coord_stream or (), "coords line", "<v> <x> <y>", (3,)):
        try:
            xy = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise GraphError(f"{at}: malformed coordinate") from None
        if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
            raise GraphError(f"{at}: non-finite coordinate {xy}")
        if parts[0] in coord_by_label:
            raise GraphError(f"{at}: repeated coordinates for {parts[0]!r}")
        coord_by_label[parts[0]] = xy
    labels_seen.update(weight_by_label, coord_by_label)

    labels = sorted(labels_seen)
    ids = {lab: i for i, lab in enumerate(labels)}
    triples: list[tuple[int, int, float]] = []
    seen: set[Edge] = set()
    for at, lu, lv, p in edge_lines:
        e = canonical_edge(ids[lu], ids[lv])
        if e in seen:
            raise GraphError(f"{at}: duplicate edge {lu} {lv}")
        seen.add(e)
        triples.append((*e, p))

    n = len(labels)
    weights = [weight_by_label.get(lab, 1.0) for lab in labels]
    coords = None
    if coord_by_label:
        missing = [lab for lab in labels if lab not in coord_by_label]
        if missing:
            raise GraphError(f"missing coordinates for vertices: {', '.join(missing)}")
        coords = [coord_by_label[lab] for lab in labels]
    return ProbabilisticGraph.build(n, triples, weights=weights, labels=labels, coordinates=coords)


def save_graph(
    graph: ProbabilisticGraph,
    edge_stream: IO[str],
    weight_stream: Optional[IO[str]] = None,
    coord_stream: Optional[IO[str]] = None,
) -> None:
    """Emit the load_graph formats, vertices and edges in ascending id order."""
    for (u, v), p in zip(check_graph(graph).edges, graph.probabilities):
        edge_stream.write(f"{graph.labels[u]} {graph.labels[v]} {p!r}\n")
    if weight_stream is not None:
        for v in range(graph.num_vertices):
            weight_stream.write(f"{graph.labels[v]} {graph.weights[v]!r}\n")
    if coord_stream is not None and graph.coordinates is not None:
        for v in range(graph.num_vertices):
            x, y = graph.coordinates[v]
            coord_stream.write(f"{graph.labels[v]} {x!r} {y!r}\n")
