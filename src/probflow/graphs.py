"""Probabilistic graph model and text-format I/O.

A probabilistic graph is an undirected, vertex-weighted graph whose edges
exist independently with a probability in (0, 1].  Vertices are dense
integer ids assigned at load time; the original text labels are retained
for output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping, Optional, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed input files or invalid graph data."""


def canonical_edge(u: int, v: int) -> Edge:
    """Order an undirected edge as (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ProbabilisticGraph:
    """Undirected graph with independent edge probabilities and vertex weights.

    Immutable after construction; safe to share across worker threads.
    Vertex ids and the vertex count must be integers (``int`` or numpy
    integers: what ``operator.index`` accepts); ``1.0`` raises ``GraphError``.

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
            operator.index(n)
        except TypeError:
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
                operator.index(u), operator.index(v)
            except TypeError:
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
        e = canonical_edge(u, v)
        try:
            return self.probabilities[self.edge_index[e]]
        except KeyError:
            raise GraphError(f"no edge ({u},{v})") from None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def signature(self) -> str:
        """Canonical text encoding of the graph structure, used for seed derivation."""
        return graph_signature(self.num_vertices, self.edges, self.probabilities)


def graph_signature(num_vertices: int, edges: Sequence[Edge], probabilities: Sequence[float]) -> str:
    """``ProbabilisticGraph.signature`` of a graph with these vertices and
    sorted canonical edges, for callers that hold only the arrays."""
    parts = [f"{u}-{v}:{p!r}" for (u, v), p in zip(edges, probabilities)]
    return f"n={num_vertices};e=" + ",".join(parts)


def candidate_edges(
    graph: ProbabilisticGraph, attached: set[int], selected: set[Edge]
) -> list[Edge]:
    """Unselected edges touching the connected subgraph, canonical order."""
    edges = graph.edges  # sorted, so edge-index order is canonical order
    touching = {i for v in attached for _, i in graph.adjacency[v]}
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
    kept = sorted(set(keep_vertices))
    remap = {old: new for new, old in enumerate(kept)}
    for v in kept:
        if not (0 <= v < graph.num_vertices):
            raise GraphError(f"unknown vertex {v}")
    triples = []
    for u, v in keep_edges:
        e = canonical_edge(u, v)
        if e not in graph.edge_index:
            raise GraphError(f"unknown edge {e}")
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


def _parse_probability(token: str, lineno: int) -> float:
    try:
        p = float(token)
    except ValueError:
        raise GraphError(f"line {lineno}: malformed probability {token!r}") from None
    if not (0.0 < p <= 1.0):
        raise GraphError(f"line {lineno}: probability {p} outside (0,1]")
    return p


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
    edge_lines: list[tuple[int, str, str, float]] = []
    labels_seen: set[str] = set()
    for lineno, raw in enumerate(edge_stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(f"line {lineno}: expected '<u> <v> <p>', got {line!r}")
        if parts[0] == parts[1]:
            raise GraphError(f"line {lineno}: self-loop at {parts[0]!r}")
        p = _parse_probability(parts[2], lineno)
        edge_lines.append((lineno, parts[0], parts[1], p))
        labels_seen.update(parts[:2])

    weight_by_label: dict[str, float] = {}
    if weight_stream is not None:
        for lineno, raw in enumerate(weight_stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"weights line {lineno}: expected '<v> <w>', got {line!r}")
            try:
                w = float(parts[1])
            except ValueError:
                raise GraphError(f"weights line {lineno}: malformed weight {parts[1]!r}") from None
            if not math.isfinite(w):
                raise GraphError(f"weights line {lineno}: non-finite weight {w}")
            if w < 0:
                raise GraphError(f"weights line {lineno}: negative weight {w}")
            if parts[0] in weight_by_label:
                raise GraphError(f"weights line {lineno}: repeated weight for {parts[0]!r}")
            weight_by_label[parts[0]] = w
            labels_seen.add(parts[0])

    coord_by_label: dict[str, tuple[float, float]] = {}
    if coord_stream is not None:
        for lineno, raw in enumerate(coord_stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(f"coords line {lineno}: expected '<v> <x> <y>', got {line!r}")
            try:
                xy = (float(parts[1]), float(parts[2]))
            except ValueError:
                raise GraphError(f"coords line {lineno}: malformed coordinate") from None
            if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                raise GraphError(f"coords line {lineno}: non-finite coordinate {xy}")
            if parts[0] in coord_by_label:
                raise GraphError(f"coords line {lineno}: repeated coordinates for {parts[0]!r}")
            coord_by_label[parts[0]] = xy
            labels_seen.add(parts[0])

    labels = sorted(labels_seen)
    ids = {lab: i for i, lab in enumerate(labels)}
    triples: list[tuple[int, int, float]] = []
    seen: set[Edge] = set()
    for lineno, lu, lv, p in edge_lines:
        e = canonical_edge(ids[lu], ids[lv])
        if e in seen:
            raise GraphError(f"line {lineno}: duplicate edge {lu} {lv}")
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
    for (u, v), p in zip(graph.edges, graph.probabilities):
        edge_stream.write(f"{graph.labels[u]} {graph.labels[v]} {p!r}\n")
    if weight_stream is not None:
        for v in range(graph.num_vertices):
            weight_stream.write(f"{graph.labels[v]} {graph.weights[v]!r}\n")
    if coord_stream is not None and graph.coordinates is not None:
        for v in range(graph.num_vertices):
            x, y = graph.coordinates[v]
            coord_stream.write(f"{graph.labels[v]} {x!r} {y!r}\n")
