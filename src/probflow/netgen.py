"""Synthetic graph families and probability-assignment schemes.

Three topology generators (uniform random, ring-of-partitions with fixed
degree, geometric sensor field) plus the two probability assignments used
for real datasets: distance-decay for spatial networks and the
close-friends split for social networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import Edge, ProbabilisticGraph, canonical_edge, check_graph, check_integer, check_real

FAMILIES = ("erdos", "partitioned", "wsn")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic instance."""

    family: str
    n: int
    degree: int = 0
    epsilon: float = 0.0
    seed: int = 0
    wrap: bool = True
    unit_weights: bool = False

    def __post_init__(self) -> None:
        _check(self.family, self.n, self.seed, self.degree, self.epsilon, self.wrap, self.unit_weights)


def _check(
    family: str, n: int, seed: int, degree: int = 0, epsilon: float = 0.0,
    wrap: bool = True, unit_weights: bool = False,
) -> None:
    """Raise ValueError unless ``family``'s generator can build an instance
    of n vertices from ``seed`` with these parameters (only its own are
    read, but ``wrap`` and ``unit_weights`` must be bools in every family).
    The one check both ``GenSpec`` and the ``gen_*`` functions run."""
    check_integer("n", n)
    _non_negative("seed", seed)
    for name, flag in (("wrap", wrap), ("unit_weights", unit_weights)):
        if not isinstance(flag, bool):
            raise ValueError(f"{name} must be a bool, not {flag!r}")
    if family in ("erdos", "partitioned"):
        check_integer("degree", degree)
    if family == "erdos":
        if n < 2:
            raise ValueError("n must be >= 2")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if n * degree // 2 > n * (n - 1) // 2:
            raise ValueError("requested edges exceed the number of vertex pairs")
    elif family == "partitioned":
        if degree < 2 or degree % 2 != 0:
            raise ValueError("degree must be a positive even number")
        if n % degree != 0 or n < 2 * degree:
            raise ValueError("degree must divide n and n must be at least 2*degree")
    elif family == "wsn":
        if n < 1:
            raise ValueError("n must be positive")
        if not (0.0 < check_real("epsilon", epsilon) <= math.sqrt(2.0)):
            raise ValueError("epsilon must be in (0, sqrt(2)]")
    else:
        raise ValueError(f"unknown family {family!r}")


def _non_negative(name: str, value: object) -> int:
    """``value`` as an ``int`` (``check_integer``) if it is non-negative,
    else ValueError naming ``name``."""
    value = check_integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def generate(spec: GenSpec) -> ProbabilisticGraph:
    if spec.family == "erdos":
        return gen_erdos(spec.n, spec.degree, spec.seed, unit_weights=spec.unit_weights)
    if spec.family == "partitioned":
        return gen_partitioned(
            spec.n, spec.degree, spec.seed, wrap=spec.wrap, unit_weights=spec.unit_weights
        )
    return gen_wsn(spec.n, spec.epsilon, spec.seed, unit_weights=spec.unit_weights)


def _edge_probabilities(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform in the open interval (0,1); the measure-zero exact 0 is bumped."""
    p = rng.random(count)
    p[p == 0.0] = 0.5
    return p


def _vertex_weights(rng: np.random.Generator, n: int, unit: bool) -> np.ndarray:
    if unit:
        return np.ones(n)
    return rng.integers(0, 11, size=n).astype(float)


def _assemble(
    n: int,
    edges: list[Edge],
    rng: np.random.Generator,
    unit_weights: bool,
    coordinates: Optional[np.ndarray] = None,
) -> ProbabilisticGraph:
    """The graph on n vertices with these distinct canonical edges, drawing
    edge probabilities, then vertex weights, from ``rng``."""
    edges = sorted(edges)
    probs = _edge_probabilities(rng, len(edges))
    weights = _vertex_weights(rng, n, unit_weights)
    return ProbabilisticGraph(
        num_vertices=n,
        edges=tuple(edges),
        probabilities=tuple(probs.tolist()),
        weights=tuple(weights.tolist()),
        labels=tuple(str(i) for i in range(n)),
        coordinates=None if coordinates is None else tuple(map(tuple, coordinates.tolist())),
    )


def gen_erdos(n: int, degree: int, seed: int, unit_weights: bool = False) -> ProbabilisticGraph:
    """n*degree/2 distinct edges placed uniformly over unordered pairs."""
    _check("erdos", n, seed, degree, unit_weights=unit_weights)
    target = n * degree // 2
    rng = np.random.default_rng(seed)
    edges: set[Edge] = set()
    while len(edges) < target:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add(canonical_edge(u, v))
    return _assemble(n, list(edges), rng, unit_weights)


def gen_partitioned(
    n: int, degree: int, seed: int, wrap: bool = True, unit_weights: bool = False
) -> ProbabilisticGraph:
    """Ring of 2n/degree partitions of size degree/2; every vertex adjacent to
    all vertices in both neighboring partitions, so each has exactly the
    requested degree.  ``wrap=False`` leaves the ring open (a path), halving
    the degree at the two end partitions."""
    _check("partitioned", n, seed, degree, wrap=wrap, unit_weights=unit_weights)
    size = degree // 2
    parts = 2 * n // degree
    rng = np.random.default_rng(seed)
    edges: list[Edge] = []
    for i in range(parts):
        j = (i + 1) % parts
        if j <= i and not wrap:
            continue
        for a in range(i * size, (i + 1) * size):
            for b in range(j * size, (j + 1) * size):
                edges.append(canonical_edge(a, b))
    return _assemble(n, edges, rng, unit_weights)


def gen_wsn(
    n: int, epsilon: float, seed: int, unit_weights: bool = False
) -> ProbabilisticGraph:
    """Uniform points in the unit square, connected within epsilon distance:
    u < v are joined when ``dx*dx + dy*dy <= epsilon*epsilon`` for
    ``(dx, dy) = coords[v] - coords[u]``, computed in float64."""
    _check("wsn", n, seed, epsilon=epsilon, unit_weights=unit_weights)
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    return _assemble(n, _wsn_edges(coords, epsilon), rng, unit_weights, coordinates=coords)


def _wsn_edges(coords: np.ndarray, epsilon: float) -> list[Edge]:
    """Sorted pairs u < v of points in the unit square that ``gen_wsn``'s
    rule joins, with candidates picked through a grid of square cells.

    A cell is wider than epsilon, so a joined pair lies in the same or
    adjacent cells, and no narrower than about 1/sqrt(n), so there are at
    most n cells.  The rule decides every candidate pair.
    """
    n = len(coords)
    # The margin over epsilon covers the rounding of x*g near a cell border.
    g = max(1, int(1.0 / max(epsilon * (1.0 + 1e-6), 1.0 / math.sqrt(n))))
    cx, cy = np.clip(np.floor(coords * g), 0, g - 1).astype(np.int64).T
    key = cx * g + cy
    order = np.argsort(key)
    # first[k]: rank in ``order`` of the first point whose cell key is >= k
    first = np.searchsorted(key[order], np.arange(g * g + 1))
    # A point's candidates in column cx+d, d = -1, 0, 1, are the run of
    # ``order`` over that column's rows cy-1..cy+1.
    col = cx + np.arange(-1, 2)[:, None]
    base = np.clip(col, 0, g - 1) * g
    lo = first[base + np.maximum(cy - 1, 0)]
    hi = first[base + np.minimum(cy + 1, g - 1) + 1]
    counts = np.where((col >= 0) & (col < g), hi - lo, 0).ravel()
    u = np.repeat(np.tile(np.arange(n), 3), counts)
    v = order[np.repeat(lo.ravel() - (np.cumsum(counts) - counts), counts) + np.arange(len(u))]
    forward = u < v
    u, v = u[forward], v[forward]
    dx = coords[v, 0] - coords[u, 0]
    dy = coords[v, 1] - coords[u, 1]
    close = dx * dx + dy * dy <= epsilon * epsilon
    u, v = u[close], v[close]
    ranked = np.lexsort((v, u))
    return list(zip(u[ranked].tolist(), v[ranked].tolist()))


def assign_distance_decay(
    graph: ProbabilisticGraph, lam: float = 0.001, scale: float = 1.0
) -> ProbabilisticGraph:
    """Set every edge probability to exp(-lam * distance).

    ``lam`` is a per-meter rate; ``scale`` converts the stored coordinate
    units to meters (unit-square instances pass their world size here).
    ``lam`` must be a finite and non-negative real number and ``scale`` a
    finite and positive one (``check_real``), so that every probability
    lies in [0, 1]; one that underflows to 0.0 (``lam * distance`` beyond
    about 745) raises ValueError naming both.
    """
    check_graph(graph)
    if not (math.isfinite(check_real("lam", lam)) and lam >= 0.0):
        raise ValueError(f"lam must be a finite rate >= 0, got {lam}")
    if not (math.isfinite(check_real("scale", scale)) and scale > 0.0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    if graph.coordinates is None:
        raise ValueError("graph has no coordinates")
    coords = graph.coordinates
    probabilities = []
    for u, v in graph.edges:
        (x1, y1), (x2, y2) = coords[u], coords[v]
        dist = math.hypot(x2 - x1, y2 - y1) * scale
        probabilities.append(math.exp(-lam * dist))
    if 0.0 in probabilities:
        u, v = graph.edges[probabilities.index(0.0)]
        raise ValueError(
            f"lam={lam!r} and scale={scale!r} underflow edge ({u},{v})'s probability "
            "exp(-lam * scale * distance) to 0.0"
        )
    return replace(graph, probabilities=tuple(probabilities))


def assign_close_friends(
    graph: ProbabilisticGraph, f: int = 10, seed: int = 0
) -> ProbabilisticGraph:
    """Mark up to f random incident edges per vertex as close; close edges get
    probabilities in [0.5, 1.0], all others in (0, 0.5].  ``f`` and ``seed``
    must be non-negative integers."""
    check_graph(graph)
    f = _non_negative("f", f)
    rng = np.random.default_rng(_non_negative("seed", seed))
    close: set[Edge] = set()
    for v in range(graph.num_vertices):
        incident = sorted(graph.edges[i] for _, i in graph.adjacency[v])
        take = min(f, len(incident))
        if take == 0:
            continue
        picks = rng.choice(len(incident), size=take, replace=False)
        close.update(incident[int(i)] for i in picks)
    draws = rng.random(graph.num_edges)
    probabilities = tuple(
        0.5 + 0.5 * r if e in close else 0.5 * (1.0 - r)
        for e, r in zip(graph.edges, draws.tolist())
    )
    return replace(graph, probabilities=probabilities)
