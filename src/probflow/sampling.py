"""Seeded Monte-Carlo estimation of reachability and expected flow, and
exact enumeration for small edge sets.

All randomness flows from one master seed: every sampling task derives an
independent substream from a stable hash of its purpose and its subject,
so results depend only on the configuration, never on scheduling or call
order.  A whole-graph estimate draws from a stream keyed by the graph's
signature, in one loop (``mc_counts``) that draws, propagates and counts
its worlds chunk by chunk; a component tree's drawn tables read the
tree's ``WorldStore``, which draws each edge's worlds once, from a stream
keyed by the edge, and is the one owner of the graph and the config
whose worlds it holds.  Sampled worlds and enumerated ones go through one
propagation kernel, ``_reach_bitsets``, which takes each edge's worlds
as a bitset.  An enumeration covers every world of the uncertain edges
and draws nothing, through one routine, ``enumerated_reach``: it
propagates a frame's world patterns and sums each vertex's world weights
in one masked reduce.  A small bi component's sampler builds its frame
(``world_frame``: the patterns and the weights) once, when it is made,
so each build of its exact table is the enumeration alone; the oracle's
``exact_reach`` builds the frame at each call.  A world store's first
draw of an edge, one edge in one block, is drawn and packed as one row.
Every confidence bound is a normal-approximation interval whose critical
value z comes from the standard library's normal quantile
(``statistics.NormalDist().inv_cdf``, through ``normal_quantile``).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import cache
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .graphs import Edge, ProbabilisticGraph, check_instance, check_integer, check_real, check_vertex

# samples_used value reported for estimates with no sampling error at all
# (analytic flow on cycle-free trees, fully deterministic graphs).
EXACT_SAMPLES = 2**31 - 1

# Cap on the edge-worlds of one propagation chunk, keeps memory flat.  A
# chunk's packed bits take _CHUNK_BUDGET // 8 bytes; its uniforms are drawn,
# and an enumeration's rows summed, in blocks of as many bytes of doubles.
_CHUNK_BUDGET = 4_000_000

# Interval pruning trusts a normal-approximation bound only from this many
# sampled worlds on.
CI_MIN_SAMPLES = 30


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for Monte-Carlo estimation and confidence bounds."""

    samples: int = 1000
    alpha: float = 0.01
    master_seed: int = 0

    def __post_init__(self) -> None:
        # Kept as ints: world bitsets shift by samples, streams hash the seed's text.
        for name in ("samples", "master_seed"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        check_alpha("alpha", self.alpha)


def check_alpha(name: str, alpha: float) -> None:
    """Raise ValueError naming ``name`` unless ``alpha`` is a real number
    (``check_real``) in (0,1) and above 2**-53, so that 1 - alpha/2 is
    below 1.0 and ``critical_z`` has a finite value."""
    if not (0.0 < check_real(name, alpha) < 1.0):
        raise ValueError(f"{name} must be in (0,1)")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(
            f"{name} must be above 2**-53 (about 1.1e-16), got {alpha!r}: "
            "1 - alpha/2 rounds to 1.0, whose normal quantile is infinite"
        )


@dataclass(frozen=True)
class FlowEstimate:
    """Expected-flow value with aggregated confidence bounds."""

    mean: float
    lb: float
    ub: float
    samples_used: int

    def __post_init__(self) -> None:
        if not (self.lb <= self.mean + 1e-12 and self.mean <= self.ub + 1e-12):
            raise ValueError(f"bounds must bracket the mean: {self.lb} {self.mean} {self.ub}")
        if self.samples_used < 1:
            raise ValueError("samples_used must be >= 1")


@dataclass(frozen=True)
class ReachTable:
    """Each component vertex's (p, lo, hi) reach toward the articulation
    vertex over ``sample_count`` worlds, as the table's builder computed it."""

    articulation: int
    rows: Mapping[int, tuple[float, float, float]]
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.articulation in self.rows:
            raise ValueError("articulation vertex must not appear in the table")
        for v, (p, lo, hi) in self.rows.items():
            if not (0.0 <= lo <= p <= hi <= 1.0):
                raise ValueError(f"row {(p, lo, hi)} for vertex {v} outside 0 <= lo <= p <= hi <= 1")


def substream(master_seed: int, *key: object) -> np.random.Generator:
    """Derive an independent generator from the master seed and a task key.

    The key is hashed through blake2b so equal (seed, key) pairs always give
    the same stream and distinct tasks get unrelated streams.
    """
    text = "\x1f".join([str(master_seed), *map(str, key)])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _live_worlds(rng: np.random.Generator, probs: np.ndarray, count: int) -> list[int]:
    """``count`` sampled worlds of the given edges: each edge's live set as
    an int, world i in bit i.  The uniforms are read world by world, as one
    ``rng.random((count, E))`` reads them, but drawn into one buffer of at
    most ``_CHUNK_BUDGET // 64`` doubles (and at least 8 worlds), a block
    at a time, each block a whole number of bytes of worlds but the last.
    Each block is compared and packed edge by edge as it is drawn (as one
    run of bits, or row by row when its worlds end mid-byte); the blocks'
    byte rows are then joined edge by edge.  One edge in one block (a
    world store's draw) is drawn, compared and packed as one row, with
    the same bits and no buffer."""
    edges = probs.size
    if edges == 0:
        return []
    block = max(8, _CHUNK_BUDGET // 64 // edges // 8 * 8)
    if edges == 1 and count <= block:
        return [int.from_bytes(np.packbits(rng.random(count) < probs, bitorder="little").tobytes(), "little")]
    uniforms = np.empty((min(block, count), edges))
    packed = []
    for lo in range(0, count, block):
        present = rng.random(out=uniforms[:count - lo]) < probs
        rows = np.ascontiguousarray(present.T)
        bits = np.packbits(rows, axis=1 if len(present) % 8 else None, bitorder="little")
        packed.append(bits.reshape(edges, -1))
    data = (np.hstack(packed) if len(packed) > 1 else packed[0]).tobytes()
    width = (count + 7) // 8
    return [int.from_bytes(data[j * width:(j + 1) * width], "little") for j in range(edges)]


class WorldStore:
    """Each edge's presence over ``cfg.samples`` sampled worlds of one
    graph, as one bitset with world i in bit i, drawn at the first
    ``live`` call that asks for the edge and then kept.  The store owns
    the ``graph`` and the ``cfg`` it was made with, and a component
    sampler reads both from it, so a sampler's probabilities and worlds
    are the store's by construction.

    Edge (u, v) is drawn from its own stream, ``substream(master_seed,
    "edge", u, v)``, by ``_live_worlds`` with one edge (present where the
    uniform is below p), so its bits depend only on the master seed, the
    edge, ``samples`` and p: never on which caller asks first, or in what
    order.  Every table drawn from one store sees the same worlds of an
    edge (common random numbers), and tables of edge-disjoint components
    stay independent.
    """

    def __init__(self, graph: ProbabilisticGraph, cfg: SamplerConfig):
        self.graph = graph
        self.cfg = cfg
        self._bits: dict[Edge, int] = {}

    def live(self, edges: Sequence[Edge]) -> list[int]:
        """The bitsets of ``edges`` (canonical edges of the graph), in order."""
        bits, graph, cfg = self._bits, self.graph, self.cfg
        for e in edges:
            if e not in bits:
                p = np.array([graph.probabilities[graph.edge_index[e]]])
                [bits[e]] = _live_worlds(substream(cfg.master_seed, "edge", *e), p, cfg.samples)
        return [bits[e] for e in edges]


def _reach_bitsets(
    live: Sequence[int], edges: Sequence[Edge], num_vertices: int, source: int, count: int
) -> list[int]:
    """Worlds in which each vertex reaches ``source``, one bitset per vertex.

    ``live`` holds each edge's worlds, world i in bit i, over ``count``
    worlds: packed sampled columns and enumerated patterns alike.  The
    source's full set spreads along the edges by a FIFO worklist: a vertex
    whose set grows is queued again until nothing changes.  The sets
    reached are the least fixpoint, whatever the order; first in, first
    out spreads each vertex few times.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for (u, v), bits in zip(edges, live):
        if bits:
            adj[u].append((v, bits))
            adj[v].append((u, bits))
    reached = [0] * num_vertices
    reached[source] = (1 << count) - 1
    queued = [False] * num_vertices
    work = deque([source])
    while work:
        x = work.popleft()
        queued[x] = False
        rx = reached[x]
        for y, bits in adj[x]:
            ry = reached[y]
            grown = rx & bits | ry
            if grown != ry:
                reached[y] = grown
                if not queued[y]:
                    queued[y] = True
                    work.append(y)
    return reached


# Enumerated worlds' patterns are kept for components of at most this many
# uncertain edges (ints only, under 16 kB in all); larger ones, which only
# the oracle enumerates, are built per call.
_KEPT_PATTERN_EDGES = 12


def _build_patterns(m: int) -> tuple[int, ...]:
    count = 1 << m
    patterns = []
    for i in range(m):
        half = 1 << i
        bits, period = ((1 << half) - 1) << half, 2 * half  # edge i's first period
        while period < count:
            bits |= bits << period
            period *= 2
        patterns.append(bits)
    return tuple(patterns)


_kept_patterns = cache(_build_patterns)


def _world_patterns(m: int) -> tuple[int, ...]:
    """The 2^m worlds of m enumerated edges, in which edge i is present in
    world w when bit i of w is set: each edge's live set as an int, its
    worlds in runs of 2^i, built by shifting and OR-ing."""
    return (_kept_patterns if m <= _KEPT_PATTERN_EDGES else _build_patterns)(m)


# World weights multiply the factors of at most this many leading
# uncertain edges in one reduce (``world_weights``), whose kept indices
# take under 13 kB in all.  The reduce costs m * 2^m products, doubling
# 2^m and two calls per edge, so past a few hundred worlds doubling the
# rest is as fast, and holds no m x 2^m temporaries.
_REDUCED_WEIGHT_EDGES = 7


@cache
def _factor_index(m: int) -> np.ndarray:
    """Read-only [m, 2^m] indices into the factors (1 - p_0, p_0, 1 - p_1,
    p_1, ...) of m edges: row i picks edge i's factor in each world, p_i
    where bit i of the world is set (``_world_patterns``), 1 - p_i where
    it is not."""
    edge = np.arange(m)[:, None]
    index = 2 * edge + ((np.arange(1 << m) >> edge) & 1)
    index.flags.writeable = False
    return index


def world_weights(probs: Sequence[float]) -> np.ndarray:
    """The probability of each world of the uncertain edges (p < 1) among
    ``probs``, in ``exact_reach``'s world order: the product of its edges'
    factors (p or 1 - p) in edge order, each world multiplying its factors
    left to right.  The factors of the first ``_REDUCED_WEIGHT_EDGES``
    uncertain edges are picked by their kept indices (``_factor_index``)
    and multiplied down the edge axis in one ``np.multiply.reduce``; each
    later uncertain edge i doubles the weights in place: the 2^i weights
    so far times p_i fill the next 2^i (the worlds with edge i present)
    and are then scaled by 1 - p_i."""
    uncertain = [p for p in probs if p < 1.0]
    head = min(len(uncertain), _REDUCED_WEIGHT_EDGES)
    weights = np.empty(1 << len(uncertain))
    factors = np.array([f for p in uncertain[:head] for f in (1.0 - p, p)], dtype=float)
    np.multiply.reduce(factors.take(_factor_index(head)), axis=0, out=weights[:1 << head])
    for i in range(head, len(uncertain)):
        half, p = 1 << i, uncertain[i]
        np.multiply(weights[:half], p, out=weights[half:2 * half])
        weights[:half] *= 1.0 - p
    return weights


def world_frame(probs: Sequence[float]) -> tuple[list[int], np.ndarray]:
    """What an enumeration of edges of probabilities ``probs`` reads
    besides the edges themselves: each edge's live set over the 2^m worlds
    of the m uncertain edges (p < 1), in edge order (an uncertain edge's
    ``_world_patterns`` row; every world for a certain one), and those
    worlds' weights (``world_weights``), whose size is the world count.
    A component with an exact table keeps its frame for every build."""
    uncertain = [j for j, p in enumerate(probs) if p < 1.0]
    live = [(1 << (1 << len(uncertain))) - 1] * len(probs)
    for j, bits in zip(uncertain, _world_patterns(len(uncertain))):
        live[j] = bits
    return live, world_weights(probs)


def enumerated_reach(
    frame: tuple[list[int], np.ndarray],
    edges: Sequence[Edge],
    num_vertices: int,
    source: int,
    targets: Sequence[int],
) -> np.ndarray:
    """Exact probability of each of ``targets`` (vertex ids, in order)
    reaching ``source`` over every world of an enumeration's frame
    (``world_frame``): the edges' live sets propagated
    (``_reach_bitsets``), then each target's reach the sum of its worlds'
    weights: its row of world bits, unpacked into one bit matrix with the
    other targets' rows, times the weights (a bit is 0 or 1 and a weight
    finite and non-negative, so each product is the weight or +0.0, as a
    mask would give), summed in world order by one ``np.add.reduce``, with
    no matrix product (so the thread count cannot change a bit).  The rows go in chunks of
    at most ``_CHUNK_BUDGET // 64`` doubles, and at least one row, so a
    component's rows are one chunk and an enumeration of 2^20 worlds holds
    its weights, its vertices' bitsets and one row at a time.  A sum of
    world probabilities is at least 0 but may round above 1, so it is
    clamped to 1."""
    live, weights = frame
    count = weights.size
    reached = _reach_bitsets(live, edges, num_vertices, source, count)
    width = (count + 7) // 8
    step = max(1, _CHUNK_BUDGET // 64 // count)
    reach = np.empty(len(targets))
    for lo in range(0, len(targets), step):
        rows = [reached[v].to_bytes(width, "little") for v in targets[lo:lo + step]]
        packed = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), width)
        bits = np.unpackbits(packed, axis=1, count=count, bitorder="little")
        np.add.reduce(bits * weights, axis=1, out=reach[lo:lo + len(rows)])
    return np.minimum(reach, 1.0, out=reach)


def exact_reach(edges: Sequence[Edge], probs: Sequence[float], num_vertices: int, source: int) -> np.ndarray:
    """Exact probability of each vertex reaching ``source``, over every
    world of the uncertain edges (p < 1) in their listed order; edges of
    probability 1 are present in every world and not enumerated: the
    enumeration (``enumerated_reach``) of the edges' frame
    (``world_frame``) for every vertex, the one path that exact component
    tables take too."""
    return enumerated_reach(world_frame(probs), edges, num_vertices, source, range(num_vertices))


def mc_expected_flow(graph: ProbabilisticGraph, q: int, cfg: SamplerConfig) -> FlowEstimate:
    """Whole-graph Monte-Carlo estimate of the expected flow into ``q``:
    ``flow_estimate`` of ``mc_counts``, drawn from the stream keyed by the
    graph's signature.  A ``cfg`` that is not a ``SamplerConfig`` raises
    ValueError naming it."""
    q = check_vertex(graph, q)
    check_instance("cfg", cfg, SamplerConfig)
    counts = mc_counts(graph.edges, graph.probabilities, graph.num_vertices, q, graph.signature(), cfg)
    return flow_estimate(counts, graph.weights, cfg)


def mc_counts(
    edges: Sequence[Edge],
    probs: Sequence[float],
    num_vertices: int,
    q: int,
    key: str,
    cfg: SamplerConfig,
) -> np.ndarray:
    """``mc_expected_flow``'s draw step, and the one whole-graph draw
    loop: per vertex of the graph on vertices 0..num_vertices-1, the
    number of its ``cfg.samples`` sampled worlds in which it is connected
    to ``q`` (q itself in every one), drawn from the stream keyed by
    ``key``.  The worlds go in chunks of at most ``_CHUNK_BUDGET``
    edge-worlds: each chunk's edges are drawn and packed in blocks
    (``_live_worlds``), propagated (``_reach_bitsets``) and counted, so
    memory stays flat in ``cfg.samples`` and a chunk never holds its
    floats."""
    rng = substream(cfg.master_seed, "mc-flow", key, q)
    parr = np.asarray(probs, dtype=float)
    chunk = max(1, _CHUNK_BUDGET // max(1, len(edges)))
    counts = np.zeros(num_vertices, dtype=np.int64)
    for done in range(0, cfg.samples, chunk):
        count = min(chunk, cfg.samples - done)
        reached = _reach_bitsets(_live_worlds(rng, parr, count), edges, num_vertices, q, count)
        counts += [r.bit_count() for r in reached]
    return counts


def flow_mean(counts: np.ndarray, weights: np.ndarray, samples: int) -> float:
    """``flow_estimate``'s mean: over the sampled worlds, the summed weight
    of the vertices connected to q, from per-vertex success counts and a
    float array of the vertices' weights."""
    return float(weights @ (counts / samples))


def flow_estimate(counts: np.ndarray, weights: Sequence[float], cfg: SamplerConfig) -> FlowEstimate:
    """``mc_expected_flow``'s estimate step: the mean flow of per-vertex
    success counts over ``cfg.samples`` worlds (``flow_mean``), with bounds
    that aggregate per-vertex normal-approximation intervals, weighted and
    summed."""
    weights = np.asarray(weights, dtype=float)
    lo, hi = wald_interval(counts / cfg.samples, cfg.samples, cfg.alpha)
    return FlowEstimate(
        mean=flow_mean(counts, weights, cfg.samples),
        lb=float(weights @ lo),
        ub=float(weights @ hi),
        samples_used=cfg.samples,
    )


def confidence_interval(successes, samples, alpha: float):
    """Two-sided normal-approximation interval for a binomial proportion.

    Half-width is z * sqrt(p(1-p)/samples), clamped to [0,1].  Degenerate
    proportions (0 or 1) give a zero-width interval; callers guard pruning
    decisions with a minimum sample count instead.  ``successes`` and
    ``samples`` may be integer-valued arrays that broadcast together: one
    interval per element, each through the float operations of the scalar
    case.
    """
    successes, samples = np.asarray(successes), np.asarray(samples)
    if (samples < 1).any():
        raise ValueError("samples must be >= 1")
    if ((successes < 0) | (successes > samples)).any():
        raise ValueError("successes must be within [0, samples]")
    return wald_interval(successes / samples, samples, alpha)


def wald_interval(p_hat, samples, alpha: float):
    """``confidence_interval``'s formula, for proportions already known to
    be successes / samples: the one implementation of the interval."""
    half = critical_z(alpha) * np.sqrt(p_hat * (1.0 - p_hat) / samples)
    return np.maximum(p_hat - half, 0.0), np.minimum(p_hat + half, 1.0)


@cache
def critical_z(alpha: float) -> float:
    """Two-sided normal critical value z = Phi^-1(1 - alpha/2), once per alpha."""
    return normal_quantile(1.0 - alpha / 2.0)


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF: the standard library's
    ``statistics.NormalDist().inv_cdf`` (Wichura's Algorithm AS 241).
    Against 50-digit references it is off by at most 3 ulp on the grid of
    critical values the tests check (q = 0.9 to 1 - 1e-10, and their
    mirrors), and by at most 5 on 8500 random quantiles from 1e-10 to
    1 - 1e-10."""
    if not (0.0 < check_real("q", q) < 1.0):
        raise ValueError("quantile argument must be in (0,1)")
    return NormalDist().inv_cdf(q)
