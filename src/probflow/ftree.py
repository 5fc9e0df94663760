"""Component tree for incremental expected-flow computation.

The tree partitions the currently selected subgraph into mono-connected
components (unique paths, flow computed analytically as edge-probability
products) and bi-connected components (cycles, whose reach tables come
from the component's own edges only: exact over all 2^m worlds of its m
uncertain edges when 2^m is at most the sample budget, sampled otherwise;
see ``IncrementalComponentSampler.build``).  Each component drains through
a single articulation vertex toward the query vertex at the root, so
per-component results multiply up the tree.  A component's parent is the
component owning its articulation vertex (the root for the query vertex),
so no links are stored.

Two rules grow the tree.  A leaf edge, with one endpoint attached, hangs
its new vertex off the attached endpoint's component (cases IIa, IIb).  A
cycle-closing edge, with both endpoints attached, folds the parts of the
components that lie on the cycle it closes into one bi-connected component
(cases IIIa, IIIb, IVb, IVc).

One rule gives every attached vertex its reach.  Each one, v, hangs off
one vertex h(v), its mono parent or its bi component's articulation
vertex, by a factor g(v), the edge probability or its reach-table row, and
its reach triple t(v) to the query vertex is g(v)·t(h(v)).  Evaluation is
one pass in attach order, which meets every vertex after h(v).  A component's
articulation vertex cuts its members off from the query vertex, so it lay
on the path each member had to the query vertex when that member was
attached, and was attached before it; a mono member's parent is the vertex
it was attached to.

Flow multiplies through articulation vertices, so a cycle-closing edge
changes only its new ring.  A vertex's subtree mass is
M(v) = w(v) + Σ_{h(x)=v} g(x)·M(x), and the flow is M(q).  A cycle whose
ring members R hang off r with new rows g′ grows the flow by
t(r)·(Σ_{x∈R} g′(x)·Mext(x) − Σ_{x∈R, h(x)=r} g(x)·M(x)), where
Mext(x) = M(x) − Σ_{y∈R, h(y)=x} g(y)·M(y): R ∪ {r} is closed under h, so
no vertex outside R changes its hang or its factor.  Cycle probes score
this sum in O(|R|) and change nothing.

A tree keeps one evaluation for the graph it last served: every vertex's
reach, the leaf candidates' terms in a dict and in descending order, and
the subtree masses.  A leaf insert extends it in place (the new vertex's
terms; the masses are rebuilt at the next cycle probe); a cycle-closing
insert, a renewed reach table or a call naming another graph drops it.
Beside it sit the candidate edges, with the cycle candidates (both
endpoints attached) in a list of their own, and each probed cycle
candidate's ring: its plan and sampler, the drawn table a pruned probe
left for the next probe to judge again and, in a memo tree, its table and
the table's coefficients.  The rings are a memo tree's only table cache.
They survive every insert but their own edge's commit, which applies the
ring's plan and, in a memo tree, adopts its table.  A cycle-closing insert
marks stale the rings that take a component it folded: no other ring's
members change their hang or factor, and attach order never changes.  A
stale ring is planned again at its next probe, and keeps its table, draw
and sampler if its component is unchanged.  A call naming another graph
drops them all.  A copy keeps none of it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, KeysView, Mapping, Optional, Sequence

import numpy as np

from .graphs import (
    Edge, ProbabilisticGraph, candidate_edges, canonical_edge, check_integer, check_vertex,
)
from .sampling import (
    CI_BATCH,
    CI_MIN_SAMPLES,
    EXACT_SAMPLES,
    FlowEstimate,
    ReachTable,
    SamplerConfig,
    _reach_worlds,
    exact_reach,
    substream,
    wald_interval,
    world_weights,
)


class FTreeError(ValueError):
    """Structural misuse of the component tree."""


class DirtyComponentError(FTreeError):
    """An operation needed sampled reach tables but a component was stale."""


@dataclass
class MonoComponent:
    """Tree-shaped component: every member has a unique path to the articulation
    vertex.  ``parent_edges`` maps each member to (parent, edge probability)."""

    articulation: int
    parent_edges: dict[int, tuple[int, float]]

    @property
    def members(self) -> KeysView[int]:
        return self.parent_edges.keys()

    def path_to_articulation(self, v: int) -> list[int]:
        """Vertices from v up to and including the articulation vertex."""
        if v == self.articulation:
            return [v]
        if v not in self.members:
            raise FTreeError(f"vertex {v} not in component")
        path = [v]
        while path[-1] != self.articulation:
            path.append(self.parent_edges[path[-1]][0])
        return path

    def copy(self) -> "MonoComponent":
        return MonoComponent(self.articulation, dict(self.parent_edges))


@dataclass
class BiComponent:
    """Cyclic component: reach probabilities toward the articulation vertex are
    enumerated or sampled (``IncrementalComponentSampler.build``).  Without a
    reach table the component is dirty."""

    members: set[int]
    articulation: int
    internal_edges: set[Edge]
    reach: Optional[ReachTable] = None

    @property
    def dirty(self) -> bool:
        return self.reach is None

    def signature(self) -> str:
        """The component's identity as text, its sampling stream's key."""
        verts = ",".join(map(str, sorted(self.members)))
        edges = ",".join(f"{u}-{v}" for u, v in sorted(self.internal_edges))
        return f"av={self.articulation};v={verts};e={edges}"

    def copy(self) -> "BiComponent":
        return BiComponent(set(self.members), self.articulation, set(self.internal_edges), self.reach)


Component = MonoComponent | BiComponent


@dataclass(frozen=True)
class InsertReport:
    """What an insertion did and what it cost.

    ``edges_sampled_count`` is the structural sampling cost of the insertion:
    the number of edges in every component whose reach table had to be
    renewed, counted whether or not a memoized table made the actual work
    unnecessary, so the cost of an edge is a deterministic property of the
    tree shape.
    """

    case_taken: str
    edges_sampled_count: int


# The parts a cycle takes (``FTree._plan_cycle``); (p, lo, hi) over rounds
# (``IncrementalComponentSampler.rows``), as (member, round) arrays; a
# ring's coefficients (``FTree._coefficients``).
_Parts = list[tuple[int, Optional[list[int]], int]]
_Grid = tuple[np.ndarray, np.ndarray, np.ndarray]
_Coeffs = list[tuple[int, float, float, float]]


@cache
def _rounds(n: int) -> tuple[int, ...]:
    """The world counts a drawn table of ``n`` worlds is judged at (see
    ``FTree.probe_edge``): every multiple of ``CI_BATCH`` below n, then n."""
    return (*range(CI_BATCH, n, CI_BATCH), n)


def _prunes(est: FlowEstimate, floor: float) -> bool:
    """Whether ``selection.ci_prune`` drops a candidate estimated at
    ``est`` beside one whose lower bound is ``floor``: ``est`` has at least
    ``CI_MIN_SAMPLES`` worlds and its ub is below the larger of the floor
    and its own lb."""
    return est.samples_used >= CI_MIN_SAMPLES and est.ub < max(floor, est.lb)


@dataclass
class _Ring:
    """A probed cycle candidate, kept until its edge is committed: its
    ring's (attach position, vertex) pairs in attach order, the ring (a
    dirty ``BiComponent``), the insert report, the parts it takes
    (``_plan_cycle``'s plan is these parts, the ring and the report's
    case; None once an insert folded a component it takes, which makes
    the ring stale), the sampler prepared at the first build a probe needs
    (until a memo tree keeps the table it built), the drawn table and its
    rounds' grid a pruned probe left for the next probe and, in a memo tree
    only, its table and the table's coefficients once a probe read the
    table.  All but the parts and the report hold for as long as the
    ring's component is unchanged (see ``FTree._close_cycle``)."""

    members: list[tuple[int, int]]
    comp: BiComponent
    report: InsertReport
    parts: Optional[_Parts]
    sampler: Optional[IncrementalComponentSampler] = None
    drawn: Optional[tuple[ReachTable, _Grid]] = None
    scored: Optional[tuple[ReachTable, _Coeffs]] = None


@dataclass
class _Kept:
    """What a tree keeps of its last evaluation, for one graph.

    ``triples`` holds every attached vertex's (mean, lb, ub) reach factor
    to the query vertex, the query vertex included, in attach order.
    ``terms``, once asked for, holds each leaf candidate's (one endpoint
    attached) weighted reach term t·w for mean, lb and ub, and ``order``
    the same leaves as (−t·w mean, edge) pairs in ascending order;
    ``lb_order``, once ``leaf_floors`` asks for it, holds them as (−t·w
    lb, edge) pairs in ascending order.  All three survive leaf inserts,
    which add and drop leaves but change no other leaf's term.  ``rank``
    holds every attached vertex's attach position
    (the query vertex's is 0) and ``hangs`` each position's hang: the
    position of h(v) and g(v) (see the module docstring; position 0 holds
    a placeholder).  ``masses``, once a cycle probe asked for them, holds
    the mean, lb and ub subtree masses by position; a leaf insert drops
    them.
    """

    estimate: FlowEstimate
    triples: dict[int, tuple[float, float, float]]
    rank: dict[int, int]
    hangs: list[tuple[int, tuple[float, float, float]]]
    terms: Optional[dict[Edge, tuple[float, float, float]]] = None
    order: Optional[list[tuple[float, Edge]]] = None
    lb_order: Optional[list[tuple[float, Edge]]] = None
    masses: Optional[tuple[list[float], list[float], list[float]]] = None


class MemoStore:
    """A store of reach tables keyed by a ``SamplerConfig`` and a component
    key.  No tree uses it: a memo tree's probed rings (``_Ring``) are its
    only table cache.  It stays only because the benchmark tracer
    (``perfbench/tracer.py``) wraps ``lookup`` and ``store`` for its
    ``ftree.memo.*`` counters, which read 0, until that tracer drops them.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[SamplerConfig, object], ReachTable] = {}

    def lookup(self, cfg: SamplerConfig, key: object) -> Optional[ReachTable]:
        return self._entries.get((cfg, key))

    def store(self, cfg: SamplerConfig, key: object, table: ReachTable) -> None:
        self._entries[cfg, key] = table


class IncrementalComponentSampler:
    """One bi component's worlds: all 2^m of its m uncertain edges (p < 1)
    if 2^m <= ``cfg.samples`` (no draw, no stream, no master seed), else
    ``cfg.samples`` worlds drawn from a signature-derived stream (``draw``).

    Vertices and edges are taken in sorted order, so worlds never follow
    set order.  A drawn world i lands in bit i of every vertex's world
    bitset, so one draw gives the table of every prefix of its worlds; a
    draw's worlds are returned, never kept.  Construction prepares what
    every build reads: local vertices and edges, probabilities and the
    exact flag.  The first draw adds the stream and its start state, which
    every later draw restores; the first exact build adds the worlds'
    weights, which every later one reads.
    """

    def __init__(self, graph: ProbabilisticGraph, comp: BiComponent, cfg: SamplerConfig):
        self.articulation = comp.articulation
        self.cfg = cfg
        verts = sorted(comp.members | {comp.articulation})
        local = {v: i for i, v in enumerate(verts)}
        edges = sorted(comp.internal_edges)
        self._edges = [(local[u], local[v]) for u, v in edges]
        self._probs = [graph.probabilities[graph.edge_index[e]] for e in edges]
        self._verts = verts
        self._members = [v for v in verts if v != comp.articulation]
        self._source = local[comp.articulation]
        self.exact = 1 << sum(p < 1.0 for p in self._probs) <= cfg.samples
        self._comp = comp
        self._rng: Optional[np.random.Generator] = None  # at the first draw
        self._start: Optional[dict] = None
        self._weights: Optional[np.ndarray] = None  # at the first exact build

    def build(self, sizes: Sequence[int] = ()) -> tuple[ReachTable, Optional[_Grid]]:
        """The table, exact or of ``cfg.samples`` worlds drawn afresh; a drawn
        one comes with its ``rows`` grid over ``sizes`` if ``sizes`` (ending
        at ``cfg.samples``) are given, its last round the table."""
        if self.exact:
            return self.exact_table(), None
        n = self.cfg.samples
        grid = self.rows(self.draw(n), sizes or [n])
        p, lo, hi = (a[:, -1].tolist() for a in grid)
        table = ReachTable(self.articulation, dict(zip(self._members, zip(p, lo, hi))), n)
        return table, grid if sizes else None

    def exact_table(self) -> ReachTable:
        """Reach table over every world of the uncertain edges, weighted by
        world probability: ``EXACT_SAMPLES`` worlds, zero-width rows."""
        if self._weights is None:
            self._weights = world_weights(self._probs)
        reach = exact_reach(
            self._edges, self._probs, len(self._verts), self._source, self._weights
        )
        av = self.articulation
        rows = {v: (p, p, p) for v, p in zip(self._verts, reach.tolist()) if v != av}
        return ReachTable(articulation=av, rows=rows, sample_count=EXACT_SAMPLES)

    def draw(self, batch: int) -> list[int]:
        """``batch`` worlds drawn from the stream's start: per local vertex
        (the vertices in ascending order), the worlds in which it reaches
        the articulation vertex, as a bitset with world i in bit i."""
        if self._rng is None:
            self._rng = substream(self.cfg.master_seed, "component", self._comp.signature())
            self._start = self._rng.bit_generator.state
        else:
            self._rng.bit_generator.state = self._start
        return _reach_worlds(
            self._edges, self._probs, len(self._verts), self._source, batch, self._rng
        )

    def rows(self, bits: Sequence[int], sizes: Sequence[int]) -> _Grid:
        """Every member's (p, lo, hi) over ``sizes``, from the bitsets of
        ``draw``, as three (member, round) arrays, members in ascending
        order: round j's p is the member's successes in the first
        ``sizes[j]`` worlds (a popcount) over ``sizes[j]``, and its (lo, hi)
        are ``wald_interval`` of that p."""
        n = np.array(sizes, dtype=np.int64)
        masks = [(1 << k) - 1 for k in sizes]
        src = self._source
        counts = [(b & m).bit_count() for i, b in enumerate(bits) if i != src for m in masks]
        p = np.array(counts, dtype=np.int64).reshape(-1, len(sizes)) / n
        return (p, *wald_interval(p, n, self.cfg.alpha))


class FTree:
    """Mutable component tree rooted at the query vertex.

    One writer at a time; probes never change its structure or its tables.
    The kept evaluation (``_Kept``, see the module docstring) holds the
    tree's last evaluation, the leaf candidates' terms and their order once
    ``leaf_terms`` asked for them, and the subtree masses cycle probes
    score from.  Beside it sit the candidate edges (``candidates``), the
    cycle candidates among them (``cycle_candidates``) and each probed
    cycle candidate's ring (``_Ring``), reused when it is re-probed or
    committed under the same ``SamplerConfig``; all of it serves one graph
    (``_use_graph``).  A memo tree (``memo``: the ``_m`` variants) also
    keeps in each probed ring the full table its probes read, with the
    table's coefficients.  Interval-checked callers read
    each cycle candidate's best leaf bound from ``leaf_floors`` and probe
    against it (``probe_edge``'s ``floor``).
    """

    def __init__(self, q: int, memo: bool = False):
        self.q = check_integer("q", q)
        self.memo = memo
        self._next_id = 0
        self._graph: Optional[ProbabilisticGraph] = None
        self._kept: Optional[_Kept] = None
        self._cands: Optional[list[Edge]] = None
        self._cycles: Optional[list[Edge]] = None
        self._rings: dict[tuple[Edge, SamplerConfig], _Ring] = {}
        self.components: dict[int, Component] = {}
        self.root_id = self._add_component(MonoComponent(q, {}))
        self.vertex_index: dict[int, int] = {}
        self.selected_edges: set[Edge] = set()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _add_component(self, comp: Component) -> int:
        cid = self._next_id
        self._next_id += 1
        self.components[cid] = comp
        return cid

    def copy(self) -> "FTree":
        """Independent tree sharing only the immutable reach tables (probes
        need none).  It keeps no state: its first evaluation is from
        scratch, and it has no candidates and no cycle probes."""
        other = FTree.__new__(FTree)
        other.q = self.q
        other.memo = self.memo
        other._next_id = self._next_id
        other._graph, other._kept, other._cands, other._cycles = None, None, None, None
        other._rings = {}
        other.components = {cid: comp.copy() for cid, comp in self.components.items()}
        other.root_id = self.root_id
        other.vertex_index = dict(self.vertex_index)
        other.selected_edges = set(self.selected_edges)
        return other

    def _use_graph(self, graph: ProbabilisticGraph) -> None:
        """Serve ``graph`` from here on: the kept evaluation, candidates and
        rings are for one graph, so naming another drops them all.  Every
        public entry that reads or extends them calls this first.  The root
        is checked against each graph the tree takes up."""
        if graph is not self._graph:
            check_vertex(graph, self.q)
            self._graph, self._kept, self._cands, self._cycles = graph, None, None, None
            self._rings = {}

    def is_attached(self, v: int) -> bool:
        return v == self.q or v in self.vertex_index

    def attached_vertices(self) -> set[int]:
        return set(self.vertex_index) | {self.q}

    def component_of_vertex(self, v: int) -> int:
        """Component owning v as a member; the root for the query vertex."""
        if v == self.q:
            return self.root_id
        try:
            return self.vertex_index[v]
        except KeyError:
            raise FTreeError(f"vertex {v} is not attached") from None

    def parent_of(self, cid: int) -> Optional[int]:
        """The component owning ``cid``'s articulation vertex (the root for
        the query vertex); None for the root."""
        if cid == self.root_id:
            return None
        return self.vertex_index.get(self.components[cid].articulation, self.root_id)

    def dirty_components(self) -> list[int]:
        return sorted(
            cid
            for cid, comp in self.components.items()
            if isinstance(comp, BiComponent) and comp.dirty
        )

    def lowest_common_ancestor(self, c1: int, c2: int) -> int:
        """Deepest component that is an ancestor-or-self of both."""
        if c1 not in self.components or c2 not in self.components:
            raise FTreeError("component not in tree")
        seen = set()
        cur: Optional[int] = c1
        while cur is not None:
            seen.add(cur)
            cur = self.parent_of(cur)
        cur = c2
        while cur is not None:
            if cur in seen:
                return cur
            cur = self.parent_of(cur)
        raise FTreeError("components are not in the same tree")

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert_edge(
        self,
        graph: ProbabilisticGraph,
        edge: tuple[int, int],
        cfg: SamplerConfig,
        defer_sampling: bool = False,
    ) -> InsertReport:
        """Add one selected edge, dispatching the structural update cases.

        At least one endpoint must already be attached.  A cycle-closing
        edge probed under ``cfg`` applies its kept ring's plan, unless the
        ring is stale, and in a memo tree, unless ``defer_sampling`` is set,
        its ring takes the table the probe read, if the probe read a full
        one; any other cycle is planned here.  The commit drops the edge's
        rings (``_close_cycle``).  Unless ``defer_sampling`` is set, every
        component still without a table is sampled (``refresh``) and the
        tree is evaluated before returning; a deferred insert leaves every
        new component dirty.
        """
        self._use_graph(graph)
        e, prob, att_u, att_v = self._insertable(graph, edge)
        u, v = e
        fresh: Optional[int] = None
        ring = self._rings.get((e, cfg))
        if ring is not None and ring.parts is None:
            ring = None  # stale: planned afresh
        if att_u and att_v:
            self._kept = None
            if ring is None:
                case = self._close_cycle(*self._plan_cycle(u, v, e))
            else:
                case = self._close_cycle(ring.parts, ring.comp, ring.report.case_taken)
        else:
            attach, fresh = (u, v) if att_u else (v, u)
            case = self._attach_leaf(e, attach, fresh, prob)

        self.selected_edges.add(e)
        if self._cands is not None:
            self._advance_candidates(e, fresh)
        if self._kept is not None:
            # A leaf insert into an evaluated, hence clean, tree.
            return InsertReport(case_taken=case, edges_sampled_count=0)
        pending = self.dirty_components()
        cost = sum(len(self.components[cid].internal_edges) for cid in pending)
        if not defer_sampling:
            if ring is not None and ring.scored is not None:
                ring.comp.reach = ring.scored[0]
            if pending:
                self.refresh(graph, cfg)
            self._evaluate(graph)
        return InsertReport(case_taken=case, edges_sampled_count=cost)

    def _insertable(
        self, graph: ProbabilisticGraph, edge: tuple[int, int]
    ) -> tuple[Edge, float, bool, bool]:
        """The canonical edge, its probability and whether each endpoint is
        attached; raises FTreeError for an edge that cannot be inserted."""
        e = canonical_edge(*edge)
        if e not in graph.edge_index:
            raise FTreeError(f"edge {e} is not an edge of the graph")
        if e in self.selected_edges:
            raise FTreeError(f"edge {e} already selected")
        att_u, att_v = self.is_attached(e[0]), self.is_attached(e[1])
        if not att_u and not att_v:
            raise FTreeError(f"neither endpoint of {e} is attached")
        return e, graph.probabilities[graph.edge_index[e]], att_u, att_v

    def _attach_leaf(self, e: Edge, attach: int, fresh: int, prob: float) -> str:
        """Cases IIa/IIb: hang the new vertex ``fresh`` off ``attach`` by the
        edge ``e``.  The kept evaluation, if any, gains the new vertex's
        triple, hang and term in place and drops its masses."""
        kept = self._kept
        if kept is not None:
            [(_, t, term)] = self._leaf_terms([e])
            kept.triples[fresh] = t
            kept.rank[fresh] = len(kept.hangs)
            kept.hangs.append((kept.rank[attach], (prob, prob, prob)))
            kept.estimate = self.leaf_estimate(kept.estimate, term)
            kept.masses = None
        cid = self.component_of_vertex(attach)
        comp = self.components[cid]
        if isinstance(comp, MonoComponent):
            comp.parent_edges[fresh] = (attach, prob)
            self.vertex_index[fresh] = cid
            return "IIa"
        nid = self._add_component(MonoComponent(attach, {fresh: (attach, prob)}))
        self.vertex_index[fresh] = nid
        return "IIb"

    def _advance_candidates(self, e: Edge, fresh: Optional[int]) -> None:
        """Bring the kept candidates and cycle candidates, and the kept leaf
        terms and their order if any, up to date after inserting ``e``,
        which attached the vertex ``fresh`` if it was a leaf edge.

        The new vertex's edges to attached vertices stop being leaves and
        close cycles from now on; its other edges become leaf candidates.
        A leaf insert changes no attached vertex's triple, so every other
        leaf keeps its term and its place in both orders.
        """
        edges, cycles, graph = self._cands, self._cycles, self._graph
        del edges[bisect_left(edges, e)]
        if fresh is None:
            del cycles[bisect_left(cycles, e)]
            return
        kept = self._kept
        terms = kept.terms if kept is not None else None
        lows = kept.lb_order if kept is not None else None
        found: list[Edge] = []
        for nbr, i in graph.adjacency[fresh]:
            c = graph.edges[i]
            if self.is_attached(nbr):
                if c != e:
                    insort(cycles, c)
                if terms is not None:  # e itself, or a leaf that now closes a cycle
                    term = terms.pop(c)
                    del kept.order[bisect_left(kept.order, (-term[0], c))]
                    if lows is not None:
                        del lows[bisect_left(lows, (-term[1], c))]
            else:
                insort(edges, c)
                found.append(c)
        if terms is not None:
            for c, _, term in self._leaf_terms(found):
                terms[c] = term
                insort(kept.order, (-term[0], c))
                if lows is not None:
                    insort(lows, (-term[1], c))

    def _leaf_terms(
        self, edges: Iterable[Edge]
    ) -> Iterator[tuple[Edge, tuple[float, float, float], tuple[float, float, float]]]:
        """For each leaf edge (one endpoint attached) among ``edges``: the
        edge, the reach triple t = p·t(attach) its new vertex would get, and
        the weighted term t·w its insert adds, given the kept triples.

        The triple is the one ``_evaluate`` would compute, and the new vertex
        comes last in ``vertex_index``, so ``leaf_estimate`` of the kept
        estimate and the term matches a full evaluation of the grown tree
        bit for bit.
        """
        q, index = self.q, self.vertex_index
        triples, graph = self._kept.triples, self._graph
        for e in edges:
            u, v = e
            att_u = u == q or u in index
            if att_u == (v == q or v in index):
                continue
            attach, fresh = (u, v) if att_u else (v, u)
            p = graph.probabilities[graph.edge_index[e]]
            base = triples[attach]
            t = (p * base[0], p * base[1], p * base[2])
            w = graph.weights[fresh]
            yield e, t, (t[0] * w, t[1] * w, t[2] * w)

    @staticmethod
    def leaf_estimate(base: FlowEstimate, t: tuple[float, float, float]) -> FlowEstimate:
        """The estimate of a tree whose estimate is ``base`` once a leaf with
        the weighted term ``t`` (see ``leaf_terms``) is inserted."""
        return FlowEstimate(base.mean + t[0], base.lb + t[1], base.ub + t[2], base.samples_used)

    def candidates(self, graph: ProbabilisticGraph) -> list[Edge]:
        """The unselected edges of ``graph`` with an attached endpoint, in
        canonical order, as ``candidate_edges`` gives them.

        The list is the tree's own, kept up to date by every insert, cycle
        closing or not, as are the cycle candidates among them
        (``cycle_candidates``); a caller reads it and must not change it.
        """
        self._use_graph(graph)
        if self._cands is None:
            self._cands = candidate_edges(graph, self.attached_vertices(), self.selected_edges)
            attached = self.is_attached
            self._cycles = [c for c in self._cands if attached(c[0]) and attached(c[1])]
        return self._cands

    def cycle_candidates(self, graph: ProbabilisticGraph) -> list[Edge]:
        """The candidates (``candidates``) with both endpoints attached, in
        canonical order: the tree's own list, kept up to date by every
        insert, which a caller reads and must not change."""
        self.candidates(graph)
        return self._cycles

    def leaf_terms(
        self, graph: ProbabilisticGraph
    ) -> tuple[FlowEstimate, dict[Edge, tuple[float, float, float]]]:
        """The tree's estimate and, for every leaf candidate in ``graph``
        (one endpoint attached), the weighted term (t·w for mean, lb, ub)
        its insert adds: ``leaf_estimate`` of the two is what ``probe_edge``
        would estimate for the leaf, bit for bit, from the same samples.

        The terms are part of the tree's kept evaluation, kept in order
        (``best_leaf``) beside it and extended in place by leaf inserts; a
        caller reads them and must not change them.  A cycle-closing insert
        or a renewed reach table changes reach triples, so it drops the
        terms with the evaluation.  A tree without a kept evaluation for
        ``graph`` is evaluated first, and dropped terms are rebuilt in one
        pass over the candidates.
        """
        edges = self.candidates(graph)
        kept = self._kept or self._evaluate(graph)
        if kept.terms is None:
            kept.terms = {e: term for e, _, term in self._leaf_terms(edges)}
            kept.order = sorted((-term[0], e) for e, term in kept.terms.items())
        return kept.estimate, kept.terms

    def best_leaf(self, graph: ProbabilisticGraph) -> Optional[Edge]:
        """The leaf candidate whose insert gives the largest mean, the
        smallest edge among those that tie, or None with no leaf: the edge
        of ``min((-(mean + t[0]), e) for e, t in terms.items())`` over
        ``leaf_terms``, read from the front of the kept order.

        ``mean + t`` rounds monotonically in t, so the leaves whose rounded
        means tie with the best form the order's front run; distinct terms
        can still round to one mean, so the run is scanned for its smallest
        edge.
        """
        base, terms = self.leaf_terms(graph)
        order = self._kept.order
        if not order:
            return None
        mean = base.mean  # mean - (-t) is mean + t exactly
        top = mean - order[0][0]
        best = order[0][1]
        for neg, e in order:
            if mean - neg != top:
                break
            best = min(best, e)
        return best

    def leaf_floors(self, graph: ProbabilisticGraph, edges: Sequence[Edge]) -> list[Optional[float]]:
        """For each of ``edges`` (edges that are not leaves, in canonical
        order), the largest lower bound a leaf candidate before it in
        canonical order reaches, ``lb + t`` over ``leaf_terms``, or None
        if no leaf comes before it.

        ``lb + t`` rounds monotonically in t, so each is read from the
        leaves in descending lb-term order: the first leaf before the edge.
        That order is built at the first call after ``leaf_terms`` builds
        its terms and then kept beside them, so a run that never asks pays
        nothing; one walk from its front, taking ``edges`` from the last,
        serves them all and stops at the first leaf before the first edge.
        """
        base, terms = self.leaf_terms(graph)
        kept = self._kept
        if kept.lb_order is None:
            kept.lb_order = sorted((-t[1], e) for e, t in terms.items())
        order, lb = kept.lb_order, base.lb
        floors: list[Optional[float]] = [None] * len(edges)
        i, n = 0, len(order)
        for j in range(len(edges) - 1, -1, -1):
            e = edges[j]
            while i < n and order[i][1] > e:
                i += 1
            if i == n:
                break
            floors[j] = lb - order[i][0]  # lb - (-t) is lb + t exactly
        return floors

    def _plan_cycle(self, u: int, v: int, e: Edge) -> tuple[_Parts, BiComponent, str]:
        """Cases III and IV, read only: what folding the cycle the edge ``e``
        between attached vertices u and v closes into one bi component takes.

        The cycle climbs from each endpoint's component to the two
        components' lowest common ancestor.  Every component it passes gives
        up its part on the cycle: a bi component all of itself, a mono
        component the path between the two vertices where the cycle enters
        it.  Returns the parts, each a component id with the path cut out
        of a mono component and the vertex the path hangs off (None and the
        articulation vertex for a bi component); the ring, a new dirty bi
        component holding every part's members and edges plus ``e`` that
        drains through the last part's vertex; and the case.
        """
        cid_u, cid_v = self.component_of_vertex(u), self.component_of_vertex(v)
        anc = cid_u if cid_u == cid_v else self.lowest_common_ancestor(cid_u, cid_v)
        parts: _Parts = []
        members: set[int] = set()
        edges = {e}

        def take(cid: int, a: int, b: int) -> None:
            comp = self.components[cid]
            if isinstance(comp, BiComponent):
                parts.append((cid, None, comp.articulation))
                members.update(comp.members)
                edges.update(comp.internal_edges)
            else:
                path, wedge = self._split_mono(cid, a, b)
                parts.append((cid, path, wedge))
                members.update(path)
                edges.update(canonical_edge(x, comp.parent_edges[x][0]) for x in path)

        def climb(cid: int, entry: int) -> int:
            while cid != anc:
                av = self.components[cid].articulation
                take(cid, entry, av)
                entry, cid = av, self.parent_of(cid)  # type: ignore[assignment]
            return entry

        entry_u, entry_v = climb(cid_u, u), climb(cid_v, v)
        below = any(path is not None for _, path, _ in parts)
        if entry_u != entry_v:
            take(anc, entry_u, entry_v)
        ring = BiComponent(members, articulation=parts[-1][2], internal_edges=edges)
        if len(parts) == 1:
            case = "IIIb" if parts[0][1] is not None else "IIIa"
        else:
            case = "IVc-composite" if below else "IVb"
        return parts, ring, case

    def _close_cycle(self, parts: _Parts, ring: BiComponent, case: str) -> str:
        """Apply a plan (see ``_plan_cycle``): the ring joins the tree as a
        new component, every part gives up its members to it, and a
        component left empty goes (the ring takes the root's place).
        Members a mono part's path cut off regroup into new mono components
        hanging off the path vertex their old path crossed first, in member
        order; members are listed after their parents, so one pass groups
        them: a member joins its parent's group, or the parent's own if the
        parent is on the path.  Returns the case.

        The rings of the edge the new ring closes, under every config, go;
        the kept rings that take a part are marked stale (``_Ring``).  A
        ring that takes none is planned again as it was: every component it
        takes is unchanged, and a climb from one of them still leads to the
        others, or to the component owning the vertex where the ring's two
        climbs meet.  Its members keep their hangs, factors and attach
        positions, so its coefficients hold too.  Sharing no edge with the
        new ring is not enough: a mono part shared without a shared edge
        still loses a path and may split, and the ring's case can change
        with it.  A stale ring whose new plan has the same component keeps
        its table and coefficients for the same reason: had the new ring
        taken one of its members, its new plan would take the new ring
        whole, and with it the edge just committed, which its old plan
        lacks.
        """
        ring_id = self._add_component(ring)
        taken = {cid for cid, _, _ in parts}
        self._rings = {k: r for k, r in self._rings.items() if k[0] not in ring.internal_edges}
        for r in self._rings.values():
            if r.parts is not None and not taken.isdisjoint(c for c, _, _ in r.parts):
                r.parts = None
        for cid, path, wedge in parts:
            comp = self.components[cid]
            if isinstance(comp, MonoComponent):
                cut = set(path)
                group_of: dict[int, Optional[int]] = dict.fromkeys((wedge, comp.articulation))
                groups: dict[int, list[int]] = {}  # by anchor; group_of None: stays
                for m, (parent, _) in comp.parent_edges.items():
                    if m not in cut and m not in group_of:
                        group_of[m] = anchor = parent if parent in cut else group_of[parent]
                        if anchor is not None:
                            groups.setdefault(anchor, []).append(m)
                for x in path:
                    del comp.parent_edges[x]
                for anchor in sorted(groups):
                    group = {m: comp.parent_edges.pop(m) for m in groups[anchor]}
                    mid = self._add_component(MonoComponent(anchor, group))
                    self.vertex_index.update(dict.fromkeys(group, mid))
                if comp.parent_edges:
                    continue
            del self.components[cid]
            if cid == self.root_id:
                self.root_id = ring_id
        self.vertex_index.update(dict.fromkeys(ring.members, ring_id))
        return case

    def _split_mono(self, comp_id: int, v_src: int, v_dest: int) -> tuple[list[int], int]:
        """Where a cycle through v_src and v_dest cuts a mono component: the
        path between them, without the first vertex common to both paths
        toward the articulation vertex, and that vertex, which the path
        hangs off."""
        comp = self.components[comp_id]
        if not isinstance(comp, MonoComponent):
            raise FTreeError("_split_mono requires a mono component")
        path_src = comp.path_to_articulation(v_src)
        path_dest = comp.path_to_articulation(v_dest)
        dest_set = set(path_dest)
        wedge = next(x for x in path_src if x in dest_set)
        return path_src[: path_src.index(wedge)] + path_dest[: path_dest.index(wedge)], wedge

    # ------------------------------------------------------------------
    # sampling upkeep
    # ------------------------------------------------------------------

    def refresh(self, graph: ProbabilisticGraph, cfg: SamplerConfig) -> None:
        """Build every dirty component's reach table.

        Each dirty component gets its table from its sampler's ``build``
        (exact, or drawn at its full budget in one call).  Renewing a table
        drops the tree's kept evaluation.  No live kept ring takes a dirty
        component: only a cycle-closing insert makes one, after marking
        stale the rings it touches, and rings are planned on evaluated trees
        only.
        """
        for cid in self.dirty_components():
            self._kept = None
            comp = self.components[cid]
            assert isinstance(comp, BiComponent)
            comp.reach, _ = IncrementalComponentSampler(graph, comp, cfg).build()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def expected_flow(self, graph: ProbabilisticGraph) -> FlowEstimate:
        """Flow into the query vertex with propagated confidence bounds.

        Edge probabilities and exact tables have zero width; sampled tables
        contribute their per-vertex intervals, multiplied lower-times-lower /
        upper-times-upper down the hang chain (t = g·t(h), see the module
        docstring) and summed with the vertex weights.  The tree's kept
        evaluation is returned when it has one for ``graph``.
        """
        self._use_graph(graph)
        return (self._kept or self._evaluate(graph)).estimate

    def _evaluate(self, graph: ProbabilisticGraph) -> _Kept:
        """Evaluate the whole tree and keep the result as a new kept state;
        the caller has made ``graph`` the one the tree serves.  One pass in
        attach order (see the module docstring) gives every reach triple
        and hang and the weighted sums; a component's kind only picks each
        member's h and g.  The estimate's worlds are the fewest behind any
        reach table.  A dirty bi component raises DirtyComponentError.
        """
        weights, comps = graph.weights, self.components
        tables = [c.reach for c in comps.values() if isinstance(c, BiComponent)]
        if any(table is None for table in tables):
            raise DirtyComponentError("expected_flow called with stale components")
        samples_used = min([EXACT_SAMPLES] + [table.sample_count for table in tables])
        triples: dict[int, tuple[float, float, float]] = {self.q: (1.0, 1.0, 1.0)}
        rank = {self.q: 0}
        hangs: list[tuple[int, tuple[float, float, float]]] = [(0, (1.0, 1.0, 1.0))]
        mean = lb = ub = weights[self.q]
        for v, cid in self.vertex_index.items():
            comp = comps[cid]
            if isinstance(comp, MonoComponent):
                h, prob = comp.parent_edges[v]
                g = (prob, prob, prob)
            else:
                h, g = comp.articulation, comp.reach.rows[v]
            base = triples[h]
            hangs.append((rank[h], g))
            t = (g[0] * base[0], g[1] * base[1], g[2] * base[2])
            triples[v] = t
            rank[v] = len(rank)
            w = weights[v]
            mean += t[0] * w
            lb += t[1] * w
            ub += t[2] * w
        est = FlowEstimate(mean=mean, lb=lb, ub=ub, samples_used=samples_used)
        self._kept = _Kept(est, triples, rank, hangs)
        return self._kept

    def _coefficients(self, ring: list[tuple[int, int]], rows: Mapping[int, tuple]) -> _Coeffs:
        """The coefficients of the module docstring's sum regrouped by
        member: for each of ``ring``'s (attach position, vertex) pairs, in
        attach order, its position and g′(y) − g′(h(y))·g(y) for mean, lb
        and ub, with g′ the reach rows ``rows`` and g′(r) = 1
        (``_round_flows`` forms them for every round of a grid at once).
        They hold as long as the members keep their hangs."""
        hangs = self._kept.hangs
        new = {i: rows[x] for i, x in ring}
        one = (1.0, 1.0, 1.0)
        out = []
        for i, p in new.items():
            h, g = hangs[i]
            c = new.get(h, one)
            out.append((i, p[0] - c[0] * g[0], p[1] - c[1] * g[1], p[2] - c[2] * g[2]))
        return out

    def _masses(self) -> tuple[list[float], list[float], list[float]]:
        """The kept mean, lb and ub subtree masses by attach position, built
        at the first call after an evaluation or a leaf insert: one pass in
        reverse attach order adds each g(v)·M(v) to M(h(v)) after all that
        hangs off v was added to M(v)."""
        kept = self._kept
        if kept.masses is None:
            hangs = kept.hangs
            w = self._graph.weights
            m0 = [w[v] for v in kept.rank]
            m1, m2 = m0[:], m0[:]
            for i in range(len(hangs) - 1, 0, -1):
                h, g = hangs[i]
                m0[h] += g[0] * m0[i]
                m1[h] += g[1] * m1[i]
                m2[h] += g[2] * m2[i]
            kept.masses = m0, m1, m2
        return kept.masses

    def _ring_flow(self, coeffs: _Coeffs, r: int) -> tuple:
        """The (mean, lb, ub) flow of this tree once a cycle folds a ring
        into a bi component hanging off r, from the ring's coefficients
        (``_coefficients``): the sum of M(y) times y's coefficient, in
        attach order, times t(r), on top of the tree's flow."""
        m0, m1, m2 = self._masses()
        d0 = d1 = d2 = 0.0
        for i, k0, k1, k2 in coeffs:
            d0 += m0[i] * k0
            d1 += m1[i] * k1
            d2 += m2[i] * k2
        t, base = self._kept.triples[r], self._kept.estimate
        return base.mean + t[0] * d0, base.lb + t[1] * d1, base.ub + t[2] * d2

    def _round_flows(self, ring: list[tuple[int, int]], r: int, grid: _Grid) -> np.ndarray:
        """What ``_ring_flow`` gives for each round of a drawn table's
        ``grid`` (rows in ascending member order) on its own, as a (mean,
        lb, ub) × round array, scored at once and bit for bit: the
        coefficients of ``_coefficients`` as (channel, member, round)
        arrays in attach order, and their sums times the masses as an
        ``np.cumsum`` down the member axis, which adds in ``_ring_flow``'s
        order once its first term is added to 0.0."""
        kept = self._kept
        hangs, masses = kept.hangs, self._masses()
        row = {x: k for k, x in enumerate(sorted(x for _, x in ring))}
        at = {i: k for k, (i, _) in enumerate(ring)}
        up = [at.get(hangs[i][0], -1) for i, _ in ring]
        rows = np.stack(grid)[:, [row[x] for _, x in ring]]
        g = np.array([[hangs[i][1][c] for i, _ in ring] for c in range(3)])[:, :, None]
        m = np.array([[masses[c][i] for i, _ in ring] for c in range(3)])[:, :, None]
        terms = m * (rows - np.where((np.array(up) >= 0)[:, None], rows[:, up], 1.0) * g)
        terms[:, 0] += 0.0
        base = kept.estimate
        t = np.array(kept.triples[r])[:, None]
        return np.array([base.mean, base.lb, base.ub])[:, None] + t * np.cumsum(terms, axis=1)[:, -1]

    def _ring_samples(self, ring: list[tuple[int, int]], n: int) -> int:
        """The fewest worlds behind any table of the grown tree, whose ring
        table has ``n``: the tables outside the ring stay, and the fewest
        worlds behind them is at least the tree's own."""
        if n <= self._kept.estimate.samples_used:
            return n
        inside = {x for _, x in ring}
        bis = [c for c in self.components.values() if isinstance(c, BiComponent)]
        return min([n] + [c.reach.sample_count for c in bis if c.members.isdisjoint(inside)])

    def probe_edge(
        self,
        graph: ProbabilisticGraph,
        edge: tuple[int, int],
        cfg: SamplerConfig,
        floor: Optional[float] = None,
    ) -> tuple[FlowEstimate, InsertReport, bool]:
        """Flow and insert report of a hypothetical cycle-closing insertion,
        and whether ``floor`` pruned it, leaving this tree, its tables and
        its evaluation untouched (a tree with no kept evaluation is
        evaluated first; a dirty one raises).  Both endpoints must be
        attached: a leaf edge raises FTreeError, as ``leaf_terms`` scores
        leaves.

        The edge is scored from the subtree masses by the module
        docstring's formula, which agrees with an insert into a copy up to
        rounding.  Its ring's table comes, in this order, from the ring (a
        memo tree's ring keeps the table a probe read unless the floor
        pruned it), from the drawn table a pruned probe left in the ring, or
        from the ring's sampler.  A commit of a probed edge adopts the table
        its ring holds.

        ``floor`` is the best lower bound the caller has seen, or None.  A
        drawn table given a floor is judged on each of its rounds, its
        first ``CI_BATCH``, 2·``CI_BATCH``, ... worlds and all of them
        (``_pruned_round``): at the first round whose estimate has at
        least ``CI_MIN_SAMPLES`` worlds and an ub below the larger of the
        floor and its own lb, the ring is pruned and that round's estimate
        returned; the table and its grid stay in the ring, so the next
        probe judges them again against its own floor and masses and draws
        nothing.  An exact table is judged once, on its one estimate, after
        it is kept: it is complete, so a prune saves nothing.  A kept or
        stored table is never pruned.  A drawn table no round of which is
        pruned returns its last round's estimate, the full table's.

        Every tree keeps each cycle candidate it probes under ``cfg``
        (``_Ring``) until its edge is committed, so a re-probe or a commit
        skips planning and a re-probe skips preparing the sampler.  A ring
        an insert made stale (see ``_close_cycle``) is planned again: if
        its component, the articulation vertex and the edges, is unchanged,
        it takes the new parts and report and keeps the rest; otherwise a
        new ring replaces it.  A memo tree's ring also keeps its full
        table's coefficients, for re-probes to score in one multiply-add
        per member and channel; in a tree without a memo, every probe but
        one after a prune builds its table afresh.  The signature text is
        built only as a drawn sampler's stream key, once per sampler.  A
        re-probe returns what a fresh probe would, bit for bit.
        """
        self._use_graph(graph)
        e, _, att_u, att_v = self._insertable(graph, edge)
        if not (att_u and att_v):
            raise FTreeError(f"edge {e} closes no cycle: leaf_terms scores leaf edges")
        kept = self._kept or self._evaluate(graph)
        ring = self._rings.get((e, cfg))
        if ring is None or ring.parts is None:
            parts, comp, case = self._plan_cycle(*e, e)
            report = InsertReport(case, len(comp.internal_edges))
            if ring is not None and (ring.comp.articulation, ring.comp.internal_edges) == (
                comp.articulation, comp.internal_edges
            ):
                ring.parts, ring.report = parts, report  # its component is unchanged
            else:
                members = sorted((kept.rank[x], x) for x in comp.members)
                ring = self._rings[e, cfg] = _Ring(members, comp, report, parts)
        members, r, report, scored = ring.members, ring.comp.articulation, ring.report, ring.scored
        check = None  # the floor an exact table is judged against
        if scored is None:
            drawn, ring.drawn = ring.drawn, None
            if drawn is None:
                ring.sampler = ring.sampler or IncrementalComponentSampler(graph, ring.comp, cfg)
                drawn = ring.sampler.build(() if floor is None else _rounds(cfg.samples))
            table, grid = drawn
            if grid is None:
                check = floor
            elif floor is not None:
                est = self._pruned_round(members, r, table, grid, floor)
                if est is not None:
                    ring.drawn = drawn
                    return est, report, True
            scored = table, self._coefficients(members, table.rows)
            if self.memo:
                ring.scored, ring.sampler = scored, None  # no memoized probe builds again
        table, coeffs = scored
        n = table.sample_count
        est = FlowEstimate(*self._ring_flow(coeffs, r), self._ring_samples(members, n))
        return est, report, check is not None and _prunes(est, check)

    def _pruned_round(
        self, members: list[tuple[int, int]], r: int, table: ReachTable, grid: _Grid, floor: float
    ) -> Optional[FlowEstimate]:
        """The estimate of the first of a drawn table's rounds (``_rounds``
        of its worlds; ``grid`` holds their rows) that ``floor`` prunes
        (``_prunes``), or None if none is.

        A round's worlds behind the grown tree, ``_ring_samples``, never
        fall as its own grow, so the rounds that have ``CI_MIN_SAMPLES``
        are the ones from the first with that many worlds of its own on,
        if the last has.  Regrouped by member, the ring's lb is a sum of
        lo rows times outside-ring masses Mext ≥ 0, times t(r) ≥ 0, so it
        never falls as a lo row grows; nor does its ub as a hi row grows.
        Scored, as one table, with each member's largest lo and smallest hi
        over those rounds, the ring's lb bounds every round's from above
        and its ub every round's from below: if, with a margin far above
        their rounding error, they leave the ub at or above both the floor
        and the lb, no round is pruned.  Otherwise every round is scored
        (``_round_flows``) and judged.
        """
        sizes = _rounds(table.sample_count)
        if self._ring_samples(members, sizes[-1]) < CI_MIN_SAMPLES:
            return None
        first = bisect_left(sizes, CI_MIN_SAMPLES)
        lo_max, hi_min = grid[1][:, first:].max(1).tolist(), grid[2][:, first:].min(1).tolist()
        bound = dict(zip(table.rows, zip(lo_max, lo_max, hi_min)))
        _, lb, ub = self._ring_flow(self._coefficients(members, bound), r)
        scale = self._kept.triples[r][2] * sum(self._masses()[2][i] for i, _ in members)
        margin = 1e-9 * (abs(lb) + abs(ub) + scale)
        if ub - margin >= max(floor, lb + margin):
            return None
        means, lbs, ubs = self._round_flows(members, r, grid)
        hits = np.flatnonzero(ubs[first:] < np.maximum(floor, lbs[first:]))
        if not hits.size:
            return None
        j = first + int(hits[0])
        flow = float(means[j]), float(lbs[j]), float(ubs[j])
        return FlowEstimate(*flow, self._ring_samples(members, sizes[j]))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def dump(self, graph: Optional[ProbabilisticGraph] = None) -> str:
        """One line per component, pre-order, children sorted structurally."""

        def name(v: int) -> str:
            return graph.labels[v] if graph is not None else str(v)

        def sort_key(cid: int):
            comp = self.components[cid]
            return (comp.articulation, tuple(sorted(comp.members)))

        children: dict[int, list[int]] = {cid: [] for cid in self.components}
        for cid in sorted(self.components, key=sort_key):
            pid = self.parent_of(cid)
            if pid is not None:
                children[pid].append(cid)
        display: dict[int, int] = {}
        order: list[int] = []

        def walk(cid: int) -> None:
            display[cid] = len(display)
            order.append(cid)
            for kid in children[cid]:
                walk(kid)

        walk(self.root_id)
        lines = []
        for cid in order:
            comp = self.components[cid]
            kind = "MONO" if isinstance(comp, MonoComponent) else "BI"
            members = ",".join(name(v) for v in sorted(comp.members))
            kids = ",".join(str(display[k]) for k in children[cid])
            lines.append(
                f"{display[cid]} {kind} AV={name(comp.articulation)} V={{{members}}} children=[{kids}]"
            )
        return "\n".join(lines)

    def verify(self, graph: ProbabilisticGraph) -> None:
        """Check every structural invariant; raises FTreeError on violation.

        They include the attach order evaluation walks in (see the module
        docstring): an articulation vertex is attached before its
        component's members, and a mono component lists its members in
        attach order, each after its parent.  Parents and links then always
        lead to an earlier vertex, so neither can cycle and no mono path can
        leave its component.
        """
        if self.root_id not in self.components:
            raise FTreeError("root component missing")
        if self.components[self.root_id].articulation != self.q:
            raise FTreeError("root articulation vertex is not the query vertex")
        if self.q in self.vertex_index:
            raise FTreeError("query vertex must not be a member")

        seen_members: set[int] = set()
        for cid, comp in self.components.items():
            overlap = comp.members & seen_members
            if overlap:
                raise FTreeError(f"vertices {overlap} appear in more than one component")
            seen_members |= comp.members
            for v in comp.members:
                if self.vertex_index.get(v) != cid:
                    raise FTreeError(f"vertex index out of sync for {v}")
            if comp.articulation in comp.members:
                raise FTreeError("articulation vertex may not be a member of its component")
        if set(self.vertex_index) != seen_members:
            raise FTreeError("vertex index does not match component members")

        order = {v: i for i, v in enumerate(self.vertex_index)}
        order[self.q] = -1
        for comp in self.components.values():
            last = order.get(comp.articulation)
            if last is None:
                raise FTreeError("articulation vertex is not attached")
            if any(order[m] < last for m in comp.members):
                raise FTreeError("articulation vertex is attached after a member")
            if isinstance(comp, MonoComponent):
                listed = {comp.articulation}
                for m, (parent, _) in comp.parent_edges.items():
                    if order[m] < last:
                        raise FTreeError("mono members are not listed in attach order")
                    if parent not in listed:
                        raise FTreeError(f"mono member {m}'s parent is not listed before it")
                    listed.add(m)
                    last = order[m]

        all_edges: set[Edge] = set()
        for comp in self.components.values():
            if isinstance(comp, MonoComponent):
                edges = {canonical_edge(v, p) for v, (p, _) in comp.parent_edges.items()}
            else:
                closure = comp.members | {comp.articulation}
                if len(closure) < 3:
                    raise FTreeError("bi component smaller than three vertices")
                edges = set(comp.internal_edges)
                for u, v in edges:
                    if u not in closure or v not in closure:
                        raise FTreeError("internal edge escapes the component")
                if not _biconnected(closure, edges):
                    raise FTreeError("bi component has a cut vertex or is disconnected")
                if comp.reach is not None:
                    if set(comp.reach.rows) != comp.members:
                        raise FTreeError("reach table does not cover the members")
                    if comp.reach.articulation != comp.articulation:
                        raise FTreeError("reach table articulation mismatch")
            for e in edges:
                if e not in graph.edge_index:
                    raise FTreeError(f"component edge {e} not in graph")
            all_edges |= edges
        # Past the checks above, two components' vertex sets share at most
        # one vertex, so no edge lies in two of them.
        if all_edges != self.selected_edges:
            raise FTreeError("component edges do not partition the selected edges")


def _biconnected(vertices: set[int], edges: set[Edge]) -> bool:
    """Brute-force cut-vertex check: the graph stays connected after removing
    any single vertex (components here are small)."""
    if not _connected(vertices, edges):
        return False
    if len(vertices) <= 2:
        return True
    for cut in vertices:
        rest = vertices - {cut}
        kept = {e for e in edges if cut not in e}
        if not _connected(rest, kept):
            return False
    return True


def _connected(vertices: set[int], edges: set[Edge]) -> bool:
    if not vertices:
        return True
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vertices


def new_ftree(q: int, memo: bool = False) -> FTree:
    """Fresh tree holding only the query vertex, a memo tree if ``memo``."""
    return FTree(q, memo)
