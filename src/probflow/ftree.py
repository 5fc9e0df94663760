"""Component tree for incremental expected-flow computation.

The tree partitions the currently selected subgraph into mono-connected
components (unique paths, flow computed analytically as edge-probability
products) and bi-connected components (cycles, whose reach tables come
from the component's own edges only: exact over all 2^m worlds of its m
uncertain edges when 2^m is at most the sample budget, sampled otherwise;
see ``IncrementalComponentSampler.build``).  Every component's sampler
is made on its tree's world store (``WorldStore``), and a sampled table
propagates its edges' worlds, which the store draws once per edge and
keeps, so every table and every probe of a tree sees the same worlds of
an edge, and components, which share no edge, stay independent.  Each
component drains through a single articulation vertex toward the query
vertex at the root, so per-component results multiply up the tree.  A
component's parent is the component owning its articulation vertex (the
root for the query vertex), so no links are stored.

Two rules grow the tree.  A leaf edge, with one endpoint attached, hangs
its new vertex off the attached endpoint's component (cases IIa, IIb).  A
cycle-closing edge, with both endpoints attached, closes the cycle made of
itself and the two chains of hangs (below) that climb from its endpoints to
the vertex where they meet.  Every component those climbs pass folds into
one bi-connected component that drains through the meeting vertex: a bi
component whole, a mono component the vertices the climbs pass in it
(cases IIIa, IIIb, IVb, IVc).  That component is the one among them that
already drains through the meeting vertex, which grows in place, keeping
its id and its members' index entries (a chord inside it, IIIa, only adds
its edge), or else a new one.

One rule gives every attached vertex its reach.  Each one, v, hangs off
one vertex h(v), its mono parent or its bi component's articulation
vertex, by a factor g(v), the edge probability or its reach-table row, and
its reach triple t(v) to the query vertex is g(v)·t(h(v)).  The tree keeps
every vertex's attach position, the query vertex's 0.  Evaluation is one
pass in attach order, which meets every vertex after h(v).  A component's
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

A tree serves only the graph it was first given, or one equal to it, and
samples under only the ``SamplerConfig`` its first insert gave it, or one
equal to it: its edge factors and reach tables carry that graph's
probabilities and that config's worlds, so any other graph or config is
refused, as is a graph argument that is not a ``ProbabilisticGraph``.
Binding the graph makes the candidate edges, and the first insert makes
the world store, which holds the config from then on.  An insert builds
no reach table; the first evaluation that needs one builds every table
still missing, so a tree that is only inserted into and dumped never
samples.  A table's worlds depend only on its component's
edges and the config, so where it is built changes no result.

The tree keeps one evaluation, which every evaluation builds whole: every
vertex's reach, the leaf candidates' terms in a dict and in descending
order, and the subtree masses.  A leaf insert extends it in place: the new
vertex's triple, its new leaves' terms and the masses on its hang chain,
the only ones it changes.  An evaluation and a leaf insert append each
vertex through the same hang step.  A cycle-closing insert drops it, so
the next evaluation builds it whole again.  Beside it sit the candidate
edges, with the cycle candidates (both endpoints attached) in a list of
their own, which every insert keeps up to date, and each probed cycle
candidate's ring, keyed by its edge: its members, its component and the
sampler made with it and, in a memo tree, its table and the table's
coefficients in place of the sampler, all of which depend on the ring's
component alone.  The rings are a memo tree's only table cache.  A leaf
insert keeps them all, and a cycle-closing insert keeps exactly those
whose members the component it grows or makes misses, since it changes
no other vertex's hang or factor and attach order never changes; a memo
tree's commit adopts the table of its edge's ring.  A copy has candidate lists of its own, equal to the
source's, and no evaluation or ring; it serves the same graph under the
same config, with the same world store.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import KeysView, Mapping, Optional

import numpy as np

from .graphs import (
    Edge, ProbabilisticGraph, candidate_edges, canonical_edge, check_integer, check_vertex,
)
from .sampling import (
    EXACT_SAMPLES,
    FlowEstimate,
    ReachTable,
    SamplerConfig,
    WorldStore,
    _reach_bitsets,
    enumerated_reach,
    wald_interval,
    world_frame,
)


class FTreeError(ValueError):
    """Structural misuse of the component tree."""


@dataclass
class MonoComponent:
    """Tree-shaped component: every member has a unique path to the articulation
    vertex.  ``parent_edges`` maps each member to (parent, edge probability)."""

    articulation: int
    parent_edges: dict[int, tuple[int, float]]

    @property
    def members(self) -> KeysView[int]:
        return self.parent_edges.keys()

    def copy(self) -> "MonoComponent":
        return MonoComponent(self.articulation, dict(self.parent_edges))


@dataclass
class BiComponent:
    """Cyclic component: reach probabilities toward the articulation vertex are
    enumerated or sampled (``IncrementalComponentSampler.build``).  A
    component a cycle commit grows or makes has no reach table until the
    tree's next evaluation builds it (``FTree.refresh``) or a memo tree's
    commit adopts its probe's."""

    members: set[int]
    articulation: int
    internal_edges: set[Edge]
    reach: Optional[ReachTable] = None

    def copy(self) -> "BiComponent":
        return BiComponent(set(self.members), self.articulation, set(self.internal_edges), self.reach)


Component = MonoComponent | BiComponent


@dataclass(frozen=True)
class InsertReport:
    """What an insertion did and what it cost.

    ``edges_sampled_count`` is the structural sampling cost of the insertion:
    the edge count of the bi component a cycle-closing insert grows or
    makes, 0 for a leaf insert.  It is counted whether the table is built
    at the next evaluation or adopted from a memo tree's probe, so the cost
    of an edge is a deterministic property of the tree shape.
    """

    case_taken: str
    edges_sampled_count: int


# A cycle's plan (``FTree._plan_cycle``): the ids of the components it
# takes, its path vertices, the vertex its climbs meet at and its case; a
# ring's coefficients (``FTree._coefficients``).
_Plan = tuple[list[int], list[int], int, str]
_Coeffs = list[tuple[int, float, float, float]]


@dataclass
class _Ring:
    """A probed cycle candidate, kept while commits leave its component as
    it is (see ``FTree._close_cycle``): its ring's (attach position,
    vertex) pairs in attach order, the ring (a fresh ``BiComponent`` the
    cycle's plan folds into, ``FTree._fold``, with no table of its own,
    draining through the vertex where its climbs meet) and the ring's
    sampler, made with the ring on the tree's world store.  In a memo tree the first probe keeps the table it built and the
    table's coefficients (``scored``) and drops the sampler, which no
    later probe needs."""

    members: list[tuple[int, int]]
    comp: BiComponent
    sampler: Optional[IncrementalComponentSampler]
    scored: Optional[tuple[ReachTable, _Coeffs]] = None


@dataclass
class _Kept:
    """What a tree keeps of its last evaluation, for one graph.

    Built whole by ``FTree._evaluate``.  ``triples`` holds every attached
    vertex's (mean, lb, ub) reach factor to the query vertex, the query
    vertex included, in attach order.  ``terms`` holds each leaf
    candidate's (one endpoint attached) weighted reach term t·w for mean,
    lb and ub, and ``order`` the same leaves as (−t·w mean, edge) pairs in
    ascending order.  Both survive leaf inserts, which add and drop leaves
    but change no other leaf's term.  The lists are by attach position,
    the tree's (``FTree._pos``; the query vertex's is 0): ``hangs`` holds
    each position's hang, the position of h(v) and g(v) (see the module
    docstring; position 0 holds a placeholder), ``masses`` the mean, lb
    and ub subtree masses, ``weights`` the weights and ``kids`` the
    positions that hang off each, in attach order.  Every vertex comes in
    through one hang step (``FTree._append``), in ``_evaluate`` and in a
    leaf insert (``_attach_leaf``) alike.
    """

    estimate: FlowEstimate
    triples: dict[int, tuple[float, float, float]]
    hangs: list[tuple[int, tuple[float, float, float]]]
    terms: dict[Edge, tuple[float, float, float]]
    order: list[tuple[float, Edge]]
    masses: tuple[list[float], list[float], list[float]]
    weights: list[float]
    kids: list[list[int]]


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
    """One bi component's worlds, made from its tree's world store and the
    component alone: the store's graph gives the edges' probabilities and
    its config (``cfg``) the budget, so all 2^m worlds of the m uncertain
    edges (p < 1) if 2^m <= ``cfg.samples`` (no draw, no master seed),
    else the ``cfg.samples`` worlds of the store (``draw``).

    Vertices and edges are taken in sorted order, so worlds never follow
    set order.  World i of every edge lands in bit i of every vertex's
    world bitset.  A draw draws nothing itself: it reads its edges' bitsets
    from the store, which draws each edge once, and propagates them; the
    propagated worlds are returned, never kept.  Construction prepares
    all that every build reads: local vertices and edges, probabilities,
    the exact flag and, for an exact component, its enumeration frame
    (``world_frame``: each edge's world pattern in edge order and the
    worlds' weights), built once per component.  An exact build is then
    the enumeration alone (``enumerated_reach``: the kept patterns
    propagated and every member's row summed in one masked reduce); a
    drawn build reads the store's bitsets and propagates them.
    """

    def __init__(self, store: WorldStore, comp: BiComponent):
        graph, cfg = store.graph, store.cfg
        self.articulation = comp.articulation
        self.cfg = cfg
        verts = sorted(comp.members | {comp.articulation})
        local = {v: i for i, v in enumerate(verts)}
        edges = sorted(comp.internal_edges)
        self._graph_edges = edges
        self._edges = [(local[u], local[v]) for u, v in edges]
        self._probs = [graph.probabilities[graph.edge_index[e]] for e in edges]
        self._verts = verts
        self._members = [v for v in verts if v != comp.articulation]
        self._source = local[comp.articulation]
        self._member_ids = [local[v] for v in self._members]
        self.exact = 1 << sum(p < 1.0 for p in self._probs) <= cfg.samples
        self._frame = world_frame(self._probs) if self.exact else None
        self._store = store

    def build(self) -> ReachTable:
        """The full table: exact (``exact_table``), or drawn from all
        ``cfg.samples`` of the store's worlds, propagated afresh
        (``draw``).  A drawn row is the member's successes (a popcount)
        over ``cfg.samples``, with ``wald_interval`` of that proportion."""
        if self.exact:
            return self.exact_table()
        n = self.cfg.samples
        bits = self.draw(n)
        p = np.array([bits[i].bit_count() for i in self._member_ids], dtype=np.int64) / n
        lo, hi = wald_interval(p, n, self.cfg.alpha)
        rows = zip(p.tolist(), lo.tolist(), hi.tolist())
        return ReachTable(self.articulation, dict(zip(self._members, rows)), n)

    def exact_table(self) -> ReachTable:
        """Reach table over every world of the uncertain edges, weighted by
        world probability: the enumeration of the kept frame, through the
        oracle's routine, with ``EXACT_SAMPLES`` worlds and zero-width rows."""
        reach = enumerated_reach(self._frame, self._edges, len(self._verts), self._source, self._member_ids)
        rows = {v: (p, p, p) for v, p in zip(self._members, reach.tolist())}
        return ReachTable(articulation=self.articulation, rows=rows, sample_count=EXACT_SAMPLES)

    def draw(self, batch: int) -> list[int]:
        """The store's ``batch`` worlds, which must be all ``cfg.samples``
        of them (any other count raises ValueError naming ``batch``): per
        local vertex (the vertices in ascending order), the worlds in which
        it reaches the articulation vertex, as a bitset with world i in bit
        i."""
        n = self.cfg.samples
        if batch != n:
            raise ValueError(f"batch must be the store's {n} worlds, not {batch!r}")
        live = self._store.live(self._graph_edges)
        return _reach_bitsets(live, self._edges, len(self._verts), self._source, n)


class FTree:
    """Mutable component tree rooted at the query vertex.

    One writer at a time; probes never change its structure or its tables.
    The kept evaluation (``_Kept``, see the module docstring) holds the
    tree's last evaluation, the leaf candidates' terms and their order, and
    the subtree masses cycle probes score from.  Beside it sit the
    candidate edges (``candidates``), the cycle candidates among them
    (``cycle_candidates``) and each probed cycle candidate's ring
    (``_Ring``), reused when it is re-probed or committed, and every
    attached vertex's attach position (``_pos``: the query vertex's 0,
    then the vertex index's order), which climbs and the kept evaluation
    read.  The tree serves
    one graph, the first it is given (``_use_graph``), which makes the
    candidate lists, and samples under one ``SamplerConfig``, the first
    ``insert_edge`` gives it, with which that insert makes the tree's
    world store; the store then holds the config, and the tree keeps no
    other copy of it.  Inserts
    build no reach table: the first evaluation that needs one builds it
    (``refresh``), so a tree that is only inserted into and dumped never
    samples.  Drawn tables read the world store: each edge's worlds are
    drawn once per tree, so building a ring's table is only a
    propagation.  A memo tree (``memo``: the ``_m`` variants) also keeps
    in each probed ring the full table its probes read, with the table's
    coefficients.
    """

    def __init__(self, q: int, memo: bool = False):
        self.q = check_integer("q", q)
        if self.q < 0:
            raise FTreeError(f"q must be non-negative, got {q}")
        if not isinstance(memo, bool):
            raise FTreeError(f"memo must be a bool, not {memo!r}")
        self.memo = memo
        self._next_id = 0
        self._graph: Optional[ProbabilisticGraph] = None
        self._store: Optional[WorldStore] = None
        self._kept: Optional[_Kept] = None
        self._cands: list[Edge] = []
        self._cycles: list[Edge] = []
        self._rings: dict[Edge, _Ring] = {}
        self.components: dict[int, Component] = {}
        self.root_id = self._add_component(MonoComponent(q, {}))
        self.vertex_index: dict[int, int] = {}
        self._pos = {self.q: 0}
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
        need none), the graph it serves and its world store, which holds
        its config and whose bits are a pure function of the config and
        the edge.  Its
        candidate lists equal this tree's but are its own.  It keeps no
        evaluation and no ring: its first evaluation is from scratch,
        building the tables this tree has not built yet."""
        other = FTree.__new__(FTree)
        other.q = self.q
        other.memo = self.memo
        other._next_id = self._next_id
        other._graph, other._store = self._graph, self._store
        other._kept, other._cands, other._cycles = None, self._cands[:], self._cycles[:]
        other._rings = {}
        other.components = {cid: comp.copy() for cid, comp in self.components.items()}
        other.root_id = self.root_id
        other.vertex_index = dict(self.vertex_index)
        other._pos = dict(self._pos)
        other.selected_edges = set(self.selected_edges)
        return other

    def _use_graph(self, graph: ProbabilisticGraph) -> None:
        """Serve ``graph``: the first graph a tree is given, its root checked
        against it, or one equal to it; any other, or anything that is not
        a ``ProbabilisticGraph`` (None included), raises FTreeError.  The
        first graph makes the candidates, the query vertex's edges, and
        the cycle candidates, none yet.  The components, the kept
        evaluation, the candidates and the rings all carry the first
        graph's probabilities and weights, so they serve an equal graph as
        they are.  Every public entry that reads the graph calls this
        first."""
        if graph is self._graph is not None:
            return
        if not isinstance(graph, ProbabilisticGraph):
            raise FTreeError(f"graph must be a ProbabilisticGraph, not {graph!r}")
        if self._graph is None:
            check_vertex(graph, self.q)
            self._cands, self._cycles = candidate_edges(graph, {self.q}, set()), []
        elif graph != self._graph:
            raise FTreeError("the tree serves another graph; build a new tree for this one")
        self._graph = graph

    def is_attached(self, v: int) -> bool:
        return v in self._pos

    def attached_vertices(self) -> set[int]:
        return set(self._pos)

    def parent_of(self, cid: int) -> Optional[int]:
        """The component owning ``cid``'s articulation vertex (the root for
        the query vertex); None for the root."""
        if cid == self.root_id:
            return None
        return self.vertex_index.get(self.components[cid].articulation, self.root_id)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert_edge(
        self, graph: ProbabilisticGraph, edge: tuple[int, int], cfg: SamplerConfig
    ) -> InsertReport:
        """Add one selected edge, dispatching the structural update cases.

        At least one endpoint must already be attached.  The tree samples
        under the ``SamplerConfig`` its first insert gives, or one equal to
        it (compared with the world store's ``cfg``); anything else raises
        FTreeError and changes nothing.  The first insert that goes through
        makes the tree's world store with its config.  A cycle-closing edge
        is planned here (``_plan_cycle``) and committed (``_close_cycle``):
        the bi component it grows or makes takes the table its probe's ring
        holds in a memo tree, if the edge was probed, and none otherwise,
        and the commit drops the rings that share a member with it, the
        edge's own among them.  No table is built here: the next evaluation
        builds every one still missing (``refresh``).  Every insert brings
        the candidate lists up to date (``_advance_candidates``).
        """
        if not isinstance(cfg, SamplerConfig):
            raise FTreeError(f"cfg must be a SamplerConfig, not {cfg!r}")
        self._use_graph(graph)
        if self._store is not None and cfg is not self._store.cfg and cfg != self._store.cfg:
            raise FTreeError("the tree samples under another config; build a new tree for this one")
        e, prob, att_u, att_v = self._insertable(graph, edge)
        if self._store is None:
            self._store = WorldStore(graph, cfg)
        u, v = e
        fresh: Optional[int] = None
        if att_u and att_v:
            self._kept = None
            plan, ring = self._plan_cycle(u, v), self._rings.get(e)
            table = ring.scored[0] if ring is not None and ring.scored is not None else None
            cost, case = len(self._close_cycle(plan, e, table).internal_edges), plan[3]
        else:
            attach, fresh = (u, v) if att_u else (v, u)
            case = self._attach_leaf(attach, fresh, prob)
            cost = 0
        self.selected_edges.add(e)
        self._advance_candidates(e, fresh)
        return InsertReport(case_taken=case, edges_sampled_count=cost)

    def _insertable(
        self, graph: ProbabilisticGraph, edge: tuple[int, int]
    ) -> tuple[Edge, float, bool, bool]:
        """The canonical edge, its probability and whether each endpoint is
        attached; raises FTreeError for an edge that cannot be inserted,
        naming it, or for anything that is not a pair of integers
        (``check_integer``)."""
        try:
            u, v = edge
            e = canonical_edge(check_integer("u", u), check_integer("v", v))
        except (TypeError, ValueError):
            raise FTreeError(f"edge {edge!r} is not a pair of vertex ids") from None
        if e not in graph.edge_index:
            raise FTreeError(f"edge {e} is not an edge of the graph")
        if e in self.selected_edges:
            raise FTreeError(f"edge {e} already selected")
        att_u, att_v = self.is_attached(e[0]), self.is_attached(e[1])
        if not att_u and not att_v:
            raise FTreeError(f"neither endpoint of {e} is attached")
        return e, graph.probabilities[graph.edge_index[e]], att_u, att_v

    def _attach_leaf(self, attach: int, fresh: int, prob: float) -> str:
        """Cases IIa/IIb: hang the new vertex ``fresh`` off ``attach`` by an
        edge of probability ``prob``, at the next attach position.  The kept
        evaluation, if any, takes it through ``_evaluate``'s hang step
        (``_append``), and its estimate gains the new vertex's term.

        The new position's masses are its weight, and the hang chain from
        ``attach`` up to the query vertex is recomputed: at each vertex y
        on it, w(y) plus g(c)·M(c) over y's kids c in reverse attach order.
        Those are the operations ``_evaluate``'s reverse pass does for y,
        in its order, so every mass stays bit for bit what a rebuild would
        give; masses off the chain do not change."""
        self._pos[fresh] = len(self._pos)
        kept = self._kept
        if kept is not None:
            term = self._append(kept, fresh, attach, (prob, prob, prob))
            kept.estimate = self.leaf_estimate(kept.estimate, term)
            (m0, m1, m2), weights, kids, hangs = kept.masses, kept.weights, kept.kids, kept.hangs
            y = self._pos[attach]
            while True:
                s0 = s1 = s2 = weights[y]
                for c in reversed(kids[y]):
                    g = hangs[c][1]
                    s0 += g[0] * m0[c]
                    s1 += g[1] * m1[c]
                    s2 += g[2] * m2[c]
                m0[y], m1[y], m2[y] = s0, s1, s2
                if not y:
                    break
                y = hangs[y][0]
        cid = self.vertex_index.get(attach, self.root_id)
        comp = self.components[cid]
        if isinstance(comp, MonoComponent):
            comp.parent_edges[fresh] = (attach, prob)
            self.vertex_index[fresh] = cid
            return "IIa"
        nid = self._add_component(MonoComponent(attach, {fresh: (attach, prob)}))
        self.vertex_index[fresh] = nid
        return "IIb"

    def _advance_candidates(self, e: Edge, fresh: Optional[int]) -> None:
        """Bring the candidates and cycle candidates, and the kept leaf terms
        and their order if the tree keeps an evaluation, up to date after
        inserting ``e``, which attached the vertex ``fresh`` if it was a
        leaf edge.

        The new vertex's edges to attached vertices stop being leaves and
        close cycles from now on; its other edges become leaf candidates,
        all hanging off ``fresh``, so their terms are computed from its
        triple as ``_evaluate`` would.  A leaf insert changes no attached
        vertex's triple, so every other leaf keeps its term and its place in
        the order.
        """
        edges, cycles, graph = self._cands, self._cycles, self._graph
        del edges[bisect_left(edges, e)]
        if fresh is None:
            del cycles[bisect_left(cycles, e)]
            return
        pos, kept = self._pos, self._kept
        base = kept.triples[fresh] if kept is not None else None
        for nbr, i in graph.adjacency[fresh]:
            c = graph.edges[i]
            if nbr in pos:
                if c != e:
                    insort(cycles, c)
                if kept is not None:  # e itself, or a leaf that now closes a cycle
                    term = kept.terms.pop(c)
                    del kept.order[bisect_left(kept.order, (-term[0], c))]
            else:
                insort(edges, c)
                if kept is not None:
                    p, w = graph.probabilities[i], graph.weights[nbr]
                    kept.terms[c] = term = (p * base[0] * w, p * base[1] * w, p * base[2] * w)
                    insort(kept.order, (-term[0], c))

    @staticmethod
    def leaf_estimate(base: FlowEstimate, t: tuple[float, float, float]) -> FlowEstimate:
        """The estimate of a tree whose estimate is ``base`` once a leaf with
        the weighted term ``t`` (see ``leaf_terms``) is inserted."""
        return FlowEstimate(base.mean + t[0], base.lb + t[1], base.ub + t[2], base.samples_used)

    def candidates(self, graph: ProbabilisticGraph) -> list[Edge]:
        """The unselected edges of ``graph`` with an attached endpoint, in
        canonical order, as ``candidate_edges`` gives them.

        The list is the tree's own, made when the tree is bound to its
        graph and kept up to date by every insert, cycle closing or not, as
        are the cycle candidates among them (``cycle_candidates``); a
        caller reads it and must not change it.
        """
        self._use_graph(graph)
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
        its insert adds, with t = p·t(attach) the reach triple its new
        vertex would get.  That is the triple ``_evaluate`` would compute,
        and the new vertex would come last in ``vertex_index``, so
        ``leaf_estimate`` of the two matches a full evaluation of the grown
        tree bit for bit.

        The terms are part of the tree's kept evaluation, kept in order
        (``best_leaf``) beside it and extended in place by leaf inserts; a
        caller reads them and must not change them.  A cycle-closing insert
        changes reach triples, so it drops the terms with the evaluation.
        A tree without a kept evaluation is evaluated first (``_evaluate``),
        which builds the terms with it.
        """
        self._use_graph(graph)
        kept = self._kept or self._evaluate(graph)
        return kept.estimate, kept.terms

    def best_leaf(self, graph: ProbabilisticGraph) -> Optional[tuple[Edge, FlowEstimate]]:
        """The leaf candidate whose insert gives the largest mean, the
        smallest edge among those that tie, with the estimate its insert
        gives (``leaf_estimate``), or None with no leaf: the edge of
        ``min((-(mean + t[0]), e) for e, t in terms.items())`` over
        ``leaf_terms``, read from the front of the kept evaluation's order.

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
        return best, self.leaf_estimate(base, terms[best])

    def _hang(self, v: int) -> int:
        """h(v) of an attached vertex v other than the query vertex: its mono
        parent, or its bi component's articulation vertex."""
        comp = self.components[self.vertex_index[v]]
        return comp.parent_edges[v][0] if isinstance(comp, MonoComponent) else comp.articulation

    def _plan_cycle(self, u: int, v: int) -> _Plan:
        """Cases III and IV, read only: what folding the cycle that an edge
        between attached vertices u and v closes takes (``_fold``).

        The cycle is the edge and the two h-chains from u and v up to the
        vertex w where they meet.  A vertex is attached after its hang, so
        while the two ends differ the later-attached one is not w, and the
        walk steps it up its hang until the ends meet, at w.  So the walk is
        as long as the cycle, not as deep as the tree.  Returns the parts,
        the ids of the components the climbs pass, in climb order; the
        path, the vertices the climbs pass below w, u's climb first; w; and
        the case.  A bi part goes into the ring whole, a mono part gives up
        its path vertices.

        One part is IIIa (bi) or IIIb (mono).  Several are IVc-composite if
        a mono part lies below the component the climbs meet in, and IVb
        otherwise.  They meet in the component both climbs end in, if both
        pass a vertex and their last vertices share one (w may then be its
        articulation vertex, which another component owns); else in the
        component owning w, the root for the query vertex.
        """
        index, pos = self.vertex_index, self._pos
        a, b = [u], [v]
        while a[-1] != b[-1]:
            c = a if pos[a[-1]] > pos[b[-1]] else b
            c.append(self._hang(c[-1]))
        w = a.pop()
        b.pop()
        path = a + b
        parts = list(dict.fromkeys(index[x] for x in path))
        kinds = [isinstance(self.components[cid], MonoComponent) for cid in parts]
        if len(parts) == 1:
            return parts, path, w, "IIIb" if kinds[0] else "IIIa"
        meet = index[a[-1]] if a and b and index[a[-1]] == index[b[-1]] else index.get(w, self.root_id)
        below = any(mono and cid != meet for cid, mono in zip(parts, kinds))
        return parts, path, w, "IVc-composite" if below else "IVb"

    def _fold(self, plan: _Plan, e: Edge, ring: BiComponent) -> BiComponent:
        """Fold a plan (``_plan_cycle``) of the cycle the edge ``e`` closes
        into ``ring``, a bi component draining through the plan's w, and
        return it: a fresh one for a probe, or for a commit the bi part
        that drains through w, if there is one (``_close_cycle``).  The
        ring gains every other bi part's members and edges, each mono path
        vertex with its edge to its hang, and ``e``.  Only the ring
        changes."""
        parts, path, _, _ = plan
        for cid in parts:
            comp = self.components[cid]
            if isinstance(comp, BiComponent) and comp is not ring:
                ring.members |= comp.members
                ring.internal_edges |= comp.internal_edges
        for x in path:
            if x not in ring.members:  # a mono vertex: its edge to its parent
                ring.members.add(x)
                ring.internal_edges.add(canonical_edge(x, self._hang(x)))
        ring.internal_edges.add(e)
        return ring

    def _close_cycle(self, plan: _Plan, e: Edge, table: Optional[ReachTable]) -> BiComponent:
        """Commit a plan (see ``_plan_cycle``) of the cycle ``e`` closes and
        return the bi component it grows or makes.  The plan folds
        (``_fold``) into the bi part that drains through w, if there is one
        (for IIIa the chord's own component), which keeps its id, its
        members and their index entries, or else into a new component.
        Only the vertices it gains are re-pointed to it, and it takes
        ``table``, a memo ring's, or None for the next evaluation to build.
        Every other part gives up its members to it, and a component left
        empty goes (the grown component takes the root's place).  A mono
        part's path is the ring's members among its own, the vertices the
        climbs passed in it.  Members that path cut off regroup into new
        mono components hanging off the path vertex their old path crossed
        first, in member order; members are listed after their parents, so
        one pass groups them: a member joins its parent's group, or the
        parent's own if the parent is on the path, and a member whose path
        misses the cut stays.

        The kept rings (``_Ring``) that share a member with the grown
        component go, the committed edge's own among them, and the others
        stay as they are.  Only the component's gained members change their
        hang or factor, attach order never changes, and a bi part is taken
        whole.  So a ring that shares no member climbs through the same
        vertices to the same meeting vertex, and its component, sampler,
        table and coefficients are what a fresh probe would make.  A ring
        that shares a member would now take the grown component whole, and
        with it the edge just committed.
        """
        parts, _, w, _ = plan
        comps = self.components
        drains = [c for c in parts if isinstance(comps[c], BiComponent) and comps[c].articulation == w]
        ring_id = drains[0] if drains else self._add_component(BiComponent(set(), w, set()))
        ring = self._fold(plan, e, comps[ring_id])
        ring.reach = table
        self._rings = {c: r for c, r in self._rings.items() if r.comp.members.isdisjoint(ring.members)}
        for cid in parts:
            comp = comps[cid]
            if comp is ring:
                continue
            cut = comp.members & ring.members
            self.vertex_index.update(dict.fromkeys(cut, ring_id))
            if isinstance(comp, MonoComponent):
                group_of: dict[int, Optional[int]] = {comp.articulation: None}
                groups: dict[int, list[int]] = {}  # by anchor; group_of None: stays
                for m, (parent, _) in comp.parent_edges.items():
                    if m not in cut:
                        group_of[m] = anchor = parent if parent in cut else group_of[parent]
                        if anchor is not None:
                            groups.setdefault(anchor, []).append(m)
                for x in cut:
                    del comp.parent_edges[x]
                for anchor in sorted(groups):
                    group = {m: comp.parent_edges.pop(m) for m in groups[anchor]}
                    mid = self._add_component(MonoComponent(anchor, group))
                    self.vertex_index.update(dict.fromkeys(group, mid))
                if comp.parent_edges:
                    continue
            del comps[cid]
            if cid == self.root_id:
                self.root_id = ring_id
        return ring

    # ------------------------------------------------------------------
    # sampling upkeep
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Build every bi component's reach table not built yet, under the
        tree's config: ``_evaluate`` calls it first.

        Each one gets its table from its sampler's ``build`` (exact, or
        propagated over the tree's world store at its full budget in one
        call).  Its worlds depend only on its edges and the config, so a
        table built here equals one built at the insert that made the
        component.  Only a cycle-closing insert leaves a component without
        a table, and it drops the kept evaluation and the rings that share
        a member with it; rings are planned on evaluated trees only.  So
        no kept evaluation or kept ring reads a component this builds.
        Each sampler is made from the tree's world store, made by the first
        insert, and the component alone.
        """
        for comp in self.components.values():
            if isinstance(comp, BiComponent) and comp.reach is None:
                comp.reach = IncrementalComponentSampler(self._store, comp).build()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def expected_flow(self, graph: ProbabilisticGraph) -> FlowEstimate:
        """Flow into the query vertex with propagated confidence bounds.

        Edge probabilities and exact tables have zero width; sampled tables
        contribute their per-vertex intervals, multiplied lower-times-lower /
        upper-times-upper down the hang chain (t = g·t(h), see the module
        docstring) and summed with the vertex weights.  The tree's kept
        evaluation is returned when it has one for ``graph``; otherwise the
        tree is evaluated, building the tables not built yet (``refresh``).
        """
        self._use_graph(graph)
        return (self._kept or self._evaluate(graph)).estimate

    def _evaluate(self, graph: ProbabilisticGraph) -> _Kept:
        """Evaluate the whole tree and keep the result, whole, as a new kept
        state (``_Kept``); the caller has made ``graph`` the one the tree
        serves.  The reach tables not built yet are built first
        (``refresh``).  The evaluation starts as the query vertex's alone,
        and one pass in attach order (see the module docstring) appends
        every other vertex through the hang step (``_append``) and sums the
        weighted terms; a component's kind only picks each member's h and
        g.  The estimate's worlds are the fewest behind any reach table.
        One pass over the candidates gives each leaf's term, t =
        p·t(attach) times the new vertex's weight (``leaf_terms``), and one
        pass in reverse attach order sums the masses: it adds each
        g(v)·M(v) to M(h(v)) after all that hangs off v was added to M(v).
        """
        self.refresh()
        weights, comps = graph.weights, self.components
        tables = [c.reach for c in comps.values() if isinstance(c, BiComponent)]
        samples_used = min([EXACT_SAMPLES] + [table.sample_count for table in tables])
        mean = lb = ub = w = weights[self.q]
        one = (1.0, 1.0, 1.0)
        kept = _Kept(FlowEstimate(w, w, w, samples_used), {self.q: one}, [(0, one)], {}, [],
                     ([w], [w], [w]), [w], [[]])
        for v, cid in self.vertex_index.items():
            comp = comps[cid]
            if isinstance(comp, MonoComponent):
                h, prob = comp.parent_edges[v]
                g = (prob, prob, prob)
            else:
                h, g = comp.articulation, comp.reach.rows[v]
            d0, d1, d2 = self._append(kept, v, h, g)
            mean += d0
            lb += d1
            ub += d2
        kept.estimate = FlowEstimate(mean=mean, lb=lb, ub=ub, samples_used=samples_used)
        pos, triples, terms = self._pos, kept.triples, kept.terms
        for e in self._cands:
            u, v = e
            att_u = u in pos
            if att_u == (v in pos):
                continue
            attach, fresh = (u, v) if att_u else (v, u)
            p, base, w = graph.probabilities[graph.edge_index[e]], triples[attach], weights[fresh]
            terms[e] = (p * base[0] * w, p * base[1] * w, p * base[2] * w)
        kept.order.extend(sorted((-term[0], e) for e, term in terms.items()))
        (m0, m1, m2), hangs = kept.masses, kept.hangs
        for i in range(len(hangs) - 1, 0, -1):
            h, g = hangs[i]
            m0[h] += g[0] * m0[i]
            m1[h] += g[1] * m1[i]
            m2[h] += g[2] * m2[i]
        self._kept = kept
        return kept

    def _append(self, kept: _Kept, v: int, h: int, g: tuple) -> tuple[float, float, float]:
        """The hang step: append v, which hangs off h by g, to ``kept`` at
        its attach position, the next one.  It gets its reach triple t(v) =
        g·t(h), its hang, its weight, masses equal to its weight (nothing
        hangs off it yet) and an empty kid slot, and joins h's kids.
        Returns its weighted term t(v)·w(v)."""
        base, a, w = kept.triples[h], self._pos[h], self._graph.weights[v]
        t = (g[0] * base[0], g[1] * base[1], g[2] * base[2])
        kept.triples[v] = t
        kept.hangs.append((a, g))
        kept.weights.append(w)
        for m in kept.masses:
            m.append(w)
        kept.kids[a].append(len(kept.kids))
        kept.kids.append([])
        return t[0] * w, t[1] * w, t[2] * w

    def _coefficients(self, ring: list[tuple[int, int]], rows: Mapping[int, tuple]) -> _Coeffs:
        """The coefficients of the module docstring's sum regrouped by
        member: for each of ``ring``'s (attach position, vertex) pairs, in
        attach order, its position and g′(y) − g′(h(y))·g(y) for mean, lb
        and ub, with g′ the reach rows ``rows`` and g′(r) = 1.  Every ring
        table, exact or drawn, is scored through them.  They hold as long as
        the members keep their hangs."""
        hangs = self._kept.hangs
        new = {i: rows[x] for i, x in ring}
        one = (1.0, 1.0, 1.0)
        out = []
        for i, p in new.items():
            h, g = hangs[i]
            c = new.get(h, one)
            out.append((i, p[0] - c[0] * g[0], p[1] - c[1] * g[1], p[2] - c[2] * g[2]))
        return out

    def _ring_flow(self, coeffs: _Coeffs, r: int) -> tuple:
        """The (mean, lb, ub) flow of this tree once a cycle folds a ring
        into a bi component hanging off r, from the ring's coefficients
        (``_coefficients``): the sum of M(y) times y's coefficient, in
        attach order, times t(r), on top of the tree's flow.  M is the kept
        evaluation's masses."""
        kept = self._kept
        m0, m1, m2 = kept.masses
        d0 = d1 = d2 = 0.0
        for i, k0, k1, k2 in coeffs:
            d0 += m0[i] * k0
            d1 += m1[i] * k1
            d2 += m2[i] * k2
        t, base = kept.triples[r], kept.estimate
        return base.mean + t[0] * d0, base.lb + t[1] * d1, base.ub + t[2] * d2

    def probe_edge(self, graph: ProbabilisticGraph, edge: tuple[int, int]) -> tuple[FlowEstimate, int]:
        """Flow of a hypothetical cycle-closing insertion and its cost, the
        new ring's edge count (an insert's ``edges_sampled_count``), leaving
        this tree, its tables and its evaluation untouched (a tree with no
        kept evaluation is evaluated first); only the tree's world store may
        gain the ring's edges it had not drawn yet, whose bits no order of
        asking changes.  Both endpoints must be attached, so an insert has
        made the tree's world store, whose config the probe samples under:
        a leaf edge raises FTreeError, as ``leaf_terms`` scores leaves.

        The edge is scored from the subtree masses by the module
        docstring's formula, which agrees with an insert into a copy up to
        rounding.  Its ring's table comes from the ring, if a memo tree's
        ring keeps one, or else from the ring's sampler, which builds the
        full table, exact or drawn (``IncrementalComponentSampler.build``).
        A commit of a probed edge adopts the table its ring holds.  The
        estimate's worlds are the fewer of the table's and the tree's: a
        ring that takes a drawn table has at least that table's uncertain
        edges, so it is drawn too.

        Every tree keeps each cycle candidate it probes (``_Ring``), keyed
        by its edge, while commits leave its component as it is
        (``_close_cycle``); the first probe plans the ring and makes its
        sampler with it, so a re-probe does neither.  A memo tree's ring
        keeps its full table's coefficients in place of the sampler, for
        re-probes to score in one multiply-add per member and channel; in
        a tree without a memo, every probe builds its table afresh,
        propagating its edges' worlds from the tree's world store again;
        no probe draws an edge the store holds.  A re-probe returns what a
        fresh probe would, bit for bit.
        """
        self._use_graph(graph)
        e, _, att_u, att_v = self._insertable(graph, edge)
        if not (att_u and att_v):
            raise FTreeError(f"edge {e} closes no cycle: leaf_terms scores leaf edges")
        kept = self._kept or self._evaluate(graph)
        ring = self._rings.get(e)
        if ring is None:
            plan = self._plan_cycle(*e)
            comp = self._fold(plan, e, BiComponent(set(), plan[2], set()))
            members = sorted((self._pos[x], x) for x in comp.members)
            sampler = IncrementalComponentSampler(self._store, comp)
            ring = self._rings[e] = _Ring(members, comp, sampler)
        scored = ring.scored
        if scored is None:
            table = ring.sampler.build()
            scored = (table, self._coefficients(ring.members, table.rows))
            if self.memo:
                ring.scored, ring.sampler = scored, None  # no memoized probe builds again
        table, coeffs = scored
        flow = self._ring_flow(coeffs, ring.comp.articulation)
        samples = min(table.sample_count, kept.estimate.samples_used)
        return FlowEstimate(*flow, samples), len(ring.comp.internal_edges)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def dump(self, graph: Optional[ProbabilisticGraph] = None) -> str:
        """One line per component, pre-order, children sorted structurally;
        vertices are named by ``graph``'s labels if a graph is given, which
        must be one the tree serves (``_use_graph``)."""
        if graph is not None:
            self._use_graph(graph)

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
        stack = [self.root_id]  # an explicit stack: chains may be deeper than the recursion limit
        while stack:
            cid = stack.pop()
            display[cid] = len(display)
            order.append(cid)
            stack.extend(reversed(children[cid]))
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
        component's members, a mono component lists its members in attach
        order, each after its parent, and the tree's attach positions are
        the query vertex's 0 and then the vertex index's order.  Parents and links then always
        lead to an earlier vertex, so neither can cycle and no mono path can
        leave its component.  A graph the tree does not serve is refused
        (``_use_graph``).
        """
        self._use_graph(graph)
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

        order = {v: i for i, v in enumerate([self.q, *self.vertex_index])}
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
        if self._pos != order:
            raise FTreeError("attach positions disagree with the vertex index order")


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
