"""Component tree for incremental expected-flow computation.

The tree partitions the currently selected subgraph into mono-connected
components (unique paths, flow computed analytically as edge-probability
products) and bi-connected components (cycles, flow estimated by sampling
only the component's own edges).  Each component drains through a single
articulation vertex toward the query vertex at the root, so per-component
results multiply up the tree.  A component's parent is the component owning
its articulation vertex (the root for the query vertex), so no links are
stored.

Two rules grow the tree.  A leaf edge, with one endpoint attached, hangs
its new vertex off the attached endpoint's component (cases IIa, IIb).  A
cycle-closing edge, with both endpoints attached, folds the parts of the
components that lie on the cycle it closes into one bi-connected component
(cases IIIa, IIIb, IVb, IVc).

Evaluation is one pass in attach order, which meets every vertex after the
factors its own multiplies.  A component's articulation vertex cuts its
members off from the query vertex, so it lay on the path each member had to
the query vertex when that member was attached, and was attached before it;
a mono member's parent is the vertex it was attached to.

A tree keeps one state for the graph it last served: its evaluation, the
leaf candidates' terms and its kept cycle probes.  A leaf insert extends
it in place (the new vertex's terms, one more leaf for the probes to
replay); a cycle-closing insert, a renewed reach table or a call naming
another graph drops all of it at once.  Its candidate edges survive
cycle-closing inserts and sit beside it.  A copy keeps none of it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, KeysView, Optional, Sequence

import numpy as np

from .graphs import Edge, ProbabilisticGraph, candidate_edges, canonical_edge
from .sampling import (
    CI_BATCH,
    EXACT_SAMPLES,
    FlowEstimate,
    ReachTable,
    SamplerConfig,
    _reach_worlds,
    substream,
    wald_interval,
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

    def edge_set(self) -> set[Edge]:
        return {canonical_edge(v, parent) for v, (parent, _) in self.parent_edges.items()}

    def copy(self) -> "MonoComponent":
        return MonoComponent(self.articulation, dict(self.parent_edges))


@dataclass
class BiComponent:
    """Cyclic component: reach probabilities toward the articulation vertex are
    sampled.  Without a reach table the component is dirty."""

    members: set[int]
    articulation: int
    internal_edges: set[Edge]
    reach: Optional[ReachTable] = None

    @property
    def dirty(self) -> bool:
        return self.reach is None

    def signature(self) -> str:
        verts = ",".join(map(str, sorted(self.members)))
        edges = ",".join(f"{u}-{v}" for u, v in sorted(self.internal_edges))
        return f"av={self.articulation};v={verts};e={edges}"

    def copy(self) -> "BiComponent":
        return BiComponent(set(self.members), self.articulation, set(self.internal_edges), self.reach)


Component = MonoComponent | BiComponent

# The components a refresh samples: (id, component, its sampler).
_Sampled = list[tuple[int, BiComponent, "IncrementalComponentSampler"]]


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
    components_resampled: tuple[int, ...]
    edges_sampled_count: int


@dataclass
class _Kept:
    """What a tree keeps of its last evaluation, for one graph.

    ``triples`` holds every attached vertex's (mean, lb, ub) reach factor
    to the query vertex, the query vertex included; ``factors`` holds every
    mono member's path factor to its component's articulation vertex.
    ``terms``, once asked for, holds each leaf candidate's (one endpoint
    attached) weighted reach term t·w for mean, lb and ub.  ``trials`` maps
    (edge, config) to a kept cycle probe: its trial tree, its report and
    how many of ``leaves``, the leaf edges committed since the evaluation,
    it has replayed.
    """

    estimate: FlowEstimate
    triples: dict[int, tuple[float, float, float]]
    factors: dict[int, float]
    terms: Optional[dict[Edge, tuple[float, float, float]]] = None
    trials: dict[tuple[Edge, SamplerConfig], tuple[FTree, InsertReport, int]] = field(
        default_factory=dict
    )
    leaves: list[Edge] = field(default_factory=list)


class MemoStore:
    """Store of sampled reach tables that never evicts, keyed by the
    ``SamplerConfig`` a table was drawn under and its component's signature.

    A store serves one graph.  Tables for equal keys are interchangeable
    (sampling streams are derived from the config's master seed and the
    signature, and only full-budget tables are stored), so whether a
    component's table comes from the store or is drawn anew changes no
    result, only how often it is sampled.  Every table stored stays for the
    life of the store.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[SamplerConfig, str], ReachTable] = {}

    def lookup(self, cfg: SamplerConfig, signature: str) -> Optional[ReachTable]:
        return self._entries.get((cfg, signature))

    def store(self, cfg: SamplerConfig, signature: str, table: ReachTable) -> None:
        self._entries[cfg, signature] = table

    def __len__(self) -> int:
        return len(self._entries)


class IncrementalComponentSampler:
    """Samples one bi-component's reach table from a signature-derived stream.

    World i lands in bit i of every vertex's world bitset, so one draw gives
    the table of every prefix of its worlds.
    """

    def __init__(self, graph: ProbabilisticGraph, comp: BiComponent, cfg: SamplerConfig):
        self.signature = comp.signature()
        self.articulation = comp.articulation
        self.alpha = cfg.alpha
        verts = sorted(comp.members | {comp.articulation})
        local = {v: i for i, v in enumerate(verts)}
        edges = sorted(comp.internal_edges)
        self._edges = [(local[u], local[v]) for u, v in edges]
        self._probs = [graph.probabilities[graph.edge_index[e]] for e in edges]
        self._verts = verts
        self._source = local[comp.articulation]
        self._rng = substream(cfg.master_seed, "component", self.signature)
        self._bits = [0] * len(verts)
        self.drawn = 0

    def draw(self, batch: int) -> None:
        """Draw ``batch`` worlds; a sampler draws once."""
        self._bits = _reach_worlds(
            self._edges, self._probs, len(self._verts), self._source, batch, self._rng
        )
        self.drawn = batch

    def _counts(self, n: int) -> list[int]:
        """Per-vertex successes among the first ``n`` drawn worlds."""
        mask = (1 << n) - 1
        return [(b & mask).bit_count() for b in self._bits]

    def table(self, n: Optional[int] = None) -> ReachTable:
        """Reach table of the first ``n`` drawn worlds, all of them by default."""
        n = self.drawn if n is None else n
        if not 1 <= n <= self.drawn:
            raise FTreeError(f"table of {n} worlds asked, {self.drawn} drawn")
        counts = self._counts(n)
        probs = {
            v: counts[i] / n
            for i, v in enumerate(self._verts)
            if v != self.articulation
        }
        return ReachTable(
            articulation=self.articulation, probs=probs, sample_count=n, alpha=self.alpha
        )

    def rows(self, sizes: Sequence[int]) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every member's (p, lo, hi) as arrays over ``sizes``: element j is
        that member's ``table(sizes[j]).rows`` entry, bit for bit."""
        n = np.array(sizes, dtype=np.int64)
        counts = np.array([self._counts(k) for k in sizes], dtype=np.int64).T
        p = counts / n
        lo, hi = wald_interval(p, n, self.alpha)
        return {
            v: (p[i], lo[i], hi[i])
            for i, v in enumerate(self._verts)
            if v != self.articulation
        }


class FTree:
    """Mutable component tree rooted at the query vertex.

    One writer at a time; probes never change its structure.  The kept
    state (``_Kept``, see the module docstring) holds the tree's last
    evaluation, the leaf candidates' terms once ``leaf_terms`` asked for
    them and, when probed with a memo, the trial tree of every cycle
    candidate whose probe finished with full tables, with the leaf edges
    committed since: a re-probe under the same ``SamplerConfig`` replays
    those leaves on its trial.  The candidate edges, once asked for
    (``candidates``), sit beside it.  Both serve one graph (``_use_graph``).
    """

    def __init__(self, q: int):
        self.q = q
        self._next_id = 0
        self._graph: Optional[ProbabilisticGraph] = None
        self._kept: Optional[_Kept] = None
        self._cands: Optional[list[Edge]] = None
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
        """Independent tree sharing only the immutable reach tables.  It keeps
        no state: its first evaluation is from scratch, and it has no
        candidates and no cycle probes."""
        other = FTree.__new__(FTree)
        other.q = self.q
        other._next_id = self._next_id
        other._graph, other._kept, other._cands = None, None, None
        other.components = {cid: comp.copy() for cid, comp in self.components.items()}
        other.root_id = self.root_id
        other.vertex_index = dict(self.vertex_index)
        other.selected_edges = set(self.selected_edges)
        return other

    def _use_graph(self, graph: ProbabilisticGraph) -> None:
        """Serve ``graph`` from here on: the kept state and candidates are for
        one graph, so naming another drops both.  Every public entry that
        reads or extends them calls this first."""
        if graph is not self._graph:
            self._graph, self._kept, self._cands = graph, None, None

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
        memo: Optional[MemoStore] = None,
        defer_sampling: bool = False,
    ) -> InsertReport:
        """Add one selected edge, dispatching the structural update cases.

        At least one endpoint must already be attached.  Unless
        ``defer_sampling`` is set, every component invalidated by the update
        is re-sampled (or fetched from ``memo``) and the tree is evaluated
        before returning.
        """
        self._use_graph(graph)
        e, prob, att_u, att_v = self._insertable(graph, edge)
        u, v = e
        fresh: Optional[int] = None
        if att_u and att_v:
            self._kept = None
            case = self._close_cycle(u, v, e)
        else:
            attach, fresh = (u, v) if att_u else (v, u)
            case = self._attach_leaf(e, attach, fresh, prob)

        self.selected_edges.add(e)
        if self._cands is not None:
            self._advance_candidates(e, fresh)
        kept = self._kept
        if kept is not None:
            # A leaf insert into an evaluated, hence clean, tree.
            kept.leaves.append(e)
            return InsertReport(case_taken=case, components_resampled=(), edges_sampled_count=0)
        pending = self.dirty_components()
        cost = sum(len(self.components[cid].internal_edges) for cid in pending)
        if not defer_sampling:
            if pending:
                self.refresh(graph, cfg, memo)
            self._evaluate(graph)
        return InsertReport(
            case_taken=case, components_resampled=tuple(pending), edges_sampled_count=cost
        )

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
        factor, triple and term in place."""
        kept = self._kept
        if kept is not None:
            [(_, f, t, term)] = self._leaf_terms([e])
            kept.factors[fresh] = f
            kept.triples[fresh] = t
            kept.estimate = self.leaf_estimate(kept.estimate, term)
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
        """Bring the kept candidates, and the kept leaf terms if any, up to
        date after inserting ``e``, which attached the vertex ``fresh`` if
        it was a leaf edge.

        The new vertex's edges to attached vertices stop being leaves and
        close cycles from now on; its other edges become leaf candidates.
        A leaf insert changes no attached vertex's triple or factor, so
        every other leaf keeps its term.
        """
        edges, graph = self._cands, self._graph
        del edges[bisect_left(edges, e)]
        if fresh is None:
            return
        terms = self._kept.terms if self._kept is not None else None
        found: list[Edge] = []
        for nbr, i in graph.adjacency[fresh]:
            c = graph.edges[i]
            if self.is_attached(nbr):
                if terms is not None:
                    terms.pop(c, None)  # e itself, or a leaf that now closes a cycle
            else:
                insort(edges, c)
                found.append(c)
        if terms is not None:
            terms.update((c, term) for c, _, _, term in self._leaf_terms(found))

    def _leaf_terms(
        self, edges: Iterable[Edge]
    ) -> Iterator[tuple[Edge, float, tuple[float, float, float], tuple[float, float, float]]]:
        """For each leaf edge (one endpoint attached) among ``edges``: the
        edge, the path factor and reach triple t its new vertex would get,
        and the weighted term t·w its insert adds, given the kept evaluation.

        The factor and triple are the ones ``_evaluate`` would compute, and
        the new vertex comes last in ``vertex_index``, so ``leaf_estimate``
        of the kept estimate and the term matches a full evaluation of the
        grown tree bit for bit.
        """
        q, comps, index, root = self.q, self.components, self.vertex_index, self.root_id
        triples, factors, graph = self._kept.triples, self._kept.factors, self._graph
        for e in edges:
            u, v = e
            att_u = u == q or u in index
            if att_u == (v == q or v in index):
                continue
            attach, fresh = (u, v) if att_u else (v, u)
            comp = comps[index.get(attach, root)]
            anchor = comp.articulation if isinstance(comp, MonoComponent) else attach
            prob = graph.probabilities[graph.edge_index[e]]
            f = (factors[attach] if attach != anchor else 1.0) * prob
            base = triples[anchor]
            t = (f * base[0], f * base[1], f * base[2])
            w = graph.weights[fresh]
            yield e, f, t, (t[0] * w, t[1] * w, t[2] * w)

    @staticmethod
    def leaf_estimate(base: FlowEstimate, t: tuple[float, float, float]) -> FlowEstimate:
        """The estimate of a tree whose estimate is ``base`` once a leaf with
        the weighted term ``t`` (see ``leaf_terms``) is inserted."""
        return FlowEstimate(base.mean + t[0], base.lb + t[1], base.ub + t[2], base.samples_used)

    def candidates(self, graph: ProbabilisticGraph) -> list[Edge]:
        """The unselected edges of ``graph`` with an attached endpoint, in
        canonical order, as ``candidate_edges`` gives them.

        The list is the tree's own, kept up to date by every insert; a
        caller reads it and must not change it.
        """
        self._use_graph(graph)
        if self._cands is None:
            self._cands = candidate_edges(graph, self.attached_vertices(), self.selected_edges)
        return self._cands

    def leaf_terms(
        self, graph: ProbabilisticGraph
    ) -> tuple[FlowEstimate, dict[Edge, tuple[float, float, float]]]:
        """The tree's estimate and, for every leaf candidate in ``graph``
        (one endpoint attached), the weighted term (t·w for mean, lb, ub)
        its insert adds: ``leaf_estimate`` of the two is what ``probe_edge``
        would estimate for the leaf, bit for bit, from the same samples.

        The terms are part of the tree's kept state, extended in place by
        leaf inserts; a caller reads them and must not change them.  A tree
        without a kept evaluation for ``graph`` is evaluated first, and
        terms dropped with the kept state are rebuilt in one pass over the
        candidates.
        """
        edges = self.candidates(graph)
        kept = self._kept
        if kept is None:
            kept = self._evaluate(graph)
        if kept.terms is None:
            kept.terms = {e: term for e, _, _, term in self._leaf_terms(edges)}
        return kept.estimate, kept.terms

    def _close_cycle(self, u: int, v: int, e: Edge) -> str:
        """Cases III and IV: fold the cycle the edge ``e`` between attached
        vertices u and v closes into one bi component.

        The cycle climbs from each endpoint's component to the two
        components' lowest common ancestor.  Every component it passes gives
        up its part on the cycle: a bi component all of itself, a mono
        component the path between the two vertices where the cycle enters
        it.  The last part taken becomes the ring: it gains the other parts'
        members and edges plus ``e`` and turns dirty.
        """
        cid_u, cid_v = self.component_of_vertex(u), self.component_of_vertex(v)
        anc = cid_u if cid_u == cid_v else self.lowest_common_ancestor(cid_u, cid_v)
        parts: list[int] = []
        split: list[bool] = []

        def take(cid: int, a: int, b: int) -> None:
            mono = isinstance(self.components[cid], MonoComponent)
            parts.append(self._split_mono(cid, a, b) if mono else cid)
            split.append(mono)

        def climb(cid: int, entry: int) -> int:
            while cid != anc:
                av = self.components[cid].articulation
                # Read before take(), which may delete the component.
                pid = self.parent_of(cid)
                take(cid, entry, av)
                entry, cid = av, pid  # type: ignore[assignment]
            return entry

        entry_u, entry_v = climb(cid_u, u), climb(cid_v, v)
        below = any(split)
        if entry_u != entry_v:
            take(anc, entry_u, entry_v)
        *absorbed, ring_id = parts
        ring = self.components[ring_id]
        assert isinstance(ring, BiComponent)
        for cid in absorbed:
            part = self.components.pop(cid)
            assert isinstance(part, BiComponent)
            ring.members |= part.members
            ring.internal_edges |= part.internal_edges
            for x in part.members:
                self.vertex_index[x] = ring_id
        ring.internal_edges.add(e)
        ring.reach = None
        if not absorbed:
            return "IIIb" if split[0] else "IIIa"
        return "IVc-composite" if below else "IVb"

    def _split_mono(self, comp_id: int, v_src: int, v_dest: int) -> int:
        """Cut the path between v_src and v_dest out of a mono component.

        The first vertex common to both paths toward the articulation vertex
        anchors a new bi component holding the path's other vertices and its
        tree edges, for the caller to close into a cycle; members cut off
        from the articulation vertex regroup into new mono components
        hanging off the path vertex their old path crossed first, in the
        old component's member order.  Returns the new component's id; it
        has no reach table yet.
        """
        if not isinstance(self.components[comp_id], MonoComponent):
            raise FTreeError("_split_mono requires a mono component")
        comp = self.components[comp_id]
        path_src = comp.path_to_articulation(v_src)
        path_dest = comp.path_to_articulation(v_dest)
        dest_set = set(path_dest)
        wedge = next(x for x in path_src if x in dest_set)
        cycle = path_src[: path_src.index(wedge)] + path_dest[: path_dest.index(wedge)]
        cycle_set = set(cycle)
        bi_edges: set[Edge] = set()
        for x in cycle:
            parent, _ = comp.parent_edges[x]
            bi_edges.add(canonical_edge(x, parent))

        bi = BiComponent(members=cycle_set, articulation=wedge, internal_edges=bi_edges)
        bi_id = self._add_component(bi)
        orphan_groups = self._classify_orphans(comp, cycle_set, stop={wedge, comp.articulation})
        self._detach_members(comp, cycle_set, bi_id)
        for anchor in sorted(orphan_groups):
            group = orphan_groups[anchor]
            mid = self._add_component(MonoComponent(anchor, {m: comp.parent_edges[m] for m in group}))
            self._detach_members(comp, group, mid)
        if not comp.parent_edges:
            del self.components[comp_id]
            if comp_id == self.root_id:
                self.root_id = bi_id
        return bi_id

    def _classify_orphans(
        self, comp: MonoComponent, removed: set[int], stop: set[int]
    ) -> dict[int, list[int]]:
        """Group remaining members by the first removed vertex on their old
        path toward the articulation vertex; members reaching a stop vertex
        first stay put.  Members are listed after their parents, so one pass
        suffices: a member joins its parent's group, or the parent's own
        group if the parent was removed."""
        group_of: dict[int, Optional[int]] = dict.fromkeys(stop)  # None: stays
        groups: dict[int, list[int]] = {}
        for m, (parent, _) in comp.parent_edges.items():
            if m in removed or m in stop:
                continue
            anchor = parent if parent in removed else group_of[parent]
            group_of[m] = anchor
            if anchor is not None:
                groups.setdefault(anchor, []).append(m)
        return groups

    def _detach_members(self, comp: MonoComponent, moved: Iterable[int], new_cid: int) -> None:
        for x in moved:
            del comp.parent_edges[x]
            self.vertex_index[x] = new_cid

    # ------------------------------------------------------------------
    # sampling upkeep
    # ------------------------------------------------------------------

    def refresh(
        self,
        graph: ProbabilisticGraph,
        cfg: SamplerConfig,
        memo: Optional[MemoStore] = None,
        stop: Optional[Callable[[FlowEstimate], bool]] = None,
    ) -> Optional[FlowEstimate]:
        """Renew every dirty component's reach table.

        A table memoized under ``cfg`` is reused; every other dirty
        component draws its full budget in one call and its finished table
        is stored in ``memo`` under ``cfg``, and None is returned.
        With ``stop``, the tree's expected flow over the tables of the first
        ``CI_BATCH``, 2·``CI_BATCH``, ... worlds and finally over the full
        tables is offered to ``stop`` in that order.  The first estimate it
        accepts is returned at once, with that round's tables left on the
        components and kept out of the memo.  Renewing a table drops the
        tree's kept state.
        """
        samplers: _Sampled = []
        for cid in self.dirty_components():
            self._kept = None
            comp = self.components[cid]
            assert isinstance(comp, BiComponent)
            table = memo.lookup(cfg, comp.signature()) if memo is not None else None
            if table is not None:
                comp.reach = table
            else:
                samplers.append((cid, comp, IncrementalComponentSampler(graph, comp, cfg)))
        if not samplers:
            return None
        for _, _, sampler in samplers:
            sampler.draw(cfg.samples)
        if stop is not None:
            sizes = range(CI_BATCH, cfg.samples, CI_BATCH)
            for n, est in zip(sizes, self._round_estimates(graph, samplers, sizes)):
                if stop(est):
                    self._set_tables(samplers, n)
                    return est
        self._set_tables(samplers, cfg.samples)
        if stop is not None:
            est = self.expected_flow(graph)
            if stop(est):
                return est
        if memo is not None:
            for _, comp, sampler in samplers:
                memo.store(cfg, sampler.signature, comp.reach)
        return None

    def _set_tables(self, samplers: _Sampled, n: int) -> None:
        for _, comp, sampler in samplers:
            comp.reach = sampler.table(n)

    def _round_estimates(
        self, graph: ProbabilisticGraph, samplers: _Sampled, sizes: Sequence[int]
    ) -> list[FlowEstimate]:
        """The estimate ``expected_flow`` would give with every sampled
        component carrying the table of its first n worlds, for each n in
        ``sizes``, in one walk: the sampled components' factors are arrays
        over the rounds, and every element goes through the float operations
        of a scalar evaluation in the same order."""
        if not sizes:
            return []
        rounds = {cid: sampler.rows(sizes) for cid, _, sampler in samplers}
        _, _, samples_used, (mean, lb, ub) = self._walk(graph, rounds)
        return [
            FlowEstimate(mean=m, lb=lo, ub=hi, samples_used=min(samples_used, n))
            for m, lo, hi, n in zip(mean.tolist(), lb.tolist(), ub.tolist(), sizes)
        ]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def expected_flow(self, graph: ProbabilisticGraph) -> FlowEstimate:
        """Flow into the query vertex with propagated confidence bounds.

        Analytic path factors are exact; sampled factors contribute their
        per-vertex intervals, multiplied lower-times-lower / upper-times-upper
        through nested components and summed with the vertex weights.  The
        tree's kept evaluation is returned when it has one for ``graph``.
        """
        self._use_graph(graph)
        kept = self._kept
        if kept is None:
            kept = self._evaluate(graph)
        return kept.estimate

    def _evaluate(self, graph: ProbabilisticGraph) -> _Kept:
        """Evaluate the whole tree and keep the result as a new kept state;
        the caller has made ``graph`` the one the tree serves."""
        triples, factors, samples_used, (mean, lb, ub) = self._walk(graph, {})
        est = FlowEstimate(mean=mean, lb=lb, ub=ub, samples_used=samples_used)
        self._kept = _Kept(est, triples, factors)
        return self._kept

    def _walk(
        self, graph: ProbabilisticGraph, rounds: dict[int, dict]
    ) -> tuple[dict, dict[int, float], int, tuple]:
        """Every attached vertex's (mean, lb, ub) reach factor to the query
        vertex, every mono member's path factor to its articulation vertex,
        the fewest worlds behind any reach table read, and the weighted
        (mean, lb, ub) sums, in one pass in ``vertex_index`` (attach) order.
        A vertex comes after its articulation vertex and its mono parent,
        whose factors it multiplies (see the module docstring).

        A bi component listed in ``rounds`` contributes the (p, lo, hi) rows
        given there instead of its table's; any other without a table raises
        DirtyComponentError.
        """
        weights, comps = graph.weights, self.components
        triples: dict[int, tuple] = {self.q: (1.0, 1.0, 1.0)}
        factors: dict[int, float] = {}
        rows_of = dict(rounds)
        samples_used = EXACT_SAMPLES
        mean = lb = ub = weights[self.q]
        for v, cid in self.vertex_index.items():
            comp = comps[cid]
            av = comp.articulation
            base = triples[av]
            if isinstance(comp, MonoComponent):
                parent, prob = comp.parent_edges[v]
                f = (factors[parent] if parent != av else 1.0) * prob
                factors[v] = f
                t = (f * base[0], f * base[1], f * base[2])
            else:
                rows = rows_of.get(cid)
                if rows is None:
                    table = comp.reach
                    if table is None:
                        raise DirtyComponentError("expected_flow called with stale components")
                    samples_used = min(samples_used, table.sample_count)
                    rows = rows_of[cid] = table.rows
                p, lo, hi = rows[v]
                t = (p * base[0], lo * base[1], hi * base[2])
            triples[v] = t
            w = weights[v]
            mean += t[0] * w
            lb += t[1] * w
            ub += t[2] * w
        return triples, factors, samples_used, (mean, lb, ub)

    def probe_edge(
        self,
        graph: ProbabilisticGraph,
        edge: tuple[int, int],
        cfg: SamplerConfig,
        memo: Optional[MemoStore] = None,
        stop: Optional[Callable[[FlowEstimate], bool]] = None,
    ) -> tuple[FlowEstimate, InsertReport]:
        """Flow and insert report of a hypothetical insertion, leaving this
        tree untouched.

        The edge is inserted into a copy whose dirty components ``refresh``
        renews, offering ``stop`` its round estimates; the estimate ``stop``
        accepted is returned, else the full-budget one.  A selection run
        probes only cycle edges (both endpoints attached) here and reads
        leaf edges' estimates from ``leaf_terms``, without the copy.

        With a memo and a kept evaluation, a cycle probe that ends with full
        tables keeps its trial tree in the tree's kept state, and a later
        probe of the same edge under the same ``cfg`` replays the leaves
        committed since on that trial.  Anything else this tree went through
        (a cycle-forming insert, a renewed table, another graph) would have
        dropped the kept state and the trial with it, so the replayed trial
        has the blocks, tables and vertex order of this tree plus the edge.
        Its tables are the memo's own for ``cfg``, so a fresh probe would
        find all of them in the memo and never offer ``stop`` an estimate:
        the replay gives the fresh probe's estimate bit for bit, given a
        memo that serves one graph (see MemoStore).
        The report names the kept trial's component ids, which can differ
        from the ones a fresh copy would allocate.
        """
        self._use_graph(graph)
        e, _, att_u, att_v = self._insertable(graph, edge)
        kept = self._kept
        keep = att_u and att_v and kept is not None and memo is not None
        key = (e, cfg)
        if keep and key in kept.trials:
            trial, report, replayed = kept.trials[key]
            for leaf in kept.leaves[replayed:]:
                trial.insert_edge(graph, leaf, cfg, memo)
            kept.trials[key] = (trial, report, len(kept.leaves))
            return trial.expected_flow(graph), report
        trial = self.copy()
        report = trial.insert_edge(graph, e, cfg, memo, defer_sampling=True)
        est = trial.refresh(graph, cfg, memo, stop)
        if est is not None:
            return est, report
        if keep:
            kept.trials[key] = (trial, report, len(kept.leaves))
        return trial.expected_flow(graph), report

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
                edges = comp.edge_set()
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
                    if set(comp.reach.probs) != comp.members:
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


def new_ftree(q: int) -> FTree:
    """Fresh tree holding only the query vertex."""
    return FTree(q)
