"""Monte-Carlo estimators, confidence intervals, seeded substreams."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    EXACT_SAMPLES,
    ProbabilisticGraph,
    SamplerConfig,
    assign_distance_decay,
    canonical_edge,
    confidence_interval,
    exact_expected_flow,
    gen_wsn,
    mc_expected_flow,
    new_ftree,
    normal_quantile,
    substream,
)
from probflow import sampling
from probflow.ftree import BiComponent, IncrementalComponentSampler
from probflow.sampling import WorldStore, _reach_bitsets, exact_reach, mc_counts
from util import (
    DeterministicWorld,
    drawn_table,
    flow_of_world,
    random_connected_graph,
    reachable_set,
    reference_exact_reach,
    reference_live_worlds,
    reference_world_patterns,
    reference_world_weights,
    ring_chain_graph,
    sample_world,
    twenty_edge_graph,
)


def path_graph():
    return ProbabilisticGraph.build(
        3, [(0, 1, 0.5), (1, 2, 0.5)], weights=[0.0, 1.0, 1.0]
    )


class TestSampleWorld:
    def test_certain_edges_always_present(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for seed in range(5):
            world = sample_world(g, substream(seed, "w"))
            assert world.present_edges == frozenset(g.edges)

    def test_single_edge_frequency(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        stream = substream(123, "freq")
        hits = sum(bool(sample_world(g, stream).present_edges) for _ in range(10000))
        assert abs(hits - 5000) <= 150  # 3 sigma of Binomial(10000, 0.5)

    def test_fixed_seed_repeats(self):
        g = ProbabilisticGraph.build(4, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.5)])
        seq1 = [sample_world(g, substream(9, "s")).present_edges for _ in range(50)]
        seq2 = [sample_world(g, substream(9, "s")).present_edges for _ in range(50)]
        assert seq1 == seq2


class TestReachableSet:
    def test_full_path(self):
        g = path_graph()
        world = DeterministicWorld(g, frozenset(g.edges))
        assert reachable_set(world, 0) == {0, 1, 2}

    def test_broken_path(self):
        g = path_graph()
        world = DeterministicWorld(g, frozenset({(0, 1)}))
        assert reachable_set(world, 0) == {0, 1}

    def test_no_edges(self):
        g = path_graph()
        world = DeterministicWorld(g, frozenset())
        assert reachable_set(world, 0) == {0}


def per_world_counts(graph, source, samples, key, absent=frozenset()):
    """Reference for ``mc_counts``: one ``sample_world`` per world, from the
    stream ``mc_counts`` reads under master seed 0 and ``key``, and a
    set-based search.  Edges in ``absent`` stand for probability 0: they
    are drawn at probability 1 and then dropped, which consumes the stream
    exactly as the kernel's draw for them does."""
    stream = substream(0, "mc-flow", key, source)
    counts = [0] * graph.num_vertices
    for _ in range(samples):
        world = sample_world(graph, stream)
        kept = DeterministicWorld(graph, world.present_edges - absent)
        for v in reachable_set(kept, source):
            counts[v] += 1
    return counts


def kernel_counts(graph, source, samples, key, absent=frozenset()):
    probs = [0.0 if e in absent else p for e, p in zip(graph.edges, graph.probabilities)]
    counts = mc_counts(graph.edges, probs, graph.num_vertices, source, key, SamplerConfig(samples))
    return counts.tolist()


class TestSuccessCountsKernel:
    """The whole-graph draw loop's success counts (``mc_counts``) are
    exactly what a per-world search counts on the same stream: row i of
    ``rng.random((n, E))`` is the i-th of n ``rng.random(E)`` calls."""

    def graphs(self, seed, count=6):
        rng = random.Random(seed)
        return [random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 8)) for _ in range(count)]

    @pytest.mark.parametrize("samples", [1, 7, 63, 64, 65, 1000])
    def test_matches_per_world_reference(self, samples):
        for i, g in enumerate(self.graphs(samples)):
            source = i % g.num_vertices
            got = kernel_counts(g, source, samples, f"kernel-{samples}-{i}")
            want = per_world_counts(g, source, samples, f"kernel-{samples}-{i}")
            assert got == want

    def test_many_chunks(self, monkeypatch):
        # A budget of 40 doubles gives chunks of 40 // E worlds, the last
        # one partial, so one call draws and propagates in many batches.
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 40)
        for i, g in enumerate(self.graphs(99)):
            got = kernel_counts(g, 0, 301, f"chunks-{i}")
            want = per_world_counts(g, 0, 301, f"chunks-{i}")
            assert got == want

    def test_memory_flat_in_samples(self, monkeypatch):
        # Chunks of 64 worlds: the peak stays below one bitset of all the
        # sampled worlds, which keeping every world's bit would need per
        # vertex.  A first call outside the trace does one-time allocations.
        g = ProbabilisticGraph.build(4, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5), (2, 3, 0.8)])
        samples = 200_000
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 64 * g.num_edges)
        kernel_counts(g, 0, 1000, "flat-warm")
        tracemalloc.start()
        try:
            counts = kernel_counts(g, 0, samples, "flat")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[0] == samples
        assert peak < samples // 8

    def test_whole_graph_draw_memory_is_bounded(self):
        # 20 000 worlds of 2309 edges, in chunks of 1732 worlds: as one
        # matrix a chunk's uniforms alone take 32 MB, drawn in blocks of 24
        # worlds they take 0.5 MB.  A first call outside the trace does
        # one-time allocations.
        g = assign_distance_decay(gen_wsn(500, 0.08, 1), lam=0.001, scale=10000)
        assert g.num_edges == 2309
        cfg = SamplerConfig(samples=20_000)
        args = (g.edges, g.probabilities, g.num_vertices, 0, g.signature())
        mc_counts(*args, SamplerConfig(samples=100))
        tracemalloc.start()
        try:
            counts = mc_counts(*args, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[0] == cfg.samples
        assert peak < 8_000_000

    def test_certain_and_impossible_edges(self):
        g = ProbabilisticGraph.build(
            6,
            [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 0.5), (2, 3, 1.0), (3, 4, 0.4), (4, 5, 0.7), (1, 5, 1.0)],
        )
        absent = frozenset({(1, 2), (4, 5)})
        got = kernel_counts(g, 0, 500, "p01", absent)
        assert got == per_world_counts(g, 0, 500, "p01", absent)
        assert got[0] == got[1] == got[5] == 500

    def test_edgeless_component(self):
        g = ProbabilisticGraph.build(3, [])
        assert kernel_counts(g, 1, 65, "none") == [0, 65, 0]

    def test_isolated_source(self):
        g = ProbabilisticGraph.build(5, [(1, 2, 0.5), (2, 3, 0.9), (1, 3, 0.3)])
        got = kernel_counts(g, 4, 200, "iso")
        assert got == per_world_counts(g, 4, 200, "iso") == [0, 0, 0, 0, 200]


def block_worlds(edges):
    """Worlds per uniform block of a draw over ``edges`` edges."""
    return max(8, sampling._CHUNK_BUDGET // 64 // edges // 8 * 8)


@pytest.mark.pinned
class TestBlockedDraws:
    """The blocked draw packs, bit for bit, what one float matrix of a
    chunk's uniforms packs (``reference_live_worlds``), and leaves the
    stream where that matrix leaves it."""

    def check(self, probs, count):
        probs = np.asarray(probs, dtype=float)
        got, want = substream(5, "blocks", count), substream(5, "blocks", count)
        assert sampling._live_worlds(got, probs, count) == reference_live_worlds(want, probs, count)
        assert got.bit_generator.state == want.bit_generator.state

    def probs(self, edges, seed=0):
        rng = random.Random(seed)
        return [rng.choice([1.0, 0.0, rng.random()]) if j % 4 == 3 else rng.random() for j in range(edges)]

    @pytest.mark.parametrize("edges, count", [
        (5, 1001),  # one block, not a whole number of bytes of worlds
        (62, 1000),  # a ring draw: one block of 1008 worlds holds it
        (62, 1007),  # one world below a block
        (62, 1008),  # exactly one block
        (62, 1009),  # a full block and one world
        (63, 1000),  # blocks of 992 worlds: two
        (2309, 1732),  # a whole wsn-500 chunk: 72 blocks of 24 worlds and one of 4
        (9, 1),
        (1, 1000),  # a world store's draw: one edge, one block, one row
        (1, 1001),
        (1, 7),
        (1, 1),
    ])
    def test_matches_one_matrix(self, edges, count):
        if edges == 62:
            assert block_worlds(edges) == 1008
        self.check(self.probs(edges, count), count)

    @pytest.mark.parametrize("edges", [1, 2, 3, 7, 11])
    def test_many_small_blocks(self, monkeypatch, edges):
        # 40 doubles a block: 40, 16 or 8 worlds (at least a byte of
        # them), so 301 worlds span many blocks and end in a partial one.
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 64 * 40)
        assert block_worlds(edges) in (8, 16, 40)
        for count in (7, 8, 9, 64, 301):
            self.check(self.probs(edges, count), count)

    def test_no_edges_draw_nothing(self):
        self.check([], 1000)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_one_edge_of_certain_state(self, p):
        self.check([p], 1000)

    def test_certain_edges_live_in_every_world(self):
        live = sampling._live_worlds(substream(1, "p1"), np.array([1.0, 0.5, 1.0]), 1001)
        assert live[0] == live[2] == (1 << 1001) - 1

    def test_chunks_match_one_matrix_per_chunk(self, monkeypatch):
        # Chunks of 2560 // 9 = 284 worlds, each drawn in blocks of 8: the
        # counts are the popcounts of each chunk's one-matrix worlds,
        # propagated on their own, summed over the 4 chunks.
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 64 * 40)
        g = random_connected_graph(random.Random(8), 7, 3)
        probs = np.asarray(g.probabilities)
        chunk = sampling._CHUNK_BUDGET // g.num_edges
        cfg = SamplerConfig(samples=1001, master_seed=2)
        drawn, live_worlds = [], sampling._live_worlds
        monkeypatch.setattr(
            sampling, "_live_worlds", lambda rng, p, count: drawn.append(count) or live_worlds(rng, p, count)
        )
        got = mc_counts(g.edges, probs, g.num_vertices, 0, "chunks", cfg)
        stream = substream(2, "mc-flow", "chunks", 0)
        want = np.zeros(g.num_vertices, dtype=np.int64)
        for done in range(0, 1001, chunk):
            count = min(chunk, 1001 - done)
            live = reference_live_worlds(stream, probs, count)
            want += [r.bit_count() for r in _reach_bitsets(live, g.edges, g.num_vertices, 0, count)]
        assert drawn == [284, 284, 284, 149]
        assert got.tolist() == want.tolist()


class TestEnumerationKernels:
    """Enumerated worlds' patterns and weights equal the one-matrix
    formulas bit for bit, and an enumeration holds its weights and one
    vertex row of them, not an edges x worlds matrix."""

    @pytest.mark.pinned
    @pytest.mark.parametrize("m", range(17))
    def test_patterns_match_matrix_formula(self, m):
        want = reference_world_patterns(m)
        assert sampling._world_patterns(m) == sampling._build_patterns(m) == want

    @pytest.mark.pinned
    @pytest.mark.parametrize("m", range(17))
    def test_weights_match_product_formula(self, m):
        rng = random.Random(m)
        probs = [rng.uniform(0.001, 0.999) for _ in range(m)]
        for _ in range(m // 3 + 1):  # certain edges anywhere among them
            probs.insert(rng.randint(0, len(probs)), 1.0)
        got = sampling.world_weights(probs)
        assert got.tobytes() == reference_world_weights(probs).tobytes()
        assert got.dtype == np.float64 and got.shape == (1 << m,)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ring_tables_and_oracle_match_the_reference(self, data):
        # A ring of 3-9 vertices (a cycle through them all, and chords),
        # 0-12 of its edges uncertain and the rest certain, so that rings
        # of fewer than 8 worlds come up too, and a random drain.  Its
        # sampler (a budget of 2^12 worlds makes every such ring exact) and
        # the oracle's routine give the reference's values bit for bit.
        n = data.draw(st.integers(3, 9), label="vertices")
        chords = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
        kept = []
        if chords:  # a triangle has none
            kept = data.draw(st.lists(st.sampled_from(chords), unique=True, max_size=8), label="chords")
        edges = sorted({canonical_edge(v, (v + 1) % n) for v in range(n)} | set(kept))
        order = data.draw(st.permutations(range(len(edges))), label="order")
        m = data.draw(st.integers(0, min(12, len(edges))), label="uncertain")
        probs = [1.0] * len(edges)
        for j in order[:m]:
            probs[j] = data.draw(st.floats(0.001, 0.999), label=f"p{j}")
        source = data.draw(st.integers(0, n - 1), label="drain")
        g = ProbabilisticGraph(n, tuple(edges), tuple(probs), (1.0,) * n, tuple(map(str, range(n))))
        want = reference_exact_reach(edges, probs, n, source)
        assert exact_reach(edges, probs, n, source).tobytes() == want.tobytes()
        cfg = SamplerConfig(samples=1 << 12)
        comp = BiComponent(set(range(n)) - {source}, source, set(edges))
        table = IncrementalComponentSampler(WorldStore(g, cfg), comp).build()
        assert table.sample_count == EXACT_SAMPLES
        assert {v: tuple(map(float.hex, row)) for v, row in table.rows.items()} == {
            v: (r.hex(),) * 3 for v, r in enumerate(want.tolist()) if v != source
        }

    def test_enumeration_memory_is_bounded(self):
        # 2^20 worlds: the weights take 8 MB and one vertex row of them 8
        # MB more; the edges x worlds matrices took over 200 MB.
        g = twenty_edge_graph()
        assert g.num_edges == sum(p < 1.0 for p in g.probabilities) == 20
        exact_reach(g.edges[:3], g.probabilities[:3], g.num_vertices, 0)
        tracemalloc.start()
        try:
            reach = exact_reach(g.edges, g.probabilities, g.num_vertices, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reach[0] == 1.0
        assert peak < 40_000_000


class TestMcExpectedFlow:
    def test_deterministic_graph_is_exact(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 1.0), (1, 2, 1.0)], weights=[1.0, 2.0, 4.0]
        )
        est = mc_expected_flow(g, 0, SamplerConfig(samples=50, master_seed=1))
        assert est.mean == est.lb == est.ub == 7.0

    def test_path_close_to_oracle(self):
        g = path_graph()
        est = mc_expected_flow(g, 0, SamplerConfig(samples=10000, master_seed=2))
        assert est.mean == pytest.approx(0.75, abs=0.03)
        assert est.lb <= est.mean <= est.ub

    def test_single_sample_equals_world_flow(self):
        g = path_graph()
        cfg = SamplerConfig(samples=1, master_seed=77)
        est = mc_expected_flow(g, 0, cfg)
        stream = substream(cfg.master_seed, "mc-flow", g.signature(), 0)
        world = sample_world(g, stream)
        assert est.mean == flow_of_world(world, 0)

    def test_bitwise_determinism(self):
        rng = random.Random(4)
        g = random_connected_graph(rng, 8, 4)
        cfg = SamplerConfig(samples=500, master_seed=123)
        assert mc_expected_flow(g, 0, cfg) == mc_expected_flow(g, 0, cfg)

    def test_unbiased_over_many_runs(self):
        rng = random.Random(6)
        g = random_connected_graph(rng, 6, 3)
        oracle = exact_expected_flow(g, 0)
        runs = 200
        means = [
            mc_expected_flow(g, 0, SamplerConfig(samples=1000, master_seed=s)).mean
            for s in range(runs)
        ]
        grand = sum(means) / runs
        var = sum((m - grand) ** 2 for m in means) / (runs - 1)
        assert abs(grand - oracle) < 4.0 * math.sqrt(var / runs)


def component_reach(graph, comp, cfg):
    """Reach table of one component sampled at the full budget."""
    return drawn_table(IncrementalComponentSampler(WorldStore(graph, cfg), comp), cfg.samples)


TRIANGLE = BiComponent({1, 2}, 0, {(0, 1), (1, 2), (0, 2)})


class TestMcComponentReach:
    def test_triangle(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        table = component_reach(g, TRIANGLE, SamplerConfig(samples=100000, master_seed=5))
        assert table.rows[1][0] == pytest.approx(0.625, abs=0.005)
        assert table.rows[2][0] == pytest.approx(0.625, abs=0.005)
        assert 0 not in table.rows

    def test_single_edge(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.7)])
        comp = BiComponent({1}, 0, {(0, 1)})
        table = component_reach(g, comp, SamplerConfig(samples=100000, master_seed=6))
        assert table.rows[1][0] == pytest.approx(0.7, abs=0.005)

    def test_all_certain(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        table = component_reach(g, TRIANGLE, SamplerConfig(samples=64, master_seed=7))
        assert table.rows == {1: (1.0, 1.0, 1.0), 2: (1.0, 1.0, 1.0)}

    def test_stream_key_controls_determinism(self):
        # A drawn table's worlds are its edges' worlds, each keyed by the
        # edge and the master seed only: the same component inside a larger
        # graph samples identically.
        # Its 9 edges have 2^9 worlds, more than 200, so its sampler's
        # ``build`` draws the table as a tree would.
        cycle = [(i, (i + 1) % 9, 0.5) for i in range(9)]
        g = ProbabilisticGraph.build(9, cycle)
        bigger = ProbabilisticGraph.build(10, cycle + [(2, 9, 0.9)], weights=list(range(10)))
        ring = BiComponent(set(range(1, 9)), 0, set(g.edges))
        cfg = SamplerConfig(samples=200, master_seed=8)

        def drawn(graph, cfg):
            sampler = IncrementalComponentSampler(WorldStore(graph, cfg), ring)
            table = sampler.build()
            assert not sampler.exact and table.sample_count == cfg.samples
            return table

        a = drawn(g, cfg)
        assert drawn(bigger, cfg) == a
        assert drawn(g, SamplerConfig(samples=200, master_seed=9)) != a


class TestConfidenceInterval:
    def test_worked_value(self):
        lb, ub = confidence_interval(50, 100, 0.01)
        assert lb == pytest.approx(0.3712, abs=1e-3)
        assert ub == pytest.approx(0.6288, abs=1e-3)

    def test_degenerate_all_successes(self):
        assert confidence_interval(100, 100, 0.01) == (1.0, 1.0)

    def test_degenerate_no_successes(self):
        assert confidence_interval(0, 100, 0.01) == (0.0, 0.0)

    def test_width_shrinks_like_inverse_sqrt(self):
        lb1, ub1 = confidence_interval(50, 100, 0.05)
        lb4, ub4 = confidence_interval(200, 400, 0.05)
        assert (ub4 - lb4) == pytest.approx((ub1 - lb1) / 2.0, rel=1e-12)

    def test_bounds_bracket_the_proportion(self):
        for s, n in [(0, 1), (1, 1), (3, 17), (29, 31), (500, 1000)]:
            lb, ub = confidence_interval(s, n, 0.01)
            assert lb <= s / n <= ub

    @pytest.mark.pinned
    def test_reach_table_rows_match_bit_for_bit(self):
        # A drawn table's row of each member is its success count over the
        # worlds drawn, and confidence_interval of that count, bit for bit.
        # A ring of m uncertain edges has 2^m worlds, more than the n drawn.
        rng = random.Random(31)
        for i in range(40):
            n = rng.choice([1, 2, 7, 100, 300, 1000, 20000])
            alpha = rng.choice([0.01, 0.05, 0.2])
            m = max(rng.randint(3, 8), n.bit_length())
            probs = [rng.choice([0.05, 0.5, 0.95, rng.uniform(0.01, 0.99)]) for _ in range(m)]
            g = ProbabilisticGraph.build(m, [(j, (j + 1) % m, p) for j, p in enumerate(probs)])
            ring = BiComponent(set(range(1, m)), 0, set(g.edges))
            cfg = SamplerConfig(n, alpha, master_seed=i)
            sampler = IncrementalComponentSampler(WorldStore(g, cfg), ring)
            counts = dict(zip(sampler._verts, (b.bit_count() for b in sampler.draw(n))))
            table = drawn_table(sampler, n)
            assert not sampler.exact and table.sample_count == n and set(table.rows) == ring.members
            for v, (p, lo, hi) in table.rows.items():
                want_lo, want_hi = confidence_interval(counts[v], n, alpha)
                assert [type(x) for x in (p, lo, hi)] == [float] * 3
                assert p == counts[v] / n
                assert (lo.hex(), hi.hex()) == (float(want_lo).hex(), float(want_hi).hex())
            assert sampler.build() == table

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(5, 0, 0.05)
        with pytest.raises(ValueError):
            confidence_interval(5, 3, 0.05)


class TestNormalQuantile:
    def test_reference_value(self):
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-8)

    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        for q in (0.6, 0.9, 0.999, 0.2):
            assert normal_quantile(q) == pytest.approx(-normal_quantile(1 - q), abs=1e-10)

    def test_round_trip_through_cdf(self):
        for q in (0.001, 0.01, 0.1, 0.3, 0.5, 0.77, 0.95, 0.999, 0.999999):
            z = normal_quantile(q)
            cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
            assert cdf == pytest.approx(q, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    @pytest.mark.parametrize("q", ["a", None], ids=repr)
    def test_a_quantile_that_is_no_real_number_is_named(self, q):
        with pytest.raises(ValueError, match=re.escape(f"q must be a real number, not {q!r}")):
            normal_quantile(q)


class TestSubstreams:
    def test_distinct_purposes_decorrelate(self):
        a = substream(42, "one").random(4).tolist()
        b = substream(42, "two").random(4).tolist()
        assert a != b

    def test_same_key_same_stream(self):
        assert substream(1, "x", 2).random(8).tolist() == substream(1, "x", 2).random(8).tolist()

    @pytest.mark.pinned
    def test_stream_values_are_stable_across_processes(self):
        # Content-hashed seeds: these values must never drift between runs,
        # interpreters, or machines.
        assert substream(0, "stability-probe").random() == pytest.approx(
            0.09314243390118637, abs=0.0
        )
        assert substream(12345, "edge", 1, 2).random() == pytest.approx(0.22030314507939774, abs=0.0)


class TestConfigValidation:
    def test_sampler_config_bounds(self):
        with pytest.raises(ValueError):
            SamplerConfig(samples=0)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match=re.escape("alpha must be in (0,1)")):
                SamplerConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e-16, 1e-17, 2.0**-53, 5e-324])
    def test_alpha_too_small_for_its_interval_is_rejected(self, alpha):
        # 1 - alpha/2 rounds to 1.0, whose normal quantile is infinite: the
        # config names alpha instead of a draw failing mid-run.
        with pytest.raises(ValueError, match=r"^alpha must be above 2\*\*-53 .*, got "):
            SamplerConfig(alpha=alpha)

    def test_smallest_alpha_accepted_has_a_finite_interval(self):
        cfg = SamplerConfig(alpha=math.nextafter(2.0**-53, 1.0))
        assert math.isfinite(sampling.critical_z(cfg.alpha))
        lo, hi = sampling.wald_interval(np.array([0.5]), 100, cfg.alpha)
        assert 0.0 <= lo[0] < 0.5 < hi[0] <= 1.0

    @pytest.mark.parametrize(
        "field, value", [("samples", 100.0), ("samples", 2.5), ("samples", "100"), ("master_seed", 1.0)]
    )
    def test_sampler_config_takes_integers(self, field, value):
        # A float master seed would hash to other streams than its integer's.
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, not {value!r}")):
            SamplerConfig(**{field: value})

    def test_sampler_config_takes_numpy_integers(self):
        import numpy as np

        cfg = SamplerConfig(samples=np.int64(100), master_seed=np.int64(1))
        assert cfg == SamplerConfig(samples=100, master_seed=1) and type(cfg.samples) is int
        assert mc_expected_flow(path_graph(), 0, cfg) == mc_expected_flow(
            path_graph(), 0, SamplerConfig(samples=100, master_seed=1)
        )

    @pytest.mark.parametrize("alpha", ["0.01", None])
    def test_sampler_config_takes_a_real_alpha(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be a real number, not {alpha!r}")):
            SamplerConfig(alpha=alpha)

    def test_real_alphas_of_any_type_give_the_same_estimate(self):
        import numpy as np

        plain = SamplerConfig(samples=100, master_seed=1, alpha=0.05)
        cfg = SamplerConfig(samples=100, master_seed=1, alpha=np.float64(0.05))
        assert mc_expected_flow(path_graph(), 0, cfg) == mc_expected_flow(path_graph(), 0, plain)

    @pytest.mark.parametrize("sample_count", [0, -1])
    def test_reach_table_needs_a_sample(self, sample_count):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            sampling.ReachTable(articulation=0, rows={1: (0.5, 0.5, 0.5)}, sample_count=sample_count)

    def test_reach_table_has_no_articulation_row(self):
        with pytest.raises(ValueError, match="articulation vertex must not appear in the table"):
            sampling.ReachTable(articulation=0, rows={0: (0.5, 0.5, 0.5)}, sample_count=10)

    @pytest.mark.parametrize(
        "row",
        [(0.5, 0.6, 0.7), (0.5, 0.3, 0.4), (-0.1, -0.2, 0.1), (1.0, 0.9, 1.1), (math.nan,) * 3],
        ids=["lo above p", "hi below p", "negative", "above one", "nan"],
    )
    def test_reach_table_rows_are_ordered_intervals(self, row):
        rows = {1: (0.5, 0.4, 0.6), 7: row}
        with pytest.raises(ValueError, match=re.escape("for vertex 7 outside 0 <= lo <= p <= hi <= 1")):
            sampling.ReachTable(articulation=0, rows=rows, sample_count=10)
        sampling.ReachTable(articulation=0, rows={1: (0.5, 0.4, 0.6), 7: (0.0, 0.0, 1.0)}, sample_count=10)

    def test_flow_estimate_bracketing(self):
        from probflow import FlowEstimate

        with pytest.raises(ValueError):
            FlowEstimate(mean=1.0, lb=1.5, ub=2.0, samples_used=10)
        with pytest.raises(ValueError):
            FlowEstimate(mean=1.0, lb=0.5, ub=2.0, samples_used=0)


class TestVarianceReduction:
    def test_component_sampling_beats_whole_graph(self):
        # Decomposed sampling leaves tree edges analytic and samples the
        # rings independently, so its run-to-run variance must not exceed
        # the whole-graph estimator's at equal sample budget.  Rings of 11
        # edges have 2^11 worlds, more than 1000, so their tables are drawn.
        g = ring_chain_graph(2, ring=11)
        runs = 200
        edges = list(g.edges)
        ft_means, naive_means = [], []
        for s in range(runs):
            cfg = SamplerConfig(samples=1000, master_seed=10_000 + s)
            tree = new_ftree(0)
            for e in edges:
                tree.insert_edge(g, e, cfg)
            est = tree.expected_flow(g)
            assert est.samples_used == cfg.samples
            ft_means.append(est.mean)
            naive_means.append(mc_expected_flow(g, 0, cfg).mean)

        def var(xs):
            mu = sum(xs) / len(xs)
            return sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)

        assert var(ft_means) <= var(naive_means)
