"""Null and alternative graph models: exact forms, samplers, enumeration."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphtest import (
    EDGE_TRIANGLE,
    EDGE_TWO_STAR,
    ENUMERATION_MAX_V,
    EnumerationRefusedError,
    ErdosRenyi,
    Ergm,
    ExactDistribution,
    Graph,
    McmcConfig,
    ModifiedErdosRenyi,
    canonical_pairs,
    er_marginals,
    ergm_enumerate,
    ergm_log_weight,
    ergm_mh_sample,
    edge_density_sweep,
    mean_graph,
    num_pairs,
    sample_er,
    select_modified_pairs,
)
from graphtest.models import MH_GROUP_CELLS

from oracles import (
    lockstep_mh_counts,
    naive_triangle_count,
    naive_two_star_count,
    random_graph,
)


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestErdosRenyi:
    def test_degenerate_probabilities(self, rng):
        empty = ErdosRenyi(4, 0.0).sample(5, rng)
        assert all(g == Graph.empty(4) for g in empty)
        full = ErdosRenyi(4, 1.0).sample(5, rng)
        assert all(g == Graph.complete(4) for g in full)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErdosRenyi(1, 0.5)
        with pytest.raises(ValueError):
            ErdosRenyi(4, 1.5)
        with pytest.raises(ValueError):
            sample_er(4, 0.5, 0, np.random.default_rng(0))

    def test_same_seed_reproduces_sample(self):
        a = sample_er(6, 0.4, 10, np.random.default_rng(99))
        b = sample_er(6, 0.4, 10, np.random.default_rng(99))
        assert a == b

    def test_edge_frequencies_concentrate(self, rng):
        s = ErdosRenyi(10, 0.3).sample(4000, rng)
        freqs = s.edge_counts / 4000
        band = 4 * math.sqrt(0.3 * 0.7 / 4000)
        assert np.all(np.abs(freqs - 0.3) < band)

    def test_edge_count_batches_match_binomial_mean(self, rng):
        counts = ErdosRenyi(5, 0.5).edge_count_batches(30, 3000, rng)
        assert counts.shape == (3000, 10)
        band = 4 * math.sqrt(30 * 0.25 / 3000)
        assert np.all(np.abs(counts.mean(axis=0) - 15) < band)

    def test_exact_marginals_and_metadata(self):
        model = ErdosRenyi(5, 0.25)
        assert model.exact_marginals() == er_marginals(5, 0.25)
        assert model.sweep_parameter == 0.25
        assert model.describe()["model"] == "er"

    def test_pair_probabilities(self):
        probs = ErdosRenyi(5, 0.3).pair_probabilities()
        assert probs.dtype == np.float64
        assert probs.tolist() == [0.3] * 10

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.97, 1.0])
    def test_constant_probabilities_draw_as_scalar_and_vector_alike(self, p):
        # Constant probabilities are drawn with a scalar p; NumPy consumes the
        # stream for it exactly as for the constant per-pair vector.
        for model in (ErdosRenyi(9, p), ModifiedErdosRenyi(9, p, p, frozenset({(0, 1)}))):
            rng = np.random.default_rng(11)
            counts = model.edge_count_batches(20, 70, rng)
            for probs in (p, np.full(36, p)):
                ref = np.random.default_rng(11)
                assert np.array_equal(counts, ref.binomial(20, probs, size=(70, 36)))
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("model", [
        ErdosRenyi(5, 0.5),
        ModifiedErdosRenyi(5, 0.5, 0.9, frozenset({(0, 1)})),
    ])
    def test_sample_sizes_below_one_are_refused(self, rng, model):
        for n in (0, -1):
            with pytest.raises(ValueError, match="sample size"):
                model.sample(n, rng)
            with pytest.raises(ValueError, match="sample size"):
                model.edge_count_batches(n, 10, rng)


class TestModifiedErdosRenyi:
    def test_pair_probabilities(self):
        spec = ModifiedErdosRenyi(4, 0.5, 0.9, frozenset({(0, 1), (2, 3)}))
        probs = spec.pair_probabilities()
        expected = [0.9, 0.5, 0.5, 0.5, 0.5, 0.9]
        assert probs.tolist() == expected
        assert spec.exact_marginals().as_array().tolist() == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 0.5, 0.9, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 0.5, 0.9, frozenset({(3, 4)}))
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 1.2, 0.9, frozenset())

    def test_no_modified_pairs_reduces_to_baseline(self):
        spec = ModifiedErdosRenyi(5, 0.3, 0.8, frozenset())
        assert spec.exact_marginals() == er_marginals(5, 0.3)

    def test_all_pairs_modified_reduces_to_target(self):
        spec = ModifiedErdosRenyi(5, 0.3, 0.8, frozenset(canonical_pairs(5)))
        assert spec.exact_marginals() == er_marginals(5, 0.8)

    def test_sample_frequencies_track_both_levels(self, rng):
        modified = frozenset({(0, 1), (0, 2), (4, 5)})
        spec = ModifiedErdosRenyi(6, 0.2, 0.9, modified)
        s = spec.sample(3000, rng)
        m = mean_graph(s)
        for i, j in canonical_pairs(6):
            target = 0.9 if (i, j) in modified else 0.2
            band = 4 * math.sqrt(target * (1 - target) / 3000)
            assert abs(m.value(i, j) - target) < band

    def test_sweep_parameter_is_modified_level(self):
        spec = ModifiedErdosRenyi(4, 0.5, 0.7, frozenset({(0, 1)}))
        assert spec.sweep_parameter == 0.7


class TestSelectModifiedPairs:
    def test_extreme_fractions(self, rng):
        assert select_modified_pairs(10, 0.0, rng) == frozenset()
        assert select_modified_pairs(10, 1.0, rng) == frozenset(canonical_pairs(10))

    def test_rounds_half_up(self, rng):
        # E=45 at v=10: 0.25*45 = 11.25 -> 11; E=10 at v=5: 2.5 -> 3.
        assert len(select_modified_pairs(10, 0.25, rng)) == 11
        assert len(select_modified_pairs(5, 0.25, rng)) == 3

    def test_returns_canonical_pairs(self, rng):
        chosen = select_modified_pairs(7, 0.4, rng)
        assert chosen <= frozenset(canonical_pairs(7))

    def test_deterministic_under_seed(self):
        a = select_modified_pairs(8, 0.3, np.random.default_rng(5))
        b = select_modified_pairs(8, 0.3, np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            select_modified_pairs(5, -0.1, rng)


class TestErgmLogWeight:
    def test_zero_parameters(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        for _ in range(5):
            assert ergm_log_weight(random_graph(rng, 4), spec) == 0.0

    def test_complete_triangle_model(self):
        spec = Ergm(3, EDGE_TRIANGLE, (1.0, 1.0))
        assert ergm_log_weight(Graph.complete(3), spec) == 4.0

    def test_matches_structure_counts(self, rng):
        tri = Ergm(5, EDGE_TRIANGLE, (0.4, -0.7))
        star = Ergm(5, EDGE_TWO_STAR, (0.4, -0.7))
        for _ in range(10):
            g = random_graph(rng, 5)
            assert ergm_log_weight(g, tri) == pytest.approx(
                0.4 * g.edge_count() - 0.7 * naive_triangle_count(g)
            )
            assert ergm_log_weight(g, star) == pytest.approx(
                0.4 * g.edge_count() - 0.7 * naive_two_star_count(g)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            Ergm(4, "edge_square", (0.0, 0.0))
        with pytest.raises(ValueError):
            Ergm(4, EDGE_TRIANGLE, (math.inf, 0.0))
        with pytest.raises(ValueError):
            ergm_log_weight(Graph.empty(3), Ergm(4, EDGE_TRIANGLE, (0.0, 0.0)))


class TestErgmEnumeration:
    def test_uniform_when_parameters_vanish(self):
        dist = ergm_enumerate(Ergm(4, EDGE_TRIANGLE, (0.0, 0.0)))
        assert np.allclose(dist.probabilities, 1 / 64)
        assert np.allclose(dist.edge_marginals().as_array(), 0.5, atol=1e-12)
        assert dist.edge_density() == pytest.approx(0.5, abs=1e-12)

    def test_v3_matches_eight_term_oracle(self):
        t1, t2 = 0.7, -0.3
        dist = ergm_enumerate(Ergm(3, EDGE_TRIANGLE, (t1, t2)))
        weights = []
        for code in range(8):
            g = Graph(3, code)
            weights.append(
                math.exp(t1 * g.edge_count() + t2 * naive_triangle_count(g))
            )
        z = sum(weights)
        for code in range(8):
            assert dist.probability_of(Graph(3, code)) == pytest.approx(
                weights[code] / z, rel=1e-13
            )
        marginal = sum(weights[c] for c in (1, 3, 5, 7)) / z
        assert dist.edge_marginals().value(0, 1) == pytest.approx(marginal, abs=1e-12)

    @pytest.mark.parametrize("theta1", [-2.0, -1.0, 0.5, 1.5])
    def test_vanishing_interaction_decouples_edges(self, theta1):
        # With no interaction term the edges are independent Bernoulli.
        p = logistic(theta1)
        for stats in (EDGE_TRIANGLE, EDGE_TWO_STAR):
            dist = ergm_enumerate(Ergm(5, stats, (theta1, 0.0)))
            assert np.allclose(dist.edge_marginals().as_array(), p, atol=1e-12)
            k = 3
            g = Graph(5, (1 << k) - 1)
            expected = p**k * (1 - p) ** (num_pairs(5) - k)
            assert dist.probability_of(g) == pytest.approx(expected, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        dist = ergm_enumerate(Ergm(6, EDGE_TWO_STAR, (0.3, -0.2)))
        assert len(dist.probabilities) == 1 << 15
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_refuses_above_limit(self):
        with pytest.raises(EnumerationRefusedError):
            ergm_enumerate(Ergm(ENUMERATION_MAX_V + 1, EDGE_TRIANGLE, (0.0, 0.0)))

    @pytest.mark.parametrize("theta", [(-0.5, -0.4), (0.0, -1.0), (-1.5, -0.1)])
    def test_sparse_repulsive_models_favor_empty_graph(self, theta):
        dist = ergm_enumerate(Ergm(4, EDGE_TRIANGLE, theta))
        top = dist.top_graphs(2)
        assert Graph.empty(4) in top

    def test_top_graphs_break_ties_by_code(self):
        dist = ergm_enumerate(Ergm(3, EDGE_TRIANGLE, (0.0, 0.0)))
        assert [g.bits for g in dist.top_graphs(3)] == [0, 1, 2]


class TestExactDistributionType:
    def test_validates_length_and_mass(self):
        with pytest.raises(ValueError):
            ExactDistribution(3, np.full(7, 1 / 7))
        with pytest.raises(ValueError):
            ExactDistribution(3, np.full(8, 0.2))
        bad = np.full(8, 1 / 8)
        bad[0], bad[1] = -1 / 8, 3 / 8
        with pytest.raises(ValueError):
            ExactDistribution(3, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_probabilities(self, value):
        probs = np.full(8, 1 / 8)
        probs[3] = value
        with pytest.raises(ValueError, match="finite"):
            ExactDistribution(3, probs)
        with pytest.raises(ValueError, match="finite"):
            ExactDistribution(3, np.full(8, value))

    def test_overflowing_ergm_weights_are_rejected(self):
        # inf - inf log-weights make every probability NaN.
        with pytest.raises(ValueError, match="finite"):
            ergm_enumerate(Ergm(4, EDGE_TRIANGLE, (1e308, -1e308)))


class TestMcmcSampler:
    def test_uniform_target_frequencies(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        s = ergm_mh_sample(spec, 4000, McmcConfig(burn_in=50, thinning=1), rng)
        freqs = s.edge_counts / 4000
        assert np.all(np.abs(freqs - 0.5) < 0.04)

    def test_total_variation_against_enumeration(self, rng):
        spec = Ergm(3, EDGE_TRIANGLE, (0.5, -0.8))
        exact = ergm_enumerate(spec)
        s = ergm_mh_sample(spec, 50000, McmcConfig(burn_in=100, thinning=1), rng)
        counts = np.zeros(8)
        for g in s:
            counts[g.bits] += 1
        tv = 0.5 * np.abs(counts / len(s) - exact.probabilities).sum()
        assert tv < 0.03

    def test_density_tracks_logistic_when_decoupled(self, rng):
        spec = Ergm(5, EDGE_TWO_STAR, (-1.0, 0.0))
        s = ergm_mh_sample(spec, 3000, McmcConfig(burn_in=100, thinning=2), rng)
        density = sum(g.edge_count() for g in s) / (3000 * 10)
        assert abs(density - logistic(-1.0)) < 0.03

    def test_same_seed_reproduces_chain(self):
        spec = Ergm(5, EDGE_TRIANGLE, (0.2, 0.1))
        cfg = McmcConfig(burn_in=20, thinning=3)
        a = ergm_mh_sample(spec, 50, cfg, np.random.default_rng(7))
        b = ergm_mh_sample(spec, 50, cfg, np.random.default_rng(7))
        assert a == b

    def test_sample_size_and_config_validation(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        with pytest.raises(ValueError):
            ergm_mh_sample(spec, 0, McmcConfig(), rng)
        with pytest.raises(ValueError):
            McmcConfig(burn_in=-1)
        with pytest.raises(ValueError):
            McmcConfig(thinning=0)

    def test_model_default_config_used_by_sample(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0), McmcConfig(burn_in=10, thinning=1))
        assert len(spec.sample(25, rng)) == 25


class TestLockstepChains:
    """``Ergm.edge_count_batches`` runs R chains together; check each one."""

    THETAS = [(0.3, 0.25), (-0.4, -0.5), (0.2, -800.0)]

    def check_against_oracle(self, v, stats, theta, schedule, n, R, seed):
        spec = Ergm(v, stats, theta, McmcConfig(*schedule))
        rng = np.random.default_rng(seed)
        counts = spec.edge_count_batches(n, R, rng)
        oracle_rng = np.random.default_rng(seed)
        expected = lockstep_mh_counts(
            v, stats == EDGE_TRIANGLE, theta, *schedule, n, R, oracle_rng
        )
        assert counts.shape == (R, num_pairs(v))
        assert np.array_equal(counts, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return counts

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_chunk_matches_oracle(self, stats, theta, seed):
        self.check_against_oracle(6, stats, theta, (7, 2), 5, 7, seed)

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("theta", THETAS)
    def test_several_chunks_match_oracle(self, stats, theta):
        # E*R = 28*300 puts 65536 // 8400 = 7 sweeps in a chunk; the 5 + 3*3
        # sweeps take two chunks.
        self.check_against_oracle(8, stats, theta, (5, 3), 3, 300, 11)

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_several_index_groups_per_sweep_match_oracle(self, stats):
        # Flip indices are prepared 16384 // 300 = 54 steps at a time, so each
        # sweep of E=190 steps takes four groups, the last one short.
        assert MH_GROUP_CELLS // 300 == 54
        self.check_against_oracle(20, stats, (0.1, -0.2), (1, 1), 1, 300, 4)

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_two_words_per_vertex_match_oracle(self, stats):
        # v=66 holds each neighbour mask in two uint64 words.
        counts = self.check_against_oracle(66, stats, (0.5, -0.05), (2, 1), 2, 3, 5)
        assert counts.sum() > 0

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("v", [5, 10, 66])
    def test_single_chain_is_the_scalar_sampler(self, stats, v):
        spec = Ergm(v, stats, (0.2, -0.1), McmcConfig(3, 2))
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        counts = spec.edge_count_batches(4, 1, a)
        assert np.array_equal(counts[0], spec.sample(4, b).edge_counts)
        assert a.bit_generator.state == b.bit_generator.state

    def test_working_memory_is_bounded_by_the_block(self, rng):
        # v=100, 64 chains: one sweep of draws is 4950*64*16 bytes (5 MB) and
        # the counts 2.5 MB; per-sweep flip indices alone would take 45 MB.
        spec = Ergm(100, EDGE_TRIANGLE, (0.0, 0.05), McmcConfig(burn_in=1, thinning=1))
        tracemalloc.start()
        try:
            spec.edge_count_batches(1, 64, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_chain_draws_match_enumeration(self, rng):
        # One draw per chain: its edge counts are its graph's indicators.
        spec = Ergm(4, EDGE_TRIANGLE, (0.5, -0.8), McmcConfig(burn_in=20, thinning=1))
        exact = ergm_enumerate(spec)
        counts = spec.edge_count_batches(1, 50000, rng)
        codes = counts @ (1 << np.arange(num_pairs(4)))
        freq = np.bincount(codes, minlength=64) / len(codes)
        tv = 0.5 * np.abs(freq - exact.probabilities).sum()
        assert tv < 0.03


class TestEdgeDensitySweep:
    def test_matches_logistic_grid_when_decoupled(self, rng):
        grid = [-2.0, -1.0, 0.0, 1.0]
        specs = [Ergm(5, EDGE_TRIANGLE, (t1, 0.0)) for t1 in grid]
        points = edge_density_sweep(specs, 2000, McmcConfig(50, 1), rng)
        assert [p.theta1 for p in points] == grid
        for p in points:
            assert abs(p.density - logistic(p.theta1)) < 0.03
            assert p.draws == 2000

    def test_matches_enumeration_density(self, rng):
        spec = Ergm(4, EDGE_TWO_STAR, (-0.5, 0.15))
        exact = ergm_enumerate(spec).edge_density()
        (point,) = edge_density_sweep([spec], 4000, McmcConfig(100, 1), rng)
        assert abs(point.density - exact) < 0.03

    def test_warns_on_near_degenerate_chain(self, rng):
        spec = Ergm(5, EDGE_TRIANGLE, (-6.0, 0.0))
        with pytest.warns(UserWarning, match="near-degenerate"):
            edge_density_sweep([spec], 500, McmcConfig(50, 1), rng)

    def test_rejects_empty_grid(self, rng):
        with pytest.raises(ValueError):
            edge_density_sweep([], 100, McmcConfig(), rng)

    def test_densities_are_the_per_graph_edge_sums(self):
        specs = [Ergm(7, EDGE_TRIANGLE, (-0.5, t2)) for t2 in (-0.1, 0.0, 0.1)]
        mcmc = McmcConfig(20, 2)
        points = edge_density_sweep(specs, 60, mcmc, np.random.default_rng(3))
        children = np.random.default_rng(3).spawn(len(specs))
        for point, spec, child in zip(points, specs, children):
            sample = ergm_mh_sample(spec, 60, mcmc, child)
            edges = sum(g.edge_count() for g in sample)
            assert point.density == edges / (60 * num_pairs(7))
