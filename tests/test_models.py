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
    EdgeMarginals,
    EnumerationRefusedError,
    ErdosRenyi,
    Ergm,
    ExactDistribution,
    Graph,
    McmcConfig,
    ModifiedErdosRenyi,
    canonical_pairs,
    ergm_enumerate,
    ergm_log_weight,
    ergm_mh_sample,
    edge_density_sweep,
    mean_graph,
    num_pairs,
    select_modified_pairs,
)
from graphtest.models import (
    MH_GROUP_CELLS,
    _enumeration_counts,
    _mh_lockstep_edge_counts,
)
from graphtest.statistic import one_sample_kernel

from oracles import (
    enumerated_pair_marginals,
    lockstep_mh_counts,
    naive_edge_count,
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
            ErdosRenyi(4, 0.5).sample(0, np.random.default_rng(0))

    def test_same_seed_reproduces_sample(self):
        a = ErdosRenyi(6, 0.4).sample(10, np.random.default_rng(99))
        b = ErdosRenyi(6, 0.4).sample(10, np.random.default_rng(99))
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
        assert model.exact_marginals() == EdgeMarginals.constant(5, 0.25)
        assert model.sweep_parameter == 0.25
        assert model.describe()["model"] == "er"

    def test_exact_marginals_read_p_as_written(self):
        # 3/10 keeps the kernel on int64; the binary float 0.3 does not.
        marginals = ErdosRenyi(40, 0.3).exact_marginals()
        assert marginals.fractions == (Fraction(3, 10),) * num_pairs(40)
        assert one_sample_kernel(50, marginals).fast

    def test_exact_marginals_keep_a_fraction_p(self):
        spec = ErdosRenyi(3, Fraction(1, 3))
        assert spec.exact_marginals().fractions == (Fraction(1, 3),) * 3
        assert spec.pair_probabilities().tolist() == [1 / 3] * 3

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
        assert [float(f) for f in spec.exact_marginals().fractions] == expected

    def test_exact_marginals_keep_fraction_levels(self):
        spec = ModifiedErdosRenyi(3, Fraction(1, 3), Fraction(1, 2), frozenset({(0, 1)}))
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert spec.exact_marginals().fractions == (half, third, third)
        assert spec.pair_probabilities().tolist() == [0.5, 1 / 3, 1 / 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 0.5, 0.9, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 0.5, 0.9, frozenset({(3, 4)}))
        with pytest.raises(ValueError):
            ModifiedErdosRenyi(4, 1.2, 0.9, frozenset())

    def test_no_modified_pairs_reduces_to_baseline(self):
        spec = ModifiedErdosRenyi(5, 0.3, 0.8, frozenset())
        assert spec.exact_marginals() == EdgeMarginals.constant(5, Fraction("0.3"))

    def test_all_pairs_modified_reduces_to_target(self):
        spec = ModifiedErdosRenyi(5, 0.3, 0.8, frozenset(canonical_pairs(5)))
        assert spec.exact_marginals() == EdgeMarginals.constant(5, Fraction("0.8"))

    def test_sample_frequencies_track_both_levels(self, rng):
        modified = frozenset({(0, 1), (0, 2), (4, 5)})
        spec = ModifiedErdosRenyi(6, 0.2, 0.9, modified)
        s = spec.sample(3000, rng)
        m = mean_graph(s)
        for i, j in canonical_pairs(6):
            target = 0.9 if (i, j) in modified else 0.2
            band = 4 * math.sqrt(target * (1 - target) / 3000)
            assert abs(float(m.fraction(i, j)) - target) < band

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

    def test_reads_q_as_written(self, rng):
        # 0.205*300 = 61.5 and 0.175*5460 = 955.5 exactly, so both round up;
        # the binary floats 0.205 and 0.175 fall just below.
        assert len(select_modified_pairs(25, 0.205, rng)) == 62
        assert len(select_modified_pairs(105, 0.175, rng)) == 956

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
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        dist = ergm_enumerate(spec)
        assert np.allclose(dist.probabilities, 1 / 64)
        marginals = [float(f) for f in spec.exact_marginals().fractions]
        assert np.allclose(marginals, 0.5, atol=1e-12)
        assert dist.edge_density() == pytest.approx(0.5, abs=1e-12)

    def test_v3_matches_eight_term_oracle(self):
        t1, t2 = 0.7, -0.3
        spec = Ergm(3, EDGE_TRIANGLE, (t1, t2))
        dist = ergm_enumerate(spec)
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
        assert float(spec.exact_marginals().fraction(0, 1)) == pytest.approx(
            marginal, abs=1e-12
        )

    @pytest.mark.parametrize("theta1", [-2.0, -1.0, 0.5, 1.5])
    def test_vanishing_interaction_decouples_edges(self, theta1):
        # With no interaction term the edges are independent Bernoulli.
        p = logistic(theta1)
        for stats in (EDGE_TRIANGLE, EDGE_TWO_STAR):
            spec = Ergm(5, stats, (theta1, 0.0))
            dist = ergm_enumerate(spec)
            marginals = [float(f) for f in spec.exact_marginals().fractions]
            assert np.allclose(marginals, p, atol=1e-12)
            k = 3
            g = Graph(5, (1 << k) - 1)
            expected = p**k * (1 - p) ** (num_pairs(5) - k)
            assert dist.probability_of(g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_counts_match_naive_counts_on_every_graph(self, v):
        for stats, naive in (
            (EDGE_TRIANGLE, naive_triangle_count),
            (EDGE_TWO_STAR, naive_two_star_count),
        ):
            n_e, n_x = _enumeration_counts(v, stats)
            assert n_e.dtype == n_x.dtype == np.int64
            graphs = [Graph(v, code) for code in range(1 << num_pairs(v))]
            assert n_e.tolist() == [naive_edge_count(g) for g in graphs]
            assert n_x.tolist() == [naive(g) for g in graphs]

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize(
        "theta", [(0.0, 0.0), (0.3, -0.2), (3.0, -2.0), (-2.0, 1.5), (40.0, -7.0)]
    )
    def test_every_pair_marginal_is_the_edge_density(self, stats, theta):
        for v in range(2, ENUMERATION_MAX_V + 1):
            spec = Ergm(v, stats, theta)
            (p_star,) = set(spec.exact_marginals().fractions)
            pairs = enumerated_pair_marginals(ergm_enumerate(spec))
            assert np.abs(pairs - float(p_star)).max() <= 1e-12

    def test_density_a_hair_above_one_is_clipped(self):
        # Round-off puts this model's enumerated density one ulp above 1.
        spec = Ergm(3, EDGE_TRIANGLE, (40.15222334280308, -2.9604088573157714))
        assert ergm_enumerate(spec).edge_density() > 1.0
        assert spec.exact_marginals() == EdgeMarginals.constant(3, 1)

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
        # At most one graph is more probable than the empty graph.
        empty = dist.probability_of(Graph.empty(4))
        assert (dist.probabilities > empty).sum() <= 1


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

    # Every flip has delta 0 at theta = (0, 0), and at theta1 = 0 on two
    # vertices. A chain that accepted every such flip would flip E pairs a
    # sweep, so with even thinning every draw would have the parity of the
    # first.
    @pytest.mark.parametrize("v, stats, theta", [
        (2, EDGE_TWO_STAR, (0.0, 0.7)),
        (3, EDGE_TRIANGLE, (0.0, 0.0)),
        (3, EDGE_TWO_STAR, (0.0, 0.0)),
    ])
    @pytest.mark.parametrize("lockstep", [False, True])
    def test_uniform_target_total_variation(self, v, stats, theta, lockstep):
        spec = Ergm(v, stats, theta, McmcConfig(burn_in=20, thinning=2))
        rng = np.random.default_rng(12)
        if lockstep:
            # One draw from each of 8000 chains: its counts are its edges.
            rows = spec.edge_count_batches(1, 8000, rng)
        else:
            rows = spec.sample(8000, rng).indicator_matrix()
        bits = rows.astype(np.int64) @ (1 << np.arange(num_pairs(v)))
        freqs = np.bincount(bits, minlength=2 ** num_pairs(v)) / 8000
        tv = 0.5 * np.abs(freqs - ergm_enumerate(spec).probabilities).sum()
        assert tv < 0.04

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
    @pytest.mark.parametrize("v", [2, 5, 10, 66])
    @pytest.mark.parametrize("theta", [(0.2, -0.1), (0.0, 0.0)])
    def test_single_chain_is_the_scalar_sampler(self, stats, v, theta):
        spec = Ergm(v, stats, theta, McmcConfig(3, 2))
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        counts = spec.edge_count_batches(4, 1, a)
        assert np.array_equal(counts[0], spec.sample(4, b).edge_counts)
        assert a.bit_generator.state == b.bit_generator.state

    def test_two_star_keys_past_255_match_oracle(self):
        # v=66 two-stars: a removal's key is 129 + deg_i + deg_j - 2, past 255
        # once both degrees near 64, so the key needs more than 8 bits.
        counts = self.check_against_oracle(
            66, EDGE_TWO_STAR, (4.0, 0.01), (6, 1), 1, 2, 7
        )
        assert counts.mean() > 0.98

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_groups_of_one_call_are_their_own_chains(self, stats):
        # v=8, E=28: a group of 3 chains draws 65536 // 84 = 780 sweeps per
        # chunk and a group of 40 only 58, so the 62 sweeps take one chunk
        # in the first group and two in the second.
        schedule, n = (60, 1), 2
        specs = [
            Ergm(8, stats, (0.3, -0.2), McmcConfig(*schedule)),
            Ergm(8, stats, (-0.5, 0.25), McmcConfig(*schedule)),
        ]
        sizes, seeds = (3, 40), (21, 22)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        counts = _mh_lockstep_edge_counts(list(zip(specs, sizes, rngs)), n)
        assert counts.shape == (sum(sizes), num_pairs(8))
        rows = np.split(counts, [sizes[0]])
        for spec, size, seed, got, rng in zip(specs, sizes, seeds, rows, rngs):
            oracle_rng = np.random.default_rng(seed)
            expected = lockstep_mh_counts(
                8, stats == EDGE_TRIANGLE, spec.theta, *schedule, n, size, oracle_rng
            )
            assert np.array_equal(got, expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_groups_of_one_call_share_v_stats_and_schedule(self, rng):
        spec = Ergm(6, EDGE_TRIANGLE, (0.0, 0.1), McmcConfig(2, 1))
        others = [
            Ergm(7, EDGE_TRIANGLE, (0.0, 0.1), McmcConfig(2, 1)),
            Ergm(6, EDGE_TWO_STAR, (0.0, 0.1), McmcConfig(2, 1)),
            # Equal as models, because ``Ergm`` equality ignores the schedule.
            Ergm(6, EDGE_TRIANGLE, (0.0, 0.1), McmcConfig(3, 1)),
        ]
        for other in others:
            with pytest.raises(ValueError, match="share"):
                _mh_lockstep_edge_counts([(spec, 2, rng), (other, 2, rng)], 1)

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
        specs = [Ergm(5, EDGE_TRIANGLE, (t1, 0.0), McmcConfig(50, 1)) for t1 in grid]
        points = edge_density_sweep(specs, 2000, rng)
        assert [p.theta1 for p in points] == grid
        for p in points:
            assert abs(p.density - logistic(p.theta1)) < 0.03
            assert p.draws == 2000

    def test_matches_enumeration_density(self, rng):
        spec = Ergm(4, EDGE_TWO_STAR, (-0.5, 0.15), McmcConfig(100, 1))
        exact = ergm_enumerate(spec).edge_density()
        (point,) = edge_density_sweep([spec], 4000, rng)
        assert abs(point.density - exact) < 0.03

    def test_warns_on_near_degenerate_chain(self, rng):
        spec = Ergm(5, EDGE_TRIANGLE, (-6.0, 0.0), McmcConfig(50, 1))
        with pytest.warns(UserWarning, match="near-degenerate"):
            edge_density_sweep([spec], 500, rng)

    def test_rejects_empty_grid(self, rng):
        with pytest.raises(ValueError):
            edge_density_sweep([], 100, rng)

    def test_densities_are_the_per_graph_edge_sums(self):
        mcmc = McmcConfig(20, 2)
        specs = [Ergm(7, EDGE_TRIANGLE, (-0.5, t2), mcmc) for t2 in (-0.1, 0.0, 0.1)]
        points = edge_density_sweep(specs, 60, np.random.default_rng(3))
        children = np.random.default_rng(3).spawn(len(specs))
        for point, spec, child in zip(points, specs, children):
            sample = ergm_mh_sample(spec, 60, mcmc, child)
            edges = sum(g.edge_count() for g in sample)
            assert point.density == edges / (60 * num_pairs(7))
