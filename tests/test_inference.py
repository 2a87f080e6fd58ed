"""Monte Carlo quantile, permutation, binomial and power machinery."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from graphtest import (
    ChannelMatrix,
    ConfigurationError,
    DimensionMismatchError,
    EdgeMarginals,
    ErdosRenyi,
    Ergm,
    EDGE_TRIANGLE,
    Graph,
    GraphSample,
    ModifiedErdosRenyi,
    PowerPoint,
    TestResult,
    WindowSpec,
    binom_two_sided_pvalue,
    canonical_pairs,
    bonferroni_edge_test,
    correlation_series,
    null_quantile_mc,
    num_pairs,
    one_sample_statistic,
    one_sample_test,
    power_curve,
    two_sample_permutation_test,
)
import graphtest.inference as inference
import graphtest.models as models
from graphtest.graphs import BLOCK_CELLS, _blocks
from graphtest.inference import (
    _NullLaw,
    _bc_reject_table,
    _calibrate_null,
    _count_blocks,
    _permutation_law,
    _pseudo_sample_masks,
)
from graphtest.statistic import one_sample_kernel

from oracles import (
    all_at_once_permutation_p,
    bonferroni_reject_row,
    er_half_scaled_null,
    exact_permutation_level,
    exact_permutation_p,
    fraction_one_sample,
    order_statistic_interval,
)

TestResult.__test__ = False

# Repeated values share a reject-table row; 0.3 is a binary float, 0 and 1
# have one-point nulls.
MIXED_MARGINALS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 0.3, Fraction(0),
                   Fraction(1), Fraction(1, 3), Fraction(7, 10), 0.3, Fraction(1, 2)]


class TestNullQuantile:
    def test_v3_pair_of_graphs_has_binomial_quantiles(self, rng_factory):
        # With v=3, n=2 and p=1/2 each pair contributes 1/2 to the statistic
        # unless the two graphs agree on it, so W = k/2 with k ~ Binomial(3, 1/2).
        # CDF: 1/8 at 0, 4/8 at 1/2, 7/8 at 1, 1 at 3/2.
        null = ErdosRenyi(3, 0.5)
        crit = {
            alpha: null_quantile_mc(null, 2, alpha, 4000, rng_factory(11))
            for alpha in (0.05, 0.2, 0.6)
        }
        assert crit[0.05] == 1.5
        assert crit[0.2] == 1.0
        assert crit[0.6] == 0.5

    def test_monotone_in_alpha_on_shared_draws(self, rng_factory):
        null = ErdosRenyi(5, 0.4)
        a = null_quantile_mc(null, 10, 0.3, 500, rng_factory(3))
        b = null_quantile_mc(null, 10, 0.05, 500, rng_factory(3))
        assert a <= b

    def test_alpha_is_the_decimal_it_is_written_as(self, rng_factory):
        # ceil((1 - 0.15) * 1000) = 850, although the float 0.15 lies below
        # 15/100 and would pick the 851st draw. R=1000 is one block at E=45;
        # marginals (a+1)/47 spread the statistic so the two draws differ.
        null, n, R = ErdosRenyi(10, 0.5), 10, 1000
        marginals = EdgeMarginals(10, [Fraction(a + 1, 47) for a in range(45)])
        counts = null.edge_count_batches(n, R, rng_factory(3))
        stats = sorted(
            fraction_one_sample(row, n, marginals.fractions) for row in counts
        )
        assert float(stats[849]) != float(stats[850])
        got = null_quantile_mc(null, n, 0.15, R, rng_factory(3), marginals=marginals)
        assert got == float(stats[849])

    def test_tiny_alpha_returns_largest_draw(self, rng_factory):
        # ceil((1 - alpha) * R) clamps to the top order statistic.
        null = ErdosRenyi(3, 0.5)
        crit = null_quantile_mc(null, 2, 1e-9, 200, rng_factory(4))
        assert crit == 1.5

    def test_validation(self, rng):
        null = ErdosRenyi(4, 0.5)
        with pytest.raises(ValueError):
            null_quantile_mc(null, 10, 0.05, 99, rng)
        with pytest.raises(ValueError):
            null_quantile_mc(null, 0, 0.05, 100, rng)
        with pytest.raises(ValueError):
            null_quantile_mc(null, 10, 1.0, 100, rng)

    def test_ergm_beyond_enumeration_needs_supplied_marginals(self, rng):
        null = Ergm(7, EDGE_TRIANGLE, (0.0, 0.0))
        with pytest.raises(ConfigurationError):
            null_quantile_mc(null, 3, 0.05, 100, rng)
        crit = null_quantile_mc(
            null, 3, 0.05, 100, rng, marginals=EdgeMarginals.constant(7, 0.5)
        )
        assert 0 <= crit <= num_pairs(7)


class TestOneSampleTest:
    def test_complete_sample_is_rejected(self, rng):
        s = GraphSample([Graph.complete(10)] * 20)
        result = one_sample_test(s, ErdosRenyi(10, 0.5), R=500, rng=rng)
        assert result.method == "one_sample_mc"
        assert result.statistic.exact == Fraction(45, 2)
        assert result.reject
        assert result.critical_value < 22.5
        assert result.marginals_source == "exact"
        assert result.replications == 500

    def test_reject_matches_exact_comparison(self, rng_factory):
        for seed in range(5):
            rng = rng_factory(seed)
            s = ErdosRenyi(4, 0.5).sample(8, rng)
            result = one_sample_test(s, ErdosRenyi(4, 0.5), alpha=0.3, R=200, rng=rng)
            assert result.reject == (result.statistic.exact > result.critical_exact)

    def test_calibration_near_alpha(self, rng):
        null = ErdosRenyi(4, 0.5)
        rejections = 0
        for _ in range(300):
            s = null.sample(10, rng)
            r = one_sample_test(s, null, alpha=0.2, R=400, rng=rng)
            rejections += r.reject
        assert 0.10 < rejections / 300 < 0.30

    def test_supplied_marginals_are_recorded(self, rng):
        s = ErdosRenyi(5, 0.5).sample(6, rng)
        result = one_sample_test(
            s,
            ErdosRenyi(5, 0.5),
            R=100,
            rng=rng,
            marginals=EdgeMarginals.constant(5, 0.5),
        )
        assert result.marginals_source == "supplied"

    def test_validation(self, rng):
        s = GraphSample([Graph.empty(4)] * 3)
        with pytest.raises(ValueError):
            one_sample_test(s, ErdosRenyi(4, 0.5), R=500, rng=None)
        with pytest.raises(DimensionMismatchError):
            one_sample_test(s, ErdosRenyi(5, 0.5), R=500, rng=rng)
        with pytest.raises(ValueError):
            one_sample_test(s, ErdosRenyi(4, 0.5), R=99, rng=rng)


class TestPermutationTest:
    def test_identical_constant_samples(self, rng):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        s = GraphSample([g] * 12)
        result = two_sample_permutation_test(s, s, R=200, rng=rng)
        assert result.method == "two_sample_permutation"
        assert result.statistic.exact == 0
        assert result.p_value == 1.0
        assert not result.reject

    def test_p_values_live_on_the_replication_lattice(self, rng):
        s = ErdosRenyi(5, 0.3).sample(10, rng)
        t = ErdosRenyi(5, 0.7).sample(14, rng)
        result = two_sample_permutation_test(s, t, R=250, rng=rng)
        assert result.statistic.sample_sizes == (10, 14)
        scaled = result.p_value * 250
        assert abs(scaled - round(scaled)) < 1e-9

    def test_swapping_samples_gives_identical_p(self, rng_factory):
        s = ErdosRenyi(5, 0.4).sample(9, rng_factory(1))
        t = ErdosRenyi(5, 0.6).sample(9, rng_factory(2))
        a = two_sample_permutation_test(s, t, R=300, rng=rng_factory(7))
        b = two_sample_permutation_test(t, s, R=300, rng=rng_factory(7))
        assert a.p_value == b.p_value
        assert a.statistic.exact == b.statistic.exact

    def test_perfectly_separated_samples(self, rng_factory):
        s = GraphSample([Graph.empty(6)] * 30)
        t = GraphSample([Graph.complete(6)] * 30)
        plain = two_sample_permutation_test(s, t, R=1000, rng=rng_factory(5))
        assert plain.statistic.exact == 15
        assert plain.p_value == 0.0
        assert plain.reject
        smoothed = two_sample_permutation_test(
            s, t, R=1000, rng=rng_factory(5), smoothing=True
        )
        assert smoothed.p_value == pytest.approx(1 / 1001)

    def test_p_value_equal_to_alpha_rejects(self, rng_factory):
        # p = 15/100 exactly; the float 0.15 lies below it.
        s = ErdosRenyi(5, 0.4).sample(9, rng_factory(1))
        t = ErdosRenyi(5, 0.55).sample(9, rng_factory(2))
        result = two_sample_permutation_test(
            s, t, R=100, rng=rng_factory(24), alpha=0.15
        )
        assert result.p_value == 0.15
        assert result.reject

    def test_strict_ties_never_raise_the_p_value(self, rng_factory):
        s = ErdosRenyi(4, 0.5).sample(8, rng_factory(21))
        t = ErdosRenyi(4, 0.5).sample(8, rng_factory(22))
        inclusive = two_sample_permutation_test(s, t, R=400, rng=rng_factory(30))
        strict = two_sample_permutation_test(
            s, t, R=400, rng=rng_factory(30), strict=True
        )
        assert strict.p_value <= inclusive.p_value

    @pytest.mark.parametrize("smoothing", [False, True])
    def test_both_tie_rules_read_one_law(self, rng_factory, smoothing):
        s = ErdosRenyi(4, 0.5).sample(8, rng_factory(21))
        t = ErdosRenyi(4, 0.5).sample(8, rng_factory(22))
        stat, law = _permutation_law(s, t, 400, rng_factory(30))
        observed = int(stat.exact * law.kernel.denominator)
        above, at_least = law.tail(observed, True), law.tail(observed, False)
        # v=4 makes ties common, so the two counts differ.
        assert above < at_least
        for strict, count in ((False, at_least), (True, above)):
            result = two_sample_permutation_test(
                s, t, R=400, rng=rng_factory(30), strict=strict, smoothing=smoothing
            )
            assert result.statistic == stat
            expected = Fraction(1 + count, 401) if smoothing else Fraction(count, 400)
            assert result.p_value == float(expected)

    # (v, n, m): C(12, 6) = 924, C(14, 5) = 2 002 and C(16, 8) = 12 870
    # splits of the pooled graphs.
    @pytest.mark.parametrize("v, n, m", [(4, 6, 6), (5, 5, 9), (6, 8, 8)])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_mean_p_value_is_the_exact_permutation_p(self, v, n, m, strict, smoothing):
        # Over S seeds at R permutations, the mean of count/R has standard
        # error sqrt(p(1-p)/(R S)) about p = p_exact; the smoothed
        # (1 + count)/(1 + R) has mean (1 + R p)/(1 + R) and standard error
        # R/(1 + R) times that.
        S, R = 200, 200
        rng = np.random.default_rng(1000 * v + n)
        s, t = ErdosRenyi(v, 0.5).sample(n, rng), ErdosRenyi(v, 0.5).sample(m, rng)
        p = exact_permutation_p(s, t, strict)
        assert 0.05 < p < 0.95
        mean = sum(
            Fraction(two_sample_permutation_test(
                s, t, R=R, rng=np.random.default_rng(seed), strict=strict,
                smoothing=smoothing,
            ).p_value)
            for seed in range(S)
        ) / S
        se = math.sqrt(p * (1 - p) / (R * S))
        target = p
        if smoothing:
            target, se = (1 + R * p) / (1 + R), se * R / (1 + R)
        assert abs(float(mean - target)) <= 4 * se

    def test_the_exact_law_counts_ties_by_the_rule(self):
        # v=4 makes ties common, so the two rules differ.
        rng = np.random.default_rng(4006)
        s, t = ErdosRenyi(4, 0.5).sample(6, rng), ErdosRenyi(4, 0.5).sample(6, rng)
        assert exact_permutation_p(s, t, True) < exact_permutation_p(s, t, False)
        with pytest.raises(ValueError, match="cap"):
            exact_permutation_p(s, t, False, cap=923)

    # The samples of test_mean_p_value_is_the_exact_permutation_p.
    @pytest.mark.parametrize("v, n, m", [(4, 6, 6), (5, 5, 9), (6, 8, 8)])
    def test_the_smoothed_inclusive_rule_keeps_its_exact_level(self, v, n, m):
        # Phipson & Smyth (2010): with (1 + count)/(1 + R) and ties counted,
        # the level over every split of the pooled graphs is at most alpha.
        rng = np.random.default_rng(1000 * v + n)
        s, t = ErdosRenyi(v, 0.5).sample(n, rng), ErdosRenyi(v, 0.5).sample(m, rng)
        level = exact_permutation_level(s, t, 200, Fraction(1, 20), strict=False,
                                        smoothing=True)
        assert 0 < level <= Fraction(1, 20)

    def test_null_p_values_are_roughly_uniform(self, rng):
        hits = 0
        for _ in range(200):
            s = ErdosRenyi(5, 0.5).sample(15, rng)
            t = ErdosRenyi(5, 0.5).sample(15, rng)
            r = two_sample_permutation_test(s, t, R=199, rng=rng, alpha=0.1)
            hits += r.p_value <= 0.1
        assert 0.015 < hits / 200 < 0.185

    def test_validation(self, rng):
        s = GraphSample([Graph.empty(4)] * 5)
        with pytest.raises(ValueError):
            two_sample_permutation_test(s, s, R=99, rng=rng)
        with pytest.raises(ValueError):
            two_sample_permutation_test(s, s, R=200, rng=None)
        with pytest.raises(DimensionMismatchError):
            two_sample_permutation_test(
                s, GraphSample([Graph.empty(5)] * 5), R=200, rng=rng
            )


def permutation_keys(seed: int, R: int, N: int) -> np.ndarray:
    """One (R x N) draw of 64-bit keys, one generator word each."""
    return np.random.default_rng(seed).integers(2**64, size=(R, N), dtype=np.uint64)


class EqualWords:
    """A generator stand-in whose every 64-bit word is ``word``."""

    def __init__(self, word: int):
        self.word = word

    def integers(self, high, size, dtype):
        assert high == 2**64 and dtype == np.uint64
        return np.full(size, self.word, dtype=np.uint64)


class TestPseudoSampleDraws:
    def test_inclusion_and_co_inclusion_rates_are_uniform(self, rng_factory):
        D, N, k = 60_000, 12, 5
        masks = _pseudo_sample_masks(rng_factory(41), D, N, k)
        assert (masks.sum(axis=1) == k).all()
        p = k / N
        rates = masks.mean(axis=0)
        assert np.abs(rates - p).max() < 4 * math.sqrt(p * (1 - p) / D)
        q = k * (k - 1) / (N * (N - 1))
        together = (masks.T.astype(np.int64) @ masks) / D
        off_diagonal = together[~np.eye(N, dtype=bool)]
        assert np.abs(off_diagonal - q).max() < 4 * math.sqrt(q * (1 - q) / D)

    # 16 columns fill all b = 4 low bits; 17 need b = 5.
    @pytest.mark.parametrize("N,k", [(12, 5), (16, 8), (17, 1), (17, 8)])
    @pytest.mark.parametrize("word", [0, 12345, 2**64 - 1])
    def test_equal_words_select_the_first_k_columns(self, N, k, word):
        masks = _pseudo_sample_masks(EqualWords(word), 3, N, k)
        assert np.array_equal(masks, np.tile(np.arange(N) < k, (3, 1)))


class TestPermutationBlocks:
    def test_blocked_draws_consume_the_stream_like_one_call(self, rng_factory):
        R, N, B, k = 23, 17, 5, 6
        rng = rng_factory(3)
        blocks = [
            rng.integers(2**64, size=(min(B, R - lo), N), dtype=np.uint64)
            for lo in range(0, R, B)
        ]
        assert np.array_equal(np.vstack(blocks), permutation_keys(3, R, N))
        rng = rng_factory(3)
        masks = [
            _pseudo_sample_masks(rng, min(B, R - lo), N, k) for lo in range(0, R, B)
        ]
        whole = _pseudo_sample_masks(rng_factory(3), R, N, k)
        assert np.array_equal(np.vstack(masks), whole)

    # n + m = 400 pooled graphs put 65536 // 400 = 163 permutations in a
    # block, so R = 500 spans four blocks; 12 + 15 fits R in one.
    @pytest.mark.parametrize("n,m,R", [(12, 15, 300), (150, 250, 500)])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_p_values_match_the_all_at_once_int64_formula(
        self, rng_factory, n, m, R, strict, smoothing
    ):
        for seed in range(4):
            s = ErdosRenyi(6, 0.5).sample(n, rng_factory(100 + seed))
            t = ErdosRenyi(6, 0.55).sample(m, rng_factory(200 + seed))
            result = two_sample_permutation_test(
                s, t, R=R, rng=rng_factory(seed), strict=strict, smoothing=smoothing
            )
            expected = all_at_once_permutation_p(
                s, t, permutation_keys(seed, R, n + m), strict=strict,
                smoothing=smoothing,
            )
            assert result.p_value == expected

    @pytest.mark.parametrize("strict", [False, True])
    def test_p_values_match_the_formula_with_graphs_in_both_samples(
        self, rng_factory, strict
    ):
        # v=4 has only 64 graphs, and both samples also draw from one shared
        # pool, so the canonical sort meets many equal graphs.
        for seed in range(4):
            rng = rng_factory(300 + seed)
            shared = list(ErdosRenyi(4, 0.5).sample(6, rng))
            pool = shared + list(ErdosRenyi(4, 0.5).sample(20, rng))
            s = GraphSample(pool[int(k)] for k in rng.integers(0, 26, 14))
            t = GraphSample(shared + [pool[int(k)] for k in rng.integers(0, 26, 9)])
            result = two_sample_permutation_test(
                s, t, R=400, rng=rng_factory(seed), strict=strict
            )
            expected = all_at_once_permutation_p(
                s, t, permutation_keys(seed, 400, s.n + t.n), strict=strict
            )
            assert result.p_value == expected


class TestNullLaw:
    """``_NullLaw`` answers the one-sample critical value and the
    permutation counts from its sorted numerators."""

    LEVELS = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 2), Fraction(999_999, 10**6),
              Fraction(1, 10**9)]

    def check_against_a_sorted_list(self, law, numerators):
        ordered = sorted(numerators)
        R = len(ordered)
        for x in [ordered[0] - 1, *sorted(set(ordered)), ordered[-1] + 1]:
            assert law.tail(x, True) == sum(y > x for y in ordered)
            assert law.tail(x, False) == sum(y >= x for y in ordered)
        for level in self.LEVELS:
            assert law.critical(level) == ordered[math.ceil((1 - level) * R) - 1]

    def test_int64_numerators_with_ties(self, rng_factory):
        kernel = one_sample_kernel(3, EdgeMarginals.constant(4, Fraction(1, 2)))
        counts = rng_factory(5).integers(0, 4, size=(137, 6))
        blocks = [kernel(counts[:50]), kernel(counts[50:])]
        assert blocks[0].dtype == np.int64
        numerators = np.concatenate(blocks).tolist()
        assert len(set(numerators)) < len(numerators) / 4
        self.check_against_a_sorted_list(_NullLaw(kernel, blocks), numerators)

    def test_big_integer_numerators(self, rng_factory):
        # A denominator of 3^50 > 2^63 puts the kernel on Python integers.
        probs = [Fraction(k, 3**50) for k in (1, 3**49, 2 * 3**49, 5, 7, 3**50 - 1)]
        kernel = one_sample_kernel(3, EdgeMarginals(4, probs))
        assert not kernel.fast
        counts = rng_factory(6).integers(0, 4, size=(120, 6))
        blocks = [kernel(counts[:70]), kernel(counts[70:])]
        assert blocks[0].dtype == object
        numerators = np.concatenate(blocks).tolist()
        assert max(numerators) > 2**63
        assert len(set(numerators)) < len(numerators) / 2
        self.check_against_a_sorted_list(_NullLaw(kernel, blocks), numerators)

    # 9 + 13 pooled graphs on 4 vertices: many permutations tie with W.
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_tail_gives_the_all_at_once_p_value(self, rng_factory, strict, smoothing):
        R = 300
        for seed in range(4):
            rng = rng_factory(400 + seed)
            s, t = ErdosRenyi(4, 0.5).sample(9, rng), ErdosRenyi(4, 0.5).sample(13, rng)
            stat, law = _permutation_law(s, t, R, rng_factory(seed))
            count = law.tail(int(stat.exact * law.kernel.denominator), strict)
            p = Fraction(1 + count, 1 + R) if smoothing else Fraction(count, R)
            assert float(p) == all_at_once_permutation_p(
                s, t, permutation_keys(seed, R, s.n + t.n), strict=strict,
                smoothing=smoothing,
            )


class TestReplicateBlocks:
    """Replicate blocks read the caller's generator in order, so they hold
    the counts of one whole-array draw."""

    # v=40 has E=780 pairs, so a block holds 65536 // 780 = 84 replicates.
    V = 40
    B = 84

    def test_block_size(self):
        assert max(1, BLOCK_CELLS // num_pairs(self.V)) == self.B
        assert list(_blocks(200, num_pairs(self.V))) == [(0, 84), (84, 168), (168, 200)]
        assert list(_blocks(3, BLOCK_CELLS + 1)) == [(0, 1), (1, 2), (2, 3)]
        assert list(_blocks(0, 5)) == []

    @staticmethod
    def inverted(model, n, uniforms):
        """Each pair's uniforms searched in its level's binomial thresholds."""
        probs = model.pair_probabilities()
        thresholds = {p: models._binomial_table(n, p)[0][:-1] for p in set(probs)}
        return np.column_stack([thresholds[p].searchsorted(uniforms[:, a], side="right")
                                for a, p in enumerate(probs)])

    def check_blocks_invert_one_uniform_draw(self, model, R, seed):
        rng, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        blocks = list(_count_blocks(model, 10, R, rng))
        assert [len(b) for b in blocks] == [min(self.B, R - lo)
                                            for lo in range(0, R, self.B)]
        want = self.inverted(model, 10, whole.random((R, num_pairs(self.V))))
        assert np.array_equal(np.vstack(blocks), want)
        assert rng.bit_generator.state == whole.bit_generator.state

    # Whole blocks only, then a last block of one replicate, then a part
    # block, at p on both sides of 1/2.
    @pytest.mark.parametrize("R", [B, B + 1, 300])
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_er_blocks_invert_one_uniform_draw_of_the_stream(self, R, p):
        self.check_blocks_invert_one_uniform_draw(ErdosRenyi(self.V, p), R, 2)

    # Each level of a modified ER model reads its uniforms as an F-ordered
    # column selection.
    @pytest.mark.parametrize("M", [B, B + 1, 300])
    def test_modified_er_blocks_invert_one_uniform_draw_of_the_stream(self, M):
        alt = ModifiedErdosRenyi(self.V, 0.5, 0.8, frozenset({(0, 1), (5, 9)}))
        self.check_blocks_invert_one_uniform_draw(alt, M, 5)

    # 200 replicates take three blocks. At R = 100, alpha = 1e-9 picks the
    # largest draw (k = R) and alpha = 0.999999 the smallest (k = 1).
    @pytest.mark.parametrize("alpha, R, k", [
        (0.1, 200, 180), (1e-9, 100, 100), (0.999999, 100, 1),
    ])
    def test_critical_value_is_the_order_statistic_of_one_draw(
        self, rng_factory, alpha, R, k
    ):
        null, n = ErdosRenyi(self.V, 0.5), 10
        counts = null.edge_count_batches(n, R, rng_factory(7))
        marginals = null.exact_marginals().fractions
        stats = sorted(fraction_one_sample(row, n, marginals) for row in counts)
        assert math.ceil((1 - Fraction(str(alpha))) * R) == k
        got = null_quantile_mc(null, n, alpha, R, rng_factory(7))
        assert got == float(stats[k - 1])

    @pytest.mark.parametrize("model", [
        ErdosRenyi(66, 0.5), Ergm(66, EDGE_TRIANGLE, (0.0, 0.1)),
    ])
    def test_ergm_blocks_are_sized_like_every_other_models(self, monkeypatch, model):
        # v=66 has E=2145 pairs, so a block holds 65536 // 2145 = 30 samples.
        sizes = []

        def counts(self, n, R, rng):
            sizes.append(R)
            return np.zeros((R, num_pairs(self.v)), dtype=np.int64)

        monkeypatch.setattr(type(model), "edge_count_batches", counts)
        list(_count_blocks(model, 2, 100, np.random.default_rng(0)))
        assert sizes == [30, 30, 30, 10]

    def test_ergm_critical_value_is_the_order_statistic_of_its_blocks(
        self, rng_factory
    ):
        # v=50 has E=1225, so blocks hold 53 replicates. Coupled draws depend
        # on their group, so the blocks are replayed as two calls on one
        # stream, not as one call.
        v, n, R, alpha = 50, 2, 100, 0.1
        null = Ergm(v, EDGE_TRIANGLE, (0.0, 0.1))
        marginals = EdgeMarginals.constant(v, 0.5)
        rng = rng_factory(7)
        counts = np.vstack([null.edge_count_batches(n, size, rng) for size in (53, R - 53)])
        stats = sorted(
            fraction_one_sample(row, n, marginals.fractions) for row in counts
        )
        expected = stats[math.ceil((1 - Fraction(alpha)) * R) - 1]
        got = null_quantile_mc(
            null, n, alpha, R, rng_factory(7), marginals=marginals
        )
        assert got == float(expected)

    def test_critical_value_lies_in_the_exact_null_interval(self, rng_factory):
        # n*2*W under ER(1/2) is a sum of 45 i.i.d. |2*Bin(20, 1/2) - 20|. The
        # interval leaves out 1e-6 a side, so one of the 20 seeds strays out
        # of it with chance at most 4e-5.
        lo, hi = order_statistic_interval(er_half_scaled_null(20, 45), 0.05, 10_000)
        for seed in range(43, 63):
            crit = null_quantile_mc(ErdosRenyi(10, 0.5), 20, 0.05, 10_000,
                                    rng_factory(seed))
            scaled = crit * 40
            assert scaled == round(scaled)
            assert lo <= scaled <= hi, f"seed {seed}: {scaled} not in [{lo}, {hi}]"


class TestInversionTableCache:
    """Each (n, p) inversion table is built once, then shared by every block
    and every later call that reads it."""

    @pytest.fixture
    def built(self):
        """The number of tables built since the cache was emptied."""
        models._binomial_table.cache_clear()
        return lambda: models._binomial_table.cache_info().misses

    @staticmethod
    def power_sweep(sweep, rng):
        pairs = frozenset(canonical_pairs(10)[:11])
        alts = [ModifiedErdosRenyi(10, 0.5, p, pairs) for p in sweep]
        power_curve(ErdosRenyi(10, 0.5), alts, n=20, M=2000, R_quantile=2000,
                    rng=rng, baseline_bonferroni=True)

    def test_one_sample_test_builds_its_table_once(self, built, rng_factory):
        # 2 000 replicates at v=40 take 24 blocks.
        s = ErdosRenyi(40, 0.3).sample(50, rng_factory(1))
        one_sample_test(s, ErdosRenyi(40, 0.3), R=2000, rng=rng_factory(2))
        assert built() == 1
        models._binomial_table(50, 0.3)
        assert built() == 1

    def test_power_curve_builds_each_level_once(self, built, rng_factory):
        sweep = [0.1, 0.3, 0.5, 0.7, 0.9]
        self.power_sweep(sweep, rng_factory(3))
        assert built() == len(sweep)
        for p in sweep:
            models._binomial_table(20, p)
        assert built() == len(sweep)

    def test_power_curve_after_a_test_at_its_levels_builds_no_table(
        self, built, rng_factory
    ):
        s = ErdosRenyi(10, 0.5).sample(20, rng_factory(1))
        one_sample_test(s, ErdosRenyi(10, 0.5), R=2000, rng=rng_factory(2))
        assert built() == 1
        # The null, and every alternative's p0, read the test's table.
        self.power_sweep([0.1, 0.9], rng_factory(3))
        assert built() == 3
        self.power_sweep([0.1, 0.5, 0.9], rng_factory(4))
        assert built() == 3

    @pytest.mark.parametrize("part", [0, 1], ids=["thresholds", "guide"])
    def test_cached_tables_are_read_only(self, built, part):
        table = models._binomial_table(20, 0.3)[part]
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
        assert not models._binomial_table(20, 0.3)[part].flags.writeable


class TestErgmAlternatives:
    """The ERGM alternatives of one ``power_curve`` draw their blocks from its
    generator, in order, after the null's calibration."""

    # v=50 has E=1225, so an ERGM block holds 53 replicates and M=130 makes
    # three blocks per alternative: 53, 53 and 24.
    V, N, M, R_QUANTILE = 50, 2, 130, 100

    def ergm(self, theta1):
        return Ergm(self.V, EDGE_TRIANGLE, (theta1, 0.0))

    def blocks(self, alt, rng):
        """The alternative's counts, drawn one block at a time from ``rng``."""
        return [alt.edge_count_batches(self.N, size, rng) for size in (53, 53, 24)]

    def expected_points(self, alts, seed, baseline):
        rng = np.random.default_rng(seed)
        _, _, kernel, crit = _calibrate_null(
            ErdosRenyi(self.V, 0.5), self.N, 0.05, self.R_QUANTILE, rng, None
        )
        reject = np.array(
            bonferroni_reject_row(self.N, Fraction(1, 2), 0.05, num_pairs(self.V))
        )
        points = []
        for alt in alts:
            counts = np.vstack(self.blocks(alt, rng))
            bc = reject[counts].any(axis=1).sum() / self.M if baseline else None
            points.append(PowerPoint(
                alt.sweep_parameter, (kernel(counts) > crit).sum() / self.M, self.M, bc
            ))
        return points

    @pytest.mark.parametrize("baseline", [False, True])
    def test_power_is_that_of_the_alternatives_blocks_in_order(self, baseline):
        alts = [self.ergm(-0.25), ErdosRenyi(self.V, 0.53), self.ergm(0.2)]
        points = power_curve(
            ErdosRenyi(self.V, 0.5), alts, n=self.N, M=self.M,
            R_quantile=self.R_QUANTILE, rng=np.random.default_rng(31),
            baseline_bonferroni=baseline,
        )
        assert points == self.expected_points(alts, 31, baseline)
        # The alternatives are told apart, so a swapped block would show.
        assert len({p.power for p in points}) == len(points)

    def test_enumerable_alternatives_run_alone(self, monkeypatch):
        # Up to ENUMERATION_MAX_V vertices an ERGM draws enumerated graphs,
        # never coupled ones, in blocks sized like any other model's.
        def refuse(spec, D, rng):
            raise AssertionError("coupled from the past")

        monkeypatch.setattr(models, "_cftp_indicators", refuse)
        alts = [Ergm(6, EDGE_TRIANGLE, (0.0, t)) for t in (-0.2, 0.2)]
        # v=6 has E=15, so a block holds 65536 // 15 = 4369 samples.
        assert list(_blocks(self.M, 15)) == [(0, self.M)]
        for alt, seed in zip(alts, (35, 36)):
            (block,) = _count_blocks(alt, self.N, self.M, np.random.default_rng(seed))
            whole = alt.edge_count_batches(self.N, self.M, np.random.default_rng(seed))
            assert np.array_equal(block, whole)


class TestMemoryBound:
    LIMIT = 16 * 2**20

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_null_quantile(self, rng):
        # All 20 000 x 780 counts at once would take 125 MB as int64.
        peak = self.traced_peak(
            lambda: null_quantile_mc(ErdosRenyi(40, 0.5), 50, 0.05, 20_000, rng)
        )
        assert peak < self.LIMIT

    def test_permutation_test(self, rng):
        # The whole 2000 x 2000 permutation mask would take 32 MB as int64.
        s = ErdosRenyi(10, 0.5).sample(1000, rng)
        t = ErdosRenyi(10, 0.5).sample(1000, rng)
        peak = self.traced_peak(
            lambda: two_sample_permutation_test(s, t, R=2000, rng=rng)
        )
        assert peak < self.LIMIT

    def test_ergm_power_curve(self):
        # v=10: an ERGM block holds 65536 // 45 = 1456 replicates, 29 120
        # draws at n = 20, which couple from the past in five groups of at
        # most 6 553. The run peaks at about 4.5 MiB.
        alts = [Ergm(10, EDGE_TRIANGLE, (0.0, t)) for t in (-0.2, 0.2)]
        peak = self.traced_peak(lambda: power_curve(
            ErdosRenyi(10, 0.5), alts, n=20, M=1456, R_quantile=100,
            rng=np.random.default_rng(3),
        ))
        assert peak < 8 * 2**20

    def test_correlation_series(self):
        # 24 channels x 60 000 samples, 14 386 windows. Beyond the 30 MB
        # (windows x pairs) result, the pipeline holds two int32 arrays of the
        # recording's shape, 5.5 MB each: the rank keys and the running count
        # of repeated values. Blocks of at most BLOCK_CELLS cells and the
        # window bookkeeping must fit in 4 MB more. The run takes ~12 MB.
        n, v = 60_000, 24
        values = np.random.default_rng(5).normal(size=(n, v))
        m = ChannelMatrix([f"c{k}" for k in range(v)], values, 250.0)
        series = []
        peak = self.traced_peak(
            lambda: series.append(correlation_series(m, WindowSpec()))
        )
        assert peak - series[0].values.nbytes < 2 * n * v * 4 + 4 * 2**20


class TestBinomialPValue:
    def test_symmetric_fair_coin_values(self):
        assert binom_two_sided_pvalue(10, 20, 0.5) == 1.0
        assert binom_two_sided_pvalue(20, 20, 0.5) == pytest.approx(2 * 0.5**20)
        assert binom_two_sided_pvalue(0, 20, 0.5) == binom_two_sided_pvalue(20, 20, 0.5)

    def test_k15_n20_matches_direct_summation(self):
        # Sum the probabilities of outcomes no more likely than k=15.
        pmf = [math.comb(20, j) * 0.5**20 for j in range(21)]
        expected = sum(p for p in pmf if p <= pmf[15] * (1 + 1e-12))
        assert binom_two_sided_pvalue(15, 20, 0.5) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "k,n,p0",
        [(3, 12, 0.25), (9, 15, 0.6), (0, 8, 0.4), (7, 7, 0.35), (11, 40, 0.5)],
    )
    def test_matches_scipy_minlike_method(self, k, n, p0):
        ours = binom_two_sided_pvalue(k, n, p0)
        theirs = scipy.stats.binomtest(k, n, p0).pvalue
        assert ours == pytest.approx(theirs, rel=1e-9)

    @pytest.mark.parametrize("p0", [0.0, 0.5, 1.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_matches_the_fraction_pmf_sum(self, n, p0):
        # At p0 = 1/2 outcomes k and n-k tie; at 0 and 1 every impossible
        # outcome ties at weight 0.
        q = Fraction(str(p0))
        pmf = [math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(n + 1)]
        for k in range(n + 1):
            expected = sum((w for w in pmf if w <= pmf[k]), Fraction(0))
            assert binom_two_sided_pvalue(k, n, p0) == float(expected)

    def test_reads_p0_as_written(self):
        q = Fraction(3, 10)
        pmf = [math.comb(7, j) * q**j * (1 - q) ** (7 - j) for j in range(8)]
        expected = sum(w for w in pmf if w <= pmf[3])
        assert binom_two_sided_pvalue(3, 7, 0.3) == float(expected) == 0.4352848

    def test_degenerate_reference(self):
        assert binom_two_sided_pvalue(0, 5, 0.0) == 1.0
        assert binom_two_sided_pvalue(1, 5, 0.0) == 0.0
        assert binom_two_sided_pvalue(5, 5, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_two_sided_pvalue(3, 0, 0.5)
        with pytest.raises(ValueError):
            binom_two_sided_pvalue(6, 5, 0.5)
        with pytest.raises(ValueError):
            binom_two_sided_pvalue(1, 5, 1.5)


class TestBonferroniEdgeTest:
    def test_complete_sample_is_rejected_everywhere(self):
        s = GraphSample([Graph.complete(10)] * 20)
        result = bonferroni_edge_test(s, EdgeMarginals.constant(10, 0.5))
        assert result.method == "bonferroni"
        assert result.statistic is None
        assert result.reject
        assert len(result.per_edge_p_values) == 45
        per_edge = 2 * 0.5**20
        assert result.per_edge_p_values == (pytest.approx(per_edge),) * 45
        assert result.p_value == pytest.approx(min(1.0, 45 * per_edge))

    def test_exactly_null_frequencies_keep_p_at_one(self):
        g = Graph.from_edges(4, [(0, 1)])
        rest = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        s = GraphSample([g, rest])
        # Every pair appears in exactly one of the two graphs.
        result = bonferroni_edge_test(s, EdgeMarginals.constant(4, 0.5))
        assert result.p_value == 1.0
        assert not result.reject

    def test_reject_iff_some_edge_clears_corrected_level(self, rng):
        for _ in range(20):
            s = ErdosRenyi(5, 0.5).sample(12, rng)
            marginals = EdgeMarginals.constant(5, 0.5)
            result = bonferroni_edge_test(s, marginals, alpha=0.3)
            cleared = any(
                p <= 0.3 / 10 + 1e-15 for p in result.per_edge_p_values
            )
            assert result.reject == cleared

    def test_familywise_error_stays_below_alpha(self, rng):
        null = ErdosRenyi(5, 0.5)
        marg = null.exact_marginals()
        rejections = sum(
            bonferroni_edge_test(null.sample(30, rng), marg).reject
            for _ in range(300)
        )
        assert rejections / 300 <= 0.09

    def test_validation(self, rng):
        s = ErdosRenyi(4, 0.5).sample(5, rng)
        with pytest.raises(DimensionMismatchError):
            bonferroni_edge_test(s, EdgeMarginals.constant(5, 0.5))

    def test_p_value_at_the_corrected_level_rejects(self):
        # Five complete graphs on v=2 against 1/2: p = 2 * (1/2)^5 = 1/16 at
        # the one pair, so alpha/E = 1/16 rejects and 0.0624 does not.
        s = GraphSample([Graph.complete(2)] * 5)
        marginals = EdgeMarginals.constant(2, Fraction(1, 2))
        assert bonferroni_edge_test(s, marginals).per_edge_p_values == (0.0625,)
        assert bonferroni_edge_test(s, marginals, alpha=0.0625).reject
        assert not bonferroni_edge_test(s, marginals, alpha=0.0624).reject

    @pytest.mark.parametrize("n, alpha", [(12, 0.05), (25, 0.3)])
    def test_reject_table_matches_per_pair_formula(self, n, alpha):
        marg = EdgeMarginals(5, MIXED_MARGINALS)
        table = _bc_reject_table(n, marg, alpha)
        expected = [bonferroni_reject_row(n, p0, alpha, 10) for p0 in marg.fractions]
        assert table.dtype == bool
        assert table.tolist() == expected
        assert table.any() and not table.all()

    @pytest.mark.parametrize("n, alpha", [(12, 0.05), (25, 0.3)])
    def test_reject_matches_per_pair_formula(self, rng, n, alpha):
        marg = EdgeMarginals(5, MIXED_MARGINALS)
        rows = [bonferroni_reject_row(n, p0, Fraction(str(alpha)), 10)
                for p0 in marg.fractions]
        null = np.array([float(p0) for p0 in marg.fractions])
        decisions = set()
        for _ in range(40):
            # Samples from the null, with a few pairs moved off it.
            probs = np.where(rng.random(10) < 0.15, rng.random(10), null)
            s = GraphSample.from_indicator_matrix(5, rng.random((n, 10)) < probs)
            expected = any(row[c] for row, c in zip(rows, s.edge_counts.tolist()))
            assert bonferroni_edge_test(s, marg, alpha).reject == expected
            decisions.add(expected)
        assert decisions == {True, False}

    @staticmethod
    def distinct_null_call(rng):
        # v=6 has 15 pairs, each with its own null probability.
        marg = EdgeMarginals(6, [Fraction(k, 97) for k in range(1, 16)])
        probs = np.array([float(p0) for p0 in marg.fractions])
        s = GraphSample.from_indicator_matrix(6, rng.random((300, 15)) < probs)
        return lambda: bonferroni_edge_test(s, marg)

    def test_tails_are_not_kept_after_the_call(self, rng):
        call = self.distinct_null_call(rng)
        tracemalloc.start()
        try:
            result = call()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result.per_edge_p_values) == 15
        assert retained < 0.05 * 2**20

    def test_one_tail_per_distinct_null_probability(self, rng, monkeypatch):
        calls = []
        build = inference._binom_tails

        def counting(n, p0):
            calls.append(p0)
            return build(n, p0)

        monkeypatch.setattr(inference, "_binom_tails", counting)
        self.distinct_null_call(rng)()
        assert len(calls) == 15


class TestPowerCurve:
    def test_power_at_the_null_is_near_alpha(self, rng):
        null = ErdosRenyi(6, 0.5)
        points = power_curve(
            null,
            [ErdosRenyi(6, 0.5)],
            n=15,
            M=300,
            alpha=0.2,
            R_quantile=400,
            rng=rng,
            baseline_bonferroni=True,
        )
        (point,) = points
        assert point.parameter == 0.5
        assert point.replications == 300
        assert 0.08 < point.power < 0.32
        assert point.power_baseline <= 0.32

    def test_power_grows_with_separation(self, rng):
        null = ErdosRenyi(6, 0.5)
        points = power_curve(
            null,
            [ErdosRenyi(6, 0.55), ErdosRenyi(6, 0.8)],
            n=20,
            M=200,
            R_quantile=400,
            rng=rng,
        )
        assert points[0].parameter == 0.55
        assert points[1].parameter == 0.8
        assert points[1].power > points[0].power
        assert points[1].power > 0.9
        assert points[0].power_baseline is None

    @pytest.mark.parametrize("R_quantile", [5, 0, -3, 99])
    def test_too_few_quantile_replications_are_rejected(self, rng, R_quantile):
        null = ErdosRenyi(5, 0.5)
        with pytest.raises(ValueError, match="at least 100 replications"):
            power_curve(null, [null], n=10, M=100, R_quantile=R_quantile, rng=rng)

    def test_modified_er_alternatives_report_modified_level(self, rng):
        null = ErdosRenyi(5, 0.5)
        alt = ModifiedErdosRenyi(5, 0.5, 0.9, frozenset({(0, 1), (2, 3)}))
        (point,) = power_curve(null, [alt], n=20, M=100, R_quantile=100, rng=rng)
        assert point.parameter == 0.9

    def test_same_seed_reproduces_curve(self, rng_factory):
        null = ErdosRenyi(4, 0.5)
        alts = [ErdosRenyi(4, 0.7)]
        a = power_curve(null, alts, n=10, M=150, R_quantile=120, rng=rng_factory(9))
        b = power_curve(null, alts, n=10, M=150, R_quantile=120, rng=rng_factory(9))
        assert a == b

    def test_validation(self, rng):
        null = ErdosRenyi(4, 0.5)
        with pytest.raises(ValueError):
            power_curve(null, [], n=10, M=100, rng=rng)
        with pytest.raises(ValueError):
            power_curve(null, [ErdosRenyi(4, 0.6)], n=10, M=99, rng=rng)
        with pytest.raises(ValueError):
            power_curve(null, [ErdosRenyi(4, 0.6)], n=10, M=100, rng=None)
        with pytest.raises(DimensionMismatchError):
            power_curve(null, [ErdosRenyi(5, 0.6)], n=10, M=100, rng=rng)
