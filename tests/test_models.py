"""Null and alternative graph models: exact forms, samplers, enumeration."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import graphtest.models as models
from graphtest.graphs import BLOCK_CELLS
from graphtest.errors import ConfigurationError
from graphtest.models import (
    _cftp_indicators,
    _enumeration_counts,
    _matching_rounds,
)
from graphtest.statistic import one_sample_kernel

from oracles import (
    binomial_cdf,
    cftp_column,
    choice_edge_counts,
    enumerated_ergm_law,
    enumerated_pair_marginals,
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

    @pytest.mark.parametrize("model", [
        ErdosRenyi(40, 0.3),
        ModifiedErdosRenyi(40, 0.3, 0.8, frozenset({(0, 1), (5, 9)})),
    ])
    def test_blocked_rows_are_one_uniform_draw(self, model):
        # v=40 puts 65536 // 780 = 84 rows in a block, so 200 rows take three.
        rng, whole = np.random.default_rng(8), np.random.default_rng(8)
        sample = model.sample(200, rng)
        want = whole.random((200, num_pairs(40))) < model.pair_probabilities()
        assert np.array_equal(sample.indicator_matrix(), want)
        assert rng.bit_generator.state == whole.bit_generator.state

    def test_sample_memory_is_about_one_byte_a_cell(self):
        # One bool (n x E) matrix, which the sample keeps as it is, and one
        # block of uniforms: about 1.05 bytes a cell.
        n, model = 20_000, ErdosRenyi(40, 0.3)
        tracemalloc.start()
        try:
            model.sample(n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * num_pairs(40)

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
    def test_one_level_draws_alike_as_er_and_as_modified_er(self, p):
        # A modified ER model whose two levels are equal is an ER model.
        er, modified = ErdosRenyi(9, p), ModifiedErdosRenyi(9, p, p, frozenset({(0, 1)}))
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert np.array_equal(er.edge_count_batches(20, 70, a),
                              modified.edge_count_batches(20, 70, b))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("model", [
        ErdosRenyi(5, 0.5),
        ModifiedErdosRenyi(5, 0.5, 0.9, frozenset({(0, 1)})),
        # Enumerated draws, then draws coupled from the past.
        Ergm(4, EDGE_TRIANGLE, (0.0, 0.1)),
        Ergm(7, EDGE_TRIANGLE, (0.0, 0.1)),
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


@st.composite
def binomial_levels(draw):
    """(n, p): p on both sides of 1/2, n * min(p, 1 - p) on both sides of 30,
    tiny p, and p in {0, 1}."""
    n = draw(st.integers(1, 300))
    p = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.5]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 60.0).map(lambda mean: min(mean / n, 1.0)),
    ))
    return n, 1.0 - p if draw(st.booleans()) else p


def modified_model(p0, p, pairs):
    """Modified ER on v = 5 with the first ``pairs`` canonical pairs at p."""
    return ModifiedErdosRenyi(5, p0, p, frozenset(canonical_pairs(5)[:pairs]))


def reads_one_uniform_block(model, n, R, seed):
    """Whether the model's counts are its levels' thresholds searched for the
    uniforms of one ``rng.random((R, E))``, and leave the generator where
    that call leaves it."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = model.edge_count_batches(n, R, rng)
    uniforms = ref.random((R, num_pairs(model.v)))
    want = np.empty(uniforms.shape, dtype=np.intp)
    for a, p in enumerate(model.pair_probabilities()):
        thresholds = models._binomial_table(n, p)[0][:-1]
        want[:, a] = thresholds.searchsorted(uniforms[:, a], side="right")
    return (np.array_equal(counts, want) and counts.dtype == want.dtype
            and rng.bit_generator.state == ref.bit_generator.state)


def one_level_counts(table, u):
    """``models._table_counts`` with every column of u reading ``table``."""
    return models._table_counts([table], np.zeros(u.shape[-1], dtype=np.intp), u)


def cdf_of_counts(counts, n):
    """The empirical CDF of the counts at k = 0..n-1."""
    return np.cumsum(np.bincount(counts.ravel(), minlength=n + 1))[:-1] / counts.size


class TestBinomialTables:
    """Independent-edge counts by inversion of the binomial CDF, through
    guided tables."""

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.6, 0.97, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 50, 300, 1781, 2000])
    def test_thresholds_are_the_exact_cdf(self, n, p):
        thresholds, guide = models._binomial_table(n, p)
        assert len(thresholds) == n + 1 and thresholds[-1] == 2.0
        assert np.abs(thresholds[:-1] - binomial_cdf(n, p)).max() <= 1e-9

    @given(binomial_levels())
    @settings(max_examples=100, deadline=None)
    def test_thresholds_are_the_exact_cdf_at_any_level(self, level):
        n, p = level
        thresholds = models._binomial_table(n, p)[0][:-1]
        assert np.all(np.diff(thresholds) >= 0)
        assert 0.0 <= thresholds[0] and thresholds[-1] <= 1.0
        assert np.abs(thresholds - binomial_cdf(n, p)).max() <= 1e-9

    @given(binomial_levels(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_er_counts_read_one_uniform_block(self, level, seed):
        n, p = level
        assert reads_one_uniform_block(ErdosRenyi(5, p), n, 40, seed)

    @given(binomial_levels(), binomial_levels(), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_two_level_counts_read_one_uniform_block(self, level, other, pairs, seed):
        (n, p0), (_, p) = level, other
        assert reads_one_uniform_block(modified_model(p0, p, pairs), n, 40, seed)

    @pytest.mark.parametrize("n, p, seed", [(100, 0.6, 8), (1781, 0.2, 9)])
    def test_counts_follow_the_exact_law(self, n, p, seed):
        # 90 000 counts: by the Dvoretzky-Kiefer-Wolfowitz inequality their
        # empirical CDF strays past ``band`` with chance below 1e-6.
        counts = ErdosRenyi(10, p).edge_count_batches(n, 2000, np.random.default_rng(seed))
        band = math.sqrt(math.log(2 / 1e-6) / (2 * counts.size))
        assert np.abs(cdf_of_counts(counts, n) - binomial_cdf(n, p)).max() <= band
        sd = math.sqrt(n * p * (1 - p) / counts.size)
        assert abs(counts.mean() - n * p) <= 5 * sd

    @pytest.mark.parametrize("model", [
        ErdosRenyi(6, 0.0),
        ErdosRenyi(6, 1.0),
        ModifiedErdosRenyi(6, 0.0, 1.0, frozenset({(0, 1), (2, 5)})),
        ModifiedErdosRenyi(6, 0.3, 0.0, frozenset({(0, 1), (2, 5)})),
        ModifiedErdosRenyi(6, 1.0, 0.7, frozenset({(0, 1), (2, 5)})),
    ], ids=["er-0", "er-1", "0-beside-1", "0-beside-0.3", "1-beside-0.7"])
    def test_zero_and_one_draw_no_edges_and_every_edge(self, model):
        n = 30
        counts = model.edge_count_batches(n, 500, np.random.default_rng(12))
        probs = model.pair_probabilities()
        assert np.all(counts[:, probs == 0.0] == 0)
        assert np.all(counts[:, probs == 1.0] == n)
        inner = counts[:, (probs > 0.0) & (probs < 1.0)]
        assert inner.size == 0 or 0 < inner.min() < inner.max() < n

    @given(binomial_levels(), st.integers(1, 100), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_guided_counts_are_searchsorteds(self, level, keep, seed):
        # Random uniforms, every threshold and its two float neighbours, and
        # both ends of the uniforms' range, looked up in a table cut after
        # ``keep`` thresholds (whole where it has fewer), as a C-ordered
        # block and as an F-ordered column selection.
        thresholds = models._binomial_table(*level)[0][:-1][:keep]
        sentinel_ended, guide = models._guided(thresholds)
        rng = np.random.default_rng(seed)
        probes = np.concatenate([
            rng.random(64), thresholds, np.nextafter(thresholds, 0.0),
            np.nextafter(thresholds, 1.0), [0.0, 1.0 - 2.0**-53],
        ])
        u = rng.random((len(probes), 3))
        u[:, 1] = np.clip(probes, 0.0, 1.0 - 2.0**-53)
        columns = u[:, [1, 2]]
        assert columns.flags.f_contiguous and not columns.flags.c_contiguous
        for block in (u, columns):
            got = one_level_counts((sentinel_ended, guide), block)
            assert np.array_equal(got, thresholds.searchsorted(block, side="right"))

    @given(st.lists(binomial_levels(), min_size=2, max_size=3),
           st.integers(0, 2**32 - 1))
    @example([(20, 0.5), (30, 0.001)], 0)
    @example([(1000, 0.03), (300, 0.1), (20, 1 - 1e-9)], 1)
    @settings(max_examples=100, deadline=None)
    def test_stacked_levels_count_as_searchsorteds_in_their_own_level(self, levels, seed):
        # Every level's columns read uniforms in the top bucket, where most
        # levels crowd their upper tail, and random ones. A count that
        # stepped past its level's sentinel would read the next level's
        # thresholds; a column without its offset, the first level's table.
        tables = [models._binomial_table(*level) for level in levels]
        top = 1.0 - 1.0 / models._GUIDE_BUCKETS
        inside = np.concatenate([t[(t >= top) & (t < 1.0)] for t, _ in tables])
        rng = np.random.default_rng(seed)
        probes = np.concatenate([
            rng.random(64), top + rng.random(64) / models._GUIDE_BUCKETS, inside,
            np.nextafter(inside, 0.0), np.nextafter(inside, 1.0), [top],
        ])
        u = np.repeat(np.clip(probes, 0.0, 1.0 - 2.0**-53)[:, None], 2 * len(levels), 1)
        level = np.arange(u.shape[1]) % len(levels)
        got = models._table_counts(tables, level, u)
        for j, k in enumerate(level.tolist()):
            want = tables[k][0][:-1].searchsorted(u[:, j], side="right")
            assert np.array_equal(got[:, j], want)

    @given(binomial_levels())
    @settings(max_examples=100, deadline=None)
    def test_guides_count_the_thresholds_at_or_below_each_bucket(self, level):
        sentinel_ended, guide = models._binomial_table(*level)
        thresholds = sentinel_ended[:-1]
        assert sentinel_ended[-1] == 2.0
        # b / 4096 is exact in binary floating point.
        edges = np.arange(models._GUIDE_BUCKETS) / models._GUIDE_BUCKETS
        want = (thresholds[None, :] <= edges[:, None]).sum(axis=1)
        assert np.array_equal(np.where(guide < 0, -1 - guide, guide), want)

    @given(binomial_levels())
    @example((1, 0.5))
    @example((2, 0.5))
    @example((4, 0.25))
    @settings(max_examples=100, deadline=None)
    def test_buckets_are_flagged_iff_a_threshold_lies_strictly_inside(self, level):
        # Binomial(1, 1/2) and Binomial(2, 1/2) have every threshold on a
        # bucket edge (2048/4096; 1024/4096 and 3072/4096), so no bucket of
        # theirs is flagged.
        sentinel_ended, guide = models._binomial_table(*level)
        thresholds = sentinel_ended[:-1]
        edges = np.arange(models._GUIDE_BUCKETS + 1) / models._GUIDE_BUCKETS
        inside = ((thresholds[None, :] > edges[:-1, None])
                  & (thresholds[None, :] < edges[1:, None])).any(axis=1)
        assert np.array_equal(guide < 0, inside)
        if level in ((1, 0.5), (2, 0.5)):
            assert not inside.any()

    @pytest.mark.parametrize("layout", [
        lambda u: u,
        lambda u: u[:, [1, 4, 5]],
        lambda u: u[::3, 2:],
        lambda u: u[5],
        lambda u: u.reshape(5, 6, 7),
    ], ids=["c-block", "f-columns", "strided", "row", "three-d"])
    def test_guided_counts_keep_the_shape_and_leave_the_uniforms(self, layout):
        sentinel_ended, guide = models._binomial_table(50, 0.3)
        block = layout(np.random.default_rng(6).random((30, 7)))
        before = block.copy()
        got = one_level_counts((sentinel_ended, guide), block)
        assert got.shape == block.shape
        assert np.array_equal(got, sentinel_ended[:-1].searchsorted(block, side="right"))
        assert np.array_equal(block, before)

    @pytest.mark.parametrize("n, p", [
        (30, 0.001), (1000, 0.03), (300, 0.1), (20, 1 - 1e-9),
    ])
    def test_uniforms_in_crowded_buckets_count_as_searchsorteds(self, n, p):
        # The upper tail's thresholds of a skewed level share buckets near 1,
        # so a uniform there steps up several times past its guide entry.
        sentinel_ended, guide = models._binomial_table(n, p)
        thresholds = sentinel_ended[:-1]
        inside = thresholds[thresholds < 1.0]
        u = np.concatenate([
            1.0 - np.random.default_rng(4).random(4096) * 2.0**-10,
            inside, np.nextafter(inside, 0.0),
        ])
        got = one_level_counts((sentinel_ended, guide), u)
        assert np.array_equal(got, thresholds.searchsorted(u, side="right"))
        buckets = (u * models._GUIDE_BUCKETS).astype(np.intp)
        starts = np.where(guide < 0, -1 - guide, guide)
        assert (got - starts[buckets]).max() >= 2


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

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("v", [4, 5, 6])
    def test_edge_density_is_the_exact_mean_rounded_once(self, v, stats):
        # Within 1 ulp of the exact mean edge count over E; summed exactly
        # and rounded once, it is the nearest float to it.
        edges = [bin(code).count("1") for code in range(1 << num_pairs(v))]
        for theta in ((0.0, -0.1), (-1.5, 0.4), (1.0, -0.5)):
            dist = ergm_enumerate(Ergm(v, stats, theta))
            probabilities = map(Fraction, dist.probabilities.tolist())
            exact = sum(map(Fraction.__mul__, probabilities, edges)) / num_pairs(v)
            got = dist.edge_density()
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))
            assert got == float(exact)

    def test_edge_density_does_not_depend_on_blas_threads(self):
        # OpenBLAS splits a long float dot product between its threads, and
        # the rounded sum then depends on how many there are.
        code = (
            "from graphtest import Ergm, ergm_enumerate; print([ergm_enumerate("
            "Ergm(v, s, t)).edge_density().hex() for v in (5, 6) for s in "
            f"{(EDGE_TRIANGLE, EDGE_TWO_STAR)!r} for t in ((0.0, -0.1), "
            "(-1.5, 0.4), (1.0, -0.5), (0.3, 0.25), (-3.0, 1.5))])"
        )
        src = str(Path(models.__file__).resolve().parents[1])
        densities = [
            subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert densities[0] == densities[1]

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


class TestErgmMhSampleIsExact:
    """``ergm_mh_sample`` is ``Ergm.sample`` under its old name: the same
    exact draws from the same stream, its schedule checked and not read."""

    @pytest.mark.parametrize("v, stats, theta", [
        # Enumerated draws at v=5, coupled draws at v=7.
        (5, EDGE_TRIANGLE, (0.5, -0.3)),
        (7, EDGE_TWO_STAR, (-0.4, -0.5)),
        (7, EDGE_TRIANGLE, (-1.0, 0.63)),
    ])
    def test_draws_are_those_of_spec_sample(self, v, stats, theta):
        spec = Ergm(v, stats, theta)
        rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
        a = ergm_mh_sample(spec, 300, McmcConfig(burn_in=7, thinning=3), rng_a)
        b = spec.sample(300, rng_b)
        assert a.indicator_matrix().tobytes() == b.indicator_matrix().tobytes()
        assert rng_a.random() == rng_b.random()

    def test_a_refused_model_raises_configuration_error(self, monkeypatch):
        # From 16 sweeps back, 2 of these 40 draws are still unmet (see
        # TestCouplingFromThePast's cap test).
        monkeypatch.setattr(models, "CFTP_MAX_SWEEPS", 16)
        spec = Ergm(8, EDGE_TRIANGLE, (-1.0, 0.63))
        with pytest.raises(ConfigurationError, match=r"16 sweeps for 2 of a group of 40"):
            ergm_mh_sample(spec, 40, McmcConfig(), np.random.default_rng(11))

    def test_uniform_target_frequencies(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        s = ergm_mh_sample(spec, 4000, McmcConfig(burn_in=50, thinning=1), rng)
        freqs = s.edge_counts / 4000
        assert np.all(np.abs(freqs - 0.5) < 0.04)

    # Every graph weighs the same at theta = (0, 0), and at theta1 = 0 on two
    # vertices. ``ergm_mh_sample`` draws by enumeration on so few vertices;
    # coupling from the past, called directly, must reach the same uniform
    # law: there both bounding chains set a pair on the same uniform and
    # meet in a sweep.
    @pytest.mark.parametrize("v, stats, theta", [
        (2, EDGE_TWO_STAR, (0.0, 0.7)),
        (3, EDGE_TRIANGLE, (0.0, 0.0)),
        (3, EDGE_TWO_STAR, (0.0, 0.0)),
    ])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_uniform_target_total_variation(self, v, stats, theta, coupled):
        spec = Ergm(v, stats, theta)
        rng = np.random.default_rng(12)
        if coupled:
            rows = np.vstack(list(_cftp_indicators(spec, 8000, rng)))
        else:
            rows = ergm_mh_sample(spec, 8000, McmcConfig(burn_in=20, thinning=2), rng)
            rows = rows.indicator_matrix()
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

    def test_sample_size_and_config_validation(self, rng):
        spec = Ergm(4, EDGE_TRIANGLE, (0.0, 0.0))
        with pytest.raises(ValueError):
            ergm_mh_sample(spec, 0, McmcConfig(), rng)
        with pytest.raises(ValueError):
            McmcConfig(burn_in=-1)
        with pytest.raises(ValueError):
            McmcConfig(thinning=0)


class TestExactDraws:
    """Up to ENUMERATION_MAX_V vertices, ``Ergm.edge_count_batches`` draws
    whole graphs from the enumerated law, as ``rng.choice`` over the codes."""

    # (v, stats, theta, n, R). R*n = 70 000 and 80 000 cross the chunk edge
    # at BLOCK_CELLS = 65 536 inside a replicate; at v=3 one replicate of
    # 70 000 graphs spans two chunks. theta2 = -800 gives every graph with a
    # triangle probability 0, and (-3, 1.5) puts nearly all the two-star
    # mass on the complete graph.
    CASES = [
        (6, EDGE_TRIANGLE, (0.0, -0.1), 20, 200),
        (6, EDGE_TWO_STAR, (-3.0, 1.5), 7, 10_000),
        (6, EDGE_TRIANGLE, (0.2, -800.0), 20, 4_000),
        (3, EDGE_TRIANGLE, (0.5, -0.8), 70_000, 2),
        (2, EDGE_TWO_STAR, (0.0, 0.7), 1, 1),
    ]

    @pytest.mark.parametrize("v, stats, theta, n, R", CASES)
    def test_counts_are_the_choice_oracles(self, v, stats, theta, n, R):
        spec = Ergm(v, stats, theta)
        rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
        counts = spec.edge_count_batches(n, R, rng)
        expected = choice_edge_counts(
            ergm_enumerate(spec).probabilities, v, n, R, oracle_rng
        )
        assert counts.dtype == np.int64
        assert counts.shape == (R, num_pairs(v))
        assert np.array_equal(counts, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_cases_cross_chunks_and_hold_impossible_graphs(self):
        crossing = [n for _, _, _, n, R in self.CASES if R * n > BLOCK_CELLS]
        assert len(crossing) == 3
        # The first chunk edge falls inside a replicate.
        assert all(BLOCK_CELLS % n for n in crossing)
        spec = Ergm(6, EDGE_TRIANGLE, (0.2, -800.0))
        assert (ergm_enumerate(spec).probabilities == 0).any()

    def test_marginals_and_draws_share_one_enumeration(self, monkeypatch, rng):
        calls = []

        def counting(v, stats):
            calls.append((v, stats))
            return enumeration_counts(v, stats)

        enumeration_counts = models._enumeration_counts
        monkeypatch.setattr(models, "_enumeration_counts", counting)
        spec = Ergm(5, EDGE_TRIANGLE, (0.0123, -0.0456))
        spec.exact_marginals()
        spec.edge_count_batches(3, 10, rng)
        spec.edge_count_batches(3, 10, rng)
        assert ergm_enumerate(spec) is ergm_enumerate(spec)
        assert calls == [(5, EDGE_TRIANGLE)]

    def test_a_kept_distribution_cannot_be_changed(self, rng):
        spec = Ergm(4, EDGE_TWO_STAR, (0.3, -0.2))
        spec.edge_count_batches(2, 5, rng)
        dist = ergm_enumerate(spec)
        kept = dist.probabilities.copy()
        with pytest.raises(ValueError, match="read-only"):
            dist.probabilities[0] = 0.5
        for name, value in (("probabilities", np.full(64, 1 / 64)), ("v", 3)):
            with pytest.raises(AttributeError):
                setattr(dist, name, value)
        with pytest.raises(AttributeError):
            dist.extra = None
        again = ergm_enumerate(spec)
        assert again.v == 4
        assert np.array_equal(again.probabilities, kept)


def cftp_bits(spec, D, seed):
    """D draws of ``_cftp_indicators`` from ``default_rng(seed)``, (D x E)."""
    return np.concatenate(list(_cftp_indicators(spec, D, np.random.default_rng(seed))))


class TestCouplingFromThePast:
    """``_cftp_indicators`` against a one-column oracle, and its rounds,
    groups, chunks and cap."""

    THETAS = [(0.3, 0.25), (-0.4, -0.5), (-1.0, 0.63)]

    def check_against_oracle(self, v, stats, theta, D, columns, seed=11):
        spec = Ergm(v, stats, theta)
        got = cftp_bits(spec, D, seed)
        assert got.shape == (D, num_pairs(v)) and got.dtype == np.uint8
        G = BLOCK_CELLS // (v * -(-v // 64))
        groups = np.random.default_rng(seed).bit_generator.seed_seq.spawn(-(-D // G))
        for column in columns:
            g, c = divmod(column, G)
            expected = cftp_column(v, stats == EDGE_TRIANGLE, theta, _matching_rounds(v),
                                   groups[g], min(G, D - g * G), c)
            assert got[column].tolist() == expected
        return got

    @pytest.mark.parametrize("stats, theta", [
        # theta2 = -800 gives every graph with a triangle probability 0. The
        # two-star model at -800 holds only matchings, and its bounding
        # chains never meet (see the cap test in test_cli.py).
        *product((EDGE_TRIANGLE, EDGE_TWO_STAR), THETAS),
        (EDGE_TRIANGLE, (0.2, -800.0)),
    ])
    def test_columns_match_the_oracle(self, stats, theta):
        self.check_against_oracle(8, stats, theta, 40, range(40))

    def test_replays_double_the_past(self):
        # At v=8, theta = (-1, 0.63), about half the columns have not met
        # from 8 sweeps back and a few need 32 or 64.
        spec = Ergm(8, EDGE_TRIANGLE, (-1.0, 0.63))
        rounds = _matching_rounds(8)
        seq = np.random.default_rng(11).bit_generator.seed_seq.spawn(1)[0]
        met = [cftp_column(8, True, spec.theta, rounds, seq, 40, c, cap=8) is not None
               for c in range(40)]
        assert 0 < sum(met) < 40

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_two_words_per_vertex_match_the_oracle(self, stats):
        # v=65 holds each neighbour mask in two uint64 words.
        bits = self.check_against_oracle(65, stats, (0.5, -0.02), 2, [1])
        assert 0 < bits.mean() < 1

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("v, theta", [
        # A mask fills a uint16 word at 16 and a uint32 at 32, one uint64 at
        # 64; 9, 17 and 33 are the first v of each wider word.
        (9, (-0.4, -0.5)), (16, (0.3, 0.05)), (17, (0.3, -0.05)),
        (32, (0.5, 0.02)), (33, (0.5, -0.02)), (64, (0.5, -0.02)),
    ])
    def test_every_word_width_matches_the_oracle(self, v, stats, theta):
        bits = self.check_against_oracle(v, stats, theta, 3, [0, 2])
        assert 0 < bits.mean() < 1

    def test_groups_take_their_own_streams(self):
        # v=7 puts 65536 // 7 = 9362 draws in a group; the last group holds 2.
        self.check_against_oracle(7, EDGE_TWO_STAR, (-0.4, -0.5), 9364,
                                  [0, 9361, 9362, 9363])

    @pytest.mark.parametrize("v", [2, 3, 4, 7, 10, 65])
    def test_rounds_are_matchings_that_cover_every_pair_once(self, v):
        rounds = _matching_rounds(v)
        assert len(rounds) == v - 1 + v % 2
        assert all(len(r) == v // 2 for r in rounds)
        for pairs in rounds:
            ends = [x for pair in pairs for x in pair]
            assert len(set(ends)) == len(ends)
        assert tuple(sorted(p for r in rounds for p in r)) == canonical_pairs(v)

    def test_sample_and_counts_read_the_same_draws(self):
        spec = Ergm(9, EDGE_TWO_STAR, (-0.5, 0.1))
        sample = spec.sample(30, np.random.default_rng(5))
        counts = spec.edge_count_batches(1, 30, np.random.default_rng(5))
        assert np.array_equal(sample.indicator_matrix(), counts)
        counts = spec.edge_count_batches(3, 10, np.random.default_rng(5))
        assert np.array_equal(sample.indicator_matrix().reshape(10, 3, -1).sum(1), counts)

    def test_the_cap_refuses_a_model_whose_chains_do_not_meet(self, monkeypatch):
        # From 16 sweeps back, 2 of these 40 columns are still unmet: the
        # message names that count and 16, the largest T tried.
        monkeypatch.setattr(models, "CFTP_MAX_SWEEPS", 16)
        spec = Ergm(8, EDGE_TRIANGLE, (-1.0, 0.63))
        seq = np.random.default_rng(11).bit_generator.seed_seq.spawn(1)[0]
        unmet = [cftp_column(8, True, spec.theta, _matching_rounds(8), seq, 40, c, cap=16)
                 for c in range(40)].count(None)
        assert unmet == 2
        with pytest.raises(ConfigurationError,
                           match=r"16 sweeps for 2 of a group of 40 draws.*v=8.*\(-1.0, 0.63\)"):
            spec.edge_count_batches(4, 10, np.random.default_rng(11))

    def test_working_memory_is_bounded_by_the_group(self):
        # v=100 takes two words a mask, and 327 draws a group; 350 draws
        # make two groups. The counts take 2 MB, and the arrays of a group's
        # round of 50 pairs about 3 MB.
        spec = Ergm(100, EDGE_TRIANGLE, (0.0, 0.02))
        tracemalloc.start()
        try:
            spec.edge_count_batches(7, 50, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    @pytest.mark.parametrize("v", [12, 70])
    def test_independent_edges_meet_in_the_first_epoch(self, monkeypatch, v, stats):
        # At theta2 = 0 every update sets its pair with probability
        # sigma(theta1), whatever the graph, so both bounding chains take
        # the same step and meet within CFTP_START_SWEEPS; the draws are
        # then Erdos-Renyi graphs of density sigma(-1) = 0.2689. v=70 holds
        # each neighbour mask in two words.
        monkeypatch.setattr(models, "CFTP_MAX_SWEEPS", models.CFTP_START_SWEEPS)
        spec, p = Ergm(v, stats, (-1.0, 0.0)), 1 / (1 + math.e)
        counts = spec.edge_count_batches(20, 40, np.random.default_rng(4))
        # 800 draws: the density's standard error is at most 0.002, and each
        # pair's count has standard error 12.5.
        density = counts.sum() / (800 * num_pairs(v))
        assert density == pytest.approx(p, abs=0.01)
        assert np.abs(counts.sum(axis=0) - 800 * p).max() < 5.5 * math.sqrt(800 * p * (1 - p))


CHECK_THETAS = ((0.0, -0.1), (-1.5, 0.4), (-3.0, 1.5))
CFTP_CHECK_GRID = [
    (v, stats, theta)
    for v in (4, 5, 6, 7)
    for stats in (EDGE_TRIANGLE, EDGE_TWO_STAR)
    for theta in CHECK_THETAS
]


@functools.lru_cache(maxsize=None)
def exact_law(v, stats, theta) -> np.ndarray:
    """The enumerated law: the package's up to ENUMERATION_MAX_V vertices,
    the oracle's 2^21 codes at v = 7."""
    if v <= ENUMERATION_MAX_V:
        return ergm_enumerate(Ergm(v, stats, theta)).probabilities
    return enumerated_ergm_law(v, stats == EDGE_TRIANGLE, theta)


class TestCouplingAgainstExactDraws:
    """Draws coupled from the past against exact draws from the enumerated law.

    Each comparison runs ``_cftp_indicators`` and one ``rng.choice`` draw of
    codes at fixed seeds. Both sides draw from one law, so every bound below
    is the Monte Carlo error of both sides, at Z standard deviations. At
    v=4 the empty and the complete graph weigh the same under two-star
    theta = (-3, 1.5): Metropolis-Hastings chains at the old default schedule
    seldom crossed between them, and their critical value (2.30) was far
    above the exact one (1.60).
    """

    N = 2000
    Z = 4.5
    ALPHA = 0.05

    @pytest.mark.parametrize("v, stats, theta", CFTP_CHECK_GRID)
    def test_edge_count_histograms_agree(self, v, stats, theta):
        # N graphs a side. Given the m graphs with k edges on either side,
        # the coupled share a is hypergeometric with mean m/2 and variance
        # at most m/4 under one law, so |2a - m| <= Z * sqrt(m).
        coupled = cftp_bits(Ergm(v, stats, theta), self.N, 1)
        exact = choice_edge_counts(exact_law(v, stats, theta), v, 1, self.N,
                                   np.random.default_rng(2))
        bins = num_pairs(v) + 1
        a = np.bincount(coupled.sum(axis=1), minlength=bins)
        m = a + np.bincount(exact.sum(axis=1), minlength=bins)
        assert np.all(np.abs(2 * a - m) <= self.Z * np.sqrt(m))

    @pytest.mark.parametrize("v, stats, theta", CFTP_CHECK_GRID)
    def test_critical_values_agree(self, v, stats, theta):
        # R = N replicates of n = 10 graphs a side. The coupled order
        # statistic crit is exceeded with a probability within about
        # sqrt(alpha(1-alpha)/R) of alpha under the common law, and the
        # exact replicates estimate that probability with an independent
        # error of about as much. On a lattice, the law puts at most alpha
        # strictly above its quantile and at least alpha at or above it.
        n, R, E = 10, self.N, num_pairs(v)
        law = exact_law(v, stats, theta)
        density = float(law @ np.bitwise_count(np.arange(len(law)))) / E
        kernel = one_sample_kernel(n, EdgeMarginals.constant(v, min(density, 1.0)))
        coupled = cftp_bits(Ergm(v, stats, theta), R * n, 3)
        coupled = kernel(coupled.reshape(R, n, E).sum(axis=1, dtype=np.int64))
        exact = kernel(choice_edge_counts(law, v, n, R, np.random.default_rng(4)))
        crit = np.sort(coupled)[math.ceil((1 - self.ALPHA) * R) - 1]
        bound = self.Z * math.sqrt(2 * self.ALPHA * (1 - self.ALPHA) / R)
        assert (exact > crit).mean() - bound <= self.ALPHA
        assert self.ALPHA <= (exact >= crit).mean() + bound

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_the_v7_oracle_is_the_enumeration_the_package_would_make(self, stats):
        n_e, n_x = _enumeration_counts(7, stats)
        log_w = -1.5 * n_e + 0.4 * n_x
        w = np.exp(log_w - log_w.max())
        assert np.allclose(exact_law(7, stats, (-1.5, 0.4)), w / w.sum(), rtol=1e-12, atol=0)


class TestEdgeDensitySweep:
    def test_matches_logistic_grid_when_decoupled(self, rng):
        grid = [-2.0, -1.0, 0.0, 1.0]
        specs = [Ergm(5, EDGE_TRIANGLE, (t1, 0.0)) for t1 in grid]
        points = edge_density_sweep(specs, 2000, rng)
        assert [p.theta1 for p in points] == grid
        for p in points:
            assert abs(p.density - logistic(p.theta1)) < 0.03
            assert p.draws == 2000

    def test_matches_enumeration_density(self, rng):
        spec = Ergm(4, EDGE_TWO_STAR, (-0.5, 0.15))
        exact = ergm_enumerate(spec).edge_density()
        (point,) = edge_density_sweep([spec], 4000, rng)
        assert abs(point.density - exact) < 0.03

    def test_warns_on_near_degenerate_model(self, rng):
        spec = Ergm(5, EDGE_TRIANGLE, (-6.0, 0.0))
        with pytest.warns(UserWarning, match="near-degenerate"):
            edge_density_sweep([spec], 500, rng)

    def test_rejects_empty_grid(self, rng):
        with pytest.raises(ValueError):
            edge_density_sweep([], 100, rng)

    def test_memory_does_not_grow_with_the_draws(self):
        # The counts of a point are summed as they are drawn: coupled from
        # the past at v=10 in groups of 6 553 draws, so the peak is one
        # group's (about 3 MB) whatever the number of draws.
        def peak(draws):
            spec = Ergm(10, EDGE_TRIANGLE, (-0.5, 0.1))
            tracemalloc.start()
            try:
                edge_density_sweep([spec], draws, np.random.default_rng(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)
        assert peak(200_000) <= 1.1 * peak(20_000)

    def test_densities_are_the_per_graph_edge_sums(self):
        specs = [Ergm(7, EDGE_TRIANGLE, (-0.5, t2)) for t2 in (-0.1, 0.0, 0.1)]
        points = edge_density_sweep(specs, 60, np.random.default_rng(3))
        # The grid points read one generator in order.
        rng = np.random.default_rng(3)
        for point, spec in zip(points, specs):
            sample = spec.sample(60, rng)
            edges = sum(g.edge_count() for g in sample)
            assert point.density == edges / (60 * num_pairs(7))
