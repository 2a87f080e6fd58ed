"""Closed-form max-discrepancy statistic vs. brute-force and literal oracles."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtest import (
    BRUTE_FORCE_MAX_V,
    EDGE_TRIANGLE,
    EDGE_TWO_STAR,
    DimensionMismatchError,
    EdgeMarginals,
    EnumerationRefusedError,
    Ergm,
    Graph,
    GraphSample,
    TestStatistic,
    canonical_pairs,
    extremal_graphs,
    mean_distance,
    mean_graph,
    num_pairs,
    one_sample_brute_force,
    one_sample_statistic,
    pair_index,
    signed_gap,
    two_sample_brute_force,
    two_sample_statistic,
)
from graphtest.statistic import GapKernel, one_sample_kernel, two_sample_kernel

from oracles import (
    exact_expected_distance,
    exact_mean_distance,
    fraction_one_sample,
    fraction_two_sample,
    gray_one_sample_max,
    gray_two_sample_max,
    literal_one_sample_max,
    literal_two_sample_max,
    random_graph,
    random_marginals,
    random_sample,
)

# Keep pytest from trying to collect the library's result type.
TestStatistic.__test__ = False


def half(v):
    return EdgeMarginals.constant(v, Fraction(1, 2))


class TestMeanDistance:
    def test_distance_to_own_singleton_is_zero(self, rng):
        g = random_graph(rng, 5)
        assert mean_distance(GraphSample([g, g]), g) == 0.0

    def test_empty_complete_mixture(self):
        s = GraphSample([Graph.empty(3), Graph.complete(3)])
        assert mean_distance(s, Graph.empty(3)) == 1.5
        assert mean_distance(s, Graph.complete(3)) == 1.5

    def test_rejects_mixed_vertex_counts(self):
        s = GraphSample([Graph.empty(3)])
        with pytest.raises(DimensionMismatchError):
            mean_distance(s, Graph.empty(4))


class TestOneSampleStatistic:
    def test_complete_sample_against_half(self):
        s = GraphSample([Graph.complete(3)] * 4)
        stat = one_sample_statistic(s, half(3))
        assert stat.exact == Fraction(3, 2)
        assert stat.value == 1.5
        assert stat.kind == "one_sample"
        assert stat.sample_sizes == (4, None)

    def test_complete_sample_v10(self):
        s = GraphSample([Graph.complete(10)] * 20)
        assert one_sample_statistic(s, half(10)).exact == Fraction(45, 2)

    def test_zero_against_own_mean(self, rng):
        s = random_sample(rng, 5, 8)
        assert one_sample_statistic(s, mean_graph(s)).exact == 0

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(30):
            s = random_sample(rng, 4, int(rng.integers(1, 9)))
            marg = EdgeMarginals(4, random_marginals(rng, 4))
            closed = one_sample_statistic(s, marg)
            brute, g_max = one_sample_brute_force(s, marg)
            assert closed.exact == brute.exact
            assert abs(signed_gap(s, marg, g_max)) == closed.exact

    def test_matches_literal_maximization(self, rng):
        for _ in range(6):
            s = random_sample(rng, 3, int(rng.integers(1, 6)))
            marg = EdgeMarginals(3, random_marginals(rng, 3))
            assert one_sample_statistic(s, marg).exact == literal_one_sample_max(s, marg)
        for _ in range(3):
            s = random_sample(rng, 4, int(rng.integers(1, 5)))
            marg = EdgeMarginals(4, random_marginals(rng, 4))
            assert one_sample_statistic(s, marg).exact == literal_one_sample_max(s, marg)

    def test_bounded_by_pair_count(self, rng):
        for v in (3, 4, 5, 8):
            s = random_sample(rng, v, 6)
            marg = EdgeMarginals(v, random_marginals(rng, v))
            stat = one_sample_statistic(s, marg)
            assert 0 <= stat.exact <= num_pairs(v)

    def test_relabel_equivariance(self, rng):
        v = 5
        for _ in range(10):
            s = random_sample(rng, v, 6)
            values = random_marginals(rng, v)
            marg = EdgeMarginals(v, values)
            perm = list(rng.permutation(v))
            relabeled = GraphSample(g.relabel(perm) for g in s)
            moved = [Fraction(0)] * num_pairs(v)
            for slot, (i, j) in enumerate(canonical_pairs(v)):
                a, b = sorted((perm[i], perm[j]))
                moved[pair_index(v, a, b)] = values[slot]
            assert (
                one_sample_statistic(relabeled, EdgeMarginals(v, moved)).exact
                == one_sample_statistic(s, marg).exact
            )

    @pytest.mark.parametrize("stats", [EDGE_TRIANGLE, EDGE_TWO_STAR])
    def test_ergm_null_statistic_ignores_vertex_labels(self, rng, stats):
        """W against an ERGM null's exact marginals is the same under every
        relabelling of the sample, the marginals left in place.

        ``test_relabel_equivariance`` moves the marginals along with the
        labels, so it would pass even if the model's pairs had unequal
        marginals; this test fails when they do.
        """
        v = 5
        marginals = Ergm(v, stats, (0.3, -0.2)).exact_marginals()
        s = random_sample(rng, v, 20)
        values = {
            one_sample_statistic(
                GraphSample(g.relabel(list(perm)) for g in s), marginals
            ).exact
            for perm in permutations(range(v))
        }
        assert values == {one_sample_statistic(s, marginals).exact}

    def test_rejects_mismatched_marginals(self, rng):
        with pytest.raises(DimensionMismatchError):
            one_sample_statistic(random_sample(rng, 4, 3), half(5))


class TestTwoSampleStatistic:
    def test_identical_samples(self, rng):
        s = random_sample(rng, 5, 7)
        assert two_sample_statistic(s, s).exact == 0

    def test_empty_vs_complete(self):
        s = GraphSample([Graph.empty(3)] * 5)
        t = GraphSample([Graph.complete(3)] * 2)
        stat = two_sample_statistic(s, t)
        assert stat.exact == 3
        assert stat.kind == "two_sample"
        assert stat.sample_sizes == (5, 2)

    def test_symmetry(self, rng):
        s = random_sample(rng, 4, 5)
        t = random_sample(rng, 4, 8)
        assert two_sample_statistic(s, t).exact == two_sample_statistic(t, s).exact

    def test_equal_mean_graphs_give_zero(self, rng):
        g, h = random_graph(rng, 5), random_graph(rng, 5)
        s = GraphSample([g, h])
        t = GraphSample([h, g, h, g])
        assert two_sample_statistic(s, t).exact == 0

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(30):
            s = random_sample(rng, 4, int(rng.integers(1, 7)))
            t = random_sample(rng, 4, int(rng.integers(1, 7)))
            closed = two_sample_statistic(s, t)
            brute, _ = two_sample_brute_force(s, t)
            assert closed.exact == brute.exact

    def test_matches_literal_maximization(self, rng):
        for _ in range(6):
            s = random_sample(rng, 3, int(rng.integers(1, 5)))
            t = random_sample(rng, 3, int(rng.integers(1, 5)))
            assert two_sample_statistic(s, t).exact == literal_two_sample_max(s, t)

    def test_denominator_divides_product_of_sizes(self, rng):
        s = random_sample(rng, 4, 6)
        t = random_sample(rng, 4, 9)
        exact = two_sample_statistic(s, t).exact
        assert (6 * 9) % exact.denominator == 0

    def test_rejects_mixed_vertex_counts(self, rng):
        with pytest.raises(DimensionMismatchError):
            two_sample_statistic(random_sample(rng, 3, 2), random_sample(rng, 4, 2))


class TestGapKernel:
    """Block numerators against the Fraction closed forms, on both integer paths."""

    @staticmethod
    def check_one_sample(counts, n, marginals):
        kernel = one_sample_kernel(n, marginals)
        nums = kernel(counts)
        assert len(nums) == len(counts)
        for row, num in zip(counts, nums):
            assert kernel.fraction(num) == fraction_one_sample(
                row, n, marginals.fractions
            )
        return kernel

    # int64 holds the numerators while den*n*E < 2^63: the binary float 0.3
    # has den 2^54, so at v = 4 (E = 6) n = 85 is the last size on int64
    # and n = 86 the first on Python integers. The mixed floats share den
    # 2^55 (0.1's), and 2^55 * 45 * 6 > 2^63.
    @pytest.mark.parametrize(
        "marginals,n,fast",
        [
            (EdgeMarginals(4, [Fraction(k, 12) for k in (0, 1, 5, 6, 11, 12)]), 5, True),
            (EdgeMarginals.constant(4, 0.3), 85, True),
            (EdgeMarginals.constant(4, 0.3), 86, False),
            (EdgeMarginals(4, [0.1, 0.3, 0.7, 1 / 3, 0.5, 0.9]), 45, False),
        ],
        ids=["den12", "float0.3-int64", "float0.3", "mixed-floats"],
    )
    def test_one_sample_matches_literal_maximization(self, rng, marginals, n, fast):
        samples = [random_sample(rng, 4, n) for _ in range(6)]
        counts = np.vstack([s.edge_counts for s in samples])
        kernel = self.check_one_sample(counts, n, marginals)
        assert kernel.fast == fast
        for sample, num in zip(samples, kernel(counts)):
            assert kernel.fraction(num) == literal_one_sample_max(sample, marginals)

    # Small and large blocks, on the int64 and the object path.
    @pytest.mark.parametrize("rows", [1, 3, 80])
    def test_one_sample_paths_on_random_blocks(self, rng, rows):
        v, n = 7, 50
        E = num_pairs(v)
        counts = rng.integers(0, n + 1, size=(rows, E))
        small = EdgeMarginals(v, random_marginals(rng, v))
        assert self.check_one_sample(counts, n, small).fast
        floats = EdgeMarginals(v, list(rng.random(E)))
        assert not self.check_one_sample(counts, n, floats).fast

    @pytest.mark.parametrize("rows", [1, 80])
    def test_one_sample_ergm_enumerated_marginals(self, rng, rows):
        marginals = Ergm(5, EDGE_TRIANGLE, (0.3, -0.2)).exact_marginals()
        n = 60
        counts = rng.integers(0, n + 1, size=(rows, num_pairs(5)))
        assert self.check_one_sample(counts, n, marginals).fast

    def test_two_sample_matches_literal_maximization(self, rng):
        for n, m in ((3, 5), (6, 6), (1, 8)):
            s = random_sample(rng, 4, n)
            t = random_sample(rng, 4, m)
            kernel = two_sample_kernel(n, m, s.edge_counts + t.edge_counts)
            (num,) = kernel(s.edge_counts[None, :])
            exact = kernel.fraction(num)
            assert exact == fraction_two_sample(s.edge_counts, n, t.edge_counts, m)
            assert exact == literal_two_sample_max(s, t)

    def test_two_sample_block_of_splits(self, rng):
        # Re-partitions of one pooled sample share the totals, as permutations do.
        pooled = random_sample(rng, 5, 13)
        rows = pooled.indicator_matrix().astype(np.int64)
        totals = rows.sum(axis=0)
        n, m = 5, 8
        splits = [rng.permutation(13)[:n] for _ in range(30)]
        counts = np.vstack([rows[idx].sum(axis=0) for idx in splits])
        kernel = two_sample_kernel(n, m, totals)
        for a, num in zip(counts, kernel(counts)):
            assert kernel.fraction(num) == fraction_two_sample(a, n, totals - a, m)


    @given(
        st.sampled_from([1, 7, 2**20, 2**61]),
        st.integers(1, 40),
        st.integers(1, 12),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_term_row_matches_the_signed_terms(self, scale, max_count, E, shared, seed):
        # Random count blocks with an all-0 and an all-max_count row, one
        # target or one per pair, on the int64 and (scale 2^61) the object path.
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, max_count + 1, size=1 if shared else E) * scale
        targets = [int(t) for t in np.resize(targets, E)]
        kernel = GapKernel(scale, targets, max_count, 1)
        counts = rng.integers(0, max_count + 1, size=(6, E))
        counts[0], counts[1] = 0, max_count
        one_target = len(set(targets)) == 1
        assert (kernel.row is not None) == (kernel.fast and one_target)
        got = kernel(counts)
        assert np.array_equal(got, np.abs(kernel.terms(counts)).sum(axis=1))
        assert [int(g) for g in got] == [
            sum(abs(t - scale * int(c)) for t, c in zip(targets, row)) for row in counts
        ]

    def test_term_row_only_for_one_int64_target(self):
        er = one_sample_kernel(20, EdgeMarginals.constant(5, 0.3))
        assert er.fast and er.row is not None and len(er.row) == 21
        assert one_sample_kernel(86, EdgeMarginals.constant(4, 0.3)).row is None
        mixed = EdgeMarginals(4, [Fraction(k, 12) for k in (0, 1, 5, 6, 11, 12)])
        assert one_sample_kernel(5, mixed).row is None
        assert two_sample_kernel(3, 5, [1, 2, 2, 4, 0, 8]).row is None
        assert two_sample_kernel(3, 5, [4] * 6).row is not None


class TestExtremalGraphs:
    def test_gaps_attain_statistic(self, rng):
        for _ in range(20):
            s = random_sample(rng, 4, int(rng.integers(1, 8)))
            marg = EdgeMarginals(4, random_marginals(rng, 4))
            w = one_sample_statistic(s, marg).exact
            lo, hi = extremal_graphs(s, marg)
            assert signed_gap(s, marg, lo) == w
            assert signed_gap(s, marg, hi) == -w

    def test_all_frequencies_below_reference(self):
        s = GraphSample([Graph.empty(3)] * 4)
        lo, hi = extremal_graphs(s, half(3))
        assert lo == Graph.complete(3)
        assert hi == Graph.empty(3)
        assert signed_gap(s, half(3), lo) == Fraction(3, 2)

    def test_ties_put_edge_in_both(self):
        s = GraphSample([Graph.empty(3), Graph.complete(3)])
        lo, hi = extremal_graphs(s, half(3))
        assert lo == Graph.complete(3)
        assert hi == Graph.complete(3)

    def test_no_graph_beats_the_extremal_gap(self, rng):
        s = random_sample(rng, 3, 5)
        marg = EdgeMarginals(3, random_marginals(rng, 3))
        w = one_sample_statistic(s, marg).exact
        for bits in range(1 << 3):
            assert abs(signed_gap(s, marg, Graph(3, bits))) <= w


class TestSignedGap:
    @pytest.mark.parametrize("v", [2, 4, 7])
    def test_matches_exact_distances_on_random_graphs(self, rng, v):
        for _ in range(10):
            s = random_sample(rng, v, int(rng.integers(1, 9)))
            marg = EdgeMarginals(v, random_marginals(rng, v))
            g = random_graph(rng, v)
            expected = exact_mean_distance(s, g) - exact_expected_distance(marg, g)
            assert signed_gap(s, marg, g) == expected

    def test_rejects_graph_of_other_vertex_count(self):
        s = GraphSample([Graph.empty(3)])
        message = "graph has v=4 but sample has v=3"
        with pytest.raises(DimensionMismatchError, match=message):
            signed_gap(s, half(3), Graph.empty(4))


class TestBruteForceGuards:
    def test_refuses_large_vertex_counts(self, rng):
        v = BRUTE_FORCE_MAX_V + 1
        s = random_sample(rng, v, 3)
        with pytest.raises(EnumerationRefusedError):
            one_sample_brute_force(s, half(v))
        with pytest.raises(EnumerationRefusedError):
            two_sample_brute_force(s, s)

    def test_accepts_boundary(self, rng):
        s = random_sample(rng, BRUTE_FORCE_MAX_V, 3)
        stat, _ = one_sample_brute_force(s, half(BRUTE_FORCE_MAX_V))
        assert stat.exact == one_sample_statistic(s, half(BRUTE_FORCE_MAX_V)).exact


def sample_with_counts(rng, v, n, counts):
    """A sample of n graphs in which pair a is an edge of counts[a] members."""
    mask = np.zeros((n, num_pairs(v)), dtype=bool)
    for a, c in enumerate(counts):
        mask[rng.permutation(n)[:c], a] = True
    return GraphSample.from_indicator_matrix(v, mask)


class TestBruteForceMaximizer:
    """Maximum and first maximizer agree with running-sum Gray-code walks."""

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_one_sample_random(self, rng, v):
        for _ in range(4 if v < 5 else 2):
            s = random_sample(rng, v, int(rng.integers(1, 9)))
            marg = EdgeMarginals(v, random_marginals(rng, v))
            stat, g = one_sample_brute_force(s, marg)
            assert (stat.exact, g.bits) == gray_one_sample_max(s, marg)

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_two_sample_random(self, rng, v):
        for _ in range(4 if v < 5 else 2):
            s = random_sample(rng, v, int(rng.integers(1, 7)))
            t = random_sample(rng, v, int(rng.integers(1, 7)))
            stat, g = two_sample_brute_force(s, t)
            assert (stat.exact, g.bits) == gray_two_sample_max(s, t)

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_every_graph_ties(self, rng, v):
        s = sample_with_counts(rng, v, 6, [3] * num_pairs(v))
        stat, g = one_sample_brute_force(s, half(v))
        assert (stat.exact, g.bits) == gray_one_sample_max(s, half(v)) == (0, 0)
        stat, g = two_sample_brute_force(s, s)
        assert (stat.exact, g.bits) == gray_two_sample_max(s, s) == (0, 0)

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_half_the_pairs_tie(self, rng, v):
        # Pairs with c_a = n/2 against p = 1/2 leave the gap unchanged when
        # flipped, so every maximum is attained by many graphs.
        E = num_pairs(v)
        tied = rng.random(E) < 0.5
        counts = np.where(tied, 4, rng.integers(0, 9, E))
        s = sample_with_counts(rng, v, 8, counts)
        stat, g = one_sample_brute_force(s, half(v))
        assert (stat.exact, g.bits) == gray_one_sample_max(s, half(v))
        t = sample_with_counts(rng, v, 4, np.where(tied, 2, rng.integers(0, 5, E)))
        stat, g = two_sample_brute_force(s, t)
        assert (stat.exact, g.bits) == gray_two_sample_max(s, t)


# Primes near 10^9, one per pair at v <= 4: the marginals' common denominator
# has about 54 digits, so the one-sample kernel's terms are Python integers.
BIG_PRIMES = (999_999_937, 1_000_000_007, 1_000_000_009, 999_999_929, 999_999_893,
              1_000_000_021)


def big_marginals(rng, v):
    return EdgeMarginals(v, [
        Fraction(int(rng.integers(1, d)), d) for d in BIG_PRIMES[:num_pairs(v)]
    ])


class TestGapFunctionsOnBigIntegers:
    """The gap functions on marginals whose kernel leaves int64."""

    @pytest.fixture(params=[(3, 5), (4, 3), (4, 8)], ids=["v3n5", "v4n3", "v4n8"])
    def case(self, rng, request):
        v, n = request.param
        s = random_sample(rng, v, n)
        marg = big_marginals(rng, v)
        assert not one_sample_kernel(n, marg).fast
        return s, marg

    def test_signed_gap_at_every_graph(self, case):
        s, marg = case
        for bits in range(1 << num_pairs(s.v)):
            g = Graph(s.v, bits)
            expected = exact_mean_distance(s, g) - exact_expected_distance(marg, g)
            assert signed_gap(s, marg, g) == expected

    def test_extremal_graphs_attain_the_closed_form(self, case):
        s, marg = case
        w = one_sample_statistic(s, marg).exact
        lo, hi = extremal_graphs(s, marg)
        assert signed_gap(s, marg, lo) == w
        assert signed_gap(s, marg, hi) == -w

    def test_maximizers_match_the_oracles(self, rng, case):
        s, marg = case
        stat, g = one_sample_brute_force(s, marg)
        assert (stat.exact, g.bits) == gray_one_sample_max(s, marg)
        assert stat.exact == literal_one_sample_max(s, marg)
        t = random_sample(rng, s.v, 7)
        stat, g = two_sample_brute_force(s, t)
        assert (stat.exact, g.bits) == gray_two_sample_max(s, t)
        assert stat.exact == literal_two_sample_max(s, t)


class TestTestStatisticType:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TestStatistic(0.0, Fraction(0), "three_sample", (1, 1))

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            TestStatistic(-1.0, Fraction(-1), "one_sample", (1, None))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closed_form_equals_brute_force_property(data):
    v = data.draw(st.integers(2, 4))
    E = num_pairs(v)
    n = data.draw(st.integers(1, 6))
    s = GraphSample(
        Graph(v, data.draw(st.integers(0, (1 << E) - 1))) for _ in range(n)
    )
    marg = EdgeMarginals(
        v,
        [
            Fraction(data.draw(st.integers(0, 8)), 8)
            for _ in range(E)
        ],
    )
    closed = one_sample_statistic(s, marg)
    brute, _ = one_sample_brute_force(s, marg)
    assert closed.exact == brute.exact
