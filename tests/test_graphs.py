"""Graph representation, distance, mean and covariance tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtest import (
    DimensionMismatchError,
    EdgeMarginals,
    EmptySampleError,
    Graph,
    GraphSample,
    InsufficientSampleError,
    canonical_pairs,
    edge_covariance,
    hamming_distance,
    mean_graph,
    num_pairs,
    pair_index,
)

from oracles import (
    naive_edge_count,
    naive_hamming,
    naive_triangle_count,
    naive_two_star_count,
    random_graph,
    random_sample,
)


def graphs_st(min_v=2, max_v=8):
    return st.integers(min_v, max_v).flatmap(
        lambda v: st.builds(
            Graph, st.just(v), st.integers(0, (1 << num_pairs(v)) - 1)
        )
    )


def graph_triples_st(max_v=8):
    def for_v(v):
        bits = st.integers(0, (1 << num_pairs(v)) - 1)
        return st.tuples(
            st.builds(Graph, st.just(v), bits),
            st.builds(Graph, st.just(v), bits),
            st.builds(Graph, st.just(v), bits),
        )

    return st.integers(2, max_v).flatmap(for_v)


class TestPairIndexing:
    @pytest.mark.parametrize("v,expected", [(2, 1), (3, 3), (5, 10), (10, 45)])
    def test_num_pairs(self, v, expected):
        assert num_pairs(v) == expected

    def test_canonical_order_v4(self):
        assert canonical_pairs(4) == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        )

    @pytest.mark.parametrize("v", range(2, 9))
    def test_pair_index_matches_enumeration(self, v):
        for slot, (i, j) in enumerate(canonical_pairs(v)):
            assert pair_index(v, i, j) == slot

    def test_pair_index_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            pair_index(4, 2, 2)
        with pytest.raises(ValueError):
            pair_index(4, 3, 1)
        with pytest.raises(ValueError):
            pair_index(4, 0, 4)


class TestGraphConstruction:
    def test_empty_and_complete(self):
        assert Graph.empty(4).edge_count() == 0
        assert Graph.complete(4).edge_count() == 6
        assert Graph.complete(4).edges() == canonical_pairs(4)

    def test_from_edges_normalizes_and_dedupes(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 0)])
        assert g.edges() == ((0, 1), (0, 2))
        assert g.edge_count() == 2

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_small_v_and_stray_bits(self):
        with pytest.raises(ValueError):
            Graph(1)
        with pytest.raises(ValueError):
            Graph(3, 1 << 3)
        with pytest.raises(ValueError):
            Graph(3, -1)

    def test_has_edge_ignores_orientation(self):
        g = Graph.from_edges(4, [(0, 3)])
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        assert not g.has_edge(1, 2)

    @given(graphs_st())
    def test_edges_round_trip(self, g):
        assert Graph.from_edges(g.v, g.edges()) == g

    @given(graphs_st())
    def test_indicator_row_round_trip(self, g):
        row = g.indicator_row()
        assert row.shape == (num_pairs(g.v),)
        assert set(np.unique(row)) <= {0, 1}
        assert Graph.from_indicator_row(g.v, row) == g

    def test_indicator_row_slot_order(self):
        g = Graph.from_edges(4, [(0, 1), (1, 3)])
        assert g.indicator_row().tolist() == [1, 0, 0, 0, 1, 0]

    def test_from_indicator_row_checks_length(self):
        with pytest.raises(DimensionMismatchError):
            Graph.from_indicator_row(4, [1, 0, 1])


class TestComplement:
    @given(graphs_st())
    def test_involution_and_disjoint_edges(self, g):
        h = g.complement()
        assert h.complement() == g
        assert g.edge_count() + h.edge_count() == num_pairs(g.v)
        assert hamming_distance(g, h) == num_pairs(g.v)

    def test_complement_of_empty_is_complete(self):
        assert Graph.empty(5).complement() == Graph.complete(5)


class TestHammingDistance:
    def test_identical_graphs(self, rng):
        for _ in range(10):
            g = random_graph(rng, 6)
            assert hamming_distance(g, g) == 0

    def test_empty_vs_complete_v3(self):
        assert hamming_distance(Graph.empty(3), Graph.complete(3)) == 3

    def test_single_flip(self):
        g = Graph.empty(4)
        h = Graph.from_edges(4, [(1, 2)])
        assert hamming_distance(g, h) == 1

    def test_matches_pairwise_comparison(self, rng):
        for _ in range(50):
            g, h = random_graph(rng, 6), random_graph(rng, 6)
            assert hamming_distance(g, h) == naive_hamming(g, h)

    def test_rejects_mixed_vertex_counts(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(Graph.empty(3), Graph.empty(4))

    @given(graph_triples_st())
    def test_metric_properties(self, triple):
        g, h, k = triple
        d = hamming_distance
        assert d(g, h) == d(h, g)
        assert (d(g, h) == 0) == (g == h)
        assert d(g, k) <= d(g, h) + d(h, k)
        assert 0 <= d(g, h) <= num_pairs(g.v)


class TestStructureCounts:
    def test_complete_v4(self):
        g = Graph.complete(4)
        assert g.triangle_count() == 4
        assert g.two_star_count() == 12

    def test_triangle_free_graphs(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert path.triangle_count() == 0
        assert path.two_star_count() == 2
        assert star.triangle_count() == 0
        assert star.two_star_count() == 3

    def test_counts_match_triple_enumeration(self, rng):
        for _ in range(25):
            g = random_graph(rng, 7)
            assert g.edge_count() == naive_edge_count(g)
            assert g.triangle_count() == naive_triangle_count(g)
            assert g.two_star_count() == naive_two_star_count(g)

    def test_degrees_sum_to_twice_edges(self, rng):
        for _ in range(20):
            g = random_graph(rng, 6)
            assert sum(g.degrees()) == 2 * g.edge_count()
        assert Graph.complete(5).degrees() == [4] * 5

    @given(
        graphs_st(max_v=7),
        st.randoms(use_true_random=False),
    )
    def test_relabel_preserves_counts(self, g, rand):
        perm = list(range(g.v))
        rand.shuffle(perm)
        h = g.relabel(perm)
        assert h.edge_count() == g.edge_count()
        assert h.triangle_count() == g.triangle_count()
        assert h.two_star_count() == g.two_star_count()
        assert sorted(h.degrees()) == sorted(g.degrees())

    def test_relabel_moves_edges(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.relabel([2, 1, 0]).edges() == ((1, 2),)
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])


class TestGraphSample:
    def test_rejects_empty(self):
        with pytest.raises(EmptySampleError):
            GraphSample([])

    def test_rejects_mixed_vertex_counts(self):
        with pytest.raises(DimensionMismatchError):
            GraphSample([Graph.empty(3), Graph.empty(4)])

    def test_basic_accessors(self, rng):
        members = [random_graph(rng, 5) for _ in range(4)]
        s = GraphSample(members)
        assert len(s) == s.n == 4
        assert list(s) == members
        assert s[2] == members[2]
        assert s.v == 5

    def test_edge_counts_match_member_loop(self, rng):
        s = random_sample(rng, 6, 9)
        expected = [
            sum(1 for g in s if g.has_edge(i, j))
            for i, j in canonical_pairs(6)
        ]
        assert s.edge_counts.tolist() == expected
        assert s.indicator_matrix().shape == (9, 15)

    @pytest.mark.parametrize("v", [2, 5, 10])
    def test_from_indicator_matrix_inverts_indicator_matrix(self, rng, v):
        s = random_sample(rng, v, 7)
        rows = np.vstack([g.indicator_row() for g in s])
        rebuilt = GraphSample.from_indicator_matrix(v, rows.astype(bool))
        assert rebuilt == s
        assert np.array_equal(rebuilt.indicator_matrix(), rows)
        assert rebuilt.indicator_matrix().dtype == rows.dtype
        assert rebuilt.edge_counts.tolist() == s.edge_counts.tolist()

    @pytest.mark.parametrize("v", [2, 9, 24])
    def test_both_constructions_give_the_same_matrix(self, rng, v):
        rows = (rng.random((13, num_pairs(v))) < 0.4).astype(np.uint8)
        rows[3], rows[7] = 0, 1
        members = [Graph.from_indicator_row(v, row) for row in rows]
        s = GraphSample(members)
        rebuilt = GraphSample.from_indicator_matrix(v, rows)
        for sample in (s, rebuilt):
            assert sample.indicator_matrix().dtype == np.uint8
            assert np.array_equal(sample.indicator_matrix(), rows)
            assert sample.edge_counts.tolist() == rows.sum(axis=0).tolist()
        assert rebuilt == s

    def test_indicator_matrix_is_read_only(self, rng):
        mask = rng.random((4, 10)) < 0.5
        for s in (random_sample(rng, 5, 4), GraphSample.from_indicator_matrix(5, mask)):
            matrix = s.indicator_matrix()
            assert s.indicator_matrix() is matrix
            with pytest.raises(ValueError):
                matrix[0, 0] = 1 - matrix[0, 0]
            with pytest.raises(ValueError):
                matrix[:] = 0
        # The caller's mask stays the caller's: changing it changes no sample.
        s = GraphSample.from_indicator_matrix(5, mask)
        before = s.indicator_matrix().copy()
        mask[:] = ~mask
        assert np.array_equal(s.indicator_matrix(), before)

    def test_from_indicator_matrix_checks_shape(self):
        with pytest.raises(DimensionMismatchError):
            GraphSample.from_indicator_matrix(4, np.zeros((3, 5), dtype=bool))
        with pytest.raises(EmptySampleError):
            GraphSample.from_indicator_matrix(4, np.zeros((0, 6), dtype=bool))


class TestGraphSampleMembers:
    """Members are read from the indicator matrix one row at a time."""

    @pytest.mark.parametrize("v", [2, 5, 12])
    def test_both_constructions_index_iterate_and_compare_alike(self, rng, v):
        rows = (rng.random((6, num_pairs(v))) < 0.5).astype(np.uint8)
        members = [Graph.from_indicator_row(v, row) for row in rows]
        built = GraphSample(members)
        rebuilt = GraphSample.from_indicator_matrix(v, rows)
        for s in (built, rebuilt):
            assert list(s) == members
            for k in range(-6, 6):
                assert s[k] == members[k]
            assert s[np.int64(3)] == members[3]
        assert built == rebuilt and rebuilt == built
        changed = rows.copy()
        changed[2] = 1 - changed[2]
        assert GraphSample.from_indicator_matrix(v, changed) != built
        assert GraphSample(members[:5]) != built
        assert built != members

    def test_index_out_of_range(self, rng):
        s = random_sample(rng, 4, 3)
        for k in (3, -4):
            with pytest.raises(IndexError):
                s[k]

    def test_slices_and_non_integers_are_refused(self, rng):
        s = random_sample(rng, 4, 3)
        for k in (slice(1, 3), slice(None), 1.0, "0"):
            with pytest.raises(TypeError):
                s[k]

    def test_from_indicator_matrix_needs_two_vertices(self):
        with pytest.raises(ValueError, match="2 vertices"):
            GraphSample.from_indicator_matrix(1, np.zeros((3, 0), dtype=bool))


class TestMeanGraph:
    def test_repeated_graph_recovers_indicators(self, rng):
        g = random_graph(rng, 5)
        m = mean_graph(GraphSample([g, g, g]))
        for i, j in canonical_pairs(5):
            assert m.fraction(i, j) == (1 if g.has_edge(i, j) else 0)

    def test_empty_and_complete_average_to_half(self):
        m = mean_graph(GraphSample([Graph.empty(3), Graph.complete(3)]))
        assert m.fractions == (Fraction(1, 2),) * 3

    def test_entries_are_counts_over_n(self, rng):
        s = random_sample(rng, 5, 20)
        m = mean_graph(s)
        for slot, (i, j) in enumerate(canonical_pairs(5)):
            count = sum(1 for g in s if g.has_edge(i, j))
            assert m.fractions[slot] == Fraction(count, 20)


class TestEdgeMarginals:
    def test_validates_range_and_length(self):
        with pytest.raises(ValueError):
            EdgeMarginals(3, [0.5, 0.5, 1.5])
        with pytest.raises(DimensionMismatchError):
            EdgeMarginals(3, [0.5, 0.5])

    def test_float_entries_keep_their_binary_value(self):
        m = EdgeMarginals(2, [0.1])
        assert m.fractions[0] == Fraction(0.1)
        assert m.fractions[0] != Fraction(1, 10)

    def test_common_ratio(self):
        m = EdgeMarginals(3, [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
        nums, den = m.common_ratio()
        assert den == 6
        assert nums == [3, 2, 4]

    def test_accessors_ignore_orientation(self):
        m = EdgeMarginals(3, [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
        assert m.fraction(1, 0) == Fraction(1, 4)
        assert m.value(2, 1) == 0.75
        assert m.as_array().tolist() == [0.25, 0.5, 0.75]

    def test_constant(self):
        m = EdgeMarginals.constant(4, Fraction(1, 3))
        assert m.fractions == (Fraction(1, 3),) * 6


class TestEdgeCovariance:
    def test_requires_two_graphs(self):
        with pytest.raises(InsufficientSampleError):
            edge_covariance(GraphSample([Graph.empty(3)]))

    def test_constant_sample_has_zero_covariance(self, rng):
        g = random_graph(rng, 4)
        cov = edge_covariance(GraphSample([g, g, g]))
        assert np.allclose(cov.matrix, 0.0)

    def test_hand_worked_three_graph_sample(self):
        s = GraphSample([
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(3, [(0, 1), (0, 2)]),
            Graph.empty(3),
        ])
        cov = edge_covariance(s)
        expected = np.array([
            [1 / 3, 1 / 6, 0.0],
            [1 / 6, 1 / 3, 0.0],
            [0.0, 0.0, 0.0],
        ])
        assert np.allclose(cov.matrix, expected, atol=1e-12)
        assert cov.entry((0, 1), (0, 2)) == pytest.approx(1 / 6)

    def test_diagonal_bounded_by_bernoulli_maximum(self, rng):
        for n in (2, 5, 17):
            s = random_sample(rng, 5, n)
            diag = edge_covariance(s).diagonal()
            assert np.all(diag >= -1e-12)
            assert np.all(diag <= n / (4 * (n - 1)) + 1e-12)

    def test_matrix_is_symmetric(self, rng):
        cov = edge_covariance(random_sample(rng, 6, 8))
        assert np.allclose(cov.matrix, cov.matrix.T)
