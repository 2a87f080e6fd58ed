"""Windowed rank-correlation pipeline from recordings to graph samples."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphtest import (
    ChannelMatrix,
    CorrelationSeries,
    DimensionMismatchError,
    Graph,
    GraphSample,
    InsufficientSampleError,
    ThresholdSpec,
    UndefinedCorrelationError,
    WindowSpec,
    build_graphs,
    canonical_pairs,
    correlation_series,
    pair_quartiles,
    spearman,
    summary_graph,
)
from graphtest.inference import BLOCK_CELLS
from graphtest.timeseries import (
    _key_dtype,
    _linear_quartiles,
    _rank_keys,
    _window_bounds,
    average_ranks,
)

from oracles import (
    FIXTURE_EDGE_WINDOWS,
    FIXTURE_LABELS,
    FIXTURE_QUARTILES,
    FIXTURE_RATE,
    FIXTURE_SERIES,
    fixture_values,
    quartile_oracle,
    spearman_oracle,
    window_bounds_oracle,
    window_correlation_oracle,
)


@pytest.fixture
def fixture_matrix():
    return ChannelMatrix(FIXTURE_LABELS, fixture_values(), FIXTURE_RATE)


@pytest.fixture
def fixture_window():
    return WindowSpec(width_ms=5.0, step_ms=5.0)


class TestChannelMatrix:
    def test_accessors(self, fixture_matrix):
        assert fixture_matrix.n_channels == 3
        assert fixture_matrix.n_samples == 20
        assert fixture_matrix.labels == ("c1", "c2", "c3")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelMatrix(["a"], np.zeros((5, 1)), 100.0)
        with pytest.raises(ValueError):
            ChannelMatrix(["a", "a"], np.zeros((5, 2)), 100.0)
        with pytest.raises(DimensionMismatchError):
            ChannelMatrix(["a", "b"], np.zeros((5, 3)), 100.0)
        with pytest.raises(ValueError):
            ChannelMatrix(["a", "b"], [[1.0, np.nan]], 100.0)
        with pytest.raises(ValueError):
            ChannelMatrix(["a", "b"], np.zeros((5, 2)), 0.0)

    @pytest.mark.parametrize("rate", [0.0, -250.0, math.nan, math.inf])
    def test_sampling_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="sampling_rate must be positive and finite"):
            ChannelMatrix(["a", "b"], [[1.0, 2.0]], rate)


class TestSpearman:
    def test_monotone_sequences(self):
        x = [3.0, 5.0, 9.0, 11.0]
        assert spearman(x, [1.0, 4.0, 16.0, 64.0]) == 1.0
        assert spearman(x, [2.0, 0.0, -3.0, -9.0]) == -1.0

    def test_matches_rank_pearson_oracle(self, rng):
        for _ in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert spearman(x, y) == pytest.approx(
                spearman_oracle(list(x), list(y)), abs=1e-12
            )

    def test_tied_values_get_average_ranks(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [4.0, 2.0, 2.0, 1.0]
        assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_known_permutation_value(self):
        assert spearman(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 2.0, 5.0, 4.0]
        ) == pytest.approx(0.8, abs=1e-12)

    def test_equals_corrcoef_of_average_ranks_bit_for_bit(self, rng):
        for _ in range(300):
            L = int(rng.integers(2, 40))
            x = rng.integers(0, 4, L).astype(float)
            y = rng.integers(0, 6, L).astype(float)
            if x.min() == x.max() or y.min() == y.max():
                continue
            ranks = np.column_stack([average_ranks(x), average_ranks(y)])
            rho = float(np.corrcoef(ranks, rowvar=False)[0, 1])
            assert spearman(x, y) == min(1.0, max(-1.0, rho))

    def test_constant_sequence_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientSampleError):
            spearman([1.0], [2.0])


class TestWindowing:
    def test_fixture_produces_four_windows(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        assert cs.n_windows == 4
        assert cs.undefined == ()

    def test_window_count_follows_step(self):
        m = ChannelMatrix(["a", "b"], np.random.default_rng(0).normal(size=(100, 2)), 50.0)
        # 100 samples at 50 Hz: 400 ms windows are 20 samples; 100 ms steps are 5.
        cs = correlation_series(m, WindowSpec(width_ms=400.0, step_ms=100.0))
        assert cs.n_windows == (100 - 20) // 5 + 1

    def test_full_length_window(self, fixture_matrix):
        cs = correlation_series(fixture_matrix, WindowSpec(width_ms=20.0, step_ms=5.0))
        assert cs.n_windows == 1

    def test_window_longer_than_recording(self, fixture_matrix):
        with pytest.raises(InsufficientSampleError):
            correlation_series(fixture_matrix, WindowSpec(width_ms=21.0, step_ms=5.0))

    def test_window_below_two_samples(self, fixture_matrix):
        with pytest.raises(ValueError):
            correlation_series(fixture_matrix, WindowSpec(width_ms=1.0, step_ms=5.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(width_ms=0.0)
        with pytest.raises(ValueError):
            WindowSpec(step_ms=-1.0)

    @pytest.mark.parametrize(
        "width,step", [(math.inf, 5.0), (5.0, math.inf), (math.nan, 5.0), (5.0, math.nan)]
    )
    def test_spec_requires_finite_values(self, width, step):
        with pytest.raises(ValueError, match="positive and finite"):
            WindowSpec(width_ms=width, step_ms=step)


class TestWindowBoundsMatchFractionLoop:
    @pytest.mark.parametrize(
        "n_samples,rate,width_ms,step_ms",
        [
            (7500, 250.0, 333.0, 16.66),  # the default geometry
            (2000, 256.0, 333.0, 16.66),
            (500, 1000.0, 4.5, 2.5),  # starts and ends on half samples
            (301, 200.0, 12.5, 7.5),  # half-sample width and step
            (50, 100.0, 500.0, 10.0),  # one window spanning the recording
            (1000, 333.3, 100.0, 3.1),  # non-dyadic rate, 1.03-sample step
        ],
    )
    def test_integer_bounds_equal_fraction_bounds(
        self, n_samples, rate, width_ms, step_ms
    ):
        bounds = _window_bounds(n_samples, rate, WindowSpec(width_ms, step_ms))
        assert bounds == window_bounds_oracle(n_samples, rate, width_ms, step_ms)


class TestWindowStepRule:
    # 1000/rate in floats is below one sample at 60.02 and 44100 Hz, exact
    # at 250 and 333.3 Hz.
    @pytest.mark.parametrize("rate", [250.0, 333.3, 60.02, 44100.0])
    def test_the_named_shortest_step_is_accepted(self, rate):
        width_ms = 10_000 / rate  # ten samples
        with pytest.raises(ValueError) as exc:
            _window_bounds(1000, rate, WindowSpec(width_ms, 1e-3))
        shortest = float(str(exc.value).rsplit(" is ", 1)[1].removesuffix(" ms"))
        bounds = _window_bounds(1000, rate, WindowSpec(width_ms, shortest))
        starts = [a for a, _ in bounds]
        assert len(set(starts)) == len(starts)
        with pytest.raises(ValueError, match="shorter than one sample"):
            _window_bounds(1000, rate, WindowSpec(width_ms, math.nextafter(shortest, 0)))

    def test_default_step_needs_60_hz(self):
        assert _window_bounds(100, 61.0, WindowSpec())
        with pytest.raises(ValueError, match="shorter than one sample"):
            _window_bounds(100, 60.0, WindowSpec())


class TestAverageRanks:
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (9,), (40,), (6, 33), (3, 5, 84), (0,), (3, 0)]
    )
    def test_matches_scipy_rankdata_on_tie_heavy_arrays(self, rng, shape):
        for levels in (2, 5, 1000):
            x = rng.integers(0, levels, size=shape) * 0.5 - 1.0
            assert np.array_equal(average_ranks(x), scipy.stats.rankdata(x, axis=-1))

    @pytest.mark.parametrize("shape", [(1,), (2,), (3, 5, 84), (32, 24, 83)])
    def test_matches_scipy_rankdata_where_a_few_rows_tie(self, rng, shape):
        """Full-precision rows, a few with one duplicated value or a
        0.0, -0.0 pair, so one call ranks tied and untied rows."""
        L = shape[-1]
        for _ in range(5):
            x = rng.normal(size=shape)
            rows = x.reshape(-1, L)
            for r in rng.choice(len(rows), size=min(4, len(rows)), replace=False):
                if L > 1:
                    a, b = rng.choice(L, size=2, replace=False)
                    if rng.random() < 0.5:
                        rows[r, a] = rows[r, b]
                    else:
                        rows[r, a], rows[r, b] = 0.0, -0.0
            assert np.array_equal(average_ranks(x), scipy.stats.rankdata(x, axis=-1))

    def test_signed_zeros_tie(self):
        assert average_ranks([0.0, -0.0, 1.0]).tolist() == [1.5, 1.5, 3.0]

    def test_tie_groups_end_at_the_row(self):
        """The last value of one sorted row equals the first of the next."""
        ranks = average_ranks([[1.0, 2.0, 2.0], [2.0, 2.0, 3.0], [2.0, 4.0, 5.0]])
        assert ranks.tolist() == [[1.0, 2.5, 2.5], [1.5, 1.5, 3.0], [1.0, 2.0, 3.0]]


class TestBlockedCorrelationsMatchWindowLoop:
    """correlation_series against the per-window rankdata/corrcoef loop, bit for bit."""

    @staticmethod
    def check(values, rate, width_ms=333.0, step_ms=16.66):
        labels = [f"c{k}" for k in range(values.shape[1])]
        cs = correlation_series(
            ChannelMatrix(labels, values, rate), WindowSpec(width_ms, step_ms)
        )
        expected, undefined, windows = window_correlation_oracle(
            values, rate, width_ms, step_ms
        )
        assert cs.windows == tuple(windows)
        assert np.array_equal(cs.values.view(np.int64), expected.view(np.int64))
        assert list(cs.undefined) == undefined
        return cs

    def test_ties_and_constant_stretches_over_several_blocks(self, rng):
        values = np.round(rng.normal(size=(2400, 6)).cumsum(axis=0) * 0.2, 1)
        values[300:420, 2] = 1.5  # constant through some whole windows
        values[1000:1090, 4] = -0.5
        cs = self.check(values, 250.0)
        lengths = [b - a for a, b in cs.windows]
        assert set(lengths) == {83, 84}
        for L in (83, 84):
            assert lengths.count(L) > BLOCK_CELLS // (6 * L)  # several blocks
        assert cs.undefined

    def test_blocks_holding_tied_and_untied_windows(self, rng):
        """Full-precision values with a few duplicates: each one ties a
        channel in the ~13 windows that hold both copies, among the 100 or
        more untied windows of its block."""
        values = rng.normal(size=(2400, 6))
        for start, channel in ((150, 1), (900, 4), (1700, 0), (2100, 3)):
            values[start + 30, channel] = values[start, channel]
        values[1300, 2], values[1340, 2] = 0.0, -0.0
        values[600:700, 5] = 0.75
        cs = self.check(values, 250.0)
        tied = [
            w for w, (a, b) in enumerate(cs.windows)
            if any(len(set(values[a:b, k].tolist())) < b - a for k in range(5))
        ]
        assert 0 < len(tied) < len(cs.windows) // 5
        assert cs.undefined

    def test_two_channels(self, rng):
        values = np.round(rng.normal(size=(700, 2)), 1)
        values[100:200, 0] = 0.0
        self.check(values, 250.0)

    def test_half_sample_geometry(self, rng):
        self.check(rng.normal(size=(400, 5)), 1000.0, width_ms=12.5, step_ms=7.5)

    def test_signed_zeros_inside_one_window(self, rng):
        """0.0 and -0.0 share one dense rank, so they tie in every window
        holding both, as they do in rankdata."""
        values = rng.normal(size=(600, 4))
        values[200, 1], values[230, 1] = 0.0, -0.0
        values[400, 3], values[401, 3], values[450, 3] = -0.0, 0.0, -0.0
        self.check(values, 250.0)

    def test_values_repeated_only_outside_any_one_window(self, rng):
        """Every channel repeats values, but no value twice inside one
        window: rows holding repeated samples, whether scanned for ties or
        not, must rank as if every value were distinct."""
        values = rng.normal(size=(1200, 5))
        for k in range(5):
            values[600:700, k] = values[:100, k]  # 600 samples apart
        values[1000, 2] = values[1100, 2] = values[300, 2]
        cs = self.check(values, 250.0)
        assert not cs.undefined
        for a, b in cs.windows:
            block = values[a:b]
            assert all(len(set(block[:, k].tolist())) == b - a for k in range(5))

    def test_repeats_inside_one_window(self, rng):
        """Ties of every size, at the ends and in the middle of the sorted
        rows, in windows of both lengths."""
        values = rng.normal(size=(1500, 4))
        values[100:110, 0] = values[105, 0]  # a run of ten equal values
        values[300:1300:7, 1] = values[300, 1]  # ties with the channel's minimum
        values[:, 1] = np.maximum(values[:, 1], values[300, 1])
        values[500:540:3, 2] = values[520, 2]  # equal values among others
        values[800, 3] = values[820, 3] = values[840, 3]
        values[900, 3] = values[910, 3]
        cs = self.check(values, 250.0)
        assert {b - a for a, b in cs.windows} == {83, 84}

    def test_constant_stretch_across_a_block_boundary(self, rng):
        """A channel constant through the last windows of one block and the
        first of the next."""
        v, L = 6, 83
        values = np.round(rng.normal(size=(2000, v)), 2)
        windows = _window_bounds(2000, 250.0, WindowSpec())
        rows = [w for w, (a, b) in enumerate(windows) if b - a == L]
        first = rows[BLOCK_CELLS // (v * L)]  # the second block's first window
        a = windows[first][0]
        values[a - 40:a + 130, 4] = 0.5
        cs = self.check(values, 250.0)
        constant = {w for w, p in cs.undefined if p == canonical_pairs(v).index((0, 4))}
        assert first in constant and rows[rows.index(first) - 1] in constant

    @pytest.mark.parametrize("width_ms", [255.0, 256.0, 300.0])
    def test_long_windows(self, rng, width_ms):
        """Windows of 255 samples rank in float32; from 256 samples on, where
        L**3 >= 2**24, ranks and products are float64."""
        values = np.round(rng.normal(size=(1400, 4)), 1)
        values[600:900, 2] = -1.0
        cs = self.check(values, 1000.0, width_ms=width_ms, step_ms=40.0)
        assert {b - a for a, b in cs.windows} == {int(width_ms)}
        assert cs.undefined

    def test_memory_is_bounded_by_the_result(self):
        """32 channels x 25 000 samples: the working set beyond the
        (windows x pairs) result stays small because windows go in blocks."""
        values = np.random.default_rng(3).normal(size=(25_000, 32))
        m = ChannelMatrix([f"c{k}" for k in range(32)], values, 250.0)
        tracemalloc.start()
        try:
            cs = correlation_series(m, WindowSpec())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - cs.values.nbytes < 16 * 2**20


class TestRankKeys:
    def test_key_width_switches_to_int64_at_2_to_the_31(self):
        """Keys (g << b) | position up to 2**31 - 1 are int32; one more
        rank level needs int64."""
        assert (((2**24 - 1) << 7) | 127) == 2**31 - 1
        assert _key_dtype(2**24 - 1, 7) is np.int32
        assert _key_dtype(2**24, 7) is np.int64
        assert _key_dtype(2**31 - 1, 0) is np.int32
        assert _key_dtype(2**31, 0) is np.int64
        assert _key_dtype(2**55 - 1, 8) is np.int64
        with pytest.raises(AssertionError):
            _key_dtype(2**55, 8)

    def test_int64_keys_rank_like_int32_keys(self, rng):
        """Dense ranks past int32, shifted past bit 31, give the same ranks."""
        L, b = 40, 6
        g = rng.integers(0, 12, size=(50, L))
        ties = np.ones(50, bool)
        small = _rank_keys((g << b).astype(np.int32), b, ties, np.float64)
        large = _rank_keys((g + 2**40) << b, b, ties, np.float64)
        assert np.array_equal(small, scipy.stats.rankdata(g, axis=-1))
        assert np.array_equal(large, small)

    def test_rows_left_out_of_the_tie_scan_get_ordinal_ranks(self):
        keys = np.array([[2, 1, 2], [3, 3, 3]]) << 2
        ranks = _rank_keys(keys, 2, np.array([False, True]), np.float64)
        assert ranks.tolist() == [[2.0, 1.0, 3.0], [2.0, 2.0, 2.0]]


class TestCorrelationSeries:
    def test_fixture_series_match_hand_values(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        for (i, j), expected in FIXTURE_SERIES.items():
            assert cs.pair_series(i, j) == pytest.approx(expected, abs=1e-12)

    def test_windows_match_direct_spearman_calls(self, rng):
        m = ChannelMatrix(
            ["a", "b", "c", "d"], rng.normal(size=(60, 4)), 200.0
        )
        spec = WindowSpec(width_ms=50.0, step_ms=25.0)
        cs = correlation_series(m, spec)
        # 50 ms at 200 Hz is 10 samples, stepping by 5.
        for w in range(cs.n_windows):
            block = m.values[5 * w : 5 * w + 10]
            for slot, (i, j) in enumerate(canonical_pairs(4)):
                assert cs.values[w, slot] == pytest.approx(
                    spearman(block[:, i], block[:, j]), abs=1e-12
                )

    def test_identical_channels_correlate_perfectly(self):
        base = np.arange(30.0)
        m = ChannelMatrix(
            ["a", "b"], np.column_stack([base, base + 3.0]), 100.0
        )
        cs = correlation_series(m, WindowSpec(width_ms=100.0, step_ms=50.0))
        assert cs.values == pytest.approx(np.ones_like(cs.values), abs=1e-12)

    def test_constant_window_recorded_as_undefined_zero(self):
        values = np.column_stack([
            np.concatenate([np.zeros(10), np.arange(10.0)]),
            np.arange(20.0),
            np.arange(20.0) ** 2,
        ])
        m = ChannelMatrix(["a", "b", "c"], values, 1000.0)
        cs = correlation_series(m, WindowSpec(width_ms=10.0, step_ms=10.0))
        # Channel a is constant in the first window: both its pairs are
        # reported undefined and set to 0; the (b, c) pair is untouched.
        assert (0, 0) in cs.undefined and (0, 1) in cs.undefined
        assert (0, 2) not in cs.undefined
        assert cs.values[0, 0] == 0.0 and cs.values[0, 1] == 0.0
        assert cs.values[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert cs.undefined == tuple(sorted(cs.undefined))

    def test_values_stay_in_unit_interval(self, rng):
        m = ChannelMatrix(["a", "b", "c"], rng.normal(size=(40, 3)), 100.0)
        cs = correlation_series(m, WindowSpec(width_ms=80.0, step_ms=40.0))
        assert np.all(cs.values >= -1.0) and np.all(cs.values <= 1.0)

    def test_type_validation(self):
        with pytest.raises(DimensionMismatchError):
            CorrelationSeries(["a", "b"], np.zeros((3, 2)), windows=((0, 5), (5, 10), (10, 15)))
        with pytest.raises(ValueError):
            CorrelationSeries(["a", "b"], np.full((2, 1), 1.5), windows=((0, 5), (5, 10)))


class TestPairQuartiles:
    def test_five_point_example(self):
        assert pair_quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)

    def test_constant_series(self):
        assert pair_quartiles([0.3, 0.3, 0.3, 0.3]) == (0.3, 0.3)

    def test_matches_interpolation_oracle(self, rng):
        for size in (4, 7, 10, 25):
            series = rng.uniform(-1, 1, size=size)
            q1, q3 = pair_quartiles(series)
            assert q1 == pytest.approx(quartile_oracle(series, 0.25), abs=1e-12)
            assert q3 == pytest.approx(quartile_oracle(series, 0.75), abs=1e-12)

    def test_fixture_quartiles(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        for slot, pair in enumerate(canonical_pairs(3)):
            q1, q3 = pair_quartiles(cs.values[:, slot])
            assert (q1, q3) == pytest.approx(FIXTURE_QUARTILES[pair], abs=1e-12)

    @given(hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 60), st.integers(1, 4)),
        # Few distinct values, so ties and signed zeros are common.
        elements=st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0, 1e300, -1e300,
                                  float("nan"), 0.1]) | st.floats(-1, 1),
    ))
    @settings(max_examples=200, deadline=None)
    def test_quartiles_equal_numpy_quantile_bit_for_bit(self, values):
        with np.errstate(all="ignore"):
            want = np.quantile(values, [0.25, 0.75], axis=0, method="linear")
            got = np.stack(_linear_quartiles(values))
            column = np.stack(_linear_quartiles(values[:, 0]))
        same = (got == want) & (np.signbit(got) == np.signbit(want))
        assert (same | np.isnan(got) & np.isnan(want)).all()
        assert np.array_equal(column, got[:, 0], equal_nan=True)

    def test_requires_four_windows(self):
        # One rule for a single pair and for every pair of a series.
        cs = CorrelationSeries(["a", "b"], np.zeros((3, 1)), ((0, 5), (5, 10), (10, 15)))
        for call in (lambda: pair_quartiles([0.1, 0.2, 0.3]),
                     lambda: ThresholdSpec.from_series(cs)):
            with pytest.raises(InsufficientSampleError) as exc:
                call()
            assert str(exc.value) == "need at least 4 values for quartiles, got 3"


class TestThresholdsAndGraphs:
    def test_fixture_edges(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        th = ThresholdSpec.from_series(cs, c=0.5)
        sample = build_graphs(cs, th)
        assert sample.n == 4
        for pair, windows in FIXTURE_EDGE_WINDOWS.items():
            for w in range(4):
                assert sample[w].has_edge(*pair) == (w in windows)

    def test_strong_positive_and_negative_rho_become_edges(self):
        # Two anti-correlated channels and two copies of a ramp: the ramp
        # pair always correlates at 1, the anti pair at -1.
        base = np.arange(20.0)
        m = ChannelMatrix(
            ["a", "b", "c"],
            np.column_stack([base, -base, base**3]),
            1000.0,
        )
        cs = correlation_series(m, WindowSpec(width_ms=5.0, step_ms=5.0))
        sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=0.5))
        assert all(g == Graph.complete(3) for g in sample)

    def test_weak_correlations_make_no_edges(self, rng):
        # Quartiles inside (-c, c) leave thresholds at +-c; keep rho below it.
        values = np.zeros((16, 2))
        values[:, 0] = np.tile([1.0, 2.0, 3.0, 4.0], 4)
        # Rank sums of squared differences 6, 6, 10, 14: rho 0.4, 0.4, 0, -0.4.
        values[:, 1] = np.concatenate([
            [1.0, 4.0, 2.0, 3.0],
            [3.0, 1.0, 2.0, 4.0],
            [2.0, 4.0, 1.0, 3.0],
            [2.0, 4.0, 3.0, 1.0],
        ])
        m = ChannelMatrix(["a", "b"], values, 1000.0)
        cs = correlation_series(m, WindowSpec(width_ms=4.0, step_ms=4.0))
        assert np.all(np.abs(cs.values) < 0.5)
        sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=0.5))
        assert all(g == Graph.empty(2) for g in sample)

    def test_raising_c_never_adds_edges(self, rng):
        m = ChannelMatrix(["a", "b", "c", "d"], rng.normal(size=(80, 4)), 100.0)
        cs = correlation_series(m, WindowSpec(width_ms=100.0, step_ms=50.0))
        prev = None
        for c in (0.2, 0.5, 0.8):
            sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=c))
            bits = [g.bits for g in sample]
            if prev is not None:
                assert all(b & ~p == 0 for b, p in zip(bits, prev))
            prev = bits

    def test_edge_frequency_bounded_by_mass_outside_quartiles(self, rng):
        m = ChannelMatrix(["a", "b", "c"], rng.normal(size=(120, 3)), 100.0)
        cs = correlation_series(m, WindowSpec(width_ms=100.0, step_ms=20.0))
        th = ThresholdSpec.from_series(cs, c=0.5)
        sample = build_graphs(cs, th)
        for slot, (i, j) in enumerate(canonical_pairs(3)):
            series = cs.values[:, slot]
            q1, q3 = pair_quartiles(series)
            outside = np.mean((series >= q3) | (series <= q1))
            freq = np.mean([g.has_edge(i, j) for g in sample])
            assert freq <= outside + 1e-12

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdSpec(0.0, [0.1], [0.2])
        with pytest.raises(ValueError):
            ThresholdSpec(0.5, [0.4], [0.1])
        with pytest.raises(DimensionMismatchError):
            ThresholdSpec(0.5, [0.1, 0.2], [0.3])


class TestSummaryGraph:
    def test_constant_sample_keeps_its_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        summary = summary_graph(GraphSample([g] * 6), k=2)
        assert summary.graph == g
        assert summary.frequencies == (((0, 1), 1.0), ((2, 3), 1.0))

    def test_orders_by_frequency_then_pair(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=0.5))
        summary = summary_graph(sample, k=3)
        assert summary.frequencies == (
            ((1, 2), 0.75),
            ((0, 1), 0.5),
            ((0, 2), 0.5),
        )
        assert summary.graph == Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])

    def test_takes_top_k_only(self, fixture_matrix, fixture_window):
        cs = correlation_series(fixture_matrix, fixture_window)
        sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=0.5))
        summary = summary_graph(sample, k=1)
        assert summary.graph == Graph.from_edges(3, [(1, 2)])

    def test_matches_sorting_oracle(self, rng):
        from oracles import random_sample

        s = random_sample(rng, 5, 12)
        k = 4
        summary = summary_graph(s, k)
        counts = {
            pair: sum(g.has_edge(*pair) for g in s)
            for pair in canonical_pairs(5)
        }
        expected = sorted(counts, key=lambda pair: (-counts[pair], pair))[:k]
        assert summary.frequencies == tuple(
            (pair, counts[pair] / 12) for pair in expected
        )

    def test_k_bounds(self, rng):
        from oracles import random_sample

        s = random_sample(rng, 4, 3)
        assert summary_graph(s, 0).graph == Graph.empty(4)
        assert summary_graph(s, 6).graph.edge_count() <= 6
        with pytest.raises(ValueError):
            summary_graph(s, 7)
        with pytest.raises(ValueError):
            summary_graph(s, -1)


class TestPipelineDeterminism:
    def test_same_input_same_graphs(self, fixture_matrix, fixture_window):
        runs = []
        for _ in range(2):
            cs = correlation_series(fixture_matrix, fixture_window)
            sample = build_graphs(cs, ThresholdSpec.from_series(cs, c=0.5))
            runs.append([g.bits for g in sample])
        assert runs[0] == runs[1]
