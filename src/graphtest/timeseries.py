"""Graph construction from multichannel time series.

The pipeline slides a fixed-width window over the recording, computes a
Spearman correlation for every channel pair inside each window, and turns
each window into a graph: channels are vertices and an edge appears when the
correlation is extreme relative to both a fixed constant and the quartiles of
that pair's own correlation series.

Window geometry is specified in milliseconds and converted through the
sampling rate. Start and end positions are computed in exact integer
arithmetic per window and rounded to the nearest sample independently, so a
non-integer step (the default is 16.66 ms) never accumulates drift.

Windows are ranked from per-channel global ranks. Each channel's whole
series is sorted once, and every sample gets g, the dense rank of its value
in its channel: equal values (0.0 and -0.0 included) share one g, so inside
any window, ordering samples by g orders them by value, with the same ties.
A sample's key is ``(g << b) | position``, with b = (L-1).bit_length() for
the longest window L. Keys are int32 while (max g + 1) * 2**b <= 2**31, and
int64 past that. Windows of one length (a width that is not a whole number
of samples gives two lengths) are gathered into (windows x channels x L) key
arrays of at most ``BLOCK_CELLS`` cells. Each row is sorted once: the low b
bits of the sorted keys are its argsort, and ranks 1..L go back through them
in one scatter. A running count over time of the samples whose value occurs
more than once in their channel shows which rows can tie: those holding two
such samples. Only these rows are scanned for equal neighbouring g, and only
the members of a tie group are rewritten with the group's mean rank. A
channel constant in a window has no rank variance, so its pairs come out as
0/0, NaN: those are the window's undefined correlations.

Each block repeats the floating-point operations of ``np.corrcoef`` in the
same order, for the upper-triangle entries only, so the result is
bit-identical to ranking and correlating window by window. Average ranks
are multiples of 1/2 and their mean is exactly (L+1)/2, so every partial sum
of products of centred ranks is a multiple of 1/4 below L**3/4. That is
exact in any summation order in float32 while L**3 < 2**24 (L <= 255), and
in float64 while L**3 < 2**53; longer windows rank and multiply in float64.
The sums are cast to float64 before they are scaled by 1/(L-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    UndefinedCorrelationError,
)
from .graphs import Graph, GraphSample, _blocks, canonical_pairs, num_pairs, pair_index

__all__ = [
    "ChannelMatrix",
    "WindowSpec",
    "CorrelationSeries",
    "ThresholdSpec",
    "SummaryGraph",
    "spearman",
    "correlation_series",
    "pair_quartiles",
    "build_graphs",
    "summary_graph",
]


def _check_sampling_rate(rate: float) -> None:
    if not 0 < rate < math.inf:
        raise ValueError(f"sampling_rate must be positive and finite, got {rate}")


def _check_c(c: float) -> None:
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")


def _check_quartile_count(count: int) -> None:
    if count < 4:
        raise InsufficientSampleError(
            f"need at least 4 values for quartiles, got {count}"
        )


class ChannelMatrix:
    """Uniformly sampled multichannel recording, one column per channel."""

    def __init__(
        self,
        labels: Sequence[str],
        values,
        sampling_rate: float,
    ):
        labels = tuple(str(x) for x in labels)
        if len(labels) < 2:
            raise ValueError("need at least 2 channels")
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != len(labels):
            raise DimensionMismatchError(
                f"expected a (time x {len(labels)}) matrix, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise ValueError("recording must contain at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("recording contains NaN or infinite values")
        _check_sampling_rate(sampling_rate)
        self.labels = labels
        self.values = arr
        self.sampling_rate = float(sampling_rate)

    @property
    def n_channels(self) -> int:
        return len(self.labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return (
            f"ChannelMatrix(channels={self.n_channels}, "
            f"samples={self.n_samples}, rate={self.sampling_rate})"
        )


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in milliseconds."""

    width_ms: float = 333.0
    step_ms: float = 16.66

    def __post_init__(self):
        for name, value in (("width", self.width_ms), ("step", self.step_ms)):
            if not 0 < value < math.inf:
                raise ValueError(f"window {name} must be positive and finite, got {value}")


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def _window_bounds(
    n_samples: int, rate: float, spec: WindowSpec
) -> list[tuple[int, int]]:
    """Half-open sample ranges [a, b) of every window, nearest-sample rounded.

    The step must span at least one sample: a shorter one repeats windows.
    """
    width = Fraction(spec.width_ms) * Fraction(rate) / 1000
    step = Fraction(spec.step_ms) * Fraction(rate) / 1000
    if _round_half_up(width) < 2:
        raise ValueError(
            f"window of {spec.width_ms} ms spans fewer than 2 samples "
            f"at {rate} Hz"
        )
    if step < 1:
        shortest = 1000 / rate
        # The float nearest 1000/rate may fall just short of one sample.
        if Fraction(shortest) * Fraction(rate) < 1000:
            shortest = math.nextafter(shortest, math.inf)
        raise ValueError(
            f"window step of {spec.step_ms} ms is shorter than one sample "
            f"at {rate} Hz; the shortest allowed step is {shortest} ms"
        )
    if width > n_samples:
        raise InsufficientSampleError(
            f"window of {spec.width_ms} ms needs more than the "
            f"{n_samples} samples available"
        )
    count = math.floor((n_samples - width) / step) + 1
    # Window k is [round(k*step), round(k*step + width)), rounding half up:
    # floor(num/den + 1/2) = (2*num + den) // (2*den). These are Python ints
    # because binary floats such as 16.66 have ~51-bit denominators.
    sn, sd = step.numerator, step.denominator
    wn, wd = width.numerator, width.denominator
    b_step, b_off, b_den = 2 * sn * wd, 2 * wn * sd + sd * wd, 2 * sd * wd
    return [
        ((2 * sn * k + sd) // (2 * sd), (b_step * k + b_off) // b_den)
        for k in range(count)
    ]


def average_ranks(x) -> np.ndarray:
    """1-based ranks along the last axis; tied values share their mean rank.

    The same values as ``scipy.stats.rankdata(x, axis=-1)``. Ranks are
    multiples of 1/2, exact in float64.
    """
    arr = np.asarray(x, dtype=np.float64)
    rows = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
    keys, b, ties = _shifted_dense_ranks(rows, [0], [rows.shape[1]])
    return _rank_keys(keys, b, ties[0], np.float64).reshape(arr.shape)


def _key_dtype(top: int, b: int) -> type:
    """int32 while every key ``(g << b) | position``, g <= top, fits it; else int64."""
    dtype = np.int32 if (top + 1) << b <= 2**31 else np.int64
    assert (top + 1) << b <= 2 ** (np.iinfo(dtype).bits - 1)
    return dtype


def _shifted_dense_ranks(x, starts, ends) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense ranks g along the rows of 2-D ``x``, shifted left by b bits,
    then b, then which windows of which rows may hold a tie.

    Windows are the column ranges [starts, ends); b = (L - 1).bit_length()
    for the longest window L leaves room for positions 0 .. L-1. Equal
    values (0.0 and -0.0 too) share one g, so ordering any part of a row by
    g orders it by value, with the same ties. A window of a row can tie only
    if it holds two values that occur more than once in the row; the
    (windows x rows) ``ties`` marks these, from a running count over each
    row of such values.
    """
    g = np.empty(x.shape, np.int32)
    repeats = np.zeros((len(x), x.shape[1] + 1), np.int32)
    for row, dense, count in zip(x, g, repeats):
        order = np.argsort(row)
        # Distinct finite floats differ by a nonzero amount; 0.0 - -0.0 is 0.
        dense[order] = np.cumsum(np.diff(row[order], prepend=row[order[:1]]) != 0)
        np.cumsum(np.bincount(dense)[dense] > 1, out=count[1:])
    b = (int(np.max(np.subtract(ends, starts))) - 1).bit_length()
    g = g.astype(_key_dtype(int(g.max(initial=0)), b), copy=False)
    g <<= b
    return g, b, (repeats[:, ends] - repeats[:, starts] >= 2).T


def _rank_keys(keys: np.ndarray, b: int, ties: np.ndarray, dtype: type) -> np.ndarray:
    """Average ranks, as ``dtype``, of (rows x L) ``keys`` holding ``g << b``.

    Adds each key's position, sorts every row in place and writes ranks
    1..L through the positions, the low b bits, in one scatter. Only the
    rows where the boolean ``ties`` is set are scanned for equal g; every
    other row must hold L distinct g.
    """
    rows, L = keys.shape
    keys |= np.arange(L, dtype=keys.dtype)
    keys.sort(axis=-1)
    # order[r, p]: flat index of the element at sorted position p of row r.
    order = np.bitwise_and(keys, (1 << b) - 1, dtype=np.intp)
    order += L * np.arange(rows)[:, None]
    ranks = np.empty(keys.size, dtype)
    ranks[order.reshape(-1)] = np.tile(np.arange(1, L + 1, dtype=dtype), rows)
    if ties.any():
        g = keys[ties] >> b
        # Equal neighbours sit at flat sorted positions p and p+1 of g (a
        # row's last g is compared with -1); each run of consecutive p is
        # one tie group, at positions start .. start+size.
        p = np.flatnonzero(np.diff(g, axis=1, append=-1) == 0)
        runs = np.flatnonzero(np.diff(p, prepend=-2) != 1)
        size = np.diff(runs, append=p.size)
        mean = np.repeat(p[runs] % L + 1 + size / 2, size)
        order = order[ties].reshape(-1)
        ranks[order[np.stack((p, p + 1))]] = mean
    return ranks.reshape(rows, L)


def spearman(x, y) -> float:
    """Spearman correlation: Pearson correlation of average-rank transforms.

    Ties receive their mean rank. A constant input has no rank variance and
    no defined correlation; that raises UndefinedCorrelationError here, while
    the windowed pipeline treats such windows as correlation 0 and reports
    them in its diagnostics. The value is the pipeline's, computed by
    ``_block_correlations`` on a block of one window.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise DimensionMismatchError(
            f"inputs must be equal-length vectors, got {xa.shape} and {ya.shape}"
        )
    if len(xa) < 2:
        raise InsufficientSampleError("need at least 2 observations")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("inputs contain NaN or infinite values")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedCorrelationError(
            "correlation is undefined for a constant sequence"
        )
    keys, b, ties = _shifted_dense_ranks(np.stack((xa, ya)), [0], [len(xa)])
    return float(_block_correlations(keys[None], b, ties, [0], [1])[0, 0])


class CorrelationSeries:
    """Windowed correlations: one value per (window, canonical channel pair).

    ``undefined`` lists (window_index, pair_index) entries where at least one
    channel was constant inside the window; those values are set to 0.
    """

    def __init__(
        self,
        labels: Sequence[str],
        values,
        windows: Sequence[tuple[int, int]],
        undefined: Iterable[tuple[int, int]] = (),
    ):
        labels = tuple(str(x) for x in labels)
        arr = np.asarray(values, dtype=np.float64)
        E = num_pairs(len(labels))
        if arr.ndim != 2 or arr.shape != (len(windows), E):
            raise DimensionMismatchError(
                f"expected a ({len(windows)} x {E}) matrix, got shape {arr.shape}"
            )
        if len(windows) < 1:
            raise ValueError("need at least one window")
        if not np.isfinite(arr).all() or arr.min() < -1 or arr.max() > 1:
            raise ValueError("correlations must lie in [-1, 1]")
        self.labels = labels
        self.values = arr
        self.windows = tuple((int(a), int(b)) for a, b in windows)
        self.undefined = tuple((int(w), int(p)) for w, p in undefined)

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def pair_series(self, i: int, j: int) -> np.ndarray:
        if i > j:
            i, j = j, i
        return self.values[:, pair_index(self.v, i, j)]

    def __repr__(self) -> str:
        return f"CorrelationSeries(v={self.v}, windows={self.n_windows})"


def _block_correlations(keys: np.ndarray, b: int, ties: np.ndarray, i, j) -> np.ndarray:
    """Rank correlations of a (windows x channels x L) block of ``g << b``
    keys between the channels i and j of each pair, one row per window.

    The boolean (windows x channels) ``ties`` marks the rows that may hold
    equal g (see ``_rank_keys``). Keys are exact while (max g + 1) * 2**b
    fits their integer type. The result is the operations of
    ``np.corrcoef`` on the ranks, in its order, on the pairs' entries only:
    bit-identical while L**3 < 2**24 for the float32 product, and
    L**3 < 2**53 for the float64 one that longer windows take. A constant
    channel has no rank variance, and its pairs, 0/0, are NaN; every other
    pair is finite.
    """
    W, v, L = keys.shape
    dtype = np.float32 if L**3 < 2**24 else np.float64
    r = _rank_keys(keys.reshape(W * v, L), b, ties.reshape(-1), dtype).reshape(W, v, L)
    r -= (L + 1) / 2
    # Cast before scaling: a float32 product would round differently.
    c = (r @ r.transpose(0, 2, 1)).astype(np.float64) * (1 / (L - 1))
    d = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
    cov = c[:, i, j]
    with np.errstate(invalid="ignore", divide="ignore"):
        cov /= d[:, i]
        cov /= d[:, j]
    return np.clip(cov, -1, 1, out=cov)


def correlation_series(m: ChannelMatrix, w: WindowSpec) -> CorrelationSeries:
    """Spearman correlation of every channel pair inside every sliding window.

    Windows where a channel is constant contribute correlation 0 for that
    channel's pairs and are listed in the result's ``undefined`` diagnostics
    instead of failing the pipeline.
    """
    bounds = _window_bounds(m.n_samples, m.sampling_rate, w)
    v = m.n_channels
    pairs = np.triu_indices(v, 1)
    starts, ends = np.array(bounds).T
    lengths = ends - starts
    keys, b, ties = _shifted_dense_ranks(m.values.T, starts, ends)
    values = np.empty((len(bounds), num_pairs(v)), dtype=np.float64)
    # Not np.unique, which imports numpy.ma.
    for L in sorted(set(lengths.tolist())):
        # windows[a] holds the keys of samples a .. a+L-1, shape (v, L).
        windows = sliding_window_view(keys, L, axis=1).transpose(1, 0, 2)
        rows = np.flatnonzero(lengths == L)
        for lo, hi in _blocks(len(rows), v * L):
            t = rows[lo:hi]
            values[t] = _block_correlations(windows[starts[t]], b, ties[t], *pairs)
    undefined = np.argwhere(np.isnan(values))
    values[np.isnan(values)] = 0.0
    return CorrelationSeries(m.labels, values, bounds, undefined)


def _linear_quartiles(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.quantile(values, [0.25, 0.75], axis=0, method="linear")`` bit for
    bit, for at least two float64 rows, without ``np.quantile``: its
    ``np.unique`` imports ``numpy.ma``, ~12 ms in a fresh process.

    As in NumPy, the quantile at q sits at virtual index (n - 1) q between
    order statistics a and b, weight g past a: a + (b - a) g, or
    b - (b - a) (1 - g) where g >= 1/2, and NaN in a column holding a NaN.
    """
    n = values.shape[0]
    virtual = (n - 1) * np.array([0.25, 0.75])
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    # NumPy's partition points, so that equal values (0.0 and -0.0) land
    # where NumPy puts them.
    kth = sorted({0, n - 1, *below.tolist(), *above.tolist()})
    ranked = np.partition(values, kth, axis=0)
    gamma = (virtual - below).reshape((2,) + (1,) * (values.ndim - 1))
    a, b = ranked[below], ranked[above]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    # NaNs sort last.
    np.copyto(out, ranked[-1], where=np.isnan(ranked[-1]))
    return out[0], out[1]


def pair_quartiles(series) -> tuple[float, float]:
    """First and third quartiles by linear order-statistic interpolation.

    The quantile at level p sits at position 1 + (len-1)*p of the sorted
    values, interpolating linearly between neighbors.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    _check_quartile_count(len(arr))
    q1, q3 = _linear_quartiles(arr)
    return float(q1), float(q3)


class ThresholdSpec:
    """Edge rule parameters: a constant c and per-pair correlation quartiles.

    An edge appears in a window when the pair's correlation is at least
    max(c, q3) or at most min(-c, q1) for that pair.
    """

    def __init__(self, c: float, q1, q3):
        _check_c(c)
        q1a = np.asarray(q1, dtype=np.float64)
        q3a = np.asarray(q3, dtype=np.float64)
        if q1a.shape != q3a.shape or q1a.ndim != 1:
            raise DimensionMismatchError(
                f"quartile vectors must share one shape, got {q1a.shape} "
                f"and {q3a.shape}"
            )
        if np.any(q1a > q3a):
            raise ValueError("every pair must satisfy q1 <= q3")
        self.c = float(c)
        self.q1 = q1a
        self.q3 = q3a

    @classmethod
    def from_series(cls, cs: CorrelationSeries, c: float = 0.5) -> "ThresholdSpec":
        """Quartiles of each pair's own correlation series."""
        _check_quartile_count(cs.n_windows)
        q1, q3 = _linear_quartiles(cs.values)
        return cls(c, q1, q3)

    def __repr__(self) -> str:
        return f"ThresholdSpec(c={self.c}, pairs={len(self.q1)})"


def build_graphs(cs: CorrelationSeries, th: ThresholdSpec) -> GraphSample:
    """One graph per window: edges where the correlation passes the threshold rule."""
    E = cs.values.shape[1]
    if len(th.q1) != E:
        raise DimensionMismatchError(
            f"thresholds cover {len(th.q1)} pairs but series has {E}"
        )
    upper = np.maximum(th.c, th.q3)
    lower = np.minimum(-th.c, th.q1)
    mask = (cs.values >= upper) | (cs.values <= lower)
    return GraphSample._adopt(cs.v, mask)


@dataclass(frozen=True)
class SummaryGraph:
    """The most frequent edges of a sample, with their empirical frequencies."""

    graph: Graph
    frequencies: tuple[tuple[tuple[int, int], float], ...]


def summary_graph(s: GraphSample, k: int) -> SummaryGraph:
    """Graph of the k most frequent edges, ties broken by pair order.

    ``frequencies`` lists the selected pairs from most to least frequent,
    each with its fraction of sample graphs containing the edge.
    """
    E = num_pairs(s.v)
    if not 0 <= k <= E:
        raise ValueError(f"k must lie in [0, {E}], got {k}")
    counts = s.edge_counts.tolist()
    order = np.argsort(-s.edge_counts, kind="stable")[:k].tolist()
    pairs = canonical_pairs(s.v)
    freqs = tuple((pairs[a], counts[a] / s.n) for a in order)
    return SummaryGraph(graph=Graph(s.v, sum(1 << a for a in order)), frequencies=freqs)
