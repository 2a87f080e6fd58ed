"""Max-discrepancy statistics for graph samples and their brute-force oracle.

The statistic of interest is the largest absolute gap, over every graph g on
the vertex set, between the mean edge-disagreement distance from g to a sample
and the expected distance from g to a reference distribution (one-sample), or
between the mean distances to two samples (two-sample). That maximum has a
closed form: the sum over canonical pairs of absolute differences between
edge frequencies (one side) and reference edge probabilities (other side).

The gap has one form here: ``GapKernel``'s signed integer terms t_a over a
fixed denominator D. For one sample of size n, t_a/D = p_a - c_a/n; for two
samples, t_a/D is the second sample's edge frequency minus the first's. The
gap at a graph g, times D, is the sum of t_a over g's edges minus the sum over
its other pairs, so its maximum over all graphs is sum_a |t_a| / D. The closed
forms, the signed gap, the extremal graphs and the brute-force maximizers all
read these terms. Every value is exact, so equal statistics compare equal;
Monte Carlo and permutation procedures rely on that to resolve ties
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EnumerationRefusedError
from .graphs import EdgeMarginals, Graph, GraphSample, _check_same_v, num_pairs

__all__ = [
    "TestStatistic",
    "mean_distance",
    "one_sample_statistic",
    "two_sample_statistic",
    "signed_gap",
    "one_sample_brute_force",
    "two_sample_brute_force",
    "extremal_graphs",
    "BRUTE_FORCE_MAX_V",
]

# 2^E graphs are visited by the brute-force maximizer; v=5 means 1024.
BRUTE_FORCE_MAX_V = 5


@dataclass(frozen=True)
class TestStatistic:
    """Value of the max-discrepancy statistic, with its exact rational form.

    kind is "one_sample" or "two_sample"; sample_sizes holds (n, m) with
    m = None for the one-sample case. The value always lies in [0, E].
    """

    value: float
    exact: Fraction
    kind: str
    sample_sizes: tuple[int, int | None]

    def __post_init__(self):
        if self.kind not in ("one_sample", "two_sample"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.exact < 0:
            raise ValueError("statistic cannot be negative")


class GapKernel:
    """Signed integer terms t_a = target_a - scale*c_a of the gap, over ``denominator``.

    The terms are the one form of the gap (see the module docstring); called
    on a block of count rows, the kernel returns each row's closed-form
    numerator sum_a |t_a|. Counts lie in [0, max_count] and every target in
    [0, scale*max_count], so |t_a| <= scale*max_count and the numerator is
    at most scale*max_count*E. Terms are int64 when that bound is < 2^63;
    otherwise they are Python integers in an object array.

    An int64 kernel whose pairs share one target (every one-sample kernel of
    an ER or ERGM null) holds its term row, row[c] = |target - scale*c| for
    c = 0..max_count, and is called as ``row[counts].sum(axis=1)``: one
    lookup per count. Every other kernel, ``row`` None, sums the absolute
    terms. Both give the same integers.
    """

    def __init__(
        self, scale: int, targets: Sequence[int], max_count: int, denominator: int
    ):
        self.scale = scale
        self.denominator = denominator
        self.fast = scale * max_count * len(targets) < 2**63
        self.targets = np.array(targets, dtype=np.int64 if self.fast else object)
        self.row = None
        if self.fast and len(set(self.targets.tolist())) == 1:
            self.row = np.abs(self.targets[0] - scale * np.arange(max_count + 1))

    def terms(self, counts) -> np.ndarray:
        """Signed terms of integer counts whose last axis runs over the pairs."""
        counts = np.asarray(counts, dtype=np.int64 if self.fast else object)
        return self.targets - self.scale * counts

    def __call__(self, counts: np.ndarray) -> np.ndarray:
        """Numerators of a (B x E) integer count block, int64 or object, length B."""
        if self.row is not None:
            return self.row[counts].sum(axis=1)
        return np.abs(self.terms(counts)).sum(axis=1)

    def fraction(self, numerator) -> Fraction:
        return Fraction(int(numerator), self.denominator)


def one_sample_kernel(n: int, marginals: EdgeMarginals) -> GapKernel:
    """Kernel for samples of size n: n*num_a - den*c_a over n*den.

    ``num_a / den`` are the marginals over their common denominator.
    """
    nums, den = marginals.common_ratio()
    return GapKernel(den, [n * w for w in nums], n, n * den)


def two_sample_kernel(n: int, m: int, totals: Sequence[int]) -> GapKernel:
    """Kernel for the size-n side's counts a, given totals a+b: n*b - m*a over n*m.

    n*b - m*a = n*(a+b) - N*a with N = n+m, so the terms depend on one side's
    counts only.
    """
    return GapKernel(n + m, [n * int(t) for t in totals], n, n * m)


def _statistic(
    kernel: GapKernel, numerator, n: int, m: int | None = None
) -> TestStatistic:
    exact = kernel.fraction(numerator)
    kind = "one_sample" if m is None else "two_sample"
    return TestStatistic(value=float(exact), exact=exact, kind=kind, sample_sizes=(n, m))


def mean_distance(sample: GraphSample, g: Graph) -> float:
    """Mean edge-disagreement distance from g to the members of a sample.

    The summed distance is n - c_a over the edges a of g, plus c_a over the
    other pairs, c_a being the members with edge a.
    """
    _check_same_v(g, "graph", sample, "sample")
    counts = sample.edge_counts
    return int(np.where(g.indicator_row(), sample.n - counts, counts).sum()) / sample.n


def one_sample_statistic(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> TestStatistic:
    """Sum over canonical pairs of |edge frequency - reference probability|.

    Equals the maximum over all graphs of the absolute mean-distance gap
    between the sample and the reference distribution, and is computable in
    O(v^2 * n) time.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    kernel = one_sample_kernel(sample.n, null_marginals)
    return _statistic(kernel, kernel(sample.edge_counts[None, :])[0], sample.n)


def two_sample_statistic(s: GraphSample, t: GraphSample) -> TestStatistic:
    """Sum over canonical pairs of absolute edge-frequency differences.

    Symmetric in its arguments; the exact value is an integer over n*m.
    """
    _check_same_v(s, "first sample", t, "second sample")
    kernel = two_sample_kernel(s.n, t.n, s.edge_counts + t.edge_counts)
    return _statistic(kernel, kernel(s.edge_counts[None, :])[0], s.n, t.n)


def signed_gap(
    sample: GraphSample, null_marginals: EdgeMarginals, g: Graph
) -> Fraction:
    """Mean distance from g to the sample minus expected distance under the reference.

    Read from the kernel's signed terms: the sum of t_a over g's edges minus
    the sum over its other pairs, over the kernel's denominator.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    _check_same_v(g, "graph", sample, "sample")
    kernel = one_sample_kernel(sample.n, null_marginals)
    terms = kernel.terms(sample.edge_counts)
    return kernel.fraction(np.where(g.indicator_row(), terms, -terms).sum())


def _check_enumerable(v: int) -> None:
    if v > BRUTE_FORCE_MAX_V:
        raise EnumerationRefusedError(
            f"brute-force maximization enumerates 2^{num_pairs(v)} graphs; "
            f"refusing v={v} > {BRUTE_FORCE_MAX_V}"
        )


def _gray_code_maximum(terms: list[int]) -> tuple[int, int]:
    """Largest |2 * sum_{a in g} t_a - sum_a t_a| over every edge bitset g.

    The gap starts at -sum(terms) at the empty graph. Bitsets are visited in
    Gray-code order, so each step flips one edge a and moves the gap by
    +-2*t_a. Returns the maximum and the first bitset attaining it.
    """
    steps = [2 * t for t in terms]
    gap = -sum(terms)
    best = abs(gap)
    best_code = 0
    code = 0
    for t in range(1, 1 << len(steps)):
        # Gray codes of t-1 and t differ in the lowest set bit of t.
        a = (t & -t).bit_length() - 1
        code ^= 1 << a
        if code >> a & 1:
            gap += steps[a]
        else:
            gap -= steps[a]
        w = abs(gap)
        if w > best:
            best = w
            best_code = code
    return best, best_code


def one_sample_brute_force(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> tuple[TestStatistic, Graph]:
    """Maximize the absolute mean-distance gap by visiting every graph.

    Graphs are enumerated in Gray-code order so each step flips one edge and
    updates the gap in O(1). Returns the maximum and the first maximizer in
    enumeration order. Exists to validate the closed form; refuses
    v > BRUTE_FORCE_MAX_V.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    _check_enumerable(sample.v)
    kernel = one_sample_kernel(sample.n, null_marginals)
    best, code = _gray_code_maximum(kernel.terms(sample.edge_counts).tolist())
    return _statistic(kernel, best, sample.n), Graph(sample.v, code)


def two_sample_brute_force(
    s: GraphSample, t: GraphSample
) -> tuple[TestStatistic, Graph]:
    """Maximize |mean distance to s - mean distance to t| over every graph.

    Same Gray-code scheme as the one-sample maximizer; refuses v above
    BRUTE_FORCE_MAX_V.
    """
    _check_same_v(s, "first sample", t, "second sample")
    _check_enumerable(s.v)
    kernel = two_sample_kernel(s.n, t.n, s.edge_counts + t.edge_counts)
    best, code = _gray_code_maximum(kernel.terms(s.edge_counts).tolist())
    return _statistic(kernel, best, s.n, t.n), Graph(s.v, code)


def extremal_graphs(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> tuple[Graph, Graph]:
    """The two graphs attaining the maximal signed gaps.

    The first has an edge exactly where the signed term t_a >= 0, i.e. the
    sample frequency is <= the reference probability (maximizes the gap), the
    second where t_a <= 0 (maximizes the negated gap). Ties put the edge in
    both graphs. The absolute gap at either graph equals the closed-form
    statistic.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    terms = one_sample_kernel(sample.n, null_marginals).terms(sample.edge_counts)
    return (
        Graph.from_indicator_row(sample.v, terms >= 0),
        Graph.from_indicator_row(sample.v, terms <= 0),
    )
