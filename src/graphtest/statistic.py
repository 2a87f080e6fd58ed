"""Max-discrepancy statistics for graph samples and their brute-force oracle.

The statistic of interest is the largest absolute gap, over every graph g on
the vertex set, between the mean edge-disagreement distance from g to a sample
and the expected distance from g to a reference distribution (one-sample), or
between the mean distances to two samples (two-sample). That maximum has a
closed form: the sum over canonical pairs of absolute differences between
edge frequencies (one side) and reference edge probabilities (other side).

All values are computed in exact rational arithmetic so that equal statistics
compare equal; Monte Carlo and permutation procedures rely on that to resolve
ties deterministically. Both closed forms are integer numerators over a fixed
denominator, computed for whole blocks of count vectors by ``GapKernel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """Exact numerators sum_a |scale*c_a - target_a| for every row of a count block.

    Counts lie in [0, max_count] and every target in [0, scale*max_count], so
    each term is at most scale*max_count. Rows are summed in int64 when
    scale*max_count*E < 2^62; otherwise the terms are Python integers in an
    object array. A block with more rows than there are possible counts then
    gathers its terms from a per-pair table of all of them, so the big-integer
    work per row is one addition per pair.
    """

    def __init__(
        self, scale: int, targets: Sequence[int], max_count: int, denominator: int
    ):
        self.scale = scale
        self.max_count = max_count
        self.denominator = denominator
        self.fast = scale * max_count * len(targets) < 2**62
        self.targets = np.array(targets, dtype=np.int64 if self.fast else object)

    @cached_property
    def _table(self) -> np.ndarray:
        support = np.arange(self.max_count + 1, dtype=object)
        return np.abs(self.scale * support[None, :] - self.targets[:, None])

    def __call__(self, counts: np.ndarray) -> np.ndarray:
        """Numerators of a (B x E) integer count block, int64 or object, length B."""
        if self.fast:
            return np.abs(self.scale * counts.astype(np.int64) - self.targets).sum(axis=1)
        if counts.shape[0] <= self.max_count:
            terms = np.abs(self.scale * counts.astype(object) - self.targets)
        else:
            terms = self._table[np.arange(len(self.targets)), counts]
        return terms.sum(axis=1)

    def fraction(self, numerator) -> Fraction:
        return Fraction(int(numerator), self.denominator)


def one_sample_kernel(n: int, marginals: EdgeMarginals) -> GapKernel:
    """Kernel for samples of size n: |den*c_a - n*num_a| over n*den.

    ``num_a / den`` are the marginals over their common denominator.
    """
    nums, den = marginals.common_ratio()
    return GapKernel(den, [n * w for w in nums], n, n * den)


def two_sample_kernel(n: int, m: int, totals: Sequence[int]) -> GapKernel:
    """Kernel for the size-n side's counts a, given totals a+b: |m*a - n*b| over n*m.

    |m*a - n*b| = |N*a - n*(a+b)| with N = n+m, so the numerator depends on
    one side's counts only.
    """
    return GapKernel(n + m, [n * int(t) for t in totals], n, n * m)


def mean_distance(sample: GraphSample, g: Graph) -> float:
    """Mean edge-disagreement distance from g to the members of a sample.

    The summed distance is n - c_a over the edges a of g, plus c_a over the
    other pairs, c_a being the members with edge a.
    """
    _check_same_v(g, "graph", sample, "sample")
    counts = sample.edge_counts
    return int(np.where(g.indicator_row(), sample.n - counts, counts).sum()) / sample.n


def one_sample_statistic(
    sample: GraphSample,
    null_marginals: EdgeMarginals,
    *,
    kernel: GapKernel | None = None,
) -> TestStatistic:
    """Sum over canonical pairs of |edge frequency - reference probability|.

    Equals the maximum over all graphs of the absolute mean-distance gap
    between the sample and the reference distribution, and is computable in
    O(v^2 * n) time. A caller that already holds
    ``one_sample_kernel(sample.n, null_marginals)`` may pass it as ``kernel``.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    n = sample.n
    if kernel is None:
        kernel = one_sample_kernel(n, null_marginals)
    exact = kernel.fraction(kernel(sample.edge_counts[None, :])[0])
    return TestStatistic(
        value=float(exact),
        exact=exact,
        kind="one_sample",
        sample_sizes=(n, None),
    )


def two_sample_statistic(s: GraphSample, t: GraphSample) -> TestStatistic:
    """Sum over canonical pairs of absolute edge-frequency differences.

    Symmetric in its arguments; the exact value is an integer over n*m.
    """
    _check_same_v(s, "first sample", t, "second sample")
    n, m = s.n, t.n
    kernel = two_sample_kernel(n, m, s.edge_counts + t.edge_counts)
    exact = kernel.fraction(kernel(s.edge_counts[None, :])[0])
    return TestStatistic(
        value=float(exact),
        exact=exact,
        kind="two_sample",
        sample_sizes=(n, m),
    )


def signed_gap(
    sample: GraphSample, null_marginals: EdgeMarginals, g: Graph
) -> Fraction:
    """Mean distance from g to the sample minus expected distance under the reference.

    The gap is affine in g's edge indicators: its value at the empty graph
    plus what each edge of g adds (see ``_one_sample_gap``).
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    _check_same_v(g, "graph", sample, "sample")
    base, steps = _one_sample_gap(sample, null_marginals)
    return sum((step for a, step in enumerate(steps) if g.bits >> a & 1), base)


def _check_enumerable(v: int) -> None:
    if v > BRUTE_FORCE_MAX_V:
        raise EnumerationRefusedError(
            f"brute-force maximization enumerates 2^{num_pairs(v)} graphs; "
            f"refusing v={v} > {BRUTE_FORCE_MAX_V}"
        )


def _gray_code_maximum(base: Fraction, steps: Sequence[Fraction]) -> tuple[Fraction, int]:
    """Largest |gap| over every edge bitset, for a gap that is affine in the graph.

    ``base`` is the gap at the empty graph and ``steps[a]`` what adding edge a
    adds to it. Bitsets are visited in Gray-code order, so each step flips
    one edge. Returns the maximum and the first bitset attaining it.
    """
    gap = base
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


def _one_sample_gap(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> tuple[Fraction, list[Fraction]]:
    """Signed gap at the empty graph, and what adding each edge a adds to it:
    (n - 2*c_a)/n to the mean distance, 1 - 2*p_a to the expected distance."""
    n = sample.n
    counts = sample.edge_counts.tolist()
    probs = null_marginals.fractions
    base = Fraction(sum(counts), n) - sum(probs)
    return base, [Fraction(n - 2 * c, n) - (1 - 2 * p) for c, p in zip(counts, probs)]


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
    best, best_code = _gray_code_maximum(*_one_sample_gap(sample, null_marginals))
    stat = TestStatistic(
        value=float(best),
        exact=best,
        kind="one_sample",
        sample_sizes=(sample.n, None),
    )
    return stat, Graph(sample.v, best_code)


def two_sample_brute_force(
    s: GraphSample, t: GraphSample
) -> tuple[TestStatistic, Graph]:
    """Maximize |mean distance to s - mean distance to t| over every graph.

    Same Gray-code scheme as the one-sample maximizer; refuses v above
    BRUTE_FORCE_MAX_V.
    """
    _check_same_v(s, "first sample", t, "second sample")
    _check_enumerable(s.v)
    n, m = s.n, t.n
    cs = s.edge_counts.tolist()
    ct = t.edge_counts.tolist()
    base = Fraction(sum(cs), n) - Fraction(sum(ct), m)
    steps = [Fraction(n - 2 * a, n) - Fraction(m - 2 * b, m) for a, b in zip(cs, ct)]
    best, best_code = _gray_code_maximum(base, steps)
    stat = TestStatistic(
        value=float(best),
        exact=best,
        kind="two_sample",
        sample_sizes=(n, m),
    )
    return stat, Graph(s.v, best_code)


def extremal_graphs(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> tuple[Graph, Graph]:
    """The two graphs attaining the maximal signed gaps.

    The first has an edge exactly where the sample frequency is <= the
    reference probability (maximizes the gap), the second where it is >=
    (maximizes the negated gap). Ties put the edge in both graphs. The
    absolute gap at either graph equals the closed-form statistic.
    """
    _check_same_v(sample, "sample", null_marginals, "marginals")
    _, steps = _one_sample_gap(sample, null_marginals)
    lo_bits = sum(1 << a for a, step in enumerate(steps) if step >= 0)
    hi_bits = sum(1 << a for a, step in enumerate(steps) if step <= 0)
    return Graph(sample.v, lo_bits), Graph(sample.v, hi_bits)
