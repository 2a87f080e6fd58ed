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

from .errors import DimensionMismatchError, EnumerationRefusedError
from .graphs import (
    EdgeMarginals,
    Graph,
    GraphSample,
    hamming_distance,
    num_pairs,
)

__all__ = [
    "TestStatistic",
    "GapKernel",
    "one_sample_kernel",
    "two_sample_kernel",
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


def _check_marginal_dims(sample: GraphSample, marginals: EdgeMarginals) -> None:
    if sample.v != marginals.v:
        raise DimensionMismatchError(
            f"sample has v={sample.v} but marginals have v={marginals.v}"
        )


def mean_distance(sample: GraphSample, g: Graph) -> float:
    """Mean edge-disagreement distance from g to the members of a sample."""
    if g.v != sample.v:
        raise DimensionMismatchError(
            f"graph has v={g.v} but sample has v={sample.v}"
        )
    total = sum(hamming_distance(g, member) for member in sample)
    return total / sample.n


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
    _check_marginal_dims(sample, null_marginals)
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
    if s.v != t.v:
        raise DimensionMismatchError(
            f"samples have v={s.v} and v={t.v}"
        )
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

    The expectation over the reference distribution depends only on its edge
    marginals: each canonical pair contributes g_ij - 2*g_ij*p_ij + p_ij.
    """
    _check_marginal_dims(sample, null_marginals)
    if g.v != sample.v:
        raise DimensionMismatchError(
            f"graph has v={g.v} but sample has v={sample.v}"
        )
    total = sum(hamming_distance(g, member) for member in sample)
    d_bar = Fraction(total, sample.n)
    expected = Fraction(0)
    for k, p in enumerate(null_marginals.fractions):
        if g.bits >> k & 1:
            expected += 1 - p
        else:
            expected += p
    return d_bar - expected


def _check_enumerable(v: int) -> None:
    if v > BRUTE_FORCE_MAX_V:
        raise EnumerationRefusedError(
            f"brute-force maximization enumerates 2^{num_pairs(v)} graphs; "
            f"refusing v={v} > {BRUTE_FORCE_MAX_V}"
        )


def _gray_flip(t: int) -> int:
    """Slot flipped between Gray codes of t and t+1 (lowest set bit of t+1)."""
    s = t + 1
    return (s & -s).bit_length() - 1


def one_sample_brute_force(
    sample: GraphSample, null_marginals: EdgeMarginals
) -> tuple[TestStatistic, Graph]:
    """Maximize the absolute mean-distance gap by visiting every graph.

    Graphs are enumerated in Gray-code order so each step flips one edge and
    updates the summed member distances and the expected-distance term in
    O(1). Returns the maximum and the first maximizer in enumeration order.
    Exists to validate the closed form; refuses v > BRUTE_FORCE_MAX_V.
    """
    _check_marginal_dims(sample, null_marginals)
    _check_enumerable(sample.v)
    n = sample.n
    E = num_pairs(sample.v)
    counts = [int(c) for c in sample.edge_counts]

    # Start at the empty graph: distance to a member is its edge count.
    sum_d = sum(counts)
    pi_term = sum(null_marginals.fractions)

    best = abs(Fraction(sum_d, n) - pi_term)
    best_code = 0

    code = 0
    for t in range((1 << E) - 1):
        a = _gray_flip(t)
        code ^= 1 << a
        if code >> a & 1:
            sum_d += n - 2 * counts[a]
            pi_term += 1 - 2 * null_marginals.fractions[a]
        else:
            sum_d += 2 * counts[a] - n
            pi_term -= 1 - 2 * null_marginals.fractions[a]
        w = abs(Fraction(sum_d, n) - pi_term)
        if w > best:
            best = w
            best_code = code

    stat = TestStatistic(
        value=float(best),
        exact=best,
        kind="one_sample",
        sample_sizes=(n, None),
    )
    return stat, Graph(sample.v, best_code)


def two_sample_brute_force(
    s: GraphSample, t: GraphSample
) -> tuple[TestStatistic, Graph]:
    """Maximize |mean distance to s - mean distance to t| over every graph.

    Same Gray-code scheme as the one-sample maximizer; refuses v above
    BRUTE_FORCE_MAX_V.
    """
    if s.v != t.v:
        raise DimensionMismatchError(f"samples have v={s.v} and v={t.v}")
    _check_enumerable(s.v)
    n, m = s.n, t.n
    E = num_pairs(s.v)
    cs = [int(c) for c in s.edge_counts]
    ct = [int(c) for c in t.edge_counts]

    sum_s = sum(cs)
    sum_t = sum(ct)
    best = abs(Fraction(sum_s, n) - Fraction(sum_t, m))
    best_code = 0

    code = 0
    for step in range((1 << E) - 1):
        a = _gray_flip(step)
        code ^= 1 << a
        if code >> a & 1:
            sum_s += n - 2 * cs[a]
            sum_t += m - 2 * ct[a]
        else:
            sum_s += 2 * cs[a] - n
            sum_t += 2 * ct[a] - m
        w = abs(Fraction(sum_s, n) - Fraction(sum_t, m))
        if w > best:
            best = w
            best_code = code

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
    _check_marginal_dims(sample, null_marginals)
    n = sample.n
    lo_bits = 0
    hi_bits = 0
    for k, (c, p) in enumerate(
        zip(sample.edge_counts, null_marginals.fractions)
    ):
        freq = Fraction(int(c), n)
        if freq <= p:
            lo_bits |= 1 << k
        if freq >= p:
            hi_bits |= 1 << k
    return Graph(sample.v, lo_bits), Graph(sample.v, hi_bits)
