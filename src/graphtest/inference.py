"""Hypothesis tests built on the maximum mean-distance-gap statistic.

The one-sample test compares the statistic of an observed sample against an
empirical null quantile obtained by Monte Carlo simulation. That critical
value has one source, ``_calibrate_null``, which ``null_quantile_mc``,
``one_sample_test`` and ``power_curve`` all call. The two-sample test uses a
permutation distribution over re-partitions of the pooled sample.
A per-edge exact binomial procedure with Bonferroni correction is provided as
a baseline, along with power-curve estimation over a grid of alternatives.

All comparisons that decide rejection are carried out in exact integer or
rational arithmetic: Monte Carlo and permutation replicates of the statistic
are integer numerators over a common denominator, computed a block at a time
by ``statistic.GapKernel``, so ties are real ties and results cannot drift
with float summation order. Both kinds of replicate land in one null law,
``_NullLaw``: the R numerators, sorted. Its ``critical(level)`` is the
one-sample critical value, order statistic ceil((1-level)*R), and its
``tail(numerator, strict)`` the permutation count at or above the observed
numerator, or strictly above it with ``strict``. The p-value reads
that count as count/R, or as (1+count)/(1+R) with smoothing (Phipson &
Smyth 2010, *Stat. Appl. Genet. Mol. Biol.* 9(1)).

Monte Carlo replicates are drawn in blocks of about ``BLOCK_CELLS`` count
cells (``graphs._blocks``) by the generator ``_count_blocks``. Every block
draws its whole (B x E) count array with the model's
``edge_count_batches`` from the caller's generator, in block order. An
ERGM block holds exact, independent graphs: from the enumerated law up to
``models.ENUMERATION_MAX_V`` vertices, and above it by monotone or
anti-monotone coupling from the past (Propp & Wilson 1996, *Random
Structures & Algorithms* 9; Häggström & Nelander 1998, *Statistica
Neerlandica* 52(3); see ``models``). An independent-edge block draws its
counts by inversion of one ``rng.random((B, E))``, each uniform looked up
in the guided table of its probability level's binomial CDF, which
``models`` builds and keeps. Blocked uniforms and enumerated draws read the
stream as one (R x E) draw would, so the block size decides no result of
an independent-edge or enumerated-ERGM model; coupled ERGM draws (v above
``models.ENUMERATION_MAX_V``) depend on their group size by design. Every
block runs in order on the calling thread, so no result can depend on the
number of CPUs, and peak memory stays at one block and the R numerators.
``power_curve`` calibrates its null and then sums each alternative's
rejections over its blocks, in order, on the one generator it is given.
Permutations are drawn from the caller's generator in blocks of rows. Each
row is N 64-bit keys, one generator word each, so the blocks consume the
stream exactly as one (R x N) draw would. A row's smaller pseudo-sample is
the graphs of its k smallest keys, found by one ``np.partition``; the low
bits of every key hold its column, so the keys are distinct and the subset
does not depend on how NumPy orders ties.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, EnumerationRefusedError
from .graphs import (
    EdgeMarginals, GraphSample, _blocks, _check_same_v, _decimal, num_pairs,
)
from .models import ENUMERATION_MAX_V, ModelSpec, _check_probability, _check_sample_size
from .statistic import (
    GapKernel,
    TestStatistic,
    one_sample_kernel,
    one_sample_statistic,
    two_sample_kernel,
    two_sample_statistic,
)

__all__ = [
    "TestResult",
    "PowerPoint",
    "null_quantile_mc",
    "one_sample_test",
    "two_sample_permutation_test",
    "binom_two_sided_pvalue",
    "bonferroni_edge_test",
    "power_curve",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``critical_value`` is set by quantile-based tests (reject when the
    statistic exceeds it strictly); ``p_value`` by permutation and binomial
    tests (reject when it is at most alpha). Decisions are made on the exact
    rational values before any float conversion.
    """

    method: str
    statistic: TestStatistic | None
    alpha: float
    reject: bool
    critical_value: float | None = None
    critical_exact: Fraction | None = None
    p_value: float | None = None
    replications: int | None = None
    marginals_source: str | None = None
    per_edge_p_values: tuple[float, ...] | None = None
    seed: int | None = None


@dataclass(frozen=True)
class PowerPoint:
    """Empirical rejection rate at one alternative parameter value."""

    parameter: float
    power: float
    replications: int
    power_baseline: float | None = None


def _check_alpha(alpha: float) -> Fraction:
    """Check the level and return it as the decimal it is written as."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _decimal(alpha)


def _resolve_marginals(
    null: ModelSpec, override: EdgeMarginals | None
) -> tuple[EdgeMarginals, str]:
    if override is not None:
        _check_same_v(override, "marginals", null, "null model")
        return override, "supplied"
    try:
        return null.exact_marginals(), "exact"
    except EnumerationRefusedError as e:
        raise ConfigurationError(
            f"null model has no computable marginals ({e}). From the command line an "
            f"ERGM null needs v <= {ENUMERATION_MAX_V}; the library's one_sample_test "
            "and null_quantile_mc accept supplied marginals (marginals=)"
        ) from e


class _NullLaw:
    """The empirical null law of R replicate numerators of one ``GapKernel``,
    held sorted. Numerators are int64 or, on the kernel's object path, Python
    integers; both sort and compare exactly."""

    def __init__(self, kernel: GapKernel, blocks: Sequence[np.ndarray]):
        self.kernel = kernel
        self.numerators = np.sort(np.concatenate(blocks))

    def critical(self, level: Fraction) -> int:
        """The numerator of order statistic ceil((1-level)*R); for level in
        (0, 1) that index lies in [1, R]."""
        return int(self.numerators[math.ceil((1 - level) * len(self.numerators)) - 1])

    def tail(self, numerator, strict: bool) -> int:
        """How many numerators lie above ``numerator``, or at or above it
        unless ``strict``."""
        side = "right" if strict else "left"
        return len(self.numerators) - int(np.searchsorted(self.numerators, numerator, side))


def _count_blocks(
    model: ModelSpec, n: int, R: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The (size x E) counts of each consecutive block of R samples of size
    n from ``model``, drawn by ``model.edge_count_batches`` on ``rng``
    itself, so the blocks of ``_blocks(R, E)`` read the stream in order."""
    for lo, hi in _blocks(R, num_pairs(model.v)):
        # ``counts`` lives until the next block is drawn. Freeing each
        # block's counts before the next draw made the 24-block v=40 ER
        # null ~30% slower (2-core x86_64, in-process medians).
        counts = model.edge_count_batches(n, hi - lo, rng)
        yield counts


def _calibrate_null(
    null: ModelSpec,
    n: int,
    alpha: float,
    R: int,
    rng: np.random.Generator,
    marginals: EdgeMarginals | None,
) -> tuple[EdgeMarginals, str, GapKernel, int]:
    """Monte Carlo critical value of the one-sample statistic under ``null``.

    Checks R, n and alpha, then returns the null's marginals and their source
    ("exact" or "supplied"), the statistic's kernel for samples of size n,
    and the numerator of order statistic ceil((1-alpha)*R) of R null draws.
    """
    if R < 100:
        raise ValueError(f"need at least 100 replications, got {R}")
    _check_sample_size(n)
    level = _check_alpha(alpha)
    marg, source = _resolve_marginals(null, marginals)
    kernel = one_sample_kernel(n, marg)
    law = _NullLaw(kernel, [kernel(counts) for counts in _count_blocks(null, n, R, rng)])
    return marg, source, kernel, law.critical(level)


def null_quantile_mc(
    null: ModelSpec,
    n: int,
    alpha: float,
    R: int,
    rng: np.random.Generator,
    *,
    marginals: EdgeMarginals | None = None,
) -> float:
    """Empirical (1-alpha) quantile of the statistic under the null model.

    Draws R independent samples of size n from ``null``, computes the
    statistic of each against the null's exact marginals, and returns the
    order statistic at index ceil((1-alpha)*R). For a null whose marginals
    cannot be computed exactly (dependent edges above the enumeration limit),
    pass an explicit ``marginals`` estimate.
    """
    _, _, kernel, crit = _calibrate_null(null, n, alpha, R, rng, marginals)
    return float(kernel.fraction(crit))


def one_sample_test(
    s: GraphSample,
    null: ModelSpec,
    alpha: float = 0.05,
    R: int = 10000,
    rng: np.random.Generator | None = None,
    *,
    marginals: EdgeMarginals | None = None,
) -> TestResult:
    """Test whether ``s`` was drawn from ``null`` at level ``alpha``.

    The observed statistic is compared against the Monte Carlo critical value
    from ``null_quantile_mc``; rejection means strict exceedance. The
    comparison happens on exact rationals.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    _check_same_v(s, "sample", null, "null model")
    marg, source, kernel, crit = _calibrate_null(null, s.n, alpha, R, rng, marginals)
    stat = one_sample_statistic(s, marg)
    crit_exact = kernel.fraction(crit)
    return TestResult(
        method="one_sample_mc",
        statistic=stat,
        alpha=alpha,
        reject=stat.exact > crit_exact,
        critical_value=float(crit_exact),
        critical_exact=crit_exact,
        replications=R,
        marginals_source=source,
    )


def _pseudo_sample_masks(
    rng: np.random.Generator, rows: int, N: int, k: int
) -> np.ndarray:
    """Boolean (rows x N) masks, each with k ones: the k smallest of N random keys.

    Each key is one 64-bit word of ``rng`` whose low b = (N-1).bit_length()
    bits are overwritten with its column, so a row's keys are distinct and
    its k smallest do not depend on how ``np.partition`` orders ties. The
    row's subset is a uniform k-subset unless two keys share their 64-b
    random bits at the k-th boundary, which has chance about N * 2^b / 2^64
    per row (~1e-12 at N = 3 562).
    """
    keys = rng.integers(2**64, size=(rows, N), dtype=np.uint64)
    keys &= np.uint64(2**64 - 2 ** (N - 1).bit_length())
    keys |= np.arange(N, dtype=np.uint64)
    return keys <= np.partition(keys, k - 1, axis=1)[:, k - 1, None]


def _permutation_law(
    s: GraphSample, t: GraphSample, R: int, rng: np.random.Generator
) -> tuple[TestStatistic, _NullLaw]:
    """W of ``s`` and ``t``, and the law of its numerator over R permutations."""
    stat = two_sample_statistic(s, t)
    N, k = s.n + t.n, min(s.n, t.n)
    pooled = np.vstack((s.indicator_matrix(), t.indicator_matrix()))
    # Sort the pooled graphs by edge bitset: in little-endian packed bytes the
    # last byte is the most significant, and lexsort's last key is its first.
    order = np.lexsort(np.packbits(pooled, axis=1, bitorder="little").T)
    # Every intermediate sum of mask @ indicators is an integer <= N, exact in
    # a float whose significand holds N.
    dtype = np.float32 if N < 2**24 else np.float64
    assert N < 2 ** (np.finfo(dtype).nmant + 1)
    indicators = pooled[order].astype(dtype)
    # Pseudo-samples have sizes (k, N-k) = (n, m) as a multiset, so their
    # numerators share the observed denominator n*m.
    kernel = two_sample_kernel(k, N - k, s.edge_counts + t.edge_counts)
    blocks = []
    for lo, hi in _blocks(R, N):
        # Block by block, the keys consume the stream as one (R x N) draw would.
        mask = _pseudo_sample_masks(rng, hi - lo, N, k)
        blocks.append(kernel((mask.astype(dtype) @ indicators).astype(np.int64)))
    return stat, _NullLaw(kernel, blocks)


def two_sample_permutation_test(
    s: GraphSample,
    t: GraphSample,
    R: int = 1000,
    rng: np.random.Generator | None = None,
    alpha: float = 0.05,
    *,
    strict: bool = False,
    smoothing: bool = False,
) -> TestResult:
    """Permutation test of whether two samples share one distribution.

    Each of the R rounds re-partitions the pooled graphs, without
    replacement, into pseudo-samples of the two original sizes and recomputes
    the statistic. The p-value is the fraction of rounds at or above the
    observed value (``strict=True`` counts strictly above; ``smoothing=True``
    uses (1+count)/(1+R)). The pooled graphs are put in a canonical order
    first, so swapping the two input labels changes nothing. A round's
    smaller pseudo-sample is the k = min(n, m) graphs with the smallest of N
    random 64-bit keys, one generator word per key, with ties broken by the
    canonical order; the chance that this differs from a uniform k-subset is
    about N * 2^b / 2^64 per round, b = (N-1).bit_length(), ~1e-12 at
    N = 3 562.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    _check_same_v(s, "first sample", t, "second sample")
    if R < 100:
        raise ValueError(f"need at least 100 permutations, got {R}")
    level = _check_alpha(alpha)
    stat, law = _permutation_law(s, t, R, rng)
    count = law.tail(int(stat.exact * law.kernel.denominator), strict)
    p_exact = Fraction(1 + count, 1 + R) if smoothing else Fraction(count, R)
    return TestResult(
        method="two_sample_permutation",
        statistic=stat,
        alpha=alpha,
        reject=p_exact <= level,
        p_value=float(p_exact),
        replications=R,
    )


def _binom_tails(n: int, p0: Fraction) -> tuple[tuple[int, ...], int]:
    """Two-sided tails of X ~ Bin(n, p0): P(X no more likely than k) = tails[k] / total.

    Outcome k has integer weight w_k = C(n, k) num^k (den - num)^(n - k), and
    its tail sums every weight no larger than w_k: a running sum of the
    sorted weights, read at the last one equal to w_k. Nothing is kept
    between calls; a caller that tests many pairs builds one tail per
    distinct null probability and drops them when it returns.
    """
    num, den = p0.numerator, p0.denominator
    weights = [
        math.comb(n, k) * num**k * (den - num) ** (n - k) for k in range(n + 1)
    ]
    ordered = sorted(weights)
    sums = list(accumulate(ordered))
    return tuple(sums[bisect_right(ordered, w) - 1] for w in weights), den**n


def binom_two_sided_pvalue(k: int, n: int, p0: float) -> float:
    """Exact two-sided binomial p-value by the minimum-likelihood method.

    Sums the Binomial(n, p0) probabilities of every outcome no more likely
    than the observed one, computed in exact rational arithmetic.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"successes k={k} outside [0, {n}]")
    tails, total = _binom_tails(n, _check_probability("p0", p0))
    return float(Fraction(tails[k], total))


def bonferroni_edge_test(
    s: GraphSample,
    null_marginals: EdgeMarginals,
    alpha: float = 0.05,
) -> TestResult:
    """Per-edge exact binomial tests with a Bonferroni-corrected global decision.

    Each canonical pair's edge count is tested against its null marginal,
    reading its exact p-value from one tail per distinct null probability,
    built for this call alone. The reported p_value is the Bonferroni-adjusted
    minimum, min(1, E * min_p), and the global null is rejected iff it is at
    most alpha; since alpha < 1, that is iff some per-edge p-value is at most
    alpha/E, the rule the power curve's ``_bc_reject_table`` encodes.
    """
    level = _check_alpha(alpha)
    _check_same_v(s, "sample", null_marginals, "marginals")
    tails = {p0: _binom_tails(s.n, p0) for p0 in set(null_marginals.fractions)}
    p_values = [
        Fraction(tails[p0][0][c], tails[p0][1])
        for c, p0 in zip(s.edge_counts.tolist(), null_marginals.fractions)
    ]
    adjusted = min(Fraction(1), num_pairs(s.v) * min(p_values))
    return TestResult(
        method="bonferroni",
        statistic=None,
        alpha=alpha,
        reject=adjusted <= level,
        p_value=float(adjusted),
        per_edge_p_values=tuple(float(p) for p in p_values),
    )


def _bc_reject_table(n: int, marginals: EdgeMarginals, alpha: float) -> np.ndarray:
    """Boolean (E, n+1) lookup: does count k at pair a reject at level alpha/E.

    Count k rejects when its two-sided tail over the total is at most
    alpha/E; pairs that share a null probability share one row.
    """
    threshold = _check_alpha(alpha) / num_pairs(marginals.v)
    rows = {}
    for p0 in set(marginals.fractions):
        tails, total = _binom_tails(n, p0)
        rows[p0] = [
            t * threshold.denominator <= threshold.numerator * total for t in tails
        ]
    return np.array([rows[p0] for p0 in marginals.fractions], dtype=bool)


def power_curve(
    null: ModelSpec,
    alternatives: Sequence[ModelSpec],
    n: int,
    M: int,
    alpha: float = 0.05,
    R_quantile: int = 10000,
    rng: np.random.Generator | None = None,
    *,
    baseline_bonferroni: bool = False,
) -> list[PowerPoint]:
    """Empirical power against each alternative, at one shared critical value.

    One Monte Carlo critical value is drawn from the null, then each
    alternative contributes M fresh samples of size n; its power is the
    fraction whose statistic exceeds the critical value. The calibration
    and then each alternative, in order, draw from ``rng`` itself. With
    ``baseline_bonferroni`` the same samples are also run through the
    per-edge binomial baseline, filling ``power_baseline``.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    if not alternatives:
        raise ValueError("need at least one alternative model")
    for alt in alternatives:
        _check_same_v(alt, "alternative", null, "null model")
    if M < 100:
        raise ValueError(f"need at least 100 replications per point, got {M}")

    marg, _, kernel, crit = _calibrate_null(null, n, alpha, R_quantile, rng, None)
    bc_table = _bc_reject_table(n, marg, alpha) if baseline_bonferroni else None
    pair_idx = np.arange(num_pairs(null.v))

    points = []
    for alt in alternatives:
        w_rejects = bc_rejects = 0
        for counts in _count_blocks(alt, n, M, rng):
            w_rejects += int((kernel(counts) > crit).sum())
            if bc_table is not None:
                bc_rejects += int(bc_table[pair_idx, counts].any(axis=1).sum())
        points.append(
            PowerPoint(
                parameter=alt.sweep_parameter,
                power=w_rejects / M,
                replications=M,
                power_baseline=bc_rejects / M if baseline_bonferroni else None,
            )
        )
    return points
