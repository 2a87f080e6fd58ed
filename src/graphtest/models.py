"""Random-graph models: independent-edge samplers and exponential-family models.

Three families are provided:

* ``ErdosRenyi``: every edge an independent Bernoulli(p).
* ``ModifiedErdosRenyi``: a fixed subset of pairs uses probability p, the rest
  p0; the subset is chosen once and shared by the whole sample.
* ``Ergm``: exponential family over graphs with weight exp(t1*n_e + t2*n_x)
  where n_x counts triangles or two-stars. Exact enumeration is available up
  to ENUMERATION_MAX_V vertices, and every draw is exact at every v (see
  below). Both ERGMs are exchangeable in their vertices, so their exact edge
  marginals are one value for every pair: the enumerated edge density.

Every model draws the per-pair edge counts of R independent samples at once
with ``edge_count_batches``. An independent-edge model draws its counts by
inversion: one ``rng.random((R, E))`` holds a uniform per count. Each
probability level has a table of CDF thresholds T_k = P(X <= k)
(``_binomial_table``) with a guide of 4 096 buckets (``_guided``; Chen &
Asau 1974, *AIIE Transactions* 6(2)). The block's levels lay their tables
end to end, so every column of the block reads its own level's table in one
pass (``_table_counts``). One table path serves every (n, p), p = 0 and
p = 1 included. The 24 blocks of a v = 40, n = 50, R = 2 000 ER null draw
in ~0.015 s (2-core x86_64). The 64 tables used last are kept for the
process, so the blocks of a call, and later calls at the same (n, p), build
no table again.

Loops over whole arrays (the rows of ``_IndependentEdges.sample``, the
enumerated draws and the summed rows of an ``Ergm``, and the groups and
uniform chunks of coupling from the past) split their work with
``graphs._blocks`` and read the caller's generator in order. A blocked
independent-edge or enumerated-ERGM draw is therefore the draw of one
whole-array call, whatever ``BLOCK_CELLS`` is. Coupled ERGM draws depend on
their group size by design: each group spawns its own SeedSequence.

An ``Ergm`` draws independent graphs from its exact law, in ``sample`` and in
``edge_count_batches`` alike. Up to ENUMERATION_MAX_V vertices they are the
codes of ``rng.choice`` over the enumerated law (``_exact_indicators``); the
model keeps its enumeration once ``ergm_enumerate`` has made it, so its
marginals and its draws share one. Above it they come from coupling from
the past (``_cftp_indicators``; Propp & Wilson 1996, *Random Structures &
Algorithms* 9): two bounding chains, from the complete and from the empty
graph, take heat-bath updates on shared uniforms from ever further in the
past until they meet, and the graph they meet in is an exact draw. For
theta2 >= 0 the update is monotone; for theta2 < 0 each bounding chain reads
the other (anti-monotone coupling, Häggström & Nelander 1998, *Statistica
Neerlandica* 52(3)). The draws of a call advance together as the columns of
neighbour masks, each in the narrowest unsigned word that holds v bits,
one NumPy operation per round of disjoint pairs. A model whose chains have
not met from CFTP_MAX_SWEEPS sweeps back is refused with
``ConfigurationError``, which names the largest T tried and the draws
still unmet. The enumerated edge density is summed exactly and rounded
once, with no BLAS call, so it does not depend on the thread count.
``ergm_mh_sample`` is ``Ergm.sample`` under its old name: it takes a
``McmcConfig`` and does not read it.

Triangles and two-stars are counted over unordered vertex triples (each
triangle once, each two-star once per center and unordered neighbor pair).
Parameter values quoted for conventions that count ordered triples differ by
a constant factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EnumerationRefusedError
from .graphs import (
    EdgeMarginals,
    Graph,
    GraphSample,
    _blocks,
    _check_min_vertices,
    _check_same_v,
    _decimal,
    _pair_slot,
    canonical_pairs,
    num_pairs,
    pair_index,
)

__all__ = [
    "EDGE_TRIANGLE",
    "EDGE_TWO_STAR",
    "ENUMERATION_MAX_V",
    "ErdosRenyi",
    "ModifiedErdosRenyi",
    "Ergm",
    "ModelSpec",
    "McmcConfig",
    "ExactDistribution",
    "DensityPoint",
    "select_modified_pairs",
    "ergm_log_weight",
    "ergm_enumerate",
    "ergm_mh_sample",
    "edge_density_sweep",
]

EDGE_TRIANGLE = "edge_triangle"
EDGE_TWO_STAR = "edge_two_star"

# Exact enumeration visits 2^E graphs; v=6 means 2^15 = 32768.
ENUMERATION_MAX_V = 6

# Coupling from the past first starts its bounding chains this many sweeps
# back and doubles the distance until they meet. A model whose chains have
# not met from CFTP_MAX_SWEEPS sweeps back is refused.
CFTP_START_SWEEPS = 8
CFTP_MAX_SWEEPS = 1 << 12


# Buckets of the guide of an inversion table (``_guided``).
_GUIDE_BUCKETS = 4096


def _check_probability(name: str, p: float) -> Fraction:
    """Check a probability and return it as the decimal it is written as."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return _decimal(p)


def _check_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError("sample size must be >= 1")


class _IndependentEdges:
    """Sampling and marginals of a model whose edge at pair a is an
    independent Bernoulli(p_a).

    A model's one per-pair form is ``_levels(read)``: each parameter read
    once by ``read`` and placed at its pairs. ``pair_probabilities`` reads
    with ``float``, for sampling, and ``exact_marginals`` with ``_decimal``,
    so the marginals never pass through the floats the model samples with.
    """

    def pair_probabilities(self) -> np.ndarray:
        return self._levels(float)

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        """n graphs, graph r set at pair a iff uniform (r, a) of one
        ``rng.random((n, E))`` lies below p_a. The uniforms are drawn and
        compared a block of rows at a time (``_blocks``), into one bool
        (n x E) matrix."""
        _check_sample_size(n)
        probs = self.pair_probabilities()
        draws = np.empty((n, len(probs)), dtype=bool)
        for lo, hi in _blocks(n, len(probs)):
            np.less(rng.random((hi - lo, len(probs))), probs, out=draws[lo:hi])
        return GraphSample._adopt(self.v, draws)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts for R independent samples of size n (R x E).

        Edges are independent, so the counts are independent Binomial(n, p_a)
        draws; the result is distributed exactly as counting edges over R
        samples of n graphs each. They are drawn by inversion of one
        ``rng.random((R, E))``: every column of the block reads its own
        level's table, ``_binomial_table(n, p_a)``, in one pass
        (``_table_counts``).
        """
        _check_sample_size(n)
        probs = self.pair_probabilities()
        levels = sorted(set(probs.tolist()))
        tables = [_binomial_table(n, p) for p in levels]
        return _table_counts(tables, np.searchsorted(levels, probs), rng.random((R, len(probs))))

    def exact_marginals(self) -> EdgeMarginals:
        """Each pair's probability as the decimal it is written as."""
        return EdgeMarginals(self.v, self._levels(_decimal))

    @property
    def sweep_parameter(self) -> float:
        return self.p


@lru_cache(maxsize=64)
def _binomial_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The guided inversion table (``_guided``) of Binomial(n, p). Its
    thresholds are T_k = P(X <= k) for k = 0..n-1, so a uniform u draws the
    number of thresholds at or below it: the smallest k with u < T_k, or n.
    Tables are cached and shared by every caller, so both arrays are
    read-only. One holds (n + 1) float64 and _GUIDE_BUCKETS intp, about
    32 KB + 8n bytes.

    The pmf is computed in log space, with log C(n, k) as a running sum of
    log((n - j + 1) / j) and 0 * log 0 read as 0, and its running sum is
    clipped at 1. Against the exact CDF at n = 1 781 and 2 000, every T_k
    lay within 3e-12 of it. At p = 0 every threshold is 1 and at p = 1
    every threshold is 0, so every uniform draws 0 or n.
    """
    k = np.arange(n + 1)
    log_pmf = np.zeros(n + 1)
    np.cumsum(np.log((n - k[1:] + 1) / k[1:]), out=log_pmf[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf += np.where(k > 0, k * np.log(p), 0.0)
        log_pmf += np.where(k < n, (n - k) * np.log1p(-p), 0.0)
    table = _guided(np.minimum(np.cumsum(np.exp(log_pmf[:-1])), 1.0))
    for a in table:
        a.flags.writeable = False
    return table


def _guided(thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds + [2.0], guide) for ``_table_counts``, after Chen & Asau
    (1974), *AIIE Transactions* 6(2). Let g be the number of thresholds at
    or below b / _GUIDE_BUCKETS. Bucket b is settled when no threshold lies
    strictly inside (b, b + 1) / _GUIDE_BUCKETS: every uniform in it draws
    g, and guide[b] = g. Otherwise guide[b] = -1 - g. The sentinel 2.0 lies
    past every uniform."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    guide = thresholds.searchsorted(edges[:-1], side="right")
    unsettled = thresholds.searchsorted(edges[1:], side="left") > guide
    return np.append(thresholds, 2.0), np.where(unsettled, ~guide, guide)


def _table_counts(
    tables: Sequence[tuple[np.ndarray, np.ndarray]], level: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Each uniform x of u's column j (its last axis) as
    ``thresholds[:-1].searchsorted(x, side="right")`` in its level's table
    of ``_guided``, ``tables[level[j]]``, in the shape of u. The tables are
    laid end to end, so every column reads its own level's table in one
    pass: its bucket is offset to its level's guide, and each count is its
    uniform's guide entry. Only a count from an unsettled bucket, entry
    -1 - g, starts at g and steps up while the next threshold is at or
    below the uniform; its level's sentinel 2.0 stops it."""
    thresholds = np.concatenate([t for t, _ in tables])
    guide = np.concatenate([g for _, g in tables])
    flat = np.ravel(u)
    # Each uniform's bucket is cast straight into intp. A float64 product
    # beside it made glibc hand each block's memory back to the system, and
    # the next block paid a page fault per 4 KiB: 2 895 faults and ~5 of
    # 18 ms in a v = 40, n = 50, R = 2 000 ER-null test (2-core x86_64).
    buckets = np.empty(u.shape, dtype=np.intp)
    np.multiply(u, _GUIDE_BUCKETS, out=buckets, casting="unsafe")
    # A one-level block skips the offsets: adding them is a pass over the
    # block, 30-40 us at v = 10 and v = 40 (2-core x86_64).
    if len(tables) > 1:
        buckets += level * _GUIDE_BUCKETS
    counts = guide.take(buckets).ravel()
    unsettled = step = np.flatnonzero(counts < 0)
    # The steps run on indices into the stacked thresholds: each unsettled
    # count starts from its level's first one.
    first = np.cumsum([0] + [len(t) for t, _ in tables[:-1]])[level[step % len(level)]]
    counts[step] = ~counts[step] + first
    while step.size:
        step = step[thresholds[counts[step]] <= flat[step]]
        counts[step] += 1
    counts[unsettled] -= first
    return counts.reshape(u.shape)


@dataclass(frozen=True)
class ErdosRenyi(_IndependentEdges):
    """Independent identical Bernoulli(p) edges on v vertices."""

    v: int
    p: float

    def __post_init__(self):
        _check_min_vertices(self.v)
        _check_probability("p", self.p)

    def _levels(self, read) -> np.ndarray:
        return np.full(num_pairs(self.v), read(self.p))

    def describe(self) -> dict:
        return {"model": "er", "v": self.v, "p": self.p}


@dataclass(frozen=True)
class ModifiedErdosRenyi(_IndependentEdges):
    """Bernoulli(p) on a fixed set of pairs, Bernoulli(p0) elsewhere.

    The modified pairs are part of the model, chosen before sampling and
    shared by every graph in every sample drawn from it.
    """

    v: int
    p0: float
    p: float
    modified_pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_min_vertices(self.v)
        _check_probability("p0", self.p0)
        _check_probability("p", self.p)
        valid = set(canonical_pairs(self.v))
        bad = set(self.modified_pairs) - valid
        if bad:
            raise ValueError(f"non-canonical pairs for v={self.v}: {sorted(bad)}")

    def _levels(self, read) -> np.ndarray:
        i, j = np.array(list(self.modified_pairs), dtype=np.intp).reshape(-1, 2).T
        modified = np.zeros(num_pairs(self.v), dtype=bool)
        modified[_pair_slot(self.v, i, j)] = True
        return np.where(modified, read(self.p), read(self.p0))

    def describe(self) -> dict:
        return {
            "model": "modified-er",
            "v": self.v,
            "p0": self.p0,
            "p": self.p,
            "modified_pairs": sorted(self.modified_pairs),
        }


@dataclass(frozen=True)
class McmcConfig:
    """A burn-in and thinning schedule, checked and not read: every ERGM draw
    is exact, so ``ergm_mh_sample`` accepts one and ignores it."""

    burn_in: int = 200
    thinning: int = 10

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


@dataclass(frozen=True)
class Ergm:
    """Exponential random graph model with edge plus triangle/two-star terms."""

    v: int
    stats: str
    theta: tuple[float, float]

    def __post_init__(self):
        _check_min_vertices(self.v)
        if self.stats not in (EDGE_TRIANGLE, EDGE_TWO_STAR):
            raise ValueError(
                f"stats must be {EDGE_TRIANGLE!r} or {EDGE_TWO_STAR!r}, "
                f"got {self.stats!r}"
            )
        if len(self.theta) != 2 or not all(math.isfinite(t) for t in self.theta):
            raise ValueError(f"theta must be two finite reals, got {self.theta}")

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        """n independent exact draws (see ``_draws``)."""
        _check_sample_size(n)
        bits = np.concatenate(list(self._draws(n, rng)))
        return GraphSample._adopt(self.v, bits)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts of R samples of size n (R x E): the edges of
        draws r*n .. r*n + n - 1 of ``_draws(R * n, rng)`` summed into row r."""
        _check_sample_size(n)
        E = num_pairs(self.v)
        counts = np.zeros((R, E), dtype=np.int64)
        lo = 0
        for chunk in self._draws(R * n, rng):
            # Summed as int64 a block of rows at a time.
            for a, b in _blocks(len(chunk), E):
                bits, hi = chunk[a:b], lo + b - a
                # The replicates these rows reach, and where each starts in them.
                first, last = lo // n, (hi - 1) // n
                starts = np.maximum(np.arange(first, last + 1) * n, lo) - lo
                counts[first:last + 1] += np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
                lo = hi
        return counts

    def _draws(self, D: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """D independent exact graphs, as consecutive chunks of (rows x E)
        uint8 edge indicators: enumerated up to ENUMERATION_MAX_V vertices
        (``_exact_indicators``), coupled from the past above it
        (``_cftp_indicators``)."""
        if self.v > ENUMERATION_MAX_V:
            return _cftp_indicators(self, D, rng)
        return _exact_indicators(ergm_enumerate(self), D, rng)

    def exact_marginals(self) -> EdgeMarginals:
        """Every pair's marginal: the enumerated edge density.

        The weight depends on a graph only through its edge and triangle or
        two-star counts, which no relabelling of the vertices changes, so all
        pairs share one marginal and the statistic against it is label-free.
        """
        density = ergm_enumerate(self).edge_density()
        # Round-off in the density's sum can reach a hair above 1.
        return EdgeMarginals.constant(self.v, min(density, 1.0))

    @property
    def sweep_parameter(self) -> float:
        return self.theta[1]

    @cached_property
    def _distribution(self) -> ExactDistribution:
        """The enumerated law, made on first use and kept with the model;
        reached through ``ergm_enumerate``, which refuses large v."""
        return _enumerate(self.v, self.stats, self.theta)

    @cached_property
    def _heat_bath(self) -> np.ndarray:
        """P[c] = sigma(theta1 + theta2 * c), the probability that a heat-bath
        update sets a pair whose endpoints have c common neighbours
        (triangles) or c other incident edges (two-stars), for every
        reachable c, computed with ``math.exp``."""
        t1, t2 = self.theta
        top = self.v - 2 if self.stats == EDGE_TRIANGLE else 2 * (self.v - 2)
        table = []
        for x in (t1 + t2 * c for c in range(top + 1)):
            table.append(1 / (1 + math.exp(-x)) if x >= 0 else math.exp(x) / (1 + math.exp(x)))
        return np.array(table)

    def describe(self) -> dict:
        # Every draw is exact, so no run reads a sampler schedule.
        return {
            "model": "ergm",
            "v": self.v,
            "stats": self.stats,
            "theta": list(self.theta),
            "burn_in": None,
            "thinning": None,
        }


ModelSpec = Union[ErdosRenyi, ModifiedErdosRenyi, Ergm]


def select_modified_pairs(
    v: int, q: float, rng: np.random.Generator
) -> frozenset[tuple[int, int]]:
    """Uniformly random subset of round(q*E) canonical pairs (half rounds up),
    with q read as the decimal it is written as."""
    E = num_pairs(v)
    k = math.floor(_check_probability("q", q) * E + Fraction(1, 2))
    pairs = canonical_pairs(v)
    chosen = rng.choice(E, size=k, replace=False)
    return frozenset(pairs[int(a)] for a in chosen)


def ergm_log_weight(g: Graph, spec: Ergm) -> float:
    """Unnormalized log probability t1*n_e + t2*(triangles or two-stars)."""
    _check_same_v(g, "graph", spec, "model")
    t1, t2 = spec.theta
    if spec.stats == EDGE_TRIANGLE:
        extra = g.triangle_count()
    else:
        extra = g.two_star_count()
    return t1 * g.edge_count() + t2 * extra


def _enumeration_counts(v: int, stats: str) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and the ``stats`` count (triangles or two-stars) of every
    edge bitset 0..2^E-1, in code order (int64), from popcounts of the codes."""
    codes = np.arange(1 << num_pairs(v), dtype=np.int64)
    n_e = np.bitwise_count(codes).astype(np.int64)
    n_x = np.zeros(len(codes), dtype=np.int64)
    if stats == EDGE_TRIANGLE:
        for i, j, k in combinations(range(v), 3):
            mask = sum(1 << pair_index(v, *pair) for pair in ((i, j), (j, k), (i, k)))
            n_x += (codes & mask) == mask
        return n_e, n_x

    incident = [0] * v
    for a, (i, j) in enumerate(canonical_pairs(v)):
        incident[i] |= 1 << a
        incident[j] |= 1 << a
    for mask in incident:
        degree = np.bitwise_count(codes & mask).astype(np.int64)
        n_x += degree * (degree - 1) // 2
    return n_e, n_x


class ExactDistribution:
    """Exact probabilities over all 2^E graphs, indexed by edge-bitset value.

    For an ERGM every pair's marginal equals ``edge_density()``; see
    ``Ergm.exact_marginals``. Its fields cannot be reassigned, and it holds
    a read-only view of the probabilities, so a distribution kept with a
    model reads the same for every caller.
    """

    __slots__ = ("_v", "_probabilities")

    def __init__(self, v: int, probabilities: np.ndarray):
        E = num_pairs(v)
        if probabilities.shape != (1 << E,):
            raise ValueError(
                f"expected {1 << E} probabilities for v={v}, "
                f"got shape {probabilities.shape}"
            )
        if not np.isfinite(probabilities).all():
            raise ValueError("probabilities must be finite, got NaN or infinity")
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probabilities.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        self._v = v
        self._probabilities = probabilities.view()
        self._probabilities.flags.writeable = False

    @property
    def v(self) -> int:
        return self._v

    @property
    def probabilities(self) -> np.ndarray:
        return self._probabilities

    def probability_of(self, g: Graph) -> float:
        _check_same_v(g, "graph", self, "distribution")
        return float(self.probabilities[g.bits])

    def edge_density(self) -> float:
        """Expected fraction of pairs joined by an edge, correctly rounded.

        Each probability is read as base-2^26 digits. The digits of one
        place, weighted by edge count, sum to an exact integer in any order
        of addition, so no BLAS call and no thread count enters the result.
        """
        E = num_pairs(self.v)
        n_e = np.bitwise_count(np.arange(1 << E)).astype(np.int64)
        total, places, rest = 0, 0, self.probabilities
        while rest.any():
            rest = rest * 2.0**26
            digits = np.floor(rest)
            rest -= digits
            total = (total << 26) + int(digits.astype(np.int64) @ n_e)
            places += 1
        return float(Fraction(total, E << 26 * places))


def ergm_enumerate(spec: Ergm) -> ExactDistribution:
    """Exact model distribution by summing the weights of all 2^E graphs.

    The first call for a model enumerates; the model keeps the result, and
    every later call for it returns the same read-only distribution.
    """
    if spec.v > ENUMERATION_MAX_V:
        raise EnumerationRefusedError(
            f"enumeration visits 2^{num_pairs(spec.v)} graphs; "
            f"refusing v={spec.v} > {ENUMERATION_MAX_V}"
        )
    return spec._distribution


def _enumerate(v: int, stats: str, theta: tuple[float, float]) -> ExactDistribution:
    n_e, n_x = _enumeration_counts(v, stats)
    t1, t2 = theta
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = t1 * n_e + t2 * n_x
        if not np.isfinite(log_w).all():
            raise ValueError(
                f"ERGM log-weights are not finite in float64 at "
                f"theta={theta}, v={v}"
            )
        # Normalize through log-sum-exp; positive parameters at v=6 would
        # overflow a direct exponential. A log-weight more than the float64
        # range below the largest gets weight 0.
        weights = np.exp(log_w - log_w.max())
    return ExactDistribution(v, weights / weights.sum())


def _exact_indicators(
    dist: ExactDistribution, D: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """D independent draws from ``dist`` as (rows x E) uint8 edge indicators.

    The graphs' codes are those of ``rng.choice(len(p), size=D, p=p)`` for
    p = ``dist.probabilities``, and the stream is left as that call leaves
    it: they are drawn in ``rng.choice`` calls of at most BLOCK_CELLS codes
    (``_blocks`` of width 1), one chunk each, and ``rng.choice`` reads one
    uniform per code. Bit a of a code is canonical pair a.
    """
    E = num_pairs(dist.v)
    p = dist.probabilities
    for lo, hi in _blocks(D, 1):
        codes = rng.choice(len(p), size=hi - lo, p=p)
        # Little-endian bytes of each code, bit a of the code first.
        code_bytes = codes.astype("<u8").view(np.uint8).reshape(-1, 8)
        yield np.unpackbits(code_bytes, axis=1, count=E, bitorder="little")


def _matching_rounds(v: int) -> list[list[tuple[int, int]]]:
    """The canonical pairs in rounds of pairwise disjoint pairs, by the circle
    method: v - 1 rounds of v/2 pairs for even v, v rounds of (v-1)/2 pairs
    for odd v (vertex v is then a bye)."""
    m = v + v % 2
    rounds = []
    for r in range(m - 1):
        pairs = [(r, m - 1)] + [((r + s) % (m - 1), (r - s) % (m - 1))
                                for s in range(1, m // 2)]
        rounds.append(sorted((min(p), max(p)) for p in pairs if max(p) < v))
    return rounds


def _cftp_indicators(
    spec: Ergm, D: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """D independent exact draws from ``spec`` by coupling from the past, as
    (rows x E) uint8 edge indicators, one chunk per column group.

    A draw is a column. An upper chain starts from the complete graph and a
    lower one from the empty graph, T sweeps in the past. A sweep updates
    every pair once, round by round of ``_matching_rounds``: a pair is set
    iff its uniform u < P[c] of ``Ergm._heat_bath``. Disjoint pairs do not
    change each other's c, so a round updates its pairs at once. For
    theta2 >= 0, P rises with c and each chain reads its own c, which keeps
    lower <= upper; for theta2 < 0 each chain reads the other's c, which
    keeps that order too, and every chain started between the two stays
    between them. Where they are equal at time 0, that graph is the draw.
    Otherwise T doubles from CFTP_START_SWEEPS, and the new epoch of the
    past runs first, then the epochs already drawn, on the same uniforms.
    Past CFTP_MAX_SWEEPS the model is refused with ``ConfigurationError``,
    which names the largest T tried and how many of the group's draws it
    left unmet.

    A neighbour mask is held in the narrowest unsigned word of B = 8, 16,
    32 or 64 bits that holds v bits, or in W = ceil(v / 64) uint64 words
    above 32 vertices. Columns run in the groups of
    ``_blocks(D, v * ceil(v / 64))``, at most BLOCK_CELLS // (v * ceil(v / 64))
    draws, whatever the word. Each group takes a SeedSequence spawned off
    ``rng``'s, and each of its epochs a child of that. These spawns are the
    one place where the block size decides draws: the group size fixes
    which columns share a group's uniforms, so coupled draws depend on it by
    design. On every replay an epoch draws its uniforms again as one
    row per pair update, in scan order, and one column per draw of the
    whole group, in chunks of rounds; a column reads its own, so its
    uniforms do not depend on which other columns have met.
    """
    v = spec.v
    B = next((b for b in (8, 16, 32) if v <= b), 64)
    W, word = -(-v // B), np.dtype(f"u{B // 8}")
    P = spec._heat_bath
    rising = spec.theta[1] >= 0

    def masks(rows) -> np.ndarray:
        # Bit x of a row of B * W flags is bit x % B of word x // B.
        packed = np.packbits(rows, axis=-1, bitorder="little")
        return packed.view(word.newbyteorder("<")).astype(word)

    rounds = []
    for pairs in _matching_rounds(v):
        I, J = (np.array(ends) for ends in zip(*pairs))
        # (2, k, W, 1, 1): the bit that each end's mask holds for the other.
        other = masks(np.eye(B * W, dtype=bool)[[J, I]])[..., None, None]
        rounds.append((np.concatenate([I, J]), other, ~other))
    k = len(rounds[0][0]) // 2
    adjacency = ~np.eye(v, B * W, dtype=bool)
    adjacency[:, v:] = False
    complete = masks(adjacency)
    # Pair (i, j) of the canonical order is column starts[i] + j - i - 1.
    starts = np.cumsum([0] + list(range(v - 1, 0, -1)))

    def run(X, seq, sweeps, active, size):
        gen = np.random.default_rng(seq)
        for lo, hi in _blocks(sweeps * len(rounds), k * size):
            u = gen.random(((hi - lo) * k, size))
            if len(active) < size:
                u = u[:, active]
            for t, row in enumerate(range(0, len(u), k), lo):
                IJ, other, keep = rounds[t % len(rounds)]
                # Both ends of every pair of the round, in one gather.
                ends = X[IJ]
                XIJ = ends.reshape(2, k, *ends.shape[1:])
                XIJ &= keep
                if spec.stats == EDGE_TRIANGLE:
                    c = np.bitwise_count(XIJ[0] & XIJ[1])
                else:
                    c = np.bitwise_count(XIJ[0]) + np.bitwise_count(XIJ[1])
                c = c[:, 0] if W == 1 else c.sum(axis=1)
                put = (u[row:row + k, None] < P.take(c if rising else c[:, ::-1]))[:, None]
                XIJ |= put * other
                X[IJ] = ends

    root = rng.bit_generator.seed_seq
    for lo, hi in _blocks(D, v * -(-v // 64)):
        # One spawn a group gives the SeedSequences of one spawn for all.
        (seq,) = root.spawn(1)
        size = hi - lo
        out = np.empty((size, num_pairs(v)), dtype=np.uint8)
        active, epochs, T = np.arange(size), [], CFTP_START_SWEEPS
        while len(active):
            if T > CFTP_MAX_SWEEPS:
                raise ConfigurationError(
                    f"coupling from the past found no exact draw within "
                    f"{T // 2} sweeps for {len(active)} of a group of {size} "
                    f"draws, for the {spec.stats} ERGM on v={v} vertices at "
                    f"theta={spec.theta}"
                )
            epochs += seq.spawn(1)
            # X[x, w, 0 or 1, column]: word w of vertex x's neighbour mask in
            # the upper or the lower chain.
            X = np.zeros((v, W, 2, len(active)), dtype=word)
            X[:, :, 0] = complete[:, :, None]
            for e in reversed(range(len(epochs))):
                run(X, epochs[e], CFTP_START_SWEEPS << max(e - 1, 0), active, size)
            met = (X[:, :, 0] == X[:, :, 1]).all(axis=(0, 1))
            for i in range(v - 1):
                words = np.ascontiguousarray(X[i, :, 1][:, met].T, dtype=word.newbyteorder("<"))
                row = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
                out[active[met], starts[i]:starts[i + 1]] = row[:, i + 1:v]
            active, T = active[~met], 2 * T
        yield out


def ergm_mh_sample(
    spec: Ergm,
    n: int,
    mcmc: McmcConfig,
    rng: np.random.Generator,
) -> GraphSample:
    """n exact draws from ``spec``: ``spec.sample(n, rng)``, the same graphs
    from the same stream. ``mcmc`` is accepted and not read. A model that
    ``Ergm.sample`` refuses raises ``ConfigurationError`` here too."""
    return spec.sample(n, rng)


@dataclass(frozen=True)
class DensityPoint:
    """Mean edge density observed for one parameter value."""

    theta1: float
    theta2: float
    density: float
    draws: int


def edge_density_sweep(
    specs: Sequence[Ergm],
    n: int,
    rng: np.random.Generator,
) -> list[DensityPoint]:
    """Mean edge density over n exact draws for each model in the grid.

    The grid points draw from ``rng`` itself, in order: each sums the edge
    counts of ``spec.edge_count_batches(n, 1, rng)``, the same draws as
    ``spec.sample(n, rng)`` without holding the graphs, so memory does not
    grow with n. A density below 0.02 or above 0.98 triggers a degeneracy
    warning: the model concentrates on near-empty or near-complete graphs.
    """
    if not specs:
        raise ValueError("parameter grid must be nonempty")
    out = []
    for spec in specs:
        edges = int(spec.edge_count_batches(n, 1, rng).sum())
        density = edges / (n * num_pairs(spec.v))
        if density < 0.02 or density > 0.98:
            warnings.warn(
                f"near-degenerate model at theta={spec.theta}: "
                f"edge density {density:.4f}",
                stacklevel=2,
            )
        out.append(
            DensityPoint(
                theta1=spec.theta[0],
                theta2=spec.theta[1],
                density=density,
                draws=n,
            )
        )
    return out
