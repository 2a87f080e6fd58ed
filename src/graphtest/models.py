"""Random-graph models: independent-edge samplers and exponential-family models.

Three families are provided:

* ``ErdosRenyi``: every edge an independent Bernoulli(p).
* ``ModifiedErdosRenyi``: a fixed subset of pairs uses probability p, the rest
  p0; the subset is chosen once and shared by the whole sample.
* ``Ergm``: exponential family over graphs with weight exp(t1*n_e + t2*n_x)
  where n_x counts triangles or two-stars. Exact enumeration is available up
  to ENUMERATION_MAX_V vertices; beyond that a single-edge-flip
  Metropolis-Hastings chain draws approximate samples. Both ERGMs are
  exchangeable in their vertices, so their exact edge marginals are one
  value for every pair: the enumerated edge density.

Every model draws the per-pair edge counts of R independent samples at once
with ``edge_count_batches``. An independent-edge model draws the counts of
``rng.binomial(n, p, (R, E))`` and leaves the generator where that call
leaves it. Where NumPy draws by inversion, it reads one uniform per count
and looks it up in a table of its level's thresholds (``_inversion_table``)
through a guide of 4 096 buckets (``_guided``): the 24 blocks of a v = 40,
n = 50, R = 2 000 ER null draw in ~0.03 s so, against ~0.08 s by binary
search in the same table and 0.18 s by ``rng.binomial`` (2-core x86_64).
Three cases are drawn by ``rng.binomial`` itself: a level with
n * min(p, 1 - p) > 30, which NumPy draws by BTPE; a pair with p = 0, for
which NumPy reads nothing; and a block where a uniform lands at or past its
table's last threshold, where NumPy would restart on a fresh uniform. A
caller that draws many blocks builds each (n, p) table once and passes the
tables to every block (``_binomial_tables``). An ``Ergm`` up to
ENUMERATION_MAX_V vertices draws whole graphs from its enumerated law (see
``_exact_edge_counts``); the model keeps its enumeration once
``ergm_enumerate`` has made it, so its
marginals and its draws share one. A larger ``Ergm`` is chain-drawn: it runs
one chain per sample, and all R chains advance together: each proposal step
is about a dozen NumPy calls over the R chains, whose graphs are held as
uint64 neighbour bitmasks. A flip is accepted when its uniform falls below a
threshold table built once with ``math.exp``, so every chain makes exactly
the decisions of the scalar sampler ``ergm_mh_sample`` given the same draws.
Both samplers take their draws and their burn-in and thinning schedule from
``_mh_sweeps``, which documents the draw layout. A step costs the same NumPy
calls however many chains take it, so the engine pays off only for many
chains: Monte Carlo blocks of chain-drawn ERGM replicates hold at least
``MH_MIN_CHAINS`` of them, and blocks of models that share v, statistics and
schedule can run as column groups of one call, each on its own draws and
with its own theta. ``Ergm.sample`` always runs the chain, at every v.

Triangles and two-stars are counted over unordered vertex triples (each
triangle once, each two-star once per center and unordered neighbor pair).
Parameter values quoted for conventions that count ordered triples differ by
a constant factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import EnumerationRefusedError
from .graphs import (
    BLOCK_CELLS,
    EdgeMarginals,
    Graph,
    GraphSample,
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

# The lockstep engine prepares flip indices for about this many chain steps
# at a time, which bounds its working memory beyond the draws and counts.
MH_GROUP_CELLS = 1 << 14

# A lockstep step costs a fixed ~15-20 us of NumPy calls at 64 chains, and
# a scalar step ~0.4-1 us (2-core x86_64, v = 10..100), so Monte Carlo
# blocks of ERGM replicates hold at least this many chains; 64 measured
# 1.7-3.7x faster per chain step than the scalar chain at v = 10, 66 and 100.
MH_MIN_CHAINS = 64

# A lockstep call holds at most this many column groups. Each group draws
# its own chunks of up to BLOCK_CELLS cells (see ``_mh_sweeps``), so this
# bounds a call's draws at MH_MAX_GROUPS chunks.
MH_MAX_GROUPS = 8


# NumPy's ``Generator.binomial`` draws Binomial(n, p) by inversion when
# n * min(p, 1 - p) is at most this, and by BTPE above it.
_INVERSION_MAX_MEAN = 30.0

# ``Generator.random`` returns the multiples m / 2**53 for 0 <= m < 2**53.
_UNIFORM_GRID = 1 << 53

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
        _check_sample_size(n)
        draws = rng.random((n, num_pairs(self.v))) < self.pair_probabilities()
        return GraphSample.from_indicator_matrix(self.v, draws)

    def edge_count_batches(
        self,
        n: int,
        R: int,
        rng: np.random.Generator,
        tables: dict | None = None,
    ) -> np.ndarray:
        """Per-pair edge counts for R independent samples of size n (R x E).

        Edges are independent, so the counts are independent Binomial(n, p_a)
        draws; the result is distributed exactly as counting edges over R
        samples of n graphs each. The counts and the generator state after
        the call are those of ``rng.binomial(n, p, (R, E))``; see
        ``_binomial_counts``. ``tables`` holds the inversion tables of this
        model's levels at n, made by ``_binomial_tables``; without it they
        are built for this call.
        """
        _check_sample_size(n)
        if tables is None:
            tables = self._binomial_tables(n, {})
        return _binomial_counts(n, self.pair_probabilities(), R, rng, tables)

    def _binomial_tables(self, n: int, tables: dict) -> dict:
        """Add the guided inversion table (or None) of each of this model's
        levels at sample size n to ``tables``, keyed (n, p), unless it is
        there already, and return ``tables``. Models drawn in one call share
        one dict, so each (n, p) table is built once."""
        for p in set(self.pair_probabilities().tolist()):
            if (n, p) not in tables:
                table = _inversion_table(n, p)
                tables[n, p] = None if table is None else _guided(*table)
        return tables

    def exact_marginals(self) -> EdgeMarginals:
        """Each pair's probability as the decimal it is written as."""
        return EdgeMarginals(self.v, self._levels(_decimal))

    @property
    def sweep_parameter(self) -> float:
        return self.p


def _inversion_table(n: int, p: float) -> tuple[np.ndarray, bool] | None:
    """(thresholds, flipped) of NumPy's inversion draw of Binomial(n, p), or
    None where ``Generator.binomial`` does not draw it by inversion. Uniform
    u draws k, the number of thresholds at or below u, or n - k when
    ``flipped``; a uniform at or past the last threshold has no count here.

    NumPy returns 0 and reads nothing for p = 0, and draws by BTPE, reading a
    varying number of uniforms, when n * min(p, 1 - p) > _INVERSION_MAX_MEAN;
    both get None. Otherwise it draws at p' = p, or at p' = 1 - p and returns
    n less the draw when p > 1/2. The draw reads one uniform U and walks the
    pmf with q = 1 - p', px_0 = exp(n log q) and
    px_k = ((n - k + 1) p' px_(k-1)) / (k q): while U > px_k it counts k up
    and sets U to U - px_k, and past bound = int(min(n, n p' + 10 sqrt(n p' q
    + 1))) it restarts on a fresh uniform. Every step is one rounded float
    operation, and none lowers the count as U rises, so the count is the
    number of thresholds T_0 <= ... <= T_bound at or below U, where T_k is
    the smallest uniform m / 2**53 whose walk, run with the same float
    operations, passes k. A uniform at or past T_bound would restart.

    T_k is found by bisection over m in a window of k + 3 grid steps either
    side of the rounded sum px_0 + ... + px_k, the walk running with every
    k at once, and over the whole grid where the window does not bracket
    it. m = 2**53, past every uniform, marks a k no walk passes.
    """
    if p == 0.0:
        return None
    flipped = p > 0.5
    p = 1.0 - p if flipped else p
    if p * n > _INVERSION_MAX_MEAN:
        return None
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    # libm's exp and log, which NumPy's C code calls; np.exp has SIMD code
    # of its own. The operations and their order are NumPy's.
    px = [math.exp(n * math.log(q))]
    for k in range(1, bound + 1):
        px.append(((n - k + 1) * p * px[-1]) / (k * q))
    K = bound + 1
    pmf = np.array(px)
    # Row k tests whether the walk passes k: column 0 holds the uniform, and
    # column j + 1 the px_j it loses at step j. Steps after k do not count.
    steps = np.empty((K, K))
    steps[:, 1:] = pmf[:-1]
    after = np.triu(np.ones((K, K), dtype=bool), 1)

    def passes(m: np.ndarray) -> np.ndarray:
        steps[:, 0] = np.clip(m, 0, _UNIFORM_GRID - 1) * 2.0**-53
        walk = np.subtract.accumulate(steps, axis=1)
        passed = ((walk > pmf) | after).all(axis=1)
        return (passed | (m >= _UNIFORM_GRID)) & (m >= 0)

    # Invariant: the walk passes k from hi[k] and not from lo[k].
    centre = np.array(
        [round(math.fsum(px[:k + 1]) * _UNIFORM_GRID) for k in range(K)]
    )
    reach = np.arange(K) + 3
    lo = np.clip(centre - reach, -1, _UNIFORM_GRID)
    hi = np.clip(centre + reach, -1, _UNIFORM_GRID)
    missed = passes(lo) | ~passes(hi)
    lo[missed], hi[missed] = -1, _UNIFORM_GRID
    while (open_ := hi - lo > 1).any():
        mid = (lo + hi) // 2
        passed = passes(mid)
        hi = np.where(open_ & passed, mid, hi)
        lo = np.where(open_ & ~passed, mid, lo)
    thresholds = hi * 2.0**-53
    thresholds.flags.writeable = False
    return thresholds, flipped


def _guided(thresholds: np.ndarray, flipped: bool) -> tuple:
    """(thresholds + [2.0], guide, flipped) for ``_table_counts``: guide[b]
    is the number of thresholds at or below b / _GUIDE_BUCKETS, and the
    sentinel 2.0 lies past every uniform. A guide table after Chen & Asau
    (1974), *AIIE Transactions* 6(2)."""
    buckets = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
    guide = thresholds.searchsorted(buckets, side="right")
    return np.append(thresholds, 2.0), guide, flipped


def _table_counts(
    thresholds: np.ndarray, guide: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``thresholds[:-1].searchsorted(u, side="right")`` for a table of
    ``_guided``, in the shape of u: each count starts at the guide entry of
    its uniform's bucket and steps up while the next threshold is at or
    below the uniform. The steps are taken on a flat C-ordered copy of u (a
    column selection ``uniforms[:, cols]`` is F-ordered), which is reshaped
    to u's shape only at the end."""
    flat = np.ravel(u)
    counts = guide[(flat * _GUIDE_BUCKETS).astype(np.intp)]
    step = np.flatnonzero(thresholds[counts] <= flat)
    while step.size:
        counts[step] += 1
        step = step[thresholds[counts[step]] <= flat[step]]
    return counts.reshape(u.shape)


def _binomial_counts(
    n: int, probs: np.ndarray, R: int, rng: np.random.Generator, tables: dict
) -> np.ndarray:
    """The (R x E) counts of ``rng.binomial(n, probs, (R, E))``, leaving
    ``rng`` where that call leaves it; ``tables`` holds every level's
    ``_inversion_table`` at n as ``_guided`` makes it, keyed (n, p).

    Where every level has a table, NumPy reads one uniform per count, in
    row-major order, so one ``rng.random((R, E))`` reads them all, and each
    level's columns look theirs up in its table (``_table_counts``). NumPy's
    call draws instead when a level has no table, and when a uniform lands
    at or past its table's last threshold, after the state saved before the
    uniforms is restored.
    """
    E = len(probs)
    levels = {p: tables[n, p] for p in set(probs.tolist())}
    if any(table is None for table in levels.values()):
        return rng.binomial(n, probs, size=(R, E))
    state = rng.bit_generator.state
    uniforms = rng.random((R, E))
    counts = None if len(levels) == 1 else np.empty((R, E), dtype=np.int64)
    for p, (thresholds, guide, flipped) in levels.items():
        cols = slice(None) if counts is None else np.flatnonzero(probs == p)
        drawn = _table_counts(thresholds, guide, uniforms[:, cols])
        if drawn.max() == len(thresholds) - 1:
            rng.bit_generator.state = state
            return rng.binomial(n, probs, size=(R, E))
        if flipped:
            np.subtract(n, drawn, out=drawn)
        if counts is None:
            return drawn
        counts[:, cols] = drawn
    return counts


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
    """Metropolis-Hastings schedule; one sweep proposes E single-edge flips."""

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
    mcmc: McmcConfig = field(default=McmcConfig(), compare=False)

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
        return ergm_mh_sample(self, n, self.mcmc, rng)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts of R samples of size n (R x E).

        Up to ENUMERATION_MAX_V vertices the graphs are independent exact
        draws from the enumerated law (``_exact_edge_counts``), and the MCMC
        schedule is not read. Beyond it each sample is one MH chain, and the
        R chains run in lockstep; see ``_mh_lockstep_edge_counts``.
        """
        if _chain_drawn(self):
            return _mh_lockstep_edge_counts([(self, R, rng)], n)
        _check_sample_size(n)
        return _exact_edge_counts(ergm_enumerate(self), n, R, rng)

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

    def describe(self) -> dict:
        return {
            "model": "ergm",
            "v": self.v,
            "stats": self.stats,
            "theta": list(self.theta),
            "burn_in": self.mcmc.burn_in,
            "thinning": self.mcmc.thinning,
        }


ModelSpec = Union[ErdosRenyi, ModifiedErdosRenyi, Ergm]


def _chain_drawn(model: ModelSpec) -> bool:
    """Whether ``model.edge_count_batches`` runs Metropolis-Hastings chains:
    an ``Ergm`` too large to enumerate."""
    return isinstance(model, Ergm) and model.v > ENUMERATION_MAX_V


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
        """Expected fraction of pairs joined by an edge."""
        E = num_pairs(self.v)
        n_e = np.bitwise_count(np.arange(1 << E)).astype(np.float64)
        return float(self.probabilities @ n_e) / E


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


def _exact_edge_counts(
    dist: ExactDistribution, n: int, R: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-pair edge counts of R samples of n independent draws from ``dist``.

    The graphs' codes are those of ``rng.choice(len(p), size=(R, n), p=p)``
    for p = ``dist.probabilities``, and the stream is left as that call
    leaves it: they are drawn row by row in ``rng.choice`` calls of at most
    BLOCK_CELLS codes, and ``rng.choice`` reads one uniform per code. Each
    code is unpacked into its E edge bits, and the bits of replicate r's n
    graphs, draws r*n .. r*n + n - 1, are summed into row r (R x E, int64).
    """
    E = num_pairs(dist.v)
    p = dist.probabilities
    counts = np.zeros((R, E), dtype=np.int64)
    total = R * n
    for lo in range(0, total, BLOCK_CELLS):
        hi = min(lo + BLOCK_CELLS, total)
        codes = rng.choice(len(p), size=hi - lo, p=p)
        # Little-endian bytes of each code, bit a of the code first.
        code_bytes = codes.astype("<u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(code_bytes, axis=1, count=E, bitorder="little")
        # The replicates this chunk reaches, and where each starts in it.
        first, last = lo // n, (hi - 1) // n
        starts = np.maximum(np.arange(first, last + 1) * n, lo) - lo
        counts[first:last + 1] += np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
    return counts


def _mh_thresholds(spec: Ergm) -> list[list[float]]:
    """Acceptance thresholds T[present][change] of a single-edge flip.

    ``present`` is 1 when the flip removes an edge, and ``change`` is the
    number of triangles (common neighbours) or two-stars (other endpoint
    degrees) the edge takes part in. A flip is accepted when its uniform u
    satisfies u < T: entries are exp(delta) of the log-ratio delta, computed
    with ``math.exp``, and 2.0 where delta >= 0, so those flips always pass.

    Where every reachable delta is 0 (theta = (0, 0), or theta1 = 0 at
    v = 2), every entry is 0.5 instead: a chain that accepted every flip
    would flip exactly E pairs a sweep and so never change the parity of
    its edge count. The lazy chain keeps the uniform target. Tables are at
    least two columns wide, because the lockstep engine weighs ``present``
    by the width less 2 for two-stars; the second column at v = 2 is never
    read.
    """
    t1, t2 = spec.theta
    top = spec.v - 2 if spec.stats == EDGE_TRIANGLE else 2 * (spec.v - 2)
    deltas = [t1 + t2 * c for c in range(max(top, 1) + 1)]
    if not any(deltas[:top + 1]):
        return [[0.5] * len(deltas)] * 2

    def threshold(delta: float) -> float:
        return 2.0 if delta >= 0 else math.exp(delta)

    return [[threshold(d) for d in deltas], [threshold(-d) for d in deltas]]


def _mh_sweeps(
    E: int, R: int, n: int, mcmc: McmcConfig, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Proposal draws of R chains, one sweep at a time: (slots, uniforms, keep).

    Each chain starts from the empty graph and makes burn_in + n * thinning
    sweeps of E proposals; ``keep`` marks the sweeps that end with a retained
    draw, every ``thinning``-th one after ``burn_in``. Step s of chain c
    flips canonical pair ``slots[s, c]`` when ``uniforms[s, c]`` falls below
    its acceptance threshold; both arrays are (E x R).

    Draw layout: sweeps are drawn in chunks of
    k = max(1, BLOCK_CELLS // (E*R)), each chunk one
    ``rng.integers(0, E, (k*E, R))`` of slots followed by one
    ``rng.random((k*E, R))`` of uniforms, read row by row. With R = 1 that is
    one chain's order, so ``ergm_mh_sample`` and a one-chain lockstep run see
    the same draws. Slots and uniforms alternate per chunk, so the draws a
    chain sees depend on R and on the chunk size.
    """
    total_sweeps = mcmc.burn_in + n * mcmc.thinning
    chunk_sweeps = max(1, BLOCK_CELLS // (E * R))
    sweep = 0
    while sweep < total_sweeps:
        todo = min(chunk_sweeps, total_sweeps - sweep)
        slots = rng.integers(0, E, size=(todo * E, R))
        unif = rng.random((todo * E, R))
        for lo in range(0, todo * E, E):
            sweep += 1
            kept = (sweep - mcmc.burn_in) % mcmc.thinning == 0
            yield slots[lo:lo + E], unif[lo:lo + E], sweep > mcmc.burn_in and kept


def ergm_mh_sample(
    spec: Ergm,
    n: int,
    mcmc: McmcConfig,
    rng: np.random.Generator,
) -> GraphSample:
    """n draws from a single-edge-flip Metropolis-Hastings chain.

    The proposal flips one uniformly chosen canonical pair, so acceptance is
    min(1, exp(theta . dS)), or 1/2 where every flip has theta . dS = 0 (see
    ``_mh_thresholds``), with dS computed incrementally: the edge count
    changes by one and the triangle (two-star) count by the number of common
    neighbors of the endpoints (the sum of their other degrees). The chain
    starts from the empty graph; one draw is retained every ``thinning``
    sweeps after ``burn_in`` sweeps, one sweep being E proposals.
    """
    _check_sample_size(n)
    v = spec.v
    add, remove = _mh_thresholds(spec)
    sweeps = _mh_sweeps(num_pairs(v), 1, n, mcmc, rng)
    # Per slot a: its endpoints and the bits that pair sets in the edge
    # bitset and in each endpoint's neighbour mask.
    steps = [
        (i, j, 1 << a, 1 << j, 1 << i) for a, (i, j) in enumerate(canonical_pairs(v))
    ]

    bits = 0
    retained: list[Graph] = []
    if spec.stats == EDGE_TRIANGLE:
        adj = [0] * v
        for slots, unif, keep in sweeps:
            for a, u in zip(slots.ravel().tolist(), unif.ravel().tolist()):
                i, j, edge, bit_j, bit_i = steps[a]
                common = (adj[i] & adj[j]).bit_count()
                if u < (remove[common] if bits & edge else add[common]):
                    bits ^= edge
                    adj[i] ^= bit_j
                    adj[j] ^= bit_i
            if keep:
                retained.append(Graph(v, bits))
    else:
        deg = [0] * v
        for slots, unif, keep in sweeps:
            for a, u in zip(slots.ravel().tolist(), unif.ravel().tolist()):
                i, j, edge, _, _ = steps[a]
                if bits & edge:
                    if u < remove[deg[i] + deg[j] - 2]:
                        bits ^= edge
                        deg[i] -= 1
                        deg[j] -= 1
                elif u < add[deg[i] + deg[j]]:
                    bits ^= edge
                    deg[i] += 1
                    deg[j] += 1
            if keep:
                retained.append(Graph(v, bits))
    return GraphSample(retained)


def _mh_lockstep_edge_counts(
    groups: Sequence[tuple[Ergm, int, np.random.Generator]], n: int
) -> np.ndarray:
    """Per-pair edge counts of n draws from each chain of every column group.

    Group (spec, R, rng) runs R chains of ``spec`` on the draws of
    ``_mh_sweeps(E, R, n, spec.mcmc, rng)``: the chains of ``ergm_mh_sample``,
    as if the group ran alone. The groups' chains are columns side by side
    and take their proposal steps together as NumPy operations, and their
    count rows come out in group order, (sum of R x E). All groups share v,
    the statistics and the MCMC schedule; theta may differ, and each column
    reads its own group's thresholds. With one group of one chain the counts
    are those of ``ergm_mh_sample``.

    A chain's graph is held as neighbour bitmasks of ceil(v/64) uint64 words
    per vertex; the flip of pair (i, j) toggles bit j of mask i and bit i of
    mask j. Common neighbours and degrees are popcounts of those masks. Each
    step costs a fixed number of NumPy calls whatever the number of chains,
    so the engine pays off only with many chains (see ``MH_MIN_CHAINS``).
    """
    _check_sample_size(n)
    spec = groups[0][0]
    for other, _, _ in groups:
        if (other.v, other.stats, other.mcmc) != (spec.v, spec.stats, spec.mcmc):
            raise ValueError(
                "lockstep groups must share v, stats and the MCMC schedule"
            )
    v, E = spec.v, num_pairs(spec.v)
    sizes = [size for _, size, _ in groups]
    R = sum(sizes)
    W = -(-v // 64)
    pair_i, pair_j = np.array(canonical_pairs(v), dtype=np.intp).T
    triangles = spec.stats == EDGE_TRIANGLE
    # Group g's T[present, change] flattened at offset g * 2 * stride, read at
    # key = present * present_weight + change (+ the offset), in the
    # narrowest unsigned type that holds every key.
    tables = [np.array(_mh_thresholds(other)) for other, _, _ in groups]
    stride = tables[0].shape[1]
    T = np.concatenate([table.ravel() for table in tables])
    key_type = np.min_scalar_type(T.size - 1).type
    # Two-stars: change = deg_i + deg_j - 2*present.
    present_weight = key_type(stride if triangles else stride - 2)
    offsets = None
    if len(groups) > 1:
        offsets = np.repeat(np.arange(len(groups)) * 2 * stride, sizes)
        offsets = offsets.astype(key_type)

    # Word w of vertex x's mask in chain c is flat[w*R*v + c*v + x].
    flat = np.zeros(W * R * v, dtype=np.uint64)
    # The words a step reads, less the chain's offset c*v, by proposal slot:
    # rows 0 and 1 hold the pair's bit in the masks of i and of j; with more
    # than one word per vertex they are followed by every word of i, then
    # every word of j. Row k of slot a is word_table[k*E + a].
    word_rows = [(pair_j // 64) * (R * v) + pair_i, (pair_i // 64) * (R * v) + pair_j]
    if W > 1:
        word_rows += [w * (R * v) + pair_i for w in range(W)]
        word_rows += [w * (R * v) + pair_j for w in range(W)]
    word_table = np.concatenate(word_rows)
    shifts = np.concatenate((pair_j % 64, pair_i % 64)).astype(np.uint64)
    bit_table = np.uint64(1) << shifts
    row_starts = (np.arange(len(word_rows), dtype=np.intp) * E)[:, None]
    chain_rows = np.arange(R, dtype=np.intp) * v
    counts = np.zeros((R, E), dtype=np.int64)
    key = np.empty(R, dtype=key_type)
    threshold = np.empty(R)
    accept = np.empty(R, dtype=bool)
    flips = np.empty((2, R), dtype=np.uint64)

    sweeps = [_mh_sweeps(E, size, n, spec.mcmc, rng) for _, size, rng in groups]
    # Flip indices are prepared for this many steps at a time.
    group = max(1, MH_GROUP_CELLS // R)
    # Not zip(*sweeps): zip keeps its first result tuple, and with it the
    # first chunk of draws, alive while later chunks are drawn.
    for slots, unif, keep in sweeps[0]:
        if len(sweeps) > 1:
            rest = [next(other) for other in sweeps[1:]]
            slots = np.hstack([slots, *(drawn[0] for drawn in rest)])
            unif = np.hstack([unif, *(drawn[1] for drawn in rest)])
        for lo in range(0, E, group):
            index = slots[lo:lo + group, None, :] + row_starts
            words = word_table.take(index)
            words += chain_rows
            bits = bit_table.take(index[:, :2])
            held_words = words if W == 1 else words[:, :2]
            for word, held_word, bit, u in zip(
                words, held_words, bits, unif[lo:lo + group]
            ):
                masks = flat.take(word)
                ends = masks if W == 1 else masks[2:]
                np.bitwise_count(masks[0] & bit[0], out=key)
                key *= present_weight
                if triangles:
                    for common in np.bitwise_count(ends[:W] & ends[W:]):
                        key += common
                else:
                    for degree in np.bitwise_count(ends):
                        key += degree
                if offsets is not None:
                    key += offsets
                # ``take`` with uint8 indices and a flip through ``where=``
                # both measured slower than an intp copy and a multiply.
                np.less(u, T.take(key.astype(np.intp), out=threshold), out=accept)
                held = masks if W == 1 else masks[:2]
                held ^= np.multiply(bit, accept, out=flips)
                flat[held_word] = held
        if keep:
            counts += _edge_indicators(flat.reshape(W, R * v), v, pair_i, pair_j)
    return counts


def _edge_indicators(
    masks: np.ndarray, v: int, pair_i: np.ndarray, pair_j: np.ndarray
) -> np.ndarray:
    """(R x E) uint8 edge indicators of chains held as neighbour bitmasks."""
    # Row c*v + x: vertex x's mask words in chain c, as little-endian bytes.
    words = np.ascontiguousarray(masks.T, dtype="<u8")
    adjacency = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return adjacency.reshape(-1, v, adjacency.shape[1])[:, pair_i, pair_j]


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
    """Mean edge density over n chain draws for each model in the grid.

    Every grid point runs its spec's own schedule ``spec.mcmc`` on its own
    generator stream derived from ``rng``, so points can be evaluated in
    any order. A density below 0.02 or above 0.98 triggers a degeneracy
    warning: the chain is concentrating on near-empty or near-complete
    graphs.
    """
    if not specs:
        raise ValueError("parameter grid must be nonempty")
    children = rng.spawn(len(specs))
    out = []
    for spec, child in zip(specs, children):
        sample = spec.sample(n, child)
        density = int(sample.edge_counts.sum()) / (sample.n * num_pairs(spec.v))
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
