"""Random-graph models: independent-edge samplers and exponential-family models.

Three families are provided:

* ``ErdosRenyi``: every edge an independent Bernoulli(p).
* ``ModifiedErdosRenyi``: a fixed subset of pairs uses probability p, the rest
  p0; the subset is chosen once and shared by the whole sample.
* ``Ergm``: exponential family over graphs with weight exp(t1*n_e + t2*n_x)
  where n_x counts triangles or two-stars. Exact enumeration is available up
  to ENUMERATION_MAX_V vertices; beyond that a single-edge-flip
  Metropolis-Hastings chain draws approximate samples.

Every model draws the per-pair edge counts of R independent samples at once
with ``edge_count_batches``. For ``Ergm`` that runs one chain per sample, and
all R chains advance together: each proposal step is a handful of NumPy
operations over the R chains, whose graphs are held as uint64 neighbour
bitmasks. A flip is accepted when its uniform falls below a threshold table
built once with ``math.exp``, so every chain makes exactly the decisions of
the scalar sampler ``ergm_mh_sample`` given the same draws. Both samplers
take their draws and their burn-in and thinning schedule from ``_mh_sweeps``,
which documents the draw layout. A step costs the same few NumPy calls
however many chains take it, so the engine pays off only for many chains;
Monte Carlo blocks of ERGM replicates hold at least ``MH_MIN_CHAINS`` of them.

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
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import EnumerationRefusedError
from .graphs import (
    BLOCK_CELLS,
    EdgeMarginals,
    Graph,
    GraphSample,
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
    "sample_er",
    "sample_modified_er",
    "select_modified_pairs",
    "er_marginals",
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

# A lockstep step costs a fixed ~20 us of NumPy calls, and a scalar step
# ~1 us (2-core x86_64, v = 10..150), so Monte Carlo blocks of ERGM
# replicates hold at least this many chains; 64 measured 2-3x faster than the
# scalar chain at v = 66 and 100.
MH_MIN_CHAINS = 64


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _check_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError("sample size must be >= 1")


class _IndependentEdges:
    """Sampling and marginals of a model whose edge at pair a is an
    independent Bernoulli(p_a), with p_a given by ``pair_probabilities()``."""

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        _check_sample_size(n)
        draws = rng.random((n, num_pairs(self.v))) < self.pair_probabilities()
        return GraphSample.from_indicator_matrix(self.v, draws)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts for R independent samples of size n (R x E).

        Edges are independent, so the counts are independent Binomial(n, p_a)
        draws; the result is distributed exactly as counting edges over R
        samples of n graphs each.
        """
        _check_sample_size(n)
        probs = self.pair_probabilities()
        # A scalar p draws the same stream as a constant vector, ~10% faster.
        p = probs[0] if (probs == probs[0]).all() else probs
        return rng.binomial(n, p, size=(R, num_pairs(self.v)))

    def exact_marginals(self) -> EdgeMarginals:
        probs = self.pair_probabilities().tolist()
        # Converting each distinct float once is faster than once per pair.
        exact = {p: Fraction(p) for p in set(probs)}
        return EdgeMarginals(self.v, [exact[p] for p in probs])

    @property
    def sweep_parameter(self) -> float:
        return self.p


@dataclass(frozen=True)
class ErdosRenyi(_IndependentEdges):
    """Independent identical Bernoulli(p) edges on v vertices."""

    v: int
    p: float

    def __post_init__(self):
        if self.v < 2:
            raise ValueError(f"need at least 2 vertices, got v={self.v}")
        _check_probability("p", self.p)

    def pair_probabilities(self) -> np.ndarray:
        return np.full(num_pairs(self.v), self.p, dtype=np.float64)

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
        if self.v < 2:
            raise ValueError(f"need at least 2 vertices, got v={self.v}")
        _check_probability("p0", self.p0)
        _check_probability("p", self.p)
        valid = set(canonical_pairs(self.v))
        bad = set(self.modified_pairs) - valid
        if bad:
            raise ValueError(f"non-canonical pairs for v={self.v}: {sorted(bad)}")

    def pair_probabilities(self) -> np.ndarray:
        probs = np.full(num_pairs(self.v), self.p0, dtype=np.float64)
        for i, j in self.modified_pairs:
            probs[pair_index(self.v, i, j)] = self.p
        return probs

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
        if self.v < 2:
            raise ValueError(f"need at least 2 vertices, got v={self.v}")
        if self.stats not in (EDGE_TRIANGLE, EDGE_TWO_STAR):
            raise ValueError(
                f"stats must be {EDGE_TRIANGLE!r} or {EDGE_TWO_STAR!r}, "
                f"got {self.stats!r}"
            )
        if len(self.theta) != 2 or not all(math.isfinite(t) for t in self.theta):
            raise ValueError(f"theta must be two finite reals, got {self.theta}")

    def log_weight(self, g: Graph) -> float:
        return ergm_log_weight(g, self)

    def enumerate(self) -> "ExactDistribution":
        return ergm_enumerate(self)

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        return ergm_mh_sample(self, n, self.mcmc, rng)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts of R samples of size n, one MH chain each (R x E).

        The R chains run in lockstep; see ``_mh_lockstep_edge_counts``.
        """
        _check_sample_size(n)
        return _mh_lockstep_edge_counts(self, n, R, rng)

    def exact_marginals(self) -> EdgeMarginals:
        return self.enumerate().edge_marginals()

    @property
    def sweep_parameter(self) -> float:
        return self.theta[1]

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


def sample_er(v: int, p: float, n: int, rng: np.random.Generator) -> GraphSample:
    """n i.i.d. graphs with every edge an independent Bernoulli(p)."""
    return ErdosRenyi(v, p).sample(n, rng)


def sample_modified_er(
    spec: ModifiedErdosRenyi, n: int, rng: np.random.Generator
) -> GraphSample:
    """n i.i.d. graphs from a modified independent-edge model."""
    return spec.sample(n, rng)


def select_modified_pairs(
    v: int, q: float, rng: np.random.Generator
) -> frozenset[tuple[int, int]]:
    """Uniformly random subset of round(q*E) canonical pairs (half rounds up)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    E = num_pairs(v)
    k = int(math.floor(q * E + 0.5))
    pairs = canonical_pairs(v)
    chosen = rng.choice(E, size=k, replace=False)
    return frozenset(pairs[int(a)] for a in chosen)


def er_marginals(v: int, p: float) -> EdgeMarginals:
    """Constant edge marginals of the independent Bernoulli(p) model."""
    _check_probability("p", p)
    return EdgeMarginals.constant(v, p)


def ergm_log_weight(g: Graph, spec: Ergm) -> float:
    """Unnormalized log probability t1*n_e + t2*(triangles or two-stars)."""
    if g.v != spec.v:
        raise ValueError(f"graph has v={g.v} but model has v={spec.v}")
    t1, t2 = spec.theta
    if spec.stats == EDGE_TRIANGLE:
        extra = g.triangle_count()
    else:
        extra = g.two_star_count()
    return t1 * g.edge_count() + t2 * extra


@lru_cache(maxsize=1)
def _code_bits(v: int) -> np.ndarray:
    """Read-only float64 (2^E x E) matrix: bit a of every edge bitset, in code order.

    Enumeration, marginals and density of one model share it; only the last
    vertex count is kept, because the matrix grows as E * 2^E.
    """
    E = num_pairs(v)
    codes = np.arange(1 << E, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(E)[None, :]) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


def _enumeration_counts(v: int, stats: str) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and the ``stats`` count (triangles or two-stars) of every
    edge bitset 0..2^E-1, in code order (float64)."""
    bits = _code_bits(v)
    n_e = bits.sum(axis=1)
    if stats == EDGE_TRIANGLE:
        n_t = np.zeros(len(bits))
        for i, j, k in combinations(range(v), 3):
            ij, jk, ik = pair_index(v, i, j), pair_index(v, j, k), pair_index(v, i, k)
            n_t += bits[:, ij] * bits[:, jk] * bits[:, ik]
        return n_e, n_t

    degrees = np.zeros((len(bits), v))
    for idx, (i, j) in enumerate(canonical_pairs(v)):
        degrees[:, i] += bits[:, idx]
        degrees[:, j] += bits[:, idx]
    return n_e, (degrees * (degrees - 1) / 2).sum(axis=1)


class ExactDistribution:
    """Exact probabilities over all 2^E graphs, indexed by edge-bitset value."""

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
        self.v = v
        self.probabilities = probabilities

    def probability_of(self, g: Graph) -> float:
        if g.v != self.v:
            raise ValueError(f"graph has v={g.v} but distribution has v={self.v}")
        return float(self.probabilities[g.bits])

    def edge_marginals(self) -> EdgeMarginals:
        marg = self.probabilities @ _code_bits(self.v)
        # Round-off can push a probability a hair outside [0, 1].
        marg = np.clip(marg, 0.0, 1.0)
        return EdgeMarginals(self.v, list(marg))

    def edge_density(self) -> float:
        E = num_pairs(self.v)
        n_e = _code_bits(self.v).sum(axis=1)
        return float(self.probabilities @ n_e) / E

    def top_graphs(self, k: int) -> list[Graph]:
        """The k most probable graphs, ties broken by bitset value."""
        order = np.lexsort((np.arange(len(self.probabilities)),
                            -self.probabilities))
        return [Graph(self.v, int(code)) for code in order[:k]]


def ergm_enumerate(spec: Ergm) -> ExactDistribution:
    """Exact model distribution by summing the weights of all 2^E graphs."""
    if spec.v > ENUMERATION_MAX_V:
        raise EnumerationRefusedError(
            f"enumeration visits 2^{num_pairs(spec.v)} graphs; "
            f"refusing v={spec.v} > {ENUMERATION_MAX_V}"
        )
    n_e, n_x = _enumeration_counts(spec.v, spec.stats)
    t1, t2 = spec.theta
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = t1 * n_e + t2 * n_x
        if not np.isfinite(log_w).all():
            raise ValueError(
                f"ERGM log-weights are not finite in float64 at "
                f"theta={spec.theta}, v={spec.v}"
            )
        # Normalize through log-sum-exp; positive parameters at v=6 would
        # overflow a direct exponential. A log-weight more than the float64
        # range below the largest gets weight 0.
        weights = np.exp(log_w - log_w.max())
    probs = weights / weights.sum()
    return ExactDistribution(spec.v, probs)


def _mh_thresholds(spec: Ergm) -> list[list[float]]:
    """Acceptance thresholds T[present][change] of a single-edge flip.

    ``present`` is 1 when the flip removes an edge, and ``change`` is the
    number of triangles (common neighbours) or two-stars (other endpoint
    degrees) the edge takes part in. A flip is accepted when its uniform u
    satisfies u < T: entries are exp(delta) of the log-ratio delta, computed
    with ``math.exp``, and 2.0 where delta >= 0, so those flips always pass.
    """
    t1, t2 = spec.theta
    top = spec.v - 2 if spec.stats == EDGE_TRIANGLE else 2 * (spec.v - 2)

    def threshold(delta: float) -> float:
        return 2.0 if delta >= 0 else math.exp(delta)

    return [
        [threshold(t1 + t2 * c) for c in range(top + 1)],
        [threshold(-t1 - t2 * c) for c in range(top + 1)],
    ]


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
    min(1, exp(theta . dS)) with dS computed incrementally: the edge count
    changes by one and the triangle (two-star) count by the number of common
    neighbors of the endpoints (the sum of their other degrees). The chain
    starts from the empty graph; one draw is retained every ``thinning``
    sweeps after ``burn_in`` sweeps, one sweep being E proposals.
    """
    _check_sample_size(n)
    v = spec.v
    pairs = canonical_pairs(v)
    triangles = spec.stats == EDGE_TRIANGLE
    T = _mh_thresholds(spec)

    bits = 0
    adj = [0] * v
    deg = [0] * v

    retained: list[Graph] = []
    for slots, unif, keep in _mh_sweeps(num_pairs(v), 1, n, mcmc, rng):
        for a, u in zip(slots.ravel().tolist(), unif.ravel().tolist()):
            i, j = pairs[a]
            present = bits >> a & 1
            if triangles:
                change = (adj[i] & adj[j]).bit_count()
            else:
                change = deg[i] + deg[j] - 2 * present
            if u < T[present][change]:
                bits ^= 1 << a
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
                step = 1 - 2 * present
                deg[i] += step
                deg[j] += step
        if keep:
            retained.append(Graph(v, bits))
    return GraphSample(retained)


def _mh_lockstep_edge_counts(
    spec: Ergm, n: int, R: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-pair edge counts of n draws from each of R chains run in lockstep (R x E).

    Every chain is the chain of ``ergm_mh_sample`` with the model's schedule,
    and all R take their proposal steps together as NumPy operations, on the
    draws of ``_mh_sweeps``; with R = 1 its counts are those of
    ``ergm_mh_sample``.

    A chain's graph is held as neighbour bitmasks of ceil(v/64) uint64 words
    per vertex; the flip of pair (i, j) toggles bit j of mask i and bit i of
    mask j. Common neighbours and degrees are popcounts of those masks. Each
    step costs a fixed number of NumPy calls whatever R is, so the engine
    pays off only with many chains (see ``MH_MIN_CHAINS``).
    """
    v, E = spec.v, num_pairs(spec.v)
    pair_i, pair_j = np.array(canonical_pairs(v), dtype=np.intp).T
    # T[present, change] flattened; key = present*stride + change.
    T = np.array(_mh_thresholds(spec))
    stride = T.shape[1]
    triangles = spec.stats == EDGE_TRIANGLE
    # Two-stars: change = deg_i + deg_j - 2*present.
    present_weight = np.intp(stride if triangles else stride - 2)
    T = T.ravel()
    one = np.uint64(1)
    # Word w of vertex x's mask in chain c is masks[w, c*v + x].
    masks = np.zeros((-(-v // 64), R * v), dtype=np.uint64)
    flat = masks.reshape(-1)
    rows = np.arange(R, dtype=np.intp) * v
    counts = np.zeros((R, E), dtype=np.int64)
    accept = np.zeros(R, dtype=np.uint64)

    # Flip indices are prepared for this many steps at a time.
    group = max(1, MH_GROUP_CELLS // R)
    for slots, unif, keep in _mh_sweeps(E, R, n, spec.mcmc, rng):
        for lo in range(0, E, group):
            i = pair_i[slots[lo:lo + group]]
            j = pair_j[slots[lo:lo + group]]
            # Per step (2 x R): the rows of both endpoints, the word of each
            # endpoint's mask that holds the other endpoint, and its bit there.
            ends = np.stack((rows + i, rows + j), axis=1)
            words = np.stack((j // 64, i // 64), axis=1) * (R * v) + ends
            bits = one << (np.stack((j, i), axis=1) % 64).astype(np.uint64)
            for end, word, bit, u in zip(ends, words, bits, unif[lo:lo + group]):
                held = flat.take(word)
                key = np.bitwise_count(held[0] & bit[0]) * present_weight
                for m in masks:
                    pair = m.take(end)
                    if triangles:
                        key += np.bitwise_count(pair[0] & pair[1])
                    else:
                        degrees = np.bitwise_count(pair)
                        key += degrees[0]
                        key += degrees[1]
                np.less(u, T.take(key), out=accept)
                held ^= bit * accept
                flat[word] = held
        if keep:
            counts += _edge_indicators(masks, v, pair_i, pair_j)
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
    mcmc: McmcConfig,
    rng: np.random.Generator,
) -> list[DensityPoint]:
    """Mean edge density over n chain draws for each model in the grid.

    Each grid point runs on its own generator stream derived from ``rng``,
    so points can be evaluated in any order. A density below 0.02 or above
    0.98 triggers a degeneracy warning: the chain is concentrating on
    near-empty or near-complete graphs.
    """
    if not specs:
        raise ValueError("parameter grid must be nonempty")
    children = rng.spawn(len(specs))
    out = []
    for spec, child in zip(specs, children):
        sample = ergm_mh_sample(spec, n, mcmc, child)
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
