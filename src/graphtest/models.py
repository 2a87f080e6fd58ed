"""Random-graph models: independent-edge samplers and exponential-family models.

Three families are provided:

* ``ErdosRenyi``: every edge an independent Bernoulli(p).
* ``ModifiedErdosRenyi``: a fixed subset of pairs uses probability p, the rest
  p0; the subset is chosen once and shared by the whole sample.
* ``Ergm``: exponential family over graphs with weight exp(t1*n_e + t2*n_x)
  where n_x counts triangles or two-stars. Exact enumeration is available up
  to ENUMERATION_MAX_V vertices; beyond that a single-edge-flip
  Metropolis-Hastings chain draws approximate samples.

Triangles and two-stars are counted over unordered vertex triples (each
triangle once, each two-star once per center and unordered neighbor pair).
Parameter values quoted for conventions that count ordered triples differ by
a constant factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, EnumerationRefusedError
from .graphs import (
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


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _sample_independent_edges(
    v: int, probs: np.ndarray, n: int, rng: np.random.Generator
) -> GraphSample:
    draws = rng.random((n, num_pairs(v))) < probs
    return GraphSample(Graph.from_indicator_row(v, row) for row in draws)


@dataclass(frozen=True)
class ErdosRenyi:
    """Independent identical Bernoulli(p) edges on v vertices."""

    v: int
    p: float

    def __post_init__(self):
        if self.v < 2:
            raise ValueError(f"need at least 2 vertices, got v={self.v}")
        _check_probability("p", self.p)

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        return sample_er(self.v, self.p, n, rng)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair edge counts for R independent samples of size n (R x E).

        Edges are independent, so the counts are independent Binomial(n, p)
        draws; the result is distributed exactly as counting edges over R
        samples of n graphs each.
        """
        return rng.binomial(n, self.p, size=(R, num_pairs(self.v)))

    def exact_marginals(self) -> EdgeMarginals:
        return er_marginals(self.v, self.p)

    @property
    def sweep_parameter(self) -> float:
        return self.p

    def describe(self) -> dict:
        return {"model": "er", "v": self.v, "p": self.p}


@dataclass(frozen=True)
class ModifiedErdosRenyi:
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

    def sample(self, n: int, rng: np.random.Generator) -> GraphSample:
        return _sample_independent_edges(self.v, self.pair_probabilities(), n, rng)

    def edge_count_batches(
        self, n: int, R: int, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.binomial(
            n, self.pair_probabilities(), size=(R, num_pairs(self.v))
        )

    def exact_marginals(self) -> EdgeMarginals:
        return EdgeMarginals(self.v, list(self.pair_probabilities()))

    @property
    def sweep_parameter(self) -> float:
        return self.p

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
        """Per-pair edge counts of R samples of size n, drawn one after another (R x E)."""
        return np.vstack([self.sample(n, rng).edge_counts for _ in range(R)])

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
    _check_probability("p", p)
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return _sample_independent_edges(v, np.float64(p), n, rng)


def sample_modified_er(
    spec: ModifiedErdosRenyi, n: int, rng: np.random.Generator
) -> GraphSample:
    """n i.i.d. graphs from a modified independent-edge model."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
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


def _enumeration_tables(v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_e, n_t, n_s) for every edge bitset 0..2^E-1, in code order."""
    E = num_pairs(v)
    codes = np.arange(1 << E, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(E)[None, :]) & 1
    n_e = bits.sum(axis=1)

    n_t = np.zeros(len(codes), dtype=np.int64)
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(j + 1, v):
                a = pair_index(v, i, j)
                b = pair_index(v, j, k)
                c = pair_index(v, i, k)
                n_t += bits[:, a] * bits[:, b] * bits[:, c]

    degrees = np.zeros((len(codes), v), dtype=np.int64)
    for idx, (i, j) in enumerate(canonical_pairs(v)):
        degrees[:, i] += bits[:, idx]
        degrees[:, j] += bits[:, idx]
    n_s = (degrees * (degrees - 1) // 2).sum(axis=1)
    return n_e, n_t, n_s


class ExactDistribution:
    """Exact probabilities over all 2^E graphs, indexed by edge-bitset value."""

    def __init__(self, v: int, probabilities: np.ndarray):
        E = num_pairs(v)
        if probabilities.shape != (1 << E,):
            raise ValueError(
                f"expected {1 << E} probabilities for v={v}, "
                f"got shape {probabilities.shape}"
            )
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

    def _bit_matrix(self) -> np.ndarray:
        if not hasattr(self, "_bits"):
            E = num_pairs(self.v)
            codes = np.arange(1 << E, dtype=np.int64)
            self._bits = ((codes[:, None] >> np.arange(E)[None, :]) & 1).astype(
                np.float64
            )
        return self._bits

    def edge_marginals(self) -> EdgeMarginals:
        marg = self.probabilities @ self._bit_matrix()
        # Round-off can push a probability a hair outside [0, 1].
        marg = np.clip(marg, 0.0, 1.0)
        return EdgeMarginals(self.v, list(marg))

    def edge_density(self) -> float:
        E = num_pairs(self.v)
        n_e = self._bit_matrix().sum(axis=1)
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
    n_e, n_t, n_s = _enumeration_tables(spec.v)
    extra = n_t if spec.stats == EDGE_TRIANGLE else n_s
    t1, t2 = spec.theta
    log_w = t1 * n_e + t2 * extra
    # Normalize through log-sum-exp; positive parameters at v=6 would
    # overflow a direct exponential.
    shift = log_w.max()
    weights = np.exp(log_w - shift)
    probs = weights / weights.sum()
    return ExactDistribution(spec.v, probs)


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
    if n < 1:
        raise ValueError("sample size must be >= 1")
    v = spec.v
    E = num_pairs(v)
    pairs = canonical_pairs(v)
    t1, t2 = spec.theta
    triangles = spec.stats == EDGE_TRIANGLE

    bits = 0
    adj = [0] * v
    deg = [0] * v

    retained: list[Graph] = []
    total_sweeps = mcmc.burn_in + n * mcmc.thinning
    # Pre-draw proposal slots and uniforms in blocks; consumption order is
    # fixed, so results do not depend on block size.
    block_sweeps = max(1, 65536 // E)

    sweep = 0
    while sweep < total_sweeps:
        todo = min(block_sweeps, total_sweeps - sweep)
        slots = rng.integers(0, E, size=todo * E)
        unif = rng.random(todo * E)
        pos = 0
        for _ in range(todo):
            for _ in range(E):
                a = int(slots[pos])
                u = unif[pos]
                pos += 1
                i, j = pairs[a]
                present = bits >> a & 1
                if triangles:
                    change = (adj[i] & adj[j]).bit_count()
                else:
                    change = deg[i] + deg[j] - (2 if present else 0)
                if present:
                    delta = -t1 - t2 * change
                else:
                    delta = t1 + t2 * change
                if delta >= 0 or u < math.exp(delta):
                    bits ^= 1 << a
                    if present:
                        adj[i] &= ~(1 << j)
                        adj[j] &= ~(1 << i)
                        deg[i] -= 1
                        deg[j] -= 1
                    else:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
                        deg[i] += 1
                        deg[j] += 1
            sweep += 1
            if sweep > mcmc.burn_in:
                if (sweep - mcmc.burn_in) % mcmc.thinning == 0:
                    retained.append(Graph(v, bits))
    return GraphSample(retained[:n])


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
        E = num_pairs(spec.v)
        density = float(
            sum(g.edge_count() for g in sample) / (len(sample) * E)
        )
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
