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
with ``edge_count_batches``. For ``Ergm`` that runs one chain per sample, and
all R chains advance together: each proposal step is about a dozen NumPy
calls over the R chains, whose graphs are held as uint64 neighbour
bitmasks. A flip is accepted when its uniform falls below a threshold table
built once with ``math.exp``, so every chain makes exactly the decisions of
the scalar sampler ``ergm_mh_sample`` given the same draws. Both samplers
take their draws and their burn-in and thinning schedule from ``_mh_sweeps``,
which documents the draw layout. A step costs the same NumPy calls however
many chains take it, so the engine pays off only for many chains: Monte
Carlo blocks of ERGM replicates hold at least ``MH_MIN_CHAINS`` of them, and
blocks of models that share v, statistics and schedule can run as column
groups of one call, each on its own draws and with its own theta.

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
        """Each pair's probability as the decimal it is written as."""
        return EdgeMarginals(self.v, self._levels(_decimal))

    @property
    def sweep_parameter(self) -> float:
        return self.p


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
        """Per-pair edge counts of R samples of size n, one MH chain each (R x E).

        The R chains run in lockstep; see ``_mh_lockstep_edge_counts``.
        """
        return _mh_lockstep_edge_counts([(self, R, rng)], n)

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
    ``Ergm.exact_marginals``.
    """

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
        _check_same_v(g, "graph", self, "distribution")
        return float(self.probabilities[g.bits])

    def edge_density(self) -> float:
        """Expected fraction of pairs joined by an edge."""
        E = num_pairs(self.v)
        n_e = np.bitwise_count(np.arange(1 << E))
        return float(self.probabilities @ n_e) / E


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
