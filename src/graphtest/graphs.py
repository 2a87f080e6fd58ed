"""Canonical graph representation, distances, sample means and small-structure counts.

Graphs are simple and undirected over a fixed vertex set 0..v-1. Edges live in
the E = v*(v-1)/2 canonical slots (i, j) with i < j, enumerated lexicographically,
and are stored packed in a single Python integer so that flips are O(1) and the
edge-disagreement distance is one XOR plus a popcount.

A ``GraphSample`` is held only as its read-only (n x E) uint8 indicator
matrix, one row per graph. Work over a whole sample (edge counts, formatting,
permutation tests) reads that matrix; indexing or iterating a sample builds
the ``Graph`` of one row at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptySampleError

__all__ = [
    "Graph",
    "GraphSample",
    "EdgeMarginals",
    "canonical_pairs",
    "num_pairs",
    "pair_index",
    "hamming_distance",
    "mean_graph",
]


# Whole-array work (Monte Carlo replicates, ERGM draws, permutations,
# correlation windows) runs in blocks of about this many cells (``_blocks``).
BLOCK_CELLS = 1 << 16


def _blocks(total: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [lo, hi) that cover range(total), each of
    max(1, BLOCK_CELLS // width) items but the last: items of ``width``
    cells in blocks of about BLOCK_CELLS cells. A caller that draws reads
    its generator in block order, as one whole-array draw would, so the
    block size bounds memory and decides no result. The one exception is
    coupling from the past (``models._cftp_indicators``), whose draws
    depend on their group by design."""
    step = max(1, BLOCK_CELLS // width)
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def num_pairs(v: int) -> int:
    """Number of canonical vertex pairs E = v*(v-1)/2."""
    return v * (v - 1) // 2


@lru_cache(maxsize=None)
def canonical_pairs(v: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with 0 <= i < j < v in lexicographic order."""
    return tuple((i, j) for i in range(v) for j in range(i + 1, v))


def pair_index(v: int, i: int, j: int) -> int:
    """Slot of pair (i, j) in the canonical lexicographic enumeration."""
    if not 0 <= i < j < v:
        raise ValueError(f"({i}, {j}) is not a canonical pair for v={v}")
    return _pair_slot(v, i, j)


def _pair_slot(v: int, i, j):
    """``pair_index`` without the range check; i and j may be integer arrays."""
    return i * (2 * v - i - 1) // 2 + (j - i - 1)


def _check_same_v(a, a_name: str, b, b_name: str) -> None:
    """Graphs, samples, marginals or models a and b must share a vertex count."""
    if a.v != b.v:
        raise DimensionMismatchError(f"{a_name} has v={a.v} but {b_name} has v={b.v}")


def _decimal(x) -> Fraction:
    """A typed probability as the decimal it is written as: 0.3 is 3/10, not
    the binary float just below it. A ``Fraction`` is returned unchanged;
    other numbers go through str, because the repr of a NumPy float names
    its type."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _check_min_vertices(v: int) -> None:
    if v < 2:
        raise ValueError(f"need at least 2 vertices, got v={v}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..v-1 with a packed edge bitset.

    Bit k of ``bits`` is the indicator of the k-th canonical pair.
    """

    v: int
    bits: int = 0

    def __post_init__(self):
        _check_min_vertices(self.v)
        if not 0 <= self.bits < (1 << num_pairs(self.v)):
            raise ValueError("edge bitset out of range for vertex count")

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        bits = 0
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) not allowed")
            i, j = (a, b) if a < b else (b, a)
            bits |= 1 << pair_index(v, i, j)
        return cls(v, bits)

    @classmethod
    def from_indicator_row(cls, v: int, row) -> "Graph":
        """Inverse of indicator_row: build a graph from 0/1 slot indicators."""
        arr = np.asarray(row)
        if arr.shape != (num_pairs(v),):
            raise DimensionMismatchError(
                f"expected {num_pairs(v)} indicators for v={v}, got {arr.shape}"
            )
        packed = np.packbits(arr.astype(bool), bitorder="little")
        return cls(v, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def empty(cls, v: int) -> "Graph":
        return cls(v, 0)

    @classmethod
    def complete(cls, v: int) -> "Graph":
        return cls(v, (1 << num_pairs(v)) - 1)

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return bool(self.bits >> pair_index(self.v, i, j) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = canonical_pairs(self.v)
        b = self.bits
        out = []
        while b:
            low = b & -b
            out.append(pairs[low.bit_length() - 1])
            b ^= low
        return tuple(out)

    def edge_count(self) -> int:
        return self.bits.bit_count()

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit j of mask i set iff edge (i, j))."""
        masks = [0] * self.v
        for i, j in self.edges():
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adjacency_masks()]

    def triangle_count(self) -> int:
        """Number of unordered vertex triples inducing three edges."""
        masks = self.adjacency_masks()
        # Each triangle is seen once per edge, hence the division by 3.
        total = sum(
            (masks[i] & masks[j]).bit_count() for i, j in self.edges()
        )
        return total // 3

    def two_star_count(self) -> int:
        """Number of unordered paths of length two (one per center and neighbor pair)."""
        return sum(d * (d - 1) // 2 for d in self.degrees())

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a vertex permutation; perm[i] is the new label of vertex i."""
        if sorted(perm) != list(range(self.v)):
            raise ValueError("perm must be a permutation of 0..v-1")
        return Graph.from_edges(
            self.v, ((perm[i], perm[j]) for i, j in self.edges())
        )

    def indicator_row(self) -> np.ndarray:
        """Edge indicators over the canonical slots as a uint8 vector."""
        E = num_pairs(self.v)
        raw = self.bits.to_bytes((E + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), bitorder="little"
        )[:E].copy()

    def __repr__(self) -> str:
        return f"Graph(v={self.v}, edges={list(self.edges())})"


def hamming_distance(g: Graph, h: Graph) -> int:
    """Number of canonical pairs on which two graphs disagree.

    This is a metric on graphs over a common vertex set; every pair
    contributes 0 or 1, so the distance is at most v*(v-1)/2.
    """
    _check_same_v(g, "first graph", h, "second graph")
    return (g.bits ^ h.bits).bit_count()


class GraphSample:
    """Ordered collection of graphs over one common vertex set."""

    def __init__(self, graphs: Iterable[Graph]):
        members = tuple(graphs)
        if not members:
            raise EmptySampleError("a graph sample must contain at least one graph")
        v = members[0].v
        for g in members:
            if g.v != v:
                raise DimensionMismatchError(
                    f"sample mixes vertex counts {v} and {g.v}"
                )
        E = num_pairs(v)
        width = (E + 7) // 8
        raw = b"".join(g.bits.to_bytes(width, "little") for g in members)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(members), width)
        self._set(v, np.unpackbits(packed, axis=1, count=E, bitorder="little"))

    @classmethod
    def from_indicator_matrix(cls, v: int, mask) -> "GraphSample":
        """Inverse of indicator_matrix: one graph per row of an (n x E) 0/1 matrix."""
        matrix = np.array(mask, dtype=bool).view(np.uint8)
        if matrix.ndim != 2 or matrix.shape[1] != num_pairs(v):
            raise DimensionMismatchError(
                f"expected an (n x {num_pairs(v)}) indicator matrix for v={v}, "
                f"got shape {matrix.shape}"
            )
        if not len(matrix):
            raise EmptySampleError("a graph sample must contain at least one graph")
        _check_min_vertices(v)
        sample = cls.__new__(cls)
        sample._set(v, matrix)
        return sample

    def _set(self, v: int, matrix: np.ndarray) -> None:
        matrix.flags.writeable = False
        self.v = v
        self._matrix = matrix

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (self[k] for k in range(self.n))

    def __getitem__(self, k: int) -> Graph:
        row = self._matrix[operator.index(k)]
        packed = np.packbits(row, bitorder="little")
        return Graph(self.v, int.from_bytes(packed.tobytes(), "little"))

    def __eq__(self, other) -> bool:
        # The matrix shape (n, E) fixes v.
        return (
            isinstance(other, GraphSample)
            and np.array_equal(self._matrix, other._matrix)
        )

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Per-pair counts of member graphs containing each edge (int64, length E)."""
        return self.indicator_matrix().sum(axis=0, dtype=np.int64)

    def indicator_matrix(self) -> np.ndarray:
        """Stacked edge indicators, one uint8 row per member graph (n x E), read-only."""
        return self._matrix

    def __repr__(self) -> str:
        return f"GraphSample(n={self.n}, v={self.v})"


class EdgeMarginals:
    """Per-pair edge probabilities, held exactly as rationals.

    Entries are stored as ``Fraction`` so that statistics built from them can
    be compared without floating-point ties. Construction from floats keeps
    the exact binary value of each float.
    """

    def __init__(self, v: int, values: Sequence):
        E = num_pairs(v)
        if len(values) != E:
            raise DimensionMismatchError(
                f"expected {E} entries for v={v}, got {len(values)}"
            )
        fracs = []
        for x in values:
            f = x if isinstance(x, Fraction) else Fraction(x)
            if not 0 <= f <= 1:
                raise ValueError(f"marginal {x} outside [0, 1]")
            fracs.append(f)
        self.v = v
        self.fractions = tuple(fracs)

    @classmethod
    def constant(cls, v: int, p) -> "EdgeMarginals":
        return cls(v, [Fraction(p)] * num_pairs(v))

    def fraction(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return self.fractions[pair_index(self.v, i, j)]

    def common_ratio(self) -> tuple[list[int], int]:
        """Entries as integer numerators over one shared denominator."""
        den = math.lcm(*(f.denominator for f in self.fractions))
        nums = [f.numerator * (den // f.denominator) for f in self.fractions]
        return nums, den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeMarginals)
            and self.v == other.v
            and self.fractions == other.fractions
        )

    def __repr__(self) -> str:
        return f"EdgeMarginals(v={self.v})"


def mean_graph(sample: GraphSample) -> EdgeMarginals:
    """Per-pair edge frequency of a sample; every entry is a multiple of 1/n."""
    counts = sample.edge_counts.tolist()
    return EdgeMarginals(sample.v, [Fraction(c, sample.n) for c in counts])
