"""File formats: graph-sample text files, channel CSV, result CSV, run manifests.

The graph-sample format is line-oriented text. The first content line is a
header ``graphsample v=<int> n=<int> base=<0|1>``; every following content
line is one edge occurrence ``<graph_index> <i> <j>``. Graph indices are
always zero-based and lie in [0, n); ``base`` applies to the vertex labels
only. Lines starting with ``#`` are comments and may come anywhere, before
the header too; blank lines are ignored, and a graph with no edges simply
contributes no lines.

Channel CSV holds one label row followed by one row per time sample. Result
CSVs have fixed per-command schemas. The serializers here write data only;
the CLI adds the ``# manifest: <name>`` comment line of a run that writes a
manifest.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataFormatError
from .graphs import BLOCK_CELLS, GraphSample, _pair_slot, canonical_pairs, num_pairs
from .inference import PowerPoint, TestResult
from .models import DensityPoint
from .timeseries import ChannelMatrix, SummaryGraph, _check_sampling_rate

__all__ = [
    "RunManifest",
    "format_graph_sample",
    "write_graph_sample",
    "read_graph_sample",
    "read_channel_csv",
    "write_manifest",
]

# Edge lines split and converted at a time: three int64 cells per line, so a
# block's edge array holds at most BLOCK_CELLS cells.
_EDGE_BLOCK_LINES = BLOCK_CELLS // 3


def format_graph_sample(sample: GraphSample, base: int = 0) -> str:
    """Serialize a sample to graph-sample text."""
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    lines = [f"graphsample v={sample.v} n={sample.n} base={base}"]
    # Row-major nonzeros visit graphs in order, and each graph's slots in
    # canonical order, as Graph.edges() does.
    graph_idx, slots = np.nonzero(sample.indicator_matrix())
    heads = np.array([str(k) for k in range(sample.n)], dtype=object)
    pairs = [f" {i + base} {j + base}" for i, j in canonical_pairs(sample.v)]
    lines += (heads[graph_idx] + np.array(pairs, dtype=object)[slots]).tolist()
    return "\n".join(lines) + "\n"


def write_graph_sample(path, sample: GraphSample, base: int = 0) -> None:
    Path(path).write_text(format_graph_sample(sample, base))


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """Line number and stripped text of each non-blank, non-comment line."""
    with open(path, "r") as fh:
        stripped = map(str.strip, fh.read().split("\n"))
    return ((k, text) for k, text in enumerate(stripped, start=1)
            if text and text[0] != "#")


def _line_number(path, k: int) -> int:
    """Line number of content line k, counted from 0. The reader keeps no
    line numbers, so an error reads the file again to find one."""
    return next(islice(_content_lines(path), k, None))[0]


def _edge_cells(body: list[str], v: int, n: int, base: int) -> np.ndarray | None:
    """Mask cells (graph * E + pair slot) of the k edge lines, or None unless
    every line holds three integers naming a valid pair of a graph in [0, n)."""
    k = len(body)
    # One split of all lines, each followed by a separator token. Every line
    # holds three tokens exactly when the separators are the tokens at
    # positions 3, 7, 11, ... and no other token equals one.
    tokens = " ; ".join(body + [""]).split()
    if len(tokens) != 4 * k or not tokens.count(";") == tokens[3::4].count(";") == k:
        return None
    del tokens[3::4]
    try:
        edges = np.array(tokens, dtype=np.int64).reshape(k, 3)
    except (ValueError, OverflowError):
        return None
    g, a, b = edges[:, 0], edges[:, 1] - base, edges[:, 2] - base
    in_range = (g >= 0) & (g < n) & (a >= 0) & (a < v) & (b >= 0) & (b < v)
    if not (in_range & (a != b)).all():
        return None
    i, j = np.minimum(a, b), np.maximum(a, b)
    return g * num_pairs(v) + _pair_slot(v, i, j)


def _first_edge_error(body: list[str], v: int, n: int, base: int) -> tuple[str, int]:
    """Message and index in ``body`` of the first edge line that breaks the
    format, reading line by line."""
    seen = set()
    for k, text in enumerate(body):
        parts = text.split()
        if len(parts) != 3:
            return f"expected '<graph> <i> <j>', got {text!r}", k
        try:
            g_idx, i, j = (int(p) for p in parts)
        except ValueError:
            return f"non-integer edge line {text!r}", k
        if not 0 <= g_idx < n:
            return f"graph index {g_idx} outside [0, {n})", k
        if i == j or not (base <= i < v + base and base <= j < v + base):
            return f"invalid vertex pair ({i}, {j}) for v={v}", k
        i, j = min(i, j), max(i, j)
        if (g_idx, i, j) in seen:
            return f"duplicate edge ({i}, {j}) in graph {g_idx}", k
        seen.add((g_idx, i, j))
    raise AssertionError("the whole-array check rejected valid edge lines")


def _header_values(header: str) -> tuple[int, int, int]:
    """v, n and base of a header line; a ValueError says what is wrong."""
    tokens = header.split()
    if not tokens or tokens[0] != "graphsample":
        raise ValueError("header must start with 'graphsample'")
    fields = {}
    for tok in tokens[1:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise ValueError(f"malformed header token {tok!r}")
        fields[key] = value
    if set(fields) != {"v", "n", "base"}:
        raise ValueError(f"header must define v, n and base, got {sorted(fields)}")
    try:
        v, n, base = int(fields["v"]), int(fields["n"]), int(fields["base"])
    except ValueError:
        raise ValueError("header fields must be integers") from None
    if v < 2:
        raise ValueError(f"need v >= 2, got v={v}")
    if n < 1:
        raise ValueError(f"sample must contain at least one graph, got n={n}")
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    return v, n, base


def read_graph_sample(path) -> GraphSample:
    """Parse a graph-sample file; errors carry the offending line number.

    Edge lines are checked as whole arrays, ``_EDGE_BLOCK_LINES`` at a time.
    When they fail, one line-by-line reading names the first failing content
    line.
    """
    path = str(path)
    lines = [text for _, text in _content_lines(path)]
    if not lines:
        raise DataFormatError("file has no content lines", path=path)

    try:
        v, n, base = _header_values(lines[0])
    except ValueError as e:
        raise DataFormatError(str(e), path=path, line=_line_number(path, 0)) from None
    E = num_pairs(v)
    try:
        mask = np.zeros(n * E, dtype=bool)
    except (MemoryError, ValueError):
        raise DataFormatError(
            f"a sample of n={n} graphs on v={v} vertices does not fit in memory",
            path=path,
            line=_line_number(path, 0),
        ) from None

    for start in range(1, len(lines), _EDGE_BLOCK_LINES):
        cells = _edge_cells(lines[start:start + _EDGE_BLOCK_LINES], v, n, base)
        if cells is None:
            break
        mask[cells] = True
    else:
        # Fewer set cells than lines means some line repeats an edge.
        if np.count_nonzero(mask) == len(lines) - 1:
            return GraphSample.from_indicator_matrix(v, mask.reshape(n, E))
    message, k = _first_edge_error(lines[1:], v, n, base)
    raise DataFormatError(message, path=path, line=_line_number(path, 1 + k))


def _finite_rows(data: list, width: int, rows: list, path: str) -> np.ndarray:
    """The parsed rows as a matrix; an error names the first non-finite row.

    ``data[k]`` was parsed from ``rows[k + 1]``.
    """
    values = np.array(data, dtype=np.float64).reshape(len(data), width)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = rows[int(np.argmin(finite)) + 1][0]
        raise DataFormatError("non-finite value in data row", path=path, line=lineno)
    return values


def read_channel_csv(path, sampling_rate: float) -> ChannelMatrix:
    """Parse a channel CSV (label row + one row of reals per time sample).

    An invalid ``sampling_rate`` raises ValueError before the file is read.
    """
    _check_sampling_rate(sampling_rate)
    path = str(path)
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise DataFormatError("file is empty", path=path)
    header_line, header = rows[0]
    labels = [cell.strip() for cell in header]
    if any(not lab for lab in labels):
        raise DataFormatError("empty channel label", path=path, line=header_line)
    data = []
    for lineno, row in rows[1:]:
        error = None
        if len(row) != len(labels):
            error = f"expected {len(labels)} columns, got {len(row)}"
        else:
            try:
                data.append(list(map(float, row)))
            except ValueError:
                error = "non-numeric value in data row"
        if error is not None:
            # A non-finite value on an earlier row is the first error.
            _finite_rows(data, len(labels), rows, path)
            raise DataFormatError(error, path=path, line=lineno)
    if not data:
        raise DataFormatError("no data rows after the label row", path=path)
    values = _finite_rows(data, len(labels), rows, path)
    try:
        return ChannelMatrix(labels, values, sampling_rate)
    except ValueError as e:
        raise DataFormatError(str(e), path=path) from e


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(x) if isinstance(x, float) else str(x)


def _csv_lines(header: str, rows: Sequence[tuple]) -> str:
    """CSV text: the header, then one line per row of values."""
    lines = [",".join(map(_fmt, row)) for row in rows]
    return "\n".join([header] + lines) + "\n"


def format_test_csv(result: TestResult) -> str:
    """One-row CSV: method,w,critical_value,p_value,reject,alpha,replications,seed."""
    w = None if result.statistic is None else result.statistic.value
    row = (
        result.method,
        w,
        result.critical_value,
        result.p_value,
        result.reject,
        result.alpha,
        result.replications,
        result.seed,
    )
    return _csv_lines(
        "method,w,critical_value,p_value,reject,alpha,replications,seed", [row]
    )


def format_power_csv(points: Sequence[PowerPoint]) -> str:
    """CSV with one row per grid point: param,power_w,power_bc,replications."""
    rows = [(p.parameter, p.power, p.power_baseline, p.replications) for p in points]
    return _csv_lines("param,power_w,power_bc,replications", rows)


def format_density_csv(points: Sequence[DensityPoint]) -> str:
    """CSV with one row per parameter value: theta1,theta2,density,draws."""
    rows = [(p.theta1, p.theta2, p.density, p.draws) for p in points]
    return _csv_lines("theta1,theta2,density,draws", rows)


def format_summary_csv(summary: SummaryGraph, base: int = 0) -> str:
    """CSV of the selected edges, most frequent first: i,j,frequency."""
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    rows = [(i + base, j + base, freq) for (i, j), freq in summary.frequencies]
    return _csv_lines("i,j,frequency", rows)


def write_text(path, text: str) -> None:
    Path(path).write_text(text)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record for one command invocation."""

    command: str
    seed: int | None
    parameters: dict
    version: str
    created: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )
    outputs: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def write_manifest(path, manifest: RunManifest) -> None:
    Path(path).write_text(manifest.to_json())
