"""File formats: graph-sample text files, channel CSV, result CSV, run manifests.

The graph-sample format is line-oriented text. The first content line is a
header ``graphsample v=<int> n=<int> base=<0|1>``; every following content
line is one edge occurrence ``<graph_index> <i> <j>``. Graph indices are
always zero-based and lie in [0, n); ``base`` applies to the vertex labels
only. Lines starting with ``#`` are comments, blank lines are ignored, and a
graph with no edges simply contributes no lines.

Channel CSV holds one label row followed by one row per time sample. Result
CSVs have fixed per-command schemas. When a run writes a manifest, each
output file carries a ``# manifest: <name>`` comment line referencing it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .graphs import GraphSample, canonical_pairs, num_pairs
from .inference import PowerPoint, TestResult
from .models import DensityPoint
from .timeseries import ChannelMatrix, SummaryGraph, _check_sampling_rate

__all__ = [
    "RunManifest",
    "format_graph_sample",
    "write_graph_sample",
    "read_graph_sample",
    "read_channel_csv",
    "format_test_csv",
    "format_power_csv",
    "format_density_csv",
    "format_summary_csv",
    "write_text",
    "write_manifest",
]


def _manifest_comment(manifest_name: str | None) -> list[str]:
    return [f"# manifest: {manifest_name}"] if manifest_name else []


def format_graph_sample(
    sample: GraphSample, base: int = 0, manifest_name: str | None = None
) -> str:
    """Serialize a sample to graph-sample text."""
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    lines = [f"graphsample v={sample.v} n={sample.n} base={base}"]
    lines += _manifest_comment(manifest_name)
    # Row-major nonzeros visit graphs in order, and each graph's slots in
    # canonical order, as Graph.edges() does.
    graph_idx, slots = np.nonzero(sample.indicator_matrix())
    heads = np.array([str(k) for k in range(sample.n)], dtype=object)
    pairs = [f" {i + base} {j + base}" for i, j in canonical_pairs(sample.v)]
    lines += (heads[graph_idx] + np.array(pairs, dtype=object)[slots]).tolist()
    return "\n".join(lines) + "\n"


def write_graph_sample(
    path,
    sample: GraphSample,
    base: int = 0,
    manifest_name: str | None = None,
) -> None:
    Path(path).write_text(format_graph_sample(sample, base, manifest_name))


def _content_lines(path) -> tuple[list[int], list[str]]:
    """Line numbers and stripped text of the non-blank, non-comment lines."""
    with open(path, "r") as fh:
        stripped = list(map(str.strip, fh.read().split("\n")))
    numbers = [k for k, text in enumerate(stripped, start=1)
               if text and text[0] != "#"]
    return numbers, [stripped[k - 1] for k in numbers]


def _edge_array(body: list[str]) -> np.ndarray | None:
    """(k x 3) int64 array of the k edge lines, or None unless every line holds
    three integer tokens that fit in int64."""
    k = len(body)
    # One split of all lines, each followed by a separator token. Every line
    # holds three tokens exactly when the separators are the tokens at
    # positions 3, 7, 11, ... and no other token equals one.
    tokens = " ; ".join(body + [""]).split()
    if len(tokens) != 4 * k or not tokens.count(";") == tokens[3::4].count(";") == k:
        return None
    del tokens[3::4]
    try:
        return np.array(list(map(int, tokens)), dtype=np.int64).reshape(k, 3)
    except (ValueError, OverflowError):
        return None


def _first_edge_error(
    numbers: list[int], body: list[str], v: int, n: int, base: int
) -> tuple[str, int]:
    """Message and line number of the first edge line that breaks the format,
    reading line by line (``numbers[k]`` is the line of ``body[k]``)."""
    seen = set()
    for lineno, text in zip(numbers, body):
        parts = text.split()
        if len(parts) != 3:
            return f"expected '<graph> <i> <j>', got {text!r}", lineno
        try:
            g_idx, i, j = (int(p) for p in parts)
        except ValueError:
            return f"non-integer edge line {text!r}", lineno
        if not 0 <= g_idx < n:
            return f"graph index {g_idx} outside [0, {n})", lineno
        if i == j or not (base <= i < v + base and base <= j < v + base):
            return f"invalid vertex pair ({i}, {j}) for v={v}", lineno
        i, j = min(i, j), max(i, j)
        if (g_idx, i, j) in seen:
            return f"duplicate edge ({i}, {j}) in graph {g_idx}", lineno
        seen.add((g_idx, i, j))
    raise AssertionError("the whole-array check rejected valid edge lines")


def read_graph_sample(path) -> GraphSample:
    """Parse a graph-sample file; errors carry the offending line number.

    Edge lines are checked as whole arrays. When they fail, one line-by-line
    reading names the first failing content line.
    """
    path = str(path)
    numbers, lines = _content_lines(path)
    if not lines:
        raise DataFormatError("file has no content lines", path=path)

    lineno, header = numbers[0], lines[0]
    tokens = header.split()
    if not tokens or tokens[0] != "graphsample":
        raise DataFormatError(
            "header must start with 'graphsample'", path=path, line=lineno
        )
    fields = {}
    for tok in tokens[1:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise DataFormatError(
                f"malformed header token {tok!r}", path=path, line=lineno
            )
        fields[key] = value
    if set(fields) != {"v", "n", "base"}:
        raise DataFormatError(
            f"header must define v, n and base, got {sorted(fields)}",
            path=path,
            line=lineno,
        )
    try:
        v, n, base = int(fields["v"]), int(fields["n"]), int(fields["base"])
    except ValueError:
        raise DataFormatError(
            "header fields must be integers", path=path, line=lineno
        ) from None
    if v < 2:
        raise DataFormatError(f"need v >= 2, got v={v}", path=path, line=lineno)
    if n < 1:
        raise DataFormatError(
            f"sample must contain at least one graph, got n={n}",
            path=path,
            line=lineno,
        )
    if base not in (0, 1):
        raise DataFormatError(
            f"base must be 0 or 1, got {base}", path=path, line=lineno
        )

    E = num_pairs(v)
    try:
        mask = np.zeros(n * E, dtype=bool)
    except (MemoryError, ValueError):
        raise DataFormatError(
            f"a sample of n={n} graphs on v={v} vertices does not fit in memory",
            path=path,
            line=lineno,
        ) from None

    edges = _edge_array(lines[1:])
    if edges is not None:
        g, a, b = edges[:, 0], edges[:, 1] - base, edges[:, 2] - base
        in_range = (g >= 0) & (g < n) & (a >= 0) & (a < v) & (b >= 0) & (b < v)
        if (in_range & (a != b)).all():
            i, j = np.minimum(a, b), np.maximum(a, b)
            cells = g * E + i * (2 * v - i - 1) // 2 + (j - i - 1)
            mask[cells] = True
            # Fewer set cells than lines means some line repeats an edge.
            if np.count_nonzero(mask) == len(cells):
                return GraphSample.from_indicator_matrix(v, mask.reshape(n, E))
    message, lineno = _first_edge_error(numbers[1:], lines[1:], v, n, base)
    raise DataFormatError(message, path=path, line=lineno)


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


def _csv_lines(header: str, rows: Sequence[str], manifest_name: str | None) -> str:
    return "\n".join(_manifest_comment(manifest_name) + [header] + list(rows)) + "\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(x) if isinstance(x, float) else str(x)


def format_test_csv(result: TestResult, manifest_name: str | None = None) -> str:
    """One-row CSV: method,w,critical_value,p_value,reject,alpha,replications,seed."""
    w = None if result.statistic is None else result.statistic.value
    row = ",".join(
        _fmt(x)
        for x in (
            result.method,
            w,
            result.critical_value,
            result.p_value,
            result.reject,
            result.alpha,
            result.replications,
            result.seed,
        )
    )
    return _csv_lines(
        "method,w,critical_value,p_value,reject,alpha,replications,seed",
        [row],
        manifest_name,
    )


def format_power_csv(
    points: Sequence[PowerPoint], manifest_name: str | None = None
) -> str:
    """CSV with one row per grid point: param,power_w,power_bc,replications."""
    rows = [
        ",".join(
            _fmt(x)
            for x in (p.parameter, p.power, p.power_baseline, p.replications)
        )
        for p in points
    ]
    return _csv_lines("param,power_w,power_bc,replications", rows, manifest_name)


def format_density_csv(
    points: Sequence[DensityPoint], manifest_name: str | None = None
) -> str:
    """CSV with one row per parameter value: theta1,theta2,density,draws."""
    rows = [
        ",".join(_fmt(x) for x in (p.theta1, p.theta2, p.density, p.draws))
        for p in points
    ]
    return _csv_lines("theta1,theta2,density,draws", rows, manifest_name)


def format_summary_csv(
    summary: SummaryGraph, base: int = 0, manifest_name: str | None = None
) -> str:
    """CSV of the selected edges, most frequent first: i,j,frequency."""
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    rows = [
        f"{i + base},{j + base},{_fmt(freq)}"
        for (i, j), freq in summary.frequencies
    ]
    return _csv_lines("i,j,frequency", rows, manifest_name)


def write_text(path, text: str) -> None:
    Path(path).write_text(text)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record for one command invocation."""

    command: str
    seed: int
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
