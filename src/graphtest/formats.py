"""File formats: graph-sample text files, channel CSV, result CSV, run manifests.

The graph-sample format is line-oriented text. The first content line is a
header ``graphsample v=<int> n=<int> base=<0|1>``; every following content
line is one edge occurrence ``<graph_index> <i> <j>``. Graph indices are
always zero-based and lie in [0, n); ``base`` applies to the vertex labels
only. Lines starting with ``#`` are comments and may come anywhere, before
the header too; blank lines are ignored, and a graph with no edges simply
contributes no lines.

Channel CSV holds one label row followed by one row per time sample.

Each reader has two paths. A plain file, whose bytes after the header line
are only digits, spaces and line ends (plus ``.eE+-,`` in a CSV), is parsed
as one buffer by np.loadtxt and checked as whole arrays; this path reports
no errors. Any other file, and a plain file that fails a check, is decoded
as UTF-8 and goes to the reader's line reader, which builds the result one
line (one CSV row) at a time and reports the first line that breaks the
format.

Result CSVs have fixed per-command schemas. The serializers here write data
only; the CLI adds the ``# manifest: <name>`` comment line of a run that
writes a manifest.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataFormatError
from .graphs import GraphSample, _pair_slot, canonical_pairs, num_pairs
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

# Bytes a file may hold after its header line for its reader to parse it in
# one np.loadtxt call; any other file is read line by line.
_SAMPLE_BODY_BYTES = b"0123456789 \r\n"
_CSV_BODY_BYTES = _SAMPLE_BODY_BYTES + b".eE+-,"


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


def _decode(data: bytes, path: str) -> str:
    """The file's bytes as UTF-8 text; a byte that is not UTF-8 is a
    DataFormatError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start]
        # Lines end at \n, \r\n or a lone \r, as a text-mode read counts them.
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        message = f"not UTF-8 text: {e.reason}"
        raise DataFormatError(message, path=path, line=line) from None


def _head_and_body(data: bytes, is_head, body_bytes: bytes) -> tuple[str, bytes] | None:
    """The first line of ``data`` that ``is_head`` accepts, as text without its
    line end, and the bytes after that line. None unless every byte after it is
    in ``body_bytes``, every CR is followed by LF, and the lines up to the head
    are UTF-8."""
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    start = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        if is_head(data[start:end].rstrip(b"\r\n")):
            body = data[end:]
            if body.translate(None, body_bytes):
                return None
            try:
                head = data[:end].decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                return None
            return head[head.rfind("\n") + 1:], body
        start = end
    return None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Line number and stripped text of each non-blank, non-comment line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return ((k, line) for k, line in enumerate(map(str.strip, lines), start=1)
            if line and line[0] != "#")


def _empty_mask(v: int, n: int) -> np.ndarray | None:
    """A zero mask of n * E cells, or None when it does not fit in memory."""
    try:
        return np.zeros(n * num_pairs(v), dtype=bool)
    except (MemoryError, ValueError):
        return None


def _sample_from_edges(
    mask: np.ndarray, edges: np.ndarray, v: int, base: int
) -> GraphSample | None:
    """The sample whose edges are the rows of the (k, 3) array ``edges``, set
    in the zero ``mask``; None unless every row names a valid pair of a graph
    in [0, n) and no edge repeats."""
    E = num_pairs(v)
    n = len(mask) // E
    g, a, b = edges[:, 0], edges[:, 1] - base, edges[:, 2] - base
    in_range = (g >= 0) & (g < n) & (a >= 0) & (a < v) & (b >= 0) & (b < v)
    if not (in_range & (a != b)).all():
        return None
    mask[g * E + _pair_slot(v, np.minimum(a, b), np.maximum(a, b))] = True
    # Fewer set cells than rows means some row repeats an edge.
    if np.count_nonzero(mask) != len(edges):
        return None
    return GraphSample._adopt(v, mask.reshape(n, E))


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


def _plain_sample(data: bytes) -> GraphSample | None:
    """The sample in ``data`` from one np.loadtxt call over its edge lines, or
    None unless they hold only digits, spaces and line ends, and pass every
    check. None sends the file line by line, which reports what is wrong."""
    split = _head_and_body(
        data, lambda line: line.strip()[:1] not in (b"", b"#"), _SAMPLE_BODY_BYTES
    )
    if split is None:
        return None
    header, body = split
    try:
        v, n, base = _header_values(header)
        edges = np.zeros((0, 3), dtype=np.int64)
        if body and not body.isspace():  # np.loadtxt warns on a body with no rows
            edges = np.loadtxt(io.BytesIO(body), dtype=np.int64, comments=None,
                               ndmin=2, encoding="ascii")
    except ValueError:
        return None
    mask = _empty_mask(v, n)
    if edges.shape[1] != 3 or mask is None:
        return None
    return _sample_from_edges(mask, edges, v, base)


def _set_edge(mask: np.ndarray, line: str, v: int, n: int, base: int) -> None:
    """Set the cell of edge line ``line`` in ``mask``; a ValueError says what
    is wrong, checked in this order: token count, integers, graph index,
    vertex pair, and a cell already set, which is a duplicate edge."""
    parts = line.split()
    if len(parts) != 3:
        raise ValueError(f"expected '<graph> <i> <j>', got {line!r}")
    try:
        g, i, j = map(int, parts)
    except ValueError:
        raise ValueError(f"non-integer edge line {line!r}") from None
    if not 0 <= g < n:
        raise ValueError(f"graph index {g} outside [0, {n})")
    if i == j or not (base <= i < v + base and base <= j < v + base):
        raise ValueError(f"invalid vertex pair ({i}, {j}) for v={v}")
    i, j = min(i, j), max(i, j)
    cell = g * num_pairs(v) + _pair_slot(v, i - base, j - base)
    if mask[cell]:
        raise ValueError(f"duplicate edge ({i}, {j}) in graph {g}")
    mask[cell] = True


def _sample_by_line(text: str, path: str) -> GraphSample:
    """The sample in ``text``, read one content line at a time; a
    DataFormatError names the first line that breaks the format."""
    lines = _content_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise DataFormatError("file has no content lines", path=path)
    try:
        v, n, base = _header_values(header)
        mask = _empty_mask(v, n)
        if mask is None:
            raise ValueError(
                f"a sample of n={n} graphs on v={v} vertices does not fit in memory"
            )
        for lineno, line in lines:
            _set_edge(mask, line, v, n, base)
    except ValueError as e:
        raise DataFormatError(str(e), path=path, line=lineno) from None
    return GraphSample._adopt(v, mask.reshape(n, num_pairs(v)))


def read_graph_sample(path) -> GraphSample:
    """Parse a UTF-8 graph-sample file; errors carry the offending line number.

    A file whose edge lines hold only digits, spaces and line ends is parsed
    as one buffer (``_plain_sample``). Any other file, and any file that
    fails a check there, goes to the line reader (``_sample_by_line``), which
    reads one content line at a time and reports every error: the first line
    that breaks the format. Both paths accept the same files and give the
    same samples.
    """
    path = str(path)
    data = Path(path).read_bytes()
    sample = _plain_sample(data)
    return sample if sample is not None else _sample_by_line(_decode(data, path), path)


def _plain_csv(data: bytes) -> tuple[list[str], np.ndarray] | None:
    """Labels and values of a channel CSV from one np.loadtxt call over its
    data rows, or None unless the label row holds no quote, and the data rows
    hold only decimal numbers, commas, spaces and line ends, as many cells as
    labels and only finite values. None sends the file row by row, which
    reports what is wrong."""
    split = _head_and_body(data, bool, _CSV_BODY_BYTES)
    if split is None:
        return None
    header, body = split
    # A quoted label may hold commas. Python 3.10's csv module rejects NUL.
    if not body or body.isspace() or '"' in header or "\x00" in header:
        return None
    labels = [cell.strip() for cell in header.split(",")]
    try:
        values = np.loadtxt(io.BytesIO(body), dtype=np.float64, delimiter=",",
                            comments=None, ndmin=2, encoding="ascii")
    except ValueError:
        return None
    if not all(labels) or values.shape[1] != len(labels):
        return None
    return (labels, values) if np.isfinite(values).all() else None


def _data_row(row: list[str], width: int) -> list[float]:
    """The values of one CSV data row; a ValueError says what is wrong."""
    if len(row) != width:
        raise ValueError(f"expected {width} columns, got {len(row)}")
    try:
        values = list(map(float, row))
    except ValueError:
        raise ValueError("non-numeric value in data row") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value in data row")
    return values


def _csv_rows(text: str, path: str) -> tuple[list[str], np.ndarray]:
    """Labels and values of a channel CSV, read row by row with the csv module;
    an error names the line the first failing row starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    labels, data = None, []
    start = 1  # the line the next row starts on; a quoted cell may span lines
    try:
        for row in reader:
            if row and labels is None:
                labels = [cell.strip() for cell in row]
                if not all(labels):
                    raise ValueError("empty channel label")
            elif row:
                data.append(_data_row(row, len(labels)))
            start = reader.line_num + 1
    except (csv.Error, ValueError) as e:
        raise DataFormatError(str(e), path=path, line=start) from None
    if labels is None:
        raise DataFormatError("file is empty", path=path)
    if not data:
        raise DataFormatError("no data rows after the label row", path=path)
    return labels, np.array(data, dtype=np.float64)


def read_channel_csv(path, sampling_rate: float) -> ChannelMatrix:
    """Parse a UTF-8 channel CSV (label row + one row of reals per time sample).

    Data rows made only of decimal numbers, commas, spaces and line ends are
    parsed as one buffer (``_plain_csv``). Any other file, and any file that
    fails a check there, goes to the row reader (``_csv_rows``), which reads
    one row at a time and reports every error, naming the line the first
    failing row starts on. An invalid ``sampling_rate`` raises ValueError
    before the file is read.
    """
    _check_sampling_rate(sampling_rate)
    path = str(path)
    data = Path(path).read_bytes()
    parsed = _plain_csv(data)
    if parsed is None:
        parsed = _csv_rows(_decode(data, path), path)
    labels, values = parsed
    try:
        return ChannelMatrix(labels, values, sampling_rate)
    except ValueError as e:
        raise DataFormatError(str(e), path=path) from e


def _fmt(x) -> str:
    # A NumPy scalar's repr names its type (np.float64(0.3)) and a NumPy
    # bool is no bool, so each is written as the Python value it holds.
    if isinstance(x, np.generic):
        x = x.item()
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
