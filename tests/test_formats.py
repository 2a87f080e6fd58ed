"""File formats: graph-sample text, channel CSV, result CSVs, run manifests."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import graphtest.formats as formats
from graphtest import (
    DataFormatError,
    Graph,
    GraphSample,
    PowerPoint,
    RunManifest,
    TestResult,
    format_graph_sample,
    num_pairs,
    read_channel_csv,
    read_graph_sample,
    write_graph_sample,
    write_manifest,
)
from graphtest.formats import (
    _EDGE_BLOCK_LINES,
    format_density_csv,
    format_power_csv,
    format_summary_csv,
    format_test_csv,
    write_text,
)
from graphtest.models import DensityPoint
from graphtest.statistic import TestStatistic
from graphtest.timeseries import SummaryGraph

from oracles import (
    format_graph_sample_oracle,
    random_sample,
    read_channel_csv_oracle,
    read_graph_sample_oracle,
)

TestResult.__test__ = False
TestStatistic.__test__ = False


def sample_with_gap():
    return GraphSample([
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.empty(4),
        Graph.from_edges(4, [(1, 3)]),
    ])


class TestGraphSampleFormat:
    def test_serialization_is_literal(self):
        text = format_graph_sample(sample_with_gap())
        assert text == (
            "graphsample v=4 n=3 base=0\n"
            "0 0 1\n"
            "0 2 3\n"
            "2 1 3\n"
        )

    def test_one_based_vertex_labels(self):
        text = format_graph_sample(sample_with_gap(), base=1)
        assert "graphsample v=4 n=3 base=1" in text
        assert "0 1 2\n" in text
        assert "2 2 4\n" in text
        # Graph indices stay zero-based regardless of the vertex base.
        assert text.splitlines()[1].split()[0] == "0"

    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("v", [2, 5, 9])
    def test_matches_the_per_edge_writer(self, rng, base, v):
        for _ in range(5):
            members = list(random_sample(rng, v, 8))
            # Edgeless graphs at the start, in the middle and at the end.
            members[0:0] = [Graph.empty(v)]
            members.insert(4, Graph.empty(v))
            members.append(Graph.empty(v))
            sample = GraphSample(members)
            assert format_graph_sample(sample, base) == (
                format_graph_sample_oracle(sample, base)
            )

    def test_edgeless_sample_is_a_header_only(self):
        sample = GraphSample([Graph.empty(3)] * 2)
        assert format_graph_sample(sample) == format_graph_sample_oracle(sample)
        assert format_graph_sample(sample) == "graphsample v=3 n=2 base=0\n"

    def test_round_trip(self, tmp_path, rng):
        for base in (0, 1):
            s = random_sample(rng, 6, 8)
            path = tmp_path / f"sample{base}.txt"
            write_graph_sample(path, s, base=base)
            assert read_graph_sample(path) == s

    def test_round_trip_keeps_empty_graphs(self, tmp_path):
        s = GraphSample([Graph.empty(5)] * 3)
        path = tmp_path / "empty.txt"
        write_graph_sample(path, s)
        back = read_graph_sample(path)
        assert back.n == 3 and all(g == Graph.empty(5) for g in back)

    def test_reader_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text(
            "# leading comment\n"
            "\n"
            "graphsample v=3 n=2 base=0\n"
            "  # indented comment\n"
            "0 0 1\n"
            "\n"
            "1 1 2\n"
        )
        s = read_graph_sample(path)
        assert s[0].edges() == ((0, 1),)
        assert s[1].edges() == ((1, 2),)

    def test_base_one_round_trip_rejects_zero_vertex(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("graphsample v=3 n=1 base=1\n0 0 1\n")
        with pytest.raises(DataFormatError) as err:
            read_graph_sample(path)
        assert err.value.line == 2

    def test_rejects_unnormalized_duplicate(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("graphsample v=3 n=1 base=0\n0 1 2\n0 2 1\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            read_graph_sample(path)

    @pytest.mark.parametrize(
        "content,match,line",
        [
            ("graphs v=3 n=1 base=0\n", "must start with", 1),
            ("graphsample v=3 n=1\n", "must define", 1),
            ("graphsample v=3 n=1 base=0 extra=1\n", "must define", 1),
            ("graphsample v=3 v=3 n=1 base=0\n", "malformed", 1),
            ("graphsample v=x n=1 base=0\n", "integers", 1),
            ("graphsample v=1 n=1 base=0\n", "v >= 2", 1),
            ("graphsample v=3 n=0 base=0\n", "at least one graph", 1),
            ("graphsample v=3 n=1 base=2\n", "base", 1),
            ("graphsample v=3 n=1 base=0\n0 1\n", "expected", 2),
            ("graphsample v=3 n=1 base=0\n0 a 1\n", "non-integer", 2),
            ("graphsample v=3 n=2 base=0\n2 0 1\n", "graph index", 2),
            ("graphsample v=3 n=1 base=0\n-1 0 1\n", "graph index", 2),
            ("graphsample v=3 n=1 base=0\n0 1 1\n", "vertex pair", 2),
            ("graphsample v=3 n=1 base=0\n0 0 3\n", "vertex pair", 2),
        ],
    )
    def test_parse_errors_carry_location(self, tmp_path, content, match, line):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(DataFormatError, match=match) as err:
            read_graph_sample(path)
        assert err.value.line == line
        assert err.value.path == str(path)
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        with pytest.raises(DataFormatError, match="no content"):
            read_graph_sample(path)

    def test_rejects_bad_base_argument(self):
        with pytest.raises(ValueError):
            format_graph_sample(sample_with_gap(), base=2)


def check_reader_against_oracle(path):
    """read_graph_sample gives the line-by-line reader's graphs or its error."""
    expected = read_graph_sample_oracle(path)
    if isinstance(expected, GraphSample):
        assert read_graph_sample(path) == expected
        return
    message, line = expected
    with pytest.raises(DataFormatError) as err:
        read_graph_sample(path)
    assert err.value.line == line
    where = f"{path}: " if line is None else f"{path}: line {line}: "
    assert str(err.value) == where + message


class TestReaderMatchesLineByLine:
    @pytest.mark.parametrize("base", [0, 1])
    def test_valid_files_with_comments_and_blanks(self, tmp_path, rng, base):
        for trial in range(5):
            lines = format_graph_sample(random_sample(rng, 6, 12), base).splitlines()
            for _ in range(8):
                k = int(rng.integers(1, len(lines) + 1))
                lines.insert(k, rng.choice(["", "   ", "# note", "  # 1 2 3", "\t"]))
            path = tmp_path / f"valid{trial}.txt"
            path.write_text("\n".join(lines) + "\n")
            check_reader_against_oracle(path)

    @pytest.mark.parametrize(
        "body",
        [
            "0 1\n",
            "0 1 2 3\n",
            "0 1 2 # trailing comment\n",
            "0 a 1\n",
            "0 1.0 2\n",
            "3 0 1\n",
            "-1 0 1\n",
            "0 2 2\n",
            "0 0 3\n",
            "0 -1 2\n",
            "0 1 2\n0 1 2\n",
            "0 1 2\n1 1 2\n0 2 1\n",  # duplicate in reversed pair order
            "0 1 99999999999999999999999\n",
            "99999999999999999999999 1 2\n",
            "0 +1 1_0\n1 0 0x1\n",
            "2 +1 1_0\n1 0 01\n0 1 2\n",
            # Spellings int() accepts: sign, leading zeros, underscores,
            # Arabic-Indic and mathematical digits, no-break space between.
            "0 +5 007\n1 1_0 \u0663\n2\xa0\U0001d7d3 -0\n",
            "0 1 2\r\n1 0 1\r\n\r\n2 0 2\r\n",
            "0\t1  2\n  1 0 1  \n",
            "0 1 2\r1 0 1\r",
            "0 1 2\x0b\n1\u20280 2\n",
            "0 ; 1\n",
            "0 1 2 ; 4\n5\n",
            "0 1 2\n1 2 ;\n",
        ],
    )
    @pytest.mark.parametrize("base", [0, 1])
    def test_single_cases(self, tmp_path, body, base):
        path = tmp_path / "case.txt"
        path.write_text(f"# leading comment\ngraphsample v=11 n=3 base={base}\n\n{body}")
        check_reader_against_oracle(path)

    @pytest.mark.parametrize(
        "content",
        [
            "# only a comment\n\n",
            "graphs v=3 n=1 base=0\n",
            "\n# c\ngraphsample v=3 n=1\n",
            "graphsample v=3 n=1 base=0 extra=1\n",
            "graphsample v=3 v=3 n=1 base=0\n",
            "graphsample v=3 n1 base=0\n",
            "graphsample v=x n=1 base=0\n",
            "graphsample v=1 n=1 base=0\n",
            "graphsample v=3 n=0 base=0\n",
            "graphsample v=3 n=1 base=2\n0 0 1\n",
            "graphsample v=3 n=2 base=0\n",
        ],
    )
    def test_header_cases(self, tmp_path, content):
        path = tmp_path / "header.txt"
        path.write_text(content)
        check_reader_against_oracle(path)

    def test_only_the_first_of_several_errors_is_reported(self, tmp_path, rng):
        faults = ["0 1", "0 x 1", "7 0 1", "0 3 3", "0 0 9", "0 1 2 3", "1 2 0"]
        for trial in range(40):
            lines = format_graph_sample(random_sample(rng, 5, 6)).splitlines()
            for fault in rng.choice(faults, size=3):
                lines.insert(int(rng.integers(1, len(lines) + 1)), str(fault))
            path = tmp_path / f"bad{trial}.txt"
            path.write_text("\n".join(lines) + "\n")
            check_reader_against_oracle(path)


class TestReaderBlocks:
    """Edge lines are read _EDGE_BLOCK_LINES at a time."""

    def big_sample_lines(self, rng):
        mask = rng.random((1400, num_pairs(12))) < 0.5
        sample = GraphSample.from_indicator_matrix(12, mask)
        lines = format_graph_sample(sample).splitlines()
        assert len(lines) > 2 * _EDGE_BLOCK_LINES + 1
        return lines

    @pytest.mark.parametrize("fault_at", ["first", "second", "last"])
    @pytest.mark.parametrize("fault", ["0 1", "9999 0 1", "repeat"])
    def test_faults_in_any_block_match_line_by_line(
        self, tmp_path, rng, fault_at, fault
    ):
        lines = self.big_sample_lines(rng)
        k = {"first": 5, "second": _EDGE_BLOCK_LINES + 7, "last": len(lines)}[fault_at]
        # A repeated line duplicates an edge from an earlier block.
        lines.insert(k, lines[1] if fault == "repeat" else fault)
        path = tmp_path / "big.txt"
        path.write_text("\n".join(lines) + "\n")
        check_reader_against_oracle(path)

    def test_valid_file_across_blocks(self, tmp_path, rng):
        path = tmp_path / "big.txt"
        path.write_text("\n".join(self.big_sample_lines(rng)) + "\n")
        check_reader_against_oracle(path)

    def test_peak_memory_is_bounded(self, tmp_path):
        # 1 800 graphs on 24 vertices at edge density 0.2: ~0.95 MB of text,
        # about the size of one windowed-correlation recording's sample. Reading
        # all edge lines in one block peaked at ~32 MiB, and also keeping a line
        # number per content line at ~15 MiB.
        rng = np.random.default_rng(101)
        mask = rng.random((1800, num_pairs(24))) < 0.2
        path = tmp_path / "recording.txt"
        write_graph_sample(path, GraphSample.from_indicator_matrix(24, mask))
        tracemalloc.start()
        try:
            sample = read_graph_sample(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(sample.indicator_matrix(), mask)
        assert peak < 13 * 2**20


class TestChannelCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "channels.csv"
        path.write_text("fp1,fp2,cz\n0.5,1.5,-2.0\n1.0,0.25,3.5\n")
        m = read_channel_csv(path, sampling_rate=250.0)
        assert m.labels == ("fp1", "fp2", "cz")
        assert m.sampling_rate == 250.0
        assert m.values.tolist() == [[0.5, 1.5, -2.0], [1.0, 0.25, 3.5]]

    def test_strips_label_whitespace(self, tmp_path):
        path = tmp_path / "channels.csv"
        path.write_text(" a , b\n1,2\n")
        assert read_channel_csv(path, 100.0).labels == ("a", "b")

    @pytest.mark.parametrize(
        "content,match,line",
        [
            ("a,b\n1,2,3\n", "columns", 2),
            ("a,b\n1\n", "columns", 2),
            ("a,b\n1,x\n", "non-numeric", 2),
            ("a,b\n1,2\n3,inf\n", "non-finite", 3),
            ("a,\n1,2\n", "empty channel label", 1),
        ],
    )
    def test_parse_errors_carry_location(self, tmp_path, content, match, line):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(DataFormatError, match=match) as err:
            read_channel_csv(path, 100.0)
        assert err.value.line == line

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_middle_row_names_its_line(self, tmp_path, cell):
        rows = ["a,b,c"] + [f"{k},{k + 1},{k + 2}" for k in range(6)]
        rows[4] = f"1,{cell},2"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="non-finite") as err:
            read_channel_csv(path, 100.0)
        assert err.value.line == 5

    def test_non_finite_row_before_a_malformed_row_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n\n3,nan\n4,x\n5\n")
        with pytest.raises(DataFormatError, match="non-finite") as err:
            read_channel_csv(path, 100.0)
        assert err.value.line == 4

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text('a,b\n1,2\n"' + "x" * 200_000 + '",1\n')
        with pytest.raises(DataFormatError, match="field larger than field limit") as err:
            read_channel_csv(path, 100.0)
        assert err.value.line == 3

    def test_empty_and_headonly_files(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_channel_csv(path, 100.0)
        path.write_text("a,b\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_channel_csv(path, 100.0)

    def test_wraps_matrix_validation(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataFormatError, match="unique"):
            read_channel_csv(path, 100.0)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_channel_csv(tmp_path / "absent.csv", 100.0)

    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
    def test_bad_sampling_rate_is_rejected_before_the_file_is_read(
        self, tmp_path, rate
    ):
        with pytest.raises(ValueError, match="sampling_rate") as err:
            read_channel_csv(tmp_path / "absent.csv", rate)
        assert not isinstance(err.value, DataFormatError)

    def test_peak_memory_is_bounded(self, tmp_path):
        # 24 channels x 7 500 rows of six-decimal floats (1.7 MB), one recording
        # of the benchmark's size. Parsing row by row with csv.reader and
        # float() peaked at ~20 MiB.
        values = np.random.default_rng(7).standard_normal((7500, 24))
        path = tmp_path / "recording.csv"
        header = ",".join(f"ch{c:02d}" for c in range(24))
        np.savetxt(path, values, fmt="%.6f", delimiter=",", header=header, comments="")
        tracemalloc.start()
        try:
            m = read_channel_csv(path, 250.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(m.values, values, rtol=0, atol=5e-7)
        assert peak < 8 * 2**20


def check_csv_against_oracle(path):
    """read_channel_csv gives the row-by-row reader's labels and values, bit
    for bit, or its error."""
    expected = read_channel_csv_oracle(path)
    if isinstance(expected[0], tuple):
        labels, values = expected
        m = read_channel_csv(path, 250.0)
        assert m.labels == labels
        assert m.values.shape == values.shape
        assert np.array_equal(m.values.view(np.int64), values.view(np.int64))
        return
    message, line = expected
    with pytest.raises(DataFormatError) as err:
        read_channel_csv(path, 250.0)
    assert err.value.line == line
    where = f"{path}: " if line is None else f"{path}: line {line}: "
    assert str(err.value) == where + message


# Ways a CSV writer may spell one float.
CELL_STYLES = (
    repr,
    "{:.6f}".format,
    "{:e}".format,
    "{:.17g}".format,
    lambda x: f"{x:+.3E}",
    lambda x: f"{x:.4f}".replace("0.", ".", 1),
    lambda x: str(int(x)),
    lambda x: f" {x!r}  ",
)


class TestChannelCsvMatchesRowByRow:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_valid_files_with_blank_lines(self, tmp_path, rng, newline):
        for trial in range(6):
            channels = int(rng.integers(2, 7))
            scale = 10.0 ** rng.integers(-8, 9, (40, channels))
            values = rng.standard_normal((40, channels)) * scale
            lines = [",".join(f"c{k}" for k in range(channels))]
            for row in values:
                styles = rng.integers(len(CELL_STYLES), size=channels)
                cells = (CELL_STYLES[s](float(x)) for s, x in zip(styles, row))
                lines.append(",".join(cells))
            for _ in range(6):
                lines.insert(int(rng.integers(0, len(lines) + 1)), "")
            end = newline if trial % 2 else ""
            path = tmp_path / f"valid{trial}.csv"
            path.write_bytes((newline.join(lines) + end).encode())
            check_csv_against_oracle(path)

    def test_fuzzed_tokens(self, tmp_path, rng):
        # Random tokens over the bytes a number may hold on the whole-buffer
        # path; the digits are weighted so that many tokens are numbers.
        alphabet = np.array(list("0123456789" * 3 + ".eE+-"))
        lengths = rng.integers(1, 10, size=20_000)
        cells = rng.choice(alphabet, size=(lengths.size, lengths.max()))
        tokens = sorted({"".join(row[:k]) for row, k in zip(cells, lengths)})
        numbers, others = [], []
        for tok in tokens:
            try:
                x = float(tok)
            except ValueError:
                others.append(tok)
                continue
            (numbers if np.isfinite(x) else others).append(tok)
        assert len(numbers) > 5_000 and len(others) > 5_000
        # Every number in one file, read in one buffer, bit for bit.
        path = tmp_path / "numbers.csv"
        rows = [f"{a},{b}" for a, b in zip(numbers, numbers[1:] + numbers[:1])]
        path.write_text("a,b\n" + "\n".join(rows) + "\n")
        check_csv_against_oracle(path)
        # The whole-buffer path declines every other token, so the row-by-row
        # reader reports it.
        for tok in others:
            assert formats._plain_csv(f"a,b\n1,{tok}\n".encode()) is None, tok
        for tok in others[::100]:
            path.write_text(f"a,b\n1,2\n{tok},3\n")
            check_csv_against_oracle(path)

    @pytest.mark.parametrize(
        "content",
        [
            "a,b\n1_0,2\n",
            "a,b\nnan,1\n",
            "a,b\n1,-inf\n",
            "a,b\n1e999,1\n",
            "a,b\n1,2\n-1e999,3\n",
            "a,b\n1,infinity\n",
            "a,b\n0x1,2\n",
            "a,b\n1,٣\n",
            "a,b\n1,１\n",
            "a,b\n1,2\x00\n",
            'a,b\n"1",2\n',
            '"a","b"\n1,2\n',
            '"a,b",c\n1,2\n',
            '"a\nb",c\n1,2\n',
            "a\x00,b\n1,2\n",
            "﻿a,b\n1,2\n",
            " a , b \n 1 , 2 \n",
            "a,b\n1,2\r3,4\r",
            "a,b\r1,2\n3,4\n",
            "a,b\n1,2\n3\n",
            "a,b\n1,2,3\n",
            "a,b\n1\n",
            "a,b\n1,2,\n",
            "a,b,\n1,2,3\n",
            "a,b\n,2\n",
            "a,b\n1, \n",
            "a,b\n1 2,3\n",
            "a,b\n1,2\n   \n3,4\n",
            "a,b\n1,2\n\t\n",
            "a\n1\n\n2\n",
            "a\n1\n  \n",
            "a,a\n1,2\n",
            "a,b\n",
            "a,b\n\n\r\n",
            "",
            "\n\r\n",
            "\n\na,b\n1,2\n3,4",
            "a,b\n1,2\n# c\n",
            "a,b\n+1,-2\n.5,5.\n1e5,1E-05\n-0,0\n",
            "a,b\r\n1,2\r\n\r\n3,4\r\n",
            "a,b\n1,2\nnan,x\n",
            "a,b\n1,x\nnan,2\n",
        ],
    )
    def test_single_cases(self, tmp_path, content):
        path = tmp_path / "case.csv"
        path.write_bytes(content.encode())
        check_csv_against_oracle(path)


class TestWholeBufferPath:
    """Plain files are parsed in one np.loadtxt call; any other goes line by line."""

    @staticmethod
    def refuse(monkeypatch, *names):
        def fail(*args, **kwargs):
            raise AssertionError("the line-by-line path was taken")

        for name in names:
            monkeypatch.setattr(formats, name, fail)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(formats, name)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(formats, name, record)
        return calls

    @pytest.mark.parametrize("layout", ["lf", "crlf", "leading comment"])
    def test_plain_graph_sample_skips_the_line_reader(self, tmp_path, monkeypatch, layout):
        # One recording's sample: 1 781 window graphs on 24 channels.
        mask = np.random.default_rng(101).random((1781, num_pairs(24))) < 0.2
        text = format_graph_sample(GraphSample.from_indicator_matrix(24, mask))
        if layout == "crlf":
            text = text.replace("\n", "\r\n")
        if layout == "leading comment":
            text = "# manifest: run.json\n\n" + text
        path = tmp_path / "recording.txt"
        path.write_bytes(text.encode())
        self.refuse(monkeypatch, "_content_lines", "_edge_array", "_first_edge_error")
        assert np.array_equal(read_graph_sample(path).indicator_matrix(), mask)

    def test_plain_csv_skips_the_row_reader(self, tmp_path, monkeypatch):
        values = np.random.default_rng(7).standard_normal((7500, 24))
        path = tmp_path / "recording.csv"
        header = ",".join(f"ch{c:02d}" for c in range(24))
        np.savetxt(path, values, fmt="%.6f", delimiter=",", header=header, comments="")
        labels, expected = read_channel_csv_oracle(path)
        self.refuse(monkeypatch, "_csv_rows")
        m = read_channel_csv(path, 250.0)
        assert m.labels == labels
        assert np.array_equal(m.values.view(np.int64), expected.view(np.int64))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "content",
        [
            "graphsample v=3 n=2 base=0\n",
            "graphsample v=3 n=2 base=0",
            "# c\ngraphsample v=3 n=2 base=1\r\n\r\n  \n",
        ],
    )
    def test_header_only_sample_reads_without_a_warning(
        self, tmp_path, monkeypatch, content
    ):
        path = tmp_path / "empty.txt"
        path.write_bytes(content.encode())
        self.refuse(monkeypatch, "_content_lines", "_edge_array", "_first_edge_error")
        assert read_graph_sample(path) == GraphSample([Graph.empty(3)] * 2)

    def test_comment_lines_after_the_header_take_the_line_reader(
        self, tmp_path, rng, monkeypatch
    ):
        sample = random_sample(rng, 7, 30)
        lines = format_graph_sample(sample).splitlines()
        for k in range(len(lines) - 1, 0, -5):
            lines.insert(k, "# between edges")
        path = tmp_path / "commented.txt"
        path.write_text("\n".join(lines) + "\n")
        calls = self.spy(monkeypatch, "_edge_array")
        assert read_graph_sample(path) == sample
        assert calls

    def test_quoted_labels_take_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","b"\n1.5,2\n3,4e-3\n')
        calls = self.spy(monkeypatch, "_csv_rows")
        m = read_channel_csv(path, 250.0)
        assert calls
        assert m.labels == ("a", "b")
        assert m.values.tolist() == [[1.5, 2.0], [3.0, 4e-3]]


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a data error naming the file and its line."""

    @pytest.mark.parametrize(
        "content,line",
        [
            (b"graphsample v=3 n=1 base=0\n0 0 1\n0 \xff 2\n", 3),
            (b"# caf\xe9\ngraphsample v=3 n=1 base=0\n0 0 1\n", 1),
            (b"graphsample v=3 n=1 base=0\r\n\r\n# \xff\r\n", 3),
            (b"# a\rgraphsample v=3 n=1 base=0\r0 1 2\xff\n", 3),
        ],
    )
    def test_graph_sample(self, tmp_path, content, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match="not UTF-8 text") as err:
            read_graph_sample(path)
        assert err.value.line == line
        assert err.value.path == str(path)

    @pytest.mark.parametrize(
        "content,line",
        [
            (b"a,b\n1,2\n\xff,3\n", 3),
            (b"\xffa,b\n1,2\n", 1),
            (b"a,b\r\n1,2\r\n\r\n3,\xe9\r\n", 4),
        ],
    )
    def test_channel_csv(self, tmp_path, content, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match="not UTF-8 text") as err:
            read_channel_csv(path, 250.0)
        assert err.value.line == line
        assert err.value.path == str(path)


class TestResultCsv:
    def test_quantile_result_row(self):
        stat = TestStatistic(2.5, Fraction(5, 2), "one_sample", (20, None))
        result = TestResult(
            method="one_sample_mc",
            statistic=stat,
            alpha=0.05,
            reject=True,
            critical_value=1.75,
            critical_exact=Fraction(7, 4),
            replications=1000,
            seed=42,
        )
        text = format_test_csv(result)
        lines = text.splitlines()
        assert lines[0] == "method,w,critical_value,p_value,reject,alpha,replications,seed"
        assert lines[1] == "one_sample_mc,2.5,1.75,,true,0.05,1000,42"

    def test_permutation_result_row(self):
        stat = TestStatistic(0.8, Fraction(4, 5), "two_sample", (10, 10))
        result = TestResult(
            method="two_sample_permutation",
            statistic=stat,
            alpha=0.05,
            reject=False,
            p_value=0.25,
            replications=400,
        )
        row = format_test_csv(result).splitlines()[1].split(",")
        assert row[3] == "0.25" and row[4] == "false" and row[7] == ""

    def test_float_cells_round_trip(self):
        stat = TestStatistic(1 / 3, Fraction(1, 3), "one_sample", (3, None))
        result = TestResult(
            method="one_sample_mc",
            statistic=stat,
            alpha=0.05,
            reject=False,
            critical_value=2 / 3,
        )
        row = format_test_csv(result).splitlines()[1].split(",")
        assert float(row[1]) == 1 / 3
        assert float(row[2]) == 2 / 3


class TestCurveCsvs:
    def test_power_rows(self):
        points = [
            PowerPoint(0.3, 0.5, 1000, 0.4),
            PowerPoint(0.5, 0.05, 1000, None),
        ]
        lines = format_power_csv(points).splitlines()
        assert lines[0] == "param,power_w,power_bc,replications"
        assert lines[1] == "0.3,0.5,0.4,1000"
        assert lines[2] == "0.5,0.05,,1000"

    def test_density_rows(self):
        points = [DensityPoint(-1.0, 0.63, 0.61, 200)]
        lines = format_density_csv(points).splitlines()
        assert lines[0] == "theta1,theta2,density,draws"
        assert lines[1] == "-1.0,0.63,0.61,200"

    def test_summary_rows_respect_base(self):
        summary = SummaryGraph(
            Graph.from_edges(3, [(0, 1), (1, 2)]),
            (((1, 2), 0.75), ((0, 1), 0.5)),
        )
        assert format_summary_csv(summary).splitlines() == [
            "i,j,frequency",
            "1,2,0.75",
            "0,1,0.5",
        ]
        assert format_summary_csv(summary, base=1).splitlines()[1] == "2,3,0.75"
        with pytest.raises(ValueError):
            format_summary_csv(summary, base=3)


class TestRunManifest:
    def test_json_structure(self):
        manifest = RunManifest(
            command="sample",
            seed=123,
            parameters={"v": 5, "p": 0.5, "model": "er"},
            version="0.1.0",
            outputs=("out.txt",),
        )
        data = json.loads(manifest.to_json())
        assert data["command"] == "sample"
        assert data["seed"] == 123
        assert data["parameters"]["p"] == 0.5
        assert data["version"] == "0.1.0"
        assert data["outputs"] == ["out.txt"]
        assert "created" in data

    def test_write_manifest(self, tmp_path):
        manifest = RunManifest("test", 7, {}, "0.1.0")
        path = tmp_path / "run.json"
        write_manifest(path, manifest)
        assert json.loads(path.read_text())["seed"] == 7

    def test_write_text(self, tmp_path):
        write_text(tmp_path / "x.txt", "hello\n")
        assert (tmp_path / "x.txt").read_text() == "hello\n"
