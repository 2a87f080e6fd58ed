"""File formats: graph-sample text, channel CSV, result CSVs, run manifests."""

import json
from fractions import Fraction

import numpy as np
import pytest

from graphtest import (
    DataFormatError,
    Graph,
    GraphSample,
    PowerPoint,
    RunManifest,
    TestResult,
    format_graph_sample,
    read_channel_csv,
    read_graph_sample,
    write_graph_sample,
    write_manifest,
)
from graphtest.formats import (
    format_density_csv,
    format_power_csv,
    format_summary_csv,
    format_test_csv,
    write_text,
)
from graphtest.models import DensityPoint
from graphtest.statistic import TestStatistic
from graphtest.timeseries import SummaryGraph

from oracles import format_graph_sample_oracle, random_sample, read_graph_sample_oracle

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

    def test_manifest_reference_comment(self):
        text = format_graph_sample(sample_with_gap(), manifest_name="run.json")
        assert text.splitlines()[1] == "# manifest: run.json"

    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("manifest_name", [None, "run.json"])
    @pytest.mark.parametrize("v", [2, 5, 9])
    def test_matches_the_per_edge_writer(self, rng, base, manifest_name, v):
        for _ in range(5):
            members = list(random_sample(rng, v, 8))
            # Edgeless graphs at the start, in the middle and at the end.
            members[0:0] = [Graph.empty(v)]
            members.insert(4, Graph.empty(v))
            members.append(Graph.empty(v))
            sample = GraphSample(members)
            assert format_graph_sample(sample, base, manifest_name) == (
                format_graph_sample_oracle(sample, base, manifest_name)
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

    def test_permutation_result_row_and_manifest(self):
        stat = TestStatistic(0.8, Fraction(4, 5), "two_sample", (10, 10))
        result = TestResult(
            method="two_sample_permutation",
            statistic=stat,
            alpha=0.05,
            reject=False,
            p_value=0.25,
            replications=400,
        )
        text = format_test_csv(result, manifest_name="m.json")
        lines = text.splitlines()
        assert lines[0] == "# manifest: m.json"
        row = lines[2].split(",")
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
        lines = format_density_csv(points, manifest_name="d.json").splitlines()
        assert lines[0] == "# manifest: d.json"
        assert lines[1] == "theta1,theta2,density,draws"
        assert lines[2] == "-1.0,0.63,0.61,200"

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
