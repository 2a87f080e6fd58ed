"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import graphtest
from graphtest import Graph, GraphSample, read_graph_sample, write_graph_sample
from graphtest.cli import _build_parser, main

from oracles import (
    FIXTURE_LABELS,
    fixture_expected_lines,
    fixture_values,
)


def test_importing_the_cli_does_not_load_scipy():
    """SciPy costs about a second at start-up and is only a test dependency."""
    code = (
        "import sys, graphtest.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(graphtest.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def run(*argv):
    return main(list(argv))


def write_fixture_csv(path):
    lines = [",".join(FIXTURE_LABELS)]
    for row in fixture_values():
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_complete_sample(path, v=10, n=20):
    write_graph_sample(path, GraphSample([Graph.complete(v)] * n))


class TestSampleCommand:
    def test_writes_header_and_edges(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code = run(
            "sample", "--model", "er", "--v", "4", "--n", "3",
            "--p", "1.0", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "graphsample v=4 n=3 base=0"
        assert len(lines) == 1 + 3 * 6
        assert "wrote 3 graphs" in capsys.readouterr().out

    def test_stdout_when_no_out_file(self, capsys):
        assert run("sample", "--model", "er", "--v", "3", "--n", "2",
                   "--p", "0.0", "--seed", "3") == 0
        captured = capsys.readouterr()
        assert captured.out == "graphsample v=3 n=2 base=0\n"

    def test_same_seed_is_byte_identical(self, tmp_path):
        args = ["sample", "--model", "er", "--v", "8", "--n", "5",
                "--p", "0.37", "--seed", "77"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.txt"
        assert run(*args[:-1], "78", "--out", str(c)) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_modified_er_and_ergm_models(self, tmp_path):
        out = tmp_path / "m.txt"
        assert run(
            "sample", "--model", "modified-er", "--v", "5", "--n", "4",
            "--p0", "0.2", "--p", "0.9", "--q", "0.25",
            "--seed", "5", "--out", str(out),
        ) == 0
        assert read_graph_sample(out).n == 4
        assert run(
            "sample", "--model", "ergm", "--v", "5", "--n", "4",
            "--stats", "edge-triangle", "--theta1", "-0.5", "--theta2", "0.2",
            "--burn-in", "20", "--thinning", "1",
            "--seed", "5", "--out", str(out),
        ) == 0
        assert read_graph_sample(out).n == 4

    def test_missing_model_parameter_is_usage_error(self, tmp_path, capsys):
        code = run("sample", "--model", "er", "--v", "4", "--n", "3", "--seed", "1")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("message", [
        "Unable to allocate 373. GiB for an array with shape (10, 4999950000)", "",
    ])
    def test_running_out_of_memory_is_refused(self, monkeypatch, capsys, message):
        # The model's sample stands in for an allocation too large to make.
        def sample(self, n, rng):
            raise MemoryError(message)

        monkeypatch.setattr(graphtest.models._IndependentEdges, "sample", sample)
        code = run(
            "sample", "--model", "er", "--v", "100000", "--p", "0.5", "--n", "10",
            "--seed", "1",
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {message or 'MemoryError'}\n"
        assert captured.out == ""

    def test_manifest_records_run(self, tmp_path):
        out = tmp_path / "s.txt"
        manifest = tmp_path / "run.json"
        assert run(
            "sample", "--model", "er", "--v", "4", "--n", "2", "--p", "0.5",
            "--seed", "11", "--out", str(out), "--manifest", str(manifest),
        ) == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == "sample"
        assert data["seed"] == 11
        assert data["parameters"]["v"] == 4
        assert data["parameters"]["model"] == {"model": "er", "v": 4, "p": 0.5}
        assert data["outputs"] == [out.name]
        assert f"# manifest: {manifest.name}" in out.read_text()


class TestTestCommand:
    def test_one_sample_rejects_complete_sample(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample)
        out = tmp_path / "result.csv"
        code = run(
            "test", "--sample", str(sample), "--null", "er", "--p", "0.5",
            "--replications", "200", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "W = 22.5" in stdout
        assert "reject H0 at alpha=0.05: yes" in stdout
        header, row = out.read_text().splitlines()[-2:]
        assert header == "method,w,critical_value,p_value,reject,alpha,replications,seed"
        cells = row.split(",")
        assert cells[0] == "one_sample_mc"
        assert cells[1] == "22.5"
        assert cells[4] == "true"
        assert cells[7] == "4"

    def test_two_sample_of_identical_files(self, tmp_path, capsys):
        g = Graph.from_edges(5, [(0, 1), (2, 4)])
        sample = tmp_path / "s.txt"
        write_graph_sample(sample, GraphSample([g] * 8))
        code = run(
            "test", "--sample", str(sample), "--sample2", str(sample),
            "--permutations", "150", "--seed", "9",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "W = 0" in stdout
        assert "p-value = 1" in stdout
        assert "no" in stdout

    def test_one_sample_requires_null_model(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=4, n=3)
        assert run("test", "--sample", str(sample), "--seed", "1") == 2
        assert "--null" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--p0", "--q"])
    def test_modified_er_flags_are_usage_errors(self, tmp_path, flag, capsys):
        # --null offers no modified-er, the only model that reads them.
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=4, n=3)
        with pytest.raises(SystemExit) as exc:
            run("test", "--sample", str(sample), "--null", "er", "--p", "0.5",
                flag, "0.3", "--seed", "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(
            "test", "--sample", str(tmp_path / "absent.txt"),
            "--null", "er", "--p", "0.5", "--seed", "1",
        )
        assert code == 3

    def test_corrupt_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("graphsample v=3 n=1 base=0\n0 7 9\n")
        code = run(
            "test", "--sample", str(bad), "--null", "er", "--p", "0.5",
            "--seed", "1",
        )
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_sample_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"graphsample v=3 n=1 base=0\n0 0 1\n0 \xff 2\n")
        code = run(
            "test", "--sample", str(bad), "--null", "er", "--p", "0.5",
            "--seed", "1",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 3: not UTF-8 text: invalid start byte\n"

    def test_unenumerable_null_is_refused(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=8, n=4)
        code = run(
            "test", "--sample", str(sample), "--null", "ergm",
            "--stats", "edge-triangle", "--theta1", "0.0", "--theta2", "0.0",
            "--replications", "100", "--seed", "1",
        )
        assert code == 4
        assert "marginals" in capsys.readouterr().err

    def test_ergm_null_csv_does_not_depend_on_vertex_labels(self, tmp_path):
        """A sample and its vertex-relabelled copy give the same CSV bytes.

        ``test_statistic.py::test_relabel_equivariance`` moves the marginals
        along with the labels, so it cannot see a null whose pairs have
        unequal marginals; this test can.
        """
        sample, relabelled = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(
            "sample", "--model", "er", "--v", "6", "--p", "0.5", "--n", "20",
            "--seed", "1", "--out", str(sample),
        ) == 0
        perm = [5, 3, 0, 4, 1, 2]
        write_graph_sample(
            relabelled,
            GraphSample(g.relabel(perm) for g in read_graph_sample(sample)),
        )
        outs = []
        for path in (sample, relabelled):
            out = tmp_path / f"{path.stem}.csv"
            assert run(
                "test", "--sample", str(path), "--null", "ergm",
                "--stats", "edge-triangle", "--theta1", "0", "--theta2=-0.1",
                "--replications", "100", "--seed", "7", "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_overflowing_ergm_null_is_usage_error(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=4, n=4)
        code = run(
            "test", "--sample", str(sample), "--null", "ergm",
            "--stats", "edge-triangle", "--theta1", "1e308", "--theta2=-1e308",
            "--replications", "100", "--seed", "1",
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_ergm_null_prints_no_numpy_warning(self, tmp_path):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=4, n=4)
        src = str(Path(graphtest.__file__).resolve().parents[1])
        argv = ["test", "--sample", str(sample), "--null", "ergm",
                "--stats", "edge-triangle", "--theta1", "1e308", "--theta2=-1e308",
                "--replications", "100", "--seed", "1"]
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); "
             f"from graphtest.cli import main; sys.exit(main({argv!r}))"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "RuntimeWarning" not in out.stderr
        assert "theta" in out.stderr

    def test_cpu_count_does_not_change_the_csv(self, tmp_path, cpus):
        # v=40 has E=780 pairs, so a block holds 65536 // 780 = 84 replicates
        # and 300 replicates take four blocks.
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=40, n=10)
        outs = []
        for count, name in ((1, "a.csv"), (3, "b.csv")):
            cpus(count)
            out = tmp_path / name
            assert run(
                "test", "--sample", str(sample), "--null", "er", "--p", "0.5",
                "--replications", "300", "--seed", "21", "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

class TestPowerCommand:
    def test_curve_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = run(
            "power", "--v", "5", "--n", "10", "--alt", "er",
            "--sweep", "0.5,0.8", "--replications", "100",
            "--quantile-replications", "100", "--seed", "2",
            "--baseline", "bonferroni", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,power_w,power_bc,replications"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert 0.0 <= float(first[1]) <= 1.0
        assert first[3] == "100"
        assert "power_bc" in capsys.readouterr().out

    def test_baseline_column_empty_without_baseline(self, tmp_path):
        out = tmp_path / "power.csv"
        assert run(
            "power", "--v", "4", "--n", "8", "--alt", "er",
            "--sweep", "0.5", "--replications", "100",
            "--quantile-replications", "100", "--seed", "2", "--out", str(out),
        ) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == ""

    def test_modified_er_requires_q(self, capsys):
        code = run(
            "power", "--v", "5", "--n", "10", "--alt", "modified-er",
            "--sweep", "0.7", "--replications", "100",
            "--quantile-replications", "100", "--seed", "2",
        )
        assert code == 2
        assert "--q" in capsys.readouterr().err

    @pytest.mark.parametrize("R_quantile", ["5", "0", "-3"])
    def test_too_few_quantile_replications_is_usage_error(self, R_quantile, capsys):
        code = run(
            "power", "--v", "5", "--n", "10", "--alt", "er",
            "--sweep", "0.5,0.7", "--replications", "100",
            f"--quantile-replications={R_quantile}", "--seed", "2",
        )
        assert code == 2
        assert "at least 100 replications" in capsys.readouterr().err

    def test_cpu_count_does_not_change_the_curve(self, tmp_path, cpus):
        base = [
            "power", "--v", "5", "--n", "10", "--alt", "modified-er",
            "--q", "0.25", "--sweep", "0.6,0.9", "--replications", "120",
            "--quantile-replications", "150", "--seed", "33",
        ]
        results = []
        for count, name in ((1, "a.csv"), (3, "b.csv")):
            cpus(count)
            out = tmp_path / name
            assert run(*base, "--out", str(out)) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1]

    def test_two_star_alternatives_on_two_vertices(self, tmp_path):
        out = tmp_path / "power.csv"
        assert run(
            "power", "--v", "2", "--n", "5", "--alt", "ergm", "--stats", "edge-2-star",
            "--theta1", "0.5", "--sweep", "0,0.3", "--replications", "100",
            "--quantile-replications", "100", "--seed", "4", "--out", str(out),
        ) == 0
        assert len(out.read_text().splitlines()) == 3


class TestDensitySweepCommand:
    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = run(
            "density-sweep", "--v", "4", "--stats", "edge-triangle",
            "--theta1", "-1.0", "--sweep", "0.0,0.2", "--draws", "150",
            "--burn-in", "50", "--thinning", "1", "--seed", "6",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1,theta2,density,draws"
        assert len(lines) == 3
        for row in lines[1:]:
            cells = row.split(",")
            assert float(cells[0]) == -1.0
            assert 0.0 <= float(cells[2]) <= 1.0
            assert cells[3] == "150"
        assert "theta2" in capsys.readouterr().out

    def test_negative_grid_via_attached_form(self, tmp_path):
        # A grid starting with a minus must be attached with "=", or argparse
        # reads it as an unknown option.
        out = tmp_path / "density.csv"
        code = run(
            "density-sweep", "--v", "4", "--stats", "edge-triangle",
            "--theta1", "0.0", "--sweep=-0.3,0.1", "--draws", "120",
            "--burn-in", "50", "--thinning", "1", "--seed", "6",
            "--out", str(out),
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [-0.3, 0.1]


class TestBuildGraphsCommand:
    def test_fixture_recording_builds_expected_sample(self, tmp_path, capsys):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        out = tmp_path / "graphs.txt"
        code = run(
            "build-graphs", "--input", str(csv_path),
            "--sampling-rate", "1000", "--width-ms", "5", "--step-ms", "5",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines() == fixture_expected_lines()
        stdout = capsys.readouterr().out
        assert "3 channels, 20 samples -> 4 windows" in stdout

    def test_diagnostics_go_to_stderr_without_out(self, tmp_path, capsys):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        code = run(
            "build-graphs", "--input", str(csv_path),
            "--sampling-rate", "1000", "--width-ms", "5", "--step-ms", "5",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == fixture_expected_lines()
        assert "4 windows" in captured.err

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        blobs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert run(
                "build-graphs", "--input", str(csv_path),
                "--sampling-rate", "1000", "--width-ms", "5", "--step-ms", "5",
                "--out", str(out),
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sampling_rate_is_required(self, tmp_path, capsys):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        with pytest.raises(SystemExit) as exc:
            run("build-graphs", "--input", str(csv_path))
        assert exc.value.code == 2

    @pytest.mark.parametrize("rate", ["0", "-250", "nan", "inf"])
    def test_bad_sampling_rate_is_usage_error(self, tmp_path, rate, capsys):
        # The rate is checked before the (here absent) file is read.
        code = run(
            "build-graphs", "--input", str(tmp_path / "absent.csv"),
            f"--sampling-rate={rate}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sampling_rate must be positive and finite" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("c", ["0", "1.5", "nan"])
    def test_bad_c_is_usage_error(self, tmp_path, c, capsys):
        # c is checked before the (here absent) file is read.
        code = run(
            "build-graphs", "--input", str(tmp_path / "absent.csv"),
            "--sampling-rate=1000", f"--c={c}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "c must lie in (0, 1)" in err
        assert "absent.csv" not in err

    def test_step_shorter_than_one_sample_is_usage_error(self, tmp_path, capsys):
        # At 250 Hz one sample lasts 4 ms; a 2 ms step would repeat windows.
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        args = ("build-graphs", "--input", str(csv_path),
                "--sampling-rate", "250", "--width-ms", "20")
        assert run(*args, "--step-ms", "2") == 2
        assert "the shortest allowed step is 4.0 ms" in capsys.readouterr().err
        assert run(*args, "--step-ms", "4", "--out", str(tmp_path / "g.txt")) == 0
        assert "20 samples -> 16 windows" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--width-ms", "--step-ms"])
    def test_infinite_window_flag_is_usage_error(self, tmp_path, flag, capsys):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        code = run(
            "build-graphs", "--input", str(csv_path),
            "--sampling-rate", "1000", flag, "inf",
        )
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_non_utf8_recording_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,2\n\xff,3\n")
        code = run("build-graphs", "--input", str(bad), "--sampling-rate", "1000")
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 3: not UTF-8 text: invalid start byte\n"

    def test_window_longer_than_recording(self, tmp_path, capsys):
        csv_path = tmp_path / "channels.csv"
        write_fixture_csv(csv_path)
        code = run(
            "build-graphs", "--input", str(csv_path),
            "--sampling-rate", "1000", "--width-ms", "50", "--step-ms", "5",
        )
        assert code == 3


class TestSummaryCommand:
    def test_top_edges_csv(self, tmp_path, capsys):
        sample_path = tmp_path / "s.txt"
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        h = Graph.from_edges(4, [(0, 1)])
        write_graph_sample(sample_path, GraphSample([g, g, h, h]))
        code = run("summary", "--sample", str(sample_path), "--k", "2")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,frequency"
        assert lines[1] == "0,1,1.0"
        assert lines[2] == "1,2,0.5"

    def test_base_applies_to_vertex_labels(self, tmp_path, capsys):
        sample_path = tmp_path / "s.txt"
        write_graph_sample(sample_path, GraphSample([Graph.from_edges(3, [(0, 2)])]))
        assert run("summary", "--sample", str(sample_path), "--k", "1",
                   "--base", "1") == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,3,1.0"

    def test_oversized_k_is_usage_error(self, tmp_path, capsys):
        sample_path = tmp_path / "s.txt"
        write_graph_sample(sample_path, GraphSample([Graph.empty(3)]))
        assert run("summary", "--sample", str(sample_path), "--k", "4") == 2

    # Every header asks for more than 2^50 cells, so the allocation fails at once.
    @pytest.mark.parametrize("header", [
        "graphsample v=10 n=10000000000000000 base=0",
        "graphsample v=10 n=100000000000000000000 base=0",
        "graphsample v=3000000000 n=1 base=0",
    ])
    def test_unallocatable_header_is_data_error(self, tmp_path, capsys, header):
        sample_path = tmp_path / "s.txt"
        sample_path.write_text(f"# comment\n{header}\n0 0 1\n")
        assert run("summary", "--sample", str(sample_path), "--k", "1") == 3
        err = capsys.readouterr().err
        assert "line 2: " in err and "does not fit in memory" in err
        assert "Traceback" not in err


# Every subcommand at tiny sizes, with its output style: data commands print
# their data when there is no --out, report commands always print a report.
DRIVER_CASES = {
    "sample": (["--model", "er", "--v", "4", "--n", "3", "--p", "0.5"], True),
    "test": (["--sample", "{sample}", "--null", "er", "--p", "0.5",
              "--replications", "100"], False),
    "power": (["--v", "4", "--n", "5", "--alt", "er", "--sweep", "0.5,0.9",
               "--replications", "100", "--quantile-replications", "100"], False),
    "density-sweep": (["--v", "4", "--stats", "edge-triangle", "--theta1", "-1.0",
                       "--sweep", "0.0,0.2", "--draws", "10", "--burn-in", "5",
                       "--thinning", "1"], False),
    "build-graphs": (["--input", "{channels}", "--sampling-rate", "1000",
                      "--width-ms", "5", "--step-ms", "5"], True),
    "summary": (["--sample", "{sample}", "--k", "3"], True),
}


def driver_argv(command, tmp_path):
    """The argv of a DRIVER_CASES run, with its fixture files written."""
    flags, _ = DRIVER_CASES[command]
    write_fixture_csv(tmp_path / "channels.csv")
    write_complete_sample(tmp_path / "sample.txt", v=4, n=3)
    argv = [command] + [
        f.format(sample=tmp_path / "sample.txt", channels=tmp_path / "channels.csv")
        for f in flags
    ]
    if command not in ("build-graphs", "summary"):
        argv += ["--seed", "7"]
    return argv


@pytest.mark.parametrize("command", sorted(DRIVER_CASES))
def test_driver_routes_output_and_writes_the_manifest(command, tmp_path, capsys):
    _, prints_data = DRIVER_CASES[command]
    argv = driver_argv(command, tmp_path)
    seeded = "--seed" in argv

    assert run(*argv) == 0
    stdout = capsys.readouterr().out
    plain, commented = tmp_path / "plain.out", tmp_path / "commented.out"
    assert run(*argv, "--out", str(plain)) == 0
    announced = capsys.readouterr().out
    manifest = tmp_path / "run.json"
    assert run(*argv, "--out", str(commented), "--manifest", str(manifest)) == 0

    if prints_data:
        assert stdout == plain.read_text()
        assert announced.startswith("wrote ") and f" to {plain}\n" in announced
    else:
        assert stdout == announced
    first, rest = commented.read_bytes().split(b"\n", 1)
    assert first == b"# manifest: run.json"
    assert rest == plain.read_bytes()

    data = json.loads(manifest.read_text())
    assert data["command"] == command
    assert data["seed"] == (7 if seeded else None)
    assert data["outputs"] == [commented.name]
    assert data["parameters"]["seed"] == data["seed"]
    assert data["parameters"]["out"] == str(commented)
    assert "func" not in data["parameters"]


# With --manifest and no --out, data printed to stdout starts with the
# manifest comment, like an --out file; a printed report carries none.
@pytest.mark.parametrize("command", sorted(DRIVER_CASES))
def test_driver_prints_the_manifest_comment_before_stdout_data(
    command, tmp_path, capsys
):
    _, prints_data = DRIVER_CASES[command]
    argv = driver_argv(command, tmp_path)
    assert run(*argv) == 0
    stdout = capsys.readouterr().out
    assert run(*argv, "--manifest", str(tmp_path / "run.json")) == 0
    printed = capsys.readouterr().out

    if prints_data:
        assert printed == "# manifest: run.json\n" + stdout
    else:
        assert printed == stdout
        assert "# manifest" not in printed
    assert json.loads((tmp_path / "run.json").read_text())["outputs"] == []


# A data command and a report command, each with --out or --manifest in a
# missing directory: the run stops as opening that file would, before any work.
@pytest.mark.parametrize("flag", ["--out", "--manifest"])
@pytest.mark.parametrize("command", ["summary", "power"])
def test_missing_output_directory_fails_before_any_work(
    command, flag, tmp_path, capsys
):
    write_complete_sample(tmp_path / "sample.txt", v=4, n=3)
    paths = {"--out": tmp_path / "o.csv", "--manifest": tmp_path / "run.json"}
    missing = paths[flag] = tmp_path / "missing" / paths[flag].name
    argv = [command] + [f.format(sample=tmp_path / "sample.txt")
                        for f in DRIVER_CASES[command][0]]
    argv += ["--out", str(paths["--out"]), "--manifest", str(paths["--manifest"])]

    assert run(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "sample.txt"]



POWER = "power --v 4 --n 5 --sweep 0.5 --replications 100 --quantile-replications 100"


# Flags that the chosen model, or the mode, never reads; each is refused
# before any work. The sample file does not exist, so a run that read it
# first would exit 3.
@pytest.mark.parametrize("command", [
    "sample --model er --v 3 --n 1 --p 0.5 --p0 0.3 --q 0.9",
    "sample --model ergm --v 3 --n 1 --stats edge-triangle --theta1 1 --theta2 0 --p 0.5",
    "sample --model er --v 3 --n 1 --p 0.5 --burn-in 7 --thinning 3",
    "sample --model modified-er --v 4 --n 2 --p0 0.2 --p 0.5 --q 0.5 --thinning 3",
    POWER + " --alt er --q 0.5 --stats edge-triangle --theta1 1",
    POWER + " --alt modified-er --q 0.5 --theta1 1",
    POWER + " --alt ergm --stats edge-triangle --theta1 1 --q 0.5",
    POWER + " --alt er --burn-in 7",
    "test --sample {sample} --null er --p 0.5 --theta2 0",
    "test --sample {sample} --null er --p 0.5 --replications 100 --permutations 7 "
    "--strict-ties --smoothing",
    "test --sample {sample} --sample2 {sample} --null ergm",
    "test --sample {sample} --sample2 {sample} --p 0.5",
    "test --sample {sample} --sample2 {sample} --permutations 100 --replications 5",
])
def test_flags_the_run_never_reads_are_usage_errors(command, tmp_path, capsys):
    sample = tmp_path / "missing.txt"
    out = tmp_path / "out.txt"
    argv = shlex.split(command.format(sample=sample))
    assert run(*argv, "--seed", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# Flags the run reads and has no default for, where argparse requires none.
@pytest.mark.parametrize("command, flags", [
    ("density-sweep --v 4 --stats edge-triangle --sweep 0.1", "--theta1"),
    ("test --sample {sample} --null ergm --theta1 0", "--stats, --theta2"),
])
def test_flags_the_run_requires_are_usage_errors(command, flags, tmp_path, capsys):
    argv = shlex.split(command.format(sample=tmp_path / "missing.txt"))
    assert run(*argv, "--seed", "1") == 2
    assert capsys.readouterr().err.endswith(f" requires {flags}\n")


def test_manifest_records_the_flags_a_run_does_not_read_as_null(tmp_path):
    sample, manifest = tmp_path / "s.txt", tmp_path / "run.json"
    write_complete_sample(sample, v=4, n=3)
    assert run(
        "test", "--sample", str(sample), "--null", "er", "--p", "0.5",
        "--seed", "1", "--manifest", str(manifest),
    ) == 0
    params = json.loads(manifest.read_text())["parameters"]
    unread = ("permutations", "strict_ties", "smoothing", "burn_in", "thinning")
    assert {name: params[name] for name in unread} == dict.fromkeys(unread)
    assert params["replications"] == 10000
    assert "threads" not in params


def readme_commands() -> list[list[str]]:
    """Arguments of every ``graphtest`` command in README's sh blocks."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("graphtest ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 7
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("sample", "--model", "er", "--v", "4", "--n", "3", "--p", "0.5"),
        ("density-sweep", "--v", "4", "--stats", "edge-triangle",
         "--theta1", "0", "--sweep", "0.1", "--draws", "5"),
        ("test", "--sample", "s.txt", "--null", "er", "--p", "0.5"),
        ("test", "--sample", "s.txt", "--sample2", "s.txt"),
        tuple(POWER.split()) + ("--alt", "er"),
    ])
    def test_threads_is_a_usage_error(self, argv, capsys):
        # Monte Carlo work picks its own worker count; no command takes one.
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", "1", "--threads", "2")
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
