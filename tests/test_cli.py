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

    def test_threads_do_not_change_the_csv(self, tmp_path):
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=6, n=10)
        outs = []
        for threads, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            assert run(
                "test", "--sample", str(sample), "--null", "er", "--p", "0.5",
                "--replications", "300", "--seed", "21",
                "--threads", str(threads), "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_threads_do_not_change_the_ergm_null_csv(self, tmp_path):
        # v=6 has E=15 pairs, so a block holds 65536 // 15 = 4369 chains and
        # 2*4369 + 1 replicates take three blocks.
        sample = tmp_path / "s.txt"
        write_complete_sample(sample, v=6, n=3)
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            assert run(
                "test", "--sample", str(sample), "--null", "ergm",
                "--stats", "edge-triangle", "--theta1", "0.1", "--theta2", "-0.2",
                "--burn-in", "1", "--thinning", "1",
                "--replications", str(2 * 4369 + 1), "--seed", "23",
                "--threads", str(threads), "--out", str(out),
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

    def test_threads_do_not_change_the_curve(self, tmp_path):
        base = [
            "power", "--v", "5", "--n", "10", "--alt", "modified-er",
            "--q", "0.25", "--sweep", "0.6,0.9", "--replications", "120",
            "--quantile-replications", "150", "--seed", "33",
        ]
        results = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            assert run(*base, "--threads", str(threads), "--out", str(out)) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1]


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
    ])
    def test_threads_is_a_usage_error_where_no_blocks_are_drawn(self, argv, capsys):
        # Only test and power draw replicate blocks for --threads to spread.
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", "1", "--threads", "2")
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
