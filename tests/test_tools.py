"""The code-line counter in tools/code_lines.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import math


def f(x):
    """One-line docstring."""
    y = "not a docstring"  # trailing comment
    return math.sqrt(x) + len(y)
'''


def test_counts_only_code_lines():
    # import, def, the assignment and the return.
    assert code_lines.code_lines(SOURCE) == 4


def test_prints_each_file_then_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [f"     4 {tmp_path / 'a.py'}", f"     2 {tmp_path / 'b.py'}", "6"]


BENCH_TOOL = TOOL.parent / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", BENCH_TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
       "cpu_count": 2, "machine": "x86_64", "git_revision": "abc"}


def record(workload, seed, digest="d" * 64, size="full", trace=False, wall=1.0,
           **env):
    """A run record as perfbench/run.py writes it, with two iterations of
    commands "a" and "b"."""
    iterations = [
        {"traced": False, "commands": [
            {"label": "a", "ref_s": wall * k, "sha256": f"h{seed}"},
            {"label": "b", "ref_s": 2 * wall * k, "sha256": "same"},
        ]}
        for k in (1, 3)
    ]
    return {
        "workload": workload, "seed": seed, "seconds": 35.0, "trace": trace,
        "size": size, "started_utc": f"2026{seed:04d}", "failed": 0,
        "environment": {**ENV, "sources_sha256": digest, **env},
        "commands": [{"label": "a", "argv": ["x"]}, {"label": "b", "argv": ["y"]}],
        "iterations": iterations,
        "end_to_end": {"wall_s": wall, "setup_s": 0.2},
    }


def write_records(directory, records):
    directory.mkdir(exist_ok=True)
    for k, r in enumerate(records):
        (directory / f"{k:03d}.json").write_text(json.dumps(r))


def test_bench_record_takes_medians_and_quartiles_of_this_digest(tmp_path):
    records = [record(w, s, wall=s) for w in ("w1", "w2") for s in (1, 2, 3, 4, 5)]
    # Ignored: another digest, the smoke size and a traced run.
    records += [record("w1", 9, digest="e" * 64, wall=100), record("w1", 9, size="smoke"),
                record("w1", 9, trace=True)]
    write_records(tmp_path / "records", records)
    selected = bench_record.select(tmp_path / "records", "d" * 64)
    bench = bench_record.summarize(selected, 7, ["w1", "w2"], "d" * 64)
    w1 = bench["workloads"]["w1"]
    assert (bench["pr"], bench["sources_sha256"], w1["runs"]) == (7, "d" * 64, 5)
    assert w1["seeds"] == [1, 2, 3, 4, 5]
    assert w1["end_to_end"]["wall_s"] == {"median": 3, "q1": 2, "q3": 4}
    # A run's command time is the median of its iterations: 2 * wall.
    assert w1["commands"]["a"]["ref_s"] == {"median": 6, "q1": 4, "q3": 8}
    assert w1["commands"]["a"]["sha256"]["2"] == ["h2"]
    assert bench["environment"]["nproc"] == 2


def test_bench_record_refuses_too_few_runs_and_mixed_environments(tmp_path):
    four = [record("w1", s) for s in range(4)]
    with pytest.raises(ValueError, match="w1: 4 full-size untraced runs"):
        bench_record.summarize(four, 1, ["w1"], "d" * 64)
    mixed = [record("w1", s) for s in range(5)] + [record("w1", 5, nproc=4)]
    with pytest.raises(ValueError, match="2 environments"):
        bench_record.summarize(mixed, 1, ["w1"], "d" * 64)
    failed = [record("w1", s) for s in range(5)]
    failed[2]["failed"] = 1
    with pytest.raises(ValueError, match="failed"):
        bench_record.summarize(failed, 1, ["w1"], "d" * 64)


def test_bench_record_cli_refuses_a_tree_without_runs(tmp_path, capsys):
    write_records(tmp_path / "records", [record("ergm", 1)])
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--pr", "1", "--records", str(tmp_path / "records"),
                              "--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_committed_bench_files_parse_and_name_their_digest():
    files = sorted(TOOL.parents[1].glob("BENCH_*.json"))
    for path in files:
        bench = json.loads(path.read_text())
        assert path.name == f"BENCH_{bench['pr']}.json"
        assert len(bench["sources_sha256"]) == 64
        for workload in bench["workloads"].values():
            assert workload["runs"] >= bench_record.MIN_RUNS
            assert {"wall_s", "setup_s", "peak_rss_mb", "test_s"} <= set(workload["end_to_end"])
