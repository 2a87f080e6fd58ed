"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_exact_null_rejects_a_shifted_critical_value():
    null = checks.ExactNull(20, 45, 0.05, 10000)
    assert null.lo <= null.quantile <= null.hi
    assert null.check(null.quantile / null.scale) == []
    assert null.check((null.hi + 2) / null.scale)
    assert null.check((null.lo - 2) / null.scale)


def _write_test_csv(path, w, crit, reject, seed=7):
    path.write_text(
        "method,w,critical_value,p_value,reject,alpha,replications,seed\n"
        f"one_sample_mc,{w!r},{crit!r},,{reject},0.05,1000,{seed}\n"
    )


def test_one_sample_check_uses_the_closed_form(tmp_path):
    rows = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
    check = checks.one_sample_check(rows, [0.3, "3/10"], 1000, 7)
    # Counts (2, 1, 1) over n=2 against p=0.3: 0.7 + 0.2 + 0.2.
    out = tmp_path / "t.csv"
    _write_test_csv(out, 1.1, 1.5, "false")
    assert check(out) == []
    _write_test_csv(out, 1.2, 1.5, "false")
    assert any("closed form" in e for e in check(out))
    _write_test_csv(out, 1.1, 1.0, "false")
    assert any("reject" in e for e in check(out))
    _write_test_csv(out, 1.1, 1.5, "false", seed=8)
    assert any("seed" in e for e in check(out))


def test_one_sample_check_reads_tied_floats_by_the_null_lattice(tmp_path):
    rows = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
    out = tmp_path / "t.csv"
    # p = 1/2: W = 0.5 on a lattice floats resolve, so a tie cannot reject.
    coarse = checks.one_sample_check(rows, [0.5], 1000, 7)
    _write_test_csv(out, 0.5, 0.5, "false")
    assert coarse(out) == []
    _write_test_csv(out, 0.5, 0.5, "true")
    assert any("reject" in e for e in coarse(out))
    # The binary float 0.3 has denominator 2**54: equal floats may hide a
    # strict exceedance, so either decision stands.
    fine = checks.one_sample_check(rows, [0.3, "3/10"], 1000, 7)
    _write_test_csv(out, 1.1, 1.1, "true")
    assert fine(out) == []


def test_power_check_bounds_power_at_the_null(tmp_path):
    check = checks.power_check([0.5, 0.9], 2000, baseline=False, null_point=0.5)
    out = tmp_path / "p.csv"
    out.write_text("param,power_w,power_bc,replications\n"
                   "0.5,0.05,,2000\n0.9,1.0,,2000\n")
    assert check(out) == []
    out.write_text("param,power_w,power_bc,replications\n"
                   "0.5,0.2,,2000\n0.9,1.0,,2000\n")
    assert any("at the null" in e for e in check(out))


def test_layer_metrics_take_self_time_from_child_spans():
    import spans

    recorded = [
        ["cli.main", "cli", 0.0, 10.0, -1, None],
        ["inference.one_sample_test", "inference", 1.0, 9.0, 0, {"replicates": 100}],
        ["statistic.one_sample_statistic", "statistic", 2.0, 3.0, 1, None],
        ["cli.main", "cli", 10.0, 11.0, -1, None],
    ]
    m = spans.layer_metrics(recorded, 11.0, [1.0, 2.0])
    assert m["cli.self_s"] == 2.0 + 2.0
    assert m["inference.self_s"] == m["inference.one_sample_self_s"] == 7.0
    assert m["statistic.one_sample_s"] == 1.0
    assert m["inference.null_replicates"] == 100
    assert m["inference.null_replicates_per_s"] == 100 / 8.0
    assert m["trace.attributed_frac"] == 8.0 / 11.0
    assert m["models.mh_s"] == 0.0
