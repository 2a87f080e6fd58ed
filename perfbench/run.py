"""graphtest benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-calibration --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --smoke

One run writes the workload's inputs from ``--seed``, then runs the
workload's commands again and again, each time in a fresh worker process,
until ``--seconds`` have passed (at least three times untraced, or twice
with ``--trace 1``, where untraced and traced iterations alternate). Every
output is checked, and its hash is compared with every earlier iteration
and with earlier runs of the same sources and seed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Each run also writes a record of what
it ran and measured under ``.perfbench-work/records``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 165
MIN_SETUP_SAMPLES = 5
# Every reported time is in reference seconds: measured seconds times
# REFERENCE_PROBE_S over the median time of the probes (probe.py) taken
# while they were measured, in a window of at least PROBE_WINDOW_S around
# them. On a shared machine the speed of a core drifts with what runs
# beside it; the probes follow that drift and the program's times drift
# with it.
REFERENCE_PROBE_S = 0.0012
PROBE_WINDOW_S = 0.5
TEST_KINDS = ("one_sample_test", "permutation_test")
# Share of the traced wall time that spans below cli.main should cover. At
# smoke sizes the CLI's own work weighs more, so falling short is reported,
# not failed.
MIN_ATTRIBUTED = 0.9


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sources_digest() -> str:
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "sources_sha256": _sources_digest(),
    }


def _probe_speed(probes: list[list[float]], start: float, end: float) -> float:
    """Median probe time around the span [start, end] of the monotonic clock."""
    pad = max(0.0, PROBE_WINDOW_S - (end - start)) / 2
    inside = [s for t, s in probes if start - pad <= t <= end + pad]
    return statistics.median(inside or [s for _, s in probes])


def _timed(start: float, end: float, probes: list[list[float]]) -> dict:
    speed = _probe_speed(probes, start, end)
    return {"wall_s": end - start, "probe_s": speed,
            "ref_s": (end - start) * REFERENCE_PROBE_S / speed}


def _spawn(plan: dict, work: Path, tag: str) -> tuple[dict | None, str]:
    """Run one worker next to a prober; return its timed result or the failure text."""
    plan_path = work / f"plan-{tag}.json"
    result_path = work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    result_path.unlink(missing_ok=True)
    prober = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        prober.stdout.readline()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    finally:
        try:
            probes = json.loads(prober.communicate(timeout=30)[0])
        except (subprocess.TimeoutExpired, ValueError):
            prober.kill()
            prober.wait()
            probes = None
    if not probes:
        return None, "the prober returned no probes"
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(result_path.read_text())
    src = str(ROOT / "src")
    if not result["graphtest_file"].startswith(src):
        return None, f"graphtest imported from {result['graphtest_file']}, not {src}"
    result["setup"] = _timed(start, result["ready"], probes)
    for c in result["commands"]:
        c.update(_timed(c["start"], c["end"], probes))
    return result, ""


class HashLedger:
    """Output hashes of the same sources, workload, size and seed across runs."""

    def __init__(self, workload: str, size: str, seed: int, digest: str):
        self.path = WORK / "hashes" / f"{workload}-{size}-seed{seed}-{digest[:16]}.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.fresh = not self.known

    def check(self, label: str, digest: str) -> list[str]:
        seen = self.known.setdefault(label, digest)
        if seen != digest:
            return [f"output hash {digest[:12]} differs from {seen[:12]}, seen earlier "
                    "for the same sources and seed"]
        return []

    def save(self) -> None:
        if self.fresh and self.known:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            tmp.replace(self.path)


def _iteration(prep, plan: dict, work: Path, tag: str, ledger: HashLedger) -> dict:
    for cmd in prep.commands:
        cmd.out.unlink(missing_ok=True)
    result, failure = _spawn(plan, work, tag)
    commands = []
    for k, cmd in enumerate(prep.commands):
        entry = {"label": cmd.label, "kind": cmd.kind, "units": cmd.units}
        res = result["commands"][k] if result else None
        if res is None:
            errors = [failure]
        elif res["error"]:
            errors = [res["error"], res["stderr"]]
        else:
            try:
                errors = cmd.check(cmd.out)
            except Exception as e:  # a malformed output must fail its check
                errors = [f"check raised {type(e).__name__}: {e}"]
        if cmd.out.is_file():
            entry["sha256"] = hashlib.sha256(cmd.out.read_bytes()).hexdigest()
            errors += ledger.check(cmd.label, entry["sha256"])
        if res:
            entry.update({k: res[k] for k in ("wall_s", "probe_s", "ref_s")})
        entry["errors"] = errors
        commands.append(entry)
    it = {"traced": plan["trace"], "commands": commands, "spans": None}
    if result:
        it.update({
            "setup": result["setup"],
            "peak_rss_mb": result["peak_rss_mb"],
            "wall_s": sum(c["wall_s"] for c in commands),
            "ref_s": sum(c["ref_s"] for c in commands),
            "spans": result["spans"],
        })
    return it


def _kind_time(it: dict, kind) -> tuple[float, int]:
    cmds = [c for c in it["commands"] if c["kind"] in kind]
    return sum(c["ref_s"] for c in cmds), sum(c["units"] for c in cmds)


def end_to_end_metrics(iterations: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": _median([it["ref_s"] for it in iterations]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in iterations]),
        "test_s": _median([_kind_time(it, TEST_KINDS)[0] for it in iterations]),
    }


def command_metrics(iterations: list[dict]) -> dict[str, float]:
    """Wall time of each kind of command, in total or per unit of its work."""

    def per(kind: str, how: str) -> float:
        values = []
        for it in iterations:
            wall, units = _kind_time(it, (kind,))
            if units:
                values.append({"total": wall, "per_unit": wall / units,
                               "rate": units / wall}[how])
        return _median(values)

    return {
        "one_sample_test_s": per("one_sample_test", "total"),
        "permutation_test_s": per("permutation_test", "total"),
        "power_point_s": per("power", "per_unit"),
        "density_point_s": per("density", "per_unit"),
        "windows_per_s": per("build_graphs", "rate"),
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    import spans

    per_iteration = [
        spans.layer_metrics(it["spans"], it["wall_s"],
                            [c["ref_s"] / c["wall_s"] for c in it["commands"]])
        for it in traced
    ]
    metrics = {name: _median([m[name] for m in per_iteration])
               for name in per_iteration[0]}
    metrics["trace.overhead_s"] = (_median([it["ref_s"] for it in traced])
                                   - _median([it["ref_s"] for it in untraced]))
    metrics.update(command_metrics(untraced))
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; writes its record and trace and returns the record."""
    import workloads

    began = time.monotonic()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_id = f"{workload}-{size}-seed{seed}-trace{int(trace)}-{stamp}"
    work = WORK / "runs" / run_id
    environment = _environment()
    ledger = HashLedger(workload, size, seed, environment["sources_sha256"])
    try:
        prep = workloads.prepare(workload, seed, work, size)
        plans = [{"trace": traced, "commands": [c.argv for c in prep.commands]}
                 for traced in (False, True)]
        if size == "full":
            # Untimed: compiles bytecode and warms the file cache for the imports.
            _spawn({"trace": False, "commands": []}, work, "warmup")
        min_iterations = 2 if trace else (3 if size == "full" else 1)
        iterations: list[dict] = []
        start = time.monotonic()
        last = 0.0
        # Stop when one more repetition would end further from the target
        # than stopping now does.
        while (len(iterations) < min_iterations
               or time.monotonic() - start + last / 2 < seconds):
            traced = trace and len(iterations) % 2 == 1
            t0 = time.monotonic()
            iterations.append(_iteration(prep, plans[traced], work,
                                         str(len(iterations)), ledger))
            last = time.monotonic() - t0
            if time.monotonic() - began + 2 * last > RUN_BUDGET_S:
                break
        setup = [it["setup"] for it in iterations if "setup" in it]
        while len(setup) < MIN_SETUP_SAMPLES and size == "full":
            extra, _ = _spawn({"trace": False, "commands": []}, work, "setup")
            if not extra:
                break
            setup.append(extra["setup"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger.save()

    attempted = sum(len(it["commands"]) for it in iterations)
    failed = sum(1 for it in iterations for c in it["commands"] if c["errors"])
    measured = [it for it in iterations if "ref_s" in it]
    untraced = [it for it in measured if not it["traced"]]
    traced_its = [it for it in measured if it["traced"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "started_utc": stamp, "environment": environment,
        "inputs": prep.inputs,
        "commands": [{"label": c.label, "kind": c.kind, "params": c.params,
                      "units": c.units,
                      "argv": [a.replace(str(work) + "/", "") for a in c.argv]}
                     for c in prep.commands],
        "setup_s": setup,
        "iterations": [{k: v for k, v in it.items() if k != "spans"}
                       for it in iterations],
        "end_to_end": (end_to_end_metrics(untraced, [s["ref_s"] for s in setup])
                       if untraced else {}),
        "per_layer": (per_layer_metrics(traced_its, untraced)
                      if traced_its and untraced else {}),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    if traced_its and traced_its[-1]["spans"]:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{run_id}.json").write_text(json.dumps(traced_its[-1]["spans"]))
    return record


def _catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(record: dict, trace: bool) -> dict:
    catalog = _catalog()
    group = "per_layer" if trace else "end_to_end"
    values = record[group]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in catalog[group] if m["name"] in values}
    return {"correct": record["failed"] == 0 and len(metrics) == len(catalog[group]),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def list_metrics() -> None:
    catalog = _catalog()
    for group in ("end_to_end", "per_layer"):
        print(f"{group}:")
        for m in catalog[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<36} {m['unit']:<8} {m['better']:<7}{bound}")
    print("workloads:")
    for w in catalog["workloads"]:
        print(f"  {w['name']:<16} {w['why']}")


def smoke(seed: int) -> int:
    """Every workload, check and the traced run at reduced sizes."""
    import workloads

    catalog = _catalog()
    ok = True
    for workload in workloads.WORKLOADS:
        record = run_workload(workload, seed, 0, trace=True, size="smoke")
        problems = [f"{it['traced'] and 'traced' or 'untraced'} {c['label']}: {c['errors']}"
                    for it in record["iterations"] for c in it["commands"] if c["errors"]]
        for group in ("end_to_end", "per_layer"):
            names = {m["name"] for m in catalog[group]}
            if set(record[group]) != names:
                problems.append(f"{group} metrics {sorted(set(record[group]) ^ names)} "
                                "differ from BENCHMARK.json")
        attributed = record["per_layer"].get("trace.attributed_frac", 0.0)
        print(f"{workload}: {record['attempted']} commands, {record['failed']} failed, "
              f"wall {record['end_to_end'].get('wall_s', 0.0):.3f} s, "
              f"traced share {attributed:.3f} (target {MIN_ATTRIBUTED})")
        for p in problems:
            print(f"  FAIL {p}")
        ok = ok and not problems
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and direction")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload, check and the trace at small sizes")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if not (ROOT / "src" / "graphtest" / "cli.py").is_file():
        print(f"error: no graphtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
