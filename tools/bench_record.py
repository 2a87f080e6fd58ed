"""Write BENCH_<N>.json: the benchmark's numbers for this tree, from its run records.

Usage: python tools/bench_record.py --pr N [--records DIR] [--out PATH]

Every run of ``perfbench/run.py`` leaves a record under
``.perfbench-work/records``, a directory git ignores. This tool keeps the
full-size, untraced records whose ``sources_sha256`` is this tree's digest,
as ``perfbench/run.py`` computes it (``run._sources_digest``), and writes,
per workload, the median and quartiles over the runs of every end-to-end
metric and of every command's ``ref_s``, with the runs' seeds, environment
and output hashes. A record's ``git_revision`` is the checkout's HEAD when
it ran, which is not always the tree it measured, so records are selected by
digest, not by revision. It refuses a workload of BENCHMARK.json with fewer
than MIN_RUNS such runs, runs with a failed operation, and runs from more
than one environment.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _sources_digest  # noqa: E402

MIN_RUNS = 5
# Environment fields that must agree across the runs of one file.
ENVIRONMENT = ("python", "numpy", "scipy", "nproc", "cpu_count", "machine")


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def select(records_dir: Path, digest: str) -> list[dict]:
    """The full-size, untraced records of the sources with this digest."""
    records = [json.loads(path.read_text()) for path in sorted(records_dir.glob("*.json"))]
    return [r for r in records
            if r["size"] == "full" and not r["trace"]
            and r["environment"]["sources_sha256"] == digest]


def summarize(records: list[dict], pr: int, workloads: list[str], digest: str) -> dict:
    """The BENCH file's content; ValueError where the records cannot make one."""
    environments = {json.dumps({k: r["environment"][k] for k in ENVIRONMENT})
                    for r in records}
    if len(environments) > 1:
        raise ValueError(f"records come from {len(environments)} environments: "
                         + "; ".join(sorted(environments)))
    failed = [r["started_utc"] for r in records if r["failed"]]
    if failed:
        raise ValueError(f"runs with failed operations: {', '.join(failed)}")
    out = {"pr": pr, "sources_sha256": digest, "min_runs": MIN_RUNS,
           "environment": json.loads(environments.pop()) if records else {},
           "git_revisions": sorted({r["environment"]["git_revision"] or ""
                                    for r in records}),
           "workloads": {}}
    for workload in workloads:
        runs = sorted((r for r in records if r["workload"] == workload),
                      key=lambda r: (r["seed"], r["started_utc"]))
        if len(runs) < MIN_RUNS:
            raise ValueError(f"{workload}: {len(runs)} full-size untraced runs at "
                             f"digest {digest[:16]}, need {MIN_RUNS}")
        metrics = runs[0]["end_to_end"]
        commands = {}
        for c in runs[0]["commands"]:
            label = c["label"]
            per_run = []
            hashes = {}
            for r in runs:
                entries = [e for it in r["iterations"] for e in it["commands"]
                           if e["label"] == label]
                per_run.append(statistics.median(e["ref_s"] for e in entries))
                hashes[str(r["seed"])] = sorted({e["sha256"] for e in entries})
            commands[label] = {"argv": c["argv"], "ref_s": _spread(per_run),
                               "sha256": hashes}
        out["workloads"][workload] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "end_to_end": {m: _spread([r["end_to_end"][m] for r in runs])
                           for m in metrics},
            "commands": commands,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--records", type=Path, default=ROOT / ".perfbench-work" / "records")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    digest = _sources_digest()
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in catalog["workloads"]]
    try:
        bench = summarize(select(args.records, digest), args.pr, workloads, digest)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
