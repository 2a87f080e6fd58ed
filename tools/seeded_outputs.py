"""Seeded-output ledger: what a fixed list of CLI commands prints and writes.

Usage: python tools/seeded_outputs.py [OUT]   (default: tests/seeded_outputs.json)

Writes the input files below into a temporary directory, then runs each
command of ``COMMANDS`` there, in order, in-process through
``graphtest.cli.main``: later commands read what earlier ones wrote. For each
command the ledger holds its exit code, the sha256 of its stdout and the
sha256 of its ``--out`` file. No command writes a manifest, whose ``created``
time changes on every run. ``graphtest`` must be importable (installed, or
``PYTHONPATH=src``). ``tests/test_seeded_outputs.py`` runs the same list and
compares it with the committed file, so any change to a seeded output shows
there; rerun this script when a change is meant.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from graphtest import ErdosRenyi, cli, format_graph_sample

LEDGER = Path(__file__).resolve().parents[1] / "tests" / "seeded_outputs.json"

COMMANDS = [
    # The README commands, with the inputs the README leaves to the reader.
    "sample --model er --v 10 --p 0.5 --n 20 --seed 11 --out a.txt",
    "sample --model er --v 10 --p 0.3 --n 20 --seed 12 --out b.txt",
    "sample --model er --v 10 --p 0.5 --n 20 --seed 1 --out sample.txt",
    "test --sample sample.txt --null er --p 0.5 --replications 10000 --seed 2 "
    "--out result.csv",
    "test --sample a.txt --sample2 b.txt --permutations 1000 --seed 3 --out result.csv",
    "power --v 10 --n 20 --alt modified-er --q 0.25 --sweep 0.1,0.3,0.5,0.7,0.9 "
    "--replications 2000 --baseline bonferroni --seed 4 --out power.csv",
    "density-sweep --v 8 --stats edge-triangle --theta1 -1.0 --sweep 0.2,0.4,0.6 "
    "--draws 200 --seed 5 --out density.csv",
    "build-graphs --input channels.csv --sampling-rate 250 --width-ms 333 "
    "--step-ms 16.66 --c 0.5 --out graphs.txt",
    "summary --sample graphs.txt --k 30 --out summary.csv",
    # Every model, data printed to stdout, and one-based labels.
    "sample --model modified-er --v 8 --p0 0.5 --p 0.9 --q 0.25 --n 15 --seed 21",
    "sample --model ergm --v 6 --stats edge-triangle --theta1 -0.5 --theta2 0.3 "
    "--n 10 --seed 22 --base 1",
    "sample --model ergm --v 7 --stats edge-2-star --theta1 -1 --theta2=-0.1 "
    "--burn-in 50 --thinning 3 --n 8 --seed 23 --out two-star.txt",
    # --p 0.3 reads as 3/10; the CSV pins W and the critical value in full.
    "test --sample sample.txt --null er --p 0.3 --replications 2000 --seed 24 "
    "--out p03.csv",
    # At v=40 the binary float 0.3 would print W and the critical value as
    # 42.480000000000004 and 41.980000000000004, so this CSV tells the two
    # readings of --p apart.
    "sample --model er --v 40 --p 0.3 --n 50 --seed 12 --out v40.txt",
    "test --sample v40.txt --null er --p 0.3 --replications 2000 --seed 32 "
    "--out v40.csv",
    # An ERGM null, and permutation tests with both tie rules.
    "sample --model er --v 6 --p 0.5 --n 20 --seed 25 --out ergm-a.txt",
    "test --sample ergm-a.txt --null ergm --stats edge-triangle --theta1 0 "
    "--theta2=-0.1 --replications 200 --seed 7 --out ergm.csv",
    # Exact v=6 ERGM draws over three blocks of at most 4 369 replicates.
    "test --sample ergm-a.txt --null ergm --stats edge-triangle --theta1 0 "
    "--theta2=-0.1 --replications 10000 --seed 37 --out ergm-r10k.csv",
    "test --sample a.txt --sample2 b.txt --permutations 500 --strict-ties "
    "--smoothing --seed 26",
    # Every alternative of power, and the other statistic of density-sweep.
    "power --v 12 --n 10 --alt er --sweep 0.5,0.6 --replications 300 "
    "--quantile-replications 500 --seed 27 --out power-er.csv",
    "power --v 6 --n 10 --alt ergm --stats edge-triangle --theta1 0 --sweep=-0.2,0.2 "
    "--burn-in 50 --thinning 2 --replications 100 --quantile-replications 200 "
    "--seed 28 --out power-ergm.csv",
    # v=6 ERGMs are drawn from the enumerated law; at v=7 both alternatives
    # are coupled from the past.
    "power --v 7 --n 5 --alt ergm --stats edge-triangle --theta1 0 --sweep=-0.2,0.2 "
    "--burn-in 20 --thinning 2 --replications 100 --quantile-replications 200 "
    "--seed 33 --out power-ergm-v7.csv",
    "density-sweep --v 6 --stats edge-2-star --theta1 -0.5 --sweep=-0.1,0.1 "
    "--draws 50 --seed 29 --out density-2star.csv",
    # The ERGM commands of the benchmark's ergm workload at its smoke sizes,
    # with the sample, power and density-sweep shapes of its full size: every
    # draw is coupled from the past, and the schedule flags are accepted
    # and not read.
    *(command.format(seed=seed) for seed in (1, 2, 3) for command in (
        "sample --model ergm --v 10 --n 5 --stats edge-triangle --theta1 -1.0 "
        "--theta2 0.2 --seed {seed} --out ergm-sample-{seed}.txt",
        "power --v 10 --n 5 --alt ergm --stats edge-triangle --theta1 0.0 "
        "--sweep=-0.2,0.2 --replications 100 --quantile-replications 100 "
        "--burn-in 20 --thinning 1 --seed {seed} --out power-ergm-v10-{seed}.csv",
        "density-sweep --v 8 --stats edge-2-star --theta1 -0.5 --sweep=-0.1,0.0,0.1 "
        "--draws 20 --burn-in 20 --thinning 1 --seed {seed} --out density-v8-{seed}.csv",
    )),
    # The same sample as plain, CRLF and comment-interleaved text: the
    # whole-buffer and the line readers.
    "summary --sample g-lf.txt --k 5",
    "summary --sample g-crlf.txt --k 5",
    "summary --sample g-commented.txt --k 5",
    "test --sample g-lf.txt --sample2 b8.txt --permutations 200 --seed 30",
    "test --sample g-crlf.txt --sample2 b8.txt --permutations 200 --seed 30",
    "test --sample g-commented.txt --sample2 b8.txt --permutations 200 --seed 30",
    # Quoted labels send a recording to the row reader.
    "build-graphs --input channels-quoted.csv --sampling-rate 250 --base 1",
    # Binomial tables at the edges of the range: p = 0.97, whose thresholds
    # crowd near 0; means of 50 and 60 at n = 100 (p0 = 0.5, p = 0.6), beside
    # a level of mean 10, in tables of 100 thresholds; and p = 0 and p = 1
    # pairs, whose thresholds are all 1 and all 0, beside p0 = 0.2.
    "test --sample sample.txt --null er --p 0.97 --replications 1000 --seed 34 "
    "--out p097.csv",
    "power --v 8 --n 100 --alt modified-er --q 0.25 --sweep 0.1,0.6 "
    "--replications 200 --quantile-replications 200 --baseline bonferroni "
    "--seed 35 --out power-btpe.csv",
    "power --v 8 --n 20 --alt modified-er --q 0.25 --null-p 0.2 --sweep 0,0.3,1 "
    "--replications 200 --quantile-replications 200 --seed 36 --out power-zero.csv",
    # A recording at four decimals: some windows hold tied values, most do
    # not, and channel c3 is constant for 200 samples.
    "build-graphs --input ties.csv --sampling-rate 250 --out ties-graphs.txt",
    "summary --sample ties-graphs.txt --k 30 --out ties-summary.csv",
    # Permutation tests of null-like samples, whose p-values lie inside
    # (0, 1) and so pin the permutation draw: one block of 40 pooled graphs
    # under all four rules (both tie rules, each with and without
    # smoothing), where v=4 makes ties common, and seven blocks of at most
    # 163 permutations of 400 pooled graphs.
    "sample --model er --v 4 --p 0.5 --n 20 --seed 41 --out null-a.txt",
    "sample --model er --v 4 --p 0.5 --n 20 --seed 42 --out null-b.txt",
    "test --sample null-a.txt --sample2 null-b.txt --permutations 1000 --seed 43 "
    "--out perm-null.csv",
    "test --sample null-a.txt --sample2 null-b.txt --permutations 1000 --strict-ties "
    "--seed 43 --out perm-null-strict.csv",
    "test --sample null-a.txt --sample2 null-b.txt --permutations 1000 --smoothing "
    "--seed 43 --out perm-null-smoothed.csv",
    "test --sample null-a.txt --sample2 null-b.txt --permutations 1000 --strict-ties "
    "--smoothing --seed 43 --out perm-null-strict-smoothed.csv",
    "sample --model er --v 10 --p 0.5 --n 150 --seed 44 --out null-c.txt",
    "sample --model er --v 10 --p 0.5 --n 250 --seed 45 --out null-d.txt",
    "test --sample null-c.txt --sample2 null-d.txt --permutations 1000 --seed 46 "
    "--out perm-blocks.csv",
    "test --sample null-c.txt --sample2 null-d.txt --permutations 1000 --strict-ties "
    "--smoothing --seed 46 --out perm-blocks-strict.csv",
    # The commands of the benchmark's recording workload at its smoke size,
    # on recordings of the same shape (see ``write_inputs``).
    *(command.format(seed=seed) for seed in (1, 2, 3) for command in (
        "build-graphs --input rest-{seed}.csv --sampling-rate 250.0 "
        "--out rest-graphs-{seed}.txt",
        "build-graphs --input task-{seed}.csv --sampling-rate 250.0 "
        "--out task-graphs-{seed}.txt",
        "summary --sample rest-graphs-{seed}.txt --k 5 --out rest-summary-{seed}.csv",
        "test --sample rest-graphs-{seed}.txt --sample2 task-graphs-{seed}.txt "
        "--permutations 100 --seed {seed} --out rest-task-{seed}.csv",
    )),
    # The commands of the benchmark's mc-calibration workload at its smoke
    # size, on ER samples of the same shape (see ``write_inputs``).
    *(command.format(seed=seed) for seed in (1, 2, 3) for command in (
        "test --sample er-v10-{seed}.txt --null er --p 0.5 --replications 1000 "
        "--seed {seed} --out test-v10-{seed}.csv",
        "test --sample er-v40-{seed}.txt --null er --p 0.3 --replications 100 "
        "--seed {seed} --out test-v40-{seed}.csv",
        "power --v 10 --n 20 --alt modified-er --q 0.25 --sweep 0.1,0.5,0.9 "
        "--replications 100 --quantile-replications 1000 --baseline bonferroni "
        "--seed {seed} --out power-mc-{seed}.csv",
    )),
    # A data error (exit 3) and a usage error (exit 2).
    "build-graphs --input bad.csv --sampling-rate 250",
    "summary --sample graphs.txt --k 5 --seed 1",
]


def write_inputs(directory: Path) -> None:
    """The recordings and graph samples that no command in the list writes."""
    values = np.random.default_rng(0).standard_normal((2000, 10))
    header = ",".join(f"c{k}" for k in range(10))
    np.savetxt(directory / "channels.csv", values, delimiter=",", header=header,
               comments="")
    ties = np.round(np.random.default_rng(37).standard_normal((2000, 10)), 4)
    ties[500:700, 3] = 0.25
    np.savetxt(directory / "ties.csv", ties, delimiter=",", header=header,
               comments="")
    text = (directory / "channels.csv").read_text()
    quoted = ",".join(f'"{label}"' for label in header.split(","))
    (directory / "channels-quoted.csv").write_text(text.replace(header, quoted, 1))
    # The row that starts on line 3 has a third cell.
    (directory / "bad.csv").write_text('"a\nb",c\n1,2,3\n')
    rng = np.random.default_rng(31)
    plain = format_graph_sample(ErdosRenyi(8, 0.5).sample(40, rng))
    other = format_graph_sample(ErdosRenyi(8, 0.3).sample(40, rng))
    (directory / "b8.txt").write_text(other)
    files = {
        "g-lf.txt": plain,
        "g-crlf.txt": plain.replace("\n", "\r\n"),
        "g-commented.txt": "".join(f"{line}\n# note\n" for line in plain.splitlines()),
    }
    for name, content in files.items():
        (directory / name).write_bytes(content.encode())
    # Rest and task recordings per seed: 6 channels mix three AR(1) factors
    # plus white noise, and the task condition moves two channels onto
    # other factors.
    fixed = np.random.default_rng(20150424)
    rest = fixed.standard_normal((6, 3))
    task = rest.copy()
    task[fixed.choice(6, size=2, replace=False)] = fixed.standard_normal((2, 3))
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for name, mixing in (("rest", rest), ("task", task)):
            write_recording(directory / f"{name}-{seed}.csv", rng, mixing, 1000)
    # One-sample ER inputs per seed: v=10 at p=1/2 and v=40 at p=3/10.
    for seed in (1, 2, 3):
        rng = np.random.default_rng(100 + seed)
        for name, v, p, n in (("er-v10", 10, 0.5, 20), ("er-v40", 40, 0.3, 50)):
            text = format_graph_sample(ErdosRenyi(v, p).sample(n, rng))
            (directory / f"{name}-{seed}.txt").write_text(text)


def write_recording(
    path: Path, rng: np.random.Generator, mixing: np.ndarray, samples: int
) -> None:
    """Channel CSV of AR(1) factors mixed by ``mixing``, plus white noise."""
    channels, factors = mixing.shape
    phi = 0.97
    shocks = rng.standard_normal((samples, factors)) * np.sqrt(1 - phi * phi)
    latent = np.empty((samples, factors))
    latent[0] = rng.standard_normal(factors)
    for step in range(1, samples):
        latent[step] = phi * latent[step - 1] + shocks[step]
    values = latent @ mixing.T + 0.6 * rng.standard_normal((samples, channels))
    header = ",".join(f"ch{c:02d}" for c in range(channels))
    np.savetxt(path, values, fmt="%.6f", delimiter=",", header=header, comments="")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str) -> dict:
    """Exit code, stdout hash and --out file hash of one command run here."""
    argv = shlex.split(command)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    entry = {"command": command, "exit": code,
             "stdout": _sha256(stdout.getvalue().encode())}
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        entry["out"] = _sha256(out.read_bytes()) if out.exists() else None
    return entry


def ledger(directory) -> list[dict]:
    """Write the inputs into ``directory`` and run every command there."""
    directory = Path(directory)
    write_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run_command(command) for command in COMMANDS]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else LEDGER
    with tempfile.TemporaryDirectory() as tmp:
        out.write_text(json.dumps(ledger(tmp), indent=1) + "\n")
