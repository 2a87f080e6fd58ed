"""Benchmark workloads: seeded input files and the CLI commands run on them.

Every input file is generated here from the workload seed, before timing
starts; the program receives nothing but those files and the command flags.
Each command carries the check that its output must pass. The checks do not
depend on the program's random streams: they compare statistics with closed
forms computed from the inputs, decisions with the reported numbers, the
Monte Carlo critical value with an exact null, and deterministic outputs with
a reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SIZES = {
    "full": {
        "mc-calibration": {
            "er_small": {"v": 10, "n": 20, "R": 10000},
            "er_big": {"v": 40, "n": 50, "R": 2000},
            "power": {"v": 10, "n": 20, "q": 0.25, "M": 2000,
                      "sweep": [0.1, 0.3, 0.5, 0.7, 0.9]},
        },
        "ergm": {
            "sample": {"v": 10, "n": 200},
            "power": {"v": 10, "n": 20, "M": 100, "R_quantile": 2000,
                      "sweep": [-0.2, 0.2]},
            "density": {"v": 8, "draws": 500, "sweep": [-0.1, 0.0, 0.1]},
            "test": {"v": 6, "n": 20, "R": 200},
        },
        "recording": {
            "channels": 24, "samples": 7500, "rate": 250, "k": 30,
            "permutations": 1000,
        },
    },
    "smoke": {
        "mc-calibration": {
            "er_small": {"v": 10, "n": 20, "R": 1000},
            "er_big": {"v": 40, "n": 50, "R": 100},
            "power": {"v": 10, "n": 20, "q": 0.25, "M": 100,
                      "sweep": [0.1, 0.5, 0.9], "R_quantile": 1000},
        },
        "ergm": {
            "sample": {"v": 10, "n": 5},
            "power": {"v": 6, "n": 5, "M": 100, "R_quantile": 100,
                      "sweep": [-0.2, 0.2], "burn_in": 20, "thinning": 1},
            "density": {"v": 6, "draws": 20, "sweep": [-0.1, 0.0, 0.1]},
            "test": {"v": 5, "n": 5, "R": 100, "burn_in": 20, "thinning": 1},
        },
        "recording": {
            "channels": 6, "samples": 1000, "rate": 250, "k": 5,
            "permutations": 100,
        },
    },
}

WORKLOADS = tuple(SIZES["full"])

# ERGM parameters. They keep every chain away from the near-empty and
# near-complete graphs, so no run prints a degeneracy warning.
ERGM_SAMPLE_THETA = (-1.0, 0.2)
ERGM_POWER_THETA1 = 0.0
ERGM_DENSITY_THETA1 = -0.5
ERGM_TEST_THETA = (0.0, -0.1)
# Seed of the recordings' channel mixing, which does not follow the workload seed.
MIXING_SEED = 20150424


@dataclass
class Command:
    """One CLI invocation, the output file it writes and the check it must pass.

    ``kind`` groups commands for the per-command timings: one_sample_test,
    permutation_test, power, density, build_graphs, summary or sample.
    ``units`` is the work the per-command metric divides by: sweep points
    for power and density, windows for build_graphs.
    """

    label: str
    kind: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]
    units: int = 1
    params: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """Commands of one workload with the inputs written for them."""

    commands: list[Command]
    inputs: dict[str, int]


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def write_graph_sample(path: Path, v: int, rows: np.ndarray) -> None:
    """Write an (n x E) 0/1 indicator matrix in the graph-sample text format."""
    pairs = checks.pairs(v)
    lines = [f"graphsample v={v} n={rows.shape[0]} base=0"]
    for g, a in zip(*np.nonzero(rows)):
        i, j = pairs[a]
        lines.append(f"{g} {i} {j}")
    path.write_text("\n".join(lines) + "\n")


def _er_rows(rng: np.random.Generator, v: int, n: int, p: float) -> np.ndarray:
    return rng.random((n, v * (v - 1) // 2)) < p


def write_recording(
    path: Path, rng: np.random.Generator, mixing: np.ndarray, samples: int
) -> None:
    """Channel CSV of mixed AR(1) latent factors plus white noise.

    The factors are smooth at the sampling rate, so short windows see strong,
    changing rank correlations between channels that load on one factor.
    """
    channels, factors = mixing.shape
    phi = 0.97
    shocks = rng.standard_normal((samples, factors)) * np.sqrt(1 - phi * phi)
    latent = np.empty((samples, factors))
    latent[0] = rng.standard_normal(factors)
    for t in range(1, samples):
        latent[t] = phi * latent[t - 1] + shocks[t]
    values = latent @ mixing.T + 0.6 * rng.standard_normal((samples, channels))
    header = ",".join(f"ch{c:02d}" for c in range(channels))
    np.savetxt(path, values, fmt="%.6f", delimiter=",", header=header, comments="")


def _test_argv(sample: Path, out: Path, seed: int, *flags: str) -> list[str]:
    return ["test", "--sample", str(sample), *flags, "--seed", str(seed),
            "--out", str(out)]


def _mc_calibration(sz: dict, rng, inputs: Path, outputs: Path) -> list[Command]:
    seeds = _seeds(rng, 3)
    small, big, pw = sz["er_small"], sz["er_big"], sz["power"]
    s1 = inputs / "er_v10.txt"
    rows1 = _er_rows(rng, small["v"], small["n"], 0.5)
    write_graph_sample(s1, small["v"], rows1)
    s2 = inputs / "er_v40.txt"
    rows2 = _er_rows(rng, big["v"], big["n"], 0.3)
    write_graph_sample(s2, big["v"], rows2)
    exact_null = checks.ExactNull(
        small["n"], small["v"] * (small["v"] - 1) // 2, checks.ALPHA, small["R"]
    )
    sweep = ",".join(repr(p) for p in pw["sweep"])
    power_flags = []
    if "R_quantile" in pw:
        power_flags = ["--quantile-replications", str(pw["R_quantile"])]
    return [
        Command(
            "test-er-v10", "one_sample_test",
            _test_argv(s1, outputs / "test_v10.csv", seeds[0], "--null", "er",
                       "--p", "0.5", "--replications", str(small["R"])),
            outputs / "test_v10.csv",
            checks.one_sample_check(rows1, [0.5], small["R"], seeds[0],
                                    exact_null=exact_null),
            params=small,
        ),
        Command(
            "test-er-v40", "one_sample_test",
            _test_argv(s2, outputs / "test_v40.csv", seeds[1], "--null", "er",
                       "--p", "0.3", "--replications", str(big["R"])),
            outputs / "test_v40.csv",
            checks.one_sample_check(rows2, [0.3, "3/10"], big["R"], seeds[1]),
            params=big,
        ),
        Command(
            "power-modified-er", "power",
            ["power", "--v", str(pw["v"]), "--n", str(pw["n"]),
             "--alt", "modified-er", "--q", str(pw["q"]), "--sweep", sweep,
             "--replications", str(pw["M"]), *power_flags,
             "--baseline", "bonferroni", "--seed", str(seeds[2]),
             "--out", str(outputs / "power.csv")],
            outputs / "power.csv",
            checks.power_check(pw["sweep"], pw["M"], baseline=True, null_point=0.5),
            units=len(pw["sweep"]),
            params=pw,
        ),
    ]


def _ergm_flags(theta: tuple[float, float]) -> list[str]:
    return ["--theta1", repr(theta[0]), "--theta2", repr(theta[1])]


def _schedule_flags(sz: dict) -> list[str]:
    if "burn_in" not in sz:
        return []
    return ["--burn-in", str(sz["burn_in"]), "--thinning", str(sz["thinning"])]


def _ergm(sz: dict, rng, inputs: Path, outputs: Path) -> list[Command]:
    seeds = _seeds(rng, 4)
    smp, pw, dn, ts = sz["sample"], sz["power"], sz["density"], sz["test"]
    test_sample = inputs / "ergm_null_v6.txt"
    rows = _er_rows(rng, ts["v"], ts["n"], 0.5)
    write_graph_sample(test_sample, ts["v"], rows)
    marginals = checks.ergm_triangle_marginals(ts["v"], ERGM_TEST_THETA)
    power_sweep = ",".join(repr(t) for t in pw["sweep"])
    density_sweep = ",".join(repr(t) for t in dn["sweep"])
    return [
        Command(
            "sample-ergm", "sample",
            ["sample", "--model", "ergm", "--v", str(smp["v"]), "--n", str(smp["n"]),
             "--stats", "edge-triangle", *_ergm_flags(ERGM_SAMPLE_THETA),
             "--seed", str(seeds[0]), "--out", str(outputs / "ergm_sample.txt")],
            outputs / "ergm_sample.txt",
            checks.graph_sample_check(smp["v"], smp["n"]),
            params=smp,
        ),
        Command(
            "power-ergm", "power",
            ["power", "--v", str(pw["v"]), "--n", str(pw["n"]), "--alt", "ergm",
             "--stats", "edge-triangle", "--theta1", repr(ERGM_POWER_THETA1),
             f"--sweep={power_sweep}", "--replications", str(pw["M"]),
             "--quantile-replications", str(pw["R_quantile"]), *_schedule_flags(pw),
             "--seed", str(seeds[1]), "--out", str(outputs / "power.csv")],
            outputs / "power.csv",
            checks.power_check(pw["sweep"], pw["M"], baseline=False, null_point=None),
            units=len(pw["sweep"]),
            params=pw,
        ),
        Command(
            "density-sweep", "density",
            ["density-sweep", "--v", str(dn["v"]), "--stats", "edge-2-star",
             "--theta1", repr(ERGM_DENSITY_THETA1), f"--sweep={density_sweep}",
             "--draws", str(dn["draws"]), *_schedule_flags(dn),
             "--seed", str(seeds[2]), "--out", str(outputs / "density.csv")],
            outputs / "density.csv",
            checks.density_check(ERGM_DENSITY_THETA1, dn["sweep"], dn["draws"]),
            units=len(dn["sweep"]),
            params=dn,
        ),
        Command(
            "test-ergm-v6", "one_sample_test",
            _test_argv(test_sample, outputs / "test_ergm.csv", seeds[3],
                       "--null", "ergm", "--stats", "edge-triangle",
                       *_ergm_flags(ERGM_TEST_THETA), *_schedule_flags(ts),
                       "--replications", str(ts["R"])),
            outputs / "test_ergm.csv",
            checks.one_sample_check(rows, [marginals], ts["R"], seeds[3]),
            params=ts,
        ),
    ]


def _recording(sz: dict, rng, inputs: Path, outputs: Path) -> list[Command]:
    seed = _seeds(rng, 1)[0]
    channels, samples, rate = sz["channels"], sz["samples"], sz["rate"]
    factors = 3
    # The mixing is the same for every seed, so the number of edges, and with
    # it the work, varies less with the seed; the seed draws the signals.
    fixed = np.random.default_rng(MIXING_SEED)
    rest_mixing = fixed.standard_normal((channels, factors))
    # The task condition moves a third of the channels onto other factors.
    task_mixing = rest_mixing.copy()
    moved = fixed.choice(channels, size=channels // 3, replace=False)
    task_mixing[moved] = fixed.standard_normal((len(moved), factors))
    graphs = {}
    for name, mixing in (("rest", rest_mixing), ("task", task_mixing)):
        csv_path = inputs / f"{name}.csv"
        write_recording(csv_path, rng, mixing, samples)
        graphs[name] = checks.ReferenceGraphs.from_csv(csv_path, rate)
    commands = [
        Command(
            f"build-graphs-{name}", "build_graphs",
            ["build-graphs", "--input", str(inputs / f"{name}.csv"),
             "--sampling-rate", repr(float(rate)),
             "--out", str(outputs / f"{name}_graphs.txt")],
            outputs / f"{name}_graphs.txt",
            checks.exact_text_check(ref.graph_text),
            units=ref.n_windows,
            params={"channels": channels, "samples": samples, "rate": rate},
        )
        for name, ref in graphs.items()
    ]
    rest, task = graphs["rest"], graphs["task"]
    commands.append(
        Command(
            "summary-rest", "summary",
            ["summary", "--sample", str(outputs / "rest_graphs.txt"),
             "--k", str(sz["k"]), "--out", str(outputs / "summary.csv")],
            outputs / "summary.csv",
            checks.exact_text_check(rest.summary_text(sz["k"])),
            params={"k": sz["k"]},
        )
    )
    commands.append(
        Command(
            "test-permutation", "permutation_test",
            _test_argv(outputs / "rest_graphs.txt", outputs / "test_perm.csv", seed,
                       "--sample2", str(outputs / "task_graphs.txt"),
                       "--permutations", str(sz["permutations"])),
            outputs / "test_perm.csv",
            checks.two_sample_check(rest.counts, rest.n_windows, task.counts,
                                    task.n_windows, sz["permutations"], seed),
            params={"R": sz["permutations"], "n": rest.n_windows,
                    "m": task.n_windows},
        )
    )
    return commands


_BUILDERS = {
    "mc-calibration": _mc_calibration,
    "ergm": _ergm,
    "recording": _recording,
}


def prepare(workload: str, seed: int, workdir: Path, size: str = "full") -> Prepared:
    """Write the workload's inputs for ``seed`` under ``workdir``; list its commands."""
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    commands = _BUILDERS[workload](SIZES[size][workload], rng, inputs, outputs)
    files = {p.name: p.stat().st_size for p in sorted(inputs.iterdir())}
    return Prepared(commands, files)
