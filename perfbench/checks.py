"""Output checks that hold whatever random streams the program uses.

A check factory returns ``check(out_path) -> list[str]``, the list of
problems found in one command's output; an empty list means it passed.
Everything a check compares against is computed here from the benchmark's
own input files, never from the program under test.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.stats import binom, rankdata

TOLERANCE = 1e-9
ALPHA = 0.05

# The build-graphs defaults documented in the README.
WIDTH_MS = 333.0
STEP_MS = 16.66
THRESHOLD_C = 0.5


def pairs(v: int) -> list[tuple[int, int]]:
    """Canonical vertex pairs (i, j), i < j, in the graph-sample slot order."""
    return [(i, j) for i in range(v) for j in range(i + 1, v)]


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _test_row(path: Path, method: str, R: int, seed: int) -> tuple[dict, list[str]]:
    """Parse a test CSV and check the fields that echo the flags."""
    header, rows = _csv_rows(path)
    expected = ["method", "w", "critical_value", "p_value", "reject", "alpha",
                "replications", "seed"]
    if header != expected or len(rows) != 1:
        return {}, [f"test CSV has header {header} and {len(rows)} rows"]
    row = dict(zip(header, rows[0]))
    errors = []
    if row["method"] != method:
        errors.append(f"method {row['method']!r}, expected {method!r}")
    if float(row["alpha"]) != ALPHA:
        errors.append(f"alpha {row['alpha']}, expected {ALPHA}")
    if int(row["replications"]) != R:
        errors.append(f"replications {row['replications']}, expected {R}")
    if int(row["seed"]) != seed:
        errors.append(f"seed {row['seed']}, expected {seed}")
    if row["reject"] not in ("true", "false"):
        errors.append(f"reject is {row['reject']!r}")
    return row, errors


class ExactNull:
    """Exact null law of the scaled one-sample statistic under ER(1/2).

    With p = 1/2 the program's scaled statistic n*2*W is the sum of E
    i.i.d. terms |2X - n|, X ~ Bin(n, 1/2). Its law is the E-fold
    convolution of that term's law, computed here in integer arithmetic.
    ``interval`` bounds the order statistic the program reports as its
    critical value: a correct sampler lands outside it with probability
    below 2 * EPS.
    """

    EPS = 1e-6

    def __init__(self, n: int, E: int, alpha: float, R: int):
        term = [0] * (n + 1)
        for x in range(n + 1):
            term[abs(2 * x - n)] += math.comb(n, x)
        pmf = [1]
        for _ in range(E):
            out = [0] * (len(pmf) + n)
            for s, w in enumerate(pmf):
                if w:
                    for t, u in enumerate(term):
                        if u:
                            out[s + t] += w * u
            pmf = out
        total = 2 ** (n * E)
        atoms = [s for s, w in enumerate(pmf) if w]
        cdf, running = [], 0
        for s in atoms:
            running += pmf[s]
            cdf.append(Fraction(running, total))
        self.scale = 2 * n
        # The program takes the order statistic ceil((1 - alpha) * R).
        k = min(max(math.ceil((1 - Fraction(alpha)) * R), 1), R)
        self.quantile = next(s for s, F in zip(atoms, cdf) if F >= 1 - Fraction(alpha))
        # P(X_(k) <= s) = P(Bin(R, F(s)) >= k).
        below = [binom.sf(k - 1, R, float(F)) for F in cdf]
        self.lo = next(s for s, P in zip(atoms, below) if P > self.EPS)
        self.hi = next(s for s, P in zip(atoms, below) if P >= 1 - self.EPS)

    def check(self, critical_value: float) -> list[str]:
        scaled = critical_value * self.scale
        if abs(scaled - round(scaled)) > 1e-6:
            return [f"critical value {critical_value} is not an atom of the null"]
        if not self.lo <= round(scaled) <= self.hi:
            return [
                f"critical value {critical_value} (scaled {round(scaled)}) outside "
                f"the order-statistic interval [{self.lo}, {self.hi}] around the "
                f"exact quantile {self.quantile}"
            ]
        return []


def ergm_triangle_marginals(v: int, theta: tuple[float, float]) -> np.ndarray:
    """Edge marginals of an edge-triangle ERGM by summing over all 2^E graphs."""
    slots = pairs(v)
    E = len(slots)
    codes = np.arange(1 << E, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(E)) & 1).astype(np.int64)
    slot = {p: a for a, p in enumerate(slots)}
    triangles = np.zeros(len(codes), dtype=np.int64)
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(j + 1, v):
                triangles += bits[:, slot[i, j]] * bits[:, slot[j, k]] * bits[:, slot[i, k]]
    log_w = theta[0] * bits.sum(axis=1) + theta[1] * triangles
    w = np.exp(log_w - log_w.max())
    return (w / w.sum()) @ bits


def _one_sample_w(counts: np.ndarray, n: int, p) -> float:
    if isinstance(p, np.ndarray):
        return float(np.abs(counts / n - p).sum())
    prob = Fraction(p)
    return float(sum(abs(Fraction(int(c), n) - prob) for c in counts))


def one_sample_check(rows: np.ndarray, null_options: list, R: int, seed: int,
                     exact_null: ExactNull | None = None):
    """Check a one-sample test against the closed form sum |c/n - p|.

    ``null_options`` lists the accepted readings of the null: a probability
    (float or rational string, so that ``--p 0.3`` may mean the binary float
    or 3/10) or an array of edge marginals.
    """
    n = rows.shape[0]
    counts = rows.sum(axis=0)
    closed_forms = [_one_sample_w(counts, n, p) for p in null_options]
    # W and the critical value are printed as floats of exact rationals on
    # the lattice 1/(n*den), den the null's common denominator. When that
    # lattice is coarser than float resolution, equal floats mean equal
    # values, which must not reject. A fine lattice (the binary float 0.3,
    # ERGM marginals) can hide the difference the exact decision rests on,
    # so equal floats then admit either decision.
    coarse = all(not isinstance(p, np.ndarray)
                 and n * Fraction(p).denominator * len(counts) < 2**50
                 for p in null_options)

    def check(out: Path) -> list[str]:
        row, errors = _test_row(out, "one_sample_mc", R, seed)
        if not row:
            return errors
        w, crit = float(row["w"]), float(row["critical_value"])
        if not any(_close(w, c) for c in closed_forms):
            errors.append(f"W = {w!r}, closed form gives {closed_forms}")
        if row["p_value"]:
            errors.append("one-sample test reported a p-value")
        reject = row["reject"] == "true"
        if (w != crit or coarse) and reject != (w > crit):
            errors.append(f"reject={row['reject']} but W={w!r}, critical={crit!r}")
        if exact_null is not None:
            errors += exact_null.check(crit)
        return errors

    return check


def two_sample_check(a: np.ndarray, n: int, b: np.ndarray, m: int, R: int, seed: int):
    """Check a permutation test against sum |m*a - n*b| / (n*m)."""
    closed_form = float(Fraction(int(np.abs(m * a - n * b).sum()), n * m))

    def check(out: Path) -> list[str]:
        row, errors = _test_row(out, "two_sample_permutation", R, seed)
        if not row:
            return errors
        w, p = float(row["w"]), float(row["p_value"])
        if not _close(w, closed_form):
            errors.append(f"W = {w!r}, closed form gives {closed_form!r}")
        if row["critical_value"]:
            errors.append("permutation test reported a critical value")
        if not 0.0 <= p <= 1.0 or abs(p * R - round(p * R)) > 1e-6:
            errors.append(f"p-value {p!r} is not a count over {R}")
        if (row["reject"] == "true") != (p <= ALPHA):
            errors.append(f"reject={row['reject']} but p-value={p!r}")
        return errors

    return check


def power_check(sweep: list[float], M: int, baseline: bool, null_point: float | None):
    """Rows match the sweep; power at the null sweep point is at most alpha + 4 SE."""
    limit = ALPHA + 4 * math.sqrt(ALPHA * (1 - ALPHA) / M)

    def check(out: Path) -> list[str]:
        header, rows = _csv_rows(out)
        if header != ["param", "power_w", "power_bc", "replications"]:
            return [f"power CSV header {header}"]
        if [float(r[0]) for r in rows] != list(sweep):
            return [f"power CSV parameters {[r[0] for r in rows]}, expected {sweep}"]
        errors = []
        for param, power_w, power_bc, reps in rows:
            powers = [float(power_w)] + ([float(power_bc)] if baseline else [])
            if bool(power_bc) != baseline:
                errors.append(f"power_bc is {power_bc!r} at {param}")
            if int(reps) != M:
                errors.append(f"replications {reps}, expected {M}")
            for power in powers:
                if not 0.0 <= power <= 1.0 or abs(power * M - round(power * M)) > 1e-6:
                    errors.append(f"power {power!r} at {param} is not a count over {M}")
                if float(param) == null_point and power > limit:
                    errors.append(f"power {power!r} at the null exceeds {limit:.4f}")
        return errors

    return check


def density_check(theta1: float, sweep: list[float], draws: int):
    def check(out: Path) -> list[str]:
        header, rows = _csv_rows(out)
        if header != ["theta1", "theta2", "density", "draws"]:
            return [f"density CSV header {header}"]
        expected = [(theta1, t, draws) for t in sweep]
        got = [(float(t1), float(t2), int(d)) for t1, t2, _, d in rows]
        errors = [] if got == expected else [f"density rows {got}, expected {expected}"]
        errors += [f"density {d} outside [0, 1]" for _, _, d, _ in rows
                   if not 0.0 <= float(d) <= 1.0]
        return errors

    return check


def graph_sample_check(v: int, n: int):
    """A well-formed graph-sample file with the requested size."""

    def check(out: Path) -> list[str]:
        lines = [ln for ln in out.read_text().splitlines()
                 if ln.strip() and not ln.startswith("#")]
        if lines[0] != f"graphsample v={v} n={n} base=0":
            return [f"header {lines[0]!r}"]
        seen = set()
        for line in lines[1:]:
            g, i, j = (int(x) for x in line.split())
            if not (0 <= g < n and 0 <= i < j < v) or (g, i, j) in seen:
                return [f"bad edge line {line!r}"]
            seen.add((g, i, j))
        return []

    return check


def exact_text_check(expected: str):
    """Byte-identical output."""
    data = expected.encode()

    def check(out: Path) -> list[str]:
        got = out.read_bytes()
        if got == data:
            return []
        at = next((k for k, (x, y) in enumerate(zip(got, data)) if x != y),
                  min(len(got), len(data)))
        return [f"output differs from the reference at byte {at} "
                f"({len(got)} bytes, expected {len(data)})"]

    return check


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


class ReferenceGraphs:
    """Reference build-graphs pipeline with the README's default flags.

    It takes the per-window rank correlations, per-pair quartiles and edge
    rule with the same floating-point operations the program has used since
    its first release, so its output is the byte-exact expectation for
    ``build-graphs`` and ``summary``.
    """

    def __init__(self, values: np.ndarray, rate: float):
        n_samples, v = values.shape
        width = Fraction(WIDTH_MS) * Fraction(rate) / 1000
        step = Fraction(STEP_MS) * Fraction(rate) / 1000
        count = math.floor((n_samples - width) / step) + 1
        iu = np.triu_indices(v, k=1)
        corr = np.zeros((count, len(iu[0])))
        for t in range(count):
            a = _round_half_up(step * t)
            b = _round_half_up(step * t + width)
            block = values[a:b]
            constant = np.all(block == block[0], axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                c = np.corrcoef(rankdata(block, axis=0), rowvar=False)[iu]
            undefined = constant[iu[0]] | constant[iu[1]]
            corr[t] = np.where(undefined, 0.0, np.clip(c, -1.0, 1.0))
        q1 = np.empty(corr.shape[1])
        q3 = np.empty(corr.shape[1])
        for p in range(corr.shape[1]):
            q1[p], q3[p] = np.quantile(corr[:, p], [0.25, 0.75], method="linear")
        upper = np.maximum(THRESHOLD_C, q3)
        lower = np.minimum(-THRESHOLD_C, q1)
        self.v = v
        self.mask = (corr >= upper) | (corr <= lower)
        self.n_windows = count
        self.counts = self.mask.sum(axis=0).astype(np.int64)

    @classmethod
    def from_csv(cls, path: Path, rate: float) -> "ReferenceGraphs":
        with open(path) as fh:
            next(fh)
            values = np.array([[float(x) for x in line.split(",")] for line in fh])
        return cls(values, rate)

    @property
    def graph_text(self) -> str:
        slots = pairs(self.v)
        lines = [f"graphsample v={self.v} n={self.n_windows} base=0"]
        lines += [f"{g} {slots[a][0]} {slots[a][1]}" for g, a in zip(*np.nonzero(self.mask))]
        return "\n".join(lines) + "\n"

    def summary_text(self, k: int) -> str:
        slots = pairs(self.v)
        order = sorted(range(len(slots)), key=lambda a: (-int(self.counts[a]), a))[:k]
        rows = [f"{slots[a][0]},{slots[a][1]},{int(self.counts[a]) / self.n_windows!r}"
                for a in order]
        return "\n".join(["i,j,frequency"] + rows) + "\n"
