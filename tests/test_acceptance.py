"""Full-system checks gating a release.

Each test covers one end-to-end property: exact agreement between the
closed-form statistic and brute-force maximization, calibration of the Monte
Carlo and permutation tests, power behaviour across effect sizes and graph
sizes, sampler correctness for the exponential-family models, the normal
approximation of edge frequencies, the correlation pipeline fixture, and
byte-level determinism of the command line. Every test prints a single
[PASS]/[FAIL] line with the measured quantities; run with

    pytest -s tests/test_acceptance.py

to see the whole report. All randomness is seeded, so reruns are
deterministic; tolerances account for the sampling noise at the chosen
replication counts.
"""

import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from graphtest import (
    ChannelMatrix,
    EDGE_TRIANGLE,
    EDGE_TWO_STAR,
    EdgeMarginals,
    ErdosRenyi,
    Ergm,
    McmcConfig,
    ModifiedErdosRenyi,
    ThresholdSpec,
    WindowSpec,
    build_graphs,
    correlation_series,
    edge_density_sweep,
    ergm_enumerate,
    ergm_mh_sample,
    extremal_graphs,
    format_graph_sample,
    mean_graph,
    null_quantile_mc,
    one_sample_brute_force,
    one_sample_statistic,
    pair_quartiles,
    power_curve,
    select_modified_pairs,
    signed_gap,
    spearman,
    two_sample_brute_force,
    two_sample_permutation_test,
    two_sample_statistic,
)
from graphtest.cli import main as cli_main

from oracles import (
    FIXTURE_LABELS,
    FIXTURE_QUARTILES,
    FIXTURE_RATE,
    fixture_expected_lines,
    fixture_values,
    quartile_oracle,
    random_marginals,
    random_sample,
    spearman_oracle,
)


def _report(name: str, ok: bool, detail: str) -> None:
    """One summary line per check; the assert repeats it on failure."""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _power_se(a: float, b: float, M: int) -> float:
    # Floor at 1/M so a pair of degenerate estimates keeps a nonzero band.
    return max(math.sqrt((a * (1 - a) + b * (1 - b)) / M), 1.0 / M)


@pytest.fixture(scope="module")
def random_instances():
    """200 one-sample and 200 two-sample instances at v=4 with n <= 10."""
    rng = np.random.default_rng(555001)
    one = []
    for _ in range(200):
        sample = random_sample(rng, 4, int(rng.integers(1, 11)))
        marginals = EdgeMarginals(4, random_marginals(rng, 4))
        one.append((sample, marginals))
    two = []
    for _ in range(200):
        s = random_sample(rng, 4, int(rng.integers(1, 11)))
        t = random_sample(rng, 4, int(rng.integers(1, 11)))
        two.append((s, t))
    return one, two


def test_01_closed_form_matches_brute_force(random_instances):
    one, two = random_instances
    start = time.perf_counter()
    mismatches = 0
    for sample, marginals in one:
        closed = one_sample_statistic(sample, marginals)
        brute, _ = one_sample_brute_force(sample, marginals)
        if closed.exact != brute.exact:
            mismatches += 1
    for s, t in two:
        closed = two_sample_statistic(s, t)
        brute, _ = two_sample_brute_force(s, t)
        if closed.exact != brute.exact:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "closed form equals brute-force maximum",
        mismatches == 0 and elapsed < 10.0,
        f"400 instances, {mismatches} mismatches, {elapsed:.1f}s (limit 10s)",
    )


def test_02_extremal_graphs_attain_the_maximum(random_instances):
    one, two = random_instances
    start = time.perf_counter()
    bad = 0
    for sample, marginals in one:
        w = one_sample_statistic(sample, marginals).exact
        lo, hi = extremal_graphs(sample, marginals)
        if signed_gap(sample, marginals, lo) != w:
            bad += 1
        if signed_gap(sample, marginals, hi) != -w:
            bad += 1
    for s, t in two:
        # With the second sample's frequencies as the reference, the signed
        # gap at g is exactly the two-sample mean-distance difference.
        w = two_sample_statistic(s, t).exact
        freq_t = mean_graph(t)
        lo, hi = extremal_graphs(s, freq_t)
        if signed_gap(s, freq_t, lo) != w:
            bad += 1
        if signed_gap(s, freq_t, hi) != -w:
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        "extremal graphs attain the maximum gap",
        bad == 0 and elapsed < 5.0,
        f"800 gap evaluations, {bad} off-maximum, {elapsed:.1f}s (limit 5s)",
    )


def test_03_type_one_error_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(777003)
    null = ErdosRenyi(10, 0.5)
    crit = null_quantile_mc(null, n=20, alpha=0.05, R=10000, rng=rng)
    marginals = null.exact_marginals()
    rejects = 0
    studies = 2000
    for _ in range(studies):
        sample = null.sample(20, rng)
        # Statistic values sit on the lattice k/40, far coarser than float
        # rounding, so the float comparison decides exactly like rationals.
        if one_sample_statistic(sample, marginals).value > crit:
            rejects += 1
    rate = rejects / studies
    elapsed = time.perf_counter() - start
    _report(
        "type I error calibration",
        abs(rate - 0.05) <= 0.015 and elapsed < 120.0,
        f"rejection rate {rate:.4f} vs 0.050 +/- 0.015 "
        f"(critical value {crit}, {studies} fresh studies), "
        f"{elapsed:.0f}s (limit 120s)",
    )


def test_04_power_curve_and_edgewise_baseline():
    start = time.perf_counter()
    rng = np.random.default_rng(777004)
    v, n, M, alpha = 10, 20, 1000, 0.05
    null = ErdosRenyi(v, 0.5)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]

    curves = {}
    for q in (0.25, 1.0):
        pairs = select_modified_pairs(v, q, rng)
        alts = [ModifiedErdosRenyi(v, 0.5, p, pairs) for p in grid]
        curves[q] = power_curve(
            null, alts, n, M,
            alpha=alpha, R_quantile=10000, rng=rng, baseline_bonferroni=True,
        )

    problems = []
    se_null = math.sqrt(alpha * (1 - alpha) / M)
    for q, points in curves.items():
        for p, point in zip(grid, points):
            pw, pb = point.power, point.power_baseline
            if p == 0.5 and abs(pw - alpha) > 3 * se_null:
                problems.append(f"q={q} power at null point {pw:.3f}")
            if pw < pb - 2 * _power_se(pw, pb, M):
                problems.append(f"q={q} p={p}: {pw:.3f} below baseline {pb:.3f}")
    for p, point in zip(grid, curves[1.0]):
        if abs(p - 0.5) >= 0.3 and point.power < 0.95:
            problems.append(f"q=1.0 p={p}: power {point.power:.3f} < 0.95")

    elapsed = time.perf_counter() - start
    null_powers = ", ".join(
        f"q={q}: {points[4].power:.3f}" for q, points in curves.items()
    )
    extreme = min(
        point.power
        for p, point in zip(grid, curves[1.0])
        if abs(p - 0.5) >= 0.3
    )
    detail = (
        f"18 grid points at M={M}; power at p=0.5 [{null_powers}]; "
        f"min full-modification power at |p-0.5|>=0.3 is {extreme:.3f}; "
        f"{elapsed:.0f}s (limit 600s)"
    )
    if problems:
        detail += "; " + "; ".join(problems[:4])
    _report(
        "power curve dominates the per-edge baseline",
        not problems and elapsed < 600.0,
        detail,
    )


def test_05_power_grows_with_vertex_count():
    start = time.perf_counter()
    rng = np.random.default_rng(777005)
    M = 1000
    power_w, power_bc = {}, {}
    for v in (6, 8, 10):
        point = power_curve(
            ErdosRenyi(v, 0.5), [ErdosRenyi(v, 0.6)], 20, M,
            alpha=0.05, R_quantile=10000, rng=rng, baseline_bonferroni=True,
        )[0]
        power_w[v] = point.power
        power_bc[v] = point.power_baseline

    problems = []
    for lo, hi in ((6, 8), (8, 10)):
        band = 2 * _power_se(power_w[lo], power_w[hi], M)
        if power_w[lo] > power_w[hi] + band:
            problems.append(f"W power drops {lo}->{hi}")
    # The baseline is judged on the overall trend, not stepwise: its per-edge
    # binomial p-value is discrete, and when growing E leaves the rejection
    # region unchanged (k >= 18 for both E=28 and E=45 here), the familywise
    # power briefly rises with the number of chances before dropping again.
    for v in (8, 10):
        band = 2 * _power_se(power_bc[6], power_bc[v], M)
        if power_bc[v] > power_bc[6] + band:
            problems.append(f"baseline power at v={v} exceeds v=6")

    elapsed = time.perf_counter() - start
    w_txt = ", ".join(f"v={v}: {power_w[v]:.3f}" for v in (6, 8, 10))
    b_txt = ", ".join(f"v={v}: {power_bc[v]:.3f}" for v in (6, 8, 10))
    detail = f"W [{w_txt}]; baseline [{b_txt}]; {elapsed:.0f}s (limit 600s)"
    if problems:
        detail += "; " + "; ".join(problems)
    _report(
        "power grows with vertex count while the baseline does not",
        not problems and elapsed < 600.0,
        detail,
    )


def test_06_ergm_enumeration_and_sampler_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(777006)

    # With no interaction term the edges are iid with the logistic marginal.
    worst_logistic = 0.0
    for stats_kind in (EDGE_TRIANGLE, EDGE_TWO_STAR):
        for theta1 in (-1.0, -0.3, 0.4, 1.0):
            marginals = Ergm(5, stats_kind, (theta1, 0.0)).exact_marginals()
            target = 1.0 / (1.0 + math.exp(-theta1))
            worst_logistic = max(
                worst_logistic,
                max(
                    abs(float(f) - target)
                    for f in marginals.fractions
                ),
            )
    ok_logistic = worst_logistic <= 1e-12

    # Chain marginals against enumeration at v=5.
    spec5 = Ergm(5, EDGE_TRIANGLE, (0.5, -0.3))
    exact5 = np.array(
        [float(f) for f in spec5.exact_marginals().fractions]
    )
    draws = 20000
    chain5 = ergm_mh_sample(
        spec5, draws, McmcConfig(burn_in=200, thinning=5), rng
    )
    emp5 = np.asarray(chain5.edge_counts, dtype=float) / draws
    sup_err = float(np.max(np.abs(emp5 - exact5)))
    ok_marginals = sup_err < 0.02

    # Long-run distribution against enumeration at v=4, total variation.
    spec4 = Ergm(4, EDGE_TRIANGLE, (0.5, -0.8))
    dist4 = ergm_enumerate(spec4)
    long_draws = 100000
    chain4 = ergm_mh_sample(
        spec4, long_draws, McmcConfig(burn_in=200, thinning=2), rng
    )
    freq = Counter(g.bits for g in chain4)
    tv = 0.5 * sum(
        abs(freq.get(code, 0) / long_draws - float(dist4.probabilities[code]))
        for code in range(len(dist4.probabilities))
    )
    ok_tv = tv < 0.02

    # Larger graphs where enumeration is impossible: report the edge density
    # of exact draws at two attractive-triangle parameter points.
    # Qualitative only; these regions are near-degenerate and
    # convention-sensitive.
    anchor_specs = [
        Ergm(8, EDGE_TRIANGLE, (-1.0, 0.63)),
        Ergm(12, EDGE_TRIANGLE, (-1.0, 0.38)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        anchors = edge_density_sweep(anchor_specs, 300, rng)
    for spec, point in zip(anchor_specs, anchors):
        print(
            f"[INFO] exact edge density at v={spec.v}, "
            f"theta=({point.theta1}, {point.theta2}): {point.density:.3f} "
            f"over {point.draws} draws"
        )

    elapsed = time.perf_counter() - start
    _report(
        "ergm enumeration and chain sampler agree",
        ok_logistic and ok_marginals and ok_tv and elapsed < 300.0,
        f"decoupled marginal error {worst_logistic:.2e} (tol 1e-12); "
        f"v=5 marginal sup error {sup_err:.4f} (tol 0.02, {draws} draws); "
        f"v=4 total variation {tv:.4f} (tol 0.02, {long_draws} draws); "
        f"{elapsed:.0f}s (limit 300s)",
    )


def test_07_edge_frequencies_are_asymptotically_normal():
    start = time.perf_counter()
    rng = np.random.default_rng(777007)
    n, R = 400, 5000
    counts = ErdosRenyi(6, 0.5).edge_count_batches(n, R, rng)
    # Standardize sqrt(n) * (freq - 1/2) / sigma with sigma = 1/2.
    z = (counts - n * 0.5) / (0.5 * math.sqrt(n))
    ks = scipy.stats.kstest(z.ravel(), "norm").statistic
    target_var = 0.25 / n
    ratios = counts.var(axis=0, ddof=1) / n**2 / target_var
    lo, hi = float(ratios.min()), float(ratios.max())
    elapsed = time.perf_counter() - start
    _report(
        "edge frequencies are asymptotically normal",
        ks < 0.03 and lo >= 0.9 and hi <= 1.1 and elapsed < 120.0,
        f"KS distance {ks:.4f} (tol 0.03) over {R * counts.shape[1]} "
        f"standardized counts; variance ratios in [{lo:.3f}, {hi:.3f}] "
        f"(tol [0.9, 1.1]); {elapsed:.0f}s (limit 120s)",
    )


def test_08_permutation_p_values_are_uniform():
    start = time.perf_counter()
    rng = np.random.default_rng(777008)
    model = ErdosRenyi(10, 0.5)
    reps, R = 2000, 1000
    seeds = rng.integers(0, 2**63, size=reps)
    p_inc = np.empty(reps)
    p_mid = np.empty(reps)
    for r in range(reps):
        s = model.sample(30, rng)
        t = model.sample(30, rng)
        # Run the same permutation draws under both tie conventions. Ties
        # between resampled and observed statistics carry ~0.036 probability
        # here, so the inclusive p-value is conservative by half that atom
        # and only its tie-centered average can be uniform two-sidedly.
        inc = two_sample_permutation_test(
            s, t, R=R, rng=np.random.default_rng(seeds[r])
        ).p_value
        strict = two_sample_permutation_test(
            s, t, R=R, rng=np.random.default_rng(seeds[r]), strict=True
        ).p_value
        p_inc[r] = inc
        p_mid[r] = 0.5 * (inc + strict)
    ks = scipy.stats.kstest(p_mid, "uniform").statistic
    level = float((p_inc <= 0.05).mean())
    level_bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / reps)
    elapsed = time.perf_counter() - start
    _report(
        "permutation p-values are uniform under the null",
        ks < 0.05 and level <= level_bound and elapsed < 300.0,
        f"tie-centered KS {ks:.4f} (tol 0.05) over {reps} null p-values at "
        f"R={R}; default p-value rejects {level:.3f} of nulls at alpha=0.05 "
        f"(valid if <= {level_bound:.3f}); {elapsed:.0f}s (limit 300s)",
    )


def test_09_correlation_pipeline_fixture():
    start = time.perf_counter()
    values = fixture_values()
    matrix = ChannelMatrix(FIXTURE_LABELS, values, FIXTURE_RATE)
    series = correlation_series(matrix, WindowSpec(width_ms=5.0, step_ms=5.0))
    thresholds = ThresholdSpec.from_series(series, c=0.5)
    graphs = build_graphs(series, thresholds)
    text = format_graph_sample(graphs)
    expected = "\n".join(fixture_expected_lines()) + "\n"
    ok_file = text == expected

    worst_rho = 0.0
    for w in range(series.n_windows):
        block = values[5 * w : 5 * (w + 1)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            worst_rho = max(
                worst_rho,
                abs(
                    spearman(block[:, i], block[:, j])
                    - spearman_oracle(block[:, i], block[:, j])
                ),
            )

    worst_q = 0.0
    for (i, j), (q1, q3) in FIXTURE_QUARTILES.items():
        got = pair_quartiles(series.pair_series(i, j))
        worst_q = max(
            worst_q,
            abs(got[0] - q1),
            abs(got[1] - q3),
            abs(got[0] - quartile_oracle(series.pair_series(i, j), 0.25)),
            abs(got[1] - quartile_oracle(series.pair_series(i, j), 0.75)),
        )

    elapsed = time.perf_counter() - start
    _report(
        "correlation pipeline reproduces the hand-derived fixture",
        ok_file and worst_rho <= 1e-12 and worst_q <= 1e-12 and elapsed < 1.0,
        f"serialized sample {'matches' if ok_file else 'DIFFERS'}; "
        f"max correlation error {worst_rho:.2e}, max quartile error "
        f"{worst_q:.2e} (tol 1e-12); {elapsed:.2f}s (limit 1s)",
    )


def test_10_cli_determinism_and_thread_invariance(tmp_path, capsys):
    start = time.perf_counter()
    problems = []

    def run(*argv) -> int:
        code = cli_main(list(argv))
        capsys.readouterr()
        return code

    null_sample = tmp_path / "null_sample.txt"
    other_sample = tmp_path / "other_sample.txt"
    for path, seed in ((null_sample, 21), (other_sample, 22)):
        if run(
            "sample", "--model", "er", "--v", "6", "--p", "0.5",
            "--n", "15", "--seed", str(seed), "--out", str(path),
        ) != 0:
            problems.append(f"input sample generation failed (seed {seed})")

    seeded = {
        "sample-er": [
            "sample", "--model", "er", "--v", "6", "--p", "0.5",
            "--n", "25", "--seed", "9",
        ],
        "sample-modified-er": [
            "sample", "--model", "modified-er", "--v", "6",
            "--p0", "0.5", "--p", "0.9", "--q", "0.25",
            "--n", "12", "--seed", "4",
        ],
        "sample-ergm": [
            "sample", "--model", "ergm", "--v", "5",
            "--stats", "edge-triangle", "--theta1", "0.2", "--theta2", "-0.1",
            "--n", "10", "--seed", "3",
        ],
        "test-one-sample": [
            "test", "--sample", str(null_sample), "--null", "er",
            "--p", "0.5", "--replications", "200", "--seed", "5",
        ],
        "test-two-sample": [
            "test", "--sample", str(null_sample),
            "--sample2", str(other_sample),
            "--permutations", "200", "--seed", "6",
        ],
        "power": [
            "power", "--v", "5", "--n", "10", "--alt", "er",
            "--sweep", "0.5,0.8", "--replications", "100",
            "--quantile-replications", "100", "--seed", "2",
            "--baseline", "bonferroni",
        ],
        "density-sweep": [
            "density-sweep", "--v", "4", "--stats", "edge-triangle",
            "--theta1", "-1.0", "--sweep", "0.0,0.2", "--draws", "120",
            "--burn-in", "50", "--thinning", "1", "--seed", "6",
        ],
    }
    for name, argv in seeded.items():
        blobs = []
        for repeat in ("a", "b"):
            out = tmp_path / f"{name}-{repeat}.out"
            if run(*argv, "--out", str(out)) != 0:
                problems.append(f"{name} exited nonzero")
                break
            blobs.append(out.read_bytes())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            problems.append(f"{name} differs between same-seed runs")

    elapsed = time.perf_counter() - start
    detail = (
        f"{len(seeded)} seeded commands byte-identical on rerun; "
        f"{elapsed:.0f}s (limit 60s)"
    )
    if problems:
        detail = "; ".join(problems[:5]) + f"; {elapsed:.0f}s"
    _report(
        "command line is deterministic",
        not problems and elapsed < 60.0,
        detail,
    )
