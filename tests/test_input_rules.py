"""Input rules shared by every module: each is checked one way, with one message."""

import json

import numpy as np
import pytest

from graphtest import (
    EDGE_TRIANGLE,
    ChannelMatrix,
    CorrelationSeries,
    DimensionMismatchError,
    EdgeMarginals,
    Ergm,
    ErdosRenyi,
    Graph,
    GraphSample,
    ModifiedErdosRenyi,
    ThresholdSpec,
    bonferroni_edge_test,
    build_graphs,
    ergm_enumerate,
    ergm_log_weight,
    extremal_graphs,
    hamming_distance,
    mean_distance,
    null_quantile_mc,
    one_sample_brute_force,
    one_sample_statistic,
    one_sample_test,
    pair_quartiles,
    power_curve,
    signed_gap,
    spearman,
    two_sample_brute_force,
    two_sample_permutation_test,
    two_sample_statistic,
)
from graphtest.cli import main

G3, G4 = Graph.empty(3), Graph.empty(4)
S3, S4 = GraphSample([G3]), GraphSample([G4])
M3, M4 = EdgeMarginals.constant(3, 0.5), EdgeMarginals.constant(4, 0.5)
ER3, ER4 = ErdosRenyi(3, 0.5), ErdosRenyi(4, 0.5)
ERGM3 = Ergm(3, EDGE_TRIANGLE, (0.0, 0.0))
LABELS4 = ["a", "b", "c", "d"]
# Five windows of correlations between four channels: six pairs.
SERIES4 = CorrelationSeries(LABELS4, np.zeros((5, 6)), [(w, w + 1) for w in range(5)])

# Every public entry point that needs its operands on one vertex set, called
# with operands on 3 and 4 vertices, and the message it must raise.
VERTEX_COUNT_CASES = {
    "hamming_distance": (
        lambda rng: hamming_distance(G3, G4),
        "first graph has v=3 but second graph has v=4",
    ),
    "mean_distance": (
        lambda rng: mean_distance(S3, G4),
        "graph has v=4 but sample has v=3",
    ),
    "one_sample_statistic": (
        lambda rng: one_sample_statistic(S3, M4),
        "sample has v=3 but marginals has v=4",
    ),
    "two_sample_statistic": (
        lambda rng: two_sample_statistic(S3, S4),
        "first sample has v=3 but second sample has v=4",
    ),
    "signed_gap-marginals": (
        lambda rng: signed_gap(S3, M4, G3),
        "sample has v=3 but marginals has v=4",
    ),
    "signed_gap-graph": (
        lambda rng: signed_gap(S3, M3, G4),
        "graph has v=4 but sample has v=3",
    ),
    "one_sample_brute_force": (
        lambda rng: one_sample_brute_force(S3, M4),
        "sample has v=3 but marginals has v=4",
    ),
    "two_sample_brute_force": (
        lambda rng: two_sample_brute_force(S3, S4),
        "first sample has v=3 but second sample has v=4",
    ),
    "extremal_graphs": (
        lambda rng: extremal_graphs(S3, M4),
        "sample has v=3 but marginals has v=4",
    ),
    "null_quantile_mc": (
        lambda rng: null_quantile_mc(ER3, 5, 0.05, 100, rng, marginals=M4),
        "marginals has v=4 but null model has v=3",
    ),
    "one_sample_test-null": (
        lambda rng: one_sample_test(S3, ER4, R=100, rng=rng),
        "sample has v=3 but null model has v=4",
    ),
    "one_sample_test-marginals": (
        lambda rng: one_sample_test(S3, ER3, R=100, rng=rng, marginals=M4),
        "marginals has v=4 but null model has v=3",
    ),
    "two_sample_permutation_test": (
        lambda rng: two_sample_permutation_test(S3, S4, R=100, rng=rng),
        "first sample has v=3 but second sample has v=4",
    ),
    "bonferroni_edge_test": (
        lambda rng: bonferroni_edge_test(S3, M4),
        "sample has v=3 but marginals has v=4",
    ),
    "power_curve": (
        lambda rng: power_curve(ER3, [ER4], 5, 100, R_quantile=100, rng=rng),
        "alternative has v=4 but null model has v=3",
    ),
    "ergm_log_weight": (
        lambda rng: ergm_log_weight(G4, ERGM3),
        "graph has v=4 but model has v=3",
    ),
    "ExactDistribution.probability_of": (
        lambda rng: ergm_enumerate(ERGM3).probability_of(G4),
        "graph has v=4 but distribution has v=3",
    ),
    "build_graphs": (
        lambda rng: build_graphs(SERIES4, ThresholdSpec(0.5, np.zeros(3), np.zeros(3))),
        "thresholds cover 3 pairs but series has 6",
    ),
}


@pytest.mark.parametrize("case", sorted(VERTEX_COUNT_CASES))
def test_every_vertex_count_mismatch_is_reported_one_way(case, rng):
    call, message = VERTEX_COUNT_CASES[case]
    with pytest.raises(DimensionMismatchError) as exc:
        call(rng)
    assert str(exc.value) == message


@pytest.mark.parametrize("build", [
    lambda: Graph(1),
    lambda: GraphSample.from_indicator_matrix(1, np.zeros((2, 0), dtype=bool)),
    lambda: ErdosRenyi(1, 0.5),
    lambda: ModifiedErdosRenyi(1, 0.5, 0.5, frozenset()),
    lambda: Ergm(1, EDGE_TRIANGLE, (0.0, 0.0)),
], ids=["Graph", "GraphSample", "ErdosRenyi", "ModifiedErdosRenyi", "Ergm"])
def test_one_vertex_is_refused_with_one_message(build):
    with pytest.raises(ValueError) as exc:
        build()
    assert type(exc.value) is ValueError
    assert str(exc.value) == "need at least 2 vertices, got v=1"


# Inputs that no computation can use, each refused with its error type and
# its message.
REFUSED_INPUT_CASES = {
    "spearman-nan": (
        lambda: spearman([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]),
        ValueError, "inputs contain NaN or infinite values",
    ),
    "spearman-inf": (
        lambda: spearman([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
        ValueError, "inputs contain NaN or infinite values",
    ),
    "spearman-minus-inf": (
        lambda: spearman([1.0, -np.inf, 3.0], [1.0, 2.0, 3.0]),
        ValueError, "inputs contain NaN or infinite values",
    ),
    "ChannelMatrix-no-samples": (
        lambda: ChannelMatrix(LABELS4, np.zeros((0, 4)), 250.0),
        ValueError, "recording must contain at least one sample",
    ),
    "CorrelationSeries-no-windows": (
        lambda: CorrelationSeries(LABELS4, np.zeros((0, 6)), []),
        ValueError, "need at least one window",
    ),
    "pair_quartiles-matrix": (
        lambda: pair_quartiles(np.zeros((3, 3))),
        DimensionMismatchError, "expected a vector, got shape (3, 3)",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUT_CASES))
def test_unusable_inputs_are_refused_with_one_message(case):
    call, error, message = REFUSED_INPUT_CASES[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_pair_series_reads_the_same_in_either_order():
    values = np.arange(30, dtype=np.float64).reshape(5, 6) / 30
    series = CorrelationSeries(LABELS4, values, SERIES4.windows)
    for i, j in [(0, 1), (1, 3), (2, 3)]:
        assert np.array_equal(series.pair_series(j, i), series.pair_series(i, j))
    assert np.array_equal(series.pair_series(3, 1), values[:, 4])


def test_a_sweep_with_a_word_is_a_usage_error_naming_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["power", "--v", "4", "--n", "5", "--alt", "er", "--sweep", "0.1,x",
              "--replications", "100", "--seed", "1"])
    assert exc.value.code == 2
    assert "expected comma-separated reals, got '0.1,x'" in capsys.readouterr().err


def test_an_unseeded_run_records_the_seed_that_reproduces_it(tmp_path):
    argv = ["sample", "--model", "er", "--v", "5", "--p", "0.5", "--n", "4"]
    first, again = tmp_path / "first.txt", tmp_path / "again.txt"
    manifest = tmp_path / "run.json"
    assert main([*argv, "--out", str(first), "--manifest", str(manifest)]) == 0
    seed = json.loads(manifest.read_text())["seed"]
    assert type(seed) is int
    assert main([*argv, "--seed", str(seed), "--out", str(again),
                 "--manifest", str(manifest)]) == 0
    assert again.read_bytes() == first.read_bytes()
