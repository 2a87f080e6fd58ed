"""The public surface: the names ``graphtest`` exports, pinned by role.

A name joins this list only with a caller outside its own unit tests: the
paper's method, the CLI, an acceptance test, a test oracle or the benchmark.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import graphtest

SURFACE = {
    "version and errors": [
        "__version__", "GraphTestError", "DimensionMismatchError",
        "EmptySampleError", "InsufficientSampleError", "EnumerationRefusedError",
        "ConfigurationError", "UndefinedCorrelationError", "DataFormatError",
    ],
    "graphs": [
        "Graph", "GraphSample", "EdgeMarginals", "canonical_pairs", "num_pairs",
        "pair_index", "hamming_distance", "mean_graph",
    ],
    "statistic": [
        "TestStatistic", "BRUTE_FORCE_MAX_V", "mean_distance",
        "one_sample_statistic", "two_sample_statistic", "signed_gap",
        "one_sample_brute_force", "two_sample_brute_force", "extremal_graphs",
    ],
    "models": [
        "EDGE_TRIANGLE", "EDGE_TWO_STAR", "ENUMERATION_MAX_V", "ErdosRenyi",
        "ModifiedErdosRenyi", "Ergm", "ModelSpec", "McmcConfig",
        "ExactDistribution", "DensityPoint", "select_modified_pairs",
        "ergm_log_weight", "ergm_enumerate", "ergm_mh_sample",
        "edge_density_sweep",
    ],
    "tests": [
        "TestResult", "PowerPoint", "null_quantile_mc", "one_sample_test",
        "two_sample_permutation_test", "binom_two_sided_pvalue",
        "bonferroni_edge_test", "power_curve",
    ],
    "pipeline": [
        "ChannelMatrix", "WindowSpec", "CorrelationSeries", "ThresholdSpec",
        "SummaryGraph", "spearman", "correlation_series", "pair_quartiles",
        "build_graphs", "summary_graph",
    ],
    "formats": [
        "RunManifest", "format_graph_sample", "write_graph_sample",
        "read_graph_sample", "read_channel_csv", "write_manifest",
    ],
}


def test_package_exports_exactly_the_audited_surface():
    audited = [name for names in SURFACE.values() for name in names]
    assert len(set(audited)) == len(audited)
    assert sorted(graphtest.__all__) == sorted(audited)


@pytest.mark.parametrize("module", [
    "graphtest", "graphtest.graphs", "graphtest.statistic", "graphtest.models",
    "graphtest.inference", "graphtest.timeseries", "graphtest.formats",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """``perfbench/spans.py`` wraps package functions it looks up by name,
    such as ``models.ergm_mh_sample`` and ``Graph.indicator_row``, so a
    deleted or renamed one fails here as well as in the benchmark's run."""
    src = str(Path(graphtest.__file__).resolve().parents[1])
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = "import spans; spans.install(spans.Tracer())"
    # -B: the run writes no bytecode cache into perfbench/.
    out = subprocess.run(
        [sys.executable, "-B", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        cwd=perfbench, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
