"""Span tracing of graphtest from outside the package, and the per-layer metrics.

``install`` replaces module attributes with wrappers that record one span per
call: name, start, end and the index of the enclosing span. The layer of a
span is the module that defines the wrapped function. Spans stay in memory
until the worker writes them out. A few wrappers also record work counts
taken from the call's arguments or result, such as MH proposals.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

LAYERS = ("cli", "formats", "graphs", "statistic", "models", "inference", "timeseries")

NAME, LAYER, START, END, PARENT, COUNTS = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def wrap(self, fn, counter=None):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[index][COUNTS] = counter(bound.arguments, result)
            return result

        return traced


def _mh_proposals(a, result):
    spec, mcmc = a["spec"], a["mcmc"]
    pairs = spec.v * (spec.v - 1) // 2
    return {"proposals": (mcmc.burn_in + a["n"] * mcmc.thinning) * pairs}


COUNTERS = {
    "inference.one_sample_test": lambda a, r: {"replicates": a["R"]},
    "inference.two_sample_permutation_test": lambda a, r: {"permutations": a["R"]},
    "models.ergm_mh_sample": _mh_proposals,
    "timeseries.correlation_series": lambda a, r: {"pair_windows": r.values.size},
    "formats.read_channel_csv": lambda a, r: {"rows": r.n_samples},
    "formats.read_graph_sample": lambda a, r: {
        "lines": 1 + sum(g.edge_count() for g in r)},
    "formats.write_text": lambda a, r: {"bytes": len(a["text"].encode())},
}


def install(tracer: Tracer) -> None:
    """Wrap the functions each layer exposes to the CLI and to its callers."""
    import graphtest.cli as cli
    import graphtest.inference as inference
    import graphtest.models as models
    from graphtest.graphs import Graph
    from graphtest.timeseries import ThresholdSpec

    def key(fn):
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

    # Names the CLI imported from the other modules.
    for attr, obj in list(vars(cli).items()):
        if (isinstance(obj, types.FunctionType) and obj.__module__ != cli.__name__
                and obj.__module__.startswith("graphtest.")):
            setattr(cli, attr, tracer.wrap(obj, COUNTERS.get(key(obj))))
    # Module globals looked up at call time inside the package.
    for module, attr in ((inference, "one_sample_statistic"),
                         (inference, "two_sample_statistic"),
                         (models, "ergm_mh_sample"),
                         (models, "ergm_enumerate")):
        fn = getattr(module, attr)
        setattr(module, attr, tracer.wrap(fn, COUNTERS.get(key(fn))))
    for cls, attr in ((Graph, "from_edges"), (Graph, "from_indicator_row"),
                      (ThresholdSpec, "from_series")):
        setattr(cls, attr, classmethod(tracer.wrap(cls.__dict__[attr].__func__)))
    Graph.indicator_row = tracer.wrap(Graph.indicator_row)


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(spans: list[list], wall_s: float, scales: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    The durations of the spans under the k-th root span (the k-th command's
    ``cli.main``) are multiplied by ``scales[k]``, which turns measured
    seconds into reference seconds. ``*_s`` of a function is the summed
    duration of its spans; ``self_s`` subtracts the time covered by child
    spans. ``trace.attributed_frac`` is the share of the commands' measured
    ``wall_s`` that falls inside spans of the layers below ``cli``.
    """
    duration = []
    command = -1
    for s in spans:
        command += s[PARENT] < 0
        duration.append((s[END] - s[START]) * scales[command])
    child = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    below_cli = 0.0
    for s, d, covered in zip(spans, duration, child):
        if s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "cli":
            below_cli += s[END] - s[START]
        total[s[NAME]] += d
        own[s[NAME]] += d - covered
        calls[s[NAME]] += 1
        layer_self[s[LAYER]] += d - covered
        for k, v in (s[COUNTS] or {}).items():
            counts[f"{s[NAME]}:{k}"] += v

    one_sample = "inference.one_sample_test"
    perm = "inference.two_sample_permutation_test"
    mh = "models.ergm_mh_sample"
    corr = "timeseries.correlation_series"
    read_csv = "formats.read_channel_csv"
    read_graphs = "formats.read_graph_sample"
    pack = ("graphs.Graph.from_edges", "graphs.Graph.from_indicator_row")
    m = {f"{layer}.self_s": t for layer, t in layer_self.items()}
    m.update({
        "inference.null_replicates": counts[f"{one_sample}:replicates"],
        "inference.null_replicates_per_s": _ratio(
            counts[f"{one_sample}:replicates"], total[one_sample]),
        "inference.one_sample_self_s": own[one_sample],
        "inference.power_self_s": own["inference.power_curve"],
        "inference.permutations_per_s": _ratio(
            counts[f"{perm}:permutations"], total[perm]),
        "inference.permutation_self_s": own[perm],
        "models.mh_calls": calls[mh],
        "models.mh_proposals": counts[f"{mh}:proposals"],
        "models.mh_s": total[mh],
        "models.mh_proposals_per_s": _ratio(counts[f"{mh}:proposals"], total[mh]),
        "models.enumerate_s": total["models.ergm_enumerate"],
        "timeseries.correlation_s": total[corr],
        "timeseries.pair_windows": counts[f"{corr}:pair_windows"],
        "timeseries.pair_windows_per_s": _ratio(
            counts[f"{corr}:pair_windows"], total[corr]),
        "timeseries.thresholds_s": total["timeseries.ThresholdSpec.from_series"],
        "timeseries.build_graphs_s": total["timeseries.build_graphs"],
        "timeseries.summary_s": total["timeseries.summary_graph"],
        "formats.read_channel_csv_s": total[read_csv],
        "formats.csv_rows_per_s": _ratio(counts[f"{read_csv}:rows"], total[read_csv]),
        "formats.format_graph_sample_s": total["formats.format_graph_sample"],
        "formats.bytes_written": counts["formats.write_text:bytes"],
        "formats.read_graph_sample_s": total[read_graphs],
        "formats.graph_lines_per_s": _ratio(
            counts[f"{read_graphs}:lines"], total[read_graphs]),
        "graphs.graphs_built": sum(calls[p] for p in pack),
        "graphs.pack_s": sum(total[p] for p in pack),
        "graphs.unpack_s": total["graphs.Graph.indicator_row"],
        "statistic.one_sample_s": total["statistic.one_sample_statistic"],
        "statistic.two_sample_s": total["statistic.two_sample_statistic"],
        "trace.spans": len(spans),
        "trace.attributed_frac": _ratio(below_cli, wall_s),
    })
    return m
