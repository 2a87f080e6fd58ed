"""Command-line interface: sampling, testing, power sweeps, time-series graphs.

Subcommands: sample, test, power, density-sweep, build-graphs, summary.
Human-readable output goes to standard output; machine-readable CSV goes to
``--out``. Every randomized command takes ``--seed`` and is byte-reproducible
from (seed, flags); ``--manifest PATH`` additionally records the run as JSON,
and output files then reference the manifest by name in a comment line.

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 refused
configuration (for example exact enumeration above the size cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DataFormatError,
    DimensionMismatchError,
    EmptySampleError,
    EnumerationRefusedError,
    InsufficientSampleError,
    UndefinedCorrelationError,
)
from .formats import (
    RunManifest,
    format_density_csv,
    format_graph_sample,
    format_power_csv,
    format_summary_csv,
    format_test_csv,
    read_channel_csv,
    read_graph_sample,
    write_manifest,
    write_text,
)
from .inference import (
    one_sample_test,
    power_curve,
    two_sample_permutation_test,
)
from .models import (
    EDGE_TRIANGLE,
    EDGE_TWO_STAR,
    Ergm,
    ErdosRenyi,
    McmcConfig,
    ModifiedErdosRenyi,
    edge_density_sweep,
    select_modified_pairs,
)
from .timeseries import (
    ThresholdSpec,
    WindowSpec,
    build_graphs,
    correlation_series,
    summary_graph,
)

_STATS_FLAGS = {"edge-triangle": EDGE_TRIANGLE, "edge-2-star": EDGE_TWO_STAR}


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {text!r}"
        ) from None


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    return int(np.random.SeedSequence().entropy)


def _manifest_name(args) -> str | None:
    manifest = getattr(args, "manifest", None)
    return os.path.basename(manifest) if manifest else None


def _finish_manifest(args, command: str, seed: int | None, outputs, **extra) -> None:
    if not getattr(args, "manifest", None):
        return
    skip = {"func", "command", "manifest"}
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in skip and not callable(value)
    }
    params.update(extra)
    params["seed"] = seed
    write_manifest(
        args.manifest,
        RunManifest(
            command=command,
            seed=seed,
            parameters=params,
            version=__version__,
            outputs=tuple(os.path.basename(p) for p in outputs),
        ),
    )


def _mcmc_from_args(args) -> McmcConfig:
    return McmcConfig(burn_in=args.burn_in, thinning=args.thinning)


def _build_model(kind: str, v: int, args, rng: np.random.Generator):
    """Model from flags; for modified-er the pair subset is drawn from rng first."""
    if kind == "er":
        if args.p is None:
            raise ValueError(f"model {kind!r} requires --p")
        return ErdosRenyi(v, args.p)
    if kind == "modified-er":
        if args.p is None or args.p0 is None or args.q is None:
            raise ValueError(f"model {kind!r} requires --p0, --p and --q")
        pairs = select_modified_pairs(v, args.q, rng)
        return ModifiedErdosRenyi(v, args.p0, args.p, pairs)
    if kind == "ergm":
        if args.stats is None or args.theta1 is None or args.theta2 is None:
            raise ValueError(f"model {kind!r} requires --stats, --theta1 and --theta2")
        return Ergm(
            v,
            _STATS_FLAGS[args.stats],
            (args.theta1, args.theta2),
            _mcmc_from_args(args),
        )
    raise ValueError(f"unknown model {kind!r}")


def _emit(args, text: str, summary_line: str) -> list[str]:
    """Write text to --out (returning it as an output) or print it to stdout."""
    if args.out:
        write_text(args.out, text)
        print(summary_line)
        return [args.out]
    print(text, end="")
    return []


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    model = _build_model(args.model, args.v, args, rng)
    sample = model.sample(args.n, rng)
    text = format_graph_sample(sample, args.base, _manifest_name(args))
    outputs = _emit(
        args,
        text,
        f"wrote {sample.n} graphs on {sample.v} vertices to {args.out}",
    )
    _finish_manifest(args, "sample", seed, outputs, model=model.describe())
    return 0


def cmd_test(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    s = read_graph_sample(args.sample)
    if args.sample2 is not None:
        result = two_sample_permutation_test(
            s,
            read_graph_sample(args.sample2),
            R=args.permutations,
            rng=rng,
            alpha=args.alpha,
            strict=args.strict_ties,
            smoothing=args.smoothing,
        )
    else:
        if args.null is None:
            raise ValueError("one-sample mode requires --null (or pass --sample2)")
        null = _build_model(args.null, s.v, args, rng)
        result = one_sample_test(
            s,
            null,
            alpha=args.alpha,
            R=args.replications,
            rng=rng,
            threads=args.threads,
        )
    result = dataclasses.replace(result, seed=seed)

    print(f"method: {result.method}")
    if result.statistic is not None:
        print(f"W = {result.statistic.value:.6g}")
    if result.critical_value is not None:
        print(f"critical value = {result.critical_value:.6g}")
    if result.p_value is not None:
        print(f"p-value = {result.p_value:.6g}")
    print(
        f"reject H0 at alpha={result.alpha:g}: {'yes' if result.reject else 'no'}"
    )
    outputs = []
    if args.out:
        write_text(args.out, format_test_csv(result, _manifest_name(args)))
        outputs.append(args.out)
    _finish_manifest(args, "test", seed, outputs)
    return 0


def cmd_power(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    null = ErdosRenyi(args.v, args.null_p)
    extra = {}
    if args.alt == "er":
        alternatives = [ErdosRenyi(args.v, p) for p in args.sweep]
    elif args.alt == "modified-er":
        if args.q is None:
            raise ValueError("--alt modified-er requires --q")
        pairs = select_modified_pairs(args.v, args.q, rng)
        extra["modified_pairs"] = sorted(pairs)
        alternatives = [
            ModifiedErdosRenyi(args.v, args.null_p, p, pairs) for p in args.sweep
        ]
    else:
        if args.stats is None or args.theta1 is None:
            raise ValueError("--alt ergm requires --stats and --theta1")
        mcmc = _mcmc_from_args(args)
        alternatives = [
            Ergm(args.v, _STATS_FLAGS[args.stats], (args.theta1, t2), mcmc)
            for t2 in args.sweep
        ]
    points = power_curve(
        null,
        alternatives,
        args.n,
        args.replications,
        alpha=args.alpha,
        R_quantile=args.quantile_replications,
        rng=rng,
        baseline_bonferroni=args.baseline == "bonferroni",
        threads=args.threads,
    )
    if args.baseline:
        print("param      power_w    power_bc")
    else:
        print("param      power_w")
    for p in points:
        line = f"{p.parameter:<10g} {p.power:<10g}"
        if p.power_baseline is not None:
            line += f" {p.power_baseline:<10g}"
        print(line)
    outputs = []
    if args.out:
        write_text(args.out, format_power_csv(points, _manifest_name(args)))
        outputs.append(args.out)
    _finish_manifest(args, "power", seed, outputs, **extra)
    return 0


def cmd_density_sweep(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    mcmc = _mcmc_from_args(args)
    specs = [
        Ergm(args.v, _STATS_FLAGS[args.stats], (args.theta1, t2), mcmc)
        for t2 in args.sweep
    ]
    points = edge_density_sweep(specs, args.draws, mcmc, rng)
    print("theta1     theta2     density")
    for p in points:
        print(f"{p.theta1:<10g} {p.theta2:<10g} {p.density:<10g}")
    outputs = []
    if args.out:
        write_text(args.out, format_density_csv(points, _manifest_name(args)))
        outputs.append(args.out)
    _finish_manifest(args, "density-sweep", seed, outputs)
    return 0


def cmd_build_graphs(args) -> int:
    window = WindowSpec(width_ms=args.width_ms, step_ms=args.step_ms)
    channels = read_channel_csv(args.input, args.sampling_rate)
    series = correlation_series(channels, window)
    thresholds = ThresholdSpec.from_series(series, c=args.c)
    sample = build_graphs(series, thresholds)
    text = format_graph_sample(sample, args.base, _manifest_name(args))
    diagnostics = (
        f"{channels.n_channels} channels, {channels.n_samples} samples -> "
        f"{series.n_windows} windows; "
        f"{len(series.undefined)} undefined correlation(s) set to 0"
    )
    if args.out:
        write_text(args.out, text)
        print(f"wrote {sample.n} graphs to {args.out}")
        print(diagnostics)
        outputs = [args.out]
    else:
        print(text, end="")
        print(diagnostics, file=sys.stderr)
        outputs = []
    _finish_manifest(args, "build-graphs", None, outputs)
    return 0


def cmd_summary(args) -> int:
    sample = read_graph_sample(args.sample)
    result = summary_graph(sample, args.k)
    text = format_summary_csv(result, args.base, _manifest_name(args))
    outputs = _emit(
        args, text, f"wrote {len(result.frequencies)} edges to {args.out}"
    )
    _finish_manifest(args, "summary", None, outputs)
    return 0


def _add_output_flags(p, seed: bool = True, threads: bool = False) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    if threads:
        p.add_argument(
            "--threads", type=int, default=1, help="worker threads (default 1)"
        )
    p.add_argument("--out", default=None, help="write machine output here")
    p.add_argument("--manifest", default=None, help="write a JSON run manifest here")


def _add_model_flags(p, flag: str, choices, required: bool = False) -> None:
    p.add_argument(flag, choices=choices, default=None, required=required)
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--p0", type=float, default=None, help="unmodified edge probability")
    p.add_argument("--q", type=float, default=None, help="fraction of pairs modified")
    p.add_argument("--stats", choices=sorted(_STATS_FLAGS), default=None)
    p.add_argument("--theta1", type=float, default=None, help="edge parameter")
    p.add_argument("--theta2", type=float, default=None, help="structure parameter")
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--thinning", type=int, default=10)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphtest",
        description="Nonparametric hypothesis tests for samples of graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a graph sample from a model")
    p.add_argument("--v", type=int, required=True, help="number of vertices")
    p.add_argument("--n", type=int, required=True, help="sample size")
    _add_model_flags(p, "--model", ["er", "modified-er", "ergm"], required=True)
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("test", help="one-sample or two-sample test")
    p.add_argument("--sample", required=True, help="graph-sample file")
    p.add_argument("--sample2", default=None, help="second file (two-sample mode)")
    _add_model_flags(p, "--null", ["er", "ergm"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--replications", type=int, default=10000, help="null quantile draws"
    )
    p.add_argument(
        "--permutations", type=int, default=1000, help="two-sample permutations"
    )
    p.add_argument(
        "--strict-ties",
        action="store_true",
        help="count only permutations strictly above the observed statistic",
    )
    p.add_argument(
        "--smoothing",
        action="store_true",
        help="use the add-one permutation p-value (1+count)/(1+R)",
    )
    _add_output_flags(p, threads=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("power", help="power curve over a parameter sweep")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="sample size per test")
    p.add_argument("--null-p", type=float, default=0.5, help="null edge probability")
    p.add_argument("--alt", choices=["er", "modified-er", "ergm"], required=True)
    p.add_argument(
        "--sweep",
        type=_float_list,
        required=True,
        help="comma-separated alternative parameter values "
        "(write --sweep=-0.4,0.1 when the list starts with a minus)",
    )
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--stats", choices=sorted(_STATS_FLAGS), default=None)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--thinning", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--replications", type=int, default=2000, help="samples per grid point"
    )
    p.add_argument("--quantile-replications", type=int, default=10000)
    p.add_argument("--baseline", choices=["bonferroni"], default=None)
    _add_output_flags(p, threads=True)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("density-sweep", help="ERGM edge density over a theta grid")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--stats", choices=sorted(_STATS_FLAGS), required=True)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument(
        "--sweep",
        type=_float_list,
        required=True,
        help="theta2 grid values "
        "(write --sweep=-0.4,0.1 when the list starts with a minus)",
    )
    p.add_argument("--draws", type=int, default=200, help="chain draws per point")
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--thinning", type=int, default=10)
    _add_output_flags(p)
    p.set_defaults(func=cmd_density_sweep)

    p = sub.add_parser("build-graphs", help="graphs from a multichannel recording")
    p.add_argument("--input", required=True, help="channel CSV file")
    p.add_argument(
        "--sampling-rate", type=float, required=True, help="samples per second"
    )
    p.add_argument("--width-ms", type=float, default=333.0)
    p.add_argument("--step-ms", type=float, default=16.66)
    p.add_argument("--c", type=float, default=0.5, help="correlation threshold")
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_output_flags(p, seed=False)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("summary", help="most frequent edges of a sample")
    p.add_argument("--sample", required=True, help="graph-sample file")
    p.add_argument("--k", type=int, default=30, help="number of edges to keep")
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_output_flags(p, seed=False)
    p.set_defaults(func=cmd_summary)

    return parser


# Exit code of each error, taken from the first entry that matches. Every
# library error is a ValueError, so plain ValueError comes last.
_EXIT_CODES = (
    ((DataFormatError, DimensionMismatchError, EmptySampleError,
      InsufficientSampleError), 3),
    ((ConfigurationError, EnumerationRefusedError, UndefinedCorrelationError), 4),
    ((OSError,), 3),
    ((ValueError,), 2),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(e, types))


if __name__ == "__main__":
    sys.exit(main())
