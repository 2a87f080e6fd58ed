"""Command-line interface: sampling, testing, power sweeps, time-series graphs.

Subcommands: sample, test, power, density-sweep, build-graphs, summary. Every
subcommand runs through ``_run``, in one of two output styles:

- ``sample``, ``summary`` and ``build-graphs`` write their data to ``--out``
  and print a "wrote ..." line, or else print the data to stdout.
  ``build-graphs`` also prints a diagnostics line: after the "wrote" line
  with ``--out``, and to stderr without it.
- ``test``, ``power`` and ``density-sweep`` always print a human-readable
  report, and write their CSV only to ``--out``.

Every randomized command takes ``--seed`` and is byte-reproducible from
(seed, flags); ``--manifest PATH`` additionally records the run as JSON, and
``_run`` then puts a ``# manifest: <name>`` comment naming it on line 1 of
the machine output, whether that goes to ``--out`` or to stdout. The
serializers of ``formats`` write data only.
No flag sets parallelism: every command runs on the calling thread, Monte
Carlo blocks one after another (see ``inference``).

The flags whose use depends on the mode of a run (the choice of ``--model``,
``--null`` or ``--alt``, and one- or two-sample ``test``) are listed once, in
``_READS``, with their defaults. A flag the run does not read is a usage
error, as is a missing flag it needs; the manifest records an unread flag as
null. Every ERGM draw is exact (independent draws from the model's law, by
enumeration or by coupling from the past, after Propp & Wilson 1996 and
Häggström & Nelander 1998; see ``models``), so no run reads a sampler
schedule: runs that draw an ERGM still accept ``--burn-in`` and
``--thinning``, so that existing command lines keep working, and every
manifest records both as null.

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 refused
configuration (for example exact enumeration above the size cap, an ERGM
whose coupling from the past does not meet within its sweep cap, or a
request too large for memory).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

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
    ModifiedErdosRenyi,
    edge_density_sweep,
    select_modified_pairs,
)
from .timeseries import (
    ThresholdSpec,
    WindowSpec,
    _check_c,
    build_graphs,
    correlation_series,
    summary_graph,
)

_STATS_FLAGS = {"edge-triangle": EDGE_TRIANGLE, "edge-2-star": EDGE_TWO_STAR}

# Flags that ERGM runs accept and no run reads (see the module docstring).
_SCHEDULE = ("burn_in", "thinning")

# The flags a run reads, by mode: a choice of --model, --null or --alt,
# test's one- or two-sample mode, or power, which reads --replications
# whatever --alt is. Each flag maps to its default, or to None where every
# subcommand that declares it requires it. argparse leaves these flags None
# unless given, so a run can refuse each one it does not read.
_READS = {
    "er": {"p": None},
    "modified-er": {"p0": None, "p": None, "q": None},
    "ergm": {"stats": None, "theta1": None, "theta2": None, **dict.fromkeys(_SCHEDULE)},
    "one-sample": {"null": None, "replications": 10000},
    "two-sample": {"permutations": 1000, "strict_ties": False, "smoothing": False},
    "power": {"replications": 2000},
}


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {text!r}"
        ) from None


@dataclass(frozen=True)
class _Output:
    """What a subcommand computed, for ``_run`` to route in one of the two
    output styles: commands with a ``report``, and data commands whose
    ``--out`` file is announced as "wrote <wrote> to <path>". ``text`` is the
    machine output, to which ``_run`` adds the manifest comment.
    """

    text: str
    report: list[str] | None = None
    wrote: str = ""
    note: str | None = None
    extra: dict = field(default_factory=dict)


def _modes(args) -> tuple[str, list[str]]:
    """This run as usage errors name it, and the modes of _READS it is in."""
    if getattr(args, "sample2", None) is not None:
        return "two-sample test", ["two-sample"]
    label = "one-sample test" if args.command == "test" else args.command
    own = {"test": ["one-sample"], "power": ["power"], "density-sweep": ["ergm"]}
    modes = own.get(args.command, [])
    for flag in ("model", "null", "alt"):
        if getattr(args, flag, None) is not None:
            label += f" --{flag} {getattr(args, flag)}"
            modes.append(getattr(args, flag))
    return label, modes


def _resolve_flags(args) -> None:
    """Fill in the defaults of the flags of _READS that this run reads; then
    a usage error for each read flag its subcommand declares that is still
    unset, and for each flag the run was given and does not read. The
    _SCHEDULE flags are never required, and are cleared once accepted."""
    label, modes = _modes(args)
    reads = {name: d for mode in modes for name, d in _READS[mode].items()}
    for name, default in reads.items():
        if name in args and getattr(args, name) is None:
            setattr(args, name, default)

    def flags(names) -> str:
        return ", ".join(f"--{name.replace('_', '-')}" for name in names)

    missing = [name for name in reads if name in args and name not in _SCHEDULE
               and getattr(args, name) is None]
    if missing:
        raise ValueError(f"{label} requires {flags(missing)}")
    unread = [
        name
        for name in dict.fromkeys(n for row in _READS.values() for n in row)
        if name not in reads and getattr(args, name, None) is not None
    ]
    if unread:
        raise ValueError(f"{label} does not read {flags(unread)}")
    for name in _SCHEDULE:
        if name in args:
            setattr(args, name, None)


def _models(kind: str, v: int, args, rng: np.random.Generator, values, p0=None):
    """One model of ``kind`` per value of its parameter: p for er and
    modified-er, theta2 for ergm, whose other parameters come from flags. A
    modified-er draws its pair subset from rng first, once, and sets every
    other pair to p0."""
    if kind == "er":
        return [ErdosRenyi(v, p) for p in values]
    if kind == "modified-er":
        pairs = select_modified_pairs(v, args.q, rng)
        return [ModifiedErdosRenyi(v, p0, p, pairs) for p in values]
    # The flags' choices leave only ergm.
    return [Ergm(v, _STATS_FLAGS[args.stats], (args.theta1, t2)) for t2 in values]


def _table(names, rows) -> list[str]:
    """A report: the column names, then one line per row, in columns of 10."""
    lines = [" ".join(f"{name:<10}" for name in names).rstrip()]
    return lines + [" ".join(f"{x:<10g}" for x in row) for row in rows]


def cmd_sample(args, rng) -> _Output:
    value = args.theta2 if args.model == "ergm" else args.p
    (model,) = _models(args.model, args.v, args, rng, [value], args.p0)
    sample = model.sample(args.n, rng)
    return _Output(
        format_graph_sample(sample, args.base),
        wrote=f"{sample.n} graphs on {sample.v} vertices",
        extra={"model": model.describe()},
    )


def cmd_test(args, rng) -> _Output:
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
        extra = {}
    else:
        value = args.theta2 if args.null == "ergm" else args.p
        (null,) = _models(args.null, s.v, args, rng, [value])
        result = one_sample_test(s, null, alpha=args.alpha, R=args.replications, rng=rng)
        extra = {}
    result = replace(result, seed=args.seed)

    report = [f"method: {result.method}"]
    if result.statistic is not None:
        report.append(f"W = {result.statistic.value:.6g}")
    if result.critical_value is not None:
        report.append(f"critical value = {result.critical_value:.6g}")
    if result.p_value is not None:
        report.append(f"p-value = {result.p_value:.6g}")
    report.append(
        f"reject H0 at alpha={result.alpha:g}: {'yes' if result.reject else 'no'}"
    )
    return _Output(format_test_csv(result), report, extra=extra)


def cmd_power(args, rng) -> _Output:
    null = ErdosRenyi(args.v, args.null_p)
    alternatives = _models(args.alt, args.v, args, rng, args.sweep, args.null_p)
    points = power_curve(
        null,
        alternatives,
        args.n,
        args.replications,
        alpha=args.alpha,
        R_quantile=args.quantile_replications,
        rng=rng,
        baseline_bonferroni=args.baseline == "bonferroni",
    )
    names = ["param", "power_w"] + (["power_bc"] if args.baseline else [])
    rows = [(p.parameter, p.power, p.power_baseline)[: len(names)] for p in points]
    extra = {}
    if args.alt == "modified-er":
        extra["modified_pairs"] = sorted(alternatives[0].modified_pairs)
    return _Output(format_power_csv(points), _table(names, rows), extra=extra)


def cmd_density_sweep(args, rng) -> _Output:
    models = _models("ergm", args.v, args, rng, args.sweep)
    points = edge_density_sweep(models, args.draws, rng)
    rows = [(p.theta1, p.theta2, p.density) for p in points]
    return _Output(
        format_density_csv(points), _table(["theta1", "theta2", "density"], rows)
    )


def cmd_build_graphs(args, rng) -> _Output:
    window = WindowSpec(width_ms=args.width_ms, step_ms=args.step_ms)
    _check_c(args.c)
    channels = read_channel_csv(args.input, args.sampling_rate)
    series = correlation_series(channels, window)
    thresholds = ThresholdSpec.from_series(series, c=args.c)
    sample = build_graphs(series, thresholds)
    return _Output(
        format_graph_sample(sample, args.base),
        wrote=f"{sample.n} graphs",
        note=(
            f"{channels.n_channels} channels, {channels.n_samples} samples -> "
            f"{series.n_windows} windows; "
            f"{len(series.undefined)} undefined correlation(s) set to 0"
        ),
    )


def cmd_summary(args, rng) -> _Output:
    sample = read_graph_sample(args.sample)
    result = summary_graph(sample, args.k)
    return _Output(
        format_summary_csv(result, args.base),
        wrote=f"{len(result.frequencies)} edges",
    )


def _run(args) -> int:
    """Run one subcommand: seed it, route its output, write the manifest.

    These fail before any work is done: a flag the run does not read, or a
    missing one it needs (``_resolve_flags``), and an --out or --manifest
    path in a missing directory, as opening it would.
    """
    _resolve_flags(args)
    for path in (args.out, args.manifest):
        if path:
            try:
                os.stat(os.path.dirname(path) or ".")
            except OSError as e:
                raise type(e)(e.errno, e.strerror, path) from None
    if "seed" in args and args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy)
    seed = getattr(args, "seed", None)
    rng = None if seed is None else np.random.default_rng(seed)
    out = args.func(args, rng)
    text = out.text
    if args.manifest:
        text = f"# manifest: {os.path.basename(args.manifest)}\n" + text
    if out.report is not None:
        print("\n".join(out.report))
    if args.out:
        write_text(args.out, text)
        if out.report is None:
            print(f"wrote {out.wrote} to {args.out}")
    elif out.report is None:
        print(text, end="")
    if out.note is not None:
        print(out.note, file=sys.stdout if args.out else sys.stderr)
    if args.manifest:
        params = {
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "command", "manifest")
        }
        params.update(out.extra, seed=seed)
        write_manifest(
            args.manifest,
            RunManifest(
                command=args.command,
                seed=seed,
                parameters=params,
                version=__version__,
                outputs=(os.path.basename(args.out),) if args.out else (),
            ),
        )
    return 0


def _add_common_flags(p, func, seed: bool = True) -> None:
    """The flags every subcommand shares, and the function ``_run`` calls for it."""
    p.set_defaults(func=func)
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--out", default=None, help="write machine output here")
    p.add_argument("--manifest", default=None, help="write a JSON run manifest here")


def _add_model_flags(p, flag: str, choices, required: bool = False) -> None:
    p.add_argument(flag, choices=choices, required=required)
    p.add_argument("--p", type=float, help="edge probability")
    _add_ergm_flags(p)
    p.add_argument("--theta2", type=float, help="structure parameter")


def _add_ergm_flags(p) -> None:
    p.add_argument("--stats", choices=sorted(_STATS_FLAGS))
    p.add_argument("--theta1", type=float, help="edge parameter")
    unread = "accepted and not read: every ERGM draw is exact"
    p.add_argument("--burn-in", type=int, help=unread)
    p.add_argument("--thinning", type=int, help=unread)


def _add_sweep_flag(p, values: str) -> None:
    p.add_argument(
        "--sweep",
        type=_float_list,
        required=True,
        help=f"comma-separated {values} "
        "(write --sweep=-0.4,0.1 when the list starts with a minus)",
    )


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
    # Only modified-er reads --p0 and --q, and of --model and --null only --model
    # offers it; power declares its own --q.
    p.add_argument("--p0", type=float, help="unmodified edge probability")
    p.add_argument("--q", type=float, help="fraction of pairs modified")
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_common_flags(p, cmd_sample)

    p = sub.add_parser("test", help="one-sample or two-sample test")
    p.add_argument("--sample", required=True, help="graph-sample file")
    p.add_argument("--sample2", default=None, help="second file (two-sample mode)")
    _add_model_flags(p, "--null", ["er", "ergm"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replications", type=int, help="null quantile draws")
    p.add_argument("--permutations", type=int, help="two-sample permutations")
    p.add_argument(
        "--strict-ties",
        action="store_const",
        const=True,
        help="count only permutations strictly above the observed statistic",
    )
    p.add_argument(
        "--smoothing",
        action="store_const",
        const=True,
        help="use the add-one permutation p-value (1+count)/(1+R)",
    )
    _add_common_flags(p, cmd_test)

    p = sub.add_parser("power", help="power curve over a parameter sweep")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="sample size per test")
    p.add_argument("--null-p", type=float, default=0.5, help="null edge probability")
    p.add_argument("--alt", choices=["er", "modified-er", "ergm"], required=True)
    _add_sweep_flag(p, "alternative parameter values")
    p.add_argument("--q", type=float)
    _add_ergm_flags(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replications", type=int, help="samples per grid point")
    p.add_argument("--quantile-replications", type=int, default=10000)
    p.add_argument("--baseline", choices=["bonferroni"], default=None)
    _add_common_flags(p, cmd_power)

    p = sub.add_parser("density-sweep", help="ERGM edge density over a theta grid")
    p.add_argument("--v", type=int, required=True)
    _add_ergm_flags(p)
    _add_sweep_flag(p, "theta2 grid values")
    p.add_argument("--draws", type=int, default=200, help="draws per point")
    _add_common_flags(p, cmd_density_sweep)

    p = sub.add_parser("build-graphs", help="graphs from a multichannel recording")
    p.add_argument("--input", required=True, help="channel CSV file")
    p.add_argument(
        "--sampling-rate", type=float, required=True, help="samples per second"
    )
    p.add_argument("--width-ms", type=float, default=WindowSpec.width_ms)
    p.add_argument("--step-ms", type=float, default=WindowSpec.step_ms)
    p.add_argument("--c", type=float, default=0.5, help="correlation threshold")
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_common_flags(p, cmd_build_graphs, seed=False)

    p = sub.add_parser("summary", help="most frequent edges of a sample")
    p.add_argument("--sample", required=True, help="graph-sample file")
    p.add_argument("--k", type=int, default=30, help="number of edges to keep")
    p.add_argument("--base", type=int, choices=[0, 1], default=0)
    _add_common_flags(p, cmd_summary, seed=False)

    return parser


# Exit code of each error, taken from the first entry that matches. Every
# library error is a ValueError, so plain ValueError comes last.
_EXIT_CODES = (
    ((DataFormatError, DimensionMismatchError, EmptySampleError,
      InsufficientSampleError), 3),
    ((ConfigurationError, EnumerationRefusedError, UndefinedCorrelationError,
      MemoryError), 4),
    ((OSError,), 3),
    ((ValueError,), 2),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, MemoryError) as e:
        # A bare MemoryError has no message; NumPy's names the refused size.
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(e, types))


if __name__ == "__main__":
    sys.exit(main())
