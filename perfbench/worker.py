"""Run one iteration of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON

The plan lists CLI argument vectors. The worker imports ``graphtest.cli``
from the checkout's ``src`` directory, builds its parser once through
``--version`` (the cost every CLI call pays), then runs each command through
``graphtest.cli.main`` in-process. With ``"trace": true`` in the plan, the
modules' public functions are wrapped in span recorders first. The result
file holds the moment set-up finished, each command's start, end and
outcome, peak resident memory and, when traced, the spans. Moments are on
the system-wide monotonic clock, which ``probe.py`` shares.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _ready() -> float:
    """Import the CLI and build its parser; return the monotonic time after."""
    sys.path.insert(0, str(SRC))
    import graphtest.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            graphtest.cli.main(["--version"])
        except SystemExit:
            pass
    return time.monotonic()


def _run(argv: list[str], tracer) -> dict:
    import graphtest.cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    span = tracer.open("cli.main", "cli") if tracer else None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = graphtest.cli.main(argv)
    except SystemExit as e:
        error = f"SystemExit({e.code!r})"
    except Exception as e:  # any failure of the program is a counted failure
        error = f"{type(e).__name__}: {e}"
    end = time.monotonic()
    if tracer:
        tracer.close(span)
    if error is None and code != 0:
        error = f"exit code {code}"
    return {"start": start, "end": end, "error": error,
            "stderr": err.getvalue()[-2000:]}


def main(plan_path: str, result_path: str) -> int:
    ready = _ready()
    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer(time.monotonic)
        spans.install(tracer)
    commands = [_run(argv, tracer) for argv in plan["commands"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ready": ready,
        "commands": commands,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.spans if tracer else None,
        "graphtest_file": sys.modules["graphtest"].__file__,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
