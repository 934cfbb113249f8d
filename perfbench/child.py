"""One measuring process: a closed loop over a workload's cases.

Usage (started by run.py):
    python3 perfbench/child.py PLAN RESULT SHARE_S MIN_BATCHES TRACE [SPANS]

The process imports `sparsemv`, runs and checks the warm-up cases, then
writes "ready" on stdout; the parent times set-up up to that line.  It then
calls `sparsemv.cli.main(argv)` for one case after another, a batch being
the plan's whole case list, and starts another batch while the time spent
plus one mean batch fits in SHARE_S seconds (at least MIN_BATCHES).  Each
output is checked after its case's timing window closes.  With TRACE=1 the
layer spans are installed after the warm-up and summarised per batch.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_case(cli, case):
    """Time one in-process CLI call; returns (wall seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case["argv"]))
    except Exception as exc:  # a crash is a failed case, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def main(argv):
    plan_path, result_path, share, min_batches, trace = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    share, min_batches, trace = float(share), int(min_batches), trace == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import sparsemv.cli as cli
    from checks import CheckFailure, check_case

    failures = []

    def checked(case, code, stdout):
        try:
            return check_case(case, code, stdout)
        except (CheckFailure, OSError, ValueError, IndexError) as exc:
            failures.append(f"{case['id']}: {exc}")
            return 0

    for case in plan["warmup"]:
        _, code, stdout = run_case(cli, case)
        checked(case, code, stdout)
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    batches, inexact = [], []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(batches) >= min_batches and (
                not batches or elapsed * (len(batches) + 1) / len(batches) > share):
            break
        times, n_inexact = [], 0
        for case in plan["cases"]:
            seconds, code, stdout = run_case(cli, case)
            times.append(seconds)
            n_inexact += checked(case, code, stdout)
        batches.append(times)
        inexact.append(n_inexact)

    result = {
        "batches": batches,
        "inexact_zero_bound": inexact,
        "attempted": len(plan["warmup"]) + sum(len(b) for b in batches),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
