"""sparsemv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  The run generates the workload's inputs and oracle values from the
seed, then starts measuring processes one after another (perfbench/child.py),
each a fresh interpreter calling `sparsemv.cli.main(argv)` in a closed loop
with `--threads 1`.

--trace 0: three untraced processes share the S seconds, and four more
    only set up; prints every end-to-end metric.
--trace 1: one untraced and one traced process share them; prints every
    per-layer metric, averaged per batch (one pass over the case list).

Human-readable lines come first; the last stdout line is the JSON result.
Scratch files live under ./.perfbench_work and the traced run's spans are
kept there as JSON lines.  Exits 2 without a result when the checkout has no
package to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNTRACED_PROCESSES = 3
SETUP_ONLY_PROCESSES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("case_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

PER_LAYER = (
    ("meanvalue.self_s", "s"),
    ("meanvalue.grid_terms", "count"),
    ("meanvalue.cells", "count"),
    ("meanvalue.offsets", "count"),
    ("meanvalue.inexact_zero_bound", "count"),
    ("exact.self_s", "s"),
    ("exact.tree_sum.calls", "count"),
    ("exact.tree_sum.self_s", "s"),
    ("exact.tree_sum.elements", "count"),
    ("exact.modulus_power.self_s", "s"),
    ("exact.modulus_power.elements", "count"),
    ("exact.root_table.entries", "count"),
    ("exact.root_table.bytes", "bytes"),
    ("exact.unit_root.calls", "count"),
    ("numberfield.self_s", "s"),
    ("numberfield.evaluate.calls", "count"),
    ("numberfield.evaluate.self_s", "s"),
    ("numberfield.field_multiply.calls", "count"),
    ("numberfield.field_multiply.self_s", "s"),
    ("numberfield.expand_trace_phase.calls", "count"),
    ("numberfield.expand_trace_phase.self_s", "s"),
    ("vinogradov.self_s", "s"),
    ("vinogradov.count_solutions.self_s", "s"),
    ("vinogradov.count_solutions.keys", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.tensor_offsets.self_s", "s"),
    ("quadrature.tensor_offsets.nodes", "count"),
    ("domains.self_s", "s"),
    ("domains.emit_cell_csv.self_s", "s"),
    ("domains.emit_cell_csv.rows", "count"),
    ("domains.build_domain.calls", "count"),
    ("csvio.self_s", "s"),
    ("csvio.write_csv.self_s", "s"),
    ("csvio.write_csv.bytes", "bytes"),
    ("csvio.load_coefficients_csv.self_s", "s"),
    ("counterexample.self_s", "s"),
    ("counterexample.sum_norm.self_s", "s"),
    ("counterexample.sum_norm.terms", "count"),
    ("padic.self_s", "s"),
    ("padic.hensel_sqrt_minus_one.self_s", "s"),
    ("padic.is_prime.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def measure(root: Path, plan_path: Path, tmp: Path, tag: str, share: float,
            min_batches: int, trace: bool, spans: Path | None = None) -> dict:
    """Run one measuring process; returns its result with `setup_s` added."""
    result_path = tmp / f"result-{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path),
           repr(share), str(min_batches), "1" if trace else "0"]
    if spans is not None:
        cmd.append(str(spans))
    with open(tmp / f"stderr-{tag}.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=root)
        watchdog = threading.Timer(share + 150.0, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        tail = (tmp / f"stderr-{tag}.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"measuring process {tag} exited {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = ready - start
    return result


def tail_min_batches(plan: dict) -> int:
    """Batches needed for ten pooled cases beyond the tail percentile."""
    beyond = 1.0 - plan["tail_pct"] / 100.0
    return math.ceil(math.ceil(10.0 / beyond + 1.0) / len(plan["cases"]))


def batch_time(batches: list[list[float]]) -> float:
    """Upper quartile of the batch times.

    On a shared host the measuring process runs at one sustained speed with
    bursts of up to 40% faster lasting seconds.  The median mixes the two:
    over six cli-mix runs its quartile spread was 13%, the upper quartile's 3%.
    """
    return statistics.quantiles([sum(b) for b in batches], n=4, method="inclusive")[2]


def end_to_end(results: list[dict], setup_only: list[dict], plan: dict) -> tuple[dict, str]:
    batches = [b for r in results for b in r["batches"]]
    cases = [t for b in batches for t in b]
    pct = plan["tail_pct"]
    setups = [r["setup_s"] for r in setup_only + results]
    attempted = sum(r["attempted"] for r in setup_only + results)
    failed = sum(len(r["failures"]) for r in setup_only + results)
    values = {
        "setup_s": statistics.median(setups),
        "batch_s": batch_time(batches),
        "case_tail_s": statistics.quantiles(cases, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "pass_ratio": (attempted - failed) / attempted,
    }
    beyond = sum(1 for t in cases if t > values["case_tail_s"])
    shapes = [case["shape"] for case in plan["cases"]]
    per_shape = sorted(
        (statistics.median(b[i] for b in batches), shape) for i, shape in enumerate(shapes))
    note = "\n".join(
        [f"setup_s is the median of {len(setups)} fresh processes",
         f"{len(batches)} batches of {len(shapes)} cases, {len(cases)} case samples; "
         f"case_tail_s is p{pct} ({beyond} samples beyond it)"]
        + [f"  median {t:.4f} s  {shape}" for t, shape in per_shape])
    return values, note


def per_layer(untraced: dict, traced: dict) -> dict:
    n = len(traced["batches"])
    layers = traced["layers"]
    values = {name: layers.get(name, 0) / n for name, _ in PER_LAYER}
    values["meanvalue.inexact_zero_bound"] = sum(traced["inexact_zero_bound"]) / n
    values["trace_overhead_ratio"] = (
        batch_time(traced["batches"]) / batch_time(untraced["batches"]) - 1.0)
    return values


def machine() -> str:
    import numpy

    return (f"{os.cpu_count()} cores ({platform.machine()}), "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{platform.system()} {platform.release()}")


def main(argv=None) -> int:
    from workloads import WORKLOADS, build_plan

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sparsemv" / "__init__.py").is_file():
        print(f"error: no sparsemv package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    compileall.compile_dir(str(src / "sparsemv"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        plan = build_plan(args.workload, args.seed, tmp)
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        print(f"machine: {machine()}")
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{len(plan['cases'])} cases per batch, closed loop, one client, "
              f"--threads 1")
        if args.trace:
            share = args.seconds / 2
            untraced = measure(root, plan_path, tmp, "untraced", share, 1, False)
            spans = work / f"spans-{args.workload}.jsonl"
            traced = measure(root, plan_path, tmp, "traced", share, 1, True, spans)
            results = [untraced, traced]
            metrics, units = per_layer(untraced, traced), PER_LAYER
            print(f"traced {len(traced['batches'])} batches; spans -> {spans}")
        else:
            share = args.seconds / UNTRACED_PROCESSES
            min_batches = math.ceil(tail_min_batches(plan) / UNTRACED_PROCESSES)
            setup_only = [measure(root, plan_path, tmp, f"setup{i}", 0.0, 0, False)
                          for i in range(SETUP_ONLY_PROCESSES)]
            measured = [measure(root, plan_path, tmp, f"run{i}", share, min_batches, False)
                        for i in range(UNTRACED_PROCESSES)]
            results = setup_only + measured
            metrics, note = end_to_end(measured, setup_only, plan)
            units = END_TO_END
            print(note)
            inexact = [n for r in measured for n in r["inexact_zero_bound"]]
            print(f"meanvalue.inexact_zero_bound per batch: {max(inexact)} "
                  "(rows reporting error_bound 0 whose value is not the exact integer)")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units:
        print(f"{name} = {metrics[name]!r} {unit}")
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
