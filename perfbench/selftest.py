"""Show that every oracle accepts the real output and rejects a perturbed one.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each check kind the script
runs one case of the workload plans (seed 0) in-process, checks the real
output, then perturbs it (a value off by one part in 10^7, J off by one, the
larger Hensel root, a dropped row, passed=0, ...) and requires the check to
fail.  It also shows that a value printed as 14.999999999999995 for the
exact 15 with error_bound 0 passes the tolerance but is counted by
`meanvalue.inexact_zero_bound`.  Exits 1 if any oracle misbehaves.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path


def _rewrite(path, edit) -> None:
    """Apply edit(rows) to the data rows of a CSV, keeping comments and header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    table = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    header, rows = table[0], table[1:]
    edit(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text("\n".join(comments) + "\n" + buf.getvalue(), encoding="utf-8")


def _set(col, fn, row_index=0):
    def edit(rows):
        rows[row_index][col] = fn(rows[row_index][col])
    return edit


def _scaled(text: str) -> str:
    return repr(float(text) * (1 + 1e-7))


def _hensel_larger_root(case, stdout):
    p, K = case["check"]["p"], case["check"]["K"]
    return str(p**K - int(stdout))


def _perturbations(checks):
    """Per check kind: (description, edit of the CSV rows or of stdout)."""
    return {
        "mv": [("value * (1 + 1e-7)", _set(checks.VALUE, _scaled))],
        "transfer": [("passed = 0", _set(checks.TRANSFER_PASSED, lambda v: "0")),
                     ("real value * (1 + 1e-7)", _set(checks.VALUE, _scaled))],
        "vinogradov": [("J + 1", _set(checks.VINOGRADOV_J, lambda v: str(int(v) + 1)))],
        "vinogradov_fit": [("J + 1 at the last scale",
                            _set(checks.VINOGRADOV_J, lambda v: str(int(v) + 1), -1))],
        "hensel": [("the larger root p^K - xi", _hensel_larger_root),
                   ("xi + 1", lambda case, out: str(int(out) + 1))],
        "traces": [("Tr(alpha^3) + 1", _set(1, lambda v: str(int(v) + 1), 3))],
        "phase_system": [("a coefficient + 1", _set(3, lambda v: str(int(v) + 1)))],
        "domain_cells": [("last row dropped", lambda rows: rows.pop())],
        "counterexample": [("ratio at r=2 * (1 + 1e-7)", _set(checks.CX_RATIO, _scaled))],
    }


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import checks
    import run
    import sparsemv.cli as cli
    from child import run_case
    from workloads import WORKLOADS, build_plan

    bad = 0
    spec_path = root / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        pairs = [
            ("end_to_end", run.END_TO_END),
            ("per_layer", run.PER_LAYER),
            ("workloads", [(w, None) for w in WORKLOADS]),
        ]
        for key, expected in pairs:
            listed = [(m["name"], m.get("unit")) for m in spec[key]]
            if listed != [(n, u) for n, u in expected]:
                print(f"BENCHMARK.json {key} does not match perfbench/run.py")
                bad += 1

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    perturb = _perturbations(checks)
    try:
        seen = {}
        for name in WORKLOADS:
            for case in build_plan(name, 0, tmp)["cases"]:
                seen.setdefault(case["check"]["kind"], case)
        for kind, case in sorted(seen.items()):
            _, code, stdout = run_case(cli, case)
            checks.check_case(case, code, stdout)
            original = Path(case["out"]).read_bytes() if kind != "hensel" else b""
            for what, edit in perturb[kind]:
                out = stdout
                if kind == "hensel":
                    out = edit(case, stdout)
                else:
                    Path(case["out"]).write_bytes(original)
                    _rewrite(case["out"], edit)
                try:
                    checks.check_case(case, code, out)
                except checks.CheckFailure as exc:
                    print(f"ok   {kind:15s} rejects {what}: {exc}")
                else:
                    print(f"FAIL {kind:15s} accepted {what} ({case['id']})")
                    bad += 1

        case = next(c for c in build_plan("cli-mix", 0, tmp)["cases"]
                    if c["shape"] == "mv-padic-p3K1-ones")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(case["argv"])
        _rewrite(case["out"], _set(checks.VALUE, lambda v: "15.0"))
        clean = checks.check_case(case, code, "")
        _rewrite(case["out"], _set(checks.VALUE, lambda v: "14.999999999999995"))
        counted = checks.check_case(case, code, "")
        status = "ok  " if (clean, counted) == (0, 1) else "FAIL"
        bad += status == "FAIL"
        print(f"{status} inexact_zero_bound counts 14.999999999999995 for the exact 15 "
              f"(counted {counted}) and not 15.0 (counted {clean})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest:", "all oracles behave" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
