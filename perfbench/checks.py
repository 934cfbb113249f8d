"""Compare one case's outputs with the expectations computed by `oracles`.

This module runs in the measuring process after each case's timing window,
so it does plain comparisons only and imports nothing from the package.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path

# Column positions of the CLI's CSV schemas (see the README's CLI section).
VALUE, ERROR_BOUND = 7, 10
TRANSFER_PASSED = 13
VINOGRADOV_J, FIT_SLOPE = 5, 9
CX_R, CX_SUM_NORM, CX_RATIO = 3, 5, 6


class CheckFailure(Exception):
    """An output disagrees with its oracle."""


def data_rows(path) -> list[list[str]]:
    """CSV rows after the '#' comment lines and the header row."""
    text = Path(path).read_text(encoding="utf-8")
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    return rows[1:]


def _close(got: float, want: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * max(abs(want), 1e-300):
        raise CheckFailure(f"{what}: got {got!r}, oracle {want!r} (rtol {rtol})")


def _count(rows, n: int, what: str) -> None:
    if len(rows) != n:
        raise CheckFailure(f"{what}: {len(rows)} rows, expected {n}")


def _mv(spec, rows, stdout) -> int:
    _count(rows, len(spec["rows"]), "mean-value rows")
    inexact = 0
    for i, (row, want) in enumerate(zip(rows, spec["rows"])):
        got = float(row[VALUE])
        if want["exact"] is not None:
            exact = int(want["exact"])
            _close(got, float(exact), spec["rtol"], f"row {i} value")
            if float(row[ERROR_BOUND]) == 0.0 and Fraction(row[VALUE]) != exact:
                inexact += 1
        _close(got, want["value"], spec["rtol"], f"row {i} value")
    return inexact


def _transfer(spec, rows, stdout) -> int:
    _count(rows, len(spec["real_values"]), "transfer-check rows")
    for i, (row, want) in enumerate(zip(rows, spec["real_values"])):
        if row[TRANSFER_PASSED] != "1":
            raise CheckFailure(f"transfer-check row {i} has passed={row[TRANSFER_PASSED]}")
        _close(float(row[VALUE]), want, spec["rtol"], f"row {i} real value")
    return 0


def _vinogradov(spec, rows, stdout) -> int:
    got = [row[VINOGRADOV_J] for row in rows]
    if got != spec["J"]:
        raise CheckFailure(f"J {got} != exact count {spec['J']}")
    return 0


def _vinogradov_fit(spec, rows, stdout) -> int:
    _vinogradov(spec, rows, stdout)
    for row in rows:
        _close(float(row[FIT_SLOPE]), spec["slope"], spec["rtol"], "growth slope")
    return 0


def _hensel(spec, rows, stdout) -> int:
    p, K = spec["p"], spec["K"]
    xi = int(stdout.strip())
    modulus = p**K
    if not 0 <= xi < modulus or (xi * xi + 1) % modulus:
        raise CheckFailure(f"xi={xi} is not a square root of -1 mod {p}^{K}")
    base = xi % p
    if base > p - base:
        raise CheckFailure(f"xi={xi} lifts the larger root {base} mod {p}")
    return 0


def _traces(spec, rows, stdout) -> int:
    got = [Fraction(row[1]) for row in rows]
    if got != [Fraction(v) for v in spec["values"]]:
        raise CheckFailure(f"traces {got} != companion-matrix traces")
    return 0


def _phase_system(spec, rows, stdout) -> int:
    comps: dict[str, list] = {}
    for j, ell, multi, coeff, scale in rows:
        exps = [int(e) for e in multi.split("-")]
        comps.setdefault(f"{j}-{ell}", []).append((exps, int(coeff), Fraction(scale)))
    if sorted(comps) != sorted(spec["raw"]):
        raise CheckFailure(f"components {sorted(comps)} != {sorted(spec['raw'])}")
    for key, terms in comps.items():
        for pt, want in zip(spec["points"], spec["raw"][key]):
            value = Fraction(0)
            for exps, coeff, scale in terms:
                mono = coeff * scale
                for x, e in zip(pt, exps):
                    mono *= x**e
                value += mono
            if value != Fraction(want):
                raise CheckFailure(f"component {key} at {pt}: {value} != trace {want}")
    return 0


def _domain_cells(spec, rows, stdout) -> int:
    _count(rows, spec["rows"], "domain-cells")
    return 0


def _counterexample(spec, rows, stdout) -> int:
    _count(rows, len(spec["rows"]), "counterexample rows")
    for i, (row, want) in enumerate(zip(rows, spec["rows"])):
        _close(float(row[CX_SUM_NORM]), want["sum_norm"], spec["rtol"], f"row {i} sum_norm")
        _close(float(row[CX_RATIO]), want["ratio"], spec["rtol"], f"row {i} ratio")
        if float(row[CX_R]) == 2.0:
            _close(float(row[CX_RATIO]), 1.0, spec["rtol"], f"row {i} ratio at r=2")
    return 0


_KINDS = {
    "mv": _mv,
    "transfer": _transfer,
    "vinogradov": _vinogradov,
    "vinogradov_fit": _vinogradov_fit,
    "hensel": _hensel,
    "traces": _traces,
    "phase_system": _phase_system,
    "domain_cells": _domain_cells,
    "counterexample": _counterexample,
}


def check_case(case: dict, exit_code, stdout: str) -> int:
    """Raise CheckFailure unless the case succeeded and matches its oracle.

    Returns the number of rows that report error_bound 0 although their
    value is not the exact integer the oracle computed.
    """
    if exit_code != 0:
        raise CheckFailure(f"exit code {exit_code}")
    spec = case["check"]
    rows = [] if spec["kind"] == "hensel" else data_rows(case["out"])
    return _KINDS[spec["kind"]](spec, rows, stdout)
