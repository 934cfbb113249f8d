"""The benchmark's workloads: fixed case shapes, inputs generated from the seed.

Every case is a `sparsemv` CLI argument list run in-process with
`--threads 1`.  The seed chooses the case order, the coefficient vectors
written as `--coeffs-file` CSVs, and the `--seed` values passed to the CLI;
the shapes (primes, scales, exponents, point counts) never change, so the
work per case does not depend on the seed.  Each case carries the expected
output computed by `oracles`, which the measuring process compares after the
case's timing window closes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

#: Per workload: why it exists, the tail percentile reported for its pooled
#: per-case times, and a salt that separates its random streams.  The tail
#: percentile sits inside one case shape's band of the pooled distribution
#: (so it does not flip between shapes from run to run), at or above the
#: middle of that band, and leaves at least ten cases beyond it at the
#: minimum sample count.  A band's lower part is where stretches of faster
#: host speed pull a shape's samples below its neighbour's: on
#: vinogradov-count the quartile spread over fourteen seeds was 9% at p90
#: (the middle of the slowest shape's band, p80-p100) and 4% at p94.
WORKLOADS = {
    "padic-grid": {
        "salt": 11,
        "tail_pct": 83,
        "why": "mv-padic on exact grids up to 531k cells: inner grid sums and "
               "a few large reductions dominate; FFT oracle at rtol 1e-9; "
               "case_tail_s is p83",
    },
    "transfer-gauss": {
        "salt": 23,
        "tail_pct": 70,
        "why": "transfer-check and Gauss mv-real: thousands of quadrature "
               "offsets over small cell grids, per-call reductions; FFT oracle "
               "at rtol 1e-9; case_tail_s is p70",
    },
    "vinogradov-count": {
        "salt": 37,
        "tail_pct": 94,
        "why": "vinogradov over Q, Q(i), Q(2^(1/3)): key building and "
               "counting only, no grid sum or tree_sum runs; J checked exactly; "
               "case_tail_s is p94",
    },
    "cli-mix": {
        "salt": 41,
        "tail_pct": 86,
        "why": "every other command at small scale: fixed per-call costs "
               "(CSV output, reduction floor, parsing) dominate; exact and FFT "
               "oracles; case_tail_s is p86",
    },
}


def component_degrees(d: int, k: int) -> list[int]:
    return [j for j in range(1, k + 1) for _ in range(d)]


def component_scales(minpoly: str, k: int) -> list[Fraction]:
    from sparsemv.numberfield import MinimalPolynomial, expand_trace_phase

    system = expand_trace_phase(MinimalPolynomial.parse(minpoly), k)
    return [c.scale for c in system.components]


class _Builder:
    """Accumulates the cases of one plan and the files they read."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        spec = WORKLOADS[name]
        self.rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), spec["salt"]])))
        self.cases: list[dict] = []
        self.warmup: list[dict] = []

    def cli_seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def add(self, shape: str, argv: list[str], check: dict, warmup: bool = False):
        target = self.warmup if warmup else self.cases
        case_id = f"{'w' if warmup else 'c'}{len(target):02d}-{shape}"
        out = str(self.workdir / f"{case_id}.csv")
        target.append({
            "id": case_id,
            "shape": shape,
            "argv": argv + ["--threads", "1", "--out", out],
            "out": out,
            "check": check,
        })

    def coefficients(self, tag: str, N: int, d: int, kind: str):
        """Write a coefficient CSV; returns (path, points, values).

        kind "phase": every point of [0, N)^d with a random unit phase.
        kind "sparse": a random half of the points (the count is fixed)
        carrying random units 1, i, -1, -i, so even-r values are integers.
        """
        pts = oracles.box_points(N, d)
        if kind == "phase":
            theta = self.rng.random(len(pts))
            values = np.exp(2j * np.pi * theta)
        else:
            size = (len(pts) + 1) // 2
            keep = np.sort(self.rng.choice(len(pts), size=size, replace=False))
            pts = [pts[i] for i in keep]
            values = np.array([1, 1j, -1, -1j])[self.rng.integers(0, 4, size)]
        path = self.workdir / f"coeffs-{tag}.csv"
        lines = ["# benchmark coefficients", "index,real,imag"]
        lines += [f"{'-'.join(map(str, pt))},{float(v.real)!r},{float(v.imag)!r}"
                  for pt, v in zip(pts, values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path), pts, values

    def plan(self) -> dict:
        order = self.rng.permutation(len(self.cases))
        return {
            "workload": self.name,
            "tail_pct": WORKLOADS[self.name]["tail_pct"],
            "warmup": self.warmup,
            "cases": [self.cases[i] for i in order],
        }


def _mv_check(rows: list[dict]) -> dict:
    return {"kind": "mv", "rows": rows, "rtol": oracles.RTOL}


def _padic_file_case(b: _Builder, shape, minpoly, k, p, K, r, kind, warmup=False):
    d = len(oracles.parse_minpoly(minpoly))
    sigma = [0] * (d * k)
    path, pts, values = b.coefficients(shape + "-" + kind, p**K, d, kind)
    rows = oracles.phases(minpoly, k, pts, component_scales(minpoly, k))
    expect = oracles.padic_mean(rows, values, p, K, component_degrees(d, k), sigma, r)
    argv = ["mv-padic", "--minpoly", minpoly, "--k", str(k), "--p", str(p),
            "--K", str(K), "--sigma", ",".join(map(str, sigma)), "--r", str(r),
            "--coeffs-file", path, "--seed", str(b.cli_seed())]
    b.add(f"{shape}-{kind}", argv, _mv_check([expect]), warmup)


def _padic_grid(b: _Builder):
    _padic_file_case(b, "parabola-p3K1", "0", 2, 3, 1, 4, "phase", warmup=True)
    shapes = [
        ("parabola-p3K4", "0", 2, 3, 4, 4, ("phase", "sparse")),
        ("parabola-p2K6", "0", 2, 2, 6, 5, ("phase", "sparse")),
        ("moment3-p3K2", "0", 3, 3, 2, 4, ("phase", "sparse")),
        ("qi-p7K1", "1,0", 2, 7, 1, 4, ("phase", "sparse")),
        ("q2cbrt-p3K1", "-2,0,0", 2, 3, 1, 3, ("phase",)),
    ]
    for shape, minpoly, k, p, K, r, kinds in shapes:
        for kind in kinds:
            _padic_file_case(b, shape, minpoly, k, p, K, r, kind)


def _transfer_case(b: _Builder, shape, k, p, K, sigma, r, vectors, warmup=False):
    seed = b.cli_seed()
    pts = oracles.box_points(p**K, 1)
    rows = oracles.phases("0", k, pts, [1] * k)
    degrees = component_degrees(1, k)
    real_values = [
        oracles.real_gauss_mean(
            rows, oracles.sampler_values("random-phase", len(pts), seed, draw),
            p, K, degrees, sigma, r)["value"]
        for draw in range(vectors)
    ]
    argv = ["transfer-check", "--k", str(k), "--p", str(p), "--K", str(K),
            "--sigma", ",".join(map(str, sigma)), "--r", str(r),
            "--sampler", "random-phase", "--vectors", str(vectors),
            "--seed", str(seed)]
    b.add(shape, argv, {"kind": "transfer", "real_values": real_values,
                        "rtol": oracles.RTOL}, warmup)


def _gauss_case(b: _Builder, shape, p, K, sigma_text, r, kind):
    sigma = [Fraction(s) for s in sigma_text.split(",")]
    path, pts, values = b.coefficients(shape + "-" + kind, p**K, 1, kind)
    rows = oracles.phases("0", 2, pts, [1, 1])
    expect = oracles.real_gauss_mean(rows, values, p, K, [1, 2], sigma, r)
    argv = ["mv-real", "--p", str(p), "--K", str(K), "--sigma", sigma_text,
            "--r", str(r), "--coeffs-file", path, "--seed", str(b.cli_seed())]
    b.add(f"{shape}-{kind}", argv, _mv_check([expect]))


def _transfer_gauss(b: _Builder):
    _transfer_case(b, "transfer-parabola-p3K1", 2, 3, 1, [0, 1], 4, 1, warmup=True)
    _transfer_case(b, "transfer-parabola-p3K2", 2, 3, 2, [0, 1], 4, 3)
    _transfer_case(b, "transfer-moment3-p3K1", 3, 3, 1, [0, 0, 1], 4, 3)
    _gauss_case(b, "gauss-p3K2", 3, 2, "0,1/2", 3, "phase")
    _gauss_case(b, "gauss-p3K2", 3, 2, "0,1/2", 3, "sparse")
    _gauss_case(b, "gauss-p5K2", 5, 2, "0,1/2", 3, "phase")


def _vinogradov_case(b: _Builder, minpoly, s, k, N, warmup=False):
    J = oracles.count_J(oracles.field_keys(minpoly, k, N), s)
    argv = ["vinogradov", "--minpoly", minpoly, "--s", str(s), "--k", str(k),
            "--N", str(N)]
    shape = f"vinogradov-{minpoly}-s{s}k{k}N{N}"
    b.add(shape, argv, {"kind": "vinogradov", "J": [str(J)]}, warmup)


def _vinogradov_count(b: _Builder):
    _vinogradov_case(b, "0", 2, 2, 4, warmup=True)
    _vinogradov_case(b, "0", 4, 3, 20)
    _vinogradov_case(b, "0", 3, 2, 40)
    _vinogradov_case(b, "1,0", 3, 2, 6)
    _vinogradov_case(b, "-2,0,0", 2, 3, 6)
    Ns = [4, 8, 16, 32]
    Js = [oracles.count_J(oracles.field_keys("0", 2, N), 2) for N in Ns]
    b.add("vinogradov-fit-s2k2",
          ["vinogradov-fit", "--minpoly", "0", "--s", "2", "--k", "2",
           "--N", ",".join(map(str, Ns))],
          {"kind": "vinogradov_fit", "J": [str(J) for J in Js],
           "slope": oracles.least_squares_slope(Ns, Js), "rtol": oracles.RTOL})


def _sampler_rows(minpoly, k, p, K, sigma, r, seed, side, samplers, draws):
    d = len(oracles.parse_minpoly(minpoly))
    pts = oracles.box_points(p**K, d)
    rows = oracles.phases(minpoly, k, pts, component_scales(minpoly, k))
    out = []
    for sampler in samplers:
        for draw in range(draws if sampler.startswith("random") else 1):
            values = oracles.sampler_values(sampler, len(pts), seed, draw)
            if side == "padic":
                out.append(oracles.padic_mean(
                    rows, values, p, K, component_degrees(d, k), sigma, r))
            else:
                out.append(oracles.real_grid_mean(rows, values, r))
    return out


def _cli_mix(b: _Builder):
    ones = ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
            "--sampler", "all-ones"]
    ones_check = _mv_check(_sampler_rows("0", 2, 3, 1, [0, 0], 4, 0, "padic",
                                         ["all-ones"], 1))
    b.add("mv-padic-p3K1-ones", ones, ones_check, warmup=True)
    p, K = 10000189, 6
    b.add("hensel-p1e7", ["hensel", "--p", str(p), "--K", str(K)],
          {"kind": "hensel", "p": p, "K": K})
    b.add("traces-cbrt2", ["traces", "--minpoly", "-2,0,0", "--kappa-max", "12"],
          {"kind": "traces", "values": [str(v) for v in
                                        oracles.power_traces("-2,0,0", 12)]})
    samples = oracles.box_points(3, 2)
    raw = oracles.raw_phases("1,0", 3, samples)
    b.add("phase-system-qi-k3", ["phase-system", "--minpoly", "1,0", "--k", "3"],
          {"kind": "phase_system", "points": [list(pt) for pt in samples],
           "raw": {f"{j}-{ell}": [str(v) for v in raw[(j - 1) * 2 + ell]]
                   for j in range(1, 4) for ell in range(2)}})
    cells = oracles.padic_cells(3, 4, [1, 2], [0, 1])
    b.add("domain-cells-p3K4",
          ["domain-cells", "--p", "3", "--K", "4", "--degrees", "1,2",
           "--sigma", "0,1"],
          {"kind": "domain_cells", "rows": math.prod(cells)})
    b.add("mv-padic-p3K1-ones", ones, ones_check)
    path, pts, values = b.coefficients("mv-padic-p5K1", 5, 1, "sparse")
    rows = oracles.phases("0", 2, pts, [1, 1])
    b.add("mv-padic-p5K1-sparse",
          ["mv-padic", "--p", "5", "--K", "1", "--sigma", "0,0", "--r", "6",
           "--coeffs-file", path],
          _mv_check([oracles.padic_mean(rows, values, 5, 1, [1, 2], [0, 0], 6)]))
    b.add("mv-real-grid-p3K1-ones",
          ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
           "--sampler", "all-ones"],
          _mv_check(_sampler_rows("0", 2, 3, 1, [0, 0], 4, 0, "real",
                                  ["all-ones"], 1)))
    path, pts, values = b.coefficients("mv-real-p5K1", 5, 1, "phase")
    rows = oracles.phases("0", 2, pts, [1, 1])
    b.add("mv-real-grid-p5K1-phase",
          ["mv-real", "--p", "5", "--K", "1", "--sigma", "0,0", "--r", "4",
           "--coeffs-file", path],
          _mv_check([oracles.real_grid_mean(rows, values, 4)]))
    seed = b.cli_seed()
    expect = []
    for side in ("padic", "real"):
        expect += _sampler_rows("0", 2, 3, 1, [0, 0], 4, seed, side,
                                oracles.SAMPLERS, 4)
    b.add("restriction-both-p3K1",
          ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0",
           "--r", "4", "--side", "both", "--seed", str(seed)],
          _mv_check(expect))
    seed = b.cli_seed()
    expect = []
    for K in (1, 2, 3):
        expect += _sampler_rows("0", 2, 3, K, [0, 1], 4, seed, "padic",
                                oracles.SAMPLERS, 1)
    b.add("corollary-ratio-p3",
          ["corollary-ratio", "--p", "3", "--K-list", "1,2,3", "--sigma", "1",
           "--r", "4", "--seed", str(seed)],
          _mv_check(expect))
    b.add("counterexample-p5",
          ["counterexample", "--p", "5", "--kmax", "3", "--r", "2,6"],
          {"kind": "counterexample", "rtol": oracles.RTOL,
           "rows": [dict(oracles.counterexample_row(5, k, r), r=r)
                    for r in (2.0, 6.0) for k in (1, 2, 3)]})


_BUILDERS = {
    "padic-grid": _padic_grid,
    "transfer-gauss": _transfer_gauss,
    "vinogradov-count": _vinogradov_count,
    "cli-mix": _cli_mix,
}


def build_plan(name: str, seed: int, workdir: Path) -> dict:
    """The workload's warm-up and timed cases, with their expected outputs."""
    b = _Builder(name, seed, workdir)
    _BUILDERS[name](b)
    return b.plan()
