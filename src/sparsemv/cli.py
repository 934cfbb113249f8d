"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 a verification command reported a
failing pass flag, 3 an enumeration budget was exceeded or memory ran out at
any stage (:func:`main` maps every ``MemoryError``).  Every CSV starts
with a '#' comment recording the resolved configuration; identical
configuration and seed give byte-identical output regardless of --threads.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import counterexample as cx
from . import csvio, vinogradov
from .domains import LocalizationVector, build_domain, emit_cell_csv
from .errors import DEFAULT_BUDGET, BudgetExceededError, InvalidInputError
from .meanvalue import (
    SAMPLER_NAMES,
    IndexDomain,
    epsilon_factors,
    estimate_restriction_constant,
    padic_short_mv,
    real_sparse_mv,
    sample_coefficients,
    transfer_check,
)
from .numberfield import (
    MinimalPolynomial,
    expand_trace_phase,
    parabola_system,
    phase_system_rows,
    trace_powers,
)
from .padic import ScaleSpec, hensel_sqrt_minus_one
from .quadrature import QuadratureConfig

OUTPUT_DIR_ENV = "SPARSEMV_OUT"

MV_HEADER = [
    "command", "p", "K", "sigma", "r", "sampler", "seed",
    "value", "denominator", "ratio", "error_bound",
]


class VerificationFailure(Exception):
    """A verification command produced a failing pass flag."""


def _echo(message: str, err: bool = False) -> None:
    # An explicit stream: for an implicit one click caches a wrapper in a map
    # whose values keep their keys alive, so every stdout that an in-process
    # caller swaps in would stay alive.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse comma-separated rationals "a" or "a/b"; rejects zero denominators."""
    out = []
    for pos, part in enumerate(text.split(","), start=1):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(
                f"bad rational {part!r} at position {pos}: {exc}"
            ) from exc
    return out


def parse_int_list(text: str) -> list[int]:
    values = parse_rational_list(text)
    for pos, v in enumerate(values, start=1):
        if v.denominator != 1:
            raise InvalidInputError(f"entry {v} at position {pos} is not an integer")
    return [int(v) for v in values]


def _parse_samplers(text: str) -> list[str]:
    """Comma-separated sampler names; each must be known, and at least one given."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    for name in names:
        if name not in SAMPLER_NAMES:
            raise InvalidInputError(f"unknown sampler {name!r}")
    if not names:
        raise InvalidInputError(f"no sampler given; choose from {SAMPLER_NAMES}")
    return names


def _config_callback(ctx: click.Context, param, value):
    # Eager: loads key=value defaults so later flags can override them.  A key
    # names a parameter of the command or one of its long flags without the
    # dashes (so "N" and "N_list" both set vinogradov's --N).
    if not value:
        return None
    names = {}
    for other in ctx.command.params:
        if other is not param:
            names[other.name] = other.name
            for opt in other.opts:
                if opt.startswith("--"):
                    names[opt[2:].replace("-", "_")] = other.name
    defaults = {}
    path = Path(value)
    if not path.exists():
        raise InvalidInputError(f"config file {value} does not exist")
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{value}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        name = names.get(key.strip().replace("-", "_"))
        if name is None:
            raise InvalidInputError(
                f"{value}:{lineno}: {ctx.info_name} has no option {key.strip()!r}"
            )
        defaults[name] = raw.strip()
    ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return value


def _threads_callback(ctx: click.Context, param, value):
    if value < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {value}")
    return value


def common_options(fn):
    fn = click.option(
        "--config", callback=_config_callback, is_eager=True, expose_value=False,
        type=click.Path(), help="key=value defaults file; flags override it",
    )(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="output CSV path (default: $SPARSEMV_OUT/<command>.csv)")(fn)
    fn = click.option("--threads", type=int, default=1, show_default=True,
                      callback=_threads_callback,
                      help="worker thread cap; results do not depend on it")(fn)
    return fn


def _out_path(out: str | None, command: str) -> Path:
    if out is not None:
        return Path(out)
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / f"{command}.csv"


def _index_box(N: int, d: int, budget: int) -> IndexDomain:
    """The index box [0, N)^d that samplers draw from; its N^d points are
    checked against the budget before any of them is built."""
    if N**d > budget:
        raise BudgetExceededError(
            f"index box has {N**d} points, exceeding budget {budget}",
            requested=N**d,
            budget=budget,
        )
    return IndexDomain.box(N, d)


def _coefficients(sampler, seed, draws, coeffs_file, scale, system, budget):
    """The coefficient vectors, the sampler and seed columns of their rows,
    and the config entries that name where they came from: a file gives one
    vector and overrides the sampler and the seed, so neither is recorded
    then; else the sampler draws ``draws`` vectors on the index box."""
    if coeffs_file is not None:
        coeffs = csvio.load_coefficients_csv(coeffs_file)
        return [coeffs], "file", "", {"coeffs_file": coeffs_file}
    domain = _index_box(scale.N, system.dimension, budget)
    vectors = [sample_coefficients(sampler, domain, seed, draw)
               for draw in range(draws)]
    return vectors, sampler, seed, {"sampler": sampler, "seed": seed}


def _mv_context(minpoly, k, p, K, sigma_text):
    system = expand_trace_phase(MinimalPolynomial.parse(minpoly), k)
    scale = ScaleSpec(p=p, K=K)
    sigma = LocalizationVector(tuple(parse_rational_list(sigma_text)))
    return system, scale, sigma


def _show_help(ctx: click.Context, param, value):
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _Command(click.Command):
    """A command whose --help prints through _echo (click's own help option
    echoes to an implicit stream)."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def cli():
    """Exponential-sum mean values on sparse p-adically shaped domains."""


@cli.command()
@click.option("--p", type=int, required=True)
@click.option("--K", "K", type=int, required=True)
@common_options
def hensel(p, K, out, threads):
    """Print the canonical square root of -1 modulo p**K; --out also writes it
    as a one-row CSV (p, K, xi)."""
    root = hensel_sqrt_minus_one(p, K)
    if out is not None:
        csvio.write_csv(out, ["p", "K", "xi"], [(p, K, root.xi)],
                        {"command": "hensel", "p": p, "K": K})
    _echo(str(root.xi))


@cli.command()
@click.option("--minpoly", required=True,
              help='ascending coefficients "c_0,c_1,..." of monic P')
@click.option("--kappa-max", type=int, required=True)
@common_options
def traces(minpoly, kappa_max, out, threads):
    """Tabulate Tr(alpha^kappa) for kappa = 0..kappa-max."""
    poly = MinimalPolynomial.parse(minpoly)
    if kappa_max < 0:
        raise InvalidInputError("kappa-max must be nonnegative")
    values = trace_powers(poly, kappa_max)
    rows = [(kappa, str(v)) for kappa, v in enumerate(values)]
    path = _out_path(out, "traces")
    csvio.write_csv(path, ["kappa", "trace"], rows,
                    {"command": "traces", "minpoly": poly.format(),
                     "kappa_max": kappa_max})
    _echo(f"traces: wrote {len(rows)} rows to {path}")


@cli.command(name="phase-system")
@click.option("--minpoly", required=True)
@click.option("--k", type=int, required=True)
@common_options
def phase_system(minpoly, k, out, threads):
    """Emit the trace-expanded phase system for Q(alpha) up to degree k."""
    poly = MinimalPolynomial.parse(minpoly)
    system = expand_trace_phase(poly, k)
    rows = phase_system_rows(system)
    path = _out_path(out, "phase-system")
    csvio.write_csv(path, ["j", "ell", "multiindex", "coefficient", "component_scale"],
                    rows, {"command": "phase-system", "minpoly": poly.format(), "k": k})
    _echo(
        f"phase-system: {len(system.components)} components, "
        f"{len(rows)} terms -> {path}"
    )


@cli.command(name="domain-cells")
@click.option("--p", type=int, required=True)
@click.option("--K", "K", type=int, required=True)
@click.option("--degrees", required=True, help="comma list of component degrees")
@click.option("--sigma", required=True, help="comma list of rationals")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@common_options
def domain_cells(p, K, degrees, sigma, budget, out, threads):
    """Enumerate the cells of a sparse domain to CSV."""
    scale = ScaleSpec(p=p, K=K)
    degree_list = parse_int_list(degrees)
    sig = LocalizationVector(tuple(parse_rational_list(sigma)))
    domain = build_domain(scale, sig, degree_list)
    path = _out_path(out, "domain-cells")
    count = emit_cell_csv(domain, path, budget=budget)
    _echo(
        f"domain-cells: {count} cells, measure {domain.measure} -> {path}"
    )


def _mv_common_options(fn):
    fn = click.option("--minpoly", default="0", show_default=True,
                      help="field minimal polynomial; 0 means the rational line")(fn)
    fn = click.option("--k", type=int, default=2, show_default=True,
                      help="phase degrees 1..k")(fn)
    fn = click.option("--p", type=int, required=True)(fn)
    fn = click.option("--K", "K", type=int, required=True)(fn)
    fn = click.option("--sigma", required=True)(fn)
    fn = click.option("--r", type=float, required=True)(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--budget", type=int, default=DEFAULT_BUDGET,
                      show_default=True)(fn)
    return fn


def _coefficient_options(default_sampler: str):
    """The coefficient vectors of mv-padic, mv-real and transfer-check."""
    def add(fn):
        fn = click.option("--sampler", default=default_sampler, show_default=True,
                          type=click.Choice(SAMPLER_NAMES))(fn)
        fn = click.option("--coeffs-file", type=click.Path(exists=True), default=None,
                          help="coefficient CSV (index-dash-joined, real, imag)")(fn)
        return fn
    return add


def _ratio(value: float, denom: float) -> float:
    # An all-zero coefficient vector has denominator 0.
    return value / denom if denom else math.inf


def _mv_row(command, scale, sigma_text, r, sampler, seed, value, denominator,
            error_bound) -> list:
    """The MV_HEADER fields of one mean value."""
    return [command, scale.p, scale.K, sigma_text, r, sampler, seed, value,
            denominator, _ratio(value, denominator), error_bound]


def _emit_mv_row(path, command, scale, sigma, r, sampler, seed, source,
                 report, coeffs, extra_config=None) -> float:
    """Write the one-row CSV of mv-padic or mv-real; returns its ratio."""
    sigma_text = ",".join(str(s) for s in sigma.sigma)
    row = _mv_row(command, scale, sigma_text, r, sampler, seed, report.value,
                  coeffs.ell_r(r), report.quadrature_error_bound)
    config = {"command": command, "p": scale.p, "K": scale.K,
              "sigma": sigma_text, "r": r, **source}
    config.update(extra_config or {})
    csvio.write_csv(path, MV_HEADER, [row], config)
    return row[MV_HEADER.index("ratio")]


@cli.command(name="mv-padic")
@_mv_common_options
@_coefficient_options("all-ones")
@common_options
def mv_padic(minpoly, k, p, K, sigma, r, sampler, seed, coeffs_file, budget,
             out, threads):
    """p-adic short mean value: an exact count for even r and Gaussian-integer
    coefficients, else the exact cell-grid sum by transform."""
    system, scale, sig = _mv_context(minpoly, k, p, K, sigma)
    vectors, sampler, seed, source = _coefficients(
        sampler, seed, 1, coeffs_file, scale, system, budget)
    report, = padic_short_mv(system, vectors, r, scale, sig,
                             budget=budget, threads=threads)
    path = _out_path(out, "mv-padic")
    ratio = _emit_mv_row(path, "mv-padic", scale, sig, r, sampler, seed, source,
                         report, vectors[0])
    _echo(
        f"mv-padic: value={report.value!r} ratio={ratio!r} "
        f"method={report.method} -> {path}"
    )


@cli.command(name="mv-real")
@_mv_common_options
@_coefficient_options("all-ones")
@click.option("--quad-order", type=int, default=4, show_default=True)
@click.option("--quad-depth", type=int, default=None,
              help="uniform dyadic depth; default = quarter-period rule")
@common_options
def mv_real(minpoly, k, p, K, sigma, r, sampler, seed, coeffs_file, budget,
            quad_order, quad_depth, out, threads):
    """Real sparse mean value by cell quadrature (or exact sampling at sigma=0)."""
    system, scale, sig = _mv_context(minpoly, k, p, K, sigma)
    vectors, sampler, seed, source = _coefficients(
        sampler, seed, 1, coeffs_file, scale, system, budget)
    quad = QuadratureConfig(order=quad_order, depth=quad_depth)
    report, = real_sparse_mv(system, vectors, r, scale, sig, quad,
                             budget=budget, threads=threads)
    path = _out_path(out, "mv-real")
    extra = {"quad_order": quad_order, "quad_depth": quad_depth}
    _emit_mv_row(path, "mv-real", scale, sig, r, sampler, seed, source,
                 report, vectors[0], extra_config=extra)
    _echo(
        f"mv-real: value={report.value!r} err<={report.quadrature_error_bound!r} "
        f"method={report.method} -> {path}"
    )


@cli.command(name="transfer-check")
@_mv_common_options
@_coefficient_options("random-phase")
@click.option("--vectors", type=int, default=50, show_default=True,
              help="number of sampled coefficient vectors")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--quad-order", type=int, default=4, show_default=True)
@click.option("--quad-depth", type=int, default=None)
@common_options
def transfer_check_cmd(minpoly, k, p, K, sigma, r, sampler, seed, coeffs_file,
                       budget, vectors, tol, quad_order, quad_depth, out, threads):
    """Verify real <= sup-of-modulated-p-adic per coefficient vector (exit 2 on failure)."""
    if vectors < 1:
        raise InvalidInputError(f"--vectors must be >= 1, got {vectors}")
    system, scale, sig = _mv_context(minpoly, k, p, K, sigma)
    coeff_list, row_sampler, row_seed, source = _coefficients(
        sampler, seed, vectors, coeffs_file, scale, system, budget)
    quad = QuadratureConfig(order=quad_order, depth=quad_depth)
    rows = []
    failures = 0
    sigma_text = ",".join(str(s) for s in sig.sigma)
    n_vectors = len(coeff_list)
    reports = transfer_check(system, coeff_list, r, scale, sig, quad=quad, tol=tol,
                             budget=budget, threads=threads)
    for draw, (coeffs, rep) in enumerate(zip(coeff_list, reports)):
        rows.append(_mv_row(
            "transfer-check", scale, sigma_text, r, row_sampler, row_seed,
            rep.real_value, coeffs.ell_r(r), rep.quadrature_error_bound,
        ) + [draw, rep.padic_sup_over_grid, int(rep.passed), rep.grid_size])
        failures += 0 if rep.passed else 1
    path = _out_path(out, "transfer-check")
    csvio.write_csv(
        path,
        MV_HEADER + ["draw", "padic_sup", "passed", "grid_size"],
        rows,
        {"command": "transfer-check", "p": p, "K": K, "sigma": sigma_text,
         "r": r, **source, "vectors": n_vectors,
         "tol": tol, "quad_order": quad_order, "quad_depth": quad_depth},
    )
    _echo(
        f"transfer-check: {n_vectors - failures}/{n_vectors} passed -> {path}"
    )
    if failures:
        raise VerificationFailure(f"{failures} coefficient vectors failed")


@cli.command(name="restriction-estimate")
@_mv_common_options
@click.option("--side", type=click.Choice(["padic", "real", "both"]),
              default="padic", show_default=True)
@click.option("--samplers", default=",".join(SAMPLER_NAMES), show_default=True)
@click.option("--draws", type=int, default=4, show_default=True)
@common_options
def restriction_estimate(minpoly, k, p, K, sigma, r, seed, budget, side, samplers,
                         draws, out, threads):
    """Sampled lower bounds for the optimal restriction constants."""
    system, scale, sig = _mv_context(minpoly, k, p, K, sigma)
    sampler_list = _parse_samplers(samplers)
    domain = _index_box(scale.N, system.dimension, budget)
    sides = ["padic", "real"] if side == "both" else [side]
    sigma_text = ",".join(str(s) for s in sig.sigma)
    rows = []
    estimates = {}
    for this_side in sides:
        est = estimate_restriction_constant(
            system, domain, r, scale, sig, side=this_side,
            samplers=sampler_list, draws=draws, seed=seed,
            budget=budget, threads=threads,
        )
        estimates[this_side] = est
        rows += [_mv_row(f"restriction-estimate-{this_side}", scale, sigma_text, r,
                         row.sampler, row.seed, row.value, row.denominator,
                         row.error_bound) + [row.draw] for row in est.rows]
    eps = epsilon_factors(system, domain, scale)
    config = {
        "command": "restriction-estimate", "p": p, "K": K, "sigma": sigma_text,
        "r": r, "samplers": ",".join(sampler_list), "draws": draws, "seed": seed,
        "side": side,
        "epsilon_factors": ";".join(repr(e) for e in eps),
    }
    if side == "both":
        # Both transference inequalities, tabulated on sampled lower bounds.
        # The upper-bound direction cannot be falsified this way (both sides
        # are lower bounds for their optimal constants); recorded for audit.
        factor = 2.0 ** ((r + 1) * len(system.components)) / math.prod(eps)
        config["abyn_lower_bounds"] = (
            f"real={estimates['real'].value!r} padic={estimates['padic'].value!r}"
        )
        config["nbya_factor"] = repr(factor)
        config["nbya_rhs_on_lower_bounds"] = repr(factor * estimates["real"].value)
    path = _out_path(out, "restriction-estimate")
    csvio.write_csv(path, MV_HEADER + ["draw"], rows, config)
    summary = " ".join(
        f"{name}>={est.value!r}({est.best_sampler})" for name, est in estimates.items()
    )
    _echo(f"restriction-estimate: {summary} -> {path}")


@cli.command(name="corollary-ratio")
@click.option("--p", type=int, required=True)
@click.option("--K-list", "K_list", required=True, help="comma list of exponents K")
@click.option("--sigma", required=True, help="scalar localization in [0,1]")
@click.option("--r", type=float, required=True)
@click.option("--samplers", default=",".join(SAMPLER_NAMES), show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@common_options
def corollary_ratio(p, K_list, sigma, r, samplers, seed, budget, out, threads):
    """Parabola sparse mean-value ratios against the small-cap envelope
    N^(r/2) + N^(r-4+sigma): the p-adic side of restriction-estimate with one
    draw per sampler, for each K."""
    K_values = parse_int_list(K_list)
    sigma_values = parse_rational_list(sigma)
    if len(sigma_values) != 1:
        raise InvalidInputError(f"--sigma takes one rational, got {len(sigma_values)}")
    sigma_value, = sigma_values
    if sigma_value < 0 or sigma_value > 1:
        raise InvalidInputError("sigma must lie in [0, 1]")
    sampler_list = _parse_samplers(samplers)
    system = parabola_system()
    rows = []
    for K in K_values:
        scale = ScaleSpec(p=p, K=K)
        N = scale.N
        est = estimate_restriction_constant(
            system, _index_box(N, 1, budget), r, scale,
            LocalizationVector((Fraction(0), sigma_value)), samplers=sampler_list,
            draws=1, seed=seed, budget=budget, threads=threads,
        )
        envelope = N ** (r / 2.0) + N ** (r - 4.0 + float(sigma_value))
        rows += [_mv_row("corollary-ratio", scale, str(sigma_value), r, row.sampler,
                         row.seed, row.value, row.denominator, row.error_bound)
                 + [N, envelope, row.ratio / envelope] for row in est.rows]
    path = _out_path(out, "corollary-ratio")
    csvio.write_csv(path, MV_HEADER + ["N", "envelope", "ratio_over_envelope"], rows,
                    {"command": "corollary-ratio", "p": p,
                     "K_list": ",".join(str(k) for k in K_values),
                     "sigma": sigma_value, "r": r,
                     "samplers": ",".join(sampler_list), "seed": seed})
    _echo(f"corollary-ratio: {len(rows)} rows -> {path}")


@cli.command(name="vinogradov")
@click.option("--minpoly", required=True)
@click.option("--d", type=int, default=None,
              help="expected field degree (validated against minpoly)")
@click.option("--s", "s", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--N", "N_list", required=True, help="comma list of scales")
@click.option("--method", type=click.Choice(["hash", "brute"]), default="hash",
              show_default=True)
@click.option("--transcendental", is_flag=True, default=False,
              help="count with a formal (transcendental) generator")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@common_options
def vinogradov_cmd(minpoly, d, s, k, N_list, method, transcendental, budget,
                   out, threads):
    """Count Vinogradov-system solutions with algebraic indeterminates."""
    poly = MinimalPolynomial.parse(minpoly)
    if d is not None and d != poly.degree:
        raise InvalidInputError(
            f"--d {d} does not match minimal polynomial degree {poly.degree}"
        )
    N_values = parse_int_list(N_list)
    counter = (vinogradov.count_solutions if method == "hash"
               else vinogradov.count_solutions_brute)
    records = [
        counter(poly, s, k, N, transcendental=transcendental, budget=budget)
        for N in N_values
    ]
    path = _out_path(out, "vinogradov")
    csvio.write_csv(path, ["d", "s", "k", "N", "minpoly", "J", "method"],
                    [[rec.d, rec.s, rec.k, rec.N, rec.minpoly.format(), rec.J,
                      rec.method] for rec in records],
                    {"command": "vinogradov", "minpoly": poly.format(), "s": s,
                     "k": k, "N": ",".join(str(n) for n in N_values),
                     "method": method, "transcendental": transcendental})
    if len(records) == 1:
        _echo(f"J={records[0].J}")
    else:
        _echo(f"vinogradov: {len(records)} rows -> {path}")


@cli.command(name="vinogradov-fit")
@click.option("--minpoly", required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--N", "N_list", required=True, help="comma list of >= 3 scales")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@common_options
def vinogradov_fit(minpoly, s, k, N_list, budget, out, threads):
    """Fit the growth exponent of J against the counting-bound envelope."""
    poly = MinimalPolynomial.parse(minpoly)
    N_values = parse_int_list(N_list)
    fit = vinogradov.fit_growth(poly, s, k, N_values, budget=budget)
    rows = [
        [poly.degree, s, k, N, poly.format(), J, logN, logJ, res,
         fit.slope, fit.envelope_exponent]
        for (N, J, logN, logJ), res in zip(fit.points, fit.residuals)
    ]
    path = _out_path(out, "vinogradov-fit")
    csvio.write_csv(
        path,
        ["d", "s", "k", "N", "minpoly", "J", "logN", "logJ", "residual",
         "slope", "envelope_exponent"],
        rows,
        {"command": "vinogradov-fit", "minpoly": poly.format(), "s": s, "k": k,
         "N": ",".join(str(n) for n in N_values)},
    )
    _echo(
        f"vinogradov-fit: slope={fit.slope!r} envelope={fit.envelope_exponent!r} "
        f"-> {path}"
    )


@cli.command(name="counterexample")
@click.option("--p", type=int, required=True)
@click.option("--kmax", type=int, required=True)
@click.option("--r", "r_list", required=True, help="comma list of exponents")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@common_options
def counterexample_cmd(p, kmax, r_list, budget, out, threads):
    """Norm growth of the p-adic paraboloid wave packet family."""
    if kmax < 1:
        raise InvalidInputError("kmax must be >= 1")
    r_values = [float(r) for r in parse_rational_list(r_list)]
    rows = []
    slopes = []
    for r in r_values:
        table = cx.growth_table(p, range(1, kmax + 1), r, budget=budget)
        for row in table:
            rows.append([row["p"], row["k"], row["N"], row["r"],
                         row["single_norm"], row["sum_norm"], row["ratio"],
                         row["log_ratio"]])
        if len(table) >= 2:
            Ns = [row["N"] for row in table]
            slopes.append(
                (r, cx.log_slope(Ns, [row["sum_norm"] for row in table]),
                 cx.log_slope(Ns, [row["ratio"] for row in table]))
            )
    path = _out_path(out, "counterexample")
    csvio.write_csv(path,
                    ["p", "k", "N", "r", "single_norm", "sum_norm", "ratio",
                     "log_ratio"],
                    rows,
                    {"command": "counterexample", "p": p, "kmax": kmax,
                     "r": ",".join(repr(r) for r in r_values)})
    summary = " ".join(
        f"r={r}:sum_slope={s1:.4f},ratio_slope={s2:.4f}" for r, s1, s2 in slopes
    )
    _echo(f"counterexample: {summary or f'{len(rows)} rows'} -> {path}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code discipline."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except VerificationFailure as exc:
        _echo(f"verification failed: {exc}", err=True)
        return 2
    except BudgetExceededError as exc:
        _echo(f"budget exceeded: {exc}", err=True)
        return 3
    except MemoryError as exc:
        # numpy's text names the size and shape of the allocation that failed
        detail = f": {exc}" if str(exc) else ""
        _echo(f"budget exceeded: out of memory{detail}", err=True)
        return 3
    except InvalidInputError as exc:
        _echo(f"invalid input: {exc}", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.NoArgsIsHelpError as exc:
        _echo(exc.format_message(), err=True)
        return 1
    except click.ClickException as exc:
        # usage errors too: one line, not click's usage block
        _echo(f"invalid input: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1


if __name__ == "__main__":
    sys.exit(main())
