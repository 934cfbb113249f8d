from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import time
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsemv import cli, exact
from sparsemv.cli import main, parse_rational_list
from sparsemv.errors import InvalidInputError
from sparsemv.meanvalue import SAMPLER_NAMES, IndexDomain


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


def test_parse_rational_list_examples():
    assert parse_rational_list("0,1") == [Fraction(0), Fraction(1)]
    assert parse_rational_list("1/2,3/2") == [Fraction(1, 2), Fraction(3, 2)]
    with pytest.raises(InvalidInputError) as err:
        parse_rational_list("1/0")
    assert "position 1" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        parse_rational_list("1,x,3")
    assert "position 2" in str(err.value)


def test_hensel_stdout(capsys):
    code, out, _ = run(["hensel", "--p", "5", "--K", "2"], capsys)
    assert code == 0
    assert out.strip() == "7"


def test_hensel_out_writes_one_row(tmp_path, capsys):
    path = tmp_path / "h.csv"
    code, out, _ = run(["hensel", "--p", "5", "--K", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out.strip() == "7"  # stdout stays the bare root
    assert path.read_text().splitlines()[0] == "# config: command=hensel p=5 K=2"
    assert read_rows(path) == [["p", "K", "xi"], ["5", "2", "7"]]


def test_hensel_bad_prime_exit_1(capsys):
    code, _, err = run(["hensel", "--p", "10", "--K", "2"], capsys)
    assert code == 1
    assert "invalid input" in err
    code, _, err = run(["hensel", "--p", "7", "--K", "2"], capsys)
    assert code == 1  # p = 3 mod 4 unsupported


@pytest.mark.parametrize("args", [
    ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "nan"],
    ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "inf"],
    ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "nan"],
    ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "inf"],
    ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "nan",
     "--vectors", "1"],
    ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "inf"],
    ["corollary-ratio", "--p", "3", "--K-list", "1", "--sigma", "0", "--r", "nan"],
    ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--threads", "-3"],
    ["hensel", "--p", "5", "--K", "2", "--threads", "-3"],
    ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
     "--threads", "0"],
    ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "3",
     "--quad-depth", "-1"],
    ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
     "--vectors", "1", "--quad-depth", "-1"],
    ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
     "--vectors", "0"],
    ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
     "--vectors", "-2"],
    ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--draws", "0"],
    ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--samplers", ","],
    ["corollary-ratio", "--p", "3", "--K-list", "1", "--sigma", "0", "--r", "4",
     "--samplers", ""],
    # removed options, a missing or bad option and an unknown command are
    # usage errors: one line too, not click's usage block
    ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--precision", "100"],
    ["vinogradov", "--minpoly", "0", "--s", "2", "--k", "2", "--N", "4",
     "--timings"],
    ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--sampler", "single-point"],
    ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--coeffs-file", __file__],
    ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0"],
    ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
     "--sampler", "no-such-sampler"],
    ["no-such-command"],
    # corollary-ratio's sigma is one scalar, not a list
    ["corollary-ratio", "--p", "3", "--K-list", "1", "--sigma", "1,7", "--r", "4",
     "--samplers", "all-ones"],
])
def test_bad_exponent_or_threads_exit_1_one_line(args, tmp_path, capsys):
    code, _, err = run(args + ["--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    assert err.startswith("invalid input: ")
    assert len(err.strip().splitlines()) == 1


def test_traces_rows(tmp_path, capsys):
    out_file = tmp_path / "tr.csv"
    code, _, _ = run(
        ["traces", "--minpoly", "-2,0,0", "--kappa-max", "4", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = read_rows(out_file)
    assert rows[0] == ["kappa", "trace"]
    assert rows[1:] == [["0", "3"], ["1", "0"], ["2", "0"], ["3", "6"], ["4", "0"]]


def test_traces_reducible_minpoly_exit_1(capsys):
    code, _, err = run(["traces", "--minpoly", "-1,0", "--kappa-max", "2"], capsys)
    assert code == 1
    assert "root" in err


def test_phase_system_csv(tmp_path, capsys):
    out_file = tmp_path / "ps.csv"
    code, out, _ = run(
        ["phase-system", "--minpoly", "1,0", "--k", "3", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = read_rows(out_file)
    assert rows[0] == ["j", "ell", "multiindex", "coefficient", "component_scale"]
    body = {(r[0], r[1], r[2]): (r[3], r[4]) for r in rows[1:]}
    assert body[("1", "0", "1-0")] == ("1", "2")
    assert body[("2", "1", "1-1")] == ("-1", "4")
    assert body[("3", "0", "1-2")] == ("-3", "2")


def test_domain_cells_and_budget(tmp_path, capsys):
    out_file = tmp_path / "cells.csv"
    code, out, _ = run(
        ["domain-cells", "--p", "3", "--K", "1", "--degrees", "1,2",
         "--sigma", "0,1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert len(read_rows(out_file)) == 1 + 9
    before = out_file.read_bytes()
    code, _, err = run(
        ["domain-cells", "--p", "3", "--K", "1", "--degrees", "1,2",
         "--sigma", "0,0", "--budget", "5", "--out", str(out_file)],
        capsys,
    )
    assert code == 3
    assert "budget" in err
    assert out_file.read_bytes() == before  # checked before the file is opened



def test_out_of_memory_in_grid_transform_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.fft, "ifftn", out_of_memory)
    # random phases: all-ones coefficients would be counted, with no transform
    code, out, err = run(
        ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
         "--sampler", "random-phase", "--out", str(tmp_path / "mv.csv")],
        capsys,
    )
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "27 cells" in lines[0] and "bytes" in lines[0]


def test_out_of_memory_in_pruned_transform_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    # 262144 cells: the pruned passes run np.fft.ifft, not ifftn
    monkeypatch.setattr(np.fft, "ifft", out_of_memory)
    code, out, err = run(
        ["mv-padic", "--p", "2", "--K", "6", "--sigma", "0,0", "--r", "5",
         "--sampler", "random-phase", "--out", str(tmp_path / "mv.csv")],
        capsys,
    )
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    # S, and the reduction's work space of one worker: blocks of 131072 cells
    needed = 16 * 262144 + 24 * 131072
    assert "262144 cells" in lines[0] and f"{needed} bytes" in lines[0]


def test_out_of_memory_in_counterexample_transform_exits_3(tmp_path, capsys,
                                                           monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.fft, "ifftn", out_of_memory)
    code, out, err = run(
        ["counterexample", "--p", "5", "--kmax", "1", "--r", "4",
         "--out", str(tmp_path / "cx.csv")],
        capsys,
    )
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "25 cells" in lines[0] and "bytes" in lines[0]


def test_out_of_memory_in_offset_gemm_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "matmul", out_of_memory)
    code, out, err = run(
        ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--vectors", "1", "--out", str(tmp_path / "tc.csv")],
        capsys,
    )
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "offset grid block" in lines[0] and "bytes" in lines[0]


def test_sigma_not_integral_exit_1(capsys):
    code, _, err = run(
        ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,1/2", "--r", "2"],
        capsys,
    )
    assert code == 1
    assert "integer" in err


def test_vinogradov_example(tmp_path, capsys):
    out_file = tmp_path / "vin.csv"
    code, out, _ = run(
        ["vinogradov", "--minpoly", "-1", "--d", "1", "--s", "2", "--k", "2",
         "--N", "4", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "J=28" in out
    rows = read_rows(out_file)
    assert rows[0] == ["d", "s", "k", "N", "minpoly", "J", "method"]
    assert rows[1] == ["1", "2", "2", "4", "-1", "28", "hash"]


def test_vinogradov_d_mismatch_exit_1(capsys):
    code, _, err = run(
        ["vinogradov", "--minpoly", "1,0", "--d", "1", "--s", "1", "--k", "1",
         "--N", "2"],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("method", ["hash", "brute"])
@pytest.mark.parametrize("s, N", [(10**9, 1), (10000, 3)])
def test_vinogradov_huge_s_exits_3_at_once_in_one_line(tmp_path, capsys, method, s, N):
    # the budget is checked before any convolution pass or tuple is formed,
    # and its message names no power with thousands of digits
    start = time.perf_counter()
    code, out, err = run(
        ["vinogradov", "--minpoly", "0", "--s", str(s), "--k", "1", "--N", str(N),
         "--method", method, "--out", str(tmp_path / "vin.csv")],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ")
    assert err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "vin.csv").exists()


def test_vinogradov_wide_counts_charge_their_words(tmp_path, capsys):
    # keys 0, 1, 2 at s = 3000: 53874813 pairs, within the default budget
    # alone, but the counts (below 3^s < 2^6000) are Python ints of up to 97
    # words of 62 bits, so W = 97 x the pairs and the command stops at once
    start = time.perf_counter()
    code, out, err = run(
        ["vinogradov", "--minpoly", "0", "--s", "3000", "--k", "1", "--N", "3",
         "--out", str(tmp_path / "vin.csv")],
        capsys,
    )
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert f"W = {97 * 53874813} " in err
    assert err.count("\n") == 1


def test_vinogradov_fit(tmp_path, capsys):
    out_file = tmp_path / "fit.csv"
    code, out, _ = run(
        ["vinogradov-fit", "--minpoly", "0", "--s", "2", "--k", "2",
         "--N", "4,8,16,32", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "slope=" in out
    rows = read_rows(out_file)
    assert len(rows) == 5
    slope = float(rows[1][9])
    assert 1.9 <= slope <= 2.1
    assert float(rows[1][10]) == 2.0


def test_mv_padic_value_and_reproducibility(tmp_path, capsys):
    args = ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
            "--sampler", "all-ones"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code, out, _ = run(args + ["--out", str(first)], capsys)
    assert code == 0
    code, _, _ = run(args + ["--out", str(second), "--threads", "4"], capsys)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    row = read_rows(first)[1]
    assert row[0] == "mv-padic"
    assert float(row[7]) == pytest.approx(15.0, rel=1e-9)
    assert float(row[8]) == 3.0  # denominator sum |a_n|^4
    assert float(row[9]) == pytest.approx(5.0, rel=1e-9)


@pytest.mark.parametrize("p, K, sigma, printed", [
    ("3", "1", "0,0", "15.0"),
    ("3", "2", "0,0", "161.0"),
    ("5", "2", "0,0", "1257.0"),
    ("3", "2", "0,1", "189.0"),
    ("3", "3", "0,1", "2187.0"),
])
def test_mv_padic_even_counts_print_exact_integers(tmp_path, capsys, p, K, sigma,
                                                    printed):
    out_file = tmp_path / "mv.csv"
    code, out, _ = run(
        ["mv-padic", "--p", p, "--K", K, "--sigma", sigma, "--r", "4",
         "--sampler", "all-ones", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    row = read_rows(out_file)[1]
    assert row[7] == printed and row[10] == "0.0"
    assert f"value={printed} " in out and "method=padic-count" in out


def test_mv_padic_names_the_transform(tmp_path, capsys):
    code, out, _ = run(
        ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
         "--sampler", "random-phase", "--out", str(tmp_path / "mv.csv")],
        capsys,
    )
    assert code == 0 and "method=padic-exact ->" in out


@pytest.mark.parametrize("command, extra", [
    ("mv-padic", []), ("mv-real", []), ("transfer-check", ["--vectors", "3"]),
])
def test_coeffs_file_provenance(tmp_path, capsys, command, extra):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("index,real,imag\n0,1.0,0.0\n1,0.0,1.0\n2,-1.0,0.0\n")
    out_file = tmp_path / "out.csv"
    code, _, err = run(
        [command, "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--coeffs-file", str(coeffs), "--sampler", "random-sparse", "--seed", "7",
         "--out", str(out_file)] + extra,
        capsys,
    )
    assert code == 0, err
    config = out_file.read_text().splitlines()[0].split()
    assert f"coeffs_file={coeffs}" in config
    assert not any(item.startswith(("sampler=", "seed=")) for item in config)
    rows = read_rows(out_file)[1:]
    assert len(rows) == 1
    assert rows[0][5:7] == ["file", ""]


def test_transfer_check_default_and_explicit_sampler(tmp_path, capsys):
    code, out, _ = run(["transfer-check", "--help"], capsys)
    assert code == 0 and "[default: random-phase]" in out
    assert "[default: all-ones]" not in out
    out_file = tmp_path / "tc.csv"
    code, _, err = run(
        ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--sampler", "all-ones", "--vectors", "2", "--out", str(out_file)],
        capsys,
    )
    assert code == 0, err
    rows = read_rows(out_file)[1:]
    assert [row[5] for row in rows] == ["all-ones", "all-ones"]
    assert rows[0][7:11] == rows[1][7:11]  # one fixed vector, drawn twice
    assert float(rows[0][8]) == 3.0  # sum |a_n|^4 over N = 3 ones


def test_mv_real_matches_padic_small(tmp_path, capsys):
    out_file = tmp_path / "real.csv"
    code, out, _ = run(
        ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
         "--sampler", "all-ones", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert float(read_rows(out_file)[1][7]) == pytest.approx(15.0, rel=1e-6)


def test_transfer_check_pass_and_forced_failure(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "tc.csv"
    base = ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1",
            "--r", "4", "--vectors", "3", "--seed", "9", "--out", str(out_file)]
    code, out, _ = run(base, capsys)
    assert code == 0
    assert "3/3 passed" in out
    rows = read_rows(out_file)
    assert rows[0][-3:] == ["padic_sup", "passed", "grid_size"]
    assert all(row[-2] == "1" for row in rows[1:])
    # no valid tolerance fails the comparison (tol < 0 exits 1), so a failing
    # report is forced: the failing branch writes passed = 0 and exits 2
    check = cli.transfer_check

    def failing(*args, **kwargs):
        return [dataclasses.replace(rep, passed=False) for rep in check(*args, **kwargs)]

    monkeypatch.setattr(cli, "transfer_check", failing)
    code, _, err = run(base, capsys)
    assert code == 2
    assert "verification failed: 3 coefficient vectors failed" in err
    assert all(row[-2] == "0" for row in read_rows(out_file)[1:])


@pytest.mark.parametrize("args", [
    ["--r", "700"],  # |S|^r past the float range: the real value is inf
    ["--r", "701"],
    ["--r", "4", "--tol", "-1"],
    ["--r", "4", "--tol", "nan"],
    ["--r", "4", "--tol", "inf"],
])
def test_transfer_check_rejects_non_finite_sides_and_bad_tolerance(tmp_path, args):
    # a subprocess, so that numpy warnings would show on stderr
    script = (
        "import sys\n"
        "from sparsemv.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "transfer-check", "--k", "3", "--p", "3",
         "--K", "1", "--sigma", "0,0,1", "--vectors", "1",
         "--out", str(tmp_path / "o.csv")] + args,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid input: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "o.csv").exists()


def test_transfer_check_vectors_on_different_domains_exit_1(tmp_path, capsys,
                                                             monkeypatch):
    # every vector of one call must live on one index domain: the second
    # draw here comes on a wider box
    sample = cli.sample_coefficients

    def drifting(sampler, domain, seed, draw):
        if draw:
            domain = IndexDomain.box(len(domain) + draw, domain.dimension)
        return sample(sampler, domain, seed, draw)

    monkeypatch.setattr(cli, "sample_coefficients", drifting)
    code, out, err = run(
        ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--vectors", "2", "--out", str(tmp_path / "tc.csv")],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "invalid input: coefficient vectors must share one index domain\n"
    assert not (tmp_path / "tc.csv").exists()


def test_transfer_check_all_zero_coefficients(tmp_path, capsys):
    coeffs = tmp_path / "zeros.csv"
    coeffs.write_text("index,real,imag\n0,0.0,0.0\n1,0.0,0.0\n2,0.0,0.0\n")
    out_file = tmp_path / "tc.csv"
    code, _, err = run(
        ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--coeffs-file", str(coeffs), "--out", str(out_file)],
        capsys,
    )
    assert code == 0, err
    row = read_rows(out_file)[1]
    assert row[7:10] == ["0.0", "0.0", "inf"]  # value, denominator, ratio


def test_restriction_estimate_both_sides(tmp_path, capsys):
    out_file = tmp_path / "re.csv"
    code, out, _ = run(
        ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,0",
         "--r", "4", "--side", "both", "--samplers", "all-ones,single-point",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    head = out_file.read_text().splitlines()[0]
    assert "epsilon_factors" in head
    assert "nbya_factor" in head
    rows = read_rows(out_file)
    sides = {row[0] for row in rows[1:]}
    assert sides == {"restriction-estimate-padic", "restriction-estimate-real"}


def test_corollary_ratio(tmp_path, capsys):
    out_file = tmp_path / "cr.csv"
    code, out, _ = run(
        ["corollary-ratio", "--p", "3", "--K-list", "1,2", "--sigma", "1",
         "--r", "4", "--samplers", "single-point,all-ones",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = read_rows(out_file)
    assert len(rows) == 1 + 4  # one row per (K, sampler)
    assert rows[0][11:] == ["N", "envelope", "ratio_over_envelope"]
    single_rows = [row for row in rows[1:] if row[5] == "single-point"]
    assert len(single_rows) == 2
    assert all(float(row[9]) == pytest.approx(1.0, rel=1e-9) for row in single_rows)
    for row in rows[1:]:
        N = int(row[11])
        assert N == 3 ** int(row[2])
        # N^(r/2) + N^(r - 4 + sigma) at r = 4, sigma = 1
        assert float(row[12]) == pytest.approx(N**2.0 + N**1.0)
        assert float(row[13]) == float(row[9]) / float(row[12])


def test_corollary_ratio_rejects_non_integral_sigma_K(tmp_path, capsys):
    out_file = tmp_path / "cr.csv"
    code, out, err = run(
        ["corollary-ratio", "--p", "3", "--K-list", "1", "--sigma", "1/2",
         "--r", "4", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid input:") and "K = 1/2" in err
    assert not out_file.exists()


@pytest.mark.parametrize("sigma, sigma_vector", [("1", "0,1"), ("0", "0,0")])
def test_corollary_ratio_rows_match_restriction_estimate(tmp_path, capsys, sigma,
                                                         sigma_vector):
    # corollary-ratio is the p-adic side of restriction-estimate with one draw
    # per sampler: sampler, seed, value, denominator, ratio and error bound
    # agree for every K
    corollary = tmp_path / "cr.csv"
    code, _, err = run(
        ["corollary-ratio", "--p", "3", "--K-list", "1,2", "--sigma", sigma,
         "--r", "4", "--seed", "5", "--out", str(corollary)],
        capsys,
    )
    assert code == 0, err
    corollary_rows = read_rows(corollary)[1:]
    restriction_rows = []
    for K in (1, 2):
        out_file = tmp_path / f"re{K}.csv"
        code, _, err = run(
            ["restriction-estimate", "--p", "3", "--K", str(K), "--sigma", sigma_vector,
             "--r", "4", "--draws", "1", "--seed", "5", "--out", str(out_file)],
            capsys,
        )
        assert code == 0, err
        restriction_rows += read_rows(out_file)[1:]
    assert len(corollary_rows) == len(restriction_rows) == 2 * len(SAMPLER_NAMES)
    for got, want in zip(corollary_rows, restriction_rows):
        assert got[1:3] == want[1:3]  # p, K
        assert got[5:11] == want[5:11]
    # transforms carry a rounding bound, not 0
    assert any(float(row[10]) > 0 for row in corollary_rows)


def test_counterexample_command(tmp_path, capsys):
    out_file = tmp_path / "cx.csv"
    code, out, _ = run(
        ["counterexample", "--p", "5", "--kmax", "2", "--r", "2,6",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = read_rows(out_file)
    assert rows[0] == ["p", "k", "N", "r", "single_norm", "sum_norm", "ratio",
                       "log_ratio"]
    assert len(rows) == 1 + 4
    r2 = [row for row in rows[1:] if float(row[3]) == 2.0]
    assert all(float(row[6]) == pytest.approx(1.0, rel=1e-9) for row in r2)


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=5\nK=2\n# comment line\n")
    code, out, _ = run(["hensel", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.strip() == "7"
    code, out, _ = run(["hensel", "--config", str(cfg), "--K", "1"], capsys)
    assert code == 0
    assert out.strip() == "2"  # flag overrides config


def test_config_key_may_name_the_flag(tmp_path, capsys):
    # vinogradov's --N is the parameter N_list; both names are keys
    for key in ("N", "N_list"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"minpoly=0\ns=2\nk=2\n{key}=4,8\n")
        out_file = tmp_path / f"{key}.csv"
        code, _, _ = run(["vinogradov", "--config", str(cfg),
                          "--out", str(out_file)], capsys)
        assert code == 0
        assert [row[5] for row in read_rows(out_file)[1:]] == ["28", "120"]


@pytest.mark.parametrize("line", ["sigm=0,1", "precisoin=100", "precision=100",
                                  "help=true"])
def test_config_unknown_key_exit_1(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p=3\nK=1\nsigma=0,0\nr=4\n{line}\n")
    code, _, err = run(["mv-padic", "--config", str(cfg),
                        "--out", str(tmp_path / "mv.csv")], capsys)
    assert code == 1
    key = line.partition("=")[0]
    assert err == f"invalid input: {cfg}:5: mv-padic has no option {key!r}\n"
    assert not (tmp_path / "mv.csv").exists()


def test_coeffs_file_roundtrip(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("index,real,imag\n0,1.0,0.0\n1,0.0,0.0\n2,0.0,0.0\n")
    out_file = tmp_path / "mv.csv"
    code, out, _ = run(
        ["mv-padic", "--p", "3", "--K", "1", "--sigma", "0,0", "--r", "4",
         "--coeffs-file", str(coeffs), "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert float(read_rows(out_file)[1][7]) == pytest.approx(1.0, rel=1e-9)


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPARSEMV_OUT", str(tmp_path))
    code, _, _ = run(
        ["traces", "--minpoly", "1,0", "--kappa-max", "2"], capsys
    )
    assert code == 0
    assert (tmp_path / "traces.csv").exists()


@pytest.mark.parametrize("args, stream", [
    (["hensel", "--p", "5", "--K", "2"], "stdout"),
    (["hensel", "--p", "10", "--K", "2"], "stderr"),
    (["--help"], "stdout"),
    (["mv-padic", "--help"], "stdout"),
    ([], "stderr"),
])
def test_in_process_call_keeps_no_output_stream_alive(args, stream):
    buf = io.StringIO()
    redirect = (contextlib.redirect_stdout if stream == "stdout"
                else contextlib.redirect_stderr)
    with redirect(buf):
        main(args)
    assert buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["mv-padic", "--help"]) == 0


def test_mean_values_run_without_mpmath(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"  # any import of mpmath now fails
        "from sparsemv.cli import main\n"
        "for argv in (['mv-padic', '--sigma', '0,0'],\n"
        "             ['mv-real', '--sigma', '0,1'],\n"
        "             ['transfer-check', '--sigma', '0,1', '--vectors', '2']):\n"
        "    argv += ['--p', '3', '--K', '1', '--r', '3', '--out', sys.argv[1]]\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "o.csv")],
                   env=env, check=True, capture_output=True, timeout=120)


@pytest.mark.parametrize("r", ["700", "701"])
def test_overflowing_power_fails_in_one_line(tmp_path, r):
    # |S|^r passes the float range: numpy's overflow warning must not print
    script = (
        "import sys\n"
        "from sparsemv.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "mv-padic", "--p", "3", "--K", "1",
         "--sigma", "0,0", "--r", r, "--sampler", "random-phase",
         "--out", str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid input: ")
    assert len(proc.stderr.splitlines()) == 1


def test_convolved_offset_sums_do_not_depend_on_threads_or_blocks(
        tmp_path, capsys, monkeypatch):
    # moment curve p=3 K=1 sigma (0,0,1) at r = 4 takes the convolution path
    argv = ["transfer-check", "--k", "3", "--p", "3", "--K", "1", "--sigma", "0,0,1",
            "--r", "4", "--vectors", "2", "--seed", "5"]
    outputs = []
    # default, then 5 offset columns per block: W = 9 pairs of 32 bytes and 32
    # more per column
    for block in (None, 9 * 32 * (5 + 1)):
        if block:
            monkeypatch.setattr(exact, "_BLOCK_BYTES", block)
        for threads in ("1", "2"):
            out = tmp_path / f"{block}-{threads}.csv"
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    capsys.readouterr()
    assert len(outputs[0]) > 100
    assert all(data == outputs[0] for data in outputs)


def test_offset_outputs_do_not_depend_on_thread_settings(tmp_path):
    # --threads splits the offset row or column blocks over worker threads
    # and OPENBLAS_NUM_THREADS splits each GEMM; neither may change a CSV byte
    commands = [
        ["transfer-check", "--p", "3", "--K", "2", "--sigma", "0,1", "--r", "4",
         "--vectors", "2", "--seed", "5"],
        ["mv-real", "--p", "5", "--K", "2", "--sigma", "0,1/2", "--r", "3",
         "--sampler", "random-phase", "--seed", "5"],
        # even r on few residues: the convolution over many offset column blocks
        ["transfer-check", "--k", "3", "--p", "3", "--K", "2", "--sigma", "0,1,2",
         "--r", "4", "--vectors", "1", "--seed", "5"],
    ]
    script = (
        "import sys, json\n"
        "from sparsemv.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        for blas in ("1", "2"):
            tag = f"t{threads}b{blas}"
            argvs = [cmd + ["--threads", threads,
                           "--out", str(tmp_path / f"{tag}-{i}.csv")]
                     for i, cmd in enumerate(commands)]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                           env=env, check=True, capture_output=True, timeout=120)
            outputs[tag] = [(tmp_path / f"{tag}-{i}.csv").read_bytes()
                            for i in range(len(commands))]
    first = outputs["t1b1"]
    assert all(len(data) > 100 for data in first)
    for tag, data in outputs.items():
        assert data == first, tag


# --- fuzzed arguments ----------------------------------------------------------

def _mostly(valid, invalid):
    """A valid argument seven times in eight, else an invalid one."""
    return st.sampled_from(list(valid) * (7 * len(invalid)) + list(invalid) * len(valid))


_BAD_INTS = ["-1", "0", "1/2", "x", ""]
_BAD_FLOATS = ["-1", "0", "1/2", "700", "1e308", "nan", "inf", "-inf", "x"]
#: minimal polynomials by degree (0: invalid); the degree bounds k, so that
#: every call stays small
_FIELDS = {"0": 1, "1,0": 2, "-2,0,0": 3, "0,0": 0, "1/2,0": 0, "1/0": 0, "nan": 0,
           "": 0}
_MINPOLYS = _mostly(["0", "1,0", "-2,0,0"], [f for f, d in _FIELDS.items() if not d])


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(["mv-padic", "mv-real", "transfer-check",
                                    "vinogradov", "counterexample"]))
    argv = [command]
    if command == "vinogradov":
        small = _mostly(["1", "2", "3"], _BAD_INTS)
        argv += ["--minpoly", draw(_MINPOLYS),
                 "--s", draw(small), "--k", draw(small),
                 "--N", ",".join(draw(st.lists(_mostly(["1", "2", "4"], _BAD_INTS),
                                               min_size=1, max_size=3)))]
        return argv + (["--transcendental"] if draw(st.booleans()) else [])
    if command == "counterexample":
        return argv + [
            "--p", draw(_mostly(["3", "5", "13"], ["-3", "0", "1", "2", "4"])),
            "--kmax", draw(_mostly(["1", "2"], _BAD_INTS)),
            "--r", ",".join(draw(st.lists(_mostly(["2", "4", "2.5"], _BAD_FLOATS),
                                          min_size=1, max_size=2)))]
    minpoly = draw(_MINPOLYS)
    degree = max(_FIELDS[minpoly], 1)
    k = draw(_mostly([str(k) for k in range(1, 5 - degree)], ["-1", "0", "x"]))
    K = draw(_mostly(["1"], ["-1", "0", "2"]))
    p = "2" if K == "2" else draw(_mostly(["2", "3"], ["-3", "0", "1", "4"]))
    width = degree * int(k) if k.isdigit() else 1
    width = draw(st.sampled_from([width, width, width, 1, width + 1]))
    sigma = _mostly(["0", "0", "1", "1/2"], ["-1", "1/0", "nan", "inf", "", "x"])
    argv += ["--minpoly", minpoly, "--k", k, "--p", p, "--K", K,
             "--sigma", ",".join(draw(st.lists(sigma, min_size=width, max_size=width))),
             "--r", draw(_mostly(["2", "3", "4", "6", "2.5"], _BAD_FLOATS)),
             "--sampler", draw(st.sampled_from(SAMPLER_NAMES)),
             "--seed", draw(st.sampled_from(["0", "7", "-1"]))]
    if command != "mv-padic":
        argv += ["--quad-order", draw(_mostly(["1", "2", "4"], ["-1", "0"]))]
        if draw(st.booleans()):
            argv += ["--quad-depth", draw(_mostly(["0", "1"], ["-1", "30"]))]
    if command == "transfer-check":
        argv += ["--vectors", draw(_mostly(["1", "2"], ["-1", "0"])),
                 "--tol", draw(_mostly(["0", "1e-6", "0.5"], _BAD_FLOATS))]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzzed_argv())
def test_fuzzed_arguments_exit_with_a_code_and_at_most_one_line(tmp_path, argv):
    # in process: an uncaught exception fails the test, and a numpy or Python
    # warning, which a command line run would print, counts as a stderr line
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path / "fuzz.csv")])
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) <= 1, (argv, lines)
    assert (code == 0) == (not lines), (argv, lines)
