from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import product

import pytest

from sparsemv import domains
from sparsemv.domains import (
    LocalizationVector,
    build_domain,
    emit_cell_csv,
    enumerate_cells,
)
from sparsemv.errors import BudgetExceededError, InvalidInputError
from sparsemv.padic import ScaleSpec


def _domain(p, K, degrees, sigma):
    return build_domain(
        ScaleSpec(p=p, K=K),
        LocalizationVector(tuple(Fraction(s) for s in sigma)),
        degrees,
    )


def test_parabola_domain_example():
    dom = _domain(3, 1, (1, 2), (0, 1))
    assert dom.cell_counts == (3, 3)
    assert dom.measure == Fraction(1, 3)
    assert dom.cell_halfwidths == (Fraction(1, 6), Fraction(1, 18))


def test_sigma_zero_full_tiling():
    dom = _domain(3, 1, (1, 2), (0, 0))
    assert dom.cell_counts == (3, 9)
    assert dom.measure == 1


def test_moment_curve_plates():
    dom = _domain(3, 1, (1, 2, 3), (0, 0, 1))
    assert dom.cell_counts == (3, 9, 9)  # N^(3 - sigma_3) plates stacked on axis 3
    assert dom.measure == Fraction(1, 3)


def test_invalid_sigma_rejected():
    with pytest.raises(InvalidInputError):
        _domain(3, 1, (1, 2), (0, Fraction(1, 2)))  # sigma*K not integral
    with pytest.raises(InvalidInputError):
        _domain(3, 1, (1, 2), (0, 3))  # sigma_2 > degree
    with pytest.raises(InvalidInputError):
        _domain(3, 1, (1, 2), (0,))  # wrong length
    with pytest.raises(InvalidInputError):
        _domain(3, 1, (), ())  # no axis


def test_fractional_sigma_with_matching_K():
    dom = _domain(3, 2, (1, 2), (0, Fraction(1, 2)))
    assert dom.cell_counts == (9, 27)
    assert dom.measure == Fraction(1, 3)


def test_enumerate_cells_lexicographic_and_centers():
    dom = _domain(3, 1, (1, 2), (0, 1))
    cells = list(enumerate_cells(dom))
    assert len(cells) == 9
    assert [c[0] for c in cells[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    iota, center, halfwidth = cells[5]  # iota = (1, 2)
    assert iota == (1, 2)
    assert center == (Fraction(1, 3), Fraction(2, 3))
    assert halfwidth == (Fraction(1, 6), Fraction(1, 18))


def test_single_cell_when_sigma_maximal():
    dom = _domain(5, 1, (1, 2), (1, 2))
    assert dom.total_cells == 1
    cells = list(enumerate_cells(dom))
    assert cells[0][0] == (0, 0)
    assert cells[0][1] == (Fraction(0), Fraction(0))


def test_two_cell_axis_centers():
    dom = _domain(2, 1, (1,), (0,))
    cells = list(enumerate_cells(dom))
    assert [c[1][0] for c in cells] == [Fraction(0), Fraction(1, 2)]


def test_measure_identity_exact():
    cases = [
        (3, 1, (1, 2), (0, 1)),
        (3, 2, (1, 2), (0, Fraction(3, 2))),
        (5, 1, (1, 2, 3), (0, 1, 2)),
        (2, 3, (2, 2), (Fraction(1, 3), 2)),
    ]
    for p, K, degrees, sigma in cases:
        dom = _domain(p, K, degrees, sigma)
        total = Fraction(0)
        for _, _, hw in enumerate_cells(dom):
            vol = Fraction(1)
            for h in hw:
                vol *= 2 * h
            total += vol
        N = dom.scale.N
        expected = Fraction(1)
        for s in sigma:
            expected /= Fraction(N) ** 0 * dom.scale.p ** int(Fraction(s) * K)
        assert total == expected
        assert dom.measure == expected


def test_cells_disjoint_on_torus():
    dom = _domain(3, 1, (1, 2), (0, 1))
    cells = list(enumerate_cells(dom))
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            ci, cj = cells[i][1], cells[j][1]
            hw = dom.cell_halfwidths
            separated = False
            for a, b, h in zip(ci, cj, hw):
                gap = abs(a - b)
                gap = min(gap, 1 - gap)  # torus distance
                if gap >= 2 * h:
                    separated = True
            assert separated or ci == cj


def test_budget_enforced():
    dom = _domain(3, 1, (1, 2), (0, 0))
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_cells(dom, budget=10))
    assert err.value.requested == 27


def test_emit_cell_csv(tmp_path):
    dom = _domain(3, 1, (1, 2), (0, 1))
    path = tmp_path / "cells.csv"
    count = emit_cell_csv(dom, path)
    assert count == 9
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "iota_1"
    assert len(lines) == 2 + 9
    # exact rational centers serialize as a/b
    assert "1/3" in lines[2 + 5]


def test_emit_cell_csv_over_longer_file(tmp_path):
    dom = _domain(3, 1, (1, 2), (0, 1))
    fresh = tmp_path / "fresh.csv"
    emit_cell_csv(dom, fresh)
    path = tmp_path / "cells.csv"
    path.write_bytes(b"x" * (3 * fresh.stat().st_size))
    emit_cell_csv(dom, path)
    assert path.read_bytes() == fresh.read_bytes()


def test_emit_single_cell(tmp_path):
    dom = _domain(5, 1, (2,), (2,))
    path = tmp_path / "one.csv"
    assert emit_cell_csv(dom, path) == 1


def _oracle_cell_csv(dom):
    """csv.writer over itertools.product with exact Fraction centers."""
    buf = io.StringIO(newline="")
    buf.write(
        "# domain cells: p=%d K=%d sigma=%s degrees=%s\n"
        % (dom.scale.p, dom.scale.K,
           ",".join(str(s) for s in dom.sigma.sigma),
           ",".join(str(d) for d in dom.degrees))
    )
    k = len(dom.degrees)
    writer = csv.writer(buf)
    writer.writerow([f"iota_{j + 1}" for j in range(k)]
                    + [f"center_{j + 1}" for j in range(k)]
                    + [f"halfwidth_{j + 1}" for j in range(k)])
    for iota in product(*(range(c) for c in dom.cell_counts)):
        centers = [Fraction(i, c) for i, c in zip(iota, dom.cell_counts)]
        writer.writerow([str(i) for i in iota] + [str(c) for c in centers]
                        + [str(h) for h in dom.cell_halfwidths])
    return buf.getvalue().encode("utf-8")


# With 7-row blocks every last axis longer than 7 cells runs over several
# blocks, rebuilt for each prefix, and ends in a short block.
@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("p, K, degrees, sigma", [
    (2, 3, (2,), (1,)),                                # k = 1
    (5, 1, (1,), (0,)),                                # k = 1, p = 5
    (3, 2, (1, 2), (0, 1)),                            # k = 2
    (3, 2, (1, 2), (0, 2)),                            # one-cell last axis
    (2, 2, (1, 2), (1, Fraction(1, 2))),               # one-cell first axis
    (5, 2, (1, 2), (0, Fraction(1, 2))),               # fractional sigma, p = 5
    (3, 1, (1, 2, 3), (0, 1, 1)),                      # k = 3
    (2, 2, (1, 1, 2), (Fraction(1, 2), 0, Fraction(3, 2))),  # k = 3, fractional
])
def test_emit_cell_csv_matches_csv_writer_oracle(
        tmp_path, monkeypatch, block_rows, p, K, degrees, sigma):
    if block_rows is not None:
        monkeypatch.setattr(domains, "_BLOCK_ROWS", block_rows)
    dom = _domain(p, K, degrees, sigma)
    path = tmp_path / "cells.csv"
    assert emit_cell_csv(dom, path) == dom.total_cells
    assert path.read_bytes() == _oracle_cell_csv(dom)

