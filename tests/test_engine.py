"""Order-by-order linearization engine, both modes, and its verifier."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from fuchslin import engine, plans, pnspace
from fuchslin.analytic import float_system, float_vecpoly
from fuchslin.document import dumps_canonical, series_table_json
from fuchslin.engine import (
    SeriesTable,
    compare_modes,
    compose_series,
    linearize,
    normal_form,
    verify_conjugacy,
)
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix, ShapeError
from fuchslin.model import AssumptionError, FuchsianSystem, NonlinearSystem
from fuchslin.pnspace import PnBasis, _scalars
from fuchslin.poly import VecPoly


def ec(v):
    return ExactComplex.parse(v)


def scalar_linear(a0, a1):
    return FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[ec(a0)]], True),
            CMatrix.from_rows([[ec(a1)]], True),
        ),
    )


def vp(rows, d=1):
    """VecPoly from ascending rows of entries (ints / fractions / strings)."""
    return VecPoly.from_coeffs(
        [tuple(ec(v) for v in row) for row in rows], exact=True, dim=d
    )


def mat(rows):
    """Exact CMatrix from rows of entries (ints / fractions / [re, im])."""
    return CMatrix.from_rows([[ec(v) for v in r] for r in rows], True)


def random_nonresonant(rng, d_max=2, s_max=1, u_order=3, x_deg=2):
    """Triangular residues, per-matrix spectra inside [1, 1.9]: then every
    lambda . m - lambda_i is positive, so no k >= 0 can hit a resonance."""
    d = rng.randint(1, d_max)
    s = rng.randint(0, s_max)
    poles = []
    while len(poles) < s + 2:
        c = ExactComplex(Fraction(rng.randint(-4, 4), 2))
        if all(c != p for p in poles):
            poles.append(c)
    mats = []
    for _ in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = ExactComplex(Fraction(rng.randint(10, 19), 10))
            for j in range(i + 1, d):
                rows[i][j] = ExactComplex(Fraction(rng.randint(-1, 1), 3))
        mats.append(CMatrix.from_rows(rows, True))
    linear = FuchsianSystem(tuple(poles), tuple(mats))

    terms = {}
    # d = 1 only has u^2 and u^3 available, so cap the request there
    n_terms = rng.randint(1, 2 if d == 1 else 3)
    while len(terms) < n_terms:
        m = tuple(rng.randint(0, u_order) for _ in range(d))
        if not 2 <= sum(m) <= u_order:
            continue
        coeffs = [
            tuple(
                ExactComplex(Fraction(rng.randint(-2, 2), 2)) for _ in range(d)
            )
            for _ in range(rng.randint(1, x_deg + 1))
        ]
        p = VecPoly.from_coeffs(coeffs, exact=True, dim=d)
        if not p.is_zero():
            terms[m] = p
    return NonlinearSystem(linear, terms)


# ----------------------------------------------------------------------
# SeriesTable
# ----------------------------------------------------------------------


def test_series_table_basics():
    t = SeriesTable(2, True)
    t.set((2, 0), vp([[1, 0]], d=2))
    t.set((0, 2), vp([[0, 1]], d=2))
    t.set((1, 1), VecPoly.zero(2, True))      # zero entries are dropped
    assert len(t) == 2
    assert t.get((1, 1)) is None
    assert [m for m, _ in t.items_sorted()] == [(0, 2), (2, 0)]
    assert t.max_order() == 2
    assert set(t.order_slice(2)) == {(0, 2), (2, 0)}
    with pytest.raises(ShapeError):
        t.set((1, 0, 0), vp([[1, 0]], d=2))


# ----------------------------------------------------------------------
# compose_series
# ----------------------------------------------------------------------


def test_compose_with_trivial_h_returns_f_slice():
    f = {
        (2, 0): vp([[1, 0]], d=2),
        (1, 1): vp([[0, 0], [2, 0]], d=2),
        (0, 3): vp([[0, 5]], d=2),
    }
    h = SeriesTable(2, True)
    got2, got3, got4 = compose_series(f, h, None, 4)
    assert set(got2) == {(2, 0), (1, 1)}
    assert (got2[(2, 0)] - f[(2, 0)]).is_zero()
    assert (got2[(1, 1)] - f[(1, 1)]).is_zero()
    assert set(got3) == {(0, 3)}
    assert got4 == {}


def test_compose_quadratic_through_substitution():
    # f = x u^2, h_2 = w^2/2: [x (w + w^2/2 + ...)^2]_3 = x w^3
    f = {(2,): vp([[0], [1]])}
    h = SeriesTable(1, True)
    h.set((2,), vp([[Fraction(1, 2)]]))
    _, got, got4 = compose_series(f, h, None, 4)
    assert set(got) == {(3,)}
    assert (got[(3,)] - vp([[0], [1]])).is_zero()
    # and the order-4 part picks up the square of h_2: x w^4 / 4
    assert (got4[(4,)] - vp([[0], [Fraction(1, 4)]])).is_zero()


def test_compose_mode_difference_is_real():
    # at order 3 a single h-insertion feeds both modes, so they coincide:
    # [c w^2 at w+h]_3 = 2c w h_2 equals (d_w h_2) c w^2
    f = {(2,): vp([[0], [1]])}
    h = SeriesTable(1, True)
    h.set((2,), vp([[1]]))
    extra = SeriesTable(1, True)
    extra.set((2,), vp([[0], [3]]))   # psi_2 = 3 x w^2
    _, obstruction3, obstruction = compose_series(f, h, extra, 4,
                                                  mode="obstruction")
    _, normal3, normal = compose_series(f, h, extra, 4, mode="normal-form")
    assert (obstruction3[(3,)] - normal3[(3,)]).is_zero()
    # at order 4 the double insertion enters only through the composition:
    # [c_2 (w+h)^2]_4 contains c_2 h_2^2, with no Jacobian counterpart, so
    # obstruction - normal = -psi_2 h_2^2 / w^2 = -3 x w^4
    diff = obstruction[(4,)] - normal[(4,)]
    assert (diff - vp([[0], [-3]])).is_zero()


def test_compose_rejects_unknown_mode():
    with pytest.raises(ValueError):
        list(compose_series({}, SeriesTable(1, True), None, 2,
                            mode="direct"))


@pytest.mark.parametrize("low", [(0,), (1,)])
def test_compose_rejects_a_term_of_f_below_order_two(low):
    f = {(2,): vp([[1]]), low: vp([[1]])}
    with pytest.raises(ValueError, match=rf"term \({low[0]},\) of f has "
                                         "order below 2"):
        list(compose_series(f, SeriesTable(1, True), None, 3))


@pytest.mark.parametrize("mode", ["obstruction", "normal-form"])
@pytest.mark.parametrize("seed", range(6))
def test_compose_reads_only_lower_orders_of_h(seed, mode):
    _check_reads_only_lower_orders(random_nonresonant(random.Random(seed)),
                                   mode)


@pytest.mark.parametrize("mode", ["obstruction", "normal-form"])
@pytest.mark.parametrize("seed", range(6))
def test_compose_reads_only_lower_orders_of_h_float(seed, mode):
    nl = random_nonresonant(random.Random(seed))
    _check_reads_only_lower_orders(NonlinearSystem(
        float_system(nl.linear),
        {m: float_vecpoly(p) for m, p in nl.nonlinearity.items()}), mode)


def _check_reads_only_lower_orders(nl, mode):
    # Tables filled one order at a time between yields give the same parts,
    # bit for bit, as the complete tables: order n reads h only below n,
    # and the kept power slices are never stale.  Order n is asked for
    # with extra through order n (the obstruction part at order n holds
    # -extra_n itself) and h through order n - 1.
    runner = linearize if mode == "obstruction" else normal_form
    series, h = runner(nl, 5)
    f = nl.nonlinearity
    complete = list(compose_series(f, h, series, 5, mode=mode))

    h_part = SeriesTable(h.dim, h.exact)
    extra_part = SeriesTable(h.dim, h.exact, series.order_slice(2))
    parts = compose_series(f, h_part, extra_part, 5, mode=mode)
    for n, got in enumerate(parts, start=2):
        want = complete[n - 2]
        assert sorted(got) == sorted(want), (n, sorted(got), sorted(want))
        for m in want:
            assert (got[m] - want[m]).is_zero(), (n, m)
        for m, p in h.order_slice(n).items():
            h_part.set(m, p)
        for m, p in series.order_slice(n + 1).items():
            extra_part.set(m, p)
    assert n == 5


# A reference composition that shares no code with the engine: a scalar
# polynomial in (w, x) is a {(m, x-power): Fraction} dict, a vector field a
# list of them, one per component.


def _ref_add(p, q, sign=1):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _ref_mul(p, q, top):
    """p * q without the terms of w-degree above ``top``."""
    out = {}
    for (ma, ka), ca in p.items():
        for (mb, kb), cb in q.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            if sum(m) <= top:
                out[m, ka + kb] = out.get((m, ka + kb), 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _ref_substitute(field, h, d, top):
    """field(x, w + h) through w-degree ``top``; (w + h)^m is expanded by
    repeated truncated products."""
    units = [tuple(int(k == j) for k in range(d)) for j in range(d)]
    u = [_ref_add({(units[j], 0): Fraction(1)}, h[j]) for j in range(d)]
    out = [{} for _ in range(d)]
    for i in range(d):
        for (mt, k), c in field[i].items():
            power = {((0,) * d, k): c}
            for j in range(d):
                for _ in range(mt[j]):
                    power = _ref_mul(power, u[j], top)
            out[i] = _ref_add(out[i], power)
    return out


def _ref_jacobian(h, v, d, top):
    """(d_w h) v through w-degree ``top``."""
    out = [{} for _ in range(d)]
    for i in range(d):
        for l in range(d):
            dh = {
                (tuple(e - (k == l) for k, e in enumerate(m)), x): m[l] * c
                for (m, x), c in h[i].items() if m[l]
            }
            out[i] = _ref_add(out[i], _ref_mul(dh, v[l], top))
    return out


def _to_table(field, d):
    """SeriesTable of a reference vector field with rational coefficients."""
    rows = {}
    for i in range(d):
        for (m, k), c in field[i].items():
            rows.setdefault(m, {})[k, i] = c
    table = SeriesTable(d, True)
    for m, entries in rows.items():
        deg = max(k for k, _ in entries) + 1
        table.set(m, VecPoly.from_coeffs(
            [tuple(ExactComplex(entries.get((k, i), 0)) for i in range(d))
             for k in range(deg)], True, dim=d))
    return table


def _flatten(part):
    """{(i, m, x-power): Fraction} of a yielded {monomial: VecPoly} part."""
    out = {}
    for m, p in part.items():
        for k, vec in enumerate(p.coeffs):
            for i, z in enumerate(vec):
                assert z.im == 0
                if z:
                    out[i, m, k] = z.re
    return out


def _random_field(rng, d, orders, x_deg, density):
    field = [{} for _ in range(d)]
    for n in orders:
        for m in itertools.product(range(n + 1), repeat=d):
            if sum(m) != n:
                continue
            for i in range(d):
                for k in range(x_deg + 1):
                    if rng.random() < density:
                        field[i][m, k] = Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 4))
    return [{key: c for key, c in comp.items() if c} for comp in field]


@pytest.mark.parametrize("mode", ["obstruction", "normal-form"])
def test_compose_matches_naive_reference_d3(mode):
    # d = 3, f of orders 2-3, h of orders 2-4 and a nonzero extra of orders
    # 2-4, all with rational x-polynomial coefficients; every yielded order
    # 2-5 must equal the reference exactly.
    d, top = 3, 5
    rng = random.Random(2024)
    f = _random_field(rng, d, (2, 3), 2, 0.15)
    h = _random_field(rng, d, (2, 3, 4), 1, 0.2)
    extra = _random_field(rng, d, (2, 3, 4), 1, 0.1)
    assert all(f) and all(h) and all(extra)

    if mode == "obstruction":
        f_less = [_ref_add(f[i], extra[i], -1) for i in range(d)]
        want = _ref_substitute(f_less, h, d, top)
    else:
        subst = _ref_substitute(f, h, d, top)
        jac = _ref_jacobian(h, extra, d, top)
        want = [_ref_add(subst[i], jac[i], -1) for i in range(d)]

    parts = compose_series(_to_table(f, d).terms, _to_table(h, d),
                           _to_table(extra, d), top, mode=mode)
    for n, got in enumerate(parts, start=2):
        want_n = {(i, m, k): c for i in range(d)
                  for (m, k), c in want[i].items() if sum(m) == n}
        assert want_n, n
        assert _flatten(got) == want_n, (mode, n)
    assert n == top


@pytest.mark.parametrize("mode", ["obstruction", "normal-form"])
def test_compose_float_matches_naive_reference_d3(mode):
    # the rational reference of the test above, fed to the float executor
    # as complex tables: every yielded order 2-5 within 1e-12 of the
    # reference, relative to the order's largest coefficient
    d, top = 3, 5
    rng = random.Random(2024)
    f = _random_field(rng, d, (2, 3), 2, 0.15)
    h = _random_field(rng, d, (2, 3, 4), 1, 0.2)
    extra = _random_field(rng, d, (2, 3, 4), 1, 0.1)

    if mode == "obstruction":
        f_less = [_ref_add(f[i], extra[i], -1) for i in range(d)]
        want = _ref_substitute(f_less, h, d, top)
    else:
        subst = _ref_substitute(f, h, d, top)
        jac = _ref_jacobian(h, extra, d, top)
        want = [_ref_add(subst[i], jac[i], -1) for i in range(d)]

    def to_float(field):
        return SeriesTable(d, False, {
            m: float_vecpoly(p) for m, p in _to_table(field, d).terms.items()
        })

    parts = compose_series(to_float(f).terms, to_float(h), to_float(extra),
                           top, mode=mode)
    for n, got in enumerate(parts, start=2):
        want_n = {(i, m, k): complex(c) for i in range(d)
                  for (m, k), c in want[i].items() if sum(m) == n}
        got_n = {(i, m, k): z for m, p in got.items()
                 for k, vec in enumerate(p.coeffs)
                 for i, z in enumerate(vec) if z}
        scale = max(abs(c) for c in want_n.values())
        for key in set(want_n) | set(got_n):
            error = abs(got_n.get(key, 0) - want_n.get(key, 0))
            assert error <= 1e-12 * scale, (mode, n, key, error / scale)
    assert n == top


def test_float_products_do_not_depend_on_batch_size(monkeypatch):
    # the float executor takes row products in batches of whole runs of
    # equal targets; batches of a few coefficients give the same parts,
    # bit for bit, as one batch
    linear, terms = _full_residue_d3_case()
    nl = NonlinearSystem(float_system(linear),
                         {m: float_vecpoly(p) for m, p in terms.items()})
    for mode, runner in (("obstruction", linearize),
                         ("normal-form", normal_form)):
        series, h = runner(nl, 5)

        def parts():
            return [sorted((m, p.coeffs) for m, p in part.items())
                    for part in compose_series(nl.nonlinearity, h, series, 5,
                                               mode=mode)]

        whole = parts()
        monkeypatch.setattr(engine, "_BATCH", 8)
        assert parts() == whole, mode
        monkeypatch.undo()


# ----------------------------------------------------------------------
# the float row kernel against the column loop it replaces
# ----------------------------------------------------------------------


def _reference_convolve(a, b):
    """Row-wise polynomial products of rows a and b: the longer side times
    one column of the shorter side at a time, added into a zero output."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), complex)
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out


def _random_rows(rng, count, width, integer):
    """(count, width) complex rows: small Gaussian integers, which every
    product and sum keeps exact, or normal deviates."""
    if integer:
        return rng.integers(-9, 10, (count, width)) \
            + 1j * rng.integers(-9, 10, (count, width))
    return rng.standard_normal((count, width)) \
        + 1j * rng.standard_normal((count, width))


# (rows, longer x-length, shorter x-length) of one batch
KERNEL_SHAPES = [(0, 3, 2), (1, 1, 1), (9, 1, 1), (7, 4, 4), (40, 27, 27),
                 (300, 9, 1), (3000, 5, 3), (1200, 13, 6), (64, 2, 1)]


@pytest.mark.parametrize("integer", [True, False])
def test_float_kernel_matches_the_column_loop(integer):
    # integer-valued rows sum exactly in any order: bit for bit.  Normal
    # deviates: within 1e-15 of sum |a||b| per coefficient, as a product
    # may round differently in its last bit
    rng = np.random.default_rng(41 + integer)
    data = _random_rows(rng, 500, 30, integer)
    for rows, ll, ls in KERNEL_SHAPES:
        long, short = rng.integers(0, 500, (2, rows))
        a, b = data[long, :ll], data[short, :ls]
        got = engine._convolve(data, long, ll, short, ls)
        want = _reference_convolve(a, b)
        assert got.shape == want.shape == (rows, ll + ls - 1)
        if integer:
            assert np.array_equal(got, want), (rows, ll, ls)
        else:
            bound = 1e-15 * _reference_convolve(abs(a), abs(b)).real
            assert (abs(got - want) <= bound).all(), (rows, ll, ls)


def test_float_kernel_is_non_finite_where_the_column_loop_is():
    # an inf operand: every coefficient the loop leaves non-finite is
    # non-finite, and rows without one agree.  The padding zeros meet an
    # inf of the shorter side, so its row also reads nan where the loop,
    # which skips them, stays finite
    rng = np.random.default_rng(7)
    padded = 0
    data = _random_rows(rng, 200, 12, False)
    data[3, 2] = np.inf
    data[5, 0] = complex(-np.inf, 1)
    data[8, 1] = complex(0, np.inf)
    for rows, ll, ls in [(60, 12, 4), (60, 5, 5), (60, 7, 1)]:
        long, short = rng.integers(10, 200, (2, rows))
        long[:3] = 3, 5, 8
        short[3:6] = 3, 5, 8
        with np.errstate(over="ignore", invalid="ignore"):
            got = engine._convolve(data, long, ll, short, ls)
            want = _reference_convolve(data[long, :ll], data[short, :ls])
        assert (~np.isfinite(got[~np.isfinite(want)])).all()
        clean = np.isfinite(data[long, :ll]).all(axis=1) \
            & np.isfinite(data[short, :ls]).all(axis=1)
        assert clean[6:].all() and not clean.all()
        assert np.allclose(got[clean], want[clean], rtol=1e-14, atol=0)
        padded += (np.isnan(got) & np.isfinite(want)).sum()
    assert padded


@pytest.mark.parametrize("la, lb", [(3, 9), (6, 6), (9, 3), (1, 4), (1, 1)])
def test_float_run_matches_the_column_loop(monkeypatch, la, lb):
    # hand-made plans on integer rows of x-lengths la and lb, in batches of
    # a few runs (_BATCH 64) and in one: each target is the scaled sum of
    # its products plus its copies, bit for bit, whichever side is longer;
    # the rows sit in three field blocks of order 5 at d = 3 (63 rows each)
    rng = np.random.default_rng(la * 10 + lb)
    store = engine._FloatRows(3, 5)
    first = plans._layout(3, 5).first[5]
    blocks = [_random_rows(rng, 50, width, True) for width in (la, lb, 4)]
    for kind, block in enumerate(blocks):
        block[0, -1] = 1
        store.add(kind, 5, block)
    size, count, copies = 700, 3000, 200
    target = np.sort(rng.integers(0, size, count))
    c_target = np.sort(rng.integers(0, size, copies))
    scale = rng.choice([-2, -1, 1, 3], count)
    a, b, c = rng.integers(0, 50, (3, count))
    pairs, = plans._plans(
        store.layout.block, [size],
        np.array([first[0] + a, first[1] + b, target, scale], np.int32),
        plans._cut([size], np.bincount(target, minlength=size)),
        np.array([first[2] + c[:copies], c_target], np.int32),
        plans._cut([size], np.bincount(c_target, minlength=size)))
    assert [list(ids) for ids in pairs.blocks] == [
        [store.layout.ids[5, kind]] for kind in range(3)]
    want = np.zeros((size, max(la + lb - 1, 4)), complex)
    prods = _reference_convolve(blocks[0][a], blocks[1][b]) * scale[:, None]
    np.add.at(want, (target, slice(0, la + lb - 1)), prods)
    np.add.at(want, (c_target, slice(0, 4)), blocks[2][c[:copies]])
    assert np.array_equal(store.run(pairs), want)
    monkeypatch.setattr(engine, "_BATCH", 64)
    assert np.array_equal(store.run(pairs), want)


def _named(d, top, rows):
    """(kind, order, row in its block) of each of the store rows ``rows``,
    read back through the layout through order ``top``."""
    layout = plans._layout(d, top)
    order, kind = np.nonzero(layout.ids >= 0)   # by block id
    ids = layout.block[rows]
    return kind[ids], order[ids], rows - layout.first[order[ids], kind[ids]]


def test_layout_blocks_follow_each_other_without_overlap():
    # order by order the six field blocks of N_k * d rows (two rows at
    # order 0 when d = 1, for Q and 1), then P[2, k] .. P[k - 1, k] of
    # N_p * N_k rows: every store row belongs to exactly one block, and
    # each block's rows follow each other from its first row
    for d in (1, 2, 3, 4):
        layout = plans._layout(d, 9)
        order, kind = np.nonzero(layout.ids >= 0)
        assert np.array_equal(layout.ids[order, kind], np.arange(order.size))
        for k in range(10):
            assert kind[order == k].tolist() == list(
                range(plans._H + 1 + max(k - 2, 0)))
        count = np.array([plans._count(d, k) for k in range(10)])
        sizes = np.where(kind <= plans._H, d, count[kind - plans._H + 1]) \
            * count[order]
        sizes[order == 0] = max(d, 2)
        assert np.array_equal(layout.block,
                              np.repeat(np.arange(order.size), sizes))
        assert np.array_equal(layout.first[order, kind],
                              np.cumsum(sizes) - sizes)
        assert (layout.first[layout.ids < 0] == -1).all()


def test_a_block_place_does_not_depend_on_the_order_max():
    # the layout through a lower order is a prefix of a longer one
    for d in (1, 2, 3):
        full = plans._layout(d, 10)
        for top in range(10):
            layout = plans._layout(d, top)
            kinds = layout.ids.shape[1]
            assert np.array_equal(full.ids[:top + 1, :kinds], layout.ids)
            assert (full.ids[:top + 1, kinds:] == -1).all()
            assert np.array_equal(full.first[:top + 1, :kinds], layout.first)
            assert np.array_equal(full.block[:layout.block.size],
                                  layout.block)
            assert full.block[layout.block.size] == layout.block[-1] + 1


def _dense_system(d, top, exact):
    """A nonresonant system whose f holds every monomial of orders 2 ..
    ``top`` at x-degree 1."""
    rng = random.Random(f"dense-{d}-{top}")
    linear = random_nonresonant(rng, d_max=d).linear
    while linear.size != d:
        linear = random_nonresonant(rng, d_max=d).linear
    f = {m: vp([[rng.randint(1, 3) for _ in range(d)],
                [rng.randint(-2, 2) for _ in range(d)]], d)
         for k in range(2, top + 1) for m in pnspace.multiindices(d, k)}
    if exact:
        return NonlinearSystem(linear, f)
    return NonlinearSystem(float_system(linear),
                           {m: float_vecpoly(p) for m, p in f.items()})


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_every_block_a_plan_reads_is_written_before_it_runs(monkeypatch,
                                                             exact):
    # linearize, normal_form, verify_conjugacy and compose_series in both
    # modes, with f of orders 2 .. top for tops 2, 3 and order_max: each
    # plan a store runs reads only blocks already written
    runs = []

    def checked(run):
        def wrapper(self, pairs):
            for ids in pairs.blocks:
                assert self.added[ids].all(), [
                    i for i in ids if not self.added[i]]
            runs.append(pairs.size)
            return run(self, pairs)
        return wrapper

    for store in (engine._FloatRows, engine._ExactRows):
        monkeypatch.setattr(store, "run", checked(store.run))
    for d, order_max in ((1, 6), (2, 5 - exact), (3, 4 - exact)):
        for top in sorted({2, 3, order_max}):
            nl = _dense_system(d, top, exact)
            for mode in ("obstruction", "normal-form"):
                runner = linearize if mode == "obstruction" else normal_form
                series, h = runner(nl, order_max)
                verify_conjugacy(nl, series, h, order_max, mode=mode)
                for extra in (None, series):
                    for _ in compose_series(nl.nonlinearity, h, extra,
                                            order_max, mode=mode):
                        pass
    assert len(runs) > 500


# ----------------------------------------------------------------------
# the exact executor against the scalar accumulation it replaces
# ----------------------------------------------------------------------


def _reference_mul_acc(buf, a, b, zero):
    """``buf += a * b`` on a list of ExactComplex, one scalar product and
    one scalar sum per coefficient pair, ``buf`` padded but not trimmed."""
    short = len(a) + len(b) - 1 - len(buf)
    if short > 0:
        buf.extend([zero] * short)
    for i, ai in enumerate(a):
        for k, bj in enumerate(b, i):
            buf[k] += ai * bj


def _reference_run(d, top, blocks, pairs):
    """Untrimmed ExactComplex sums of the products and copies of ``pairs``
    over {(kind, order): [tuple of ExactComplex]} ``blocks``, the store
    rows read through the layout of d through order ``top``, and per
    target the largest denominator among the coefficients it read."""
    zero = ExactComplex(0)
    bufs = [[] for _ in range(pairs.size)]
    dens = [1] * pairs.size
    scale = (pairs.scale.tolist() if pairs.scale is not None
             else [1] * pairs.target.size)
    a_side, b_side, c_side = (_named(d, top, side)
                              for side in (pairs.a, pairs.b, pairs.c))

    def row(side, p):
        return blocks[int(side[0][p]), int(side[1][p])][int(side[2][p])]

    for p, t in enumerate(pairs.target.tolist()):
        a, b = row(a_side, p), row(b_side, p)
        if a and b:
            dens[t] = max([dens[t]] + [c.re.denominator for c in a + b])
        _reference_mul_acc(bufs[t], tuple(scale[p] * c for c in a), b, zero)
    for p, t in enumerate(pairs.c_target.tolist()):
        c = row(c_side, p)
        dens[t] = max([dens[t]] + [v.re.denominator for v in c])
        _reference_mul_acc(bufs[t], c, (ExactComplex(1),), zero)
    return bufs, dens


def _random_exact_row(rng, gaussian):
    """A trimmed row: small entries that often cancel, or Gaussian
    rationals over unrelated denominators."""
    width = rng.randint(0, 3)
    if gaussian:
        row = [ExactComplex(Fraction(rng.randint(-9, 9),
                                     rng.choice((1, 3, 4, 7, 10, 27))),
                            Fraction(rng.randint(-2, 2), rng.choice((1, 5, 9)))
                            if rng.random() < 0.5 else 0)
               for _ in range(width)]
    else:
        row = [ExactComplex(Fraction(rng.randint(-1, 1), rng.choice((1, 2))))
               for _ in range(width)]
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def _check_exact_executor(rng, d, top, pairs_list, seen):
    """Fill every block ``pairs_list`` reads with random rows, run each
    plan through the integer rows and the scalar reference, and compare
    row by row; the plans are those of d through order ``top``."""
    need = {}
    for pairs in pairs_list:
        for side in (pairs.a, pairs.b, pairs.c):
            for kind, order, row in zip(*(col.tolist()
                                          for col in _named(d, top, side))):
                need[kind, order] = max(need.get((kind, order), 0), row + 1)
    blocks = {}
    store = engine._ExactRows(d, top)
    for key, count in sorted(need.items()):
        gaussian = rng.random() < 0.5
        blocks[key] = [_random_exact_row(rng, gaussian) for _ in range(count)]
        rows = [pnspace._int_row(r) for r in blocks[key]]
        assert [_scalars(r) for r in rows] == blocks[key]
        store.add(*key, rows)
    for pairs in pairs_list:
        bufs, dens = _reference_run(d, top, blocks, pairs)
        for buf, read, row in zip(bufs, dens, store.run(pairs)):
            want = tuple(buf)
            while want and not want[-1]:
                want = want[:-1]
            assert _scalars(row) == want
            if buf and not want:
                seen.add("cancels to zero")
            elif len(want) < len(buf):
                seen.add("trailing zeros")
            if row is not None:
                den, re, im = row
                assert den > 0 and math.gcd(den, *re, *(im or ())) == 1
                assert re[-1] or im is not None and im[-1]
                assert im is None or len(im) == len(re) and any(im)
                if im is not None:
                    seen.add("imaginary part")
                if den == 1 and read > 1:
                    seen.add("denominator reduces to 1")
        if pairs.scale is not None and (pairs.scale < 0).any():
            seen.add("negative scale")


@pytest.mark.parametrize("d, n_max", [(2, 6), (3, 4)])
def test_exact_executor_matches_scalar_reference(d, n_max):
    # the order plans of both modes and the verifier plan, on seeded rows:
    # the integer rows give exactly the reference's ExactComplex sums
    rng = random.Random(f"exact-executor-{d}")
    seen = set()
    runs = {top: {jacobian: plans._run_plans(d, n_max, top, jacobian)
                  for jacobian in (False, True)} for top in (3, n_max)}
    verify = {normal: plans._verify_plans(d, n_max, normal)
              for normal in (False, True)}
    for n in range(2, n_max + 1):
        for top in sorted({min(3, n), n}):
            for jacobian in (False, True):
                run = runs[3 if top == 3 else n_max][jacobian]
                power, _, rhs = run[n - 2]
                _check_exact_executor(rng, d, n, [power, rhs], seen)
        for normal in (False, True):
            _check_exact_executor(rng, d, n, [verify[normal][n - 2]], seen)
    assert seen == {"cancels to zero", "trailing zeros", "imaginary part",
                    "denominator reduces to 1", "negative scale"}


def test_exact_executor_cancellation_and_reduction():
    # rows 1/2 + x, 1/2 - x, x and 1/3 + i/6, and hand-made pairs:
    # target 0: (1/2 + x)(1/2 - x) + x * x = 1/4, two trailing zeros;
    # target 1: (1/2 + x) x - x (1/2 + x) = 0, by a negative scale;
    # target 2: 3 (1/3 + i/6)(1/2 - x) plus a copy of 1/2 - x;
    # target 3: copies of 1/2 + x and 1/2 - x, summing to 1 over den 1;
    # the rows are block (_T, 1) of d = 2, four rows
    half = Fraction(1, 2)
    rows = [(ExactComplex(half), ExactComplex(1)),
            (ExactComplex(half), ExactComplex(-1)),
            (ExactComplex(0), ExactComplex(1)),
            (ExactComplex(Fraction(1, 3), Fraction(1, 6)),)]
    store = engine._ExactRows(2, 1)
    store.add(plans._T, 1, [pnspace._int_row(r) for r in rows])
    first = store.layout.first[1, plans._T]
    products = (first + np.array([0, 2, 0, 2, 3]),
                first + np.array([1, 2, 2, 0, 1]),
                [0, 0, 1, 1, 2], [1, 1, 1, -1, 3])
    copies = (first + np.array([1, 0, 1]), [2, 3, 3])
    pairs, = plans._plans(
        store.layout.block, [4], np.array(products, np.int32),
        plans._cut([4], [2, 2, 1, 0]), np.array(copies, np.int32),
        plans._cut([4], [0, 0, 1, 2]))
    assert pairs.starts.tolist() == [0, 2, 4]
    assert pairs.c_starts.tolist() == [0, 1]
    out = store.run(pairs)
    assert out[1] is None and out[3] == (1, (1,), None)
    got = [_scalars(r) for r in out]
    assert got == [
        (ExactComplex(Fraction(1, 4)),),
        (),
        (ExactComplex(1, Fraction(1, 4)), ExactComplex(-2, Fraction(-1, 2))),
        (ExactComplex(1),),
    ]
    want = [list(buf) for buf in
            _reference_run(2, 1, {(plans._T, 1): rows}, pairs)[0]]
    for buf in want:
        while buf and not buf[-1]:
            buf.pop()
    assert got == [tuple(buf) for buf in want]


# Every plan a run builds, frozen: one sha256 per plan over its arrays
# cast to int64 (so the dtype does not enter), recorded from the per-order
# builders the run-wide ones replaced.  Keys: ("order", d, n, top,
# jacobian) for the power pairs, their blocks and the right-hand side, and
# ("verify", d, n, normal).
PLAN_DIGESTS = {
    ('order', 1, 2, 2, 0):
        "94d50980ae53d9fb92892c5dd5db0feb63299ce142cfc63a20e104f61123ab6a",
    ('order', 1, 2, 2, 1):
        "94d50980ae53d9fb92892c5dd5db0feb63299ce142cfc63a20e104f61123ab6a",
    ('verify', 1, 2, 0):
        "9fa3172503f4404393429766b5faf576681c3f257e9dd7bfe669b65646640177",
    ('verify', 1, 2, 1):
        "a8c6ee9646d60edbb1bb4e57ac3a1dca50da46c53810bddf681980a93bef7b92",
    ('order', 1, 3, 3, 0):
        "c5a03d8606ed5beeb3a43ce8977b06c93bdeced7b6731144bca5d0ec188a0ead",
    ('order', 1, 3, 3, 1):
        "05dd1e734f68b1781608e6c6446158f35a5cfc1c695bf18a4753e477e763ff67",
    ('verify', 1, 3, 0):
        "bff7405952f1592170c975f87bf7349d4f8100e2c5e92f74558e1dc2a39839c3",
    ('verify', 1, 3, 1):
        "5763dd6857b6fe7458b389160e29725641c04eb0d6be8315e113681e5bfb1b2b",
    ('order', 1, 4, 3, 0):
        "98adea1fed4529e1885a2c6cba6b9bbaef716b8cd00c9a3ccef5eddbcc6ee1d5",
    ('order', 1, 4, 3, 1):
        "5b6848cb6e6b30cff77fa328327670401ecb9487546a75f48d9086f0fb2bbcf4",
    ('order', 1, 4, 4, 0):
        "451cda306678001dd7e767896c6ac7390b634ecc60fbb991f7f2037fad182ead",
    ('order', 1, 4, 4, 1):
        "c63d1bde5347582c2365dd6958ce8dfbcf2dab47cb006a6b30e56d8498008b9e",
    ('verify', 1, 4, 0):
        "26205035aa448b1220a3a67171ab2764b34bb0d1bf86689222ceba46e29a3594",
    ('verify', 1, 4, 1):
        "263ebe08e913dad0a1d359d4ccef3d0159e3d9232a7c7f019a999f7b3bae08f2",
    ('order', 1, 5, 3, 0):
        "d50135864d41797fe866a336dd639fc0eb997c213351f29d5f983c7cf90cf5fa",
    ('order', 1, 5, 3, 1):
        "9d27cd1748969fe04e2783056121adc129af38f00bd8d180335f20ab33f71655",
    ('order', 1, 5, 5, 0):
        "ee5b36fdac78c7a9e4453397f457679bf205d5afc025a9d7c1cf23e9ba82e1d8",
    ('order', 1, 5, 5, 1):
        "673f674d80885bdc4730c4c3223817bca2566f6fae89f78e6de67c593cf78611",
    ('verify', 1, 5, 0):
        "7e1f864347c00e1f79229e4ad0127ac60b278561d83f32b6f25383efee01b9f5",
    ('verify', 1, 5, 1):
        "1b5c5bd36491f0d49198a56d1e608e91382d12b17ff7aec9978daf761b91770c",
    ('order', 1, 6, 3, 0):
        "04d2af1c10d1b2d9ff011396504cf7330e362467c3a48b374cd72613d12b9b0c",
    ('order', 1, 6, 3, 1):
        "a0b6be19b689d256744dc0423a121e877b9ef8e2a8ef667cb9dd8842805245e2",
    ('order', 1, 6, 6, 0):
        "0136d5338c799aa74d6fe4c48830f98fc6df4fc8d4f603c311f3ec566870cfa1",
    ('order', 1, 6, 6, 1):
        "642612d7268321a8293dc9d07ce321bca349d797f90eb0ebbe2b0f48bdceaad1",
    ('verify', 1, 6, 0):
        "6e79a8d372fe88f425c37d06cd9f8e33ff0f1430fc87a6eec00e7da90452b9d7",
    ('verify', 1, 6, 1):
        "afa6302d9ca52706717b9c47a82a3f046c9a588dad81a089cc26fbe8626a4984",
    ('order', 2, 2, 2, 0):
        "00abdb65271ae9884a31498a171976c78e8816efabb05daa8ff3c90f667e7a8f",
    ('order', 2, 2, 2, 1):
        "00abdb65271ae9884a31498a171976c78e8816efabb05daa8ff3c90f667e7a8f",
    ('verify', 2, 2, 0):
        "b91443844a963142b892c570ab06dc7748429921635bc28e105a46c765b24a5a",
    ('verify', 2, 2, 1):
        "b33443d10e419cf8fd3a35db58bc45565e98bb01ac1de4350847478678e17791",
    ('order', 2, 3, 3, 0):
        "c040c3fe2e7113def8b3a7a71a56c46073f0416115c602afd48f1788e3e47aea",
    ('order', 2, 3, 3, 1):
        "669f250a4d870a2b0ef43952ef0abc270d6323f34079cb6e1eda4acf323b72d5",
    ('verify', 2, 3, 0):
        "ee21ef1ecee606c1e2264ce7773e515d9c92c6ce98f41abee9d6e09201cd3493",
    ('verify', 2, 3, 1):
        "50cbed3a59d65c572497a0a9a71feb1d658c8d39c4622112fd99f3ceaf60565f",
    ('order', 2, 4, 3, 0):
        "9ff4365a70c38c67ab71b0fda1940f0863b2137e3f4392aab2b658b329483907",
    ('order', 2, 4, 3, 1):
        "0a1a949a10df4c5da8040f8c61db845b8843fa51cc08495843e567e7ca9ab76d",
    ('order', 2, 4, 4, 0):
        "97003eba6cbb597dbf3fa71fd2edee36fcf04d1ab36e63820644617a999a3d24",
    ('order', 2, 4, 4, 1):
        "36b55fe27e9148fe90db16ad0fb01cf13593f9cd80d6d703bb1f291443dfb8ee",
    ('verify', 2, 4, 0):
        "163a32197448e04a74cabb8a1c024f99bd7345bc17ed51023ba2d9b827d7a7b1",
    ('verify', 2, 4, 1):
        "a629b6c31c4972855de4ddf2d880727cc4d02875d2d6aebe06515e8cf59750d6",
    ('order', 2, 5, 3, 0):
        "93053e7a39aaaf96565a39ee62c174d3fd00ee2bc2f0e7debfaf9aa5505d3c79",
    ('order', 2, 5, 3, 1):
        "2d92f89883d0ad27973c293ee4b3a7a88b38e4b655003ff16d2f01cb764eb640",
    ('order', 2, 5, 5, 0):
        "aabece65b798bf96fc05b1f085ae5c774d18bc5c624a818a84c1f1e80f3056d3",
    ('order', 2, 5, 5, 1):
        "dcf7dbb6e62a8ae7d9d3e6f4d75de24a7ba67e71e095c62d0be232111b88e3a9",
    ('verify', 2, 5, 0):
        "e9ed3875733b1f9b9aa0aeb87568129fabd498e722907a6edc2abe5e303a6447",
    ('verify', 2, 5, 1):
        "f11f9e8ccced545ac8232ba9c2f709d962cec77bd550d5b6126718f4579d8854",
    ('order', 2, 6, 3, 0):
        "3740190c45949ec02cbb23e16e3d26ff03d6db60b21137fda37be45164e7306a",
    ('order', 2, 6, 3, 1):
        "f1af131a1e5c52fa663bec3d7aaeae6ab041a789426b4631aad4b294fab750d0",
    ('order', 2, 6, 6, 0):
        "ce37ad188a54d4284e72cd7d5c2d6d68c8258210c72644be7868015616617c07",
    ('order', 2, 6, 6, 1):
        "0fc5e700f4aaa753468091146690fa5a055fd2dee038c0601c010cdc7c0af76c",
    ('verify', 2, 6, 0):
        "358c6a84c51e5a80ace3dda2c2897b1f8fa0534a0901b65a313ca2f5af160622",
    ('verify', 2, 6, 1):
        "24f5214f2591ae00ee96ea3cff3c013cd49adfbbbf5d38a61f8dda6551e84577",
    ('order', 3, 2, 2, 0):
        "75b7e1a74c1a9217849989288446323d1388bceadaf0522506ae10f954e57add",
    ('order', 3, 2, 2, 1):
        "75b7e1a74c1a9217849989288446323d1388bceadaf0522506ae10f954e57add",
    ('verify', 3, 2, 0):
        "adb830cc1ba3237d6588593b6e09da3cfc15d3e479fcededf3a679c920f0dbab",
    ('verify', 3, 2, 1):
        "2383322ebb2bb8ddb27f8b85c7e9e5efd5e229bdaaccfa8ce86340201b76a76e",
    ('order', 3, 3, 3, 0):
        "6e2dcebd9fc9b5fc28a3bf09fbba54cea03f67436d91b3160bb09c4e5668eefa",
    ('order', 3, 3, 3, 1):
        "94da0fee45eee8f142d475da580a8db15ed3888dabc6bc9e171d1dca4ebaec76",
    ('verify', 3, 3, 0):
        "08beda296d0d45d5f89736f02813363b5b3186bcf268f3ca21a1ef396c42561b",
    ('verify', 3, 3, 1):
        "cae0d88cb19e619a894623d40ebcfc40b17312a6bcafa9ad8241fe5996627c7b",
    ('order', 3, 4, 3, 0):
        "809e6cef193c67a13bd931c093909dcd992105c9ad6935e5173f3e445b356479",
    ('order', 3, 4, 3, 1):
        "e2f543b8ecb365fee7feb71e2fb9f5084421d5ab71a658f4e12f55c12369c046",
    ('order', 3, 4, 4, 0):
        "a1aedeb39ca658716146d1a3861295561708d62ac53cdf3a9f771a2802bc923d",
    ('order', 3, 4, 4, 1):
        "0bd1b72a78165c4af5d765fa0c88e27d72d0a436351ef139e1c2057a4af26681",
    ('verify', 3, 4, 0):
        "e604d4effb2cec0e04ee8901dd60ef02abfa72e1d7487fceb06cf97a8b3cf08d",
    ('verify', 3, 4, 1):
        "8516abe430191a136676fc5a7e118514ced7f5142f483feb6951888cf1f8f5cd",
    ('order', 3, 5, 3, 0):
        "43c7294cedc6ee97eaec86dec219e5fe1b1bd34dfa7ce53bc3b97da7c1a5241e",
    ('order', 3, 5, 3, 1):
        "c36d084554029df36ad950f24514e1ebe7d20b2a17146b30eefd9567afa6c0eb",
    ('order', 3, 5, 5, 0):
        "96b2a5171a26e5361dfbba8dec94831b8b924635aa911d4c292b01accac38d61",
    ('order', 3, 5, 5, 1):
        "61e245a125f750a806bcb910b5be09beec9fa23a1f12b52d954767f5cdb3f416",
    ('verify', 3, 5, 0):
        "149b31a3c19b506ff7911630676c1aa1f50d99e5782db7c765a0209e77ec8579",
    ('verify', 3, 5, 1):
        "525927fbb0b168c572f770127d80ff346afad25b044cdc817abe2c20f3d23ec9",
    ('order', 3, 6, 3, 0):
        "422bae7d5331d86bb50c57a34b495048d6ee238ce8f9c362d18a33c62a46f214",
    ('order', 3, 6, 3, 1):
        "3f9391be6ebf970190cd1ccb11f7dadf9195d9c9e3bf0f104d175293080bdeb5",
    ('order', 3, 6, 6, 0):
        "bf68baacbf6354e5db797e546ff6a6701dc24083c28ee4636d958be91b0990cb",
    ('order', 3, 6, 6, 1):
        "6c02ff3d3d660a1dbba5f5765a7e3697f533f0c71a131048ea5b92054d3b8a9e",
    ('verify', 3, 6, 0):
        "6076d5570fadec08d15fdc199bc1c2d3c98ee3934c4a3d7b76579012607a4627",
    ('verify', 3, 6, 1):
        "e4f1cce07d7a606010260745cf931da04a77efbb4605f47cb6fb92dea6ebf0e6",
}


def _plan_digest(d, n, *parts):
    """sha256 of the parts (_Pairs, or a power plan's blocks) of a plan of
    d through order n: each array as int64 with its shape, a side's store
    rows as (kind, order, row) through the layout, a missing scale as
    b"none"."""
    digest = hashlib.sha256()
    for part in parts:
        for value in ([part.size, *_named(d, n, part.a), *_named(d, n, part.b),
                       part.scale, part.target, part.starts,
                       *_named(d, n, part.c), part.c_target, part.c_starts]
                      if isinstance(part, plans._Pairs) else [part]):
            if value is None:
                digest.update(b"none")
                continue
            value = np.asarray(value, dtype=np.int64)
            digest.update(np.array(value.shape, np.int64).tobytes())
            digest.update(value.tobytes())
    return digest.hexdigest()


def _built_plans(d, order_max, tops=(3,)):
    """Digests of the plans of runs to ``order_max`` at each top in
    ``tops`` in both modes, and of the verifier's, from an empty cache."""
    plans._PLANS.clear()
    got = {}
    for top in tops:
        for jacobian in (False, True):
            run = plans._run_plans(d, order_max, top, jacobian)
            for n, plan in enumerate(run, start=2):
                got["order", d, n, min(top, n), int(jacobian)] = \
                    _plan_digest(d, n, *plan)
    for normal in (False, True):
        for n, plan in enumerate(plans._verify_plans(d, order_max, normal),
                                 start=2):
            got["verify", d, n, int(normal)] = _plan_digest(d, n, plan)
    return got


def test_plans_match_frozen_digests():
    got = {}
    for d in (1, 2, 3):
        # every power plan is built at full top; top 3 reads its prefix
        got.update(_built_plans(d, 6, tops=(6, 3)))
    assert got == PLAN_DIGESTS
    for key, plan in plans._PLANS.items():
        p = plan[0] if key[0] == "power" else plan
        for col in (p.a, p.b, p.target, p.c, p.c_target):
            assert col.dtype == np.int32, key
        assert p.scale is None or p.scale.dtype == np.int32, key
        assert p.starts.dtype == p.c_starts.dtype == np.intp, key


def test_plans_of_an_order_do_not_depend_on_the_run():
    # order n's plans from a run to N equal those of a run to n, built from
    # an empty cache or next to cached lower orders
    for d, order_max in ((1, 9), (2, 7), (3, 5)):
        full = _built_plans(d, order_max, tops=(2, 3, order_max))
        for n in range(2, order_max + 1):
            alone = _built_plans(d, n, tops=(2, 3, order_max))
            assert alone == {k: v for k, v in full.items() if k[2] <= n}
        plans._PLANS.clear()
        for n in range(2, order_max + 1):
            for top in (order_max, 3, 2):
                for jacobian in (False, True):
                    plan = plans._run_plans(d, n, top, jacobian)[-1]
                    assert _plan_digest(d, n, *plan) == \
                        full["order", d, n, min(top, n), int(jacobian)]
            for normal in (False, True):
                plan = plans._verify_plans(d, n, normal)[-1]
                assert _plan_digest(d, n, plan) == \
                    full["verify", d, n, int(normal)]


def test_normal_form_cuts_its_power_plans_from_the_full_top_ones(
        monkeypatch):
    # f of order 2 only: a normal form to order 5 runs at top 2, and in a
    # fresh process too each order's power plan is a prefix of the one at
    # full top, no second build
    runs = []

    def recorded(*args):
        runs.append((args, plans._run_plans(*args)))
        return runs[-1][1]

    monkeypatch.setattr(engine, "_run_plans", recorded)
    plans._PLANS.clear()
    normal_form(NonlinearSystem(scalar_linear(1, 1), {(2,): vp([[1]])}), 5)
    cut = 0
    for (d, order_max, top, jacobian), run in runs:
        full = plans._run_plans(d, order_max, order_max, jacobian)
        for n, (power, blocks, _), (whole, _, _) in zip(itertools.count(2),
                                                        run, full):
            if n <= top + 1:
                assert power is whole
                continue
            assert len(blocks) == top - 1 and power.size < whole.size
            for a, b in ((power.target, whole.target),
                         (power.a, whole.a),
                         (power.c_target, whole.c_target)):
                assert np.shares_memory(a, b), n
            cut += 1
    assert cut == 2


def test_plan_memory_at_d4():
    # orders 2 .. 7 of both modes with the verifier, then order 8 of the
    # obstruction mode: per-order builders, with the full rows x splits
    # cross product, peaked at 131.4 MB holding 52.6 MB (tracemalloc);
    # the run-wide ones on (kind, order, row) sides peaked at 51.2 MB
    # holding 38.7 MB.  On store rows they peak at 37.4 MB and hold
    # 18.7 MB, and must stay under 43 MB and hold at most 21 MB
    plans._PLANS.clear()
    tracemalloc.start()
    try:
        for jacobian in (False, True):
            plans._run_plans(4, 7, 7, jacobian)
        for normal in (False, True):
            plans._verify_plans(4, 7, normal)
        plans._run_plans(4, 8, 8, False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        plans._PLANS.clear()
    assert peak <= 43.0e6
    assert held <= 21.0e6


# ----------------------------------------------------------------------
# scalar pipeline oracles
# ----------------------------------------------------------------------


def test_pure_square_is_its_own_obstruction():
    linear = scalar_linear(1, 1)
    nl = NonlinearSystem(linear, {(2,): vp([[1]])})
    phi, h = linearize(nl, 6)
    assert len(h) == 0
    assert [m for m, _ in phi.items_sorted()] == [(2,)]
    assert (phi.get((2,)) - vp([[1]])).is_zero()
    report = verify_conjugacy(nl, phi, h, 6)
    assert report.passed and report.max_residual == 0.0
    # with h = 0 the two recursions coincide, psi == phi here
    psi, h2 = normal_form(nl, 6)
    assert len(h2) == 0
    assert (psi.get((2,)) - vp([[1]])).is_zero()


def test_x_square_transfers_to_substitution():
    linear = scalar_linear(1, 1)
    nl = NonlinearSystem(linear, {(2,): vp([[0], [1]])})
    phi, h = linearize(nl, 6)
    assert len(phi) == 0
    for m in range(2, 7):
        hm = h.get((m,))
        assert hm is not None and hm.degree == 0
        assert hm.coefficient(0)[0] == ExactComplex(Fraction(1, 2 ** (m - 1)))
    report = verify_conjugacy(nl, phi, h, 6)
    assert report.passed and report.max_residual == 0.0


@pytest.mark.parametrize(
    "delta, residual",
    [
        (1, None),
        (Fraction(1, 10**400), math.ulp(0.0)),
        (10**400, sys.float_info.max),
    ],
    ids=["1", "1e-400", "1e+400"],
)
def test_corrupted_substitution_fails_verification(delta, residual):
    # exact verification decides zero exactly: a perturbation below or
    # above the float range still fails, and its residual is clamped to
    # the nearest end of that range instead of reading 0.0 or overflowing
    linear = scalar_linear(1, 1)
    nl = NonlinearSystem(linear, {(2,): vp([[0], [1]])})
    phi, h = linearize(nl, 4)
    bad = h.copy()
    bad.set((2,), h.get((2,)) + vp([[delta]]))
    report = verify_conjugacy(nl, phi, bad, 4)
    assert not report.passed
    assert report.max_residual > 0.0
    if residual is None:
        assert report.max_residual > 1.0e-9
    else:
        assert report.max_residual == residual


def test_float_verifier_reads_a_nan_residual_as_the_float_maximum():
    # h's coefficients 1e308 - 1e308 i: Q d_x h - (QA)h sums inf - inf, a
    # nan, which must read as the float maximum as an inf does, not fail
    # the report's serialization; compare_modes reads the same magnitude
    nl = NonlinearSystem(float_system(scalar_linear(1, 1)),
                         {(2,): float_vecpoly(vp([[0], [1]]))})
    phi, h = linearize(nl, 3)
    assert sorted(h.terms) == [(2,), (3,)]
    huge = float_vecpoly(vp([[[10**308, -10**308]]]))
    bad = SeriesTable(1, False, {(2,): huge, (3,): huge})
    report = verify_conjugacy(nl, phi, bad, 3)
    assert report.residuals == {2: sys.float_info.max, 3: sys.float_info.max}
    assert not report.passed
    rows = engine._row_store(False, 1, 3)
    for values, want in (([], 0.0), ([1.0, -2j], 2.0),
                         ([math.inf, 1.0], sys.float_info.max),
                         ([math.nan, 1.0], sys.float_info.max),
                         ([complex(0.0, math.nan)], sys.float_info.max)):
        assert rows.magnitude(np.array([values], complex)) == want, values


# The verifier runs each order's residual as one pair plan; the reference
# forms it per monomial on VecPoly, the left side
# Q d_x h + (d_w h)(QA)w - (QA)h term by term.


def _reference_magnitude(p):
    """Largest absolute coefficient of the VecPoly ``p`` as a float, 0.0
    only when ``p`` is exactly zero, clamped to [ulp(0), float max]: the
    rule the row stores apply to their rows."""
    if p.is_zero():
        return 0.0
    try:
        return min(max(float(p.max_abs()), math.ulp(0.0)), sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


def _reference_verify(nl, series, h, order_max, mode):
    """Residual per order of the conjugacy identity, with the right side
    from ``compose_series``, less the series in the normal-form mode."""
    d, exact = nl.size, nl.exact
    q, qa = nl.linear.q_poly(), nl.linear.qb_poly()
    residuals = {}
    parts = compose_series(nl.nonlinearity, h, series, order_max, mode=mode)
    for n, rhs in enumerate(parts, start=2):
        diff = {m: -p for m, p in rhs.items()}

        def add(m, p):
            diff[m] = diff.get(m, VecPoly.zero(d, exact)) + p

        for m, hp in sorted(h.order_slice(n).items()):
            add(m, hp.derivative().mul_sp(q) - qa.mul_vec(hp))
            # d_{w_l} h_m w^m times ((QA)w)_l = sum_s (QA)_ls w_s
            for l, s in itertools.product(range(d), repeat=2):
                if m[l]:
                    target = tuple(e - (k == l) + (k == s)
                                   for k, e in enumerate(m))
                    add(target, hp.scale(m[l]).mul_sp(qa.entry(l, s)))
        if mode == "normal-form":
            for m, p in sorted(series.order_slice(n).items()):
                add(m, p)
        residuals[n] = max(map(_reference_magnitude, diff.values()),
                           default=0.0)
    return residuals


def _random_table(rng, d, order_max):
    """A table of orders 2 .. order_max + 1 with Gaussian-rational
    coefficients of x-degree <= 2."""
    table = _to_table(_random_field(rng, d, range(2, order_max + 2), 2, 0.3),
                      d)
    for m, p in list(table.terms.items()):
        if rng.random() < 0.5:
            table.set(m, p.scale(ExactComplex(Fraction(rng.randint(-2, 2), 3),
                                              1)))
    return table


def test_verifier_matches_per_monomial_reference():
    # arbitrary tables, not solutions, so the residuals are nonzero: exact
    # residuals equal the reference's, float ones agree to roundoff
    # relative to the size of the order's terms
    dims = set()
    for seed in range(9):
        rng = random.Random(f"verify-reference-{seed}")
        nl = random_nonresonant(rng, d_max=3)
        d, order_max = nl.size, rng.randint(2, 5)
        dims.add(d)
        series, h = _random_table(rng, d, order_max), \
            _random_table(rng, d, order_max)
        float_nl = NonlinearSystem(float_system(nl.linear), {
            m: float_vecpoly(p) for m, p in nl.nonlinearity.items()})

        def to_float(table):
            return SeriesTable(d, False, {m: float_vecpoly(p)
                                          for m, p in table.terms.items()})

        for mode in ("obstruction", "normal-form"):
            want = _reference_verify(nl, series, h, order_max, mode)
            assert any(want.values()), (seed, mode)
            got = verify_conjugacy(nl, series, h, order_max, mode)
            assert got.residuals == want, (seed, mode)

            fs, fh = to_float(series), to_float(h)
            want = _reference_verify(float_nl, fs, fh, order_max, mode)
            got = verify_conjugacy(float_nl, fs, fh, order_max, mode)
            assert got.residuals.keys() == want.keys()
            for n, r in got.residuals.items():
                size = max([1.0] + [p.max_abs() for p in
                                    list(fh.order_slice(n).values())
                                    + list(fs.order_slice(n).values())])
                assert abs(r - want[n]) <= 1e-12 * size, (seed, mode, n)
    assert dims == {1, 2, 3}


def test_verifier_rejects_terms_below_order_two():
    # a term of order 0 or 1 in h or the series is not part of the identity
    linear = scalar_linear(1, 1)
    nl = NonlinearSystem(linear, {(2,): vp([[0], [1]])})
    phi, h = linearize(nl, 3)
    for low in ((0,), (1,)):
        bad = h.copy()
        bad.set(low, vp([[5]]))
        with pytest.raises(ValueError, match="term .* of h has order below"):
            verify_conjugacy(nl, phi, bad, 3)
        bad = phi.copy()
        bad.set(low, vp([[5]]))
        with pytest.raises(ValueError, match="of series has order below"):
            verify_conjugacy(nl, bad, h, 3, mode="normal-form")


def test_verifier_rejects_an_unknown_mode():
    nl = NonlinearSystem(scalar_linear(1, 1), {(2,): vp([[0], [1]])})
    phi, h = linearize(nl, 3)
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        verify_conjugacy(nl, phi, h, 3, mode="fast")


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------


def test_modes_agree_at_order_two():
    rng = random.Random(37)
    for _ in range(6):
        nl = random_nonresonant(rng)
        comp = compare_modes(nl, 2)
        assert comp.agree, comp.differences


def test_mode_divergence_frozen_example():
    # 2-d system where the two canonical corrections provably separate at
    # order 3; the constants below are frozen from an independent symbolic
    # solve of both defining identities.
    linear = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows(
                [[ec(1), ec("1/3")], [ec(0), ec("3/2")]], True
            ),
            CMatrix.from_rows(
                [[ec("5/4"), ec(0)], [ec("1/5"), ec(2)]], True
            ),
        ),
    )
    nl = NonlinearSystem(
        linear,
        {
            (2, 0): vp([[1, 0], [0, 1]], d=2),
            (1, 1): vp([[0, 1]], d=2),
            (0, 3): vp([[Fraction(1, 2), 1]], d=2),
        },
    )
    comp = compare_modes(nl, 3)
    assert not comp.agree
    assert comp.first_divergence == 3
    assert (0, 3) in comp.differences
    phi_val = comp.phi.get((0, 3)).coefficient(0)[0]
    psi_val = comp.psi.get((0, 3)).coefficient(0)[0]
    assert phi_val.re == Fraction(7754649167878373, 15472265274892746)
    assert psi_val.re == Fraction(2577582410924791, 5157421758297582)
    # each mode satisfies its own identity exactly ...
    rep_obs = verify_conjugacy(nl, comp.phi, comp.h_obstruction, 3)
    rep_nf = verify_conjugacy(
        nl, comp.psi, comp.h_normal_form, 3, mode="normal-form"
    )
    assert rep_obs.max_residual == 0.0
    assert rep_nf.max_residual == 0.0
    # ... and the obstruction pair does not satisfy the other identity
    crossed = verify_conjugacy(
        nl, comp.phi, comp.h_obstruction, 3, mode="normal-form"
    )
    assert crossed.max_residual > 0.0


def test_compare_modes_checks_nonresonance_once(monkeypatch):
    calls = []
    check = engine.check_nonlinear_assumption

    def counted(nonlinear, order_max, tol):
        calls.append(order_max)
        return check(nonlinear, order_max, tol)

    monkeypatch.setattr(engine, "check_nonlinear_assumption", counted)
    nl = random_nonresonant(random.Random(37))
    compare_modes(nl, 3)
    assert calls == [3]
    linearize(nl, 3)
    normal_form(nl, 4)
    assert calls == [3, 3, 4]
    # a resonant system is refused with one message by all three
    linear = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[ec(1), ec(0)], [ec(0), ec(2)]], True),
            CMatrix.from_rows([[ec(1), ec(0)], [ec(0), ec(1)]], True),
        ),
    )
    resonant = NonlinearSystem(linear, {(2, 0): vp([[1, 0]], d=2)})
    messages = set()
    for runner in (linearize, normal_form, compare_modes):
        with pytest.raises(AssumptionError,
                           match="^nonlinear nonresonance fails at") as err:
            runner(resonant, 3)
        messages.add(str(err.value))
    assert len(messages) == 1

@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_each_induced_block_is_built_once_per_system(monkeypatch, exact):
    # linearize then normal_form (with the verifier), and compare_modes, on
    # one system build one block per order; runs given a basis (here the
    # canonical enumeration) build their own blocks and give the same
    # tables, byte for byte
    built = []

    class Counted(pnspace.InducedBlock):
        __slots__ = ()

        def __init__(self, linear, basis):
            built.append(basis.n)
            super().__init__(linear, basis)

    def tables(*series):
        return [dumps_canonical(series_table_json(t)) for t in series]

    own = PnBasis
    nl = _dense_system(2, 3, exact)
    want = tables(*linearize(nl, 4, basis_factory=own),
                  *normal_form(nl, 4, basis_factory=own))
    monkeypatch.setattr(pnspace, "InducedBlock", Counted)
    nl = _dense_system(2, 3, exact)
    phi, h1 = linearize(nl, 4)
    assert verify_conjugacy(nl, phi, h1, 4).passed
    psi, h2 = normal_form(nl, 4)
    assert verify_conjugacy(nl, psi, h2, 4, mode="normal-form").passed
    assert built == [2, 3, 4]
    assert tables(phi, h1, psi, h2) == want
    built.clear()
    comparison = compare_modes(_dense_system(2, 3, exact), 4)
    assert built == [2, 3, 4]
    assert tables(comparison.phi, comparison.h_obstruction, comparison.psi,
                  comparison.h_normal_form) == want
    built.clear()
    linearize(nl, 4, basis_factory=own)
    assert built == [2, 3, 4]


def test_degree_bound_and_exact_residuals_random():
    rng = random.Random(41)
    for _ in range(4):
        nl = random_nonresonant(rng)
        s = nl.linear.s
        phi, h = linearize(nl, 4)
        for m, p in phi:
            assert p.degree <= s, (m, p.degree, s)
        report = verify_conjugacy(nl, phi, h, 4)
        assert report.max_residual == 0.0
        psi, h2 = normal_form(nl, 4)
        for m, p in psi:
            assert p.degree <= s
        report2 = verify_conjugacy(nl, psi, h2, 4, mode="normal-form")
        assert report2.max_residual == 0.0


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("mode", ["obstruction", "normal-form"])
def test_verify_below_order_two_is_empty_and_passes(exact, mode):
    # linearize and normal_form to order 0 or 1 return empty tables, and
    # verifying them checks no order
    nl = random_nonresonant(random.Random(11), d_max=2)
    if not exact:
        nl = NonlinearSystem(float_system(nl.linear), {
            m: float_vecpoly(p) for m, p in nl.nonlinearity.items()})
    run = linearize if mode == "obstruction" else normal_form
    for order in (0, 1):
        series, h = run(nl, order)
        assert len(series) == 0 and len(h) == 0
        report = verify_conjugacy(nl, series, h, order, mode=mode)
        assert report.residuals == {} and report.passed
        assert report.tol == (0.0 if exact else 1e-9)


# ----------------------------------------------------------------------
# changes of variables
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1e-3, 1e-5, 1e-6, 1e3])
def test_float_linearize_follows_a_change_of_units(lam):
    # u = lam v turns f_m into lam^(|m|-1) f_m, and phi_m, h_m scale the
    # same way: float linearize of the scaled system, scaled back, must
    # match exact linearize term by term, relative to max(1, |term|)
    order = 5
    for seed in range(24):
        nl = random_nonresonant(random.Random(seed))
        want = linearize(nl, order)
        scaled = NonlinearSystem(float_system(nl.linear), {
            m: float_vecpoly(p).scale(lam ** (sum(m) - 1))
            for m, p in nl.nonlinearity.items()})
        zero = VecPoly.zero(nl.linear.size)
        for exact_table, float_table in zip(want, linearize(scaled, order)):
            exact_terms, float_terms = exact_table.terms, float_table.terms
            for m in exact_terms.keys() | float_terms.keys():
                a = float_vecpoly(exact_terms.get(m, zero))
                b = float_terms.get(m, zero).scale(lam ** (1 - sum(m)))
                assert (a - b).max_abs() <= 1e-12 * max(1.0, a.max_abs()), \
                    (seed, m)


@pytest.mark.parametrize("run", [linearize, normal_form])
def test_exact_tables_follow_a_translation_in_x(run):
    # x = xi + nu moves the poles to p_j - nu, keeps the residues and
    # turns f(x, u) into f(xi + nu, u); by uniqueness every table term is
    # the old one Taylor-shifted by nu, exactly
    nu = ExactComplex(Fraction(3, 7), Fraction(-1, 5))

    def shifted(p):
        return VecPoly.from_coeffs(p.taylor_at(nu), exact=True, dim=p.dim)

    for seed in range(20):
        nl = random_nonresonant(random.Random(seed), d_max=3)
        linear = nl.linear
        moved = NonlinearSystem(
            FuchsianSystem(tuple(p - nu for p in linear.poles),
                           linear.residues),
            {m: shifted(p) for m, p in nl.nonlinearity.items()})
        for want, got in zip(run(nl, 4), run(moved, 4)):
            assert {m: shifted(p).coeffs for m, p in want} \
                == {m: p.coeffs for m, p in got}, seed


@pytest.mark.parametrize("run", [linearize, normal_form])
def test_exact_tables_follow_a_monomial_basis_change(run):
    # u = P v with (P v)_k = s_k v_pi(k), pi a permutation and s_k nonzero
    # Gaussian rationals: B_j becomes P^-1 B_j P, entry (pi(k), pi(l)) =
    # s_l B_j[k, l] / s_k, and a term g(x) u^m becomes P^-1 g(x) (P v)^m =
    # prod_k s_k^(m_k) times the vector with component pi(k) equal to
    # g_k / s_k, at v^m' with m'_pi(k) = m_k: a relabelled, rescaled term,
    # no composition.  By uniqueness the tables transform so, term for term
    for seed in range(20):
        rng = random.Random(f"basis-change-{seed}")
        nl = random_nonresonant(rng, d_max=3)
        d = nl.size
        pi = rng.sample(range(d), d)
        s = [ExactComplex(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                   rng.randint(1, 4)),
                          Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
             for _ in range(d)]

        def moved(table):
            out = {}
            for m, g in table.items():
                factor = ExactComplex(1)
                for s_k, m_k in zip(s, m):
                    factor = factor * s_k ** m_k
                new = [0] * d
                for k, m_k in enumerate(m):
                    new[pi[k]] = m_k
                coeffs = []
                for vec in g.coeffs:
                    comp = [None] * d
                    for k in range(d):
                        comp[pi[k]] = vec[k] * factor / s[k]
                    coeffs.append(tuple(comp))
                out[tuple(new)] = VecPoly.from_coeffs(coeffs, exact=True,
                                                      dim=d)
            return out

        def conjugated(b):
            rows = [[None] * d for _ in range(d)]
            for k in range(d):
                for l in range(d):
                    rows[pi[k]][pi[l]] = s[l] * b.entry(k, l) / s[k]
            return CMatrix.from_rows(rows, True)

        linear = nl.linear
        changed = NonlinearSystem(
            FuchsianSystem(linear.poles,
                           tuple(map(conjugated, linear.residues))),
            moved(nl.nonlinearity))
        order = 5 if d < 3 else 4
        for want, got in zip(run(nl, order), run(changed, order)):
            assert {m: p.coeffs for m, p in moved(dict(want)).items()} \
                == {m: p.coeffs for m, p in got}, seed


@pytest.mark.parametrize("run", [linearize, normal_form])
def test_exact_tables_follow_a_dilation_in_x(run):
    # x = mu xi moves the poles to p_j / mu and keeps the residues; as
    # Q(mu xi) = mu^(S+2) Q~(xi), f(x, u) / Q becomes f~(xi, u) / Q~ with
    # f~(xi, u) = mu^-(S+1) f(mu xi, u) once u' is taken in xi.  By
    # uniqueness phi~_m(xi) = mu^-(S+1) phi_m(mu xi) (psi likewise, the
    # x-degree <= S kept) and h~_m(xi) = h_m(mu xi), exactly
    mu = ExactComplex(Fraction(5, 3), Fraction(-1, 2))

    def dilated(p, factor):
        return VecPoly.from_coeffs(
            [tuple(v * factor * mu ** k for v in c)
             for k, c in enumerate(p.coeffs)], exact=True, dim=p.dim)

    for seed in range(20):
        nl = random_nonresonant(random.Random(f"dilation-{seed}"), d_max=3)
        linear = nl.linear
        shrink = ExactComplex(1) / mu ** (linear.s + 1)
        moved = NonlinearSystem(
            FuchsianSystem(tuple(p / mu for p in linear.poles),
                           linear.residues),
            {m: dilated(p, shrink) for m, p in nl.nonlinearity.items()})
        order = 5 if nl.size < 3 else 4
        (series, h), (got_series, got_h) = run(nl, order), run(moved, order)
        assert {m: dilated(p, shrink).coeffs for m, p in series} \
            == {m: p.coeffs for m, p in got_series}, seed
        assert {m: dilated(p, ExactComplex(1)).coeffs for m, p in h} \
            == {m: p.coeffs for m, p in got_h}, seed


def _sympy_scalar(c):
    return (sp.Rational(c.re.numerator, c.re.denominator)
            + sp.I * sp.Rational(c.im.numerator, c.im.denominator))


def _sympy_vector(p, x):
    """An exact VecPoly as a list of sympy polynomials in x."""
    return [
        sum(_sympy_scalar(v[i]) * x**k for k, v in enumerate(p.coeffs))
        for i in range(p.dim)
    ]


def _sympy_series(table, x, ws):
    """A {monomial: VecPoly} table as a vector of polynomials in x, ws."""
    out = [sp.Integer(0)] * len(ws)
    for m, p in table.items():
        mono = sp.Mul(*(wl**e for wl, e in zip(ws, m)))
        out = [o + c * mono for o, c in zip(out, _sympy_vector(p, x))]
    return out


def _sympy_case(name):
    if name == "d1":
        linear = scalar_linear(1, "3/2")
        f_terms = {
            (2,): vp([[1], ["1/2"], [-1]]),
            (3,): vp([["-1/2"], [0], [1]]),
        }
    else:
        # d = 2: the Jacobian term moves h_m w^m to m - e_l + e_s with
        # l != s, which no scalar case exercises
        linear = FuchsianSystem(
            (ExactComplex(-1), ExactComplex(1)),
            (
                CMatrix.from_rows([[ec(1), ec("1/3")], [ec(0), ec("3/2")]],
                                  True),
                CMatrix.from_rows([[ec("6/5"), ec(0)],
                                   [ec("-1/3"), ec("7/5")]], True),
            ),
        )
        f_terms = {
            (2, 0): vp([[1, 0], ["1/2", -1]], d=2),
            (1, 1): vp([[0, 1]], d=2),
            (0, 2): vp([["-1/2", "1/3"]], d=2),
            (2, 1): vp([[1, 0], [0, "1/2"]], d=2),
        }
    return NonlinearSystem(linear, f_terms), f_terms


@pytest.mark.parametrize(
    "case, mode",
    [
        pytest.param("d1", "obstruction", id="obstruction"),
        pytest.param("d1", "normal-form", id="normal-form"),
        pytest.param("d2", "obstruction", id="d2-obstruction"),
        pytest.param("d2", "normal-form", id="d2-normal-form"),
    ],
)
def test_conjugacy_identity_in_sympy(case, mode):
    """u = w + h(x, w) carries the target flow to u' = Au + f(x, u)/Q.

    Checked with denominators cleared, mod w^(N+1), by sympy substitution
    and expansion -- not through compose_series, which the engine and
    verify_conjugacy share.  Target flows:
      obstruction:  u' = Au + (f - phi)(x, u)/Q  with  w' = Aw
      normal-form:  u' = Au + f(x, u)/Q          with  w' = Aw + psi(x, w)/Q
    """
    order = 4
    nl, f_terms = _sympy_case(case)
    runner = linearize if mode == "obstruction" else normal_form
    series, h = runner(nl, order)
    assert series.order_slice(2) and h.order_slice(2)

    d = nl.size
    x, t = sp.symbols("x t")
    ws = sp.symbols(f"w0:{d}")
    poles = [_sympy_scalar(p) for p in nl.linear.poles]
    q = sp.Mul(*(x - p for p in poles))
    qa = sum(
        (sp.Matrix(d, d, lambda r, c: _sympy_scalar(res.rows[r][c]))
         * sp.Mul(*(x - p for k, p in enumerate(poles) if k != j))
         for j, res in enumerate(nl.linear.residues)),
        sp.zeros(d, d),
    )
    w = sp.Matrix(ws)
    u = w + sp.Matrix(_sympy_series(h.terms, x, ws))
    at_u = dict(zip(ws, u))

    def compose(table):
        return sp.Matrix(_sympy_series(table, x, ws)).subs(at_u,
                                                           simultaneous=True)

    corr = sp.Matrix(_sympy_series(series.terms, x, ws))
    if mode == "obstruction":
        target = qa * w
        rhs = qa * u + compose(f_terms) - compose(series.terms)
    else:
        target = qa * w + corr
        rhs = qa * u + compose(f_terms)
    # Q u' = Q u_x + (d_w u) (Q w')
    identity = q * sp.diff(u, x) + u.jacobian(ws) * target - rhs
    # w -> t w grades each component by w-degree; keep t^0 .. t^order
    scaled = {wl: t * wl for wl in ws}
    for i in range(d):
        graded = sp.Poly(sp.expand(identity[i].subs(scaled,
                                                    simultaneous=True)), t)
        for k in range(order + 1):
            c = graded.coeff_monomial(t**k)
            assert sp.expand(c) == 0, (case, mode, i, k, c)


def test_s0_float_accuracy_at_order_16():
    # d=1, S=0 to order 16 (the float-series benchmark's first class, seed
    # 1, round 1).  Residual per order relative to max(1, largest
    # coefficient of h and of the series at that order).
    linear = FuchsianSystem(
        (3.0 + 0j, 4.0 + 0j),
        (
            CMatrix.from_rows([[1.6 + 0j]], False),
            CMatrix.from_rows([[1.3 + 0j]], False),
        ),
    )
    nl = NonlinearSystem(linear, {
        (2,): VecPoly.from_coeffs([[1.0], [1.5], [1.5], [-0.5]], False, 1),
        (3,): VecPoly.from_coeffs([[0.5], [2.0], [-2.0], [-0.5]], False, 1),
    })
    for mode, n, relative in _relative_residuals(nl, 16):
        assert relative <= 1e-9, (mode, n, relative)


def _relative_residuals(nl, order):
    """(mode, n, residual / size) for float linearize and normal_form to
    ``order``: each order's conjugacy residual relative to max(1, largest
    coefficient of h and of the series at that order), as the float-series
    benchmark's check takes it."""
    out = []
    for mode, runner in (("obstruction", linearize),
                         ("normal-form", normal_form)):
        series, h = runner(nl, order)
        report = verify_conjugacy(nl, series, h, order, mode=mode)
        for n, residual in report.residuals.items():
            size = max([1.0] + [
                float(p.max_abs())
                for p in list(h.order_slice(n).values())
                + list(series.order_slice(n).values())
            ])
            out.append((mode, n, residual / size))
    return out


@pytest.mark.parametrize("s", [0, 1])
def test_scalar_float_accuracy_at_order_16(s):
    # seeded d = 1 systems as the float-series benchmark draws them (poles
    # half-integers in [-2, 2], residues in [1, 1.9], u^2 and u^3 terms
    # of x-degree 3), to its d = 1 depth: every block is 1 x 1, so every
    # solve runs the scalar loop of the float recursion
    rng = random.Random(1600 + s)
    for _ in range(2):
        poles = []
        while len(poles) < s + 2:
            p = rng.randint(-4, 4) / 2
            if p not in poles:
                poles.append(p)
        linear = FuchsianSystem(
            tuple(complex(p) for p in poles),
            tuple(CMatrix.from_rows([[rng.randint(10, 19) / 10 + 0j]], False)
                  for _ in poles))
        nl = NonlinearSystem(linear, {
            (n,): VecPoly.from_coeffs(
                [[rng.randint(-4, 4) / 2 + 0j] for _ in range(3)] + [[1.0]],
                False, 1)
            for n in (2, 3)})
        report = _relative_residuals(nl, 16)
        assert len(report) == 2 * 15
        for mode, n, relative in report:
            assert relative <= 1e-12, (s, mode, n, relative)


def _full_residue_d3_case():
    linear = FuchsianSystem(
        (ec(-1), ec("1/2"), ec(2)),
        (
            mat([["3/2", "1/3", "-1/2"], ["1/4", "7/5", "1/3"],
                 ["-1/3", "1/2", "6/5"]]),
            mat([["6/5", "-1/2", "1/3"], ["1/2", "3/2", "-1/4"],
                 ["1/3", "1/5", "7/5"]]),
            mat([["1", "1/3", "1/4"], ["-1/5", "13/10", "1/2"],
                 ["1/2", "-1/3", "11/10"]]),
        ),
    )
    terms = {
        (2, 0, 0): vp([[1, 0, "-1/2"], [0, "1/3", 0]], d=3),
        (0, 1, 1): vp([[0, 1, 1]], d=3),
        (1, 0, 2): vp([["1/2", 0, 0], [0, 0, 1], [1, -1, 0]], d=3),
    }
    return linear, terms


@pytest.mark.parametrize("mode, digest", [
    ("obstruction",
     "f0aa45bb73f4a13085be70ecc9238a85cd2d24ec087c1e61671b64e62a8bb35c"),
    ("normal-form",
     "3e4adcddddc2da9a7e1bbeb2085fd1f2c11a130019700f81e17b5a100a679439"),
], ids=["obstruction", "normal-form"])
def test_full_residues_d3_frozen_example(mode, digest):
    # d = 3, S = 1 with full residues, so B_inf and every induced block are
    # non-triangular; the digests were recorded with the dense induced
    # blocks.
    _check_frozen_example(*_full_residue_d3_case(), mode, digest)


def _dense_residue_d3_case():
    # bench/workloads._series_job(random.Random("prof"), ..., 3, 0, 5, ...)
    # with its strictly lower residue entries redrawn from {-1/3, 0, 1/3}
    # by random.Random("a"), row by row, written out as literals
    linear = FuchsianSystem(
        (ec("1/2"), ec(-2)),
        (
            mat([["19/10", "-1/3", "-1/3"], [0, "17/10", "-1/3"],
                 ["1/3", "-1/3", "19/10"]]),
            mat([["19/10", "1/3", "-1/3"], ["1/3", "3/2", "1/3"],
                 ["1/3", "1/3", 1]]),
        ),
    )
    rows = {
        (3, 0, 0): [[-1, -1, "1/2"], [-1, 1, 2], [-1, "-3/2", 1],
                    [0, 0, "1/2"]],
        (2, 1, 0): [["3/2", 1, -2], ["-3/2", "-3/2", 2], ["-3/2", 2, "3/2"],
                    [1, 2, -2]],
        (2, 0, 1): [["1/2", 2, 0], ["-3/2", "1/2", "-1/2"],
                    ["-3/2", "-1/2", -2], ["3/2", -1, -2]],
        (2, 0, 0): [[1, 2, "1/2"], ["-3/2", "-1/2", 2], ["3/2", -2, 1],
                    [-2, "-1/2", -1]],
        (1, 2, 0): [[0, 2, "-3/2"], [-1, "3/2", 1], ["3/2", -2, "1/2"],
                    [-1, 2, "-1/2"]],
        (1, 1, 1): [[1, 1, 1], ["3/2", -1, "1/2"], [-2, "-1/2", 2],
                    [2, 2, 1]],
        (1, 1, 0): [[2, -1, 0], [2, 2, "3/2"], [1, -2, -2], [1, 2, 0]],
        (1, 0, 2): [[-2, 0, 1], ["1/2", "-1/2", "3/2"], [-2, 2, -1],
                    [-1, -1, "-3/2"]],
        (1, 0, 1): [[1, "-1/2", 1], [2, "1/2", "-1/2"], [1, 2, "3/2"],
                    ["-1/2", "-1/2", 0]],
        (0, 3, 0): [["3/2", "-3/2", 1], [0, 2, 2], [-1, 2, -2],
                    ["-1/2", -1, "3/2"]],
        (0, 2, 1): [[-1, -1, -2], [0, 2, "-1/2"], ["1/2", 0, 2],
                    ["-1/2", "1/2", 2]],
        (0, 2, 0): [[1, 2, -2], [0, 2, "-3/2"], [2, -2, 2],
                    [0, -1, "-3/2"]],
        (0, 1, 2): [["-3/2", -1, "-1/2"], ["3/2", -2, "3/2"],
                    ["1/2", 2, -2], [0, 1, "-3/2"]],
        (0, 1, 1): [["-1/2", "1/2", 0], [1, "-1/2", 2], [-2, "1/2", -2],
                    ["-1/2", "3/2", 1]],
        (0, 0, 3): [["-3/2", "1/2", "1/2"], ["3/2", "3/2", "1/2"],
                    [0, "-1/2", "3/2"], [1, 2, -1]],
        (0, 0, 2): [["3/2", "1/2", -2], [1, -2, "3/2"], [-2, "-1/2", 1],
                    [1, "1/2", -2]],
    }
    return linear, {m: vp(r, d=3) for m, r in rows.items()}


def test_dense_residues_d3_order5_frozen_example():
    # d = 3, S = 0 to order 5 with both residues dense (nonzero entries
    # below the diagonal), so no k + J_{B_inf} is triangular; h reaches
    # 3,102-bit coefficients.  Obstruction mode only, to keep it ~2 s.
    _check_frozen_example(
        *_dense_residue_d3_case(), "obstruction",
        "a0f52dd34af8c9c00656c5e8417fd96b533690d3b679ea8979455b810bc1c660",
        order=5)


def _check_frozen_example(linear, terms, mode, digest, order=4):
    """sha256 of the canonical JSON of the exact series and h, a zero exact
    residual, and a float rerun within 1e-9."""
    runner = linearize if mode == "obstruction" else normal_form
    series, h = runner(NonlinearSystem(linear, terms), order)
    text = dumps_canonical({"series": series_table_json(series),
                            "h": series_table_json(h)})
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    nl = NonlinearSystem(linear, terms)
    assert verify_conjugacy(nl, series, h, order, mode=mode).max_residual == 0

    nlf = NonlinearSystem(float_system(linear),
                          {m: float_vecpoly(p) for m, p in terms.items()})
    series_f, h_f = runner(nlf, order)
    report = verify_conjugacy(nlf, series_f, h_f, order, mode=mode)
    assert report.max_residual <= 1e-9


def _gaussian_rational_case():
    linear = FuchsianSystem(
        (ec([0, 1]), ec([0, -1]), ec(["1/2", "1/3"])),
        (
            mat([[[1, "1/4"], ["1/3", "-1/2"]], [[0, "1/5"], ["6/5", "-1/3"]]]),
            mat([[["3/2", "-1/3"], ["1/4", 1]],
                 [["-1/2", "1/3"], ["7/5", "1/5"]]]),
            mat([[["6/5", "1/2"], ["-1/3", 0]],
                 [["1/4", "-1/4"], ["11/10", "-1/5"]]]),
        ),
    )
    terms = {
        (2, 0): vp([[[1, "1/2"], 0], [0, [0, -1]], [["1/3", 0], [1, "1/4"]]],
                   d=2),
        (1, 1): vp([[[0, 1], ["1/3", 0]], [0, 0], [[-1, "1/2"], 0]], d=2),
        (0, 3): vp([[1, ["1/2", "-1/2"]], [[0, "1/4"], 0], [0, 1]], d=2),
    }
    return linear, terms


@pytest.mark.parametrize("mode, digest", [
    ("obstruction",
     "68cb059276619caab453a104d42502dff4266643166d5d56d20126d87757b273"),
    ("normal-form",
     "2f10b923c72b932b3723043542def3538b1aae69041914209a58d0c7536dab0c"),
], ids=["obstruction", "normal-form"])
def test_gaussian_rational_frozen_example(mode, digest):
    # poles i, -i, 1/2 + i/3 with complex residues and f (d = 2, S = 1), so
    # the exact operations take the general Gaussian-rational formula; the
    # digests were recorded before the real-only path existed.
    _check_frozen_example(*_gaussian_rational_case(), mode, digest)


def test_exact_poles_past_float_resolution():
    # 0 and 1e-13 were once compared through floats and rejected
    one = CMatrix.identity(1, True)
    linear = FuchsianSystem(
        (ExactComplex(0), ExactComplex(Fraction(1, 10**13))),
        (one, one.scale(ec("3/2"))),
    )
    nl = NonlinearSystem(linear, {(2,): vp([[0], [1]]), (3,): vp([[1]])})
    phi, h = linearize(nl, 4)
    assert verify_conjugacy(nl, phi, h, 4).max_residual == 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_insertion_order_does_not_change_floats():
    linear = FuchsianSystem(
        (-1.0 + 0j, 1.0 + 0j),
        (
            CMatrix.from_rows([[1.3 + 0j, 0.1 + 0j], [0j, 1.7 + 0j]], False),
            CMatrix.from_rows([[1.1 + 0j, 0j], [0.2 + 0j, 1.9 + 0j]], False),
        ),
    )
    entries = [
        ((2, 0), VecPoly.from_coeffs([(0.3 + 0j, 0.7 + 0j)], False, dim=2)),
        ((1, 1), VecPoly.from_coeffs(
            [(0.2 + 0j, 0j), (0j, 1.1 + 0j)], False, dim=2)),
        ((0, 2), VecPoly.from_coeffs([(0.9 + 0j, 0.4 + 0j)], False, dim=2)),
        ((3, 0), VecPoly.from_coeffs([(0j, 0.5 + 0j)], False, dim=2)),
    ]
    nl_fwd = NonlinearSystem(linear, dict(entries))
    nl_rev = NonlinearSystem(linear, dict(reversed(entries)))
    phi_a, h_a = linearize(nl_fwd, 4)
    phi_b, h_b = linearize(nl_rev, 4)
    for (m1, p1), (m2, p2) in zip(phi_a.items_sorted(), phi_b.items_sorted()):
        assert m1 == m2
        assert p1.coeffs == p2.coeffs
    for (m1, p1), (m2, p2) in zip(h_a.items_sorted(), h_b.items_sorted()):
        assert m1 == m2
        assert p1.coeffs == p2.coeffs


def test_insertion_order_does_not_change_float_composition_d3():
    # float d = 3: compose_series, linearize and normal_form give the same
    # canonical JSON, byte for byte, when f, h and extra are built in
    # reversed insertion order
    linear, terms = _full_residue_d3_case()
    linear = float_system(linear)
    entries = [(m, float_vecpoly(p)) for m, p in terms.items()]
    nl_fwd = NonlinearSystem(linear, dict(entries))
    nl_rev = NonlinearSystem(linear, dict(reversed(entries)))

    def reversed_table(table):
        return SeriesTable(table.dim, False,
                           dict(reversed(table.items_sorted())))

    def canonical(tables):
        return dumps_canonical([series_table_json(SeriesTable(3, False, t))
                                for t in tables])

    for mode, runner in (("obstruction", linearize),
                         ("normal-form", normal_form)):
        series, h = runner(nl_fwd, 5)
        series_rev, h_rev = runner(nl_rev, 5)
        assert canonical([series.terms, h.terms]) == \
            canonical([series_rev.terms, h_rev.terms]), mode
        fwd = compose_series(nl_fwd.nonlinearity, h, series, 5, mode=mode)
        rev = compose_series(nl_rev.nonlinearity, reversed_table(h),
                             reversed_table(series), 5, mode=mode)
        assert canonical(fwd) == canonical(rev), mode


def test_block_enumeration_is_immaterial():
    rng = random.Random(43)
    nl = random_nonresonant(rng, d_max=2, s_max=1)

    def shuffled(d, n):
        canonical = PnBasis(d, n)
        items = list(canonical.items)
        random.Random(10_000 + n).shuffle(items)
        return PnBasis(d, n, order=items)

    phi_a, h_a = linearize(nl, 4)
    phi_b, h_b = linearize(nl, 4, basis_factory=shuffled)
    assert [m for m, _ in phi_a] == [m for m, _ in phi_b]
    for (m1, p1), (m2, p2) in zip(phi_a.items_sorted(), phi_b.items_sorted()):
        assert (p1 - p2).is_zero(), m1
    for (m1, p1), (m2, p2) in zip(h_a.items_sorted(), h_b.items_sorted()):
        assert m1 == m2 and (p1 - p2).is_zero()


@pytest.mark.parametrize("case", ["gaussian-rational", "dense-residues"])
def test_exact_block_enumeration_gives_identical_tables(case):
    # the exact block solve pivots by row lengths, so a permuted basis
    # eliminates in another order: the tables must still be byte-identical
    # (Gaussian-rational data runs the 2N embedding, dense residues give
    # a J_{B_inf} that no enumeration makes triangular)
    linear, terms = (_gaussian_rational_case() if case == "gaussian-rational"
                     else _dense_residue_d3_case())
    nl = NonlinearSystem(linear, terms)

    def shuffled(d, n):
        items = list(PnBasis(d, n).items)
        random.Random(f"{case}-{n}").shuffle(items)
        return PnBasis(d, n, order=items)

    for runner in (linearize, normal_form):
        tables = [runner(nl, 4, basis_factory=factory)
                  for factory in (None, shuffled)]
        canonical, permuted = (
            dumps_canonical([series_table_json(t) for t in pair])
            for pair in tables)
        assert permuted == canonical


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------


def test_resonant_spectrum_rejected():
    linear = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[ec(1), ec(0)], [ec(0), ec(2)]], True),
            CMatrix.from_rows([[ec(1), ec(0)], [ec(0), ec(1)]], True),
        ),
    )
    nl = NonlinearSystem(linear, {(2, 0): vp([[1, 0]], d=2)})
    with pytest.raises(AssumptionError):
        linearize(nl, 3)
