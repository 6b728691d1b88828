"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test exercises its criterion exactly as stated -- frozen values,
tolerances, and runtime budget -- and prints a single

    acceptance NN <name> PASS|FAIL (<elapsed>s / <budget>s)

line that bypasses output capture.

Criterion 9 relates the obstruction series phi (``linearize``) and the
normal form psi (``normal_form``) by the exact equalities the method
guarantees: (1) they agree, and so do their substitutions h, through the
lowest order n0 at which either has a term; (2) phi is empty exactly when
psi is; (3) the corrected system u' = Au + (f - phi)/Q is linearizable in
both modes through the same h; (4) psi is its own normal form, with h = 0;
(5) ``compare_modes`` reports exactly the monomials where phi and psi
differ, none of order <= n0.  Termwise phi == psi is not among them: past
n0 the two recursions subtract different lower-order data (phi composed
with w + h versus (d_w h) psi), each series is the unique solution of its
own conjugacy identity, and the two differ in general.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fuchslin.analytic import (float_system, float_vecpoly, moments,
                               rhs_moment, solve_analytic)
from fuchslin.cli import main as cli_main
from fuchslin.correction import shift_up, solve_polynomial
from fuchslin.document import dumps_canonical, series_table_json
from fuchslin.engine import (compare_modes, linearize, normal_form,
                             verify_conjugacy)
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix
from fuchslin.model import FuchsianSystem, NonlinearSystem
from fuchslin.pnspace import PnBasis, conjugation_matrix
from fuchslin.poly import VecPoly
from fuchslin.rodrigues import RodriguesFamily, shifted_system


@contextmanager
def criterion(capsys, number, name, budget):
    start = time.perf_counter()
    failure = None
    try:
        yield
    except BaseException as exc:   # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    over = failure is None and elapsed >= budget
    verdict = "PASS" if failure is None and not over else "FAIL"
    with capsys.disabled():
        print(f"acceptance {number:2d} {name:<24} {verdict} "
              f"({elapsed:.2f}s / {budget:g}s)")
    if failure is not None:
        raise failure
    if over:
        pytest.fail(f"{name}: {elapsed:.2f}s over the {budget:g}s budget")


# ----------------------------------------------------------------------
# shared generators
# ----------------------------------------------------------------------


def ec(v):
    return ExactComplex.parse(v)


def scalar_system(b0, b1):
    return FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[ec(b0)]], True),
            CMatrix.from_rows([[ec(b1)]], True),
        ),
    )


def sweep_systems(seed, count=50, d_max=3, s_max=2):
    """Random exact systems with triangular residues, spectra in [1/2, 3]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, d_max)
        s = rng.randint(0, s_max)
        poles = []
        while len(poles) < s + 2:
            c = ExactComplex(Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
            if all(c != p for p in poles):
                poles.append(c)
        mats = []
        for _ in range(s + 2):
            rows = [[ExactComplex(0)] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = ExactComplex(Fraction(rng.randint(1, 6), 2))
                for j in range(i + 1, d):
                    rows[i][j] = ExactComplex(rng.randint(-2, 2))
            mats.append(CMatrix.from_rows(rows, True))
        out.append(FuchsianSystem(tuple(poles), tuple(mats)))
    return out


def random_vecpoly(rng, d, degree, denom=2):
    coeffs = [
        tuple(
            ExactComplex(Fraction(rng.randint(-4, 4), denom))
            for _ in range(d)
        )
        for _ in range(degree + 1)
    ]
    top = list(coeffs[-1])
    if all(not v for v in top):
        top[0] = ExactComplex(1)
        coeffs[-1] = tuple(top)
    return VecPoly.from_coeffs(coeffs, exact=True, dim=d)


def table_differences(a, b, n_max):
    """Sorted monomials of order <= n_max where two series tables differ.

    Terms are compared by their canonical JSON bytes, which in exact mode
    are equal exactly when the coefficients are.
    """
    ja, jb = (
        {tuple(e["m"]): dumps_canonical(e["coeff"])
         for e in series_table_json(t)}
        for t in (a, b)
    )
    return sorted(
        (m for m in set(ja) | set(jb)
         if sum(m) <= n_max and ja.get(m) != jb.get(m)),
        key=lambda m: (sum(m), m),
    )


def leading_product(system, n):
    """Independent leading-coefficient law: prod_{j=1}^{m} (j + n + B_inf)."""
    m, _ = divmod(n, system.s + 1)
    b_inf = system.b_infinity()
    acc = CMatrix.identity(system.size, system.exact)
    for j in range(1, m + 1):
        acc = b_inf.add_scaled_identity(j + n) @ acc
    return acc


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_01_rodrigues_exactness(capsys):
    with criterion(capsys, 1, "rodrigues exactness", 1.0):
        family = RodriguesFamily(scalar_system(1, 1))
        p1 = family.member(1)
        assert p1.degree == 1
        assert p1.entry(0, 0) == (ExactComplex(0), ExactComplex(4))
        p2 = family.member(2)
        assert p2.entry(0, 0) == (
            ExactComplex(-6), ExactComplex(0), ExactComplex(30)
        )
        assert family.leading_coeff(1).entry(0, 0) == ExactComplex(4)
        assert family.leading_coeff(2).entry(0, 0) == ExactComplex(30)


def test_criterion_02_degree_leading_law(capsys):
    with criterion(capsys, 2, "degree/leading law", 30.0):
        systems = sweep_systems(seed=201)
        for idx, system in enumerate(systems):
            family = RodriguesFamily(system)
            for n in range(9):
                p = family.member(n)
                assert p.degree == n, (idx, n)
                lead = p.coefficient(n)
                want = leading_product(system, n)
                assert (lead - want).max_abs() == 0, (idx, n)
        # float route reproduces the law to 1e-10
        for system in systems[:10]:
            sysf = float_system(system)
            family = RodriguesFamily(sysf)
            for n in range(9):
                p = family.member(n)
                want = leading_product(sysf, n)
                scale = max(1.0, want.max_abs())
                assert (p.coefficient(n) - want).max_abs() <= 1e-10 * scale


def test_criterion_03_prototype_identity(capsys):
    with criterion(capsys, 3, "prototype identity", 60.0):
        systems = sweep_systems(seed=201)    # the same sweep as criterion 2
        for idx, system in enumerate(systems):
            base = RodriguesFamily(system)
            lowered = RodriguesFamily(shifted_system(system))
            q = system.q_poly()
            qb = system.qb_poly()
            for n in range(9):
                p = base.member(n)
                resid = (
                    p.derivative().mul_sp(q)
                    + qb.mul_mat(p)
                    - lowered.member(n + system.s + 1)
                )
                assert resid.is_zero(), (idx, n)


def test_criterion_04_conjugation_spectrum(capsys):
    with criterion(capsys, 4, "block spectrum", 30.0):
        rng = random.Random(204)
        for trial in range(50):
            d = rng.randint(1, 3)
            n = rng.randint(1, 4)
            basis = PnBasis(d, n)
            mat = CMatrix.from_rows(
                [
                    [
                        complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ],
                False,
            )
            lam = np.linalg.eigvals(mat.to_numpy())
            predicted = np.array([
                sum(mj * lj for mj, lj in zip(m, lam)) - lam[i]
                for m, i in basis.items
            ])
            block = conjugation_matrix(mat, basis)
            eigs = np.linalg.eigvals(block.to_numpy())
            cost = np.abs(eigs[:, None] - predicted[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert float(cost[rows, cols].max()) <= 1e-8, trial

            # triangular M: the block is triangular in the canonical order
            tri_rows = [
                [
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    if j >= i else 0j
                    for j in range(d)
                ]
                for i in range(d)
            ]
            tri = CMatrix.from_rows(tri_rows, False)
            block = conjugation_matrix(tri, basis)
            size = basis.size
            for r in range(size):
                for c in range(r):
                    assert abs(block.entry(r, c)) <= 1e-12, (trial, r, c)
            for pos, (m, i) in enumerate(basis.items):
                want = sum(
                    mj * tri_rows[j][j] for j, mj in enumerate(m)
                ) - tri_rows[i][i]
                assert abs(block.entry(pos, pos) - want) <= 1e-12


def test_criterion_05_correction_solver(capsys):
    with criterion(capsys, 5, "correction solver", 5.0):
        rng = random.Random(205)
        systems = sweep_systems(seed=205, count=10, d_max=2, s_max=2)
        for system in systems:
            # degree <= S right-hand sides are their own correction
            g_low = random_vecpoly(rng, system.size, rng.randint(0, system.s))
            result = solve_polynomial(system, g_low)
            assert (result.phi - g_low).is_zero()
            assert result.y.is_zero()
            # above S the solution degree drops by exactly S + 1
            deg = rng.randint(system.s + 1, 8)
            g = random_vecpoly(rng, system.size, deg)
            result = solve_polynomial(system, g)
            assert result.y.degree == deg - system.s - 1
            assert result.phi.degree <= system.s
        # frozen scalar values
        system = scalar_system(1, 1)
        g = VecPoly.from_coeffs(
            [(ec(0),), (ec(0),), (ec(1),)], exact=True
        )
        result = solve_polynomial(system, g)
        third = ExactComplex(Fraction(1, 3))
        assert result.phi.coefficient(0)[0] == third
        assert result.y.coefficient(1)[0] == third
        assert result.y.coefficient(0)[0] == ExactComplex(0)
        assert result.y.degree == 1


def test_criterion_06_route_agreement(capsys):
    with criterion(capsys, 6, "route agreement", 60.0):
        # scalar oracle first: moment 2, rhs moment 2/3, phi_0 = 1/3
        system = scalar_system(1, 1)
        g = VecPoly.from_coeffs([(ec(0),), (ec(0),), (ec(1),)], exact=True)
        blocks = moments(system, tol=1e-11)
        assert abs(blocks[0][0].entry(0, 0) - 2.0) <= 1e-9
        xi = rhs_moment(system, g, tol=1e-11)
        assert abs(xi[0][0] - Fraction(2, 3)) <= 1e-9
        result = solve_analytic(system, g, tol=1e-11)
        assert abs(result.phi.coefficient(0)[0] - Fraction(1, 3)) <= 1e-9

        rng = random.Random(206)
        for _ in range(6):
            d = rng.randint(1, 2)
            s = rng.randint(0, 1)
            poles = []
            while len(poles) < s + 2:
                c = ExactComplex(Fraction(rng.randint(-4, 4), 2))
                if all(c != p for p in poles):
                    poles.append(c)
            mats = []
            for _ in range(s + 2):
                rows = [[ExactComplex(0)] * d for _ in range(d)]
                for i in range(d):
                    # spectra positive, pairwise differences non-integer
                    rows[i][i] = ExactComplex(
                        Fraction(3 * rng.randint(2, 8) + i + 1, 6)
                    )
                    for j in range(i + 1, d):
                        rows[i][j] = ExactComplex(Fraction(rng.randint(-1, 1), 2))
                mats.append(CMatrix.from_rows(rows, True))
            sys_ = FuchsianSystem(tuple(poles), tuple(mats))
            g = random_vecpoly(rng, d, rng.randint(s + 1, 6))
            direct = solve_polynomial(sys_, g)
            analytic = solve_analytic(sys_, g, tol=1e-11)
            scale = max(1.0, float(g.max_abs()))
            for i in range(s + 1):
                for a, b in zip(direct.phi.coefficient(i),
                                analytic.phi.coefficient(i)):
                    assert abs(complex(a) - complex(b)) <= 1e-7 * scale


def test_criterion_07_shift_ladder(capsys):
    with criterion(capsys, 7, "shift ladder", 10.0):
        system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
        g = VecPoly.from_coeffs([(ec(1),)], exact=True)
        step = shift_up(system, g)
        for j in range(2):
            assert step.system.residues[j].entry(0, 0) == ec("3/4")
        assert step.particular.coefficient(1)[0] == ExactComplex(-2)
        assert step.particular.coefficient(0)[0] == ExactComplex(0)

        tol = 1e-10
        result = solve_analytic(system, g, tol=tol)
        assert abs(result.phi.coefficient(0)[0] - 1.0) <= 1e-8
        for x in (0.5, -0.3, 0.25j):
            assert abs(result.y.eval(x)[0]) <= 1e-7

        # a homotopic path perturbation moves phi by at most 2 tol
        bowed = solve_analytic(
            system, g, tol=tol,
            paths={1: ((-1.0, -0.2 - 0.45j, 0.3 - 0.45j, 1.0))},
        )
        diff = abs(result.phi.coefficient(0)[0] - bowed.phi.coefficient(0)[0])
        assert diff <= 2 * tol


def test_criterion_08_pipeline_obstructions(capsys):
    with criterion(capsys, 8, "pipeline obstructions", 10.0):
        linear = scalar_system(1, 1)
        # f = u^2: the obstruction is u^2 itself and nothing moves
        nl = NonlinearSystem(
            linear, {(2,): VecPoly.from_coeffs([(ec(1),)], True)}
        )
        phi, h = linearize(nl, 6)
        assert len(h) == 0
        assert [m for m, _ in phi] == [(2,)]
        assert phi.get((2,)).coefficient(0)[0] == ExactComplex(1)
        report = verify_conjugacy(nl, phi, h, 6)
        assert report.max_residual == 0.0

        # f = x u^2: fully linearizable, the x moves into h_2 = 1/2
        nl = NonlinearSystem(
            linear, {(2,): VecPoly.from_coeffs([(ec(0),), (ec(1),)], True)}
        )
        phi, h = linearize(nl, 6)
        assert len(phi) == 0
        assert h.get((2,)).coefficient(0)[0] == ExactComplex(Fraction(1, 2))
        report = verify_conjugacy(nl, phi, h, 6)
        assert report.max_residual == 0.0


def test_criterion_09_pipeline_properties(capsys):
    with criterion(capsys, 9, "pipeline properties", 300.0):
        rng = random.Random(209)
        order_max = 5
        for draw in range(20):
            d = rng.randint(1, 2)
            s = rng.randint(0, 1)
            poles = []
            while len(poles) < s + 2:
                c = ExactComplex(
                    Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                )
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
            n_terms = rng.randint(1, 2 if d == 1 else 3)
            while len(terms) < n_terms:
                m = tuple(rng.randint(0, 3) for _ in range(d))
                if not 2 <= sum(m) <= 3:
                    continue
                p = random_vecpoly(rng, d, rng.randint(0, 2))
                terms[m] = p
            nl = NonlinearSystem(linear, terms)

            # exact runs: residuals are identically zero, phi degree <= S
            phi, h = linearize(nl, order_max)
            rep = verify_conjugacy(nl, phi, h, order_max)
            assert rep.max_residual == 0.0, draw
            for m, p in phi:
                assert p.degree <= s, (draw, m)
            psi, h_nf = normal_form(nl, order_max)
            rep_nf = verify_conjugacy(
                nl, psi, h_nf, order_max, mode="normal-form"
            )
            assert rep_nf.max_residual == 0.0, draw
            for m, p in psi:
                assert p.degree <= s, (draw, m)

            # float rerun: residual bounded by 1e-9
            nlf = NonlinearSystem(
                float_system(linear),
                {m: float_vecpoly(p) for m, p in terms.items()},
            )
            phi_f, h_f = linearize(nlf, order_max)
            rep_f = verify_conjugacy(nlf, phi_f, h_f, order_max)
            assert rep_f.max_residual <= 1e-9, draw

            # permuted block enumeration is bit-identical (rational mode)
            if draw < 5:
                def shuffled(dd, nn, _seed=draw):
                    basis = PnBasis(dd, nn)
                    items = list(basis.items)
                    random.Random(97 * _seed + nn).shuffle(items)
                    return PnBasis(dd, nn, order=items)

                phi_p, h_p = linearize(nl, order_max, basis_factory=shuffled)
                assert dumps_canonical(series_table_json(phi_p)) == \
                    dumps_canonical(series_table_json(phi))
                assert dumps_canonical(series_table_json(h_p)) == \
                    dumps_canonical(series_table_json(h))

            # mode agreement: the equalities the two recursions guarantee.
            # Below n0, the lowest order at which phi or psi has a term,
            # both subtracted series vanish, so the modes solve identical
            # blocks through n0; past it they subtract different data.
            n0 = min(
                [sum(m) for m, _ in phi] + [sum(m) for m, _ in psi],
                default=order_max,
            )
            for clause, a, b in (
                ("1: phi = psi through n0", phi, psi),
                ("1: h = h_nf through n0", h, h_nf),
            ):
                diff = table_differences(a, b, n0)
                assert not diff, (draw, clause, diff[0])
            assert (len(phi) == 0) == (len(psi) == 0), (
                draw, "2: phi empty iff psi empty",
                next(iter(phi or psi))[0],
            )

            # the phi-corrected system is linearizable in both modes,
            # through the same substitution h
            corrected = dict(terms)
            for m, p in phi:
                corrected[m] = corrected[m] - p if m in corrected else -p
            nl_c = NonlinearSystem(linear, corrected)
            for clause, run in (
                ("3: linearize(f - phi)", linearize),
                ("3: normal_form(f - phi)", normal_form),
            ):
                out_c, h_c = run(nl_c, order_max)
                assert len(out_c) == 0, (draw, clause, next(iter(out_c))[0])
                diff = table_differences(h_c, h, order_max)
                assert not diff, (draw, clause + " keeps h", diff[0])

            # a normal form is its own normal form
            psi_psi, h_psi = normal_form(
                NonlinearSystem(linear, dict(psi.terms)), order_max
            )
            diff = table_differences(psi_psi, psi, order_max)
            assert not diff, (draw, "4: normal_form(psi) = psi", diff[0])
            assert len(h_psi) == 0, (
                draw, "4: normal_form(psi) has h = 0", next(iter(h_psi))[0]
            )

            # compare_modes reports exactly the monomials where they differ
            cmp = compare_modes(nl, order_max)
            diff = table_differences(phi, psi, order_max)
            stray = sorted(set(cmp.differences) ^ set(diff))
            assert not stray, (draw, "5: compare_modes differences", stray[0])
            assert cmp.first_divergence is None or cmp.first_divergence > n0, (
                draw, "5: compare_modes first_divergence > n0",
                cmp.first_divergence,
            )


def test_criterion_10_negative_controls(capsys, tmp_path):
    with criterion(capsys, 10, "negative controls", 30.0):
        resonant = {
            "dimension": 2,
            "S": 0,
            "poles": [[-1, 0], [1, 0]],
            "matrices": [
                [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            ],
            "nonlinearity": [
                {"multiindex": [2, 0], "coeff": [[[1, 0], [0, 0]]]},
            ],
            "options": {"order": 3},
        }
        negative = {
            "dimension": 1,
            "S": 0,
            "poles": [[-1, 0], [1, 0]],
            "matrices": [[[["-1/2", 0]]], [[["-1/2", 0]]]],
            "nonlinearity": [
                {"multiindex": [2], "coeff": [[[1, 0]]]},
            ],
            "options": {"order": 3},
        }
        res_path = tmp_path / "resonant.json"
        res_path.write_text(json.dumps(resonant), encoding="utf-8")
        neg_path = tmp_path / "negative.json"
        neg_path.write_text(json.dumps(negative), encoding="utf-8")

        # lambda_1 = 2 lambda_2: rejected by the check ...
        assert cli_main(["check", str(res_path), "--exact"]) == 2
        # ... and the solver refuses to run rather than solving silently
        assert cli_main(["linearize", str(res_path), "--exact"]) == 2

        # an eigenvalue of B_inf at a negative integer: same story
        assert cli_main(["check", str(neg_path), "--exact"]) == 2
        assert cli_main(["linearize", str(neg_path), "--exact"]) == 2
        assert cli_main(
            ["correct", str(neg_path), "--exact", "--g", "[[[1,0]]]",
             "--analytic"]
        ) == 2
        capsys.readouterr()      # drop the reports the commands printed
