"""End-to-end command-line behavior: exit codes, payloads, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fuchslin import cli, document, engine, exact, model, pnspace
from fuchslin.cli import main
from fuchslin.poly import VecPoly


SCALAR_DOC = {
    "dimension": 1,
    "S": 0,
    "poles": [[-1, 0], [1, 0]],
    "matrices": [[[[1, 0]]], [[[1, 0]]]],
    "nonlinearity": [
        {"multiindex": [2], "coeff": [[[0, 0]], [[1, 0]]]},
    ],
    "options": {"order": 4},
}

RESONANT_DOC = {
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

NEGATIVE_BINF_DOC = {
    "dimension": 1,
    "S": 0,
    "poles": [[-1, 0], [1, 0]],
    "matrices": [[[["-1/2", 0]]], [[["-1/2", 0]]]],
}


def write_doc(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def test_tolerances_resolve_flag_then_document_then_default(tmp_path):
    bare = write_doc(tmp_path, SCALAR_DOC, "bare.json")
    given = write_doc(tmp_path, dict(SCALAR_DOC, options={
        "order": 4, "tol": 1e-7, "resonance_tol": 1e-5}), "given.json")
    parser = cli.build_parser()
    for flags, path, tol, resonance_tol in (
            ([], bare, 1e-12, 1e-9),
            ([], given, 1e-7, 1e-5),
            (["--tol", "1e-3", "--resonance-tol", "1e-2"], given, 1e-3, 1e-2),
    ):
        args = parser.parse_args(["linearize", path, *flags])
        doc = cli._load(args)
        assert cli._resolve(args, doc, "tol", 1e-12) == tol
        assert cli._resolve(args, doc, "resonance_tol", 1e-9) == resonance_tol


def test_check_passes_clean_system(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["linear"]["passed"] is True
    assert payload["nonlinear"]["passed"] is True


def test_check_on_zero_terms_checks_the_order_asked_for(tmp_path, capsys):
    # terms that are all zero have no order of their own: without an order
    # check gives no nonlinear report (it used to end in a traceback on an
    # order-0 check), with one it checks up to it and refuses a resonant
    # linear part, as linearize does at the same order
    data = dict(RESONANT_DOC, nonlinearity=[
        {"multiindex": [2, 0], "coeff": [[["0/3", 0], [0, 0]]]}])
    data.pop("options")
    doc = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 0 and json.loads(out)["nonlinear"] is None
    code, out, _ = run(capsys, ["check", doc, "--exact", "--order", "3"])
    payload = json.loads(out)
    assert code == 2 and payload["nonlinear"]["order_max"] == 3
    assert payload["nonlinear"]["violations"]
    code, _, _ = run(capsys, ["linearize", doc, "--exact", "--order", "3"])
    assert code == 2


def test_check_rejects_resonant_spectrum(tmp_path, capsys):
    doc = write_doc(tmp_path, RESONANT_DOC)
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    violations = payload["nonlinear"]["violations"]
    assert violations and violations[0]["k"] == 0


def test_check_rejects_negative_integer_b_infinity(tmp_path, capsys):
    doc = write_doc(tmp_path, NEGATIVE_BINF_DOC)
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 2
    payload = json.loads(out)
    assert payload["linear"]["passed"] is False
    assert any(v["residue"] == "inf" for v in payload["linear"]["violations"])


def shift_doc(residue, other, exact=True):
    """Poles -1, 1 with the given residues and the nonlinearity u_0^2 e_0."""
    d = len(residue)

    def num(v):
        return [v, 0] if exact else [float(Fraction(v)), 0.0]

    return {
        "dimension": d,
        "S": 0,
        "poles": [num(-1), num(1)],
        "matrices": [[[num(v) for v in row] for row in res]
                     for res in (residue, other)],
        "nonlinearity": [
            {"multiindex": [2] + [0] * (d - 1),
             "coeff": [[num(1)] + [num(0)] * (d - 1)]},
        ],
    }


THREE_I = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
# Residues with one Jordan block at -1, so 1 + B_0 is singular.  Their
# float eigenvalues miss -1 by 1.5e-8, 8.2e-6 and 0.056 (the last is an
# integer conjugate of the second with entries up to ~9e5), all above the
# float tolerance 1e-9: exact mode must not decide through them.
JORDAN_DOCS = {
    "2x2": shift_doc([[-2, 1], [-1, 0]], [[3, 0], [0, 3]]),
    "3x3": shift_doc([[-1, 0, 1], [1, -2, 2], [1, -1, 0]], THREE_I),
    "3x3-large": shift_doc([[89640, 22819, 5756],
                            [-577360, -146957, -37067],
                            [892981, 227251, 57314]], THREE_I),
}


@pytest.mark.parametrize("name", sorted(JORDAN_DOCS))
def test_exact_mode_rejects_jordan_block_at_negative_integer(
        tmp_path, capsys, name):
    doc = write_doc(tmp_path, JORDAN_DOCS[name])
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 2
    linear = json.loads(out)["linear"]
    assert {(v["residue"], v["k"]) for v in linear["violations"]} == \
        {("0", 1)}
    tables = str(tmp_path / "tables.json")
    code, _, err = run(capsys, ["linearize", doc, "--exact", "--order", "2",
                                "--out", tables])
    assert code == 2 and "k=1" in err


def test_exact_singular_shifts_report_margin_zero(tmp_path, capsys):
    # The Jordan residue's float eigenvalues miss -1 by 1.5e-8; the shifts
    # that exact elimination finds singular are reported with margin 0,
    # linear and nonlinear alike.  The exact near miss keeps its margin.
    doc = write_doc(tmp_path, JORDAN_DOCS["2x2"])
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 2
    payload = json.loads(out)
    for part in ("linear", "nonlinear"):
        violations = payload[part]["violations"]
        assert violations and all(v["margin"] == 0 for v in violations)
        assert payload[part]["min_margin"] == 0
    near = [[1, 0], [0, "2000000000001/1000000000000"]]
    doc = write_doc(tmp_path, shift_doc(near, [[1, 0], [0, 1]]), "near.json")
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 0
    assert 0 < json.loads(out)["nonlinear"]["min_margin"] < 1e-11


def test_exact_near_miss_is_not_resonant(tmp_path, capsys):
    # 2*1 - (2 + 10^-12) is 10^-12 from the integer 0: resonant within the
    # float tolerance, not in exact arithmetic.
    near = [[1, 0], [0, "2000000000001/1000000000000"]]
    doc = write_doc(tmp_path, shift_doc(near, [[1, 0], [0, 1]]))
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 0 and json.loads(out)["passed"] is True
    tables = str(tmp_path / "tables.json")
    code, _, _ = run(capsys, ["linearize", doc, "--exact", "--order", "3",
                              "--out", tables])
    assert code == 0
    code, out, _ = run(capsys, ["verify", doc, "--exact", "--tables", tables])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["max_residual"] == 0
    # the same numbers as floats are rejected by resonance_tol
    fdoc = write_doc(tmp_path, shift_doc(near, [[1, 0], [0, 1]], False),
                     "float.json")
    assert run(capsys, ["check", fdoc])[0] == 2
    assert run(capsys, ["linearize", fdoc, "--order", "3"])[0] == 2


def test_non_finite_float_right_hand_side_is_a_numeric_failure(
        tmp_path, capsys):
    # f = (1e200 + 1e200 x^3) u^2 overflows the composed right-hand side
    # by order 4: a numeric failure (exit 4), not a resonance (exit 2)
    big = [1e200, 0.0]
    doc = write_doc(tmp_path, {
        "dimension": 1,
        "S": 0,
        "poles": [[0.0, 0.0], [1.0, 0.0]],
        "matrices": [[[[1.5, 0.0]]], [[[1.25, 0.0]]]],
        "nonlinearity": [
            {"multiindex": [2],
             "coeff": [[big], [[0.0, 0.0]], [[0.0, 0.0]], [big]]},
        ],
    })
    for command in ("linearize", "normal-form"):
        code, _, err = run(capsys, [command, doc, "--order", "4"])
        assert code == 4, (command, err)
        assert "non-finite" in err


# d = 1, poles -1 and 1; see test_correction's NEAR_SINGULAR and OVERFLOWS
FLOAT_SOLVE_FAILURES = {
    # B_inf = -2 + 1e-10 passes the shift check; y_2 overflows: exit 2
    "near-singular-shift": ([-1, -0.9999999999], [0, 0, 0, 1e300], 2,
                            "k=2: solve residual"),
    # B_inf = 1/2; the k = 3 solve overflows the x^2 coefficient: exit 4
    "overflow-partway": ([0.25, 0.25], [0, 0, 1e308, 1e308, 1e308], 4,
                         "non-finite right-hand side"),
}


@pytest.mark.parametrize("case", sorted(FLOAT_SOLVE_FAILURES))
def test_correct_float_solve_failure_exit_codes(tmp_path, capsys, case):
    residues, coeffs, want, message = FLOAT_SOLVE_FAILURES[case]
    doc = write_doc(tmp_path, {
        "dimension": 1,
        "S": 0,
        "poles": [[-1, 0], [1, 0]],
        "matrices": [[[[b, 0]]] for b in residues],
    })
    g = json.dumps([[[c, 0]] for c in coeffs])
    # the overflow is under test, not numpy's warnings about it
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, ["correct", doc, "--g", g])
    assert code == want, err
    assert out == "" and message in err


def test_schema_error_reports_pointer(tmp_path, capsys):
    bad = dict(SCALAR_DOC)
    bad["poles"] = [[-1, 0]]
    doc = write_doc(tmp_path, bad)
    code, out, err = run(capsys, ["check", doc, "--exact"])
    assert code == 3
    assert out == ""
    assert "/poles" in err


def _tables_off_by_five(tmp_path, capsys):
    """README's example and its order-3 tables with 5 added to every
    coefficient of h: verify reads max_residual 10 and exits 4."""
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "tables.json")
    assert run(capsys, ["linearize", doc, "--order", "3",
                        "--out", tables])[0] == 0
    node = json.loads(Path(tables).read_text(encoding="utf-8"))
    for entry in node["h"]:
        entry["coeff"] = [[[re + 5, im] for re, im in row]
                          for row in entry["coeff"]]
    Path(tables).write_text(json.dumps(node), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", doc, "--tables", tables])
    assert code == 4 and json.loads(out)["max_residual"] == 10
    return doc, tables


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--resonance-tol", "nan"),
    ("check", "--resonance-tol", "-1"),
    ("check", "--resonance-tol", "inf"),
    ("check", "--resonance-tol", "0"),
    ("check", "--tol", "nan"),
    ("linearize", "--resonance-tol", "nan"),
    ("linearize", "--tol", "inf"),
    ("verify", "--tol", "inf"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"),
])
def test_tolerance_flags_must_be_positive_and_finite(tmp_path, capsys,
                                                     command, flag, value):
    # nan, a negative or an infinite tolerance made check pass a margin of
    # exactly 0 and verify pass a residual of 10; each is now refused as
    # the document's options are, exit 3 with an /options pointer
    if command == "verify":
        doc, tables = _tables_off_by_five(tmp_path, capsys)
        argv = ["verify", doc, "--tables", tables]
    else:
        argv = [command, write_doc(tmp_path, RESONANT_DOC), "--order", "3"]
        assert run(capsys, argv)[0] == 2
    code, out, err = run(capsys, argv + [flag, value])
    key = flag[2:].replace("-", "_")
    assert code == 3 and out == ""
    assert err == (f"schema error: /options/{key}: {flag} {float(value)}: "
                   f"expected a positive finite number\n")


@pytest.mark.parametrize("key, value", [("tol", math.inf),
                                        ("tol", 10 ** 400),
                                        ("resonance_tol", math.inf)],
                         ids=["tol-inf", "tol-1e400", "resonance_tol-inf"])
def test_document_tolerances_must_be_finite(tmp_path, capsys, key, value):
    # json.load reads Infinity, which passed the old v > 0 test
    doc, tables = _tables_off_by_five(tmp_path, capsys)
    data = dict(SCALAR_DOC, options={"order": 4, key: value})
    bad = write_doc(tmp_path, data, "bad.json")
    code, out, err = run(capsys, ["verify", bad, "--tables", tables])
    assert code == 3 and out == ""
    assert err == (f"schema error: /options/{key}: expected a positive "
                   f"finite number\n")


def test_missing_file_is_schema_exit(tmp_path, capsys):
    code, _, err = run(capsys, ["check", str(tmp_path / "absent.json")])
    assert code == 3
    assert "cannot read input" in err


# ----------------------------------------------------------------------
# polys
# ----------------------------------------------------------------------


def test_polys_frozen_members(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out, _ = run(capsys, ["polys", doc, "--exact", "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    # ascending x-power lists of 1x1 matrices of [re, im] pairs
    assert payload["P"][1] == [[[ [0, 0] ]], [[[4, 0]]]]
    assert payload["P"][2] == [[[[-6, 0]]], [[[0, 0]]], [[[30, 0]]]]
    assert payload["C"][1] == [[[4, 0]]]
    assert payload["C"][2] == [[[30, 0]]]


@pytest.mark.parametrize("residues, argv", [
    # README's example with the residue at -1 set to 1e200: the leading
    # coefficient of P_2 overflows
    ((1e200, 1), ["polys", "--order", "3"]),
    # residues 1e-5 at -1 and 1, g = 1e308 (1 - x + x^2 + x^3): the
    # obstruction overflows where every solve is finite
    ((1e-5, 1e-5), ["correct", "--g",
                    "[[[1e308,0]],[[-1e308,0]],[[1e308,0]],[[1e308,0]]]"]),
])
def test_non_finite_report_is_a_numeric_failure(tmp_path, capsys, residues,
                                                argv):
    # a report that holds an inf or a nan exits 4, writes nothing, and
    # says so, in place of a traceback from the JSON writer
    doc = write_doc(tmp_path, dict(SCALAR_DOC, matrices=[
        [[[b, 0]]] for b in residues]))
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, [argv[0], doc, *argv[1:],
                                     "--out", str(out)])
    assert code == 4 and stdout == "" and not out.exists()
    assert err == "numeric failure: non-finite number in the report\n"


# ----------------------------------------------------------------------
# correct
# ----------------------------------------------------------------------


def test_correct_exact_scalar(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    g = json.dumps([[[0, 0]], [[0, 0]], [[1, 0]]])
    code, out, _ = run(capsys, ["correct", doc, "--exact", "--g", g])
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == [[["1/3", 0]]]
    assert payload["y"] == [[[0, 0]], [["1/3", 0]]]


def test_correct_g_from_file(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([[[0, 0]], [[0, 0]], [[1, 0]]]))
    code, out, _ = run(
        capsys, ["correct", doc, "--exact", "--g", f"@{g_path}"]
    )
    assert code == 0
    assert json.loads(out)["phi"] == [[["1/3", 0]]]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("g, want", [
    ("[[[0,0]]]", '{"phi":[[[0,0]]],"y":[[[0,0]]]}\n'),
    ("[[[2,0]]]", '{"phi":[[[2,0]]],"y":[[[0,0]]]}\n'),
    ("[[[1,0]],[[0,0]]]", '{"phi":[[[1,0]]],"y":[[[0,0]]]}\n'),
])
def test_correct_zero_and_low_degree_rhs_bytes(tmp_path, capsys, exact, g,
                                               want):
    # on README's example (S = 0): g = 0 gives zero phi and y, and a g of
    # degree <= S (also with a trailing zero coefficient) is its own phi
    # with y = 0; a zero polynomial prints as one coefficient of zero pairs
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out, _ = run(capsys, ["correct", doc, "--g", g]
                       + ["--exact"] * exact)
    assert code == 0 and out == want


def test_correct_g_that_is_not_json_is_a_schema_error(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out, err = run(capsys, ["correct", doc, "--exact",
                                  "--g", "[[[1,0]]"])
    assert code == 3 and out == ""
    assert err.startswith("schema error: /g: invalid JSON: ")


def test_correct_requires_g(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, _, err = run(capsys, ["correct", doc])
    assert code == 3
    assert "/g" in err


def test_correct_analytic_certificate(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    g = json.dumps([[[0, 0]], [[0, 0]], [[1, 0]]])
    code, out, _ = run(capsys, ["correct", doc, "--g", g, "--analytic"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["phi"][0][0][0] - 1 / 3) <= 1e-9
    cert = payload["certificate"]
    assert cert["passed"] is True
    assert len(cert["checks"]) == 2
    assert cert["max_difference"] <= 1e-9
    assert cert["phi_gap"] <= 1e-9


def test_correct_analytic_path_through_a_pole(tmp_path, capsys):
    data = dict(SCALAR_DOC, options={
        "order": 4, "paths": {"1": [[-1, 0], [1, 0], [0, 1], [1, 0]]},
    })
    doc = write_doc(tmp_path, data)
    code, _, err = run(
        capsys, ["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]",
                 "--analytic"]
    )
    assert code == 4
    assert "meets pole 1" in err


# d = 1, S = 1: poles -1, 1 and 2i
THREE_POLE_DOC = {
    "dimension": 1,
    "S": 1,
    "poles": [[-1, 0], [1, 0], [0, 2]],
    "matrices": [[[[1, 0]]], [[[1, 0]]], [[[1, 0]]]],
}

# each is one key of options.paths that is not a path to that target pole
BAD_PATH_OPTIONS = {
    "key-past-the-last-pole": ("7", [[-1, 0], [1, 0]]),
    "key-of-the-basepoint": ("0", [[-1, 0], [1, 0]]),
    "end-off-every-pole": ("1", [[-1, 0], [0.5, 0.5]]),
    "one-waypoint": ("1", [[-1, 0]]),
    "start-off-pole-0": ("1", [[0, -1], [1, 0]]),
    "end-at-another-pole": ("1", [[-1, 0], [0, 2]]),
}


@pytest.mark.parametrize("case", sorted(BAD_PATH_OPTIONS))
def test_correct_analytic_bad_path_is_a_schema_error(tmp_path, capsys, case):
    key, waypoints = BAD_PATH_OPTIONS[case]
    doc = write_doc(tmp_path, dict(THREE_POLE_DOC,
                                   options={"paths": {key: waypoints}}))
    code, out, err = run(
        capsys, ["correct", doc, "--exact", "--analytic",
                 "--g", "[[[1,0]],[[0,0]],[[1,0]]]"]
    )
    assert code == 3
    assert out == ""
    assert f"/options/paths/{key}:" in err


@pytest.mark.parametrize("waypoints", [
    [[-1, 0], [-1, 0], [0, -1], [1, 0]],
    [[-1, 0], [0, -1], [1, 0], [1, 0]],
], ids=["first-repeated", "last-repeated"])
def test_correct_analytic_repeated_end_waypoint(tmp_path, capsys,
                                                waypoints):
    phis = []
    for path in ([[-1, 0], [0, -1], [1, 0]], waypoints):
        doc = write_doc(tmp_path, dict(THREE_POLE_DOC,
                                       options={"paths": {"1": path}}))
        code, out, err = run(
            capsys, ["correct", doc, "--exact", "--analytic",
                     "--g", "[[[1,0]],[[0,0]],[[1,0]]]"]
        )
        assert code == 0, err
        phis.append(json.loads(out)["phi"])
    assert phis[1] == phis[0]


@pytest.mark.parametrize("waypoints", [
    [[-1, 0], [-1 + 1e-13, 0], [0, -1], [1, 0]],
    [[-1, 0], [0, -1], [1 - 1e-13, 0], [1, 0]],
], ids=["first", "last"])
def test_correct_analytic_waypoint_within_end_tolerance(tmp_path, capsys,
                                                        waypoints):
    # within 1e-12 of p_0, or 1e-9 of the target pole, a waypoint next to
    # that end merges into it: the plain path's phi, exit 0
    phis = []
    for path in ([[-1, 0], [0, -1], [1, 0]], waypoints):
        doc = write_doc(tmp_path, dict(THREE_POLE_DOC,
                                       options={"paths": {"1": path}}))
        code, out, err = run(
            capsys, ["correct", doc, "--exact", "--analytic",
                     "--g", "[[[1,0]],[[0,0]],[[1,0]]]"]
        )
        assert code == 0, err
        phis.append(json.loads(out)["phi"])
    assert phis[1] == phis[0]


def test_correct_analytic_ladder(tmp_path, capsys):
    doc = write_doc(tmp_path, NEGATIVE_BINF_DOC)
    # b = (-1/2, -1/2) hits k + B_inf = 0 at k = 1: rejected up front
    code, _, err = run(
        capsys, ["correct", doc, "--exact", "--g", "[[[1,0]]]", "--analytic"]
    )
    assert code == 2
    assert "assumption failure" in err


# ----------------------------------------------------------------------
# linearize / normal-form / verify
# ----------------------------------------------------------------------


def test_linearize_and_verify_roundtrip(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "tables.json")
    code, out, _ = run(
        capsys, ["linearize", doc, "--exact", "--out", tables]
    )
    assert code == 0 and out == ""
    saved = json.loads(open(tables).read())
    assert saved["mode"] == "obstruction" and saved["order"] == 4
    assert saved["series"] == []           # x u^2 linearizes with phi = 0
    h2 = [e for e in saved["h"] if e["m"] == [2]]
    assert h2 and h2[0]["coeff"] == [[["1/2", 0]]]

    code, out, _ = run(
        capsys, ["verify", doc, "--exact", "--tables", tables]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_residual"] == 0
    assert set(payload["residuals"]) == {"2", "3", "4"}


def test_verify_rejects_corrupted_tables(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "tables.json")
    run(capsys, ["linearize", doc, "--exact", "--out", tables])
    saved = json.loads(open(tables).read())
    for entry in saved["h"]:
        if entry["m"] == [2]:
            entry["coeff"] = [[["3/2", 0]]]
    corrupted = tmp_path / "bad.json"
    corrupted.write_text(json.dumps(saved))
    code, out, _ = run(
        capsys, ["verify", doc, "--exact", "--tables", str(corrupted)]
    )
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_verify_reports_nan_residuals_of_overflowing_float_tables(
        tmp_path, capsys):
    # float tables whose h coefficients are +-1e308 in turn: the residuals
    # are inf - inf, a nan, read as the float maximum, so the report still
    # serializes and the verification fails with exit 4
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "tables.json")
    assert run(capsys, ["linearize", doc, "--order", "3",
                        "--out", tables])[0] == 0
    saved = json.loads(open(tables).read())
    signs = itertools.cycle([1e308, -1e308])
    for entry in saved["h"]:
        entry["coeff"] = [[[next(signs), next(signs)] for _ in row]
                          for row in entry["coeff"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(saved))
    code, out, err = run(capsys, ["verify", doc, "--tables", str(bad)])
    assert code == 4 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["residuals"] == {"2": sys.float_info.max,
                                    "3": sys.float_info.max}


def test_overflowing_residue_sum_is_a_numeric_failure(tmp_path, capsys):
    # residues 1.5e308 at -1 and 1: B_inf = -(B_0 + B_1) overflows to
    # -inf, whose spectrum is a numeric failure (exit 4), not a traceback
    doc = write_doc(tmp_path, {"dimension": 1, "S": 0,
                               "poles": [[-1, 0], [1, 0]],
                               "matrices": [[[[1.5e308, 0]]],
                                            [[[1.5e308, 0]]]]})
    for argv in (["check", doc], ["linearize", doc, "--order", "3"]):
        code, _, err = run(capsys, argv)
        assert code == 4, (argv, err)
        assert err.startswith("numeric failure:") and "non-finite" in err


def test_normal_form_command_and_mode_flag_agree(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out_a, _ = run(capsys, ["normal-form", doc, "--exact"])
    assert code == 0
    code, out_b, _ = run(
        capsys, ["linearize", doc, "--exact", "--mode", "normal-form"]
    )
    assert code == 0
    assert out_a == out_b
    assert json.loads(out_a)["mode"] == "normal-form"


@pytest.mark.parametrize("poles", [
    [[0, 0], ["1/10000000000000", 0]],
    [[-10**400, 0], [10**400, 0]],
], ids=["close", "huge"])
def test_linearize_exact_poles_past_float_range(tmp_path, capsys, poles):
    doc = write_doc(tmp_path, dict(SCALAR_DOC, poles=poles))
    tables = str(tmp_path / "tables.json")
    code, _, err = run(
        capsys, ["linearize", doc, "--exact", "--out", tables]
    )
    assert code == 0, err
    code, out, _ = run(capsys, ["verify", doc, "--exact", "--tables", tables])
    assert code == 0
    assert json.loads(out)["max_residual"] == 0


def test_float_poles_within_tolerance_fail_the_document_check(tmp_path, capsys):
    # float poles 1e-13 apart coincide; the document check names the pole
    doc = write_doc(tmp_path, dict(SCALAR_DOC, poles=[[0, 0], [1e-13, 0]]))
    code, out, err = run(capsys, ["linearize", doc])
    assert code == 3
    assert out == ""
    assert "/poles/1:" in err


def test_linearize_mode_follows_document(tmp_path, capsys):
    data = dict(SCALAR_DOC, options={"order": 4, "mode": "normal-form"})
    doc = write_doc(tmp_path, data)
    code, out_nf, _ = run(capsys, ["normal-form", doc, "--exact"])
    assert code == 0
    code, out, _ = run(capsys, ["linearize", doc, "--exact"])
    assert code == 0
    assert out == out_nf
    # the flag still wins over the document
    plain = write_doc(tmp_path, SCALAR_DOC, name="plain.json")
    code, out_obs, _ = run(capsys, ["linearize", plain, "--exact"])
    assert code == 0
    code, out, _ = run(
        capsys, ["linearize", doc, "--exact", "--mode", "obstruction"]
    )
    assert code == 0
    assert out == out_obs
    assert json.loads(out)["mode"] == "obstruction"


def test_verify_mode_follows_tables(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "nf.json")
    run(capsys, ["normal-form", doc, "--exact", "--out", tables])
    code, out, _ = run(capsys, ["verify", doc, "--exact", "--tables", tables])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "normal-form"
    assert payload["max_residual"] == 0


BAD_TABLES = {
    "invalid JSON": ('{"series": [', "/tables: invalid JSON: "),
    "no h": ('{"series": []}',
             "/tables: expected an object with series and h"),
    "not an object": ('[[], []]',
                      "/tables: expected an object with series and h"),
    "unknown mode": ('{"series": [], "h": [], "mode": "fast"}',
                     "/tables/mode: unknown mode 'fast'"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_verify_refuses_malformed_tables(tmp_path, capsys, case):
    text, message = BAD_TABLES[case]
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = tmp_path / "tables.json"
    tables.write_text(text)
    code, out, err = run(capsys,
                         ["verify", doc, "--exact", "--tables", str(tables)])
    assert code == 3 and out == ""
    assert message in err


def test_verify_order_falls_back_to_the_tables_highest_order(tmp_path,
                                                             capsys):
    # no --order and no order in the tables: verify reads up to the
    # highest order of a term, not the document's options.order (4)
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = tmp_path / "tables.json"
    run(capsys, ["linearize", doc, "--exact", "--order", "3",
                 "--out", str(tables)])
    saved = json.loads(tables.read_text())
    del saved["order"]
    assert max(sum(e["m"]) for e in saved["h"] + saved["series"]) == 3
    tables.write_text(json.dumps(saved))
    code, out, _ = run(capsys,
                       ["verify", doc, "--exact", "--tables", str(tables)])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3 and set(payload["residuals"]) == {"2", "3"}


def test_order_is_required_somewhere(tmp_path, capsys):
    data = {k: v for k, v in SCALAR_DOC.items() if k != "options"}
    doc = write_doc(tmp_path, data)
    code, _, err = run(capsys, ["linearize", doc, "--exact"])
    assert code == 3
    assert "/options/order" in err
    code, out, _ = run(capsys, ["linearize", doc, "--exact", "--order", "3"])
    assert code == 0
    assert json.loads(out)["order"] == 3


@pytest.mark.parametrize("command", ["verify", "linearize"])
def test_order_below_two_is_a_schema_error(tmp_path, capsys, command):
    # --order 1 used to verify nothing and pass, or give empty tables
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = str(tmp_path / "tables.json")
    run(capsys, ["linearize", doc, "--exact", "--out", tables])
    extra = ["--tables", tables] if command == "verify" else []
    code, out, err = run(capsys,
                         [command, doc, "--exact", "--order", "1"] + extra)
    assert code == 3 and out == ""
    assert "/options/order" in err


@pytest.mark.parametrize("order", ["x", 1])
def test_tables_order_must_be_an_order(tmp_path, capsys, order):
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = tmp_path / "tables.json"
    run(capsys, ["linearize", doc, "--exact", "--out", str(tables)])
    saved = json.loads(tables.read_text())
    saved["order"] = order
    tables.write_text(json.dumps(saved))
    code, out, err = run(capsys,
                         ["verify", doc, "--exact", "--tables", str(tables)])
    assert code == 3 and out == ""
    assert "/tables/order" in err


@pytest.mark.parametrize("table, m", [("h", [1]), ("series", [0])])
def test_tables_term_below_order_two_is_a_schema_error(tmp_path, capsys,
                                                       table, m):
    # such a term is outside the identity; it used to be ignored, so the
    # tables still verified
    doc = write_doc(tmp_path, SCALAR_DOC)
    tables = tmp_path / "tables.json"
    run(capsys, ["linearize", doc, "--exact", "--order", "3",
                 "--out", str(tables)])
    saved = json.loads(tables.read_text())
    saved[table].append({"m": m, "coeff": [[[5, 0]]]})
    tables.write_text(json.dumps(saved))
    code, out, err = run(capsys,
                         ["verify", doc, "--exact", "--tables", str(tables)])
    assert code == 3 and out == ""
    assert f"/{table}/{len(saved[table]) - 1}/m" in err


# ----------------------------------------------------------------------
# determinism and environment
# ----------------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, ["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]",
                 "--analytic", "--out", str(a)])
    run(capsys, ["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]",
                 "--analytic", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# the Gaussian-rational document of the CI smoke run: d = 2, S = 1,
# nonreal poles and residues, coefficients of x-degree S + 1
GAUSS_DOC = {
    "dimension": 2,
    "S": 1,
    "poles": [[0, 1], [0, -1], ["1/2", "1/3"]],
    "matrices": [
        [[[1, "1/4"], ["1/3", "-1/2"]], [[0, "1/5"], ["6/5", "-1/3"]]],
        [[["3/2", "-1/3"], ["1/4", 1]], [["-1/2", "1/3"], ["7/5", "1/5"]]],
        [[["6/5", "1/2"], ["-1/3", 0]], [["1/4", "-1/4"], ["11/10", "-1/5"]]],
    ],
    "nonlinearity": [
        {"multiindex": [2, 0],
         "coeff": [[[1, "1/2"], [0, 0]], [[0, 0], [0, -1]],
                   [["1/3", 0], [1, "1/4"]]]},
        {"multiindex": [1, 1],
         "coeff": [[[0, 1], ["1/3", 0]], [[0, 0], [0, 0]],
                   [[-1, "1/2"], [0, 0]]]},
        {"multiindex": [0, 3],
         "coeff": [[[1, 0], ["1/2", "-1/2"]], [[0, "1/4"], [0, 0]],
                   [[0, 0], [1, 0]]]},
    ],
}

# sha256 of the tables ``--exact --order 5`` writes for GAUSS_DOC, recorded
# while they were still written through VecPoly values of ExactComplex
GAUSS_TABLES = {
    "linearize":
        "75be943d641e7ee7347c35f1d8f6ca2e6c774231a243336d64ea2571e0e2f459",
    "normal-form":
        "19f39323cb383e9fcec5e03fb8130e0bdd043a7c09b52aafaaa38a1c5e237854",
}


def _written(q, form):
    """Fraction q in another accepted form: 'unreduced' p/q strings (and
    '-0'), or 'decimal' strings, '+n' and exponent forms where q has one."""
    if form == "unreduced":
        return "-0" if not q else f"{3 * q.numerator}/{3 * q.denominator}"
    if q.denominator == 1:
        return f"+{q}" if q > 0 else f"{q}e0"
    k = next((k for k in range(1, 4) if (q * 10 ** k).denominator == 1),
             None)
    if k is None:
        return f"{2 * q.numerator}/{2 * q.denominator}"
    digits = f"{abs(q * 10 ** k).numerator:0{k + 1}d}"
    return f"{'-' if q < 0 else ''}{digits[:-k]}.{digits[-k:]}"


def _rewritten(data, form):
    """GAUSS_DOC with every scalar part written in ``form``."""
    def pair(p):
        return [_written(Fraction(v), form) for v in p]

    def rows(node):
        return [pair(p) for p in node] if isinstance(node[0][0], (int, str)) \
            else [rows(n) for n in node]

    out = dict(data, poles=[pair(p) for p in data["poles"]],
               matrices=[rows(m) for m in data["matrices"]])
    out["nonlinearity"] = [dict(t, coeff=rows(t["coeff"]))
                           for t in data["nonlinearity"]]
    return out


def test_exact_tables_of_a_nonreal_document_are_byte_identical(tmp_path,
                                                               capsys):
    # the console script's exact tables on Gaussian-rational data, with
    # imaginary rows throughout, equal the recorded ones byte for byte, and
    # the same document written with unreduced and decimal scalars gives
    # the same bytes; every verify reads an exact residual of 0
    assert _written(Fraction(-6, 5), "decimal") == "-1.2"
    assert _written(Fraction(1, 4), "decimal") == "0.25"
    for form in (None, "unreduced", "decimal"):
        data = GAUSS_DOC if form is None else _rewritten(GAUSS_DOC, form)
        assert data != GAUSS_DOC or form is None
        doc = write_doc(tmp_path, data, f"{form}.json")
        for command, digest in GAUSS_TABLES.items():
            tables = tmp_path / f"{form}-{command}.json"
            code, _, err = run(capsys, [command, doc, "--exact", "--order",
                                        "5", "--out", str(tables)])
            assert code == 0, err
            assert hashlib.sha256(tables.read_bytes()).hexdigest() == \
                digest, (form, command)
            if form is None:
                code, out, _ = run(capsys, ["verify", doc, "--exact",
                                            "--tables", str(tables)])
                assert code == 0 and json.loads(out)["max_residual"] == 0


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                 "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                 "__abs__")


def test_exact_cli_keeps_one_row_form_from_json_to_json(tmp_path, capsys,
                                                        monkeypatch):
    # linearize, normal-form and verify --exact on GAUSS_DOC: reading the
    # nonlinearity and the tables, handing rows between the row store and
    # the tables, and writing the tables build no ExactComplex and do no
    # Fraction arithmetic or construction, and no command builds a VecPoly
    doc = write_doc(tmp_path, GAUSS_DOC)
    counts, depth, entered = {}, [0], set()

    def phase(original):
        def wrapper(*args, **kwargs):
            entered.add(original.__qualname__)
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(name, original, always=False):
        def wrapper(*args, **kwargs):
            if depth[0] or always:
                counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for owner, name in ((document, "_parse_term"),
                            (cli, "series_table_json"),
                            (engine._ExactRows, "field"),
                            (engine._ExactRows, "table"),
                            (pnspace.SeriesTable, "from_rows"),
                            (model.NonlinearSystem, "_of_table")):
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                original = classmethod(phase(original.__func__))
            else:
                original = phase(original)
            patch.setattr(owner, name, original)
        for name in _FRACTION_OPS:
            patch.setattr(Fraction, name,
                          counted(name, getattr(Fraction, name)))
        patch.setattr(Fraction, "__new__", staticmethod(
            counted("Fraction", Fraction.__new__)))
        patch.setattr(exact.ExactComplex, "__init__",
                      counted("ExactComplex", exact.ExactComplex.__init__))
        patch.setattr(exact, "_real", counted("ExactComplex", exact._real))
        patch.setattr(VecPoly, "__init__",
                      counted("VecPoly", VecPoly.__init__, always=True))
        depth[0] += 1
        Fraction(1, 2) + exact.ExactComplex(1)   # the counters count
        depth[0] -= 1
        assert set(counts) == {"Fraction", "__add__", "ExactComplex"}
        counts.clear()
        for command in ("linearize", "normal-form"):
            tables = str(tmp_path / f"{command}.json")
            assert run(capsys, [command, doc, "--exact", "--order", "4",
                                "--out", tables])[0] == 0
            assert run(capsys, ["verify", doc, "--exact",
                                "--tables", tables])[0] == 0
    assert counts == {}
    assert entered == {"_parse_term", "series_table_json", "_ExactRows.field",
                       "_ExactRows.table", "SeriesTable.from_rows",
                       "NonlinearSystem._of_table"}


_EXACT_COMPLEX_OPS = ("__mul__", "__rmul__", "__add__", "__radd__",
                      "__sub__", "__rsub__", "__truediv__", "__rtruediv__")


def test_exact_commands_do_no_exact_complex_arithmetic(tmp_path, capsys,
                                                       monkeypatch):
    # linearize, normal-form, verify and correct --exact on README's
    # example and on GAUSS_DOC: the linear part's set-up (Q, QB, B_inf and
    # the spectra) runs on integer rows like the rest, so no command adds,
    # multiplies or divides an ExactComplex
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    docs = {"readme": (re.search(r"```json\n(.*?)```", readme, re.S)
                       .group(1), "[[[0,0]],[[0,0]],[[1,0]]]"),
            "gauss": (json.dumps(GAUSS_DOC),
                      '[[[1,0],[0,1]],[[0,"1/2"],[2,0]],'
                      '[["1/3",0],[0,0]],[[0,0],[1,-1]]]')}
    counts = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in _EXACT_COMPLEX_OPS:
        monkeypatch.setattr(exact.ExactComplex, name, counted(
            name, getattr(exact.ExactComplex, name)))
    exact.ExactComplex(1) * 2 + exact.ExactComplex(3)   # the counters count
    assert counts == {"__mul__": 1, "__add__": 1}
    counts.clear()
    for name, (text, g) in docs.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(text, encoding="utf-8")
        for command in ("linearize", "normal-form"):
            tables = str(tmp_path / f"{name}-{command}.json")
            assert run(capsys, [command, str(doc), "--exact", "--order", "4",
                                "--out", tables])[0] == 0
            assert run(capsys, ["verify", str(doc), "--exact",
                                "--tables", tables])[0] == 0
        assert run(capsys, ["correct", str(doc), "--exact", "--g", g])[0] == 0
    assert counts == {}


def test_exact_residue_past_the_float_range_is_a_numeric_failure(tmp_path,
                                                                 capsys):
    # the float spectrum of an exact residue 10^400 overflows: each command
    # that takes it exits 4 with the conversion's message, no traceback
    doc = write_doc(tmp_path, dict(SCALAR_DOC, matrices=[[[[10 ** 400, 0]]],
                                                         [[[1, 0]]]]))
    for argv in (["linearize", doc, "--exact", "--order", "3"],
                 ["check", doc, "--exact"],
                 ["correct", doc, "--exact", "--g", "[[[1,0]]]"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, ""), argv
        assert err == ("numeric failure: integer division result too large "
                       "for a float\n")


def test_environment_does_not_set_tolerances(tmp_path, capsys,
                                             monkeypatch):
    # tolerances come from the flags, the document options or the builtin
    # defaults; the environment is not read
    doc = write_doc(tmp_path, SCALAR_DOC)
    monkeypatch.setenv("FUCHSLIN_TOL", "not-a-number")
    monkeypatch.setenv("FUCHSLIN_RESONANCE_TOL", "not-a-number")
    code, _, _ = run(
        capsys, ["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]"]
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["correct", doc, "--exact", "--tol", "1e-12",
         "--g", "[[[0,0]],[[0,0]],[[1,0]]]"],
    )
    assert code == 0
    assert json.loads(out)["phi"] == [[["1/3", 0]]]


def test_toml_document(tmp_path, capsys):
    # load_document reads TOML with tomllib on Python >= 3.11, tomli below
    pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    path = tmp_path / "doc.toml"
    path.write_text(
        "\n".join([
            'dimension = 1',
            'S = 0',
            'poles = [[-1, 0], [1, 0]]',
            'matrices = [[[[1, 0]]], [[[1, 0]]]]',
        ]),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["check", str(path), "--exact"])
    assert code == 0
    assert json.loads(out)["passed"] is True


ROOT = Path(__file__).resolve().parents[1]


def test_console_commands_load_no_scipy(tmp_path):
    """In a fresh interpreter, ``import fuchslin.cli`` and the exact and
    float ``linearize``, the exact ``verify`` and ``correct --analytic`` on
    README's example load no scipy module: only ``moments``,
    ``rhs_moment`` and ``w_local`` import it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    doc = tmp_path / "doc.json"
    doc.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1),
                   encoding="utf-8")
    script = textwrap.dedent("""
        import sys
        from fuchslin.cli import main
        doc, tables = sys.argv[1:]
        codes = [
            main(["linearize", doc, "--exact", "--order", "6",
                  "--out", tables]),
            main(["verify", doc, "--exact", "--tables", tables]),
            main(["linearize", doc, "--order", "6"]),
            main(["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]",
                  "--analytic"]),
        ]
        print(codes, sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(doc), str(tmp_path / "t.json")],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
