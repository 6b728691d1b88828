"""End-to-end command-line behavior: exit codes, payloads, determinism."""

from __future__ import annotations

import json
import sys

import pytest

from fuchslin.cli import main


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


def test_check_passes_clean_system(tmp_path, capsys):
    doc = write_doc(tmp_path, SCALAR_DOC)
    code, out, _ = run(capsys, ["check", doc, "--exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["linear"]["passed"] is True
    assert payload["nonlinear"]["passed"] is True


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


def test_schema_error_reports_pointer(tmp_path, capsys):
    bad = dict(SCALAR_DOC)
    bad["poles"] = [[-1, 0]]
    doc = write_doc(tmp_path, bad)
    code, out, err = run(capsys, ["check", doc, "--exact"])
    assert code == 3
    assert out == ""
    assert "/poles" in err


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


def test_order_is_required_somewhere(tmp_path, capsys):
    data = {k: v for k, v in SCALAR_DOC.items() if k != "options"}
    doc = write_doc(tmp_path, data)
    code, _, err = run(capsys, ["linearize", doc, "--exact"])
    assert code == 3
    assert "/options/order" in err
    code, out, _ = run(capsys, ["linearize", doc, "--exact", "--order", "3"])
    assert code == 0
    assert json.loads(out)["order"] == 3


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


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, SCALAR_DOC)
    monkeypatch.setenv("FUCHSLIN_TOL", "not-a-number")
    code, _, err = run(
        capsys, ["correct", doc, "--g", "[[[0,0]],[[0,0]],[[1,0]]]"]
    )
    assert code == 3
    assert "FUCHSLIN_TOL" in err
    # an explicit flag wins over the broken environment value
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
