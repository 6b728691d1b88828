"""Document schema, pointer messages, and canonical serialization."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslin.document import (
    SchemaError,
    SystemDocument,
    dumps_canonical,
    load_document,
    parse_series_table,
    parse_vector_polynomial,
    scalar_json,
    series_table_json,
    vecpoly_json,
)
from fuchslin.engine import SeriesTable
from fuchslin.exact import ExactComplex, clear_denominators
from fuchslin.poly import VecPoly


def scalar_doc(**overrides):
    data = {
        "dimension": 1,
        "S": 0,
        "poles": [[-1, 0], [1, 0]],
        "matrices": [[[[1, 0]]], [[[1, 0]]]],
        "nonlinearity": [
            {"multiindex": [2], "coeff": [[[1, 0]]]},
        ],
        "options": {"order": 4},
    }
    data.update(overrides)
    return data


def pointer_of(excinfo):
    return str(excinfo.value).split(":", 1)[0]


def test_happy_path_exact():
    doc = SystemDocument.from_dict(scalar_doc(), exact=True)
    assert doc.dimension == 1 and doc.s == 0 and doc.exact
    system = doc.to_system()
    assert system.size == 1 and system.s == 0
    assert system.residues[0].entry(0, 0) == ExactComplex(1)
    nl = doc.to_nonlinear()
    assert (2,) in nl.nonlinearity
    assert doc.options == {"order": 4}


def test_happy_path_float_and_fraction_strings():
    data = scalar_doc(matrices=[[[["1/4", 0]]], [[["3/4", 0]]]])
    doc = SystemDocument.from_dict(data, exact=True)
    assert doc.matrices[0].entry(0, 0) == ExactComplex(Fraction(1, 4))
    floaty = SystemDocument.from_dict(scalar_doc(), exact=False)
    assert floaty.matrices[0].entry(0, 0) == 1.0 + 0j


# accepted strings and what they read as: the integer and "p/q" forms take
# a fast path, every other string still goes to Fraction(str)
ACCEPTED = [("3/2", Fraction(3, 2)), ("-3/2", Fraction(-3, 2)),
            ("6/4", Fraction(3, 2)), ("007/004", Fraction(7, 4)),
            ("-0", Fraction(0)), ("12", Fraction(12)), ("1.5", Fraction(3, 2)),
            ("1e2", Fraction(100)), (" 3/2 ", Fraction(3, 2)),
            ("+3", Fraction(3)), (7, Fraction(7)), (-4, Fraction(-4))]

# refused values, the pointer of the real part of a matrix entry, and the
# message after it
REFUSED = [
    ("3/0", "not a valid rational: '3/0'"),
    ("abc", "not a valid rational: 'abc'"),
    ("3/-2", "not a valid rational: '3/-2'"),
    ("", "not a valid rational: ''"),
    (1.5, "floats are not accepted in exact mode; use integers or 'p/q' "
          "strings"),
    (True, "expected a number, got a boolean"),
    (None, "expected int or 'p/q' string, got NoneType"),
]


@pytest.mark.parametrize("text, want", ACCEPTED,
                         ids=[repr(t) for t, _ in ACCEPTED])
def test_exact_rational_syntax(text, want):
    data = scalar_doc(matrices=[[[[text, 0]]], [[[1, text]]]])
    doc = SystemDocument.from_dict(data, exact=True)
    assert doc.matrices[0].entry(0, 0) == ExactComplex(want)
    assert doc.matrices[1].entry(0, 0) == ExactComplex(1, want)
    table = parse_series_table([{"m": [2], "coeff": [[[0, 0]], [[text, 1]]]}],
                               1, True)
    assert table.get((2,)).coeffs[1] == (ExactComplex(want, 1),)


@pytest.mark.parametrize("value, message", REFUSED,
                         ids=[repr(v) for v, _ in REFUSED])
def test_exact_refusals_name_the_field(value, message):
    # every place a scalar is read names the same part with the same message
    cases = [
        (scalar_doc(poles=[[-1, 0], [value, 0]]), "/poles/1/0"),
        (scalar_doc(matrices=[[[[1, 0]]], [[[1, value]]]]),
         "/matrices/1/0/0/1"),
        (scalar_doc(nonlinearity=[{"multiindex": [2],
                                   "coeff": [[[1, 0]], [[value, 0]]]}]),
         "/nonlinearity/0/coeff/1/0/0"),
    ]
    for data, pointer in cases:
        with pytest.raises(SchemaError) as err:
            SystemDocument.from_dict(data, exact=True)
        assert str(err.value) == f"{pointer}: {message}"
    with pytest.raises(SchemaError) as err:
        parse_series_table([{"m": [2], "coeff": [[[1, 0]], [[0, value]]]}],
                           1, True)
    assert str(err.value) == f"/series/0/coeff/1/0/1: {message}"


def test_float_refusals_name_the_field():
    for value, message in ((True, "expected a number, got a boolean"),
                           ("1/2", "expected a number, got str"),
                           (math.inf, "non-finite number")):
        with pytest.raises(SchemaError) as err:
            SystemDocument.from_dict(
                scalar_doc(matrices=[[[[1, 0]]], [[[1, value]]]]),
                exact=False)
        assert str(err.value) == f"/matrices/1/0/0/1: {message}"
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(poles=[[-1, 0], [1]]), exact=False)
    assert str(err.value) == "/poles/1: expected a [re, im] pair"
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(
            scalar_doc(matrices=[[[[1, 0]]], [[[1, 0, 0]]]]), exact=True)
    assert str(err.value) == "/matrices/1/0/0: expected a [re, im] pair"


def test_pole_count_mismatch():
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(poles=[[-1, 0]]), exact=True)
    assert pointer_of(err) == "/poles"
    assert "expected 2 poles for S = 0" in str(err.value)


def test_duplicate_pole_pointer():
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(
            scalar_doc(poles=[[1, 0], [1, 0]]), exact=True
        )
    assert pointer_of(err) == "/poles/1"


def test_pole_rule_follows_the_mode():
    # exact poles coincide only when equal, float poles within 1e-12
    close = [[0, 0], ["1/10000000000000", 0]]
    doc = SystemDocument.from_dict(scalar_doc(poles=close), exact=True)
    assert doc.to_system().poles[1] == ExactComplex(Fraction(1, 10**13))
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(
            scalar_doc(poles=[[0, 0], [1e-13, 0]]), exact=False
        )
    assert pointer_of(err) == "/poles/1"


def test_float_rejected_in_exact_mode():
    data = scalar_doc(matrices=[[[[0.5, 0]]], [[[1, 0]]]])
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(data, exact=True)
    assert pointer_of(err) == "/matrices/0/0/0/0"
    assert "exact mode" in str(err.value)


def test_boolean_rejected_everywhere():
    with pytest.raises(SchemaError):
        SystemDocument.from_dict(scalar_doc(dimension=True), exact=False)
    data = scalar_doc(poles=[[True, 0], [1, 0]])
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(data, exact=False)
    assert "boolean" in str(err.value)


def test_unknown_fields_rejected():
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(extra=1), exact=False)
    assert pointer_of(err) == "/extra"
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(
            scalar_doc(options={"rounds": 2}), exact=False
        )
    assert pointer_of(err) == "/options/rounds"


def test_option_validation():
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(options={"order": 1}), True)
    assert pointer_of(err) == "/options/order"
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(options={"mode": "fast"}), True)
    assert pointer_of(err) == "/options/mode"
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(options={"tol": 0}), True)
    assert pointer_of(err) == "/options/tol"
    doc = SystemDocument.from_dict(
        scalar_doc(options={"order": 3, "mode": "normal-form",
                            "tol": 1e-10, "resonance_tol": 1e-8,
                            "paths": {"1": [[-1, 0], [0, -1], [1, 0]]}}),
        exact=True,
    )
    assert doc.options["mode"] == "normal-form"
    assert doc.options["paths"][1][1] == -1j
    # "01" names pole 1 as well: the second path is refused, not dropped
    twice = {"1": [[-1, 0], [1, 0]], "01": [[-1, 0], [0, -1], [1, 0]]}
    with pytest.raises(SchemaError, match="second path") as err:
        SystemDocument.from_dict(scalar_doc(options={"paths": twice}), True)
    assert pointer_of(err) == "/options/paths/01"


def test_nonlinearity_validation():
    bad_len = scalar_doc(
        nonlinearity=[{"multiindex": [2, 0], "coeff": [[[1, 0]]]}]
    )
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(bad_len, exact=True)
    assert pointer_of(err) == "/nonlinearity/0/multiindex"

    low_order = scalar_doc(
        nonlinearity=[{"multiindex": [1], "coeff": [[[1, 0]]]}]
    )
    with pytest.raises(SchemaError):
        SystemDocument.from_dict(low_order, exact=True)

    dupes = scalar_doc(nonlinearity=[
        {"multiindex": [2], "coeff": [[[1, 0]]]},
        {"multiindex": [2], "coeff": [[[2, 0]]]},
    ])
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(dupes, exact=True)
    assert "duplicate" in str(err.value)


TERM = {"multiindex": [2], "coeff": [[[1, 0]]]}
SCHEMA_REFUSALS = {
    "matrix count": (
        {"matrices": [[[[1, 0]]]]},
        "/matrices: expected 2 matrices for S = 0"),
    "matrix row count": (
        {"matrices": [[], [[[1, 0]]]]},
        "/matrices/0: expected 1 rows"),
    "matrix row length": (
        {"matrices": [[[[1, 0]]], [[[1, 0], [1, 0]]]]},
        "/matrices/1/0: expected 1 entries"),
    "non-list payload": (
        {"nonlinearity": [{"multiindex": [2], "coeff": {"0": 1}}]},
        "/nonlinearity/0/coeff: expected a nonempty list of per-x-power "
        "coefficient rows"),
    "empty payload": (
        {"nonlinearity": [{"multiindex": [2], "coeff": []}]},
        "/nonlinearity/0/coeff: expected a nonempty list of per-x-power "
        "coefficient rows"),
    "non-list coefficient row": (
        {"nonlinearity": [{"multiindex": [2], "coeff": [[[1, 0]], 5]}]},
        "/nonlinearity/0/coeff/1: expected 1 component entries"),
    "non-object options": (
        {"options": [4]},
        "/options: expected an object"),
    "non-object paths": (
        {"options": {"paths": [[-1, 0], [1, 0]]}},
        "/options/paths: expected an object keyed by pole index"),
    "non-integer path key": (
        {"options": {"paths": {"one": [[-1, 0], [1, 0]]}}},
        "/options/paths/one: key must be a pole index"),
    "empty waypoint list": (
        {"options": {"paths": {"1": []}}},
        "/options/paths/1: expected a list of waypoints"),
    "non-list nonlinearity": (
        {"nonlinearity": TERM},
        "/nonlinearity: expected a list of terms"),
    "non-object term": (
        {"nonlinearity": [[2]]},
        "/nonlinearity/0: expected an object"),
    "unknown term field": (
        {"nonlinearity": [dict(TERM, order=2)]},
        "/nonlinearity/0/order: unknown field"),
    "term without coeff": (
        {"nonlinearity": [{"multiindex": [2]}]},
        "/nonlinearity/0/coeff: missing required field"),
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case", sorted(SCHEMA_REFUSALS))
def test_schema_refusals_name_the_field(case, exact):
    overrides, message = SCHEMA_REFUSALS[case]
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(scalar_doc(**overrides), exact=exact)
    assert str(err.value) == message


@pytest.mark.parametrize("root", [[scalar_doc()], "doc", None])
def test_document_root_must_be_an_object(root):
    with pytest.raises(SchemaError) as err:
        SystemDocument.from_dict(root, exact=True)
    assert str(err.value) == "/: document root must be an object"


TABLE_REFUSALS = {
    "non-list table": (
        {"m": [2], "coeff": [[[1, 0]]]},
        "/h: expected a list of {m, coeff} entries"),
    "non-object entry": (
        [[[2], [[[1, 0]]]]],
        "/h/0: expected an object with keys m, coeff"),
    "entry with another key": (
        [{"m": [2], "coeff": [[[1, 0]]], "order": 2}],
        "/h/0: expected an object with keys m, coeff"),
    "entry without coeff": (
        [{"m": [2]}],
        "/h/0: expected an object with keys m, coeff"),
    "monomial of another length": (
        [{"m": [2, 0], "coeff": [[[1, 0]]]}],
        "/h/0/m: expected 1 nonnegative integers"),
    "negative exponent": (
        [{"m": [-2], "coeff": [[[1, 0]]]}],
        "/h/0/m: expected 1 nonnegative integers"),
    "boolean exponent": (
        [{"m": [True], "coeff": [[[1, 0]]]}],
        "/h/0/m: expected 1 nonnegative integers"),
    "order below two": (
        [{"m": [1], "coeff": [[[1, 0]]]}],
        "/h/0/m: term [1] has order below 2"),
    "duplicate monomial": (
        [{"m": [2], "coeff": [[[1, 0]]]}, {"m": [2], "coeff": [[[0, 0]]]}],
        "/h/1/m: duplicate multiindex [2]"),
    "malformed coeff": (
        [{"m": [3], "coeff": [[[1, 0, 0]]]}],
        "/h/0/coeff/0/0: expected a [re, im] pair"),
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case", sorted(TABLE_REFUSALS))
def test_series_table_refusals_name_the_entry(case, exact):
    node, message = TABLE_REFUSALS[case]
    with pytest.raises(SchemaError) as err:
        parse_series_table(node, 1, exact, "/h")
    assert str(err.value) == message


def test_load_document_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(scalar_doc()), encoding="utf-8")
    doc = load_document(path, exact=True)
    assert doc.dimension == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_document(bad)
    assert "invalid JSON" in str(err.value)


def test_load_document_toml(tmp_path):
    # load_document reads TOML with tomllib on Python >= 3.11, tomli below
    pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    path = tmp_path / "doc.toml"
    path.write_text(
        "\n".join([
            'dimension = 1',
            'S = 0',
            'poles = [[-1, 0], [1, 0]]',
            'matrices = [[[[1, 0]]], [[[1, 0]]]]',
            '[[nonlinearity]]',
            'multiindex = [2]',
            'coeff = [[[1, 0]]]',
        ]),
        encoding="utf-8",
    )
    doc = load_document(path, exact=True)
    assert doc.to_nonlinear().size == 1
    bad = tmp_path / "broken.toml"
    bad.write_text("dimension = ", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_document(bad)
    assert "invalid TOML" in str(err.value)


# ----------------------------------------------------------------------
# serializers and their inverses
# ----------------------------------------------------------------------


def test_scalar_json_forms():
    assert scalar_json(ExactComplex(Fraction(1, 3))) == ["1/3", 0]
    assert scalar_json(ExactComplex(2, Fraction(-5, 2))) == [2, "-5/2"]
    assert scalar_json(0.5 + 0.25j) == [0.5, 0.25]


def test_vecpoly_roundtrip_exact():
    rng = random.Random(3)
    for _ in range(5):
        d = rng.randint(1, 3)
        coeffs = [
            tuple(
                ExactComplex(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                )
                for _ in range(d)
            )
            for _ in range(rng.randint(1, 4))
        ]
        p = VecPoly.from_coeffs(coeffs, exact=True, dim=d)
        back = parse_vector_polynomial(vecpoly_json(p), d, True)
        assert (back - p).is_zero()


def test_series_table_roundtrip():
    table = SeriesTable(2, True)
    table.set((2, 0), VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(0))], True, dim=2))
    table.set((0, 3), VecPoly.from_coeffs(
        [(ExactComplex(0), ExactComplex(Fraction(1, 2))),
         (ExactComplex(2), ExactComplex(0))], True, dim=2))
    node = series_table_json(table)
    back = parse_series_table(node, 2, True)
    assert set(back.rows) == {(2, 0), (0, 3)}
    for m, p in back.terms.items():
        assert (p - table.get(m)).is_zero()
    with pytest.raises(SchemaError):
        parse_series_table(node + node, 2, True)   # duplicates


def test_dumps_canonical_determinism():
    a = {"b": [1.5, {"y": 2, "x": 3}], "a": None, "flag": True}
    b = {"flag": True, "a": None, "b": [1.5, {"x": 3, "y": 2}]}
    assert dumps_canonical(a) == dumps_canonical(b)
    text = dumps_canonical(a)
    assert text.endswith("\n")
    assert json.loads(text) == a


def test_dumps_canonical_float_format():
    text = dumps_canonical({"v": 1 / 3})
    assert "0.33333333333333331" in text
    roundtrip = json.loads(text)
    assert roundtrip["v"] == 1 / 3


def test_dumps_canonical_rejects_bad_values():
    with pytest.raises(ValueError):
        dumps_canonical({"v": math.nan})
    with pytest.raises(ValueError):
        dumps_canonical({1: "x"})
    with pytest.raises(TypeError):
        dumps_canonical({"v": object()})


# ----------------------------------------------------------------------
# the exact reader and writer against Fraction(str)
# ----------------------------------------------------------------------


@st.composite
def _written_rational(draw):
    """(JSON value, the Fraction it stands for), in one of the accepted
    forms of ACCEPTED: int, reduced and unreduced 'p/q', leading zeros,
    '-0', '+n', padded, decimal and exponent strings, and integers above
    2^1100 as ints and strings."""
    form = draw(st.sampled_from(["int", "ratio", "unreduced", "zeros",
                                 "minus zero", "plus", "padded", "decimal",
                                 "exponent", "huge int", "huge string"]))
    num = draw(st.integers(-40, 40))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 7, 12]))
    if form == "int":
        return num, Fraction(num)
    if form == "ratio":
        q = Fraction(num, den)
        return f"{q.numerator}/{q.denominator}", q
    if form == "unreduced":
        k = draw(st.integers(2, 9))
        return f"{num * k}/{den * k}", Fraction(num, den)
    if form == "zeros":
        return f"{'-' if num < 0 else ''}00{abs(num)}/0{den}", \
            Fraction(num, den)
    if form == "minus zero":
        return "-0", Fraction(0)
    if form == "plus":
        return f"+{abs(num)}", Fraction(abs(num))
    if form == "padded":
        return f" {num}/{den} ", Fraction(num, den)
    if form == "decimal":
        places = draw(st.integers(1, 3))
        text = f"{num / 10 ** places:.{places}f}"
        return text, Fraction(num, 10 ** places)
    if form == "exponent":
        e = draw(st.integers(-3, 3))
        return f"{num}e{e}", Fraction(num) * Fraction(10) ** e
    big = draw(st.integers(2 ** 1100, 2 ** 1200)) * (1 if num >= 0 else -1)
    return (big, Fraction(big)) if form == "huge int" \
        else (f"{big}/{den}", Fraction(big, den))


@st.composite
def _written_terms(draw):
    """d, and a coefficient payload with the Fractions it stands for,
    indexed x-power, then component, then re / im."""
    d = draw(st.integers(1, 3))
    zero = st.just((0, Fraction(0)))
    part = st.one_of(zero, _written_rational())
    coeffs = draw(st.lists(st.lists(st.tuples(part, part), min_size=d,
                                    max_size=d), min_size=1, max_size=4))
    node = [[[re[0], im[0]] for re, im in row] for row in coeffs]
    values = [[(re[1], im[1]) for re, im in row] for row in coeffs]
    return d, node, values


def _reference_rows(values, d):
    """The rows Fraction(str) and clear_denominators give, per component:
    trailing zero degrees trimmed, None for a zero component."""
    rows = []
    for i in range(d):
        comp = [v[i] for v in values]
        while comp and not any(comp[-1]):
            comp.pop()
        if not comp:
            rows.append(None)
            continue
        den, nums = clear_denominators([re for re, _ in comp]
                                       + [im for _, im in comp])
        re, im = tuple(nums[:len(comp)]), tuple(nums[len(comp):])
        rows.append((den, re, im if any(im) else None))
    return tuple(rows)


def _canonical(q):
    return q.numerator if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_written_terms())
def test_exact_reader_and_writer_match_fraction_strings(case):
    # every accepted form reads to the integer rows Fraction(str) and
    # clear_denominators give, in a tables file and in a document's
    # nonlinearity alike, and the writer prints each scalar back from
    # its row in reduced canonical form
    d, node, values = case
    want = _reference_rows(values, d)
    zero = all(row is None for row in want)
    m = [2] + [0] * (d - 1)
    table = parse_series_table([{"m": m, "coeff": node}], d, True)
    doc = SystemDocument.from_dict({
        "dimension": d, "S": 0, "poles": [[-1, 0], [1, 0]],
        "matrices": [[[[int(r == c), 0] for c in range(d)]
                      for r in range(d)]] * 2,
        "nonlinearity": [{"multiindex": m, "coeff": node}]}, exact=True)
    for got in (table, doc.f):
        assert got.rows == ({} if zero else {tuple(m): want})
    if zero:
        assert series_table_json(table) == []
        return
    width = max(len(row[1]) for row in want if row is not None)
    printed = [[[_canonical(re), _canonical(im)] for re, im in v]
               for v in values[:width]]
    assert series_table_json(table) == [{"m": m, "coeff": printed}]
    want = VecPoly.from_coeffs(
        [tuple(ExactComplex(re, im) for re, im in v) for v in values],
        True, dim=d)
    for got in (table.get(m), doc.nonlinearity[tuple(m)]):
        assert (got - want).is_zero()
