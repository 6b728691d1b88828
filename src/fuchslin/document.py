"""Self-contained system descriptions and canonical JSON output.

A document is a single JSON (or TOML) object:

    {
      "dimension": 1,
      "S": 0,
      "poles": [[-1, 0], [1, 0]],
      "matrices": [[[[1, 0]]], [[[1, 0]]]],
      "nonlinearity": [
        {"multiindex": [2], "coeff": [[[1, 0]]]}
      ],
      "options": {"order": 6, "mode": "obstruction"}
    }

Every scalar is a ``[re, im]`` pair; matrices are row-major nested arrays
of pairs; nonlinearity coefficients are indexed x-power (ascending), then
component.  In exact mode each pair part must be an integer or a
``"p/q"`` string — floats are refused so the rational pipeline never
silently loses exactness.

Polynomial payloads (the nonlinearity's and a tables file's ``coeff``)
are read straight into the engine's store rows, one per component, and
kept in a SeriesTable: in exact mode integer rows (den, re, im), each
part read as (numerator, denominator) ints, an integer or ``"p/q"``
string with one gcd and any other string as ``Fraction(str)`` reads it;
in float mode (d, width) complex128 arrays.  Poles and matrices are read
into ExactComplex / complex scalars.  ``series_table_json`` prints a
table from the same rows, each exact scalar reduced with one gcd, so an
exact tables file goes from JSON to JSON with no ExactComplex, Fraction
or VecPoly in between.

Validation failures raise SchemaError whose message starts with a
``/slash/separated`` pointer to the offending field.

``dumps_canonical`` renders output JSON deterministically: object keys
sorted, floats through ``format(x, '.17g')``, no whitespace variance —
identical inputs give byte-identical reports.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .analytic import path_defect
from .exact import ExactComplex
from .matrices import CMatrix
from .model import FuchsianSystem, NonlinearSystem, coinciding_poles
from .pnspace import SeriesTable, _ratio_row, _term_poly, _term_rows
from .poly import VecPoly


class SchemaError(ValueError):
    """Document violates the schema; message points at the field."""


class NonFiniteError(ValueError, ArithmeticError):
    """A report holds an inf or a nan, which canonical JSON cannot write;
    an arithmetic error, so the CLI exits 4 on it."""


def _fail(path, message):
    raise SchemaError(f"{path}: {message}")


def _require(cond, path, message):
    if not cond:
        _fail(path, message)


# a string that Fraction(int, int) reads as Fraction(str) would
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class _Refused(Exception):
    """A scalar failed a check; ``where`` is the pointer inside the pair."""

    def __init__(self, message, where=""):
        super().__init__(message)
        self.where = where


def _part(value, exact, where):
    if exact:
        return Fraction(*_ratio(value, where))
    if isinstance(value, bool):
        raise _Refused("expected a number, got a boolean", where)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise _Refused("non-finite number", where)
        return float(value)
    raise _Refused(f"expected a number, got {type(value).__name__}", where)


def _ratio(value, where):
    """An exact pair part as (numerator, denominator) in lowest terms, the
    denominator positive: ints as they are, ``_INT_RATIO`` strings with
    one gcd, every other string as Fraction(str) reads it."""
    if isinstance(value, bool):
        raise _Refused("expected a number, got a boolean", where)
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        m = _INT_RATIO.fullmatch(value)
        try:
            if m is None:
                return Fraction(value).as_integer_ratio()
            num, den = int(m[1]), int(m[2] or 1)
            if not den:
                raise ZeroDivisionError
        except (ValueError, ZeroDivisionError):
            raise _Refused(f"not a valid rational: {value!r}",
                           where) from None
        g = math.gcd(num, den)
        return num // g, den // g
    if isinstance(value, float):
        raise _Refused("floats are not accepted in exact mode; "
                       "use integers or 'p/q' strings", where)
    raise _Refused(
        f"expected int or 'p/q' string, got {type(value).__name__}", where)


def _scalar(node, exact):
    """A strict [re, im] pair in the requested ring."""
    if not isinstance(node, list) or len(node) != 2:
        raise _Refused("expected a [re, im] pair")
    real = _part(node[0], exact, "/0")
    imag = _part(node[1], exact, "/1")
    if exact:
        return ExactComplex(real, imag)
    return complex(real, imag)


def _parse_scalar(node, path, exact):
    """``_scalar``, failing at pointer ``path``."""
    try:
        return _scalar(node, exact)
    except _Refused as bad:
        _fail(path + bad.where, bad)


def _parse_row(row, path, k, read):
    """The pairs of row ``k`` below ``path``, each read by ``read``; the
    pointer of a refused entry is made only then."""
    out = []
    try:
        for node in row:
            out.append(read(node))
    except _Refused as bad:
        _fail(f"{path}/{k}/{len(out)}{bad.where}", bad)
    return out


def _parse_matrix(node, path, d, exact):
    if not isinstance(node, list) or len(node) != d:
        _fail(path, f"expected {d} rows")
    rows = []
    for r, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            _fail(f"{path}/{r}", f"expected {d} entries")
        rows.append(_parse_row(row, path, r,
                               lambda node: _scalar(node, exact)))
    return CMatrix.from_rows(rows, exact)


def _exact_pair(node):
    """A strict [re, im] pair as the (num, den) of each part."""
    if not isinstance(node, list) or len(node) != 2:
        raise _Refused("expected a [re, im] pair")
    return _ratio(node[0], "/0"), _ratio(node[1], "/1")


def _int_rows(coeffs):
    """The integer rows of the components of the exact pairs
    ``coeffs[k][i]``; None when every row is."""
    rows = tuple(map(_ratio_row, zip(*coeffs)))
    return rows if any(rows) else None


def _array_rows(coeffs):
    """The (d, width) complex128 rows of the complex ``coeffs[k][i]``,
    trailing zero coefficient vectors dropped; None when nothing is
    left."""
    n = len(coeffs)
    while n and not any(coeffs[n - 1]):
        n -= 1
    return np.array(coeffs[:n], complex).T if n else None


def _parse_term(node, path, d, exact):
    """A coefficient payload, indexed x-power (ascending), then component,
    as the SeriesTable rows of its d components; None when it is zero."""
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty list of per-x-power coefficient rows")
    read = _exact_pair if exact else lambda pair: _scalar(pair, False)
    coeffs = []
    for k, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            _fail(f"{path}/{k}", f"expected {d} component entries")
        coeffs.append(_parse_row(row, path, k, read))
    return (_int_rows if exact else _array_rows)(coeffs)


_TOP_KEYS = {"dimension", "S", "poles", "matrices", "nonlinearity", "options"}
_OPTION_KEYS = {"order", "tol", "resonance_tol", "mode", "paths"}
_MODES = ("obstruction", "normal-form")


def is_order(value):
    """Whether ``value`` is a truncation order: an integer >= 2."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 2


def _is_tolerance(value):
    """Whether ``value`` is a tolerance: a positive finite number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and 0 < value <= sys.float_info.max


def _parse_options(node, path, poles):
    if not isinstance(node, dict):
        _fail(path, "expected an object")
    for key in node:
        if key not in _OPTION_KEYS:
            _fail(f"{path}/{key}", "unknown option")
    out = {}
    if "order" in node:
        v = node["order"]
        _require(is_order(v), f"{path}/order", "expected an integer >= 2")
        out["order"] = v
    for key in ("tol", "resonance_tol"):
        if key in node:
            v = node[key]
            _require(_is_tolerance(v), f"{path}/{key}",
                     "expected a positive finite number")
            out[key] = float(v)
    if "mode" in node:
        v = node["mode"]
        _require(v in _MODES, f"{path}/mode",
                 f"expected one of {', '.join(_MODES)}")
        out["mode"] = v
    if "paths" in node:
        v = node["paths"]
        if not isinstance(v, dict):
            _fail(f"{path}/paths", "expected an object keyed by pole index")
        paths = {}
        for key, waypoints in v.items():
            try:
                idx = int(key)
            except ValueError:
                _fail(f"{path}/paths/{key}", "key must be a pole index")
            if not isinstance(waypoints, list) or not waypoints:
                _fail(f"{path}/paths/{key}", "expected a list of waypoints")
            pts = []
            for k, wp in enumerate(waypoints):
                z = _parse_scalar(wp, f"{path}/paths/{key}/{k}", False)
                pts.append(complex(z))
            problem = (f"a second path to pole {idx}" if idx in paths
                       else path_defect(poles, idx, pts))
            if problem is not None:
                _fail(f"{path}/paths/{key}", problem)
            paths[idx] = tuple(pts)
        out["paths"] = paths
    return out


class SystemDocument:
    """Validated description of a (non)linear Fuchsian problem.

    ``f`` is the SeriesTable of the nonzero nonlinearity terms, read
    straight into store rows, which ``to_nonlinear`` hands on as it is;
    ``monomials`` lists every multi-index the document gives, in its
    order, zero terms included.  The ``nonlinearity`` property builds
    their {m: VecPoly} mapping on each read.
    """

    __slots__ = ("dimension", "s", "poles", "matrices", "f", "monomials",
                 "options", "exact")

    def __init__(self, dimension, s, poles, matrices, f, monomials, options,
                 exact):
        self.dimension = dimension
        self.s = s
        self.poles = tuple(poles)
        self.matrices = tuple(matrices)
        self.f = f
        self.monomials = tuple(monomials)
        self.options = dict(options)
        self.exact = exact

    @property
    def nonlinearity(self):
        zero = VecPoly.zero(self.dimension, self.exact)
        return {m: self.f.get(m) or zero for m in self.monomials}

    @classmethod
    def from_dict(cls, data, exact=False):
        if not isinstance(data, dict):
            _fail("/", "document root must be an object")
        for key in data:
            if key not in _TOP_KEYS:
                _fail(f"/{key}", "unknown field")
        for key in ("dimension", "S", "poles", "matrices"):
            _require(key in data, f"/{key}", "missing required field")

        d = data["dimension"]
        _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
                 "/dimension", "expected an integer >= 1")
        s = data["S"]
        _require(isinstance(s, int) and not isinstance(s, bool) and s >= 0,
                 "/S", "expected an integer >= 0")

        poles_node = data["poles"]
        if not isinstance(poles_node, list) or len(poles_node) != s + 2:
            _fail("/poles", f"expected {s + 2} poles for S = {s}")
        poles = [
            _parse_scalar(p, f"/poles/{j}", exact)
            for j, p in enumerate(poles_node)
        ]
        clash = coinciding_poles(poles, exact)
        if clash:
            _fail(f"/poles/{clash[1]}", "poles must be pairwise distinct")

        mats_node = data["matrices"]
        if not isinstance(mats_node, list) or len(mats_node) != s + 2:
            _fail("/matrices", f"expected {s + 2} matrices for S = {s}")
        matrices = [
            _parse_matrix(mat, f"/matrices/{j}", d, exact)
            for j, mat in enumerate(mats_node)
        ]

        f = SeriesTable(d, exact)
        seen = {}
        if "nonlinearity" in data:
            nl_node = data["nonlinearity"]
            if not isinstance(nl_node, list):
                _fail("/nonlinearity", "expected a list of terms")
            for k, item in enumerate(nl_node):
                ipath = f"/nonlinearity/{k}"
                if not isinstance(item, dict):
                    _fail(ipath, "expected an object")
                for key in item:
                    if key not in ("multiindex", "coeff"):
                        _fail(f"{ipath}/{key}", "unknown field")
                _require("multiindex" in item, f"{ipath}/multiindex",
                         "missing required field")
                _require("coeff" in item, f"{ipath}/coeff",
                         "missing required field")
                m_node = item["multiindex"]
                if (not isinstance(m_node, list) or len(m_node) != d
                        or any(isinstance(v, bool) or not isinstance(v, int)
                               or v < 0 for v in m_node)):
                    _fail(f"{ipath}/multiindex",
                          f"expected {d} nonnegative integers")
                m = tuple(m_node)
                _require(sum(m) >= 2, f"{ipath}/multiindex",
                         "total degree must be >= 2")
                _require(m not in seen, f"{ipath}/multiindex",
                         f"duplicate multiindex {list(m)}")
                seen[m] = None
                rows = _parse_term(item["coeff"], f"{ipath}/coeff", d, exact)
                if rows is not None:
                    f.rows[m] = rows

        options = {}
        if "options" in data:
            options = _parse_options(data["options"], "/options", poles)

        return cls(d, s, poles, matrices, f, seen, options, exact)

    def to_system(self):
        try:
            return FuchsianSystem(self.poles, self.matrices)
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"/: {exc}") from exc

    def to_nonlinear(self):
        return NonlinearSystem._of_table(self.to_system(), self.f)


def load_document(path, exact=False):
    """Read a document from a JSON or TOML file (by extension)."""
    text_path = str(path)
    if text_path.endswith(".toml"):
        try:
            import tomllib as toml_reader
        except ImportError:  # Python < 3.11
            try:
                import tomli as toml_reader
            except ImportError:
                raise SchemaError(
                    "/: TOML input needs Python >= 3.11 or the tomli package"
                )
        with open(text_path, "rb") as fh:
            try:
                data = toml_reader.load(fh)
            except toml_reader.TOMLDecodeError as exc:
                raise SchemaError(f"/: invalid TOML: {exc}") from exc
    else:
        with open(text_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"/: invalid JSON: {exc}") from exc
    return SystemDocument.from_dict(data, exact)


# ----------------------------------------------------------------------
# canonical serialization of results
# ----------------------------------------------------------------------


def scalar_json(value):
    """[re, im] pair; exact values as ints / 'p/q' strings, floats as-is."""
    if isinstance(value, ExactComplex):
        return [_ratio_json(*value.re.as_integer_ratio()),
                _ratio_json(*value.im.as_integer_ratio())]
    z = complex(value)
    return [z.real, z.imag]


def matrix_json(mat):
    return [[scalar_json(mat.entry(i, j)) for j in range(mat.n_cols)]
            for i in range(mat.n_rows)]


def vecpoly_json(p):
    """A vector polynomial's payload, written from its store rows."""
    rows = _term_rows(p, p.exact)
    return (_int_rows_json if p.exact else _array_rows_json)(rows)


def matpoly_json(p):
    if p.is_zero():
        return [matrix_json(p.coefficient(0))]
    return [matrix_json(p.coefficient(k)) for k in range(p.degree + 1)]


def _ratio_json(v, den):
    """v / den as an int or a reduced 'p/q' string, with one gcd."""
    g = math.gcd(v, den)
    return v // g if g == den else f"{v // g}/{den // g}"


def _int_rows_json(rows):
    """The payload of a term's integer rows; the zero polynomial's is one
    coefficient of zero pairs."""
    width = max((len(row[1]) for row in rows if row is not None), default=1)
    comps = []
    for row in rows:
        if row is None:
            comps.append([[0, 0]] * width)
            continue
        den, re, im = row
        if den == 1:
            parts = zip(re, im or [0] * len(re))
        else:
            parts = zip([_ratio_json(v, den) for v in re],
                        [_ratio_json(v, den) for v in im] if im
                        else [0] * len(re))
        comps.append([list(pair) for pair in parts]
                     + [[0, 0]] * (width - len(re)))
    return [list(coeff) for coeff in zip(*comps)]


def _array_rows_json(rows):
    """The payload of a term's complex128 rows; the zero polynomial's is
    one coefficient of zero pairs."""
    return [[[z.real, z.imag] for z in coeff]
            for coeff in rows.T.tolist() or [[0j] * len(rows)]]


def series_table_json(table):
    """A SeriesTable as a list of {m, coeff}, each coefficient printed from
    its store rows."""
    write = _int_rows_json if table.exact else _array_rows_json
    return [{"m": list(m), "coeff": write(rows)}
            for m, rows in table.rows_sorted()]


def parse_vector_polynomial(node, d, exact, path="/g"):
    """Public entry for rhs / coefficient payloads outside a document."""
    rows = _parse_term(node, path, d, exact)
    if rows is None:
        return VecPoly.zero(d, exact)
    return _term_poly(rows, exact)


def parse_series_table(node, d, exact, path="/series"):
    """Inverse of series_table_json: a list of {m, coeff} into a
    SeriesTable, each coefficient read straight into store rows.

    Every monomial has order >= 2, as in h, phi and psi.
    """
    if not isinstance(node, list):
        _fail(path, "expected a list of {m, coeff} entries")
    out = SeriesTable(d, exact)
    seen = set()
    for k, item in enumerate(node):
        ipath = f"{path}/{k}"
        if not isinstance(item, dict) or set(item) != {"m", "coeff"}:
            _fail(ipath, "expected an object with keys m, coeff")
        m_node = item["m"]
        if (not isinstance(m_node, list) or len(m_node) != d
                or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                       for v in m_node)):
            _fail(f"{ipath}/m", f"expected {d} nonnegative integers")
        m = tuple(m_node)
        _require(sum(m) >= 2, f"{ipath}/m",
                 f"term {list(m)} has order below 2")
        _require(m not in seen, f"{ipath}/m",
                 f"duplicate multiindex {list(m)}")
        seen.add(m)
        rows = _parse_term(item["coeff"], f"{ipath}/coeff", d, exact)
        if rows is not None:
            out.rows[m] = rows
    return out


def _canon(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError("non-finite number in the report")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for k, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ValueError("canonical JSON requires string keys")
            if k:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canon(value[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(value):
    """Deterministic JSON: sorted keys, '.17g' floats, fixed spacing."""
    out = []
    _canon(value, out)
    out.append("\n")
    return "".join(out)
