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
from fractions import Fraction

from .analytic import path_defect
from .exact import ExactComplex
from .matrices import CMatrix
from .model import FuchsianSystem, NonlinearSystem, coinciding_poles
from .poly import VecPoly


class SchemaError(ValueError):
    """Document violates the schema; message points at the field."""


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
    if isinstance(value, bool):
        raise _Refused("expected a number, got a boolean", where)
    if exact:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                m = _INT_RATIO.fullmatch(value)
                if m is None:
                    return Fraction(value)
                return (Fraction(int(m[1]), int(m[2])) if m[2]
                        else Fraction(int(m[1])))
            except (ValueError, ZeroDivisionError):
                raise _Refused(f"not a valid rational: {value!r}",
                               where) from None
        if isinstance(value, float):
            raise _Refused("floats are not accepted in exact mode; "
                           "use integers or 'p/q' strings", where)
        raise _Refused(
            f"expected int or 'p/q' string, got {type(value).__name__}",
            where)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise _Refused("non-finite number", where)
        return float(value)
    raise _Refused(f"expected a number, got {type(value).__name__}", where)


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


def _parse_row(row, path, k, exact):
    """The scalars of row ``k`` below ``path``, a list of [re, im] pairs;
    the pointer of a refused entry is made only then."""
    out = []
    try:
        for node in row:
            out.append(_scalar(node, exact))
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
        rows.append(_parse_row(row, path, r, exact))
    return CMatrix.from_rows(rows, exact)


def _parse_vecpoly(node, path, d, exact):
    """Coefficients indexed x-power (ascending), then component."""
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty list of per-x-power coefficient rows")
    coeffs = []
    for k, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            _fail(f"{path}/{k}", f"expected {d} component entries")
        coeffs.append(tuple(_parse_row(row, path, k, exact)))
    return VecPoly.from_coeffs(coeffs, exact, dim=d)


_TOP_KEYS = {"dimension", "S", "poles", "matrices", "nonlinearity", "options"}
_OPTION_KEYS = {"order", "tol", "resonance_tol", "mode", "paths"}
_MODES = ("obstruction", "normal-form")


def is_order(value):
    """Whether ``value`` is a truncation order: an integer >= 2."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 2


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
            _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                     and v > 0, f"{path}/{key}", "expected a positive number")
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
    """Validated description of a (non)linear Fuchsian problem."""

    __slots__ = ("dimension", "s", "poles", "matrices", "nonlinearity",
                 "options", "exact")

    def __init__(self, dimension, s, poles, matrices, nonlinearity, options,
                 exact):
        self.dimension = dimension
        self.s = s
        self.poles = tuple(poles)
        self.matrices = tuple(matrices)
        self.nonlinearity = dict(nonlinearity)
        self.options = dict(options)
        self.exact = exact

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

        nonlinearity = {}
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
                _require(m not in nonlinearity, f"{ipath}/multiindex",
                         f"duplicate multiindex {list(m)}")
                nonlinearity[m] = _parse_vecpoly(
                    item["coeff"], f"{ipath}/coeff", d, exact
                )

        options = {}
        if "options" in data:
            options = _parse_options(data["options"], "/options", poles)

        return cls(d, s, poles, matrices, nonlinearity, options, exact)

    def to_system(self):
        try:
            return FuchsianSystem(self.poles, self.matrices)
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"/: {exc}") from exc

    def to_nonlinear(self):
        return NonlinearSystem(self.to_system(), self.nonlinearity)


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


def _fraction_json(q):
    if q.denominator == 1:
        return int(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_json(value):
    """[re, im] pair; exact values as ints / 'p/q' strings, floats as-is."""
    if isinstance(value, ExactComplex):
        return [_fraction_json(value.re), _fraction_json(value.im)]
    z = complex(value)
    return [z.real, z.imag]


def matrix_json(mat):
    return [[scalar_json(mat.entry(i, j)) for j in range(mat.n_cols)]
            for i in range(mat.n_rows)]


def vecpoly_json(p):
    if p.is_zero():
        return [[scalar_json(v) for v in p.coefficient(0)]]
    return [
        [scalar_json(v) for v in p.coefficient(k)]
        for k in range(p.degree + 1)
    ]


def matpoly_json(p):
    if p.is_zero():
        return [matrix_json(p.coefficient(0))]
    return [matrix_json(p.coefficient(k)) for k in range(p.degree + 1)]


def series_table_json(table):
    return [
        {"m": list(m), "coeff": vecpoly_json(p)}
        for m, p in table.items_sorted()
    ]


def parse_vector_polynomial(node, d, exact, path="/g"):
    """Public entry for rhs / coefficient payloads outside a document."""
    return _parse_vecpoly(node, path, d, exact)


def parse_series_table(node, d, exact, path="/series"):
    """Inverse of series_table_json: a list of {m, coeff} into {m: VecPoly}.

    Every monomial has order >= 2, as in h, phi and psi.
    """
    if not isinstance(node, list):
        _fail(path, "expected a list of {m, coeff} entries")
    out = {}
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
        _require(m not in out, f"{ipath}/m", f"duplicate multiindex {list(m)}")
        out[m] = _parse_vecpoly(item["coeff"], f"{ipath}/coeff", d, exact)
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
            raise ValueError("cannot serialize non-finite float")
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
