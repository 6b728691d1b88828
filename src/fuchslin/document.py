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

Every input file (a document, a tables file, ``--g @file``) is read by
one reader, ``read_file``: bytes decoded as UTF-8, then JSON (``_loads``)
or TOML.  Every grid of pairs is read by one reader for both rings,
``_grid``.  In exact mode a sequence of pairs goes into one integer row
(den, re, im) (``_exact_row``, ``pnspace``), int parts as they are and
each string part as (numerator, denominator) ints, an integer or
``"p/q"`` string with one gcd and any other string as ``Fraction(str)``
reads it.  Polynomial payloads (the nonlinearity's, a tables file's
``coeff`` and ``--g``) are read a component's column at a time into the
engine's store rows, kept in a SeriesTable; exact poles into their
integer roots (den, a, b) and matrices, row-major as one row, into their
integer entries (den, [(row, col, re, im), ...]).  In float mode a grid
is one complex128 array, read row-major: a payload's (d, width) rows, a
matrix's (d, d) array.  These are the forms the linear part's set-up
starts from in both rings (``FuchsianSystem._of_forms``).
``series_table_json`` prints a table from the same rows, each exact
scalar reduced with one gcd, so an exact tables file goes from JSON to
JSON with no ExactComplex, Fraction or VecPoly in between.  Integers past
CPython's int-str digit limit are read and written by piecewise
conversions, which run only where the plain one refused.

Validation failures raise SchemaError whose message starts with a
``/slash/separated`` pointer to the offending field; the reader reports
the first bad pair a row-major read meets (``_locate``).

``dumps_canonical`` renders output JSON deterministically: object keys
sorted, floats through ``format(x, '.17g')``, no whitespace variance —
identical inputs give byte-identical reports.  ``dumps_exact`` gives the
same bytes for a report with no float, written by json's C encoder.
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
from .model import FuchsianSystem, NonlinearSystem, coinciding_poles
from .pnspace import SeriesTable, _term_poly, _term_rows
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


def _part(value, where):
    """A float pair part as a float."""
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
    one gcd, every other string as Fraction(str) reads it, and past the
    int-str digit limit as ``_long_ratio`` reads it."""
    if isinstance(value, str):
        m = _INT_RATIO.fullmatch(value)
        try:
            if m is None:
                _check_exponent(value, where)
                try:
                    return Fraction(value).as_integer_ratio()
                except ValueError:
                    num, den = _long_ratio(value)
            else:
                try:
                    num, den = int(m[1]), int(m[2] or 1)
                except ValueError:      # past the int-str digit limit
                    num, den = _long_int(m[1]), _long_int(m[2] or "1")
            if not den:
                raise ZeroDivisionError
        except (ValueError, ZeroDivisionError):
            raise _Refused(f"not a valid rational: {_shown(value)}",
                           where) from None
        g = math.gcd(num, den)
        return num // g, den // g
    if isinstance(value, bool):
        raise _Refused("expected a number, got a boolean", where)
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float):
        raise _Refused("floats are not accepted in exact mode; "
                       "use integers or 'p/q' strings", where)
    raise _Refused(
        f"expected int or 'p/q' string, got {type(value).__name__}", where)


# a decimal string's exponent, as Fraction(str) reads it
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _check_exponent(text, where):
    """Refuse a decimal string whose exponent's magnitude is above both the
    int-str digit limit (if any) and the string's length: reading it
    builds 10 ** exponent, in a time that grows faster than the exponent.
    """
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT.search(text)
    if limit and m:
        cap = max(limit, len(text))
        digits = m[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(cap)) or int(digits or 0) > cap:
            raise _Refused(f"exponent above {cap} in {_shown(text)}", where)


def _shown(text, cap=40):
    """repr(text), cut to its first ``cap`` characters when longer."""
    if len(text) <= cap:
        return repr(text)
    return f"{text[:cap]!r}... ({len(text)} characters)"


# CPython refuses to convert an int of more than
# sys.get_int_max_str_digits() decimal digits (4,300 by default, never
# fewer than 640 unless unlimited) to or from a string.  The two
# conversions below take such ints in pieces of at most _PIECE digits;
# they run only where the plain conversion refused.
_PIECE = 600


def _long_int(text):
    """int(text) of a decimal integer string, converted in pieces."""
    digits = text.lstrip("-")
    if len(digits) <= _PIECE:
        value = int(digits)
    else:
        cut = len(digits) // 2
        value = (_long_int(digits[:cut]) * 10 ** (len(digits) - cut)
                 + _long_int(digits[cut:]))
    return -value if text.startswith("-") else value


# a decimal string as Fraction(str) reads it, without digit separators
_DECIMAL = re.compile(r"\s*([-+]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?"
                      r"(?:[eE]([-+]?[0-9]+))?\s*")


def _long_ratio(text):
    """(num, den) of a decimal string that Fraction(str) refused for its
    length, its digits converted in pieces; ValueError if it is not
    one."""
    m = _DECIMAL.fullmatch(text)
    if m is None:
        raise ValueError(text)
    sign, whole, part, exp = m.groups()
    part = part or ""
    num = _long_int(whole + part or "0") * (-1 if sign == "-" else 1)
    shift = int(exp or 0) - len(part)
    return (num * 10 ** shift, 1) if shift >= 0 else (num, 10 ** -shift)


def _long_str(n):
    """str(n) of an int, converted in pieces."""
    if n < 0:
        return "-" + _long_str(-n)
    if n.bit_length() <= 3.32 * _PIECE:
        return str(n)
    half = n.bit_length() * 3 // 20     # about half its digits
    high, low = divmod(n, 10 ** half)
    return _long_str(high) + _long_str(low).zfill(half)


def _loads(text, where):
    """The JSON value of ``text``, integer literals past the digit limit
    included; invalid JSON is a SchemaError at pointer ``where``."""
    try:
        try:
            return json.loads(text)
        except ValueError as exc:
            if isinstance(exc, json.JSONDecodeError):
                raise
            # an integer literal past the int-str digit limit
            return json.loads(text, parse_int=_long_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the parser goes
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc


def _scalar(node):
    """A strict complex [re, im] pair."""
    if not isinstance(node, list) or len(node) != 2:
        raise _Refused("expected a [re, im] pair")
    return complex(_part(node[0], "/0"), _part(node[1], "/1"))


def _parse_scalar(node, path):
    """``_scalar``, failing at pointer ``path``."""
    try:
        return _scalar(node)
    except _Refused as bad:
        _fail(path + bad.where, bad)


def _exact_row(pairs):
    """The integer row (den, re, im) of the exact [re, im] pairs ``pairs``
    (``pnspace``), read in one loop: int parts as they are, every other
    part by ``_ratio``, each numerator brought over the lcm of the
    denominators read so far.  Trailing zero pairs are trimmed and ``im``
    is None when every imaginary part is zero; None when nothing is left.
    A bad pair raises _Refused, its position left to ``_locate``."""
    den, re, im = 1, [], []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise _Refused("expected a [re, im] pair")
        a, b = pair
        if type(a) is not int:
            a, q = _ratio(a, "/0")
            if den % q:
                grow = q // math.gcd(den, q)
                re, im = [v * grow for v in re], [v * grow for v in im]
                den *= grow
            a *= den // q
        elif den != 1:
            a *= den
        if type(b) is not int:
            b, q = _ratio(b, "/1")
            if den % q:
                grow = q // math.gcd(den, q)
                re, im = [v * grow for v in re], [v * grow for v in im]
                a, den = a * grow, den * grow
            b *= den // q
        elif den != 1:
            b *= den
        re.append(a)
        im.append(b)
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    if not n:
        return None
    return den, tuple(re[:n]), tuple(im[:n]) if any(im) else None


def _locate(node, path, exact):
    """Fail at the first refused pair, row-major, of the rows of pairs
    ``node`` below ``path``, if there is one: ``_grid`` reads with no
    positions and leaves the position of what it refuses to this scan."""
    for k, row in enumerate(node):
        for i, pair in enumerate(row):
            try:
                _exact_row((pair,)) if exact else _scalar(pair)
            except _Refused as bad:
                _fail(f"{path}/{k}/{i}{bad.where}", bad)


def _grid(node, path, d, message, exact, by_column=False):
    """``node``, rows of d pairs each below ``path``, read in one pass by
    its ring's reader: in exact mode into one integer row (``_exact_row``)
    of all its pairs row-major, or with ``by_column`` one per column; in
    float mode into its (rows, d) complex128 array, row-major, so that a
    float int past the float range (OverflowError) is the first one a
    row-major read meets.  A row of another shape fails with ``message``
    at its pointer, a bad pair before it first; a bad pair fails at its
    own pointer, as a row-major read would."""
    for k, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            _locate(node[:k], path, exact)
            _fail(f"{path}/{k}", message)
    try:
        if not exact:
            return np.array([_scalar(pair) for row in node for pair in row],
                            complex).reshape(len(node), d)
        if by_column:
            return [_exact_row(column) for column in zip(*node)]
        return _exact_row([pair for row in node for pair in row])
    except _Refused:
        _locate(node, path, exact)
        raise


def _exact_root(node, path):
    """An exact pole as its integer root (den, a, b), the pole
    (a + ib) / den in lowest terms (``model.FuchsianSystem._of_forms``)."""
    try:
        den, (a,), im = _exact_row((node,)) or (1, (0,), None)
    except _Refused as bad:
        _fail(path + bad.where, bad)
    return den, a, im[0] if im else 0


def _parse_matrix(node, path, d, exact):
    """A d x d matrix of pairs (``_grid``): its (d, d) complex128 array, or
    in exact mode its integer entries (den, [(row, col, re, im), ...])
    (``CMatrix.entries``), read row-major as one integer row."""
    if not isinstance(node, list) or len(node) != d:
        _fail(path, f"expected {d} rows")
    grid = _grid(node, path, d, f"expected {d} entries", exact)
    if not exact:
        return grid
    den, re, im = grid or (1, (), None)
    return den, [(k // d, k % d, a, b) for k, (a, b) in
                 enumerate(zip(re, im or (0,) * len(re))) if a or b]


def _parse_term(node, path, d, exact):
    """A coefficient payload, indexed x-power (ascending), then component,
    as the SeriesTable rows of its d components (``_grid``): d integer
    rows, read a component's column at a time, or a (d, width) complex128
    array, trailing zero coefficient vectors dropped; None when it is
    zero."""
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty list of per-x-power coefficient rows")
    rows = _grid(node, path, d, f"expected {d} component entries", exact,
                 by_column=True)
    if exact:
        return tuple(rows) if any(rows) else None
    live = np.flatnonzero(rows.any(axis=1))
    return rows[:live[-1] + 1].T if live.size else None


def _monomial(node, path, d, seen, low):
    """The multi-index ``node`` as a tuple: d nonnegative integers of total
    degree >= 2 (else ``low``, by default naming the term's order) that
    ``seen`` does not hold yet; any failure is at pointer ``path``."""
    if (not isinstance(node, list) or len(node) != d
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                   for v in node)):
        _fail(path, f"expected {d} nonnegative integers")
    m = tuple(node)
    if sum(m) < 2:
        _fail(path, low or f"term {list(m)} has order below 2")
    if m in seen:
        _fail(path, f"duplicate multiindex {list(m)}")
    return m


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


def _parse_options(node, path, poles, exact):
    """The options, each checked; paths are checked against the poles as
    complex numbers, exact roots (den, a, b) read as a / den + i b / den
    only then."""
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
        if exact:
            poles = [complex(a / den, b / den) for den, a, b in poles]
        paths = {}
        for key, waypoints in v.items():
            try:
                idx = int(key)
            except ValueError:
                _fail(f"{path}/paths/{key}", "key must be a pole index")
            if not isinstance(waypoints, list) or not waypoints:
                _fail(f"{path}/paths/{key}", "expected a list of waypoints")
            pts = [_parse_scalar(wp, f"{path}/paths/{key}/{k}")
                   for k, wp in enumerate(waypoints)]
            problem = (f"a second path to pole {idx}" if idx in paths
                       else path_defect(poles, idx, pts))
            if problem is not None:
                _fail(f"{path}/paths/{key}", problem)
            paths[idx] = tuple(pts)
        out["paths"] = paths
    return out


class SystemDocument:
    """Validated description of a (non)linear Fuchsian problem.

    The linear part is kept as the reader made it: in exact mode each pole
    as its integer root (den, a, b), the pole (a + ib) / den, and each
    matrix as its integer entries (den, [(row, col, re, im), ...]), which
    is what ``to_system`` hands the system (``FuchsianSystem._of_forms``);
    in float mode complex poles and (d, d) complex128 arrays.
    ``to_system`` builds the system once; ``poles`` and ``matrices`` are
    the system's, made on request.  ``f`` is the SeriesTable of the
    nonzero nonlinearity terms, read straight into store rows, which
    ``to_nonlinear`` hands on as it is; ``monomials`` lists every
    multi-index the document gives, in its order, zero terms included.
    The ``nonlinearity`` property builds their {m: VecPoly} mapping on
    each read.
    """

    __slots__ = ("dimension", "s", "_linear", "_system", "f", "monomials",
                 "options", "exact")

    def __init__(self, dimension, s, poles, matrices, f, monomials, options,
                 exact):
        self.dimension = dimension
        self.s = s
        self._linear = (tuple(poles), tuple(matrices))
        self._system = None
        self.f = f
        self.monomials = tuple(monomials)
        self.options = dict(options)
        self.exact = exact

    @property
    def poles(self):
        return self.to_system().poles

    @property
    def matrices(self):
        return self.to_system().residues

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
        read = _exact_root if exact else _parse_scalar
        poles = [read(p, f"/poles/{j}") for j, p in enumerate(poles_node)]
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
                for key in ("multiindex", "coeff"):
                    if key not in item:
                        _fail(f"{ipath}/{key}", "missing required field")
                m = _monomial(item["multiindex"], f"{ipath}/multiindex", d,
                              seen, "total degree must be >= 2")
                seen[m] = None
                rows = _parse_term(item["coeff"], f"{ipath}/coeff", d, exact)
                if rows is not None:
                    f.rows[m] = rows

        options = {}
        if "options" in data:
            options = _parse_options(data["options"], "/options", poles,
                                     exact)

        return cls(d, s, poles, matrices, f, seen, options, exact)

    def to_system(self):
        if self._system is None:
            self._system = FuchsianSystem._of_forms(
                self.dimension, *self._linear, self.exact)
        return self._system

    def to_nonlinear(self):
        return NonlinearSystem._of_table(self.to_system(), self.f)


def read_file(path, where, toml=False):
    """The JSON value of the file ``path`` (its TOML value with ``toml``),
    read as bytes and decoded as UTF-8: the one reader of every input
    file.  Invalid UTF-8, JSON or TOML is a SchemaError at ``where``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{where}: invalid {'TOML' if toml else 'JSON'}: "
                          f"{exc}") from exc
    if not toml:
        return _loads(text, where)
    try:
        import tomllib as toml_reader
    except ImportError:  # Python < 3.11
        try:
            import tomli as toml_reader
        except ImportError:
            raise SchemaError(
                f"{where}: TOML input needs Python >= 3.11 or the tomli "
                f"package")
    try:
        return toml_reader.loads(text)
    except (toml_reader.TOMLDecodeError, RecursionError) as exc:
        raise SchemaError(f"{where}: invalid TOML: {exc}") from exc
    except ValueError as exc:
        # an integer literal past the int-str digit limit, which the TOML
        # reader converts with no way round it
        raise SchemaError(
            f"{where}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits; in TOML write such "
            f"integers as \"...\" strings") from exc


def load_document(path, exact=False):
    """Read a document from a JSON or TOML file (by extension)."""
    return SystemDocument.from_dict(
        read_file(path, "/", str(path).endswith(".toml")), exact)


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
    return rows_json(_term_rows(p, p.exact), p.exact)


def rows_json(rows, exact):
    """The payload of a vector polynomial given as its store rows
    (``parse_vector_rows``, ``correction.solve_polynomial``); top
    coefficients that are exactly zero are dropped, as a VecPoly drops
    them."""
    if exact:
        return _int_rows_json(rows)
    live = np.flatnonzero(rows.any(axis=0))
    return _array_rows_json(rows[:, :live[-1] + 1 if live.size else 0])


def matpoly_json(p):
    if p.is_zero():
        return [matrix_json(p.coefficient(0))]
    return [matrix_json(p.coefficient(k)) for k in range(p.degree + 1)]


def _ratio_json(v, den):
    """v / den as an int or a reduced 'p/q' string, with one gcd."""
    g = math.gcd(v, den)
    if g == den:
        return v // g
    try:
        return f"{v // g}/{den // g}"
    except ValueError:          # past the int-str digit limit
        return f"{_long_str(v // g)}/{_long_str(den // g)}"


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
    return _term_poly(parse_vector_rows(node, d, exact, path), exact)


def parse_vector_rows(node, d, exact, path="/g"):
    """A rhs / coefficient payload as the store rows of its d components,
    as ``correction.solve_polynomial`` takes them: in exact mode d integer
    rows, None for a zero component, in float mode a (d, width)
    complex128 array, width 0 for the zero polynomial."""
    rows = _parse_term(node, path, d, exact)
    if rows is None:
        return (None,) * d if exact else np.zeros((d, 0), complex)
    return rows


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
        m = _monomial(item["m"], f"{ipath}/m", d, seen, None)
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
        try:
            out.append(str(value))
        except ValueError:      # past the int-str digit limit
            out.append(_long_str(value))
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


def dumps_exact(value):
    """``dumps_canonical`` of a value that holds no float and only string
    keys, such as an exact table or correction: the same bytes, written by
    json's C encoder.  A value holding an int past the int-str digit
    limit, which the encoder refuses, goes to ``dumps_canonical``."""
    try:
        return json.dumps(value, ensure_ascii=True, separators=(",", ":"),
                          sort_keys=True) + "\n"
    except ValueError:
        return dumps_canonical(value)
