"""Command-line front end.

Subcommands read a system document (JSON, or TOML on .toml extension) and
emit canonical JSON reports on stdout or ``--out``:

    fuchslin check       doc.json            integer-shift assumptions
    fuchslin polys       doc.json --order 4  polynomial family + leading coeffs
    fuchslin correct     doc.json --g '[[[1,0]]]'
    fuchslin linearize   doc.json --order 6
    fuchslin normal-form doc.json --order 6
    fuchslin verify      doc.json --tables out.json

Exit codes: 0 success; 2 assumption/resonance failure (the check or a
solver precondition rejected the input); 3 schema error (message points
at the offending field); 4 numeric failure (quadrature/certificate, a
failed verification, or a report that would hold a non-finite number).
Every ``--order``, and the ``order`` of a tables file, is an integer >= 2
like ``options.order``; ``--tol`` and
``--resonance-tol`` are positive finite numbers like ``options.tol`` and
``options.resonance_tol``; the terms of a tables file have order >= 2;
each ``options.paths`` entry runs from pole 0 to the target pole its key
names (``analytic.path_defect``).

``linearize`` takes its mode from ``--mode``, else from the document's
``options.mode``, else obstruction; ``verify`` takes it from ``--mode``,
else the tables, else the document, else obstruction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analytic import QuadratureError, solve_analytic
from .correction import solve_polynomial
from .document import (
    SchemaError,
    dumps_canonical,
    _is_tolerance,
    is_order,
    load_document,
    matpoly_json,
    matrix_json,
    parse_series_table,
    parse_vector_polynomial,
    scalar_json,
    series_table_json,
    vecpoly_json,
)
from .engine import linearize, normal_form, verify_conjugacy
from .matrices import SingularMatrixError
from .model import (
    AssumptionError,
    check_linear_assumption,
    check_nonlinear_assumption,
)
from .rodrigues import RodriguesFamily

_EXIT_OK = 0
_EXIT_ASSUMPTION = 2
_EXIT_SCHEMA = 3
_EXIT_NUMERIC = 4


def _resolve(args, doc, key, default):
    """Option ``key``: the flag, else the document's options, else
    ``default``."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    return doc.options.get(key, default)


def _flag_order(args):
    """``--order``, or None; it must be an order, as ``options.order``."""
    if args.order is not None and not is_order(args.order):
        raise SchemaError(f"/options/order: --order {args.order}: expected "
                          f"an integer >= 2")
    return args.order


def _flag_tolerances(args):
    """``--tol`` and ``--resonance-tol`` must be tolerances, as options."""
    for key in ("tol", "resonance_tol"):
        value = getattr(args, key)
        if value is not None and not _is_tolerance(value):
            raise SchemaError(f"/options/{key}: --{key.replace('_', '-')} "
                              f"{value}: expected a positive finite number")


def _resolve_order(args, doc):
    order = _flag_order(args)
    if order is not None:
        return order
    if "order" in doc.options:
        return doc.options["order"]
    raise SchemaError("/options/order: truncation order is required; "
                      "pass --order or set options.order")


def _load(args):
    return load_document(args.document, exact=args.exact)


def _linear_report_json(report):
    return {
        "passed": report.passed,
        "k_checked": report.k_checked,
        "min_margin": report.min_margin,
        "violations": [
            {
                "residue": str(v.residue),
                "k": v.k,
                "eigenvalue": scalar_json(v.eigenvalue),
                "margin": v.margin,
            }
            for v in report.violations
        ],
    }


def _nonlinear_report_json(report):
    return {
        "passed": report.passed,
        "order_max": report.order_max,
        "min_margin": report.min_margin,
        "violations": [
            {
                "residue": str(v.residue),
                "monomial": list(v.monomial),
                "component": v.component,
                "k": v.k,
                "value": scalar_json(v.value),
                "margin": v.margin,
            }
            for v in report.violations
        ],
    }


def cmd_check(args):
    doc = _load(args)
    system = doc.to_nonlinear()
    order = _flag_order(args)
    tol = _resolve(args, doc, "resonance_tol", 1e-9)
    linear = check_linear_assumption(system.linear, tol=tol)
    payload = {"linear": _linear_report_json(linear), "nonlinear": None}
    failed = not linear.passed
    if doc.monomials:
        if order is None:
            order = doc.options.get("order", system.order_max())
        # terms that are all zero have no order of their own to check up to
        if order >= 2:
            nonlinear = check_nonlinear_assumption(system, order, tol)
            payload["nonlinear"] = _nonlinear_report_json(nonlinear)
            failed = failed or not nonlinear.passed
    payload["passed"] = not failed
    return payload, _EXIT_ASSUMPTION if failed else _EXIT_OK


def cmd_polys(args):
    doc = _load(args)
    system = doc.to_system()
    order = _resolve_order(args, doc)
    family = RodriguesFamily(system)
    polys = []
    leads = []
    for n in range(order + 1):
        polys.append(matpoly_json(family.member(n)))
        leads.append(matrix_json(family.leading_coeff(n)))
    return {"order": order, "P": polys, "C": leads}, _EXIT_OK


def _read_g(args, doc):
    raw = args.g
    if raw is None:
        raise SchemaError("/g: right-hand side is required; pass --g")
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = raw
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/g: invalid JSON: {exc}") from exc
    return parse_vector_polynomial(node, doc.dimension, doc.exact)


def cmd_correct(args):
    doc = _load(args)
    system = doc.to_system()
    g = _read_g(args, doc)
    if args.analytic:
        # The moment/continuation route runs in floating point even for an
        # exact document; only the algebraic route stays rational.
        tol = _resolve(args, doc, "tol", 1e-10)
        result = solve_analytic(
            system, g, tol=tol, paths=doc.options.get("paths"),
            resonance_tol=_resolve(args, doc, "resonance_tol", 1e-9),
        )
        cert = result.y.certificate
        payload = {
            "phi": vecpoly_json(result.phi),
            "certificate": {
                "passed": cert.passed,
                "max_difference": cert.max_difference,
                "phi_gap": cert.phi_gap,
                "checks": [
                    {
                        "pole_index": c.pole_index,
                        "point": scalar_json(c.point),
                        "difference": c.difference,
                        "scale": c.scale,
                        "passed": c.passed,
                    }
                    for c in cert.checks
                ],
            },
        }
        return payload, _EXIT_OK
    tol = _resolve(args, doc, "tol", 1e-12)
    result = solve_polynomial(system, g, tol)
    payload = {"phi": vecpoly_json(result.phi), "y": vecpoly_json(result.y)}
    return payload, _EXIT_OK


def _run_pipeline(args, mode):
    doc = _load(args)
    mode = mode or doc.options.get("mode") or "obstruction"
    nonlinear = doc.to_nonlinear()
    order = _resolve_order(args, doc)
    tol = _resolve(args, doc, "tol", 1e-12)
    rtol = _resolve(args, doc, "resonance_tol", 1e-9)
    runner = linearize if mode == "obstruction" else normal_form
    series, h = runner(nonlinear, order, tol, rtol)
    payload = {
        "mode": mode,
        "order": order,
        "series": series_table_json(series),
        "h": series_table_json(h),
    }
    return payload, _EXIT_OK


def cmd_linearize(args):
    return _run_pipeline(args, args.mode)


def cmd_normal_form(args):
    return _run_pipeline(args, "normal-form")


def cmd_verify(args):
    doc = _load(args)
    nonlinear = doc.to_nonlinear()
    with open(args.tables, "r", encoding="utf-8") as fh:
        try:
            node = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/tables: invalid JSON: {exc}") from exc
    if not isinstance(node, dict) or "series" not in node or "h" not in node:
        raise SchemaError("/tables: expected an object with series and h")
    mode = args.mode or node.get("mode") or doc.options.get("mode") \
        or "obstruction"
    if mode not in ("obstruction", "normal-form"):
        raise SchemaError(f"/tables/mode: unknown mode {mode!r}")
    d = doc.dimension
    series = parse_series_table(node["series"], d, doc.exact, "/series")
    h = parse_series_table(node["h"], d, doc.exact, "/h")
    if "order" in node and not is_order(node["order"]):
        raise SchemaError(f"/tables/order: expected an integer >= 2, got "
                          f"{node['order']!r}")
    order = _flag_order(args)
    if order is None:
        order = node.get("order")
    if order is None:
        order = max(series.max_order(), h.max_order(), 2)
    tol = _resolve(args, doc, "tol", 1e-9)
    report = verify_conjugacy(nonlinear, series, h, order, mode, tol)
    payload = {
        "mode": mode,
        "order": order,
        "residuals": {str(n): r for n, r in sorted(report.residuals.items())},
        "max_residual": report.max_residual,
        "passed": report.passed,
    }
    return payload, _EXIT_OK if report.passed else _EXIT_NUMERIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuchslin",
        description="Polynomial corrections, linearization and normal forms "
                    "for systems with Fuchsian linear part.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("document", help="system document (.json or .toml)")
    common.add_argument("--exact", action="store_true",
                        help="rational arithmetic; requires rational inputs")
    common.add_argument("--tol", type=float, default=None,
                        help="solver tolerance (default per command)")
    common.add_argument("--resonance-tol", type=float, default=None,
                        dest="resonance_tol",
                        help="float-mode assumption-check tolerance "
                             "(default 1e-9)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report to FILE instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="check the integer-shift assumptions")
    p.add_argument("--order", type=int, default=None,
                   help="nonlinear check order (default: document order)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("polys", parents=[common],
                       help="polynomial family members and leading "
                            "coefficients")
    p.add_argument("--order", type=int, default=None,
                   help="highest member index")
    p.set_defaults(func=cmd_polys)

    p = sub.add_parser("correct", parents=[common],
                       help="unique polynomial correction for a "
                            "right-hand side")
    p.add_argument("--g", default=None,
                   help="right-hand side as JSON (x-power rows of "
                        "[re,im] component pairs), or @file")
    p.add_argument("--analytic", action="store_true",
                   help="use the moment/continuation route and report its "
                        "certificate (floating point)")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("linearize", parents=[common],
                       help="order-by-order formal linearization")
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.add_argument("--mode", choices=("obstruction", "normal-form"),
                   default=None,
                   help="correction mode (default: the document's mode, "
                        "else obstruction)")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("normal-form", parents=[common],
                       help="order-by-order normal form")
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("verify", parents=[common],
                       help="check a conjugacy identity against saved tables")
    p.add_argument("--tables", required=True,
                   help="JSON output of linearize / normal-form")
    p.add_argument("--order", type=int, default=None,
                   help="verify through this order (default: table order)")
    p.add_argument("--mode", choices=("obstruction", "normal-form"),
                   default=None,
                   help="identity to check (default: mode stored in tables)")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _flag_tolerances(args)
        payload, code = args.func(args)
        text = dumps_canonical(payload)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return _EXIT_ASSUMPTION
    except (QuadratureError, SingularMatrixError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
