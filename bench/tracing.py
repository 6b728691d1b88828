"""Spans and counters around the package's public functions.

``Tracer.install`` replaces each target where its callers look it up: a
function in every ``fuchslin`` module namespace that binds it (engine
code calls ``solve_polynomial`` through ``fuchslin.engine``, for example),
a method on its class, and ``solve_ivp`` in ``fuchslin.analytic`` only.
``uninstall`` puts every original object back and reports any binding that
is not restored.  Nothing inside ``src/`` is edited.

A span records (name, start, end, parent span, job id) in flat integer
arrays kept in memory; ``write_spans`` stores them at the end.  Counted
targets (``ExactComplex`` arithmetic, ``RodriguesFamily.op_apply``) only
increment a counter.  ``metrics`` derives the per-layer figures: busy time
(union of a name's intervals, nested calls of the same name counted once),
self time (duration minus direct child spans), and call counts.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" patches the class.
SPAN_TARGETS = (
    ("fuchslin.matrices", "solve_linear", "matrices.solve_linear"),
    ("fuchslin.matrices", "CMatrix.__matmul__", "matrices.matmul"),
    ("fuchslin.matrices", "CMatrix.matvec", "matrices.matvec"),
    ("fuchslin.poly", "MatPoly.mul_vec", "poly.mul_vec"),
    ("fuchslin.poly", "VecPoly.mul_sp", "poly.mul_sp"),
    ("fuchslin.poly", "MatPoly.mul_sp", "poly.mul_sp"),
    ("fuchslin.poly", "sp_mul", "poly.sp_mul"),
    ("fuchslin.model", "check_linear_assumption", "model.assumption"),
    ("fuchslin.model", "check_nonlinear_assumption", "model.assumption"),
    ("fuchslin.pnspace", "induced_system", "pnspace.induced_system"),
    ("fuchslin.pnspace", "vectorize", "pnspace.vectorize"),
    ("fuchslin.pnspace", "devectorize", "pnspace.vectorize"),
    ("fuchslin.rodrigues", "RodriguesFamily.expand", "rodrigues.expand"),
    ("fuchslin.rodrigues", "RodriguesFamily.leading_coeff",
     "rodrigues.leading_coeff"),
    ("fuchslin.rodrigues", "RodriguesFamily.member_times_vector",
     "rodrigues.member_times_vector"),
    ("fuchslin.correction", "solve_polynomial", "correction.solve_polynomial"),
    ("fuchslin.correction", "local_taylor", "correction.local_taylor"),
    ("fuchslin.correction", "shift_up", "correction.shift_up"),
    ("fuchslin.correction", "pull_back_correction", "correction.pull_back"),
    ("fuchslin.engine", "compose_series", "engine.compose"),
    ("fuchslin.engine", "verify_conjugacy", "engine.verify"),
    ("fuchslin.engine", "linearize", "engine.run"),
    ("fuchslin.engine", "normal_form", "engine.run"),
    ("fuchslin.analytic", "solve_analytic", "analytic.solve"),
    ("fuchslin.analytic", "AnalyticSolutionHandle.eval", "analytic.eval"),
    ("fuchslin.analytic", "AnalyticSolutionHandle.taylor_at_pole",
     "analytic.taylor_at_pole"),
    ("fuchslin.document", "load_document", "document.load"),
    ("fuchslin.document", "parse_series_table", "document.parse_tables"),
    ("fuchslin.document", "dumps_canonical", "document.dumps"),
    ("fuchslin.cli", "main", "cli.main"),
)

# scipy's integrator is wrapped only where fuchslin.analytic looks it up.
LOCAL_SPAN_TARGETS = (
    ("fuchslin.analytic", "solve_ivp", "analytic.solve_ivp"),
)

COUNT_TARGETS = (
    ("fuchslin.exact", "ExactComplex.__add__", "exact.add"),
    ("fuchslin.exact", "ExactComplex.__radd__", "exact.add"),
    ("fuchslin.exact", "ExactComplex.__sub__", "exact.add"),
    ("fuchslin.exact", "ExactComplex.__rsub__", "exact.add"),
    ("fuchslin.exact", "ExactComplex.__mul__", "exact.mul"),
    ("fuchslin.exact", "ExactComplex.__rmul__", "exact.mul"),
    ("fuchslin.exact", "ExactComplex.__truediv__", "exact.div"),
    ("fuchslin.exact", "ExactComplex.__rtruediv__", "exact.div"),
    ("fuchslin.rodrigues", "RodriguesFamily.op_apply", "rodrigues.op_apply"),
)

# Per-layer metrics: name -> (unit, better).  Order is the report order.
PER_LAYER = {
    "exact.mul_calls": ("count", "lower"),
    "exact.add_calls": ("count", "lower"),
    "exact.div_calls": ("count", "lower"),
    "matrices.solve_linear_calls": ("count", "lower"),
    "matrices.solve_linear_s": ("s", "lower"),
    "matrices.matmul_calls": ("count", "lower"),
    "matrices.matmul_s": ("s", "lower"),
    "matrices.matvec_calls": ("count", "lower"),
    "matrices.matvec_s": ("s", "lower"),
    "poly.mul_vec_s": ("s", "lower"),
    "poly.mul_sp_s": ("s", "lower"),
    "poly.sp_mul_calls": ("count", "lower"),
    "poly.sp_mul_s": ("s", "lower"),
    "model.assumption_s": ("s", "lower"),
    "pnspace.induced_system_s": ("s", "lower"),
    "pnspace.vectorize_s": ("s", "lower"),
    "pnspace.block_n_max": ("count", "lower"),
    "pnspace.block_n_sum": ("count", "lower"),
    "rodrigues.expand_self_s": ("s", "lower"),
    "rodrigues.leading_coeff_s": ("s", "lower"),
    "rodrigues.member_times_vector_calls": ("count", "lower"),
    "rodrigues.member_times_vector_s": ("s", "lower"),
    "rodrigues.op_apply_calls": ("count", "lower"),
    "correction.solve_polynomial_calls": ("count", "lower"),
    "correction.solve_polynomial_s": ("s", "lower"),
    "correction.solve_polynomial_self_s": ("s", "lower"),
    "correction.local_taylor_s": ("s", "lower"),
    "correction.shift_up_calls": ("count", "lower"),
    "correction.pull_back_s": ("s", "lower"),
    "engine.compose_calls": ("count", "lower"),
    "engine.compose_s": ("s", "lower"),
    "engine.compose_in_verify_s": ("s", "lower"),
    "engine.verify_self_s": ("s", "lower"),
    "engine.run_self_s": ("s", "lower"),
    "analytic.solve_ivp_calls": ("count", "lower"),
    "analytic.ode_rhs_evals": ("count", "lower"),
    "analytic.ode_s": ("s", "lower"),
    "analytic.taylor_at_pole_s": ("s", "lower"),
    "analytic.solve_self_s": ("s", "lower"),
    "analytic.eval_self_s": ("s", "lower"),
    "analytic.cert_margin_min": ("ratio", "higher"),
    "document.load_s": ("s", "lower"),
    "document.parse_tables_s": ("s", "lower"),
    "document.dumps_s": ("s", "lower"),
    "document.report_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
}

_NS = 1e-9


def _cert_margin(result):
    """Smallest share of the certificate allowance left unused, per check."""
    cert = result.y.certificate
    margins = [1.0 - c.difference / (10 * cert.tol * max(1.0, c.scale))
               for c in cert.checks]
    return min(margins, default=1.0)


class Tracer:
    """Wrappers, span arrays and counters for one traced worker."""

    def __init__(self):
        self.names = []                 # span name table
        self._name_ids = {}
        self.name = array.array("i")    # per span: name id
        self.start = array.array("q")   # per span: perf_counter_ns at entry
        self.end = array.array("q")     # per span: perf_counter_ns at exit
        self.parent = array.array("q")  # per span: parent span index or -1
        self.job = array.array("i")     # per span: job index or -1
        self.counts = {}                # counter name -> [count]
        self.values = {"pnspace.block_n": [], "analytic.ode_rhs_evals": [],
                       "analytic.cert_margin": [], "document.report_bytes": []}
        self.current_job = -1
        self._stack = []
        self._patched = []              # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a job or a stage)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, original, name, on_return=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, original, name):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- installation ---------------------------------------------------

    def _hooks(self):
        values = self.values
        return {
            "pnspace.induced_system":
                lambda r: values["pnspace.block_n"].append(r[0].size),
            "analytic.solve_ivp":
                lambda r: values["analytic.ode_rhs_evals"].append(r.nfev),
            "analytic.solve":
                lambda r: values["analytic.cert_margin"].append(
                    _cert_margin(r)),
            "document.dumps":
                lambda r: values["document.report_bytes"].append(len(r)),
        }

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self):
        hooks = self._hooks()
        targets = SPAN_TARGETS + COUNT_TARGETS
        for module_name, _, _ in targets:
            importlib.import_module(module_name)
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "fuchslin" or n.startswith("fuchslin.")]
        for module_name, attribute, name in targets:
            module = sys.modules[module_name]
            counted = (module_name, attribute, name) in COUNT_TARGETS
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                wrapper = (self._count_wrapper(original, name) if counted
                           else self._span_wrapper(original, name,
                                                   hooks.get(name)))
                self._patch(owner, method, wrapper)
                continue
            original = getattr(module, attribute)
            wrapper = self._span_wrapper(original, name, hooks.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module_name, attribute, name in LOCAL_SPAN_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, self._span_wrapper(
                getattr(module, attribute), name, hooks.get(name)))

    def uninstall(self):
        """Restore every binding; return those that did not come back."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attribute}"
                for owner, attribute, original in self._patched
                if owner.__dict__.get(attribute) is not original]
        self._patched = []
        return left

    # -- output ---------------------------------------------------------

    def write_spans(self, path):
        """Binary span dump: a JSON header line, then the five arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i", "start:q", "end:q", "parent:q",
                             "job:i"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent,
                        self.job):
                arr.tofile(fh)

    def summary(self):
        """Per span name: calls, busy ns, self ns; plus per-parent sums."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        stats = {name: {"calls": 0, "busy": 0, "self": 0, "in_verify": 0}
                 for name in self.names}
        verify_id = self._name_ids.get("engine.verify", -2)
        for k in range(n):
            name_id = self.name[k]
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["self"] += dur[k] - child[k]
            p = self.parent[k]
            if p >= 0 and self.name[p] == verify_id:
                entry["in_verify"] += dur[k]
            # busy time: count a span only when no ancestor has its name
            q = p
            while q >= 0 and self.name[q] != name_id:
                q = self.parent[q]
            if q < 0:
                entry["busy"] += dur[k]
        return stats

    def metrics(self):
        stats = self.summary()
        empty = {"calls": 0, "busy": 0, "self": 0, "in_verify": 0}

        def get(name, key):
            return stats.get(name, empty)[key]

        def secs(name, key="busy"):
            return get(name, key) * _NS

        def count(name):
            return self.counts.get(name, [0])[0]

        blocks = self.values["pnspace.block_n"]
        margins = self.values["analytic.cert_margin"]
        return {
            "exact.mul_calls": count("exact.mul"),
            "exact.add_calls": count("exact.add"),
            "exact.div_calls": count("exact.div"),
            "matrices.solve_linear_calls":
                get("matrices.solve_linear", "calls"),
            "matrices.solve_linear_s": secs("matrices.solve_linear"),
            "matrices.matmul_calls": get("matrices.matmul", "calls"),
            "matrices.matmul_s": secs("matrices.matmul"),
            "matrices.matvec_calls": get("matrices.matvec", "calls"),
            "matrices.matvec_s": secs("matrices.matvec"),
            "poly.mul_vec_s": secs("poly.mul_vec"),
            "poly.mul_sp_s": secs("poly.mul_sp"),
            "poly.sp_mul_calls": get("poly.sp_mul", "calls"),
            "poly.sp_mul_s": secs("poly.sp_mul"),
            "model.assumption_s": secs("model.assumption"),
            "pnspace.induced_system_s": secs("pnspace.induced_system"),
            "pnspace.vectorize_s": secs("pnspace.vectorize"),
            "pnspace.block_n_max": max(blocks, default=0),
            "pnspace.block_n_sum": sum(blocks),
            "rodrigues.expand_self_s": secs("rodrigues.expand", "self"),
            "rodrigues.leading_coeff_s": secs("rodrigues.leading_coeff"),
            "rodrigues.member_times_vector_calls":
                get("rodrigues.member_times_vector", "calls"),
            "rodrigues.member_times_vector_s":
                secs("rodrigues.member_times_vector"),
            "rodrigues.op_apply_calls": count("rodrigues.op_apply"),
            "correction.solve_polynomial_calls":
                get("correction.solve_polynomial", "calls"),
            "correction.solve_polynomial_s":
                secs("correction.solve_polynomial"),
            "correction.solve_polynomial_self_s":
                secs("correction.solve_polynomial", "self"),
            "correction.local_taylor_s": secs("correction.local_taylor"),
            "correction.shift_up_calls": get("correction.shift_up", "calls"),
            "correction.pull_back_s": secs("correction.pull_back"),
            "engine.compose_calls": get("engine.compose", "calls"),
            "engine.compose_s": secs("engine.compose"),
            "engine.compose_in_verify_s": secs("engine.compose", "in_verify"),
            "engine.verify_self_s": secs("engine.verify", "self"),
            "engine.run_self_s": secs("engine.run", "self"),
            "analytic.solve_ivp_calls": get("analytic.solve_ivp", "calls"),
            "analytic.ode_rhs_evals":
                sum(self.values["analytic.ode_rhs_evals"]),
            "analytic.ode_s": secs("analytic.solve_ivp"),
            "analytic.taylor_at_pole_s": secs("analytic.taylor_at_pole"),
            "analytic.solve_self_s": secs("analytic.solve", "self"),
            "analytic.eval_self_s": secs("analytic.eval", "self"),
            "analytic.cert_margin_min": min(margins, default=0.0),
            "document.load_s": secs("document.load"),
            "document.parse_tables_s": secs("document.parse_tables"),
            "document.dumps_s": secs("document.dumps"),
            "document.report_bytes": sum(self.values["document.report_bytes"]),
            "cli.self_s": secs("cli.main", "self"),
        }
