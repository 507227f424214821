"""Per-layer spans around gafields functions, installed from outside.

The tracer wraps named functions and methods of the gafields modules
(the layers) and re-binds every alias of each wrapped function: module
attributes bound by `from ... import`, and values of module-level dicts
such as the CLI's suite registry.  A name that no longer exists is
listed as missing and reports zero calls, so the benchmark keeps running
when a refactor moves or deletes a function.

A span records its call count, inclusive time and self time (its time
minus the time of the spans it encloses).  Spans marked top-level-only
(the recursive `expr.diff`, and evaluation) are recorded only when no
span of the same group is open, which keeps the overhead of deep
recursion out of the numbers.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# (metric name, module, attribute, top-level group or None)
SPANS = (
    ("blades.gen_mul", "gafields.blades", "gen_mul", None),
    ("blades.convert", "gafields.blades", "grassmann_to_chains", None),
    ("blades.convert", "gafields.blades", "clifford_to_grassmann_blade",
     None),
    ("blades.clifford_mul_dicts", "gafields.blades", "clifford_mul_dicts",
     None),
    ("blades.wedge_dicts", "gafields.blades", "wedge_dicts", None),
    ("multivector.mul", "gafields.multivector", "ProductTable.mul", None),
    ("multivector.left_matrix", "gafields.multivector",
     "ProductTable.left_matrix", None),
    ("multivector.basis_convert", "gafields.multivector", "basis_convert",
     None),
    ("multivector.hodge_star", "gafields.multivector", "hodge_star", None),
    ("multivector.exp_mv", "gafields.multivector", "exp_mv", None),
    ("spin.factor_isometry", "gafields.spin", "factor_isometry", None),
    ("spin.adjoint_action", "gafields.spin", "adjoint_action", None),
    ("spin.isometry_of", "gafields.spin", "isometry_of", None),
    ("metric.new_metric", "gafields.metric", "new_metric", None),
    ("expr.parse", "gafields.expr", "parse", None),
    ("expr.diff", "gafields.expr", "diff", "diff"),
    ("expr.evaluate", "gafields.expr", "evaluate", "eval"),
    ("expr.evaluate", "gafields.expr", "CExpr.evaluate", "eval"),
    ("manifold.clifford_mul_fields", "gafields.manifold",
     "clifford_mul_fields", None),
    ("manifold.upsilon_k", "gafields.manifold", "upsilon_k", None),
    ("manifold.eval_at", "gafields.manifold", "FormField.eval_at", "eval"),
    ("manifold.metric_at", "gafields.manifold", "Chart.metric_at", None),
    ("manifold.curvature", "gafields.manifold", "Chart.curvature", None),
    ("fields.system_residuals", "gafields.fields", "system_residuals", None),
    ("fields.main_form", "gafields.fields", "main_form", None),
    ("fields.conservation_defect", "gafields.fields", "conservation_defect",
     None),
    ("fields.lagrangian", "gafields.fields", "lagrangian_l0", None),
    ("fields.lagrangian", "gafields.fields", "lagrangian_l1", None),
    ("fields.gauge_transform", "gafields.fields", "gauge_transform", None),
    ("dirac.rep_map", "gafields.dirac", "rep_map", None),
    ("cli.suite.algebra", "gafields.cli", "suite_algebra", None),
    ("cli.suite.hodge", "gafields.cli", "suite_hodge", None),
    ("cli.suite.spin", "gafields.cli", "suite_spin", None),
    ("cli.suite.manifold", "gafields.cli", "suite_manifold", None),
    ("cli.suite.field", "gafields.cli", "suite_field", None),
    ("cli.suite.dirac", "gafields.cli", "suite_dirac", None),
    ("cli.emit", "gafields.cli", "_emit", None),
)

# (metric name, module, attribute): calls counted, not timed
COUNTERS = (
    ("multivector.table_builds", "gafields.multivector",
     "ProductTable.__init__"),
    ("multivector.table_lookups", "gafields.multivector",
     "build_product_table"),
)

# time under these spans is evaluation; other time under a span of a
# symbolic layer is form building
EVAL_SPANS = frozenset({"expr.evaluate", "manifold.eval_at"})
SYMBOLIC_LAYERS = frozenset({"expr", "manifold", "fields"})


class Tracer:
    """Span and counter totals of one process."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.incl_s: dict = {}
        self.counts: dict = {}
        self.missing: list = []
        self.build_s = 0.0
        self.eval_s = 0.0
        self.emit_bytes = 0
        self._stack: list = []   # open frames: [child_s, in_eval, in_sym]
        self._open: dict = {}    # top-level group -> open span count

    def install(self) -> None:
        for name, module, attr, group in SPANS:
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)
            self.incl_s.setdefault(name, 0.0)
            if group:
                self._open.setdefault(group, 0)
            self._patch(module, attr, lambda fn, n=name, g=group:
                        self._span(n, fn, g))
        for name, module, attr in COUNTERS:
            self.counts.setdefault(name, 0)
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def snapshot(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "incl_s": self.incl_s, "counts": self.counts,
                "build_s": self.build_s, "eval_s": self.eval_s,
                "emit_bytes": self.emit_bytes, "missing": self.missing}

    # -- wrapping ----------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(fn_name) if owner is not None else None
        if not callable(orig):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(orig)
        setattr(owner, fn_name, wrapper)
        if not owner_name:
            _rebind_aliases(orig, wrapper)

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, fn, group):
        is_eval = name in EVAL_SPANS
        is_sym = name.partition(".")[0] in SYMBOLIC_LAYERS
        is_emit = name == "cli.emit"
        stack, open_groups = self._stack, self._open
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if group is not None:
                if open_groups[group]:
                    return fn(*args, **kwargs)
                open_groups[group] += 1
            parent = stack[-1] if stack else None
            frame = [0.0, is_eval or (parent is not None and parent[1]),
                     is_sym or (parent is not None and parent[2])]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if group is not None:
                    open_groups[group] -= 1
                own = dur - frame[0]
                calls[name] += 1
                self_s[name] += own
                incl_s[name] += dur
                if parent is not None:
                    parent[0] += dur
                if frame[1]:
                    self.eval_s += own
                elif frame[2]:
                    self.build_s += own
                if is_emit:
                    self._count_emit(args, kwargs)
        return wrapper

    def _count_emit(self, args, kwargs) -> None:
        # _emit(payload, args, ...) writes to args.out when it is set
        cli_args = kwargs.get("args", args[1] if len(args) > 1 else None)
        out = getattr(cli_args, "out", None)
        if out and os.path.exists(out):
            self.emit_bytes += os.path.getsize(out)


def _rebind_aliases(orig, wrapper) -> None:
    """Point every gafields module attribute, and every value of a
    module-level dict, that is `orig` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gafields"
                               or mod_name.startswith("gafields.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper
