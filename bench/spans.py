"""Span recorder for the traced run.

Wraps public functions of the program from the benchmark's side: each
wrapper records a span (name, start, end, parent) in memory, and the
wrapper replaces the function in every rifclark module that binds it,
since rif, verification, agler and cli import with `from .x import y`.
Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of every function that gets a span.  The span
# of verification.run_suites is not reported: it only keeps the suites'
# time out of cli.main's self time.
SPANNED = (
    ("polynomials", "roots"),
    ("polynomials", "blaschke_from_rational"),
    ("polynomials", "cancel_common_unimodular"),
    ("polynomials", "fejer_riesz"),
    ("polynomials", "TrigPoly.circle_zeros"),
    ("rif", "validate"),
    ("rif", "is_saturated"),
    ("rif", "phi_eval"),
    ("clark", "clark_measure"),
    ("clark", "integrate"),
    ("clark", "classify_extreme"),
    ("quadrature", "poisson2"),
    ("agler", "gram_isometry_check"),
    ("agler", "orthonormality_check"),
    ("agler", "exceptional_R"),
    ("agler", "compute_Q"),
    ("catalog", "CatalogEntry.build"),
    ("cli", "main"),
    ("verification", "run_suites"),
)

SUITES = (
    "reflect", "fejer_certificate", "blaschke_modulus", "lambda_match",
    "support", "weight_positive", "mass_identity", "unitary", "extreme",
    "sos_fixture", "ortho_identity", "atoms_probe", "poisson", "gram",
    "box_mass", "levelset", "weakstar",
)

# Calls and self time are reported for these spans; counters taken inside
# the wrappers and the suite times come on top (per_layer_names).
CALLS_REPORTED = (
    "polynomials.roots", "polynomials.blaschke_from_rational",
    "polynomials.cancel_common_unimodular", "polynomials.fejer_riesz",
    "rif.validate", "rif.is_saturated", "rif.phi_eval",
    "clark.clark_measure", "clark.integrate", "clark.classify_extreme",
    "quadrature.poisson2",
)
SELF_REPORTED = CALLS_REPORTED + (
    "polynomials.TrigPoly.circle_zeros",
    "agler.gram_isometry_check", "agler.orthonormality_check",
    "agler.exceptional_R", "agler.compute_Q",
    "catalog.CatalogEntry.build", "cli.main",
)


def per_layer_names() -> dict:
    """Per-layer metric name -> (unit, better), as BENCHMARK.json lists them."""
    out = {}
    for name in CALLS_REPORTED:
        out[f"{name}.calls"] = ("count", "lower")
    for name in SELF_REPORTED:
        out[f"{name}.self_s"] = ("s", "lower")
    out["polynomials.roots.degree_sum"] = ("count", "lower")
    out["clark.integrate.nodes"] = ("count", "lower")
    out["clark.integrate.max_nodes"] = ("count", "lower")
    for suite in SUITES:
        out[f"verification.suite.{suite}_s"] = ("s", "lower")
    return out


def _degree(p) -> int:
    coeffs = getattr(p, "coeffs", p)
    return max(len(coeffs) - 1, 0)


class Recorder:
    """Keeps spans and counters of one traced run in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self.counters = {
            "polynomials.roots.degree_sum": 0,
            "clark.integrate.nodes": 0,
            "clark.integrate.max_nodes": 0,
        }
        self.suite_s = {suite: 0.0 for suite in SUITES}

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every SPANNED function of the loaded program.

        modules maps short names ("rif", "clark", ...) to module objects.
        """
        originals = {}
        for mod_name, qual in SPANNED:
            mod = modules[mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._span(f"{mod_name}.{qual}", fn))
            else:
                fn = getattr(mod, qual)
                originals[id(fn)] = self._span(f"{mod_name}.{qual}", fn)
        # rebind in every module that imported the function by name
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None and callable(val):
                    setattr(mod, attr, wrapped)
        self._install_counters(modules)

    def _install_counters(self, modules: dict) -> None:
        counters = self.counters
        roots_span = modules["polynomials"].roots

        def roots(p, *args, **kwargs):
            counters["polynomials.roots.degree_sum"] += _degree(p)
            return roots_span(p, *args, **kwargs)

        for mod in modules.values():
            if getattr(mod, "roots", None) is roots_span:
                setattr(mod, "roots", roots)

        cm_cls = modules["clark"].ClarkMeasure
        node_data = cm_cls.node_data

        def counted_node_data(cm, count):
            counters["clark.integrate.nodes"] += int(count)
            counters["clark.integrate.max_nodes"] = max(
                counters["clark.integrate.max_nodes"], int(count))
            return node_data(cm, count)

        setattr(cm_cls, "node_data", counted_node_data)

        suite_s = self.suite_s
        run_suites = modules["verification"].run_suites

        def timed_suites(*args, **kwargs):
            results = run_suites(*args, **kwargs)
            for res in results:
                suite_s[res.name] = suite_s.get(res.name, 0.0) + res.elapsed_s
            return results

        for mod in modules.values():
            if getattr(mod, "run_suites", None) is run_suites:
                setattr(mod, "run_suites", timed_suites)

    def metrics(self) -> dict:
        """Per-layer values keyed as in per_layer_names()."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _parent), covered in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start - covered)
        out = {}
        for name in CALLS_REPORTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_REPORTED:
            out[f"{name}.self_s"] = total.get(name, 0.0)
        out.update(self.counters)
        for suite in SUITES:
            out[f"verification.suite.{suite}_s"] = self.suite_s[suite]
        return out

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "per_layer": self.metrics(),
                       "spans": [list(s) for s in self.spans]}, fh)


def program_modules() -> dict:
    """The loaded rifclark modules by short name; the package is "rifclark"."""
    return {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if (name == "rifclark" or name.startswith("rifclark.")) and mod is not None
    }
