"""The three workloads: inputs, one operation, and its checks.

Each workload builds rounds of operations from the seed.  A round is the
same list of operations in every run (only the generated inputs differ
with the seed), so a run is a whole number of rounds.  An operation calls
the program only through public names of rif, polynomials (UniPoly),
clark, catalog and cli (verification and agler are reached through cli),
looked up on the module at call time so that the traced run sees the
wrapped functions.  Its output is checked against oracle.py after its
time is taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gen
import oracle as O
from spans import SUITES

# Relative tolerance of the identities (total mass, Poisson integral) and
# of the paper's closed forms.  Observed deviations stay below 1e-10; the
# negative control plants a mass error of 1e-6.
REL_TOL = 1e-8
# Relative tolerance of the contact data of a generated RIF (point,
# singular value, second coordinate, line mass).  A contact is a double
# root of |p1|^2 - |p2|^2, fixed by the coefficients only to about
# sqrt(eps) = 1.5e-8 relative; observed deviations stay below 1e-9.
POINT_TOL = 1e-6
# Curve zeros of a generic alpha keep this distance from the circle, the
# same floor the program's own verification sweep uses.
GENERIC_FLOOR = 0.02
# Support residual |ptilde - alpha p| relative to |ptilde| + |p|.
SUPPORT_TOL = 1e-9
SUPPORT_NODES = np.exp(2j * np.pi * (np.arange(256) + 0.5) / 256)
WEIGHT_NODES = np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


class OpFailed(Exception):
    """The program reported that it could not complete the operation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got: complex, want: complex, what: str, tol: float = REL_TOL) -> None:
    err = abs(got - want)
    expect(err <= tol * max(1.0, abs(want)), f"{what}: {got!r} against {want!r}")


@dataclass
class Op:
    """One operation: run() calls the program, check(out) checks it."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Context:
    """What every workload needs: the loaded program and the run options."""

    modules: dict
    seed: int
    # relative error planted in every expected total mass; 0 except in the
    # negative control
    mass_fault: float = 0.0

    def expected_mass(self, phi0: complex, alpha: complex) -> float:
        return O.closed_form_mass(phi0, alpha) * (1.0 + self.mass_fault)


def _unit(a: complex) -> complex:
    return a / abs(a)


def _build_catalog(m: dict) -> dict:
    return {name: entry.build() for name, entry in m["catalog"].entries().items()}


def check_catalog(ctx: Context) -> None:
    """The program's catalog polynomials are the paper's."""
    for name, spec in O.CATALOG.items():
        poly = ctx.modules["catalog"].get(name).poly
        f = spec["facts"]
        expect(poly.n == f.n, f"{name}: n")
        expect(np.array_equal(poly.p1.coeffs, np.asarray(f.p1, dtype=complex)), f"{name}: p1")
        expect(np.array_equal(poly.p2.coeffs, np.asarray(f.p2, dtype=complex)), f"{name}: p2")


def check_measure(ctx: Context, cm, facts: O.Facts, alpha: complex, total: float,
                  closed: dict | None = None) -> None:
    """Checks shared by every Clark measure: kind, degree, lines, support,
    mass identity, and, for a catalog entry at an exceptional alpha, the
    paper's closed forms."""
    matched = [k for k, a in enumerate(facts.alphas) if abs(_unit(a) - alpha) <= 1e-9]
    kind = cm.alpha_class.kind.value
    expect(kind == ("exceptional" if matched else "generic"), f"kind {kind}")
    expect(len(cm.lines) == len(matched), f"{len(cm.lines)} lines, {len(matched)} expected")
    for k in matched:
        tau, mass = facts.taus[k], facts.masses[k]
        hits = [c for t, c in cm.lines if abs(t - tau) <= POINT_TOL]
        expect(len(hits) == 1, f"no line at {tau!r}")
        close(hits[0], mass, "line mass", POINT_TOL)
    expect(cm.balpha.degree == facts.n - len(matched), f"Blaschke degree {cm.balpha.degree}")
    z2 = cm.curve_z2(SUPPORT_NODES)
    resid = O.support_residual(facts.n, facts.p1, facts.p2, alpha, SUPPORT_NODES, z2)
    expect(resid <= SUPPORT_TOL, f"support residual {resid:.3e}")
    phi0 = O.phi_at_origin(facts.n, facts.p1, facts.p2)
    close(total, ctx.expected_mass(phi0, alpha), "total mass")
    if closed is not None:
        close(total, closed["mass"] * (1.0 + ctx.mass_fault), "paper total mass")
        want = sorted(closed["zeros"], key=lambda w: (round(w.real, 6), w.imag))
        got = sorted(cm.balpha.zeros, key=lambda w: (round(w.real, 6), w.imag))
        expect(len(got) == len(want), "number of curve zeros")
        for g, w in zip(got, want):
            close(g, w, "curve zero")
        for (t, c), (tw, cw) in zip(sorted(cm.lines, key=lambda x: x[0].real),
                                    sorted(closed["lines"], key=lambda x: x[0].real)):
            close(t, tw, "line point")
            close(c, cw, "paper line mass")
        if closed["weight"] is not None:
            got_w = cm.weight_eval(WEIGHT_NODES)
            want_w = closed["weight"](WEIGHT_NODES)
            err = float(np.max(np.abs(got_w - want_w)))
            expect(err <= REL_TOL * float(np.max(np.abs(want_w))), f"weight off by {err:.3e}")


# ---------------------------------------------------------------- ladder

# The top rung is the highest degree at which every operation of the family
# certified (500 of 500 draws at n = 48; at n = 64 one draw in 150 fails,
# see faults.py roots).  The median operation falls in the middle of the
# n = 24 rung and p95 well inside the n = 48 rung, whose share is 1/7.
RUNGS = (8, 12, 16, 24, 32, 40, 48)


class DegreeLadder:
    """Generated stable (n,1) RIFs at rising n, one per rung per round.

    One operation: validate, clark_measure at one generic alpha and at
    each exceptional alpha, and the adaptive total mass of each measure.
    """

    name = "degree-ladder"
    tail_pct = 95
    ops_per_round = len(RUNGS)

    def prepare(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        facts = gen.generate(rng, RUNGS[0])
        return facts, gen.generic_alphas(rng, facts, 1, GENERIC_FLOOR)[0]

    def setup(self, ctx: Context, warm) -> None:
        _build_catalog(ctx.modules)
        self._run(ctx, *warm)

    def _run(self, ctx: Context, facts: O.Facts, generic: complex):
        m = ctx.modules
        rif_mod, clark, poly = m["rif"], m["clark"], m["polynomials"]
        p = rif_mod.BiPolyN1(poly.UniPoly(facts.p1), poly.UniPoly(facts.p2), facts.n)
        rif = rif_mod.validate(p)
        alphas = [generic] + [_unit(a) for a in facts.alphas]
        cms = [clark.clark_measure(rif, a) for a in alphas]
        return rif, alphas, cms, [cm.total_mass(None) for cm in cms]

    def _check(self, ctx: Context, facts: O.Facts, out) -> None:
        rif, alphas, cms, totals = out
        sings = rif.singularities
        expect(len(sings) == len(facts.taus), f"{len(sings)} singularities")
        for tau, alpha, mass in zip(facts.taus, facts.alphas, facts.masses):
            s = min(sings, key=lambda x: abs(x.tau - tau))
            close(s.tau, tau, "contact point", POINT_TOL)
            expect(s.mult == 2, f"contact order {s.mult}")
            close(s.alpha, _unit(alpha), "singular value", POINT_TOL)
            close(1.0 / abs(s.deriv), mass, "line mass from the derivative", POINT_TOL)
            close(s.lam, _unit(O.second_coordinate(facts, tau)), "second coordinate", POINT_TOL)
        close(rif.phi_at_origin, O.phi_at_origin(facts.n, facts.p1, facts.p2), "phi(0)")
        for cm, alpha, total in zip(cms, alphas, totals):
            check_measure(ctx, cm, facts, alpha, total)

    def round(self, ctx: Context, r: int) -> list[Op]:
        ops = []
        for n in RUNGS:
            rng = np.random.default_rng([ctx.seed, 1, r, n])
            facts = gen.generate(rng, n)
            generic = gen.generic_alphas(rng, facts, 1, GENERIC_FLOOR)[0]
            ops.append(Op(
                f"n={n}",
                lambda f=facts, a=generic: self._run(ctx, f, a),
                lambda out, f=facts: self._check(ctx, f, out),
            ))
        return ops


# ---------------------------------------------------------- alpha sweep

SWEEP_DEGREES = (16, 24, 32)
SWEEP_RIFS_PER_DEGREE = 3
# Generic alphas per round and RIF.  With these counts a round has 21
# catalog operations and 12 per degree, so the median operation falls
# inside the n = 16 group and p99 inside the n = 32 group.
CATALOG_GENERIC = 4
GENERATED_GENERIC = 2
POISSON_POINTS = 3


class AlphaSweep:
    """Many alphas on a few RIFs validated once in set-up: the catalog and
    three generated RIFs at each of n = 16, 24, 32.

    One operation: clark_measure, classify_alpha and classify_unitary, the
    adaptive total mass, and the Poisson identity at a few interior points.
    """

    name = "alpha-sweep"
    tail_pct = 99

    def __init__(self):
        catalog = sum(len(set(s["facts"].alphas)) + CATALOG_GENERIC for s in O.CATALOG.values())
        generated = len(SWEEP_DEGREES) * SWEEP_RIFS_PER_DEGREE * (gen.CONTACTS + GENERATED_GENERIC)
        self.ops_per_round = catalog + generated

    def prepare(self, seed: int):
        subjects = [(name, O.CATALOG[name]["facts"]) for name in O.CATALOG]
        for n in SWEEP_DEGREES:
            rng = np.random.default_rng([seed, 2, n])
            for _ in range(SWEEP_RIFS_PER_DEGREE):
                subjects.append((f"n={n}", gen.generate(rng, n)))
        return subjects

    def setup(self, ctx: Context, subjects) -> None:
        m = ctx.modules
        catalog = _build_catalog(m)
        self.rifs = []
        for label, facts in subjects:
            if label in catalog:
                self.rifs.append(catalog[label])
            else:
                p = m["rif"].BiPolyN1(m["polynomials"].UniPoly(facts.p1),
                                      m["polynomials"].UniPoly(facts.p2), facts.n)
                self.rifs.append(m["rif"].validate(p))
        self.subjects = subjects
        facts = subjects[-1][1]
        self._run(ctx, self.rifs[-1], _unit(facts.alphas[0]), [(0.1 + 0.2j, -0.3j)])

    def _run(self, ctx: Context, rif, alpha: complex, points):
        clark = ctx.modules["clark"]
        cm = clark.clark_measure(rif, alpha)
        ac = clark.classify_alpha(rif, alpha)
        unitary = clark.classify_unitary(rif, alpha)
        total = cm.total_mass(None)
        poisson = [clark.integrate(cm, O.poisson_kernel(z), None).real for z in points]
        return cm, ac, unitary, total, poisson

    def _check(self, ctx: Context, label: str, facts: O.Facts, alpha, points, out) -> None:
        cm, ac, unitary, total, poisson = out
        exceptional = any(abs(_unit(a) - alpha) <= 1e-9 for a in facts.alphas)
        expect(ac.kind.value == ("exceptional" if exceptional else "generic"), "classify_alpha")
        expect(unitary.value == ("not_unitary" if exceptional else "unitary"), "classify_unitary")
        closed = None
        if label in O.CATALOG and exceptional:
            closed = O.CATALOG[label]["exceptional"][min(
                O.CATALOG[label]["exceptional"], key=lambda a: abs(a - alpha))]
        check_measure(ctx, cm, facts, alpha, total, closed)
        for z, got in zip(points, poisson):
            close(got, O.poisson_value(facts.n, facts.p1, facts.p2, alpha, z), "Poisson identity")

    def round(self, ctx: Context, r: int) -> list[Op]:
        rng = np.random.default_rng([ctx.seed, 3, r])
        radius = 0.5 * np.sqrt(rng.uniform(size=(POISSON_POINTS, 2)))
        angle = 2 * np.pi * rng.uniform(size=(POISSON_POINTS, 2))
        points = [tuple(complex(v) for v in row) for row in radius * np.exp(1j * angle)]
        ops = []
        for (label, facts), rif in zip(self.subjects, self.rifs):
            count = CATALOG_GENERIC if label in O.CATALOG else GENERATED_GENERIC
            alphas = [_unit(a) for a in dict.fromkeys(facts.alphas)]
            alphas += gen.generic_alphas(rng, facts, count, GENERIC_FLOOR)
            for a in alphas:
                ops.append(Op(
                    label,
                    lambda rif=rif, a=a: self._run(ctx, rif, a, points),
                    lambda out, lb=label, f=facts, a=a: self._check(ctx, lb, f, a, points, out),
                ))
        return ops


# ------------------------------------------------------- catalog verify

# One round, cheapest entry first.  fave, the slowest, runs twice so that
# the median operation falls in the middle of the deg31 group and p80 in
# the middle of the fave group, not on the border between two entries.
VERIFY_ENTRIES = ("amy-variant", "amy", "deg31", "fave", "fave")


class CatalogVerify:
    """`rifclark verify <entry> --seed s` in-process over the catalog, each
    with its own seed.

    The report's JSON is parsed from captured stdout and checked: every
    suite present and passed within its tolerance, and the counts it
    reports agree with the paper's data for the entry.
    """

    name = "catalog-verify"
    tail_pct = 80
    ops_per_round = len(VERIFY_ENTRIES)

    def prepare(self, seed: int):
        return int(np.random.default_rng([seed, 0]).integers(2 ** 31))

    def setup(self, ctx: Context, warm_seed: int) -> None:
        _build_catalog(ctx.modules)
        self._run(ctx, "amy-variant", warm_seed)

    def _run(self, ctx: Context, entry: str, vseed: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx.modules["cli"].main(["verify", entry, "--seed", str(vseed)])
        if code != 0:
            raise OpFailed(f"verify {entry} --seed {vseed} exited with {code}")
        return buf.getvalue()

    def _check(self, entry: str, vseed: int, text: str) -> None:
        report = json.loads(text)
        expect(report["input"] == entry and report["seed"] == vseed, "report header")
        suites = {s["name"]: s for s in report["suites"]}
        expect(tuple(suites) == SUITES, f"suites {sorted(suites)}")
        for s in suites.values():
            dev = s["max_deviation"]
            expect(math.isfinite(dev) and s["passed"] and dev <= s["tol"],
                   f"{entry}: suite {s['name']} deviation {dev} tol {s['tol']}")
        expect(report["all_passed"], f"{entry}: all_passed is false")
        facts = O.CATALOG[entry]["facts"]
        distinct = len({_unit(a) for a in facts.alphas})
        expect(suites["unitary"]["details"]["not_unitary_count"] == distinct,
               "number of exceptional values")
        expect(suites["lambda_match"]["details"]["singularities"] == len(facts.taus),
               "number of singularities")
        expect(suites["fejer_certificate"]["details"]["q_degree"] == O.spectral_degree(facts),
               "degree of Q")

    def round(self, ctx: Context, r: int) -> list[Op]:
        rng = np.random.default_rng([ctx.seed, 4, r])
        ops = []
        for entry in VERIFY_ENTRIES:
            vseed = int(rng.integers(2 ** 31))
            ops.append(Op(
                entry,
                lambda e=entry, s=vseed: self._run(ctx, e, s),
                lambda out, e=entry, s=vseed: self._check(e, s, out),
            ))
        return ops


WORKLOADS = {w.name: w for w in (DegreeLadder, CatalogVerify, AlphaSweep)}
