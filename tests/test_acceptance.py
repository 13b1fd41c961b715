"""Acceptance criteria: closed-form example values, sweep identities,
classification sets, decomposition certificates, and runtime budgets.

Each criterion prints one [PASS]/[FAIL] line with its measured worst
deviation before asserting.

Criterion 3 note: the stated total masses follow from the Poisson identity
at the origin with phi(0,0) = -1/4, which gives (1 - 1/16) / |alpha + 1/4|^2,
so 5/3 at alpha = -1 and 3/5 at alpha = +1; both are asserted at 1e-8.
"""

import math
import time

import numpy as np

from rifclark.agler import exceptional_R, orthonormality_check, sos_residual
from rifclark.catalog import entries, get
from rifclark.clark import Unitarity, clark_measure, classify_unitary
from rifclark.polynomials import TrigPoly
from rifclark.quadrature import circle_nodes, pointmass_probe
from rifclark.rif import reflect
from rifclark.verification import alpha_sweep, run_suites

ALL_NAMES = ("fave", "amy", "amy-variant", "deg31")


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_fave_exceptional_measure():
    t0 = time.perf_counter()
    cm = clark_measure(get("fave").build(), -1.0)
    z = circle_nodes(4096)
    weight_dev = float(np.max(np.abs(cm.weight_eval(z) - 0.5)))
    (tau, mass), = cm.lines
    line_dev = max(abs(tau - 1.0), abs(mass - 0.5))
    mass_dev = abs(cm.total_mass(4096) - 1.0)
    elapsed = time.perf_counter() - t0
    dev = max(weight_dev, line_dev, mass_dev)
    ok = (len(cm.balpha.zeros) == 0 and dev < 1e-10 and elapsed < 1.0)
    _report(1, ok, f"two components, dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_2_amy_exceptional_measure():
    t0 = time.perf_counter()
    rif = get("amy").build()
    cm = clark_measure(rif, -1.0)
    zero_dev = (abs(cm.balpha.zeros[0]) if len(cm.balpha.zeros) == 1
                else math.inf)
    z = circle_nodes(4096)
    weight_dev = float(np.max(np.abs(
        cm.weight_eval(z) - 0.25 * np.abs(1.0 - z) ** 2)))
    (_tau, mass), = cm.lines
    (sing,) = rif.singularities
    deriv_dev = abs(sing.deriv - (-2.0))
    mass_dev = abs(mass - 0.5)
    elapsed = time.perf_counter() - t0
    dev = max(zero_dev, weight_dev, mass_dev, deriv_dev)
    ok = dev < 1e-10 and elapsed < 1.0
    _report(2, ok, f"B(z) = z, weight quarter |1-z|^2, dev {dev:.2e}, "
                   f"{elapsed:.2f}s")


def test_criterion_3_deg31_masses_and_weights():
    rif = get("deg31").build()
    cm_m = clark_measure(rif, -1.0)
    cm_p = clark_measure(rif, 1.0)
    (_t1, c_m), = cm_m.lines
    (_t2, c_p), = cm_p.lines
    line_dev = max(abs(c_m - 1.0), abs(c_p - 0.5))
    w_m = float(cm_m.weight_eval(1.0 + 0.0j))
    w_p = float(cm_p.weight_eval(-1.0 + 0.0j))
    weight_dev = max(abs(w_m - 1.0), abs(w_p - 0.0))
    mass_dev = max(abs(cm_m.total_mass(None) - 5.0 / 3.0),
                   abs(cm_p.total_mass(None) - 0.6))
    ok = line_dev < 1e-10 and weight_dev < 1e-8 and mass_dev < 1e-8
    _report(3, ok, f"masses 1 and 1/2, W(-1;1)=1, W(1;-1)=0, totals 5/3 "
                   f"and 3/5, dev {max(line_dev, weight_dev, mass_dev):.2e}")


def test_criterion_4_poisson_identity_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ALL_NAMES:
        res = run_suites(get(name), ["poisson"], seed=20260817)[0]
        worst = max(worst, res.max_deviation)
        assert res.details["alphas"] == 16
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    _report(4, ok, f"50 points, 16 alphas per entry, worst {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_5_gram_isometry_sweep():
    worst = 0.0
    for name in ALL_NAMES:
        res = run_suites(get(name), ["gram"], seed=20260817)[0]
        worst = max(worst, res.max_deviation)
    ok = worst < 1e-7
    _report(5, ok, f"5 points, 16 alphas per entry, worst {worst:.2e}")


def test_criterion_6_unitarity_classification():
    cases = {"fave": {-1.0 + 0.0j}, "amy": {-1.0 + 0.0j},
             "deg31": {-1.0 + 0.0j, 1.0 + 0.0j}}
    mismatches = 0
    for name, bad in cases.items():
        rif = get(name).build()
        for a in np.exp(2j * np.pi * np.arange(64) / 64):
            a = complex(a)
            got = classify_unitary(rif, a)
            want = (Unitarity.NOT_UNITARY
                    if any(abs(a - b) < 1e-9 for b in bad)
                    else Unitarity.UNITARY)
            mismatches += got is not want
    _report(6, mismatches == 0,
            f"NotUnitary exactly at documented alphas, {mismatches} "
            "mismatches on 64-point grids")


def test_criterion_7_agler_fixtures():
    fixture_dev = 0.0
    for name in ("fave", "amy"):
        e = get(name)
        fixture_dev = max(fixture_dev, sos_residual(
            e.build(), e.sos_fixture.Q, list(e.sos_fixture.R)))
    q_dev = 0.0
    for name in ALL_NAMES:
        res = run_suites(get(name), ["fejer_certificate"], seed=0)[0]
        q_dev = max(q_dev, res.max_deviation)
    ortho_dev = 0.0
    for name in ALL_NAMES:
        rif = get(name).build()
        seen = []
        for s in rif.singularities:
            if any(abs(s.alpha - a) < 1e-9 for a in seen):
                continue
            seen.append(s.alpha)
            cm = clark_measure(rif, s.alpha)
            pieces = exceptional_R(cm)
            gram = orthonormality_check(cm, pieces)
            ortho_dev = max(ortho_dev, float(np.max(np.abs(
                gram - np.eye(len(pieces))))))
    ok = fixture_dev < 1e-10 and q_dev < 1e-8 and ortho_dev < 1e-7
    _report(7, ok, f"sos {fixture_dev:.2e}, Q certificates {q_dev:.2e}, "
                   f"orthonormality {ortho_dev:.2e}")


def test_criterion_8_atom_freeness_probe():
    worst = 0.0
    monotone = True
    for name in ALL_NAMES:
        rif = get(name).build()
        for s in rif.singularities:
            probe = pointmass_probe(rif, s.alpha, (s.tau, s.lam))
            if any(b >= a for a, b in zip(probe, probe[1:])):
                monotone = False
            worst = max(worst, probe[-1])
    ok = monotone and worst < 1e-3
    _report(8, ok, f"probes decreasing, worst value at r=0.9999 is "
                   f"{worst:.2e}")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    involution_ok = True
    modulus_dev = 0.0
    lambda_dev = 0.0
    fejer_dev = 0.0
    for name in ALL_NAMES:
        e = get(name)
        rif = e.build()
        twice = reflect(reflect(rif.p))
        involution_ok &= (
            np.array_equal(twice.p1.coeffs, rif.p.p1.coeffs)
            and np.array_equal(twice.p2.coeffs, rif.p.p2.coeffs))
        res = {r.name: r for r in run_suites(
            e, ["reflect", "lambda_match", "fejer_certificate"], seed=1)}
        modulus_dev = max(modulus_dev, res["reflect"].max_deviation)
        lambda_dev = max(lambda_dev, res["lambda_match"].max_deviation)
        fejer_dev = max(fejer_dev, res["fejer_certificate"].max_deviation)
    elapsed = time.perf_counter() - t0
    ok = (involution_ok and modulus_dev < 1e-10 and lambda_dev < 1e-8
          and fejer_dev < 1e-8 and elapsed < 60.0)
    _report(9, ok, f"involution exact, |p|=|ptilde| {modulus_dev:.2e}, "
                   f"lambda match {lambda_dev:.2e}, certificates "
                   f"{fejer_dev:.2e}, {elapsed:.1f}s")
