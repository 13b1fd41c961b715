"""Reproducers for program faults the workloads leave out.

    python3 bench/faults.py roots        # root accuracy at high degree
    python3 bench/faults.py near         # near-exceptional alpha on fave
    python3 bench/faults.py contact      # order-one contacts at n >= 48
    python3 bench/faults.py saturation   # stale saturation cache

Run from the root of a checkout; each prints what it observed.
"""

from __future__ import annotations

import sys
import time
import warnings
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from rifclark import BiPolyN1, UniPoly, clark_measure, get, validate  # noqa: E402
from rifclark.clark import classify_extreme  # noqa: E402
from rifclark.errors import RifClarkError  # noqa: E402
from rifclark.polynomials import BlaschkeProduct, roots  # noqa: E402


def _wide_ring(rng, count: int) -> np.ndarray:
    """Roots at uniformly random angles, half in 0.45 <= |r| <= 0.75 and half
    in 1.35 <= |r| <= 2.2: the coefficient span grows geometrically with n
    (about 1e16 at n = 64), unlike the benchmark's own family."""
    inner = count // 2
    mod = np.concatenate([rng.uniform(0.45, 0.75, inner), rng.uniform(1.35, 2.2, count - inner)])
    return mod * np.exp(2j * np.pi * rng.uniform(size=count))


def _quotient_error(u: np.ndarray, v: np.ndarray, zeros) -> float:
    """max deviation of (u / v) / B from its mean on the circle, B the
    Blaschke product with the given zeros; 0 for an exact factorization."""
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    b = BlaschkeProduct(1.0, tuple(zeros))(z)
    ratio = P.polyval(z, u) / P.polyval(z, v) / b
    return float(np.max(np.abs(ratio - ratio.mean())))


def _report(label: str, rif, alpha: complex, tau=None) -> None:
    u, v = rif.pt1 - alpha * rif.p2, alpha * rif.p1 - rif.pt2
    if tau is not None:
        u, v = u.deflate(tau)[0], v.deflate(tau)[0]
    ours = [r for r, m in roots(u) for _ in range(m)]
    ref = np.roots(u.coeffs[::-1])
    try:
        clark_measure(rif, alpha)
        outcome = "certified"
    except RifClarkError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    span = float(np.max(np.abs(u.coeffs)) / np.min(np.abs(u.coeffs)))
    dist = float(np.min(np.abs(1.0 - np.abs(ref))))
    print(f"{label}: pencil span {span:.1e}, curve zeros {dist:.2g} from the circle; "
          f"quotient error with roots() {_quotient_error(u.coeffs, v.coeffs, ours):.1e}, "
          f"with numpy.roots {_quotient_error(u.coeffs, v.coeffs, ref):.1e}; "
          f"clark_measure: {outcome}")


def roots_fault() -> None:
    # the ladder's own family at n = 64: one draw in 150 fails at an
    # exceptional alpha, with zeros well inside the disk
    rng = np.random.default_rng([101, 64, 34])
    f = gen.generate(rng, 64)
    rif = validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), 64))
    for t, a in zip(f.taus, f.alphas):
        s = min(rif.singularities, key=lambda x: abs(x.tau - t))
        _report("ladder family n=64, exceptional alpha", rif, a / abs(a), s.tau)
    # the wide-span family at n = 64: generic alphas fail
    for seed in (0, 3, 8):
        f = gen.draw(np.random.default_rng([7, 64, seed]), 64, _wide_ring)
        rif = validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), 64))
        for a in np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32):
            try:
                clark_measure(rif, complex(a))
            except RifClarkError:
                _report(f"wide family n=64 draw {seed}, generic alpha", rif, complex(a))
                break


def near_fault() -> None:
    rif = get("fave").build()
    for d in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        alpha = -complex(np.exp(1j * d))
        t0 = time.perf_counter()
        try:
            cm = clark_measure(rif, alpha)
            mass = cm.total_mass(None)
            outcome = f"mass {mass:.12f}, closed form {cm.closed_form_mass():.12f}"
        except RifClarkError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        print(f"d={d:.0e}: {outcome} ({time.perf_counter() - t0:.2f} s)")


def contact_fault() -> None:
    """validate on the wide-span family, with the generator's own error at
    the contacts: |p1|^2 - |p2|^2 should vanish there."""
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for n in (32, 48, 64):
        counts: dict[str, int] = {}
        miss = 0.0
        for s in range(20):
            f = gen.draw(np.random.default_rng([7, n, s]), n, _wide_ring)
            top = float(np.max(np.abs(P.polyval(z, f.p1)) ** 2))
            for t in f.taus:
                gap = abs(P.polyval(t, f.p1)) ** 2 - abs(P.polyval(t, f.p2)) ** 2
                miss = max(miss, abs(gap) / top)
            try:
                rif = validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), n))
                key = f"{len(rif.singularities)} singularities"
            except RifClarkError as exc:
                key = str(exc)
            counts[key] = counts.get(key, 0) + 1
        print(f"n={n}, 20 draws with 2 order-one contacts each: {counts}; "
              f"generator's |p1|^2 - |p2|^2 at the contacts up to {miss:.1e} of max |p1|^2")


def saturation_fault() -> None:
    fave = BiPolyN1(UniPoly([2.0, -1.0]), UniPoly([-1.0]), 1)
    other = BiPolyN1(UniPoly([3.0, -1.0]), UniPoly([-1.0]), 1)
    kept = validate(other)  # kept alive, so no later object reuses its id
    fresh = classify_extreme(kept, 1j).status.value
    for attempt in range(1000):
        first = validate(fave)
        stale = classify_extreme(first, 1j).status.value
        first_id = id(first)
        del first
        second = validate(other)
        if id(second) == first_id:
            got = classify_extreme(second, 1j).status.value
            print(f"attempt {attempt}: 3 - z1 - z2 reuses the id of a freed 2 - z1 - z2 "
                  f"(answer {stale}); classify_extreme gives {got}, a fresh object gives {fresh}")
            return
    print("no id reuse in 1000 attempts")


FAULTS = {"roots": roots_fault, "near": near_fault, "contact": contact_fault,
          "saturation": saturation_fault}

if __name__ == "__main__":
    warnings.simplefilter("ignore", RuntimeWarning)
    if len(sys.argv) != 2 or sys.argv[1] not in FAULTS:
        sys.exit(f"usage: python3 bench/faults.py {{{','.join(FAULTS)}}}")
    FAULTS[sys.argv[1]]()
