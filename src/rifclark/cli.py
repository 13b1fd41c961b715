"""Command-line front-end: analyze, verify, levelset, catalog.

Output is byte-deterministic for fixed input, flags, and seed: JSON is
emitted with sorted keys and repr-exact floats, CSV rows in a fixed order.
Exit codes: 0 ok, 2 input or validation error (a file that cannot be read
or written included), 3 numeric error, 4 suite failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import re
import sys

from . import catalog
from .catalog import CatalogEntry
from .clark import (
    Unitarity,
    clark_measure,
    classify_alpha,
    classify_extreme,
    classify_unitary,
    level_set_sample,
)
from .errors import DomainError, NumericError
from .polynomials import TOL
from .rif import BiPolyN1
from .verification import run_suites, suite_names

_ALPHA_LITERALS = {
    "1": 1 + 0j, "+1": 1 + 0j, "-1": -1 + 0j,
    "i": 1j, "+i": 1j, "-i": -1j,
}
_POLAR_RE = re.compile(
    r"^(?:e\^\{?i\*?(?P<a>[^}]+)\}?|exp\(i\*?(?P<b>.+)\))$"
)
# e and E admit float exponents such as 1e-4; a bare name e is refused by
# _angle_value
_ANGLE_CHARS = re.compile(r"^[0-9eEpi+\-*/(). ]+$")


_ANGLE_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _angle_value(node) -> float:
    """Float value of a parsed angle: numbers, pi, + - * / **, unary sign."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.left), _angle_value(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.operand))
    raise ValueError("not an angle expression")


def _eval_angle(expr: str) -> float:
    expr = expr.replace("π", "pi").replace(" ", "")
    if not expr or not _ANGLE_CHARS.match(expr):
        raise DomainError(f"cannot parse angle expression {expr!r}")
    try:
        # float arithmetic throughout, so an exponent tower overflows at
        # once instead of being computed in full as an integer
        val = float(_angle_value(ast.parse(expr, mode="eval").body))
    except (SyntaxError, ValueError, TypeError, ArithmeticError, RecursionError):
        raise DomainError(f"cannot parse angle expression {expr!r}") from None
    if not math.isfinite(val):
        raise DomainError(f"angle expression {expr!r} is not finite")
    return val


def parse_alpha(text: str) -> complex:
    """Accept Cartesian a+bi, polar exp(i*x) or e^{ix}, and unit literals.

    The value is projected to the unit circle; a warning goes to stderr
    when the input modulus is off by more than 1e-6.
    """
    s = text.strip()
    if s in _ALPHA_LITERALS:
        return _ALPHA_LITERALS[s]
    m = _POLAR_RE.match(s)
    if m:
        theta = _eval_angle(m.group("a") or m.group("b"))
        return complex(math.cos(theta), math.sin(theta))
    try:
        val = complex(s.replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse alpha {text!r}") from None
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise DomainError(f"alpha {text!r} is not finite")
    r = abs(val)
    if r == 0.0:
        raise DomainError(f"alpha {text!r} has modulus zero")
    if abs(r - 1.0) > 1e-6:
        print(f"warning: |alpha| = {r:.6g}, normalizing to the unit circle",
              file=sys.stderr)
    return val / r


def parse_alphas(text: str) -> list[complex]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise DomainError("empty alpha list")
    return [parse_alpha(p) for p in parts]


def _load_entry(token: str) -> CatalogEntry:
    """Catalog name, or a path to a JSON file with the polynomial schema."""
    if token in catalog.names():
        return catalog.get(token)
    if os.path.exists(token):
        try:
            with open(token, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"cannot read {token!r} as JSON: {exc}") from None
        if isinstance(obj, dict) and "rif" in obj:
            obj = obj["rif"]
        poly = BiPolyN1.from_json(obj)
        name = os.path.splitext(os.path.basename(token))[0]
        return CatalogEntry(name, "user input", poly, ())
    raise DomainError(
        f"input {token!r} is neither a catalog name ({', '.join(catalog.names())}) "
        "nor an existing JSON file"
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dumps(obj) -> str:
    """Strict JSON: a NaN or infinity in a report is a numeric failure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise NumericError("report contains a non-finite value") from None


def cmd_analyze(args) -> int:
    entry = _load_entry(args.input)
    rif = entry.build()
    alpha = parse_alpha(args.alpha)
    ac = classify_alpha(rif, alpha)
    dist = ac.distance_to_exceptional
    if dist is not None and not ac.matched and dist < 1e-4:
        # warn before construction: in this regime the curve data may be
        # numerically inseparable from the exceptional measure
        print(
            f"warning: alpha is within {dist:.3g} of an exceptional value; "
            "the weight is nearly singular", file=sys.stderr,
        )
    cm = clark_measure(rif, alpha)
    report = cm.to_json()
    closed = cm.closed_form_mass()
    report["mass_residual"] = abs(report["total_mass"] - closed) / closed
    if report["mass_residual"] > TOL:
        # a settled mass off the Poisson identity at the origin is wrong
        raise NumericError("total mass is off its closed form",
                           residual=report["mass_residual"])
    report["unitary"] = classify_unitary(rif, alpha) is Unitarity.UNITARY
    decision = classify_extreme(rif, alpha)
    report["extreme"] = decision.status.value
    report["extreme_reason"] = decision.reason
    report["nearest_exceptional_distance"] = dist
    # W_alpha keeps |zeta - tau|^(mult - 2) of the contact's |Q|^2 at a
    # matched tau: one factor |zeta - tau|^2 cancels against |u|^2
    report["weight_vanishing_order"] = [
        {"tau": [t.real, t.imag], "order": rif.singularities[k].mult - 2}
        for (t, _mass), k in zip(cm.lines, cm.alpha_class.matched)
    ]
    _emit(_dumps(report), args.out)
    return 0


def cmd_verify(args) -> int:
    entry = _load_entry(args.input)
    names = None
    if args.suite is not None:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
    results = run_suites(entry, names, seed=args.seed)
    report = {
        "input": entry.name,
        "seed": args.seed,
        "suites": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(_dumps(report), args.out)
    return 0 if report["all_passed"] else 4


def _alpha_tag(alpha: complex) -> str:
    return f"{alpha.real:+.6f}{alpha.imag:+.6f}i"


def _levelset_csv(rif, alpha, n_points: int) -> str:
    sample = level_set_sample(clark_measure(rif, alpha), n_points)
    rows = ["theta1,theta2,branch"]
    for theta1, theta2 in sample.curve:
        rows.append(f"{theta1:.12f},{theta2:.12f},curve")
    for k, t1 in enumerate(sample.line_abscissae):
        # a line {t1} x T takes the curve's first angles as its second
        for t2 in sample.curve[:, 0]:
            rows.append(f"{t1:.12f},{t2:.12f},line_{k}")
    return "\n".join(rows) + "\n"


def cmd_levelset(args) -> int:
    entry = _load_entry(args.input)
    rif = entry.build()
    alphas = parse_alphas(args.alphas)
    if args.out:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    else:
        stem = f"levelset_{entry.name}"
    written = []
    for alpha in alphas:
        text = _levelset_csv(rif, alpha, args.nodes)
        if args.out and args.out.endswith(".csv") and len(alphas) == 1:
            path = args.out
        else:
            path = f"{stem}_{_alpha_tag(alpha)}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    for path in written:
        print(path)
    return 0


def cmd_catalog(args) -> int:
    listing = [catalog.get(name).to_json() for name in catalog.names()]
    _emit(_dumps(listing), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rifclark",
        description="Clark measures of degree-(n,1) rational inner functions "
                    "on the bidisk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="catalog name or polynomial JSON path")
        p.add_argument("--out", default=None, help="output file path")

    pa = sub.add_parser("analyze", help="Clark measure report for one alpha")
    common(pa)
    pa.add_argument("--alpha", required=True, help="unimodular alpha")
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run invariant suites")
    common(pv)
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for randomized checks")
    pv.add_argument("--suite", default=None,
                    help="comma-separated suite names (default: all); "
                         f"available: {', '.join(suite_names())}")
    pv.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("levelset", help="emit level-set samples as CSV")
    common(pl)
    pl.add_argument("--alphas", required=True,
                    help="comma-separated unimodular alphas")
    pl.add_argument("--nodes", type=int, default=4096,
                    help="curve samples per alpha (default 4096)")
    pl.set_defaults(fn=cmd_levelset)

    pc = sub.add_parser("catalog", help="list the example catalog")
    common(pc, needs_input=False)
    pc.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        # an unreadable input path or an unwritable --out is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
