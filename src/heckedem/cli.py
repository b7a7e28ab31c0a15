"""Command-line driver: verification suites and enumeration reports as JSON.

Exit codes: 0 = pass, 1 = mathematical failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chowrep, galois, krep, verify
from .charrings import FieldRing
from .coeffs import FieldElement, FieldTower, build_tower, discrete_log
from .hecke import component_iso, orbits


def _field_str(x: FieldElement) -> str:
    if x.is_zero():
        return "0"
    k = discrete_log(x)
    return "1" if k == 0 else f"g^{k}"


def _parse_field(tower: FieldTower, text: str) -> FieldElement:
    text = text.strip()
    if text == "0":
        return tower.zero()
    if text in ("1", "g^0"):
        return tower.one()
    if text == "g":
        return tower.gen()
    if text.startswith("g^"):
        return tower.gen_power(int(text[2:]))
    return tower.from_int(int(text))


def _matrix_json(M) -> list:
    return [[_field_str(x) for x in row] for row in M]


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _tower_from(args) -> FieldTower:
    try:
        return build_tower(args.p, args.f)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(2)


def cmd_verify_relations(args) -> int:
    _tower_from(args)  # validates p, f early
    report = verify.run_relation_suites(seed=args.seed)
    report["p"], report["f"] = args.p, args.f
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_module(args) -> int:
    tower = _tower_from(args)
    ring = FieldRing(tower)
    if args.theta is None and args.b is None:
        print("usage error: module needs --theta t1,t2 or --b for the regular case", file=sys.stderr)
        return 2
    if args.theta is not None:
        parts = args.theta.split(",")
        if len(parts) != 2:
            print("usage error: --theta expects two comma-separated values", file=sys.stderr)
            return 2
        try:
            tau1, tau2 = (_parse_field(tower, t) for t in parts)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        if tau2.is_zero():
            print("usage error: tau2 must be nonzero (zeta2 acts invertibly)", file=sys.stderr)
            return 2
        mod = krep.reduce_at_theta((tau1, tau2), ring)
        report = {
            "flavor": mod.flavor,
            "theta": [_field_str(tau1), _field_str(tau2)],
            "matrices": {name: _matrix_json(mat) for name, mat in mod.gens},
            "irreducible": krep.is_irreducible(mod),
        }
        _emit(report, args.out)
        return 0
    try:
        b = _parse_field(tower, args.b)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if b.is_zero():
        print("usage error: b must be nonzero", file=sys.stderr)
        return 2
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    result = chowrep.semisimplify(m8, b)
    report = {
        "b": _field_str(b),
        "filtration_dims": result["dims"],
        "factors": f"4 x M2(0,{_field_str(b)})" if result["all_factors_standard"] else "unexpected",
        "semisimple": bool(result["semisimple"]) if result["semisimple"] is not None else None,
    }
    _emit(report, args.out)
    ok = result["dims"] == [2, 4, 6, 8] and result["all_factors_standard"] and result["semisimple"] is False
    return 0 if ok else 1


def cmd_bijection(args) -> int:
    report = galois.bijection_check(_tower_from(args))
    _emit(report, args.out)
    return 0 if report["bijective"] else 1


def cmd_obstruction(args) -> int:
    report = chowrep.check_naive_obstruction()
    suite = verify.suite_obstruction()
    report["theorem_conditions_checked"] = suite["passed"]
    _emit(report, args.out)
    return 0 if (not report["solvable"] and suite["passed"]) else 1


def cmd_orbits(args) -> int:
    tower = _tower_from(args)
    orbs = orbits(tower)
    report = {
        "q": tower.q,
        "count": len(orbs),
        "orbits": [
            {
                "labels": [list(lab) for lab in orb],
                "component": component_iso(orb)["flavor"],
            }
            for orb in orbs
        ],
    }
    _emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckedem",
        description="Demazure-operator models of GL2 Hecke algebras: verification and enumeration",
    )
    parser.add_argument("--p", type=int, default=3, help="odd prime")
    parser.add_argument("--f", type=int, default=1, help="degree of GF(q) over GF(p)")
    parser.add_argument("--theta", type=str, default=None, help="central character tau1,tau2 (values 0, 1, g^k)")
    parser.add_argument("--b", type=str, default=None, help="theta(zeta2) for the regular component")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--out", type=str, default=None, help="write the JSON report to this path")
    parser.add_argument(
        "command",
        choices=("verify-relations", "module", "bijection", "obstruction", "orbits"),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify-relations": cmd_verify_relations,
        "module": cmd_module,
        "bijection": cmd_bijection,
        "obstruction": cmd_obstruction,
        "orbits": cmd_orbits,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
