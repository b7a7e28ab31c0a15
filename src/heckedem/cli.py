"""Command-line driver: verification suites and enumeration reports as JSON.

Exit codes: 0 = pass, 1 = mathematical failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import chowrep, krep, verify
from .charrings import FieldRing
from .coeffs import FieldElement, FieldTower, build_tower
from .hecke import component_iso, orbits


def _field_str(x: FieldElement) -> str:
    """The element's repr ("0" or g^k), except that 1 prints as "1"."""
    text = repr(x)
    return "1" if text == "g^0" else text


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
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a path the caller cannot write is a usage error, not a failed check
            raise ValueError(f"cannot write --out: {exc}") from exc
    print(text)


def cmd_verify_relations(args) -> int:
    if (args.p, args.f) != (3, 1):  # the suites run at fixed fields, so a report at other p, f would be false
        raise ValueError("verify-relations runs its suites at fixed fields: --p and --f must stay 3 and 1")
    report = verify.run_relation_suites(seed=args.seed)
    report["p"], report["f"] = args.p, args.f
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_module(args) -> int:
    tower = build_tower(args.p, args.f)
    ring = FieldRing(tower)
    if args.theta is None and args.b is None:
        raise ValueError("module needs --theta t1,t2 or --b for the regular case")
    if args.theta is not None and args.b is not None:
        raise ValueError("module takes --theta or --b, not both")
    if args.theta is not None:
        parts = args.theta.split(",")
        if len(parts) != 2:
            raise ValueError("--theta expects two comma-separated values")
        tau1, tau2 = (_parse_field(tower, t) for t in parts)
        mod = krep.reduce_at_theta((tau1, tau2), ring)
        report = {
            "flavor": mod.flavor,
            "theta": [_field_str(tau1), _field_str(tau2)],
            "matrices": {name: _matrix_json(mat) for name, mat in mod.gen_dict().items()},
            "irreducible": krep.is_irreducible(mod),
        }
        _emit(report, args.out)
        return 0
    b = _parse_field(tower, args.b)
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    result = chowrep.semisimplify(m8, b)
    report = {
        "b": _field_str(b),
        "filtration_dims": result["dims"],
        "factors": f"4 x M2(0,{_field_str(b)})" if result["all_factors_standard"] else "unexpected",
        "semisimple": result["semisimple"],
    }
    _emit(report, args.out)
    ok = result["dims"] == [2, 4, 6, 8] and result["all_factors_standard"] and result["semisimple"] is False
    return 0 if ok else 1


def cmd_bijection(args) -> int:
    suite = verify.suite_bijection(args.p, args.f)
    _emit(suite["report"], args.out)
    return 0 if suite["passed"] else 1


def cmd_obstruction(args) -> int:
    report = chowrep.check_naive_obstruction()
    suite = verify.suite_obstruction()
    report["theorem_conditions_checked"] = suite["passed"]
    _emit(report, args.out)
    return 0 if (not report["solvable"] and suite["passed"]) else 1


def cmd_orbits(args) -> int:
    tower = build_tower(args.p, args.f)
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


COMMANDS = {
    "verify-relations": cmd_verify_relations,
    "module": cmd_module,
    "bijection": cmd_bijection,
    "obstruction": cmd_obstruction,
    "orbits": cmd_orbits,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: every parse
    returns a new namespace, so no call sees another's arguments."""
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
    parser.add_argument("command", choices=tuple(COMMANDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
