"""Command-line front end.

Subcommands: unit, solve, reduce, verify, witness.  Human-readable output
by default, one JSON document on stdout with --json; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification found exceptions, 2 usage
or domain error (DomainError); any other exception is a bug and propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pell import cf_sqrt, fundamental_unit, period_end_convergent
from .qint import DomainError, QuadInt
from .rdtheory import PROP_IDS, class_number_witness, verify_prop
from .reduction import reduce_window
from .solve import solve_norm

EXIT_OK = 0
EXIT_EXCEPTIONS = 1
EXIT_USAGE = 2


def _emit(args, command: str, result: dict, human: list[str]) -> None:
    if args.json:
        envelope = {"command": command, "ok": True, "result": result}
        print(json.dumps(envelope, indent=2))
    else:
        for line in human:
            print(line)


def _emit_error(args, command: str, message: str) -> None:
    if args.json:
        envelope = {
            "command": command,
            "ok": False,
            "error": {"code": "domain-error", "message": message},
        }
        print(json.dumps(envelope, indent=2))
    print(f"error: {message}", file=sys.stderr)


def cmd_unit(args) -> int:
    cf = cf_sqrt(args.m)
    eps = QuadInt(*period_end_convergent(cf), args.m)
    result = {
        "m": str(args.m),
        "a": str(eps.a),
        "b": str(eps.b),
        "norm": eps.norm(),
        "cf_period_length": cf.period_length,
    }
    _emit(args, "unit", result, [
        f"m={args.m}: fundamental unit {eps}",
        f"norm = {eps.norm()}, continued-fraction period length {cf.period_length}",
    ])
    return EXIT_OK


def cmd_solve(args) -> int:
    sols = solve_norm(args.m, args.n, primitive_only=args.primitive)
    result = sols.to_json()
    human = [f"|x^2 - {args.m}*y^2| = {args.n}: {len(sols)} orbit(s)"]
    human += [f"  a={r.a} b={r.b}   ({r})" for r in sols.reps]
    _emit(args, "solve", result, human)
    return EXIT_OK


def cmd_reduce(args) -> int:
    xi = QuadInt(args.a, args.b, args.m)
    res = reduce_window(xi, fundamental_unit(args.m))
    result = {
        "m": str(args.m),
        "j": res.j,
        "alpha": {"a": str(res.alpha.a), "b": str(res.alpha.b)},
        "n": str(res.n),
    }
    _emit(args, "reduce", result, [
        f"canonical associate of {xi}: {res.alpha} (unit exponent j={res.j}, |norm|={res.n})",
    ])
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_prop(args.prop, args.t_min, args.t_max)
    human = [
        f"rule {report.prop_id}, t in [{report.t_min}, {report.t_max}]: "
        f"checked {report.checked_count} cases, "
        f"{len(report.exceptions)} exception(s)"
    ]
    human += [
        f"  t={e.t} n={e.n}: witness (x, y) = ({e.x}, {e.y})"
        for e in report.exceptions
    ]
    _emit(args, "verify", report.to_json(), human)
    return EXIT_OK if report.clean else EXIT_EXCEPTIONS


def cmd_witness(args) -> int:
    w = class_number_witness(args.l, args.q)
    human = [f"t = {w.t}, m = {w.m}"]
    human += [f"  {name}: {'ok' if ok else 'FAILED'}" for name, ok in w.checks.items()]
    human.append(
        f"certificate {'valid' if w.valid else 'INVALID'}: class number of "
        f"Q(sqrt({w.m})) {'exceeds 1' if w.valid else 'not certified'}"
    )
    _emit(args, "witness", w.to_json(), human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdnorm",
        description="Units, window reduction and complete norm-form solving "
                    "in real quadratic orders Z[sqrt(m)].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document on stdout")

    p = sub.add_parser("unit", help="fundamental unit of Z[sqrt(m)]")
    p.add_argument("m", type=int)
    add_json(p)
    p.set_defaults(func=cmd_unit)

    p = sub.add_parser("solve", help="solve |x^2 - m*y^2| = n up to associates")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--primitive", action="store_true",
                   help="keep only orbits with coprime coordinates")
    add_json(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="canonical window associate of a + b*sqrt(m)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    add_json(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="sweep an exclusion rule over a t range")
    p.add_argument("prop", choices=PROP_IDS)
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="class-number > 1 certificate for t = 2*l*q")
    p.add_argument("l", type=int)
    p.add_argument("q", type=int)
    add_json(p)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Arguments keep the 4300-digit int<->str limit (absent before Python
    # 3.10.7), so an overlong one exits 2; output of any size prints.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return args.func(args)
    except DomainError as exc:
        _emit_error(args, args.command, str(exc))
        return EXIT_USAGE
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
