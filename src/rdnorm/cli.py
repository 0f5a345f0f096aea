"""Command-line front end.

Subcommands: unit, solve, reduce, verify, witness.  Human-readable output
by default, one JSON document on stdout with --json; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification found exceptions, 2 usage
or domain error (DomainError); any other exception is a bug and propagates
with its traceback.

Each cmd_* handler returns data: (exit code, JSON result, human lines),
the lines as a zero-argument function so that they are formatted only when
printed.  main alone writes stdout and the error message; the one other
write is verify's notice on stderr when a sweep starts below its rule's
first t, printed on every such call.  The parser is built on the
first call of main and reused, so main may be called repeatedly in one
process.
"""

from __future__ import annotations

import argparse
import functools
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


def cmd_unit(args):
    cf = cf_sqrt(args.m)
    eps = QuadInt(*period_end_convergent(cf), args.m)
    norm = eps.norm()
    result = {
        "m": str(args.m),
        "a": str(eps.a),
        "b": str(eps.b),
        "norm": norm,
        "cf_period_length": cf.period_length,
    }
    return EXIT_OK, result, lambda: [
        f"m={args.m}: fundamental unit {eps}",
        f"norm = {norm}, continued-fraction period length {cf.period_length}",
    ]


def cmd_solve(args):
    sols = solve_norm(args.m, args.n, primitive_only=args.primitive)
    return EXIT_OK, sols.to_json(), lambda: [
        f"|x^2 - {args.m}*y^2| = {args.n}: {len(sols)} orbit(s)",
        *(f"  a={r.a} b={r.b}   ({r})" for r in sols.reps),
    ]


def cmd_reduce(args):
    xi = QuadInt(args.a, args.b, args.m)
    res = reduce_window(xi, fundamental_unit(args.m))
    result = {
        "m": str(args.m),
        "j": res.j,
        "alpha": {"a": str(res.alpha.a), "b": str(res.alpha.b)},
        "n": str(res.n),
    }
    return EXIT_OK, result, lambda: [
        f"canonical associate of {xi}: {res.alpha} (unit exponent j={res.j}, |norm|={res.n})",
    ]


def cmd_verify(args):
    report = verify_prop(args.prop, args.t_min, args.t_max)
    if report.below_stated_range:
        print(f"warning: rule {report.prop_id} is stated for t >= "
              f"{report.stated_from}, got t_min={report.t_min}", file=sys.stderr)
    code = EXIT_OK if report.clean else EXIT_EXCEPTIONS
    return code, report.to_json(), lambda: [
        f"rule {report.prop_id}, t in [{report.t_min}, {report.t_max}]: "
        f"checked {report.checked_count} cases, "
        f"{len(report.exceptions)} exception(s)",
        *(f"  t={e.t} n={e.n}: witness (x, y) = ({e.x}, {e.y})"
          for e in report.exceptions),
    ]


def cmd_witness(args):
    w = class_number_witness(args.l, args.q)
    return EXIT_OK, w.to_json(), lambda: [
        f"t = {w.t}, m = {w.m}",
        *(f"  {name}: {'ok' if ok else 'FAILED'}" for name, ok in w.checks.items()),
        f"certificate {'valid' if w.valid else 'INVALID'}: class number of "
        f"Z[(1+sqrt({w.m}))/2] {'exceeds 1' if w.valid else 'not certified'} "
        f"(that of Q(sqrt(m)) when m is squarefree)",
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdnorm",
        description="Units, window reduction and complete norm-form solving "
                    "in real quadratic orders Z[sqrt(m)].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unit", help="fundamental unit of Z[sqrt(m)]")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_unit)

    p = sub.add_parser("solve", help="solve |x^2 - m*y^2| = n up to associates")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--primitive", action="store_true",
                   help="keep only orbits with coprime coordinates")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="canonical window associate of a + b*sqrt(m)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="sweep an exclusion rule over a t range")
    p.add_argument("prop", choices=PROP_IDS)
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="class-number > 1 certificate for t = 2*l*q")
    p.add_argument("l", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_witness)

    # added last, so that usage lines keep --json after each command's own options
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document on stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Arguments keep the 4300-digit int<->str limit (absent before Python
    # 3.10.7), so an overlong one exits 2; output of any size prints.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        code, result, human = args.func(args)
        if args.json:
            print(json.dumps({"command": args.command, "ok": True, "result": result},
                             indent=2))
        else:
            print("\n".join(human()))
        return code
    except DomainError as exc:
        if args.json:
            error = {"code": "domain-error", "message": str(exc)}
            print(json.dumps({"command": args.command, "ok": False, "error": error},
                             indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
