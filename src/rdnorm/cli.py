"""Command-line front end.

Subcommands: unit, solve, reduce, verify, witness.  Human-readable output
by default, one JSON document on stdout with --json; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification found exceptions, 2 usage
or domain error (DomainError); any other exception is a bug and propagates
with its traceback.  A reader that closes stdout or stderr early (`| head`)
ends the command quietly, with the exit code it computed.

Each cmd_* handler builds its JSON result and its human lines from the
library's values, which carry no JSON of their own, so this module alone
defines the output format.  It returns data: (exit code, JSON result,
human lines), the lines as a zero-argument function so that they are
formatted only when printed.  main alone writes the result and the error
message.  _write is the one writer to either stream: to stdout for the
result, the --json error envelope and the help, and to stderr for the
error message, the usage errors and verify's notice when a sweep starts
below its rule's first t, printed on every such call.  main keeps no
state between calls, so it may be called repeatedly in one process.

One table, _COMMANDS, holds each command's handler, positionals, flags,
valued options and help line; _parse reads argv from it in one pass, as
argparse read it: the command first, positionals in order, options
anywhere after the command as --opt value or --opt=value or a unique
prefix of either, the last occurrence winning, up to a first "--", after
which every argument is a positional.  An argument starting with
"-" is a value when it holds a space or reads as a negative number, which
_negative_number decides with str tests, not argparse's regular
expression.  -h/--help prints help built from the table and exits 0; any
other malformed argv prints a usage line and the error on stderr and
exits 2, as SystemExit.  _dumps writes the --json envelope byte for byte
as json.dumps(..., indent=2) would, quoting strings with the C encoder
from _json that json itself uses.

The module imports neither re, json nor argparse, and the package no
dataclasses or typing, so a call pays little to start (README, "Start-up
cost").
"""

from __future__ import annotations

import sys
from itertools import repeat
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

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
    norm = (-1) ** cf.period_length
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
    result = {
        "m": str(args.m),
        "n": str(args.n),
        "reps": [{"a": str(r.a), "b": str(r.b)} for r in sols.reps],
        "count": len(sols),
    }
    return EXIT_OK, result, lambda: [
        f"|x^2 - {args.m}*y^2| = {args.n}: {len(sols)} orbit(s)",
        *(f"  a={r.a} b={r.b}   ({r})" for r in sols.reps),
    ]


def cmd_reduce(args):
    xi = QuadInt(args.a, args.b, args.m)
    if xi.is_zero():  # before fundamental_unit, which may take long for big m
        raise DomainError("cannot reduce zero")
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
        _write(f"warning: rule {report.prop_id} is stated for t >= "
               f"{report.stated_from}, got t_min={report.t_min}", sys.stderr)
    code = EXIT_OK if report.clean else EXIT_EXCEPTIONS
    result = {
        "prop": report.prop_id,
        "t_range": [report.t_min, report.t_max],
        "stated_from": report.stated_from,
        "below_stated_range": report.below_stated_range,
        "checked": report.checked_count,
        "exceptions": [{"t": e.t, "n": str(e.n), "x": str(e.x), "y": str(e.y)}
                       for e in report.exceptions],
    }
    return code, result, lambda: [
        f"rule {report.prop_id}, t in [{report.t_min}, {report.t_max}]: "
        f"checked {report.checked_count} cases, "
        f"{len(report.exceptions)} exception(s)",
        *(f"  t={e.t} n={e.n}: witness (x, y) = ({e.x}, {e.y})"
          for e in report.exceptions),
    ]


def cmd_witness(args):
    w = class_number_witness(args.l, args.q)
    result = {
        "l": w.l,
        "q": str(w.q),
        "t": str(w.t),
        "m": str(w.m),
        "checks": dict(w.checks),
        "valid": w.valid,
    }
    return EXIT_OK, result, lambda: [
        f"t = {w.t}, m = {w.m}",
        *(f"  {name}: {'ok' if ok else 'FAILED'}" for name, ok in w.checks.items()),
        f"certificate {'valid' if w.valid else 'INVALID'}: class number of "
        f"Z[(1+sqrt({w.m}))/2] {'exceeds 1' if w.valid else 'not certified'} "
        f"(that of Q(sqrt(m)) when m is squarefree)",
    ]


_JSON_HELP = "emit one JSON document on stdout"
_HELP_OPTIONS = ("-h", "--help")

# command: (handler, positionals, flags, valued options, help line).  Each
# positional is read by int() or is one of a tuple of choices; the flags and
# valued options map to their help lines, and every valued option takes an
# int and is required.
_COMMANDS = {
    "unit": (cmd_unit, (("m", int),), {"--json": _JSON_HELP}, {},
             "fundamental unit of Z[sqrt(m)]"),
    "solve": (cmd_solve, (("m", int), ("n", int)),
              {"--primitive": "keep only orbits with coprime coordinates",
               "--json": _JSON_HELP}, {},
              "solve |x^2 - m*y^2| = n up to associates"),
    "reduce": (cmd_reduce, (("m", int), ("a", int), ("b", int)),
               {"--json": _JSON_HELP}, {},
               "canonical window associate of a + b*sqrt(m)"),
    "verify": (cmd_verify, (("prop", PROP_IDS),), {"--json": _JSON_HELP},
               {"--t-min": "first t of the sweep", "--t-max": "last t of the sweep"},
               "sweep an exclusion rule over a t range"),
    "witness": (cmd_witness, (("l", int), ("q", int)), {"--json": _JSON_HELP}, {},
                "class-number > 1 certificate for t = 2*l*q"),
}

def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _metavar(option: str) -> str:
    return _dest(option).upper()


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: rdnorm [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, positionals, flags, options, _ = _COMMANDS[command]
    return " ".join([
        "usage: rdnorm", command, "[-h]",
        *(f"{option} {_metavar(option)}" for option in options),
        *(f"[{flag}]" for flag in flags),
        *(name if kind is int else "{" + ",".join(kind) + "}"
          for name, kind in positionals),
    ])


def _rows(rows: dict[str, str]) -> list[str]:
    width = max(map(len, rows))
    return [f"  {label:<{width}}  {text}" for label, text in rows.items()]


def _help(command: str | None):
    """Print the usage and the table's help lines on stdout, then exit 0."""
    options = {", ".join(_HELP_OPTIONS): "show this help message and exit"}
    if command is None:
        lines = ["Units, window reduction and complete norm-form solving in real "
                 "quadratic orders Z[sqrt(m)].", "", "commands:",
                 *_rows({name: entry[4] for name, entry in _COMMANDS.items()})]
    else:
        _, _, flags, valued, summary = _COMMANDS[command]
        lines = [summary]
        options |= {f"{o} {_metavar(o)}": text for o, text in valued.items()} | flags
    _write("\n".join([_usage(command), "", *lines, "", "options:", *_rows(options)]),
           sys.stdout)
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, reason: str):
    """Print the usage and the reason on stderr, then exit 2."""
    prog = "rdnorm" if command is None else f"rdnorm {command}"
    _write(f"{_usage(command)}\n{prog}: error: {reason}", sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _negative_number(arg: str) -> bool:
    r"""Whether arg, which starts with "-", matches argparse's pattern
    ^-\d+$|^-\d*\.\d+$ for a negative number: \d is a character for which
    str.isdecimal holds, and $ matches before one trailing newline too."""
    number = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, fraction = number.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _split(command: str | None, arg: str, names) -> tuple[str | None, str | None]:
    """(option, its "=value" or None) when arg names one of names, or a
    unique prefix of one; (None, arg) when arg is a value; (arg, None) when
    it is an unknown option."""
    if not arg.startswith("-") or arg == "-":
        return None, arg
    if arg in names:
        return arg, None
    name, eq, value = arg.partition("=")
    if arg.startswith("--") and len(name) > 2:
        matches = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    # As in argparse: an argument that reads as a negative number, or holds
    # a space, is a value even though it starts with "-".
    if _negative_number(arg) or " " in arg:
        return None, arg
    return arg, None


def _convert(command: str, name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)  # refuses more than 4300 digits: a usage error
        except ValueError:
            _fail(command, f"argument {name}: invalid int value: {text!r}")
    if text not in kind:
        _fail(command, f"argument {name}: invalid choice: {text!r} "
                       f"(choose from {_choices(kind)})")
    return text


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command, then its positionals in order, with its options anywhere
    after the command, in one pass over argv."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        if _split(None, command, _HELP_OPTIONS) in (("-h", None), ("--help", None)):
            _help(None)
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {_choices(_COMMANDS)})")
    _, positionals, flags, options, _ = _COMMANDS[command]
    names = (*_HELP_OPTIONS, *flags, *options)
    args = SimpleNamespace(command=command, **dict.fromkeys(map(_dest, flags), False),
                           **dict.fromkeys(map(_dest, options)))
    values = []
    ended = False  # a "--" was read: every later argument is a positional
    after_value = False  # the argument before was a positional
    tokens = iter(argv[1:])
    for arg in tokens:
        if arg == "--" and not ended:
            # argparse drops the first "--" from the values of a positional
            # on either side of it, and refuses it when there is none
            ended = True
            if not after_value and len(values) == len(positionals):
                _fail(command, f"unrecognized arguments: {arg}")
            continue
        option, value = (None, arg) if ended else _split(command, arg, names)
        after_value = option is None and len(values) < len(positionals)
        if after_value:
            name, kind = positionals[len(values)]
            values.append(_convert(command, name, kind, arg))
        elif option not in names:
            _fail(command, f"unrecognized arguments: {arg}")
        elif value is not None and option not in options:
            _fail(command, f"argument {option}: ignored explicit argument {value!r}")
        elif option in _HELP_OPTIONS:
            _help(command)
        elif option in flags:
            setattr(args, _dest(option), True)
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _split(command, value, names)[0] is not None:
                    _fail(command, f"argument {option}: expected one argument")
            setattr(args, _dest(option), _convert(command, option, int, value))
    missing = [name for name, _ in positionals[len(values):]]
    missing += [o for o in options if getattr(args, _dest(o)) is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    for (name, _), value in zip(positionals, values):
        setattr(args, name, value)
    return args


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for the types the envelopes hold: dicts
    with str keys, lists, str, int and bool.  Types are matched exactly,
    bool before int; a str, int or bool child is written in place, and
    only a dict or list child costs a call."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        items, ends = obj.items(), "{}"
    elif kind is list:
        items, ends = zip(repeat(None), obj), "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return ends
    inner = indent + "  "
    parts = []
    for key, value in items:
        kind = type(value)
        if kind is str:
            text = encode_basestring_ascii(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif kind is int:
            text = int.__repr__(value)
        else:
            text = _dumps(value, inner)
        parts.append(text if key is None else f"{encode_basestring_ascii(key)}: {text}")
    return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]


def _write(text: str, stream) -> None:
    """Print text on stream, the one way this module writes to stdout or
    stderr."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader closed the stream early (`| head`): not a failure.
        # Point the fd at devnull so the interpreter's last flush of
        # what is still buffered stays silent.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # Arguments keep the 4300-digit int<->str limit (absent before Python
    # 3.10.7), so an overlong one exits 2; output of any size prints.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        code, result, human = _COMMANDS[args.command][0](args)
        if args.json:
            text = _dumps({"command": args.command, "ok": True, "result": result})
        else:
            text = "\n".join(human())
        _write(text, sys.stdout)
        return code
    except DomainError as exc:
        if args.json:
            error = {"code": "domain-error", "message": str(exc)}
            _write(_dumps({"command": args.command, "ok": False, "error": error}),
                   sys.stdout)
        _write(f"error: {exc}", sys.stderr)
        return EXIT_USAGE
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
