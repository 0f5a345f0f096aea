import argparse
import functools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import rdnorm
from rdnorm import cli
from rdnorm.cli import EXIT_EXCEPTIONS, EXIT_OK, EXIT_USAGE, main
from rdnorm.qint import QuadInt
from rdnorm.rdtheory import PROP_IDS

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestUnit:
    def test_human(self, capsys):
        code, out, err = run(capsys, "unit", "10")
        assert code == EXIT_OK
        assert "3" in out and "norm = -1" in out
        assert err == ""

    def test_json(self, capsys):
        code, doc, _ = run_json(capsys, "unit", "146")
        assert code == EXIT_OK
        assert doc["command"] == "unit" and doc["ok"] is True
        r = doc["result"]
        assert (r["a"], r["b"]) == ("145", "12")
        assert r["norm"] == 1
        assert r["cf_period_length"] == 2

    def test_expands_continued_fraction_once(self, capsys, monkeypatch):
        calls = []
        expand = rdnorm.pell.cf_sqrt

        def counted(m):
            calls.append(m)
            return expand(m)

        monkeypatch.setattr(cli, "cf_sqrt", counted)
        monkeypatch.setattr(rdnorm.pell, "cf_sqrt", counted)
        rdnorm.pell.fundamental_unit.cache_clear()  # a cached unit hides calls
        code, _, _ = run(capsys, "unit", "94")
        assert code == EXIT_OK
        assert calls == [94]

    def test_square_radicand_is_domain_error(self, capsys):
        code, doc, err = run_json(capsys, "unit", "9")
        assert code == EXIT_USAGE
        assert doc["ok"] is False and doc["error"]["code"] == "domain-error"
        assert "error:" in err

    def test_unit_beyond_str_digit_limit(self, capsys):
        # a 6382-digit unit, past CPython's default 4300-digit str limit
        limit = sys.get_int_max_str_digits()
        code, doc, _ = run_json(capsys, "unit", "1000000007")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit  # main restores it
        r = doc["result"]
        assert len(r["a"]) > 4300
        sys.set_int_max_str_digits(0)
        try:
            a, b = int(r["a"]), int(r["b"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert a * a - 1000000007 * b * b in (1, -1)
        # the human text prints the same coefficients
        code, out, _ = run(capsys, "unit", "1000000007")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        assert f"fundamental unit {r['a']} + {r['b']}*sqrt(1000000007)" in out


class TestSolve:
    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "10", "6")
        assert code == EXIT_OK
        r = doc["result"]
        assert r["m"] == "10" and r["n"] == "6"
        assert r["count"] == 2
        assert {(p["a"], p["b"]) for p in r["reps"]} == {("2", "1"), ("-2", "1")}

    def test_empty(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "10", "3")
        assert code == EXIT_OK
        assert doc["result"]["count"] == 0

    def test_primitive_flag(self, capsys):
        _, full, _ = run_json(capsys, "solve", "10", "36")
        _, prim, _ = run_json(capsys, "solve", "10", "36", "--primitive")
        assert full["result"]["count"] > prim["result"]["count"] == 0


class TestReduce:
    def test_already_reduced_roundtrip(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "79", "15")
        rep = doc["result"]["reps"][0]
        code, doc, _ = run_json(capsys, "reduce", "79", rep["a"], rep["b"])
        assert code == EXIT_OK
        r = doc["result"]
        assert r["j"] == 0
        assert (r["alpha"]["a"], r["alpha"]["b"]) == (rep["a"], rep["b"])
        assert r["n"] == "15"

    def test_moves_into_window(self, capsys):
        code, doc, _ = run_json(capsys, "reduce", "10", "4", "-1")
        assert code == EXIT_OK
        assert doc["result"]["j"] != 0 or doc["result"]["alpha"] != {"a": "4", "b": "-1"}
        assert doc["result"]["n"] == "6"

    def test_input_beyond_str_digit_limit_exit_2(self, capsys):
        # arguments keep the 4300-digit limit; only output is lifted
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "2", "1" + "0" * 4300 + "1", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_zero_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "reduce", "10", "0", "0")
        assert code == EXIT_USAGE


class TestVerify:
    def test_clean_sweep_exit_0(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "2.3", "--t-min", "2",
                                "--t-max", "10")
        assert code == EXIT_OK
        assert doc["result"]["exceptions"] == []

    def test_exceptions_exit_1(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "2.4", "--t-min", "3",
                                "--t-max", "4")
        assert code == EXIT_EXCEPTIONS
        ns = {e["n"] for e in doc["result"]["exceptions"]}
        assert ns == {"10", "17"}

    def test_unknown_rule_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "2.7", "--t-min", "2", "--t-max", "5"])
        assert exc.value.code == EXIT_USAGE

    def test_nonpositive_t_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "2.3", "--t-min", "-5",
                           "--t-max", "-1")
        assert code == EXIT_USAGE and "error:" in err
        code, doc, _ = run_json(capsys, "verify", "2.5", "--t-min", "-40",
                                "--t-max", "-12")
        assert code == EXIT_USAGE and doc["ok"] is False
        # m = t**2 - 2 = -1 at t = 1
        code, doc, _ = run_json(capsys, "verify", "2.6", "--t-min", "1",
                                "--t-max", "3")
        assert code == EXIT_USAGE
        message = doc["error"]["message"]
        assert "rule 2.6" in message and "t >= 12" in message

    def test_below_first_t_warns(self, capsys):
        code, _, err = run(capsys, "verify", "2.5", "--t-min", "1",
                           "--t-max", "11")
        assert code == EXIT_EXCEPTIONS
        assert re.search(r"rule 2\.5 .*t >= 12", err)
        code, doc, err = run_json(capsys, "verify", "2.5", "--t-min", "1",
                                  "--t-max", "11")
        assert code == EXIT_EXCEPTIONS
        assert re.search(r"rule 2\.5 .*t >= 12", err)
        result = doc["result"]
        assert result["below_stated_range"] is True and result["stated_from"] == 12
        code, doc, err = run_json(capsys, "verify", "2.5", "--t-min", "12",
                                  "--t-max", "12")
        assert doc["result"]["below_stated_range"] is False and err == ""

    def test_below_first_t_notice_on_every_call(self, capsys):
        argv = ["verify", "2.5", "--t-min", "1", "--t-max", "11"]
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        assert "t >= 12" in first[2]


class TestWitness:
    def test_valid(self, capsys):
        code, doc, _ = run_json(capsys, "witness", "2", "2")
        assert code == EXIT_OK
        assert doc["result"]["m"] == "65" and doc["result"]["valid"] is True

    def test_claim_names_the_order(self, capsys):
        # 325 = 5**2 * 13 and Q(sqrt(13)) has class number 1: the checks
        # prove the claim for the order Z[(1+sqrt(325))/2] only
        code, out, _ = run(capsys, "witness", "3", "3")
        assert code == EXIT_OK
        claim = out.splitlines()[-1]
        assert claim.startswith("certificate valid:")
        assert "Z[(1+sqrt(325))/2]" in claim
        assert "Q(sqrt(325))" not in out

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "witness", "1", "5")
        assert code == EXIT_USAGE and "error:" in err
        # composite, but passes every Miller-Rabin base is_prime uses
        q = str(399165290221 * 798330580441)
        code, doc, err = run_json(capsys, "witness", "2", q)
        assert code == EXIT_USAGE and doc["ok"] is False and "error:" in err


class TestInvocation:
    def test_console_entry_point(self):
        # the child must import the same rdnorm as this suite, installed or not
        src = os.path.dirname(os.path.dirname(rdnorm.__file__))
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "rdnorm", "unit", "10", "--json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["a"] == "3" and doc["result"]["b"] == "1"
        assert proc.stderr == ""

    def test_import_loads_no_heavy_module(self):
        # -S: no site hook may import these first and hide them
        src = os.path.dirname(os.path.dirname(rdnorm.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import rdnorm.cli; "
                "print(*sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True)
        loaded = set(proc.stdout.split())
        assert "rdnorm.cli" in loaded
        heavy = {"dataclasses", "inspect", "typing", "re", "json", "enum", "argparse"}
        assert loaded & heavy == set()

    def test_json_is_single_document(self, capsys):
        _, out, _ = run(capsys, "solve", "10", "6", "--json")
        json.loads(out)  # raises if more than one document

    def test_internal_error_is_not_domain_error(self, monkeypatch):
        # only DomainError is bad input; any other error is a bug and surfaces
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "solve_norm", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["solve", "10", "6"])

    def test_parser_is_built_once(self, capsys, monkeypatch):
        main(["unit", "10"])  # builds the parser, if no earlier call did
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["unit", "10"], ["solve", "10", "6", "--json"],
                     ["verify", "2.3", "--t-min", "2", "--t-max", "3"]):
            main(argv)
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["unit", "146"],
        ["solve", "10", "6"],
        ["reduce", "10", "4", "-1"],
        ["verify", "2.4", "--t-min", "3", "--t-max", "4"],
        ["witness", "2", "3"],
    ], ids=lambda argv: argv[0])
    def test_json_formats_no_human_text(self, capsys, monkeypatch, argv):
        expected = run_json(capsys, *argv)

        def refuse(self):
            raise AssertionError("human text formatted under --json")

        monkeypatch.setattr(QuadInt, "__str__", refuse)
        assert run_json(capsys, *argv) == expected

    def test_missing_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the table-driven one replaced, kept as its oracle."""
    parser = argparse.ArgumentParser(
        prog="rdnorm",
        description="Units, window reduction and complete norm-form solving "
                    "in real quadratic orders Z[sqrt(m)].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unit", help="fundamental unit of Z[sqrt(m)]")
    p.add_argument("m", type=int)
    p.set_defaults(func=cli.cmd_unit)

    p = sub.add_parser("solve", help="solve |x^2 - m*y^2| = n up to associates")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--primitive", action="store_true",
                   help="keep only orbits with coprime coordinates")
    p.set_defaults(func=cli.cmd_solve)

    p = sub.add_parser("reduce", help="canonical window associate of a + b*sqrt(m)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cli.cmd_reduce)

    p = sub.add_parser("verify", help="sweep an exclusion rule over a t range")
    p.add_argument("prop", choices=PROP_IDS)
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("witness", help="class-number > 1 certificate for t = 2*l*q")
    p.add_argument("l", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cli.cmd_witness)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document on stdout")
    return parser


def perfbench_module(name: str):
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    return __import__(name)


@functools.cache
def benchmark_ops() -> dict[str, list[dict]]:
    """The seed-31 op lists of the benchmark's three workloads, at its
    default run length of 20 s."""
    workloads = perfbench_module("workloads")
    return {w: workloads.make_ops(w, 31, 20) for w in workloads.WORKLOADS}


def hangs(op: dict) -> bool:
    """A solve left to the pure-Python scan, which runs for minutes."""
    if op["kind"] != "solve":
        return False
    ref = perfbench_module("reference")
    b = ref.b_bound(op["m"], op["n"], ref.pell_unit(op["m"]))
    return op["m"] * (b + 1) ** 2 + op["n"] >= perfbench_module("workloads").INT64_SCAN_LIMIT


def _with_json_everywhere(argv):
    return [argv[:i] + ["--json"] + argv[i:] for i in range(1, len(argv) + 1)]


WELL_FORMED = [
    ["unit", "-3"],
    ["reduce", "10", "4", "-1"],
    ["reduce", "-10", "-4", "-1"],
    ["unit", " 7 "],
    ["unit", "-5 "],
    ["unit", "-5\n"],
    ["unit", "-\u0663"],  # ARABIC-INDIC DIGIT THREE: a decimal, read by int()
    ["reduce", "10", "-\u0663", "-1\n"],
    ["verify", "2.3", "--t-min", "-5\n", "--t-max", "-\u0663"],
    ["verify", "2.3", "--t-min=5", "--t-max=7"],
    ["verify", "2.3", "--t-min", "-5", "--t-max=-1"],
    ["verify", "--t-min", "3", "--t-max", "4", "2.4"],
    ["solve", "--primitive", "10", "36"],
    ["solve", "10", "--primitive", "36"],
    ["verify", "2.5", "--t-min", "2", "--t-min", "12", "--t-max", "9", "--t-max=20"],
    ["solve", "10", "6", "--json", "--json", "--primitive", "--primitive"],
    ["solve", "10", "36", "--prim"],
    ["unit", "10", "--j"],
    ["verify", "2.6", "--t-mi=12", "--t-ma", "13", "--js"],
    *_with_json_everywhere(["solve", "10", "36", "--primitive"]),
    *_with_json_everywhere(["verify", "2.3", "--t-min=2", "--t-max=3"]),
    *_with_json_everywhere(["reduce", "10", "4", "-1"]),
    *_with_json_everywhere(["witness", "2", "3"]),
]

MALFORMED = [
    [],
    ["prove", "2.3"],
    ["unit"],
    ["solve", "10"],
    ["unit", "10", "11"],
    ["solve", "10", "x"],
    ["reduce", "2", "1" + "0" * 4999, "1"],
    ["verify", "2.7", "--t-min", "2", "--t-max", "5"],
    ["verify", "2.3", "--t-max", "5"],
    ["unit", "10", "--bogus"],
    ["unit", "10", "-x"],
    ["verify", "2.3", "--t-m", "2", "--t-max", "5"],
    ["verify", "2.3", "--t-max", "5", "--t-min"],
    ["verify", "2.3", "--t-min", "--t-max", "5"],
    ["unit", "10", "--json=yes"],
    ["--json", "unit", "10"],
    ["unit", "-\u00b2"],  # SUPERSCRIPT TWO: a digit, but not a decimal
    ["unit", "-.5"],
    ["unit", "-1.5"],
    ["unit", "-"],
    ["unit", "--"],
    ["unit", "-5\n\n"],
    ["verify", "2.3", "--t-min", "-.5", "--t-max", "5"],
    ["verify", "2.3", "--t-min", "-\u00b2", "--t-max", "5"],
]


def assert_parsed_as_reference(argv):
    want = vars(reference_parser().parse_args(argv))
    got = vars(cli._parse(argv))
    assert cli._COMMANDS[got["command"]][0] is want.pop("func")
    assert got == want


class TestParser:
    """The table-driven parser reads argv as the argparse one did."""

    def test_benchmark_argv_match_reference(self):
        for ops in benchmark_ops().values():
            for op in ops:
                assert_parsed_as_reference(op["argv"])

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_well_formed_match_reference(self, argv):
        assert_parsed_as_reference(argv)

    @given(st.text(st.sampled_from("-0.9\n \u0663\u00b2x"), max_size=6))
    def test_negative_number_matches_argparse(self, tail):
        matcher = argparse.ArgumentParser()._negative_number_matcher
        arg = "-" + tail
        assert cli._negative_number(arg) == bool(matcher.match(arg))

    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv)[:40])
    def test_malformed_exit_2_like_reference(self, capsys, argv):
        for parse in (reference_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and "error:" in err
            assert err.startswith("usage: rdnorm")


class TestHelp:
    def test_top_level_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: rdnorm")
        for command in ("unit", "solve", "reduce", "verify", "witness"):
            assert command in out

    @pytest.mark.parametrize("command, options", [
        ("unit", ["--json"]),
        ("solve", ["--primitive", "--json"]),
        ("reduce", ["--json"]),
        ("verify", ["--t-min", "--t-max", "--json"]),
        ("witness", ["--json"]),
    ])
    def test_command_names_its_options(self, capsys, command, options):
        for flag in ("--help", "-h"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag])
            assert exc.value.code == EXIT_OK
            out, err = capsys.readouterr()
            assert err == "" and out.startswith(f"usage: rdnorm {command}")
            for option in ["--help", *options]:
                assert option in out


def _lifted(fn):
    """Run fn with the int<->str digit limit lifted, as main does for output."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
                          st.characters()))
_big = st.tuples(st.integers(4300, 4400), st.integers(-9, 9)).map(
    lambda p: p[1] * 10**p[0] + p[1])
_json_values = st.recursive(
    st.one_of(_text, st.integers(), _big, st.booleans()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """cli._dumps prints exactly what json.dumps(..., indent=2) prints."""

    def test_benchmark_envelopes(self, capsys, monkeypatch):
        envelopes = []
        dumps = cli._dumps

        def recorded(obj, *indent):
            if not indent:  # a whole envelope, not a nested value
                envelopes.append(obj)
            return dumps(obj, *indent)

        monkeypatch.setattr(cli, "_dumps", recorded)
        ops = [op for ops in benchmark_ops().values() for op in ops if not hangs(op)]
        for op in ops:
            main(op["argv"])
            capsys.readouterr()
        assert len(envelopes) == len(ops)
        for obj in envelopes:
            assert _lifted(lambda: dumps(obj) == json.dumps(obj, indent=2))

    @settings(deadline=None)  # json.dumps of a 4300-digit int is slow
    @given(_json_values)
    def test_matches_json_dumps(self, value):
        assert _lifted(lambda: cli._dumps(value) == json.dumps(value, indent=2))

    def test_empty_containers(self):
        value = {"a": {}, "b": [], "c": [{}, []]}
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, None, {"a": [None]}, [0.0]])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)
