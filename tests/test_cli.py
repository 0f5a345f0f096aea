import argparse
import json
import os
import subprocess
import sys

import pytest

import rdnorm
from rdnorm import cli
from rdnorm.cli import EXIT_EXCEPTIONS, EXIT_OK, EXIT_USAGE, main
from rdnorm.qint import QuadInt


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
        with pytest.warns(UserWarning, match=r"rule 2\.5 .*t >= 12"):
            code, _, _ = run(capsys, "verify", "2.5", "--t-min", "1",
                             "--t-max", "11")
        assert code == EXIT_EXCEPTIONS


class TestWitness:
    def test_valid(self, capsys):
        code, doc, _ = run_json(capsys, "witness", "2", "2")
        assert code == EXIT_OK
        assert doc["result"]["m"] == "65" and doc["result"]["valid"] is True

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
