import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tunnelslopes.cli
import tunnelslopes.convert
import tunnelslopes.tunnels
from tunnelslopes import TunnelParams, serialize, to_export
from tunnelslopes.cli import main
from tunnelslopes.oracle import OracleReport

CONVERT_RANGE_BLOCK = """\
17255/100102, -2843767/100102
17257/100102, -6541753/100102
17259/100102, 345051565/100102
17261/100102, 5593835/100102
17263/100102, 1775313/100102
17265/100102, 158447/100102
"""

SLOPES_LINES = {
    "(33/19)": "[ 1/3 ], 3, 5/3",
    "(64793/31710)": "[ 2/3 ], -3/2, 3, 3, 3, 3, 3, 7/3, 3, 3, 3, 3, 49/24",
    "(3860981/2689048)": "[ 13/27 ], 3, 3, 3, 5/3, 3, 7/3, 15/8, -5/3, -1, -3",
    "(5272967/2616517)": "[ 5/9 ], 11/5, 21/10, -23/11, -131/66",
}


# N = 10^2200, N + 1, and the numerator N^2 + N - 1 of st_convert((N + 1)/N),
# written out as digits: the answer has 4401 digits, past Python's default
# 4300-digit int/str limit.
HUGE_N = "1" + "0" * 2200
HUGE_N_PLUS_1 = "1" + "0" * 2199 + "1"
HUGE_ANSWER = "1" + "0" * 2200 + "9" * 2200


def cli_argv(*args):
    return [sys.executable, "-m", "tunnelslopes.cli", *args]


def cli_env():
    return {**os.environ, "PYTHONPATH": str(Path(tunnelslopes.cli.__file__).parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    @pytest.mark.parametrize(
        "arg,expected",
        [("55", "-55"), ("(59/35)", "-299/35"), ("(-299/35)", "59/35")],
    )
    def test_payload_lines(self, capsys, arg, expected):
        code, out, err = run(capsys, "convert", arg)
        assert code == 0
        assert out == expected + "\n"
        assert err == ""

    def test_even_numerator_fails(self, capsys):
        code, _, err = run(capsys, "convert", "4/7")
        assert code == 1
        assert "odd numerator" in err

    def test_garbage_fails(self, capsys):
        code, _, err = run(capsys, "convert", "pretzel")
        assert code == 1
        assert "error" in err

    def test_huge_garbage_error_is_short(self, capsys):
        code, _, err = run(capsys, "convert", "3" + "1" * 5000)
        assert code == 1
        assert err.startswith("error: not a rational: '3111")
        assert "(5001 characters)" in err
        assert len(err.encode()) < 200


    def test_stdout_closed_before_output(self):
        # A short payload reaches the pipe only when main flushes it.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                cli_argv("convert", "55"), stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_huge_parabolic_slope(self, capsys):
        n = 10**300
        start = time.perf_counter()
        code, out, err = run(capsys, "convert", f"({n + 1}/{n})")
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out == f"{n * n + n - 1}/{n}\n"

    def test_answer_past_the_digit_limit_prints(self, capsys):
        # (N + 1)/N converts to N + 1 - 1/N = (N^2 + N - 1)/N, the closed form
        # of test_near_odd_integer_closed_form.
        code, out, err = run(capsys, "convert", f"({HUGE_N_PLUS_1}/{HUGE_N})")
        assert (code, err) == (0, "")
        assert out == f"{HUGE_ANSWER}/{HUGE_N}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
class TestDigitLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ("convert", f"({HUGE_N_PLUS_1}/{HUGE_N})"),
            ("convert", "4/7"),
            ("slopes", "(33/19)"),
            ("classify", "[ 1/3 ], 3, 5/3 ; 0"),
            ("convert", "1" * 5001),
        ],
    )
    def test_limit_restored_after_main(self, capsys, argv):
        before = sys.get_int_max_str_digits()
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == before

    def test_long_argument_fails_after_a_long_answer(self, capsys):
        assert run(capsys, "convert", f"({HUGE_N_PLUS_1}/{HUGE_N})")[0] == 0
        code, out, err = run(capsys, "convert", "1" * 5001)
        assert (code, out) == (1, "")
        assert err.startswith("error: not a rational: '1111")
        assert "(5001 characters)" in err
        assert len(err.encode()) < 200


class TestConvertRange:
    def test_reference_block(self, capsys):
        code, out, _ = run(capsys, "convert-range", "100102", "17255", "17265")
        assert code == 0
        assert out == CONVERT_RANGE_BLOCK

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "convert-range", "7", "2", "2")
        assert code == 0
        assert out == ""

    def test_non_integer_bound_fails(self, capsys):
        code, out, err = run(capsys, "convert-range", "x", "1", "3")
        assert (code, out, err) == (1, "", "error: not an integer: 'x'\n")

    @pytest.mark.parametrize("argv", [("0", "1", "3"), ("-7", "1", "3"), ("7", "3", "1")])
    def test_bad_bounds_fail_before_output(self, capsys, argv):
        code, out, err = run(capsys, "convert-range", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_lines_stream(self, capsys, monkeypatch):
        # Each line is printed as its pair is computed: a failure at the
        # second pair leaves the first line out already.
        convert = tunnelslopes.convert.st_convert
        calls = []

        def failing_after_one(x):
            calls.append(x)
            if len(calls) > 1:
                raise ArithmeticError("stop")
            return convert(x)

        monkeypatch.setattr(tunnelslopes.convert, "st_convert", failing_after_one)
        code, out, err = run(capsys, "convert-range", "100102", "17255", "17265")
        assert (code, out, err) == (1, CONVERT_RANGE_BLOCK.splitlines(True)[0], "error: stop\n")

    def test_closed_stdout_exits_quietly(self):
        # The reader goes away after one line of a long range: no traceback,
        # and the status a shell gives a process that SIGPIPE ended.
        argv = cli_argv("convert-range", "100001", "1", "400001")
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
            try:
                assert proc.stdout.readline() == b"1/100001, -1/100001\n"
                proc.stdout.close()
                err = proc.stderr.read()
                assert (proc.wait(timeout=60), err) == (141, b"")
            finally:
                # A failed assertion must not leave the child blocked on a
                # full pipe; once it has exited this does nothing.
                proc.kill()

    def test_answer_past_the_digit_limit_prints(self, capsys):
        code, out, err = run(capsys, "convert-range", HUGE_N, HUGE_N_PLUS_1, HUGE_N_PLUS_1)
        assert (code, err) == (0, "")
        assert out == f"{HUGE_N_PLUS_1}/{HUGE_N}, {HUGE_ANSWER}/{HUGE_N}\n"

    @pytest.mark.parametrize("argv", [("1" * 5001, "1", "3"), ("7", "1", "3" * 5000 + "x")])
    def test_huge_bound_error_is_short(self, capsys, argv):
        code, _, err = run(capsys, "convert-range", *argv)
        assert code == 1
        assert err.startswith("error: not an integer: '")
        assert "(5001 characters)" in err
        assert len(err.encode()) < 200


class TestSlopes:
    @pytest.mark.parametrize("arg,line", sorted(SLOPES_LINES.items()))
    def test_payload_lines(self, capsys, arg, line):
        code, out, err = run(capsys, "slopes", arg)
        assert code == 0
        assert out == line + "\n"
        assert err == ""

    def test_both_residues(self, capsys):
        code, out, _ = run(capsys, "slopes", "--both", "(3/5)")
        assert code == 0
        assert out.splitlines() == ["[ 2/3 ]", "[ 2/3 ]"]

    def test_even_b_mentions_upper_and_lower_tunnels(self, capsys):
        code, _, err = run(capsys, "slopes", "(4/3)")
        assert code == 1
        assert "upper and lower" in err

    def test_unnormalized_input_suggests_normalizing(self, capsys):
        code, _, err = run(capsys, "slopes", "(3/5)")
        assert code == 1
        assert "normalize" in err

    def test_missing_denominator_fails(self, capsys):
        code, _, err = run(capsys, "slopes", "33/")
        assert (code, err) == (1, "error: not an integer: ''\n")

    @pytest.mark.parametrize("arg", ["7/" + "1" * 5000 + "z", "1" * 5001])
    def test_huge_junk_error_is_short(self, capsys, arg):
        code, _, err = run(capsys, "slopes", "--both", arg)
        assert code == 1
        assert err.startswith("error: not an integer: '1111")
        assert "(5001 characters)" in err
        assert len(err.encode()) < 200

    def test_one_long_block(self, capsys):
        # 2000001/2 expands as [1000000, 2]: 500 000 twists of one sign.
        code, out, err = run(capsys, "slopes", "2000001/2")
        assert (code, err) == (0, "")
        assert out == "[ 2/5 ]" + ", -1" * 499999 + "\n"

    @pytest.mark.parametrize("n", [10**16, 10**2000])
    def test_expansion_too_long_to_write_out(self, capsys, n):
        # (N + 1)/(N - 1) expands to about N/2 entries in a few runs; writing
        # them out would take petabytes or more, so the request fails at once.
        code, out, err = run(capsys, "slopes", f"({n + 1}/{n - 1})")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: the result is too large to write out\n"


class TestTupleCommands:
    def test_classify_hopf(self, capsys):
        code, out, _ = run(capsys, "classify", "[ 1/2 ]")
        assert code == 0
        assert out == "SimpleLink (Hopf link), linking number 1\n"

    def test_classify_trivial_knot(self, capsys):
        code, out, _ = run(capsys, "classify", "[ 0 ]")
        assert code == 0
        assert out == "TrivialKnot\n"

    def test_classify_trivial_link(self, capsys):
        code, out, _ = run(capsys, "classify", "[ 1/0 ]")
        assert code == 0
        assert out == "TrivialLink, linking number 0\n"

    def test_classify_semisimple(self, capsys):
        code, out, _ = run(capsys, "classify", "[ 1/3 ], 3, 5/3 ; 0")
        assert code == 0
        assert out == "Semisimple\n"

    def test_classify_flags_final_zero_slope(self, capsys):
        code, out, _ = run(capsys, "classify", "[ 1/3 ], 0")
        assert code == 0
        assert "final slope 0" in out

    def test_classify_rejects_bad_tuple(self, capsys):
        code, _, err = run(capsys, "classify", "[ 1/3 ], 2, 5/3 ; 0")
        assert code == 1
        assert "intermediate-numerator-parity" in err

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "[ 1/3 ], 3, 5/3 ; 0")
        assert code == 0
        assert json.loads(out) == {
            "m0": "1/3",
            "slopes": ["3", "5/3"],
            "binaries": [0],
            "class": "Semisimple",
            "target": "Knot",
        }

    def test_mirror(self, capsys):
        code, out, _ = run(capsys, "mirror", "[ 1/3 ], 3, 5/3 ; 0")
        assert code == 0
        assert out == "[ 2/3 ], -3, -5/3 ; 0\n"

    def test_mirror_json(self, capsys):
        code, out, _ = run(capsys, "mirror", "--json", "[ 1/2 ]")
        assert code == 0
        assert json.loads(out)["m0"] == "1/2"

    def test_link(self, capsys):
        code, out, _ = run(capsys, "link", "[ 1/2 ]")
        assert code == 0
        assert out == "1\n"

    def test_link_rejects_knots(self, capsys):
        code, _, err = run(capsys, "link", "[ 1/3 ], 3, 5/3 ; 0")
        assert code == 1
        assert "link" in err

    def test_link_json(self, capsys):
        code, out, _ = run(capsys, "link", "--json", "[ 1/2 ]")
        assert code == 0
        assert json.loads(out) == {
            "m0": "1/2",
            "slopes": [],
            "binaries": [],
            "class": "SimpleLink",
            "target": "Link",
            "linking_number": 1,
        }

    def test_link_json_rejects_knots(self, capsys):
        code, out, err = run(capsys, "link", "--json", "[ 1/3 ], 3, 5/3 ; 0")
        assert (code, out) == (1, "")
        assert "link" in err

    @pytest.mark.parametrize("verb", ["classify", "mirror", "link"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("params", ["[ 1/3 ], 3, 4/5 ; 1", "[ 1/0 ]", "[ 1/3 ], 3, 5/3 ; 0"])
    def test_each_command_validates_once(self, capsys, monkeypatch, verb, json_flag, params):
        calls = []
        validate = tunnelslopes.tunnels.validate

        def counted(t):
            calls.append(t)
            return validate(t)

        monkeypatch.setattr(tunnelslopes.tunnels, "validate", counted)
        monkeypatch.setattr(tunnelslopes.cli, "validate", counted)
        run(capsys, verb, *json_flag, params)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "params",
        [
            "[ 1/3 ], 3, 5/3 ; 0",
            "[ 1/3 ], 3, 3, 3, -7/4 ; 101",
            "[ 1/0 ]",
            "[ 2/5 ], " + ", ".join(["-1"] * 40) + " ; " + "0" * 39,
        ],
    )
    def test_mirror_output_is_the_negated_tuple(self, capsys, params):
        t = tunnelslopes.tunnels.parse(params)
        reference = TunnelParams(t.m0.negated(), tuple(-m for m in t.slopes), t.binaries)
        assert run(capsys, "mirror", params) == (0, serialize(reference) + "\n", "")
        assert run(capsys, "mirror", "--json", params) == (0, json.dumps(to_export(reference)) + "\n", "")

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "classify", "nonsense")
        assert code == 1
        assert "position" in err

    @pytest.mark.parametrize(
        "params,prefix",
        [
            ("[ 1/3 ], " + "3" * 5001, "error: bad slope '3333"),
            ("[ 1/3 ], 3, 5/3 ; 0" + "2" * 5000, "error: binary string '0222"),
            ("[ " + "1" * 5001 + "/7 ]", "error: bad residue '1111"),
            ("[ 1/" + "1" * 5001 + " ]", "error: bad residue '1111"),
        ],
    )
    def test_huge_bad_token_error_is_short(self, capsys, params, prefix):
        code, _, err = run(capsys, "classify", params)
        assert code == 1
        assert err.startswith(prefix)
        assert "(5001 characters)" in err
        assert "position" in err
        assert len(err.encode()) < 200


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "even-cf uniqueness: ok" in out
    assert "cf/matrix dictionary: ok" in out
    assert "2-bridge unit rewrite: ok (164 checked)" in out
    assert out.endswith("selfcheck: ok\n")


def test_selfcheck_failure_exits_nonzero(capsys, monkeypatch):
    failing = [OracleReport("even-cf uniqueness", 1, ("3: expand disagrees",))]
    monkeypatch.setattr(tunnelslopes.cli, "selfcheck", lambda: failing)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    assert out.endswith("selfcheck: FAIL\n")


class TestRepeatedMain:
    """``main`` may run many times in one process; it builds its parser once."""

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "convert", "55")[0] == 0  # builds it, unless a call before did
        built.clear()
        assert run(capsys, "slopes", "(33/19)")[0] == 0
        assert built == []

    def test_flags_do_not_carry_over(self, capsys):
        params = "[ 1/3 ], 3, 5/3 ; 0"
        assert json.loads(run(capsys, "classify", "--json", params)[1])["class"] == "Semisimple"
        assert run(capsys, "classify", params) == (0, "Semisimple\n", "")
        assert run(capsys, "slopes", "--both", "(3/5)")[1].count("\n") == 2
        assert run(capsys, "slopes", "(33/19)") == (0, SLOPES_LINES["(33/19)"] + "\n", "")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["convert"], "the following arguments are required: value"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
        ],
    )
    def test_usage_error_then_success(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tunnelslopes")
        assert message in err
        assert run(capsys, "convert", "(59/35)") == (0, "-299/35\n", "")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: tunnelslopes")
        assert "convert-range" in out
