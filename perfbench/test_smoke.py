"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], capture_output=True, text=True, cwd=cwd, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["convert-uniform", "convert-parabolic", "slopes-2bridge", "cli-mix"])
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0  # error_rate 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)) and entry["value"] >= 0, name
        if not trace:
            assert entry["value"] > 0, name
    assert f"error_rate 0 ratio (0 of {result['attempted']} failed)" in done.stdout


def test_spec_keys_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_integer_expansion_matches_library():
    import workloads
    from tunnelslopes import even_cf_expand, make_form, two_bridge_slopes

    for x in workloads.sample_odd_slopes(300, 11) + [Fraction(10001, 10000), Fraction(-7, 3), Fraction(4, 9)]:
        want = even_cf_expand(x).entries()
        assert tuple(workloads.even_cf_raw(x.numerator, x.denominator)) == want
    for b, a in list(islice(workloads.two_bridge_draws(7), 50)) + [(33, 19), (5272967, 2616517)]:
        slopes = sum(len(two_bridge_slopes(make_form(*form)).slopes) for form in workloads.both_forms(b, a))
        assert sum(workloads.form_units(*form) for form in workloads.both_forms(b, a)) - 2 == slopes


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    done = bench("--workload", "convert-uniform", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
