"""The tunnelslopes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, one after another

Run from the root of a source checkout: the library is imported from
./src, the acceptance generators from ./tests. One closed-loop client in
one process replays the workload's seeded input pool in whole passes until
--seconds have elapsed, with every time given at a reference speed (see
Run). Outputs are checked after the timed run, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the library's
public functions are wrapped in spans and the metrics are per layer. A full
record (environment, input profile, failures, per-function table and the
spans) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "first_line_ms": "ms",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<stat>, per pass over the workload's input pool.
PER_LAYER = {
    "rationals.parse_rational.calls": "count",
    "rationals.parse_rational.busy_s": "s",
    "rationals.render.calls": "count",
    "rationals.render.busy_s": "s",
    "rationals.render.bytes": "bytes",
    "contfrac.even_cf_expand.calls": "count",
    "contfrac.even_cf_expand.busy_s": "s",
    "contfrac.even_cf_expand.entries": "count",
    "contfrac.cf_eval.calls": "count",
    "contfrac.cf_eval.busy_s": "s",
    "contfrac.cf_eval.entries": "count",
    "convert.conversion_word.self_s": "s",
    "convert.st_convert.self_s": "s",
    "convert.convert_range.busy_s": "s",
    "convert.convert_range.pairs": "count",
    "sl2.change_of_basis.self_s": "s",
    "sl2.word_product.calls": "count",
    "sl2.word_product.busy_s": "s",
    "sl2.word_product.exponents": "count",
    "twobridge.normalize_input.self_s": "s",
    "twobridge.make_form.self_s": "s",
    "twobridge.unit_rewrite.busy_s": "s",
    "twobridge.unit_rewrite.units": "count",
    "twobridge.cabling_steps.busy_s": "s",
    "twobridge.cabling_steps.steps": "count",
    "tunnels.serialize.busy_s": "s",
    "tunnels.serialize.bytes": "bytes",
    "tunnels.parse.busy_s": "s",
    "tunnels.validate.busy_s": "s",
    "tunnels.to_export.busy_s": "s",
    "oracle.selfcheck.busy_s": "s",
    "cli.main.self_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "op.busy_s": "s",
    "trace_overhead": "ratio",
}

PROBES = 9  # fresh interpreters per start-up measurement; the median is reported


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import tunnelslopes and the workloads from this checkout, never from elsewhere."""
    for needed in ("src/tunnelslopes/__init__.py", "tests/test_acceptance.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from the root of a tunnelslopes checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tunnelslopes

    if Path(tunnelslopes.__file__).resolve().parent != ROOT / "src" / "tunnelslopes":
        fail(f"imported tunnelslopes from {tunnelslopes.__file__}, not from this checkout")
    import workloads

    return workloads


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds(module: str, env: dict, scaled: bool = False) -> float:
    """Median over fresh interpreters of the time `import module` takes.

    With `scaled`, each interpreter then times `reference_loop` (median of
    five, after one to warm up) and its import time is given at the
    reference speed, as in `Run`. The loop runs after the import, so the
    import still pays for every module it loads.
    """
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    if scaled:
        code += "\n" + inspect.getsource(reference_loop) + (
            "from fractions import Fraction\nimport statistics\nreadings = []\nfor _ in range(6):\n"
            "    t = time.perf_counter(); reference_loop(); readings.append(time.perf_counter() - t)\n"
            "print(statistics.median(readings[1:]))\n"
        )
    values = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        seconds, *reference = map(float, out.stdout.split())
        values.append(seconds * REFERENCE_S / reference[0] if scaled else seconds)
    return statistics.median(values)


def wall_ms(code: str, env: dict) -> float:
    """Median wall time, in ms, of a fresh interpreter running the snippet."""
    values = []
    for _ in range(PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, capture_output=True)
        values.append(perf_counter() - t0)
    return 1000 * statistics.median(values)


def reference_loop() -> None:
    """Fixed standard-library work (Fraction sums, with growing ints) that no commit changes."""
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(1, i)


# The reference loop's usual time, in seconds, on the host the bounds were
# tuned on (2-vCPU shared VM, CPython 3.11), and how often it is timed.
REFERENCE_S = 0.00075
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 4  # readings on each side whose median gives the speed at a moment


class Run:
    """Whole passes over the pool until `seconds` have elapsed, one operation at a time.

    A shared 2-vCPU host changes speed by up to 1.7x for seconds at a time,
    at irregular moments, so the share of a run spent fast or slow differs
    from run to run. The run therefore times `reference_loop` every
    REFERENCE_EVERY_S between operations and scales each operation's time by
    REFERENCE_S over the median of the readings around it: times are given
    at the reference speed. On that host the ratio of an operation to the
    loop stays within 3% while both swing by half.

    Each input's latency is the median of its scaled times over the passes.
    With `spread_heavy`, an input that took more than an eighth of the first
    pass runs only in every k-th pass after it, k its latency over that
    eighth rounded up, so that cheaper inputs get more samples in the same
    time. The first pass's outputs are kept for the correctness gate; later
    passes are only compared with them, so the outputs held do not grow
    with the pass count.
    """

    def __init__(self, pool, op, seconds: float, first_line, spread_heavy: bool = False):
        # One entry per timed operation, in flat arrays so that the run's own
        # memory stays small next to the library's: input, seconds, seconds
        # to the first line (NaN if not timed), and the reference reading before it.
        self.index, self.seconds, self.first, self.reading = array("l"), array("d"), array("d"), array("l")
        self.size = len(pool)
        timed_first = [first_line(item) for item in pool]
        self.reference = []
        self.outputs = []
        self.busy = 0.0
        self.mismatches = [0] * len(pool)
        self.runs = [0] * len(pool)
        gc.collect()
        gc.freeze()  # the pool and the benchmark's own objects stay out of the timed collections
        self.passes = 0
        stride = [1] * len(pool)
        start = next_reference = perf_counter()
        while not self.passes or perf_counter() - start < seconds:
            for i, item in enumerate(pool):
                if self.passes % stride[i]:
                    continue
                if perf_counter() >= next_reference:
                    t = perf_counter()
                    reference_loop()
                    next_reference = perf_counter()
                    self.reference.append(next_reference - t)
                    next_reference += REFERENCE_EVERY_S
                self.runs[i] += 1
                t0 = perf_counter()
                try:
                    got, first = op(item)
                    t1 = perf_counter()
                except Exception as exc:  # a failed operation is counted, and the run goes on
                    got = exc
                else:
                    self.busy += t1 - t0
                    self.index.append(i)
                    self.seconds.append(t1 - t0)
                    self.first.append(first if timed_first[i] and first is not None else math.nan)
                    self.reading.append(len(self.reference) - 1)
                if not self.passes:
                    self.outputs.append(got)
                elif isinstance(got, Exception) or got != self.outputs[i]:
                    self.mismatches[i] += 1
            if spread_heavy and not self.passes:
                eighth = (perf_counter() - start) / 8
                took = dict(zip(self.index, self.seconds))
                stride = [max(1, math.ceil(took[i] / eighth)) if i in took else 1 for i in range(len(pool))]
            self.passes += 1
        self.elapsed = perf_counter() - start
        self.attempted = sum(self.runs)
        gc.unfreeze()

    def _medians(self, values) -> list:
        r, w = self.reference, REFERENCE_WINDOW
        scale = [REFERENCE_S / statistics.median(r[max(0, j - w) : j + w + 1]) for j in range(len(r))]
        per_input = [[] for _ in range(self.size)]
        for i, value, j in zip(self.index, values, self.reading):
            if not math.isnan(value):
                per_input[i].append(value * scale[j])
        return sorted(statistics.median(v) for v in per_input if v)

    def latencies(self) -> list:
        """Each input's median time, scaled to the reference speed, in ascending order."""
        return self._medians(self.seconds)

    def first_lines(self) -> list:
        return self._medians(self.first)


def gate(pool, check, runs) -> list:
    """Check every input's output; each failing input is listed with its reasons and count."""
    failures = []
    for i, item in enumerate(pool):
        base = runs[0].outputs[i]
        if isinstance(base, Exception):
            problems = [f"raised {type(base).__name__}: {base}"]
        else:
            try:
                problems = check(item, base)
            except Exception as exc:  # the check itself hit a library error on this output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        later = [run for run in runs[1:] if run.outputs[i] != base]
        if problems or later:
            count = sum(r.runs[i] for r in runs)
        else:
            count = sum(r.mismatches[i] for r in runs)
            problems = ["output differs between passes"] if count else []
        if count:
            problems = problems or ["output differs between the untraced and traced runs"]
            failures.append({"input": repr(item)[:300], "problems": problems, "failed": count})
    return failures


def tail(latency: list) -> tuple:
    """The highest percentile with at least 10 inputs above it (the median for fewer than 22)."""
    n = len(latency)
    rank = max((n - 1) // 2, n - 11)
    return latency[rank], 100.0 * (rank + 1) / n


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(args) -> dict:
    w = load_library()
    if args.workload not in w.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)}")
    workload = w.WORKLOADS[args.workload]
    pool = workload.build(args.seed, args.tiny)
    record = {"environment": environment(args), "pool": len(pool), "profile": workload.input_profile(pool)}
    env = w.cli_env()
    if args.trace:
        from tracer import Tracer

        untraced = Run(pool, workload.op, args.seconds / 2, workload.first_line)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Run(pool, workload.op, args.seconds / 2, workload.first_line)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        metrics = {
            "cli.interp_ms": wall_ms("pass", env),
            "cli.import_ms": 1000 * import_seconds("tunnelslopes.cli", env),
            "cli.main.self_ms": 1000 * tracer.value("cli.main", "self_s") / traced.passes,
            "op.busy_s": traced.busy / traced.passes,
            "trace_overhead": sum(traced.latencies()) / sum(untraced.latencies()),
        }
        for name in PER_LAYER:
            if name not in metrics:
                function, stat = name.rsplit(".", 1)
                metrics[name] = tracer.value(function, stat) / traced.passes
        units = PER_LAYER
        record["functions"] = tracer.table()
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.tsv"
        tracer.write_spans(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    else:
        setup = import_seconds(workload.entry, env, scaled=True)
        run = Run(pool, workload.op, args.seconds, workload.first_line, spread_heavy=True)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs = [run]
        latency = run.latencies()
        tail_s, pct = tail(latency) if latency else (0.0, 0.0)
        metrics = {
            "setup_s": setup,
            "ops_per_s": len(latency) / sum(latency) if latency else 0.0,
            "latency_p50_ms": 1000 * median(latency),
            "latency_tail_ms": 1000 * tail_s,
            "first_line_ms": 1000 * median(run.first_lines()),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        record["latency_tail"] = {"percentile": pct, "inputs": len(latency), "passes": run.passes}
    failures = gate(pool, workload.check, runs)
    attempted = sum(r.attempted for r in runs)
    record["runs"] = [{"passes": r.passes, "seconds": r.elapsed, "operations": r.attempted} for r in runs]
    failed = sum(f["failed"] for f in failures)
    record["error_rate"] = failed / attempted
    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(args.workload, record, path)
    return result


def report(name: str, record: dict, path: Path) -> None:
    env = record["environment"]
    print(
        f"{name}: seed {env['seed']}, python {env['python']}, nproc {env['nproc']}, "
        f"{env['platform']}, commit {env['commit']}"
    )
    print(f"  input profile: {json.dumps(record['profile'])}")
    for metric, entry in record["result"]["metrics"].items():
        print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    if "latency_tail" in record:
        tail_info = record["latency_tail"]
        print(
            f"  latency_tail_ms is p{tail_info['percentile']:.4g} of {tail_info['inputs']} inputs, "
            f"each the median of up to {tail_info['passes']} passes"
        )
    result = record["result"]
    print(f"  error_rate {record['error_rate']:.6g} ratio ({result['failed']} of {result['attempted']} failed)")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure['failed']}x {failure['input']}: {'; '.join(failure['problems'])}")
    print(f"  record: {path.relative_to(ROOT)}")


def run_all(args) -> None:
    """Every workload in its own fresh interpreter, one after another."""
    load_library()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            fail(f"{name} exited with {done.returncode}: {done.stderr.strip()}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all' (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few inputs per workload, for the smoke test")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        result = run_workload(args)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
