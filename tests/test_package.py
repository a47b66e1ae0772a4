import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import tunnelslopes

from test_convert import perfbench_workloads


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(tunnelslopes).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(tunnelslopes.__all__) == public


def test_cli_import_loads_no_heavy_standard_modules():
    # dataclasses (which loads inspect, ast, dis and tokenize) and typing cost
    # a fresh process more than the package itself; -S keeps site from
    # loading them first.
    heavy = "{'dataclasses', 'inspect', 'typing'}"
    code = f"import sys, tunnelslopes.cli; print(*sorted({heavy} & set(sys.modules)))"
    src = Path(tunnelslopes.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "\n"


def test_benchmark_operations_run():
    # perfbench's checks call names the package itself does not need, such
    # as SL2Matrix.determinant: removing one fails here, not only there.
    workloads = perfbench_workloads()
    for workload in workloads.WORKLOADS.values():
        for item in workload.build(1, True)[:20]:
            outputs, _ = workload.op(item)
            assert workload.check(item, outputs) == [], (workload.name, item)
