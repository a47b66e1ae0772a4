import os
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelslopes

from test_convert import perfbench_workloads

SRC = Path(tunnelslopes.__file__).resolve().parents[1]
SUBMODULES = ("contfrac", "convert", "oracle", "rationals", "sl2", "tunnels", "twobridge")


def fresh(code: str) -> str:
    """The stdout of a fresh interpreter that runs the code on this checkout.

    -S keeps site from loading modules first, so the code sees only what
    the package itself imports."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_bare_import_loads_no_submodule():
    code = "import sys, tunnelslopes; print(*sorted(m for m in sys.modules if m.startswith('tunnelslopes.')))"
    assert fresh(code) == "\n"


def test_each_public_name_is_its_modules_object():
    # The name is looked up on the package first, so it is resolved lazily,
    # then compared with the object its home module binds. A class or
    # function must also have been defined there, not imported into it.
    code = (
        "import importlib, tunnelslopes\n"
        "for name in tunnelslopes.__all__:\n"
        "    value = getattr(tunnelslopes, name)\n"
        "    home = importlib.import_module('tunnelslopes.' + tunnelslopes._HOME[name])\n"
        "    print(name, home.__name__, getattr(home, name) is value, getattr(value, '__module__', '-'))\n"
    )
    lines = [line.split() for line in fresh(code).splitlines()]
    assert [line[0] for line in lines] == tunnelslopes.__all__
    for name, home, same, defined in lines:
        assert home.removeprefix("tunnelslopes.") in SUBMODULES, name
        assert same == "True", name
        assert defined == home or not defined.startswith("tunnelslopes"), name


def test_dir_lists_every_public_name_before_use():
    code = "import tunnelslopes; print(set(tunnelslopes.__all__) <= set(dir(tunnelslopes)))"
    assert fresh(code) == "True\n"


def test_star_import_binds_exactly_all():
    # Once every name has been resolved, the package's public, non-module
    # globals are exactly __all__ as well.
    code = (
        "from types import ModuleType\n"
        "import tunnelslopes\n"
        "ns = {}\n"
        "exec('from tunnelslopes import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(tunnelslopes.__all__))\n"
        "public = {n for n, v in vars(tunnelslopes).items() if not n.startswith('_') and not isinstance(v, ModuleType)}\n"
        "print(public == set(tunnelslopes.__all__))\n"
    )
    assert fresh(code) == "True\nTrue\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'tunnelslopes' has no attribute 'st_converts'$"):
        tunnelslopes.st_converts
    with pytest.raises(ImportError):
        from tunnelslopes import st_converts  # noqa: F401


def test_submodules_resolve_after_a_bare_import():
    code = f"import tunnelslopes; print(*(getattr(tunnelslopes, m).__name__ for m in {SUBMODULES!r}))"
    assert fresh(code).split() == [f"tunnelslopes.{m}" for m in SUBMODULES]


def test_cli_import_loads_no_heavy_standard_modules():
    # dataclasses (which loads inspect, ast, dis and tokenize) and typing cost
    # a fresh process more than the package itself. Each command imports the
    # package modules it runs, and json only under --json.
    heavy = "{'dataclasses', 'inspect', 'typing', 'json'}"
    package = "{'contfrac', 'sl2', 'convert', 'tunnels', 'twobridge', 'oracle'}"
    code = (
        "import sys, tunnelslopes.cli\n"
        f"print(*sorted({heavy} & set(sys.modules)))\n"
        f"print(*sorted(m for m in {package} if 'tunnelslopes.' + m in sys.modules))\n"
    )
    assert fresh(code) == "\n\n"


@pytest.mark.parametrize(
    "argv, output, unloaded",
    [
        (["convert", "55"], "-55", ("tunnels", "twobridge", "oracle")),
        (["slopes", "33/19"], "[ 1/3 ], 3, 5/3", ("oracle",)),
    ],
)
def test_each_command_loads_only_its_modules(argv, output, unloaded):
    code = (
        "import sys, tunnelslopes.cli\n"
        f"status = tunnelslopes.cli.main({argv!r})\n"
        f"print(status, *sorted(m for m in {unloaded!r} if 'tunnelslopes.' + m in sys.modules), 'json' in sys.modules)\n"
    )
    assert fresh(code) == f"{output}\n0 False\n"


def test_benchmark_operations_run():
    # perfbench's checks call names the package itself does not need, such
    # as SL2Matrix.determinant: removing one fails here, not only there.
    workloads = perfbench_workloads()
    for workload in workloads.WORKLOADS.values():
        for item in workload.build(1, True)[:20]:
            outputs, _ = workload.op(item)
            assert workload.check(item, outputs) == [], (workload.name, item)
