"""Each subcommand loads only what it runs.

numpy serves only ``verify``: ``dist`` computes its closed form and CSV
rows with the standard library, and within the package only
``exhaustive``, home of the enumeration kernel, imports numpy. No output
needs the ``xml.sax`` -> ``urllib`` -> ``http``/``email``/``ssl`` chain.
Each case runs in a fresh interpreter, because this process has long
since loaded numpy. The CLI takes no verdict function from ``metrics``:
it reads every verdict off ``build_report``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"

#: Modules that no invocation other than ``verify`` may load.
HEAVY = ("numpy", "xml.sax", "urllib.request", "http.client", "email", "ssl")

# runs the CLI (or nothing, for a bare import) and prints the loaded
# module names; --version exits through SystemExit
PROBE = """\
import json, sys
import ofi_audit
if len(sys.argv) > 1:
    from ofi_audit.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def loaded_modules(*argv: str, cwd: Path) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    (),
    ("--version",),
    ("scenario", "1", "0", "0", "5", "7", "0", "1", "10"),
    ("audit", "--input", str(FIXTURES / "scenario_a.csv"), "--out-report", "report.json",
     "--out-heatmap-ofi", "ofi.svg", "--out-grid-csv", "grid"),
    ("dist", "--n", "3"),
], ids=["import", "version", "scenario", "audit", "dist"])
def test_audit_side_loads_none_of_the_heavy_modules(tmp_path, argv):
    assert loaded_modules(*argv, cwd=tmp_path).isdisjoint(HEAVY)
    if argv[:1] == ("audit",):
        assert {p.name for p in tmp_path.iterdir()} == {
            "report.json", "ofi.svg", "grid.ofi.csv", "grid.di.csv"
        }


@pytest.mark.parametrize("argv", [("verify", "--n-max", "3")], ids=["verify"])
def test_kernel_subcommands_load_numpy(tmp_path, argv):
    assert "numpy" in loaded_modules(*argv, cwd=tmp_path)


def test_cli_takes_no_verdict_route_from_metrics():
    # scenario and audit judge by build_report's integer rules; the
    # Fraction wrappers are the library's API, not a second CLI route
    tree = ast.parse((SRC / "ofi_audit" / "cli.py").read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("metrics", "ofi_audit.metrics")
        for alias in node.names
    }
    assert names == {"BinaryConfusion", "ThresholdError"}


def test_only_the_enumeration_kernel_imports_numpy():
    # verification and the records check plain ints, tuples and arrays
    importers = set()
    for path in sorted((SRC / "ofi_audit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"exhaustive.py"}
    # and there only the kernel and the running totals over its layers use it
    tree = ast.parse((SRC / "ofi_audit" / "exhaustive.py").read_text(encoding="utf-8"))
    users = {
        getattr(node, "name", None)
        for node in tree.body
        if not isinstance(node, ast.Import)
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id == "np"
    }
    assert users == {"enum_by_sum", "enumerations"}
