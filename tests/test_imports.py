"""Each subcommand loads only what it runs.

``import ofi_audit`` loads no submodule: each root name loads its own
when it is first used. The CLI imports each module where a command runs
it, so ``--version``, ``--help`` and a usage error load no module of the
package but the CLI, nor ``dataclasses`` or ``fractions``; ``dist``
loads no audit-side module, ``verify`` none of ``audit``'s input or
output, and ``audit`` loads ``heatmap`` only for a heatmap output.

Every subcommand runs on the standard library: no module of the
package, and no test, imports numpy. No output needs the ``xml.sax`` ->
``urllib`` -> ``http``/``email``/``ssl`` chain. Each case runs in a
fresh interpreter, because this process has loaded every module of the
package. The CLI takes no verdict function from ``metrics``: it reads
every verdict off ``build_report``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ofi_audit

SRC = Path(__file__).parent.parent / "src"
TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"

#: Modules that no invocation may load.
HEAVY = ("numpy", "xml.sax", "urllib.request", "http.client", "email", "ssl")

# the probes' preamble, run alone by BARE: the modules it loads, those
# of ``site`` included, are loaded before any invocation starts
PREAMBLE = "import json, sys\n"
BARE = PREAMBLE + "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"

# runs the CLI (or nothing, for a bare import) and prints the loaded
# module names; --version exits through SystemExit
PROBE = PREAMBLE + """\
import ofi_audit
if len(sys.argv) > 1:
    from ofi_audit.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def loaded_modules(*argv: str, cwd: Path, probe: str = PROBE) -> set[str]:
    """The modules loaded by the end of ``probe``."""
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare(tmp_path_factory) -> set[str]:
    return loaded_modules(cwd=tmp_path_factory.mktemp("bare"), probe=BARE)


def added_modules(*argv: str, cwd: Path, bare: set[str]) -> set[str]:
    """The modules an invocation loads beyond the probe preamble's."""
    return loaded_modules(*argv, cwd=cwd) - bare


def package(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "ofi_audit"}


#: The package modules that the audit side's commands run.
AUDIT_SIDE = {"ofi_audit", "ofi_audit.cli", "ofi_audit.audit", "ofi_audit.formatting",
              "ofi_audit.ingestion", "ofi_audit.metrics"}


@pytest.mark.parametrize("argv, expected", [
    ((), {"ofi_audit"}),
    (("--version",), {"ofi_audit", "ofi_audit.cli"}),
    (("--help",), {"ofi_audit", "ofi_audit.cli"}),
    (("dist", "--help"), {"ofi_audit", "ofi_audit.cli"}),
    (("scenario", "--help"), {"ofi_audit", "ofi_audit.cli"}),
    (("verify", "--help"), {"ofi_audit", "ofi_audit.cli"}),
    (("dist",), {"ofi_audit", "ofi_audit.cli"}),
    (("audit", "--input", "in.csv", "--sample", "x"), {"ofi_audit", "ofi_audit.cli"}),
    (("dist", "--n", "3"),
     {"ofi_audit", "ofi_audit.cli", "ofi_audit.combinatorics", "ofi_audit.formatting"}),
    (("verify", "--n-max", "3"),
     {"ofi_audit", "ofi_audit.cli", "ofi_audit.combinatorics", "ofi_audit.exhaustive",
      "ofi_audit.metrics", "ofi_audit.verification"}),
    (("scenario", "1", "0", "0", "5", "7", "0", "1", "10"), AUDIT_SIDE),
    (("audit", "--input", str(FIXTURES / "scenario_a.csv"), "--out-report", "report.json",
      "--out-grid-csv", "grid"), AUDIT_SIDE),
    (("audit", "--input", str(FIXTURES / "scenario_a.csv"), "--out-report", "report.json",
      "--out-heatmap-di", "di.svg"), AUDIT_SIDE | {"ofi_audit.heatmap"}),
], ids=["import", "version", "help", "dist-help", "scenario-help", "verify-help",
        "usage-error", "bad-argument", "dist", "verify", "scenario", "audit", "audit-heatmap"])
def test_each_invocation_loads_only_the_package_modules_it_runs(tmp_path, bare, argv, expected):
    added = added_modules(*argv, cwd=tmp_path, bare=bare)
    assert package(added) == expected
    if package(added) <= {"ofi_audit", "ofi_audit.cli"}:
        # nor the dataclasses -> inspect/ast/dis chain, nor Fraction's decimal
        assert added.isdisjoint({"dataclasses", "fractions"})
    if argv[:1] == ("audit",):
        # without --sample, no random
        assert "random" not in added


@pytest.mark.parametrize("argv", [
    (),
    ("--version",),
    ("scenario", "1", "0", "0", "5", "7", "0", "1", "10"),
    ("audit", "--input", str(FIXTURES / "scenario_a.csv"), "--out-report", "report.json",
     "--out-heatmap-ofi", "ofi.svg", "--out-grid-csv", "grid"),
    ("dist", "--n", "3"),
    ("verify", "--n-max", "3"),
], ids=["import", "version", "scenario", "audit", "dist", "verify"])
def test_no_command_loads_a_heavy_module(tmp_path, argv):
    assert loaded_modules(*argv, cwd=tmp_path).isdisjoint(HEAVY)
    if argv[:1] == ("audit",):
        assert {p.name for p in tmp_path.iterdir()} == {
            "report.json", "ofi.svg", "grid.ofi.csv", "grid.di.csv"
        }


#: Each root name and the submodule that defines it.
HOMES = {
    "BinaryConfusion": "metrics",
    "aggregate": "ingestion",
    "b_stats": "combinatorics",
    "build_report": "audit",
    "disparate_impact": "metrics",
    "flip_polarity": "ingestion",
    "four_fifths_verdict": "metrics",
    "iter_records": "ingestion",
    "marginal_benefit_distribution": "combinatorics",
    "ofi": "metrics",
    "ofi_verdict": "metrics",
    "parse_report": "audit",
    "serialize_report": "audit",
}


def test_each_root_name_is_its_defining_modules_object():
    assert set(ofi_audit.__all__) == set(HOMES)
    for name, home in HOMES.items():
        assert getattr(ofi_audit, name) is getattr(importlib.import_module(f"ofi_audit.{home}"), name)
    assert set(ofi_audit.__all__) <= set(dir(ofi_audit))


def test_the_root_resolves_no_other_name():
    from ofi_audit import cli

    assert cli is sys.modules["ofi_audit.cli"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ofi_audit.no_such_name
    with pytest.raises(ImportError):
        from ofi_audit import no_such_name  # noqa: F401


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


def test_no_module_of_the_package_imports_numpy():
    # nor any test: the suite runs as an install without numpy runs it
    importers = set()
    for path in sorted([*(SRC / "ofi_audit").glob("*.py"), *TESTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == set()


def test_only_the_child_primitive_forks_pipes_waits_kills_or_marshals():
    # the CLI's three forks share one child-process protocol: one message,
    # one rule for a failed child, one for killing and waiting
    tree = ast.parse((SRC / "ofi_audit" / "cli.py").read_text(encoding="utf-8"))
    calls = {"fork", "pipe", "waitpid", "kill", "_exit"}
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "marshal")
    ]
    homes = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "os" and node.attr in calls
        or isinstance(node, ast.Name) and node.id == "marshal"
    }
    assert homes == {"_child"}


def test_audit_opens_its_input_path_once():
    # the split's two ranges and the one pass all read the file that
    # _open_input opened, so a file renamed over the path is not read
    tree = ast.parse((SRC / "ofi_audit" / "cli.py").read_text(encoding="utf-8"))
    opens = {
        (getattr(top, "name", None), ast.unparse(node.args[0]))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    }
    assert opens == {("_open_input", "path"), ("_write_text", "path"),
                     ("_child", "read_fd"), ("_child", "write_fd")}
    # nor is a path opened or stat'ed through os or io but an output's
    homes = {
        (getattr(top, "name", None), node.value.id, node.attr)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("os", "io") and node.attr in ("open", "stat", "lstat", "FileIO")
    }
    assert homes == {("_check_output", "os", "stat")}
    counters = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("_count_split", "_count_tail"):
        assert counters[name].args.args[0].arg == "fd"
