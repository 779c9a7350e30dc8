"""The README's Library example runs, the package root exports its names,
and the README states the report schema that reports carry, the
enumeration guard that `verify` applies, the bound of its stream
cross-check and the size from which it streams in a forked child, the
group count from which `audit` forks its heatmap writer and the file
size from which it counts an input in two processes."""

import ast
import json
import re
import shutil
from pathlib import Path

import ofi_audit
from ofi_audit.cli import FORK_MIN_GROUPS, SPLIT_MIN_BYTES, STREAM_CHILD_MIN
from ofi_audit.verification import ENUMERATION_MAX, STREAM_CHECK_MAX

README = Path(__file__).parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README Library section has no python block"
    return match.group(1)


def imported_names(code: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "ofi_audit"
        for alias in node.names
    }


def test_library_example_runs(tmp_path, fixtures_dir, monkeypatch, capsys):
    shutil.copy(fixtures_dir / "scenario_a.csv", tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), "README.md", "exec"), {})
    # two reports: the table as read and flipped
    assert capsys.readouterr().out.count('"pairs"') == 2


def test_root_exports_are_the_documented_names():
    assert set(ofi_audit.__all__) == imported_names(library_block()) | {"parse_report"}
    assert all(hasattr(ofi_audit, name) for name in ofi_audit.__all__)


def test_stated_schema_is_the_one_reports_carry():
    stated = set(re.findall(r'"?schema"?:? (\d+)', README.read_text(encoding="utf-8")))
    lines = ["group,label,prediction", "a,1,1", "b,0,0"]
    table = ofi_audit.aggregate(ofi_audit.iter_records(lines))
    written = json.loads(ofi_audit.serialize_report(ofi_audit.build_report(table)))["schema"]
    assert stated == {str(written)}


def test_stated_guard_is_the_one_verify_applies():
    stated = set(re.findall(r"guarded at `--n-max (\d+)`", README.read_text(encoding="utf-8")))
    assert stated == {str(ENUMERATION_MAX)}


def test_stated_stream_bound_is_the_one_verify_applies():
    stated = set(re.findall(r"Up to `n = (\d+)`", README.read_text(encoding="utf-8")))
    assert stated == {str(STREAM_CHECK_MAX)}


def test_stated_fork_threshold_is_the_one_audit_applies():
    stated = set(re.findall(r"From (\d+) groups on", README.read_text(encoding="utf-8")))
    assert stated == {str(FORK_MIN_GROUPS)}


def test_stated_split_size_is_the_one_audit_applies():
    stated = set(re.findall(r"file of at least (\d+) bytes", README.read_text(encoding="utf-8")))
    assert stated == {str(SPLIT_MIN_BYTES)}


def test_stated_stream_child_size_is_the_one_verify_applies():
    text = README.read_text(encoding="utf-8")
    stated = set(re.findall(r"(?:From size|the sizes from|the sizes below) (\d+)", text))
    assert stated == {str(STREAM_CHILD_MIN)}
