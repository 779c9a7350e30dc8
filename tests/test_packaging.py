"""The package metadata states what each command needs: every subcommand
runs on the standard library, so the package requires nothing. numpy is
only the ``test`` extra's, for the benchmark harness; no test and no
subcommand imports it."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~\[;(]", requirement, maxsplit=1)[0].lower()


def string_lists(text: str) -> dict[str, dict[str, list[str]]]:
    # the lists of strings in each table, read from this file's own
    # layout: "key = [...]" at the start of a line, a list that may span
    # lines but holds no "]", so Python 3.10, which has no tomllib, reads
    # them too
    tables: dict[str, dict[str, list[str]]] = {}
    for header, key, items in re.findall(r'(?m)^\[([\w.-]+)\]$|^([\w-]+) = \[([^\]]*)\]', text):
        if header:
            table = tables.setdefault(header, {})
        else:
            table[key] = re.findall(r'"([^"]*)"', items)
    return tables


def test_numpy_is_only_an_extra_of_the_tests():
    text = PYPROJECT.read_text(encoding="utf-8")
    tables = string_lists(text)
    dependencies = tables["project"]["dependencies"]
    extras = tables["project.optional-dependencies"]
    try:
        import tomllib
    except ImportError:  # new in 3.11
        pass
    else:
        project = tomllib.loads(text)["project"]
        assert project["dependencies"] == dependencies
        assert project["optional-dependencies"] == extras
    assert dependencies == []
    numpy = {
        extra
        for extra, requirements in extras.items()
        if any(requirement_name(r) == "numpy" for r in requirements)
    }
    assert numpy == {"test"}
