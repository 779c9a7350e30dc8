"""The package metadata states what each command needs: every subcommand
runs on the standard library, so the package requires nothing. numpy is
only the ``test`` extra's, for the benchmark harness; no test and no
subcommand imports it."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~\[;(]", requirement, maxsplit=1)[0].lower()


def test_numpy_is_only_an_extra_of_the_tests():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    numpy = {
        extra
        for extra, requirements in project["optional-dependencies"].items()
        if any(requirement_name(r) == "numpy" for r in requirements)
    }
    assert numpy == {"test"}
