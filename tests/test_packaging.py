"""The package metadata states what each command needs: ``audit``,
``scenario`` and ``dist`` run on the standard library, so the package
requires nothing, and numpy, which only ``verify``'s enumeration kernel
imports, is the ``verify`` extra's, and the ``test`` extra's, whose
tests and probes import it."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~\[;(]", requirement, maxsplit=1)[0].lower()


def test_numpy_is_only_an_extra_of_verify_and_the_tests():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    numpy = {
        extra: [r for r in requirements if requirement_name(r) == "numpy"]
        for extra, requirements in project["optional-dependencies"].items()
    }
    assert {extra for extra, found in numpy.items() if found} == {"verify", "test"}
    # one requirement each, with the same version floor
    assert len(numpy["verify"]) == 1 and numpy["test"] == numpy["verify"]
