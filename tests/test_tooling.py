import ast
import re
from pathlib import Path

import pytest

import iqcontrol

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def test_pyproject_version_is_package_version():
    # read with a regex: tomllib is Python 3.11+, and the package supports 3.10
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    assert match is not None
    assert match[1] == iqcontrol.__version__


def test_readme_report_example_version_is_package_version():
    # the README's report example is written by hand
    versions = re.findall(r'"version": "([^"]+)"', (ROOT / "README.md").read_text())
    assert versions == [iqcontrol.__version__]


def test_sources_found():
    assert ROOT / "src" / "iqcontrol" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    # requires-python is >= 3.10: no syntax newer than 3.10's grammar
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
