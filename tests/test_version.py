"""The package version is stated once per release, in two places that agree."""
import re
from pathlib import Path

import noisecalc

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which needs Python 3.11
    text = _PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M).group(1)
    assert version == noisecalc.__version__
