"""The package version has one source: ``repro.__version__``.

Cache keys, suite keys, job dedup keys, the run ledger and the service's
``/health`` all read ``repro.__version__``; packaging metadata must not
carry a second, drifting copy.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_version_from_package():
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
