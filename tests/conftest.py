"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import semdef


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment with the imported semdef's parent directory first on
    PYTHONPATH, so a child interpreter imports the same package whether it
    is installed or only on this process's path."""
    src = str(Path(semdef.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
