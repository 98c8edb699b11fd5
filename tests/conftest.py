"""Shared fixtures for the test suite."""

import pathlib

import pytest

from repro.sim import Environment

SHIPPED_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def env():
    return Environment()


@pytest.fixture(scope="session")
def shipped_src_report():
    """The static lint of the shipped ``src/`` tree, run once per session:
    the engine-level and the CLI-level acceptance tests both read it."""
    from repro.lint import lint_paths

    return lint_paths([SHIPPED_SRC])
