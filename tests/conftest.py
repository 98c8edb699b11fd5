"""Shared fixtures for the test suite."""

import pathlib

import pytest
from hypothesis import Phase, settings

from repro.sim import Environment

SHIPPED_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Stops a property test at its first failing example, unshrunk:
#: ``benchmarks/kill_matrix.py`` only asks whether a gate fails, and
#: shrinking a killed kernel mutant's example can take over an hour.
#: Selected with ``--hypothesis-profile=no-shrink``; the default profile
#: is left as it is.
settings.register_profile(
    "no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture(scope="session")
def shipped_src_report():
    """The static lint of the shipped ``src/`` tree, run once per session:
    the engine-level and the CLI-level acceptance tests both read it."""
    from repro.lint import lint_paths

    return lint_paths([SHIPPED_SRC])
