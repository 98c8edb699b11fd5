"""Watchdogs wait on the far heap: the hot heap stays a few entries deep.

Every proxied transaction arms an RPC watchdog 1-10 s ahead that almost
never fires, and the 1-s tickers sit beside them; on one heap they were
nearly all of it, and every service hold sifted through them
(DESIGN.md §13).  This gate drives the ``repro.perf`` scenarios one
``step()`` at a time and checks, exactly, that the hot heap never holds
more than :data:`HOT_MAX` entries — on the one-heap store the maxima
were 734 / 1055 / 1829 / 294 on ``smoke`` / ``doceph`` / ``qos`` /
``fallback`` — while the simulation, its event count and its pending
high-water mark are unchanged.
"""

from __future__ import annotations

import pytest

from repro.perf import run_scenario
from repro.trace import simulation_digest

from .helpers import reference_loop
from .test_perf import GOLDEN

#: Bound on the hot heap; the scenarios peak at 9 / 15 / 19 / 15.
HOT_MAX = 32

#: ``peak_pending`` (all containers together) per scenario, seed 0.
PEAK_PENDING = {"smoke": 24, "doceph": 29, "qos": 31, "fallback": 30}


@pytest.mark.parametrize("scenario", sorted(PEAK_PENDING))
def test_hot_heap_stays_shallow(scenario):
    deepest = [0]

    def observe(env) -> None:
        if len(env._queue) > deepest[0]:
            deepest[0] = len(env._queue)

    with reference_loop(observe, single_heap=False):
        env, _ = run_scenario(scenario, seed=0)
    assert deepest[0] <= HOT_MAX
    assert env.peak_pending == PEAK_PENDING[scenario]
    assert simulation_digest(env) == GOLDEN[(scenario, 0)]["digest"]
