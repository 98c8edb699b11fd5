"""Lost watchdogs leave the heap: it stays within twice the pending peak.

Every proxied transaction arms an RPC watchdog 1-10 s ahead that loses
to its reply within milliseconds.  Left pending to their deadlines the
watchdogs were nearly all of the heap — 734 / 1055 / 1829 / 294 entries
on ``smoke`` / ``doceph`` / ``qos`` / ``fallback`` — and every service
hold sifted through them (DESIGN.md §13).  A lost watchdog is cancelled,
and ``Timeout.cancel`` compacts the heap once cancelled entries may make
up half of it, so after every cancel they are fewer than the live
entries beside them.  This gate drives the ``repro.perf`` scenarios one
``step()`` at a time and checks that the heap never holds more than
twice the scenario's ``peak_pending`` entries (it peaks at 26 / 42 /
50 / 48), while the simulation, its event count and its pending
high-water mark are unchanged.
"""

from __future__ import annotations

import pytest

from repro.perf import run_scenario
from repro.trace import simulation_digest

from .helpers import reference_loop
from .test_perf import GOLDEN

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
    assert deepest[0] <= 2 * env.peak_pending
    assert env.peak_pending == PEAK_PENDING[scenario]
    assert simulation_digest(env) == GOLDEN[(scenario, 0)]["digest"]
