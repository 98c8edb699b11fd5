"""Fig. 9 — Normalized DoCeph latency breakdown.

Paper claims: DMA-wait's *share* of total latency falls from ~44.8 % at
1 MB to ~11.9 % at 16 MB — the pipelining effect is maximized at large
block sizes, which is why the DoCeph/Baseline gap closes.
"""

from conftest import BENCH_CLIENTS, BENCH_DURATION, publish

from repro.bench import experiment_table3, render_fig9, table3_row_dict


def test_fig9_normalized_breakdown(benchmark, sweep, results_dir):
    rows = benchmark.pedantic(
        lambda: experiment_table3(duration=BENCH_DURATION,
                                  clients=BENCH_CLIENTS),
        rounds=1, iterations=1,
    )
    publish(results_dir, "fig9_normalized_breakdown", render_fig9(rows),
            {"rows": [table3_row_dict(r) for r in rows]})

    shares = [r.normalized()["dma_wait"] for r in rows]
    # DMA-wait is a major component at 1 MB (paper: 44.8 %) ...
    assert shares[0] > 0.30
    # ... and a minor one at 16 MB (paper: 11.9 %).
    assert shares[-1] < 0.25
    # The 1 MB share is the maximum and 16 MB is well below it.
    assert shares[0] == max(shares)
    assert shares[0] > 2 * shares[-1]

    # Others' share *grows* with size (paper: 48 % → 85 %).
    others = [r.normalized()["others"] for r in rows]
    assert others[-1] > others[0]
