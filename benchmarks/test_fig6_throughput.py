"""Fig. 6 — Throughput under 1 Gbps vs 100 Gbps (Baseline, 4 MB writes).

Paper claim: raising link speed from 1 G to 100 G raises throughput by
roughly the ratio of the CPU increase (24 % → 70 %), i.e. the 1 G link
caps throughput, while at 100 G the storage path saturates first.
"""

from conftest import BENCH_CLIENTS, BENCH_DURATION, publish

from repro.bench import experiment_fig5, fig5_row_dict, render_fig6


def test_fig6_throughput(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: experiment_fig5(duration=BENCH_DURATION,
                                clients=BENCH_CLIENTS),
        rounds=1, iterations=1,
    )
    publish(results_dir, "fig6_throughput", render_fig6(rows),
            {"rows": [fig5_row_dict(r) for r in rows]})

    by_label = {r.label: r for r in rows}
    thr_1g = by_label["1G"].throughput_bytes
    thr_100g = by_label["100G"].throughput_bytes
    # 1 G is link-bound: cannot exceed 125 MB/s of client traffic.
    assert thr_1g < 125e6
    assert thr_1g > 60e6  # but achieves a healthy fraction of the link
    # 100 G lifts throughput well past the 1 G ceiling (paper: ~4x).
    assert thr_100g > 3 * thr_1g
    # ... yet is far from saturating the 100 G link: the bottleneck
    # moved to the storage nodes, exactly the paper's point.
    assert thr_100g < 0.10 * 100e9 / 8
