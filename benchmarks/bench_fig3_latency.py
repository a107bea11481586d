"""Benchmark harness regenerating Fig. 3 (latency vs injection load)."""

from repro.experiments import fig3_latency


def test_fig3_latency_vs_load(regenerate, bench_pattern):
    """Regenerate the Fig. 3 latency curves and check their shape."""
    result = regenerate("fig3", pattern=bench_pattern)
    print()
    print(fig3_latency.format_report(result))
    from repro.core.config import Architecture

    # Every point of every curve is a real latency measurement.
    for architecture, sweep in result.sweeps.items():
        for _, latency in sweep.latency_curve():
            assert latency > 0, architecture
    # The architectures that do not saturate at the lowest loads (wireless
    # and interposer) must show latency rising with offered load; the
    # substrate baseline saturates almost immediately, so its curve is
    # dominated by the packets that still complete and is not monotone.
    for architecture in (Architecture.WIRELESS, Architecture.INTERPOSER):
        curve = result.sweeps[architecture].latency_curve()
        assert curve[-1][1] >= curve[0][1] * 0.8, architecture
