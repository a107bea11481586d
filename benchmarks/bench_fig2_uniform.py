"""Benchmark harness regenerating Fig. 2 (bandwidth and energy bars)."""

from repro.experiments import fig2_uniform


def test_fig2_uniform_random(regenerate, bench_pattern):
    """Regenerate the Fig. 2 rows and check the headline ordering."""
    result = regenerate("fig2", pattern=bench_pattern)
    print()
    print(fig2_uniform.format_report(result))
    # Shape check: the wireless system must deliver the lowest average
    # packet energy of the three architectures (the paper's headline claim).
    assert result.wireless_wins_energy()
    # And it must not lose to the substrate baseline on bandwidth.
    from repro.core.config import Architecture

    wireless = result.metrics[Architecture.WIRELESS]
    substrate = result.metrics[Architecture.SUBSTRATE]
    assert wireless.bandwidth_gbps_per_core >= substrate.bandwidth_gbps_per_core
