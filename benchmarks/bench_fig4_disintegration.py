"""Benchmark harness regenerating Fig. 4 (gains vs chip-to-chip traffic)."""

from repro.experiments import fig4_disintegration


def test_fig4_disintegration_gains(regenerate, bench_pattern):
    """Regenerate the Fig. 4 gain bars and check the headline claims."""
    result = regenerate("fig4", pattern=bench_pattern)
    print()
    print(fig4_disintegration.format_report(result))
    # The wireless system must save packet energy at every disintegration
    # level (the paper reports 37%-65% savings).
    assert result.energy_gains_all_positive()
