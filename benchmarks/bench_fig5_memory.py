"""Benchmark harness regenerating Fig. 5 (gains vs memory-access proportion)."""

from repro.experiments import fig5_memory_traffic


def test_fig5_memory_traffic_gains(regenerate):
    """Regenerate the Fig. 5 gain bars and check the headline claims."""
    result = regenerate("fig5")
    print()
    print(fig5_memory_traffic.format_report(result))
    # Energy savings must persist over the whole memory-access sweep.
    assert result.energy_gains_all_positive()
