"""Benchmark harness regenerating Fig. 6 (application-specific traffic gains)."""

from repro.experiments import fig6_applications


def test_fig6_application_gains(regenerate):
    """Regenerate the Fig. 6 gain bars and check the headline claim."""
    result = regenerate("fig6")
    print()
    print(fig6_applications.format_report(result))
    # The wireless system must reduce the average packet energy for every
    # application (the paper reports a 45% average reduction).
    assert all(g.energy_gain_pct > 0 for g in result.gains.values())
    assert result.average_energy_gain_pct() > 10.0
