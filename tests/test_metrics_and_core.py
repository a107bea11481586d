"""Tests of metrics, comparisons, system configuration and the experiment layer."""

import pytest

from repro.core.comparison import ArchitectureMetrics, compare, percentage_gain
from repro.core.config import Architecture, SystemConfig, paper_1c4m, paper_4c4m, paper_8c4m
from repro.core.architectures import build_system
from repro.experiments.cli import build_parser
from repro.scenario.fidelity import FIDELITIES, get_fidelity
from repro.metrics import (
    LoadPoint,
    LoadSweepResult,
    default_load_points,
    format_heading,
    format_percentage,
    format_table,
    run_load_sweep,
)
from repro.noc.stats import SimulationResult

from repro.testing import small_system_config


def _result(accepted_flits=0.05, latency=100.0, energy_pj=5000.0, load=0.001):
    """A synthetic SimulationResult with chosen headline metrics."""
    cycles, warmup, cores = 1000, 100, 16
    result = SimulationResult(
        cycles=cycles, warmup_cycles=warmup, num_cores=cores,
        nominal_packet_length_flits=8,
    )
    measured = cycles - warmup
    result.flits_ejected_measured = int(accepted_flits * cores * measured)
    packets = max(1, result.flits_ejected_measured // 8)
    result.packets_delivered_measured = packets
    result.packets_delivered = packets
    result.packets_generated = packets
    result.latencies_cycles = [int(latency)] * packets
    result.packet_energies_pj = [energy_pj] * packets
    result.packet_hops = [4] * packets
    result.energy.link_pj = energy_pj * packets
    result.offered_load_packets_per_core_per_cycle = load
    return result


class TestSimulationResultMetrics:
    def test_bandwidth_conversion(self):
        result = _result(accepted_flits=0.1)
        expected = 0.1 * 32 * 2.5e9 / 1e9
        assert result.bandwidth_gbps_per_core() == pytest.approx(expected, rel=0.01)

    def test_latency_percentile(self):
        result = _result(latency=200)
        assert result.latency_percentile_cycles(50) == 200
        with pytest.raises(ValueError):
            result.latency_percentile_cycles(150)
        empty = SimulationResult(cycles=100, warmup_cycles=10, num_cores=4)
        assert empty.latency_percentile_cycles(50) == 0.0
        with pytest.raises(ValueError):
            empty.latency_percentile_cycles(150)

    def test_summary_keys(self):
        summary = _result().summary()
        assert "bandwidth_gbps_per_core" in summary
        assert "avg_packet_energy_nj" in summary

    def test_system_energy_unbiased_by_survivors(self):
        result = _result(energy_pj=1000.0)
        assert result.system_packet_energy_pj() > 0


class TestLoadSweep:
    def _sweep(self):
        points = [
            LoadPoint(0.001, _result(accepted_flits=0.008, latency=80, load=0.001)),
            LoadPoint(0.002, _result(accepted_flits=0.016, latency=120, load=0.002)),
            LoadPoint(0.004, _result(accepted_flits=0.02, latency=500, load=0.004)),
        ]
        return LoadSweepResult(points=points)

    def test_peak_and_sustainable_bandwidth(self):
        sweep = self._sweep()
        assert sweep.peak_bandwidth_gbps_per_core() >= sweep.sustainable_bandwidth_gbps_per_core()
        assert sweep.sustainable_bandwidth_gbps_per_core() > 0

    def test_latency_curve_and_zero_load(self):
        sweep = self._sweep()
        curve = sweep.latency_curve()
        assert len(curve) == 3
        assert sweep.zero_load_latency_cycles() == pytest.approx(80.0)

    def test_saturation_load_detection(self):
        sweep = self._sweep()
        assert sweep.saturation_load(latency_factor=3.0) == pytest.approx(0.004)

    def test_run_load_sweep_orders_points(self):
        sweep = run_load_sweep(lambda load: _result(load=load), [0.004, 0.001])
        assert sweep.loads == sorted(sweep.loads)

    def test_default_load_points_monotonic(self):
        points = default_load_points()
        assert points == sorted(points)
        assert points[0] < points[-1]
        with pytest.raises(ValueError):
            default_load_points(low=0.1, high=0.01)


class TestComparison:
    def test_percentage_gain_directions(self):
        assert percentage_gain(12.0, 10.0, higher_is_better=True) == pytest.approx(20.0)
        assert percentage_gain(8.0, 10.0, higher_is_better=False) == pytest.approx(20.0)
        assert percentage_gain(10.0, 0.0, higher_is_better=True) == 0.0

    def test_compare_report(self):
        wireless = ArchitectureMetrics("wireless", 12.0, 6.0, 80.0)
        interposer = ArchitectureMetrics("interposer", 10.0, 10.0, 100.0)
        gains = compare(wireless, interposer)
        assert gains.bandwidth_gain_pct == pytest.approx(20.0)
        assert gains.energy_gain_pct == pytest.approx(40.0)
        assert gains.latency_gain_pct == pytest.approx(20.0)
        assert set(gains.as_dict()) == {
            "bandwidth_gain_pct", "energy_gain_pct", "latency_gain_pct"
        }


class TestReportFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xxx", 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_percentage_and_heading(self):
        assert format_percentage(12.345) == "+12.3%"
        assert "=" in format_heading("Title")


class TestSystemConfig:
    def test_paper_naming(self):
        assert paper_4c4m(Architecture.WIRELESS).name == "4C4M (Wireless)"
        assert paper_1c4m(Architecture.INTERPOSER).name == "1C4M (Interposer)"
        assert paper_8c4m(Architecture.SUBSTRATE).name == "8C4M (Substrate)"

    def test_total_cores_constant_across_disintegration(self):
        assert paper_1c4m().total_cores == paper_4c4m().total_cores == paper_8c4m().total_cores == 64

    def test_with_architecture_and_wireless(self):
        config = paper_4c4m(Architecture.WIRELESS)
        interposer = config.with_architecture(Architecture.INTERPOSER)
        assert interposer.architecture == Architecture.INTERPOSER
        tuned = config.with_wireless(num_channels=2)
        assert tuned.network.wireless.num_channels == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_chips=0)
        with pytest.raises(ValueError):
            SystemConfig(cores_per_wi=0)


class TestBuildSystem:
    def test_build_all_architectures(self):
        config = small_system_config()
        for architecture in Architecture:
            system = build_system(config.with_architecture(architecture))
            assert system.config.architecture == architecture
            assert system.num_cores == 8
            inventory = system.link_inventory()
            assert inventory.get("mesh", 0) > 0

    def test_wireless_system_reports_area_overhead(self, small_wireless_system):
        assert small_wireless_system.num_wireless_interfaces == 4
        assert small_wireless_system.wireless_area_overhead_mm2() == pytest.approx(1.2)

    def test_wired_systems_have_no_wis(self, small_interposer_system, small_substrate_system):
        assert small_interposer_system.num_wireless_interfaces == 0
        assert small_substrate_system.num_wireless_interfaces == 0

    def test_offchip_link_counts_differ_by_architecture(
        self, small_interposer_system, small_substrate_system, small_wireless_system
    ):
        assert small_substrate_system.offchip_link_count() >= 3
        assert small_interposer_system.offchip_link_count() >= 3
        assert small_wireless_system.offchip_link_count() >= 3


class TestExperimentPlumbing:
    def test_fidelities_available(self):
        assert set(FIDELITIES) == {"fast", "default", "paper"}
        assert get_fidelity("paper").cycles == 10000
        with pytest.raises(KeyError):
            get_fidelity("ludicrous")

    def test_fidelity_simulation_config(self):
        level = get_fidelity("fast")
        assert level.simulation_config.cycles == level.cycles

    def test_cli_parser(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--fidelity", "fast"])
        assert args.experiment == "fig2"
        assert args.fidelity == "fast"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])
