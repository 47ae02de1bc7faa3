"""Software-defined power monitor."""

import pytest

from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig
from repro.telemetry.monitor import PowerMonitor


@pytest.fixture
def setup():
    platform = ContainerOrchestrationPlatform(ClusterConfig(num_servers=2))
    monitor = PowerMonitor(platform)
    return platform, monitor


class TestContainerSampling:
    def test_readings_match_platform(self, setup):
        platform, monitor = setup
        c = platform.launch_container("app", 1)
        c.set_demand_utilization(1.0)
        readings = monitor.sample_containers(0.0)
        assert readings[c.id] == pytest.approx(1.25)
        assert monitor.database.latest(f"container.{c.id}.power_w") == pytest.approx(1.25)

    def test_sampling_records_series_over_time(self, setup):
        platform, monitor = setup
        c = platform.launch_container("app", 1)
        monitor.sample_containers(0.0)
        monitor.sample_containers(60.0)
        series = monitor.database.series(f"container.{c.id}.power_w")
        assert len(series) == 2


class TestAppSampling:
    def test_app_power_and_count(self, setup):
        platform, monitor = setup
        for _ in range(3):
            platform.launch_container("app", 1).set_demand_utilization(1.0)
        readings = monitor.sample_apps(0.0, ["app"])
        assert readings["app"] == pytest.approx(3.75)
        assert monitor.database.latest("app.app.containers") == 3.0

    def test_missing_app_reads_zero(self, setup):
        _, monitor = setup
        readings = monitor.sample_apps(0.0, ["ghost"])
        assert readings["ghost"] == 0.0


class TestPlantRecording:
    def test_plant_series(self, setup):
        _, monitor = setup
        monitor.record_plant(0.0, solar_w=5.0, battery_level_wh=10.0, grid_power_w=2.0)
        assert monitor.database.latest("plant.solar_w") == 5.0
        assert monitor.database.latest("plant.battery_level_wh") == 10.0
        assert monitor.database.latest("plant.grid_power_w") == 2.0

    def test_carbon_series(self, setup):
        _, monitor = setup
        monitor.record_carbon_intensity(0.0, 250.0)
        assert monitor.database.latest("grid.carbon_g_per_kwh") == 250.0

    def test_app_carbon_rate_series(self, setup):
        _, monitor = setup
        monitor.record_app_carbon_rate(0.0, "app", 0.4)
        assert monitor.database.latest("app.app.carbon_rate_mg_s") == 0.4

    def test_cluster_sampling(self, setup):
        platform, monitor = setup
        power = monitor.sample_cluster(0.0)
        assert power == pytest.approx(platform.cluster_power_w())


class TestBatchedSampling:
    def test_series_handles_are_cached(self, setup):
        _, monitor = setup
        monitor.record_carbon_intensity(0.0, 100.0)
        handle = monitor.database.series("grid.carbon_g_per_kwh")
        monitor.record_carbon_intensity(60.0, 120.0)
        assert monitor.database.series("grid.carbon_g_per_kwh") is handle
        assert len(handle) == 2
