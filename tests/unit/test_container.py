"""Container lifecycle, capping, and accounting."""

import pytest

from repro.cluster.container import Container, ContainerState
from repro.cluster.cop import ContainerOrchestrationPlatform


def _stopped(demand_utilization):
    """A container the platform launched, drove and stopped."""
    cop = ContainerOrchestrationPlatform()
    c = cop.launch_container("app", 1)
    c.set_demand_utilization(demand_utilization)
    cop.stop_container(c.id)
    return c


class TestIdentity:
    def test_ids_are_unique(self):
        a = Container("app", 1)
        b = Container("app", 1)
        assert a.id != b.id

    def test_explicit_id(self):
        c = Container("app", 1, container_id="fixed")
        assert c.id == "fixed"

    def test_default_role_is_worker(self):
        assert Container("app", 1).role == "worker"

    def test_custom_role(self):
        assert Container("app", 1, role="coordinator").role == "coordinator"

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError):
            Container("app", 0)


class TestLifecycle:
    def test_starts_running(self):
        assert Container("app", 1).state is ContainerState.RUNNING

    def test_stop_clears_demand_and_power(self):
        c = _stopped(1.0)
        assert not c.is_running
        assert c.demand_utilization == 0.0
        assert c.last_power_w == 0.0


class TestScaling:
    def test_set_cores(self):
        c = Container("app", 1)
        c.set_cores(2.5)
        assert c.cores == 2.5

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError):
            Container("app", 1).set_cores(0)


class TestCapping:
    def test_uncapped_by_default(self):
        c = Container("app", 1)
        assert c.power_cap_w is None
        assert c.cap_utilization == 1.0

    def test_cap_clamps_effective_utilization(self):
        c = Container("app", 1)
        c.set_demand_utilization(1.0)
        c.set_power_cap(0.8, cap_utilization=0.5)
        assert c.effective_utilization == 0.5

    def test_demand_below_cap_passes_through(self):
        c = Container("app", 1)
        c.set_demand_utilization(0.3)
        c.set_power_cap(0.8, cap_utilization=0.5)
        assert c.effective_utilization == pytest.approx(0.3)

    def test_clearing_cap(self):
        c = Container("app", 1)
        c.set_power_cap(0.8, 0.5)
        c.set_power_cap(None, 1.0)
        assert c.power_cap_w is None

    def test_stopped_container_has_zero_effective_utilization(self):
        assert _stopped(1.0).effective_utilization == 0.0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Container("app", 1).set_power_cap(-1.0, 0.0)

    def test_demand_clamped_to_unit_interval(self):
        c = Container("app", 1)
        c.set_demand_utilization(1.7)
        assert c.demand_utilization == 1.0
        c.set_demand_utilization(-0.5)
        assert c.demand_utilization == 0.0


class TestAccounting:
    def test_record_tick_accumulates(self):
        c = Container("app", 1)
        c.record_tick(power_w=1.0, energy_wh=0.5, carbon_g=0.1)
        c.record_tick(power_w=2.0, energy_wh=1.0, carbon_g=0.3)
        assert c.last_power_w == 2.0
        assert c.energy_wh == pytest.approx(1.5)
        assert c.carbon_g == pytest.approx(0.4)


class TestUtilizationEpoch:
    """``Container._utilization_epoch`` moves on every write that can
    change a container's power without a placement change: the key of
    the columnar settle kernel's power cache."""

    def test_demand_write_bumps_only_on_change(self):
        c = Container("app", 1)
        before = Container._utilization_epoch
        c.set_demand_utilization(0.5)
        assert Container._utilization_epoch == before + 1
        c.set_demand_utilization(0.5)
        assert Container._utilization_epoch == before + 1

    def test_power_cap_bumps(self):
        c = Container("app", 1)
        before = Container._utilization_epoch
        c.set_power_cap(2.0, 0.5)
        assert Container._utilization_epoch == before + 1
