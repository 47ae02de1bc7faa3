"""Dynamic application lifecycle: admit / rebalance / evict mid-run."""

import pytest

from repro.core.config import ShareConfig
from repro.core.errors import ConfigurationError, UnknownApplicationError
from repro.core.events import (
    AppAdmittedEvent,
    AppEvictedEvent,
    ShareChangedEvent,
)
from tests.conftest import make_ecovisor, run_ticks


class TestAdmission:
    def test_admit_publishes_event_and_opens_feed(self):
        eco = make_ecovisor()
        seen = []
        eco.events.subscribe(AppAdmittedEvent, seen.append)
        eco.admit_app("a", ShareConfig(solar_fraction=0.25))
        assert len(seen) == 1
        assert seen[0].app_name == "a"
        assert seen[0].solar_fraction == 0.25
        page = eco.events_for("a")
        assert list(page.events) == seen

    def test_mid_run_admission_is_settled_same_tick(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        clock = run_ticks(eco, 2)

        def admit_late(tick):
            if not eco.journal.has_feed("b"):
                eco.admit_app("b", ShareConfig())
                container = eco.launch_container("b", 1)
                container.set_demand_utilization(1.0)

        run_ticks(eco, 1, admit_late, clock=clock)
        account = eco.ledger.account("b")
        assert len(account.settlements) == 1
        assert account.energy_wh > 0.0

    def test_duplicate_admission_rejected(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        with pytest.raises(ConfigurationError):
            eco.admit_app("a", ShareConfig())

    def test_oversubscription_rejected_at_admission(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.8))
        with pytest.raises(ConfigurationError):
            eco.admit_app("b", ShareConfig(solar_fraction=0.3))


class TestEviction:
    def test_evict_finalizes_and_releases(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.6, battery_fraction=0.6))
        eco.launch_container("a", 2)
        run_ticks(eco, 2)
        account = eco.evict_app("a")
        assert account.finalized
        assert "a" not in eco.app_names()
        assert eco.containers_for("a") == []
        assert eco.allocated_solar_fraction == pytest.approx(0.0)
        assert eco.allocated_battery_fraction == pytest.approx(0.0)
        # Freed capacity is immediately re-admittable.
        eco.admit_app("b", ShareConfig(solar_fraction=0.9, battery_fraction=0.9))

    def test_finalized_account_refuses_settlements(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        eco.launch_container("a", 1)
        run_ticks(eco, 1)
        account = eco.evict_app("a")
        settlement = account.settlements[0]
        with pytest.raises(ConfigurationError):
            eco.ledger.record(settlement)

    def test_evicted_totals_stay_in_cluster_totals(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        container = eco.launch_container("a", 1)
        run_ticks(eco, 3, lambda tick: container.set_demand_utilization(1.0))
        before = eco.ledger.total_energy_wh()
        assert before > 0.0
        eco.evict_app("a")
        assert eco.ledger.total_energy_wh() == before

    def test_evict_publishes_terminal_event_with_final_figures(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        container = eco.launch_container("a", 1)
        run_ticks(eco, 2, lambda tick: container.set_demand_utilization(1.0))
        account = eco.evict_app("a")
        page = eco.events_for("a")  # feed readable after eviction
        terminal = page.events[-1]
        assert isinstance(terminal, AppEvictedEvent)
        assert terminal.energy_wh == pytest.approx(account.energy_wh)
        assert terminal.containers_stopped == 1

    def test_evict_unknown_app_raises(self):
        with pytest.raises(UnknownApplicationError):
            make_ecovisor().evict_app("ghost")

    def test_eviction_cancels_signal_subscriptions(self):
        # Broadcast signals (Tick, carbon, price) bypass app scoping;
        # a dead tenant's callback touching the API would crash every
        # later tick if eviction left its subscriptions live.
        from repro.core.api import connect
        from repro.core.signals import Tick

        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        api = connect(eco, "a")
        fired = []
        subscription = api.signals.on(Tick, lambda e: fired.append(api.state()))
        clock = run_ticks(eco, 1)
        assert len(fired) == 1
        eco.evict_app("a")
        assert not subscription.active
        run_ticks(eco, 2, clock=clock)  # must not raise
        assert len(fired) == 1

    def test_readmission_under_same_name_gets_fresh_state(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(battery_fraction=0.5))
        run_ticks(eco, 1)
        eco.evict_app("a")
        # Fresh VES, fresh account: the predecessor's finalized account
        # moves to the ledger archive.
        ves = eco.admit_app("a", ShareConfig(battery_fraction=0.25))
        assert ves.battery.fraction == 0.25
        assert not eco.ledger.account("a").finalized
        assert len(eco.ledger.archived_accounts) == 1

    def test_readmitted_app_settles_without_crashing(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        container = eco.launch_container("a", 1)
        clock = run_ticks(eco, 2, lambda tick: container.set_demand_utilization(1.0))
        evicted_energy = eco.evict_app("a").energy_wh
        assert evicted_energy > 0.0
        eco.admit_app("a", ShareConfig())
        fresh = eco.launch_container("a", 1)
        run_ticks(eco, 2, lambda tick: fresh.set_demand_utilization(1.0), clock=clock)
        account = eco.ledger.account("a")
        assert not account.finalized
        assert account.energy_wh > 0.0
        # Cluster totals span the archived predecessor and the new life.
        assert eco.ledger.total_energy_wh() == pytest.approx(
            evicted_energy + account.energy_wh
        )

    def test_evict_with_staged_share_releases_staged_allocation(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.1))
        eco.set_share("a", ShareConfig(solar_fraction=0.5))
        # The staged 0.5 is the committed allocation; eviction before
        # the boundary must release exactly that.
        eco.evict_app("a")
        assert eco.allocated_solar_fraction == pytest.approx(0.0)
        eco.admit_app("b", ShareConfig(solar_fraction=1.0))

    def test_evict_with_staged_shrink_does_not_mask_oversubscription(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.9))
        eco.set_share("a", ShareConfig(solar_fraction=0.1))  # frees 0.8
        eco.admit_app("b", ShareConfig(solar_fraction=0.8))
        eco.evict_app("a")  # releases the staged 0.1, not 0.9
        assert eco.allocated_solar_fraction == pytest.approx(0.8)
        with pytest.raises(ConfigurationError):
            eco.admit_app("c", ShareConfig(solar_fraction=0.3))


class TestShareRebalancing:
    def test_takes_effect_at_next_tick_boundary(self):
        eco = make_ecovisor(solar_w=10.0)
        eco.admit_app("a", ShareConfig(solar_fraction=0.5))
        clock = run_ticks(eco, 2)
        assert eco.state_for("a").solar_power_w == pytest.approx(5.0)
        eco.set_share("a", ShareConfig(solar_fraction=1.0))
        # Staged, not yet effective.
        assert eco.share_for("a").solar_fraction == 0.5
        assert eco.pending_share("a").solar_fraction == 1.0
        run_ticks(eco, 1, clock=clock)
        assert eco.share_for("a").solar_fraction == 1.0
        assert eco.pending_share("a") is None
        assert eco.state_for("a").solar_power_w == pytest.approx(10.0)

    def test_publishes_share_changed_with_previous_values(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.5))
        seen = []
        eco.events.subscribe(ShareChangedEvent, seen.append)
        eco.set_share("a", ShareConfig(solar_fraction=0.25))
        assert seen == []  # not yet — boundary semantics
        run_ticks(eco, 1)
        assert len(seen) == 1
        assert seen[0].previous_solar_fraction == 0.5
        assert seen[0].solar_fraction == 0.25

    def test_rebalance_validates_against_other_apps(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.5))
        eco.admit_app("b", ShareConfig(solar_fraction=0.5))
        with pytest.raises(ConfigurationError):
            eco.set_share("a", ShareConfig(solar_fraction=0.6))
        # Shrinking a frees headroom for b, staged or not.
        eco.set_share("a", ShareConfig(solar_fraction=0.2))
        eco.set_share("b", ShareConfig(solar_fraction=0.8))

    def test_staged_allocation_blocks_concurrent_admission(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.2))
        eco.set_share("a", ShareConfig(solar_fraction=0.9))
        # The staged 0.9 is committed even though not yet effective.
        with pytest.raises(ConfigurationError):
            eco.admit_app("b", ShareConfig(solar_fraction=0.2))

    def test_battery_rescale_preserves_stored_energy_and_knobs(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(battery_fraction=0.5))
        battery = eco.ves_for("a").battery
        battery.set_charge_rate(3.0)
        level_before = battery.battery.level_wh
        run_ticks(eco, 1)
        eco.set_share("a", ShareConfig(battery_fraction=1.0))
        run_ticks(eco, 1)
        rescaled = eco.ves_for("a").battery
        assert rescaled.fraction == 1.0
        assert rescaled.capacity_wh == pytest.approx(2 * battery.capacity_wh)
        assert rescaled.charge_rate_w == pytest.approx(3.0)
        # Stored energy carried over (plus whatever the ticks charged).
        assert rescaled.battery.level_wh >= level_before - 1e-9

    def test_shrinking_battery_clamps_level(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(battery_fraction=1.0))
        full_capacity = eco.ves_for("a").battery.capacity_wh
        eco.set_share("a", ShareConfig(battery_fraction=0.1))
        run_ticks(eco, 1)
        small = eco.ves_for("a").battery
        assert small.capacity_wh == pytest.approx(0.1 * full_capacity)
        assert small.battery.level_wh <= small.capacity_wh + 1e-9

    def test_dropping_battery_share(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(battery_fraction=0.5))
        eco.set_share("a", ShareConfig())
        run_ticks(eco, 1)
        assert eco.ves_for("a").battery is None
        assert eco.state_for("a").battery is None
        assert eco.allocated_battery_fraction == pytest.approx(0.0)

    def test_gaining_battery_share(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        eco.set_share("a", ShareConfig(battery_fraction=0.4))
        run_ticks(eco, 1)
        assert eco.ves_for("a").battery.fraction == 0.4
        assert eco.state_for("a").battery is not None

    def test_rebalance_unknown_app_raises(self):
        with pytest.raises(UnknownApplicationError):
            make_ecovisor().set_share("ghost", ShareConfig())

    def test_battery_share_requires_plant_battery(self):
        eco = make_ecovisor(with_battery=False)
        eco.admit_app("a", ShareConfig())
        with pytest.raises(ConfigurationError):
            eco.set_share("a", ShareConfig(battery_fraction=0.5))
