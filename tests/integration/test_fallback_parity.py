"""Fallback parity: batch-incompatible tenants inside a batched fleet.

The vectorized upcall plane (:mod:`repro.core.upcalls`) routes each
tenant either through a grouped per-class kernel or through the per-app
reference path.  The routing rules are conservative, and a tenant falls
back for one of two reasons: its policy class does not opt in with
``batch_compatible`` in its *own* class body, or it registered more
than one tick callback.  This module pins the property the rules exist
for: a **mixed** fleet, where some tenants take the batch kernels and
others take the fallback path in the same tick, produces byte-identical
observables to the fully-unbatched reference run.

Four fallback tenants ride inside an otherwise-batched fleet:

- a bare subclass of a stock batch-compatible policy (identical
  behavior, but the opt-in flag deliberately does not inherit);
- a custom policy with no batch kernel, stepping its pool 1 <-> 2;
- a second such tenant admitted mid-run and evicted again later, so the
  plane regroups around a fallback app coming and going;
- a stock batch-compatible policy sharing its app with an
  ``AppEnergyLibrary`` carbon-rate limit: two callbacks on one app.

The batched run's tick profiler must show *both* ``policy_batch`` and
``policy_fallback`` time — otherwise the fleet silently collapsed onto
one path and the test proves nothing.
"""

import math

from repro.cluster.container import reset_container_id_counter
from repro.core.api import connect
from repro.core.clock import TickInfo
from repro.core.config import ShareConfig
from repro.core.library import AppEnergyLibrary
from repro.core.state import EnergyState
from repro.core.upcalls import _policy_route
from repro.policies import SuspendResumePolicy
from repro.policies.base import Policy
from repro.sim.fleet import build_fleet
from repro.workloads.mltrain import MLTrainingJob

from tests.integration.test_columnar_parity import (
    _digest,
    _first_difference,
    collect_surfaces,
    fleet_applications,
)
from tests.unit.test_metrics_exposition import parse_exposition

#: Mid-range caiso carbon intensity: the shadow suspend/resume tenant
#: sees both sides of the threshold over the run.
CARBON_THRESHOLD = 350.0

#: The two-callback tenant's library carbon-rate limit (mg/s).  Low
#: enough that the resulting cap binds its 1.25 W worker in the run's
#: higher-carbon ticks only, so the compared surfaces see the library.
APP_CARBON_RATE_MG_S = 0.08

PARAMS = {"apps": 9, "ticks": 40, "seed": 2023, "mix": "balanced"}
ADMIT_TICK = 8
EVICT_TICK = 24


class ShadowSuspendPolicy(SuspendResumePolicy):
    """Byte-for-byte the stock policy — but a *subclass*, so the plane
    must route it to the per-app fallback path (``batch_compatible`` is
    checked on the class's own ``__dict__`` and does not inherit)."""


class PeriodicStepPolicy(Policy):
    """A custom controller with no batch kernel (never opts in).

    Deterministically steps its worker pool 1 <-> 2 on a fixed period so
    the fallback path exercises real scaling actions, not just no-ops.
    """

    def __init__(self, period: int = 5):
        super().__init__()
        self._period = period

    def on_attach(self) -> None:
        self.scale_workers(1)

    def on_tick(self, tick: TickInfo, state: EnergyState) -> None:
        want = 2 if (tick.index // self._period) % 2 else 1
        if self.current_worker_count() != want:
            self.scale_workers(want)


def _build(batched):
    """The mixed fleet with every fallback tenant added, down one path."""
    reset_container_id_counter()
    fleet = build_fleet({**PARAMS, "batched": batched})
    engine = fleet.engine
    grid_only = ShareConfig(grid_power_w=float("inf"))
    minute = 60.0

    engine.add_application(
        MLTrainingJob(name="shadow-suspend", total_work_units=30 * minute),
        grid_only,
        ShadowSuspendPolicy(CARBON_THRESHOLD, 1),
    )
    engine.add_application(
        MLTrainingJob(name="stepper-static", total_work_units=35 * minute),
        grid_only,
        PeriodicStepPolicy(),
    )
    # A stock batchable policy plus the library's rate-limit callback:
    # the second callback alone sends the app down the fallback path.
    engine.add_application(
        MLTrainingJob(name="two-callbacks", total_work_units=30 * minute),
        grid_only,
        SuspendResumePolicy(CARBON_THRESHOLD, 1),
    )
    library = AppEnergyLibrary(connect(fleet.ecovisor, "two-callbacks"))
    library.set_app_carbon_rate(APP_CARBON_RATE_MG_S)
    # A fallback tenant that arrives and departs mid-run: the plane must
    # regroup (and the columnar rows retire) around a per-app-path app.
    engine.schedule_admission(
        ADMIT_TICK,
        MLTrainingJob(name="stepper-churn", total_work_units=10 * minute),
        grid_only,
        PeriodicStepPolicy(period=3),
    )
    engine.schedule_eviction(EVICT_TICK, "stepper-churn")
    return fleet


def _capture(batched):
    """One mixed fleet down one engine path.

    Returns the surfaces, the phase totals, and the number of ticks in
    which a library-set power cap held the two-callback tenant's draw.
    """
    fleet = _build(batched)
    engine = fleet.engine
    ecovisor = fleet.ecovisor
    platform = ecovisor.platform
    states = []
    binding_ticks = []

    def observer(tick):
        states.append(
            {
                name: ecovisor.state_for(name).to_dict()
                for name in ecovisor.app_names()
            }
        )
        if any(
            c.power_cap_w is not None
            and math.isclose(platform.container_power_w(c.id), c.power_cap_w)
            for c in platform.running_containers_for("two-callbacks")
        ):
            binding_ticks.append(tick.index)

    engine.add_observer(observer)
    engine.run(int(PARAMS["ticks"]))
    surfaces = collect_surfaces(ecovisor, states, fleet_applications(fleet))
    return surfaces, engine.profiler.phase_totals(), len(binding_ticks)


class TestFallbackParity:
    def test_opt_in_flag_does_not_inherit(self):
        """The routing predicate the fallback tenants rely on."""
        assert SuspendResumePolicy.__dict__.get("batch_compatible") is True
        assert "batch_compatible" not in ShadowSuspendPolicy.__dict__
        assert "batch_compatible" not in PeriodicStepPolicy.__dict__

    def test_routing_per_tenant(self):
        """Both fallback reasons route to None, each under its own rule;
        a stock tenant batches."""
        apps = _build(batched=True).ecovisor._apps
        stock = apps["fleet-0000"]
        assert _policy_route(stock) == (stock.tick_callbacks[0].__self__, "opted_in")
        assert _policy_route(apps["shadow-suspend"]) == (None, "not_opted_in")
        assert _policy_route(apps["stepper-static"]) == (None, "not_opted_in")
        two = apps["two-callbacks"]
        assert len(two.tick_callbacks) == 2
        assert type(two.tick_callbacks[0].__self__) is SuspendResumePolicy
        assert _policy_route(two) == (None, "callback_count")

    def test_routing_gauge_counts_tenants_per_route(self):
        """A scrape shows each fallback tenant under its reason and every
        stock tenant under the batch path; a route whose tenants left
        reads 0."""
        fleet = _build(batched=True)
        ecovisor = fleet.ecovisor

        def scrape():
            types, samples = parse_exposition(ecovisor.metrics.render())
            assert types["upcall_routing_apps"] == "gauge"
            return {
                (labels["path"], labels["reason"]): value
                for name, labels, value in samples
                if name == "upcall_routing_apps"
            }

        fleet.engine.schedule_eviction(EVICT_TICK, "two-callbacks")
        fleet.engine.run(ADMIT_TICK + 2)
        called = [n for n in ecovisor.app_names() if ecovisor._apps[n].tick_callbacks]
        stock = [name for name in called if name.startswith("fleet-")]
        assert len(stock) == PARAMS["apps"]
        routes = scrape()
        assert routes == {
            ("batch", "opted_in"): len(stock),
            # shadow-suspend, stepper-static, stepper-churn
            ("fallback", "not_opted_in"): 3,
            ("fallback", "callback_count"): 1,
        }
        assert sum(routes.values()) == len(called)

        fleet.engine.run(EVICT_TICK - ADMIT_TICK)
        routes = scrape()
        assert routes[("fallback", "not_opted_in")] == 2
        assert routes[("fallback", "callback_count")] == 0
        assert routes[("batch", "opted_in")] == len(stock)

    def test_mixed_fleet_surfaces_byte_identical(self):
        mixed, phases, binding = _capture(batched=True)
        reference, _, reference_binding = _capture(batched=False)

        # The mixed run must actually have been mixed: grouped kernels
        # for the stock tenants AND per-app fallbacks for ours.
        assert phases["policy_batch"] > 0.0
        assert phases["policy_fallback"] > 0.0
        # The library's second callback really held the tenant's draw,
        # in some ticks but not all.
        assert 0 < binding < PARAMS["ticks"]
        assert binding == reference_binding

        if _digest(mixed) == _digest(reference) and mixed == reference:
            return
        diff = _first_difference(mixed, reference) or (
            "digests differ but structures compare equal"
        )
        raise AssertionError(diff)

    def test_churn_tenant_lived_and_left(self):
        """The mid-run tenant really joined, journaled, and was evicted."""
        surfaces, _, _ = _capture(batched=True)
        final_states = surfaces["states"][-1]
        assert "stepper-churn" not in final_states
        assert "stepper-churn" in surfaces["accounts"]
        assert surfaces["accounts"]["stepper-churn"]["energy_wh"] > 0.0
        assert "stepper-churn" in surfaces["journals"]
        mid_states = surfaces["states"][ADMIT_TICK + 1]
        assert "stepper-churn" in mid_states
