"""Fallback parity: batch-incompatible tenants inside a batched fleet.

The vectorized upcall plane (:mod:`repro.core.upcalls`) routes each
tenant either through a grouped per-class kernel or through the per-app
reference path.  The routing rules are conservative — a policy subclass
that does not re-opt-in with ``batch_compatible`` in its *own* class
body falls back, as does any legacy single-argument ``on_tick``
registered through the arity shim.  This module pins the property the
rules exist for: a **mixed** fleet, where some tenants take the batch
kernels and others take the fallback path in the same tick, produces
byte-identical observables to the fully-unbatched reference run.

Three fallback shapes ride inside an otherwise-batched fleet:

- a bare subclass of a stock batch-compatible policy (identical
  behavior, but the opt-in flag deliberately does not inherit),
- a legacy policy overriding ``on_tick(self, tick)`` (arity-1, shimmed),
- a second legacy tenant admitted mid-run and evicted again later, so
  the plane regroups around a fallback app coming and going.

The batched run's tick profiler must show *both* ``policy_batch`` and
``policy_fallback`` time — otherwise the fleet silently collapsed onto
one path and the test proves nothing.
"""

from repro.cluster.container import reset_container_id_counter
from repro.core.clock import TickInfo
from repro.core.config import ShareConfig
from repro.policies import SuspendResumePolicy
from repro.policies.base import Policy
from repro.sim.fleet import build_fleet
from repro.workloads.mltrain import MLTrainingJob

from tests.integration.test_columnar_parity import (
    _digest,
    _first_difference,
    collect_surfaces,
)

#: Mid-range caiso carbon intensity: the shadow suspend/resume tenant
#: sees both sides of the threshold over the run.
CARBON_THRESHOLD = 350.0

PARAMS = {"apps": 9, "ticks": 40, "seed": 2023, "mix": "balanced"}
ADMIT_TICK = 8
EVICT_TICK = 24


class ShadowSuspendPolicy(SuspendResumePolicy):
    """Byte-for-byte the stock policy — but a *subclass*, so the plane
    must route it to the per-app fallback path (``batch_compatible`` is
    checked on the class's own ``__dict__`` and does not inherit)."""


class LegacyStepPolicy(Policy):
    """Pre-v1 controller: single-argument ``on_tick`` via the arity shim.

    Deterministically steps its worker pool 1 <-> 2 on a fixed period so
    the fallback path exercises real scaling actions, not just no-ops.
    """

    def __init__(self, period: int = 5):
        super().__init__()
        self._period = period

    def on_attach(self) -> None:
        self.scale_workers(1)

    def on_tick(self, tick: TickInfo) -> None:  # legacy arity-1 shape
        want = 2 if (tick.index // self._period) % 2 else 1
        if self.current_worker_count() != want:
            self.scale_workers(want)


def _capture(batched):
    """One mixed fleet down one engine path: surfaces + phase totals."""
    reset_container_id_counter()
    fleet = build_fleet({**PARAMS, "batched": batched})
    engine = fleet.engine
    ecovisor = fleet.ecovisor
    grid_only = ShareConfig(grid_power_w=float("inf"))
    minute = 60.0

    engine.add_application(
        MLTrainingJob(name="shadow-suspend", total_work_units=30 * minute),
        grid_only,
        ShadowSuspendPolicy(CARBON_THRESHOLD, 1),
    )
    engine.add_application(
        MLTrainingJob(name="legacy-static", total_work_units=35 * minute),
        grid_only,
        LegacyStepPolicy(),
    )
    # A fallback tenant that arrives and departs mid-run: the plane must
    # regroup (and the columnar rows retire) around a per-app-path app.
    engine.schedule_admission(
        ADMIT_TICK,
        MLTrainingJob(name="legacy-churn", total_work_units=10 * minute),
        grid_only,
        LegacyStepPolicy(period=3),
    )
    engine.schedule_eviction(EVICT_TICK, "legacy-churn")

    states = []

    def observer(tick):
        states.append(
            {
                name: ecovisor.state_for(name).to_dict()
                for name in ecovisor.app_names()
            }
        )

    engine.add_observer(observer)
    engine.run(int(PARAMS["ticks"]))
    return collect_surfaces(ecovisor, states), engine.profiler.phase_totals()


class TestFallbackParity:
    def test_opt_in_flag_does_not_inherit(self):
        """The routing predicate the fallback tenants rely on."""
        assert SuspendResumePolicy.__dict__.get("batch_compatible") is True
        assert "batch_compatible" not in ShadowSuspendPolicy.__dict__
        assert "batch_compatible" not in LegacyStepPolicy.__dict__

    def test_mixed_fleet_surfaces_byte_identical(self):
        mixed, phases = _capture(batched=True)
        reference, _ = _capture(batched=False)

        # The mixed run must actually have been mixed: grouped kernels
        # for the stock tenants AND per-app fallbacks for ours.
        assert phases["policy_batch"] > 0.0
        assert phases["policy_fallback"] > 0.0

        if _digest(mixed) == _digest(reference) and mixed == reference:
            return
        diff = _first_difference(mixed, reference) or (
            "digests differ but structures compare equal"
        )
        raise AssertionError(diff)

    def test_churn_tenant_lived_and_left(self):
        """The mid-run tenant really joined, journaled, and was evicted."""
        surfaces, _ = _capture(batched=True)
        final_states = surfaces["states"][-1]
        assert "legacy-churn" not in final_states
        assert "legacy-churn" in surfaces["accounts"]
        assert surfaces["accounts"]["legacy-churn"]["energy_wh"] > 0.0
        assert "legacy-churn" in surfaces["journals"]
        mid_states = surfaces["states"][ADMIT_TICK + 1]
        assert "legacy-churn" in mid_states
