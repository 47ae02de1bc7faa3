"""The tick-loop workloads: steady_1k and churn_50.

An *episode* builds a fresh fleet from the seed (timed as set-up) and
runs one simulated day, 1440 one-minute ticks, in a single
``engine.run`` call, timed tick by tick from an ``engine.add_observer``
timestamp.  A whole day matters twice over: the threshold policies
compare carbon against percentiles of that day's trace, so only a full
day makes the share of running workers (and with it the work per tick)
nearly the same for every seed; and one ``engine.run`` call matters
because each call flushes the columnar telemetry buffer, so splitting
the day would add work the program does not do on its own.

A run repeats episodes while another one fits in the measuring time,
and builds the fleet a few extra times so set-up time is a median.

Timings are scaled to a reference host by a probe loop timed between
ticks (``host_scale``).  The probe runs in this process, so anything
that slows the interpreter as a whole would slow it too; an episode
therefore fails if its ticks run beside another thread or under a
profile or trace hook (``check_quiet``).

Output check: every episode hashes its simulated outputs (``digest``).
For the default seed the full-day digest is committed in
``reference.json``.  For other seeds the digest after the first
``check_ticks`` ticks is compared with the same prefix run on the
engine's ``batched=False`` reference path; for steady_1k that prefix is
shorter than the day because the reference path runs 1000 tenants an
order of magnitude slower than the production path.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

from spans import Tracer, self_times
from stats import host_probe, percentile

REFERENCE_FILE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 2023
#: Fleet builds per run, episodes included (set-up time is their median).
SETUP_SAMPLES = 7
DAY_TICKS = 1440
#: Ticks between host-speed probes (taken outside the timed ticks).
PROBE_EVERY = 10
#: Probes taken right before each fleet build.
SETUP_PROBES = 5
#: The probe time that defines the reference host: end-to-end timings
#: are reported as if the host ran ``host_probe`` in exactly this long.
REFERENCE_PROBE_S = 5e-4


def os_threads() -> int:
    """Threads of this process, native ones (e.g. BLAS workers) included."""
    return len(os.listdir("/proc/self/task"))


class NotQuietError(RuntimeError):
    """The timed ticks ran beside other work in this process."""


def check_quiet(base_threads: int) -> None:
    """Raise unless ticks run alone: no other thread and no hook.

    ``base_threads`` is the process's thread count before the first
    fleet was built.  A thread or a profile/trace hook would slow the
    host probe as much as the ticks and so hide its own cost in the
    scaled figures.
    """
    if threading.active_count() > 1 or os_threads() > base_threads:
        raise NotQuietError(
            f"{threading.active_count()} Python threads, {os_threads()} OS threads "
            f"(expected 1 and at most {base_threads})"
        )
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise NotQuietError("a profile or trace hook is set")


@dataclass(frozen=True)
class FleetSpec:
    """One tick-loop workload: which builder, which population, how long."""

    name: str
    churn: bool
    apps: int
    ticks: int
    #: Ticks covered by the reference-path check for non-default seeds.
    check_ticks: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def params(self, seed: int) -> Dict[str, Any]:
        return {
            "apps": self.apps,
            "ticks": self.ticks,
            "seed": seed,
            "mix": "balanced",
            **self.extra,
        }

    def key(self, seed: int, ticks: int) -> str:
        """Reference key: the fleet parameters plus the ticks hashed."""
        return json.dumps({**self.params(seed), "digest_ticks": ticks}, sort_keys=True)

    def build(self, seed: int, batched: bool = True):
        from repro.sim.fleet import build_churn_fleet, build_fleet

        params = self.params(seed)
        if not batched:
            params["batched"] = False
        return (build_churn_fleet if self.churn else build_fleet)(params)


SPECS = {
    # 1000 static tenants: per-tenant kernels (settle, policy and
    # workload batches) and GC over the growing telemetry buffer.
    "steady_1k": FleetSpec(
        "steady_1k", churn=False, apps=1000, ticks=DAY_TICKS, check_ticks=100
    ),
    # 50 base tenants with Poisson admissions and evictions; evictions
    # outpace admissions so the population stays stationary (the
    # catalog's 0.4/0.3 rates grow it until a scale-up fails).
    "churn_50": FleetSpec(
        "churn_50",
        churn=True,
        apps=50,
        ticks=DAY_TICKS,
        check_ticks=DAY_TICKS,
        extra={"admit_rate": 0.4, "evict_rate": 0.5},
    ),
}

#: Layer -> (module, class, method) calls it is timed at.
FLEET_LAYERS = {
    "core.ecovisor.begin_tick": [("repro.core.ecovisor", "Ecovisor", "begin_tick")],
    "core.upcalls.policies": [
        ("repro.core.upcalls", "UpcallPlane", "invoke_policies")
    ],
    "cluster.cop.scale": [("repro.policies.base", "Policy", "scale_workers")],
    "core.upcalls.step": [("repro.core.upcalls", "UpcallPlane", "step_workloads")],
    "core.ecovisor.settle": [("repro.core.ecovisor", "Ecovisor", "settle")],
    "core.upcalls.finish": [
        ("repro.core.upcalls", "UpcallPlane", "finish_workloads")
    ],
    "core.ecovisor.lifecycle": [
        ("repro.core.ecovisor", "Ecovisor", "admit_app"),
        ("repro.core.ecovisor", "Ecovisor", "evict_app"),
        ("repro.core.ecovisor", "Ecovisor", "set_share"),
    ],
}
OTHER_LAYER = "sim.engine.other"

#: Per-layer counter name -> counter in ``ecovisor.metrics``.
COUNTERS = {
    "core.state.builds": "state_builds_total",
    "core.tracecache.misses": "trace_cache_misses_total",
    "core.fleetarrays.rows_acquired": "fleet_rows_acquired_total",
    "core.fleetarrays.rows_reused": "fleet_rows_reused_total",
}


def install_fleet_tracer(tracer: Tracer) -> None:
    for layer, targets in FLEET_LAYERS.items():
        for module, cls, method in targets:
            owner = getattr(importlib.import_module(module), cls)
            tracer.install(owner, method, layer)
    tracer.install_gc()


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def digest(fleet) -> str:
    """SHA-256 over the run's simulated outputs.

    Covers each live tenant's energy, carbon and cost totals (from its
    settled snapshot, which reads the columnar rows without forcing the
    telemetry flush), each evicted tenant's finalized account, jobs
    completed, the plant's grid and solar meters, and work done per kg
    of CO2 (the paper's carbon-efficiency figure).
    """
    eco = fleet.ecovisor
    h = hashlib.sha256()
    carbon_g = 0.0
    for name in eco.app_names():
        s = eco.state_for(name)
        carbon_g += s.total_carbon_g
        h.update(
            f"{name} {s.tick_index} {s.settled} {s.total_energy_wh!r} "
            f"{s.total_carbon_g!r} {s.total_cost_usd!r}\n".encode()
        )
    for name, acct in sorted(fleet.engine.evicted_accounts.items()):
        h.update(
            f"evicted {name} {acct.energy_wh!r} {acct.carbon_g!r} "
            f"{acct.cost_usd!r}\n".encode()
        )
    apps = fleet.engine.applications
    completed = sum(1 for app in apps if app.is_complete)
    work = sum(getattr(app, "progress_units", 0.0) for app in apps)
    work_per_kg = work / (carbon_g / 1000.0) if carbon_g > 0 else 0.0
    plant = eco.plant
    h.update(
        f"completed {completed} work_per_kg_co2 {work_per_kg!r} "
        f"grid_wh {plant.grid.total_energy_wh!r} "
        f"solar_wh {plant.solar.total_energy_wh!r}\n".encode()
    )
    return h.hexdigest()


def load_references(path: Path = REFERENCE_FILE) -> Dict[str, str]:
    with open(path) as fh:
        return json.load(fh)


def reference_digest(spec: FleetSpec, seed: int, ticks: int) -> str:
    """The digest after ``ticks`` ticks on the batched=False path."""
    fleet = spec.build(seed, batched=False)
    fleet.engine.run(ticks)
    return digest(fleet)


def expected_digests(
    spec: FleetSpec, seed: int, references: Dict[str, str]
) -> Dict[int, str]:
    """Tick count -> digest each episode must match."""
    full = references.get(spec.key(seed, spec.ticks))
    if full is not None:
        return {spec.ticks: full}
    prefix = references.get(spec.key(seed, spec.check_ticks))
    if prefix is None:
        prefix = reference_digest(spec, seed, spec.check_ticks)
    return {spec.check_ticks: prefix}


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
def host_scale(probes: List[float]) -> float:
    """Factor turning this host's seconds into reference-host seconds.

    The host's speed moves by up to half for minutes at a time; the
    probe (a fixed interpreter loop) slows and speeds up with it, so
    scaling by it keeps runs made minutes apart comparable.
    """
    return REFERENCE_PROBE_S / percentile(probes, 50)


@dataclass
class Episode:
    setup_s: float
    #: ``host_scale`` of the probes taken just before the build.
    setup_scale: float
    #: Host (start, end) of every tick; observer time falls between.
    ticks: List[tuple] = field(default_factory=list)
    #: Process CPU seconds of every tick (all threads of the process).
    cpu_s: List[float] = field(default_factory=list)
    live: List[int] = field(default_factory=list)
    #: Tick count -> digest taken after that many ticks.
    digests: Dict[int, str] = field(default_factory=dict)
    error: Optional[str] = None
    #: Host-speed probe durations taken between ticks.
    probes: List[float] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    counters: Dict[str, float] = field(default_factory=dict)
    rebuilds: int = 0

    @property
    def tick_s(self) -> List[float]:
        return [end - start for start, end in self.ticks]

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.ticks)

    @property
    def scale(self) -> float:
        return host_scale(self.probes)


def counter(eco, name: str) -> float:
    """Current total of counter ``name`` in ``eco.metrics``."""
    return sum(sample[2] for sample in eco.metrics.get(name).samples())


def build_timed(spec: FleetSpec, seed: int):
    """(fleet, build seconds, host scale measured just before)."""
    gc.collect()
    scale = host_scale([host_probe() for _ in range(SETUP_PROBES)])
    started = perf_counter()
    fleet = spec.build(seed)
    return fleet, perf_counter() - started, scale


def run_episode(
    spec: FleetSpec, seed: int, base_threads: int, traced: bool = False
) -> Episode:
    """Build, run one day, hash; with ``traced``, record layer spans.

    The episode fails unless its ticks run alone (``check_quiet``).
    """
    fleet, setup_s, setup_scale = build_timed(spec, seed)
    engine = fleet.engine
    eco = fleet.ecovisor
    episode = Episode(setup_s=setup_s, setup_scale=setup_scale)
    epochs: List[int] = []
    tracer = Tracer() if traced else None
    resumed = [0.0, 0.0]

    def observe(tick) -> None:
        end = perf_counter()
        cpu_end = process_time()
        episode.ticks.append((resumed[0], end))
        episode.cpu_s.append(cpu_end - resumed[1])
        episode.live.append(len(engine.applications))
        count = tick.index + 1
        if count == spec.check_ticks and count < spec.ticks:
            episode.digests[count] = digest(fleet)
        if tracer is not None:
            tracer.ctx = count
            epochs.append(eco.upcall_epoch)
        if count % PROBE_EVERY == 0:
            check_quiet(base_threads)
            episode.probes.append(host_probe())
        resumed[1] = process_time()
        resumed[0] = perf_counter()

    engine.add_observer(observe)
    if tracer is not None:
        before = {m: counter(eco, c) for m, c in COUNTERS.items()}
        install_fleet_tracer(tracer)
        tracer.ctx = 0
        episode.tracer = tracer
    resumed[1] = process_time()
    resumed[0] = perf_counter()
    try:
        check_quiet(base_threads)
        engine.run(spec.ticks)
    except Exception as exc:  # a failed episode is a failed operation
        episode.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not episode.probes:  # the run failed before its first probe
        episode.probes.append(host_probe())
    if episode.error is None:
        episode.digests[spec.ticks] = digest(fleet)
    if tracer is not None:
        episode.counters = {
            m: counter(eco, c) - before[m] for m, c in COUNTERS.items()
        }
        # The plane groups its upcalls on its first tick and again on
        # every tick whose registration surface changed.
        last = None
        for epoch in epochs:
            if epoch != last:
                episode.rebuilds += 1
                last = epoch
    return episode


def run_episodes(
    spec: FleetSpec, seed: int, seconds: float, traced: bool = False
) -> tuple:
    """Episodes while another fits in ``seconds``, plus set-up samples.

    With ``traced`` episodes alternate untraced and traced (at least
    one of each).  Returns (episodes, [(build seconds, scale)]).
    """
    episodes: List[Episode] = []
    minimum = 2 if traced else 1
    base_threads = os_threads()
    started = perf_counter()
    while True:
        t0 = perf_counter()
        episodes.append(
            run_episode(
                spec, seed, base_threads, traced=traced and len(episodes) % 2 == 1
            )
        )
        took = perf_counter() - t0
        elapsed = perf_counter() - started
        if len(episodes) >= minimum and elapsed + took > seconds:
            break
    setups = [(e.setup_s, e.setup_scale) for e in episodes]
    while len(setups) < SETUP_SAMPLES:
        fleet, setup_s, scale = build_timed(spec, seed)
        del fleet
        setups.append((setup_s, scale))
    return episodes, setups


def check(
    spec: FleetSpec, seed: int, episodes: List[Episode], references: Dict[str, str]
) -> Dict[str, Any]:
    """correct/attempted/failed: every tick is an operation; an episode
    that raised, or whose digest differs from the reference, counts one
    failed operation."""
    attempted = sum(len(e.ticks) + (1 if e.error else 0) for e in episodes)
    failed = sum(1 for e in episodes if e.error)
    try:
        expected = expected_digests(spec, seed, references)
    except Exception as exc:
        expected = {spec.check_ticks: f"reference run failed: {exc!r}"}
    for e in episodes:
        if e.error is None and any(e.digests.get(t) != d for t, d in expected.items()):
            failed += 1
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tick_metrics(episodes: List[Episode], scaled: bool = True) -> Dict[str, float]:
    """Tick rate, percentiles and CPU per tick, in reference-host time
    if ``scaled``."""
    ticks: List[float] = []
    cpu = 0.0
    for e in episodes:
        factor = e.scale if scaled else 1.0
        ticks += [t * factor for t in e.tick_s]
        cpu += sum(e.cpu_s) * factor
    if not ticks:  # every episode failed before its first tick
        return dict.fromkeys(
            ("ticks_per_s", "tick_p50_ms", "tick_p99_ms", "cpu_us_per_op"), 0.0
        )
    return {
        "ticks_per_s": len(ticks) / sum(ticks),
        "tick_p50_ms": percentile(ticks, 50) * 1e3,
        "tick_p99_ms": percentile(ticks, 99) * 1e3,
        "cpu_us_per_op": cpu / len(ticks) * 1e6,
    }


def probe_us(episodes: List[Episode]) -> float:
    """Median host probe over the run, in microseconds."""
    return percentile([p for e in episodes for p in e.probes], 50) * 1e6


def run_timed(
    spec: FleetSpec, seed: int, seconds: float, references: Dict[str, str]
) -> Dict[str, Any]:
    """The end-to-end measurement (tracing off).

    ``metrics`` are in reference-host time; ``raw`` holds the same
    figures in this host's time, and the probe, for the record.
    """
    episodes, setups = run_episodes(spec, seed, seconds)
    metrics = tick_metrics(episodes)
    metrics["setup_s"] = percentile([t * scale for t, scale in setups], 50)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = tick_metrics(episodes, scaled=False)
    raw["setup_s"] = percentile([t for t, _ in setups], 50)
    raw["host_probe_us"] = probe_us(episodes)
    result = check(spec, seed, episodes, references)
    result["metrics"] = metrics
    result["raw"] = raw
    return result


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _in_ticks(starts: List[float], ends: List[float], t: float) -> bool:
    i = bisect.bisect_right(starts, t) - 1
    return i >= 0 and t <= ends[i]


def layer_metrics(runs: List[tuple]) -> Dict[str, float]:
    """Per-layer self time, share and calls per tick.

    ``runs`` holds one ``(ticks, spans, gc_pauses)`` per traced episode,
    ``ticks`` being the (start, end) of every tick.  The ticks' wall
    time splits exactly into the layers' self times (GC excluded), the
    collector pauses inside ticks, and ``sim.engine.other`` (tick code
    between the timed calls).
    """
    layers = list(FLEET_LAYERS) + [OTHER_LAYER]
    self_s = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    gc_s = 0.0
    gen2: List[float] = []
    wall = 0.0
    count = 0
    for ticks, spans, gc_pauses in runs:
        starts = [s for s, _ in ticks]
        ends = [t for _, t in ticks]
        spans = [s for s in spans if s[1] in self_s and _in_ticks(starts, ends, s[2])]
        pauses = [g for g in gc_pauses if _in_ticks(starts, ends, g[0])]
        own = self_times(spans, pauses)
        for sid, name, *_ in spans:
            self_s[name] += own[sid][0]
            calls[name] += 1
        gc_s += sum(end - start for start, end, _gen, _span in pauses)
        gen2 += [end - start for start, end, gen, _span in pauses if gen == 2]
        wall += sum(end - start for start, end in ticks)
        count += len(ticks)
    self_s[OTHER_LAYER] = wall - gc_s - sum(self_s.values())
    calls[OTHER_LAYER] = count
    out: Dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.self_ms"] = self_s[layer] / count * 1e3
        out[f"{layer}.share"] = self_s[layer] / wall
        out[f"{layer}.calls"] = calls[layer] / count
    out["gc.pause_ms"] = gc_s / count * 1e3
    out["gc.gen2_count"] = len(gen2) / len(runs)
    out["gc.gen2_max_ms"] = max(gen2, default=0.0) * 1e3
    out["sim.engine.tick_ms"] = wall / count * 1e3
    return out


def run_traced(
    spec: FleetSpec, seed: int, seconds: float, references: Dict[str, str]
) -> Dict[str, Any]:
    """Alternating untraced and traced episodes; per-layer metrics."""
    episodes, _ = run_episodes(spec, seed, seconds, traced=True)
    plain = [e for e in episodes if e.tracer is None]
    traced = [e for e in episodes if e.tracer is not None]
    metrics = layer_metrics(
        [(e.ticks, e.tracer.spans, e.tracer.gc_pauses) for e in traced]
    )
    traced_ticks = sum(len(e.ticks) for e in traced)
    for name in COUNTERS:
        metrics[name] = sum(e.counters[name] for e in traced) / traced_ticks
    metrics["core.upcalls.rebuilds"] = sum(e.rebuilds for e in traced) / traced_ticks
    live = [n for e in plain for n in e.live]
    metrics["sim.engine.live_apps"] = sum(live) / len(live)
    metrics["sim.engine.us_per_app_tick"] = (
        sum(e.wall_s for e in plain) / sum(live) * 1e6
    )
    metrics["trace.untraced.ticks_per_s"] = tick_metrics(plain)["ticks_per_s"]
    metrics["trace.traced.ticks_per_s"] = tick_metrics(traced)["ticks_per_s"]
    raw = tick_metrics(plain, scaled=False)
    metrics["host.raw.ticks_per_s"] = raw["ticks_per_s"]
    metrics["host.raw.tick_p50_ms"] = raw["tick_p50_ms"]
    metrics["host.probe_us"] = probe_us(episodes)
    result = check(spec, seed, episodes, references)
    result["metrics"] = metrics
    return result


def sized(spec: FleetSpec, apps: Optional[int], ticks: Optional[int]) -> FleetSpec:
    """``spec`` with a smaller population or day (self-test sizes)."""
    ticks = ticks or spec.ticks
    return replace(
        spec,
        apps=apps or spec.apps,
        ticks=ticks,
        check_ticks=min(spec.check_ticks, ticks),
    )
