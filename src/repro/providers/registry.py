"""The bundled-dataset registry: names, checksums, and trace resolvers.

Scenarios reference signal data *by name* (``carbon="caiso-2022"``,
``generation="wind+solar"``); this module resolves those names into the
stock trace objects the rest of the simulator consumes.  Every resolver
returns a stock trace type (:class:`CarbonTrace`, :class:`PriceTrace`,
:class:`TabularSolarTrace`, :class:`WindCapacityTrace`), so historical
data flows through the same trace lookups as synthetic data.

Integrity: every dataset carries a pinned SHA-256.  :func:`load_samples`
verifies the file bytes against it and raises
:class:`~repro.core.errors.DatasetIntegrityError` on drift, so a run's
recorded provenance (``dataset_provenance``) really does identify the
numbers that produced it.  ``python -m repro.providers.datagen``
regenerates the files and prints fresh checksums when a dataset is
intentionally changed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.errors import DatasetIntegrityError, UnknownTraceNameError
from repro.obs.metrics import default_registry

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Native sample interval of every bundled dataset (seconds).
DATASET_INTERVAL_S = 300.0


@dataclass(frozen=True)
class DatasetDescriptor:
    """One bundled dataset: identity, provenance, and file location."""

    name: str
    kind: str  # "carbon" | "price" | "wind-cf" | "solar-cf"
    region: str
    units: str
    sha256: str
    description: str

    @property
    def filename(self) -> str:
        return f"{self.name}.csv"

    @property
    def path(self) -> Path:
        return DATA_DIR / self.filename


_DESCRIPTORS = (
    DatasetDescriptor(
        name="caiso-2022",
        kind="carbon",
        region="caiso",
        units="gCO2eq/kWh",
        sha256="8acf52f41d73d58889616402ec1d163e5b85bd815e092c76a43f951881ef43b6",
        description="California ISO carbon intensity: duck curve, high variance.",
    ),
    DatasetDescriptor(
        name="ontario-2022",
        kind="carbon",
        region="ontario",
        units="gCO2eq/kWh",
        sha256="2a1a0950aec99d7a50bbd5f286905987dbe036440e8955276e15ef06f8a3e47d",
        description="Ontario carbon intensity: nuclear-heavy, low and flat.",
    ),
    DatasetDescriptor(
        name="uruguay-2022",
        kind="carbon",
        region="uruguay",
        units="gCO2eq/kWh",
        sha256="8e729680e1eca8c732ab992545b3ae12d889d5febe290e0bf037accbdca1037c",
        description="Uruguay carbon intensity: hydro-heavy with thermal excursions.",
    ),
    DatasetDescriptor(
        name="germany-2022",
        kind="carbon",
        region="germany",
        units="gCO2eq/kWh",
        sha256="5756b70fb6aed9f5dd4d5b6ed5c69e2750e911d2302ea3e18585362705fe3ead",
        description="Germany carbon intensity: coal/gas baseload, wind-driven swings.",
    ),
    DatasetDescriptor(
        name="caiso-dayahead-2022",
        kind="price",
        region="caiso",
        units="USD/kWh",
        sha256="81b9c31c90c846f67e8c8e9192df9d8460f4b65e8dc36403159622ce2608ce51",
        description="CAISO day-ahead market: smooth hourly-block clearing prices.",
    ),
    DatasetDescriptor(
        name="caiso-realtime-2022",
        kind="price",
        region="caiso",
        units="USD/kWh",
        sha256="974ff770868f59fc10f29b0f7acdffa52d777d7113623bd2a56634d92cb5d5bd",
        description="CAISO real-time market: noisy duck with scarcity spikes.",
    ),
    DatasetDescriptor(
        name="wind-cf-2022",
        kind="wind-cf",
        region="caiso",
        units="fraction",
        sha256="ff867920e81e224ea567ac7cf3ead81efabbc4f22ab197faecd7861345d56b77",
        description="Wind capacity factor: nocturnal peak, weather-front persistence.",
    ),
    DatasetDescriptor(
        name="solar-cf-2022",
        kind="solar-cf",
        region="caiso",
        units="fraction",
        sha256="f77bf80f7deb985a543ab022e3f18927061ad49d299e73db9f23548d33ae73cd",
        description="Solar capacity factor: diurnal bell with cloud attenuation.",
    ),
)

#: All bundled datasets by name.
DATASETS: Dict[str, DatasetDescriptor] = {d.name: d for d in _DESCRIPTORS}

#: Loaded sample arrays by dataset name (files never change mid-process).
_SAMPLE_CACHE: Dict[str, np.ndarray] = {}

_registry = default_registry()
_DATASET_LOADS = _registry.counter(
    "provider_dataset_loads_total",
    "Bundled dataset files read and checksum-verified, by dataset.",
    labelnames=("dataset",),
)
_DATASET_CACHE_HITS = _registry.counter(
    "provider_dataset_cache_hits_total",
    "Dataset resolutions served from the in-process sample cache.",
    labelnames=("dataset",),
)
_DATASET_CHECKSUM_FAILURES = _registry.counter(
    "provider_dataset_checksum_failures_total",
    "Dataset loads rejected because the file bytes did not match the "
    "registered SHA-256.",
    labelnames=("dataset",),
)


def descriptor(name: str) -> DatasetDescriptor:
    """The descriptor for a dataset name; raises listing known names."""
    if name not in DATASETS:
        raise UnknownTraceNameError("dataset", name, DATASETS)
    return DATASETS[name]


def load_samples(name: str, verify: bool = True) -> np.ndarray:
    """The dataset's sample array (read-only view), checksum-verified.

    Files are parsed once per process; subsequent loads hit the cache
    (and count as cache hits in the obs registry).
    """
    if name in _SAMPLE_CACHE:
        _DATASET_CACHE_HITS.labels(dataset=name).inc()
        return _SAMPLE_CACHE[name]
    desc = descriptor(name)
    payload = desc.path.read_bytes()
    if verify:
        digest = hashlib.sha256(payload).hexdigest()
        if digest != desc.sha256:
            _DATASET_CHECKSUM_FAILURES.labels(dataset=name).inc()
            raise DatasetIntegrityError(
                f"dataset {name!r} failed checksum verification: "
                f"expected sha256 {desc.sha256}, file has {digest}; "
                "regenerate with `python -m repro.providers.datagen` or "
                "restore the original file"
            )
    samples = _parse_csv(name, payload.decode("utf-8"))
    samples.flags.writeable = False
    _SAMPLE_CACHE[name] = samples
    _DATASET_LOADS.labels(dataset=name).inc()
    return samples


def _parse_csv(name: str, text: str) -> np.ndarray:
    """Parse the canonical dataset CSV: comments, header, time/value rows."""
    values = []
    expected_time = 0
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("time_s"):
            continue
        time_field, value_field = line.split(",", 1)
        if int(time_field) != expected_time:
            raise DatasetIntegrityError(
                f"dataset {name!r} has a non-contiguous timestamp: "
                f"expected {expected_time}, got {time_field}"
            )
        expected_time += int(DATASET_INTERVAL_S)
        values.append(float(value_field))
    if not values:
        raise DatasetIntegrityError(f"dataset {name!r} contains no samples")
    return np.asarray(values, dtype=float)


def clear_sample_cache() -> None:
    """Drop cached sample arrays (tests that tamper with files use this)."""
    _SAMPLE_CACHE.clear()


def validate_all() -> Dict[str, str]:
    """Checksum-verify every registered dataset; return name -> sha256.

    Used by ``repro traces validate`` and the lint CI job: any drift
    between the files and the registered hashes fails loudly.
    """
    clear_sample_cache()
    results = {}
    for name in sorted(DATASETS):
        load_samples(name, verify=True)
        results[name] = DATASETS[name].sha256
    return results


def dataset_provenance(params: Mapping[str, object]) -> Dict[str, Dict[str, str]]:
    """Dataset identity for every param value naming a registered dataset.

    Scenario provenance calls this on the param dict: any string value
    that resolves in the registry (directly, or as a ``+``-separated
    generation spec) contributes ``{param: {dataset, sha256}}`` entries,
    tying the run's ``config_hash`` to the exact data bytes behind it.
    """
    provenance: Dict[str, Dict[str, str]] = {}
    for key, value in params.items():
        if not isinstance(value, str):
            continue
        if value in DATASETS:
            names = [value]
        else:
            names = [
                GENERATION_ALIASES.get(part.strip().lower(), part.strip())
                for part in value.split("+")
            ]
            names = [name for name in names if name in DATASETS]
        for name in names:
            entry_key = key if len(names) == 1 else f"{key}.{name}"
            provenance[entry_key] = {
                "dataset": name,
                "sha256": DATASETS[name].sha256,
            }
    return provenance


# -- trace resolvers ----------------------------------------------------


def resolve_carbon_trace(name: str, days: int = 4, seed: int = 2023):
    """A :class:`CarbonTrace` for a dataset name or synthetic region.

    Bundled datasets win; otherwise the name falls through to the
    synthetic region profiles.  Unknown names raise listing *both*
    namespaces, since callers see them as one.
    """
    from repro.carbon.traces import REGION_PROFILES, CarbonTrace, make_region_trace

    if name in DATASETS:
        desc = DATASETS[name]
        if desc.kind != "carbon":
            raise UnknownTraceNameError(
                "carbon dataset", name, _names_of_kind("carbon")
            )
        return CarbonTrace(load_samples(name), region=desc.region)
    if name.lower() in REGION_PROFILES:
        return make_region_trace(name, days=days, seed=seed)
    raise UnknownTraceNameError(
        "carbon trace",
        name,
        set(_names_of_kind("carbon")) | set(REGION_PROFILES),
    )


def resolve_price_trace(name: str, days: int = 4, seed: int = 2023):
    """A :class:`PriceTrace` for a dataset name or synthetic regime."""
    from repro.market.prices import PRICE_REGIMES, PriceTrace, make_price_trace

    if name in DATASETS:
        desc = DATASETS[name]
        if desc.kind != "price":
            raise UnknownTraceNameError(
                "price dataset", name, _names_of_kind("price")
            )
        return PriceTrace(load_samples(name), regime=name)
    if name.lower() in PRICE_REGIMES:
        return make_price_trace(name, days=days, seed=seed)
    raise UnknownTraceNameError(
        "price trace",
        name,
        set(_names_of_kind("price")) | set(PRICE_REGIMES),
    )


#: Shorthand generation components -> default capacity-factor datasets.
GENERATION_ALIASES = {
    "solar": "solar-cf-2022",
    "wind": "wind-cf-2022",
}


def resolve_generation(spec: str) -> Tuple[Optional[object], Optional[object]]:
    """Resolve a ``+``-separated generation spec into (solar, wind) traces.

    Components are either the shorthands ``solar``/``wind`` (their
    default capacity-factor datasets) or explicit ``solar-cf``/
    ``wind-cf`` dataset names.  Returns a
    (:class:`TabularSolarTrace` | None, :class:`WindCapacityTrace` | None)
    pair of stock trace types.
    """
    from repro.energy.solar import TabularSolarTrace
    from repro.energy.wind import WindCapacityTrace

    solar_trace = None
    wind_trace = None
    valid = set(GENERATION_ALIASES) | {
        d.name for d in _DESCRIPTORS if d.kind in ("solar-cf", "wind-cf")
    }
    for part in spec.split("+"):
        name = GENERATION_ALIASES.get(part.strip().lower(), part.strip())
        if name not in DATASETS or DATASETS[name].kind not in (
            "solar-cf",
            "wind-cf",
        ):
            raise UnknownTraceNameError("generation component", part, valid)
        samples = load_samples(name)
        if DATASETS[name].kind == "solar-cf":
            # The dataset is at the registry's 5-minute interval; the
            # solar emulator consumes per-minute irradiance, so each
            # sample is held for its five minutes.
            solar_trace = TabularSolarTrace(np.repeat(samples, 5))
        else:
            wind_trace = WindCapacityTrace(samples)
    return solar_trace, wind_trace


def generation_datasets(spec: str) -> Tuple[str, ...]:
    """The dataset names a generation spec resolves to (for provenance)."""
    names = []
    for part in spec.split("+"):
        name = GENERATION_ALIASES.get(part.strip().lower(), part.strip())
        if name in DATASETS:
            names.append(name)
    return tuple(names)


def _names_of_kind(kind: str) -> Tuple[str, ...]:
    return tuple(d.name for d in _DESCRIPTORS if d.kind == kind)
