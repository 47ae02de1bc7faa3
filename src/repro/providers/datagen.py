"""Regenerate the bundled historical datasets.

The registry's datasets are CSV snapshots of the deterministic
synthesizers, frozen with checksums so dataset-backed runs are
reproducible *by content*, not merely by code path: a run records the
dataset's SHA-256 in its provenance, and the registry refuses to load a
file whose bytes drifted from the recorded hash.

Run ``python -m repro.providers.datagen`` to rewrite every file under
``providers/data/`` and print the descriptor checksums to paste into
:mod:`repro.providers.registry` when a dataset is intentionally changed.
All generators are seeded (seed 2022, the datasets' vintage year) and
the CSV float format is ``repr`` round-tripping, so regeneration is
byte-identical across machines.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.carbon.traces import REGION_PROFILES, synthesize_trace
from repro.energy.solar import SolarTrace
from repro.energy.wind import synthesize_wind_trace
from repro.market.prices import realtime_price_trace

DATA_DIR = Path(__file__).resolve().parent / "data"

#: All bundled datasets cover four days at the 5-minute interval.
DATASET_DAYS = 4
DATASET_SEED = 2022
INTERVAL_S = 300
_SAMPLES_PER_HOUR = 12
_HOURS = DATASET_DAYS * 24

#: Day-ahead hourly-block price calibration ($/kWh, wholesale scale).
DAYAHEAD_BASE_USD_PER_KWH = 0.075
DAYAHEAD_DUCK_AMPLITUDE = 0.05
DAYAHEAD_DAILY_DRIFT_SIGMA = 0.008
DAYAHEAD_FLOOR_USD_PER_KWH = 0.005


def _carbon_samples(region: str) -> np.ndarray:
    trace = synthesize_trace(
        REGION_PROFILES[region], days=DATASET_DAYS, seed=DATASET_SEED
    )
    return np.asarray(trace.samples)


def _dayahead_samples() -> np.ndarray:
    """Hourly-block day-ahead prices shaped by the duck curve.

    Day-ahead markets clear one price per hour, so the trace is a step
    function: one cleared price per hour, repeated across that hour's
    twelve 5-minute samples.  Prices follow the same net-load shape as
    the real-time trace but without its noise and scarcity spikes —
    that contrast (smooth blocks vs. spiky continuum) is what the
    day-ahead/realtime scenario comparisons exercise.
    """
    from repro.carbon.traces import duck_curve

    rng = np.random.default_rng(DATASET_SEED)
    hours_of_day = (np.arange(_HOURS) + 0.5) % 24.0
    duck = DAYAHEAD_DUCK_AMPLITUDE * duck_curve(hours_of_day)
    daily_drift = np.repeat(
        rng.normal(0.0, DAYAHEAD_DAILY_DRIFT_SIGMA, size=DATASET_DAYS), 24
    )
    hourly = np.clip(
        DAYAHEAD_BASE_USD_PER_KWH + duck + daily_drift,
        DAYAHEAD_FLOOR_USD_PER_KWH,
        None,
    )
    return np.repeat(hourly, _SAMPLES_PER_HOUR)


def _realtime_samples() -> np.ndarray:
    return np.asarray(
        realtime_price_trace(days=DATASET_DAYS, seed=DATASET_SEED).samples
    )


def _wind_cf_samples() -> np.ndarray:
    return np.asarray(
        synthesize_wind_trace(days=DATASET_DAYS, seed=DATASET_SEED).samples
    )


def _solar_cf_samples() -> np.ndarray:
    # The solar synthesizer is per-minute; the bundled dataset keeps the
    # registry's uniform 5-minute interval by taking every fifth sample.
    return np.asarray(SolarTrace(days=DATASET_DAYS, seed=DATASET_SEED)._samples)[::5]


#: name -> (kind, region, units, builder)
GENERATORS = {
    "caiso-2022": ("carbon", "caiso", "gCO2eq/kWh", lambda: _carbon_samples("caiso")),
    "ontario-2022": (
        "carbon",
        "ontario",
        "gCO2eq/kWh",
        lambda: _carbon_samples("ontario"),
    ),
    "uruguay-2022": (
        "carbon",
        "uruguay",
        "gCO2eq/kWh",
        lambda: _carbon_samples("uruguay"),
    ),
    "germany-2022": (
        "carbon",
        "germany",
        "gCO2eq/kWh",
        lambda: _carbon_samples("germany"),
    ),
    "caiso-dayahead-2022": ("price", "caiso", "USD/kWh", _dayahead_samples),
    "caiso-realtime-2022": ("price", "caiso", "USD/kWh", _realtime_samples),
    "wind-cf-2022": ("wind-cf", "caiso", "fraction", _wind_cf_samples),
    "solar-cf-2022": ("solar-cf", "caiso", "fraction", _solar_cf_samples),
}


def render_csv(
    name: str, kind: str, region: str, units: str, samples: np.ndarray
) -> str:
    """The canonical CSV text for a dataset (the bytes that get hashed)."""
    lines = [
        f"# dataset: {name}",
        f"# kind: {kind}",
        f"# region: {region}",
        f"# units: {units}",
        f"# interval_s: {INTERVAL_S}",
        "time_s,value",
    ]
    for i, value in enumerate(samples.tolist()):
        lines.append(f"{i * INTERVAL_S},{value!r}")
    return "\n".join(lines) + "\n"


def regenerate(data_dir: Path = DATA_DIR) -> dict:
    """Rewrite every dataset file; return name -> sha256 of the bytes."""
    data_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, (kind, region, units, builder) in GENERATORS.items():
        text = render_csv(name, kind, region, units, builder())
        payload = text.encode("utf-8")
        (data_dir / f"{name}.csv").write_bytes(payload)
        checksums[name] = hashlib.sha256(payload).hexdigest()
    return checksums


def main() -> None:
    checksums = regenerate()
    print("# paste into repro/providers/registry.py:")
    for name, digest in sorted(checksums.items()):
        print(f'    "{name}": "{digest}",')


if __name__ == "__main__":
    main()
