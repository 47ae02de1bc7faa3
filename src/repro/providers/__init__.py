"""The bundled-dataset registry: named, checksum-verified signal data."""

from repro.providers.registry import (
    DATASETS,
    DatasetDescriptor,
    dataset_provenance,
    descriptor,
    generation_datasets,
    load_samples,
    resolve_carbon_trace,
    resolve_generation,
    resolve_price_trace,
    validate_all,
)

__all__ = [
    "DATASETS",
    "DatasetDescriptor",
    "dataset_provenance",
    "descriptor",
    "generation_datasets",
    "load_samples",
    "resolve_carbon_trace",
    "resolve_generation",
    "resolve_price_trace",
    "validate_all",
]
