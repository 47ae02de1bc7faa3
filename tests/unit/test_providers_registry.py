"""The bundled-dataset registry: checksums, provenance, resolvers."""

import numpy as np
import pytest

from repro.carbon.traces import CarbonTrace
from repro.core.errors import (
    DatasetIntegrityError,
    TraceError,
    UnknownTraceNameError,
)
from repro.energy.solar import TabularSolarTrace
from repro.energy.wind import WindCapacityTrace
from repro.market.prices import PriceTrace
from repro.providers import registry
from repro.providers.registry import (
    DATASETS,
    clear_sample_cache,
    dataset_provenance,
    descriptor,
    generation_datasets,
    load_samples,
    resolve_carbon_trace,
    resolve_generation,
    resolve_price_trace,
    validate_all,
)


class TestDescriptors:
    def test_registry_covers_the_required_dataset_kinds(self):
        kinds = {d.kind for d in DATASETS.values()}
        assert kinds == {"carbon", "price", "wind-cf", "solar-cf"}
        carbon = [d for d in DATASETS.values() if d.kind == "carbon"]
        prices = [d for d in DATASETS.values() if d.kind == "price"]
        assert len(carbon) >= 3  # at least three regional carbon traces
        assert len(prices) >= 2  # day-ahead and realtime

    def test_every_descriptor_pins_a_full_sha256(self):
        for desc in DATASETS.values():
            assert len(desc.sha256) == 64
            assert desc.path.exists(), desc.name

    def test_unknown_name_raises_value_error_listing_datasets(self):
        with pytest.raises(UnknownTraceNameError) as excinfo:
            descriptor("nope")
        assert isinstance(excinfo.value, ValueError)
        assert "caiso-2022" in str(excinfo.value)


class TestLoadSamples:
    def test_samples_are_read_only_and_cached(self):
        clear_sample_cache()
        first = load_samples("caiso-2022")
        second = load_samples("caiso-2022")
        assert first is second  # cache hit, same array
        with pytest.raises(ValueError):
            first[0] = 999.0

    def test_validate_all_passes_on_pristine_files(self):
        results = validate_all()
        assert sorted(results) == sorted(DATASETS)
        for name, sha in results.items():
            assert sha == DATASETS[name].sha256


class TestChecksumRejection:
    @pytest.fixture
    def tampered_data_dir(self, tmp_path, monkeypatch):
        """A data dir whose caiso-2022 file parses fine but has one
        altered value, so only the checksum can catch the drift."""
        for desc in DATASETS.values():
            tmp_path.joinpath(desc.filename).write_bytes(
                desc.path.read_bytes()
            )
        target = tmp_path / "caiso-2022.csv"
        lines = target.read_text().splitlines()
        for i, line in enumerate(lines):
            if line and not line.startswith(("#", "time_s")):
                time_field, value = line.split(",", 1)
                lines[i] = f"{time_field},{float(value) + 1.0!r}"
                break
        target.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(registry, "DATA_DIR", tmp_path)
        clear_sample_cache()
        yield tmp_path
        clear_sample_cache()

    def test_tampered_file_is_rejected(self, tampered_data_dir):
        with pytest.raises(DatasetIntegrityError, match="checksum"):
            load_samples("caiso-2022")

    def test_verify_false_skips_the_checksum(self, tampered_data_dir):
        samples = load_samples("caiso-2022", verify=False)
        assert len(samples) > 0

    def test_validate_all_catches_the_drift(self, tampered_data_dir):
        with pytest.raises(DatasetIntegrityError):
            validate_all()

    def test_noncontiguous_timestamps_rejected(self, tampered_data_dir):
        target = tampered_data_dir / "ontario-2022.csv"
        text = target.read_text().replace("\n300,", "\n600,", 1)
        target.write_text(text)
        with pytest.raises(DatasetIntegrityError, match="non-contiguous"):
            load_samples("ontario-2022", verify=False)


class TestProvenance:
    def test_direct_dataset_param(self):
        prov = dataset_provenance({"region": "caiso-2022", "seed": 2023})
        assert prov == {
            "region": {
                "dataset": "caiso-2022",
                "sha256": DATASETS["caiso-2022"].sha256,
            }
        }

    def test_generation_spec_expands_to_aliased_datasets(self):
        prov = dataset_provenance({"generation": "wind+solar"})
        assert prov["generation.wind-cf-2022"]["dataset"] == "wind-cf-2022"
        assert prov["generation.solar-cf-2022"]["dataset"] == "solar-cf-2022"

    def test_non_dataset_values_are_ignored(self):
        assert dataset_provenance({"policy": "agnostic", "days": 2}) == {}

    def test_generation_datasets_helper(self):
        assert generation_datasets("solar") == ("solar-cf-2022",)
        assert set(generation_datasets("wind+solar")) == {
            "wind-cf-2022",
            "solar-cf-2022",
        }


class TestResolvers:
    def test_carbon_dataset_resolves_to_stock_trace(self):
        trace = resolve_carbon_trace("caiso-2022")
        assert type(trace) is CarbonTrace
        assert trace.region == "caiso"
        np.testing.assert_array_equal(
            np.asarray(trace.samples), load_samples("caiso-2022")
        )

    def test_carbon_falls_through_to_synthetic_regions(self):
        trace = resolve_carbon_trace("ontario", days=1, seed=7)
        assert type(trace) is CarbonTrace
        assert trace.region == "ontario"

    def test_carbon_unknown_lists_both_namespaces(self):
        with pytest.raises(UnknownTraceNameError) as excinfo:
            resolve_carbon_trace("nope")
        message = str(excinfo.value)
        assert "caiso-2022" in message  # datasets
        assert "ontario" in message  # synthetic regions

    def test_carbon_rejects_wrong_kind(self):
        with pytest.raises(UnknownTraceNameError):
            resolve_carbon_trace("caiso-dayahead-2022")

    def test_price_dataset_and_regime(self):
        dataset = resolve_price_trace("caiso-dayahead-2022")
        assert type(dataset) is PriceTrace
        assert dataset.regime == "caiso-dayahead-2022"
        regime = resolve_price_trace("tou", days=1)
        assert regime.regime == "tou"
        with pytest.raises(UnknownTraceNameError):
            resolve_price_trace("wind-cf-2022")

    def test_generation_solar_only(self):
        solar, wind = resolve_generation("solar")
        assert type(solar) is TabularSolarTrace
        assert wind is None

    def test_generation_hybrid(self):
        solar, wind = resolve_generation("wind+solar")
        assert type(solar) is TabularSolarTrace
        assert type(wind) is WindCapacityTrace
        # solar datasets are 5-minute; the solar trace is per-minute, so
        # each dataset sample is held for its five minutes.
        samples = load_samples("solar-cf-2022")
        assert solar.irradiance_at(0.0) == samples[0]
        assert solar.irradiance_at(299.0) == samples[0]
        assert solar.irradiance_at(300.0) == samples[1]
        np.testing.assert_array_equal(
            np.asarray(wind.samples), load_samples("wind-cf-2022")
        )

    def test_generation_explicit_dataset_names(self):
        solar, wind = resolve_generation("solar-cf-2022+wind-cf-2022")
        assert solar is not None and wind is not None

    def test_generation_unknown_component(self):
        with pytest.raises(UnknownTraceNameError) as excinfo:
            resolve_generation("coal")
        assert isinstance(excinfo.value, TraceError)
        assert "wind" in str(excinfo.value)
