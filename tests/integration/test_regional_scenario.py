"""The ``regional`` scenario: offline determinism, provenance, summary rows."""

import pytest

from repro.analysis.figures_regional import regional_summary_rows
from repro.sim import scenarios
from repro.sim.runner import run_sweep

#: A reduced matrix so the determinism checks stay fast: two regions,
#: two policies, solar-only generation (4 runs per sweep).
SMALL = {
    "region": ["caiso-2022", "ontario-2022"],
    "policy": ["agnostic", "wait-and-scale"],
    "generation": "solar",
}


class TestRegionalDeterminism:
    def test_serial_parallel_and_repeat_are_byte_identical(self, monkeypatch):
        # The scenario must not reach for the network even implicitly.
        monkeypatch.setenv("REPRO_OFFLINE", "1")
        serial = run_sweep("regional", overrides=SMALL, jobs=1)
        parallel = run_sweep("regional", overrides=SMALL, jobs=2)
        repeat = run_sweep("regional", overrides=SMALL, jobs=1)
        assert not serial.failures()
        assert serial.metrics_json() == parallel.metrics_json()
        assert serial.metrics_json() == repeat.metrics_json()

    def test_all_runs_complete_and_state_their_provenance(self):
        sweep = run_sweep("regional", overrides=SMALL, jobs=1)
        for result in sweep:
            assert result.ok, result.error
            assert result.metrics["completed"] == 1.0
            assert result.metrics["carbon_dataset"] == (
                result.spec.params["region"]
            )
            assert len(result.metrics["carbon_checksum"]) == 64


class TestDatasetProvenanceInHashes:
    def test_regional_specs_carry_dataset_checksums(self):
        from repro.providers.registry import DATASETS

        spec = scenarios.expand("regional")[0]
        provenance = spec.dataset_provenance
        region = spec.params["region"]
        assert provenance["region"]["dataset"] == region
        assert provenance["region"]["sha256"] == DATASETS[region].sha256
        # The generation spec contributes its capacity-factor datasets.
        assert any(key.startswith("generation") for key in provenance)

    def test_hash_distinguishes_datasets(self):
        specs = scenarios.expand("regional")
        hashes = {spec.config_hash for spec in specs}
        assert len(hashes) == len(specs)

    def test_non_dataset_scenarios_keep_clean_payloads(self):
        spec = scenarios.expand("smoke")[0]
        assert spec.dataset_provenance == {}


class TestSummaryRows:
    def test_reduction_is_relative_to_same_key_agnostic(self):
        table = [
            {
                "region": "caiso-2022",
                "generation": "solar",
                "policy": "agnostic",
                "carbon_g": 10.0,
                "runtime_s": 100.0,
                "completed": 1.0,
                "carbon_dataset": "caiso-2022",
                "carbon_checksum": "a" * 64,
            },
            {
                "region": "caiso-2022",
                "generation": "solar",
                "policy": "wait-and-scale",
                "carbon_g": 4.0,
                "runtime_s": 150.0,
                "completed": 1.0,
                "carbon_dataset": "caiso-2022",
                "carbon_checksum": "a" * 64,
            },
        ]
        rows = regional_summary_rows(table)
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["agnostic"]["carbon_reduction_vs_agnostic"] == 0.0
        assert by_policy["wait-and-scale"][
            "carbon_reduction_vs_agnostic"
        ] == pytest.approx(0.6)

    def test_unknown_policy_raises_value_error(self):
        from repro.analysis.figures_regional import run_regional_case

        with pytest.raises(ValueError, match="unknown regional policy"):
            run_regional_case("caiso-2022", "nope")
