"""Integration: the Figure 1 and Figure 10(a)/(b) scenarios.

The shape checks are rows of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation.
"""

from repro.sim.runner import run_sweep
from tests.conftest import claim_holds


class TestFig01Bundle:
    def test_three_regions_present(self, claims_report):
        claim_holds(claims_report, "1", "Uruguay / Ontario mean intensity")
        claim_holds(claims_report, "1", "CAISO / Uruguay mean intensity")

    def test_five_minute_sampling(self, claims_report):
        claim_holds(claims_report, "1", "sampling interval, s")
        claim_holds(claims_report, "1", "samples per day, fewest over the regions")

    def test_deterministic(self):
        overrides = {"days": 1}
        first = run_sweep("fig01_carbon_traces", overrides=overrides).metrics_json()
        assert run_sweep("fig01_carbon_traces", overrides=overrides).metrics_json() == first


class TestFig10DaySeries:
    def test_solar_and_app_power_series_present(self, claims_report):
        claim_holds(claims_report, "10a-b", "ticks drawing > 0.5 W above solar")

    def test_per_container_cap_series_present(self, claims_report):
        claim_holds(claims_report, "10a-b", "per-container cap series")

    def test_application_power_bounded_by_solar_envelope(self, claims_report):
        claim_holds(claims_report, "10a-b", "ticks drawing > 0.5 W above solar")
