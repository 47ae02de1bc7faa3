"""Integration: Figure 6/7 carbon budgeting shapes.

Each check is one row of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation at
the scenarios' committed defaults.
"""

from tests.conftest import claim_holds


class TestSloBehaviour:
    def test_static_policy_violates_slo(self, claims_report):
        claim_holds(claims_report, "6", "system-policy SLO violations, worse app")

    def test_dynamic_policy_nearly_always_meets_slo(self, claims_report):
        claim_holds(claims_report, "6", "dynamic-budget SLO violations, worse app")

    def test_dynamic_strictly_better_attainment(self, claims_report):
        claim_holds(claims_report, "6", "dynamic minus system violations, closer app")


class TestCarbonBehaviour:
    def test_dynamic_emits_less(self, claims_report):
        claim_holds(claims_report, "7", "webapp1 carbon, dynamic vs system")
        claim_holds(claims_report, "7", "webapp2 carbon, dynamic vs system")

    def test_dynamic_stays_within_budget(self, claims_report):
        claim_holds(claims_report, "7", "dynamic carbon / 48 h budget, higher app")


class TestSeries:
    def test_bundle_contains_expected_series(self, claims_report):
        claim_holds(claims_report, "6", "dynamic-budget SLO violations, worse app")
        claim_holds(claims_report, "7", "dynamic mean carbon rate / target, higher app")
        claim_holds(claims_report, "7", "system-policy webapp1 workers vs carbon, r")

    def test_system_policy_workers_track_carbon_inversely(self, claims_report):
        claim_holds(claims_report, "7", "system-policy webapp1 workers vs carbon, r")
