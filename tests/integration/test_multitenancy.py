"""Integration: Multi-tenant operation on one shared ecovisor (Figure 5).

Each check is one row of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation at
the scenarios' committed defaults.
"""

from tests.conftest import claim_holds


class TestConcurrentExecution:
    def test_both_jobs_complete(self, claims_report):
        claim_holds(claims_report, "5", "jobs completed")

    def test_thresholds_differ_per_application(self, claims_report):
        claim_holds(claims_report, "5", "ML minus BLAST threshold, g/kWh")

    def test_per_app_carbon_isolated(self, claims_report):
        claim_holds(claims_report, "5", "carbon of the cleaner app, g")


class TestContainerSeries:
    def test_series_present(self, claims_report):
        claim_holds(claims_report, "5", "ML peak containers")
        claim_holds(claims_report, "5", "BLAST peak containers")
        claim_holds(claims_report, "5", "cluster peak containers")

    def test_ml_scales_between_zero_and_eight(self, claims_report):
        claim_holds(claims_report, "5", "ML peak containers")
        claim_holds(claims_report, "5", "ML fewest containers")
        claim_holds(claims_report, "5", "ML ticks at neither 0 nor 8 containers")

    def test_blast_scales_between_zero_and_twentyfour(self, claims_report):
        claim_holds(claims_report, "5", "BLAST peak containers")

    def test_cluster_is_sum_of_apps(self, claims_report):
        claim_holds(claims_report, "5", "cluster peak containers")

    def test_apps_sometimes_run_simultaneously(self, claims_report):
        claim_holds(claims_report, "5", "ticks both apps run")
