"""Integration: Figure 8/9 battery policy shapes.

Each check is one row of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation at
the scenarios' committed defaults.
"""

from tests.conftest import claim_holds


class TestZeroCarbon:
    def test_no_app_ever_emits(self, claims_report):
        claim_holds(claims_report, "8", "carbon, any app and run, g")


class TestSparkRuntime:
    def test_both_variants_complete(self, claims_report):
        claim_holds(claims_report, "8", "Spark runs completed")

    def test_dynamic_substantially_faster(self, claims_report):
        claim_holds(claims_report, "8", "Spark runtime, dynamic vs static")

    def test_dynamic_lost_bounded_work(self, claims_report):
        claim_holds(claims_report, "8", "Spark work lost to unclean kills, dynamic")


class TestWebSlo:
    def test_static_violates_under_peak_load(self, claims_report):
        claim_holds(claims_report, "8", "web SLO violations, system policy")

    def test_dynamic_nearly_always_meets(self, claims_report):
        claim_holds(claims_report, "8", "web SLO violations, dynamic")


class TestBatterySeries:
    def test_soc_series_stay_in_range(self, claims_report):
        claim_holds(claims_report, "9", "lowest SoC, either app")
        claim_holds(claims_report, "9", "highest SoC, either app")

    def test_batteries_both_charge_and_discharge(self, claims_report):
        claim_holds(claims_report, "9", "peak charging power, lesser app, W")
        claim_holds(claims_report, "9", "peak discharging power, lesser app, W")

    def test_apps_use_batteries_differently(self, claims_report):
        claim_holds(claims_report, "9", "largest SoC gap between the apps")
