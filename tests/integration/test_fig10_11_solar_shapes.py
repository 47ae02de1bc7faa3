"""Integration: Figure 10/11 solar-exploitation shapes.

Each check is one row of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation at
the scenarios' committed defaults.
"""

from tests.conftest import claim_holds


class TestFig10:
    def test_all_runs_complete(self, claims_report):
        claim_holds(claims_report, "10c", "runs completed")

    def test_dynamic_never_slower(self, claims_report):
        claim_holds(claims_report, "10c", "lowest improvement over the sweep")

    def test_improvement_grows_as_solar_shrinks(self, claims_report):
        claim_holds(claims_report, "10c", "improvement at 20% minus at 80% solar")

    def test_energy_efficiency_rises_with_solar(self, claims_report):
        claim_holds(claims_report, "10c", "smallest work/J step, 10% to 80% solar")


class TestFig11:
    def test_all_runs_complete(self, claims_report):
        claim_holds(claims_report, "11", "runs completed")

    def test_no_improvement_without_excess(self, claims_report):
        claim_holds(claims_report, "11", "runtime improvement at 100% solar")

    def test_excess_solar_buys_runtime(self, claims_report):
        claim_holds(claims_report, "11", "runtime improvement at 150% solar")

    def test_diminishing_returns(self, claims_report):
        claim_holds(claims_report, "11", "gain 150-200% minus improvement at 150%")

    def test_energy_efficiency_declines_with_excess(self, claims_report):
        claim_holds(claims_report, "11", "work/J at 200% / at 100% solar")
