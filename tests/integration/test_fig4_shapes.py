"""Integration: Figure 4 policy orderings.

Each check is one row of the paper's claims table
(:mod:`repro.analysis.claims`), read from the session's one evaluation at
the scenarios' committed defaults.
"""

from tests.conftest import claim_holds


class TestFig4aML:
    def test_all_policies_complete(self, claims_report):
        claim_holds(claims_report, "4a", "arrivals completed, fewest over the policies")

    def test_agnostic_is_fastest(self, claims_report):
        claim_holds(claims_report, "4a", "fastest carbon-aware runtime / agnostic")

    def test_suspend_resume_cuts_carbon_substantially(self, claims_report):
        claim_holds(claims_report, "4a", "suspend/resume carbon vs agnostic")

    def test_suspend_resume_inflates_runtime_severely(self, claims_report):
        claim_holds(claims_report, "4a", "suspend/resume runtime / agnostic")

    def test_ws2_dominates_suspend_resume_on_runtime(self, claims_report):
        claim_holds(claims_report, "4a", "W&S(2x) runtime / suspend/resume")

    def test_ws2_carbon_comparable_to_suspend_resume(self, claims_report):
        claim_holds(claims_report, "4a", "W&S(2x) minus suspend/resume carbon change")

    def test_ws3_emits_more_than_ws2(self, claims_report):
        claim_holds(claims_report, "4a", "W&S(3x) carbon vs W&S(2x)")

    def test_ws3_no_faster_in_proportion(self, claims_report):
        claim_holds(claims_report, "4a", "W&S(3x) runtime vs W&S(2x)")


class TestFig4bBlast:
    def test_all_complete(self, claims_report):
        claim_holds(claims_report, "4b", "arrivals completed, fewest over the policies")

    def test_suspend_resume_cuts_carbon(self, claims_report):
        claim_holds(claims_report, "4b", "suspend/resume carbon vs agnostic")

    def test_suspend_resume_inflates_runtime(self, claims_report):
        claim_holds(claims_report, "4b", "suspend/resume runtime / agnostic")

    def test_ws_runtime_strictly_improves_with_scale_to_3x(self, claims_report):
        claim_holds(claims_report, "4b", "W&S(2x) runtime vs suspend/resume")
        claim_holds(claims_report, "4b", "W&S(3x) runtime vs W&S(2x)")

    def test_ws3_much_faster_than_suspend_resume(self, claims_report):
        claim_holds(claims_report, "4b", "W&S(3x) runtime vs suspend/resume")

    def test_ws_carbon_not_worse_than_suspend_resume_up_to_3x(self, claims_report):
        claim_holds(claims_report, "4b", "W&S(2x) carbon / suspend/resume")
        claim_holds(claims_report, "4b", "W&S(3x) carbon / suspend/resume")

    def test_queue_bottleneck_at_4x(self, claims_report):
        claim_holds(claims_report, "4b", "W&S(4x) runtime vs W&S(3x)")
        claim_holds(claims_report, "4b", "W&S(4x) carbon vs W&S(3x)")
