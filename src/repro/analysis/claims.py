"""The paper's claims as one checked table.

Each row sets one quantity of a paper figure (or of an ablation or
extension) beside its reproduction: the paper's value as the paper
states it, the value the catalog scenarios reproduce at their committed
defaults (seed 2023), and a check.  A check is either a *tolerance*
around the paper's number, or an *ordering* -- a bound that only the
direction of the paper's result fixes -- with the reason a tolerance
does not apply (the synthetic carbon traces, the scaled-down cluster,
or a shape the paper plots without a number).

A row holds when its quantity, printed at the row's precision, reads
the committed value and passes its check.  So a change that moves any
reproduced number fails the table until the row (and README's copy of
it) is updated, and a gap to the paper is never silent.

``repro claims`` and the tier-1 claims test both run :func:`evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

Tables = Mapping[str, Sequence[Mapping[str, Any]]]

#: Every scenario the table reads, in the order their runs are queued.
SCENARIOS = (
    "fig01_carbon_traces",
    "fig04a_ml_training",
    "fig04b_blast",
    "fig05_multitenancy",
    "fig06_web_budgeting",
    "fig08_battery_policies",
    "fig10_solar_day",
    "fig10_solar_caps",
    "fig11_stragglers",
    "ablation_threshold",
    "ablation_battery",
    "ablation_forecast",
    "ablation_solar_buffer",
    "ablation_stall_power",
    "extension_geo",
    "extension_market",
    "regional",
)


@dataclass(frozen=True)
class Check:
    """``value op bound``; ``between`` is open, ``~`` is the tolerance kind
    (``|value - bound| <= upper``, with ``bound`` the paper's number)."""

    op: str
    bound: float
    upper: float = 0.0

    def holds(self, value: float) -> bool:
        if self.op == "~":
            return abs(value - self.bound) <= self.upper
        if self.op == "between":
            return self.bound < value < self.upper
        return {
            "<": value < self.bound,
            "<=": value <= self.bound,
            ">": value > self.bound,
            ">=": value >= self.bound,
            "==": value == self.bound,
            "!=": value != self.bound,
        }[self.op]

    def describe(self, fmt: str) -> str:
        if self.op == "~":
            return f"{fmt.format(self.bound)} ± {fmt.format(self.upper).lstrip('+')}"
        if self.op == "between":
            return f"{fmt.format(self.bound)} to {fmt.format(self.upper)}"
        return f"{self.op} {fmt.format(self.bound)}"


def below(x: float) -> Check:
    return Check("<", x)


def at_most(x: float) -> Check:
    return Check("<=", x)


def above(x: float) -> Check:
    return Check(">", x)


def at_least(x: float) -> Check:
    return Check(">=", x)


def equals(x: float) -> Check:
    return Check("==", x)


def differs(x: float) -> Check:
    return Check("!=", x)


def between(lo: float, hi: float) -> Check:
    return Check("between", lo, hi)


def near(paper: float, tolerance: float) -> Check:
    return Check("~", paper, tolerance)


@dataclass(frozen=True)
class Claim:
    """One row: a figure's quantity, the paper's value, the reproduction."""

    figure: str
    quantity: str
    paper: str
    reproduced: float
    fmt: str
    check: Check
    measure: Callable[[Tables], float]
    reason: str = ""

    def show(self, value: float) -> str:
        return self.fmt.format(value)


# -- reading the scenarios' tables ------------------------------------------

F1, ML, BL, F5 = "fig01_carbon_traces", "fig04a_ml_training", "fig04b_blast", "fig05_multitenancy"
WEB, BAT, DAY = "fig06_web_budgeting", "fig08_battery_policies", "fig10_solar_day"
CAPS, STRAG = "fig10_solar_caps", "fig11_stragglers"
GEO, MARKET, REGIONAL = "extension_geo", "extension_market", "regional"


def _row(t: Tables, scenario: str, **where: Any) -> Mapping[str, Any]:
    found = [r for r in t[scenario] if all(r[k] == v for k, v in where.items())]
    if len(found) != 1:
        raise LookupError(f"{scenario}: {len(found)} ok runs match {where}")
    return found[0]


def _pct(value: float, base: float) -> float:
    return (value - base) / base * 100.0


def metric(scenario: str, name: str, **where: Any) -> Callable[[Tables], float]:
    return lambda t: _row(t, scenario, **where)[name]


def change(
    scenario: str, name: str, a: Any, base: Any, axis: str = "policy", **where: Any
) -> Callable[[Tables], float]:
    """Percent change of ``name`` from the ``base`` run to the ``a`` run
    (runs told apart by ``axis``, the other axes pinned by ``where``)."""
    return lambda t: _pct(
        _row(t, scenario, **where, **{axis: a})[name],
        _row(t, scenario, **where, **{axis: base})[name],
    )


def ratio(scenario: str, name: str, axis: str, a: Any, b: Any) -> Callable[[Tables], float]:
    return lambda t: _row(t, scenario, **{axis: a})[name] / _row(t, scenario, **{axis: b})[name]


def completed(scenario: str, column: str = "completed") -> Callable[[Tables], float]:
    """How many of the scenario's runs completed."""
    return lambda t: float(sum(1 for r in t[scenario] if r[column] == 1.0))


def _solar_rows(t: Tables, scenario: str) -> Dict[float, Mapping[str, float]]:
    from repro.analysis.figures_solar import solar_cap_rows, straggler_rows

    pair = solar_cap_rows if scenario == CAPS else straggler_rows
    return {row["solar_pct"]: row for row in pair(list(t[scenario]))}


def solar(scenario: str, name: str, pct: float) -> Callable[[Tables], float]:
    return lambda t: _solar_rows(t, scenario)[pct][name]


def _gain(scenario: str, frm: float, to: float) -> Callable[[Tables], float]:
    """Runtime improvement at ``frm`` % solar minus at ``to`` %, in pp."""
    improvement = "runtime_improvement_pct"
    return lambda t: solar(scenario, improvement, frm)(t) - solar(scenario, improvement, to)(t)


def _efficiency_step(t: Tables) -> float:
    rows = _solar_rows(t, CAPS)
    work = [rows[p]["energy_efficiency_per_j"] for p in sorted(rows) if p <= 80.0]
    return min(b - a for a, b in zip(work, work[1:]))


def _apps(t: Tables, policy: str, name: str) -> List[float]:
    row = _row(t, WEB, policy=policy)
    return [row[f"{app}_{name}"] for app in ("webapp1", "webapp2")]


def _web(policy: str, name: str, pick: Callable) -> Callable[[Tables], float]:
    return lambda t: pick(_apps(t, policy, name))


def _web_budget_share(t: Tables) -> float:
    row = _row(t, WEB, policy="dynamic")
    budget_g = row["target_rate_mg_per_s"] * 48 * 3600.0 / 1000.0
    return max(row["webapp1_carbon_g"], row["webapp2_carbon_g"]) / budget_g


def _web_rate(kind: str, pick: Callable) -> Callable[[Tables], float]:
    def measure(t: Tables) -> float:
        row = _row(t, WEB, policy="dynamic")
        return pick(row[f"{app}_{kind}_rate_mg_s"] for app in ("webapp1", "webapp2")) / row[
            "target_rate_mg_per_s"
        ]

    return measure


def _battery(name: str, pick: Callable) -> Callable[[Tables], float]:
    return lambda t: pick(
        _row(t, BAT, policy="dynamic")[f"{app}_{name}"] for app in ("spark", "web")
    )


def _zero_carbon(t: Tables) -> float:
    return max(r[f"{app}_carbon_g"] for r in t[BAT] for app in ("spark", "web"))


def _market_points(t: Tables) -> Dict[str, Dict[str, Mapping[str, Any]]]:
    from repro.analysis.figures_market import market_pareto_rows

    regimes: Dict[str, Dict[str, Mapping[str, Any]]] = {}
    for row in market_pareto_rows(list(t[MARKET])):
        regimes.setdefault(row["regime"], {})[row["policy_point"]] = row
    return regimes


def _market(
    measure: Callable[[Dict[str, Mapping[str, Any]]], float], pick: Callable = max
) -> Callable[[Tables], float]:
    """``measure`` of each price regime's points; the worst one by ``pick``."""
    return lambda t: pick(measure(points) for points in _market_points(t).values())


def _wind_over_solar(t: Tables) -> float:
    carbon = {(r["region"], r["generation"], r["policy"]): r["carbon_g"] for r in t[REGIONAL]}
    return max(
        value / carbon[(region, "solar", policy)]
        for (region, generation, policy), value in carbon.items()
        if generation == "wind+solar"
    )


def _provenance(t: Tables) -> float:
    return float(
        sum(
            1
            for r in t[REGIONAL]
            if r["carbon_dataset"] == r["region"] and len(r["carbon_checksum"]) == 64
        )
    )


def _stall_step(t: Tables) -> float:
    rows = t["ablation_stall_power"]
    penalty = [
        _row(t, "ablation_stall_power", stall=s, scale=3.0)["mean_carbon_g"]
        / _row(t, "ablation_stall_power", stall=s, scale=2.0)["mean_carbon_g"]
        - 1.0
        for s in sorted({r["stall"] for r in rows})
    ]
    return min(b - a for a, b in zip(penalty, penalty[1:])) * 100.0


def _geo_vs_best_single(t: Tables) -> float:
    single = min(_row(t, GEO, placement=p)["carbon_g"] for p in ("east-only", "west-only"))
    return _pct(_row(t, GEO, placement="geo-shifting")["carbon_g"], single)


# -- the reasons an ordering stands in for a tolerance ----------------------

TRACE = "seeded synthetic CAISO-like trace, not the paper's measured data"
REGIONS = "seeded synthetic region traces, not the paper's measured data"
SR_GAP = "measured against suspend/resume, whose penalty the synthetic trace sets"
STALL = "stall-power calibration: ablation_stall_power brackets the paper's value"
WAITING = "most of a W&S run waits above the threshold, which workers cannot shorten"
WEB_SCALE = "target rate is 0.30 mg/s for this watt-scale cluster vs the paper's 20"
SHAPE = "the paper shows this shape without a number"
RUN = "a property of the run, not a paper number"
ALWAYS = "'always' read as under 1% of ticks"
COMPARABLE = "'comparable' read as within 15 pp"
FLAT = "linear scaling keeps energy flat: within 10% (the paper reports a small gain)"
ABLATION = "ablation beyond the paper: the expected direction"
EXTENSION = "extension beyond the paper: the expected direction"
SUBSET = "work/J dips at 90% (0.7692 to 0.7684), so the rise is checked over 10-80%"

PCT, PP, RATIO, COUNT = "{:+.1f}%", "{:+.1f} pp", "{:.2f}x", "{:.0f}"

CLAIMS = (
    Claim("1", "Uruguay / Ontario mean intensity",
          "Ontario lowest (nuclear), Uruguay higher (hydro)", 2.10, RATIO, above(1.0),
          ratio(F1, "mean_g_per_kwh", "region", "uruguay", "ontario"), REGIONS),
    Claim("1", "CAISO / Uruguay mean intensity", "California highest mean",
          2.45, RATIO, above(1.0), ratio(F1, "mean_g_per_kwh", "region", "caiso", "uruguay"),
          REGIONS),
    Claim("1", "CAISO / Uruguay intensity std", "California swings most (duck curve)",
          2.23, RATIO, above(1.0), ratio(F1, "std_g_per_kwh", "region", "caiso", "uruguay"),
          REGIONS),
    Claim("1", "Uruguay / Ontario intensity std", "Ontario flattest",
          2.70, RATIO, above(1.0), ratio(F1, "std_g_per_kwh", "region", "uruguay", "ontario"),
          REGIONS),
    Claim("1", "samples per day, fewest over the regions", "5-minute data", 288, COUNT,
          equals(288), lambda t: min(r["samples"] / r["days"] for r in t[F1]), RUN),
    Claim("1", "sampling interval, s", "5 minutes", 300, COUNT, equals(300.0),
          lambda t: max(r["interval_s"] for r in t[F1]), RUN),
    Claim("4a", "arrivals completed, fewest over the policies", "all", 1.0, "{:.0%}",
          equals(1.0), lambda t: min(r["completion_rate"] for r in t[ML]), RUN),
    Claim("4a", "fastest carbon-aware runtime / agnostic", "agnostic fastest", 2.21, RATIO,
          above(1.0), lambda t: min(
              ratio(ML, "mean_runtime_s", "policy", p, "agnostic")(t)
              for p in ("suspend-resume", "ws-2x", "ws-3x")), SHAPE),
    Claim("4a", "suspend/resume carbon vs agnostic", "-24.5%", -33.3, PCT, below(-15.0),
          change(ML, "mean_carbon_g", "suspend-resume", "agnostic"), TRACE),
    Claim("4a", "suspend/resume runtime / agnostic", "7.4x", 3.65, RATIO, above(2.5),
          ratio(ML, "mean_runtime_s", "policy", "suspend-resume", "agnostic"), TRACE),
    Claim("4a", "W&S(2x) carbon vs agnostic", "~-24%", -28.0, PCT, near(-24.0, 10.0),
          change(ML, "mean_carbon_g", "ws-2x", "agnostic")),
    Claim("4a", "W&S(2x) runtime / agnostic", "2.58x", 2.29, RATIO, near(2.58, 0.4),
          ratio(ML, "mean_runtime_s", "policy", "ws-2x", "agnostic")),
    Claim("4a", "W&S(2x) runtime / suspend/resume", "2.58x vs 7.4x", 0.63, RATIO, below(1.0),
          ratio(ML, "mean_runtime_s", "policy", "ws-2x", "suspend-resume"), SR_GAP),
    Claim("4a", "W&S(2x) minus suspend/resume carbon change", "comparable (~-24% vs -24.5%)",
          5.3, PP, between(-15.0, 15.0),
          lambda t: change(ML, "mean_carbon_g", "ws-2x", "agnostic")(t)
          - change(ML, "mean_carbon_g", "suspend-resume", "agnostic")(t), COMPARABLE),
    Claim("4a", "W&S(3x) carbon vs W&S(2x)", "+14.9%", 22.5, PCT, above(5.0),
          change(ML, "mean_carbon_g", "ws-3x", "ws-2x"), STALL),
    Claim("4a", "W&S(3x) runtime vs W&S(2x)", "-12.3%", -3.5, PCT, between(-25.0, 1.0),
          change(ML, "mean_runtime_s", "ws-3x", "ws-2x"), WAITING),
    Claim("4b", "arrivals completed, fewest over the policies", "all", 1.0, "{:.0%}",
          equals(1.0), lambda t: min(r["completion_rate"] for r in t[BL]), RUN),
    Claim("4b", "suspend/resume carbon vs agnostic", "-25%", -27.0, PCT, near(-25.0, 5.0),
          change(BL, "mean_carbon_g", "suspend-resume", "agnostic")),
    Claim("4b", "suspend/resume runtime / agnostic", "5.1x", 2.14, RATIO, above(1.5),
          ratio(BL, "mean_runtime_s", "policy", "suspend-resume", "agnostic"), TRACE),
    Claim("4b", "W&S(2x) runtime vs suspend/resume", "-78%", -36.4, PCT, below(0.0),
          change(BL, "mean_runtime_s", "ws-2x", "suspend-resume"), SR_GAP),
    Claim("4b", "W&S(3x) runtime vs suspend/resume", "-83%", -51.4, PCT, below(-40.0),
          change(BL, "mean_runtime_s", "ws-3x", "suspend-resume"), SR_GAP),
    Claim("4b", "W&S(3x) runtime vs W&S(2x)", "scales well to 3x", -23.5, PCT, below(0.0),
          change(BL, "mean_runtime_s", "ws-3x", "ws-2x"), SHAPE),
    Claim("4b", "W&S(2x) carbon / suspend/resume", "lower than suspend/resume", 1.01, RATIO,
          at_most(1.1),
          ratio(BL, "mean_carbon_g", "policy", "ws-2x", "suspend-resume"), FLAT),
    Claim("4b", "W&S(3x) carbon / suspend/resume", "lower than suspend/resume", 1.02, RATIO,
          at_most(1.1),
          ratio(BL, "mean_carbon_g", "policy", "ws-3x", "suspend-resume"), FLAT),
    Claim("4b", "W&S(4x) runtime vs W&S(3x)", "flat (queue server saturates)", 0.0, PCT,
          between(-2.0, 2.0), change(BL, "mean_runtime_s", "ws-4x", "ws-3x"), SHAPE),
    Claim("4b", "W&S(4x) carbon vs W&S(3x)", "rises", 32.5, PCT, above(10.0),
          change(BL, "mean_carbon_g", "ws-4x", "ws-3x"), SHAPE),
    Claim("5", "ML peak containers", "8", 8, COUNT, near(8.0, 0.0),
          metric(F5, "ml_peak_containers")),
    Claim("5", "BLAST peak containers", "24 + queue", 25, COUNT, near(25.0, 0.0),
          metric(F5, "blast_peak_containers")),
    Claim("5", "cluster peak containers", "~36", 33, COUNT, near(36.0, 4.0),
          metric(F5, "cluster_peak_containers")),
    Claim("5", "jobs completed", "both", 2, COUNT, equals(2.0),
          lambda t: _row(t, F5)["ml_completed"] + _row(t, F5)["blast_completed"], RUN),
    Claim("5", "ML minus BLAST threshold, g/kWh", "30th vs 33rd percentile", -7.5, "{:+.1f}",
          differs(0.0), lambda t: _row(t, F5)["ml_threshold_g_per_kwh"]
          - _row(t, F5)["blast_threshold_g_per_kwh"], SHAPE),
    Claim("5", "carbon of the cleaner app, g", "each app billed its own", 0.854, "{:.3f}",
          above(0.0),
          lambda t: min(_row(t, F5)["ml_carbon_g"], _row(t, F5)["blast_carbon_g"]), RUN),
    Claim("5", "ML ticks at neither 0 nor 8 containers", "0 or 8", 0, COUNT, equals(0.0),
          metric(F5, "ml_partial_ticks"), SHAPE),
    Claim("5", "ML fewest containers", "0 (suspended)", 0, COUNT, equals(0.0),
          metric(F5, "ml_min_containers"), SHAPE),
    Claim("5", "ticks both apps run", "they overlap", 4, COUNT, above(0.0),
          metric(F5, "both_running_ticks"), SHAPE),
    Claim("6", "system-policy SLO violations, worse app", "violated near the trace end",
          9.97, "{:.2f}%", above(0.0), _web("static", "violation_fraction",
                                          lambda v: max(v) * 100.0), SHAPE),
    Claim("6", "dynamic-budget SLO violations, worse app", "always met", 0.10, "{:.2f}%",
          below(1.0), _web("dynamic", "violation_fraction", lambda v: max(v) * 100.0), ALWAYS),
    Claim("6", "dynamic minus system violations, closer app", "dynamic better", -1.39,
          "{:+.2f} pp", at_most(0.0), lambda t: max(
              (d - s) * 100.0 for d, s in zip(_apps(t, "dynamic", "violation_fraction"),
                                              _apps(t, "static", "violation_fraction"))), SHAPE),
    Claim("7", "webapp1 carbon, dynamic vs system", "~-23%", -34.4, PCT, below(-10.0),
          change(WEB, "webapp1_carbon_g", "dynamic", "static"), WEB_SCALE),
    Claim("7", "webapp2 carbon, dynamic vs system", "~-23%", -47.4, PCT, below(-10.0),
          change(WEB, "webapp2_carbon_g", "dynamic", "static"), WEB_SCALE),
    Claim("7", "dynamic carbon / 48 h budget, higher app", "within budget", 0.54, RATIO,
          at_most(1.02), _web_budget_share, SHAPE),
    Claim("7", "dynamic mean carbon rate / target, higher app", "below target (banks credit)",
          0.54, RATIO, below(1.0), _web_rate("mean", max), SHAPE),
    Claim("7", "dynamic peak carbon rate / target, lower app", "above target at peaks",
          1.47, RATIO, above(1.0), _web_rate("max", min), SHAPE),
    Claim("7", "system-policy webapp1 workers vs carbon, r", "inverse", -0.78, "{:+.2f}",
          below(-0.3), metric(WEB, "webapp1_workers_carbon_corr", policy="static"), SHAPE),
    Claim("8", "Spark runtime, dynamic vs static", "-39%", -37.2, PCT, near(-39.0, 5.0),
          change(BAT, "spark_runtime_s", "dynamic", "static")),
    Claim("8", "Spark runs completed", "both", 2, COUNT, equals(2.0),
          completed(BAT, "spark_completed"), RUN),
    Claim("8", "Spark work lost to unclean kills, dynamic", "bounded by checkpoints", 1.7,
          "{:.1f}%", between(0.0, 15.0),
          lambda t: _row(t, BAT, policy="dynamic")["spark_lost_units"] / 400000.0 * 100.0, SHAPE),
    Claim("8", "web SLO violations, system policy", "violated", 31.8, "{:.1f}%", above(10.0),
          lambda t: _row(t, BAT, policy="static")["web_violation_fraction"] * 100.0, SHAPE),
    Claim("8", "web SLO violations, dynamic", "always met", 0.2, "{:.1f}%", below(1.0),
          lambda t: _row(t, BAT, policy="dynamic")["web_violation_fraction"] * 100.0, ALWAYS),
    Claim("8", "carbon, any app and run, g", "0 (zero grid share)", 0.0, "{:.3f}", equals(0.0),
          _zero_carbon, RUN),
    Claim("9", "lowest SoC, either app", "30% floor never crossed", 34.2, "{:.1f}%",
          at_least(30.0 - 1e-7), _battery("soc_min", lambda v: min(v) * 100.0), RUN),
    Claim("9", "highest SoC, either app", "at most full", 100.0, "{:.1f}%",
          at_most(100.0 + 1e-7), _battery("soc_max", lambda v: max(v) * 100.0), RUN),
    Claim("9", "peak charging power, lesser app, W", "both charge", 5.00, "{:+.2f}",
          above(0.0), _battery("battery_power_max_w", min), SHAPE),
    Claim("9", "peak discharging power, lesser app, W", "both discharge", -0.37, "{:+.2f}",
          below(0.0), _battery("battery_power_min_w", max), SHAPE),
    Claim("9", "largest SoC gap between the apps", "usage differs per app", 37.7, "{:.1f}%",
          above(5.0), lambda t: _row(t, BAT, policy="dynamic")["soc_divergence_max"] * 100.0,
          SHAPE),
    Claim("10a-b", "per-container cap series", "one per node", 10, COUNT, at_least(10.0),
          metric(DAY, "container_cap_series"), RUN),
    Claim("10a-b", "ticks drawing > 0.5 W above solar", "demand within supply", 0.0,
          "{:.1f}%", at_most(2.0), lambda t: _row(t, DAY)["overdraw_fraction"] * 100.0, SHAPE),
    Claim("10c", "runs completed", "all", 18, COUNT, equals(18.0),
          completed(CAPS), RUN),
    Claim("10c", "runtime improvement at 10% solar", "~45%", 40.1, PCT, near(45.0, 10.0),
          solar(CAPS, "runtime_improvement_pct", 10.0)),
    Claim("10c", "runtime improvement at 90% solar", "~5%", 9.7, PCT, near(5.0, 10.0),
          solar(CAPS, "runtime_improvement_pct", 90.0)),
    Claim("10c", "improvement at 10% minus at 90% solar", "falls as solar grows", 30.4, PP,
          above(0.0), _gain(CAPS, 10.0, 90.0), SHAPE),
    Claim("10c", "improvement at 20% minus at 80% solar", "falls as solar grows", 19.3, PP,
          above(0.0), _gain(CAPS, 20.0, 80.0), SHAPE),
    Claim("10c", "lowest improvement over the sweep", "dynamic never slower", 9.7, PCT,
          at_least(-1.0), lambda t: min(
              r["runtime_improvement_pct"] for r in _solar_rows(t, CAPS).values()), SHAPE),
    Claim("10c", "work/J at 90% / at 10% solar", "rises with solar", 1.83, RATIO, above(1.0),
          lambda t: solar(CAPS, "energy_efficiency_per_j", 90.0)(t)
          / solar(CAPS, "energy_efficiency_per_j", 10.0)(t), SHAPE),
    Claim("10c", "smallest work/J step, 10% to 80% solar", "rises with solar", 0.0011,
          "{:+.4f}", above(0.0), _efficiency_step, SUBSET),
    Claim("11", "runs completed", "all", 22, COUNT, equals(22.0),
          completed(STRAG), RUN),
    Claim("11", "runtime improvement at 100% solar", "none without excess", 0.0, PCT,
          between(-5.0, 5.0), solar(STRAG, "runtime_improvement_pct", 100.0), SHAPE),
    Claim("11", "runtime improvement at 150% solar", "grows with excess", 40.6, PCT,
          above(10.0), solar(STRAG, "runtime_improvement_pct", 150.0), SHAPE),
    Claim("11", "peak runtime improvement", "grows with excess", 40.6, PCT, above(15.0),
          lambda t: max(r["runtime_improvement_pct"] for r in _solar_rows(t, STRAG).values()),
          SHAPE),
    Claim("11", "gain 150-200% minus gain 100-150%", "diminishing returns", -40.6, PP,
          below(0.0), lambda t: _gain(STRAG, 200.0, 150.0)(t) - _gain(STRAG, 150.0, 100.0)(t),
          SHAPE),
    Claim("11", "gain 150-200% minus improvement at 150%", "diminishing returns", -40.6, PP,
          below(0.0), lambda t: _gain(STRAG, 200.0, 150.0)(t)
          - solar(STRAG, "runtime_improvement_pct", 150.0)(t), SHAPE),
    Claim("11", "work/J at 200% / at 100% solar", "declines (replicas)", 0.96, RATIO,
          at_most(1.0), lambda t: solar(STRAG, "energy_efficiency_per_j", 200.0)(t)
          / solar(STRAG, "energy_efficiency_per_j", 100.0)(t), SHAPE),
    Claim("ablation", "threshold: runtime at 50th / 20th percentile", "-", 0.30, RATIO,
          at_most(1.0), ratio("ablation_threshold", "mean_runtime_s", "percentile", 50.0, 20.0),
          ABLATION),
    Claim("ablation", "threshold: carbon at 20th / 50th percentile", "-", 0.74, RATIO,
          at_most(1.0), ratio("ablation_threshold", "mean_carbon_g", "percentile", 20.0, 50.0),
          ABLATION),
    Claim("ablation", "battery: energy at 85% minus 100% efficiency, 30% floor, Wh", "-",
          -2.38, "{:+.2f}", at_most(0.0), lambda t: (
              _row(t, "ablation_battery", efficiency=0.85, floor=0.3)["battery_wh"]
              - _row(t, "ablation_battery", efficiency=1.0, floor=0.3)["battery_wh"]), ABLATION),
    Claim("ablation", "battery: work at 30% minus 0% floor, 95% efficiency", "-", -11193,
          "{:+.0f}", at_most(0.0), lambda t: (
              _row(t, "ablation_battery", efficiency=0.95, floor=0.3)["progress_units"]
              - _row(t, "ablation_battery", efficiency=0.95, floor=0.0)["progress_units"]),
          ABLATION),
    Claim("ablation", "forecast: arrivals completed, fewest forecaster", "-", 1.0, "{:.0%}",
          equals(1.0), lambda t: min(r["completion_rate"] for r in t["ablation_forecast"]), RUN),
    Claim("ablation", "forecast: oracle W&S(2x) carbon vs agnostic", "-", -17.0, PCT,
          below(0.0), change("ablation_forecast", "mean_carbon_g", "oracle", "agnostic",
                             axis="forecaster"), ABLATION),
    Claim("ablation", "forecast: diurnal-profile / persistence carbon", "-", 0.72, RATIO,
          below(1.0), ratio("ablation_forecast", "mean_carbon_g", "forecaster",
                            "diurnal-profile", "persistence"), ABLATION),
    Claim("ablation", "solar buffer: runs completed", "-", 2, COUNT, equals(2.0),
          completed("ablation_solar_buffer"), RUN),
    Claim("ablation", "solar buffer: buffered / unbuffered runtime", "-", 1.00, RATIO,
          between(0.9, 1.2), ratio("ablation_solar_buffer", "runtime_s", "buffer", True, False),
          ABLATION),
    Claim("ablation", "stall power: smallest step of the 3x-vs-2x carbon penalty", "-", 11.9,
          PP, at_least(0.0), _stall_step, ABLATION),
    Claim("extension", "geo: runs completed", "-", 3, COUNT, equals(3.0), completed(GEO), RUN),
    Claim("extension", "geo: shifting carbon vs best single site", "-", -8.1, PCT, below(0.0),
          _geo_vs_best_single, EXTENSION),
    Claim("extension", "geo: migrations", "-", 11, COUNT, at_least(1.0),
          metric(GEO, "migrations", placement="geo-shifting"), EXTENSION),
    Claim("extension", "market: runs completed", "-", 27, COUNT, equals(27.0),
          completed(MARKET), RUN),
    Claim("extension", "market: largest billing recompute error, $", "-", 0.0, "{:.1e}",
          equals(0.0), lambda t: max(r["cost_recompute_abs_err"] for r in t[MARKET]), RUN),
    Claim("extension", "market: carbon-threshold / price-threshold carbon, worst regime", "-",
          0.84, RATIO, below(1.0), _market(lambda p: p["carbon-threshold"]["carbon_g"]
                                           / p["price-threshold"]["carbon_g"]), EXTENSION),
    Claim("extension", "market: price-threshold / carbon-threshold cost, worst regime", "-",
          0.91, RATIO, below(1.0), _market(lambda p: p["price-threshold"]["cost_usd"]
                                           / p["carbon-threshold"]["cost_usd"]), EXTENSION),
    Claim("extension", "market: lam=0 minus carbon-threshold carbon, largest, g", "-", 0.0,
          "{:.1e}", equals(0.0), _market(lambda p: abs(
              p["carbon-cost(lam=0.00)"]["carbon_g"] - p["carbon-threshold"]["carbon_g"])), RUN),
    Claim("extension", "market: lam=1 minus price-threshold cost, largest, $", "-", 0.0,
          "{:.1e}", equals(0.0), _market(lambda p: abs(
              p["carbon-cost(lam=1.00)"]["cost_usd"] - p["price-threshold"]["cost_usd"])), RUN),
    Claim("extension", "market: Pareto points, fewest in a regime", "-", 3, COUNT,
          at_least(2.0), _market(lambda p: sum(r["pareto"] for r in p.values()), min),
          EXTENSION),
    Claim("extension", "regional: runs completed", "-", 18, COUNT, equals(18.0),
          completed(REGIONAL), RUN),
    Claim("extension", "regional: runs naming their dataset and SHA-256", "-", 18, COUNT,
          equals(18.0), _provenance, RUN),
    Claim("extension", "regional: CAISO W&S carbon vs agnostic (solar)", "-", -54.6, PCT,
          below(0.0), change(REGIONAL, "carbon_g", "wait-and-scale", "agnostic",
                             region="caiso-2022", generation="solar"), EXTENSION),
    Claim("extension", "regional: CAISO suspend/resume carbon vs agnostic (solar)", "-",
          -42.2, PCT, below(0.0), change(REGIONAL, "carbon_g", "suspend-resume", "agnostic",
                                         region="caiso-2022", generation="solar"), EXTENSION),
    Claim("extension", "regional: wind+solar / solar-only carbon, worst cell", "-", 0.20,
          RATIO, below(1.0), _wind_over_solar, EXTENSION),
)


@dataclass(frozen=True)
class Outcome:
    """One claim evaluated: its measured value, or why it has none."""

    claim: Claim
    value: Optional[float]
    error: str = ""

    @property
    def shown(self) -> str:
        return "error" if self.value is None else self.claim.show(self.value)

    def problems(self) -> List[str]:
        """Why the row fails; empty when it holds."""
        if self.value is None:
            return [self.error]
        found = []
        pinned = self.claim.show(self.claim.reproduced)
        if self.shown != pinned:
            found.append(f"reads {self.shown}, the table pins {pinned}")
        if not self.claim.check.holds(self.value):
            found.append(f"fails {self.claim.check.describe(self.claim.fmt)}")
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def row(self) -> str:
        """The row as a Markdown table line (README shows the same)."""
        c = self.claim
        cells = (c.figure, c.quantity, c.paper, self.shown, c.check.describe(c.fmt), c.reason)
        return "| " + " | ".join(cells) + " |"


TABLE_HEADER = (
    "| figure | quantity | paper | reproduced | check | reason for an ordering |",
    "|---|---|---|---|---|---|",
)


@dataclass(frozen=True)
class Report:
    """Every claim's outcome, plus the scenario runs that failed."""

    outcomes: List[Outcome]
    failed_runs: List[str]

    def failures(self) -> List[str]:
        """One line per failing row (and per failed run)."""
        lines = [f"run {run}" for run in self.failed_runs]
        for o in self.outcomes:
            if not o.ok:
                c = o.claim
                lines.append(f"{c.figure} | {c.quantity}: " + "; ".join(o.problems()))
        return lines

    def table(self) -> List[str]:
        return [*TABLE_HEADER, *(o.row() for o in self.outcomes)]


def measure_all(tables: Tables, claims: Sequence[Claim]) -> List[Outcome]:
    """Evaluate each claim against the scenarios' result tables."""
    outcomes = []
    for claim in claims:
        try:
            outcomes.append(Outcome(claim, float(claim.measure(tables))))
        except Exception as exc:  # noqa: BLE001 — a broken row must not hide the rest
            outcomes.append(Outcome(claim, None, f"{type(exc).__name__}: {exc}"))
    return outcomes


def evaluate(jobs: int = 1) -> Report:
    """Run every scenario in :data:`SCENARIOS` at its defaults and check
    every row of :data:`CLAIMS`.

    All runs share one pool (``jobs`` worker processes; ``jobs<=1`` runs
    them serially in this process).  Each scenario's table holds its
    successful rows in matrix order, so serial and parallel evaluations
    measure identical numbers.
    """
    from repro.sim.runner import run_specs
    from repro.sim.scenarios import expand

    specs = [spec for name in SCENARIOS for spec in expand(name)]
    sweep = run_specs(specs, jobs=jobs, scenario="claims")
    tables: Dict[str, List[Dict[str, Any]]] = {name: [] for name in SCENARIOS}
    for row in sweep.rows_ok():
        tables[row["scenario"]].append(row)
    failed = [f"{r.spec.label()}: {r.error}" for r in sweep.failures()]
    return Report(measure_all(tables, CLAIMS), failed)
