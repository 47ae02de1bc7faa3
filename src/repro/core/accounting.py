"""Energy, carbon, and cost accounting.

The ecovisor discretizes power over each tick interval and accounts for
energy and carbon per application (paper Section 3.1).  A
:class:`TickSettlement` is the outcome of settling one application's tick:
how much energy came from virtual solar, battery, and grid; where excess
solar went; the carbon attributed for grid usage; and — when a price
signal is attached — the grid cost billed at that tick's price.
Settlements are energy-conserving by construction and re-checked at
runtime; billed cost is re-checked against grid energy x price the same
way.

The :class:`CarbonLedger` accumulates settlements per application and,
proportionally to energy, per container — the basis for the Table 2
library queries (``get_app_carbon``, ``get_container_carbon``,
``get_app_cost``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Sequence

import numpy as np

from repro.core.errors import ConfigurationError, EnergyConservationError
from repro.core.units import energy_cost_usd

_CONSERVATION_TOLERANCE_WH = 1e-6
_BILLING_TOLERANCE_USD = 1e-9


@dataclass(frozen=True, slots=True)
class TickSettlement:
    """The settled energy flows of one application over one tick.

    All energies in Wh at the application's terminals.  Conservation laws
    (checked by :meth:`validate`):

    - served demand:  ``served_wh == solar_used_wh + battery_discharge_wh
      + grid_load_wh``
    - solar:          ``solar_available_wh == solar_used_wh +
      solar_to_battery_wh + curtailed_wh``
    - demand:         ``demand_wh == served_wh + unmet_wh``
    - billing:        ``cost_usd == grid_total_wh x price`` ($/kWh)

    ``price_usd_per_kwh`` and ``cost_usd`` default to zero so settlements
    without an attached price signal remain cost-free.
    """

    app_name: str
    time_s: float
    duration_s: float
    carbon_intensity_g_per_kwh: float
    demand_wh: float
    served_wh: float
    unmet_wh: float
    solar_available_wh: float
    solar_used_wh: float
    solar_to_battery_wh: float
    curtailed_wh: float
    battery_discharge_wh: float
    grid_load_wh: float
    grid_to_battery_wh: float
    carbon_g: float
    price_usd_per_kwh: float = 0.0
    cost_usd: float = 0.0

    @property
    def grid_total_wh(self) -> float:
        """All grid energy attributed this tick (load + battery charging)."""
        return self.grid_load_wh + self.grid_to_battery_wh

    @property
    def average_power_w(self) -> float:
        """Average served power over the tick."""
        if self.duration_s <= 0:
            return 0.0
        return self.served_wh * 3600.0 / self.duration_s

    @property
    def carbon_rate_mg_per_s(self) -> float:
        """Average carbon emission rate over the tick (mg/s)."""
        if self.duration_s <= 0:
            return 0.0
        return self.carbon_g * 1000.0 / self.duration_s

    def validate(self) -> None:
        """Raise :class:`EnergyConservationError` if any flow is inconsistent.

        Runs once per application per tick on the hot path, so the happy
        path allocates nothing: plain comparisons first, diagnostic
        structures built only when a check actually fails.  Each check
        is written so that a NaN fails it.
        """
        tol = _CONSERVATION_TOLERANCE_WH
        checks = (
            (
                "served = solar_used + battery + grid_load",
                self.served_wh,
                self.solar_used_wh + self.battery_discharge_wh + self.grid_load_wh,
            ),
            (
                "solar_available = used + to_battery + curtailed",
                self.solar_available_wh,
                self.solar_used_wh + self.solar_to_battery_wh + self.curtailed_wh,
            ),
            ("demand = served + unmet", self.demand_wh, self.served_wh + self.unmet_wh),
        )
        for label, lhs, rhs in checks:
            if not abs(lhs - rhs) <= tol:
                raise EnergyConservationError(
                    f"{self.app_name} @ {self.time_s:.0f}s: {label} violated "
                    f"({lhs:.9f} != {rhs:.9f})"
                )
        billed = energy_cost_usd(self.grid_total_wh, self.price_usd_per_kwh)
        if not abs(self.cost_usd - billed) <= _BILLING_TOLERANCE_USD:
            raise EnergyConservationError(
                f"{self.app_name} @ {self.time_s:.0f}s: cost = grid x price "
                f"violated ({self.cost_usd:.12f} != {billed:.12f})"
            )
        if not (
            self.demand_wh >= -tol
            and self.served_wh >= -tol
            and self.unmet_wh >= -tol
            and self.solar_available_wh >= -tol
            and self.solar_used_wh >= -tol
            and self.solar_to_battery_wh >= -tol
            and self.curtailed_wh >= -tol
            and self.battery_discharge_wh >= -tol
            and self.grid_load_wh >= -tol
            and self.grid_to_battery_wh >= -tol
            and self.carbon_g >= -tol
            and self.price_usd_per_kwh >= -_BILLING_TOLERANCE_USD
            and self.cost_usd >= -_BILLING_TOLERANCE_USD
        ):
            negatives = [
                name
                for name, value in [
                    ("demand_wh", self.demand_wh),
                    ("served_wh", self.served_wh),
                    ("unmet_wh", self.unmet_wh),
                    ("solar_available_wh", self.solar_available_wh),
                    ("solar_used_wh", self.solar_used_wh),
                    ("solar_to_battery_wh", self.solar_to_battery_wh),
                    ("curtailed_wh", self.curtailed_wh),
                    ("battery_discharge_wh", self.battery_discharge_wh),
                    ("grid_load_wh", self.grid_load_wh),
                    ("grid_to_battery_wh", self.grid_to_battery_wh),
                    ("carbon_g", self.carbon_g),
                ]
                if not value >= -tol
            ]
            negatives += [
                name
                for name, value in [
                    ("price_usd_per_kwh", self.price_usd_per_kwh),
                    ("cost_usd", self.cost_usd),
                ]
                if not value >= -_BILLING_TOLERANCE_USD
            ]
            raise EnergyConservationError(
                f"{self.app_name} @ {self.time_s:.0f}s: negative flows {negatives}"
            )


@dataclass(slots=True)
class AppAccount:
    """Cumulative totals for one application.

    ``finalized`` is set when the application is evicted: the account
    stays in the ledger (so cluster totals keep conserving across
    churn) but refuses further settlements.

    Ticks settled by the columnar kernel arrive through
    :meth:`CarbonLedger.write_back`: their totals are added at once,
    but their :class:`TickSettlement` objects are built only when
    :attr:`settlements` is first read (most runs never read them).
    """

    app_name: str
    energy_wh: float = 0.0
    solar_wh: float = 0.0
    battery_wh: float = 0.0
    grid_wh: float = 0.0
    carbon_g: float = 0.0
    cost_usd: float = 0.0
    curtailed_wh: float = 0.0
    unmet_wh: float = 0.0
    finalized: bool = False
    _settlements: List[TickSettlement] = field(
        default_factory=list, init=False, repr=False
    )
    # Written-back but unbuilt ticks, in order: (records, index) pairs,
    # one per write-back batch (see CarbonLedger.write_back).
    _deferred: list = field(default_factory=list, init=False, repr=False)

    @property
    def settlements(self) -> List[TickSettlement]:
        """Every settlement of this account, in tick order."""
        if self._deferred:
            self._build_deferred()
        return self._settlements

    def _build_deferred(self) -> None:
        name = self.app_name
        append = self._settlements.append
        for records, index in self._deferred:
            for record in records:
                append(record.settlement(index, name))
        self._deferred = []

    def _check_open(self) -> None:
        if self.finalized:
            raise ConfigurationError(
                f"account {self.app_name!r} is finalized (application evicted)"
            )

    def add(self, settlement: TickSettlement) -> None:
        self._check_open()
        if self._deferred:
            self._build_deferred()
        self.energy_wh += settlement.served_wh
        self.solar_wh += settlement.solar_used_wh
        self.battery_wh += settlement.battery_discharge_wh
        self.grid_wh += settlement.grid_total_wh
        self.carbon_g += settlement.carbon_g
        self.cost_usd += settlement.cost_usd
        self.curtailed_wh += settlement.curtailed_wh
        self.unmet_wh += settlement.unmet_wh
        self._settlements.append(settlement)


#: Account total -> the record column :meth:`CarbonLedger.write_back`
#: adds to it (``AppAccount.add``'s sums, column-wise).
_TOTAL_COLUMNS = (
    ("energy_wh", attrgetter("served")),
    ("solar_wh", attrgetter("solar_used")),
    ("battery_wh", attrgetter("battery_wh")),
    ("grid_wh", lambda record: record.grid_load + record.g2b),
    ("carbon_g", attrgetter("carbon_g")),
    ("cost_usd", attrgetter("cost")),
    ("curtailed_wh", attrgetter("curtailed")),
    ("unmet_wh", attrgetter("unmet")),
)


class CarbonLedger:
    """Per-application (and per-container) energy and carbon accounts.

    Accounts of evicted applications are *finalized* in place; if the
    same name is later re-admitted, the finalized account is moved to
    the archive (:attr:`archived_accounts`) and a fresh account opens
    under the name.  Cluster totals span live, finalized, and archived
    accounts, so conservation holds across arbitrary churn.
    """

    def __init__(self):
        self._accounts: Dict[str, AppAccount] = {}
        self._archived: List[AppAccount] = []
        # Optional pre-read flush hook: the columnar tick path buffers
        # settlements per tick and installs a callable here so they land
        # before any account is observed (same contract as the telemetry
        # database's hook).
        self._flush_hook = None

    def set_flush_hook(self, hook) -> None:
        """Install (or clear, with None) the pre-read flush callable."""
        self._flush_hook = hook

    def _flush(self) -> None:
        if self._flush_hook is not None:
            self._flush_hook()

    def account(self, app_name: str) -> AppAccount:
        """The (auto-created) account for ``app_name``."""
        self._flush()
        if app_name not in self._accounts:
            self._accounts[app_name] = AppAccount(app_name)
        return self._accounts[app_name]

    @property
    def archived_accounts(self) -> List[AppAccount]:
        """Finalized accounts displaced by a re-admission under their name."""
        self._flush()
        return list(self._archived)

    def reopen(self, app_name: str) -> None:
        """Archive a finalized account so a fresh one opens under the name.

        Called at admission: a re-admitted name must not inherit (or
        crash on) its predecessor's finalized account.  No-op when the
        name has no account or a live (non-finalized) one.
        """
        self._flush()
        existing = self._accounts.get(app_name)
        if existing is not None and existing.finalized:
            self._archived.append(self._accounts.pop(app_name))

    def write_back(self, names: Sequence[str], records: Sequence) -> None:
        """Add a batch of columnar tick records to the named accounts.

        ``records`` are consecutive ticks of one fleet layout: tenant
        ``names[i]`` is index ``i`` of every per-tenant column (``served``,
        ``solar_used``, ``battery_wh``, ``grid_load``, ``g2b``,
        ``carbon_g``, ``cost``, ``curtailed``, ``unmet``), and
        ``record.settlement(i, name)`` builds that tick's
        :class:`TickSettlement`.  Each total gains one column per record
        in tick order — elementwise float adds, the exact sequence of
        per-tick :meth:`AppAccount.add` calls — and the settlements are
        deferred until their account's :attr:`~AppAccount.settlements`
        is read.  Raises like :meth:`AppAccount.add` (before writing
        anything) if an account is finalized.
        """
        accounts = self._accounts
        batch: List[AppAccount] = []
        for name in names:
            account = accounts.get(name)
            if account is None:
                account = accounts[name] = AppAccount(name)
            account._check_open()
            batch.append(account)
        n = len(batch)
        for total, column in _TOTAL_COLUMNS:
            sums = np.fromiter(map(attrgetter(total), batch), dtype=float, count=n)
            for record in records:
                sums += column(record)
            for account, value in zip(batch, sums.tolist()):
                setattr(account, total, value)
        records = tuple(records)
        for index, account in enumerate(batch):
            account._deferred.append((records, index))

    def record(self, settlement: TickSettlement, validate: bool = True) -> None:
        """Validate and accumulate one tick settlement.

        ``validate=False`` skips the conservation re-check for callers
        that already validated the settlement (the ecovisor records
        straight from ``VirtualEnergySystem.settle``, which validates
        before returning — re-validating doubled the hot-path cost).
        """
        if validate:
            settlement.validate()
        self.account(settlement.app_name).add(settlement)

    def finalize(self, app_name: str) -> AppAccount:
        """Freeze an application's account at eviction; returns it.

        The account remains queryable (and counted in the cluster
        totals) but any further :meth:`record` for it raises — evicted
        applications cannot accrue energy, carbon, or cost.
        """
        account = self.account(app_name)
        account.finalized = True
        return account

    def app_names(self) -> List[str]:
        self._flush()
        return sorted(self._accounts)

    def app_carbon_g(self, app_name: str) -> float:
        return self.account(app_name).carbon_g

    def app_energy_wh(self, app_name: str) -> float:
        return self.account(app_name).energy_wh

    def app_cost_usd(self, app_name: str) -> float:
        return self.account(app_name).cost_usd

    def total_carbon_g(self) -> float:
        self._flush()
        return sum(a.carbon_g for a in self._accounts.values()) + sum(
            a.carbon_g for a in self._archived
        )

    def total_energy_wh(self) -> float:
        self._flush()
        return sum(a.energy_wh for a in self._accounts.values()) + sum(
            a.energy_wh for a in self._archived
        )

    def total_cost_usd(self) -> float:
        self._flush()
        return sum(a.cost_usd for a in self._accounts.values()) + sum(
            a.cost_usd for a in self._archived
        )

    def settlements_between(
        self, app_name: str, start_s: float, end_s: float
    ) -> List[TickSettlement]:
        """Settlements whose interval starts within [start_s, end_s)."""
        return [
            s
            for s in self.account(app_name).settlements
            if start_s <= s.time_s < end_s
        ]

    def carbon_between(self, app_name: str, start_s: float, end_s: float) -> float:
        """Carbon (g) attributed to an app over an interval."""
        return sum(
            s.carbon_g for s in self.settlements_between(app_name, start_s, end_s)
        )

    def energy_between(self, app_name: str, start_s: float, end_s: float) -> float:
        """Energy (Wh) served to an app over an interval."""
        return sum(
            s.served_wh for s in self.settlements_between(app_name, start_s, end_s)
        )

    def cost_between(self, app_name: str, start_s: float, end_s: float) -> float:
        """Grid cost ($) billed to an app over an interval."""
        return sum(
            s.cost_usd for s in self.settlements_between(app_name, start_s, end_s)
        )
