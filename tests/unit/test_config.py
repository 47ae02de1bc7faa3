"""Configuration validation and derived quantities."""

import pytest

from repro.core.config import (
    BatteryConfig,
    canonical_json,
    config_digest,
    CarbonServiceConfig,
    ClusterConfig,
    EcovisorConfig,
    GridConfig,
    PriceServiceConfig,
    ServerConfig,
    ShareConfig,
    SolarConfig,
    WindConfig,
)
from repro.core.errors import ConfigurationError


class TestServerConfig:
    def test_paper_defaults(self):
        config = ServerConfig()
        config.validate()
        assert config.cores == 4
        assert config.idle_power_w == pytest.approx(1.35)
        assert config.max_cpu_power_w == pytest.approx(5.0)
        assert config.max_gpu_power_w == pytest.approx(10.0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(cores=0).validate()

    def test_rejects_idle_above_max(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(idle_power_w=6.0, max_cpu_power_w=5.0).validate()

    def test_gpu_must_exceed_cpu_power(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(has_gpu=True, max_gpu_power_w=4.0).validate()


class TestClusterConfig:
    def test_totals(self):
        config = ClusterConfig(num_servers=3)
        config.validate()
        assert config.total_cores == 12
        assert config.max_power_w == pytest.approx(15.0)

    def test_gpu_cluster_max_power(self):
        config = ClusterConfig(
            num_servers=2, server=ServerConfig(has_gpu=True)
        )
        assert config.max_power_w == pytest.approx(20.0)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_servers=0).validate()


class TestBatteryConfig:
    def test_paper_defaults(self):
        config = BatteryConfig()
        config.validate()
        assert config.capacity_wh == pytest.approx(1440.0)
        assert config.empty_soc_fraction == pytest.approx(0.30)
        # 0.25C charges in 4 h; 1C discharges in 1 h.
        assert config.max_charge_power_w == pytest.approx(360.0)
        assert config.max_discharge_power_w == pytest.approx(1440.0)

    def test_usable_capacity_excludes_floor(self):
        config = BatteryConfig(capacity_wh=100.0, empty_soc_fraction=0.30)
        assert config.usable_capacity_wh == pytest.approx(70.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            BatteryConfig(charge_efficiency=0.0).validate()
        with pytest.raises(ConfigurationError):
            BatteryConfig(discharge_efficiency=1.5).validate()

    def test_rejects_initial_soc_below_floor(self):
        with pytest.raises(ConfigurationError):
            BatteryConfig(
                empty_soc_fraction=0.30, initial_soc_fraction=0.10
            ).validate()


class TestSolarConfig:
    def test_defaults_valid(self):
        SolarConfig().validate()

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigurationError):
            SolarConfig(scale=-0.1).validate()

    def test_rejects_bad_derating(self):
        with pytest.raises(ConfigurationError):
            SolarConfig(panel_efficiency_derating=0.0).validate()


class TestGridConfig:
    def test_default_unlimited(self):
        config = GridConfig()
        config.validate()
        assert config.max_power_w == float("inf")

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigurationError):
            GridConfig(max_power_w=0.0).validate()


class TestCarbonServiceConfig:
    def test_default_five_minute_updates(self):
        config = CarbonServiceConfig()
        config.validate()
        assert config.update_interval_s == pytest.approx(300.0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            CarbonServiceConfig(update_interval_s=0.0).validate()


class TestEcovisorConfig:
    def test_defaults_valid(self):
        EcovisorConfig().validate()

    def test_rejects_huge_solar_buffer(self):
        with pytest.raises(ConfigurationError):
            EcovisorConfig(solar_buffer_fraction=0.9).validate()

    @pytest.mark.parametrize(
        "field",
        [
            "tick_interval_s",
            "carbon_change_threshold_g_per_kwh",
            "solar_change_threshold_w",
            "price_change_threshold_usd_per_kwh",
        ],
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ConfigurationError):
            EcovisorConfig(**{field: float("nan")}).validate()


class TestShareConfig:
    def test_defaults_valid(self):
        ShareConfig().validate()

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ConfigurationError):
            ShareConfig(solar_fraction=1.2).validate()
        with pytest.raises(ConfigurationError):
            ShareConfig(battery_fraction=-0.1).validate()

    def test_rejects_negative_grid_share(self):
        with pytest.raises(ConfigurationError):
            ShareConfig(grid_power_w=-1.0).validate()

    def test_rejects_nan_grid_share_but_not_infinity(self):
        with pytest.raises(ConfigurationError):
            ShareConfig(grid_power_w=float("nan")).validate()
        ShareConfig(grid_power_w=float("inf")).validate()


#: (config, field) of every positive or non-negative check outside
#: :class:`EcovisorConfig` and :class:`ShareConfig`.
NAN_FIELDS = [
    (ServerConfig, "cores"),
    (ServerConfig, "idle_power_w"),
    (ServerConfig, "max_cpu_power_w"),
    (ServerConfig, "max_gpu_power_w"),
    (BatteryConfig, "capacity_wh"),
    (BatteryConfig, "max_charge_c_rate"),
    (BatteryConfig, "max_discharge_c_rate"),
    (SolarConfig, "peak_power_w"),
    (SolarConfig, "scale"),
    (WindConfig, "rated_power_w"),
    (WindConfig, "scale"),
    (GridConfig, "max_power_w"),
    (CarbonServiceConfig, "update_interval_s"),
    (PriceServiceConfig, "update_interval_s"),
]


@pytest.mark.parametrize(
    "config, field", NAN_FIELDS, ids=[f"{c.__name__}.{f}" for c, f in NAN_FIELDS]
)
def test_rejects_nan(config, field):
    """NaN fails each check as a negative value does (the GPU power
    check applies only to a GPU server)."""
    extra = {"has_gpu": True} if field == "max_gpu_power_w" else {}
    with pytest.raises(ConfigurationError):
        config(**{field: float("nan")}, **extra).validate()


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_distinct_values_distinct_digests(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_dataclasses_are_canonical(self):
        assert config_digest(ShareConfig()) == config_digest(ShareConfig())
        assert config_digest(ShareConfig()) != config_digest(
            ShareConfig(solar_fraction=0.5)
        )

    def test_non_finite_floats_allowed(self):
        text = canonical_json({"grid_power_w": float("inf")})
        assert "Infinity" in text

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_digest_length(self):
        assert len(config_digest({"a": 1})) == 12
        assert len(config_digest({"a": 1}, length=16)) == 16
