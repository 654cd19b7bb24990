"""Tests for energy accounting."""

import pytest

from repro.errors import ConfigError
from repro.power import EnergyAccount
from repro.units import Clock


class TestEnergyAccount:
    def test_charges_accumulate_by_category(self):
        acct = EnergyAccount()
        acct.charge("abb", 10.0)
        acct.charge("abb", 5.0)
        acct.charge("noc", 3.0)
        assert acct.dynamic_nj == {"abb": 15.0, "noc": 3.0}
        assert acct.total_dynamic_nj() == 18.0

    def test_static_energy_from_power_and_time(self):
        acct = EnergyAccount(clock=Clock(1e9))
        acct.add_static_power(2.0)  # 2 mW
        # 1e6 cycles @ 1 GHz = 1 ms; 2 mW * 1 ms = 2 uJ = 2000 nJ.
        assert acct.static_energy_nj(1e6) == pytest.approx(2000.0)

    def test_total_includes_static(self):
        acct = EnergyAccount(clock=Clock(1e9))
        acct.charge("abb", 500.0)
        acct.add_static_power(1.0)
        assert acct.total_nj(1e6) == pytest.approx(500.0 + 1000.0)

    def test_breakdown_has_static_entry(self):
        acct = EnergyAccount(clock=Clock(1e9))
        acct.charge("spm", 7.0)
        acct.add_static_power(1.0)
        breakdown = acct.breakdown(1e6)
        assert breakdown["spm"] == 7.0
        assert breakdown["static"] == pytest.approx(1000.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigError):
            EnergyAccount().charge("x", -1.0)

    @pytest.mark.parametrize("energy", [float("nan"), float("inf")])
    def test_nan_and_infinite_charges_rejected(self, energy):
        acct = EnergyAccount()
        acct.charge("x", 1.0)
        with pytest.raises(ConfigError, match="finite and non-negative"):
            acct.charge("x", energy)
        assert acct.dynamic_nj == {"x": 1.0}

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError):
            EnergyAccount().add_static_power(-1.0)

    def test_longer_runs_cost_more_static_energy(self):
        """The lever behind Figure 8: slower configs burn more leakage."""
        acct = EnergyAccount()
        acct.add_static_power(5.0)
        assert acct.static_energy_nj(2e6) > acct.static_energy_nj(1e6)
