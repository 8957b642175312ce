"""Tests for photonic device models: the dB conversion, the laser and the
splitters."""


import pytest

from repro.photonics import constants
from repro.photonics.laser import ModeLockedLaser
from repro.photonics.splitter import BroadbandSplitter, splitter_chain_losses


class TestConstants:
    def test_fraction_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constants.fraction_to_db(0.0)


class TestLaser:
    def test_electrical_power_includes_efficiency(self):
        laser = ModeLockedLaser(power_per_wavelength_w=1e-3, wall_plug_efficiency=0.1)
        assert laser.electrical_power_w == pytest.approx(laser.total_optical_power_w / 0.1)


class TestSplitters:
    def test_even_splitter_tap_loss_is_3db(self):
        splitter = BroadbandSplitter("s", tap_fraction=0.5, excess_loss_db=0.0)
        assert splitter.tap_loss_db == pytest.approx(3.0103, rel=1e-3)

    def test_rejects_bad_tap_fraction(self):
        with pytest.raises(ValueError):
            BroadbandSplitter("s", tap_fraction=1.0)

    def test_splitter_chain_covers_all_taps(self):
        losses = splitter_chain_losses(64)
        assert len(losses) == 64
        assert all(loss >= 0 for loss in losses)

    def test_graded_chain_keeps_losses_similar(self):
        # With per-tap graded fractions, first and last listeners should see
        # losses within a few dB of each other.
        losses = splitter_chain_losses(16, excess_loss_db=0.0)
        assert max(losses) - min(losses) < 3.0

    def test_splitter_chain_rejects_zero_taps(self):
        with pytest.raises(ValueError):
            splitter_chain_losses(0)
