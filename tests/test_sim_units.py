"""Tests for repro.sim.units."""


from repro.sim import units


class TestPaperConstants:
    def test_cache_line_size(self):
        assert units.CACHE_LINE_BYTES == 64
