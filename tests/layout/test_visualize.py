"""Tests for the ASCII v-pin map."""

from repro.layout.visualize import vpin_map
from repro.splitmfg.vpin_features import make_split_view


class TestVpinMap:
    def test_counts_in_title(self, small_design):
        view = make_split_view(small_design, 6)
        out = vpin_map(view, cols=20, rows=8)
        assert f"{len(view)} v-pins" in out
        assert "V6" in out

    def test_empty_view(self, small_design):
        view = make_split_view(small_design, 8)
        view.vpins.clear()
        view.invalidate_cache()
        out = vpin_map(view, cols=10, rows=4)
        assert "0 v-pins" in out
