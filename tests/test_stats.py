"""Unit tests for the hierarchical statistics registry."""

from repro.common.stats import StatGroup, Stats


class TestStatGroup:
    def test_bump_creates_and_accumulates(self):
        g = StatGroup("g")
        g.bump("x")
        g.bump("x", 2.5)
        assert g.get("x") == 3.5

    def test_get_default(self):
        assert StatGroup("g").get("missing") == 0
        assert StatGroup("g").get("missing", 7) == 7

    def test_children_created_on_demand(self):
        g = StatGroup("root")
        g["l1"].bump("miss")
        g["l1"].bump("miss")
        g["l2"].bump("miss", 5)
        assert g["l1"].get("miss") == 2
        assert g["l2"].get("miss") == 5
        assert g["l1"] is g["l1"]  # stable identity

    def test_flat_namespacing(self):
        g = StatGroup("mem")
        g.bump("total")
        g["l1"]["ports"].bump("wait", 3)
        flat = g.flat()
        assert flat["mem.total"] == 1
        assert flat["mem.l1.ports.wait"] == 3

    def test_total_sums_descendants(self):
        g = StatGroup("root")
        g.bump("miss", 1)
        g["a"].bump("miss", 2)
        g["a"]["b"].bump("miss", 4)
        assert g.total("miss") == 7

    def test_reset_recursive(self):
        g = StatGroup("root")
        g.bump("x")
        g["c"].bump("y")
        g.reset()
        assert g.get("x") == 0
        assert g["c"].get("y") == 0

    def test_set_overwrites(self):
        g = StatGroup("g")
        g.bump("x", 10)
        g.set("x", 3)
        assert g.get("x") == 3


class TestStats:
    def test_snapshot_delta(self):
        s = Stats()
        s["l1"].bump("miss", 5)
        before = s.snapshot()
        s["l1"].bump("miss", 2)
        s["l2"].bump("hit", 1)
        delta = Stats.delta(before, s.snapshot())
        assert delta["l1.miss"] == 2
        assert delta["l2.hit"] == 1

    def test_delta_handles_missing_keys(self):
        assert Stats.delta({"a": 1}, {"b": 2}) == {"a": -1, "b": 2}
