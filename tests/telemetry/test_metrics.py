"""Metric instrument semantics and summary merging."""

import pytest

from repro.telemetry import (
    Counter,
    Histogram,
    MetricsRegistry,
    merge_metric_summaries,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_jsonable() == {"type": "counter", "value": 5}

    def test_histogram_summary_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.to_jsonable()
        assert summary["type"] == "histogram"
        assert summary["count"] == 4
        assert summary["total"] == pytest.approx(10.0)
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == pytest.approx(2.0, abs=1.0)

    def test_histogram_caps_samples_but_not_exact_stats(self):
        h = Histogram(cap=16)
        for v in range(100):
            h.observe(float(v))
        summary = h.to_jsonable()
        # exact stats see every observation; percentiles only the prefix
        assert summary["count"] == 100
        assert summary["max"] == 99.0
        assert h.percentile(1.0) == 15.0

    def test_empty_histogram(self):
        h = Histogram()
        summary = h.to_jsonable()
        assert summary["count"] == 0
        assert summary["mean"] is None and summary["p50"] is None


class TestRegistry:
    def test_create_on_first_use_is_sticky(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.counter("hits").inc()
        reg.histogram("lat").observe(0.5)
        reg.counter("width").inc(7)
        summary = reg.to_jsonable()
        assert summary["hits"]["value"] == 3
        assert summary["lat"]["count"] == 1
        assert summary["width"]["value"] == 7
        assert len(reg) == 3 and "hits" in reg

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_summary_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        assert list(reg.to_jsonable()) == ["alpha", "zeta"]


class TestMerge:
    def test_counters_sum_histograms_combine(self):
        a = {"hits": {"type": "counter", "value": 2},
             "lat": {"type": "histogram", "count": 2, "total": 3.0,
                     "min": 1.0, "max": 2.0, "mean": 1.5,
                     "p50": 1.5, "p95": 2.0}}
        b = {"hits": {"type": "counter", "value": 5},
             "lat": {"type": "histogram", "count": 1, "total": 4.0,
                     "min": 4.0, "max": 4.0, "mean": 4.0,
                     "p50": 4.0, "p95": 4.0},
             "width": {"type": "counter", "value": 9}}
        into: dict = {}
        merge_metric_summaries(into, a)
        merge_metric_summaries(into, b)
        assert into["hits"]["value"] == 7
        assert into["lat"]["count"] == 3
        assert into["lat"]["total"] == pytest.approx(7.0)
        assert into["lat"]["min"] == 1.0 and into["lat"]["max"] == 4.0
        # percentiles cannot be merged from summaries: nulled, not faked
        assert into["lat"]["p50"] is None and into["lat"]["p95"] is None
        assert into["width"]["value"] == 9

    def test_merge_does_not_alias_input(self):
        source = {"lat": {"type": "histogram", "count": 1, "total": 1.0,
                          "min": 1.0, "max": 1.0, "mean": 1.0,
                          "p50": 1.0, "p95": 1.0}}
        into = merge_metric_summaries({}, source)
        into["lat"]["count"] = 99
        assert source["lat"]["count"] == 1

    def test_type_change_across_tasks_raises(self):
        into = merge_metric_summaries({}, {"x": {"type": "counter",
                                                 "value": 1}})
        with pytest.raises(ValueError):
            merge_metric_summaries(into, {"x": {"type": "histogram",
                                                "count": 1, "total": 1.0,
                                                "min": 1.0, "max": 1.0,
                                                "mean": 1.0, "p50": 1.0,
                                                "p95": 1.0}})
