"""Metrics registry: families, exposition, snapshots, digest stability."""

import json

import pytest

from repro.telemetry.registry import (
    ExpositionError,
    MetricsRegistry,
    RegistryError,
    parse_exposition,
)


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    sent = registry.counter(
        "dtp_messages_sent_total", "messages", labelnames=("port", "type")
    )
    sent.labels(port="a->b", type="BEACON").inc(7)
    sent.labels(port="b->a", type="INIT").inc()
    gauge = registry.gauge("quarantined_nodes", "nodes").labels()
    gauge.set(2)
    return registry


class TestFamilies:
    def test_counter_roundtrip(self):
        registry = build_registry()
        family = registry.get("dtp_messages_sent_total")
        assert family.labels(port="a->b", type="BEACON").value == 7

    def test_reregistration_returns_same_family(self):
        registry = build_registry()
        again = registry.counter(
            "dtp_messages_sent_total", "messages", labelnames=("port", "type")
        )
        assert again is registry.get("dtp_messages_sent_total")

    def test_reregistration_kind_mismatch_raises(self):
        registry = build_registry()
        with pytest.raises(RegistryError):
            registry.gauge(
                "dtp_messages_sent_total", "messages", labelnames=("port", "type")
            )

    def test_bad_label_names_raise(self):
        registry = build_registry()
        family = registry.get("dtp_messages_sent_total")
        with pytest.raises(RegistryError):
            family.labels(port="a->b")  # missing 'type'

    def test_bad_metric_name_raises(self):
        with pytest.raises(RegistryError):
            MetricsRegistry().counter("bad name", "nope")


class TestExposition:
    def test_render_parses_with_checker(self):
        text = build_registry().render_prometheus()
        samples = parse_exposition(text)
        assert samples['dtp_messages_sent_total{port="a->b",type="BEACON"}'] == 7.0
        assert samples["quarantined_nodes"] == 2.0

    def test_checker_rejects_garbage(self):
        with pytest.raises(ExpositionError):
            parse_exposition("not a metric line at all!")

    def test_checker_rejects_duplicate_sample(self):
        bad = "a_total 1\na_total 2\n"
        with pytest.raises(ExpositionError):
            parse_exposition(bad)

    def test_checker_rejects_bad_label_syntax(self):
        with pytest.raises(ExpositionError):
            parse_exposition('a_total{oops} 1\n')


class TestSnapshotAndDigest:
    def test_digest_is_stable_for_equal_content(self):
        assert build_registry().digest() == build_registry().digest()

    def test_digest_changes_with_content(self):
        registry = build_registry()
        before = registry.digest()
        registry.get("dtp_messages_sent_total").labels(
            port="a->b", type="BEACON"
        ).inc()
        assert registry.digest() != before

    def test_wallclock_section_never_in_digest(self):
        registry = build_registry()
        before = registry.digest()
        wall = registry.gauge(
            "wallclock_ns", "wall", labelnames=("name",), include_in_digest=False
        )
        wall.labels(name="run").set(123456789)
        snapshot = registry.snapshot()
        assert "wallclock_ns" in snapshot["wallclock"]
        assert "wallclock_ns" not in snapshot["metrics"]
        assert registry.digest() == before
        # And a different wall-clock value still digests identically.
        wall.labels(name="run").set(987654321)
        assert registry.digest() == before

    def test_snapshot_is_canonical_jsonable(self):
        snapshot = build_registry().snapshot()
        encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        assert json.loads(encoded) == snapshot
