"""Metrics registry: counters and gauges.

A :class:`MetricsRegistry` holds named metric *families*; a family with
label names fans out into one child per label-value combination (the
Prometheus data model, minus the client-library machinery).  Children are
plain slotted objects whose increments are a single attribute add, so
instrumented hot paths pay a dict lookup they can cache away at
construction time.

Two export surfaces:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` / sample lines);
* :meth:`MetricsRegistry.snapshot` — a canonical JSON-able dict whose
  sha256 (:meth:`digest`) is byte-stable for a given seed.

Determinism rule: everything registered with the default
``include_in_digest=True`` must be a pure function of the simulation
(integer values derived from sim time and seed-derived streams).
Wall-clock measurements go into families registered with
``include_in_digest=False``; they appear in the exposition and in the
snapshot's separate ``"wallclock"`` section but never enter the digest.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, Iterator, List, Sequence, Tuple

from ..ioutil import canonical_json


class RegistryError(ValueError):
    """Invalid metric registration or use."""


class ExpositionError(ValueError):
    """A Prometheus exposition line failed the minimal format check."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Settable integer level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricFamily:
    """A named metric with zero or more label dimensions."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        include_in_digest: bool,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.include_in_digest = include_in_digest
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child for this label-value combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise RegistryError(
                f"{self.name}: expected labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def label_string(self, key: Tuple[str, ...]) -> str:
        """Prometheus-style ``{a="x",b="y"}`` (empty string when unlabelled)."""
        if not self.labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return "{" + pairs + "}"


class CounterFamily(MetricFamily):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricsRegistry:
    """Registry of metric families with deterministic export."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ---------------------------------------------------
    def _register(self, cls, name, help, labelnames, include_in_digest, **kwargs):
        if not _METRIC_NAME_RE.match(name):
            raise RegistryError(f"invalid metric name {name!r}")
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise RegistryError(
                    f"metric {name!r} already registered with a different "
                    f"kind or label set"
                )
            return existing
        family = cls(name, help, labelnames, include_in_digest, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        include_in_digest: bool = True,
    ) -> CounterFamily:
        return self._register(CounterFamily, name, help, labelnames, include_in_digest)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        include_in_digest: bool = True,
    ) -> GaugeFamily:
        return self._register(GaugeFamily, name, help, labelnames, include_in_digest)

    def get(self, name: str) -> MetricFamily:
        """The registered family (KeyError if absent)."""
        return self._families[name]

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    # -- snapshot / digest ----------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic snapshot: ``{"metrics": ..., "wallclock": ...}``.

        The ``"metrics"`` section is what :meth:`digest` covers; the
        ``"wallclock"`` section holds the digest-excluded families.
        """
        sections: Dict[str, Dict[str, object]] = {"metrics": {}, "wallclock": {}}
        for family in self.families():
            section = "metrics" if family.include_in_digest else "wallclock"
            sections[section][family.name] = {
                "kind": family.kind,
                "labels": list(family.labelnames),
                "samples": {
                    family.label_string(key) or "_": child.value
                    for key, child in family.samples()
                },
            }
        return sections

    def digest(self) -> str:
        """sha256 over the canonical JSON of the digest-included section."""
        canonical = canonical_json(self.snapshot()["metrics"])
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- Prometheus exposition ------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of every family."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.samples():
                lines.append(
                    f"{family.name}{family.label_string(key)} {child.value}"
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Minimal exposition-format checker (used by tests and the trace CLI)
# ----------------------------------------------------------------------
_COMMENT_RE = re.compile(
    r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$"
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def parse_exposition(text: str) -> Dict[str, float]:
    """Validate Prometheus text exposition; return ``{sample: value}``.

    This is a *minimal line-format checker*, not a full openmetrics parser:
    every line must be a well-formed ``# HELP`` / ``# TYPE`` comment, blank,
    or a ``name{labels} value`` sample with valid label syntax.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_RE.match(line):
                raise ExpositionError(f"line {lineno}: bad comment {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: bad sample {line!r}")
        labels = match.group("labels")
        if labels is not None:
            body = labels[1:-1]
            if body:
                for part in _split_labels(body):
                    if not _LABEL_RE.match(part):
                        raise ExpositionError(
                            f"line {lineno}: bad label {part!r}"
                        )
        key = match.group("name") + (labels or "")
        if key in samples:
            raise ExpositionError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = float(match.group("value"))
    return samples


def _split_labels(body: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts
