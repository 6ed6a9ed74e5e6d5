"""A hand-rolled Prometheus-text metrics registry (zero dependencies).

The instruments here are the serving layer's only counter store:
:class:`repro.service.observability.ServiceObservability` pushes every
finished request into them once, ``GET /stats`` reads them back as JSON
(:meth:`Counter.value` / :meth:`Counter.samples`) and ``GET /metrics``
renders them in the `text exposition format`__ — ``# HELP`` /
``# TYPE`` headers, labeled samples, cumulative histogram buckets.
Three instrument kinds (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`) take *push*-style observation on the request path;
*collector callbacks* derive samples at scrape time from state that
already lives somewhere (engine cache stats, queue depths), so gauges
like cache sizes cost nothing between scrapes.

__ https://prometheus.io/docs/instrumenting/exposition_formats/

Instruments are thread-safe (one lock per instrument; the request path
takes it for a dict update, the scraper for a copy).  Label values are
escaped per the exposition spec (backslash, quote, newline).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_metric_value",
]

#: a collector yields metric families: (name, type, help, samples) where
#: each sample is ``(label_dict, value)``.
Family = Tuple[str, str, str, List[Tuple[Dict[str, str], float]]]
Collector = Callable[[], Iterable[Family]]


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def format_metric_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``, floats
    via ``repr`` (shortest round-trip form), infinities as ``+Inf``."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 2**53:
        return str(int(as_float))
    return repr(as_float)


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


class _Instrument:
    """Shared plumbing: name/help/labelnames plus a guarded value map."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key_of(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Instrument):
    """A monotonically increasing sum, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key_of(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key_of(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        return [(self._labels_of(key), value) for key, value in items]


class Gauge(_Instrument):
    """A value that goes up and down (set on observation)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def set(self, value: float, **labels: Any) -> None:
        key = self._key_of(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = self._key_of(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        return [(self._labels_of(key), value) for key, value in items]


class Histogram(_Instrument):
    """Cumulative-bucket histogram (the Prometheus shape).

    ``buckets`` are the finite upper bounds; the ``+Inf`` bucket is
    implicit.  Each label set keeps per-bucket counts, a sum, and a
    count, rendered as ``_bucket{le=...}`` / ``_sum`` / ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = sorted(float(b) for b in buckets)
        if ordered != [float(b) for b in buckets]:
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets: Tuple[float, ...] = tuple(ordered)
        #: key -> [bucket_counts..., +Inf count]; sums/counts separate.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._counts[()] = [0] * (len(self.buckets) + 1)
            self._sums[()] = 0.0

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key_of(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            # Linear scan: bucket lists are short (<= ~15) and the scan
            # stays branch-predictable; bisect would allocate a tuple.
            placed = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    placed = i
                    break
            counts[placed] += 1
            self._sums[key] = self._sums[key] + value

    def snapshot(
        self,
    ) -> List[Tuple[Dict[str, str], List[int], float]]:
        """``(labels, per-bucket counts, sum)`` per label set."""
        with self._lock:
            return [
                (self._labels_of(key), list(counts), self._sums[key])
                for key, counts in self._counts.items()
            ]


class MetricsRegistry:
    """Instruments plus pull-collectors, rendered as one text page.

    Two feeding styles:

    - :meth:`counter` / :meth:`gauge` / :meth:`histogram` create *push*
      instruments the request path observes into;
    - :meth:`register_collector` adds a callback producing whole metric
      families at scrape time — for values that already live somewhere
      (cache stats dicts, queue depths) and would be wasteful to mirror
      on every request.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Collector] = []

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._add(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._add(Gauge(name, help_text, labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._add(Histogram(name, help_text, buckets, labelnames))

    def register_collector(self, collector: Collector) -> None:
        with self._lock:
            self._collectors.append(collector)

    def _add(self, instrument):
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(f"duplicate metric name {instrument.name!r}")
            self._instruments[instrument.name] = instrument
        return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """The full ``/metrics`` page in text exposition format 0.0.4."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        lines: List[str] = []
        for instrument in instruments:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                self._render_histogram(instrument, lines)
            else:
                for labels, value in instrument.samples():  # type: ignore[union-attr]
                    lines.append(
                        f"{instrument.name}{_render_labels(labels)} "
                        f"{format_metric_value(value)}"
                    )
        for collector in collectors:
            for name, kind, help_text, samples in collector():
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                for labels, value in samples:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{format_metric_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(histogram: Histogram, lines: List[str]) -> None:
        for labels, counts, total in histogram.snapshot():
            cumulative = 0
            for bound, count in zip(histogram.buckets, counts):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = format_metric_value(bound)
                lines.append(
                    f"{histogram.name}_bucket{_render_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            cumulative += counts[-1]
            bucket_labels = dict(labels)
            bucket_labels["le"] = "+Inf"
            lines.append(
                f"{histogram.name}_bucket{_render_labels(bucket_labels)} "
                f"{cumulative}"
            )
            lines.append(
                f"{histogram.name}_sum{_render_labels(labels)} "
                f"{format_metric_value(total)}"
            )
            lines.append(f"{histogram.name}_count{_render_labels(labels)} {cumulative}")
