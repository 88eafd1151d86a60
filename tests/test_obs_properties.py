"""Hypothesis properties of the obs primitives: ring-buffer bounds,
per-segment sim-clock monotonicity, and histogram conservation under
concurrent observers."""

from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, split_segments
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)

# -- ring buffer --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=200))
def test_ring_buffer_bounds(capacity, n):
    """The ring never exceeds its capacity, counts every eviction, and
    keeps exactly the newest events in emission order."""
    tracer = Tracer(capacity=capacity)
    for i in range(n):
        tracer.emit("prop.tick", "p0", float(i), i=i)
    events = tracer.events
    assert len(events) == min(n, capacity)
    assert tracer.dropped == max(0, n - capacity)
    assert [e["i"] for e in events] == list(range(max(0, n - capacity), n))
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=32),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
def test_ring_overflow_never_loses_open_span_tolerance(capacity, spans,
                                                       noise):
    """Spans begun before an overflow still end cleanly: ``end`` is
    tolerant of evicted begins and the ring invariants hold."""
    tracer = Tracer(capacity=capacity)
    ids = [tracer.begin("prop.span", "p0", float(i)) for i in range(spans)]
    for i in range(noise):
        tracer.emit("prop.noise", "p0", float(spans + i))
    for i, span_id in enumerate(ids):
        tracer.end(span_id, float(spans + noise + i))
    emitted = 2 * spans + noise
    assert len(tracer.events) == min(emitted, capacity)
    assert tracer.dropped == max(0, emitted - capacity)
    assert tracer.open_spans == 0


# -- sim-clock monotonicity ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), max_size=100))
def test_split_segments_partitions_into_monotone_runs(times):
    """For *any* emission timeline, segmentation (a) preserves every
    event and their order, and (b) yields segments whose sim timestamps
    are non-decreasing — the precondition of the per-segment checks."""
    tracer = Tracer()
    for i, t in enumerate(times):
        tracer.emit("prop.t", "p0", t, i=i)
    segments = split_segments(tracer.events)
    flat = [e for seg in segments for e in seg]
    assert [e["i"] for e in flat] == list(range(len(times)))
    assert all(seg for seg in segments)
    for seg in segments:
        ts = [e["t"] for e in seg]
        assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=100))
def test_monotone_timeline_is_one_segment(times):
    """A single Environment's timeline (non-decreasing t) never splits."""
    tracer = Tracer()
    for t in sorted(times):
        tracer.emit("prop.t", "p0", t)
    assert len(split_segments(tracer.events)) == 1


# -- histogram conservation under concurrent workers --------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=200),
       st.integers(min_value=1, max_value=4))
def test_histogram_conserves_observations_concurrently(values, workers):
    """bucket-count sum == observation count, with observe() called
    from a thread pool like the checkpoint-capture one."""
    hist = Histogram("prop.hist", buckets=DEFAULT_SECONDS_BUCKETS)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(hist.observe, values))
    assert hist.count == len(values)
    assert sum(hist.counts()) == len(values)
    assert abs(hist.total - sum(values)) \
        <= 1e-9 * max(1.0, abs(sum(values)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=200.0),
                min_size=1, max_size=100))
def test_histogram_quantiles_are_bucket_bounds(values):
    hist = Histogram("prop.q")
    for value in values:
        hist.observe(value)
    for q in (0.0, 0.5, 0.9, 1.0):
        assert hist.quantile(q) in hist.buckets
    # the max observation lands at or below the p100 bound
    assert max(values) <= hist.quantile(1.0)


def test_metric_validation_errors():
    import pytest

    from repro.obs.metrics import Counter, Gauge

    with pytest.raises(ValueError):
        Counter("c").inc(-1)
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h").quantile(1.5)
    assert Histogram("empty").quantile(0.5) == 0.0
    gauge = Gauge("g")
    gauge.inc(2.0)
    gauge.dec(0.5)
    assert gauge.value == 1.5


def test_tracer_end_tolerates_unknown_span():
    """A span id the tracer never opened (or already closed) is a
    no-op: background writers may outlive the tracer that began them."""
    import pytest

    tracer = Tracer()
    assert tracer.end(999, 1.0) is None
    span = tracer.begin("prop.span", "p0", 0.0)
    assert tracer.end(span, 1.0) is not None
    assert tracer.end(span, 2.0) is None   # double close
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_sink_file_holds_the_records_the_ring_holds(tmp_path):
    """A span's ``E`` record reads the same from the JSONL sink as from
    the in-memory ring: nothing is added to a record after it was
    written."""
    from repro.obs import load_trace

    path = str(tmp_path / "trace.jsonl")
    with Tracer(sink=path) as tracer:
        span = tracer.begin("prop.span", "p0", 0.0, epoch=1)
        tracer.emit("prop.tick", "p0", 0.5)
        tracer.end(span, 1.0, bytes=4)
    assert load_trace(path) == tracer.events
    assert tracer.events[-1]["dur"] == 1.0


def test_registry_snapshot_roundtrip():
    registry = MetricsRegistry()
    registry.counter("events.total").inc(3)
    registry.gauge("open_spans").set(2)
    registry.histogram("span.ckpt").observe(0.25)
    snap = registry.snapshot()
    assert snap["counters"]["events.total"] == 3
    assert snap["gauges"]["open_spans"] == 2
    assert snap["histograms"]["span.ckpt"]["count"] == 1
    assert sum(snap["histograms"]["span.ckpt"]["counts"]) == 1
