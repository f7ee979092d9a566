//! The `Obs` handle: the one type the rest of the workspace talks to.

use std::sync::Arc;

use parking_lot::Mutex;

use bpush_types::Cycle;

use crate::event::{Actor, Event, EventKind};
use crate::hist::Log2Histogram;
use crate::monitor::Monitors;
use crate::registry::MetricsRegistry;
use crate::ring::RingBuffer;

/// Default event retention when none is specified.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The shared recorder behind an enabled [`Obs`] handle.
#[derive(Debug)]
struct Recorder {
    events: RingBuffer<Event>,
    registry: MetricsRegistry,
    next_tick: u64,
}

impl Recorder {
    fn record_event(&mut self, cycle: Cycle, actor: Actor, kind: EventKind) {
        let tick = self.next_tick;
        self.next_tick += 1;
        for name in kind.counter_names().into_iter().flatten() {
            self.registry.add(name, 1);
        }
        if let EventKind::QueryCommitted { latency_slots, .. } = kind {
            self.registry.record("query.latency.slots", latency_slots);
        }
        self.events.push(Event {
            tick,
            cycle,
            actor,
            kind,
        });
    }
}

/// An immutable copy of everything a recorder holds, taken with
/// [`Obs::snapshot`]. The unit every exporter consumes.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Retained events, oldest first (tick order).
    pub events: Vec<Event>,
    /// Events evicted from the ring to stay within capacity.
    pub dropped: u64,
    /// All counters as `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All histograms as `(name, histogram)`, sorted by name.
    pub histograms: Vec<(String, Log2Histogram)>,
}

impl TraceSnapshot {
    /// The named counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// A cheaply cloneable observability sink.
///
/// Disabled by default ([`Obs::off`], also `Default`): every emit path
/// is then a single `Option` check, so instrumented code costs nothing
/// in benchmarks and model-checking runs that do not ask for a trace.
/// [`Obs::recording`] returns a handle whose clones all share one
/// recorder; events are ticked in emission order under the recorder's
/// lock, so a single-threaded run is reproducible byte for byte.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Recorder>>>,
    monitors: Option<Monitors>,
}

impl Obs {
    /// The no-op sink: nothing is recorded, nothing is allocated.
    pub fn off() -> Self {
        Obs {
            inner: None,
            monitors: None,
        }
    }

    /// A recording sink retaining the last `capacity` events
    /// (0 is promoted to 1; see [`RingBuffer::new`]).
    pub fn recording(capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(Recorder {
                events: RingBuffer::new(capacity),
                registry: MetricsRegistry::new(),
                next_tick: 0,
            }))),
            monitors: None,
        }
    }

    /// Attaches an online monitor set, carried to the instrumentation
    /// decorator and the client driver, which feed it typed calls
    /// ([`Monitors`]). The monitors read no events: a handle with
    /// monitors and no recorder emits nothing, and
    /// [`Obs::is_enabled`] stays false.
    #[must_use]
    pub fn with_monitors(mut self, monitors: Monitors) -> Self {
        self.monitors = Some(monitors);
        self
    }

    /// The attached monitor set, if any.
    pub fn monitors(&self) -> Option<&Monitors> {
        self.monitors.as_ref()
    }

    /// Whether this handle records: the gate of every site that builds
    /// an event only to emit it.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event and bumps its canonical counters.
    pub fn emit(&self, cycle: Cycle, actor: Actor, kind: EventKind) {
        if let Some(rec) = &self.inner {
            rec.lock().record_event(cycle, actor, kind);
        }
    }

    /// Adds `n` to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(rec) = &self.inner {
            rec.lock().registry.add(name, n);
        }
    }

    /// Records a sample into a named histogram.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(rec) = &self.inner {
            // bpush-lint: allow(lock-order) — the guard is a statement temporary; `registry.record` is MetricsRegistry::record (lock-free), which name-resolution over-approximates to this method
            rec.lock().registry.record(name, value);
        }
    }

    /// Opens a scoped span: emits [`EventKind::SpanBegin`] now and
    /// [`EventKind::SpanEnd`] when the guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str, cycle: Cycle, actor: Actor) -> SpanGuard {
        self.emit(cycle, actor, EventKind::SpanBegin { name });
        SpanGuard {
            obs: self.clone(),
            name,
            cycle,
            actor,
        }
    }

    /// Copies out the recorder's state, or `None` for the no-op sink.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.inner.as_ref().map(|rec| {
            let rec = rec.lock();
            TraceSnapshot {
                events: rec.events.iter().copied().collect(),
                dropped: rec.events.dropped(),
                counters: rec.registry.counters(),
                histograms: rec.registry.histograms(),
            }
        })
    }
}

/// Closes its span on drop. Returned by [`Obs::span`].
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    name: &'static str,
    cycle: Cycle,
    actor: Actor,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.obs.emit(
            self.cycle,
            self.actor,
            EventKind::SpanEnd { name: self.name },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        obs.emit(Cycle::ZERO, Actor::Server, EventKind::ControlProcessed);
        obs.counter_add("x", 1);
        obs.record("h", 1);
        let _span = obs.span("s", Cycle::ZERO, Actor::Server);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_recorder_and_ticks_are_monotonic() {
        let obs = Obs::recording(16);
        let clone = obs.clone();
        obs.emit(Cycle::ZERO, Actor::Server, EventKind::ControlProcessed);
        clone.emit(Cycle::new(1), Actor::Client(0), EventKind::MissedCycle);
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].tick, 0);
        assert_eq!(snap.events[1].tick, 1);
        assert_eq!(snap.counter("control.processed"), 1);
        assert_eq!(snap.counter("cycles.missed"), 1);
    }

    #[test]
    fn events_bump_reason_dimension_counters() {
        use bpush_types::AbortReason;
        let obs = Obs::recording(16);
        obs.emit(
            Cycle::ZERO,
            Actor::Client(0),
            EventKind::QueryAborted {
                query: 0,
                reason: AbortReason::CycleDetected,
            },
        );
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.counter("queries.aborted"), 1);
        assert_eq!(snap.counter("queries.aborted.cycle-detected"), 1);
        assert_eq!(snap.counter("queries.aborted.invalidated"), 0);
    }

    #[test]
    fn committed_queries_feed_the_latency_histogram() {
        let obs = Obs::recording(16);
        for latency in [10u64, 200] {
            obs.emit(
                Cycle::ZERO,
                Actor::Client(0),
                EventKind::QueryCommitted {
                    query: 0,
                    latency_slots: latency,
                },
            );
        }
        let snap = obs.snapshot().expect("recording");
        let h = snap.histogram("query.latency.slots").expect("recorded");
        assert_eq!(h.count(), snap.counter("queries.committed"));
        assert_eq!(h.sum(), 210);
    }

    #[test]
    fn span_guard_brackets_its_scope() {
        let obs = Obs::recording(16);
        {
            let _g = obs.span("server.cycle", Cycle::new(3), Actor::Server);
            obs.emit(Cycle::new(3), Actor::Server, EventKind::ControlProcessed);
        }
        let snap = obs.snapshot().expect("recording");
        let kinds: Vec<&'static str> = snap.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["span-begin", "control-processed", "span-end"]);
    }

    #[test]
    fn ring_overflow_is_reported_in_the_snapshot() {
        let obs = Obs::recording(2);
        for _ in 0..5 {
            obs.emit(Cycle::ZERO, Actor::Server, EventKind::ControlProcessed);
        }
        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.events[0].tick, 3, "newest retained");
        // Counters are unaffected by ring eviction.
        assert_eq!(snap.counter("control.processed"), 5);
    }
}
