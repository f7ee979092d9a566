//! Deterministic observability for the `bpush` suite.
//!
//! The paper's central claim is *scalability of client-side validation*;
//! evaluating it honestly needs more than end-of-run aggregates. This
//! crate provides the instrumentation layer the rest of the workspace
//! emits into:
//!
//! * **Tracer** — a fixed-capacity ring buffer of integer-timestamped
//!   events ([`Event`], [`EventKind`]) with typed payloads, plus scoped
//!   spans ([`SpanGuard`]) for per-cycle server/validator work. Time is
//!   logical: every event carries the broadcast `cycle` it belongs to
//!   and a monotonically increasing `tick` assigned at emission, so two
//!   runs with the same seed produce byte-identical traces.
//! * **Metrics registry** — named counters and fixed-bucket log2
//!   histograms ([`Log2Histogram`]), all-integer so output is
//!   bit-identical across runs. Events auto-increment their canonical
//!   counters (per-[`AbortReason`](bpush_types::AbortReason) dimensions
//!   included), so the event stream and the counter table always
//!   reconcile.
//! * **Exporters** — an NDJSON event stream ([`export::ndjson`]), a
//!   chrome://tracing `trace_event` array ([`export::chrome_trace`])
//!   that opens directly in Perfetto, and a compact terminal summary
//!   ([`export::text_summary`]).
//! * **Online monitors** — deterministic invariant state machines fed
//!   typed calls, not events ([`monitor::Monitors`], the one monitor
//!   type): currency, commit-implies-serializable and report coverage,
//!   producing an all-integer [`monitor::MonitorVerdict`].
//! * **Flight recorder** — a bounded ring of recent wire-format frames
//!   ([`flight::FlightRecorder`]) that freezes into a replayable
//!   `bpush-capture-v1` [`flight::Capture`] when a monitor fires.
//!
//! Everything funnels through an [`Obs`] handle: a cheaply cloneable
//! sink that is a no-op by default ([`Obs::off`]) — a single `Option`
//! check on the emit path — and records into a shared
//! [`TraceSnapshot`]-able recorder when enabled ([`Obs::recording`]).
//!
//! # Example
//!
//! ```
//! use bpush_obs::{Actor, EventKind, Obs};
//! use bpush_types::Cycle;
//!
//! let obs = Obs::recording(1024);
//! {
//!     let _cycle = obs.span("server.cycle", Cycle::ZERO, Actor::Server);
//!     obs.emit(Cycle::ZERO, Actor::Client(0), EventKind::ControlProcessed);
//! }
//! let snap = obs.snapshot().expect("recording sink has a snapshot");
//! assert_eq!(snap.events.len(), 3); // span begin/end + the event
//! assert_eq!(snap.counter("control.processed"), 1);
//! assert!(bpush_obs::export::chrome_trace(&snap).starts_with("{\"traceEvents\":["));
//! ```
//!
//! The crate is zero-dependency beyond the workspace's own vocabulary
//! types and the vendored `parking_lot` lock standard: no wall clocks,
//! no ambient RNG, no hash-ordered collections — the same determinism
//! contract (`xtask lint` L2) as the protocol crates it observes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod export;
pub mod flight;
pub mod handle;
pub mod hist;
pub mod monitor;
pub mod registry;
pub mod ring;

pub use event::{Actor, Event, EventKind};
pub use flight::{Capture, FlightRecorder, Frame, CAPTURE_MAGIC};
pub use handle::{Obs, SpanGuard, TraceSnapshot, DEFAULT_CAPACITY};
pub use hist::Log2Histogram;
pub use monitor::{
    CoverageRule, MonitorConfig, MonitorPolicy, MonitorVerdict, Monitors, Violation,
};
pub use registry::MetricsRegistry;
pub use ring::RingBuffer;
