//! `cargo xtask trace`: one fixed-seed traced simulation run.
//!
//! The subcommand builds a [`Simulation`] for the chosen method with a
//! recording [`Obs`] sink attached, runs it to completion, and renders
//! three artifacts from the one [`TraceSnapshot`]:
//!
//! * `trace.json` — chrome `trace_event` JSON, loadable in Perfetto or
//!   `chrome://tracing` ([`bpush_obs::export::chrome_trace`]);
//! * `trace.ndjson` — one event per line for `grep`/`jq`
//!   ([`bpush_obs::export::ndjson`]);
//! * `metrics.json` — the all-integer `bpush-trace-v1` report
//!   ([`render_metrics_json`]), whose counters reconcile exactly with
//!   the simulator's [`MethodMetrics`] and the instrumentation
//!   decorator's `ProtocolStats` for the same seed.
//!
//! Everything is integer-timestamped and seeded, so two invocations
//! with the same flags produce byte-identical files — the property
//! `tests/json_schema.rs` locks.

use bpush_core::Method;
use bpush_obs::{Obs, TraceSnapshot, DEFAULT_CAPACITY};
use bpush_sim::{MethodMetrics, Simulation};
use bpush_types::{BpushError, SimConfig};

/// The fixed seed of every traced run: no flag changes it, so traces
/// are comparable across working trees and CI runs.
pub const TRACE_SEED: u64 = 0x7AC3_5EED;

/// Everything one traced run produced: the reduced simulator metrics
/// and the full observability snapshot, from which all three artifacts
/// render.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The method traced.
    pub method: Method,
    /// Whether the quick (CI-sized) configuration was used.
    pub quick: bool,
    /// The fixed seed ([`TRACE_SEED`]).
    pub seed: u64,
    /// The simulator's own reduction of the run.
    pub metrics: MethodMetrics,
    /// The recorded events, counters, and histograms.
    pub snapshot: TraceSnapshot,
}

/// The configuration of the traced run: the simulator defaults at paper
/// scale, a CI-sized reduction under `--quick` — in both cases with
/// zero warm-up cycles, so the simulator's reduction covers exactly the
/// queries the trace saw and the two tallies reconcile without an
/// offset.
#[must_use]
pub fn trace_config(quick: bool) -> SimConfig {
    let mut config = SimConfig {
        seed: TRACE_SEED,
        warmup_cycles: 0,
        ..SimConfig::default()
    };
    if quick {
        config.server.broadcast_size = 200;
        config.server.update_range = 100;
        config.server.server_read_range = 200;
        config.server.updates_per_cycle = 20;
        config.server.txns_per_cycle = 5;
        config.client.read_range = 100;
        config.client.reads_per_query = 6;
        config.n_clients = 3;
        config.queries_per_client = 15;
    }
    config
}

/// Runs the fixed-seed traced simulation for `method`.
///
/// # Errors
/// Propagates configuration and cycle-budget errors from the simulator.
pub fn run_trace(method: Method, quick: bool) -> Result<TraceReport, BpushError> {
    let obs = Obs::recording(DEFAULT_CAPACITY);
    let metrics = Simulation::new(trace_config(quick), method)?
        .with_obs(obs.clone())
        .run()?;
    let snapshot = obs
        .snapshot()
        .ok_or_else(|| BpushError::invalid_config("recording sink lost its recorder"))?;
    Ok(TraceReport {
        method,
        quick,
        seed: TRACE_SEED,
        metrics,
        snapshot,
    })
}

/// Renders the pinned-key-order, all-integer `bpush-trace-v1` JSON
/// document (one line, no trailing newline). Committed/aborted are the
/// simulator's counts; `events`, `dropped`, `counters`, and
/// `histograms` come from the observability snapshot, histograms as
/// their non-empty log2 buckets only, each with its integer
/// midpoint-of-bucket `p50`/`p90`/`p99` estimates.
#[must_use]
pub fn render_metrics_json(report: &TraceReport) -> String {
    use bpush_obs::Log2Histogram;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"bpush-trace-v1\"");
    out.push_str(&format!(",\"method\":\"{}\"", report.method.name()));
    out.push_str(&format!(",\"seed\":{}", report.seed));
    out.push_str(&format!(",\"quick\":{}", report.quick));
    out.push_str(&format!(",\"cycles\":{}", report.metrics.cycles));
    out.push_str(&format!(",\"queries\":{}", report.metrics.queries));
    out.push_str(&format!(
        ",\"committed\":{}",
        report.metrics.queries - report.metrics.aborts.hits()
    ));
    out.push_str(&format!(",\"aborted\":{}", report.metrics.aborts.hits()));
    out.push_str(&format!(",\"events\":{}", report.snapshot.events.len()));
    out.push_str(&format!(",\"dropped\":{}", report.snapshot.dropped));
    out.push_str(",\"counters\":[");
    for (i, (name, value)) in report.snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{name}\",\"value\":{value}}}"));
    }
    out.push_str("],\"histograms\":[");
    for (i, (name, hist)) in report.snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            hist.count(),
            hist.sum(),
            hist.min().unwrap_or(0),
            hist.max().unwrap_or(0),
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0)
        ));
        for (j, (k, count)) in hist.nonzero_buckets().into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"floor\":{},\"ceil\":{},\"count\":{count}}}",
                Log2Histogram::bucket_floor(k),
                Log2Histogram::bucket_ceil(k)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders a human-readable run summary: the simulator's headline
/// numbers followed by the snapshot's text summary.
#[must_use]
pub fn render_text(report: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "xtask trace: {} (seed {:#x}, {} scale)\n\
         cycles {}, queries {} ({} committed, {} aborted)\n\n",
        report.method.name(),
        report.seed,
        if report.quick { "quick" } else { "paper" },
        report.metrics.cycles,
        report.metrics.queries,
        report.metrics.queries - report.metrics.aborts.hits(),
        report.metrics.aborts.hits(),
    ));
    out.push_str(&bpush_obs::export::text_summary(&report.snapshot));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance criterion end to end: the quick trace's
    /// `metrics.json` counters reconcile exactly with the simulator's
    /// [`MethodMetrics`] and with the decorator's `ProtocolStats` for
    /// the same seed, and two same-flag invocations are byte-identical
    /// across all three artifacts.
    #[test]
    fn quick_trace_reconciles_and_is_deterministic() {
        let a = run_trace(Method::Sgt, true).unwrap();
        let b = run_trace(Method::Sgt, true).unwrap();

        // Event-derived counters == simulator reduction (warmup is 0).
        let committed = a.metrics.queries - a.metrics.aborts.hits();
        assert_eq!(a.snapshot.counter("queries.committed"), committed);
        assert_eq!(
            a.snapshot.counter("queries.aborted"),
            a.metrics.aborts.hits()
        );
        assert_eq!(a.snapshot.counter("server.cycles"), a.metrics.cycles);
        // Event-derived counters == the decorator's ProtocolStats tally.
        assert_eq!(
            a.snapshot.counter("reads.accepted"),
            a.snapshot.counter("stats.accepts")
        );
        assert_eq!(
            a.snapshot.counter("reads.rejected"),
            a.snapshot.counter("stats.rejects")
        );
        assert_eq!(
            a.snapshot.counter("queries.committed") + a.snapshot.counter("queries.aborted"),
            a.snapshot.counter("stats.finishes")
        );

        // Byte-identical artifacts across same-flag invocations.
        assert_eq!(render_metrics_json(&a), render_metrics_json(&b));
        assert_eq!(
            bpush_obs::export::chrome_trace(&a.snapshot),
            bpush_obs::export::chrome_trace(&b.snapshot)
        );
        assert_eq!(
            bpush_obs::export::ndjson(&a.snapshot),
            bpush_obs::export::ndjson(&b.snapshot)
        );
    }

    /// Each traced method's event stream is well formed per actor:
    /// cycle numbers never go back, and spans close in the reverse order
    /// they opened, each by its own name, none left open at the end.
    #[test]
    fn quick_traces_are_well_formed_per_actor() {
        use bpush_obs::EventKind;
        use std::collections::BTreeMap;
        for method in [
            Method::Sgt,
            Method::InvalidationOnly,
            Method::MultiversionBroadcast,
        ] {
            let report = run_trace(method, true).unwrap();
            assert_eq!(report.snapshot.dropped, 0, "{method}: events were evicted");
            let mut actors = BTreeMap::new();
            for e in &report.snapshot.events {
                let (last, open) = actors
                    .entry(e.actor.label())
                    .or_insert_with(|| (e.cycle, Vec::new()));
                assert!(
                    e.cycle >= *last,
                    "{method}: {} went back to {} at tick {}",
                    e.actor.label(),
                    e.cycle,
                    e.tick
                );
                *last = e.cycle;
                match e.kind {
                    EventKind::SpanBegin { name } => open.push(name),
                    EventKind::SpanEnd { name } => assert_eq!(
                        open.pop(),
                        Some(name),
                        "{method}: {} closed {name} at tick {}",
                        e.actor.label(),
                        e.tick
                    ),
                    _ => {}
                }
            }
            for (actor, (_, open)) in &actors {
                assert!(open.is_empty(), "{method}: {actor} left {open:?} open");
            }
        }
    }

    /// The chrome export is structurally a trace_event document: a
    /// `traceEvents` array with thread-name metadata and balanced B/E
    /// span pairs.
    #[test]
    fn chrome_trace_has_trace_event_shape() {
        let report = run_trace(Method::InvalidationOnly, true).unwrap();
        let chrome = bpush_obs::export::chrome_trace(&report.snapshot);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"M\""));
        assert!(chrome.contains("\"name\":\"thread_name\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert_eq!(
            chrome.matches("\"ph\":\"B\"").count(),
            chrome.matches("\"ph\":\"E\"").count(),
            "unbalanced span begin/end pairs"
        );
    }
}
