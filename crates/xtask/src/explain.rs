//! `cargo xtask explain`: abort forensics over flight-recorder captures
//! and traced-run metrics.
//!
//! The subcommand sniffs its input file and walks one of two formats:
//!
//! * a `bpush-capture-v1` flight-recorder capture
//!   ([`bpush_obs::Capture`]) — the frames are decoded back through the
//!   wire codec (the capture carries the `WireParams::derive` sizing
//!   quadruple exactly so this is possible offline), and the trigger
//!   violation is resolved into a causal chain: the violating
//!   invalidation-report entry, the conflicting write's cycle, the
//!   cycle distance, and the method-specific rule that fired;
//! * a `bpush-trace-v1` `metrics.json` document — counter-based
//!   forensics: the headline query fates plus the per-reason abort
//!   breakdown (`queries.aborted.*`).
//!
//! Both render as human-readable text or, with `--json`, as the
//! single-line all-integer `bpush-explain-v1` document whose key order
//! is locked by `tests/json_schema.rs`.

use crate::jsonv::{self, Json};
use bpush_broadcast::feed::{decode_segment, DecodedSegment, WireFeed};
use bpush_broadcast::wire::WireParams;
use bpush_broadcast::ControlInfo;
use bpush_core::Method;
use bpush_obs::monitor::{MonitorKind, MonitorPolicy, NO_CYCLE, NO_ITEM};
use bpush_obs::{Capture, CAPTURE_MAGIC};
use bpush_types::{BpushError, ItemId};

/// One decoded capture frame, reduced to its segment census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSummary {
    /// The broadcast cycle the frame encodes.
    pub cycle: u64,
    /// Entries in the frame's invalidation report.
    pub report_len: usize,
    /// Decoded data-segment records.
    pub data_records: usize,
    /// Whether the frame carried a directory segment.
    pub has_directory: bool,
}

/// The violating invalidation-report entry the forensics resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportEntryFact {
    /// The cycle of the report naming the entry.
    pub report_cycle: u64,
    /// The invalidated item.
    pub item: u32,
    /// The conflicting write's cycle, as dated by the report.
    pub write_cycle: u64,
}

/// Forensics over one `bpush-capture-v1` capture.
#[derive(Debug, Clone)]
pub struct CaptureExplanation {
    /// The parsed capture (header, trigger, frames).
    pub capture: Capture,
    /// Per-frame decode census, oldest first.
    pub frames: Vec<FrameSummary>,
    /// The violating report entry, when the trigger names an item that
    /// a retained report invalidates.
    pub entry: Option<ReportEntryFact>,
    /// Cycles between the conflicting write and the violation.
    pub cycle_distance: Option<u64>,
    /// The method-specific rule that fired.
    pub rule: String,
}

/// Forensics over one `bpush-trace-v1` metrics document.
#[derive(Debug, Clone)]
pub struct TraceExplanation {
    /// The traced method's stable name.
    pub method: String,
    /// The traced run's seed.
    pub seed: u64,
    /// Whether the quick scale was used.
    pub quick: bool,
    /// Queries issued.
    pub queries: u64,
    /// Queries committed.
    pub committed: u64,
    /// Queries aborted.
    pub aborted: u64,
    /// The `queries.aborted.<reason>` breakdown, in document order.
    pub aborts: Vec<(String, u64)>,
}

/// The sniffed input and its forensics.
#[derive(Debug, Clone)]
pub enum Explanation {
    /// The input was a flight-recorder capture.
    Capture(Box<CaptureExplanation>),
    /// The input was a traced run's metrics document.
    Trace(TraceExplanation),
}

/// Sniffs `text` (capture magic first, JSON second) and runs the
/// matching forensics.
///
/// # Errors
/// Fails when the input matches neither format, or when a capture's
/// frames do not decode under the codec parameters it carries.
pub fn explain(text: &str) -> Result<Explanation, BpushError> {
    if text.starts_with(CAPTURE_MAGIC) {
        return explain_capture(text).map(|c| Explanation::Capture(Box::new(c)));
    }
    if text.trim_start().starts_with('{') {
        return explain_trace(text).map(Explanation::Trace);
    }
    Err(BpushError::invalid_config(
        "unrecognized input: expected a bpush-capture-v1 capture or a bpush-trace-v1 metrics.json",
    ))
}

/// Decodes one frame's wire bytes into its control information and
/// segment census.
fn decode_frame(
    cycle: u64,
    bytes: &[u8],
    params: WireParams,
) -> Result<(Option<ControlInfo>, FrameSummary), BpushError> {
    let mut feed = WireFeed::new();
    feed.push(bytes);
    let mut control = None;
    let mut summary = FrameSummary {
        cycle,
        report_len: 0,
        data_records: 0,
        has_directory: false,
    };
    while let Some(seg) = feed.pop()? {
        match decode_segment(seg, params)? {
            DecodedSegment::Control(ctrl) => {
                summary.report_len = ctrl.invalidation().len();
                control = Some(ctrl);
            }
            DecodedSegment::Data(_, records) => summary.data_records += records.len(),
            DecodedSegment::Directory(_) => summary.has_directory = true,
        }
    }
    Ok((control, summary))
}

/// Capture forensics: decode every retained frame and resolve the
/// trigger into its causal chain.
///
/// # Errors
/// Fails on a malformed capture or any frame that does not decode.
pub fn explain_capture(text: &str) -> Result<CaptureExplanation, BpushError> {
    let capture = Capture::parse(text)
        .ok_or_else(|| BpushError::invalid_config("malformed bpush-capture-v1 capture"))?;
    let params = WireParams::derive(
        capture.params[0],
        capture.params[1],
        capture.params[2],
        capture.params[3],
    );
    let mut controls: Vec<(u64, ControlInfo)> = Vec::new();
    let mut frames = Vec::with_capacity(capture.frames.len());
    for frame in &capture.frames {
        let (control, summary) = decode_frame(frame.cycle, &frame.bytes, params)
            .map_err(|e| BpushError::invalid_config(format!("frame cycle={}: {e}", frame.cycle)))?;
        if let Some(ctrl) = control {
            controls.push((frame.cycle, ctrl));
        }
        frames.push(summary);
    }

    // Resolve the violating report entry: prefer the report the trigger
    // itself blames (`detail` holds the dooming report cycle for
    // currency/coverage violations), then the confirmation cycle, then
    // any retained report naming the item, newest first.
    let trigger = capture.trigger;
    let mut entry = None;
    if trigger.item != NO_ITEM {
        let item = ItemId::new(trigger.item);
        let mut candidates: Vec<u64> = Vec::new();
        if matches!(
            trigger.kind,
            MonitorKind::Currency | MonitorKind::Coverage | MonitorKind::Serializability
        ) && trigger.detail != NO_CYCLE
        {
            candidates.push(trigger.detail);
        }
        candidates.push(trigger.cycle);
        let resolve = |cycle: u64| -> Option<ReportEntryFact> {
            let (_, ctrl) = controls.iter().find(|(c, _)| *c == cycle)?;
            let write_cycle = ctrl.invalidation().update_cycle(item)?;
            Some(ReportEntryFact {
                report_cycle: cycle,
                item: trigger.item,
                write_cycle: write_cycle.number(),
            })
        };
        entry = candidates.iter().find_map(|&c| resolve(c)).or_else(|| {
            controls.iter().rev().find_map(|(cycle, ctrl)| {
                ctrl.invalidation()
                    .update_cycle(item)
                    .map(|wc| ReportEntryFact {
                        report_cycle: *cycle,
                        item: trigger.item,
                        write_cycle: wc.number(),
                    })
            })
        });
    }
    let write_cycle = if trigger.write_cycle != NO_CYCLE {
        Some(trigger.write_cycle)
    } else {
        entry.map(|e| e.write_cycle)
    };
    let cycle_distance = write_cycle.map(|wc| trigger.cycle.saturating_sub(wc));
    let rule = rule_of(&capture.method, trigger.kind);

    Ok(CaptureExplanation {
        capture,
        frames,
        entry,
        cycle_distance,
        rule,
    })
}

/// The published rule behind a violation of `kind` under `method` —
/// the last link of the causal chain.
fn rule_of(method: &str, kind: MonitorKind) -> String {
    let policy = Method::ALL
        .iter()
        .find(|m| m.name() == method)
        .map(|m| m.monitor_policy().0);
    let rule = match (kind, policy) {
        (MonitorKind::Currency, Some(MonitorPolicy::Current)) => {
            "§3.1 invalidation: once a report invalidates the readset the \
             query is doomed — no later read may be accepted"
        }
        (MonitorKind::Currency, Some(MonitorPolicy::Snapshot)) => {
            "§3.2/§4.1 snapshot currency: every read must come from one \
             database state; a read past the first overwrite breaks it"
        }
        (MonitorKind::Currency, _) => {
            "currency: a read was accepted after the readset was invalidated"
        }
        (MonitorKind::Serializability, _) => {
            "§3.3 SGT: the commit closes a cycle in the serialization graph"
        }
        (MonitorKind::Coverage, Some(MonitorPolicy::Graph)) => {
            "§3.3: a missed control cycle leaves the graph unsound — the \
             query must abort, not commit"
        }
        (MonitorKind::Coverage, _) => {
            "§5.2.2 window rule: a gap past the report window leaves the \
             readset unscreened — the query must abort, not commit"
        }
        (MonitorKind::AbortWatch, _) => {
            "abort-reason watch: a watched AbortReason fired (capture \
             trigger, not a violation)"
        }
    };
    format!("{method}: {rule}")
}

/// Trace forensics over a `bpush-trace-v1` metrics document.
///
/// # Errors
/// Fails when the text is not valid JSON or lacks the trace schema.
pub fn explain_trace(text: &str) -> Result<TraceExplanation, BpushError> {
    let root = jsonv::parse(text.trim()).map_err(BpushError::invalid_config)?;
    if root.get("schema").and_then(Json::as_str) != Some("bpush-trace-v1") {
        return Err(BpushError::invalid_config(
            "missing or wrong `schema` (want \"bpush-trace-v1\")",
        ));
    }
    let field = |key: &str| -> Result<u64, BpushError> {
        root.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| BpushError::invalid_config(format!("missing integer `{key}`")))
    };
    let mut aborts = Vec::new();
    if let Some(counters) = root.get("counters").and_then(Json::as_arr) {
        for c in counters {
            let (Some(name), Some(value)) = (
                c.get("name").and_then(Json::as_str),
                c.get("value").and_then(Json::as_u64),
            ) else {
                continue;
            };
            if let Some(reason) = name.strip_prefix("queries.aborted.") {
                aborts.push((reason.to_string(), value));
            }
        }
    }
    Ok(TraceExplanation {
        method: root
            .get("method")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        seed: field("seed")?,
        quick: root.get("quick").and_then(Json::as_bool).unwrap_or(false),
        queries: field("queries")?,
        committed: field("committed")?,
        aborted: field("aborted")?,
        aborts,
    })
}

/// Renders the forensics as a human-readable causal chain.
#[must_use]
pub fn render_text(explanation: &Explanation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match explanation {
        Explanation::Capture(c) => {
            let cap = &c.capture;
            let t = cap.trigger;
            let _ = writeln!(
                out,
                "xtask explain: {CAPTURE_MAGIC} (method {}, seed {}, {} clients)",
                cap.method, cap.seed, cap.clients
            );
            let _ = writeln!(
                out,
                "trigger: {} violation confirmed at cycle {} (client {}, query {})",
                t.kind.label(),
                t.cycle,
                t.client,
                t.query
            );
            out.push_str("causal chain:\n");
            let mut step = 1u32;
            if let Some(wc) = (t.write_cycle != NO_CYCLE)
                .then_some(t.write_cycle)
                .or(c.entry.map(|e| e.write_cycle))
            {
                if t.item != NO_ITEM {
                    let _ = writeln!(
                        out,
                        "  {step}. an update transaction wrote item {} at cycle {wc}",
                        t.item
                    );
                    step += 1;
                }
            }
            if let Some(e) = c.entry {
                let _ = writeln!(
                    out,
                    "  {step}. the cycle-{} invalidation report names item {} \
                     (write cycle {}) — the violating report entry",
                    e.report_cycle, e.item, e.write_cycle
                );
                step += 1;
            } else if t.item != NO_ITEM {
                let _ = writeln!(
                    out,
                    "  {step}. no retained report names item {} — the report \
                     predates the flight window ({} frames dropped)",
                    t.item, cap.dropped
                );
                step += 1;
            }
            if let Some(d) = c.cycle_distance {
                let _ = writeln!(
                    out,
                    "  {step}. query {} (client {}) was still fed {d} cycle(s) \
                     after the conflicting write",
                    t.query, t.client
                );
                step += 1;
            }
            let _ = writeln!(out, "  {step}. rule: {}", c.rule);
            let _ = writeln!(
                out,
                "frames: {} retained ({} dropped), client fingerprint {:016x}",
                c.frames.len(),
                cap.dropped,
                cap.fingerprint
            );
            for f in &c.frames {
                let _ = writeln!(
                    out,
                    "  cycle {}: {} report entries, {} data records{}",
                    f.cycle,
                    f.report_len,
                    f.data_records,
                    if f.has_directory { ", directory" } else { "" }
                );
            }
        }
        Explanation::Trace(t) => {
            let _ = writeln!(
                out,
                "xtask explain: bpush-trace-v1 (method {}, seed {:#x}, {} scale)",
                t.method,
                t.seed,
                if t.quick { "quick" } else { "paper" }
            );
            let _ = writeln!(
                out,
                "queries: {} issued, {} committed, {} aborted",
                t.queries, t.committed, t.aborted
            );
            if t.aborts.is_empty() {
                out.push_str("aborts: none recorded\n");
            } else {
                out.push_str("abort reasons:\n");
                for (reason, count) in &t.aborts {
                    let _ = writeln!(out, "  {reason}: {count}");
                }
            }
        }
    }
    out
}

/// Appends `key` as either an integer or `null`.
fn push_opt(out: &mut String, key: &str, value: Option<u64>) {
    match value {
        Some(v) => out.push_str(&format!(",\"{key}\":{v}")),
        None => out.push_str(&format!(",\"{key}\":null")),
    }
}

/// Renders the single-line `bpush-explain-v1` document (pinned key
/// order, locked by `tests/json_schema.rs`; no trailing newline).
#[must_use]
pub fn render_json(explanation: &Explanation) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"schema\":\"bpush-explain-v1\"");
    match explanation {
        Explanation::Capture(c) => {
            let cap = &c.capture;
            let t = cap.trigger;
            out.push_str(",\"input\":\"capture\"");
            out.push_str(&format!(",\"method\":\"{}\"", cap.method));
            out.push_str(&format!(",\"seed\":{}", cap.seed));
            out.push_str(&format!(",\"clients\":{}", cap.clients));
            out.push_str(&format!(",\"kind\":\"{}\"", t.kind.label()));
            out.push_str(&format!(",\"client\":{}", t.client));
            out.push_str(&format!(",\"query\":{}", t.query));
            out.push_str(&format!(",\"cycle\":{}", t.cycle));
            push_opt(
                &mut out,
                "item",
                (t.item != NO_ITEM).then(|| u64::from(t.item)),
            );
            push_opt(
                &mut out,
                "write_cycle",
                (t.write_cycle != NO_CYCLE)
                    .then_some(t.write_cycle)
                    .or(c.entry.map(|e| e.write_cycle)),
            );
            push_opt(&mut out, "report_cycle", c.entry.map(|e| e.report_cycle));
            push_opt(&mut out, "cycle_distance", c.cycle_distance);
            out.push_str(&format!(",\"report_entry_found\":{}", c.entry.is_some()));
            out.push_str(&format!(
                ",\"rule\":{}",
                bpush_obs::export::json_string(&c.rule)
            ));
            out.push_str(&format!(",\"frames\":{}", c.frames.len()));
            out.push_str(&format!(",\"dropped\":{}", cap.dropped));
            out.push_str(&format!(",\"fingerprint\":\"{:016x}\"", cap.fingerprint));
        }
        Explanation::Trace(t) => {
            out.push_str(",\"input\":\"trace\"");
            out.push_str(&format!(",\"method\":\"{}\"", t.method));
            out.push_str(&format!(",\"seed\":{}", t.seed));
            out.push_str(&format!(",\"quick\":{}", t.quick));
            out.push_str(&format!(",\"queries\":{}", t.queries));
            out.push_str(&format!(",\"committed\":{}", t.committed));
            out.push_str(&format!(",\"aborted\":{}", t.aborted));
            out.push_str(",\"aborts\":[");
            for (i, (reason, count)) in t.aborts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"reason\":\"{reason}\",\"count\":{count}}}"));
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_sim::{monitors_for, CaptureSlot, Simulation};
    use bpush_types::SimConfig;

    /// The quick sim configuration the capture fixtures run at (the
    /// same scale `crates/sim` uses for its own monitor tests).
    fn quick_config() -> SimConfig {
        SimConfig {
            server: bpush_types::ServerConfig {
                broadcast_size: 200,
                update_range: 100,
                server_read_range: 200,
                updates_per_cycle: 20,
                txns_per_cycle: 5,
                ..bpush_types::ServerConfig::default()
            },
            client: bpush_types::ClientConfig {
                read_range: 100,
                reads_per_query: 6,
                ..bpush_types::ClientConfig::default()
            },
            n_clients: 3,
            queries_per_client: 15,
            warmup_cycles: 3,
            max_cycles: 20_000,
            seed: 99,
        }
    }

    /// Runs the seeded BrokenInvalidation mutant under monitors with
    /// the flight recorder attached and returns the rendered capture.
    fn broken_capture() -> String {
        let config = quick_config();
        let method = bpush_core::Method::InvalidationOnly;
        let slot = CaptureSlot::new();
        let sim = Simulation::new(config.clone(), method)
            .unwrap()
            .with_protocol_factory(|| Box::new(bpush_mc::BrokenInvalidation::new()))
            .with_monitors(monitors_for(&config, method))
            .with_flight_recorder(8, slot.clone());
        sim.run().unwrap();
        slot.take().expect("the mutant trips a capture").render()
    }

    /// The acceptance criterion: explain on a real mutant capture names
    /// the violating report entry (item + report cycle) and the rule.
    #[test]
    fn explain_names_the_violating_report_entry_and_cycle() {
        let text = broken_capture();
        let explanation = explain(&text).unwrap();
        let Explanation::Capture(c) = &explanation else {
            panic!("capture input must sniff as a capture");
        };
        assert_eq!(c.capture.method, "inv-only");
        let entry = c.entry.expect("the violating report entry is resolved");
        assert_eq!(entry.item, c.capture.trigger.item, "entry names the item");
        assert!(
            entry.report_cycle <= c.capture.trigger.cycle,
            "the report predates or matches the confirmation cycle"
        );
        let rendered = render_text(&explanation);
        assert!(
            rendered.contains(&format!(
                "the cycle-{} invalidation report names item {}",
                entry.report_cycle, entry.item
            )),
            "text names the violating report entry and cycle:\n{rendered}"
        );
        assert!(rendered.contains("rule: inv-only: §3.1"), "{rendered}");
        let json = render_json(&explanation);
        assert!(json.starts_with("{\"schema\":\"bpush-explain-v1\",\"input\":\"capture\""));
        assert!(json.contains("\"report_entry_found\":true"), "{json}");
        assert!(json.contains(&format!("\"item\":{}", entry.item)), "{json}");
    }

    /// Same seed, same capture, same forensics — byte-identical output.
    #[test]
    fn explain_is_deterministic_for_same_seed_captures() {
        let (a, b) = (broken_capture(), broken_capture());
        assert_eq!(a, b, "same-seed captures are byte-identical");
        let (ea, eb) = (explain(&a).unwrap(), explain(&b).unwrap());
        assert_eq!(render_text(&ea), render_text(&eb));
        assert_eq!(render_json(&ea), render_json(&eb));
    }

    /// Trace input: the metrics document explains as counter-based
    /// forensics with the per-reason abort breakdown.
    #[test]
    fn explain_walks_a_trace_metrics_document() {
        let report = crate::trace::run_trace(bpush_core::Method::InvalidationOnly, true).unwrap();
        let metrics = crate::trace::render_metrics_json(&report);
        let explanation = explain(&metrics).unwrap();
        let Explanation::Trace(t) = &explanation else {
            panic!("trace input must sniff as a trace");
        };
        assert_eq!(t.method, "inv-only");
        assert_eq!(t.committed + t.aborted, t.queries);
        let breakdown: u64 = t.aborts.iter().map(|(_, n)| n).sum();
        assert_eq!(breakdown, t.aborted, "abort reasons partition the aborts");
        let json = render_json(&explanation);
        assert!(json.starts_with("{\"schema\":\"bpush-explain-v1\",\"input\":\"trace\""));
        let text = render_text(&explanation);
        assert!(text.contains("queries:"), "{text}");
    }

    /// Unrecognized input is a loud error, not a guess.
    #[test]
    fn explain_rejects_unknown_input() {
        assert!(explain("neither a capture nor json").is_err());
        assert!(explain("{\"schema\":\"acme-report-v7\"}").is_err());
    }
}
