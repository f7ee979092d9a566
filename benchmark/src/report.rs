//! The metric table, and how a workload's results are printed.
//!
//! The table here is the single definition of every metric name, unit
//! and bound; `BENCHMARK.json` at the repository root is rendered from
//! it ([`contract_json`]) and a test keeps the two identical.

use std::fmt::Write as _;

use crate::surface::Family;
use crate::workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// One line: what is measured, and where it applies.
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

/// Seconds one run measures for: `run_seconds` of the contract and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 12;

/// `(name, unit, better, bound, meaning)` of the end-to-end metrics:
/// what a user of the simulator sees, pooled over the four method
/// families, measured with tracing off.
///
/// A bound is about three times the widest spread (interquartile
/// distance over median) the metric showed over ten seeds on any
/// workload when the benchmark was defined, five sets of sixty runs on
/// a shared 2-core host: `queries_per_s` 9.1 % (3 to 5 % in a quiet
/// hour), `peak_rss_mb` 6.0 %, `abort_pct` 3.7 %, `latency_cycles`
/// 2.0 %, `bcast_overhead_pct` 0.5 %, `air_bytes_per_cycle` 2.0 %;
/// `setup_s` showed up to 15.5 % and has the widest bound the contract
/// allows. The simulated statistics are exact for a seed; their spread
/// is what the seed itself moves. Most of the spread of `queries_per_s`
/// is the host: the same seed read 6 to 10 % apart an hour later, in
/// blocks of minutes, which no estimator inside a 12-second run removes.
const END_TO_END: [(&str, &str, Better, f64, &str); 7] = [
    (
        "queries_per_s",
        "1/s",
        Higher,
        0.25,
        "measured queries / time to construct and run the four simulations, fastest repetition of each replication",
    ),
    (
        "setup_s",
        "s",
        Lower,
        0.25,
        "median time to build a replication's inputs and run its untimed warm-up repetition",
    ),
    (
        "peak_rss_mb",
        "MiB",
        Lower,
        0.20,
        "VmHWM of the workload's process once it has run its first repetition",
    ),
    (
        "abort_pct",
        "%",
        Lower,
        0.15,
        "aborted / measured queries (Fig. 5); simulated, exact for a seed",
    ),
    (
        "latency_cycles",
        "cycles",
        Lower,
        0.10,
        "mean latency of committed queries, pooled by count (Fig. 8); simulated, exact for a seed",
    ),
    (
        "bcast_overhead_pct",
        "%",
        Lower,
        0.05,
        "mean slot-model broadcast-size increase (Fig. 7); simulated, exact for a seed",
    ),
    (
        "air_bytes_per_cycle",
        "bytes",
        Lower,
        0.10,
        "encoder bytes put on the air per cycle, counted in the channel pass; exact for a seed",
    ),
];

/// `(name, unit, better, meaning)` of the per-layer metrics. A name
/// ending in `.<m>` stands for one metric per method family. A metric
/// that does not apply to a workload reads 0 there. "traced" rows come
/// from the spans of the traced pass, "channel" rows from the channel
/// pass, both on replication 0.
#[rustfmt::skip] // one metric per line reads as the table it is
const PER_LAYER: [(&str, &str, Better, &str); 43] = [
    ("sim.run_ms.<m>", "ms", Lower, "untraced wall of the family's run, mean over replications of the fastest repetition"),
    ("sim.construct_ms", "ms", Lower, "untraced wall of constructing all four simulations, same mean"),
    ("sim.cycle_us_p50", "us", Lower, "traced: one cycle = run_cycle + every client + drop, median"),
    ("sim.cycle_us_p90", "us", Lower, "traced: one cycle, p90 (or the highest rung the count supports)"),
    ("sim.cycles", "count", Lower, "traced: cycles simulated, four families pooled"),
    ("sim.other_share_pct", "%", Lower, "traced: wall no call into a layer accounts for; above 5 is suspect"),
    ("sim.trace_overhead_pct", "%", Lower, "traced wall over the untraced median of the same inputs, minus 1"),
    ("sim.wire_over_struct_x", "x", Lower, "fanout-wire: wire-fed over struct-fed wall, same inputs"),
    ("sim.shard_speedup_x", "x", Higher, "fanout-sharded: wall on 1 worker over wall on W workers"),
    ("sim.shard_replay_x", "x", Lower, "fanout-sharded: 4 shards on 1 worker over the unsharded run"),
    ("sim.workers", "count", Higher, "worker threads the workload's simulations ran on"),
    ("server.share_pct.<m>", "%", Lower, "traced: BroadcastServer::run_cycle share of the family's wall"),
    ("server.run_cycle_us_p50", "us", Lower, "traced: BroadcastServer::run_cycle, median"),
    ("server.run_cycle_us_p90", "us", Lower, "traced: run_cycle, p90 (or the highest rung supported)"),
    ("server.ns_per_item", "ns", Lower, "traced: run_cycle time per item broadcast"),
    ("server.history_writes", "count", Lower, "traced: writes in the history the audit is given"),
    ("server.conflict_nodes", "count", Lower, "traced: conflict-graph nodes the audit is given"),
    ("server.conflict_edges", "count", Lower, "traced: conflict-graph edges the audit is given"),
    ("broadcast.drop_share_pct.<m>", "%", Lower, "traced: freeing each cycle's Bcast, share of the family's wall"),
    ("broadcast.drop_us_per_cycle", "us", Lower, "traced: freeing one cycle's Bcast"),
    ("client.share_pct.<m>", "%", Lower, "traced: QueryExecutor::run_cycle share of the family's wall"),
    ("client.run_cycle_ns_p50", "ns", Lower, "traced: one client over one cycle, median"),
    ("client.run_cycle_ns_p99", "ns", Lower, "traced: one client over one cycle, p99 (or highest supported)"),
    ("client.us_per_query", "us", Lower, "traced: client time per measured query"),
    ("client.cache_hit_pct", "%", Higher, "traced: cache hits over lookups (mv-caching clients)"),
    ("core.audit_share_pct.<m>", "%", Lower, "traced: end-of-run audit share of the family's wall"),
    ("core.audit_ms", "ms", Lower, "traced: the four end-of-run audits together"),
    ("core.audit_us_per_readset", "us", Lower, "traced: audit time per committed readset"),
    ("core.audit_readsets", "count", Lower, "traced: committed readsets audited"),
    ("core.violations", "count", Lower, "traced: readsets the audit rejected; always 0"),
    ("sgraph.peak_nodes", "count", Lower, "traced: peak client serialization-graph nodes (sgt)"),
    ("sgraph.peak_edges", "count", Lower, "traced: peak client serialization-graph edges (sgt)"),
    ("broadcast.encode_mb_per_s", "MB/s", Higher, "channel: encode_bcast_segments throughput"),
    ("broadcast.scan_ns_per_segment", "ns", Lower, "channel: WireFeed push (1500-byte chunks) + pop, per segment"),
    ("broadcast.decode_mb_per_s", "MB/s", Higher, "channel: decode_segment throughput"),
    ("broadcast.decode_ns_per_record", "ns", Lower, "channel: decode time per data record"),
    ("broadcast.channel_us_per_cycle", "us", Lower, "channel: encode + scan + decode of one cycle"),
    ("broadcast.control_bytes_per_cycle", "bytes", Lower, "channel: control-segment bytes per cycle"),
    ("broadcast.data_bytes_per_cycle", "bytes", Lower, "channel: data-segment bytes per cycle"),
    ("broadcast.directory_bytes_per_cycle", "bytes", Lower, "channel: directory-segment bytes per cycle"),
    ("broadcast.wire_overhead_pct", "%", Lower, "channel: non-data bytes over data bytes on the air"),
    ("broadcast.bcast_slots_mean", "slots", Lower, "mean on-air bcast length in slots, four families"),
    ("obs.monitors_overhead_pct", "%", Lower, "fanout: wall with monitors attached over without, minus 1"),
];

/// The end-to-end metrics, in reporting order.
pub fn end_to_end() -> Vec<Metric> {
    END_TO_END
        .into_iter()
        .map(|(name, unit, better, bound, meaning)| Metric {
            name: name.to_owned(),
            unit,
            better,
            bound: Some(bound),
            meaning,
        })
        .collect()
}

/// The name of a per-family metric: `stem` + `.` + the family's name.
pub fn per_family(stem: &str, family: Family) -> String {
    format!("{stem}.{}", family.name())
}

/// The per-layer metrics, in reporting order, `.<m>` rows expanded.
pub fn per_layer() -> Vec<Metric> {
    let mut metrics = Vec::new();
    for (name, unit, better, meaning) in PER_LAYER {
        let names = match name.strip_suffix(".<m>") {
            Some(stem) => Family::ALL.map(|f| per_family(stem, f)).to_vec(),
            None => vec![name.to_owned()],
        };
        metrics.extend(names.into_iter().map(|name| Metric {
            name,
            unit,
            better,
            bound: None,
            meaning,
        }));
    }
    metrics
}

/// `BENCHMARK.json`, rendered from the workload and metric tables.
pub fn contract_json() -> String {
    let section =
        |key: &str, rows: Vec<String>| format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"));
    let metric_row = |m: &Metric| {
        let bound = m
            .bound
            .map_or_else(String::new, |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.word()
        )
    };
    let workload_row = |w: &workload::Workload| {
        format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
    };
    let members = [
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"]"
            .to_owned(),
        "  \"paths\": [\"benchmark\"]".to_owned(),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        section(
            "workloads",
            workload::ALL.iter().map(workload_row).collect(),
        ),
        section("end_to_end", end_to_end().iter().map(metric_row).collect()),
        section("per_layer", per_layer().iter().map(metric_row).collect()),
    ];
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// The `--list` text: every workload and metric with unit and meaning.
pub fn listing() -> String {
    let mut out = String::from("workloads\n");
    for w in workload::ALL {
        let _ = writeln!(out, "  {:<16} {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics (tracing off, four method families pooled)\n");
    for m in end_to_end() {
        let _ = writeln!(
            out,
            "  {:<36} {:<6} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0),
            m.meaning
        );
    }
    out.push_str("\nper-layer metrics (--trace 1; 0 where a metric does not apply)\n");
    for m in per_layer() {
        let _ = writeln!(
            out,
            "  {:<36} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.meaning
        );
    }
    out
}

/// One measured value, with what a reader needs to judge it: the sample
/// count and quartiles of a timing, or the percentile really used.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The metric's name.
    pub name: String,
    /// The value, in the metric's unit.
    pub value: f64,
    /// Sample count, quartiles, percentile used; may be empty.
    pub note: String,
}

/// A set of measured values, checked against the metric table when
/// rendered.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<Value>);

impl Values {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, note: impl Into<String>) {
        self.0.push(Value {
            name: name.into(),
            value,
            note: note.into(),
        });
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// The values in `metrics` order. A metric without a value, or with
    /// one that is not finite, is an error: the result line must carry
    /// every metric of its mode.
    ///
    /// # Errors
    /// Names the first metric that is missing or not finite.
    pub fn in_order<'a>(
        &'a self,
        metrics: &'a [Metric],
    ) -> Result<Vec<(&'a Metric, &'a Value)>, String> {
        metrics
            .iter()
            .map(|m| {
                let value = self
                    .0
                    .iter()
                    .find(|v| v.name == m.name)
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                if !value.value.is_finite() {
                    return Err(format!("metric {} is not finite", m.name));
                }
                Ok((m, value))
            })
            .collect()
    }
}

/// Renders `values` as an aligned table, one metric per line.
///
/// # Errors
/// See [`Values::in_order`].
pub fn table(values: &Values, metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::new();
    for (m, v) in values.in_order(metrics)? {
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, v.value, m.unit, v.note
        );
    }
    Ok(out)
}

/// The result line of the contract: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Errors
/// See [`Values::in_order`].
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    metrics: &[Metric],
) -> Result<String, String> {
    let body: Vec<String> = values
        .in_order(metrics)?
        .into_iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    /// The contract file and the tables in this crate cannot drift: the
    /// file is the rendering of the tables.
    #[test]
    fn benchmark_json_is_the_rendering_of_the_tables() {
        assert_eq!(
            contract_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --contract \
             > BENCHMARK.json"
        );
    }

    #[test]
    fn every_name_and_unit_is_within_the_contract() {
        let mut names: Vec<String> = workload::ALL.iter().map(|w| w.name.to_owned()).collect();
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
            names.push(m.name);
        }
        for name in &names {
            assert!(is_name(name), "{name:?}");
            assert_eq!(
                names.iter().filter(|n| *n == name).count(),
                1,
                "{name} twice"
            );
        }
    }

    #[test]
    fn the_tables_stay_within_the_contract_limits() {
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!((2..=8).contains(&workload::ALL.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() <= 64 * 1024);
        for m in &e2e {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        // the contract gives set-up time the largest bound
        assert_eq!(
            setup.bound,
            e2e.iter().filter_map(|m| m.bound).reduce(f64::max)
        );
    }

    #[test]
    fn per_family_rows_expand_to_one_metric_per_family() {
        let names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        for family in Family::ALL {
            for stem in [
                "sim.run_ms",
                "server.share_pct",
                "client.share_pct",
                "broadcast.drop_share_pct",
                "core.audit_share_pct",
            ] {
                assert!(
                    names.contains(&per_family(stem, family)),
                    "{stem} {family:?}"
                );
            }
        }
        assert!(!names.iter().any(|n| n.contains('<')));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let metrics = end_to_end();
        let mut values = Values::default();
        assert!(values.in_order(&metrics).is_err());
        for m in &metrics {
            values.set(m.name.clone(), 1.5, "");
        }
        assert!(values.in_order(&metrics).is_ok());
        let line = result_line(true, 10, 0, &values, &metrics).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));

        let mut bad = Values::default();
        for m in &metrics {
            bad.set(m.name.clone(), f64::NAN, "");
        }
        assert!(bad.in_order(&metrics).is_err());
    }
}
