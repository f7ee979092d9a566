//! The arithmetic that turns a run's samples into the metrics of
//! [`crate::report`]. A ratio with an empty denominator reads 0, which
//! is also how a metric that does not apply to a workload reads.

use crate::driver::Measured;
use crate::measure::Replication;
use crate::report::{per_family, Values};
use crate::stats;
use crate::surface::{Family, Outcome};
use crate::traced::{self, Account, TracedRun};

fn median_of(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// `part / whole` in percent.
pub fn pct(part: u64, whole: u64) -> f64 {
    ratio(part as f64, whole as f64) * 100.0
}

/// Sample count and quartiles of a timing, `samples_s` scaled by `scale`
/// into `unit`.
fn spread_note(samples_s: &[f64], scale: f64, unit: &str) -> String {
    match stats::quartiles(samples_s) {
        Some(q) => format!(
            "n={} q1={:.4}{unit} q3={:.4}{unit}",
            samples_s.len(),
            q.q1 * scale,
            q.q3 * scale
        ),
        None => "n=0".to_owned(),
    }
}

/// Sum over the replications of each one's fastest sample, and how many
/// samples there were in all: the time of one undisturbed pass over
/// every replication. The fastest, not the median: a replication gets
/// two or three repetitions, interference on a shared host only ever
/// adds time (one repetition in ten reads 10 to 20 % long), and the
/// median of two is their mean and inherits every such spike — it
/// doubled the spread of `queries_per_s` between runs.
fn pass_time(m: &Measured<'_>, samples_of: impl Fn(&Replication) -> Vec<f64>) -> (f64, usize) {
    let per_replication: Vec<Vec<f64>> = m.set_up.replications.iter().map(samples_of).collect();
    let fastest = |samples: &Vec<f64>| samples.iter().copied().reduce(f64::min).unwrap_or(0.0);
    (
        per_replication.iter().map(fastest).sum(),
        per_replication.iter().map(Vec::len).sum(),
    )
}

/// The end-to-end metrics: what a user of the simulator sees, pooled
/// over the replications and the four families.
pub fn end_to_end(m: &Measured<'_>) -> Values {
    // every repetition of a replication reproduces its reference, so
    // the reference speaks for all
    let outcomes: Vec<&Outcome> = m
        .set_up
        .replications
        .iter()
        .filter_map(|r| r.reference.as_ref())
        .flat_map(|rep| &rep.outcomes)
        .collect();
    let queries: u64 = outcomes.iter().map(|o| o.counts.queries).sum();
    let commits: u64 = outcomes.iter().map(|o| o.counts.commits).sum();
    let latency_sum: f64 = outcomes
        .iter()
        .map(|o| o.latency_cycles_mean * o.counts.commits as f64)
        .sum();
    let overhead_sum: f64 = outcomes.iter().map(|o| o.overhead_pct).sum();
    let (pass_s, reps) = pass_time(m, Replication::wall_s);

    let mut v = Values::default();
    v.set(
        "queries_per_s",
        ratio(queries as f64, pass_s),
        format!(
            "{queries} queries in {pass_s:.4}s: {} replications, the fastest of each, n={reps} repetitions",
            m.set_up.replications.len()
        ),
    );
    v.set(
        "setup_s",
        median_of(&m.set_up.setups_s),
        spread_note(&m.set_up.setups_s, 1.0, "s"),
    );
    v.set(
        "peak_rss_mb",
        m.set_up.first_run_rss_mib,
        "after the first repetition",
    );
    v.set("abort_pct", pct(queries - commits, queries), "");
    v.set("latency_cycles", ratio(latency_sum, commits as f64), "");
    v.set(
        "bcast_overhead_pct",
        ratio(overhead_sum, outcomes.len() as f64),
        "",
    );
    v.set(
        "air_bytes_per_cycle",
        ratio(m.air.got.air.total() as f64, m.air.cycles as f64),
        format!("n={} cycles", m.air.cycles),
    );
    v
}

/// The per-layer metrics: untraced medians, then what the spans, the
/// channel pass and the companion runs say.
pub fn per_layer(m: &Measured<'_>) -> Values {
    let mut v = Values::default();
    untraced_rows(&mut v, m);
    span_rows(&mut v, m);
    channel_rows(&mut v, m);
    companion_rows(&mut v, m);
    v
}

/// Replication 0's median repetition wall: what the traced pass and the
/// companion runs, made on the same inputs, compare against.
fn first_wall_s(m: &Measured<'_>) -> f64 {
    m.set_up
        .replications
        .first()
        .map_or(0.0, |r| median_of(&r.wall_s()))
}

fn untraced_rows(v: &mut Values, m: &Measured<'_>) {
    let replications = m.set_up.replications.len() as f64;
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let (pass_s, reps) = pass_time(m, |r| r.run_s(i));
        v.set(
            per_family("sim.run_ms", family),
            ratio(pass_s * 1e3, replications),
            format!("mean over replications of the fastest, n={reps}"),
        );
    }
    let (pass_s, reps) = pass_time(m, Replication::construct_s);
    v.set(
        "sim.construct_ms",
        ratio(pass_s * 1e3, replications),
        format!("mean over replications of the fastest, n={reps}"),
    );
    let slots: Vec<f64> = m
        .set_up
        .replications
        .first()
        .and_then(|r| r.reference.as_ref())
        .map_or_else(Vec::new, |rep| {
            rep.outcomes.iter().map(|o| o.bcast_slots_mean).collect()
        });
    v.set(
        "broadcast.bcast_slots_mean",
        ratio(slots.iter().sum(), slots.len() as f64),
        "",
    );
    v.set("sim.workers", m.workers as f64, "");
}

/// A tail statistic of span durations (`scale` converts nanoseconds to
/// the metric's unit); the note says which percentile it really is.
fn tail_row(v: &mut Values, name: &str, samples_ns: &[f64], wanted: f64, scale: f64) {
    match stats::tail(samples_ns, wanted) {
        Some(t) => v.set(
            name,
            t.value * scale,
            format!("n={} p{}", samples_ns.len(), t.percentile),
        ),
        None => v.set(name, 0.0, "n=0"),
    }
}

/// Everything derived from the traced pass. With no traced run (the
/// sharded runner cannot be opened from outside) every row reads 0.
fn span_rows(v: &mut Values, m: &Measured<'_>) {
    let accounts = traced::layer_accounts(&m.traced.spans);
    let mut all = Account::default();
    for account in &accounts {
        all.add(account);
    }
    let mut run = TracedRun::default();
    for family_run in &m.traced.runs {
        run.pool(family_run);
    }

    for (i, family) in Family::ALL.into_iter().enumerate() {
        let a = accounts.get(i).copied().unwrap_or_default();
        let share = |ns: u64| pct(ns, a.root_ns);
        v.set(
            per_family("server.share_pct", family),
            share(a.server_ns),
            "",
        );
        v.set(
            per_family("client.share_pct", family),
            share(a.client_ns),
            "",
        );
        v.set(
            per_family("broadcast.drop_share_pct", family),
            share(a.broadcast_ns),
            "",
        );
        v.set(
            per_family("core.audit_share_pct", family),
            share(a.core_ns),
            format!("the family's sim (other) share is {:.2}%", share(a.sim_ns)),
        );
    }
    v.set(
        "sim.other_share_pct",
        pct(all.sim_ns, all.root_ns),
        "self time of run + construct + cycle, four families pooled",
    );
    v.set("sim.cycles", run.counts.cycles as f64, "");
    let traced_s = all.root_ns as f64 / 1e9;
    let untraced_s = first_wall_s(m);
    v.set(
        "sim.trace_overhead_pct",
        if accounts.is_empty() {
            0.0
        } else {
            (ratio(traced_s, untraced_s) - 1.0) * 100.0
        },
        format!("traced {traced_s:.4}s over untraced median {untraced_s:.4}s"),
    );

    let cycle_ns = traced::durations_ns(&m.traced.spans, "cycle");
    let server_ns = traced::durations_ns(&m.traced.spans, "server.run_cycle");
    let client_ns = traced::durations_ns(&m.traced.spans, "client.run_cycle");
    tail_row(v, "sim.cycle_us_p50", &cycle_ns, 50.0, 1e-3);
    tail_row(v, "sim.cycle_us_p90", &cycle_ns, 90.0, 1e-3);
    tail_row(v, "server.run_cycle_us_p50", &server_ns, 50.0, 1e-3);
    tail_row(v, "server.run_cycle_us_p90", &server_ns, 90.0, 1e-3);
    tail_row(v, "client.run_cycle_ns_p50", &client_ns, 50.0, 1.0);
    tail_row(v, "client.run_cycle_ns_p99", &client_ns, 99.0, 1.0);

    let cycles = run.counts.cycles as f64;
    v.set(
        "server.ns_per_item",
        ratio(all.server_ns as f64, run.items as f64),
        "",
    );
    v.set("server.history_writes", run.history_writes as f64, "");
    v.set("server.conflict_nodes", run.conflict_nodes as f64, "");
    v.set("server.conflict_edges", run.conflict_edges as f64, "");
    v.set(
        "broadcast.drop_us_per_cycle",
        ratio(all.broadcast_ns as f64 / 1e3, cycles),
        "",
    );
    v.set(
        "client.us_per_query",
        ratio(all.client_ns as f64 / 1e3, run.counts.queries as f64),
        "",
    );
    v.set(
        "client.cache_hit_pct",
        pct(run.cache_hits, run.cache_lookups),
        "",
    );
    v.set("core.audit_ms", all.core_ns as f64 / 1e6, "");
    v.set(
        "core.audit_us_per_readset",
        ratio(all.core_ns as f64 / 1e3, run.audit.readsets as f64),
        "",
    );
    v.set("core.audit_readsets", run.audit.readsets as f64, "");
    v.set("core.violations", run.audit.violations as f64, "");
    v.set("sgraph.peak_nodes", run.peak_nodes as f64, "");
    v.set("sgraph.peak_edges", run.peak_edges as f64, "");
}

fn channel_rows(v: &mut Values, m: &Measured<'_>) {
    let got = &m.air.got;
    let bytes = got.air.total() as f64;
    let cycles = m.air.cycles as f64;
    // bytes per microsecond = MB/s
    v.set(
        "broadcast.encode_mb_per_s",
        ratio(bytes * 1e3, m.air.encode_ns as f64),
        "",
    );
    v.set(
        "broadcast.scan_ns_per_segment",
        ratio(got.scan_ns as f64, got.segments as f64),
        format!("n={} segments", got.segments),
    );
    v.set(
        "broadcast.decode_mb_per_s",
        ratio(bytes * 1e3, got.decode_ns as f64),
        "",
    );
    v.set(
        "broadcast.decode_ns_per_record",
        ratio(got.decode_ns as f64, got.data_records as f64),
        format!("n={} records", got.data_records),
    );
    v.set(
        "broadcast.channel_us_per_cycle",
        ratio(
            (m.air.encode_ns + got.scan_ns + got.decode_ns) as f64 / 1e3,
            cycles,
        ),
        format!("n={} cycles", m.air.cycles),
    );
    v.set(
        "broadcast.control_bytes_per_cycle",
        ratio(got.air.control as f64, cycles),
        "",
    );
    v.set(
        "broadcast.data_bytes_per_cycle",
        ratio(got.air.data as f64, cycles),
        "",
    );
    v.set(
        "broadcast.directory_bytes_per_cycle",
        ratio(got.air.directory as f64, cycles),
        "",
    );
    v.set(
        "broadcast.wire_overhead_pct",
        pct(got.air.control + got.air.directory, got.air.data),
        "",
    );
}

/// Same-run ratios against executions of the same inputs in another
/// mode; 0 where the workload has no such companion (an unmeasured
/// median is 0, and so is a ratio with one).
fn companion_rows(v: &mut Values, m: &Measured<'_>) {
    let c = m.companions;
    let wall_s = first_wall_s(m);
    let struct_fed_s = median_of(&c.struct_fed_s);
    let one_worker_s = median_of(&c.one_worker_s);
    v.set(
        "sim.wire_over_struct_x",
        ratio(wall_s, struct_fed_s),
        format!("struct-fed n={}", c.struct_fed_s.len()),
    );
    v.set(
        "sim.shard_speedup_x",
        ratio(one_worker_s, wall_s),
        format!("1 worker n={}", c.one_worker_s.len()),
    );
    v.set(
        "sim.shard_replay_x",
        ratio(one_worker_s, median_of(&c.unsharded_s)),
        format!("unsharded n={}", c.unsharded_s.len()),
    );
    let monitors_x = ratio(median_of(&c.monitors_on_s), median_of(&c.monitors_off_s));
    v.set(
        "obs.monitors_overhead_pct",
        if monitors_x == 0.0 {
            0.0
        } else {
            (monitors_x - 1.0) * 100.0
        },
        format!("off/on pairs n={}", c.monitors_on_s.len()),
    );
}
