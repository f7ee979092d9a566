//! One workload from set-up to report: the order of the phases.
//!
//! 1. set-up — every replication's inputs from the seed; the first three
//!    replications also run one untimed warm-up repetition, and the
//!    median of those three set-ups is `setup_s`; peak memory is read
//!    after the first;
//! 2. timed repetitions round-robin over the replications, tracing off;
//!
//! and then on replication 0 alone, whose seed is `--seed` itself:
//!
//! 3. companion runs — the same inputs executed in another mode, for
//!    the cross-mode checks and the ratios that need a second mode;
//! 4. the channel pass;
//! 5. with `--trace 1`, the traced pass.

use crate::measure::{self, Budget, Ops, Repetition, SetUp};
use crate::metrics;
use crate::report::{self, Values};
use crate::spans::Recorder;
use crate::surface::{abort_labels, Config, Counts, Error, Exec, Family, Feed};
use crate::traced::{self, ChannelTotals, TracedRun};
use crate::workload::{self, Mode, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload (already at the `--quick` scale if that was asked).
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// When the timed repetitions stop.
    pub budget: Budget,
    /// Whether to make the traced pass and report per-layer metrics.
    pub trace: bool,
    /// `--quick`: every phase once, for tests and debug builds.
    pub quick: bool,
}

impl Options {
    /// Worker threads the workload's end-to-end runs use.
    pub fn workers(&self) -> usize {
        match self.workload.mode {
            Mode::Sharded => workload::sharded_workers(),
            Mode::Plain | Mode::Wire => 1,
        }
    }
}

/// Interleaved rounds of companion runs a traced run makes for each
/// ratio (`sim.wire_over_struct_x`, `sim.shard_*`,
/// `obs.monitors_overhead_pct`). An untraced run makes one round, for
/// the checks alone.
const ROUNDS: usize = 3;

/// Wall seconds of the companion runs: executions of the same inputs in
/// another mode.
#[derive(Debug, Default)]
pub struct Companions {
    /// `fanout-wire`: the struct-fed run.
    pub struct_fed_s: Vec<f64>,
    /// `fanout-sharded`: all shards on one worker.
    pub one_worker_s: Vec<f64>,
    /// `fanout-sharded`: the unsharded run.
    pub unsharded_s: Vec<f64>,
    /// Monitors guard: without monitors.
    pub monitors_off_s: Vec<f64>,
    /// Monitors guard: with monitors.
    pub monitors_on_s: Vec<f64>,
}

/// The traced pass: its spans and what each family's run produced.
/// Empty for the sharded workload, which cannot be opened from outside
/// (its layer shares are the unsharded `fanout`'s).
#[derive(Debug)]
pub struct Traced {
    /// Every span of the pass.
    pub spans: Recorder,
    /// Per family, in [`Family::ALL`] order.
    pub runs: Vec<TracedRun>,
}

/// Every sample one workload run took; what [`crate::metrics`] reads.
#[derive(Debug)]
pub struct Measured<'a> {
    /// The replications with their timed repetitions, the set-up times
    /// and the first run's peak memory; companions, channel pass and
    /// traced pass ran on the first replication.
    pub set_up: &'a SetUp,
    /// Companion-run wall times.
    pub companions: &'a Companions,
    /// The channel pass, four families pooled.
    pub air: &'a ChannelTotals,
    /// The traced pass.
    pub traced: &'a Traced,
    /// Worker threads of the end-to-end runs.
    pub workers: usize,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// End-to-end values (always complete).
    pub end_to_end: Values,
    /// Per-layer values (complete when traced, empty otherwise).
    pub per_layer: Values,
    /// Per replication, the wall seconds of each timed repetition.
    pub repetitions_s: Vec<Vec<f64>>,
    /// Operations attempted and failed, and why.
    pub ops: Ops,
    /// The traced pass's spans, for `--trace-out`.
    pub spans: Recorder,
}

/// Whether sharding left the query outcomes alone. Cycles are summed
/// over shards, so they legitimately differ.
fn same_outcomes(a: &Counts, b: &Counts) -> bool {
    (a.queries, a.commits, a.aborts) == (b.queries, b.commits, b.aborts)
}

/// Runs the companions of the workload's mode `rounds` times,
/// interleaved, and checks each against `reference`. Returns
/// their wall times and, per family, the cycles of one unsharded run.
fn companions(
    opts: &Options,
    configs: &[Config],
    reference: &Repetition,
    rounds: usize,
    ops: &mut Ops,
) -> Result<(Companions, Vec<u64>), Error> {
    let mut c = Companions::default();
    let mut cycles: Vec<u64> = reference.outcomes.iter().map(|o| o.counts.cycles).collect();
    let run = |what: &str, exec: Exec, ops: &mut Ops| {
        let rep = measure::repetition(configs, exec)?;
        ops.ran(what, &rep);
        Ok::<_, Error>(rep)
    };
    for _ in 0..rounds {
        match opts.workload.mode {
            Mode::Plain => {}
            Mode::Wire => {
                // the wire must not perturb the simulation
                let rep = run("struct-fed", Exec::Plain(Feed::Struct), ops)?;
                ops.same_snapshots("struct-fed vs wire-fed", &rep, reference);
                c.struct_fed_s.push(rep.wall_s);
            }
            Mode::Sharded => {
                // the worker count must not change a sharded run's
                // results, nor sharding which queries commit
                let one_worker = Exec::Sharded {
                    shards: workload::SHARDS,
                    workers: 1,
                };
                let rep = run("1 worker", one_worker, ops)?;
                ops.same_snapshots("1 worker vs W workers", &rep, reference);
                c.one_worker_s.push(rep.wall_s);

                let rep = run("unsharded", Exec::Plain(Feed::Struct), ops)?;
                let pairs = rep.outcomes.iter().zip(&reference.outcomes);
                for (family, (got, want)) in Family::ALL.iter().zip(pairs) {
                    if !same_outcomes(&got.counts, &want.counts) {
                        ops.fail_run(
                            want.counts.queries,
                            format!(
                                "unsharded vs sharded/{}: {:?} != {:?}",
                                family.name(),
                                got.counts,
                                want.counts
                            ),
                        );
                    }
                }
                c.unsharded_s.push(rep.wall_s);
                cycles = rep.outcomes.iter().map(|o| o.counts.cycles).collect();
            }
        }
        if opts.trace && opts.workload.guard_monitors {
            // monitors observe; they must not change what they observe
            let off = run("monitors off", Exec::Plain(Feed::Struct), ops)?;
            let on = run("monitors on", Exec::Monitored, ops)?;
            ops.same_snapshots("monitors on vs off", &on, &off);
            c.monitors_off_s.push(off.wall_s);
            c.monitors_on_s.push(on.wall_s);
        }
    }
    Ok((c, cycles))
}

/// The channel pass over every family's broadcast, pooled.
fn channel(configs: &[Config], cycles: &[u64], ops: &mut Ops) -> Result<ChannelTotals, Error> {
    let mut pooled = ChannelTotals::default();
    for (config, &cycles) in configs.iter().zip(cycles) {
        let totals = traced::channel_pass(config, cycles)?;
        if totals.bad_cycles > 0 {
            ops.problems.push(format!(
                "channel/{}: {} of {} cycles did not decode to what was encoded",
                config.family().name(),
                totals.bad_cycles,
                totals.cycles
            ));
        }
        pooled.add(&totals);
    }
    Ok(pooled)
}

/// The traced pass over the four families; each traced run's outcome
/// counts must equal those of `Simulation::run()` on the same input.
fn traced_pass(
    opts: &Options,
    configs: &[Config],
    reference: &Repetition,
    ops: &mut Ops,
) -> Result<Traced, Error> {
    let families = || configs.iter().zip(&reference.outcomes);
    // per run: root, construct and audit; per cycle: the cycle, the
    // server call, the drop, and one span per client
    let spans: u64 = families()
        .map(|(config, want)| 3 + want.counts.cycles * (3 + u64::from(config.clients())))
        .sum();
    let mut traced = Traced {
        spans: Recorder::with_capacity(usize::try_from(spans).unwrap_or(0)),
        runs: Vec::new(),
    };
    for (run, (config, want)) in families().enumerate() {
        let feed = opts.workload.mode.feed();
        let got = traced::traced_run(config, feed, run as u32, &mut traced.spans)?;
        ops.attempted += got.counts.queries;
        ops.failed += got.audit.violations;
        if got.counts != want.counts {
            ops.fail_run(
                got.counts.queries,
                format!(
                    "traced/{}: the traced driver diverged from Simulation::run \
                     (aborts by {:?})\n  got  {:?}\n  want {:?}",
                    config.family().name(),
                    abort_labels(),
                    got.counts,
                    want.counts
                ),
            );
        }
        traced.runs.push(got);
    }
    Ok(traced)
}

/// Runs one workload and computes every metric of its mode.
///
/// # Errors
/// Propagates the first error the program under test returns; reading
/// peak memory fails off Linux.
pub fn run(opts: &Options) -> Result<Report, Box<dyn std::error::Error>> {
    let mut ops = Ops::default();
    let rounds = if opts.trace && !opts.quick { ROUNDS } else { 1 };

    let mut set_up = measure::set_up(&opts.workload, opts.seed, &mut ops)?;
    measure::timed(
        &opts.workload,
        &mut set_up.replications,
        opts.budget,
        &mut ops,
    )?;

    // replication 0: the one whose seed is `--seed` itself
    let (first, reference) = set_up
        .replications
        .first()
        .and_then(|first| Some((first, first.reference.as_ref()?)))
        .ok_or(Error::internal("replication 0 was not run"))?;
    let (companions, cycles) = companions(opts, &first.configs, reference, rounds, &mut ops)?;
    let air = channel(&first.configs, &cycles, &mut ops)?;
    let traced = if opts.trace && opts.workload.mode != Mode::Sharded {
        traced_pass(opts, &first.configs, reference, &mut ops)?
    } else {
        Traced {
            spans: Recorder::with_capacity(0),
            runs: Vec::new(),
        }
    };

    let measured = Measured {
        set_up: &set_up,
        companions: &companions,
        air: &air,
        traced: &traced,
        workers: opts.workers(),
    };
    let end_to_end = metrics::end_to_end(&measured);
    let per_layer = if opts.trace {
        metrics::per_layer(&measured)
    } else {
        Values::default()
    };
    // one query is failed at most once, and a failed check that names no
    // query still fails the run
    ops.failed = ops
        .failed
        .min(ops.attempted)
        .max(u64::from(!ops.problems.is_empty()));
    Ok(Report {
        end_to_end,
        per_layer,
        repetitions_s: set_up.replications.iter().map(|r| r.wall_s()).collect(),
        ops,
        spans: traced.spans,
    })
}

/// The host block printed before any result: without the core count and
/// build profile a worker row or a wall time cannot be read.
pub fn host_block(opts: &Options) -> String {
    format!(
        "host: available_parallelism={} workers={} profile={} seed={:#x}{}",
        workload::available_parallelism(),
        opts.workers(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        opts.seed,
        if opts.quick { " scale=quick" } else { "" },
    )
}

/// Renders a report as text: the metric tables that were measured, then
/// the operation tally with every failed check.
///
/// # Errors
/// Fails if a metric of the mode was not measured.
pub fn render(opts: &Options, report: &Report) -> Result<String, String> {
    let mut out = format!("workload: {} — {}\n", opts.workload.name, opts.workload.why);
    out.push_str("end-to-end (tracing off, four method families pooled)\n");
    out.push_str(&report::table(&report.end_to_end, &report::end_to_end())?);
    if opts.trace {
        out.push_str(
            "per-layer (untraced medians, traced pass, channel pass; 0 = does not apply)\n",
        );
        out.push_str(&report::table(&report.per_layer, &report::per_layer())?);
    }
    for (i, samples) in report.repetitions_s.iter().enumerate() {
        out.push_str(&format!(
            "replication {i}: repetition wall n={} {samples:.4?}\n",
            samples.len()
        ));
    }
    let ops = &report.ops;
    out.push_str(&format!(
        "operations: attempted={} failed={} ops_failed_pct={}\n",
        ops.attempted,
        ops.failed,
        metrics::pct(ops.failed, ops.attempted)
    ));
    for problem in &ops.problems {
        out.push_str(&format!("FAILED CHECK {problem}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str, seed: u64, trace: bool) -> (Options, Report) {
        let opts = Options {
            workload: workload::find(name).unwrap().quick(),
            seed,
            budget: Budget::Reps(1),
            trace,
            quick: true,
        };
        let report = run(&opts).unwrap();
        (opts, report)
    }

    /// The traced driver must be the same simulation as
    /// `Simulation::run()` for all four families, in every mode, and
    /// every cross-mode check must hold.
    #[test]
    fn every_workload_passes_its_checks_and_reports_every_metric() {
        for w in workload::ALL {
            let (opts, report) = quick(w.name, 11, true);
            assert!(
                report.ops.correct(),
                "{}: {:?}",
                w.name,
                report.ops.problems
            );
            assert!(report.ops.attempted > 0);
            let text = render(&opts, &report).unwrap();
            for m in report::end_to_end().iter().chain(&report::per_layer()) {
                assert!(text.contains(&m.name), "{}: {} not printed", w.name, m.name);
            }
            let traced_families = if w.mode == Mode::Sharded {
                0
            } else {
                Family::ALL.len()
            };
            assert_eq!(
                report
                    .spans
                    .spans()
                    .iter()
                    .filter(|s| s.parent.is_none())
                    .count(),
                traced_families
            );
        }
    }

    #[test]
    fn layer_shares_add_up_to_the_whole_run() {
        let (_, report) = quick("fanout", 5, true);
        let get = |name: String| report.per_layer.get(&name).unwrap();
        for family in Family::ALL {
            let layers: f64 = [
                "server.share_pct",
                "client.share_pct",
                "broadcast.drop_share_pct",
                "core.audit_share_pct",
            ]
            .into_iter()
            .map(|stem| get(report::per_family(stem, family)))
            .sum();
            assert!(layers > 50.0 && layers <= 100.0, "{family:?}: {layers}");
        }
        assert!(get("sim.other_share_pct".to_owned()) < 50.0);
        assert!(get("sim.cycles".to_owned()) > 0.0);
    }

    /// Same seed ⇒ the simulated statistics are identical, bit for bit;
    /// another seed ⇒ another simulation.
    #[test]
    fn simulated_statistics_depend_on_the_seed_alone() {
        let simulated = |seed| {
            let (_, report) = quick("update-storm", seed, false);
            [
                "abort_pct",
                "latency_cycles",
                "bcast_overhead_pct",
                "air_bytes_per_cycle",
            ]
            .map(|name| report.end_to_end.get(name).unwrap().to_bits())
        };
        assert_eq!(simulated(21), simulated(21));
        assert_ne!(simulated(21), simulated(22));
    }

    #[test]
    fn an_untraced_run_reports_end_to_end_metrics_only() {
        let (opts, report) = quick("paper-fig4", 3, false);
        assert!(report.spans.spans().is_empty());
        assert!(report::table(&report.per_layer, &report::per_layer()).is_err());
        let text = render(&opts, &report).unwrap();
        assert!(text.contains("queries_per_s") && !text.contains("sim.cycles"));
        assert!(host_block(&opts).contains("scale=quick"));
    }
}
