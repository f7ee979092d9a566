//! Untraced measurement: set-up, timed repetitions, peak memory, and
//! the tally of operations attempted and failed.
//!
//! One *repetition* constructs and runs the four method families' whole
//! simulations. Construction is inside the timed region: a simulation is
//! single-use, so its users pay construction on every run, and moving
//! work between construction and run must read as neutral.

use std::time::Instant;

use crate::surface::{Config, Error, Exec, Family, Outcome, Sim};
use crate::workload::{self, Mode, Workload};

/// The execution a workload's end-to-end numbers are measured with.
pub fn exec_of(workload: &Workload) -> Exec {
    match workload.mode {
        Mode::Plain | Mode::Wire => Exec::Plain(workload.mode.feed()),
        Mode::Sharded => Exec::Sharded {
            shards: workload::SHARDS,
            workers: workload::sharded_workers(),
        },
    }
}

/// Wall times and results of one repetition.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Constructing and running all four simulations, in seconds.
    pub wall_s: f64,
    /// The part of `wall_s` spent constructing (next to nothing when
    /// sharded: the runner constructs inside its one call).
    pub construct_s: f64,
    /// Per family, in [`Family::ALL`] order: its simulation's run time.
    pub run_s: Vec<f64>,
    /// Per family: what its simulation reported.
    pub outcomes: Vec<Outcome>,
}

impl Repetition {
    /// Measured queries, pooled over the four families.
    pub fn queries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.counts.queries).sum()
    }
}

/// Runs one repetition of `configs` (one per family).
///
/// # Errors
/// Propagates the first error the program returns.
pub fn repetition(configs: &[Config], exec: Exec) -> Result<Repetition, Error> {
    let mut construct_s = 0.0;
    let mut run_s = Vec::with_capacity(configs.len());
    let mut outcomes = Vec::with_capacity(configs.len());
    let started = Instant::now();
    for config in configs {
        let begun = Instant::now();
        let sim = Sim::construct(config, exec)?;
        let constructed = begun.elapsed().as_secs_f64();
        let outcome = sim.run()?;
        construct_s += constructed;
        run_s.push(begun.elapsed().as_secs_f64() - constructed);
        outcomes.push(std::hint::black_box(outcome));
    }
    Ok(Repetition {
        wall_s: started.elapsed().as_secs_f64(),
        construct_s,
        run_s,
        outcomes,
    })
}

/// Operations attempted and failed, with the reason for every failure.
///
/// An operation is one measured query. It fails when it committed with a
/// readset the audit rejects, or when a check on its run fails — a
/// failed check fails every query of that run. Aborts are protocol
/// outcomes, not failures.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Measured queries over every run made.
    pub attempted: u64,
    /// Queries that failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Ops {
    /// Counts a repetition's queries and audit violations.
    pub fn ran(&mut self, what: &str, rep: &Repetition) {
        self.attempted += rep.queries();
        for (family, outcome) in Family::ALL.iter().zip(&rep.outcomes) {
            if outcome.violations > 0 {
                self.failed += outcome.violations;
                self.problems.push(format!(
                    "{what}/{}: {} committed readsets are not serializable",
                    family.name(),
                    outcome.violations
                ));
            }
        }
    }

    /// Records a failed check on a run of `queries` queries.
    pub fn fail_run(&mut self, queries: u64, problem: String) {
        self.failed += queries;
        self.problems.push(problem);
    }

    /// Checks that `rep` reproduced `reference` bit for bit: same seed,
    /// same simulated statistics.
    pub fn same_snapshots(&mut self, what: &str, rep: &Repetition, reference: &Repetition) {
        let pairs = rep.outcomes.iter().zip(&reference.outcomes);
        for (family, (got, want)) in Family::ALL.iter().zip(pairs) {
            if got.snapshot != want.snapshot {
                self.fail_run(
                    got.counts.queries,
                    format!(
                        "{what}/{}: simulated statistics differ\n  got  {}\n  want {}",
                        family.name(),
                        got.snapshot,
                        want.snapshot
                    ),
                );
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Replications of a workload one run measures: the same shape under
/// seeds derived from `--seed`. How long a simulation takes depends on
/// its seed — the update stream decides how large the serialization
/// graphs and the audit's history grow — by more than the noise of the
/// host, so a run pools several and reports what a user sees on average.
/// Fixed, so that the simulated statistics depend on the seed alone.
pub const REPLICATIONS: u32 = 6;

/// Replications that are set up with a warm-up repetition; the median
/// over them is `setup_s`.
pub const SETUPS: u32 = 3;

/// One replication: its generated inputs and every timed repetition
/// made on them.
#[derive(Debug, Clone)]
pub struct Replication {
    /// One generated input per family.
    pub configs: Vec<Config>,
    /// The first repetition made on these inputs — the set-up's warm-up
    /// where there was one, else the first timed one. Every later
    /// repetition reproduces it bit for bit, or the run fails.
    pub reference: Option<Repetition>,
    /// The timed repetitions, in the order they ran.
    pub samples: Vec<Repetition>,
}

impl Replication {
    /// Wall seconds of each timed repetition.
    pub fn wall_s(&self) -> Vec<f64> {
        self.samples.iter().map(|rep| rep.wall_s).collect()
    }

    /// Construction seconds of each timed repetition.
    pub fn construct_s(&self) -> Vec<f64> {
        self.samples.iter().map(|rep| rep.construct_s).collect()
    }

    /// Run seconds of family number `family` in each timed repetition.
    pub fn run_s(&self, family: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|rep| rep.run_s.get(family).copied())
            .collect()
    }
}

/// What setting a workload up produced.
#[derive(Debug)]
pub struct SetUp {
    /// Every replication, the first [`SETUPS`] with their reference.
    pub replications: Vec<Replication>,
    /// Seconds each set-up took.
    pub setups_s: Vec<f64>,
    /// `VmHWM` in MiB once the process had run its first repetition.
    pub first_run_rss_mib: f64,
}

/// Builds every replication's four inputs from `seed` and sets the
/// first [`SETUPS`] up the way a run of the simulator starts: inputs,
/// then one untimed repetition, which faults the heap in, warms the
/// caches and becomes the replication's reference.
///
/// A set-up this size is the smallest that measures steadily: building
/// inputs and constructing the simulations alone takes 0.05 to 9 ms and
/// reads up to 1.7 times apart between two processes on one host.
///
/// Peak memory is read after the first of these repetitions: a process
/// that has constructed and run the four simulations once is what a
/// user's run looks like, and its high-water mark repeats to about 1 %.
/// Read after all repetitions it steps by 2 MiB with the allocator's
/// mood — 14 to 17.5 MiB for one workload and seed.
///
/// # Errors
/// Propagates the first error the program returns; reading peak memory
/// fails off Linux.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    ops: &mut Ops,
) -> Result<SetUp, Box<dyn std::error::Error>> {
    let mut set_up = SetUp {
        replications: Vec::new(),
        setups_s: Vec::new(),
        first_run_rss_mib: 0.0,
    };
    for replication in 0..REPLICATIONS {
        let started = Instant::now();
        let configs = workload.configs(seed, replication);
        let mut reference = None;
        if replication < SETUPS {
            let warm_up = repetition(&configs, exec_of(workload))?;
            set_up.setups_s.push(started.elapsed().as_secs_f64());
            if replication == 0 {
                set_up.first_run_rss_mib = peak_rss_mib()?;
            }
            ops.ran("warm-up", &warm_up);
            reference = Some(warm_up);
        }
        set_up.replications.push(Replication {
            configs,
            reference,
            samples: Vec::new(),
        });
    }
    Ok(set_up)
}

/// When the timed repetitions stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// After about this many seconds, and at least one repetition of
    /// every replication.
    Seconds(f64),
    /// After exactly this many repetitions of every replication.
    Reps(u32),
}

/// Runs timed repetitions round-robin over `replications` until
/// `budget` is spent, checking that each reproduces its replication's
/// reference bit for bit: same seed, same simulated statistics.
///
/// # Errors
/// Propagates the first error the program returns.
pub fn timed(
    workload: &Workload,
    replications: &mut [Replication],
    budget: Budget,
    ops: &mut Ops,
) -> Result<(), Error> {
    if replications.is_empty() {
        return Ok(());
    }
    let started = Instant::now();
    let mut last = 0.0;
    let mut done = 0usize;
    loop {
        let enough = match budget {
            Budget::Reps(n) => done >= n as usize * replications.len(),
            // stop where one more repetition would overshoot the budget
            // by more than it undershoots now
            Budget::Seconds(s) => {
                done >= replications.len() && started.elapsed().as_secs_f64() + last / 2.0 >= s
            }
        };
        if enough {
            return Ok(());
        }
        let Some(replication) = replications.get_mut(done % replications.len()) else {
            return Ok(());
        };
        let rep = repetition(&replication.configs, exec_of(workload))?;
        ops.ran("timed", &rep);
        match &replication.reference {
            Some(reference) => ops.same_snapshots("timed", &rep, reference),
            None => replication.reference = Some(rep.clone()),
        }
        last = rep.wall_s;
        replication.samples.push(rep);
        done += 1;
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
/// Fails where `/proc/self/status` does not exist or has no `VmHWM`.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_every_query_of_its_run() {
        let mut ops = Ops {
            attempted: 10,
            ..Ops::default()
        };
        assert!(ops.correct());
        ops.fail_run(4, "snapshots differ".to_owned());
        assert!(!ops.correct());
        assert_eq!((ops.failed, ops.problems.len()), (4, 1));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
