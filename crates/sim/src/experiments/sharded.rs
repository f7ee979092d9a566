//! The sharded-runner extension study: one large simulation's client
//! population split across worker threads
//! ([`crate::runner::run_sharded_with_workers`]), exercising the PR-8
//! determinism contract — a single shard reproduces the unsharded run
//! bit for bit, and a fixed shard layout reproduces the *same* merged
//! metrics at every worker-thread count (the merge is in shard order,
//! never completion order).

use bpush_core::Method;
use bpush_types::BpushError;

use super::{defaults, Scale};
use crate::runner::{run_sharded_with_workers, Job};
use crate::simulation::Simulation;
use crate::table::{fnum, Table};

/// Shard count used for the multi-shard rows (clamped to the client
/// population by the runner).
const SHARDS: u32 = 4;

/// Runs the invalidation-only and SGT methods through the sharded
/// runner: one shard against the unsharded reference, then a fixed
/// 4-shard layout at 1, 2, and 4 worker threads, asserting (via the
/// `identical` column) that each row reproduces its determinism
/// reference byte for byte.
///
/// # Errors
/// Propagates simulation errors, and reports a diverging row as
/// [`BpushError::InvalidConfig`] — the study doubles as a check.
pub fn run(scale: Scale) -> Result<Table, BpushError> {
    let base = defaults(scale);
    let mut table = Table::new(
        "sharded",
        "sharded deterministic runner: metrics are worker-count invariant",
        [
            "method",
            "shards",
            "workers",
            "reference",
            "aborted %",
            "latency (cycles)",
            "identical",
        ],
    );
    for method in [Method::InvalidationOnly, Method::Sgt] {
        let job = Job::new(method, base.clone());
        let plain = Simulation::new(base.clone(), method)?.run()?;
        let merged_ref = run_sharded_with_workers(&job, SHARDS, 1)?.deterministic_snapshot();
        for (shards, workers, reference) in [
            (1u32, 2usize, "unsharded run"),
            (SHARDS, 1, "4 shards, 1 worker"),
            (SHARDS, 2, "4 shards, 1 worker"),
            (SHARDS, 4, "4 shards, 1 worker"),
        ] {
            let metrics = run_sharded_with_workers(&job, shards, workers)?;
            let expected = if shards == 1 {
                plain.deterministic_snapshot()
            } else {
                merged_ref.clone()
            };
            let identical = metrics.deterministic_snapshot() == expected;
            table.push_row([
                method.name().to_owned(),
                shards.to_string(),
                workers.to_string(),
                reference.to_owned(),
                fnum(metrics.abort_pct(), 2),
                fnum(metrics.latency_cycles.mean(), 1),
                if identical { "yes" } else { "NO" }.to_owned(),
            ]);
            if !identical {
                return Err(BpushError::invalid_config(format!(
                    "sharded run diverged from its reference \
                     ({} at {shards} shards / {workers} workers)",
                    method.name()
                )));
            }
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_study_reports_identical_metrics() {
        let table = run(Scale::Quick).unwrap();
        // 2 methods x 4 rows, every row byte-identical to its reference
        assert_eq!(table.rows.len(), 8);
        assert!(table.rows.iter().all(|r| r.last().unwrap() == "yes"));
    }
}
