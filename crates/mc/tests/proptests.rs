//! Property cross-check between the model-checking executor and the
//! serializability validator: for random bounded schedules, the verdict
//! `run_schedule` reports must agree with a validator built against an
//! *independently reconstructed* server — and committed executions of
//! genuine methods must never violate.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]

use bpush_core::validator::{SerializabilityBatch, SerializabilityValidator};
use bpush_mc::{run_schedule, run_schedule_monitored, ProtocolSpec, ReadSpec, Schedule};
use bpush_server::{BroadcastServer, ScriptedWorkload};
use bpush_types::{Cycle, ItemId, ServerConfig};
use proptest::prelude::*;

const ITEMS: u32 = 3;
const CYCLES: u64 = 3;
const VERSIONS: u32 = 2;

/// Builds a schedule that satisfies `Schedule::validate` by
/// construction: commits land in cycles `0..CYCLES-1`, the query begins
/// at cycle 0, hears every cycle, and reads distinct items at
/// non-decreasing cycles.
fn build_schedule(raw_commits: &[(u8, u8)], raw_reads: &[(u8, u8, bool)]) -> Schedule {
    let mut commits: Vec<Vec<Vec<ItemId>>> = Vec::new();
    for &(cycle, mask) in raw_commits {
        let cycle = usize::from(cycle) % usize::try_from(CYCLES - 1).unwrap();
        let writes: Vec<ItemId> = (0..ITEMS)
            .filter(|i| mask >> i & 1 == 1)
            .map(ItemId::new)
            .collect();
        if writes.is_empty() {
            continue;
        }
        if commits.len() <= cycle {
            commits.resize(cycle + 1, Vec::new());
        }
        commits[cycle].push(writes);
    }

    let mut reads: Vec<ReadSpec> = Vec::new();
    let mut cycles: Vec<u64> = raw_reads
        .iter()
        .map(|&(_, c, _)| u64::from(c) % CYCLES)
        .collect();
    cycles.sort_unstable();
    for (&(item, _, from_cache), &cycle) in raw_reads.iter().zip(&cycles) {
        let item = ItemId::new(u32::from(item) % ITEMS);
        if reads.iter().any(|r| r.item == item) {
            continue;
        }
        reads.push(ReadSpec {
            item,
            cycle: Cycle::new(cycle),
            from_cache,
        });
    }

    Schedule {
        items: ITEMS,
        versions: VERSIONS,
        cycles: CYCLES,
        commits,
        missed: Vec::new(),
        begin: Cycle::ZERO,
        reads,
    }
}

/// Replays the schedule's commit script through a second, independently
/// constructed server (same path `GroundTruth` uses internally, but
/// built here from first principles) and returns it after `CYCLES`
/// cycles.
fn independent_server(spec: ProtocolSpec, schedule: &Schedule) -> BroadcastServer {
    let config = ServerConfig {
        broadcast_size: ITEMS,
        update_range: ITEMS,
        server_read_range: ITEMS,
        theta: 0.5,
        offset: 0,
        txns_per_cycle: 1,
        updates_per_cycle: 1,
        versions_retained: VERSIONS,
        report_window: 1,
        ..ServerConfig::default()
    };
    let mut script = schedule.commits.clone();
    script.resize(usize::try_from(CYCLES).unwrap(), Vec::new());
    let mut server = BroadcastServer::new(config, spec.server_options(), 0)
        .unwrap()
        .with_workload(Box::new(ScriptedWorkload::with_transactions(script)));
    for _ in 0..CYCLES {
        server.run_cycle();
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The executor's verdict agrees with a validator over the
    /// independently rebuilt history: the reported violation is `Some`
    /// exactly when the graph check rejects the committed readset (and
    /// the interval check agrees — the scripted server commits
    /// serially, so prefix-consistency and graph-serializability
    /// coincide).
    #[test]
    fn executor_and_validator_agree(
        spec_pick in 0usize..8,
        raw_commits in proptest::collection::vec((0u8..4, 0u8..8), 0..4),
        raw_reads in proptest::collection::vec((0u8..8, 0u8..4, proptest::bool::ANY), 1..4),
    ) {
        let spec = ProtocolSpec::genuine()[spec_pick % ProtocolSpec::genuine().len()];
        let schedule = build_schedule(&raw_commits, &raw_reads);
        let exec = run_schedule(spec, &schedule).unwrap();

        if !exec.committed {
            prop_assert!(
                exec.violation.is_none(),
                "aborted executions are never validated"
            );
            return Ok(());
        }
        prop_assert_eq!(exec.reads.len(), schedule.reads.len());

        let server = independent_server(spec, &schedule);
        let graph_verdict = SerializabilityBatch::new(server.history(), server.conflict_graph())
            .check(&exec.reads)
            .err();
        prop_assert_eq!(
            exec.violation.is_none(),
            graph_verdict.is_none(),
            "executor verdict {:?} disagrees with independent validator {:?} for {:?}",
            &exec.violation, &graph_verdict, &schedule
        );
        prop_assert_eq!(
            SerializabilityValidator::new(server.history()).check(&exec.reads).is_ok(),
            graph_verdict.is_none(),
            "interval and graph checks split on {:?}",
            &exec.reads
        );
    }

    /// Soundness of the genuine methods at random points of the bounded
    /// space: whatever a genuine protocol lets commit is serializable.
    /// (The exhaustive sweep in `cargo xtask mc` proves this for the
    /// whole space; this pins the same invariant into `cargo test`.)
    #[test]
    fn genuine_commits_are_serializable(
        spec_pick in 0usize..8,
        raw_commits in proptest::collection::vec((0u8..4, 0u8..8), 0..4),
        raw_reads in proptest::collection::vec((0u8..8, 0u8..4, proptest::bool::ANY), 1..4),
    ) {
        let spec = ProtocolSpec::genuine()[spec_pick % ProtocolSpec::genuine().len()];
        let schedule = build_schedule(&raw_commits, &raw_reads);
        let exec = run_schedule(spec, &schedule).unwrap();
        if exec.committed {
            prop_assert!(
                exec.violation.is_none(),
                "{} committed a non-serializable readset under {:?}: {:?}",
                spec, &schedule, &exec.violation
            );
        }
    }

    /// Differential check of the online monitors against the executor's
    /// ground truth at random points of the bounded space: genuine
    /// methods never trip their monitors, the monitored replay is
    /// bit-identical to the bare one, and every non-serializable commit
    /// of the broken fixture is flagged online.
    #[test]
    fn monitors_agree_with_the_executor(
        spec_pick in 0usize..8,
        raw_commits in proptest::collection::vec((0u8..4, 0u8..8), 0..4),
        raw_reads in proptest::collection::vec((0u8..8, 0u8..4, proptest::bool::ANY), 1..4),
    ) {
        let schedule = build_schedule(&raw_commits, &raw_reads);

        let spec = ProtocolSpec::genuine()[spec_pick % ProtocolSpec::genuine().len()];
        let bare = run_schedule(spec, &schedule).unwrap();
        let (watched, verdict) = run_schedule_monitored(spec, &schedule).unwrap();
        prop_assert_eq!(bare.committed, watched.committed, "{}", spec);
        prop_assert_eq!(bare.abort, watched.abort, "{}", spec);
        prop_assert_eq!(&bare.reads, &watched.reads, "{}", spec);
        prop_assert_eq!(
            &bare.state_hashes, &watched.state_hashes,
            "{}: monitors perturbed the canonical state hashes", spec
        );
        prop_assert!(
            verdict.pass(),
            "{} tripped its monitors on a valid execution under {:?}:\n{}",
            spec, &schedule, verdict.render()
        );

        let (broken, verdict) =
            run_schedule_monitored(ProtocolSpec::BrokenInvalidation, &schedule).unwrap();
        if broken.committed && broken.violation.is_some() {
            prop_assert!(
                !verdict.pass(),
                "a torn commit escaped the monitors under {:?}", &schedule
            );
        }
    }
}
