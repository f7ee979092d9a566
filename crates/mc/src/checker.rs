//! Exhaustive enumeration of the bounded execution space.

use std::collections::BTreeSet;

use bpush_core::validator::{ConsistencyViolation, SerializabilityBatch};
use bpush_types::{BpushError, Cycle, ItemId};

use crate::exec::{monitors_for_spec, run_client_obs, run_schedule, ClientChoices, FeedMode};
use crate::ground::GroundTruth;
use crate::minimize::minimize;
use crate::schedule::{ReadSpec, Schedule};
use crate::scope::Scope;
use crate::spec::ProtocolSpec;
use crate::{fnv64, fnv64_fold, FNV64_OFFSET};

/// A minimized, replayable counterexample.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// The minimized schedule; serialize with [`Schedule::render`].
    pub schedule: Schedule,
    /// The witness pair from re-running the minimized schedule.
    pub witness: ConsistencyViolation,
}

/// What exhaustive checking of one protocol found.
#[derive(Debug, Clone)]
pub struct McReport {
    /// The protocol checked.
    pub spec: ProtocolSpec,
    /// Bounded executions run.
    pub executions: u64,
    /// Executions in which the query committed.
    pub committed: u64,
    /// Executions in which the query aborted.
    pub aborted: u64,
    /// Distinct canonical states (database version vector × protocol
    /// snapshot × query progress) encountered across all executions.
    pub distinct_states: u64,
    /// Every execution's per-cycle canonical state hashes folded, in
    /// enumeration order, into one FNV-1a digest: where
    /// `distinct_states` counts the states, this pins them.
    pub state_digest: u64,
    /// Committed readsets skipped because an identical (commit script,
    /// readset) pair had already been validated.
    pub deduped_validations: u64,
    /// The first violation found, minimized — `None` means the protocol
    /// passed the scope exhaustively.
    pub violation: Option<McViolation>,
}

impl McReport {
    /// Whether the protocol survived the scope without a violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively checks one protocol at the given scope, struct-fed and
/// untraced: [`check_spec_with`] at its defaults.
///
/// # Errors
/// Returns [`BpushError`] if the scope implies an invalid server
/// configuration.
pub fn check_spec(spec: ProtocolSpec, scope: &Scope) -> Result<McReport, BpushError> {
    check_spec_with(spec, scope, &bpush_obs::Obs::off(), FeedMode::Struct)
}

/// Exhaustively checks one protocol at the given scope: every commit
/// script × every client choice, validating each committed readset
/// against the conflict-graph criterion with one [`SerializabilityBatch`]
/// per commit script. Stops at (and minimizes) the first violation.
///
/// An enabled `obs` receives every bounded execution's per-operation
/// events (the protocol runs wrapped in the instrumentation decorator,
/// whose snapshots delegate); `FeedMode::Wire` has the protocol hear
/// wire-decoded control reports instead of in-memory structs. With a
/// faithful codec the report — executions, committed/aborted split,
/// distinct canonical states — is bit-identical across all four
/// combinations.
///
/// # Errors
/// Returns [`BpushError`] if the scope implies an invalid server
/// configuration.
pub fn check_spec_with(
    spec: ProtocolSpec,
    scope: &Scope,
    obs: &bpush_obs::Obs,
    feed: FeedMode,
) -> Result<McReport, BpushError> {
    let scripts = commit_scripts(scope);
    let choices = client_choices(scope, spec.uses_cache());
    let mut report = McReport {
        spec,
        executions: 0,
        committed: 0,
        aborted: 0,
        distinct_states: 0,
        state_digest: FNV64_OFFSET,
        deduped_validations: 0,
        violation: None,
    };
    let mut states: BTreeSet<u64> = BTreeSet::new();
    let mut validated: BTreeSet<u64> = BTreeSet::new();
    'scripts: for script in &scripts {
        let gt = GroundTruth::build(
            spec,
            scope.items,
            scope.versions_retained,
            scope.cycles,
            script,
        )?;
        let mut batch = SerializabilityBatch::new(gt.server.history(), gt.server.conflict_graph());
        for choice in &choices {
            let exec = run_client_obs(spec, choice, &gt, obs, feed);
            report.executions += 1;
            states.extend(exec.state_hashes.iter().copied());
            report.state_digest = exec
                .state_hashes
                .iter()
                .fold(report.state_digest, |h, &s| fnv64_fold(h, s));
            if !exec.committed {
                report.aborted += 1;
                continue;
            }
            report.committed += 1;
            let key = fnv64(&format!("{script:?}|{:?}", exec.reads));
            if !validated.insert(key) {
                report.deduped_validations += 1;
                continue;
            }
            if let Err(found) = batch.check(&exec.reads) {
                let schedule = Schedule {
                    items: scope.items,
                    versions: scope.versions_retained,
                    cycles: scope.cycles,
                    commits: script.clone(),
                    missed: choice.missed.clone(),
                    begin: choice.begin,
                    reads: choice.reads.clone(),
                };
                let minimized = minimize(spec, &schedule)?;
                let witness = run_schedule(spec, &minimized)?.violation.unwrap_or(found);
                report.violation = Some(McViolation {
                    schedule: minimized,
                    witness,
                });
                break 'scripts;
            }
        }
    }
    report.distinct_states = states.len() as u64;
    Ok(report)
}

/// The outcome of a per-execution differential audit of the online
/// monitors against the checker's exhaustive ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorAudit {
    /// Bounded executions audited.
    pub executions: u64,
    /// Executions in which the query committed.
    pub committed: u64,
    /// Executions the monitors flagged (any violation retained or
    /// dropped).
    pub flagged: u64,
    /// Committed executions whose readset failed serializability — the
    /// checker's ground-truth notion of an invalid execution.
    pub invalid: u64,
    /// Ground-truth-invalid executions the monitors stayed silent on:
    /// missed detections. Zero is the oracle claim.
    pub invalid_unflagged: u64,
    /// Executions whose monitored replay diverged from the bare replay
    /// in fate, readset, or canonical per-cycle state hashes — the
    /// monitors must be observers, never participants. Zero always.
    pub perturbed: u64,
}

/// Runs every bounded execution of `spec` at `scope` twice — bare, then
/// with a fresh single-lane monitor engine attached — and scores the
/// monitors against the checker's ground truth: valid executions must
/// pass, ground-truth violations must be flagged, and attaching the
/// monitors must not perturb the replay (bit-identical fates, readsets
/// and canonical state hashes). Unlike [`check_spec`], the sweep never
/// stops early, so the tallies cover the whole space.
///
/// # Errors
/// Returns [`BpushError`] if the scope implies an invalid server
/// configuration.
pub fn audit_monitors(spec: ProtocolSpec, scope: &Scope) -> Result<MonitorAudit, BpushError> {
    let scripts = commit_scripts(scope);
    let choices = client_choices(scope, spec.uses_cache());
    let mut audit = MonitorAudit::default();
    for script in &scripts {
        let gt = GroundTruth::build(
            spec,
            scope.items,
            scope.versions_retained,
            scope.cycles,
            script,
        )?;
        let mut batch = SerializabilityBatch::new(gt.server.history(), gt.server.conflict_graph());
        for choice in &choices {
            let bare = run_client_obs(spec, choice, &gt, &bpush_obs::Obs::off(), FeedMode::Struct);
            let monitors = monitors_for_spec(spec);
            let obs = bpush_obs::Obs::off().with_monitors(monitors.clone());
            let watched = run_client_obs(spec, choice, &gt, &obs, FeedMode::Struct);
            audit.executions += 1;
            if watched.committed != bare.committed
                || watched.abort != bare.abort
                || watched.reads != bare.reads
                || watched.state_hashes != bare.state_hashes
            {
                audit.perturbed += 1;
            }
            let flagged = !monitors.verdict().pass();
            if flagged {
                audit.flagged += 1;
            }
            if watched.committed {
                audit.committed += 1;
                if batch.check(&watched.reads).is_err() {
                    audit.invalid += 1;
                    if !flagged {
                        audit.invalid_unflagged += 1;
                    }
                }
            }
        }
    }
    Ok(audit)
}

/// Checks every genuine protocol at the given scope.
///
/// # Errors
/// Returns [`BpushError`] if the scope implies an invalid server
/// configuration.
pub fn check_all(scope: &Scope) -> Result<Vec<McReport>, BpushError> {
    ProtocolSpec::genuine()
        .into_iter()
        .map(|spec| check_spec(spec, scope))
        .collect()
}

/// Every commit script: for each of the first `cycles − 1` cycles, an
/// ordered sequence of up to `max_txns_per_cycle` transactions drawn
/// (with repetition) from the scope's write sets.
fn commit_scripts(scope: &Scope) -> Vec<Vec<Vec<Vec<ItemId>>>> {
    let write_sets = scope.write_sets();
    let per_cycle = txn_sequences(&write_sets, scope.max_txns_per_cycle);
    let commit_cycles = usize::try_from(scope.cycles.saturating_sub(1)).unwrap_or(usize::MAX);
    let mut scripts: Vec<Vec<Vec<Vec<ItemId>>>> = vec![Vec::new()];
    for _ in 0..commit_cycles {
        let mut next = Vec::with_capacity(scripts.len() * per_cycle.len());
        for script in &scripts {
            for seq in &per_cycle {
                let mut s = script.clone();
                s.push(seq.clone());
                next.push(s);
            }
        }
        scripts = next;
    }
    scripts
}

/// Ordered sequences of length `0..=max_len` over `write_sets`, with
/// repetition, shortest first.
fn txn_sequences(write_sets: &[Vec<ItemId>], max_len: usize) -> Vec<Vec<Vec<ItemId>>> {
    let mut out: Vec<Vec<Vec<ItemId>>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Vec<ItemId>>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * write_sets.len());
        for seq in &frontier {
            for ws in write_sets {
                let mut s = seq.clone();
                s.push(ws.clone());
                next.push(s);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// Every client choice within the scope: begin cycle × missed-cycle
/// subsets (after begin) × non-decreasing read placements over heard
/// cycles × ordered tuples of distinct items × cache-hit choices.
fn client_choices(scope: &Scope, uses_cache: bool) -> Vec<ClientChoices> {
    let mut out = Vec::new();
    let flags = cache_flag_vectors(scope.reads_per_query, uses_cache);
    for begin in 0..scope.cycles {
        for missed in missed_subsets(scope, begin) {
            let heard: Vec<Cycle> = (begin..scope.cycles)
                .map(Cycle::new)
                .filter(|c| !missed.contains(c))
                .collect();
            for placement in nondecreasing_sequences(&heard, scope.reads_per_query) {
                for items in distinct_item_tuples(scope.items, scope.reads_per_query) {
                    for flag in &flags {
                        let reads: Vec<ReadSpec> = items
                            .iter()
                            .zip(&placement)
                            .zip(flag)
                            .map(|((&item, &cycle), &from_cache)| ReadSpec {
                                item,
                                cycle,
                                from_cache,
                            })
                            .collect();
                        out.push(ClientChoices {
                            begin: Cycle::new(begin),
                            missed: missed.clone(),
                            reads,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Ascending subsets of the cycles strictly after `begin`, of size at
/// most `max_missed_cycles`.
fn missed_subsets(scope: &Scope, begin: u64) -> Vec<Vec<Cycle>> {
    let candidates: Vec<Cycle> = (begin + 1..scope.cycles).map(Cycle::new).collect();
    let n = candidates.len().min(16);
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << n) {
        if mask.count_ones() as usize > scope.max_missed_cycles {
            continue;
        }
        out.push(
            (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| candidates[i])
                .collect(),
        );
    }
    out.sort();
    out
}

/// Non-decreasing sequences of length `len` over the (sorted) `heard`
/// cycles.
fn nondecreasing_sequences(heard: &[Cycle], len: usize) -> Vec<Vec<Cycle>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(len);
    fn recurse(
        heard: &[Cycle],
        len: usize,
        start: usize,
        current: &mut Vec<Cycle>,
        out: &mut Vec<Vec<Cycle>>,
    ) {
        if current.len() == len {
            out.push(current.clone());
            return;
        }
        for i in start..heard.len() {
            current.push(heard[i]);
            recurse(heard, len, i, current, out);
            current.pop();
        }
    }
    recurse(heard, len, 0, &mut current, &mut out);
    out
}

/// Ordered tuples of `len` distinct items from `0..items`.
fn distinct_item_tuples(items: u32, len: usize) -> Vec<Vec<ItemId>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(len);
    let mut used = vec![false; items as usize];
    fn recurse(
        items: u32,
        len: usize,
        used: &mut Vec<bool>,
        current: &mut Vec<ItemId>,
        out: &mut Vec<Vec<ItemId>>,
    ) {
        if current.len() == len {
            out.push(current.clone());
            return;
        }
        for i in 0..items {
            if used[i as usize] {
                continue;
            }
            used[i as usize] = true;
            current.push(ItemId::new(i));
            recurse(items, len, used, current, out);
            current.pop();
            used[i as usize] = false;
        }
    }
    recurse(items, len, &mut used, &mut current, &mut out);
    out
}

/// All boolean vectors of length `len` when the method caches (air-only
/// otherwise).
fn cache_flag_vectors(len: usize, uses_cache: bool) -> Vec<Vec<bool>> {
    if !uses_cache {
        return vec![vec![false; len]];
    }
    let n = len.min(16);
    (0u32..(1u32 << n))
        .map(|mask| (0..n).map(|i| mask & (1 << i) != 0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_sizes_match_the_ci_scope() {
        let scope = Scope::ci();
        assert_eq!(commit_scripts(&scope).len(), 4, "∅, {{0}}, {{1}}, {{0,1}}");
        assert_eq!(client_choices(&scope, false).len(), 8);
        assert_eq!(client_choices(&scope, true).len(), 32);
    }

    #[test]
    fn broken_fixture_is_caught_and_minimized_at_ci_scope() {
        let report = check_spec(ProtocolSpec::BrokenInvalidation, &Scope::ci()).unwrap();
        let v = report.violation.expect("the seeded bug must be found");
        assert_eq!(v.schedule.commits.len(), 1, "one commit cycle");
        assert_eq!(v.schedule.commits[0].len(), 1, "one transaction");
        assert_eq!(v.schedule.reads.len(), 2, "two reads");
        assert_eq!(v.witness.fresh_writer, v.witness.stale_overwrite);
    }

    /// The acceptance criterion for `mc --scope ci` under tracing: the
    /// report's statistics — executions, committed/aborted split,
    /// distinct canonical states, dedup count — must be bit-identical
    /// with instrumentation enabled, and the event-derived counters
    /// must reconcile with the report exactly.
    #[test]
    fn ci_scope_stats_are_bit_identical_under_tracing() {
        for spec in [
            ProtocolSpec::Genuine(bpush_core::Method::InvalidationOnly),
            ProtocolSpec::Genuine(bpush_core::Method::Sgt),
        ] {
            let bare = check_spec(spec, &Scope::ci()).unwrap();
            let obs = bpush_obs::Obs::recording(1 << 12);
            let traced = check_spec_with(spec, &Scope::ci(), &obs, FeedMode::Struct).unwrap();

            assert_eq!(bare.executions, traced.executions, "{spec}");
            assert_eq!(bare.committed, traced.committed, "{spec}");
            assert_eq!(bare.aborted, traced.aborted, "{spec}");
            assert_eq!(bare.distinct_states, traced.distinct_states, "{spec}");
            assert_eq!(
                bare.deduped_validations, traced.deduped_validations,
                "{spec}"
            );
            assert_eq!(bare.passed(), traced.passed(), "{spec}");

            let snap = obs.snapshot().expect("recording sink");
            assert_eq!(
                snap.counter("queries.committed"),
                traced.committed,
                "{spec}"
            );
            assert_eq!(snap.counter("queries.aborted"), traced.aborted, "{spec}");
        }
    }

    /// The ground-truth oracle for the online monitors: every
    /// mc-enumerated execution of every genuine protocol passes its
    /// monitors (no false positives across the exhaustive ci space),
    /// and attaching the monitors never perturbs a replay — same
    /// fates, same readsets, same canonical state hashes.
    #[test]
    fn monitors_pass_every_genuine_execution_at_ci_scope() {
        for spec in ProtocolSpec::genuine() {
            let audit = audit_monitors(spec, &Scope::ci()).unwrap();
            assert!(audit.executions >= 8, "{spec}");
            assert_eq!(
                audit.flagged, 0,
                "{spec}: monitors flagged a valid execution"
            );
            assert_eq!(audit.invalid, 0, "{spec}: a genuine method violated");
            assert_eq!(
                audit.perturbed, 0,
                "{spec}: monitors perturbed the replay (state hashes diverged)"
            );
        }
    }

    /// The detection half of the oracle: every ground-truth-invalid
    /// execution of the broken fixture is flagged by the monitors, and
    /// the monitors catch strictly more than the end-state validator
    /// (they also flag runs that accept a doomed read but happen to
    /// dodge a torn commit).
    #[test]
    fn monitors_flag_every_broken_violation_at_ci_scope() {
        let audit = audit_monitors(ProtocolSpec::BrokenInvalidation, &Scope::ci()).unwrap();
        assert!(audit.invalid > 0, "the seeded bug must produce violations");
        assert_eq!(
            audit.invalid_unflagged, 0,
            "a ground-truth violation escaped the monitors"
        );
        assert!(audit.flagged >= audit.invalid);
        assert_eq!(audit.perturbed, 0);
    }

    /// Monitored single-schedule replay agrees with the audit on the
    /// pinned boundary counterexample.
    #[test]
    fn monitored_replay_flags_the_minimized_counterexample() {
        let report = check_spec(ProtocolSpec::BrokenInvalidation, &Scope::ci()).unwrap();
        let minimized = report.violation.expect("seeded bug is found").schedule;
        let (exec, verdict) =
            crate::exec::run_schedule_monitored(ProtocolSpec::BrokenInvalidation, &minimized)
                .unwrap();
        assert!(exec.committed, "the counterexample commits");
        assert!(exec.violation.is_some(), "…a torn readset");
        assert!(!verdict.pass(), "…which the monitors flag online");
        let (exec, verdict) = crate::exec::run_schedule_monitored(
            ProtocolSpec::Genuine(bpush_core::Method::InvalidationOnly),
            &minimized,
        )
        .unwrap();
        assert!(
            !exec.committed,
            "the genuine method aborts the same schedule"
        );
        assert!(verdict.pass(), "…and its monitors stay silent");
    }

    #[test]
    fn genuine_invalidation_passes_ci_scope() {
        let report = check_spec(
            ProtocolSpec::Genuine(bpush_core::Method::InvalidationOnly),
            &Scope::ci(),
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.violation);
        assert!(report.executions >= 32);
        assert!(report.committed + report.aborted == report.executions);
        assert!(report.distinct_states > 0);
    }
}
