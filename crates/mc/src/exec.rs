//! Deterministic execution of one bounded schedule against the real
//! protocol implementations.

use bpush_broadcast::feed::roundtrip_control_with;
use bpush_core::instrument::Instrumented;
use bpush_core::validator::{ConsistencyViolation, ReadRecord, SerializabilityBatch};
use bpush_core::{
    AbortReason, Method, ProtocolStep, ReadCandidate, ReadConstraint, ReadDirective,
    ReadOnlyProtocol, ReadOutcome, Source,
};
use bpush_obs::{Actor, EventKind, MonitorConfig, MonitorVerdict, Monitors, Obs};
use bpush_types::{BpushError, Cycle, ItemValue, QueryId};

use crate::fnv64;
use crate::ground::GroundTruth;
use crate::schedule::{ReadSpec, Schedule};
use crate::spec::ProtocolSpec;

/// How the client under test hears its broadcast control information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedMode {
    /// In-memory [`ControlInfo`](bpush_broadcast::ControlInfo) structs,
    /// as the simulator's in-process clients historically consumed.
    #[default]
    Struct,
    /// Wire-format segments: every control report is encoded, framed,
    /// byte-buffered and decoded before the protocol sees it
    /// ([`bpush_broadcast::feed::roundtrip_control_with`]), its graph
    /// diff only when the protocol asks for it
    /// ([`ReadOnlyProtocol::needs_graph_diff`]), as a wire-fed client
    /// hears it. A faithful codec and a truthful answer make this mode
    /// bit-identical to [`FeedMode::Struct`] — same fates, same
    /// readsets, same canonical state hashes — which the conformance
    /// battery asserts for every method.
    Wire,
}

/// The outcome of replaying one bounded execution.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Whether the checked query ran to commit.
    pub committed: bool,
    /// Why the query aborted, when it did.
    pub abort: Option<AbortReason>,
    /// The committed (or partial, on abort) readset, in read order.
    pub reads: Vec<ReadRecord>,
    /// The consistency violation found in a committed readset, if any.
    /// Only populated by [`crate::run_schedule`] (the raw client runner
    /// leaves it `None`).
    pub violation: Option<ConsistencyViolation>,
    /// One canonical state hash per simulated cycle, covering the
    /// database version vector and the protocol's debug snapshot; used
    /// by the checker to count distinct explored states.
    pub state_hashes: Vec<u64>,
}

/// The client half of a bounded execution (the server half being the
/// commit script baked into [`GroundTruth`]).
#[derive(Debug, Clone)]
pub(crate) struct ClientChoices {
    pub(crate) begin: Cycle,
    pub(crate) missed: Vec<Cycle>,
    pub(crate) reads: Vec<ReadSpec>,
}

/// Runs one query through `spec`'s protocol over the scripted broadcasts,
/// feeding every interaction through the [`ProtocolStep`] replay seam so
/// the transcript is exactly what a serialized counterexample replays.
///
/// When `obs` records or carries monitors, the protocol runs wrapped in
/// the [`Instrumented`] decorator (whose `debug_snapshot` delegates, so
/// state hashes stay bit-identical to the bare run), and the query's
/// final fate goes to the monitors and, when recording, out as a
/// `QueryCommitted` / `QueryAborted` event.
pub(crate) fn run_client_obs(
    spec: ProtocolSpec,
    choices: &ClientChoices,
    gt: &GroundTruth,
    obs: &Obs,
    feed: FeedMode,
) -> Execution {
    let mut protocol: Box<dyn ReadOnlyProtocol> = if obs.is_enabled() || obs.monitors().is_some() {
        Box::new(Instrumented::with_obs(
            spec.build(),
            obs.clone(),
            Actor::Client(0),
        ))
    } else {
        spec.build()
    };
    let q = QueryId::new(0);
    let mut begun = false;
    let mut finished = false;
    let mut abort: Option<AbortReason> = None;
    let mut reads: Vec<ReadRecord> = Vec::new();
    let mut state_hashes: Vec<u64> = Vec::new();
    let mut next_read = 0usize;

    for bcast in &gt.bcasts {
        let now = bcast.cycle();
        if choices.missed.contains(&now) {
            protocol.step(&ProtocolStep::MissedCycle(now));
        } else {
            let ctrl = match feed {
                FeedMode::Struct => bcast.control().clone(),
                FeedMode::Wire => {
                    let heard =
                        roundtrip_control_with(bcast.control(), gt.wire_params, &mut |head| {
                            protocol.needs_graph_diff(head)
                        })
                        // lint: allow(panic) — divergence detector by design
                        .expect("a wire-encoded control report must decode");
                    debug_assert!(
                        heard.is_heard_of(bcast.control()),
                        "the wire changed the report"
                    );
                    heard
                }
            };
            protocol.step(&ProtocolStep::Control(ctrl));
        }
        if now == choices.begin {
            protocol.step(&ProtocolStep::BeginQuery(q, now));
            begun = true;
        }
        while begun && !finished && choices.reads.get(next_read).is_some_and(|r| r.cycle == now) {
            let r = choices.reads[next_read];
            next_read += 1;
            match protocol.read_directive(q, r.item, now) {
                ReadDirective::Doom(reason) => {
                    abort = Some(reason);
                }
                ReadDirective::Read(constraint) => {
                    match candidate_for(gt, bcast, r, constraint, spec) {
                        None => abort = Some(AbortReason::VersionUnavailable),
                        Some(candidate) => {
                            let outcome = protocol.step(&ProtocolStep::ApplyRead {
                                q,
                                item: r.item,
                                candidate,
                                now,
                            });
                            match outcome {
                                Some(ReadOutcome::Accepted) => {
                                    reads.push(ReadRecord::new(r.item, candidate.value));
                                }
                                Some(ReadOutcome::Rejected(reason)) => abort = Some(reason),
                                None => abort = Some(AbortReason::VersionUnavailable),
                            }
                        }
                    }
                }
            }
            if abort.is_some() {
                protocol.step(&ProtocolStep::FinishQuery(q));
                finished = true;
            }
        }
        state_hashes.push(fnv64(&format!(
            "{now}|{}|{}|begun={begun} abort={abort:?} reads={reads:?} next={next_read}",
            gt.version_vector(now),
            protocol.debug_snapshot(),
        )));
    }

    let committed = begun && !finished && next_read == choices.reads.len();
    if begun && !finished {
        protocol.step(&ProtocolStep::FinishQuery(q));
    }
    if begun {
        let last = gt.bcasts.last().map_or(Cycle::ZERO, |b| b.cycle());
        let aborted = (!committed).then(|| abort.unwrap_or(AbortReason::VersionUnavailable));
        if let Some(mon) = obs.monitors() {
            mon.finish(0, q.number(), last, aborted);
        }
        if obs.is_enabled() {
            let kind = match aborted {
                None => EventKind::QueryCommitted {
                    query: q.number(),
                    // The model has no slot clock; latency is whole cycles.
                    latency_slots: last.number().saturating_sub(choices.begin.number()),
                },
                Some(reason) => EventKind::QueryAborted {
                    query: q.number(),
                    reason,
                },
            };
            obs.emit(last, Actor::Client(0), kind);
        }
    }
    Execution {
        committed,
        abort,
        reads,
        violation: None,
        state_hashes,
    }
}

/// Materializes the value the modelled client offers the protocol for
/// read `r` under `constraint`.
///
/// The candidate's validity interval is *exact ground truth* —
/// `valid_from` is the value's version and `valid_until` the version of
/// its overwriter from the server's [`WriteHistory`] — rather than the
/// conservative bounds a real cache or broadcast listing would carry.
/// Exact bounds are sound in both directions: they are a superset of any
/// conservative source (every violation reachable with real bounds is
/// reachable here), and they are truthful (a protocol that accepts an
/// exactly-bounded candidate it should reject is genuinely wrong, never a
/// modelling artifact).
///
/// [`WriteHistory`]: bpush_server::WriteHistory
fn candidate_for(
    gt: &GroundTruth,
    bcast: &bpush_broadcast::Bcast,
    r: ReadSpec,
    constraint: ReadConstraint,
    spec: ProtocolSpec,
) -> Option<ReadCandidate> {
    let history = gt.server.history();
    let from_cache = r.from_cache && spec.uses_cache();
    if constraint.cache_only && !from_cache {
        return None;
    }
    let (value, cache) = if from_cache {
        // The modelled cache is ideal: it holds whichever committed value
        // was current at the constrained state (a superset of what any
        // real autoprefetch cache could hold — see the function docs).
        let value = history
            .writes_of(r.item)
            .iter()
            .rev()
            .find(|v| v.version() <= constraint.state)
            .copied()
            .unwrap_or_else(ItemValue::initial);
        (value, true)
    } else {
        let current = bcast.current(r.item)?;
        if current.value().version() <= constraint.state {
            (current.value(), false)
        } else {
            let (_, old) = bcast.best_version_at_most(r.item, constraint.state)?;
            (old, false)
        }
    };
    let valid_until = history.next_overwrite(r.item, value).map(|v| v.version());
    let still_current = valid_until.map_or(true, |w| bcast.cycle() < w);
    let source = match (cache, still_current) {
        (true, true) => Source::CacheCurrent,
        (true, false) => Source::CacheOld,
        (false, true) => Source::BroadcastCurrent,
        (false, false) => Source::BroadcastOld,
    };
    Some(ReadCandidate {
        value,
        last_writer_tag: value.writer(),
        valid_from: value.version(),
        valid_until,
        source,
    })
}

/// Replays a complete serialized [`Schedule`] struct-fed and untraced:
/// [`run_schedule_with`] at its defaults.
///
/// # Errors
/// Returns [`BpushError`] when the schedule fails validation or the
/// server configuration it implies is rejected.
pub fn run_schedule(spec: ProtocolSpec, schedule: &Schedule) -> Result<Execution, BpushError> {
    run_schedule_with(spec, schedule, &Obs::off(), FeedMode::Struct)
}

/// Replays a complete serialized [`Schedule`]: rebuilds the ground truth,
/// runs the client, and — when the query commits — checks the readset
/// against the conflict-graph criterion with a [`SerializabilityBatch`],
/// recording any violation on the returned [`Execution`].
///
/// An enabled `obs` receives the replay's per-operation events (control
/// processing, read accepts and rejects, the query's fate), from which a
/// chrome-trace or NDJSON export of the counterexample can be rendered;
/// `FeedMode::Wire` roundtrips every control report through the wire
/// codec before the protocol hears it. Neither perturbs the replay: the
/// returned [`Execution`] is bit-identical across all four combinations.
///
/// # Errors
/// Returns [`BpushError`] when the schedule fails validation or the
/// server configuration it implies is rejected.
pub fn run_schedule_with(
    spec: ProtocolSpec,
    schedule: &Schedule,
    obs: &Obs,
    feed: FeedMode,
) -> Result<Execution, BpushError> {
    schedule
        .validate()
        .map_err(|e| BpushError::invalid_config(e.to_string()))?;
    let gt = GroundTruth::build(
        spec,
        schedule.items,
        schedule.versions,
        schedule.cycles,
        &schedule.commits,
    )?;
    let choices = ClientChoices {
        begin: schedule.begin,
        missed: schedule.missed.clone(),
        reads: schedule.reads.clone(),
    };
    let mut exec = run_client_obs(spec, &choices, &gt, obs, feed);
    if exec.committed {
        exec.violation = SerializabilityBatch::new(gt.server.history(), gt.server.conflict_graph())
            .check(&exec.reads)
            .err();
    }
    Ok(exec)
}

/// Single-lane online monitors matched to `spec`'s published invariant
/// family ([`Method::monitor_policy`]): the broken fixture is audited
/// against the rules of the genuine method it corrupts.
pub fn monitors_for_spec(spec: ProtocolSpec) -> Monitors {
    let method = match spec {
        ProtocolSpec::Genuine(m) => m,
        ProtocolSpec::BrokenInvalidation => Method::InvalidationOnly,
    };
    let (policy, coverage) = method.monitor_policy();
    Monitors::new(MonitorConfig::new(1, policy, coverage))
}

/// [`run_schedule`] with fresh online monitors attached: the replay
/// feeds a single-lane monitor engine through the instrumentation
/// decorator, and the verdict comes back alongside the execution. A
/// fresh engine per replay matters — mc executions restart at cycle
/// zero, and a reused engine's graph window would refuse the replay's
/// diffs as already heard.
///
/// # Errors
/// Returns [`BpushError`] when the schedule fails validation or the
/// server configuration it implies is rejected.
pub fn run_schedule_monitored(
    spec: ProtocolSpec,
    schedule: &Schedule,
) -> Result<(Execution, MonitorVerdict), BpushError> {
    let monitors = monitors_for_spec(spec);
    let obs = Obs::off().with_monitors(monitors.clone());
    let exec = run_schedule_with(spec, schedule, &obs, FeedMode::Struct)?;
    Ok((exec, monitors.verdict()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_core::Method;
    use bpush_types::ItemId;

    fn boundary_schedule() -> Schedule {
        Schedule {
            items: 2,
            versions: 2,
            cycles: 2,
            commits: vec![vec![vec![ItemId::new(0), ItemId::new(1)]]],
            missed: Vec::new(),
            begin: Cycle::ZERO,
            reads: vec![
                ReadSpec {
                    item: ItemId::new(0),
                    cycle: Cycle::ZERO,
                    from_cache: false,
                },
                ReadSpec {
                    item: ItemId::new(1),
                    cycle: Cycle::new(1),
                    from_cache: false,
                },
            ],
        }
    }

    #[test]
    fn genuine_invalidation_aborts_the_boundary_schedule() {
        let exec = run_schedule(
            ProtocolSpec::Genuine(Method::InvalidationOnly),
            &boundary_schedule(),
        )
        .unwrap();
        assert!(!exec.committed);
        assert_eq!(exec.abort, Some(AbortReason::Invalidated));
        assert!(exec.violation.is_none());
    }

    #[test]
    fn broken_invalidation_commits_a_torn_readset() {
        let exec = run_schedule(ProtocolSpec::BrokenInvalidation, &boundary_schedule()).unwrap();
        assert!(
            exec.committed,
            "the seeded bug lets the torn readset commit"
        );
        let v = exec
            .violation
            .expect("torn readset must violate serializability");
        assert_eq!(
            v.fresh_writer, v.stale_overwrite,
            "one txn plays both roles"
        );
        assert_eq!(exec.reads.len(), 2);
        assert_eq!(exec.state_hashes.len(), 2);
    }

    /// Instrumentation transparency at the model-checker level: the
    /// traced replay must be bit-identical to the bare replay — same
    /// fate, same readset, same per-cycle state hashes — and the
    /// counters the trace derives must reconcile with the [`Execution`].
    #[test]
    fn traced_replay_is_bit_identical_and_reconciles() {
        for spec in ProtocolSpec::genuine() {
            let bare = run_schedule(spec, &boundary_schedule()).unwrap();
            let obs = Obs::recording(1 << 12);
            let traced =
                run_schedule_with(spec, &boundary_schedule(), &obs, FeedMode::Struct).unwrap();

            assert_eq!(bare.committed, traced.committed, "{spec}");
            assert_eq!(bare.abort, traced.abort, "{spec}");
            assert_eq!(bare.reads, traced.reads, "{spec}");
            assert_eq!(
                bare.state_hashes, traced.state_hashes,
                "{spec}: instrumentation perturbed the canonical state hashes"
            );

            let snap = obs.snapshot().expect("recording sink");
            assert_eq!(
                snap.counter("queries.committed"),
                u64::from(traced.committed),
                "{spec}"
            );
            assert_eq!(
                snap.counter("queries.aborted"),
                u64::from(!traced.committed),
                "{spec}"
            );
            assert_eq!(
                snap.counter("reads.accepted"),
                traced.reads.len() as u64,
                "{spec}"
            );
        }
    }

    #[test]
    fn quiet_schedule_commits_cleanly_everywhere() {
        let schedule = Schedule {
            commits: Vec::new(),
            ..boundary_schedule()
        };
        for spec in ProtocolSpec::genuine() {
            let exec = run_schedule(spec, &schedule).unwrap();
            assert!(exec.committed, "{spec}: nothing changed, nothing can abort");
            assert!(exec.violation.is_none(), "{spec}");
        }
    }
}
