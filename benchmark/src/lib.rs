//! `bpush-benchmark`: the repository's benchmark.
//!
//! The paper's thesis is that read-only transactions validate at the
//! client, so server cost is independent of the client population. This
//! benchmark says where one broadcast cycle's time and bytes go, per
//! layer and across workloads that load different layers, so that a
//! later change can state — before it is written — which number it
//! moves on which workload and which numbers it must leave alone.
//!
//! # Workloads
//!
//! Each is a batch job in a closed system: one process per workload, one
//! thread (except `fanout-sharded`), the four method families `inv-only`,
//! `multiversion`, `sgt` and `mv-caching` run back to back — so the three
//! server modes and a cached next to an uncached client are in every
//! number. The base configuration is the paper's Figure 4
//! (`paper_defaults()`); a workload changes only the fields listed.
//!
//! | name | shape | the layer it loads |
//! |---|---|---|
//! | `paper-fig4` | 8 clients × 30 queries | few clients, long history: the end-of-run audit |
//! | `fanout` | 256 clients × 8 queries | many clients, short history: client validation |
//! | `fanout-wire` | `fanout`, wire-fed | the codec: encode → frame → decode per client |
//! | `fanout-sharded` | `fanout`, 4 shards on min(cores, 4) workers | the sharded runner: every shard replays server and audit |
//! | `big-db` | D=20000, 8 × 12 | the server's per-cycle snapshot and bcast assembly |
//! | `update-storm` | D=5000, U=400, N=20, 16 × 8 | commit tracking and report building, not the snapshot |
//!
//! For each optimisation the roadmap names, one workload exercises its
//! mechanism and another bypasses it: a client change shows on `fanout`
//! and must not on `big-db`; an incremental snapshot that wins on
//! `big-db` by taxing writes shows as a loss on `update-storm`;
//! broadcast-once shows on `fanout-sharded` and nowhere else.
//!
//! # Reading the numbers
//!
//! One run of a workload pools six *replications*: the same shape under
//! `--seed` itself and five seeds derived from it. How long a simulation
//! takes depends on its seed by more than the host's noise (the update
//! stream decides how large the serialization graphs and the audit's
//! history grow), so a run reports what a user sees on average. A
//! *repetition* constructs and runs the four simulations of one
//! replication; the timed repetitions go round-robin over the
//! replications until `--seconds` are spent, and every one must reproduce
//! its replication's first bit for bit.
//!
//! End-to-end metrics are measured with tracing off. `queries_per_s` is
//! the replications' measured queries over the sum of each one's fastest
//! repetition (a replication gets two or three, and interference only
//! ever adds time), construction included: a simulation is single-use,
//! so moving work between `new` and `run` must read as neutral.
//! `setup_s` is the median, over the first three replications, of
//! building the inputs and running one untimed warm-up repetition;
//! `peak_rss_mb` is read after the first of those. `abort_pct`,
//! `latency_cycles`, `bcast_overhead_pct` and `air_bytes_per_cycle` are
//! *simulated* statistics: the same seed gives the same value on every
//! run and host, and a change meant only to make the simulator faster
//! must leave them bit-identical. An operation is one measured query; it
//! fails if it commits a readset the audit rejects or if a check on its
//! run fails. Aborts are protocol outcomes, not failures.
//!
//! Per-layer metrics come from three sources, named in `--list`: the
//! untraced repetitions (`sim.run_ms.*`, `sim.construct_ms`), one traced
//! pass ([`traced`]) and one channel pass, both on replication 0. A
//! share is a layer's self time over the traced run's root span; for one
//! method family
//! `server + client + broadcast.drop + core.audit + sim(other) = 100`.
//! Nothing contends in the single-threaded workloads, so a faster layer
//! saves at most its share. A per-layer metric that does not apply to a
//! workload (`sim.shard_*` off `fanout-sharded`, the layer shares on
//! it, which are `fanout`'s) reads 0.
//!
//! # Layout
//!
//! [`surface`] is the only module that names an item of the program
//! under test; [`workload`] and [`report`] hold the tables
//! `BENCHMARK.json` is rendered from; [`measure`], [`traced`] and
//! [`driver`] run the phases; [`metrics`], [`stats`] and [`spans`] are
//! the arithmetic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod driver;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod surface;
pub mod traced;
pub mod workload;
