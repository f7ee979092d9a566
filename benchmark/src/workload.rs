//! The workload table: what each workload feeds the program and why it
//! is in the benchmark.
//!
//! Every workload runs the same four method families
//! ([`Family::ALL`]), so the three server modes and a cached next to an
//! uncached client are always present; the workloads differ in which
//! layer their shape loads.

use crate::surface::{Config, Family, Feed, Shape};

/// How a workload's simulations are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Simulation::new(..).run()`, control reports as structures.
    Plain,
    /// The same run with every control report through the wire codec.
    Wire,
    /// `run_sharded_with_workers(job, SHARDS, W)`.
    Sharded,
}

impl Mode {
    /// How control reports reach the clients in this mode.
    pub fn feed(self) -> Feed {
        match self {
            Mode::Wire => Feed::Wire,
            Mode::Plain | Mode::Sharded => Feed::Struct,
        }
    }
}

/// Shards a [`Mode::Sharded`] workload splits its clients into.
pub const SHARDS: u32 = 4;

/// Worker threads a [`Mode::Sharded`] workload uses: the host's
/// parallelism, at most one per shard.
pub fn sharded_workers() -> usize {
    available_parallelism().min(SHARDS as usize)
}

/// `std::thread::available_parallelism`, 1 when the host will not say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: what the workload stresses and what must not move on it.
    pub why: &'static str,
    /// The configuration fields it changes from the paper's defaults.
    pub shape: Shape,
    /// How its simulations are executed.
    pub mode: Mode,
    /// Whether a traced run also measures what attaching the online
    /// monitors costs (no workload runs monitors end to end yet).
    pub guard_monitors: bool,
}

/// The paper's Figure-4 server and client parameters.
const FIG4: Shape = Shape {
    broadcast_size: 1000,
    update_range: 500,
    read_range: 500,
    offset: 100,
    updates_per_cycle: 50,
    txns_per_cycle: 10,
    clients: 8,
    queries_per_client: 30,
};

/// Many clients, short history: the paper's scalability regime.
const FANOUT: Shape = Shape {
    clients: 256,
    queries_per_client: 8,
    ..FIG4
};

/// The benchmark's workloads, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "paper-fig4",
        why: "Figure-4 parameters, 8 clients x 30 queries: few clients, long history, so the \
              end-of-run audit dominates; an audit change shows here, a client change must not",
        shape: FIG4,
        mode: Mode::Plain,
        guard_monitors: false,
    },
    Workload {
        name: "fanout",
        why: "256 clients x 8 queries: the paper's scalability regime, client validation \
              dominates; a client, validation or sgraph change shows here and not on big-db",
        shape: FANOUT,
        mode: Mode::Plain,
        guard_monitors: true,
    },
    Workload {
        name: "fanout-wire",
        why: "fanout with every control report through encode, frame and decode per client; \
              codec and decode-once-share-many work shows here and nowhere else",
        shape: FANOUT,
        mode: Mode::Wire,
        guard_monitors: false,
    },
    Workload {
        name: "fanout-sharded",
        why: "fanout split into 4 shards on min(cores, 4) workers, each shard replaying server \
              and audit; broadcast-once shows here, the single-threaded workloads must not move",
        shape: FANOUT,
        mode: Mode::Sharded,
        guard_monitors: false,
    },
    Workload {
        name: "big-db",
        why: "D=20000, 8 clients x 12 queries: the server's per-cycle snapshot and bcast assembly \
              dominate; dense Bcast vectors and incremental snapshots show here",
        shape: Shape {
            broadcast_size: 20_000,
            queries_per_client: 12,
            ..FIG4
        },
        mode: Mode::Plain,
        guard_monitors: false,
    },
    Workload {
        name: "update-storm",
        why: "D=5000, U=400, N=20, 16 clients x 8 queries: 8% of the items rewritten per cycle, \
              so commit tracking and report building dominate, not the snapshot; a big-db win \
              that taxes writes is a loss here",
        shape: Shape {
            broadcast_size: 5000,
            update_range: 2000,
            updates_per_cycle: 400,
            txns_per_cycle: 20,
            clients: 16,
            queries_per_client: 8,
            ..FIG4
        },
        mode: Mode::Plain,
        guard_monitors: false,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at the `--quick` scale (D=200, 3 clients × 4
    /// queries): every code path in under a second, for tests and debug
    /// builds. Its numbers are not comparable to the real shape's.
    #[must_use]
    pub fn quick(self) -> Self {
        Workload {
            shape: Shape {
                broadcast_size: 200,
                update_range: 100,
                read_range: 100,
                offset: 20,
                updates_per_cycle: 10,
                txns_per_cycle: 5,
                clients: 3,
                queries_per_client: 4,
            },
            ..self
        }
    }

    /// The generated inputs, one per method family, of replication
    /// number `replication` under `seed`.
    pub fn configs(&self, seed: u64, replication: u32) -> Vec<Config> {
        Family::ALL
            .into_iter()
            .map(|family| Config::new(&self.shape, family, seed, replication))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in ALL {
            assert_eq!(find(w.name), Some(w));
            assert_eq!(ALL.iter().filter(|o| o.name == w.name).count(), 1);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            // it is written into BENCHMARK.json without escaping
            assert!(!w.why.contains(['\n', '"', '\\']));
        }
        assert_eq!(find("no-such-workload"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for w in ALL {
            let inputs = |seed, replication| -> Vec<String> {
                let configs = w.configs(seed, replication);
                configs.iter().map(Config::fingerprint).collect()
            };
            assert_eq!(inputs(7, 0), inputs(7, 0), "{}", w.name);
            assert_ne!(inputs(7, 0), inputs(8, 0), "{}", w.name);
            assert_ne!(inputs(7, 0), inputs(7, 1), "{}", w.name);
            assert_ne!(inputs(7, 1), inputs(8, 1), "{}", w.name);
        }
    }

    #[test]
    fn fanout_variants_share_one_shape() {
        let shape = |name| find(name).map(|w| w.shape);
        assert_eq!(shape("fanout"), shape("fanout-wire"));
        assert_eq!(shape("fanout"), shape("fanout-sharded"));
    }
}
