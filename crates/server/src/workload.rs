//! The server update-transaction workload of §5.1.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bpush_types::zipf::AccessPattern;
use bpush_types::{BpushError, Cycle, ItemId, ServerConfig, TxnId};

use crate::txn::ServerTxn;

/// A source of per-cycle server update transactions.
///
/// The default is the Zipf [`WorkloadGenerator`] of §5.1; tests and
/// applications can inject exact update sequences with
/// [`ScriptedWorkload`], or implement the trait for replayed traces.
pub trait WorkloadSource: std::fmt::Debug + Send {
    /// The transactions committed during `cycle`, in serial order. Ids
    /// must be `TxnId::new(cycle, 0..n)` and every transaction must read
    /// what it writes.
    fn generate_cycle(&mut self, cycle: Cycle) -> Vec<ServerTxn>;
}

/// Replays a fixed per-cycle script of update transactions; cycles beyond
/// the script commit nothing. Each scripted transaction writes (and
/// reads) exactly the listed items, so the server's resulting
/// [`crate::WriteHistory`] is a deterministic function of the script —
/// the construction the `bpush-mc` model checker enumerates over.
///
/// # Example
/// ```
/// use bpush_server::{ScriptedWorkload, WorkloadSource};
/// use bpush_types::{Cycle, ItemId};
///
/// // One transaction per cycle:
/// let mut w = ScriptedWorkload::new(vec![
///     vec![ItemId::new(1), ItemId::new(2)],
///     vec![],
///     vec![ItemId::new(1)],
/// ]);
/// assert_eq!(w.generate_cycle(Cycle::new(0)).len(), 1);
/// assert!(w.generate_cycle(Cycle::new(1)).is_empty());
/// assert_eq!(w.generate_cycle(Cycle::new(2))[0].writes().len(), 1);
/// assert!(w.generate_cycle(Cycle::new(3)).is_empty(), "script exhausted");
///
/// // Several transactions per cycle, in serial order:
/// let mut w = ScriptedWorkload::with_transactions(vec![vec![
///     vec![ItemId::new(1)],
///     vec![ItemId::new(2), ItemId::new(3)],
/// ]]);
/// let txns = w.generate_cycle(Cycle::new(0));
/// assert_eq!(txns.len(), 2);
/// assert_eq!(txns[1].writes().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedWorkload {
    /// Per cycle, the write sets of that cycle's transactions in serial
    /// order (empty write sets are dropped).
    script: Vec<Vec<Vec<ItemId>>>,
}

impl ScriptedWorkload {
    /// Creates the workload from per-cycle update sets, one transaction
    /// per non-empty cycle.
    pub fn new(script: Vec<Vec<ItemId>>) -> Self {
        ScriptedWorkload::with_transactions(script.into_iter().map(|w| vec![w]).collect())
    }

    /// Creates the workload from per-cycle *transaction* scripts: for
    /// each cycle, the write sets of the transactions committed during
    /// it, in serial order. Empty write sets are skipped so transaction
    /// sequence numbers stay contiguous from 0 as the
    /// [`WorkloadSource`] contract requires.
    pub fn with_transactions(script: Vec<Vec<Vec<ItemId>>>) -> Self {
        let script = script
            .into_iter()
            .map(|txns| txns.into_iter().filter(|w| !w.is_empty()).collect())
            .collect();
        ScriptedWorkload { script }
    }

    /// Number of scripted cycles.
    pub fn len(&self) -> usize {
        self.script.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.script.is_empty()
    }
}

impl WorkloadSource for ScriptedWorkload {
    fn generate_cycle(&mut self, cycle: Cycle) -> Vec<ServerTxn> {
        let Ok(idx) = usize::try_from(cycle.number()) else {
            return Vec::new();
        };
        let txns = match self.script.get(idx) {
            Some(t) => t,
            None => return Vec::new(),
        };
        txns.iter()
            .zip(0u32..)
            .map(|(writes, seq)| {
                ServerTxn::new(TxnId::new(cycle, seq), writes.clone(), writes.clone())
            })
            .collect()
    }
}

/// Generates the per-cycle server transactions: `N` transactions that
/// together update `U` *distinct* items per cycle, each transaction
/// performing four reads per write, with both patterns Zipf(θ)-skewed.
/// The write pattern is shifted by the configured offset against the
/// (zero-offset) client read pattern; server reads have zero offset with
/// the server update set, exactly as in Figure 4.
///
/// # Example
/// ```
/// use bpush_server::WorkloadGenerator;
/// use bpush_types::{Cycle, ServerConfig};
///
/// let config = ServerConfig::default();
/// let mut gen = WorkloadGenerator::new(&config, 7)?;
/// let txns = gen.generate_cycle(Cycle::new(0));
/// assert_eq!(txns.len(), 10);
/// let updates: usize = txns.iter().map(|t| t.writes().len()).sum();
/// assert_eq!(updates, 50);
/// # Ok::<(), bpush_types::BpushError>(())
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    write_pattern: AccessPattern,
    read_pattern: AccessPattern,
    txns_per_cycle: u32,
    updates_per_cycle: u32,
    rng: StdRng,
}

/// Extra server reads per write (§5.1: reads four times more frequent).
const READS_PER_WRITE: usize = 4;

impl WorkloadGenerator {
    /// Builds the generator from the server configuration.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the configuration is
    /// invalid (see [`ServerConfig::validate`]).
    pub fn new(config: &ServerConfig, seed: u64) -> Result<Self, BpushError> {
        config.validate()?;
        // Writes: Zipf over the update range, shifted by the offset that
        // models disagreement with the client pattern.
        let write_pattern = AccessPattern::new(config.update_range, config.theta, config.offset)?;
        // Server reads: Zipf over the (wider) server read range with zero
        // offset relative to the update set, i.e. the same shift.
        let read_pattern =
            AccessPattern::new(config.server_read_range, config.theta, config.offset)?;
        Ok(WorkloadGenerator {
            write_pattern,
            read_pattern,
            txns_per_cycle: config.txns_per_cycle,
            updates_per_cycle: config.updates_per_cycle,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The write access pattern in use.
    pub fn write_pattern(&self) -> &AccessPattern {
        &self.write_pattern
    }

    /// Generates the transactions committed during `cycle`, in serial
    /// order.
    pub fn generate_cycle(&mut self, cycle: Cycle) -> Vec<ServerTxn> {
        // Draw the cycle's distinct update set, hottest-biased.
        let updates = self
            .write_pattern
            .sample_distinct(&mut self.rng, self.updates_per_cycle as usize);

        // Partition it among the N transactions round-robin so every
        // transaction gets ⌈U/N⌉ or ⌊U/N⌋ writes.
        let mut txns = Vec::with_capacity(self.txns_per_cycle as usize);
        for seq in 0..self.txns_per_cycle {
            let writes: Vec<ItemId> = updates
                .iter()
                .copied()
                .skip(seq as usize)
                .step_by(self.txns_per_cycle as usize)
                .collect();
            // Reads: the writes (read-before-write) plus 4 extra reads per
            // write from the server read pattern.
            let extra_reads = writes.len() * READS_PER_WRITE;
            let mut reads = writes.clone();
            for _ in 0..extra_reads {
                reads.push(self.read_pattern.sample(&mut self.rng));
            }
            txns.push(ServerTxn::new(TxnId::new(cycle, seq), reads, writes));
        }
        txns
    }
}

impl WorkloadSource for WorkloadGenerator {
    fn generate_cycle(&mut self, cycle: Cycle) -> Vec<ServerTxn> {
        WorkloadGenerator::generate_cycle(self, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn config() -> ServerConfig {
        ServerConfig::default()
    }

    #[test]
    fn cycle_updates_are_distinct_and_budgeted() {
        let mut gen = WorkloadGenerator::new(&config(), 1).unwrap();
        for c in 0..5 {
            let txns = gen.generate_cycle(Cycle::new(c));
            assert_eq!(txns.len(), 10);
            let all_writes: Vec<ItemId> = txns
                .iter()
                .flat_map(|t| t.writes().iter().copied())
                .collect();
            assert_eq!(all_writes.len(), 50);
            let distinct: HashSet<_> = all_writes.iter().collect();
            assert_eq!(distinct.len(), 50, "updates are distinct within a cycle");
        }
    }

    #[test]
    fn writes_stay_in_update_range() {
        let mut gen = WorkloadGenerator::new(&config(), 2).unwrap();
        let txns = gen.generate_cycle(Cycle::ZERO);
        for t in &txns {
            for w in t.writes() {
                assert!(w.index() < 500, "update range is 500");
            }
        }
    }

    #[test]
    fn reads_are_four_times_writes() {
        let mut gen = WorkloadGenerator::new(&config(), 3).unwrap();
        let txns = gen.generate_cycle(Cycle::ZERO);
        for t in &txns {
            assert_eq!(t.reads().len(), t.writes().len() * 5, "writes + 4x reads");
        }
    }

    #[test]
    fn serial_order_ids() {
        let mut gen = WorkloadGenerator::new(&config(), 4).unwrap();
        let txns = gen.generate_cycle(Cycle::new(7));
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.id(), TxnId::new(Cycle::new(7), i as u32));
        }
    }

    #[test]
    fn offset_shifts_write_hot_spot() {
        let cfg_hot = ServerConfig {
            offset: 0,
            ..config()
        };
        let cfg_shifted = ServerConfig {
            offset: 250,
            ..config()
        };
        let count_low = |cfg: &ServerConfig| -> usize {
            let mut gen = WorkloadGenerator::new(cfg, 5).unwrap();
            (0..20)
                .flat_map(|c| gen.generate_cycle(Cycle::new(c)))
                .flat_map(|t| t.writes().to_vec())
                .filter(|w| w.index() < 50)
                .count()
        };
        assert!(
            count_low(&cfg_hot) > 3 * count_low(&cfg_shifted),
            "zero offset concentrates updates on the client-hot low items"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGenerator::new(&config(), 9).unwrap();
        let mut b = WorkloadGenerator::new(&config(), 9).unwrap();
        assert_eq!(a.generate_cycle(Cycle::ZERO), b.generate_cycle(Cycle::ZERO));
    }

    #[test]
    fn scripted_multi_txn_cycles_keep_serial_order() {
        let x = ItemId::new;
        let mut w = ScriptedWorkload::with_transactions(vec![
            vec![vec![x(0)], vec![], vec![x(1), x(2)]],
            vec![],
            vec![vec![x(0)]],
        ]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        let c0 = w.generate_cycle(Cycle::ZERO);
        assert_eq!(c0.len(), 2, "empty write sets are dropped");
        assert_eq!(c0[0].id(), TxnId::new(Cycle::ZERO, 0));
        assert_eq!(c0[1].id(), TxnId::new(Cycle::ZERO, 1));
        assert_eq!(c0[1].writes(), &[x(1), x(2)]);
        assert_eq!(c0[1].reads(), c0[1].writes(), "txns read what they write");
        assert!(w.generate_cycle(Cycle::new(1)).is_empty());
        assert_eq!(w.generate_cycle(Cycle::new(2)).len(), 1);
        assert!(w.generate_cycle(Cycle::new(9)).is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = ServerConfig {
            update_range: 0,
            ..config()
        };
        assert!(WorkloadGenerator::new(&bad, 0).is_err());
    }
}
