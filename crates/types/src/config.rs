//! Configuration for the server, client and simulation.
//!
//! Field defaults follow the performance-model table of the paper's §5.1
//! (Figure 4). These are passive, serializable parameter records in the
//! C-struct spirit, so their fields are public; [`ServerConfig::validate`]
//! and friends enforce cross-field invariants before a simulation is
//! built.

use crate::error::BpushError;

/// Granularity at which invalidation and versioning information is kept
/// (§7, second extension).
///
/// At [`Granularity::Item`] the control information names individual data
/// items (the paper's default); at [`Granularity::Bucket`] it names whole
/// buckets, trading a smaller report for conservative aborts — a bucket
/// counts as updated when *any* of its items was updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
// bpush-lint: protocol_enum — invalidation report granularity on the wire
pub enum Granularity {
    /// Per-item control information (paper default).
    #[default]
    Item,
    /// Per-bucket control information (§7 extension; conservative).
    Bucket,
}

/// Order in which a query issues its reads (§2.2 "transaction
/// optimization").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum ReadOrder {
    /// Reads issued in the order the program generated them.
    #[default]
    AsIssued,
    /// Reads sorted by broadcast position to minimize span (§2.2).
    BroadcastOrder,
}

/// On-air organization of old versions for multiversion broadcast (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum MultiversionLayout {
    /// All versions of an item broadcast successively (Figure 2a); item
    /// positions shift, so an index must be rebuilt and read each cycle.
    Clustered,
    /// Current versions at fixed positions with pointers to old versions
    /// in overflow buckets at the end of the bcast (Figure 2b; paper's
    /// choice for the evaluation).
    #[default]
    Overflow,
}

/// Server-side parameters (left column of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// `D`, the number of items broadcast each cycle. Default 1000.
    pub broadcast_size: u32,
    /// Range `1..=UpdateRange` of items eligible for updates. Default 500.
    pub update_range: u32,
    /// Range of items server transactions read. Default 1000 (= D).
    pub server_read_range: u32,
    /// Zipf skew θ for both server reads and writes. Default 0.95.
    pub theta: f64,
    /// Offset between the server update pattern and the client read
    /// pattern. Default 100 (swept 0–250 in Figure 5 right).
    pub offset: u32,
    /// `N`, transactions committed per cycle. Default 10.
    pub txns_per_cycle: u32,
    /// `U`, total item updates per cycle across all server transactions.
    /// Default 50 (swept 50–500 in Figure 6). Server reads are 4× this.
    pub updates_per_cycle: u32,
    /// `V`, how many *old* versions the server retains and broadcasts in
    /// multiversion mode. Default 3 (the paper's span-3 examples). `0`
    /// is accepted and, like `1`, retains and broadcasts no old version.
    pub versions_retained: u32,
    /// Items per bucket. Default 1 (the paper's size model has `b = d`,
    /// one record per bucket).
    pub items_per_bucket: u32,
    /// `w`: each invalidation report covers the last `w` cycles so that
    /// briefly disconnected clients can resynchronize (§5.2.2). Default 1.
    pub report_window: u32,
    /// Granularity of invalidation/version control information.
    pub granularity: Granularity,
    /// Size of an item key in abstract units (`k`). Default 1.
    pub key_size: u32,
    /// Size of the non-key attributes (`d`). Default 5 (= 5k).
    pub data_size: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            broadcast_size: 1000,
            update_range: 500,
            server_read_range: 1000,
            theta: 0.95,
            offset: 100,
            txns_per_cycle: 10,
            updates_per_cycle: 50,
            versions_retained: 3,
            items_per_bucket: 1,
            report_window: 1,
            granularity: Granularity::Item,
            key_size: 1,
            data_size: 5,
        }
    }
}

impl ServerConfig {
    /// Checks cross-field invariants.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] when any range is empty,
    /// exceeds the broadcast size, or the update workload cannot be
    /// partitioned among the configured transactions.
    pub fn validate(&self) -> Result<(), BpushError> {
        if self.broadcast_size == 0 {
            return Err(BpushError::invalid_config("broadcast_size must be > 0"));
        }
        if self.update_range == 0 || self.update_range > self.broadcast_size {
            return Err(BpushError::invalid_config(
                "update_range must be in 1..=broadcast_size",
            ));
        }
        if self.server_read_range == 0 || self.server_read_range > self.broadcast_size {
            return Err(BpushError::invalid_config(
                "server_read_range must be in 1..=broadcast_size",
            ));
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err(BpushError::invalid_config("theta must be finite and >= 0"));
        }
        if self.txns_per_cycle == 0 {
            return Err(BpushError::invalid_config("txns_per_cycle must be > 0"));
        }
        if self.updates_per_cycle == 0 {
            return Err(BpushError::invalid_config("updates_per_cycle must be > 0"));
        }
        if self.updates_per_cycle > self.update_range {
            return Err(BpushError::invalid_config(
                "updates_per_cycle cannot exceed update_range (updates are distinct per cycle)",
            ));
        }
        if self.items_per_bucket == 0 {
            return Err(BpushError::invalid_config("items_per_bucket must be > 0"));
        }
        if self.report_window == 0 {
            return Err(BpushError::invalid_config("report_window must be > 0"));
        }
        if self.key_size == 0 || self.data_size == 0 {
            return Err(BpushError::invalid_config("key/data sizes must be > 0"));
        }
        Ok(())
    }

    /// `c`, operations per server transaction: each transaction performs
    /// `U/N` writes and `4·U/N` reads (reads are four times more frequent
    /// than updates, §5.1), rounded up so the full update budget is spent.
    pub fn ops_per_txn(&self) -> u32 {
        let writes = self.writes_per_txn();
        writes * 5
    }

    /// Writes per server transaction (`U/N`, rounded up).
    pub fn writes_per_txn(&self) -> u32 {
        self.updates_per_cycle.div_ceil(self.txns_per_cycle).max(1)
    }

    /// Reads per server transaction (4× writes).
    pub fn reads_per_txn(&self) -> u32 {
        self.writes_per_txn() * 4
    }

    /// Number of data buckets per bcast.
    pub fn data_buckets(&self) -> u32 {
        self.broadcast_size.div_ceil(self.items_per_bucket)
    }
}

/// Client cache parameters (§4, §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Cache capacity in pages (a page caches one bucket). Zero disables
    /// caching. Default 125.
    pub capacity: u32,
    /// Fraction of the cache reserved for *old* versions when multiversion
    /// caching (§4.2) is active; the split-cache design the paper adopts.
    /// Default 0.25.
    pub old_version_fraction: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 125,
            old_version_fraction: 0.25,
        }
    }
}

impl CacheConfig {
    /// A disabled cache.
    pub const fn disabled() -> Self {
        CacheConfig {
            capacity: 0,
            old_version_fraction: 0.0,
        }
    }

    /// Whether the cache holds any pages at all.
    pub const fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Pages reserved for old versions under the split-cache policy.
    pub fn old_capacity(&self) -> u32 {
        (self.capacity as f64 * self.old_version_fraction).floor() as u32
    }

    /// Pages available to current versions under the split-cache policy.
    pub fn current_capacity(&self) -> u32 {
        self.capacity - self.old_capacity()
    }

    /// Checks invariants.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if the old-version fraction
    /// is outside `[0, 1)` or leaves no room for current versions.
    pub fn validate(&self) -> Result<(), BpushError> {
        if !(0.0..1.0).contains(&self.old_version_fraction) {
            return Err(BpushError::invalid_config(
                "old_version_fraction must be in [0, 1)",
            ));
        }
        if self.is_enabled() && self.current_capacity() == 0 {
            return Err(BpushError::invalid_config(
                "cache must retain at least one current-version page",
            ));
        }
        Ok(())
    }
}

/// Client-side parameters (right column of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Range `1..=ReadRange` of items queries read. Default 500.
    pub read_range: u32,
    /// Zipf skew θ of the client read pattern. Default 0.95.
    pub theta: f64,
    /// Reads per query (swept in Figures 5 left / 8 left). Default 10.
    pub reads_per_query: u32,
    /// Think time between consecutive reads, in slots. Default 2.
    pub think_time: u32,
    /// Cache configuration.
    pub cache: CacheConfig,
    /// Read-ordering policy (§2.2 transaction optimization).
    pub read_order: ReadOrder,
    /// Whether the client holds a locally stored directory of item
    /// positions (§2.1). Without one it relies on on-air index segments
    /// when the organization broadcasts them, or scans the channel
    /// otherwise — paying with tuning time either way.
    pub has_directory: bool,
    /// Per-cycle probability that the client is disconnected for the whole
    /// cycle (misses both the control information and all data). Default 0.
    pub disconnect_prob: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_range: 500,
            theta: 0.95,
            reads_per_query: 10,
            think_time: 2,
            cache: CacheConfig::default(),
            read_order: ReadOrder::AsIssued,
            has_directory: true,
            disconnect_prob: 0.0,
        }
    }
}

impl ClientConfig {
    /// Checks cross-field invariants against the server configuration.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] when the read range is empty
    /// or larger than the broadcast set, when a query would need more
    /// distinct items than the read range holds, or when the disconnect
    /// probability is not a probability.
    pub fn validate(&self, server: &ServerConfig) -> Result<(), BpushError> {
        if self.read_range == 0 || self.read_range > server.broadcast_size {
            return Err(BpushError::invalid_config(
                "read_range must be in 1..=broadcast_size",
            ));
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err(BpushError::invalid_config("theta must be finite and >= 0"));
        }
        if self.reads_per_query == 0 {
            return Err(BpushError::invalid_config("reads_per_query must be > 0"));
        }
        if self.reads_per_query > self.read_range {
            return Err(BpushError::invalid_config(
                "reads_per_query cannot exceed read_range (reads are distinct)",
            ));
        }
        if !(0.0..=1.0).contains(&self.disconnect_prob) {
            return Err(BpushError::invalid_config(
                "disconnect_prob must be in [0, 1]",
            ));
        }
        self.cache.validate()
    }
}

/// Top-level simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Server parameters.
    pub server: ServerConfig,
    /// Client parameters (all simulated clients share them; scalability
    /// means per-client behaviour is independent, §1).
    pub client: ClientConfig,
    /// Number of simulated clients. Default 10.
    pub n_clients: u32,
    /// Queries each client completes (commit or abort) before the
    /// simulation ends. Default 100.
    pub queries_per_client: u32,
    /// Cycles to run before measurement starts (cache warm-up). Default 10.
    pub warmup_cycles: u32,
    /// Hard stop, in cycles, to bound runaway configurations. Default 100 000.
    pub max_cycles: u64,
    /// Root seed for all randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            server: ServerConfig::default(),
            client: ClientConfig::default(),
            n_clients: 10,
            queries_per_client: 100,
            warmup_cycles: 10,
            max_cycles: 100_000,
            seed: 0xB90A_DCA5,
        }
    }
}

impl SimConfig {
    /// Checks all nested invariants.
    ///
    /// # Errors
    /// Propagates [`BpushError::InvalidConfig`] from the nested configs and
    /// rejects an empty client population or query budget.
    pub fn validate(&self) -> Result<(), BpushError> {
        self.server.validate()?;
        self.client.validate(&self.server)?;
        if self.n_clients == 0 {
            return Err(BpushError::invalid_config("n_clients must be > 0"));
        }
        if self.queries_per_client == 0 {
            return Err(BpushError::invalid_config("queries_per_client must be > 0"));
        }
        if self.max_cycles == 0 {
            return Err(BpushError::invalid_config("max_cycles must be > 0"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let cfg = SimConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.server.broadcast_size, 1000);
        assert_eq!(cfg.server.update_range, 500);
        assert_eq!(cfg.server.txns_per_cycle, 10);
        assert_eq!(cfg.server.updates_per_cycle, 50);
        assert!((cfg.server.theta - 0.95).abs() < 1e-12);
        assert_eq!(cfg.server.offset, 100);
    }

    #[test]
    fn server_ops_split_reads_writes_4_to_1() {
        let s = ServerConfig::default();
        assert_eq!(s.writes_per_txn(), 5); // 50 / 10
        assert_eq!(s.reads_per_txn(), 20);
        assert_eq!(s.ops_per_txn(), 25);
    }

    #[test]
    fn server_ops_round_up() {
        let s = ServerConfig {
            updates_per_cycle: 55,
            ..ServerConfig::default()
        };
        assert_eq!(s.writes_per_txn(), 6);
    }

    #[test]
    fn data_buckets_round_up() {
        let s = ServerConfig {
            broadcast_size: 10,
            update_range: 5,
            server_read_range: 10,
            updates_per_cycle: 2,
            items_per_bucket: 4,
            ..ServerConfig::default()
        };
        assert_eq!(s.data_buckets(), 3);
    }

    #[test]
    fn server_validation_rejects_bad_ranges() {
        let cases = [
            ServerConfig {
                update_range: 2000,
                ..ServerConfig::default()
            },
            ServerConfig {
                broadcast_size: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                updates_per_cycle: 501,
                ..ServerConfig::default()
            },
            ServerConfig {
                theta: f64::NAN,
                ..ServerConfig::default()
            },
        ];
        for s in cases {
            assert!(s.validate().is_err());
        }
    }

    #[test]
    fn cache_split_capacities() {
        let c = CacheConfig {
            capacity: 100,
            old_version_fraction: 0.25,
        };
        assert_eq!(c.old_capacity(), 25);
        assert_eq!(c.current_capacity(), 75);
        c.validate().unwrap();
    }

    #[test]
    fn cache_disabled_is_valid() {
        let c = CacheConfig::disabled();
        assert!(!c.is_enabled());
        c.validate().unwrap();
    }

    #[test]
    fn cache_rejects_full_old_fraction() {
        let c = CacheConfig {
            capacity: 10,
            old_version_fraction: 1.0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn client_validation_rejects_overdraw_and_bad_prob() {
        let server = ServerConfig::default();
        let cases = [
            ClientConfig {
                reads_per_query: 501,
                ..ClientConfig::default()
            },
            ClientConfig {
                disconnect_prob: 1.5,
                ..ClientConfig::default()
            },
            ClientConfig {
                read_range: 0,
                ..ClientConfig::default()
            },
        ];
        for c in cases {
            assert!(c.validate(&server).is_err());
        }
    }

    #[test]
    fn sim_validation_cascades() {
        let cfg = SimConfig {
            n_clients: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::default();
        cfg.client.read_range = 5000;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn configs_are_clone_send_sync() {
        fn assert_traits<T: Clone + Send + Sync + 'static>() {}
        assert_traits::<SimConfig>();
        assert_traits::<ServerConfig>();
        assert_traits::<ClientConfig>();
        assert_traits::<CacheConfig>();
    }
}
