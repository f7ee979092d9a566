//! The experiment suite: one module per table/figure of §5 (plus the
//! §5.2.2 disconnection study). See DESIGN.md for the experiment index.
//!
//! Every experiment returns [`Table`]s whose *shape* — which method wins,
//! by roughly what factor, where crossovers fall — is the reproduction
//! target; absolute numbers depend on the simulated substrate.

pub mod ablations;
pub mod disconnect;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod sharded;
pub mod table1;
pub mod tuning;

use bpush_core::Method;
use bpush_types::{BpushError, ClientConfig, ServerConfig, SimConfig};

use crate::table::Table;

/// How much work to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Reduced database and query budget; seconds per experiment. Used by
    /// the test suite.
    Quick,
    /// The paper's Figure-4 parameters; the default for `reproduce`.
    #[default]
    Paper,
}

/// The paper's default configuration (Figure 4): `D = 1000`,
/// `UpdateRange = 500`, `θ = 0.95`, offset 100, `N = 10`, `U = 50`,
/// client `ReadRange = 500`, 125-page LRU cache.
pub fn paper_defaults() -> SimConfig {
    SimConfig {
        server: ServerConfig::default(),
        client: ClientConfig::default(),
        n_clients: 8,
        queries_per_client: 60,
        warmup_cycles: 10,
        max_cycles: 200_000,
        seed: 0x1999_1cdc,
    }
}

/// A proportionally shrunk configuration for fast test runs.
pub fn quick_defaults() -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 300,
            update_range: 150,
            server_read_range: 300,
            updates_per_cycle: 15,
            txns_per_cycle: 10,
            offset: 30,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 150,
            reads_per_query: 8,
            cache: bpush_types::CacheConfig {
                capacity: 40,
                ..bpush_types::CacheConfig::default()
            },
            ..ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 15,
        warmup_cycles: 5,
        max_cycles: 100_000,
        seed: 0x1999_1cdc,
    }
}

/// The base configuration for a scale.
pub fn defaults(scale: Scale) -> SimConfig {
    match scale {
        Scale::Quick => quick_defaults(),
        Scale::Paper => paper_defaults(),
    }
}

/// Adjusts a configuration for a method: multiversion broadcast needs a
/// version-retention window covering the spans the workload will produce
/// (the paper's `S`-multiversion server accepts *all* transactions; a
/// finite `V` merely bounds the guaranteed span, §3.2).
pub fn config_for(method: Method, mut config: SimConfig) -> SimConfig {
    if method == Method::MultiversionBroadcast {
        // Mean latency is about r/2 cycles (Figure 8), so spans stay
        // below r/2 + a few wrap-arounds; r + 8 leaves a comfortable
        // margin while keeping the overflow area honest.
        let r = config.client.reads_per_query;
        config.server.versions_retained = (r + 8).min(congestion_cap(&config));
    }
    config
}

fn congestion_cap(config: &SimConfig) -> u32 {
    // retaining more versions than items updated per cycle can ever need
    // is pointless; this caps the overflow area
    (config.server.broadcast_size / 2).max(8)
}

/// Stable ids of the paper's own artifacts, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 8] = [
    "fig5_left",
    "fig5_right",
    "fig6",
    "fig7",
    "fig8_left",
    "fig8_right",
    "table1",
    "disconnect",
];

/// Extension/ablation studies beyond the paper's artifacts (§2.2, §4 and
/// §7 design choices, quantified).
pub const EXTENSION_EXPERIMENTS: [&str; 8] = [
    "ablation_layout",
    "ablation_read_order",
    "ablation_cache",
    "ablation_granularity",
    "disks",
    "tuning",
    "indexing",
    "sharded",
];

/// Runs one experiment by id.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] for an unknown id and propagates
/// simulation errors.
pub fn run(id: &str, scale: Scale) -> Result<Vec<Table>, BpushError> {
    match id {
        "fig5_left" => fig5::left(scale).map(|t| vec![t]),
        "fig5_right" => fig5::right(scale).map(|t| vec![t]),
        "fig6" => fig6::run(scale).map(|t| vec![t]),
        "fig7" => fig7::run(scale),
        "fig8_left" => fig8::left(scale).map(|t| vec![t]),
        "fig8_right" => fig8::right(scale).map(|t| vec![t]),
        "table1" => table1::run(scale).map(|t| vec![t]),
        "disconnect" => disconnect::run(scale).map(|t| vec![t]),
        "ablation_layout" => ablations::layout(scale).map(|t| vec![t]),
        "ablation_read_order" => ablations::read_order(scale).map(|t| vec![t]),
        "ablation_cache" => ablations::cache_size(scale).map(|t| vec![t]),
        "ablation_granularity" => ablations::granularity(scale).map(|t| vec![t]),
        "disks" => ablations::disks(scale).map(|t| vec![t]),
        "tuning" => tuning::run(scale).map(|t| vec![t]),
        "indexing" => ablations::indexing(scale).map(|t| vec![t]),
        "sharded" => sharded::run(scale).map(|t| vec![t]),
        other => Err(BpushError::invalid_config(format!(
            "unknown experiment id `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        paper_defaults().validate().unwrap();
        quick_defaults().validate().unwrap();
        assert_eq!(defaults(Scale::Paper), paper_defaults());
        assert_eq!(defaults(Scale::Quick), quick_defaults());
    }

    #[test]
    fn paper_defaults_match_figure4() {
        let cfg = paper_defaults();
        assert_eq!(cfg.server.broadcast_size, 1000);
        assert_eq!(cfg.server.update_range, 500);
        assert_eq!(cfg.server.updates_per_cycle, 50);
        assert_eq!(cfg.server.txns_per_cycle, 10);
        assert!((cfg.server.theta - 0.95).abs() < 1e-12);
    }

    #[test]
    fn config_for_multiversion_extends_retention() {
        let base = quick_defaults();
        let mv = config_for(Method::MultiversionBroadcast, base.clone());
        assert!(mv.server.versions_retained > base.server.versions_retained);
        let inv = config_for(Method::InvalidationOnly, base.clone());
        assert_eq!(inv.server.versions_retained, base.server.versions_retained);
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(run("fig99", Scale::Quick).is_err());
    }
}
