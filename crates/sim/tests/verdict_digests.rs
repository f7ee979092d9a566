//! Pins the online monitors' verdicts, not just whether they pass.
//!
//! A genuine method passes its monitors whatever they counted, so two
//! builds can both pass and still have screened different controls,
//! checks or edges. Each case here folds one monitored run's
//! `MonitorVerdict::render` into an FNV-1a digest, after checking that
//! the wire-fed run renders exactly what the struct-fed run does: every
//! genuine method on the quick configuration and on a dozing one, and
//! the seeded `BrokenInvalidation` mutant, whose violation lines are
//! part of its render. A change to what the monitors count or flag
//! moves a digest.

#![allow(clippy::unwrap_used)]

use bpush_core::{Method, ReadOnlyProtocol};
use bpush_obs::flight::fnv64;
use bpush_sim::{monitors_for, Simulation};
use bpush_types::{ClientConfig, ServerConfig, SimConfig};

/// The eight genuine methods: the paper's seven and SGT with versions.
const GENUINE: [Method; 8] = [
    Method::InvalidationOnly,
    Method::InvalidationCache,
    Method::InvalidationVersionedCache,
    Method::MultiversionBroadcast,
    Method::Sgt,
    Method::SgtCache,
    Method::MultiversionCaching,
    Method::SgtVersionedItems,
];

/// The digests in [`GENUINE`] order on [`quick`], computed at the commit
/// before the monitors became one type; its renders differ only by the
/// ` overflows=0` that header carried.
const QUICK: [(&str, u64); 8] = [
    ("inv-only", 0xb9c9_c9a5_aefa_3e10),
    ("inv+cache", 0x6c92_39fb_1546_45ad),
    ("inv+vcache", 0x9085_aef2_f75e_1aba),
    ("multiversion", 0x72d2_548c_c184_a65d),
    ("sgt", 0xcc29_0bfd_1650_fbe6),
    ("sgt+cache", 0x8497_63af_8a58_b45a),
    ("mv-caching", 0x751b_9761_f3ea_658b),
    ("sgt+versions", 0xcc29_0bfd_1650_fbe6),
];

/// The same, on [`dozing`].
const DOZING: [(&str, u64); 8] = [
    ("inv-only", 0x5d8f_31bd_93f7_e852),
    ("inv+cache", 0x0d76_6626_40d3_b046),
    ("inv+vcache", 0x736b_01e0_5e90_2784),
    ("multiversion", 0x73c2_0dd4_1106_8501),
    ("sgt", 0xe015_7ba2_5a6f_95e0),
    ("sgt+cache", 0x93ac_d7c4_ccfe_671c),
    ("mv-caching", 0x5454_600e_2c20_058f),
    ("sgt+versions", 0x0fe3_9d71_65bb_9990),
];

/// `BrokenInvalidation` in place of inv-only's protocol, on [`quick`].
const BROKEN_INVALIDATION: u64 = 0x890e_afc8_f9db_2c2c;

/// The simulation tests' quick configuration: 3 clients, 15 queries
/// each, about 45 cycles.
fn quick() -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 200,
            update_range: 100,
            server_read_range: 200,
            updates_per_cycle: 20,
            txns_per_cycle: 5,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 100,
            reads_per_query: 6,
            ..ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 15,
        warmup_cycles: 3,
        max_cycles: 20_000,
        seed: 99,
    }
}

/// [`quick`] with each client missing a cycle with probability 0.3.
fn dozing() -> SimConfig {
    let mut config = quick();
    config.client.disconnect_prob = 0.3;
    config
}

/// The verdict render of one monitored run, struct-fed or wire-fed.
fn render(
    config: &SimConfig,
    method: Method,
    factory: Option<fn() -> Box<dyn ReadOnlyProtocol>>,
    wire: bool,
) -> String {
    let monitors = monitors_for(config, method);
    let mut sim = Simulation::new(config.clone(), method).unwrap();
    if let Some(factory) = factory {
        sim = sim.with_protocol_factory(factory);
    }
    if wire {
        sim = sim.with_wire_feed();
    }
    sim.with_monitors(monitors.clone()).run().unwrap();
    monitors.verdict().render()
}

/// The digest of one case, after checking both feeds render alike.
fn digest(
    config: &SimConfig,
    method: Method,
    factory: Option<fn() -> Box<dyn ReadOnlyProtocol>>,
) -> u64 {
    let by_struct = render(config, method, factory, false);
    let by_wire = render(config, method, factory, true);
    assert_eq!(
        by_wire, by_struct,
        "{method}: the wire-fed verdict differs from the struct-fed one"
    );
    fnv64(by_struct.as_bytes())
}

#[test]
fn genuine_verdict_digests_are_pinned() {
    for (name, config, pinned) in [("quick", quick(), QUICK), ("dozing", dozing(), DOZING)] {
        let got = GENUINE.map(|method| (method.name(), digest(&config, method, None)));
        let rendered: Vec<String> = got
            .iter()
            .map(|(method, d)| format!("(\"{method}\", 0x{d:016x}),"))
            .collect();
        assert_eq!(
            got, pinned,
            "{name}: verdict digests moved; now {rendered:#?}"
        );
    }
}

#[test]
fn broken_invalidation_verdict_digest_is_pinned() {
    let broken = || -> Box<dyn ReadOnlyProtocol> { Box::new(bpush_mc::BrokenInvalidation::new()) };
    let got = digest(&quick(), Method::InvalidationOnly, Some(broken));
    assert_eq!(
        got, BROKEN_INVALIDATION,
        "the BrokenInvalidation verdict digest moved; now 0x{got:016x}"
    );
}
