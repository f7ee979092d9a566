//! Long-running randomized consistency soak: hammers every method with
//! random configurations and verifies that not a single committed readset
//! is ever inconsistent. Complements the bounded proptest suites.
//!
//! ```text
//! soak [ITERATIONS] [--capture-dir DIR]   # default 50
//! ```
//!
//! Every run also carries the online invariant monitors and a flight
//! recorder: a monitor trip fails the soak and writes the
//! `bpush-capture-v1` capture under `--capture-dir` (default
//! `monitor-captures/`) for `cargo xtask explain`.
//!
//! Exits non-zero on the first violation, printing the offending
//! configuration for reproduction.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bpush_core::Method;
use bpush_sim::{monitors_for, CaptureSlot, Simulation};
use bpush_types::{CacheConfig, ClientConfig, Granularity, ServerConfig, SimConfig};

fn random_config(rng: &mut StdRng) -> SimConfig {
    let broadcast_size = rng.gen_range(50..600);
    let update_range = rng.gen_range(10..=broadcast_size);
    let read_range = rng.gen_range(10..=broadcast_size);
    let reads_per_query = rng.gen_range(2..=12.min(read_range));
    SimConfig {
        server: ServerConfig {
            broadcast_size,
            update_range,
            server_read_range: broadcast_size,
            theta: rng.gen_range(0.0..1.4),
            offset: rng.gen_range(0..update_range),
            txns_per_cycle: rng.gen_range(1..20),
            updates_per_cycle: rng.gen_range(1..=update_range.min(80)),
            versions_retained: rng.gen_range(1..32),
            items_per_bucket: if rng.gen_range(0..4) == 3 { 4 } else { 1 },
            report_window: rng.gen_range(1..4),
            granularity: if rng.gen_bool(0.25) {
                Granularity::Bucket
            } else {
                Granularity::Item
            },
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range,
            theta: rng.gen_range(0.0..1.4),
            reads_per_query,
            think_time: rng.gen_range(0..8),
            cache: CacheConfig {
                capacity: rng.gen_range(0..60),
                old_version_fraction: rng.gen_range(0.0..0.6),
            },
            has_directory: rng.gen_bool(0.9),
            disconnect_prob: if rng.gen_bool(0.3) {
                rng.gen_range(0.0..0.4)
            } else {
                0.0
            },
            ..ClientConfig::default()
        },
        n_clients: rng.gen_range(1..4),
        queries_per_client: rng.gen_range(4..16),
        warmup_cycles: rng.gen_range(0..4),
        max_cycles: 200_000,
        seed: rng.gen(),
    }
}

fn main() -> ExitCode {
    let mut iterations: u64 = 50;
    let mut capture_dir = String::from("monitor-captures");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capture-dir" => match args.next() {
                Some(dir) => capture_dir = dir,
                None => {
                    eprintln!("soak: --capture-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => match other.parse() {
                Ok(n) => iterations = n,
                Err(_) => {
                    eprintln!("soak: unknown argument `{other}`");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let mut rng = StdRng::seed_from_u64(
        std::env::var("SOAK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDEAD_BEEF),
    );
    let mut total_queries = 0u64;
    for i in 0..iterations {
        let config = random_config(&mut rng);
        for method in Method::ALL {
            let monitors = monitors_for(&config, method);
            let slot = CaptureSlot::new();
            let sim = match Simulation::new(config.clone(), method) {
                Ok(sim) => sim
                    .with_monitors(monitors.clone())
                    .with_flight_recorder(8, slot.clone()),
                Err(e) => {
                    eprintln!("iteration {i} {method}: rejected config ({e}); skipping");
                    continue;
                }
            };
            match sim.run() {
                Ok(metrics) => {
                    total_queries += metrics.queries;
                    if metrics.violations > 0 {
                        eprintln!(
                            "iteration {i}: {method} committed {} INCONSISTENT readsets\n{config:#?}",
                            metrics.violations
                        );
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("iteration {i} {method}: {e}\n{config:#?}");
                    return ExitCode::FAILURE;
                }
            }
            let verdict = monitors.verdict();
            if !verdict.pass() {
                eprintln!(
                    "iteration {i}: {method} tripped its online monitors\n{}\n{config:#?}",
                    verdict.render()
                );
                if let Some(capture) = slot.take() {
                    let path = format!("{capture_dir}/soak-{i}-{}.capture", method.name());
                    if let Err(e) = std::fs::create_dir_all(&capture_dir)
                        .and_then(|()| std::fs::write(&path, capture.render()))
                    {
                        eprintln!("soak: writing {path}: {e}");
                    } else {
                        eprintln!("soak: capture written to {path} (see `cargo xtask explain`)");
                    }
                }
                return ExitCode::FAILURE;
            }
        }
        if (i + 1) % 10 == 0 {
            eprintln!("soak: {}/{iterations} configurations clean", i + 1);
        }
    }
    println!("soak complete: {iterations} configurations x {} methods, {total_queries} queries, 0 violations",
             Method::ALL.len());
    ExitCode::SUCCESS
}
