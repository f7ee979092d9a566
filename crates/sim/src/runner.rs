//! Parallel execution of simulation jobs (parameter sweeps) and of the
//! client shards of one large simulation.

use std::sync::atomic::{AtomicUsize, Ordering};

use bpush_core::Method;
use bpush_types::config::MultiversionLayout;
use bpush_types::{BpushError, SimConfig};

use crate::simulation::{MethodMetrics, Simulation};

/// One simulation to run: a method under a configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// The method to simulate.
    pub method: Method,
    /// The full configuration.
    pub config: SimConfig,
    /// Multiversion on-air layout, where applicable.
    pub layout: MultiversionLayout,
}

impl Job {
    /// A job with the default (overflow) layout.
    pub fn new(method: Method, config: SimConfig) -> Self {
        Job {
            method,
            config,
            layout: MultiversionLayout::Overflow,
        }
    }
}

/// The machine's available parallelism, floored at 1.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Lock-free indexed dispatch: `workers` threads claim indices
/// `0..n` with a single `fetch_add` each and run `task` on them; the
/// results come back in index order. Each worker accumulates its own
/// `(index, result)` chunk — no slot locks, no shared mutable state
/// beyond the claim counter — and the chunks are scattered into the
/// pre-sized output after `scope` joins every worker (which is what
/// publishes the writes and propagates panics).
fn run_indexed<T, F>(n: usize, workers: usize, task: F) -> Vec<Result<T, BpushError>>
where
    T: Send,
    F: Fn(usize) -> Result<T, BpushError> + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, Result<T, BpushError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        mine.push((idx, task(idx)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<Result<T, BpushError>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (idx, result) in chunks.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(idx) {
            *slot = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or(Err(BpushError::invalid_config(
                "internal: a simulation job was never executed",
            )))
        })
        .collect()
}

/// Runs all jobs, in parallel across the machine's cores, returning the
/// metrics in job order.
///
/// # Errors
/// Returns the first configuration or budget error encountered.
pub fn run_jobs(jobs: Vec<Job>) -> Result<Vec<MethodMetrics>, BpushError> {
    let n = jobs.len();
    run_indexed(n, default_workers(), |idx| {
        let job = jobs
            .get(idx)
            .ok_or_else(|| BpushError::invalid_config("internal: job index out of range"))?;
        Simulation::with_layout(job.config.clone(), job.method, job.layout)
            .and_then(Simulation::run)
    })
    .into_iter()
    .collect()
}

/// The per-replication seed: replication 0 keeps the base seed
/// unchanged (so single-replication runs — the default everywhere — are
/// bit-identical to an unreplicated run), and later replications mix
/// `rep` into the seed SplitMix64-style. The previous
/// `seed + rep * 0x9e37_79b9` stream collided across nearby base seeds
/// (`mix(s, 1) == mix(s + 0x9e37_79b9, 0)`); the multiply–xor–shift
/// cascade decorrelates every `(seed, rep)` pair.
fn mix_replication_seed(seed: u64, rep: u32) -> u64 {
    if rep == 0 {
        return seed;
    }
    let mut z = seed ^ u64::from(rep).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs every job `replications` times with derived seeds and merges the
/// replications, returning one [`MethodMetrics`] per job in order. The
/// `BPUSH_REPS` environment variable overrides `replications` for all
/// experiments (statistical tightening without code changes).
///
/// # Errors
/// Propagates the first configuration or budget error.
pub fn run_replicated(jobs: Vec<Job>, replications: u32) -> Result<Vec<MethodMetrics>, BpushError> {
    let replications = std::env::var("BPUSH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(replications)
        .max(1);
    let mut expanded = Vec::with_capacity(jobs.len() * replications as usize);
    for job in &jobs {
        for rep in 0..replications {
            let mut j = job.clone();
            j.config.seed = mix_replication_seed(j.config.seed, rep);
            expanded.push(j);
        }
    }
    let all = run_jobs(expanded)?;
    let mut merged = Vec::with_capacity(jobs.len());
    for chunk in all.chunks(replications as usize) {
        let mut acc = chunk[0].clone();
        for m in &chunk[1..] {
            acc.merge(m);
        }
        merged.push(acc);
    }
    Ok(merged)
}

/// The half-open client ranges partitioning `n_clients` into `shards`
/// near-equal shards, in shard order.
fn shard_bounds(n_clients: u32, shards: u32) -> Vec<std::ops::Range<u32>> {
    let bound = |s: u32| -> u32 {
        // u64 arithmetic so n_clients * shards cannot overflow
        (u64::from(n_clients) * u64::from(s) / u64::from(shards)) as u32
    };
    (0..shards)
        .map(|s| bound(s)..bound(s + 1))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs ONE large simulation with its clients sharded across `workers`
/// threads, merging the shards deterministically.
///
/// The client population is split into `shards` fixed, near-equal
/// ranges (clamped to `1..=n_clients`); each shard replays the same
/// deterministic server stream against its own clients
/// ([`Simulation::with_client_range`]) on one of `workers` threads, and
/// shard metrics are merged in shard order. The partition and the merge
/// order depend only on `shards` — never on `workers` or thread
/// scheduling — so the merged metrics are byte-identical at any worker
/// count, and `shards == 1` is bit-identical to an unsharded
/// [`Simulation::run`].
///
/// # Errors
/// Propagates the first configuration or budget error from any shard.
pub fn run_sharded_with_workers(
    job: &Job,
    shards: u32,
    workers: usize,
) -> Result<MethodMetrics, BpushError> {
    job.config.validate()?;
    let shards = shards.clamp(1, job.config.n_clients.max(1));
    let bounds = shard_bounds(job.config.n_clients, shards);
    let results = run_indexed(bounds.len(), workers, |idx| {
        let range = bounds
            .get(idx)
            .cloned()
            .ok_or_else(|| BpushError::invalid_config("internal: shard index out of range"))?;
        Simulation::with_client_range(job.config.clone(), job.method, job.layout, range)?.run()
    });
    let mut merged: Option<MethodMetrics> = None;
    for result in results {
        let shard = result?;
        match &mut merged {
            None => merged = Some(shard),
            Some(acc) => acc.merge(&shard),
        }
    }
    merged.ok_or_else(|| BpushError::invalid_config("internal: no shard produced metrics"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> SimConfig {
        SimConfig {
            server: bpush_types::ServerConfig {
                broadcast_size: 100,
                update_range: 50,
                server_read_range: 100,
                updates_per_cycle: 10,
                txns_per_cycle: 5,
                ..bpush_types::ServerConfig::default()
            },
            client: bpush_types::ClientConfig {
                read_range: 50,
                reads_per_query: 4,
                ..bpush_types::ClientConfig::default()
            },
            n_clients: 2,
            queries_per_client: 5,
            warmup_cycles: 2,
            max_cycles: 10_000,
            seed,
        }
    }

    #[test]
    fn results_arrive_in_job_order() {
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let method = if i % 2 == 0 {
                    Method::InvalidationOnly
                } else {
                    Method::Sgt
                };
                Job::new(method, tiny_config(i))
            })
            .collect();
        let metrics = run_jobs(jobs).unwrap();
        assert_eq!(metrics.len(), 6);
        for (i, m) in metrics.iter().enumerate() {
            let expected = if i % 2 == 0 {
                Method::InvalidationOnly
            } else {
                Method::Sgt
            };
            assert_eq!(m.method, expected);
            assert_eq!(m.violations, 0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let job = Job::new(Method::InvalidationCache, tiny_config(7));
        let par = run_jobs(vec![job.clone(), job.clone()]).unwrap();
        let seq = Simulation::with_layout(job.config.clone(), job.method, job.layout)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(par[0].aborts, seq.aborts);
        assert_eq!(par[1].aborts, seq.aborts);
    }

    #[test]
    fn bad_job_surfaces_error() {
        let mut cfg = tiny_config(0);
        cfg.n_clients = 0;
        assert!(run_jobs(vec![Job::new(Method::Sgt, cfg)]).is_err());
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn replication_seed_mix_is_collision_free_and_rep0_stable() {
        // the old derivation: seed + rep * 0x9e37_79b9 — collides across
        // nearby base seeds
        let old = |seed: u64, rep: u32| seed.wrapping_add(u64::from(rep) * 0x9e37_79b9);
        assert_eq!(
            old(7, 1),
            old(7 + 0x9e37_79b9, 0),
            "the old stream really did collide (regression premise)"
        );
        assert_ne!(
            mix_replication_seed(7, 1),
            mix_replication_seed(7 + 0x9e37_79b9, 0),
            "the mixed stream must not"
        );
        // rep 0 must keep the base seed bit-identical: every experiment
        // runs run_replicated(jobs, 1), which must equal the plain run
        for seed in [0u64, 1, 7, u64::MAX] {
            assert_eq!(mix_replication_seed(seed, 0), seed);
        }
        // distinctness across a seed x rep grid
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            for rep in 0..16u32 {
                assert!(
                    seen.insert(mix_replication_seed(seed, rep)),
                    "collision at seed={seed} rep={rep}"
                );
            }
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for (n, s) in [(8u32, 3u32), (2, 5), (1, 1), (7, 7), (100, 8)] {
            let bounds = shard_bounds(n, s.min(n));
            assert_eq!(bounds.first().map(|r| r.start), Some(0));
            assert_eq!(bounds.last().map(|r| r.end), Some(n));
            for pair in bounds.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous: {bounds:?}");
            }
            assert!(bounds.iter().all(|r| !r.is_empty()), "{bounds:?}");
        }
    }

    #[test]
    fn sharded_single_shard_equals_plain_run() {
        let mut cfg = tiny_config(11);
        cfg.n_clients = 3;
        let job = Job::new(Method::Sgt, cfg);
        let plain = Simulation::with_layout(job.config.clone(), job.method, job.layout)
            .unwrap()
            .run()
            .unwrap();
        let sharded = run_sharded_with_workers(&job, 1, 2).unwrap();
        assert_eq!(
            sharded.deterministic_snapshot(),
            plain.deterministic_snapshot()
        );
    }

    #[test]
    fn sharded_metrics_are_byte_identical_across_worker_counts() {
        let mut cfg = tiny_config(5);
        cfg.n_clients = 4;
        for method in [Method::InvalidationOnly, Method::Sgt] {
            let job = Job::new(method, cfg.clone());
            let base = run_sharded_with_workers(&job, 4, 1)
                .unwrap()
                .deterministic_snapshot();
            for workers in [2usize, 3, 8] {
                let again = run_sharded_with_workers(&job, 4, workers)
                    .unwrap()
                    .deterministic_snapshot();
                assert_eq!(again, base, "{method} at {workers} workers");
            }
            // and pooled query counts match the unsharded run
            let plain = Simulation::with_layout(job.config.clone(), job.method, job.layout)
                .unwrap()
                .run()
                .unwrap();
            let sharded = run_sharded_with_workers(&job, 4, 2).unwrap();
            assert_eq!(sharded.queries, plain.queries, "{method}");
            assert_eq!(sharded.aborts.hits(), plain.aborts.hits(), "{method}");
            assert_eq!(sharded.violations, plain.violations, "{method}");
        }
    }

    /// Shard-*count* invariance (DESIGN §8a): with the exact
    /// integer-sum `Summary`/`Ratio` merges, every field that pools
    /// per-query observations is bit-identical whether the client
    /// population runs as 1, 2, or 4 shards. (Fields normalized by
    /// shard-local cycle counts — `cycles`, `mean_bcast_slots`, and the
    /// cycle-normalized latency forms — legitimately depend on the
    /// partition, because each shard runs as many cycles as its own
    /// clients need; they are excluded by design.)
    #[test]
    fn pooled_fields_are_invariant_across_shard_counts() {
        let mut cfg = tiny_config(13);
        cfg.n_clients = 4;
        for method in [Method::InvalidationOnly, Method::SgtCache] {
            let job = Job::new(method, cfg.clone());
            let one = run_sharded_with_workers(&job, 1, 2).unwrap();
            for shards in [2u32, 4] {
                let many = run_sharded_with_workers(&job, shards, 2).unwrap();
                assert_eq!(many.queries, one.queries, "{method} at {shards}");
                assert_eq!(many.aborts, one.aborts, "{method} at {shards}");
                assert_eq!(
                    many.abort_reasons, one.abort_reasons,
                    "{method} at {shards}"
                );
                assert_eq!(
                    many.latency_slots, one.latency_slots,
                    "{method} at {shards}"
                );
                assert_eq!(many.span, one.span, "{method} at {shards}");
                assert_eq!(many.tuning_slots, one.tuning_slots, "{method} at {shards}");
                assert_eq!(
                    many.broadcast_reads, one.broadcast_reads,
                    "{method} at {shards}"
                );
                assert_eq!(
                    many.cache_hit_rate, one.cache_hit_rate,
                    "{method} at {shards}"
                );
                assert_eq!(many.violations, one.violations, "{method} at {shards}");
                assert_eq!(many.base_slots, one.base_slots, "{method} at {shards}");
                assert_eq!(
                    (many.peak_graph_nodes, many.peak_graph_edges),
                    (one.peak_graph_nodes, one.peak_graph_edges),
                    "{method} at {shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_clamps_excess_shards() {
        let mut cfg = tiny_config(2);
        cfg.n_clients = 2;
        let job = Job::new(Method::InvalidationOnly, cfg);
        // more shards than clients: clamped, still correct
        let m = run_sharded_with_workers(&job, 64, 2).unwrap();
        assert!(m.queries > 0);
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn replication_pools_queries() {
        // Warm-up stays on (tiny_config's 2 cycles): each replication
        // discards its own seed-dependent warm-up prefix, so the pooled
        // totals are compared against explicit per-seed runs with the
        // same derived seeds rather than against `3 × single`.
        let job = Job::new(Method::InvalidationOnly, tiny_config(3));
        assert!(job.config.warmup_cycles > 0, "the point is a warm start");
        let per_rep = run_jobs(
            (0..3)
                .map(|rep| {
                    let mut j = job.clone();
                    j.config.seed = mix_replication_seed(j.config.seed, rep);
                    j
                })
                .collect(),
        )
        .unwrap();
        let expected_queries: u64 = per_rep.iter().map(|m| m.queries).sum();
        let expected_aborts: u64 = per_rep.iter().map(|m| m.aborts.hits()).sum();
        let tripled = run_replicated(vec![job], 3).unwrap();
        assert_eq!(tripled.len(), 1);
        assert_eq!(tripled[0].queries, expected_queries);
        assert_eq!(tripled[0].aborts.hits(), expected_aborts);
        assert_eq!(tripled[0].violations, 0);
        // rates stay rates (0..=1)
        assert!((0.0..=1.0).contains(&tripled[0].aborts.rate()));
    }
}
