//! Command line of `bpush-benchmark`.
//!
//! ```text
//! bpush-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!                 [--reps <n>] [--quick] [--trace-out <file>]
//! bpush-benchmark --all [--seed <u64>] [--seconds <n>]
//! bpush-benchmark --list | --contract
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is 0 only if every check passed.

use std::process::ExitCode;

use bpush_benchmark::driver::{self, Options};
use bpush_benchmark::measure::Budget;
use bpush_benchmark::{report, workload};

/// The seed of `paper_defaults()`.
const DEFAULT_SEED: u64 = 0x1999_1cdc;

#[derive(Debug)]
enum Command {
    List,
    Contract,
    All {
        seed: u64,
        seconds: f64,
    },
    One {
        opts: Options,
        trace_out: Option<String>,
    },
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("{text:?} is not an unsigned integer: {e}"))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut name = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = f64::from(report::RUN_SECONDS);
    let mut reps = None;
    let mut trace = false;
    let mut quick = false;
    let mut all = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--contract" => return Ok(Command::Contract),
            "--all" => all = true,
            "--quick" => quick = true,
            "--workload" => name = Some(value()?),
            "--seed" => seed = parse_u64(&value()?)?,
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not a positive number"))?;
            }
            "--reps" => {
                let n = parse_u64(&value()?)?;
                reps = Some(u32::try_from(n.max(1)).map_err(|e| format!("--reps: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if all {
        return Ok(Command::All { seed, seconds });
    }
    let name = name.ok_or("one of --workload <name>, --all, --list is required")?;
    let found = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        format!(
            "no workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".to_owned());
    }
    let budget = match (reps, quick) {
        (Some(n), _) => Budget::Reps(n),
        (None, true) => Budget::Reps(1),
        (None, false) => Budget::Seconds(seconds),
    };
    Ok(Command::One {
        opts: Options {
            workload: if quick { found.quick() } else { found },
            seed,
            budget,
            trace,
            quick,
        },
        trace_out,
    })
}

/// Runs one workload; `Ok(true)` if every check passed.
fn one(opts: &Options, trace_out: Option<&str>) -> Result<bool, Box<dyn std::error::Error>> {
    // numbers from an unoptimised build describe nothing a user runs
    if cfg!(debug_assertions) && !opts.quick {
        return Err(
            "refusing to measure a debug build: use --release, or --quick for a smoke run".into(),
        );
    }
    println!("{}", driver::host_block(opts));
    let report = driver::run(opts)?;
    print!("{}", driver::render(opts, &report)?);
    if let Some(path) = trace_out {
        std::fs::write(path, report.spans.chrome_trace())?;
        println!("spans: {} written to {path}", report.spans.spans().len());
    }
    let (values, metrics) = if opts.trace {
        (&report.per_layer, report::per_layer())
    } else {
        (&report.end_to_end, report::end_to_end())
    };
    let ops = &report.ops;
    println!(
        "{}",
        report::result_line(
            ops.correct(),
            ops.attempted.max(1),
            ops.failed,
            values,
            &metrics
        )?
    );
    Ok(ops.correct())
}

/// Runs every workload in a process of its own, so that `peak_rss_mb`
/// is the workload's and not the high-water mark of all before it.
fn all(seed: u64, seconds: f64) -> Result<bool, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for w in workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .status()?;
        ok &= status.success();
        println!();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(usage) => {
            eprintln!("bpush-benchmark: {usage}");
            return ExitCode::from(2);
        }
        Ok(Command::List) => {
            print!("{}", report::listing());
            Ok(true)
        }
        Ok(Command::Contract) => {
            print!("{}", report::contract_json());
            Ok(true)
        }
        Ok(Command::All { seed, seconds }) => all(seed, seconds),
        Ok(Command::One { opts, trace_out }) => one(&opts, trace_out.as_deref()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("bpush-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
