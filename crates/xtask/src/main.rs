//! Command-line entry point for the workspace's static-analysis pass,
//! model checker, traced run and abort forensics.
//!
//! Usage (via the repo's cargo alias):
//!
//! * `cargo xtask lint [--root <dir>] [--json]` — run the rule catalog;
//!   exits non-zero when any rule fires.
//! * `cargo xtask mc [--scope ci|default] [--protocol <name>] [--json]`
//!   — exhaustively model-check the protocols at a small scope; exits
//!   non-zero when any protocol commits a non-serializable readset.
//! * `cargo xtask trace [--method <name>] [--quick] [--json]
//!   [--out-dir <dir>]` — run one fixed-seed traced simulation and
//!   write `trace.json` (chrome `trace_event`, Perfetto-loadable),
//!   `trace.ndjson`, and the `bpush-trace-v1` `metrics.json`.
//! * `cargo xtask explain <file> [--json]` — abort forensics: walk a
//!   flight-recorder capture (`bpush-capture-v1`) or a traced run's
//!   `metrics.json` and print the causal chain behind the trigger.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <command>

commands:
  lint [--root <workspace-root>] [--rule <code>] [--changed]
       [--workers <n>] [--budget-ms <n>] [--json]
      Runs the bpush rule catalog (L0/annotation through L15/overflow:
      panic, determinism, crate-attrs, conformance, locks, casts,
      stdout, hot-alloc, sans-io, lock-order, taint, panic-reach,
      state-total, decode-bounds, overflow) over every crate under
      <root>/crates and exits non-zero if any rule fires.
      --rule restricts the findings to one rule (given by code, e.g.
      `L8/hot-alloc`, or by allow-name, e.g. `hot-alloc`); --changed
      restricts the file-scoped rules to files touched per git (the
      interprocedural rules still see the whole graph) for a fast
      pre-commit loop; --workers overrides the thread count of the
      per-file pass (the report is identical for any value);
      --budget-ms fails the run when the single-pass micro-timings
      exceed the given wall-time ceiling; --json prints the full
      report (findings, per-rule suppression counts, timings).
  mc [--scope ci|default] [--protocol <name>] [--wire-fed] [--json]
     [--replay <file> [--trace <path>]]
      Exhaustively enumerates bounded executions for every processing
      method (default scope: `default`), validates each committed
      readset, and exits non-zero on any serializability violation,
      printing the minimized replayable counterexample. With --wire-fed
      every client hears its control reports through the wire codec
      (encode → framed bytes → decode) instead of in-memory structs; at
      the ci scope a wire-fed cross-check of one method runs even
      without the flag and fails the command if the wire-fed report is
      not bit-identical to the struct-fed one. With --replay, re-runs
      one serialized mc-schedule file instead; --trace additionally
      writes the replay's chrome trace_event JSON.
  trace [--method <name>] [--quick] [--json] [--out-dir <dir>]
      Runs one fixed-seed traced simulation of <name> (default: sgt)
      and writes trace.json (chrome trace_event format — load it in
      Perfetto or chrome://tracing), trace.ndjson (one event per line),
      and metrics.json (the all-integer bpush-trace-v1 report) under
      <dir> (default: the workspace root). Two invocations with the
      same flags produce byte-identical files; `--json` additionally
      prints the metrics report to stdout.
  explain <file> [--json]
      Abort forensics: sniffs <file> as either a flight-recorder
      capture (bpush-capture-v1) or a traced run's metrics.json
      (bpush-trace-v1) and prints the causal chain — the violating
      invalidation-report entry, the conflicting write's cycle, the
      cycle distance, and the method-specific rule that fired (or, for
      a trace, the counter-based abort breakdown). `--json` emits the
      single-line bpush-explain-v1 document instead.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("xtask: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("mc") => mc(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("help") | Some("--help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n{USAGE}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn lint(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut rule: Option<xtask::Rule> = None;
    let mut changed = false;
    let mut workers: Option<usize> = None;
    let mut budget_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err("--root needs a directory argument".into()),
            },
            "--rule" => match it.next() {
                Some(name) => {
                    rule = Some(xtask::Rule::parse(name).ok_or_else(|| {
                        format!("unknown rule `{name}` (use a code like L8/hot-alloc)")
                    })?);
                }
                None => return Err("--rule needs a rule code argument".into()),
            },
            "--changed" => changed = true,
            "--workers" => match it.next() {
                Some(n) => {
                    workers = Some(
                        n.parse()
                            .map_err(|_| format!("--workers needs a thread count, got `{n}`"))?,
                    );
                }
                None => return Err("--workers needs a thread count argument".into()),
            },
            "--budget-ms" => match it.next() {
                Some(n) => {
                    budget_ms = Some(
                        n.parse()
                            .map_err(|_| format!("--budget-ms needs a number, got `{n}`"))?,
                    );
                }
                None => return Err("--budget-ms needs a millisecond ceiling argument".into()),
            },
            "--json" => json = true,
            other => return Err(format!("unknown lint option `{other}`\n{USAGE}").into()),
        }
    }
    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };

    let mut report = xtask::lint_workspace_report_with_workers(
        &root,
        workers.unwrap_or_else(xtask::default_workers),
    )?;
    if let Some(rule) = rule {
        report.diagnostics.retain(|d| d.rule == rule);
    }
    if changed {
        let touched = git_changed_files(&root)?;
        report
            .diagnostics
            .retain(|d| !d.rule.file_scoped() || touched.contains(&d.file));
    }
    let total_ns = report
        .timing
        .read_ns
        .saturating_add(report.timing.lex_ns)
        .saturating_add(report.timing.index_ns)
        .saturating_add(report.timing.rules_ns);
    let over_budget = budget_ms.is_some_and(|ms| total_ns > ms.saturating_mul(1_000_000));
    if json {
        println!("{}", xtask::report_to_json(&report));
    } else if report.clean() {
        let suppressed: usize = report.suppressions.iter().map(|(_, n)| n).sum();
        println!(
            "xtask lint: clean — {} files under {} satisfy the rule catalog \
             ({} allow annotations; read {}us, lex {}us, index {}us, rules {}us \
             on {} workers)",
            report.files,
            root.join("crates").display(),
            suppressed,
            report.timing.read_ns / 1_000,
            report.timing.lex_ns / 1_000,
            report.timing.index_ns / 1_000,
            report.timing.rules_ns / 1_000,
            report.timing.workers,
        );
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        eprintln!(
            "xtask lint: {} violation{} found",
            report.diagnostics.len(),
            if report.diagnostics.len() == 1 {
                ""
            } else {
                "s"
            }
        );
    }
    if over_budget {
        eprintln!(
            "xtask lint: over budget — single pass took {}ms, ceiling is {}ms",
            total_ns / 1_000_000,
            budget_ms.unwrap_or_default(),
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Workspace-relative paths of files git considers touched: anything
/// differing from HEAD plus untracked files — the `--changed` scope.
fn git_changed_files(
    root: &std::path::Path,
) -> Result<std::collections::BTreeSet<PathBuf>, Box<dyn std::error::Error>> {
    let mut touched = std::collections::BTreeSet::new();
    for args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .map_err(|e| format!("--changed needs git on PATH: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed under {}: {}",
                args.join(" "),
                root.display(),
                String::from_utf8_lossy(&out.stderr).trim()
            )
            .into());
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if !line.is_empty() {
                touched.insert(PathBuf::from(line));
            }
        }
    }
    Ok(touched)
}

fn mc(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut scope = bpush_mc::Scope::default();
    let mut json = false;
    let mut wire_fed = false;
    let mut protocols: Vec<bpush_mc::ProtocolSpec> = Vec::new();
    let mut replay: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--wire-fed" => wire_fed = true,
            "--replay" => match it.next() {
                Some(path) => replay = Some(PathBuf::from(path)),
                None => return Err("--replay needs an mc-schedule file argument".into()),
            },
            "--trace" => match it.next() {
                Some(path) => trace_out = Some(PathBuf::from(path)),
                None => return Err("--trace needs an output file argument".into()),
            },
            "--scope" => match it.next() {
                Some(name) => {
                    scope = bpush_mc::Scope::parse(name)
                        .ok_or_else(|| format!("unknown scope `{name}` (ci, default)"))?;
                }
                None => return Err("--scope needs a preset name (ci, default)".into()),
            },
            "--protocol" => match it.next() {
                Some(name) => {
                    protocols.push(
                        bpush_mc::ProtocolSpec::parse(name)
                            .ok_or_else(|| format!("unknown protocol `{name}`"))?,
                    );
                }
                None => return Err("--protocol needs a method name".into()),
            },
            "--json" => json = true,
            other => return Err(format!("unknown mc option `{other}`\n{USAGE}").into()),
        }
    }
    if let Some(path) = replay {
        return mc_replay(&path, trace_out.as_deref());
    }
    if trace_out.is_some() {
        return Err("--trace is only meaningful together with --replay".into());
    }
    if protocols.is_empty() {
        protocols = bpush_mc::ProtocolSpec::genuine();
    }
    let feed = if wire_fed {
        bpush_mc::FeedMode::Wire
    } else {
        bpush_mc::FeedMode::Struct
    };
    let off = bpush_obs::Obs::off();
    let reports = protocols
        .iter()
        .map(|spec| bpush_mc::check_spec_with(*spec, &scope, &off, feed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut passed = reports.iter().all(bpush_mc::McReport::passed);
    if json {
        println!("{}", bpush_mc::render_json(&scope, &reports));
    } else {
        print!("{}", bpush_mc::render_text(&scope, &reports));
    }
    // At the ci scope, a struct-fed run additionally cross-checks one
    // method wire-fed: the wire codec must not change the report.
    if !wire_fed && scope.preset_name() == Some("ci") {
        let spec = protocols
            .iter()
            .copied()
            .find(|s| s.name() == "sgt")
            .unwrap_or(protocols[0]);
        let struct_report = reports
            .iter()
            .find(|r| r.spec == spec)
            .ok_or("ci cross-check lost its struct-fed report")?;
        let wire_report = bpush_mc::check_spec_with(spec, &scope, &off, bpush_mc::FeedMode::Wire)?;
        let identical = wire_report.executions == struct_report.executions
            && wire_report.committed == struct_report.committed
            && wire_report.aborted == struct_report.aborted
            && wire_report.distinct_states == struct_report.distinct_states
            && wire_report.passed() == struct_report.passed();
        if identical {
            if !json {
                println!(
                    "wire-fed cross-check: {spec} — bit-identical \
                     ({} executions, {} distinct states)",
                    wire_report.executions, wire_report.distinct_states
                );
            }
        } else {
            eprintln!(
                "wire-fed cross-check FAILED: {spec} — wire-fed report diverged \
                 from the struct-fed run (codec divergence)"
            );
            passed = false;
        }
    }
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Replays one serialized mc-schedule file, optionally writing the
/// replay's chrome trace_event JSON to `trace_out`. Exits non-zero when
/// the replayed query commits a readset that violates serializability.
fn mc_replay(
    path: &std::path::Path,
    trace_out: Option<&std::path::Path>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let (spec, schedule) = bpush_mc::Schedule::parse(&text)?;
    let obs = if trace_out.is_some() {
        bpush_obs::Obs::recording(bpush_obs::DEFAULT_CAPACITY)
    } else {
        bpush_obs::Obs::off()
    };
    let exec = bpush_mc::run_schedule_with(spec, &schedule, &obs, bpush_mc::FeedMode::Struct)?;
    if let (Some(out), Some(snapshot)) = (trace_out, obs.snapshot()) {
        std::fs::write(out, bpush_obs::export::chrome_trace(&snapshot))?;
        println!("wrote {}", out.display());
    }
    println!(
        "mc replay: {spec} — {} ({} reads{})",
        if exec.committed {
            "committed".to_string()
        } else {
            format!("aborted: {:?}", exec.abort)
        },
        exec.reads.len(),
        match &exec.violation {
            Some(v) => format!("; VIOLATION: {v}"),
            None => String::new(),
        }
    );
    Ok(if exec.violation.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn trace(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut method = bpush_core::Method::Sgt;
    let mut quick = false;
    let mut json = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--method" => match it.next() {
                Some(name) => {
                    method = bpush_core::Method::ALL
                        .iter()
                        .copied()
                        .find(|m| m.name() == name)
                        .ok_or_else(|| format!("unknown method `{name}`"))?;
                }
                None => return Err("--method needs a method name".into()),
            },
            "--quick" => quick = true,
            "--json" => json = true,
            "--out-dir" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return Err("--out-dir needs a directory argument".into()),
            },
            other => return Err(format!("unknown trace option `{other}`\n{USAGE}").into()),
        }
    }
    let dir = match out_dir {
        Some(d) => d,
        None => find_workspace_root()?,
    };
    std::fs::create_dir_all(&dir)?;

    let report = xtask::trace::run_trace(method, quick)?;
    let chrome = bpush_obs::export::chrome_trace(&report.snapshot);
    let ndjson = bpush_obs::export::ndjson(&report.snapshot);
    let metrics = xtask::trace::render_metrics_json(&report);
    std::fs::write(dir.join("trace.json"), &chrome)?;
    std::fs::write(dir.join("trace.ndjson"), &ndjson)?;
    std::fs::write(dir.join("metrics.json"), format!("{metrics}\n"))?;
    if json {
        println!("{metrics}");
    } else {
        print!("{}", xtask::trace::render_text(&report));
    }
    println!(
        "wrote {}, {}, {}",
        dir.join("trace.json").display(),
        dir.join("trace.ndjson").display(),
        dir.join("metrics.json").display()
    );
    Ok(ExitCode::SUCCESS)
}

fn explain(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut json = false;
    let mut file: Option<PathBuf> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown explain option `{other}`\n{USAGE}").into());
            }
            path => {
                if file.replace(PathBuf::from(path)).is_some() {
                    return Err("explain takes exactly one input file".into());
                }
            }
        }
    }
    let Some(path) = file else {
        return Err(format!("explain needs a capture or metrics.json file\n{USAGE}").into());
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let explanation = xtask::explain::explain(&text)?;
    if json {
        println!("{}", xtask::explain::render_json(&explanation));
    } else {
        print!("{}", xtask::explain::render_text(&explanation));
    }
    Ok(ExitCode::SUCCESS)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, Box<dyn std::error::Error>> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory \
                        (pass --root explicitly)"
                .into());
        }
    }
}
