//! bpush's project-specific static-analysis pass.
//!
//! Run it as `cargo run -p xtask -- lint` (or `cargo xtask lint` via the
//! repo's cargo alias). The pass walks every workspace crate under
//! `crates/` and enforces a catalog of invariants that generic tooling
//! cannot express:
//!
//! | code | rule |
//! |------|------|
//! | `L0/annotation` | the escape-hatch annotation itself must be well-formed |
//! | `L1/panic` | no `unwrap`/`expect`/`panic!` family in non-test first-party code |
//! | `L2/determinism` | the protocol crates (`sgraph`, `core`, `client`, `server`, `broadcast`) must stay bit-for-bit deterministic: no ambient RNG, no wall clocks, no hash-ordered collections |
//! | `L3/crate-attrs` | every crate root carries `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` |
//! | `L4/conformance` | every `ReadOnlyProtocol` impl is exercised by the `bpush-core` conformance battery from some `tests/` file |
//! | `L5/locks` | `parking_lot` is the workspace lock standard; `std::sync` `Mutex`/`RwLock` are rejected |
//! | `L6/casts` | no lossy `as` narrowing of numerics in the deterministic crates; convert with `From`/`TryFrom` instead |
//! | `L7/stdout` | no `println!`/`eprintln!` family in the deterministic crates; observations go through the `bpush-obs` sink |
//! | `L8/hot-alloc` | functions annotated `// bpush-lint: hot_path` must not *transitively* reach allocating constructs (`Box::new`, `Vec::push`, `format!`, `collect`, …) |
//! | `L9/sans-io` | files declared `// bpush-lint: sans_io` (the protocol core) must not transitively reach clocks, threads, channels, filesystem, or sockets |
//! | `L10/lock-order` | the workspace lock-acquisition graph must be acyclic (deadlock freedom) |
//! | `L11/taint` | token-level determinism taint: renamed imports and cross-crate call chains cannot smuggle `Instant`/`HashMap`-style constructs into the deterministic crates past L2's text match |
//! | `L12/panic-reach` | nothing reachable from a `hot_path` or `sans_io` entry point may hit an implicit panic site (indexing, slicing, non-constant division, `unreachable!`) |
//! | `L13/state-total` | matches over `protocol_enum`-marked enums must name every variant — wildcard `_` and catch-all binding arms are banned |
//! | `L14/decode-bounds` | files marked `decode_path` may only touch input bytes through checked `take_*` accessors — no raw indexing/slicing |
//! | `L15/overflow` | arithmetic on tick/cycle/id-typed values must be checked/wrapping/saturating or carry an annotated justification |
//!
//! Rules L0–L7 are line-level; L8–L15 are interprocedural dataflow
//! rules, built on the token stream from [`lex`], the item index from
//! [`items`], and the workspace call graph from [`callgraph`] (see
//! [`analysis`] for the drivers). Every file is read, lexed, and
//! indexed exactly once per run — in parallel across `std::thread`
//! workers with deterministic path-sorted output — and all sixteen
//! rules share that pass; `--json` reports the per-phase micro-timings.
//!
//! # Escape hatch
//!
//! A violation can be waived in place with a line comment of the form
//! `lint: allow(panic) — reason the construct is sound here`, either at
//! the end of the offending line or alone on the line directly above it.
//! The rule name goes in the parentheses (`panic`, `determinism`,
//! `crate-attrs`, `conformance`, `locks`, `casts`, `stdout`,
//! `hot-alloc`, `sans-io`, `lock-order`, `taint`, `panic-reach`,
//! `state-total`, `decode-bounds`, or `overflow`; comma-separated for
//! more than one) and the trailing reason is mandatory — an annotation
//! with no reason, or naming an unknown rule, is itself reported as
//! `L0/annotation`. `lint --json` publishes the per-rule suppression
//! counts so the escape-hatch budget is visible (and pinned by a test).
//!
//! # Contract annotations
//!
//! * `// bpush-lint: hot_path` above (or on) a `fn` marks it as an L8
//!   contract holder: nothing it transitively calls may allocate.
//! * `// bpush-lint: sans_io` anywhere in a file declares the whole file
//!   protocol-core for L9 (its functions also become L12 entry points).
//! * `// bpush-lint: protocol_enum` above (or on) an `enum` makes every
//!   match over it an L13 exhaustiveness contract.
//! * `// bpush-lint: decode_path` anywhere in a file bans raw byte
//!   indexing in it for L14.
//!
//! # How matching works
//!
//! Sources are scanned after a lexical pass that strips comments and
//! blanks out the *contents* of string literals (delimiters are kept).
//! Rules therefore never fire on prose, doc-test examples, or needles
//! quoted inside strings — which is also what lets this crate lint
//! itself. `#[cfg(test)]` regions are excluded by brace counting on the
//! stripped text.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod callgraph;
pub mod explain;
pub mod items;
pub mod jsonv;
pub mod lex;
pub mod trace;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lex::{lex_tokens, split_source, test_mask, SplitLine};

/// Identifier of one rule in the lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `L0/annotation`: an escape-hatch annotation is malformed.
    Annotation,
    /// `L1/panic`: panic path in non-test first-party code.
    Panic,
    /// `L2/determinism`: non-deterministic construct in a protocol crate.
    Determinism,
    /// `L3/crate-attrs`: crate root is missing a mandatory attribute.
    CrateAttrs,
    /// `L4/conformance`: a `ReadOnlyProtocol` impl escapes the battery.
    Conformance,
    /// `L5/locks`: `std::sync` lock where `parking_lot` is the standard.
    Locks,
    /// `L6/casts`: lossy `as` numeric cast in a deterministic crate.
    Casts,
    /// `L7/stdout`: `println!`-family output in a deterministic crate.
    Stdout,
    /// `L8/hot-alloc`: a `hot_path` fn transitively allocates.
    HotAlloc,
    /// `L9/sans-io`: a `sans_io` file transitively touches the outside world.
    SansIo,
    /// `L10/lock-order`: the lock-acquisition graph has a cycle.
    LockOrder,
    /// `L11/taint`: determinism taint smuggled past L2's text match.
    Taint,
    /// `L12/panic-reach`: an implicit panic site is reachable from a
    /// `hot_path`/`sans_io` entry point.
    PanicReach,
    /// `L13/state-total`: a match over a protocol enum hides variants
    /// behind a wildcard or catch-all arm.
    StateTotal,
    /// `L14/decode-bounds`: raw byte indexing in a decode-path file.
    DecodeBounds,
    /// `L15/overflow`: unchecked arithmetic on a tick-typed value.
    Overflow,
}

/// Every rule, in catalog order (the order `suppressions` reports in).
pub const ALL_RULES: &[Rule] = &[
    Rule::Annotation,
    Rule::Panic,
    Rule::Determinism,
    Rule::CrateAttrs,
    Rule::Conformance,
    Rule::Locks,
    Rule::Casts,
    Rule::Stdout,
    Rule::HotAlloc,
    Rule::SansIo,
    Rule::LockOrder,
    Rule::Taint,
    Rule::PanicReach,
    Rule::StateTotal,
    Rule::DecodeBounds,
    Rule::Overflow,
];

impl Rule {
    /// Stable diagnostic code printed in front of every finding.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Annotation => "L0/annotation",
            Rule::Panic => "L1/panic",
            Rule::Determinism => "L2/determinism",
            Rule::CrateAttrs => "L3/crate-attrs",
            Rule::Conformance => "L4/conformance",
            Rule::Locks => "L5/locks",
            Rule::Casts => "L6/casts",
            Rule::Stdout => "L7/stdout",
            Rule::HotAlloc => "L8/hot-alloc",
            Rule::SansIo => "L9/sans-io",
            Rule::LockOrder => "L10/lock-order",
            Rule::Taint => "L11/taint",
            Rule::PanicReach => "L12/panic-reach",
            Rule::StateTotal => "L13/state-total",
            Rule::DecodeBounds => "L14/decode-bounds",
            Rule::Overflow => "L15/overflow",
        }
    }

    /// Name accepted inside the parentheses of an allow annotation.
    pub fn allow_name(self) -> &'static str {
        match self {
            Rule::Annotation => "annotation",
            Rule::Panic => "panic",
            Rule::Determinism => "determinism",
            Rule::CrateAttrs => "crate-attrs",
            Rule::Conformance => "conformance",
            Rule::Locks => "locks",
            Rule::Casts => "casts",
            Rule::Stdout => "stdout",
            Rule::HotAlloc => "hot-alloc",
            Rule::SansIo => "sans-io",
            Rule::LockOrder => "lock-order",
            Rule::Taint => "taint",
            Rule::PanicReach => "panic-reach",
            Rule::StateTotal => "state-total",
            Rule::DecodeBounds => "decode-bounds",
            Rule::Overflow => "overflow",
        }
    }

    /// Parses a rule from its `code()` or its `allow_name()` (what
    /// `cargo xtask lint --rule` accepts).
    pub fn parse(name: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.code() == name || r.allow_name() == name)
    }

    fn from_allow_name(name: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::Annotation)
            .find(|r| r.allow_name() == name)
    }

    /// Whether every finding of this rule is attributable to the file
    /// it is reported in — the rules `lint --changed` can scope to the
    /// touched files. The interprocedural reachability rules (L4, L8,
    /// L9, L10, L11, L12) can blame a file for an edit elsewhere, so
    /// they always see the whole graph.
    pub fn file_scoped(self) -> bool {
        !matches!(
            self,
            Rule::Conformance
                | Rule::HotAlloc
                | Rule::SansIo
                | Rule::LockOrder
                | Rule::Taint
                | Rule::PanicReach
        )
    }
}

/// One finding: a rule violated at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Path of the offending file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number of the finding.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} — {}",
            self.rule.code(),
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// Failure to *run* the pass (I/O trouble, not a workspace, ...), as
/// opposed to findings, which are [`Diagnostic`]s.
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io {
        /// The path that could not be read.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The given root has no `crates/` directory with any crates in it.
    NotAWorkspace(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            LintError::NotAWorkspace(root) => write!(
                f,
                "{} does not look like the workspace root (no crates/*/Cargo.toml)",
                root.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Crates whose sources must be bit-for-bit deterministic (rule L2):
/// everything on the simulated protocol path, identified by directory
/// name under `crates/`.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sgraph",
    "core",
    "client",
    "server",
    "broadcast",
    "mc",
    "obs",
];

const PANIC_NEEDLES: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

const DETERMINISM_NEEDLES: &[&str] = &[
    "thread_rng",
    "SystemTime::now",
    "Instant::now",
    "HashMap",
    "HashSet",
];

/// Targets for which an `as` cast can silently drop bits (or, for
/// `f32`, precision). Widening targets (`u64`, `i64`, `usize`, `f64`)
/// are exempt: on every supported platform they cannot lose integer
/// information that the protocol crates put into them.
const NARROWING_CAST_NEEDLES: &[&str] = &[
    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32", " as f32",
];

/// Longest-first so the reported needle is the macro actually written
/// (`println!(` is a substring of `eprintln!(`).
const STDOUT_NEEDLES: &[&str] = &["eprintln!(", "println!(", "eprint!(", "print!("];

const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
const DENY_MISSING_DOCS: &str = "#![deny(missing_docs)]";

/// Lists the workspace crates under `root/crates`, sorted by name.
///
/// # Errors
/// Fails if the `crates/` directory cannot be read, or contains no
/// crate (a directory with a `Cargo.toml`).
pub fn workspace_crates(root: &Path) -> Result<Vec<(String, PathBuf)>, LintError> {
    let crates_dir = root.join("crates");
    let mut found = Vec::new();
    for entry in read_dir_sorted(&crates_dir)? {
        if entry.join("Cargo.toml").is_file() {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            found.push((name, entry));
        }
    }
    if found.is_empty() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    Ok(found)
}

/// Micro-timings of the shared single pass, in nanoseconds. The
/// per-file phases (`read`, `lex`, `index`) run on `workers` threads
/// and are summed across them (CPU time, not wall time); `rules_ns` is
/// the wall time of the single-threaded rules phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintTiming {
    /// Time spent reading source files off disk.
    pub read_ns: u64,
    /// Time spent in the lexical pass (split + tokenize), once per file.
    pub lex_ns: u64,
    /// Time spent building the per-file item indexes.
    pub index_ns: u64,
    /// Time spent running all sixteen rules over the shared pass.
    pub rules_ns: u64,
    /// Worker threads the per-file phases ran on.
    pub workers: usize,
}

/// The full result of one lint run: findings plus the summary facts the
/// self-tests pin.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings, sorted by file, line, then rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files analyzed.
    pub files: usize,
    /// Micro-timings of the shared pass.
    pub timing: LintTiming,
    /// Count of `lint: allow(…)` mentions per rule, in [`ALL_RULES`]
    /// order — the escape-hatch budget.
    pub suppressions: Vec<(Rule, usize)>,
    /// Every `crate::fn` carrying the `hot_path` annotation (L8 set).
    pub hot_functions: Vec<String>,
    /// Every file declaring `sans_io` (L9 surface), workspace-relative.
    pub sans_io_files: Vec<String>,
    /// Every enum carrying the `protocol_enum` annotation (L13 set).
    pub protocol_enums: Vec<String>,
    /// Every file declaring `decode_path` (L14 surface), workspace-relative.
    pub decode_files: Vec<String>,
}

impl LintReport {
    /// Whether the workspace lints clean.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the whole catalog over every crate under `root/crates`,
/// returning the findings sorted by file, line, then rule.
///
/// An empty result means the workspace is clean.
///
/// # Errors
/// Propagates I/O failures; findings are *not* errors.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    lint_workspace_report(root).map(|r| r.diagnostics)
}

/// One source file after the shared read + lex pass. All twelve rules
/// consume this record; nothing re-reads or re-tokenizes.
struct FileRecord {
    crate_name: String,
    rel: PathBuf,
    is_crate_root: bool,
    lines: Vec<SplitLine>,
    mask: Vec<bool>,
    allows: Vec<BTreeSet<Rule>>,
    malformed: Vec<(usize, String)>,
    allow_counts: Vec<(Rule, usize)>,
}

/// Runs the whole catalog and returns the full [`LintReport`] —
/// findings, suppression budget, timings, and the L8/L9/L13/L14
/// surfaces. The per-file read + lex + index phases run across the
/// default worker count (see [`default_workers`]).
///
/// # Errors
/// Propagates I/O failures; findings are *not* errors.
pub fn lint_workspace_report(root: &Path) -> Result<LintReport, LintError> {
    lint_workspace_report_with_workers(root, default_workers())
}

/// Worker threads the per-file phases run on by default: the machine's
/// available parallelism, capped at 8 (the pass saturates well before
/// that on this workspace's file count).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// One prepared source file: the shared record plus its item index.
type Prepared = (FileRecord, items::FileIndex);

/// Reads, lexes, and indexes one source file, accumulating the phase
/// timings. This is the per-file unit of work the workers run.
fn prepare_file(
    root: &Path,
    name: &str,
    file: &Path,
    is_crate_root: bool,
    read_ns: &mut u64,
    lex_ns: &mut u64,
    index_ns: &mut u64,
) -> Result<Prepared, LintError> {
    let t0 = Instant::now();
    let text = read_file(file)?;
    *read_ns = read_ns.saturating_add(elapsed_ns(t0));

    let t1 = Instant::now();
    let lines = split_source(&text);
    let tokens = lex_tokens(&lines);
    *lex_ns = lex_ns.saturating_add(elapsed_ns(t1));

    let mask = test_mask(&lines);
    let (allows, malformed, allow_counts) = collect_allows(&lines);
    let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();

    let t2 = Instant::now();
    let index = items::index_file(name, &rel, &lines, &mask, &tokens, &allows);
    *index_ns = index_ns.saturating_add(elapsed_ns(t2));

    let rec = FileRecord {
        crate_name: name.to_string(),
        rel,
        is_crate_root,
        lines,
        mask,
        allows,
        malformed,
        allow_counts,
    };
    Ok((rec, index))
}

/// [`lint_workspace_report`] with an explicit worker count for the
/// per-file phases. The file list is enumerated serially in sorted
/// order, split into contiguous chunks, and reassembled by position, so
/// the report is byte-identical for every worker count (pinned by a
/// test).
///
/// # Errors
/// Propagates I/O failures; findings are *not* errors.
pub fn lint_workspace_report_with_workers(
    root: &Path,
    workers: usize,
) -> Result<LintReport, LintError> {
    let crates = workspace_crates(root)?;
    let deps = callgraph::DepMap::load(&crates)?;

    // Serial enumeration: the path-sorted work list that fixes the
    // output order regardless of worker count.
    let mut sources: Vec<(String, PathBuf, bool)> = Vec::new();
    let mut evidence_files: Vec<PathBuf> = Vec::new();
    for (name, path) in &crates {
        let src = path.join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            walk_rs(&src, &mut files)?;
            let root_file = crate_root_file(&src);
            for file in files {
                let is_root = Some(file.as_path()) == root_file.as_deref();
                sources.push((name.clone(), file, is_root));
            }
        }
        let tests = path.join("tests");
        if tests.is_dir() {
            walk_rs(&tests, &mut evidence_files)?;
        }
    }

    let mut timing = LintTiming::default();
    let workers = workers.clamp(1, sources.len().max(1));
    timing.workers = workers;
    let chunk = sources.len().div_ceil(workers.max(1)).max(1);

    let mut slots: Vec<Option<Prepared>> = Vec::new();
    slots.resize_with(sources.len(), || None);
    let worker_results: Vec<Result<(u64, u64, u64), LintError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(chunk)
            .zip(sources.chunks(chunk))
            .map(|(out, work)| {
                scope.spawn(move || {
                    let (mut read_ns, mut lex_ns, mut index_ns) = (0u64, 0u64, 0u64);
                    for (slot, (name, file, is_root)) in out.iter_mut().zip(work) {
                        *slot = Some(prepare_file(
                            root,
                            name,
                            file,
                            *is_root,
                            &mut read_ns,
                            &mut lex_ns,
                            &mut index_ns,
                        )?);
                    }
                    Ok((read_ns, lex_ns, index_ns))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    for result in worker_results {
        let (read_ns, lex_ns, index_ns) = result?;
        timing.read_ns = timing.read_ns.saturating_add(read_ns);
        timing.lex_ns = timing.lex_ns.saturating_add(lex_ns);
        timing.index_ns = timing.index_ns.saturating_add(index_ns);
    }

    let t0 = Instant::now();
    let mut evidence: Vec<String> = Vec::new();
    for file in &evidence_files {
        evidence.push(read_file(file)?);
    }
    timing.read_ns = timing.read_ns.saturating_add(elapsed_ns(t0));

    let mut records: Vec<FileRecord> = Vec::with_capacity(slots.len());
    let mut indexes: Vec<items::FileIndex> = Vec::with_capacity(slots.len());
    // Every slot was filled or its worker's error already returned.
    for (rec, index) in slots.into_iter().flatten() {
        records.push(rec);
        indexes.push(index);
    }

    let t2 = Instant::now();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut impls: Vec<ProtocolImpl> = Vec::new();
    for rec in &records {
        lint_record(rec, &mut diags, &mut impls);
    }

    // Rule L4: every impl needs a tests/ file naming the type alongside
    // the conformance battery.
    for imp in &impls {
        if imp.allowed {
            continue;
        }
        let covered = evidence
            .iter()
            .any(|text| text.contains(&imp.type_name) && text.contains("conformance"));
        if !covered {
            diags.push(Diagnostic {
                rule: Rule::Conformance,
                file: imp.file.clone(),
                line: imp.line,
                message: format!(
                    "`{}` implements ReadOnlyProtocol but no tests/ file runs it \
                     through the bpush-core conformance battery",
                    imp.type_name
                ),
            });
        }
    }

    // Rules L8–L15: the interprocedural pass over the shared index.
    let summary = analysis::run(&indexes, &deps, &mut diags);

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    timing.rules_ns = elapsed_ns(t2);

    let mut suppressions: Vec<(Rule, usize)> = ALL_RULES.iter().map(|r| (*r, 0)).collect();
    for rec in &records {
        for (rule, n) in &rec.allow_counts {
            if let Some(slot) = suppressions.iter_mut().find(|(r, _)| r == rule) {
                slot.1 += n;
            }
        }
    }

    Ok(LintReport {
        diagnostics: diags,
        files: records.len(),
        timing,
        suppressions,
        hot_functions: summary.hot_functions,
        sans_io_files: summary.sans_io_files,
        protocol_enums: summary.protocol_enums,
        decode_files: summary.decode_files,
    })
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A `ReadOnlyProtocol` impl discovered in non-test code.
struct ProtocolImpl {
    type_name: String,
    file: PathBuf,
    line: usize,
    allowed: bool,
}

/// The line-level rules (L0–L3, L5–L7) over one prepared record.
fn lint_record(rec: &FileRecord, diags: &mut Vec<Diagnostic>, impls: &mut Vec<ProtocolImpl>) {
    let rel = &rec.rel;
    for (line, message) in &rec.malformed {
        diags.push(Diagnostic {
            rule: Rule::Annotation,
            file: rel.clone(),
            line: *line,
            message: message.clone(),
        });
    }

    // Rule L3: mandatory crate-root attributes.
    if rec.is_crate_root {
        for attr in [FORBID_UNSAFE, DENY_MISSING_DOCS] {
            let present = rec.lines.iter().any(|l| l.code.contains(attr));
            if !present {
                diags.push(Diagnostic {
                    rule: Rule::CrateAttrs,
                    file: rel.clone(),
                    line: 1,
                    message: format!("crate root is missing `{attr}`"),
                });
            }
        }
    }

    let deterministic = DETERMINISTIC_CRATES.contains(&rec.crate_name.as_str());

    for (idx, line) in rec.lines.iter().enumerate() {
        if rec.mask[idx] {
            continue;
        }
        let lineno = idx + 1;
        let code = &line.code;
        let allowed = &rec.allows[idx];

        // Rule L1: panic-freedom.
        if !allowed.contains(&Rule::Panic) {
            if let Some(needle) = PANIC_NEEDLES.iter().find(|n| code.contains(**n)) {
                diags.push(Diagnostic {
                    rule: Rule::Panic,
                    file: rel.clone(),
                    line: lineno,
                    message: format!(
                        "panic path `{}` in non-test code; return a `Result` via \
                         bpush_types::error or annotate with a reason",
                        needle.trim_end_matches('(')
                    ),
                });
            }
        }

        // Rule L2: determinism in the protocol crates.
        if deterministic && !allowed.contains(&Rule::Determinism) {
            if let Some(needle) = DETERMINISM_NEEDLES.iter().find(|n| code.contains(**n)) {
                diags.push(Diagnostic {
                    rule: Rule::Determinism,
                    file: rel.clone(),
                    line: lineno,
                    message: format!(
                        "non-deterministic construct `{needle}` in deterministic crate \
                         `{}`; use seeded rand and BTree collections",
                        rec.crate_name
                    ),
                });
            }
        }

        // Rule L6: lossy numeric casts in the deterministic crates.
        if deterministic && !allowed.contains(&Rule::Casts) {
            if let Some(needle) = NARROWING_CAST_NEEDLES
                .iter()
                .find(|n| cast_matches(code, n))
            {
                diags.push(Diagnostic {
                    rule: Rule::Casts,
                    file: rel.clone(),
                    line: lineno,
                    message: format!(
                        "lossy `{}` cast in deterministic crate `{}`; convert with \
                         `From`/`TryFrom` or annotate with a reason",
                        needle.trim_start(),
                        rec.crate_name
                    ),
                });
            }
        }

        // Rule L7: no direct terminal output in the deterministic
        // crates — observations belong in the bpush-obs sink, where
        // they stay replayable and cost nothing when disabled.
        if deterministic && !allowed.contains(&Rule::Stdout) {
            if let Some(needle) = STDOUT_NEEDLES.iter().find(|n| code.contains(**n)) {
                diags.push(Diagnostic {
                    rule: Rule::Stdout,
                    file: rel.clone(),
                    line: lineno,
                    message: format!(
                        "`{}` in deterministic crate `{}`; emit through the bpush-obs \
                         sink (or annotate with a reason)",
                        needle.trim_end_matches('('),
                        rec.crate_name
                    ),
                });
            }
        }

        // Rule L5: std::sync locks.
        if !allowed.contains(&Rule::Locks)
            && code.contains("std::sync")
            && (code.contains("Mutex") || code.contains("RwLock"))
        {
            diags.push(Diagnostic {
                rule: Rule::Locks,
                file: rel.clone(),
                line: lineno,
                message: "std::sync lock primitive; parking_lot is the workspace standard"
                    .to_string(),
            });
        }

        // Collect ReadOnlyProtocol impls for rule L4.
        if code.contains("impl") {
            if let Some(type_name) = protocol_impl_target(code) {
                impls.push(ProtocolImpl {
                    type_name,
                    file: rel.clone(),
                    line: lineno,
                    allowed: allowed.contains(&Rule::Conformance),
                });
            }
        }
    }
}

/// Whether `code` contains the cast `needle` as a whole token — i.e. not
/// as a prefix of a wider type name (`as u32` must not fire on
/// `as u32x4`-style identifiers).
fn cast_matches(code: &str, needle: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find(needle) {
        let after = rest[pos + needle.len()..].chars().next();
        if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        rest = &rest[pos + needle.len()..];
    }
    false
}

/// Extracts `Name` from an `impl ... ReadOnlyProtocol for Name<...>` line.
fn protocol_impl_target(code: &str) -> Option<String> {
    let marker = "ReadOnlyProtocol for ";
    let pos = code.find(marker)?;
    let rest = &code[pos + marker.len()..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Per-line allow sets, malformed-annotation findings as `(1-based
/// line, message)` pairs, and the per-rule annotation counts (the
/// suppression budget).
#[allow(clippy::type_complexity)]
fn collect_allows(
    lines: &[SplitLine],
) -> (
    Vec<BTreeSet<Rule>>,
    Vec<(usize, String)>,
    Vec<(Rule, usize)>,
) {
    let mut allows: Vec<BTreeSet<Rule>> = vec![BTreeSet::new(); lines.len()];
    let mut malformed = Vec::new();
    let mut counts: Vec<(Rule, usize)> = Vec::new();
    for i in 0..lines.len() {
        // Doc comments (leader-stripped to a leading `/` or `!`) are
        // prose — an allow example in rustdoc is not an annotation.
        if lines[i].comment.starts_with('/') || lines[i].comment.starts_with('!') {
            continue;
        }
        match parse_allow(&lines[i].comment) {
            None => {}
            Some(Err(message)) => malformed.push((i + 1, message)),
            Some(Ok(rules)) => {
                for r in &rules {
                    allows[i].insert(*r);
                    match counts.iter_mut().find(|(cr, _)| cr == r) {
                        Some(slot) => slot.1 += 1,
                        None => counts.push((*r, 1)),
                    }
                }
                // A standalone comment line also covers the line below.
                if lines[i].code.trim().is_empty() && i + 1 < lines.len() {
                    for r in &rules {
                        allows[i + 1].insert(*r);
                    }
                }
            }
        }
    }
    (allows, malformed, counts)
}

/// Parses an allow annotation out of a comment, if present.
///
/// Returns `None` when the comment carries no annotation, `Some(Ok)`
/// with the named rules, or `Some(Err)` with an explanation when the
/// annotation is malformed.
fn parse_allow(comment: &str) -> Option<Result<Vec<Rule>, String>> {
    let marker = "lint: allow(";
    let start = comment.find(marker)?;
    let rest = &comment[start + marker.len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unterminated `lint: allow(` annotation".to_string()));
    };
    let mut rules = Vec::new();
    for raw in rest[..close].split(',') {
        let name = raw.trim();
        match Rule::from_allow_name(name) {
            Some(r) => rules.push(r),
            None => {
                return Some(Err(format!(
                    "unknown rule `{name}` in allow annotation (expected one of: \
                     panic, determinism, crate-attrs, conformance, locks, casts, \
                     stdout, hot-alloc, sans-io, lock-order, taint, panic-reach, \
                     state-total, decode-bounds, overflow)"
                )))
            }
        }
    }
    let reason: &str = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'));
    if reason.trim().len() < 3 {
        return Some(Err(
            "allow annotation is missing its mandatory reason".to_string()
        ));
    }
    Some(Ok(rules))
}

/// Renders diagnostics as one JSON object for CI annotation
/// (`cargo xtask lint --json`).
///
/// Schema (stable; checked by `tests/json_schema.rs`):
///
/// ```json
/// {
///   "clean": false,
///   "diagnostics": [
///     {"rule": "L1/panic", "file": "crates/x/src/lib.rs", "line": 7, "message": "..."}
///   ]
/// }
/// ```
pub fn diagnostics_to_json(diagnostics: &[Diagnostic]) -> String {
    use fmt::Write as _;
    let mut out = String::from("{\"clean\":");
    out.push_str(if diagnostics.is_empty() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"diagnostics\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_string(d.rule.code()),
            json_string(&d.file.display().to_string()),
            d.line,
            json_string(&d.message)
        );
    }
    out.push_str("]}");
    out
}

/// Renders the full report as one JSON object (`cargo xtask lint
/// --json`).
///
/// Schema (stable; checked by `tests/json_schema.rs`):
///
/// ```json
/// {
///   "clean": true,
///   "files": 42,
///   "timing": {"read_ns": 0, "lex_ns": 0, "index_ns": 0, "rules_ns": 0, "workers": 1},
///   "suppressions": [{"rule": "L0/annotation", "count": 0}],
///   "diagnostics": []
/// }
/// ```
pub fn report_to_json(report: &LintReport) -> String {
    use fmt::Write as _;
    let mut out = String::from("{\"clean\":");
    out.push_str(if report.clean() { "true" } else { "false" });
    let _ = write!(
        out,
        ",\"files\":{},\"timing\":{{\"read_ns\":{},\"lex_ns\":{},\"index_ns\":{},\
         \"rules_ns\":{},\"workers\":{}}}",
        report.files,
        report.timing.read_ns,
        report.timing.lex_ns,
        report.timing.index_ns,
        report.timing.rules_ns,
        report.timing.workers
    );
    out.push_str(",\"suppressions\":[");
    for (i, (rule, count)) in report.suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"count\":{count}}}",
            json_string(rule.code())
        );
    }
    out.push_str("],\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_string(d.rule.code()),
            json_string(&d.file.display().to_string()),
            d.line,
            json_string(&d.message)
        );
    }
    out.push_str("]}");
    out
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The file whose inner attributes rule L3 inspects: `src/lib.rs`, or
/// `src/main.rs` for a pure binary crate.
fn crate_root_file(src: &Path) -> Option<PathBuf> {
    let lib = src.join("lib.rs");
    if lib.is_file() {
        return Some(lib);
    }
    let main = src.join("main.rs");
    if main.is_file() {
        return Some(main);
    }
    None
}

pub(crate) fn read_file(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let entries = fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    Ok(paths)
}

/// Collects `.rs` files under `dir` recursively, in sorted order,
/// skipping any directory named `fixtures` (lint-tool test data).
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parses_with_reason() {
        let parsed = parse_allow(" lint: allow(panic) — checked above");
        assert_eq!(parsed, Some(Ok(vec![Rule::Panic])));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let parsed = parse_allow(" lint: allow(panic)");
        assert!(matches!(parsed, Some(Err(_))));
    }

    #[test]
    fn allow_with_unknown_rule_is_malformed() {
        let parsed = parse_allow(" lint: allow(everything) — because");
        assert!(matches!(parsed, Some(Err(_))));
    }

    #[test]
    fn allow_accepts_comma_separated_rules() {
        let parsed = parse_allow(" lint: allow(panic, locks) — shim layer");
        assert_eq!(parsed, Some(Ok(vec![Rule::Panic, Rule::Locks])));
    }

    #[test]
    fn allow_accepts_the_new_rules() {
        let parsed = parse_allow(" bpush-lint: allow(hot-alloc) — amortized growth");
        assert_eq!(parsed, Some(Ok(vec![Rule::HotAlloc])));
        let parsed = parse_allow(" lint: allow(sans-io, lock-order, taint) — boundary shim");
        assert_eq!(
            parsed,
            Some(Ok(vec![Rule::SansIo, Rule::LockOrder, Rule::Taint]))
        );
    }

    #[test]
    fn rule_parse_accepts_codes_and_allow_names() {
        assert_eq!(Rule::parse("L8/hot-alloc"), Some(Rule::HotAlloc));
        assert_eq!(Rule::parse("hot-alloc"), Some(Rule::HotAlloc));
        assert_eq!(Rule::parse("L0/annotation"), Some(Rule::Annotation));
        assert_eq!(Rule::parse("bogus"), None);
    }

    #[test]
    fn suppression_counts_accumulate() {
        let lines = split_source(
            "fn f() {\n    x(); // lint: allow(panic) — reason one\n    y(); // lint: allow(panic, casts) — reason two\n}\n",
        );
        let (_, malformed, counts) = collect_allows(&lines);
        assert!(malformed.is_empty());
        assert_eq!(counts, vec![(Rule::Panic, 2), (Rule::Casts, 1)]);
    }

    #[test]
    fn impl_target_extraction() {
        assert_eq!(
            protocol_impl_target("impl ReadOnlyProtocol for Sgt {"),
            Some("Sgt".to_string())
        );
        assert_eq!(
            protocol_impl_target(
                "impl<P: ReadOnlyProtocol> ReadOnlyProtocol for Instrumented<P> {"
            ),
            Some("Instrumented".to_string())
        );
        assert_eq!(protocol_impl_target("impl Foo for Bar {"), None);
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = LintReport {
            diagnostics: Vec::new(),
            files: 3,
            timing: LintTiming {
                read_ns: 1,
                lex_ns: 2,
                index_ns: 5,
                rules_ns: 3,
                workers: 4,
            },
            suppressions: vec![(Rule::Panic, 4)],
            hot_functions: Vec::new(),
            sans_io_files: Vec::new(),
            protocol_enums: Vec::new(),
            decode_files: Vec::new(),
        };
        assert_eq!(
            report_to_json(&report),
            "{\"clean\":true,\"files\":3,\
             \"timing\":{\"read_ns\":1,\"lex_ns\":2,\"index_ns\":5,\
             \"rules_ns\":3,\"workers\":4},\
             \"suppressions\":[{\"rule\":\"L1/panic\",\"count\":4}],\
             \"diagnostics\":[]}"
        );
    }

    #[test]
    fn new_rules_parse_and_report_file_scope() {
        assert_eq!(Rule::parse("L12/panic-reach"), Some(Rule::PanicReach));
        assert_eq!(Rule::parse("state-total"), Some(Rule::StateTotal));
        assert_eq!(Rule::parse("decode-bounds"), Some(Rule::DecodeBounds));
        assert_eq!(Rule::parse("L15/overflow"), Some(Rule::Overflow));
        // `--changed` scoping: site-attributable rules are file-scoped,
        // reachability rules are not.
        assert!(Rule::StateTotal.file_scoped());
        assert!(Rule::DecodeBounds.file_scoped());
        assert!(Rule::Overflow.file_scoped());
        assert!(Rule::Panic.file_scoped());
        assert!(!Rule::PanicReach.file_scoped());
        assert!(!Rule::HotAlloc.file_scoped());
        assert!(!Rule::Conformance.file_scoped());
    }
}
