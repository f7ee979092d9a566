//! Schema tests for the machine-readable outputs: `cargo xtask lint
//! --json` ([`xtask::diagnostics_to_json`]), `cargo xtask mc --json`
//! ([`bpush_mc::render_json`]), `cargo xtask trace`'s `metrics.json`
//! and `cargo xtask explain --json`. All emitters hand-roll their JSON,
//! so this file parses their output with an independent minimal JSON
//! reader and checks every documented key and type.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use xtask::{diagnostics_to_json, Diagnostic, Rule};

// ---------------------------------------------------------------------
// A minimal strict JSON reader (objects, arrays, strings, unsigned
// integers, booleans, null — the subset both emitters produce).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key `{key}` in {self:?}")),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn as_u64(&self) -> u64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn as_bool(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            other => panic!("expected a bool, got {other:?}"),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let value = parse_value(&bytes, &mut pos);
    skip_ws(&bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing garbage after JSON value");
    value
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) {
    assert_eq!(b.get(*pos), Some(&c), "expected `{c}` at offset {pos}");
    *pos += 1;
}

fn parse_value(b: &[char], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Json::Obj(pairs);
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos);
                skip_ws(b, pos);
                expect(b, pos, ':');
                let value = parse_value(b, pos);
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Json::Obj(pairs);
                    }
                    other => panic!("expected `,` or `}}`, got {other:?}"),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    other => panic!("expected `,` or `]`, got {other:?}"),
                }
            }
        }
        Some('"') => Json::Str(parse_string(b, pos)),
        Some('t') => {
            assert_eq!(b[*pos..*pos + 4].iter().collect::<String>(), "true");
            *pos += 4;
            Json::Bool(true)
        }
        Some('f') => {
            assert_eq!(b[*pos..*pos + 5].iter().collect::<String>(), "false");
            *pos += 5;
            Json::Bool(false)
        }
        Some('n') => {
            assert_eq!(b[*pos..*pos + 4].iter().collect::<String>(), "null");
            *pos += 4;
            Json::Null
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while b.get(*pos).is_some_and(char::is_ascii_digit) {
                *pos += 1;
            }
            Json::Num(b[start..*pos].iter().collect::<String>().parse().unwrap())
        }
        other => panic!("unexpected character {other:?} at offset {pos}"),
    }
}

fn parse_string(b: &[char], pos: &mut usize) -> String {
    expect(b, pos, '"');
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some('"') => {
                *pos += 1;
                return out;
            }
            Some('\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = b[*pos + 1..*pos + 5].iter().collect();
                        let code = u32::from_str_radix(&hex, 16).unwrap();
                        out.push(char::from_u32(code).unwrap());
                        *pos += 4;
                    }
                    other => panic!("bad escape {other:?}"),
                }
                *pos += 1;
            }
            Some(&c) => {
                assert!(u32::from(c) >= 0x20, "unescaped control character");
                out.push(c);
                *pos += 1;
            }
            None => panic!("unterminated string"),
        }
    }
}

// ---------------------------------------------------------------------
// `cargo xtask lint --json`
// ---------------------------------------------------------------------

/// The documented schema: `{"clean": bool, "diagnostics": [{"rule",
/// "file", "line", "message"}]}`, in that key order.
#[test]
fn lint_json_matches_the_documented_schema() {
    let diags = vec![
        Diagnostic {
            rule: Rule::Panic,
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            message: "panic path `.unwrap()`".to_string(),
        },
        Diagnostic {
            rule: Rule::Casts,
            file: PathBuf::from("crates/y/src/lib.rs"),
            line: 12,
            message: "lossy `as u32` cast with a \"quoted\" fragment\nand a newline".to_string(),
        },
    ];
    let root = parse_json(&diagnostics_to_json(&diags));

    assert_eq!(root.keys(), ["clean", "diagnostics"]);
    assert!(!root.get("clean").as_bool());
    let rendered = root.get("diagnostics").as_arr();
    assert_eq!(rendered.len(), 2);
    for (d, j) in diags.iter().zip(rendered) {
        assert_eq!(j.keys(), ["rule", "file", "line", "message"]);
        assert_eq!(j.get("rule").as_str(), d.rule.code());
        assert_eq!(j.get("file").as_str(), d.file.display().to_string());
        assert_eq!(j.get("line").as_u64(), d.line as u64);
        assert_eq!(j.get("message").as_str(), d.message);
    }
}

/// No findings ⇒ `clean` is `true` and the array is empty.
#[test]
fn lint_json_clean_case() {
    let root = parse_json(&diagnostics_to_json(&[]));
    assert!(root.get("clean").as_bool());
    assert!(root.get("diagnostics").as_arr().is_empty());
}

/// The full-report schema behind `cargo xtask lint --json`:
/// `{"clean", "files", "timing": {"read_ns", "lex_ns", "index_ns",
/// "rules_ns", "workers"}, "suppressions": [{"rule", "count"}],
/// "diagnostics"}`, with one suppression entry per rule, covering all
/// sixteen rule ids in catalog order — the escape-hatch budget is part
/// of the machine contract.
#[test]
fn lint_report_json_matches_the_documented_schema() {
    let report = xtask::LintReport {
        diagnostics: vec![Diagnostic {
            rule: Rule::HotAlloc,
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            message: "hot_path fn `f` reaches `Box::new`".to_string(),
        }],
        files: 7,
        timing: xtask::LintTiming {
            read_ns: 11,
            lex_ns: 22,
            index_ns: 27,
            rules_ns: 33,
            workers: 4,
        },
        suppressions: xtask::ALL_RULES.iter().map(|r| (*r, 0)).collect(),
        hot_functions: vec!["sgraph::path_exists".to_string()],
        sans_io_files: vec!["crates/broadcast/src/wire.rs".to_string()],
        protocol_enums: vec!["Method".to_string()],
        decode_files: vec!["crates/broadcast/src/wire.rs".to_string()],
    };
    let root = parse_json(&xtask::report_to_json(&report));

    assert_eq!(
        root.keys(),
        ["clean", "files", "timing", "suppressions", "diagnostics"]
    );
    assert!(!root.get("clean").as_bool());
    assert_eq!(root.get("files").as_u64(), 7);

    let timing = root.get("timing");
    assert_eq!(
        timing.keys(),
        ["read_ns", "lex_ns", "index_ns", "rules_ns", "workers"]
    );
    assert_eq!(timing.get("read_ns").as_u64(), 11);
    assert_eq!(timing.get("lex_ns").as_u64(), 22);
    assert_eq!(timing.get("index_ns").as_u64(), 27);
    assert_eq!(timing.get("rules_ns").as_u64(), 33);
    assert_eq!(timing.get("workers").as_u64(), 4);

    let rules: Vec<&str> = root
        .get("suppressions")
        .as_arr()
        .iter()
        .map(|s| {
            assert_eq!(s.keys(), ["rule", "count"]);
            let _ = s.get("count").as_u64();
            s.get("rule").as_str()
        })
        .collect();
    assert_eq!(
        rules,
        [
            "L0/annotation",
            "L1/panic",
            "L2/determinism",
            "L3/crate-attrs",
            "L4/conformance",
            "L5/locks",
            "L6/casts",
            "L7/stdout",
            "L8/hot-alloc",
            "L9/sans-io",
            "L10/lock-order",
            "L11/taint",
            "L12/panic-reach",
            "L13/state-total",
            "L14/decode-bounds",
            "L15/overflow",
        ]
    );

    let rendered = root.get("diagnostics").as_arr();
    assert_eq!(rendered.len(), 1);
    assert_eq!(rendered[0].get("rule").as_str(), "L8/hot-alloc");
}

// ---------------------------------------------------------------------
// `cargo xtask mc --json`
// ---------------------------------------------------------------------

/// The documented schema: `{"scope", "passed", "reports": [{"protocol",
/// "executions", "committed", "aborted", "distinct_states",
/// "deduped_validations", "violation"}]}`; `violation` is `null` for a
/// passing method and `{"fresh_writer", "stale_overwrite", "schedule"}`
/// for the broken fixture — with `schedule` round-tripping through
/// `Schedule::parse`.
#[test]
fn mc_json_matches_the_documented_schema() {
    let scope = bpush_mc::Scope::ci();
    let reports = vec![
        bpush_mc::check_spec(bpush_mc::ProtocolSpec::parse("inv-only").unwrap(), &scope).unwrap(),
        bpush_mc::check_spec(bpush_mc::ProtocolSpec::BrokenInvalidation, &scope).unwrap(),
    ];
    let root = parse_json(&bpush_mc::render_json(&scope, &reports));

    assert_eq!(root.keys(), ["scope", "passed", "reports"]);
    assert_eq!(root.get("scope").as_str(), "ci");
    assert!(!root.get("passed").as_bool());

    let rendered = root.get("reports").as_arr();
    assert_eq!(rendered.len(), 2);
    for (r, j) in reports.iter().zip(rendered) {
        assert_eq!(
            j.keys(),
            [
                "protocol",
                "executions",
                "committed",
                "aborted",
                "distinct_states",
                "deduped_validations",
                "violation"
            ]
        );
        assert_eq!(j.get("protocol").as_str(), r.spec.name());
        assert_eq!(j.get("executions").as_u64(), r.executions);
        assert_eq!(j.get("committed").as_u64(), r.committed);
        assert_eq!(j.get("aborted").as_u64(), r.aborted);
        assert_eq!(j.get("distinct_states").as_u64(), r.distinct_states);
        assert_eq!(j.get("deduped_validations").as_u64(), r.deduped_validations);
    }

    assert_eq!(*rendered[0].get("violation"), Json::Null);
    let violation = rendered[1].get("violation");
    assert_eq!(
        violation.keys(),
        ["fresh_writer", "stale_overwrite", "schedule"]
    );
    assert_eq!(violation.get("fresh_writer").as_str(), "T0.0");
    assert_eq!(violation.get("stale_overwrite").as_str(), "T0.0");
    let (spec, schedule) = bpush_mc::Schedule::parse(violation.get("schedule").as_str())
        .expect("embedded schedule round-trips");
    assert_eq!(spec, bpush_mc::ProtocolSpec::BrokenInvalidation);
    assert_eq!(schedule.reads.len(), 2);
}

// ---------------------------------------------------------------------
// `cargo xtask trace` (`metrics.json`)
// ---------------------------------------------------------------------

/// The documented `bpush-trace-v1` schema: `{"schema", "method",
/// "seed", "quick", "cycles", "queries", "committed", "aborted",
/// "events", "dropped", "counters": [{"name", "value"}], "histograms":
/// [{"name", "count", "sum", "min", "max", "p50", "p90", "p99",
/// "buckets": [{"floor", "ceil", "count"}]}]}`, all numbers unsigned
/// integers, keys in that order; the percentile estimates are ordered
/// within `[min, max]` whenever the histogram is non-empty.
fn assert_trace_schema(root: &Json) {
    assert_eq!(
        root.keys(),
        [
            "schema",
            "method",
            "seed",
            "quick",
            "cycles",
            "queries",
            "committed",
            "aborted",
            "events",
            "dropped",
            "counters",
            "histograms",
        ]
    );
    assert_eq!(root.get("schema").as_str(), "bpush-trace-v1");
    let _ = root.get("seed").as_u64();
    let _ = root.get("quick").as_bool();
    assert_eq!(
        root.get("committed").as_u64() + root.get("aborted").as_u64(),
        root.get("queries").as_u64(),
        "committed + aborted must partition queries"
    );
    for c in root.get("counters").as_arr() {
        assert_eq!(c.keys(), ["name", "value"]);
        let _ = c.get("value").as_u64();
    }
    for h in root.get("histograms").as_arr() {
        assert_eq!(
            h.keys(),
            ["name", "count", "sum", "min", "max", "p50", "p90", "p99", "buckets"]
        );
        if h.get("count").as_u64() > 0 {
            let (min, max) = (h.get("min").as_u64(), h.get("max").as_u64());
            let (p50, p90, p99) = (
                h.get("p50").as_u64(),
                h.get("p90").as_u64(),
                h.get("p99").as_u64(),
            );
            assert!(
                min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max,
                "percentiles must be ordered within [min, max]: {h:?}"
            );
        }
        let mut bucket_total = 0;
        for b in h.get("buckets").as_arr() {
            assert_eq!(b.keys(), ["floor", "ceil", "count"]);
            assert!(b.get("floor").as_u64() <= b.get("ceil").as_u64());
            bucket_total += b.get("count").as_u64();
        }
        assert_eq!(
            bucket_total,
            h.get("count").as_u64(),
            "non-empty buckets must account for every sample"
        );
    }
}

/// A real quick trace satisfies the schema, its counter table
/// reconciles with the headline numbers, and the chrome export parses
/// as a structurally valid `trace_event` document.
#[test]
fn trace_json_matches_the_documented_schema() {
    let report = xtask::trace::run_trace(bpush_core::Method::Sgt, true).unwrap();
    let root = parse_json(&xtask::trace::render_metrics_json(&report));
    assert_trace_schema(&root);

    // The counter table carries the same totals as the headline keys.
    let counter = |name: &str| {
        root.get("counters")
            .as_arr()
            .iter()
            .find(|c| c.get("name").as_str() == name)
            .map(|c| c.get("value").as_u64())
            .unwrap_or(0)
    };
    assert_eq!(counter("queries.committed"), root.get("committed").as_u64());
    assert_eq!(counter("queries.aborted"), root.get("aborted").as_u64());
    assert_eq!(counter("server.cycles"), root.get("cycles").as_u64());
    assert_eq!(
        root.get("events").as_u64(),
        report.snapshot.events.len() as u64
    );

    // The chrome export is valid JSON of the trace_event shape.
    let chrome = parse_json(&bpush_obs::export::chrome_trace(&report.snapshot));
    assert_eq!(chrome.keys(), ["traceEvents", "displayTimeUnit"]);
    let events = chrome.get("traceEvents").as_arr();
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").as_str();
        assert!(
            matches!(ph, "M" | "B" | "E" | "i"),
            "unexpected phase {ph:?}"
        );
        let _ = e.get("pid").as_u64();
        let _ = e.get("tid").as_u64();
    }
}

// ---------------------------------------------------------------------
// bpush-explain-v1 (`cargo xtask explain --json`)
// ---------------------------------------------------------------------

/// Runs the seeded `BrokenInvalidation` mutant under monitors with the
/// flight recorder attached and returns the rendered capture (the same
/// fixture `xtask::explain`'s own tests use).
fn broken_capture_fixture() -> String {
    let config = bpush_types::SimConfig {
        server: bpush_types::ServerConfig {
            broadcast_size: 200,
            update_range: 100,
            server_read_range: 200,
            updates_per_cycle: 20,
            txns_per_cycle: 5,
            ..bpush_types::ServerConfig::default()
        },
        client: bpush_types::ClientConfig {
            read_range: 100,
            reads_per_query: 6,
            ..bpush_types::ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 15,
        warmup_cycles: 3,
        max_cycles: 20_000,
        seed: 99,
    };
    let method = bpush_core::Method::InvalidationOnly;
    let slot = bpush_sim::CaptureSlot::new();
    let sim = bpush_sim::Simulation::new(config.clone(), method)
        .unwrap()
        .with_protocol_factory(|| Box::new(bpush_mc::BrokenInvalidation::new()))
        .with_monitors(bpush_sim::monitors_for(&config, method))
        .with_flight_recorder(8, slot.clone());
    sim.run().unwrap();
    slot.take().expect("the mutant trips a capture").render()
}

/// `cargo xtask explain --json` on a capture emits the single-line
/// `bpush-explain-v1` document with a locked key order.
#[test]
fn explain_capture_json_matches_the_documented_schema() {
    let capture = broken_capture_fixture();
    let explanation = xtask::explain::explain(&capture).unwrap();
    let root = parse_json(&xtask::explain::render_json(&explanation));
    assert_eq!(
        root.keys(),
        [
            "schema",
            "input",
            "method",
            "seed",
            "clients",
            "kind",
            "client",
            "query",
            "cycle",
            "item",
            "write_cycle",
            "report_cycle",
            "cycle_distance",
            "report_entry_found",
            "rule",
            "frames",
            "dropped",
            "fingerprint",
        ]
    );
    assert_eq!(root.get("schema").as_str(), "bpush-explain-v1");
    assert_eq!(root.get("input").as_str(), "capture");
    assert_eq!(root.get("method").as_str(), "inv-only");
    assert!(["currency", "serializability", "coverage", "abort-watch"]
        .contains(&root.get("kind").as_str()));
    let _ = root.get("seed").as_u64();
    let _ = root.get("clients").as_u64();
    let _ = root.get("client").as_u64();
    let _ = root.get("query").as_u64();
    let _ = root.get("cycle").as_u64();
    // The resolution keys are nullable integers.
    for key in ["item", "write_cycle", "report_cycle", "cycle_distance"] {
        match root.get(key) {
            Json::Num(_) | Json::Null => {}
            other => panic!("`{key}` must be an integer or null, got {other:?}"),
        }
    }
    // The mutant capture resolves fully: the acceptance criterion.
    assert!(root.get("report_entry_found").as_bool());
    assert!(root.get("rule").as_str().starts_with("inv-only: "));
    assert!(root.get("frames").as_u64() >= 1, "at least one ring frame");
    let _ = root.get("dropped").as_u64();
    let fp = root.get("fingerprint").as_str();
    assert_eq!(fp.len(), 16, "fingerprint is 16 hex digits: {fp:?}");
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
}

/// `cargo xtask explain --json` on a `metrics.json` trace emits the
/// trace variant of `bpush-explain-v1` with a locked key order.
#[test]
fn explain_trace_json_matches_the_documented_schema() {
    let report = xtask::trace::run_trace(bpush_core::Method::InvalidationOnly, true).unwrap();
    let metrics = xtask::trace::render_metrics_json(&report);
    let explanation = xtask::explain::explain(&metrics).unwrap();
    let root = parse_json(&xtask::explain::render_json(&explanation));
    assert_eq!(
        root.keys(),
        [
            "schema",
            "input",
            "method",
            "seed",
            "quick",
            "queries",
            "committed",
            "aborted",
            "aborts",
        ]
    );
    assert_eq!(root.get("schema").as_str(), "bpush-explain-v1");
    assert_eq!(root.get("input").as_str(), "trace");
    assert_eq!(root.get("method").as_str(), "inv-only");
    assert!(root.get("quick").as_bool());
    let queries = root.get("queries").as_u64();
    let committed = root.get("committed").as_u64();
    let aborted = root.get("aborted").as_u64();
    assert_eq!(committed + aborted, queries);
    let mut breakdown = 0;
    for entry in root.get("aborts").as_arr() {
        assert_eq!(entry.keys(), ["reason", "count"]);
        assert!(!entry.get("reason").as_str().is_empty());
        breakdown += entry.get("count").as_u64();
    }
    assert_eq!(breakdown, aborted, "abort reasons partition the aborts");
}
