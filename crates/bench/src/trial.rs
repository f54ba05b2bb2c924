//! **xk-trial** — the envelope both remaining suites emit through.
//!
//! One `results/BENCH_<suite>.json` per suite (`figures`,
//! `lookup_locality`), each carrying the same envelope — schema version,
//! suite name, corpus scale, RNG seed, the suite's wall configuration,
//! and the git revision it ran at — plus a flat list of measured cases,
//! each a bag of named numeric metrics. The metrics that matter are the
//! paper's deterministic operation counts (disk accesses, `lm`/`rm`
//! match lookups); every wall-clock or footprint claim belongs to
//! `xkbench` (`BENCHMARK.json`), not here. Because the envelope is
//! uniform, `bench_diff` can compare a fresh run against the checked-in
//! baseline and turn a delta into a reviewable failure.
//!
//! The pieces:
//!
//! * [`Suite`]/[`Case`] — the builder the bench bins populate;
//! * [`Suite::to_json`]/[`Suite::from_json`] — a fixed-layout writer and
//!   a minimal JSON reader (the workspace is std-only by design);
//! * [`Suite::validate`] — the schema gate CI runs on every emitted
//!   artifact;
//! * [`diff`] — the regression comparison behind `just bench-diff`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The envelope schema this library reads and writes. Bump only with a
/// migration story for the checked-in baselines.
pub const SCHEMA: &str = "xk-trial/v1";

/// The corpus scales a suite may declare; comparisons across different
/// scales are refused rather than silently nonsensical.
pub const SCALES: [&str; 3] = ["smoke", "quick", "full"];

/// One benchmark suite's run: the envelope plus its measured cases.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (`figures`, `lookup_locality`); also the artifact
    /// filename: `BENCH_<suite>.json`.
    pub suite: String,
    /// Corpus scale: one of [`SCALES`].
    pub scale: String,
    /// The RNG seed the run used (replay handle).
    pub seed: u64,
    /// The revision the run was built from, resolved by [`git_rev`].
    pub git_rev: String,
    /// The wall configuration of the run (page size, pool pages, paper
    /// counts, ...), in insertion order.
    pub config: Vec<(String, f64)>,
    pub cases: Vec<Case>,
}

/// One measured data point: a stable id plus named numeric metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Stable identifier, `/`-separated by convention
    /// (`fig8b_hot/x=10/il`). Diffs match cases by id.
    pub id: String,
    /// Metrics in insertion order. Keys are snake_case; the suffix
    /// conventions in [`is_count`] decide which ones a diff gates.
    pub metrics: Vec<(String, f64)>,
}

impl Case {
    /// Adds (or overwrites) one metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Case {
        let key = key.into();
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key, value));
        }
        self
    }

    /// Reads one metric back (tests, README table generation).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

impl Suite {
    /// A new suite envelope, stamped with the current [`git_rev`].
    pub fn new(suite: impl Into<String>, scale: impl Into<String>, seed: u64) -> Suite {
        Suite {
            suite: suite.into(),
            scale: scale.into(),
            seed,
            git_rev: git_rev(),
            config: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Records one wall-config entry (page size, pool pages, ...).
    pub fn config(&mut self, key: impl Into<String>, value: f64) -> &mut Suite {
        self.config.push((key.into(), value));
        self
    }

    /// Returns the case with `id`, creating it if necessary.
    pub fn case(&mut self, id: impl Into<String>) -> &mut Case {
        let id = id.into();
        if let Some(i) = self.cases.iter().position(|c| c.id == id) {
            return &mut self.cases[i];
        }
        self.cases.push(Case { id, metrics: Vec::new() });
        self.cases.last_mut().expect("just pushed")
    }

    pub fn find(&self, id: &str) -> Option<&Case> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// The artifact filename for this suite: `BENCH_<suite>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.suite)
    }

    /// Renders the envelope as pretty-stable JSON (2-space indent, keys
    /// in fixed order, one line per scalar) so checked-in baselines
    /// produce reviewable diffs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": {},", quote(SCHEMA));
        let _ = writeln!(out, "  \"suite\": {},", quote(&self.suite));
        let _ = writeln!(out, "  \"scale\": {},", quote(&self.scale));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"git_rev\": {},", quote(&self.git_rev));
        out.push_str("  \"config\": ");
        number_object(&mut out, &self.config, "  ");
        out.push_str(",\n  \"cases\": [");
        for (i, case) in self.cases.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\n      \"id\": {},\n      \"metrics\": ", quote(&case.id));
            number_object(&mut out, &case.metrics, "      ");
            out.push_str("\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses an envelope, reporting the first structural error. Schema
    /// *conformance* beyond shape is [`Suite::validate`]'s job.
    pub fn from_json(text: &str) -> Result<Suite, String> {
        let v = parse_json(text)?;
        let obj = v.as_object().ok_or("top level must be an object")?;
        let field = |k: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let schema = field("schema")?.as_str().ok_or("schema must be a string")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
        }
        let suite = field("suite")?.as_str().ok_or("suite must be a string")?.to_string();
        let scale = field("scale")?.as_str().ok_or("scale must be a string")?.to_string();
        let seed = field("seed")?.as_f64().ok_or("seed must be a number")? as u64;
        let git_rev = field("git_rev")?.as_str().ok_or("git_rev must be a string")?.to_string();
        let config = field("config")?
            .as_object()
            .ok_or("config must be an object")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("config.{k} must be a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cases = Vec::new();
        for (i, c) in field("cases")?
            .as_array()
            .ok_or("cases must be an array")?
            .iter()
            .enumerate()
        {
            let c = c.as_object().ok_or_else(|| format!("cases[{i}] must be an object"))?;
            let id = c
                .iter()
                .find(|(k, _)| k == "id")
                .and_then(|(_, v)| v.as_str())
                .ok_or_else(|| format!("cases[{i}].id must be a string"))?
                .to_string();
            let metrics = c
                .iter()
                .find(|(k, _)| k == "metrics")
                .and_then(|(_, v)| v.as_object())
                .ok_or_else(|| format!("cases[{i}].metrics must be an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("cases[{i}].metrics.{k} must be a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            cases.push(Case { id, metrics });
        }
        Ok(Suite { suite, scale, seed, git_rev, config, cases })
    }

    /// Schema conformance beyond shape. Returns every violation (CI
    /// prints them all); an empty list means the artifact is valid.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let ident_ok = |s: &str| {
            !s.is_empty()
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        if !ident_ok(&self.suite) {
            errs.push(format!("suite {:?} is not a snake_case identifier", self.suite));
        }
        if !SCALES.contains(&self.scale.as_str()) {
            errs.push(format!("scale {:?} is not one of {SCALES:?}", self.scale));
        }
        if self.git_rev.is_empty() {
            errs.push("git_rev must be non-empty".into());
        }
        if self.cases.is_empty() {
            errs.push("a suite must carry at least one case".into());
        }
        for (k, v) in &self.config {
            if !v.is_finite() {
                errs.push(format!("config.{k} is not finite"));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for case in &self.cases {
            if case.id.is_empty() {
                errs.push("case with empty id".into());
            }
            if !seen.insert(&case.id) {
                errs.push(format!("duplicate case id {:?}", case.id));
            }
            if case.metrics.is_empty() {
                errs.push(format!("case {:?} has no metrics", case.id));
            }
            for (k, v) in &case.metrics {
                if !ident_ok(k) {
                    errs.push(format!("case {:?}: metric key {k:?} is not snake_case", case.id));
                }
                if !v.is_finite() {
                    errs.push(format!("case {:?}: metric {k} is not finite", case.id));
                }
            }
        }
        errs
    }

    /// Writes `BENCH_<suite>.json` into [`results_dir`] and returns its
    /// path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let errs = self.validate();
        assert!(errs.is_empty(), "refusing to write an invalid suite: {errs:?}");
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let json_path = dir.join(self.filename());
        std::fs::write(&json_path, self.to_json())?;
        eprintln!("[trial] wrote {}", json_path.display());
        Ok(json_path)
    }
}

/// The revision a run is stamped with: `git rev-parse --short=12 HEAD`,
/// plus `-dirty` when `git status --porcelain` reports anything.
/// `"unknown"` only when `git` cannot be run (no binary, not a
/// repository); `bench_diff validate` refuses that in a baseline.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match (git(&["rev-parse", "--short=12", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(changes)) if !rev.is_empty() => {
            if changes.is_empty() {
                rev
            } else {
                format!("{rev}-dirty")
            }
        }
        _ => "unknown".into(),
    }
}

/// Where suite artifacts land: `XK_BENCH_OUT` when set (the
/// `bench-diff` flow points fresh runs at a scratch directory), else
/// `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("XK_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|| "results".into())
}

/// Loads and shape-checks `BENCH_<suite>.json` files from a directory.
pub fn load_dir(dir: &Path) -> Result<Vec<Suite>, String> {
    let mut suites = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let suite = Suite::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        suites.push(suite);
    }
    Ok(suites)
}

// ---------------------------------------------------------------------------
// Regression diffing.

/// True for exact operation counts (page reads, match lookups, nodes
/// scanned, ...), recognised by suffix so neither suite needs a table.
/// They are deterministic given the same corpus and seed, lower is
/// better for every one of them, and they are the only metrics a diff
/// gates: the suites' timings (`mean_ms`, `elapsed_us`) jitter by whole
/// multiples at smoke scale and stay in the envelope as description —
/// a wall-clock claim is `xkbench`'s to make.
pub fn is_count(key: &str) -> bool {
    ["_reads", "_per_lookup", "_lookups", "_scanned", "_computations"]
        .iter()
        .any(|s| key.ends_with(s))
}

/// The default gate of [`diff`]: a count regresses past `1.25x` its
/// baseline (and is reported as an improvement below the reciprocal).
pub const COUNT_RATIO: f64 = 1.25;

/// One metric that crossed a threshold.
#[derive(Debug, Clone)]
pub struct Finding {
    pub case: String,
    pub metric: String,
    pub baseline: f64,
    pub fresh: f64,
    /// `fresh / baseline` (guarded against a zero baseline).
    pub ratio: f64,
}

/// The outcome of comparing one suite pair.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub suite: String,
    /// Why the pair was not comparable (scale mismatch); `None` when
    /// the comparison ran.
    pub skipped: Option<String>,
    /// Metric comparisons performed.
    pub checked: usize,
    /// Cases present in exactly one side (ids).
    pub unmatched: Vec<String>,
    pub regressions: Vec<Finding>,
    /// Threshold-crossing *improvements* (reported, never fatal).
    pub improvements: Vec<Finding>,
}

/// Compares `fresh` against `baseline` case by case, holding every
/// [`is_count`] metric present on both sides to `count_ratio`; a scale
/// or suite mismatch yields a skipped report rather than garbage ratios.
pub fn diff(baseline: &Suite, fresh: &Suite, count_ratio: f64) -> DiffReport {
    let mut report = DiffReport { suite: baseline.suite.clone(), ..DiffReport::default() };
    if baseline.suite != fresh.suite {
        report.skipped = Some(format!(
            "suite mismatch: baseline {:?} vs fresh {:?}",
            baseline.suite, fresh.suite
        ));
        return report;
    }
    if baseline.scale != fresh.scale {
        report.skipped = Some(format!(
            "scale mismatch: baseline {:?} vs fresh {:?} — rerun at the baseline scale",
            baseline.scale, fresh.scale
        ));
        return report;
    }
    for base_case in &baseline.cases {
        let Some(fresh_case) = fresh.find(&base_case.id) else {
            report.unmatched.push(format!("{} (baseline only)", base_case.id));
            continue;
        };
        for (key, base_v) in &base_case.metrics {
            if !is_count(key) {
                continue;
            }
            let Some(fresh_v) = fresh_case.get(key) else { continue };
            report.checked += 1;
            let ratio = if *base_v > 0.0 {
                fresh_v / base_v
            } else if fresh_v > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            let finding = Finding {
                case: base_case.id.clone(),
                metric: key.clone(),
                baseline: *base_v,
                fresh: fresh_v,
                ratio,
            };
            if ratio > count_ratio {
                report.regressions.push(finding);
            } else if ratio < 1.0 / count_ratio {
                report.improvements.push(finding);
            }
        }
    }
    for fresh_case in &fresh.cases {
        if baseline.find(&fresh_case.id).is_none() {
            report.unmatched.push(format!("{} (fresh only)", fresh_case.id));
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, bools, null).

/// A parsed JSON value. Object member order is preserved (the envelope
/// round-trips byte-stably through write → parse → write).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {} must be a string", *pos)),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Json::Null),
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // byte boundaries are valid by construction).
                let s = &text_from(b)[*pos..];
                let c = s.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn text_from(b: &[u8]) -> &str {
    std::str::from_utf8(b).expect("parse_json input is a &str")
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Appends `members` as a JSON object, one member per line, the closing
/// brace at `indent`. Numbers print with Rust's shortest round-trip
/// formatting ([`Suite::validate`] has already refused non-finite ones).
fn number_object(out: &mut String, members: &[(String, f64)], indent: &str) {
    out.push('{');
    for (i, (k, v)) in members.iter().enumerate() {
        let _ = write!(out, "{}\n{indent}  {}: {v}", if i == 0 { "" } else { "," }, quote(k));
    }
    let _ = write!(out, "\n{indent}}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Suite {
        let mut s = Suite::new("lookup_locality", "smoke", 0x10CA);
        s.config("page_size", 4096.0);
        s.config("papers", 2500.0);
        s.case("s1=10/fresh")
            .metric("probes", 10.0)
            .metric("logical_reads", 30.0)
            .metric("reads_per_lookup", 1.5)
            .metric("elapsed_us", 120.0);
        s.case("fig8b_hot/x=10/il").metric("mean_ms", 0.25).metric("match_lookups", 99.0);
        s
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        let parsed = Suite::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
        // And stable: render → parse → render is byte-identical.
        assert_eq!(parsed.to_json(), s.to_json());
        // Ids and keys are escaped, not trusted.
        let mut odd = sample();
        odd.case("quote\"back\\slash\nline").metric("mean_ms", 1.0);
        assert_eq!(Suite::from_json(&odd.to_json()).expect("escaped round trip"), odd);
    }

    /// The stamp is a revision, never a placeholder the caller supplies:
    /// inside a work tree it is twelve hex digits (plus `-dirty`).
    #[test]
    fn git_rev_is_resolved_from_the_work_tree() {
        let rev = git_rev();
        assert_eq!(Suite::new("x", "smoke", 1).git_rev, rev);
        if rev != "unknown" {
            let hex = rev.strip_suffix("-dirty").unwrap_or(&rev);
            assert!(hex.len() == 12 && hex.chars().all(|c| c.is_ascii_hexdigit()), "{rev:?}");
        }
    }

    #[test]
    fn validate_catches_schema_violations() {
        let mut s = sample();
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        s.scale = "huge".into();
        s.case("s1=10/fresh").metric("elapsed_us", f64::NAN);
        s.cases.push(Case { id: "s1=10/fresh".into(), metrics: vec![] });
        let errs = s.validate();
        assert!(errs.iter().any(|e| e.contains("scale")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("not finite")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("duplicate case id")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("no metrics")), "{errs:?}");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        assert!(Suite::from_json("[]").is_err());
        assert!(Suite::from_json(r#"{"schema":"xk-trial/v0"}"#)
            .unwrap_err()
            .contains("xk-trial/v1"));
        let mut s = sample().to_json();
        s = s.replace("\"seed\": 4298", "\"seed\": \"x\"");
        assert!(Suite::from_json(&s).is_err());
    }

    #[test]
    fn only_operation_counts_are_gated() {
        for count in [
            "disk_reads",
            "logical_reads",
            "mean_disk_reads",
            "reads_per_lookup",
            "match_lookups",
            "nodes_scanned",
            "lca_computations",
        ] {
            assert!(is_count(count), "{count}");
        }
        for descriptive in ["mean_ms", "elapsed_us", "queries", "results", "probes"] {
            assert!(!is_count(descriptive), "{descriptive}");
        }
    }

    /// The acceptance self-test: an artificially injected 2× regression
    /// of every operation count must be detected at the default gate,
    /// and a timing that moved with it must not.
    #[test]
    fn diff_detects_injected_2x_count_regression() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        for case in &mut fresh.cases {
            for (_, v) in &mut case.metrics {
                *v *= 2.0;
            }
        }
        let report = diff(&baseline, &fresh, COUNT_RATIO);
        assert!(report.skipped.is_none());
        assert_eq!(report.checked, 3);
        assert_eq!(report.regressions.len(), 3, "{:?}", report.regressions);
        assert!(report.regressions.iter().all(|f| is_count(&f.metric) && f.ratio == 2.0));
        assert!(report.improvements.is_empty());
        // 1.4x is past the default gate, inside a widened one.
        let mut fresh = baseline.clone();
        fresh.case("s1=10/fresh").metric("logical_reads", 42.0);
        assert_eq!(diff(&baseline, &fresh, COUNT_RATIO).regressions.len(), 1);
        assert!(diff(&baseline, &fresh, 1.5).regressions.is_empty());
    }

    #[test]
    fn diff_reports_improvements() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        fresh.case("s1=10/fresh").metric("logical_reads", 10.0);
        let report = diff(&baseline, &fresh, COUNT_RATIO);
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].metric, "logical_reads");
    }

    #[test]
    fn diff_refuses_scale_mismatch_and_reports_unmatched_cases() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        fresh.scale = "full".into();
        assert!(diff(&baseline, &fresh, COUNT_RATIO).skipped.is_some());

        let mut fresh = baseline.clone();
        fresh.cases.remove(0);
        fresh.case("new_case").metric("disk_reads", 1.0);
        let report = diff(&baseline, &fresh, COUNT_RATIO);
        assert!(report.skipped.is_none());
        assert_eq!(report.unmatched.len(), 2, "{:?}", report.unmatched);
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = parse_json(r#"{"a\n":"bA\\", "n": [1, -2.5e1, true, null]}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a\n");
        assert_eq!(obj[0].1.as_str(), Some("bA\\"));
        let arr = obj[1].1.as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
    }
}
