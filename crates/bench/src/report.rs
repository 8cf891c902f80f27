//! Machine-readable `BENCH_<date>.json` perf-trajectory snapshots.
//!
//! The macro-benchmark binary (`src/bin/perf.rs`) measures events/sec
//! for each macro scenario and serializes a [`Snapshot`] to the repo
//! root. Committed snapshots form the perf trajectory: each PR that
//! touches the hot path appends one, and regressions show up as a drop
//! in `events_per_sec` between consecutive files.
//!
//! The workspace is hermetic (no serde), so this module carries both a
//! hand-rolled JSON emitter and a minimal recursive-descent JSON parser.
//! The parser exists so CI can *validate* an emitted snapshot — parse it
//! back and check every expected bench key is present with sane fields —
//! which makes a broken emitter a tier-1 failure rather than a silently
//! corrupt artifact.

use crate::timing::Measurement;

/// Bench keys every full snapshot must contain. CI validates emitted
/// snapshots against this list; extend it when adding a macro bench.
pub const EXPECTED_BENCHES: &[&str] = &[
    "fig4_sweep",
    "fig5_cluster",
    "incast",
    "faults",
    "openloop",
    "kv_cluster",
    "farmem",
    "dpa",
];

/// One benchmark's record in the snapshot.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Stable bench key (one of [`EXPECTED_BENCHES`]).
    pub name: String,
    /// Sorted per-iteration wall times [ns].
    pub samples: Vec<u64>,
    /// Fastest iteration [ns].
    pub min_ns: u64,
    /// Mean iteration [ns].
    pub mean_ns: f64,
    /// Median iteration [ns].
    pub p50_ns: u64,
    /// 99th-percentile iteration [ns].
    pub p99_ns: u64,
    /// Simulated events one iteration delivers (deterministic).
    pub events: u64,
    /// Simulated events per wall-clock second (mean iteration).
    pub events_per_sec: f64,
}

impl From<&Measurement> for BenchRecord {
    fn from(m: &Measurement) -> BenchRecord {
        BenchRecord {
            name: m.name.clone(),
            samples: m.samples.clone(),
            min_ns: m.min_ns(),
            mean_ns: m.mean_ns(),
            p50_ns: m.percentile_ns(50.0),
            p99_ns: m.percentile_ns(99.0),
            events: m.events,
            events_per_sec: m.events_per_sec(),
        }
    }
}

/// A full perf snapshot: metadata plus one record per macro bench.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// UTC civil date `YYYY-MM-DD` the snapshot was taken.
    pub date: String,
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    pub git_rev: String,
    /// Per-bench records, in run order.
    pub benches: Vec<BenchRecord>,
}

impl Snapshot {
    /// Builds a snapshot from measurements, stamping today's date and
    /// the current git revision. Fails if any record carries a
    /// non-finite floating-point field.
    pub fn new(measurements: &[Measurement]) -> Result<Snapshot, String> {
        Snapshot::from_records(
            today_utc(),
            git_rev(),
            measurements.iter().map(BenchRecord::from).collect(),
        )
    }

    /// Builds a snapshot from explicit records, rejecting NaN/Infinity
    /// fields up front. (Historically `json_f64` silently rewrote
    /// non-finite values to `0.0` at emit time, so a wedged benchmark
    /// surfaced as a plausible-looking zero in the perf trajectory
    /// instead of an error.)
    pub fn from_records(
        date: String,
        git_rev: String,
        benches: Vec<BenchRecord>,
    ) -> Result<Snapshot, String> {
        for b in &benches {
            for (key, v) in [("mean_ns", b.mean_ns), ("events_per_sec", b.events_per_sec)] {
                if !v.is_finite() {
                    return Err(format!(
                        "bench {:?} field {key:?} = {v} is not finite",
                        b.name
                    ));
                }
            }
        }
        Ok(Snapshot {
            date,
            git_rev,
            benches,
        })
    }

    /// The snapshot's canonical file name, `BENCH_<date>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"date\": {},\n", json_str(&self.date)));
        s.push_str(&format!("  \"git_rev\": {},\n", json_str(&self.git_rev)));
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_str(&b.name)));
            let samples: Vec<String> = b.samples.iter().map(|n| n.to_string()).collect();
            s.push_str(&format!("      \"samples\": [{}],\n", samples.join(", ")));
            s.push_str(&format!("      \"min_ns\": {},\n", b.min_ns));
            s.push_str(&format!("      \"mean_ns\": {},\n", json_f64(b.mean_ns)));
            s.push_str(&format!("      \"p50_ns\": {},\n", b.p50_ns));
            s.push_str(&format!("      \"p99_ns\": {},\n", b.p99_ns));
            s.push_str(&format!("      \"events\": {},\n", b.events));
            s.push_str(&format!(
                "      \"events_per_sec\": {}\n",
                json_f64(b.events_per_sec)
            ));
            s.push_str(if i + 1 < self.benches.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity;
/// [`Snapshot::from_records`] rejects them at build time, so reaching
/// here with one means a snapshot bypassed validation.
fn json_f64(v: f64) -> String {
    assert!(
        v.is_finite(),
        "non-finite value {v} escaped snapshot validation"
    );
    format!("{v:.3}")
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// UTC civil date from the system clock, `YYYY-MM-DD`.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → (year, month, day). Howard Hinnant's `civil_from_days`
/// algorithm, exact for the proleptic Gregorian calendar.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Short git revision of the working tree, `"unknown"` if git is
/// unavailable (the snapshot stays valid either way).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------
// Minimal JSON parser — just enough to validate emitted snapshots.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document (errors carry a byte offset).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape".to_string())?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so
                        // byte boundaries are valid).
                        let rest = &b[*pos..];
                        let text =
                            std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                        let c = text.chars().next().unwrap();
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number at byte {start}"))
        }
    }
}

/// Validates a snapshot document: parses, then checks every name in
/// `expected` appears as a bench record with positive `events` and
/// `events_per_sec` and a consistent sample count. Returns the list of
/// bench names found, in file order.
pub fn validate_snapshot(text: &str, expected: &[&str]) -> Result<Vec<String>, String> {
    let doc = parse_json(text)?;
    for key in ["date", "git_rev"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("missing or non-string field {key:?}"))?;
    }
    let benches = doc
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field \"benches\"")?;
    let mut names = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bench record missing \"name\"")?
            .to_string();
        let samples = b
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or(format!("bench {name:?} missing \"samples\""))?;
        if samples.is_empty() {
            return Err(format!("bench {name:?} has no samples"));
        }
        for key in [
            "min_ns",
            "mean_ns",
            "p50_ns",
            "p99_ns",
            "events",
            "events_per_sec",
        ] {
            let v = b
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("bench {name:?} missing numeric {key:?}"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("bench {name:?} field {key:?} = {v} is not sane"));
            }
        }
        let events = b.get("events").and_then(Json::as_f64).unwrap_or(0.0);
        let eps = b
            .get("events_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if events <= 0.0 || eps <= 0.0 {
            return Err(format!(
                "bench {name:?} reports no throughput (events={events}, events_per_sec={eps})"
            ));
        }
        names.push(name);
    }
    for want in expected {
        if !names.iter().any(|n| n == want) {
            return Err(format!("snapshot is missing expected bench {want:?}"));
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement(name: &str) -> Measurement {
        Measurement {
            name: name.to_string(),
            samples: vec![100, 120, 150],
            events: 5000,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let ms: Vec<Measurement> = EXPECTED_BENCHES
            .iter()
            .map(|n| sample_measurement(n))
            .collect();
        let snap = Snapshot::new(&ms).expect("finite measurements build");
        assert!(snap.file_name().starts_with("BENCH_"));
        assert!(snap.file_name().ends_with(".json"));
        let json = snap.to_json();
        let names = validate_snapshot(&json, EXPECTED_BENCHES).expect("roundtrip validates");
        assert_eq!(names.len(), EXPECTED_BENCHES.len());
        let doc = parse_json(&json).unwrap();
        let b0 = &doc.get("benches").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(b0.get("min_ns").and_then(Json::as_f64), Some(100.0));
        assert_eq!(b0.get("events").and_then(Json::as_f64), Some(5000.0));
    }

    #[test]
    fn validate_rejects_missing_bench() {
        let ms = vec![sample_measurement("fig4_sweep")];
        let json = Snapshot::new(&ms).expect("finite").to_json();
        let err = validate_snapshot(&json, EXPECTED_BENCHES).unwrap_err();
        assert!(err.contains("missing expected bench"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_throughput() {
        let mut m = sample_measurement("fig4_sweep");
        m.events = 0;
        let json = Snapshot::new(&[m]).expect("zero is finite").to_json();
        let err = validate_snapshot(&json, &["fig4_sweep"]).unwrap_err();
        assert!(err.contains("no throughput"), "{err}");
    }

    #[test]
    fn non_finite_records_rejected_at_build_time() {
        let nan = |field: &str| {
            let mut rec = BenchRecord::from(&sample_measurement("fig4_sweep"));
            match field {
                "mean_ns" => rec.mean_ns = f64::NAN,
                _ => rec.events_per_sec = f64::INFINITY,
            }
            Snapshot::from_records("2026-08-07".into(), "deadbee".into(), vec![rec])
        };
        let err = nan("mean_ns").unwrap_err();
        assert!(
            err.contains("mean_ns") && err.contains("not finite"),
            "{err}"
        );
        let err = nan("events_per_sec").unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        // Finite records still build and round-trip through the emitter.
        let rec = BenchRecord::from(&sample_measurement("fig4_sweep"));
        let snap = Snapshot::from_records("2026-08-07".into(), "deadbee".into(), vec![rec])
            .expect("finite record builds");
        validate_snapshot(&snap.to_json(), &["fig4_sweep"]).expect("roundtrip validates");
    }

    #[test]
    fn parser_handles_basic_json() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(3));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(11_016), (2000, 2, 29)); // leap day
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
