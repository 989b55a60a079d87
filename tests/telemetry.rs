//! Telemetry invariants, machine-checked across the stack:
//!
//! * histogram bucket containment and ≤25 % width on randomized values;
//! * quantile monotonicity and the `quantile ≤ max` cap;
//! * span-ring wraparound keeping exactly the newest `capacity` spans;
//! * the differential stage-timing check — a real single-worker engine's
//!   busy-stage time never exceeds the run's wall time.

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;
use spine::engine::{EngineConfig, QueryEngine};
use spine::telemetry::{Histogram, MetricsRegistry, Stage, DEFAULT_SPAN_CAPACITY};
use spine::Spine;
use strindex::{Alphabet, Code};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in a bucket that contains it, and that bucket is
    /// never wider than 25 % of its lower bound (plus one for the integer
    /// floor) — the error bound all quantile estimates inherit.
    #[test]
    fn bucket_contains_value_within_width_bound(v in 0u64..=u64::MAX) {
        let i = Histogram::bucket_index(v);
        let (lo, hi) = Histogram::bucket_range(i);
        prop_assert!(lo <= v && v <= hi, "value {} outside bucket {} [{}, {}]", v, i, lo, hi);
        prop_assert!(
            hi as f64 <= lo as f64 * 1.25 + 1.0,
            "bucket {} too wide: [{}, {}]", i, lo, hi
        );
    }

    /// Quantiles are monotone in `q`, bracketed by the recorded extremes,
    /// and capped by the exact max.
    #[test]
    fn quantiles_monotone_and_capped(values in prop::collection::vec(0u64..1 << 40, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record_value(v);
        }
        let s = h.snapshot();
        let mut values = values;
        values.sort_unstable();
        let max = *values.last().unwrap();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.max, max);
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", qs);
        }
        for &q in &qs {
            prop_assert!(q <= max, "quantile {} exceeds max {}", q, max);
        }
        // The median is within the bucket error bound of the true median.
        let true_med = values[values.len() / 2];
        prop_assert!(
            s.quantile(0.5) as f64 <= true_med as f64 * 1.25 + 1.0
                || s.quantile(0.5) <= true_med,
            "p50 {} far above true median {}", s.quantile(0.5), true_med
        );
    }
}

#[test]
fn span_ring_wraps_keeping_newest() {
    let cap = 8;
    let reg = MetricsRegistry::with_span_capacity(cap);
    let epoch = reg.epoch();
    for i in 0..3 * cap {
        reg.record_span(format!("span{i}"), epoch, std::time::Duration::from_micros(i as u64));
    }
    let snap = reg.snapshot();
    assert_eq!(snap.spans_recorded, (3 * cap) as u64);
    assert_eq!(snap.span_capacity, cap);
    assert_eq!(snap.spans.len(), cap);
    // Oldest-first, and exactly the last `cap` spans survive.
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    let expect: Vec<String> = (2 * cap..3 * cap).map(|i| format!("span{i}")).collect();
    assert_eq!(names, expect.iter().map(String::as_str).collect::<Vec<_>>());

    let default = MetricsRegistry::new();
    default.record_span("only", default.epoch(), std::time::Duration::from_micros(1));
    assert_eq!(default.snapshot().span_capacity, DEFAULT_SPAN_CAPACITY);
}

/// The differential check behind `exp serve --metrics`: with ONE worker, the
/// busy stages (index scan, result merge) are strictly
/// sequential segments of that worker's life, so their recorded sum must be
/// bounded by the whole run's wall time.
#[test]
fn single_worker_busy_stages_bounded_by_wall_time() {
    let a = Alphabet::dna();
    let text: Vec<Code> = (0..20_000u64).map(|i| ((i * i / 7 + i / 11) % 4) as Code).collect();
    let index = Arc::new(Spine::build(a, &text).unwrap());
    let patterns: Vec<Vec<Code>> =
        (0..300).map(|i| text[i * 61 % (text.len() - 16)..][..8 + i % 8].to_vec()).collect();

    let registry = Arc::new(MetricsRegistry::new());
    let cfg = EngineConfig { workers: 1, ..Default::default() };
    let engine = QueryEngine::with_telemetry(index, cfg, Arc::clone(&registry));

    let start = Instant::now();
    for r in engine.submit_batch(patterns.iter().cloned()) {
        r.unwrap();
    }
    let results = engine.drain();
    let wall = start.elapsed().as_secs_f64();

    assert_eq!(results.len(), patterns.len());
    let m = engine.metrics();
    assert!(m.is_consistent(), "ledger invariant violated: {m:?}");

    let snap = registry.snapshot();
    let busy = snap.busy_stage_seconds();
    assert!(busy > 0.0, "no stage time recorded");
    // 1 worker × wall, with a little slack for timer-read skew at the edges.
    assert!(
        busy <= wall * 1.05 + 0.001,
        "busy stages {busy:.6}s exceed single-worker wall {wall:.6}s"
    );
    // Each busy stage individually recorded work.
    for stage in [Stage::IndexScan, Stage::ResultMerge] {
        assert!(
            !snap.stage(stage).expect("stage registered").is_empty(),
            "no samples for {}",
            stage.metric_name()
        );
    }
}

// ---------------------------------------------------------------------------
// Exporter schemas. A minimal JSON value parser (strings with escapes,
// numbers, objects, arrays, literals) keeps the assertions structural: the
// Chrome trace must PARSE, not merely look plausible, and adversarial span
// names must survive the round trip.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut at = 0;
    let v = parse_value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing garbage at byte {at}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, at);
                let Json::Str(key) = parse_value(b, at)? else {
                    return Err(format!("non-string object key at byte {at}"));
                };
                skip_ws(b, at);
                if b.get(*at) != Some(&b':') {
                    return Err(format!("expected ':' at byte {at}"));
                }
                *at += 1;
                fields.push((key, parse_value(b, at)?));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = String::new();
            loop {
                match b.get(*at) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *at += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *at += 1;
                        match b.get(*at) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b.get(*at + 1..*at + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                                *at += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *at += 1;
                    }
                    Some(&c) if c < 0x20 => {
                        return Err(format!("raw control byte {c:#x} in string"))
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so
                        // boundaries are valid).
                        let rest = std::str::from_utf8(&b[*at..]).map_err(|e| e.to_string())?;
                        let ch = rest.chars().next().unwrap();
                        s.push(ch);
                        *at += ch.len_utf8();
                    }
                }
            }
        }
        Some(_) => {
            let start = *at;
            while *at < b.len()
                && !matches!(b[*at], b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
            {
                *at += 1;
            }
            let tok = std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())?;
            match tok {
                "null" => Ok(Json::Null),
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                _ => tok
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad literal {tok:?} at byte {start}")),
            }
        }
    }
}

/// The Chrome `trace_event` export parses as JSON and matches the format's
/// schema: a `traceEvents` array whose complete events (`ph:"X"`) carry
/// name/cat/ts/dur/pid/tid, with engine span names intact.
#[test]
fn chrome_trace_export_matches_schema() {
    let reg = MetricsRegistry::new();
    let epoch = reg.epoch();
    reg.record_span("q1", epoch, std::time::Duration::from_micros(40));
    reg.record_span("q2.explain", epoch, std::time::Duration::from_micros(75));
    reg.record_span("flush", epoch, std::time::Duration::from_micros(5));
    let doc = parse_json(&reg.snapshot().to_chrome_trace()).expect("chrome trace must parse");

    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    // Metadata event first, then the three spans.
    assert_eq!(events.len(), 4);
    assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
    let mut names = Vec::new();
    for e in &events[1..] {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "span events are complete");
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("span"));
        for field in ["ts", "dur", "pid", "tid"] {
            let v = e.get(field).and_then(Json::as_num);
            assert!(v.is_some_and(|n| n >= 0.0), "missing numeric {field}: {e:?}");
        }
        names.push(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(names, ["q1", "q2.explain", "flush"]);
    // Query spans share a track; other spans land on another.
    assert_eq!(events[1].get("tid"), events[2].get("tid"));
    assert_ne!(events[2].get("tid"), events[3].get("tid"));
}

/// Adversarial span names — quotes, backslashes, newlines, control bytes —
/// survive both JSON exporters: the documents still parse and the decoded
/// names are byte-identical to the originals.
#[test]
fn adversarial_span_names_round_trip_through_exporters() {
    let evil = ["q\"uote", "back\\slash", "new\nline", "ctl\u{1}\u{1f}", "tab\tbell\u{7}"];
    let reg = MetricsRegistry::new();
    let epoch = reg.epoch();
    for (i, name) in evil.iter().enumerate() {
        reg.record_span(*name, epoch, std::time::Duration::from_micros(i as u64 + 1));
    }
    let snap = reg.snapshot();

    for (tag, text) in [("registry", snap.to_json()), ("chrome", snap.to_chrome_trace())] {
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("{tag} export must parse: {e}"));
        let events = match tag {
            "registry" => doc.get("spans").and_then(|s| s.get("events")),
            _ => doc.get("traceEvents"),
        };
        let Some(Json::Arr(events)) = events else {
            panic!("{tag}: span event array missing");
        };
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, evil, "{tag}: span names mangled");
    }
}
