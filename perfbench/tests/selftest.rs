//! Self-tests of the benchmark: its names and limits, its open-loop
//! accounting, and its answer checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Arc;
use std::time::Duration;

use perfbench::check::{expected_ends, LsmOracle};
use perfbench::drive::{run_phase, Arrivals, Hist};
use perfbench::inputs::{dna_corpus, hit_queries, near_miss_queries, DocStream, KmerSet};
use perfbench::lsm::{preload, NewFiles, DOC_LEN, LIVE_DOCS};
use perfbench::report::{END_TO_END, HUMAN_ONLY, PER_LAYER, RUN_SECONDS, WORKLOADS};
use perfbench::spans::NullIndex;
use perfbench::util::Clock;
use spine::engine::QueryOutcome;
use spine::{DocMatch, SegmentConfig};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn names_are_valid_and_within_limits() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let all: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(&PER_LAYER).chain(&HUMAN_ONLY).map(|m| m.0))
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad name {name:?}");
        assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
}

/// `BENCHMARK.json` names workloads the runner has, then the runner's
/// metrics, in order and with the same units, and measures as long as a
/// run without `--seconds`.
#[test]
fn benchmark_json_matches_the_runner() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")), "run_seconds");
    let mut listed = Vec::new();
    let mut rest = json.as_str();
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let end = rest.find('"').expect("closing quote");
        let name = &rest[..end];
        let unit = rest
            .find('}')
            .and_then(|close| rest[..close].find("\"unit\": \"").map(|u| (u, close)))
            .map(|(u, _)| {
                let v = &rest[u + 9..];
                v[..v.find('"').expect("closing quote")].to_string()
            });
        listed.push((name.to_string(), unit));
    }
    let workloads = listed.iter().take_while(|(_, unit)| unit.is_none()).count();
    assert!(workloads >= 2);
    for (name, _) in &listed[..workloads] {
        assert!(WORKLOADS.contains(&name.as_str()), "unknown workload {name}");
    }
    let expected: Vec<(String, Option<String>)> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect();
    assert_eq!(listed[workloads..], expected);
}

#[test]
fn histogram_percentiles_are_within_a_tenth_of_a_percent() {
    let mut h = Hist::default();
    for v in 1..=100_000u64 {
        h.record(v * 1000);
    }
    for (q, exact) in [(0.5, 50_000_000.0), (0.99, 99_000_000.0)] {
        let got = h.pct(q);
        assert!((got - exact).abs() / exact < 1e-3, "p{q}: {got} vs {exact}");
    }
}

/// An engine stall is charged to every query scheduled during it in the
/// open loop, while a closed loop, which stops sending while it waits,
/// hides it from its median.
#[test]
fn open_loop_charges_a_stall_that_the_closed_loop_hides() {
    let stall = Duration::from_millis(300);
    let queries = vec![vec![0u8; 8]];
    let order = [0u32];
    let clock = Clock::start();
    let run = |index: NullIndex, arrivals| {
        run_phase(Arc::new(index), clock, &queries, &order, arrivals, 1.0, 7, &mut |_, _| true)
    };
    let open = Arrivals::Open { rate: 2000.0 };
    let closed = Arrivals::Closed { clients: 2 };
    let calm = run(NullIndex::default(), open).latency.pct_us(0.99);
    let stalled = run(NullIndex::stalled(200, stall), open).latency.pct_us(0.99);
    let stall_us = stall.as_micros() as f64;
    assert!(
        stalled - calm >= 0.9 * stall_us,
        "open p99 {stalled} µs vs {calm} µs without the stall"
    );
    let closed_p50 = run(NullIndex::stalled(200, stall), closed).latency.pct_us(0.5);
    assert!(closed_p50 < stall_us / 100.0, "closed-loop p50 {closed_p50} µs");
}

#[test]
fn absent_filter_rejects_a_planted_present_query() {
    let corpus = dna_corpus(5, 1 << 16);
    let kmers = KmerSet::new(&corpus);
    let present = corpus[1000..1016].to_vec();
    assert!(!kmers.proves_absent(&present), "a corpus substring must not pass as absent");
    let misses = near_miss_queries(&corpus, 200, |q| kmers.proves_absent(q), 5);
    assert!(
        expected_ends(&corpus, &misses).iter().all(Vec::is_empty),
        "every kept query is absent"
    );
    let hits = hit_queries(&corpus, 50, 6..=18, 5);
    assert!(expected_ends(&corpus, &hits).iter().all(|e| !e.is_empty()), "every hit query hits");
}

/// A document-match answer to plant.
fn docs_outcome(matches: &[(usize, usize)]) -> QueryOutcome {
    QueryOutcome::DoneDocs(matches.iter().map(|&(doc, offset)| DocMatch { doc, offset }).collect())
}

#[test]
fn lsm_check_rejects_missing_and_extra_matches() {
    // Pattern 0 is "ACGT" (codes 0 1 2 3); doc 0 holds it at 0 and 4, doc 1
    // at 2, doc 2 at 0.
    let docs = vec![
        vec![0, 1, 2, 3, 0, 1, 2, 3],
        vec![3, 3, 0, 1, 2, 3, 3, 3],
        vec![0, 1, 2, 3, 3, 3, 3, 3],
    ];
    let hot = vec![vec![0, 1, 2, 3]];
    let oracle = LsmOracle::new(&docs, &hot, 2);
    // Doc 2 is added during [50, 60]; doc 0 is retired during [10, 20].
    LsmOracle::stamp(&oracle.add_start, 2, 50);
    LsmOracle::stamp(&oracle.add_end, 2, 60);
    LsmOracle::stamp(&oracle.retire_start, 0, 10);
    LsmOracle::stamp(&oracle.retire_end, 0, 20);
    // A read over [30, 40]: only doc 1 is live; doc 2 not yet, doc 0 gone.
    assert!(oracle.read_ok(0, 30, 40, &docs_outcome(&[(1, 2)])));
    assert!(!oracle.read_ok(0, 30, 40, &docs_outcome(&[])), "missing a match of a live document");
    assert!(
        !oracle.read_ok(0, 30, 40, &docs_outcome(&[(1, 2), (0, 0)])),
        "match of a retired document"
    );
    assert!(
        !oracle.read_ok(0, 30, 40, &docs_outcome(&[(1, 2), (1, 3)])),
        "match at a wrong offset"
    );
    assert!(
        !oracle.read_ok(0, 30, 40, &docs_outcome(&[(1, 2), (2, 0)])),
        "match of a later document"
    );
    // A read over [55, 70] may or may not see doc 2, which arrived during it.
    assert!(oracle.read_ok(0, 55, 70, &docs_outcome(&[(1, 2)])));
    assert!(oracle.read_ok(0, 55, 70, &docs_outcome(&[(1, 2), (2, 0)])));
    // A read over [5, 15] overlaps doc 0's retirement: its matches may go.
    assert!(oracle.read_ok(0, 5, 15, &docs_outcome(&[(0, 0), (0, 4), (1, 2)])));
    assert!(oracle.read_ok(0, 5, 15, &docs_outcome(&[(1, 2)])));
}

/// `segments.write_amp` counts only segment files the writes created: the
/// preloaded store's own files count for nothing, and a write that seals
/// counts.
#[test]
fn write_amp_counts_no_preload_bytes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(format!("selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stream = DocStream::new(3, DOC_LEN, LIVE_DOCS + 1, LIVE_DOCS, 1);
    let store = preload(&dir, SegmentConfig::default(), &stream.docs[..LIVE_DOCS]);
    let mut created = NewFiles::baseline(&dir);
    let none = created.scan(&dir);
    store.add_document(&stream.docs[LIVE_DOCS]).expect("add");
    let sealed = created.scan(&dir);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(none, 0, "bytes counted with no write");
    assert!(sealed > 0, "a sealing add created no segment bytes");
}
