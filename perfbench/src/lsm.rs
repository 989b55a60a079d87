//! `lsm-mixed`: a [`SegmentedSpine`] on files, read by two closed-loop
//! clients while one writer keeps the live set constant, like log
//! retention.
//!
//! Each write adds the next document and retires the oldest live one.
//! Documents are as long as the default memtable threshold, so every add
//! seals a segment; every `MERGE_EVERY`-th write the writer applies the
//! background merger's rule and merges. Replacing the merger's timer with
//! the write count makes seal, merge and commit counts repeat exactly.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spine::engine::{QueryOutcome, ServeIndex};
use spine::{IoGate, SegmentConfig, SegmentedSpine};
use strindex::Alphabet;

use crate::check::LsmOracle;
use crate::drive::{run_phase, Arrivals, Hist, Sent};
use crate::inputs::{digest, zipf_ranks, DocStream};
use crate::mem::{engine_metrics, null_floor, read_metrics, warmup, CLIENTS};
use crate::report::Report;
use crate::spans::{Span, SpanLog, Traced, NO_PARENT};
use crate::util::{fnv, median, peak_rss_mib, ratio, Clock, FNV_OFFSET};

pub const DOC_LEN: usize = 16 << 10;
/// Live documents: 8 × 16 Ki = 128 Ki symbols.
pub const LIVE_DOCS: usize = 8;
pub const HOT_PATTERNS: usize = 16;
/// Writes per second on the writer's fixed schedule.
pub const WRITE_RATE: f64 = 5.0;
/// The writer considers a merge after every this many writes.
pub const MERGE_EVERY: usize = 8;
/// Preloads per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reads of the read-only replay that ends a traced run.
const REPLAY_READS: usize = 256;

/// Removes the run's store directories however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What the writer did, on the run clock.
#[derive(Default)]
struct Writes {
    /// Intended time → add and retire done, per write.
    latency_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    add_ns: Vec<u64>,
    retire_ns: Vec<u64>,
    /// Calls that sealed or merged: (start, end).
    seals: Vec<(u64, u64)>,
    merges: Vec<(u64, u64)>,
    /// Bytes of segment files the writes created (traced runs only).
    segment_bytes: u64,
    ok: Vec<bool>,
}

pub fn run(seed: u64, seconds: f64, log: Option<Arc<SpanLog>>) -> Report {
    let clock = log.as_ref().map_or_else(Clock::start, |l| l.clock);
    let warm = warmup(seconds);
    let seconds = seconds - warm;
    let writes = (WRITE_RATE * seconds).round() as usize;
    let stream = DocStream::new(seed, DOC_LEN, LIVE_DOCS + writes, LIVE_DOCS, HOT_PATTERNS);
    let order = zipf_ranks(HOT_PATTERNS, 1 << 16, seed);
    let schedule = format!("rate {WRITE_RATE} merge-every {MERGE_EVERY} writes {writes}");
    let order_bytes: Vec<u8> = order.iter().flat_map(|k| k.to_le_bytes()).collect();
    println!(
        "inputs: lsm-mixed seed {seed}: {} documents of {DOC_LEN}, {} hot patterns, {schedule}, digest {:016x}",
        stream.docs.len(),
        stream.hot.len(),
        fnv(fnv(digest(digest(FNV_OFFSET, &stream.docs), &stream.hot), &order_bytes), schedule.as_bytes())
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(format!("lsm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let scratch = Scratch(root);
    let gate = IoGate::unarmed();
    let cfg =
        SegmentConfig { gate: log.as_ref().map(|_| gate.clone()), ..SegmentConfig::default() };
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut store = None;
    let mut dir = PathBuf::new();
    for i in 0..SETUPS {
        if let Some(s) = store.take() {
            drop(s);
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = scratch.0.join(format!("store-{i}"));
        let t = std::time::Instant::now();
        store = Some(preload(&dir, cfg.clone(), &stream.docs[..LIVE_DOCS]));
        setups.push(t.elapsed().as_secs_f64());
    }
    let store = Arc::new(store.expect("set up at least once"));
    let setup_s = median(&setups);
    r.set("setup_s", setup_s);
    println!("set-ups: {setups:.3?} s");

    let oracle = LsmOracle::new(&stream.docs, &stream.hot, LIVE_DOCS);
    let before = store.stats();
    let closed = Arrivals::Closed { clients: CLIENTS };
    let hot = &stream.hot;
    let mut reads: Vec<Sent> = Vec::new();
    let mut check = |s: &Sent, out: &QueryOutcome| {
        reads.push(*s);
        oracle.read_ok(s.query as usize, s.submit_ns, s.done_ns, out)
    };
    let (docs, store_ref, dir_ref, log_ref, oracle_ref) =
        (&stream.docs, &*store, &dir, log.as_deref(), &oracle);
    let warm_phase = run_phase(store.clone(), clock, hot, &order, closed, warm, seed, &mut check);
    let (w, phases, floor) = std::thread::scope(|s| {
        let start_ns = clock.now_ns();
        let writer = s.spawn(move || {
            write(store_ref, dir_ref, docs, oracle_ref, clock, start_ns, writes, log_ref)
        });
        let (phases, floor) = match &log {
            None => {
                let c =
                    run_phase(store.clone(), clock, hot, &order, closed, seconds, seed, &mut check);
                (vec![c], None)
            }
            Some(log) => {
                let fanout = |s: &SegmentedSpine| s.stats().segments as u64;
                let traced = Arc::new(Traced::new(store.clone(), log.clone(), fanout));
                let half = seconds / 2.0;
                let u =
                    run_phase(store.clone(), clock, hot, &order, closed, half, seed, &mut check);
                let c = run_phase(traced, clock, hot, &order, closed, half, seed, &mut check);
                (vec![u, c], Some(null_floor(clock, hot, &order, seconds, seed)))
            }
        };
        (writer.join().expect("writer thread"), phases, floor)
    });
    let after = store.stats();
    let live_symbols = (LIVE_DOCS * DOC_LEN) as f64;
    let stored = dir_bytes(&dir) as f64 / live_symbols;
    let write_lat = Hist::of(w.latency_ns.iter().copied());
    let (write_p50, write_p90) = (write_lat.pct_us(0.5), write_lat.pct_us(0.9));
    println!(
        "writes: {} ({} seals, {} merges, epoch {} -> {}), reads: {}",
        writes,
        after.seals - before.seals,
        after.merges - before.merges,
        before.epoch,
        after.epoch,
        phases.iter().map(|p| p.answered.to_string()).collect::<Vec<_>>().join(" + ")
    );

    // The first phase is the untraced closed loop. There is no open loop,
    // so `driver.dispatch_lag_p99_us` stays 0.
    read_metrics(&mut r, &phases[0], None);
    match (&log, &floor) {
        (Some(log), Some(floor)) => {
            let (u, c) = (&phases[0], &phases[1]);
            engine_metrics(&mut r, log, c, floor);
            r.set("driver.trace_overhead_frac", ratio(u.qps() - c.qps(), u.qps()));
            segment_metrics(&mut r, &w, &reads, writes);
            r.set("segments.seals", (after.seals - before.seals) as f64);
            r.set("segments.merges", (after.merges - before.merges) as f64);
            r.set("segments.commits", (after.epoch - before.epoch) as f64);
            r.set("segments.write_p50_us", write_p50);
            r.set("segments.write_p90_us", write_p90);
            r.set("segments.stored_bytes_per_symbol", stored);
            r.set("build.ns_per_symbol", setup_s * 1e9 / live_symbols);
            let now = clock.now_ns();
            for (q, out) in replay_reads(&mut r, &store, hot, &order, &gate) {
                r.check(oracle.read_ok(q, now, now, &out));
            }
        }
        _ => {
            r.set("write_p50_us", write_p50);
            r.set("write_p90_us", write_p90);
            r.set("stored_bytes_per_symbol", stored);
        }
    }
    r.set("rss_mib", peak_rss_mib());
    for ok in &w.ok {
        r.check(*ok);
    }
    for p in phases.iter().chain([&warm_phase]) {
        r.attempted += p.answered;
        r.failed += p.failed;
    }
    drop(store);
    drop(scratch);
    r
}

/// The writer: `writes` steps on a fixed schedule from `start_ns`.
#[allow(clippy::too_many_arguments)]
fn write(
    store: &SegmentedSpine,
    dir: &Path,
    docs: &[Vec<strindex::Code>],
    oracle: &LsmOracle,
    clock: Clock,
    start_ns: u64,
    writes: usize,
    log: Option<&SpanLog>,
) -> Writes {
    let mut w = Writes::default();
    // Files the preload left are not the writes' doing.
    let mut created = log.map(|_| NewFiles::baseline(dir));
    let span = |name: &'static str, id: usize, start_ns: u64, end_ns: u64, aux: u64| {
        if let Some(log) = log {
            log.push(Span {
                name,
                id: id as u64,
                parent: NO_PARENT,
                start_ns,
                end_ns,
                aux,
                aux2: 0,
            });
        }
    };
    for i in 0..writes {
        let intended = start_ns + ((i + 1) as f64 * 1e9 / WRITE_RATE) as u64;
        clock.sleep_until(intended);
        let seals_before = store.stats().seals;
        let (new, old) = (LIVE_DOCS + i, i);
        let t0 = clock.now_ns();
        LsmOracle::stamp(&oracle.add_start, new, t0);
        let added = store.add_document(&docs[new]);
        let t1 = clock.now_ns();
        LsmOracle::stamp(&oracle.add_end, new, t1);
        LsmOracle::stamp(&oracle.retire_start, old, t1);
        let retired = store.retire_document(old as u64);
        let t2 = clock.now_ns();
        LsmOracle::stamp(&oracle.retire_end, old, t2);
        let sealed = store.stats().seals > seals_before;
        // Listed before a merge can remove the segment this add sealed.
        if let Some(c) = &mut created {
            w.segment_bytes += c.scan(dir);
        }
        span("segments.add_document", i, t0, t1, sealed as u64);
        span("segments.retire_document", i, t1, t2, 0);
        w.ok.push(matches!(added, Ok(id) if id as usize == new) && matches!(retired, Ok(true)));
        w.lag_ns.push(t0 - intended.min(t0));
        w.latency_ns.push(t2 - intended.min(t2));
        w.add_ns.push(t1 - t0);
        w.retire_ns.push(t2 - t1);
        if sealed {
            w.seals.push((t0, t1));
        }
        if (i + 1) % MERGE_EVERY == 0 {
            // The background merger's rule (`spawn_merger`).
            let st = store.stats();
            if st.segments >= SegmentConfig::default().merge_min_segments || st.tombstones > 0 {
                let t3 = clock.now_ns();
                let merged = store.merge_once();
                let t4 = clock.now_ns();
                span("segments.merge_once", i, t3, t4, 0);
                w.ok.push(merged.is_ok());
                if matches!(merged, Ok(true)) {
                    w.merges.push((t3, t4));
                }
            }
        }
        if let Some(c) = &mut created {
            w.segment_bytes += c.scan(dir);
        }
    }
    w
}

/// A store in `dir` holding `docs`, merged into one segment, so it serves
/// as it will after any merge of the run.
pub fn preload(dir: &Path, cfg: SegmentConfig, docs: &[Vec<strindex::Code>]) -> SegmentedSpine {
    let s = SegmentedSpine::create(Alphabet::dna(), dir, cfg).expect("create store");
    for (d, doc) in docs.iter().enumerate() {
        assert_eq!(s.add_document(doc).expect("preload") as usize, d);
    }
    assert!(s.merge_once().expect("preload merge"), "the preloaded segments merge");
    s
}

/// Segment files of a store directory that appeared after a baseline
/// listing: what `segments.write_amp` counts.
pub struct NewFiles {
    seen: HashSet<String>,
}

impl NewFiles {
    /// Everything in `dir` now is old.
    pub fn baseline(dir: &Path) -> NewFiles {
        NewFiles { seen: segment_files(dir).into_iter().map(|(name, _)| name).collect() }
    }

    /// Bytes of the segment files in `dir` not seen before.
    pub fn scan(&mut self, dir: &Path) -> u64 {
        segment_files(dir)
            .into_iter()
            .filter(|(name, _)| self.seen.insert(name.clone()))
            .map(|(_, bytes)| bytes)
            .sum()
    }
}

fn segment_metrics(r: &mut Report, w: &Writes, reads: &[Sent], writes: usize) {
    let p99 = |v: &[u64]| Hist::of(v.iter().copied()).pct_us(0.99);
    let mean_ms = |iv: &[(u64, u64)]| {
        ratio(iv.iter().map(|(a, b)| (b - a) as f64).sum::<f64>() / 1e6, iv.len() as f64)
    };
    r.set("segments.add_p99_us", p99(&w.add_ns));
    r.set("segments.retire_p99_us", p99(&w.retire_ns));
    r.set("segments.seal_ms_mean", mean_ms(&w.seals));
    r.set("segments.merge_ms_mean", mean_ms(&w.merges));
    r.set("segments.write_amp", ratio(w.segment_bytes as f64, (writes * DOC_LEN) as f64));
    let busy: Vec<(u64, u64)> = w.seals.iter().chain(&w.merges).copied().collect();
    let during: Vec<u64> = reads
        .iter()
        .filter(|s| busy.iter().any(|&(a, b)| s.submit_ns < b && s.done_ns > a))
        .map(|s| s.done_ns - s.intended_ns)
        .collect();
    r.set("segments.read_p99_during_merge_us", p99(&during));
    r.set("driver.writer_lag_p99_us", p99(&w.lag_ns));
}

/// Serial reads with the writer stopped: device operations through the
/// store's counting gate, locate work counters, and page fetches from the
/// per-component EXPLAIN of each hot pattern.
fn replay_reads(
    r: &mut Report,
    store: &SegmentedSpine,
    hot: &[Vec<strindex::Code>],
    order: &[u32],
    gate: &IoGate,
) -> Vec<(usize, QueryOutcome)> {
    let ops = gate.ops();
    let work = store.counters_snapshot();
    let answers: Vec<(usize, QueryOutcome)> = order[..REPLAY_READS]
        .iter()
        .map(|&q| {
            let q = q as usize;
            let mut out = store.answer_patterns(&[hot[q].as_slice()]);
            (q, out.pop().expect("one outcome per pattern"))
        })
        .collect();
    let work = store.counters_snapshot().since(&work);
    let n = REPLAY_READS as f64;
    r.set("pagestore.io_ops_per_read", (gate.ops() - ops) as f64 / n);
    r.set("search.nodes_checked_per_query", work.nodes_checked as f64 / n);
    r.set("search.links_followed_per_query", work.links_followed as f64 / n);
    r.set("search.extribs_scanned_per_query", work.extribs_scanned as f64 / n);
    let occ: usize = answers
        .iter()
        .map(|(_, a)| match a {
            QueryOutcome::DoneDocs(m) => m.len(),
            _ => 0,
        })
        .sum();
    r.set("occurrences.occ_per_query", occ as f64 / n);
    let (mut hits, mut misses) = (0u64, 0u64);
    for p in hot {
        for (_, trace) in store.explain(p) {
            let (h, m) = trace.page_fetches();
            hits += h;
            misses += m;
        }
    }
    r.set("pagestore.fetches_per_read", (hits + misses) as f64 / hot.len() as f64);
    r.set("pagestore.hit_rate", ratio(hits as f64, (hits + misses) as f64));
    answers
}

fn segment_files(dir: &Path) -> Vec<(String, u64)> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let len = e.metadata().ok()?.len();
                    name.starts_with("seg-").then_some((name, len))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
