//! `mem-hit` and `mem-miss`: an in-memory [`Spine`] over 1 Mi symbols of
//! order-3 Markov DNA behind a [`QueryEngine`](spine::QueryEngine) with the
//! default configuration.
//!
//! `mem-hit` queries are corpus substrings, so every query pays the
//! occurrence enumeration; `mem-miss` queries are proven absent, so only
//! the locate walk and the engine work.

use std::sync::Arc;

use spine::engine::{QueryOutcome, ServeIndex};
use spine::{try_locate, Spine};
use strindex::{Alphabet, Code, CountersSnapshot};

use crate::check::{answer_digest, ends_digest, expected_ends, MemAnswers};
use crate::drive::{run_phase, Arrivals, Hist, Phase, Sent, WINDOWS};
use crate::inputs::{digest, dna_corpus, hit_queries, near_miss_queries, KmerSet};
use crate::report::Report;
use crate::spans::{NullIndex, SpanLog, Traced, NO_PARENT};
use crate::util::{median, peak_rss_mib, ratio, Clock, FNV_OFFSET};

pub const SYMBOLS: usize = 1 << 20;
/// Builds per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
pub const CLIENTS: usize = 2;
/// Proven-absent patterns the traced run's layer pass times to find the
/// answer path's fixed cost per call.
const ABSENT_SAMPLE: usize = 512;

/// What distinguishes the two workloads.
pub struct MemSpec {
    pub name: &'static str,
    pub miss: bool,
    /// Distinct queries, offered in order and cycled.
    pub queries: usize,
    /// Open-loop Poisson rate, queries/s, of a phase after the closed loop:
    /// about half the closed-loop `qps` of the code this benchmark was
    /// written against, on a 2-core host.
    pub open_rate: Option<f64>,
    /// Queries the traced run's serial layer pass times one by one.
    pub layer_sample: usize,
}

pub const MEM_HIT: MemSpec = MemSpec {
    name: "mem-hit",
    miss: false,
    queries: 4096,
    open_rate: Some(80.0),
    layer_sample: 128,
};
pub const MEM_MISS: MemSpec =
    MemSpec { name: "mem-miss", miss: true, queries: 16384, open_rate: None, layer_sample: 4096 };

pub fn run(spec: &MemSpec, seed: u64, seconds: f64, log: Option<Arc<SpanLog>>) -> Report {
    let clock = log.as_ref().map_or_else(Clock::start, |l| l.clock);
    let corpus = dna_corpus(seed, SYMBOLS);
    let queries = if spec.miss {
        let kmers = KmerSet::new(&corpus);
        near_miss_queries(&corpus, spec.queries, |q| kmers.proves_absent(q), seed)
    } else {
        hit_queries(&corpus, spec.queries, 6..=18, seed)
    };
    let order: Vec<u32> = (0..queries.len() as u32).collect();
    println!(
        "inputs: {} seed {seed}: {} symbols, {} queries, digest {:016x}",
        spec.name,
        corpus.len(),
        queries.len(),
        digest(digest(FNV_OFFSET, std::slice::from_ref(&corpus)), &queries)
    );

    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut spine = None;
    for _ in 0..SETUPS {
        drop(spine.take());
        let t = std::time::Instant::now();
        spine = Some(Spine::build(Alphabet::dna(), &corpus).expect("DNA codes build"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let index = Arc::new(spine.expect("built at least once"));
    let setup_s = median(&setups);
    r.set("setup_s", setup_s);
    println!("set-ups: {setups:.3?} s");

    let closed = Arrivals::Closed { clients: CLIENTS };
    let open = spec.open_rate.map(|rate| Arrivals::Open { rate });
    let mut answers = MemAnswers::new(queries.len());
    let mut check = |s: &Sent, out: &QueryOutcome| answers.record(s.query as usize, out);
    let q = &queries;
    let warm = warmup(seconds);
    let mut phases =
        vec![run_phase(index.clone(), clock, q, &order, closed, warm, seed, &mut check)];
    // The measured time is shared equally by the phases: the closed loop
    // (untraced, then traced in a traced run) and the open loop, if any.
    let parts = 1 + log.is_some() as usize + open.is_some() as usize;
    let part = (seconds - warm) / parts as f64;
    let u = run_phase(index.clone(), clock, q, &order, closed, part, seed, &mut check);
    match &log {
        None => {
            let o =
                open.map(|o| run_phase(index.clone(), clock, q, &order, o, part, seed, &mut check));
            read_metrics(&mut r, &u, o.as_ref());
            phases.extend([Some(u), o].into_iter().flatten());
        }
        Some(log) => {
            let traced = Arc::new(Traced::new(index.clone(), log.clone(), |_| 0));
            let c = run_phase(traced.clone(), clock, q, &order, closed, part, seed, &mut check);
            let o = open.map(|o| run_phase(traced, clock, q, &order, o, part, seed, &mut check));
            let floor = null_floor(clock, q, &order, seconds, seed);
            read_metrics(&mut r, &u, o.as_ref());
            engine_metrics(&mut r, log, &c, &floor);
            if let Some(o) = &o {
                r.set("driver.dispatch_lag_p99_us", o.lag.pct_us(0.99));
            }
            r.set("driver.trace_overhead_frac", ratio(u.qps() - c.qps(), u.qps()));
            let sample = &queries[..spec.layer_sample];
            let kmers = KmerSet::new(&corpus);
            let absent =
                near_miss_queries(&corpus, ABSENT_SAMPLE, |q| kmers.proves_absent(q), seed);
            let (sampled, absent_ok) = layer_pass(&mut r, log, &index, sample, &absent);
            for (i, out) in sampled.iter().enumerate() {
                r.check(answers.record(i, out));
            }
            absent_ok.into_iter().for_each(|ok| r.check(ok));
            let mem = index.mem_breakdown();
            r.set("build.ns_per_symbol", setup_s * 1e9 / SYMBOLS as f64);
            r.set("build.mem_bytes_per_symbol", mem.total() as f64 / SYMBOLS as f64);
            phases.extend([Some(u), Some(c), o].into_iter().flatten());
        }
    }
    r.set("rss_mib", peak_rss_mib());

    for p in &phases {
        r.attempted += p.answered;
        r.failed += p.failed;
    }
    r.failed += answers.wrong(&expected_ends(&corpus, &queries));
    r
}

/// The end-to-end read figures: closed-loop throughput and latency, and the
/// open-loop tail when there is an open loop, each a median over the
/// phase's windows.
pub fn read_metrics(r: &mut Report, closed: &Phase, open: Option<&Phase>) {
    r.set("qps", closed.window_qps());
    r.set("p50_us", closed.window_pct_us(0.5));
    r.set("p90_us", closed.window_pct_us(0.9));
    r.set("p99_us", closed.window_pct_us(0.99));
    let qps_w: Vec<String> = closed.qps_per_window().iter().map(|q| format!("{q:.0}")).collect();
    println!("closed qps per window: {}", qps_w.join(" "));
    println!("samples: closed {} queries ({WINDOWS} windows)", closed.answered);
    if let Some(open) = open {
        r.set("open_p50_us", open.window_pct_us(0.5));
        r.set("open_p99_us", open.window_pct_us(0.99));
        let p99_w: Vec<String> =
            open.windows.iter().map(|w| format!("{:.0}", w.pct_us(0.99))).collect();
        println!(
            "open p99 µs per window: {}; open dispatch lag p99 {:.0} µs; open {} queries",
            p99_w.join(" "),
            open.lag.pct_us(0.99),
            open.answered
        );
    }
}

/// A closed-loop phase before the measured ones, so lazy set-up and
/// caches settle first; its answers are checked, its timings dropped.
pub fn warmup(seconds: f64) -> f64 {
    (seconds / 10.0).min(1.0)
}

/// The engine floor: the same closed-loop load against an index that does
/// no work.
pub fn null_floor(
    clock: Clock,
    queries: &[Vec<Code>],
    order: &[u32],
    seconds: f64,
    seed: u64,
) -> Phase {
    let floor = Arc::new(NullIndex::default());
    let closed = Arrivals::Closed { clients: CLIENTS };
    run_phase(floor, clock, queries, order, closed, (seconds / 10.0).min(1.0), seed, &mut |_, _| {
        true
    })
}

/// Engine-layer figures from a traced closed-loop phase and the null-index
/// floor phase, with the share of engine busy time the layers account for.
pub fn engine_metrics(r: &mut Report, log: &SpanLog, c: &Phase, floor: &Phase) {
    let batches: Vec<_> = log
        .named("engine.answer_patterns")
        .into_iter()
        .filter(|s| s.start_ns >= c.start_ns && s.end_ns <= c.end_ns)
        .collect();
    // Every query of a batch waits for the whole batch.
    let index_ns: f64 = batches.iter().map(|s| (s.dur_ns() * s.aux) as f64).sum();
    r.set("engine.floor_p50_us", floor.latency.pct_us(0.5));
    r.set("engine.floor_p99_us", floor.latency.pct_us(0.99));
    r.set("engine.index_share", ratio(index_ns, c.busy_ns));
    r.set("engine.batch_mean", c.engine.mean_batch());
    r.set("engine.batches", c.engine.batches() as f64);
    // The engine's own time per query is its floor; the rest is the index.
    let coverage = ratio(c.answered as f64 * floor.latency.mean() + index_ns, c.busy_ns);
    r.set("engine.layer_coverage_frac", coverage);
    if coverage < 0.9 {
        println!("uncovered share of engine busy time: {:.3}", 1.0 - coverage);
    }
    let fanout: f64 = batches.iter().map(|s| (s.aux2 * s.aux) as f64).sum();
    let queries: f64 = batches.iter().map(|s| s.aux as f64).sum();
    r.set("segments.fanout_mean", ratio(fanout, queries));
}

/// `try_locate` alone on each pattern in turn, as the engine meets them
/// (caches cold): per-pattern times and the work counters.
fn cold_locate(
    log: &SpanLog,
    index: &Spine,
    patterns: &[Vec<Code>],
) -> (Vec<u64>, CountersSnapshot) {
    let before = index.counters().snapshot();
    let ns = patterns
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (found, ns) =
                log.time("search.try_locate", i as u64, NO_PARENT, || try_locate(index, q));
            std::hint::black_box(found.expect("in-memory locate"));
            ns
        })
        .collect();
    (ns, index.counters().snapshot().since(&before))
}

/// Rounds of `try_locate` then the whole answer, back to back on one
/// pattern before the next.
const ROUNDS: usize = 3;

/// Per pattern, [`ROUNDS`] rounds of `try_locate` then the index's whole
/// answer, as spans named `names`: the fastest time of each, so both are
/// taken with the pattern's path in cache and a passing interrupt does not
/// count, and the answers.
fn locate_and_answer(
    log: &SpanLog,
    index: &Spine,
    patterns: &[Vec<Code>],
    names: (&'static str, &'static str),
) -> (Vec<u64>, Vec<u64>, Vec<QueryOutcome>) {
    let mut locate_ns = Vec::with_capacity(patterns.len());
    let mut answer_ns = Vec::with_capacity(patterns.len());
    let mut answers = Vec::with_capacity(patterns.len());
    for (i, q) in patterns.iter().enumerate() {
        let (mut locate, mut answer, mut out) = (u64::MAX, u64::MAX, Vec::new());
        for _ in 0..ROUNDS {
            let (found, ns) = log.time(names.0, i as u64, NO_PARENT, || try_locate(index, q));
            std::hint::black_box(found.expect("in-memory locate"));
            locate = locate.min(ns);
            let ns;
            (out, ns) =
                log.time(names.1, i as u64, NO_PARENT, || index.answer_patterns(&[q.as_slice()]));
            answer = answer.min(ns);
        }
        locate_ns.push(locate);
        answer_ns.push(answer);
        answers.push(out.pop().expect("one outcome per pattern"));
    }
    (locate_ns, answer_ns, answers)
}

/// The serial layer pass over the sample queries. `search.locate_*` and
/// the counters come from a cold `try_locate` pass. Enumeration is what an
/// answer costs beyond its locate (both warm) and beyond the answer path's
/// fixed cost per call: the median of the same difference on `absent`
/// patterns, which have nothing to enumerate. Returns the sample's answers,
/// and whether each absent pattern was answered empty.
fn layer_pass(
    r: &mut Report,
    log: &SpanLog,
    index: &Spine,
    sample: &[Vec<Code>],
    absent: &[Vec<Code>],
) -> (Vec<QueryOutcome>, Vec<bool>) {
    let names = ("search.try_locate.absent", "index.answer_patterns.absent");
    let (a_locate, a_index, a_answers) = locate_and_answer(log, index, absent, names);
    let residual: Vec<f64> =
        a_index.iter().zip(&a_locate).map(|(&i, &l)| i as f64 - l as f64).collect();
    let fixed_ns = median(&residual);
    println!("answer path fixed cost: {fixed_ns:.0} ns per call (median over absent patterns)");
    let empty = Some(ends_digest(&[]));
    let absent_ok = a_answers.iter().map(|a| answer_digest(a) == empty).collect();

    let (cold_ns, work) = cold_locate(log, index, sample);
    let names = ("search.try_locate.warm", "index.answer_patterns");
    let (locate_ns, index_ns, answers) = locate_and_answer(log, index, sample, names);
    let occ: usize = answers
        .iter()
        .map(|a| match a {
            QueryOutcome::Done(ends) => ends.len(),
            _ => 0,
        })
        .sum();
    let enum_ns: Vec<f64> =
        index_ns.iter().zip(&locate_ns).map(|(&i, &l)| i as f64 - l as f64 - fixed_ns).collect();
    let n = sample.len() as f64;
    let symbols: usize = sample.iter().map(Vec::len).sum();
    // Signed, so timing noise either way cancels rather than adding up.
    let total_enum = enum_ns.iter().sum::<f64>().max(0.0);
    let total_locate: u64 = cold_ns.iter().sum();
    let enum_ns = enum_ns.iter().map(|&e| e.max(0.0) as u64);
    let (locate, enumerate) = (Hist::of(cold_ns), Hist::of(enum_ns));
    r.set("search.locate_p50_us", locate.pct_us(0.5));
    r.set("search.locate_ns_per_symbol", total_locate as f64 / symbols as f64);
    r.set("search.nodes_checked_per_query", work.nodes_checked as f64 / n);
    r.set("search.links_followed_per_query", work.links_followed as f64 / n);
    r.set("search.extribs_scanned_per_query", work.extribs_scanned as f64 / n);
    r.set("occurrences.enum_p50_us", enumerate.pct_us(0.5));
    r.set("occurrences.enum_p99_us", enumerate.pct_us(0.99));
    r.set("occurrences.occ_per_query", occ as f64 / n);
    r.set("occurrences.ns_per_occurrence", ratio(total_enum, occ as f64));
    r.set("occurrences.index_share", ratio(total_enum, index_ns.iter().sum::<u64>() as f64));
    (answers, absent_ok)
}
