//! Fault-tolerant serving, end to end.
//!
//! The engine's robustness contract, exercised deterministically:
//!
//! * **bounded admission** — a full queue sheds (`RejectNewest`) without
//!   blocking, and the metrics account for every request:
//!   `completed + shed + timed_out + failed == submitted`;
//! * **worker panic isolation** — a panicking index fails only its request,
//!   `drain` still returns (the historical hang), the worker respawns, and
//!   the engine keeps serving;
//! * **storage-fault degradation** — an engine over a [`DiskSpine`] whose
//!   device hard-fails turns the affected queries into
//!   [`QueryOutcome::Failed`], while a retry layer over a *transiently*
//!   flaky device hides the faults entirely (answers match the in-memory
//!   oracle), and a sealed index whose device dies part-way through the
//!   occurrence walk returns the typed error, never a partial answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pagestore::{FaultyDevice, FlakyDevice, Lru, MemDevice, PageDevice, RetryDevice, RetryPolicy};
use spine::engine::{EngineConfig, QueryEngine, QueryOutcome, ShedPolicy, SubmitError};
use spine::occurrences::{find_all_ends, try_find_all_ends};
use spine::{DiskSpine, NodeId, Spine, SpineOps};
use strindex::{Alphabet, Code, Counters, Error, Result, StringIndex};

fn paper_spine() -> (Alphabet, Spine) {
    let a = Alphabet::dna();
    let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
    (a, s)
}

// ---------------------------------------------------------------------------
// A gate that stalls the index's first accessor until released, so tests can
// hold a worker mid-request and fill the admission queue deterministically.
// ---------------------------------------------------------------------------

struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: Mutex<bool>,
    entered_cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: Mutex::new(false),
            entered_cv: Condvar::new(),
        }
    }

    /// Called by the index under test: announce a worker reached the gate,
    /// then block until the test opens it.
    fn pass(&self) {
        {
            let mut e = self.entered.lock().unwrap();
            *e = true;
            self.entered_cv.notify_all();
        }
        let mut o = self.open.lock().unwrap();
        while !*o {
            o = self.opened.wait(o).unwrap();
        }
    }

    /// Called by the test: wait until some worker is blocked at the gate.
    fn await_entry(&self) {
        let mut e = self.entered.lock().unwrap();
        while !*e {
            e = self.entered_cv.wait(e).unwrap();
        }
    }

    fn release(&self) {
        let mut o = self.open.lock().unwrap();
        *o = true;
        self.opened.notify_all();
    }
}

struct GatedSpine {
    inner: Spine,
    gate: Arc<Gate>,
}

impl SpineOps for GatedSpine {
    fn text_len(&self) -> usize {
        SpineOps::text_len(&self.inner)
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        self.gate.pass();
        self.inner.try_vertebra_out(node)
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_rib_of(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        self.inner.ops_counters()
    }
}

/// Overload with `RejectNewest`: once one request occupies the single
/// worker and `capacity` more fill the queue, every further submission is
/// shed *immediately* (no blocking), and the final metrics account for
/// every request exactly once.
#[test]
fn reject_newest_sheds_deterministically_and_accounts() {
    let (a, s) = paper_spine();
    let gate = Arc::new(Gate::new());
    let index = Arc::new(GatedSpine { inner: s, gate: Arc::clone(&gate) });
    let capacity = 3usize;
    let engine = QueryEngine::new(
        Arc::clone(&index),
        EngineConfig { workers: 1, queue_capacity: capacity, shed: ShedPolicy::RejectNewest },
    );

    let pat = a.encode(b"CA").unwrap();
    // First request: the lone worker takes it and blocks at the gate.
    engine.submit(pat.clone()).unwrap();
    gate.await_entry();
    // Fill the queue to capacity — all admitted.
    for _ in 0..capacity {
        engine.submit(pat.clone()).unwrap();
    }
    // Everything beyond capacity is shed, and shedding never blocks: these
    // calls return even though the only worker is stalled at the gate.
    let overload = 9usize;
    for _ in 0..overload {
        assert_eq!(engine.submit(pat.clone()), Err(SubmitError::Overloaded));
    }

    gate.release();
    let results = engine.drain();
    assert_eq!(results.len(), 1 + capacity, "shed requests produce no results");
    for r in &results {
        assert_eq!(r.expect_ends(), [5, 7, 10]);
    }

    let m = engine.metrics();
    assert_eq!(m.submitted, (1 + capacity + overload) as u64);
    assert_eq!(m.completed, (1 + capacity) as u64);
    assert_eq!(m.shed, overload as u64);
    assert_eq!(m.timed_out, 0);
    assert_eq!(m.failed, 0);
    assert_eq!(m.accounted(), m.submitted, "every request accounted exactly once");
}

/// `Block` is loss-free: a submitter that finds the queue full waits for a
/// worker instead of shedding, so every request completes.
#[test]
fn block_policy_is_loss_free_under_overload() {
    let (a, s) = paper_spine();
    let engine = QueryEngine::new(
        Arc::new(s),
        EngineConfig { workers: 2, queue_capacity: 2, shed: ShedPolicy::Block },
    );
    let pat = a.encode(b"AC").unwrap();
    for _ in 0..64 {
        engine.submit(pat.clone()).unwrap(); // may block, never errors
    }
    let results = engine.drain();
    assert_eq!(results.len(), 64);
    let m = engine.metrics();
    assert_eq!(m.completed, 64);
    assert_eq!(m.shed, 0);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Worker panic isolation.
// ---------------------------------------------------------------------------

/// Panics on the first structural access after arming, then behaves — so
/// exactly one request is poisoned.
struct PanicOnce {
    inner: Spine,
    armed: AtomicBool,
}

impl SpineOps for PanicOnce {
    fn text_len(&self) -> usize {
        SpineOps::text_len(&self.inner)
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        if self.armed.swap(false, Relaxed) {
            panic!("injected index panic");
        }
        self.inner.try_vertebra_out(node)
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_rib_of(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        self.inner.ops_counters()
    }
}

/// Regression: a worker dying mid-request used to strand its requests in
/// `in_flight`, hanging `drain` forever. Now the poisoned request comes
/// back as `Failed`, the worker respawns, and the engine keeps answering.
#[test]
fn worker_panic_fails_batch_without_hanging_drain() {
    let (a, s) = paper_spine();
    let index = Arc::new(PanicOnce { inner: s, armed: AtomicBool::new(true) });
    let engine =
        QueryEngine::new(Arc::clone(&index), EngineConfig { workers: 1, ..Default::default() });

    let pats = [&b"CA"[..], b"AC", b"A"];
    for p in &pats {
        engine.submit(a.encode(p).unwrap()).unwrap();
    }
    let results = engine.drain(); // regression: must return, not hang

    let failed = results
        .iter()
        .filter(|r| matches!(&r.outcome, QueryOutcome::Failed(m) if m.contains("worker panicked")))
        .count();
    assert_eq!(failed, 1, "only the poisoned request fails");
    assert_eq!(results.len(), pats.len(), "every submitted request gets an outcome");

    // The worker respawned and the engine still serves correct answers.
    engine.submit(a.encode(b"CA").unwrap()).unwrap();
    let after = engine.drain();
    assert_eq!(after[0].expect_ends(), [5, 7, 10]);

    let m = engine.metrics();
    assert_eq!(m.worker_respawns, 1);
    assert_eq!(m.failed, failed as u64);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Deadlines mixed with live traffic.
// ---------------------------------------------------------------------------

#[test]
fn expired_deadlines_time_out_while_live_requests_complete() {
    let (a, s) = paper_spine();
    let engine = QueryEngine::new(Arc::new(s), EngineConfig { workers: 1, ..Default::default() });
    let past = Instant::now() - Duration::from_secs(1);
    let future = Instant::now() + Duration::from_secs(120);
    let dead = engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
    let live = engine.submit_with_deadline(a.encode(b"CA").unwrap(), future).unwrap();
    let plain = engine.submit(a.encode(b"AC").unwrap()).unwrap();
    let results = engine.drain();
    let by_id = |id| results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(by_id(dead).outcome, QueryOutcome::TimedOut);
    assert_eq!(by_id(live).expect_ends(), [5, 7, 10]);
    assert_eq!(by_id(plain).expect_ends(), [3, 6, 9]);
    let m = engine.metrics();
    assert_eq!(m.timed_out, 1);
    assert_eq!(m.completed, 2);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Storage faults through the whole stack: device → DiskSpine → engine.
// ---------------------------------------------------------------------------

fn disk_workload() -> (Alphabet, Vec<Code>, Vec<Vec<Code>>) {
    let a = Alphabet::dna();
    let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(6)).unwrap();
    let patterns: Vec<Vec<Code>> = [&b"CA"[..], b"GGTT", b"TACGACG", b"ACCAA", b"AACC"]
        .iter()
        .map(|p| a.encode(p).unwrap())
        .collect();
    (a, text, patterns)
}

/// A 1-frame `DiskSpine` over `text` whose device dies right after the
/// build: the first query that misses the pool hits the dead device.
fn dead_after_build(a: &Alphabet, text: &[Code]) -> DiskSpine {
    let clean =
        DiskSpine::build(a.clone(), text, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    let (r, w) = clean.io_counts();
    let faulty = FaultyDevice::new(MemDevice::new(), r + w);
    DiskSpine::build(a.clone(), text, Box::new(faulty), 1, Box::<Lru>::default()).unwrap()
}

/// A hard device fault mid-service degrades the affected queries to
/// `Failed` — the engine neither panics nor hangs, and the accounting
/// invariant still holds.
#[test]
fn engine_over_disk_spine_degrades_on_hard_fault() {
    let (a, text, patterns) = disk_workload();
    let disk = dead_after_build(&a, &text);
    let engine =
        QueryEngine::new(Arc::new(disk), EngineConfig { workers: 2, ..Default::default() });
    for p in &patterns {
        engine.submit(p.clone()).unwrap();
    }
    let results = engine.drain();
    assert_eq!(results.len(), patterns.len());
    let failed = results
        .iter()
        .filter(|r| matches!(&r.outcome, QueryOutcome::Failed(m) if m.contains("injected")))
        .count();
    assert!(failed >= 1, "device is dead past construction; queries must fail cleanly");
    let m = engine.metrics();
    assert_eq!(m.worker_respawns, 0, "storage faults are errors, not panics");
    assert_eq!(m.accounted(), m.submitted);
}

/// With the retry layer over a transiently flaky device, the engine's
/// answers are indistinguishable from the in-memory oracle.
#[test]
fn engine_over_retry_wrapped_flaky_disk_matches_oracle() {
    let (a, text, patterns) = disk_workload();
    let oracle = Spine::build(a.clone(), &text).unwrap();

    let flaky = FlakyDevice::with_probability(MemDevice::new(), 0.05, 0xDECAF);
    let retry = RetryDevice::new(flaky, RetryPolicy::immediate(8));
    let disk = DiskSpine::build(a, &text, Box::new(retry), 2, Box::<Lru>::default()).unwrap();
    let engine =
        QueryEngine::new(Arc::new(disk), EngineConfig { workers: 3, ..Default::default() });
    for p in &patterns {
        engine.submit(p.clone()).unwrap();
    }
    let results = engine.drain();
    for (r, p) in results.iter().zip(&patterns) {
        assert_eq!(
            r.expect_starts(),
            oracle.find_all(p),
            "retry layer must make transient faults invisible (pattern {p:?})"
        );
    }
    let m = engine.metrics();
    assert_eq!(m.completed, patterns.len() as u64);
    assert_eq!(m.failed, 0);
    assert_eq!(m.accounted(), m.submitted);
}

/// The infallible boundary: over a dead device the `try_` entry point
/// returns the typed I/O error, while the infallible sugar on the same index
/// (one traversal, with `expect` on top) panics naming the `try_` surface.
#[test]
fn infallible_sugar_panics_where_try_surface_returns_err() {
    let (a, text, _) = disk_workload();
    let disk = dead_after_build(&a, &text);
    // A hit: its backbone scan must page through the whole 1-frame pool.
    let ca = a.encode(b"CA").unwrap();

    let err = try_find_all_ends(&disk, &ca).unwrap_err();
    assert!(matches!(err, Error::Io { ctx: Some(_), .. }), "typed I/O error, got {err:?}");

    let sugar: [&dyn Fn(); 2] =
        [&|| drop(find_all_ends(&disk, &ca)), &|| drop(StringIndex::find_all(&disk, &ca))];
    for call in sugar {
        let payload = catch_unwind(AssertUnwindSafe(call)).expect_err("a dead device must panic");
        let msg = payload.downcast_ref::<String>().expect("expect() panics with a String");
        assert!(
            msg.contains("infallible traversal") && msg.contains("use the try_* surface"),
            "panic must name the try_ surface: {msg}"
        );
    }
}

/// A sealed index walks the link subtree of the first occurrence, reading
/// one record per occurrence through a 1-frame pool. Its device dies after
/// every possible number of query reads in turn: each query returns either
/// the exact answer or the typed I/O error — never a panic, never a partial
/// answer — and the deaths that strike after the locate fail mid-walk.
#[test]
fn sealed_walk_over_a_dying_device_errs_cleanly() {
    let a = Alphabet::dna();
    let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(40)).unwrap();
    let ca = a.encode(b"CA").unwrap();
    let oracle = find_all_ends(&Spine::build(a.clone(), &text).unwrap(), &ca);
    let sealed = |dev: Box<dyn PageDevice>| {
        DiskSpine::build_sealed(a.clone(), &text, dev, 1, Box::<Lru>::default()).unwrap()
    };
    let reads_of = |query: &dyn Fn(&DiskSpine)| {
        let d = sealed(Box::new(MemDevice::new()));
        let before = d.io_counts().0;
        query(&d);
        d.io_counts().0 - before
    };
    let locate_reads = reads_of(&|d| assert!(d.try_locate(&ca).unwrap().is_some()));
    let query_reads = reads_of(&|d| assert_eq!(try_find_all_ends(d, &ca).unwrap(), oracle));
    assert!(query_reads >= locate_reads + 2, "the walk must read pages of its own");
    let clean = sealed(Box::new(MemDevice::new()));
    let (r, w) = clean.io_counts();
    let build_ops = r + w + clean.io_syncs();

    let mut mid_walk = 0;
    for k in 0..=query_reads {
        let d = sealed(Box::new(FaultyDevice::new(MemDevice::new(), build_ops + k)));
        match try_find_all_ends(&d, &ca) {
            Ok(ends) => {
                assert_eq!(k, query_reads, "a query that lost its device answered");
                assert_eq!(ends, oracle);
            }
            Err(e) => {
                assert!(matches!(e, Error::Io { ctx: Some(_), .. }), "typed I/O error: {e:?}");
                mid_walk += u64::from(k >= locate_reads);
            }
        }
    }
    assert_eq!(mid_walk, query_reads - locate_reads);
}
