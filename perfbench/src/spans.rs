//! Tracing from outside the program: spans recorded in memory around the
//! calls the benchmark makes into each layer's public functions, written
//! out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spine::engine::{QueryOutcome, ServeIndex};
use strindex::{Code, CountersSnapshot};

use crate::util::Clock;

/// One timed call. `id` numbers the call within its name (a query index,
/// a batch or write sequence number); `parent` is the id of the span that
/// caused it, or [`NO_PARENT`]; `aux` and `aux2` are per-name details
/// (for `engine.answer_patterns`: batch size and segment fan-out).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub aux: u64,
    pub aux2: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const NO_PARENT: u64 = u64::MAX;

/// Spans kept per chunk: chunks are never reallocated, so a push never
/// copies the spans already recorded while holding the lock.
const CHUNK: usize = 1 << 16;
/// Spans written to the file at most; the rest are counted, not written.
const WRITE_MAX: usize = 1 << 18;

pub struct SpanLog {
    pub clock: Clock,
    chunks: Mutex<Vec<Vec<Span>>>,
}

impl SpanLog {
    pub fn new(clock: Clock) -> SpanLog {
        SpanLog { clock, chunks: Mutex::new(Vec::new()) }
    }

    pub fn push(&self, span: Span) {
        let mut chunks = self.chunks.lock().expect("span log poisoned");
        match chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(span),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(span);
                chunks.push(c);
            }
        }
    }

    /// Time `f` as span `name`; returns its result and duration in ns.
    pub fn time<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.clock.now_ns();
        let r = f();
        let end_ns = self.clock.now_ns();
        self.push(Span { name, id, parent, start_ns, end_ns, aux: 0, aux2: 0 });
        (r, end_ns - start_ns)
    }

    /// Every span named `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        let chunks = self.chunks.lock().expect("span log poisoned");
        chunks.iter().flatten().filter(|s| s.name == name).copied().collect()
    }

    /// Write the spans as JSON lines, the first [`WRITE_MAX`] of them;
    /// returns how many were left out.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let chunks = self.chunks.lock().expect("span log poisoned");
        let total: usize = chunks.iter().map(Vec::len).sum();
        for s in chunks.iter().flatten().take(WRITE_MAX) {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"aux\":{},\"aux2\":{}}}",
                s.name,
                s.id,
                if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
                s.start_ns,
                s.end_ns,
                s.aux,
                s.aux2
            )?;
        }
        out.flush()?;
        Ok(total.saturating_sub(WRITE_MAX))
    }
}

/// A [`ServeIndex`] that records an `engine.answer_patterns` span around
/// every batch the engine hands the wrapped index, with the batch size and
/// what `fanout` reports: how many components the index reads.
pub struct Traced<S> {
    inner: Arc<S>,
    log: Arc<SpanLog>,
    batches: AtomicU64,
    fanout: fn(&S) -> u64,
}

impl<S: ServeIndex> Traced<S> {
    pub fn new(inner: Arc<S>, log: Arc<SpanLog>, fanout: fn(&S) -> u64) -> Traced<S> {
        Traced { inner, log, batches: AtomicU64::new(0), fanout }
    }
}

impl<S: ServeIndex> ServeIndex for Traced<S> {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        let id = self.batches.fetch_add(1, Ordering::Relaxed);
        let fanout = (self.fanout)(&self.inner);
        let start_ns = self.log.clock.now_ns();
        let out = self.inner.answer_patterns(patterns);
        let end_ns = self.log.clock.now_ns();
        self.log.push(Span {
            name: "engine.answer_patterns",
            id,
            parent: NO_PARENT,
            start_ns,
            end_ns,
            aux: patterns.len() as u64,
            aux2: fanout,
        });
        out
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        self.inner.counters_snapshot()
    }
}

/// The engine floor: an index that answers every pattern with no matches
/// and does no work. With `stall`, the `at`-th batch sleeps for the stall
/// while holding a lock every other batch must take, so the whole engine
/// stops for that long (the coordinated-omission self-test).
#[derive(Default)]
pub struct NullIndex {
    stall: Option<(u64, Duration)>,
    calls: AtomicU64,
    lock: Mutex<()>,
}

impl NullIndex {
    pub fn stalled(at: u64, stall: Duration) -> NullIndex {
        NullIndex { stall: Some((at, stall)), ..NullIndex::default() }
    }
}

impl ServeIndex for NullIndex {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock.lock().expect("null index lock poisoned");
        if let Some((at, stall)) = self.stall {
            if call == at {
                std::thread::sleep(stall);
            }
        }
        drop(guard);
        patterns.iter().map(|_| QueryOutcome::Done(Vec::new())).collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        CountersSnapshot::default()
    }
}
