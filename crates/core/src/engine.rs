//! Concurrent query engine with fault-tolerant serving.
//!
//! The SPINE structures are immutable after construction and use only
//! relaxed atomic counters for instrumentation, so one index can serve any
//! number of concurrent readers. This module packages that property into a
//! server-shaped front end:
//!
//! * a **worker pool** of OS threads sharing one [`Arc`]-held index. Each
//!   worker takes the first live request from the queue and answers it with
//!   one [`ServeIndex::answer_patterns`] call: a valid-path locate plus a
//!   link walk over the reverse-link children where the index keeps them
//!   (every serving structure does), so requests share no work and are
//!   never coalesced;
//! * a **bounded admission queue**: when it is at
//!   [`EngineConfig::queue_capacity`], the [`ShedPolicy`] decides whether a
//!   new submission blocks for space or is shed with
//!   [`SubmitError::Overloaded`];
//! * **per-request deadlines** ([`QueryEngine::submit_with_deadline`]):
//!   a request whose deadline has passed by the time a worker reaches it
//!   completes as [`QueryOutcome::TimedOut`] without index work;
//! * **worker panic isolation**: a panic while answering a request fails
//!   only that request ([`QueryOutcome::Failed`]); the worker is respawned
//!   (counted in [`MetricsSnapshot::worker_respawns`]) and `drain` never
//!   hangs;
//! * a **metrics surface** ([`MetricsSnapshot`]) aggregating the index's
//!   [`strindex::Counters`] with the count of index calls, the observed
//!   queue depth, and the fate of every request. The request ledger lives
//!   under the state lock and is snapshotted atomically, so
//!   `completed + shed + timed_out + failed + pending + in_flight ==
//!   submitted` holds on *every* snapshot, not just at idle;
//! * an optional **telemetry hookup** ([`QueryEngine::with_telemetry`]):
//!   given a shared [`MetricsRegistry`], the engine records per-stage
//!   latency histograms ([`Stage::AdmissionWait`], [`Stage::IndexScan`],
//!   [`Stage::ResultMerge`]), end-to-end query latencies, and one tracing
//!   span per query. Engines built with [`QueryEngine::new`] record nothing
//!   and pay nothing.
//!
//! Any [`ServeIndex`] works. Every [`SpineOps`] index is one for free (a
//! blanket impl answers through
//! [`crate::occurrences::try_find_all_ends`]): the reference
//! [`crate::Spine`], the §5 [`crate::CompactSpine`], a
//! [`crate::GeneralizedSpine`] over many documents, or a page-resident
//! [`crate::DiskSpine`] — whose storage faults degrade the affected
//! requests to [`QueryOutcome::Failed`] instead of tearing down the server.
//! Document collections that grow, shrink and outlive one backbone are
//! served by the segmented LSM store ([`crate::SegmentedSpine`]), which
//! implements [`ServeIndex`] directly and answers with document-level
//! matches ([`QueryOutcome::DoneDocs`]).
//!
//! ```
//! use spine::engine::{EngineConfig, QueryEngine};
//! use spine::Spine;
//! use std::sync::Arc;
//! use strindex::Alphabet;
//!
//! let alphabet = Alphabet::dna();
//! let index = Arc::new(Spine::build_from_bytes(alphabet.clone(), b"AACCACAACA").unwrap());
//! let engine = QueryEngine::new(index, EngineConfig { workers: 2, ..Default::default() });
//! engine.submit(alphabet.encode(b"CA").unwrap()).unwrap();
//! engine.submit(alphabet.encode(b"AC").unwrap()).unwrap();
//! let results = engine.drain();
//! assert_eq!(results[0].expect_starts(), vec![3, 5, 8]); // CA
//! assert_eq!(results[1].expect_starts(), vec![1, 4, 7]); // AC
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::generalized::DocMatch;
use crate::node::NodeId;
use crate::occurrences::try_find_all_ends;
use crate::ops::SpineOps;
use strindex::telemetry::{Histogram, MetricsRegistry, SlidingWindow, SloTracker, Stage};
use strindex::{Code, CountersSnapshot};

/// What happens to a submission that finds the admission queue full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Block the submitting thread until a worker frees queue space.
    /// Backpressure without loss; the default.
    #[default]
    Block,
    /// Shed the incoming request: `submit` returns
    /// [`SubmitError::Overloaded`] immediately and the request is counted in
    /// [`MetricsSnapshot::shed`]. Bounded latency under overload.
    RejectNewest,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue was at capacity and the engine's
    /// [`ShedPolicy::RejectNewest`] policy shed this request.
    Overloaded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full; request shed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Tuning knobs for a [`QueryEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads in the pool (clamped to ≥ 1).
    pub workers: usize,
    /// Most requests the admission queue holds before the [`ShedPolicy`]
    /// applies (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// What to do with submissions that find the queue full.
    pub shed: ShedPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineConfig { workers, queue_capacity: 4096, shed: ShedPolicy::Block }
    }
}

/// Monotonic id assigned by [`QueryEngine::submit`]; results carry it so
/// callers can correlate answers with submissions.
pub type QueryId = u64;

/// How one submitted pattern ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered: end positions (1-based) of every occurrence, ascending —
    /// the same values serial [`crate::occurrences::find_all_ends`] yields.
    Done(Vec<NodeId>),
    /// Answered by a document-collection index: every occurrence as a
    /// `(document, offset)` pair, ordered by (doc, offset). Produced by
    /// [`ServeIndex`] implementations whose position space is per-document
    /// (the segmented store) rather than one concatenation.
    DoneDocs(Vec<DocMatch>),
    /// The request's deadline passed before a worker reached it; no index
    /// work was spent on it.
    TimedOut,
    /// The request could not be answered: a storage fault surfaced during
    /// the traversal, or the worker panicked answering it. The message
    /// explains which.
    Failed(String),
}

impl QueryOutcome {
    /// Did the request produce an answer (either position flavor)?
    /// Timeouts and failures count against availability.
    pub fn is_answered(&self) -> bool {
        matches!(self, QueryOutcome::Done(_) | QueryOutcome::DoneDocs(_))
    }
}

/// The answer to one submitted pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Id returned by the corresponding `submit`.
    pub id: QueryId,
    /// The pattern, handed back so `drain` callers need no side table.
    pub pattern: Vec<Code>,
    /// How the request ended up.
    pub outcome: QueryOutcome,
}

impl QueryResult {
    /// Occurrence end positions if the query completed, `None` if it timed
    /// out or failed.
    pub fn ends(&self) -> Option<&[NodeId]> {
        match &self.outcome {
            QueryOutcome::Done(ends) => Some(ends),
            _ => None,
        }
    }

    /// Occurrence end positions; panics if the query did not complete.
    pub fn expect_ends(&self) -> &[NodeId] {
        match &self.outcome {
            QueryOutcome::Done(ends) => ends,
            other => panic!("query {} did not complete: {other:?}", self.id),
        }
    }

    /// Occurrence start offsets (0-based), ascending; panics if the query
    /// did not complete.
    pub fn expect_starts(&self) -> Vec<usize> {
        self.expect_ends().iter().map(|&e| e as usize - self.pattern.len()).collect()
    }

    /// Document-level matches if the query completed against a
    /// document-collection index, `None` otherwise.
    pub fn doc_matches(&self) -> Option<&[DocMatch]> {
        match &self.outcome {
            QueryOutcome::DoneDocs(m) => Some(m),
            _ => None,
        }
    }

    /// Document-level matches; panics if the query did not complete with
    /// [`QueryOutcome::DoneDocs`].
    pub fn expect_doc_matches(&self) -> &[DocMatch] {
        match &self.outcome {
            QueryOutcome::DoneDocs(m) => m,
            other => panic!("query {} has no document matches: {other:?}", self.id),
        }
    }
}

/// Point-in-time view of engine activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Index work counters (nodes checked, links followed, …), summed over
    /// every structure the index queries (one backbone, or memtable + every
    /// segment of a [`crate::SegmentedSpine`]).
    pub index: CountersSnapshot,
    /// [`ServeIndex::answer_patterns`] calls the workers made, one per
    /// request they answered (whatever its outcome). Traced queries
    /// ([`QueryEngine::submit_traced`]) and expired ones make none.
    pub index_calls: u64,
    /// Requests presented to the engine over its lifetime (admitted or
    /// shed).
    pub submitted: u64,
    /// Requests fully answered ([`QueryOutcome::Done`]).
    pub completed: u64,
    /// Requests shed at admission by [`ShedPolicy::RejectNewest`].
    pub shed: u64,
    /// Requests that expired before a worker reached them
    /// ([`QueryOutcome::TimedOut`]).
    pub timed_out: u64,
    /// Requests that ended as [`QueryOutcome::Failed`] (storage fault or
    /// worker panic).
    pub failed: u64,
    /// Requests sitting in the admission queue at snapshot time.
    pub pending: u64,
    /// Requests a worker is answering at snapshot time.
    pub in_flight: u64,
    /// Worker threads respawned after a panic.
    pub worker_respawns: u64,
    /// Deepest the admission queue has been.
    pub peak_queue_depth: u64,
}

impl MetricsSnapshot {
    /// Index calls the workers made ([`index_calls`](Self::index_calls)),
    /// one per request they answered.
    pub fn batches(&self) -> u64 {
        self.index_calls
    }

    /// Requests per index call: 1.0 once a worker has answered anything, 0
    /// when idle. Every call carries one request.
    pub fn mean_batch(&self) -> f64 {
        if self.index_calls == 0 {
            0.0
        } else {
            1.0
        }
    }

    /// Requests whose fate is recorded. Equals [`submitted`](Self::submitted)
    /// whenever the engine is idle — the accounting invariant the
    /// fault-tolerance tests assert.
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.timed_out + self.failed
    }

    /// The full-strength ledger invariant: every submitted request is either
    /// finalized, waiting in the queue, or being answered by a worker. Because
    /// the ledger is snapshotted under the engine's state lock, this holds
    /// on every snapshot — including ones taken mid-flight.
    pub fn is_consistent(&self) -> bool {
        self.accounted() + self.pending + self.in_flight == self.submitted
    }
}

/// What a [`QueryEngine`] needs from an index: answer patterns, one
/// outcome per pattern, in order.
///
/// Every [`SpineOps`] index gets this for free via a blanket impl that
/// answers each pattern with [`crate::occurrences::try_find_all_ends`] in
/// concatenation coordinates ([`QueryOutcome::Done`]). Composite stores
/// (the segmented LSM index) implement it directly and answer per document
/// ([`QueryOutcome::DoneDocs`]). Either way the engine's queueing,
/// deadlines, shedding, panic isolation, and ledger accounting apply
/// unchanged.
pub trait ServeIndex: Send + Sync {
    /// Resolve `patterns`; the returned vector must have exactly one
    /// outcome per pattern, in order. The engine's workers pass one pattern
    /// per call. Failures are per-pattern: a storage fault in one pattern's
    /// resolution should fail only that pattern. A panic fails the request
    /// (the engine catches it and respawns the worker).
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome>;

    /// Snapshot of the index's work counters, aggregated over whatever
    /// structures it queries (one backbone, or memtable + every segment).
    fn counters_snapshot(&self) -> CountersSnapshot;
}

/// The path every single-backbone engine shares: locate each pattern's
/// valid path, then enumerate its occurrences.
impl<S: SpineOps + Send + Sync> ServeIndex for S {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        patterns
            .iter()
            .map(|p| {
                // The empty pattern ends at every node (serial
                // `find_all_ends` agrees: its enumeration from the root
                // accepts all of 0..=n).
                if p.is_empty() {
                    return QueryOutcome::Done((0..=self.text_len() as NodeId).collect());
                }
                match try_find_all_ends(self, p) {
                    Ok(ends) => QueryOutcome::Done(ends),
                    Err(e) => QueryOutcome::Failed(e.to_string()),
                }
            })
            .collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        self.ops_counters().snapshot()
    }
}

struct Request {
    id: QueryId,
    pattern: Vec<Code>,
    deadline: Option<Instant>,
    submitted_at: Instant,
}

/// The request-fate ledger. Plain fields mutated only under the state lock,
/// so a locked read is always internally consistent: `completed + shed +
/// timed_out + failed + pending.len() + in_flight == submitted`. (These were
/// once independent relaxed atomics, and snapshots taken concurrently with a
/// completion could transiently violate the invariant.)
#[derive(Default)]
struct Ledger {
    submitted: u64,
    completed: u64,
    shed: u64,
    timed_out: u64,
    failed: u64,
    worker_respawns: u64,
    peak_queue_depth: u64,
}

/// Queue + completion state behind one mutex; the three condvars separate
/// the "work arrived" (workers), "work finished" (drainers), and "queue
/// space freed" (blocked submitters) wakeups.
struct State {
    pending: VecDeque<Request>,
    done: Vec<QueryResult>,
    in_flight: usize,
    shutdown: bool,
    ledger: Ledger,
}

/// Stage histograms and span plumbing for one engine, pre-registered so the
/// worker loop's recording is wait-free. Present only on engines built with
/// [`QueryEngine::with_telemetry`].
struct EngineTelemetry {
    registry: Arc<MetricsRegistry>,
    admission_wait: Arc<Histogram>,
    index_scan: Arc<Histogram>,
    result_merge: Arc<Histogram>,
    /// Submit → publish, per query ("engine.query_latency").
    query_latency: Arc<Histogram>,
    /// Rolling qps/quantile window fed per published query
    /// ([`QueryEngine::with_observability`]).
    window: Option<Arc<SlidingWindow>>,
    /// SLO burn tracking fed per published query.
    slo: Option<Arc<SloTracker>>,
}

impl EngineTelemetry {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        EngineTelemetry {
            admission_wait: registry.stage(Stage::AdmissionWait),
            index_scan: registry.stage(Stage::IndexScan),
            result_merge: registry.stage(Stage::ResultMerge),
            query_latency: registry.histogram("engine.query_latency"),
            window: None,
            slo: None,
            registry,
        }
    }

    /// Record one finished query everywhere at once: the cumulative latency
    /// histogram plus (when attached) the rolling window and SLO tracker.
    /// `ok` is "the query produced an answer" — timeouts and storage
    /// failures count against availability.
    fn record_latency(&self, latency: Duration, ok: bool) {
        self.query_latency.record(latency);
        if let Some(w) = &self.window {
            w.record(latency, ok);
        }
        if let Some(s) = &self.slo {
            s.record(latency, ok);
        }
    }
}

/// Callback invoked after a worker panic is contained (request failed,
/// ledger settled) and before the worker respawns. The argument is the
/// panic message. Runs outside the state lock, so it may do I/O — this is
/// the flight recorder's postmortem trigger.
pub type PanicHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Callback invoked once per finalized query — completed, timed out, or
/// failed — immediately after its result is published and the state lock
/// released. The argument is the query's id. Runs on worker threads, so it
/// should be cheap (a timestamp store, a semaphore release); it may read
/// [`QueryEngine::metrics`] but must not block on [`QueryEngine::drain`].
/// This is how the open-loop load harness timestamps completions without
/// polling: latency measured from *intended* arrival to this callback
/// charges queue wait to the query instead of hiding it.
pub type CompletionHook = Arc<dyn Fn(QueryId) + Send + Sync>;

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    all_done: Condvar,
    space_free: Condvar,
    /// [`ServeIndex::answer_patterns`] calls made by the workers.
    index_calls: AtomicU64,
    telemetry: Option<EngineTelemetry>,
    panic_hook: Mutex<Option<PanicHook>>,
    completion_hook: Mutex<Option<CompletionHook>>,
}

impl Shared {
    /// Lock the engine state, surviving mutex poisoning: a worker that
    /// panicked inside `answer_patterns` never held this lock, and even if a
    /// future bug poisons it, serving degraded beats deadlocking `drain`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(g).unwrap_or_else(PoisonError::into_inner)
    }

    fn notify_if_idle(&self, st: &State) {
        if st.pending.is_empty() && st.in_flight == 0 {
            self.all_done.notify_all();
        }
    }
}

/// A fixed pool of worker threads answering all-occurrence queries against
/// one shared, immutable SPINE index. See the [module docs](self).
///
/// Dropping the engine shuts the pool down; un-drained results are
/// discarded.
pub struct QueryEngine<S: ServeIndex + 'static> {
    index: Arc<S>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    queue_capacity: usize,
    shed_policy: ShedPolicy,
    pool: Vec<JoinHandle<()>>,
}

impl<S: ServeIndex + 'static> QueryEngine<S> {
    /// Spin up a worker pool over `index` with telemetry disabled.
    pub fn new(index: Arc<S>, config: EngineConfig) -> Self {
        Self::build(index, config, None)
    }

    /// Spin up a worker pool that records stage timings, query latencies,
    /// and tracing spans into `registry` (shareable with the storage layer
    /// so one snapshot covers the whole serving path).
    pub fn with_telemetry(
        index: Arc<S>,
        config: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Self::build(index, config, Some(EngineTelemetry::new(registry)))
    }

    /// [`QueryEngine::with_telemetry`] plus continuous monitoring: every
    /// published query also feeds `window` (rolling qps/p50/p99/error-rate)
    /// and `slo` (burn-rate health). Their aggregates are registered as
    /// `engine.window.*` and `engine.slo.*` gauges on `registry`, so one
    /// snapshot — or the `/metrics` endpoint — carries the rolling view.
    pub fn with_observability(
        index: Arc<S>,
        config: EngineConfig,
        registry: Arc<MetricsRegistry>,
        window: Arc<SlidingWindow>,
        slo: Arc<SloTracker>,
    ) -> Self {
        window.register_gauges(&registry, "engine.window");
        slo.register_gauges(&registry, "engine.slo");
        let mut t = EngineTelemetry::new(registry);
        t.window = Some(window);
        t.slo = Some(slo);
        Self::build(index, config, Some(t))
    }

    fn build(index: Arc<S>, config: EngineConfig, telemetry: Option<EngineTelemetry>) -> Self {
        let workers = config.workers.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                done: Vec::new(),
                in_flight: 0,
                shutdown: false,
                ledger: Ledger::default(),
            }),
            work_ready: Condvar::new(),
            all_done: Condvar::new(),
            space_free: Condvar::new(),
            index_calls: AtomicU64::new(0),
            telemetry,
            panic_hook: Mutex::new(None),
            completion_hook: Mutex::new(None),
        });
        let pool = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let index = Arc::clone(&index);
                std::thread::Builder::new()
                    .name(format!("spine-worker-{w}"))
                    .spawn(move || {
                        // Respawn-in-place: a panic escaping `worker_loop`
                        // (the request that caused it has already been
                        // failed and accounted) restarts the loop on this same OS
                        // thread, so the pool never shrinks.
                        loop {
                            let run =
                                catch_unwind(AssertUnwindSafe(|| worker_loop(&*index, &shared)));
                            match run {
                                Ok(()) => return, // clean shutdown
                                Err(payload) => {
                                    shared.lock().ledger.worker_respawns += 1;
                                    // Fire the postmortem hook outside the
                                    // state lock: it may dump files.
                                    let hook = shared
                                        .panic_hook
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .clone();
                                    if let Some(h) = hook {
                                        h(&panic_message(payload.as_ref()));
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn query worker")
            })
            .collect();
        QueryEngine {
            index,
            shared,
            next_id: AtomicU64::new(0),
            queue_capacity,
            shed_policy: config.shed,
            pool,
        }
    }

    /// The telemetry registry this engine records into, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.shared.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Install a callback fired whenever a worker panic is contained (after
    /// the request is failed and accounted, before the worker respawns),
    /// with the panic message. Replaces any previous hook. Runs on the
    /// panicking worker's thread, outside the engine's state lock.
    pub fn set_panic_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        *self.shared.panic_hook.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(hook));
    }

    /// Install a callback fired once per finalized query (completed, timed
    /// out, or failed) right after its result is published — see
    /// [`CompletionHook`]. Replaces any previous hook. Queries finalized
    /// before installation never fire it.
    pub fn set_completion_hook(&self, hook: impl Fn(QueryId) + Send + Sync + 'static) {
        *self.shared.completion_hook.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(hook));
    }

    /// The shared index this engine answers from.
    pub fn index(&self) -> &Arc<S> {
        &self.index
    }

    /// Enqueue one pattern; returns its id, or
    /// [`SubmitError::Overloaded`] if the queue is full and the engine
    /// sheds. Under [`ShedPolicy::Block`] this never errors (it waits for
    /// space instead).
    pub fn submit(&self, pattern: Vec<Code>) -> std::result::Result<QueryId, SubmitError> {
        self.submit_request(pattern, None)
    }

    /// [`submit`](Self::submit) with a deadline: if `deadline` passes
    /// before a worker picks the request up, it completes as
    /// [`QueryOutcome::TimedOut`] without index work.
    pub fn submit_with_deadline(
        &self,
        pattern: Vec<Code>,
        deadline: Instant,
    ) -> std::result::Result<QueryId, SubmitError> {
        self.submit_request(pattern, Some(deadline))
    }

    fn submit_request(
        &self,
        pattern: Vec<Code>,
        deadline: Option<Instant>,
    ) -> std::result::Result<QueryId, SubmitError> {
        let mut st = self.shared.lock();
        while st.pending.len() >= self.queue_capacity {
            match self.shed_policy {
                ShedPolicy::RejectNewest => {
                    // Still under the lock: submitted and shed move together
                    // so no snapshot can catch one without the other.
                    st.ledger.submitted += 1;
                    st.ledger.shed += 1;
                    return Err(SubmitError::Overloaded);
                }
                ShedPolicy::Block => {
                    st = self.shared.wait(&self.shared.space_free, st);
                }
            }
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        st.ledger.submitted += 1;
        st.pending.push_back(Request { id, pattern, deadline, submitted_at: Instant::now() });
        st.ledger.peak_queue_depth = st.ledger.peak_queue_depth.max(st.pending.len() as u64);
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// Enqueue many patterns; returns one admission result per pattern, in
    /// order. Under [`ShedPolicy::RejectNewest`] individual patterns may be
    /// shed while earlier ones were admitted.
    pub fn submit_batch<I>(&self, patterns: I) -> Vec<std::result::Result<QueryId, SubmitError>>
    where
        I: IntoIterator<Item = Vec<Code>>,
    {
        let out: Vec<_> = patterns.into_iter().map(|p| self.submit_request(p, None)).collect();
        if out.len() > 1 {
            self.shared.work_ready.notify_all();
        }
        out
    }

    /// Block until every admitted query has an outcome, then return all
    /// accumulated results sorted by [`QueryId`].
    ///
    /// Never hangs: timed-out requests are finalized by workers without
    /// index work, and a worker panic fails its request (restoring the
    /// in-flight count) before the worker respawns.
    pub fn drain(&self) -> Vec<QueryResult> {
        let mut st = self.shared.lock();
        while !(st.pending.is_empty() && st.in_flight == 0) {
            st = self.shared.wait(&self.shared.all_done, st);
        }
        let mut out = std::mem::take(&mut st.done);
        drop(st);
        out.sort_by_key(|r| r.id);
        out
    }

    /// Current activity counters. Cheap; safe to call while queries run.
    ///
    /// The ledger is read under the state lock, so the snapshot is
    /// self-consistent ([`MetricsSnapshot::is_consistent`]) even mid-flight.
    pub fn metrics(&self) -> MetricsSnapshot {
        let st = self.shared.lock();
        MetricsSnapshot {
            index: self.index.counters_snapshot(),
            index_calls: self.shared.index_calls.load(Relaxed),
            submitted: st.ledger.submitted,
            completed: st.ledger.completed,
            shed: st.ledger.shed,
            timed_out: st.ledger.timed_out,
            failed: st.ledger.failed,
            pending: st.pending.len() as u64,
            in_flight: st.in_flight as u64,
            worker_respawns: st.ledger.worker_respawns,
            peak_queue_depth: st.ledger.peak_queue_depth,
        }
    }
}

impl<S: SpineOps + Send + Sync + 'static> QueryEngine<S> {
    /// Answer one pattern synchronously on the calling thread with a full
    /// EXPLAIN trace attached ([`crate::trace::QueryTrace`]).
    ///
    /// The request flows through the same ledger as queued submissions
    /// (submitted → in-flight → completed/failed), so
    /// [`MetricsSnapshot::is_consistent`] holds on every snapshot taken
    /// while the traced query runs, and telemetry-enabled engines record
    /// its end-to-end latency plus a `q<id>.explain` span like any other
    /// query. It bypasses the admission queue — EXPLAIN is a diagnostic
    /// read, not load — and never sheds.
    ///
    /// Only single-backbone ([`SpineOps`]) engines trace; composite
    /// stores explain per component ([`crate::SegmentedSpine::explain`]).
    ///
    /// A storage fault ends as [`QueryOutcome::Failed`] with the partial
    /// trace retained ([`crate::trace::QueryTrace::error`]).
    pub fn submit_traced(&self, pattern: Vec<Code>) -> (QueryResult, crate::trace::QueryTrace) {
        let start = Instant::now();
        let id = self.next_id.fetch_add(1, Relaxed);
        {
            let mut st = self.shared.lock();
            st.ledger.submitted += 1;
            st.in_flight += 1;
        }
        let trace = crate::trace::explain(self.index.as_ref(), &pattern);
        let outcome = match &trace.error {
            Some(e) => QueryOutcome::Failed(e.clone()),
            None => QueryOutcome::Done(trace.ends.clone()),
        };
        let mut st = self.shared.lock();
        st.in_flight -= 1;
        if outcome.is_answered() {
            st.ledger.completed += 1;
        } else {
            st.ledger.failed += 1;
        }
        if let Some(t) = &self.shared.telemetry {
            let published = Instant::now();
            let latency = published - start;
            t.record_latency(latency, outcome.is_answered());
            t.registry.record_span(format!("q{id}.explain"), start, latency);
        }
        self.shared.notify_if_idle(&st);
        drop(st);
        fire_completions(&self.shared, &mut vec![id]);
        (QueryResult { id, pattern, outcome }, trace)
    }
}

impl<S: ServeIndex + 'static> Drop for QueryEngine<S> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        self.shared.space_free.notify_all();
        for h in self.pool.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: take the first live request (finalizing expired ones as
/// [`QueryOutcome::TimedOut`] on the way), answer it with one index call,
/// publish the result, repeat until shutdown.
///
/// A panic inside [`answer_one`] (e.g. an index whose accessors panic) is
/// caught here just long enough to publish the request as
/// [`QueryOutcome::Failed`], which restores the accounting so `drain`
/// cannot hang, then re-raised so the spawn loop in [`QueryEngine::new`]
/// can count the respawn.
fn worker_loop<S: ServeIndex + ?Sized>(index: &S, shared: &Shared) {
    let telemetry = shared.telemetry.as_ref();
    // Ids finalized but not yet reported to the completion hook, which
    // fires only once the state lock is released.
    let mut finalized: Vec<QueryId> = Vec::new();
    while let Some(req) = next_live(shared, &mut finalized) {
        fire_completions(shared, &mut finalized);
        let scan_start = Instant::now();
        shared.index_calls.fetch_add(1, Relaxed);
        let (outcome, panic) =
            match catch_unwind(AssertUnwindSafe(|| answer_one(index, &req.pattern))) {
                Ok(outcome) => (outcome, None),
                Err(payload) => {
                    let msg = format!("worker panicked: {}", panic_message(payload.as_ref()));
                    (QueryOutcome::Failed(msg), Some(payload))
                }
            };
        let merge_start = Instant::now();
        if let Some(t) = telemetry {
            t.index_scan.record(merge_start - scan_start);
        }

        let mut st = shared.lock();
        st.in_flight -= 1;
        match outcome {
            QueryOutcome::Done(_) | QueryOutcome::DoneDocs(_) => st.ledger.completed += 1,
            QueryOutcome::TimedOut => st.ledger.timed_out += 1,
            QueryOutcome::Failed(_) => st.ledger.failed += 1,
        };
        if let Some(t) = telemetry {
            // Recorded before notify_if_idle wakes drainers, so a snapshot
            // taken after `drain` returns deterministically covers every
            // drained query. Histogram records are wait-free; the span ring
            // mutex nests inside the state lock (never the reverse).
            let published = Instant::now();
            t.result_merge.record(published - merge_start);
            let latency = published - req.submitted_at;
            t.record_latency(latency, outcome.is_answered());
            t.registry.record_span(format!("q{}", req.id), req.submitted_at, latency);
        }
        finalized.push(req.id);
        // The pattern moves into the result: the worker allocates nothing
        // that outlives the request.
        st.done.push(QueryResult { id: req.id, pattern: req.pattern, outcome });
        shared.notify_if_idle(&st);
        drop(st);
        fire_completions(shared, &mut finalized);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Wait for the first live request and mark it in flight. Requests whose
/// deadline has passed are finalized as [`QueryOutcome::TimedOut`] on the
/// way, without index work, and their ids pushed onto `finalized`. `None`
/// once the engine shuts down with the queue empty.
fn next_live(shared: &Shared, finalized: &mut Vec<QueryId>) -> Option<Request> {
    let telemetry = shared.telemetry.as_ref();
    let mut st = shared.lock();
    loop {
        let Some(req) = st.pending.pop_front() else {
            if !finalized.is_empty() {
                // Report the expired requests before sleeping: their results
                // are published, and a hook user (e.g. a latency recorder)
                // must not wait for the next submission to wake us.
                shared.notify_if_idle(&st);
                drop(st);
                fire_completions(shared, finalized);
                st = shared.lock();
                continue;
            }
            if st.shutdown {
                return None;
            }
            st = shared.wait(&shared.work_ready, st);
            continue;
        };
        let now = Instant::now();
        if req.deadline.is_some_and(|d| d <= now) {
            st.ledger.timed_out += 1;
            finalized.push(req.id);
            st.done.push(QueryResult {
                id: req.id,
                pattern: req.pattern,
                outcome: QueryOutcome::TimedOut,
            });
            shared.space_free.notify_all();
            continue;
        }
        if let Some(t) = telemetry {
            t.admission_wait.record(now - req.submitted_at);
        }
        st.in_flight += 1;
        drop(st);
        shared.space_free.notify_all();
        return Some(req);
    }
}

/// Fire the engine's completion hook (if installed) for every id in `ids`,
/// draining the vector. Callers must have released the state lock: the hook
/// is user code and may take the engine's metrics (which re-locks it).
fn fire_completions(shared: &Shared, ids: &mut Vec<QueryId>) {
    if ids.is_empty() {
        return;
    }
    let hook = shared.completion_hook.lock().unwrap_or_else(PoisonError::into_inner).clone();
    if let Some(h) = hook {
        for id in ids.drain(..) {
            h(id);
        }
    } else {
        ids.clear();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Answer one pattern through the index's [`ServeIndex`] surface.
///
/// An index that returns the wrong number of outcomes panics here, which
/// the worker's catch_unwind turns into a failed request plus a respawn.
fn answer_one<S: ServeIndex + ?Sized>(index: &S, pattern: &[Code]) -> QueryOutcome {
    let mut outcomes = index.answer_patterns(std::slice::from_ref(&pattern));
    assert_eq!(
        outcomes.len(),
        1,
        "ServeIndex::answer_patterns must return one outcome per pattern"
    );
    outcomes.pop().expect("length checked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use crate::compact::CompactSpine;
    use crate::occurrences::find_all_ends;
    use std::time::Duration;
    use strindex::Alphabet;

    #[test]
    fn worker_panic_fires_the_postmortem_hook_and_respawns() {
        struct Bomb;
        impl ServeIndex for Bomb {
            fn answer_patterns(&self, _patterns: &[&[Code]]) -> Vec<QueryOutcome> {
                panic!("bomb in answer_patterns")
            }
            fn counters_snapshot(&self) -> CountersSnapshot {
                CountersSnapshot::default()
            }
        }
        let cfg = EngineConfig { workers: 1, ..EngineConfig::default() };
        let engine = QueryEngine::new(Arc::new(Bomb), cfg);
        let fired = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&fired);
        engine.set_panic_hook(move |msg| sink.lock().unwrap().push(msg.to_string()));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        engine.submit(vec![0]).unwrap();
        let rs = engine.drain();
        assert!(
            matches!(&rs[0].outcome, QueryOutcome::Failed(m) if m.contains("bomb")),
            "request must fail with the panic message: {rs:?}"
        );
        // The hook runs on the worker thread after the drain notification;
        // give it a bounded moment.
        let deadline = Instant::now() + Duration::from_secs(10);
        while fired.lock().unwrap().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::panic::set_hook(prev_hook);
        assert_eq!(engine.metrics().worker_respawns, 1);
        let msgs = fired.lock().unwrap();
        assert_eq!(msgs.len(), 1, "hook must fire exactly once");
        assert!(msgs[0].contains("bomb"), "hook gets the panic message: {msgs:?}");
    }

    fn paper_engine(workers: usize) -> (Alphabet, QueryEngine<Spine>) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig { workers, ..Default::default() };
        (a.clone(), QueryEngine::new(Arc::new(s), cfg))
    }

    #[test]
    fn observability_feeds_window_and_slo() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let window = Arc::new(SlidingWindow::new(60, Duration::from_secs(1)));
        let slo = Arc::new(SloTracker::new(Duration::from_secs(5), 0.999));
        let engine = QueryEngine::with_observability(
            Arc::new(s),
            EngineConfig { workers: 2, ..Default::default() },
            Arc::clone(&registry),
            Arc::clone(&window),
            Arc::clone(&slo),
        );
        for p in [&b"CA"[..], b"AC", b"A", b"GG"] {
            engine.submit(a.encode(p).unwrap()).unwrap();
        }
        engine.drain();
        // Every published query landed in the rolling window, none breached
        // the generous SLO, and the gauges surface through the registry.
        let agg = window.aggregate();
        assert_eq!(agg.count, 4);
        assert_eq!(agg.errors, 0);
        assert!(slo.healthy());
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.window.count"), Some(4));
        assert_eq!(snap.gauge("engine.slo.healthy"), Some(1));
        assert_eq!(snap.histogram("engine.query_latency").unwrap().count, 4);
    }

    #[test]
    fn answers_match_serial_scan() {
        let (a, engine) = paper_engine(3);
        let pats = [&b"CA"[..], b"AC", b"A", b"AACCACAACA", b"GG", b""];
        let ids: Vec<QueryId> =
            pats.iter().map(|p| engine.submit(a.encode(p).unwrap()).unwrap()).collect();
        let results = engine.drain();
        assert_eq!(results.len(), pats.len());
        for (i, (r, p)) in results.iter().zip(&pats).enumerate() {
            assert_eq!(r.id, ids[i]);
            let serial = find_all_ends(engine.index().as_ref(), &a.encode(p).unwrap());
            assert_eq!(r.expect_ends(), serial, "pattern {p:?}");
        }
    }

    #[test]
    fn starts_are_zero_based_offsets() {
        let (a, engine) = paper_engine(1);
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_ends(), [5, 7, 10]);
        assert_eq!(r[0].expect_starts(), vec![3, 5, 8]);
        assert_eq!(r[0].ends(), Some(&[5, 7, 10][..]));
    }

    #[test]
    fn duplicate_patterns_each_get_answers() {
        // Duplicates share nothing: each is its own index call.
        let (a, engine) = paper_engine(2);
        let ca = a.encode(b"CA").unwrap();
        for admitted in engine.submit_batch(vec![ca.clone(), ca.clone(), ca.clone(), ca]) {
            admitted.unwrap();
        }
        let results = engine.drain();
        assert_eq!(results.len(), 4);
        for r in results {
            assert_eq!(r.expect_ends(), [5, 7, 10]);
            assert_eq!(r.pattern, a.encode(b"CA").unwrap());
        }
        assert_eq!(engine.metrics().index_calls, 4);
    }

    #[test]
    fn drain_on_idle_engine_is_empty_and_repeatable() {
        let (a, engine) = paper_engine(2);
        assert!(engine.drain().is_empty());
        engine.submit(a.encode(b"A").unwrap()).unwrap();
        assert_eq!(engine.drain().len(), 1);
        assert!(engine.drain().is_empty()); // results were consumed
    }

    #[test]
    fn metrics_count_index_calls_and_queries() {
        let (a, engine) = paper_engine(1);
        for admitted in engine.submit_batch((0..10).map(|_| a.encode(b"AC").unwrap())) {
            admitted.unwrap();
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.submitted, 10);
        assert_eq!(m.completed, 10);
        assert_eq!(m.accounted(), m.submitted);
        // One index call per answered request, however the queue filled.
        assert_eq!((m.index_calls, m.batches()), (10, 10));
        assert!(m.index.nodes_checked > 0);
        assert!(m.index.children_visited > 0, "the reference layout answers by link walk");
        assert!(m.peak_queue_depth >= 1);
        assert_eq!(m.mean_batch(), 1.0);
        assert_eq!(m.worker_respawns, 0);
    }

    #[test]
    fn index_calls_leave_out_traced_and_expired_queries() {
        // A traced query is answered on the caller's thread and an expired
        // one with no index work: neither is a worker's index call.
        let (a, engine) = paper_engine(1);
        assert_eq!(engine.metrics().mean_batch(), 0.0, "idle");
        engine.submit_traced(a.encode(b"CA").unwrap());
        let past = Instant::now() - Duration::from_secs(1);
        engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
        engine.submit(a.encode(b"AC").unwrap()).unwrap();
        engine.drain();
        let m = engine.metrics();
        assert_eq!((m.completed, m.timed_out, m.index_calls), (2, 1, 1));
        assert_eq!(m.mean_batch(), 1.0);
    }

    #[test]
    fn works_over_the_compact_layout() {
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig { workers: 2, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(c), cfg);
        engine.submit(a.encode(b"AAC").unwrap()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_starts(), vec![0, 6]);
    }

    #[test]
    fn empty_text_engine_answers() {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &[]).unwrap();
        let engine = QueryEngine::new(Arc::new(s), EngineConfig::default());
        engine.submit(a.encode(b"A").unwrap()).unwrap();
        engine.submit(Vec::new()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_ends(), [] as [NodeId; 0]);
        assert_eq!(r[1].expect_ends(), [0]); // empty pattern ends at the root
    }

    #[test]
    fn edge_patterns_through_engine() {
        let (a, engine) = paper_engine(2);
        let n = 10; // text length of AACCACAACA
        let empty = engine.submit(Vec::new()).unwrap();
        let longer = engine.submit(a.encode(&b"A".repeat(n + 5)).unwrap()).unwrap();
        let out_of_alphabet = engine.submit(vec![9, 200, 7]).unwrap();
        let results = engine.drain();
        let by_id = |id| results.iter().find(|r| r.id == id).unwrap();
        // Empty pattern ends at every node.
        assert_eq!(by_id(empty).expect_ends().len(), n + 1);
        // A pattern longer than the text cannot occur, and must not panic.
        assert_eq!(by_id(longer).expect_ends(), [] as [NodeId; 0]);
        // Codes outside the alphabet simply never match a rib or vertebra.
        assert_eq!(by_id(out_of_alphabet).expect_ends(), [] as [NodeId; 0]);
        let m = engine.metrics();
        assert_eq!(m.accounted(), m.submitted);
    }

    #[test]
    fn expired_deadline_times_out_without_index_work() {
        let (a, engine) = paper_engine(1);
        let past = Instant::now() - Duration::from_secs(1);
        let id = engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
        let r = engine.drain();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, id);
        assert_eq!(r[0].outcome, QueryOutcome::TimedOut);
        assert!(r[0].ends().is_none());
        let m = engine.metrics();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.accounted(), m.submitted);
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let (a, engine) = paper_engine(2);
        let soon = Instant::now() + Duration::from_secs(60);
        engine.submit_with_deadline(a.encode(b"CA").unwrap(), soon).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_starts(), vec![3, 5, 8]);
    }

    #[test]
    fn snapshot_invariant_holds_mid_flight() {
        // Regression for torn MetricsSnapshot reads: the ledger was a set of
        // independent relaxed atomics, so a snapshot racing completions
        // could observe submitted without the matching outcome. With the
        // ledger under the state lock, every snapshot must satisfy
        // accounted + pending + in_flight == submitted — sampled here as
        // fast as possible while queries stream through the engine.
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), &b"ACGTACGTGGTTAACC".repeat(32)).unwrap();
        let cfg = EngineConfig { workers: 3, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(s), cfg);
        let pat = a.encode(b"ACGT").unwrap();
        std::thread::scope(|scope| {
            let eng = &engine;
            let submitter = scope.spawn(move || {
                for _ in 0..2_000 {
                    eng.submit(pat.clone()).unwrap();
                }
            });
            let mut samples = 0u64;
            while !submitter.is_finished() || samples < 100 {
                let m = eng.metrics();
                assert!(
                    m.is_consistent(),
                    "torn snapshot: {} accounted + {} pending + {} in-flight != {} submitted",
                    m.accounted(),
                    m.pending,
                    m.in_flight,
                    m.submitted
                );
                samples += 1;
            }
            submitter.join().unwrap();
        });
        engine.drain();
        let m = engine.metrics();
        assert!(m.is_consistent());
        assert_eq!(m.accounted(), m.submitted); // idle: nothing queued
        assert_eq!(m.completed, 2_000);
    }

    #[test]
    fn telemetry_records_stages_latency_and_spans() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = EngineConfig { workers: 2, ..Default::default() };
        let engine = QueryEngine::with_telemetry(Arc::new(s), cfg, Arc::clone(&registry));
        assert!(engine.registry().is_some());
        for _ in 0..10 {
            engine.submit(a.encode(b"CA").unwrap()).unwrap();
        }
        engine.drain();
        let snap = registry.snapshot();
        for stage in [Stage::AdmissionWait, Stage::IndexScan, Stage::ResultMerge] {
            let h = snap.stage(stage).unwrap_or_else(|| panic!("{stage:?} not registered"));
            assert_eq!(h.count, 10, "{stage:?} records once per query");
        }
        let lat = snap.histogram("engine.query_latency").unwrap();
        assert_eq!(lat.count, 10);
        assert!(lat.p50() <= lat.p99());
        // One span per query and nothing else: no batch spans or sizes.
        assert_eq!(snap.spans.len(), 10);
        assert!(snap.spans.iter().all(|s| s.name.starts_with('q')));
        assert!(snap.histogram("engine.batch_size").is_none());
        // A plain engine records nothing and has no registry.
        let plain = paper_engine(1).1;
        assert!(plain.registry().is_none());
    }

    #[test]
    fn submit_traced_accounts_and_matches_queued_answers() {
        let (a, engine) = paper_engine(2);
        let (r, t) = engine.submit_traced(a.encode(b"CA").unwrap());
        assert_eq!(r.expect_ends(), [5, 7, 10]);
        assert_eq!(t.ends, vec![5, 7, 10]);
        assert!(t.error.is_none());
        t.verify_against_text(&a.encode(b"AACCACAACA").unwrap()).unwrap();
        // Queued and traced submissions share one ledger.
        engine.submit(a.encode(b"AC").unwrap()).unwrap();
        engine.drain();
        let m = engine.metrics();
        assert_eq!((m.submitted, m.completed), (2, 2));
        assert!(m.is_consistent());
        // Absent patterns trace their mismatch and answer Done([]).
        let (r, t) = engine.submit_traced(a.encode(b"GG").unwrap());
        assert_eq!(r.expect_ends(), [] as [NodeId; 0]);
        assert_eq!(t.first_end, None);
    }

    #[test]
    fn submit_traced_records_latency_and_span() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let engine = QueryEngine::with_telemetry(
            Arc::new(s),
            EngineConfig::default(),
            Arc::clone(&registry),
        );
        engine.submit_traced(a.encode(b"ACA").unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("engine.query_latency").unwrap().count, 1);
        assert!(snap.spans.iter().any(|sp| sp.name.ends_with(".explain")));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig {
            workers: 1,
            queue_capacity: 0, // clamped to 1: the engine must stay usable
            ..Default::default()
        };
        let engine = QueryEngine::new(Arc::new(s), cfg);
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        assert_eq!(engine.drain()[0].expect_starts(), vec![3, 5, 8]);
    }
}
