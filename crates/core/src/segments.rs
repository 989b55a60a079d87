//! A crash-safe LSM of SPINEs: mutable memtable, immutable sealed
//! segments, atomic manifest commits.
//!
//! [`Spine`](crate::Spine) is append-only and [`DiskSpine`] seals to an
//! immutable on-disk layout — neither supports deletes or survives being
//! half-written. [`SegmentedSpine`] composes them into a mutable, durable
//! collection the way log-structured merge trees do:
//!
//! * **Writes** go to an in-memory *memtable* ([`GeneralizedSpine`] plus
//!   the raw document codes). Memtable contents are volatile by design —
//!   there is no write-ahead log; durability is bought at *seal* time.
//! * At a size threshold the memtable is **sealed**: its live documents
//!   become one immutable sealed segment file (the
//!   [`DiskSpine::build_sealed`] pipeline, built from the §5 compact
//!   layout) plus a reopenable sidecar, and a new [`Manifest`] naming the
//!   enlarged segment set is committed. Segments enumerate occurrences by
//!   the link walk over the children lists their records store.
//! * **Retires** of sealed documents become manifest *tombstones*;
//!   retires of memtable documents just flip a volatile flag (the
//!   document they hide is volatile too, so crash loses both together —
//!   never one without the other).
//! * A **merge** rewrites the live, untombstoned documents of every
//!   segment into one fresh segment, commits, then deletes the inputs.
//!
//! ## The commit protocol
//!
//! Every durable state transition — seal, retire, merge — is one manifest
//! replacement: encode, write `MANIFEST.tmp`, `fsync` it, `rename` over
//! `MANIFEST`, `fsync` the directory. Segment files are written (and
//! synced, header-last — see [`DiskSpine::seal_to`]) *before* the manifest
//! that references them, so at every instant the bytes `MANIFEST` names
//! are complete and synced. A crash at any point leaves either the old
//! manifest or the new one, never a torn state; files written for a commit
//! that never happened are *orphans* — recovery detects and reports them
//! ([`SegmentedSpine::orphan_count`]) but never reads them.
//!
//! ## Snapshots
//!
//! Queries run against an immutable snapshot: the segment list, tombstone
//! set, and memtable are shared via `Arc` and replaced (never mutated) on
//! seal and merge, and the memtable's document count and retired flags are
//! captured at snapshot time. A query observes the store exactly as of one
//! manifest epoch plus a memtable prefix, even while seals, merges, and
//! retires commit concurrently.
//!
//! ## Fault injection
//!
//! Every I/O operation the store performs — page reads/writes/syncs
//! through its devices *and* manifest/sidecar file operations — can be
//! charged to an [`IoGate`]. An armed gate fails permanently at a chosen
//! operation index, which is how the `exp faults` harness crash-tests
//! every commit, merge, and recovery I/O op and proves recovery always
//! lands on a committed epoch.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use pagestore::{FileDevice, IoStats, Lru, PageDevice};
use parking_lot::{Mutex, RwLock};
use strindex::telemetry::{Histogram, MetricsRegistry};
use strindex::{Alphabet, Code, CountersSnapshot, Error, IoOp, Result};

use crate::disk::DiskSpine;
use crate::engine::{QueryOutcome, ServeIndex};
use crate::generalized::{DocMatch, GeneralizedSpine};
use crate::journal::{self, JournalEvent, JournalKind, JOURNAL_FILE};
use crate::manifest::{Manifest, SegmentEntry};
use crate::observe::{MergeObserver, MergePhase, MergeTimes, NoMergeObserver};
use crate::ops::SpineOps;
use crate::trace::QueryTrace;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Wall-clock milliseconds since the Unix epoch, for journal timestamps.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A shared, countable I/O-operation budget for crash injection.
///
/// Unarmed gates count operations (so a harness can measure how many I/O
/// ops a workload performs); armed gates additionally fail — permanently,
/// like a crashed process — every operation from a chosen index on. One
/// gate is shared by a store's page devices and its file-level manifest
/// and sidecar operations, so the budget enumerates *every* point a real
/// crash could hit.
#[derive(Clone, Default)]
pub struct IoGate {
    inner: Arc<GateInner>,
}

#[derive(Default)]
struct GateInner {
    ops: AtomicU64,
    /// Fail every op with index >= `fail_from`, when armed.
    fail_from: AtomicU64,
    armed: AtomicBool,
}

impl IoGate {
    /// A counting-only gate: never fails.
    pub fn unarmed() -> Self {
        Self::default()
    }

    /// A gate that lets `budget` operations through and then fails every
    /// operation, permanently — the store is "crashed" from that point.
    pub fn armed(budget: u64) -> Self {
        let g = Self::default();
        g.inner.fail_from.store(budget, Ordering::Relaxed);
        g.inner.armed.store(true, Ordering::Relaxed);
        g
    }

    /// Operations charged so far (failed attempts count too).
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::Relaxed)
    }

    fn charge(&self, op: IoOp) -> Result<()> {
        let k = self.inner.ops.fetch_add(1, Ordering::Relaxed);
        if self.inner.armed.load(Ordering::Relaxed)
            && k >= self.inner.fail_from.load(Ordering::Relaxed)
        {
            return Err(Error::io(
                std::io::Error::other(format!("injected segment-store crash at I/O op {k}")),
                op,
                None,
            ));
        }
        Ok(())
    }
}

/// Charge an optional gate.
fn charge(gate: &Option<IoGate>, op: IoOp) -> Result<()> {
    match gate {
        Some(g) => g.charge(op),
        None => Ok(()),
    }
}

/// A [`PageDevice`] that charges every read, write, and sync to an
/// [`IoGate`] before forwarding to the wrapped device.
struct GatedDevice<D: PageDevice> {
    inner: D,
    gate: Option<IoGate>,
}

impl<D: PageDevice> PageDevice for GatedDevice<D> {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        charge(&self.gate, IoOp::Read)?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        charge(&self.gate, IoOp::Write)?;
        self.inner.write_page(id, buf)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<()> {
        charge(&self.gate, IoOp::Sync)?;
        self.inner.sync()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// Tuning knobs for a [`SegmentedSpine`].
#[derive(Clone)]
pub struct SegmentConfig {
    /// Seal the memtable once its concatenation (documents plus
    /// separators) reaches this many symbols.
    pub memtable_max_symbols: usize,
    /// Buffer-pool pages per sealed segment.
    pub pool_pages: usize,
    /// The background merger compacts once the segment count reaches this,
    /// or any tombstone is outstanding.
    pub merge_min_segments: usize,
    /// Crash-injection gate charged on every I/O operation. `None` in
    /// production.
    pub gate: Option<IoGate>,
    /// Buffer-pool frames to pin per sealed segment at open time, covering
    /// the upstream backbone-prefix pages (the paper's Figure 8 skew:
    /// links concentrate there, so the short patterns' first occurrences
    /// and the top of their link subtrees live there, and every locate
    /// passes through the root's record). Pinned pages are never evicted;
    /// 0 disables pinning. Must stay below `pool_pages` — the pool refuses
    /// to pin its last evictable frame regardless.
    pub hot_pin_pages: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            memtable_max_symbols: 1 << 14,
            pool_pages: 16,
            merge_min_segments: 4,
            gate: None,
            hot_pin_pages: 4,
        }
    }
}

/// Point-in-time observability snapshot (the gauge values, as one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentsSnapshot {
    /// Last committed manifest epoch.
    pub epoch: u64,
    /// Live sealed segments.
    pub segments: usize,
    /// Outstanding tombstones (sealed documents retired but not merged
    /// away).
    pub tombstones: usize,
    /// Live (unretired) memtable documents.
    pub memtable_docs: usize,
    /// Memtable concatenation size, separators included.
    pub memtable_symbols: usize,
    /// Live documents across memtable and segments.
    pub live_docs: usize,
    /// Files recovery found that no committed manifest references.
    pub orphans: usize,
    /// How much work a merge would retire: surplus segments plus
    /// tombstones.
    pub merge_backlog: usize,
    /// Memtable seals performed by this instance.
    pub seals: u64,
    /// Merges committed by this instance.
    pub merges: u64,
}

/// One immutable sealed segment: a reopened [`DiskSpine`] plus the
/// document table that maps its concatenation offsets to global ids.
struct Segment {
    id: u64,
    doc_ids: Vec<u64>,
    doc_lens: Vec<u64>,
    /// Concatenation starts with a trailing sentinel (see
    /// [`SegmentEntry::starts`]).
    starts: Vec<usize>,
    index: DiskSpine,
}

impl Segment {
    fn entry(&self) -> SegmentEntry {
        SegmentEntry { id: self.id, doc_ids: self.doc_ids.clone(), doc_lens: self.doc_lens.clone() }
    }

    /// Map a concatenation offset to `(global doc id, in-document offset)`.
    fn localize(&self, offset: usize) -> (u64, usize) {
        let d = match self.starts[..self.doc_ids.len()].binary_search(&offset) {
            Ok(d) => d,
            Err(i) => i - 1,
        };
        (self.doc_ids[d], offset - self.starts[d])
    }

    /// Reconstruct document `i`'s codes from the index itself (the sealed
    /// layout keeps no separate copy of the text — `text[p]` is the
    /// vertebra leaving backbone node `p`).
    fn doc_codes(&self, i: usize) -> Result<Vec<Code>> {
        let start = self.starts[i];
        let len = self.doc_lens[i] as usize;
        let mut codes = Vec::with_capacity(len);
        for p in start..start + len {
            let c = self
                .index
                .try_vertebra_out(p as crate::node::NodeId)?
                .ok_or_else(|| Error::Parse("segment text shorter than its doc table".into()))?;
            codes.push(c);
        }
        Ok(codes)
    }
}

/// The mutable head of the LSM. Replaced wholesale (fresh `Arc`) at seal,
/// so snapshots taken before a seal keep reading the old, now-frozen
/// memtable.
#[derive(Default)]
struct Memtable {
    state: RwLock<MemtableState>,
}

struct MemtableState {
    index: GeneralizedSpine,
    /// Global id of each memtable document, parallel to the index's local
    /// document numbering.
    doc_ids: Vec<u64>,
    /// Raw document codes, kept so sealing need not reconstruct them.
    codes: Vec<Vec<Code>>,
    /// Volatile retirement flags. Kept here (not in the inner
    /// [`GeneralizedSpine`]) so snapshots can capture them by value —
    /// retiring a memtable document must not change answers under
    /// already-taken snapshots.
    retired: Vec<bool>,
    /// Concatenation length, separators included.
    symbols: usize,
}

impl Default for MemtableState {
    fn default() -> Self {
        // The alphabet is patched in by `Memtable::new`; `Default` exists
        // only to satisfy the derive above.
        MemtableState {
            index: GeneralizedSpine::new(Alphabet::bytes()),
            doc_ids: Vec::new(),
            codes: Vec::new(),
            retired: Vec::new(),
            symbols: 0,
        }
    }
}

impl Memtable {
    fn new(alphabet: Alphabet) -> Self {
        Memtable {
            state: RwLock::new(MemtableState {
                index: GeneralizedSpine::new(alphabet),
                ..MemtableState::default()
            }),
        }
    }
}

/// Everything guarded by the commit lock. `Arc`ed members are replaced,
/// never mutated, so snapshot holders stay consistent.
struct Inner {
    memtable: Arc<Memtable>,
    segments: Arc<Vec<Arc<Segment>>>,
    tombstones: Arc<BTreeSet<u64>>,
    epoch: u64,
    next_doc: u64,
    next_segment: u64,
    orphans: Vec<PathBuf>,
}

/// Gauge backing store — updated under the commit lock, read lock-free by
/// telemetry closures.
#[derive(Default)]
struct SegStats {
    epoch: AtomicU64,
    segments: AtomicU64,
    tombstones: AtomicU64,
    memtable_docs: AtomicU64,
    memtable_symbols: AtomicU64,
    live_docs: AtomicU64,
    orphans: AtomicU64,
    merge_backlog: AtomicU64,
    seals: AtomicU64,
    merges: AtomicU64,
    merge_failures: AtomicU64,
    hot_pinned: AtomicU64,
}

/// A consistent read view: one manifest epoch's segment list and
/// tombstones plus a frozen memtable prefix.
struct Snapshot {
    memtable: Arc<Memtable>,
    /// Memtable documents visible to this snapshot.
    mem_docs: usize,
    /// Memtable concatenation length at snapshot time; matches ending
    /// beyond it were added later and are invisible.
    mem_len: usize,
    /// Retired flags at snapshot time, one per visible document.
    mem_retired: Vec<bool>,
    segments: Arc<Vec<Arc<Segment>>>,
    tombstones: Arc<BTreeSet<u64>>,
}

/// The crash-safe mutable document collection. See the module docs for
/// the design; see [`ServeIndex`] for how it plugs into the concurrent
/// [`QueryEngine`](crate::QueryEngine) unchanged.
pub struct SegmentedSpine {
    alphabet: Alphabet,
    dir: PathBuf,
    cfg: SegmentConfig,
    inner: Mutex<Inner>,
    stats: Arc<SegStats>,
    /// `segments.merge_duration` histogram, set by [`Self::attach_telemetry`].
    merge_hist: Mutex<Option<Arc<Histogram>>>,
}

impl SegmentedSpine {
    /// Initialize a new store in `dir` (created if absent) and commit its
    /// empty manifest. Refuses to clobber an existing store.
    pub fn create(alphabet: Alphabet, dir: impl AsRef<Path>, cfg: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(Error::Unsupported("creating a segment store over an existing one"));
        }
        let s = SegmentedSpine {
            inner: Mutex::new(Inner {
                memtable: Arc::new(Memtable::new(alphabet.clone())),
                segments: Arc::new(Vec::new()),
                tombstones: Arc::new(BTreeSet::new()),
                epoch: 0,
                next_doc: 0,
                next_segment: 0,
                orphans: Vec::new(),
            }),
            alphabet,
            dir,
            cfg,
            stats: Arc::new(SegStats::default()),
            merge_hist: Mutex::new(None),
        };
        s.commit_manifest(&Manifest::default())?;
        s.refresh_stats(&s.inner.lock());
        Ok(s)
    }

    /// Recover a store from its last committed manifest. Memtable contents
    /// at crash time are gone (by design — they were never durable);
    /// every committed segment reopens through its sidecar. Files in `dir`
    /// that the manifest does not reference are recorded as orphans
    /// ([`Self::orphan_count`]) and left untouched for inspection.
    ///
    /// The lifecycle journal is replayed and cross-checked: a torn final
    /// record (a crash mid-append) is truncated away, but a journal whose
    /// maximum epoch *exceeds* the recovered manifest's is corruption —
    /// events are only ever appended after their commit is durable, so the
    /// journal can trail the manifest, never lead it. Recovery itself then
    /// appends a [`JournalKind::Recover`] event.
    pub fn open(alphabet: Alphabet, dir: impl AsRef<Path>, cfg: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        charge(&cfg.gate, IoOp::Read)?;
        let bytes =
            fs::read(dir.join(MANIFEST_FILE)).map_err(|e| Error::io(e, IoOp::Read, None))?;
        let m = Manifest::decode(&bytes)?;
        replay_journal(&dir, &cfg, m.epoch)?;
        let mut segments = Vec::with_capacity(m.segments.len());
        for e in &m.segments {
            segments.push(Arc::new(open_segment(&dir, e, &cfg)?));
        }
        let orphans = scan_orphans(&dir, &m)?;
        let sealed_live: u64 = m
            .segments
            .iter()
            .map(|e| e.doc_ids.iter().filter(|d| !m.tombstones.contains(d)).count() as u64)
            .sum();
        let recover = JournalEvent {
            kind: JournalKind::Recover,
            epoch: m.epoch,
            unix_ms: unix_ms(),
            docs: sealed_live,
            aux: orphans.len() as u64,
            inputs: Vec::new(),
            outputs: m.segments.iter().map(|e| e.id).collect(),
            phase_nanos: [0; MergePhase::COUNT],
        };
        let s = SegmentedSpine {
            inner: Mutex::new(Inner {
                memtable: Arc::new(Memtable::new(alphabet.clone())),
                segments: Arc::new(segments),
                tombstones: Arc::new(m.tombstones.iter().copied().collect()),
                epoch: m.epoch,
                next_doc: m.next_doc,
                next_segment: m.next_segment,
                orphans,
            }),
            alphabet,
            dir,
            cfg,
            stats: Arc::new(SegStats::default()),
            merge_hist: Mutex::new(None),
        };
        s.append_journal(&recover)?;
        s.refresh_stats(&s.inner.lock());
        Ok(s)
    }

    /// [`Self::open`] when a manifest exists, [`Self::create`] otherwise.
    pub fn open_or_create(
        alphabet: Alphabet,
        dir: impl AsRef<Path>,
        cfg: SegmentConfig,
    ) -> Result<Self> {
        if dir.as_ref().join(MANIFEST_FILE).exists() {
            Self::open(alphabet, dir, cfg)
        } else {
            Self::create(alphabet, dir, cfg)
        }
    }

    /// The store's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Append one document; returns its global id. The document is
    /// volatile (memtable-only) until the next seal commits it. May seal
    /// synchronously when the memtable reaches the configured threshold —
    /// a seal failure leaves the document in the memtable and the durable
    /// state untouched.
    pub fn add_document(&self, doc: &[Code]) -> Result<u64> {
        if let Some(pos) = doc.iter().position(|&c| c as usize >= self.alphabet.size()) {
            return Err(Error::InvalidSymbol { byte: doc[pos], pos });
        }
        let mut inner = self.inner.lock();
        let id = inner.next_doc;
        let symbols = {
            let mut st = inner.memtable.state.write();
            st.index.add_document(doc)?;
            st.doc_ids.push(id);
            st.codes.push(doc.to_vec());
            st.retired.push(false);
            st.symbols += doc.len() + 1;
            st.symbols
        };
        inner.next_doc = id + 1;
        let sealed = if symbols >= self.cfg.memtable_max_symbols {
            self.seal_locked(&mut inner, &mut NoMergeObserver).map(|_| ())
        } else {
            Ok(())
        };
        self.refresh_stats(&inner);
        sealed.map(|()| id)
    }

    /// Retire document `doc` everywhere. Sealed documents get a durable
    /// manifest tombstone (one atomic commit); memtable documents get a
    /// volatile flag (the document is volatile too — a crash forgets the
    /// pair together, never one side). Returns `Ok(true)` if this call
    /// retired it, `Ok(false)` if it was already retired (possibly merged
    /// away since), and [`Error::UnknownDocument`] for an id never
    /// assigned — the same semantics as
    /// [`GeneralizedSpine::retire_document`].
    pub fn retire_document(&self, doc: u64) -> Result<bool> {
        let mut inner = self.inner.lock();
        if doc >= inner.next_doc {
            return Err(Error::UnknownDocument { doc });
        }
        if inner.tombstones.contains(&doc) {
            return Ok(false);
        }
        let mem_hit = {
            let mut st = inner.memtable.state.write();
            match st.doc_ids.iter().position(|&d| d == doc) {
                Some(local) => {
                    if st.retired[local] {
                        return Ok(false);
                    }
                    st.retired[local] = true;
                    true
                }
                None => false,
            }
        };
        if mem_hit {
            self.refresh_stats(&inner);
            return Ok(true);
        }
        let sealed = inner.segments.iter().any(|s| s.doc_ids.binary_search(&doc).is_ok());
        if !sealed {
            // Assigned once, but already retired and compacted away (or
            // lost with a pre-crash memtable): idempotent no-op.
            return Ok(false);
        }
        let mut tombstones: BTreeSet<u64> = (*inner.tombstones).clone();
        tombstones.insert(doc);
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment: inner.next_segment,
            segments: inner.segments.iter().map(|s| s.entry()).collect(),
            tombstones: tombstones.iter().copied().collect(),
        };
        self.commit_manifest(&manifest)?;
        inner.epoch = manifest.epoch;
        inner.tombstones = Arc::new(tombstones);
        self.append_journal(&JournalEvent {
            kind: JournalKind::Retire,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs: doc,
            aux: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            phase_nanos: [0; MergePhase::COUNT],
        })?;
        self.refresh_stats(&inner);
        Ok(true)
    }

    /// Seal the memtable now regardless of size. Returns whether a
    /// segment was created (an empty or fully-retired memtable seals to
    /// nothing).
    pub fn force_seal(&self) -> Result<bool> {
        self.force_seal_observed(&mut NoMergeObserver)
    }

    /// [`Self::force_seal`] with phase timings teed to `obs` on top of the
    /// internal accounting (the journal record gets them either way).
    pub fn force_seal_observed<O: MergeObserver>(&self, obs: &mut O) -> Result<bool> {
        let mut inner = self.inner.lock();
        let sealed = self.seal_locked(&mut inner, obs);
        self.refresh_stats(&inner);
        sealed
    }

    /// Compact every sealed segment (dropping tombstoned documents) into
    /// one, commit, and delete the inputs. Returns `Ok(false)` when there
    /// is nothing worth merging. The memtable is untouched. Snapshots
    /// taken before the merge keep answering from the old segments: their
    /// file handles stay open, so even the input deletion cannot pull
    /// pages out from under them.
    pub fn merge_once(&self) -> Result<bool> {
        self.merge_once_observed(&mut NoMergeObserver)
    }

    /// [`Self::merge_once`] with phase timings teed to `obs` on top of the
    /// internal accounting (journal record and `segments.merge_duration`
    /// histogram get them either way).
    pub fn merge_once_observed<O: MergeObserver>(&self, obs: &mut O) -> Result<bool> {
        let mut inner = self.inner.lock();
        let any_tombstone_sealed = !inner.tombstones.is_empty();
        if inner.segments.len() < 2 && !any_tombstone_sealed {
            return Ok(false);
        }
        let r = self.merge_locked(&mut inner, obs);
        if r.is_err() {
            self.stats.merge_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.refresh_stats(&inner);
        r
    }

    fn merge_locked<O: MergeObserver>(&self, inner: &mut Inner, obs: &mut O) -> Result<bool> {
        let mut times = MergeTimes::default();
        let t = Instant::now();
        let mut docs: Vec<(u64, Vec<Code>)> = Vec::new();
        for seg in inner.segments.iter() {
            for (i, &d) in seg.doc_ids.iter().enumerate() {
                if inner.tombstones.contains(&d) {
                    continue;
                }
                docs.push((d, seg.doc_codes(i)?));
            }
        }
        docs.sort_by_key(|&(id, _)| id);
        phase(&mut times, obs, MergePhase::Collect, t);
        let dropped_tombstones = inner.tombstones.len() as u64;
        let old: Vec<Arc<Segment>> = (*inner.segments).clone();
        let mut segments: Vec<Arc<Segment>> = Vec::new();
        let mut next_segment = inner.next_segment;
        let t = Instant::now();
        if !docs.is_empty() {
            let seg = self.build_segment(next_segment, &docs)?;
            next_segment += 1;
            segments.push(Arc::new(seg));
        }
        phase(&mut times, obs, MergePhase::Build, t);
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment,
            segments: segments.iter().map(|s| s.entry()).collect(),
            // Every tombstoned sealed document was just compacted away.
            tombstones: Vec::new(),
        };
        let t = Instant::now();
        self.commit_manifest(&manifest)?;
        phase(&mut times, obs, MergePhase::Commit, t);
        inner.epoch = manifest.epoch;
        inner.next_segment = next_segment;
        inner.segments = Arc::new(segments);
        inner.tombstones = Arc::new(BTreeSet::new());
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        // The commit made the inputs unreachable; delete them. A failure
        // here cannot un-commit — the files just linger as garbage a
        // future recovery will flag as orphans.
        let t = Instant::now();
        for seg in &old {
            charge(&self.cfg.gate, IoOp::Meta)?;
            fs::remove_file(self.pages_path(seg.id)).map_err(|e| Error::io(e, IoOp::Meta, None))?;
            charge(&self.cfg.gate, IoOp::Meta)?;
            fs::remove_file(self.meta_path(seg.id)).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        }
        phase(&mut times, obs, MergePhase::Cleanup, t);
        if let Some(h) = self.merge_hist.lock().as_ref() {
            h.record_value(times.total_nanos());
        }
        self.append_journal(&JournalEvent {
            kind: JournalKind::Merge,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs: docs.len() as u64,
            aux: dropped_tombstones,
            inputs: old.iter().map(|s| s.id).collect(),
            outputs: inner.segments.iter().map(|s| s.id).collect(),
            phase_nanos: times.phase_nanos,
        })?;
        Ok(true)
    }

    /// Seal the memtable's live documents into a new segment and commit.
    /// No-op (fresh memtable, no commit) when nothing is live.
    fn seal_locked<O: MergeObserver>(&self, inner: &mut Inner, obs: &mut O) -> Result<bool> {
        let docs: Vec<(u64, Vec<Code>)> = {
            let st = inner.memtable.state.read();
            if st.doc_ids.is_empty() {
                return Ok(false);
            }
            st.doc_ids
                .iter()
                .zip(&st.codes)
                .zip(&st.retired)
                .filter(|&(_, &r)| !r)
                .map(|((&id, codes), _)| (id, codes.clone()))
                .collect()
        };
        if docs.is_empty() {
            // Everything was retired before sealing: nothing to persist,
            // and nothing durable referenced those ids. Just reset.
            inner.memtable = Arc::new(Memtable::new(self.alphabet.clone()));
            return Ok(false);
        }
        let mut times = MergeTimes::default();
        let id = inner.next_segment;
        let t = Instant::now();
        let seg = self.build_segment(id, &docs)?;
        phase(&mut times, obs, MergePhase::Build, t);
        let mut segments: Vec<Arc<Segment>> = (*inner.segments).clone();
        segments.push(Arc::new(seg));
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment: id + 1,
            segments: segments.iter().map(|s| s.entry()).collect(),
            tombstones: inner.tombstones.iter().copied().collect(),
        };
        let t = Instant::now();
        self.commit_manifest(&manifest)?;
        phase(&mut times, obs, MergePhase::Commit, t);
        inner.epoch = manifest.epoch;
        inner.next_segment = id + 1;
        inner.segments = Arc::new(segments);
        inner.memtable = Arc::new(Memtable::new(self.alphabet.clone()));
        self.stats.seals.fetch_add(1, Ordering::Relaxed);
        self.append_journal(&JournalEvent {
            kind: JournalKind::Seal,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs: docs.len() as u64,
            aux: 0,
            inputs: Vec::new(),
            outputs: vec![id],
            phase_nanos: times.phase_nanos,
        })?;
        Ok(true)
    }

    /// Write segment `id`'s pages file (sealed layout, synced) and
    /// sidecar. The files are not durable *state* until a manifest commit
    /// references them — a crash before that leaves them as orphans.
    fn build_segment(&self, id: u64, docs: &[(u64, Vec<Code>)]) -> Result<Segment> {
        let sep = self.alphabet.separator();
        let mut text = Vec::new();
        for (_, codes) in docs {
            text.extend_from_slice(codes);
            text.push(sep);
        }
        charge(&self.cfg.gate, IoOp::Write)?;
        let dev = FileDevice::create(self.pages_path(id), false)?;
        let dev = GatedDevice { inner: dev, gate: self.cfg.gate.clone() };
        let index = DiskSpine::build_sealed(
            self.alphabet.clone(),
            &text,
            Box::new(dev),
            self.cfg.pool_pages,
            Box::<Lru>::default(),
        )?;
        let mut meta = Vec::new();
        index.write_meta(&mut meta)?;
        charge(&self.cfg.gate, IoOp::Meta)?;
        let mut f =
            fs::File::create(self.meta_path(id)).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        charge(&self.cfg.gate, IoOp::Write)?;
        f.write_all(&meta).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(&self.cfg.gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        if self.cfg.hot_pin_pages > 0 {
            index.pin_hot_prefix(self.cfg.hot_pin_pages)?;
        }
        let doc_ids: Vec<u64> = docs.iter().map(|&(d, _)| d).collect();
        let doc_lens: Vec<u64> = docs.iter().map(|(_, c)| c.len() as u64).collect();
        let entry = SegmentEntry { id, doc_ids, doc_lens };
        let starts = entry.starts();
        Ok(Segment { id, doc_ids: entry.doc_ids, doc_lens: entry.doc_lens, starts, index })
    }

    /// The atomic commit: temp file, fsync, rename, directory fsync.
    fn commit_manifest(&self, m: &Manifest) -> Result<()> {
        let gate = &self.cfg.gate;
        let bytes = m.encode();
        let tmp = self.dir.join(MANIFEST_TMP);
        charge(gate, IoOp::Write)?;
        let mut f = fs::File::create(&tmp).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Write)?;
        f.write_all(&bytes).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        drop(f);
        charge(gate, IoOp::Meta)?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        // The rename is not durable until the directory itself is synced.
        charge(gate, IoOp::Sync)?;
        let d = fs::File::open(&self.dir).map_err(|e| Error::io(e, IoOp::Sync, None))?;
        d.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        Ok(())
    }

    fn pages_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id}.pages"))
    }

    fn meta_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id}.meta"))
    }

    /// Last committed manifest epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Files recovery found that no committed manifest references —
    /// evidence of a crash mid-commit. Non-zero turns the serving
    /// `/health` endpoint degraded until an operator inspects and
    /// [`Self::cleanup_orphans`] clears them.
    pub fn orphan_count(&self) -> usize {
        self.inner.lock().orphans.len()
    }

    /// Delete the orphan files recorded at recovery. Returns how many were
    /// removed.
    pub fn cleanup_orphans(&self) -> Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0;
        while let Some(p) = inner.orphans.last().cloned() {
            charge(&self.cfg.gate, IoOp::Meta)?;
            match fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(Error::io(e, IoOp::Meta, None)),
            }
            inner.orphans.pop();
            removed += 1;
        }
        if removed > 0 {
            self.append_journal(&JournalEvent {
                kind: JournalKind::OrphanCleanup,
                epoch: inner.epoch,
                unix_ms: unix_ms(),
                docs: removed as u64,
                aux: 0,
                inputs: Vec::new(),
                outputs: Vec::new(),
                phase_nanos: [0; MergePhase::COUNT],
            })?;
        }
        self.refresh_stats(&inner);
        Ok(removed)
    }

    /// Append one event to `JOURNAL.log` with the manifest's fsync
    /// discipline (write, then `fsync` the file). Called strictly *after*
    /// the commit the event describes is durable, so the journal can only
    /// ever trail the manifest.
    fn append_journal(&self, ev: &JournalEvent) -> Result<()> {
        let gate = &self.cfg.gate;
        let bytes = ev.encode();
        charge(gate, IoOp::Meta)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(JOURNAL_FILE))
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        charge(gate, IoOp::Write)?;
        f.write_all(&bytes).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        Ok(())
    }

    /// Path of the lifecycle journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// The last `n` lifecycle journal events, oldest first. Lenient: a
    /// torn tail (crash mid-append, not yet truncated by recovery) is
    /// skipped, matching replay semantics.
    pub fn recent_journal(&self, n: usize) -> Result<Vec<JournalEvent>> {
        let p = self.journal_path();
        if !p.exists() {
            return Ok(Vec::new());
        }
        charge(&self.cfg.gate, IoOp::Read)?;
        let bytes = fs::read(&p).map_err(|e| Error::io(e, IoOp::Read, None))?;
        let (mut events, _) = journal::replay(&bytes);
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        Ok(events)
    }

    /// Sorted global ids of every live document (memtable and sealed).
    pub fn live_doc_ids(&self) -> Vec<u64> {
        let snap = self.snapshot();
        let mut ids = Vec::new();
        {
            let st = snap.memtable.state.read();
            for (local, &id) in st.doc_ids.iter().take(snap.mem_docs).enumerate() {
                if !snap.mem_retired[local] && !snap.tombstones.contains(&id) {
                    ids.push(id);
                }
            }
        }
        for seg in snap.segments.iter() {
            for &id in &seg.doc_ids {
                if !snap.tombstones.contains(&id) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// The codes of live document `doc`, or `None` if it is retired or was
    /// never assigned.
    pub fn document(&self, doc: u64) -> Result<Option<Vec<Code>>> {
        let snap = self.snapshot();
        if snap.tombstones.contains(&doc) {
            return Ok(None);
        }
        {
            let st = snap.memtable.state.read();
            if let Some(local) = st.doc_ids.iter().take(snap.mem_docs).position(|&d| d == doc) {
                if snap.mem_retired[local] {
                    return Ok(None);
                }
                return Ok(Some(st.codes[local].clone()));
            }
        }
        for seg in snap.segments.iter() {
            if let Ok(i) = seg.doc_ids.binary_search(&doc) {
                return Ok(Some(seg.doc_codes(i)?));
            }
        }
        Ok(None)
    }

    /// All occurrences of `pattern` across live documents, as
    /// `(global doc id, offset)` matches ordered by (doc, offset).
    pub fn try_find_all(&self, pattern: &[Code]) -> Result<Vec<DocMatch>> {
        match self.answer_patterns(&[pattern]).pop().expect("one outcome per pattern") {
            QueryOutcome::DoneDocs(ms) => Ok(ms),
            QueryOutcome::Failed(e) => {
                Err(Error::Io { source: std::io::Error::other(e), ctx: None })
            }
            other => unreachable!("segmented answer is DoneDocs or Failed, got {other:?}"),
        }
    }

    /// Per-component EXPLAIN: the memtable's trace plus each sealed
    /// segment's, labeled. The composite has no single backbone walk to
    /// trace, so observability keeps the component structure visible.
    pub fn explain(&self, pattern: &[Code]) -> Vec<(String, QueryTrace)> {
        let snap = self.snapshot();
        let mut out = Vec::with_capacity(1 + snap.segments.len());
        {
            let st = snap.memtable.state.read();
            out.push(("memtable".to_string(), crate::trace::explain(&st.index, pattern)));
        }
        for seg in snap.segments.iter() {
            out.push((format!("seg-{}", seg.id), seg.index.explain(pattern)));
        }
        out
    }

    /// `(segment id, sealed on-disk pages)` for every live segment,
    /// oldest first. Backs the per-segment `segments.pages` labeled
    /// gauges on `/metrics`; an id that has since been merged away simply
    /// stops appearing here.
    pub fn segment_pages(&self) -> Vec<(u64, u64)> {
        self.snapshot().segments.iter().map(|s| (s.id, s.index.file_pages().unwrap_or(0))).collect()
    }

    /// The gauge values as one consistent snapshot.
    pub fn stats(&self) -> SegmentsSnapshot {
        let s = &self.stats;
        SegmentsSnapshot {
            epoch: s.epoch.load(Ordering::Relaxed),
            segments: s.segments.load(Ordering::Relaxed) as usize,
            tombstones: s.tombstones.load(Ordering::Relaxed) as usize,
            memtable_docs: s.memtable_docs.load(Ordering::Relaxed) as usize,
            memtable_symbols: s.memtable_symbols.load(Ordering::Relaxed) as usize,
            live_docs: s.live_docs.load(Ordering::Relaxed) as usize,
            orphans: s.orphans.load(Ordering::Relaxed) as usize,
            merge_backlog: s.merge_backlog.load(Ordering::Relaxed) as usize,
            seals: s.seals.load(Ordering::Relaxed),
            merges: s.merges.load(Ordering::Relaxed),
        }
    }

    /// Register the store's gauges (`segments.count`,
    /// `segments.merge_backlog`, `segments.tombstones`, ...) on `registry`
    /// for the `/metrics` exporters.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let g = |s: &Arc<SegStats>, f: fn(&SegStats) -> &AtomicU64| {
            let s = s.clone();
            move || f(&s).load(Ordering::Relaxed)
        };
        registry.gauge("segments.count", g(&self.stats, |s| &s.segments));
        registry.gauge("segments.tombstones", g(&self.stats, |s| &s.tombstones));
        registry.gauge("segments.merge_backlog", g(&self.stats, |s| &s.merge_backlog));
        registry.gauge("segments.epoch", g(&self.stats, |s| &s.epoch));
        registry.gauge("segments.memtable_docs", g(&self.stats, |s| &s.memtable_docs));
        registry.gauge("segments.memtable_symbols", g(&self.stats, |s| &s.memtable_symbols));
        registry.gauge("segments.live_docs", g(&self.stats, |s| &s.live_docs));
        registry.gauge("segments.orphans", g(&self.stats, |s| &s.orphans));
        registry.gauge("segments.seals", g(&self.stats, |s| &s.seals));
        registry.gauge("segments.merges", g(&self.stats, |s| &s.merges));
        registry.gauge("segments.merge_failures", g(&self.stats, |s| &s.merge_failures));
        registry.gauge("segments.hot_pinned", g(&self.stats, |s| &s.hot_pinned));
        // Merges were previously count-only; the histogram makes a slow
        // merge visible (recorded as total wall nanos across phases).
        *self.merge_hist.lock() = Some(registry.histogram("segments.merge_duration"));
    }

    fn refresh_stats(&self, inner: &Inner) {
        let (mem_docs, mem_symbols, mem_live) = {
            let st = inner.memtable.state.read();
            let live = st.retired.iter().filter(|&&r| !r).count();
            (st.doc_ids.len(), st.symbols, live)
        };
        let sealed_live: usize = inner
            .segments
            .iter()
            .map(|s| s.doc_ids.iter().filter(|d| !inner.tombstones.contains(d)).count())
            .sum();
        let s = &self.stats;
        s.epoch.store(inner.epoch, Ordering::Relaxed);
        s.segments.store(inner.segments.len() as u64, Ordering::Relaxed);
        s.tombstones.store(inner.tombstones.len() as u64, Ordering::Relaxed);
        s.memtable_docs.store(mem_docs as u64, Ordering::Relaxed);
        s.memtable_symbols.store(mem_symbols as u64, Ordering::Relaxed);
        s.live_docs.store((mem_live + sealed_live) as u64, Ordering::Relaxed);
        s.orphans.store(inner.orphans.len() as u64, Ordering::Relaxed);
        let backlog = inner.segments.len().saturating_sub(1) + inner.tombstones.len();
        s.merge_backlog.store(backlog as u64, Ordering::Relaxed);
        let pinned: usize = inner.segments.iter().map(|sg| sg.index.pinned_pages()).sum();
        s.hot_pinned.store(pinned as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let memtable = inner.memtable.clone();
        let segments = inner.segments.clone();
        let tombstones = inner.tombstones.clone();
        drop(inner);
        let (mem_docs, mem_len, mem_retired) = {
            let st = memtable.state.read();
            (st.doc_ids.len(), SpineOps::text_len(&st.index), st.retired.clone())
        };
        Snapshot { memtable, mem_docs, mem_len, mem_retired, segments, tombstones }
    }
}

/// Queries resolve against a snapshot, component by component: the
/// memtable and each segment run the shared single-backbone batch path
/// (locate each pattern, then one link walk per located pattern), then concatenation
/// ends are localized to `(doc, offset)`, filtered through the snapshot's
/// tombstones and retired flags, and merged. Failures are per-pattern: a
/// storage fault in one segment fails the patterns it was resolving, not
/// the batch.
impl ServeIndex for SegmentedSpine {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        type Acc = std::result::Result<Vec<DocMatch>, String>;
        let snap = self.snapshot();
        let mut acc: Vec<Acc> = patterns.iter().map(|_| Ok(Vec::new())).collect();

        // The empty pattern occurs at every position of every live
        // document, boundaries included (the per-document analogue of the
        // single-backbone `0..=n` answer).
        let empty_answer: Option<Vec<DocMatch>> =
            patterns.iter().any(|p| p.is_empty()).then(|| {
                let mut ms = Vec::new();
                {
                    let st = snap.memtable.state.read();
                    for (local, &id) in st.doc_ids.iter().take(snap.mem_docs).enumerate() {
                        if snap.mem_retired[local] || snap.tombstones.contains(&id) {
                            continue;
                        }
                        for off in 0..=st.index.doc_len(local) {
                            ms.push(DocMatch { doc: id as usize, offset: off });
                        }
                    }
                }
                for seg in snap.segments.iter() {
                    for (i, &id) in seg.doc_ids.iter().enumerate() {
                        if snap.tombstones.contains(&id) {
                            continue;
                        }
                        for off in 0..=seg.doc_lens[i] as usize {
                            ms.push(DocMatch { doc: id as usize, offset: off });
                        }
                    }
                }
                ms
            });
        for (i, p) in patterns.iter().enumerate() {
            if p.is_empty() {
                acc[i] = Ok(empty_answer.clone().expect("computed when any pattern is empty"));
            }
        }

        // Memtable component. Ends past the snapshot's concatenation
        // length belong to documents added after the snapshot; drop them.
        {
            let st = snap.memtable.state.read();
            if snap.mem_docs > 0 {
                let outs = ServeIndex::answer_patterns(&st.index, patterns);
                for (i, out) in outs.into_iter().enumerate() {
                    if patterns[i].is_empty() {
                        continue;
                    }
                    merge_component(
                        &mut acc[i],
                        out,
                        patterns[i].len(),
                        |start| {
                            let m = st.index.localize(start);
                            if m.doc >= snap.mem_docs || snap.mem_retired[m.doc] {
                                return None;
                            }
                            let id = st.doc_ids[m.doc];
                            (!snap.tombstones.contains(&id))
                                .then_some(DocMatch { doc: id as usize, offset: m.offset })
                        },
                        snap.mem_len,
                    );
                }
            }
        }

        // Sealed segments.
        for seg in snap.segments.iter() {
            let outs = ServeIndex::answer_patterns(&seg.index, patterns);
            for (i, out) in outs.into_iter().enumerate() {
                if patterns[i].is_empty() {
                    continue;
                }
                merge_component(
                    &mut acc[i],
                    out,
                    patterns[i].len(),
                    |start| {
                        let (id, offset) = seg.localize(start);
                        (!snap.tombstones.contains(&id))
                            .then_some(DocMatch { doc: id as usize, offset })
                    },
                    usize::MAX,
                );
            }
        }

        acc.into_iter()
            .map(|r| match r {
                Ok(mut ms) => {
                    ms.sort_unstable_by_key(|m| (m.doc, m.offset));
                    QueryOutcome::DoneDocs(ms)
                }
                Err(e) => QueryOutcome::Failed(e),
            })
            .collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        let snap = self.snapshot();
        let mut agg = SpineOps::ops_counters(&snap.memtable.state.read().index).snapshot();
        for seg in snap.segments.iter() {
            agg += SpineOps::ops_counters(&seg.index).snapshot();
        }
        agg
    }
}

/// Fold one component's single-backbone outcome for one pattern into the
/// per-pattern accumulator: ends → starts → localized matches, respecting
/// a visibility limit on end positions. An already-failed pattern stays
/// failed; a component failure fails the pattern.
fn merge_component(
    acc: &mut std::result::Result<Vec<DocMatch>, String>,
    out: QueryOutcome,
    plen: usize,
    mut localize: impl FnMut(usize) -> Option<DocMatch>,
    end_limit: usize,
) {
    let Ok(ms) = acc.as_mut() else { return };
    match out {
        QueryOutcome::Done(ends) => {
            for e in ends {
                let end = e as usize;
                if end > end_limit {
                    continue;
                }
                if let Some(m) = localize(end - plen) {
                    ms.push(m);
                }
            }
        }
        QueryOutcome::Failed(e) => *acc = Err(e),
        other => *acc = Err(format!("unexpected component outcome {other:?}")),
    }
}

/// Charge the wall time since `t` to phase `p` on the internal accumulator
/// (always — the journal needs it) and the caller's observer (when enabled).
fn phase<O: MergeObserver>(times: &mut MergeTimes, obs: &mut O, p: MergePhase, t: Instant) {
    let nanos = t.elapsed().as_nanos() as u64;
    times.phase(p, nanos);
    if O::ENABLED {
        obs.phase(p, nanos);
    }
}

/// Recovery's journal pass: salvage the valid record prefix (truncating a
/// torn tail in place, synced) and cross-check it against the recovered
/// manifest epoch. Events are appended only after their commit is durable,
/// so a journal *ahead* of the manifest is corruption, not a crash artifact.
fn replay_journal(dir: &Path, cfg: &SegmentConfig, manifest_epoch: u64) -> Result<()> {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return Ok(());
    }
    charge(&cfg.gate, IoOp::Read)?;
    let bytes = fs::read(&path).map_err(|e| Error::io(e, IoOp::Read, None))?;
    let (events, valid) = journal::replay(&bytes);
    if valid < bytes.len() {
        charge(&cfg.gate, IoOp::Meta)?;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        f.set_len(valid as u64).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        charge(&cfg.gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
    }
    if let Some(max) = events.iter().map(|e| e.epoch).max() {
        if max > manifest_epoch {
            return Err(Error::Parse(format!(
                "journal epoch {max} is ahead of manifest epoch {manifest_epoch} \
                 (journal events are appended only after their commit is durable)"
            )));
        }
    }
    Ok(())
}

fn open_segment(dir: &Path, e: &SegmentEntry, cfg: &SegmentConfig) -> Result<Segment> {
    charge(&cfg.gate, IoOp::Meta)?;
    let meta = fs::read(dir.join(format!("seg-{}.meta", e.id)))
        .map_err(|err| Error::io(err, IoOp::Meta, None))?;
    charge(&cfg.gate, IoOp::Read)?;
    let dev = FileDevice::open(dir.join(format!("seg-{}.pages", e.id)), false)?;
    let dev = GatedDevice { inner: dev, gate: cfg.gate.clone() };
    let index = DiskSpine::reopen(
        &mut meta.as_slice(),
        Box::new(dev),
        cfg.pool_pages,
        Box::<Lru>::default(),
    )?;
    if cfg.hot_pin_pages > 0 {
        index.pin_hot_prefix(cfg.hot_pin_pages)?;
    }
    Ok(Segment {
        id: e.id,
        doc_ids: e.doc_ids.clone(),
        doc_lens: e.doc_lens.clone(),
        starts: e.starts(),
        index,
    })
}

/// Directory entries a committed manifest does not account for: segment
/// files from commits that never happened, or a `MANIFEST.tmp` from an
/// interrupted commit.
fn scan_orphans(dir: &Path, m: &Manifest) -> Result<Vec<PathBuf>> {
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    for e in &m.segments {
        referenced.insert(format!("seg-{}.pages", e.id));
        referenced.insert(format!("seg-{}.meta", e.id));
    }
    let mut orphans = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| Error::io(e, IoOp::Meta, None))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(e, IoOp::Meta, None))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_segment_file =
            name.starts_with("seg-") && (name.ends_with(".pages") || name.ends_with(".meta"));
        if name == MANIFEST_TMP || (is_segment_file && !referenced.contains(&name)) {
            orphans.push(entry.path());
        }
    }
    orphans.sort();
    Ok(orphans)
}

/// Owner handle for the background merge thread; stops and joins it on
/// drop.
pub struct MergeHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MergeHandle {
    /// Signal the merger and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for MergeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run a compaction loop on a background thread: whenever the backlog
/// reaches the configured trigger (segment count, or any outstanding
/// tombstone), merge. Errors increment the `segments.merge_failures`
/// gauge and the loop keeps going — a failed merge leaves the store on
/// its previous committed state.
pub fn spawn_merger(store: Arc<SegmentedSpine>, interval: Duration) -> MergeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("spine-merger".into())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                let s = store.stats();
                if s.segments >= store.cfg.merge_min_segments || s.tombstones > 0 {
                    let _ = store.merge_once();
                }
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn spine-merger thread");
    MergeHandle { stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna() -> Alphabet {
        Alphabet::dna()
    }

    fn enc(a: &Alphabet, s: &str) -> Vec<Code> {
        a.encode(s.as_bytes()).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spine-segments-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn matches_of(s: &SegmentedSpine, a: &Alphabet, pat: &str) -> Vec<(usize, usize)> {
        s.try_find_all(&enc(a, pat)).unwrap().into_iter().map(|m| (m.doc, m.offset)).collect()
    }

    #[test]
    fn add_seal_retire_merge_round_trip() {
        let a = dna();
        let dir = tmpdir("roundtrip");
        let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let d0 = s.add_document(&enc(&a, "ACGTACGT")).unwrap();
        let d1 = s.add_document(&enc(&a, "TTTT")).unwrap();
        assert_eq!((d0, d1), (0, 1));
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)]);
        // Seal, then add more on top: queries span memtable + segment.
        assert!(s.force_seal().unwrap());
        let d2 = s.add_document(&enc(&a, "ACGA")).unwrap();
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4), (2, 0)]);
        assert_eq!(matches_of(&s, &a, "TTT"), vec![(1, 0), (1, 1)]);
        // Retire a sealed doc (durable tombstone) and a memtable doc
        // (volatile flag): both vanish from every surface.
        assert!(s.retire_document(d1).unwrap());
        assert!(!s.retire_document(d1).unwrap());
        assert!(s.retire_document(d2).unwrap());
        assert_eq!(matches_of(&s, &a, "TTT"), vec![]);
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4)]);
        assert!(matches!(s.retire_document(99), Err(Error::UnknownDocument { doc: 99 })));
        // Merge compacts the tombstone away; answers unchanged. The
        // memtable holds only the retired d2, so this seal is a no-op.
        assert!(!s.force_seal().unwrap());
        assert!(s.merge_once().unwrap());
        assert_eq!(s.stats().tombstones, 0);
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4)]);
        assert_eq!(s.live_doc_ids(), vec![0]);
        assert_eq!(s.document(d0).unwrap().unwrap(), enc(&a, "ACGTACGT"));
        assert_eq!(s.document(d1).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reopens_committed_state_and_forgets_the_memtable() {
        let a = dna();
        let dir = tmpdir("recover");
        let epoch_before;
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.add_document(&enc(&a, "GGGG")).unwrap();
            s.force_seal().unwrap();
            s.retire_document(1).unwrap();
            // Volatile: never sealed, must be forgotten by recovery.
            s.add_document(&enc(&a, "CCCC")).unwrap();
            epoch_before = s.epoch();
        }
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.epoch(), epoch_before);
        assert_eq!(s.orphan_count(), 0);
        assert_eq!(s.live_doc_ids(), vec![0]);
        assert_eq!(matches_of(&s, &a, "CCCC"), vec![]);
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)]);
        // The lost memtable doc's id is deliberately reissued.
        assert_eq!(s.add_document(&enc(&a, "TTAA")).unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_reads_survive_concurrent_seal_and_merge() {
        let a = dna();
        let dir = tmpdir("snapstable");
        let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        s.add_document(&enc(&a, "ACGT")).unwrap();
        s.force_seal().unwrap();
        s.add_document(&enc(&a, "ACCA")).unwrap();
        let snap_before = s.snapshot();
        // Mutate heavily after the snapshot.
        s.retire_document(0).unwrap();
        s.add_document(&enc(&a, "ACAC")).unwrap();
        s.force_seal().unwrap();
        s.merge_once().unwrap();
        // The snapshot still sees exactly docs {0, 1}: segment files were
        // deleted by the merge, but its handles keep them readable.
        let pat = enc(&a, "AC");
        let outs = {
            // Re-resolve through the snapshot manually, mirroring
            // answer_patterns' component walk.
            let st = snap_before.memtable.state.read();
            let mut got: Vec<(usize, usize)> = st
                .index
                .find_all(&pat)
                .into_iter()
                .filter(|m| m.doc < snap_before.mem_docs && !snap_before.mem_retired[m.doc])
                .map(|m| (st.doc_ids[m.doc] as usize, m.offset))
                .collect();
            for seg in snap_before.segments.iter() {
                for start in seg.index.try_find_all(&pat).unwrap() {
                    let (id, off) = seg.localize(start);
                    if !snap_before.tombstones.contains(&id) {
                        got.push((id as usize, off));
                    }
                }
            }
            got.sort_unstable();
            got
        };
        assert_eq!(outs, vec![(0, 0), (1, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_commit_recovers_to_the_previous_epoch() {
        let a = dna();
        let dir = tmpdir("crashcommit");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.force_seal().unwrap();
        }
        // Count the ops a clean seal of a second doc takes, then crash at
        // every prefix of them.
        let count = {
            let probe = tmpdir("crashcommit-probe");
            fs::create_dir_all(&probe).unwrap();
            copy_dir(&dir, &probe);
            let gate = IoGate::unarmed();
            let cfg = SegmentConfig { gate: Some(gate.clone()), ..SegmentConfig::default() };
            let s = SegmentedSpine::open(a.clone(), &probe, cfg).unwrap();
            let before = gate.ops();
            s.add_document(&enc(&a, "GGCC")).unwrap();
            s.force_seal().unwrap();
            let n = gate.ops() - before;
            let _ = fs::remove_dir_all(&probe);
            n
        };
        assert!(count > 4, "a seal must take several I/O ops, got {count}");
        for k in 0..count {
            let work = tmpdir("crashcommit-k");
            fs::create_dir_all(&work).unwrap();
            copy_dir(&dir, &work);
            let clean = SegmentConfig::default();
            let epoch0 = SegmentedSpine::open(a.clone(), &work, clean.clone()).unwrap().epoch();
            {
                let gate = IoGate::unarmed();
                let warm = SegmentedSpine::open(
                    a.clone(),
                    &work,
                    SegmentConfig { gate: Some(gate.clone()), ..SegmentConfig::default() },
                )
                .unwrap();
                let baseline = gate.ops();
                let armed = IoGate::armed(baseline + k);
                drop(warm);
                let cfg = SegmentConfig { gate: Some(armed), ..SegmentConfig::default() };
                let s = SegmentedSpine::open(a.clone(), &work, cfg);
                // Recovery itself may crash (k below its op count): that
                // must be an error, never a panic or a torn store.
                if let Ok(s) = s {
                    let r =
                        s.add_document(&enc(&a, "GGCC")).and_then(|_| s.force_seal().map(|_| ()));
                    assert!(r.is_err(), "k={k} should have crashed");
                }
            }
            // Ungated recovery: must land on a committed epoch — the old
            // one, or (when the crash hit after the rename but before the
            // directory sync) the new one — with that epoch's exact
            // answers either way. Never a torn state.
            let s = SegmentedSpine::open(a.clone(), &work, clean).unwrap();
            let e = s.epoch();
            assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)], "k={k}");
            if e == epoch0 {
                assert_eq!(s.live_doc_ids(), vec![0], "k={k}");
                assert_eq!(matches_of(&s, &a, "GGCC"), vec![], "k={k}");
            } else {
                assert_eq!(e, epoch0 + 1, "k={k}: epoch must be committed");
                assert_eq!(s.live_doc_ids(), vec![0, 1], "k={k}");
                assert_eq!(matches_of(&s, &a, "GGCC"), vec![(1, 0)], "k={k}");
            }
            let _ = fs::remove_dir_all(&work);
        }
    }

    #[test]
    fn orphans_are_detected_and_cleanable() {
        let a = dna();
        let dir = tmpdir("orphans");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGT")).unwrap();
            s.force_seal().unwrap();
        }
        fs::write(dir.join("seg-99.pages"), b"stray").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"torn").unwrap();
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.orphan_count(), 2);
        assert_eq!(s.stats().orphans, 2);
        // Orphans never affect answers.
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0)]);
        assert_eq!(s.cleanup_orphans().unwrap(), 2);
        assert_eq!(s.orphan_count(), 0);
        assert!(!dir.join("seg-99.pages").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_merger_compacts() {
        let a = dna();
        let dir = tmpdir("bgmerge");
        let cfg = SegmentConfig { merge_min_segments: 2, ..SegmentConfig::default() };
        let s = Arc::new(SegmentedSpine::create(a.clone(), &dir, cfg).unwrap());
        for text in ["ACGT", "GGTT", "CACA"] {
            s.add_document(&enc(&a, text)).unwrap();
            s.force_seal().unwrap();
        }
        assert_eq!(s.stats().segments, 3);
        let h = spawn_merger(s.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.stats().segments > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        h.stop();
        assert_eq!(s.stats().segments, 1);
        assert_eq!(s.live_doc_ids(), vec![0, 1, 2]);
        assert_eq!(matches_of(&s, &a, "CACA"), vec![(2, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifecycle_journal_records_events_and_recovery_appends() {
        let a = dna();
        let dir = tmpdir("journal");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.add_document(&enc(&a, "TTTT")).unwrap();
            s.force_seal().unwrap();
            s.add_document(&enc(&a, "GGGG")).unwrap();
            let mut times = MergeTimes::default();
            s.force_seal_observed(&mut times).unwrap();
            assert!(times.phase_nanos[MergePhase::Commit.index()] > 0);
            assert_eq!(times.phase_nanos[MergePhase::Collect.index()], 0);
            s.retire_document(1).unwrap();
            s.merge_once().unwrap();
            let evs = s.recent_journal(10).unwrap();
            let kinds: Vec<JournalKind> = evs.iter().map(|e| e.kind).collect();
            use JournalKind::*;
            assert_eq!(kinds, vec![Seal, Seal, Retire, Merge]);
            assert_eq!(evs.iter().map(|e| e.epoch).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
            assert_eq!((evs[0].docs, evs[0].outputs.clone()), (2, vec![0]));
            // Retire records the document id it tombstoned.
            assert_eq!(evs[2].docs, 1);
            let m = &evs[3];
            assert_eq!((m.inputs.clone(), m.outputs.clone()), (vec![0, 1], vec![2]));
            assert_eq!((m.docs, m.aux), (2, 1));
            assert!(m.phase_nanos.iter().sum::<u64>() > 0, "merge phases must be timed");
            // recent_journal keeps the newest n.
            assert_eq!(s.recent_journal(2).unwrap(), evs[2..].to_vec());
        }
        // Reopen: replay cross-checks (journal trails manifest), recovery
        // appends its own event, and the whole file strict-decodes — no
        // torn records from any of the above.
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let evs = journal::decode_all(&fs::read(s.journal_path()).unwrap()).unwrap();
        let last = evs.last().unwrap();
        assert_eq!(last.kind, JournalKind::Recover);
        assert_eq!(last.epoch, s.epoch());
        assert_eq!((last.docs, last.aux), (2, 0));
        assert_eq!(last.outputs, vec![2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_salvaged_and_an_ahead_journal_is_rejected() {
        let a = dna();
        let dir = tmpdir("journaltear");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGT")).unwrap();
            s.force_seal().unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        // A crash mid-append leaves a torn tail: recovery must truncate it
        // away and keep going.
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.live_doc_ids(), vec![0]);
        let evs = journal::decode_all(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(evs.last().unwrap().kind, JournalKind::Recover);
        assert!(fs::metadata(&path).unwrap().len() > clean_len, "recover event appended");
        drop(s);
        // A journal *ahead* of the manifest cannot be a crash artifact
        // (events append only after their commit is durable): refuse.
        let forged = JournalEvent {
            kind: JournalKind::Seal,
            epoch: 999,
            unix_ms: 0,
            docs: 0,
            aux: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            phase_nanos: [0; MergePhase::COUNT],
        };
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&forged.encode()).unwrap();
        drop(f);
        let e = match SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("ahead-of-manifest journal must refuse to open"),
        };
        assert!(matches!(e, Error::Parse(_)), "unexpected error {e}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn copy_dir(from: &Path, to: &Path) {
        for e in fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }
}
