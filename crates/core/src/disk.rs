//! Page-resident SPINE (the paper's §6.2 disk experiments).
//!
//! Node records are striped over pages behind a bounded buffer pool
//! ([`pagestore`]); construction and search perform real page traffic, so
//! the pool's hit rate and the device's read/write counts expose SPINE's
//! locality — the effect behind the paper's 2× on-disk speedups (Figure 7,
//! Table 7). The paper's "simple buffering strategy" (keep the top of the
//! Link Table resident) is available as [`pagestore::PrefixPriority`]; the
//! `exp buffering` experiment compares it against LRU/FIFO/Clock under
//! memory pressure.
//!
//! Two physical layouts share this engine:
//!
//! * **Mutable (build-time) layout** — the paper's generic fixed-size record
//!   ("without any extra disk-specific optimization"): one record per node
//!   holding the vertebra label, link, rib slots, and two extrib slots
//!   (more spill to an in-memory side table, counted in
//!   [`DiskSpine::spill_count`]). It supports APPEND but pays for the
//!   worst-case fan-out on every node.
//! * **Sealed layout** (format v3, [`DiskSpine::build_sealed`],
//!   [`DiskSpine::seal_to`]) — a read-only page format with varint/delta
//!   node records in slotted pages ([`pagestore::slotted`]) plus backbone
//!   labels packed bit-tight into `u64` words on dedicated label pages.
//!   Records shrink by ~6× for DNA, so a fixed pool covers far more nodes
//!   and queries touch fewer pages. When every label fits the alphabet's
//!   packing width ([`strindex::Alphabet::pack_bits`]), backbone label runs
//!   are compared a whole word at a time ([`SpineOps::try_label_run`]).
//!   Each record also stores its node's reverse-link children, so
//!   occurrence enumeration walks the link subtree
//!   ([`crate::occurrences`]) and reads one record per occurrence instead
//!   of scanning the backbone. Every seal is built from the paper's §5
//!   compact layout ([`crate::CompactSpine`]) of the text: one seal
//!   source, whatever the caller holds.
//!
//! The mutable layout keeps the paper's backbone scan. Every sealed page
//! carries a format-version header; readers check it on each access and
//! surface [`strindex::Error::FormatVersion`] ("rebuild required") instead
//! of misparsing, and [`DiskSpine::reopen`] rejects v1 and v2 artifacts the
//! same way. All query algorithms are the shared generic ones
//! ([`crate::ops`]); `SpineOps` takes `&self`, so the store lives behind a
//! mutex.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::compact::CompactSpine;
use crate::hot::HotSet;
use crate::node::{NodeId, ROOT};
use crate::observe::{BuildEvent, BuildObserver, BuildPhase, BuildStats, MemBreakdown};
use crate::ops::{SpineOps, INFALLIBLE_BOUNDARY};
use pagestore::{
    slotted, slotted_record, BufferPool, CacheStats, CacheStatsSnapshot, EvictionPolicy,
    PageDevice, PageHeader, PagedVec, SlottedPageBuilder, PAGE_FORMAT_V2, PAGE_SIZE,
};
use parking_lot::Mutex;
use strindex::telemetry::{Counter, Histogram, MetricsRegistry};
use strindex::{
    Alphabet, Code, Counters, Error, FxHashMap, MatchingIndex, MatchingStats, MaximalMatch,
    OnlineIndex, PackedText, Result, StringIndex,
};

/// Inline extrib slots per record; chains are short (Table 4's steep decay),
/// so two suffice for almost every node.
const EXTRIB_SLOTS: usize = 2;

/// Spilled extribs of one node: `(prt, pt, dest)` triples.
type SpillEntry = Vec<(u32, u32, u32)>;

/// Magic stamped into page 0 of a sealed device (every sealed format
/// version; the version field beside it tells them apart).
const SEALED_MAGIC: &[u8; 4] = b"SPV2";

/// On-disk format version this build writes (and the only one it reads).
/// Version 1 is the fixed-record layout (build-time only now); version 2
/// is the sealed layout without reverse-link children. Reopening either
/// yields [`Error::FormatVersion`] — "rebuild required".
pub const DISK_FORMAT_VERSION: u16 = 3;

/// Packed 64-bit label words per label page (after the page header).
const WORDS_PER_PAGE: usize = (PAGE_SIZE - slotted::PAGE_HEADER_LEN) / 8;

/// Byte offsets within a *mutable-layout* node record (little-endian):
/// `cl:1 | link:4 | lel:4 | rib_count:1 | ribs: R×(cl 1, dest 4, pt 4) |
/// extrib_count:1 | extribs: 2×(dest 4, pt 4, prt 4)`.
struct Layout {
    rib_slots: usize,
}

impl Layout {
    fn new(alphabet: &Alphabet) -> Self {
        Layout { rib_slots: alphabet.code_space() }
    }

    fn record_size(&self) -> usize {
        1 + 4 + 4 + 1 + self.rib_slots * 9 + 1 + EXTRIB_SLOTS * 12
    }

    fn rib_off(&self, i: usize) -> usize {
        10 + i * 9
    }

    fn extrib_count_off(&self) -> usize {
        10 + self.rib_slots * 9
    }

    fn extrib_off(&self, i: usize) -> usize {
        self.extrib_count_off() + 1 + i * 12
    }
}

fn get_u32(r: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(r[off..off + 4].try_into().unwrap())
}

fn put_u32(r: &mut [u8], off: usize, v: u32) {
    r[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn alphabet_tag(a: &Alphabet) -> u8 {
    match a.kind() {
        strindex::AlphabetKind::Dna => 0,
        strindex::AlphabetKind::Protein => 1,
        strindex::AlphabetKind::Ascii => 2,
        strindex::AlphabetKind::Bytes => 3,
    }
}

fn alphabet_from_tag(t: u8) -> Result<Alphabet> {
    Ok(match t {
        0 => Alphabet::dna(),
        1 => Alphabet::protein(),
        2 => Alphabet::ascii(),
        3 => Alphabet::bytes(),
        t => return Err(Error::Parse(format!("unknown alphabet tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Sealed node record codec.
// ---------------------------------------------------------------------------

/// The varint/delta node record of the sealed layout (format v3).
///
/// ```text
/// link.dest varint | link.lel varint
/// rib_count varint | ribs: (cl 1B, dest−node varint, pt varint)…
/// ext_count varint | extribs: (prt varint, pt varint, dest−node varint)…
/// kid_count varint | children: (child−prev varint, lel varint)…
/// ```
///
/// Rib and extrib destinations are stored relative to the owning node:
/// APPEND only ever creates ribs/extribs pointing at the freshly appended
/// tail node, so `dest > node` always holds and deltas stay small. The
/// children section (new in v3) lists the nodes whose link points here,
/// ascending, each as the gap to the previous one (the first to the node
/// itself — a link always points backwards) followed by that child's link
/// LEL, which the walk tests at its first level without reading the
/// child. The decoder treats any malformed input as [`Error::Parse`] —
/// corrupt-page defense, never a panic or a garbage answer.
mod record {
    use super::*;
    use pagestore::{read_varint, write_varint};

    /// A fully decoded node: link, ribs `(cl, dest, pt)`, extribs
    /// `(prt, pt, dest)` in chain order, reverse-link children
    /// `(child, lel)` ascending.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(super) struct NodeRecord {
        pub link: (u32, u32),
        pub ribs: Vec<(Code, u32, u32)>,
        pub extribs: Vec<(u32, u32, u32)>,
        pub children: Vec<(u32, u32)>,
    }

    /// Encode `rec` for `node`, appending to `out`. Returns the byte sizes
    /// of the link, rib, extrib and children sections, so the sealer can
    /// attribute the footprint per edge kind.
    pub(super) fn encode(node: u32, rec: &NodeRecord, out: &mut Vec<u8>) -> [usize; 4] {
        let start = out.len();
        write_varint(out, rec.link.0 as u64);
        write_varint(out, rec.link.1 as u64);
        let link_end = out.len();
        write_varint(out, rec.ribs.len() as u64);
        for &(cl, dest, pt) in &rec.ribs {
            debug_assert!(dest > node, "rib destinations always point forward");
            out.push(cl);
            write_varint(out, (dest - node) as u64);
            write_varint(out, pt as u64);
        }
        let ribs_end = out.len();
        write_varint(out, rec.extribs.len() as u64);
        for &(prt, pt, dest) in &rec.extribs {
            debug_assert!(dest > node, "extrib destinations always point forward");
            write_varint(out, prt as u64);
            write_varint(out, pt as u64);
            write_varint(out, (dest - node) as u64);
        }
        let extribs_end = out.len();
        write_varint(out, rec.children.len() as u64);
        let mut prev = node;
        for &(child, lel) in &rec.children {
            debug_assert!(child > prev, "children ascend above their parent");
            write_varint(out, (child - prev) as u64);
            write_varint(out, lel as u64);
            prev = child;
        }
        [link_end - start, ribs_end - link_end, extribs_end - ribs_end, out.len() - extribs_end]
    }

    fn truncated() -> Error {
        Error::Parse("truncated sealed node record".into())
    }

    fn take(buf: &[u8], at: &mut usize) -> Result<u64> {
        let (v, n) = read_varint(buf, *at).ok_or_else(truncated)?;
        *at += n;
        Ok(v)
    }

    fn narrow(v: u64) -> Result<u32> {
        u32::try_from(v).map_err(|_| Error::Parse("sealed record field exceeds u32".into()))
    }

    fn fwd(node: u32, delta: u32) -> Result<u32> {
        node.checked_add(delta)
            .filter(|&d| d > node)
            .ok_or_else(|| Error::Parse("sealed record node delta out of range".into()))
    }

    fn byte(buf: &[u8], at: &mut usize) -> Result<u8> {
        let b = *buf.get(*at).ok_or_else(truncated)?;
        *at += 1;
        Ok(b)
    }

    /// Advance `at` from the record start past the link and rib sections.
    fn skip_to_extribs(buf: &[u8], at: &mut usize) -> Result<()> {
        take(buf, at)?; // link dest
        take(buf, at)?; // link lel
        for _ in 0..take(buf, at)? {
            byte(buf, at)?;
            take(buf, at)?;
            take(buf, at)?;
        }
        Ok(())
    }

    /// Decode a whole record; rejects trailing bytes.
    pub(super) fn decode(node: u32, buf: &[u8]) -> Result<NodeRecord> {
        let mut at = 0;
        let link = (narrow(take(buf, &mut at)?)?, narrow(take(buf, &mut at)?)?);
        let rib_count = take(buf, &mut at)? as usize;
        let mut ribs = Vec::with_capacity(rib_count.min(256));
        for _ in 0..rib_count {
            let cl = byte(buf, &mut at)?;
            let delta = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            ribs.push((cl, fwd(node, delta)?, pt));
        }
        let ext_count = take(buf, &mut at)? as usize;
        let mut extribs = Vec::with_capacity(ext_count.min(256));
        for _ in 0..ext_count {
            let prt = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            let delta = narrow(take(buf, &mut at)?)?;
            extribs.push((prt, pt, fwd(node, delta)?));
        }
        let kid_count = take(buf, &mut at)? as usize;
        let mut children = Vec::with_capacity(kid_count.min(256));
        let mut prev = node;
        for _ in 0..kid_count {
            prev = fwd(prev, narrow(take(buf, &mut at)?)?)?;
            children.push((prev, narrow(take(buf, &mut at)?)?));
        }
        if at != buf.len() {
            return Err(Error::Parse("trailing bytes after sealed node record".into()));
        }
        Ok(NodeRecord { link, ribs, extribs, children })
    }

    /// The first two varints only — the backbone-scan hot path
    /// ([`crate::occurrences`] touches nothing but links).
    pub(super) fn decode_link(buf: &[u8]) -> Result<(u32, u32)> {
        let mut at = 0;
        Ok((narrow(take(buf, &mut at)?)?, narrow(take(buf, &mut at)?)?))
    }

    /// Scan the rib section for label `c`.
    pub(super) fn find_rib(buf: &[u8], node: u32, c: Code) -> Result<Option<(u32, u32)>> {
        let mut at = 0;
        take(buf, &mut at)?; // link dest
        take(buf, &mut at)?; // link lel
        let rib_count = take(buf, &mut at)? as usize;
        for _ in 0..rib_count {
            let cl = byte(buf, &mut at)?;
            let delta = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            if cl == c {
                return Ok(Some((fwd(node, delta)?, pt)));
            }
        }
        Ok(None)
    }

    /// Scan the extrib section for the chain with parent-rib threshold
    /// `prt`; returns `(dest, pt)` of the first match, preserving the
    /// mutable layout's inline-then-spill probe order.
    pub(super) fn find_extrib(buf: &[u8], node: u32, prt: u32) -> Result<Option<(u32, u32)>> {
        let mut at = 0;
        skip_to_extribs(buf, &mut at)?;
        let ext_count = take(buf, &mut at)? as usize;
        for _ in 0..ext_count {
            let eprt = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            let delta = narrow(take(buf, &mut at)?)?;
            if eprt == prt {
                return Ok(Some((fwd(node, delta)?, pt)));
            }
        }
        Ok(None)
    }

    /// [`SpineOps::try_link_children`] over one record: push the children
    /// whose LEL is at least `min_lel` onto `out`, return how many the
    /// section lists.
    pub(super) fn children(
        buf: &[u8],
        node: u32,
        min_lel: u32,
        out: &mut Vec<NodeId>,
    ) -> Result<u64> {
        let mut at = 0;
        skip_to_extribs(buf, &mut at)?;
        for _ in 0..take(buf, &mut at)? {
            take(buf, &mut at)?;
            take(buf, &mut at)?;
            take(buf, &mut at)?;
        }
        let kid_count = take(buf, &mut at)?;
        let mut prev = node;
        for _ in 0..kid_count {
            prev = fwd(prev, narrow(take(buf, &mut at)?)?)?;
            if narrow(take(buf, &mut at)?)? >= min_lel {
                out.push(prev);
            }
        }
        Ok(kid_count)
    }
}

// ---------------------------------------------------------------------------
// Sealed store.
// ---------------------------------------------------------------------------

/// Structural counts recovered by decoding every record of a sealed index
/// ([`DiskSpine::sealed_census`]); reconciles with the
/// [`BuildStats`] event stream of the build that produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealedCensus {
    /// Records decoded (text length + 1 for the root).
    pub nodes: u64,
    /// Total ribs across all records.
    pub ribs: u64,
    /// Total extribs across all records (spills folded in at seal time).
    pub extribs: u64,
    /// Records too large for a slotted page, served from the sidecar
    /// overflow map instead.
    pub overflow_records: u64,
    /// Total reverse-link children across all records: every non-root
    /// node hangs in exactly one list, so this equals `nodes - 1`.
    pub link_children: u64,
}

/// The node → page mapping of a [`DiskSpine`] layout, for attributing
/// per-node observations (heatmap visits, trace events) to the physical
/// pages that serve them.
///
/// The mutable layout stripes fixed-size records uniformly; the sealed
/// layout's variable-size slotted pages need the real page directory, and
/// hot-tier clustering ([`DiskSpine::seal_to_clustered`]) additionally
/// redirects the hottest nodes to dedicated appended pages. Cheap to clone
/// (the directory is shared).
#[derive(Debug, Clone)]
pub enum PageMap {
    /// Fixed-size records, `records_per_page` per data page, node `i` on
    /// page `i / records_per_page` (the mutable layout).
    Uniform {
        /// Records striped onto each page.
        records_per_page: usize,
    },
    /// The sealed layout: node pages start at `base` (after the file
    /// header and label pages), `first_nodes[p]` is the first node of
    /// relative page `p`, and `hot` redirects clustered nodes to their
    /// hot-tier page.
    Sealed {
        /// Absolute page id of the first node page.
        base: u32,
        /// First node id of each node page, ascending.
        first_nodes: Arc<Vec<u32>>,
        /// Hot-tier overrides: node → `(absolute page, slot)`.
        hot: Arc<FxHashMap<u32, (u32, u16)>>,
    },
}

impl PageMap {
    /// Absolute page id serving `node`'s record.
    pub fn page_of(&self, node: NodeId) -> u32 {
        match self {
            PageMap::Uniform { records_per_page } => (node as usize / records_per_page) as u32,
            PageMap::Sealed { base, first_nodes, hot } => {
                if let Some(&(page, _)) = hot.get(&node) {
                    return page;
                }
                let pi = first_nodes.partition_point(|&f| f <= node) - 1;
                base + pi as u32
            }
        }
    }
}

/// A read-only sealed (format-v3) index on a page device.
///
/// Page 0 is the file header; pages `1..=label_pages` hold the packed
/// backbone labels; the next `node_pages` pages hold slotted node records;
/// an optional hot tier of `hot_pages` pages follows with duplicated
/// records of the workload's hottest nodes ([`DiskSpine::seal_to_clustered`]).
struct SealedStore {
    pool: BufferPool,
    /// Bits per packed backbone label.
    bits: u32,
    /// Whether `bits` equals the alphabet's word-packing width, enabling
    /// word-at-a-time label comparison (false ⇒ scalar compare over the
    /// same packed labels).
    packed_compare: bool,
    label_pages: u32,
    node_pages: u32,
    /// Hot-tier pages appended after the node pages (0 = no hot tier).
    hot_pages: u32,
    /// Number of packed label words (`ceil(len / per_word)`).
    label_words: usize,
    /// `first_nodes[p]` = id of the first node on node-page `p`.
    first_nodes: Arc<Vec<u32>>,
    /// Hot-tier overrides: reads of these nodes go to their clustered
    /// duplicate instead of the base slot, so a hot chain walk stays on
    /// the (pinnable) hot pages.
    hot_index: Arc<FxHashMap<u32, (u32, u16)>>,
    /// Encoded records that exceeded [`slotted::MAX_RECORD_LEN`]; their page
    /// slot holds an empty record as the overflow marker.
    overflow: FxHashMap<u32, Vec<u8>>,
    /// Encoded on-device footprint split by edge kind.
    encoded: MemBreakdown,
}

impl SealedStore {
    /// `(page id, slot)` of `node`'s record, hot tier first.
    fn node_page(&self, node: u32) -> (u32, usize) {
        if let Some(&(page, slot)) = self.hot_index.get(&node) {
            return (page, slot as usize);
        }
        let pi = self.first_nodes.partition_point(|&f| f <= node) - 1;
        (1 + self.label_pages + pi as u32, (node - self.first_nodes[pi]) as usize)
    }

    /// Run `f` over `node`'s encoded record, wherever it lives (page slot
    /// or overflow map). The page's version header is checked on every
    /// access ([`slotted_record`]).
    fn with_record<R>(&mut self, node: u32, f: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        let (page, slot) = self.node_page(node);
        let mut f = Some(f);
        let inline = self.pool.read(page, |b| match slotted_record(b, slot) {
            Err(e) => Some(Err(e)),
            // Empty record = overflow marker (every real record holds at
            // least the two link varints).
            Ok([]) => None,
            Ok(rec) => Some((f.take().unwrap())(rec)),
        })?;
        match inline {
            Some(r) => r,
            None => {
                let bytes = self.overflow.get(&node).ok_or_else(|| {
                    Error::Parse(format!("sealed node {node} marked overflow but absent"))
                })?;
                (f.take().unwrap())(bytes)
            }
        }
    }

    /// Packed label word `w` (words past the end read as zero, mirroring
    /// [`PackedText::window`]).
    fn label_word(&mut self, w: usize) -> Result<u64> {
        if w >= self.label_words {
            return Ok(0);
        }
        let page = 1 + (w / WORDS_PER_PAGE) as u32;
        let off = slotted::PAGE_HEADER_LEN + (w % WORDS_PER_PAGE) * 8;
        self.pool.read(page, |b| -> Result<u64> {
            PageHeader::checked(b, slotted::kind::LABELS)?;
            Ok(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()))
        })?
    }

    /// Label of text position `i` (0-based).
    fn label(&mut self, i: usize) -> Result<Code> {
        let pw = (64 / self.bits) as usize;
        let w = self.label_word(i / pw)?;
        Ok(((w >> ((i % pw) as u32 * self.bits)) & low_mask(self.bits)) as Code)
    }

    /// Up to `per_word` labels starting at position `i`, packed into the
    /// low bits of one word — the same window [`PackedText::window`]
    /// assembles, so the two compare with one xor.
    fn label_window(&mut self, i: usize) -> Result<u64> {
        let pw = (64 / self.bits) as usize;
        let w = i / pw;
        let phase = (i % pw) as u32;
        let lo = self.label_word(w)? >> (phase * self.bits);
        let win = if phase == 0 {
            lo
        } else {
            lo | (self.label_word(w + 1)? << ((pw as u32 - phase) * self.bits))
        };
        Ok(win & low_mask(pw as u32 * self.bits))
    }

    /// Word-at-a-time [`SpineOps::try_label_run`]: the common run
    /// of `pattern[from..]` and the backbone labels leaving `node`.
    fn label_run(
        &mut self,
        text_len: usize,
        node: u32,
        pattern: &PackedText,
        from: usize,
    ) -> Result<usize> {
        debug_assert_eq!(pattern.bits(), self.bits);
        let pw = pattern.per_word() as usize;
        let max = (pattern.len() - from).min(text_len - node as usize);
        let mut k = 0usize;
        while k < max {
            let n = (max - k).min(pw) as u32;
            let a = pattern.window(from + k);
            let b = self.label_window(node as usize + k)?;
            let m = strindex::window_match_len(a, b, self.bits, n) as usize;
            k += m;
            if m < n as usize {
                break;
            }
        }
        Ok(k)
    }
}

/// The physical store behind a [`DiskSpine`]: append-friendly fixed
/// records, or the sealed read-optimized layout.
enum Store {
    Mutable(PagedVec),
    Sealed(SealedStore),
}

impl Store {
    fn pool(&self) -> &BufferPool {
        match self {
            Store::Mutable(v) => v.pool(),
            Store::Sealed(s) => &s.pool,
        }
    }

    fn flush(&mut self) -> Result<()> {
        match self {
            Store::Mutable(v) => v.flush(),
            Store::Sealed(s) => s.pool.flush(),
        }
    }
}

/// Registry handles for per-query disk accounting
/// ([`DiskSpine::attach_telemetry`]).
struct DiskTelemetry {
    /// The pool's shared cache counters, sampled around each query to turn
    /// cumulative misses into a per-query device-fetch count.
    cache: Arc<CacheStats>,
    /// Pages *fetched from the device* (pool misses) per
    /// `try_locate`/`try_find_all` ("disk.pages_per_query"). Pool hits are
    /// free; this histogram measures real I/O, which is what the sealed
    /// record density exists to cut.
    pages_per_query: Arc<Histogram>,
    /// Extrib lookups that fell through to the spill side table
    /// ("disk.spill_lookups").
    spill_lookups: Arc<Counter>,
}

/// A SPINE index whose node table lives on a page device.
pub struct DiskSpine {
    alphabet: Alphabet,
    layout: Layout,
    store: Mutex<Store>,
    /// Extribs beyond the inline slots (mutable layout only; folded into
    /// the records at seal time).
    spill: Mutex<FxHashMap<u32, SpillEntry>>,
    spill_count: AtomicU64,
    len: usize,
    counters: Counters,
    telemetry: OnceLock<DiskTelemetry>,
}

impl DiskSpine {
    /// An empty (mutable-layout) disk index over `alphabet`, storing
    /// records on `device` with a pool of `pool_pages` frames and the given
    /// eviction policy.
    pub fn new(
        alphabet: Alphabet,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let layout = Layout::new(&alphabet);
        let mut records = PagedVec::new(device, pool_pages, policy, layout.record_size());
        records.push_zeroed()?; // root
        Ok(DiskSpine {
            alphabet,
            layout,
            store: Mutex::new(Store::Mutable(records)),
            spill: Mutex::new(FxHashMap::default()),
            spill_count: AtomicU64::new(0),
            len: 0,
            counters: Counters::new(),
            telemetry: OnceLock::new(),
        })
    }

    /// Build from an encoded text.
    pub fn build(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let mut s = Self::new(alphabet, device, pool_pages, policy)?;
        s.extend_from(text)?;
        Ok(s)
    }

    /// Build while reporting every structural event (plus disk-only spill
    /// events) to `observer`.
    pub fn build_observed<O: BuildObserver>(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
        observer: &mut O,
    ) -> Result<Self> {
        let mut s = Self::new(alphabet, device, pool_pages, policy)?;
        s.extend_from_observed(text, observer)?;
        Ok(s)
    }

    /// Build, flush, and return the index together with a reconciled
    /// [`BuildStats`] (the final flush is accounted to the PageFlush phase).
    pub fn build_with_stats(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<(Self, BuildStats)> {
        let mut stats = BuildStats::default();
        let s = Self::build_observed(alphabet, text, device, pool_pages, policy, &mut stats)?;
        let t0 = std::time::Instant::now();
        s.flush()?;
        stats.phase(BuildPhase::PageFlush, t0.elapsed().as_nanos() as u64);
        stats.mem = s.mem_breakdown();
        Ok((s, stats))
    }

    /// Build a *sealed* index of `text` on `device`: construct the §5
    /// compact layout in memory ([`CompactSpine`]), then write it out in
    /// the sealed format. This is the durable build path — only sealed
    /// devices can be [`reopen`](Self::reopen)ed.
    pub fn build_sealed(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let source = CompactSpine::build(alphabet, text)?;
        Self::seal_compact(&source, device, pool_pages, policy, None)
    }

    /// Re-encode this index into the sealed layout on a fresh `device`:
    /// the text is read back and rebuilt as the same [`CompactSpine`]
    /// [`build_sealed`](Self::build_sealed) seals from, so every seal has
    /// one source. Packed label pages are followed by slotted pages of
    /// varint/delta node records, with the file header written last so a
    /// crash mid-seal leaves an unreadable — never a half-valid — target.
    /// `self` is not consumed and stays fully queryable; a failed seal
    /// (e.g. a device fault) leaves it intact.
    pub fn seal_to(
        &self,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<DiskSpine> {
        Self::seal_compact(&self.compact_source()?, device, pool_pages, policy, None)
    }

    /// [`seal_to`](Self::seal_to) plus a heatmap-driven clustering pass:
    /// the records of `hot`'s nodes (hottest first) are *duplicated* onto
    /// dedicated hot pages appended after the node pages, and reads of
    /// those nodes are redirected there. A chain walk over the hot set
    /// then touches a handful of co-located pages — which
    /// [`pin_hot`](Self::pin_hot) can wire into the buffer pool — instead
    /// of striding the whole node table. Base slots keep the original
    /// records, so the file stays readable without the redirect index;
    /// answers are bit-identical either way.
    pub fn seal_to_clustered(
        &self,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
        hot: &HotSet,
    ) -> Result<DiskSpine> {
        Self::seal_compact(&self.compact_source()?, device, pool_pages, policy, Some(hot))
    }

    /// The seal source of this index: its text, read back from either
    /// layout, rebuilt as a [`CompactSpine`].
    fn compact_source(&self) -> Result<CompactSpine> {
        let mut codes = Vec::with_capacity(self.len);
        for i in 0..self.len {
            codes.push(self.read_cl(i as u32 + 1)?);
        }
        CompactSpine::build(self.alphabet.clone(), &codes)
    }

    /// The one seal pipeline: write `src` to `device` in the sealed layout.
    fn seal_compact(
        src: &CompactSpine,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
        hot: Option<&HotSet>,
    ) -> Result<DiskSpine> {
        let alphabet = StringIndex::alphabet(src).clone();
        let len = src.len();
        let codes = src.recover_text();
        // Packing width: the alphabet's word-compare width when every label
        // fits it (a DNA separator does not), else just enough bits for the
        // code space — still a bit-tight store, compared scalar.
        let (bits, packed_compare) = match alphabet.pack_bits() {
            Some(b) if codes.iter().all(|&c| (c as u64) <= low_mask(b)) => (b, true),
            _ => (alphabet.label_bits(), false),
        };
        let packed =
            PackedText::from_codes(bits, &codes).expect("labels fit the chosen packing width");
        drop(codes);
        let words = packed.words();
        let label_words = words.len();
        let label_pages = label_words.div_ceil(WORDS_PER_PAGE) as u32;

        let mut pool = BufferPool::new(device, pool_pages.max(1), policy);
        for p in 0..label_pages as usize {
            let chunk = &words[p * WORDS_PER_PAGE..((p + 1) * WORDS_PER_PAGE).min(label_words)];
            pool.write(1 + p as u32, |b| {
                b.fill(0);
                PageHeader {
                    version: PAGE_FORMAT_V2,
                    kind: slotted::kind::LABELS,
                    count: chunk.len() as u16,
                    first_item: (p * WORDS_PER_PAGE) as u32,
                }
                .write_to(b);
                let mut at = slotted::PAGE_HEADER_LEN;
                for &w in chunk {
                    b[at..at + 8].copy_from_slice(&w.to_le_bytes());
                    at += 8;
                }
            })?;
        }

        // Invert the links by counting sort: node k's children are
        // `kids[offsets[k]..offsets[k + 1]]`, ascending because the fill
        // visits nodes in order.
        let mut offsets = vec![0u32; len + 2];
        for j in 1..=len as u32 {
            offsets[src.link_dest(j) as usize + 2] += 1;
        }
        for k in 2..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut kids = vec![0u32; len];
        for j in 1..=len as u32 {
            let slot = &mut offsets[src.link_dest(j) as usize + 1];
            kids[*slot as usize] = j;
            *slot += 1;
        }
        let mut rec = record::NodeRecord::default();
        let mut encode = |node: u32, buf: &mut Vec<u8>| {
            rec.link = src.link_of(node);
            rec.ribs.clear();
            rec.extribs.clear();
            src.edges_into(node, &mut rec.ribs, &mut rec.extribs);
            let kids = &kids[offsets[node as usize] as usize..offsets[node as usize + 1] as usize];
            rec.children.clear();
            rec.children.extend(kids.iter().map(|&c| (c, src.lel_value(c))));
            buf.clear();
            record::encode(node, &rec, buf)
        };

        let mut encoded =
            MemBreakdown { vertebrae: label_words as u64 * 8, ..MemBreakdown::default() };
        let mut overflow: FxHashMap<u32, Vec<u8>> = FxHashMap::default();
        let mut first_nodes: Vec<u32> = vec![0];
        let mut node_pages: u32 = 0;
        let mut builder = SlottedPageBuilder::new(0);
        let mut buf = Vec::new();
        for node in 0..=len as u32 {
            let [links, ribs, extribs, children] = encode(node, &mut buf);
            encoded.links += links as u64;
            encoded.ribs += ribs as u64;
            encoded.extribs += extribs as u64;
            encoded.link_children += children as u64;
            let payload: &[u8] = if buf.len() <= slotted::MAX_RECORD_LEN { &buf } else { &[] };
            if !builder.push(payload) {
                pool.write(1 + label_pages + node_pages, |b| b.copy_from_slice(&builder.finish()))?;
                node_pages += 1;
                builder = SlottedPageBuilder::new(node);
                first_nodes.push(node);
                assert!(builder.push(payload), "a fresh slotted page must accept the record");
            }
            if payload.is_empty() {
                overflow.insert(node, buf.clone());
            }
        }
        pool.write(1 + label_pages + node_pages, |b| b.copy_from_slice(&builder.finish()))?;
        node_pages += 1;

        // Hot-tier clustering: duplicate the hottest nodes' records onto
        // dedicated pages after the node table, hottest first, so the hot
        // set packs onto the fewest pages. Overflow-sized records stay in
        // the sidecar; stale node ids beyond the backbone are ignored.
        let mut hot_index: FxHashMap<u32, (u32, u16)> = FxHashMap::default();
        let mut hot_pages: u32 = 0;
        if let Some(hot) = hot {
            let first_hot_page = 1 + label_pages + node_pages;
            let mut hb = SlottedPageBuilder::new(0);
            let mut pending: Vec<u32> = Vec::new(); // nodes on the page being built
            for node in hot.nodes() {
                if node as usize > len || hot_index.contains_key(&node) || pending.contains(&node) {
                    continue;
                }
                encode(node, &mut buf);
                if buf.len() > slotted::MAX_RECORD_LEN {
                    continue;
                }
                if !hb.push(&buf) {
                    pool.write(first_hot_page + hot_pages, |b| b.copy_from_slice(&hb.finish()))?;
                    for (slot, &n) in pending.iter().enumerate() {
                        hot_index.insert(n, (first_hot_page + hot_pages, slot as u16));
                    }
                    hot_pages += 1;
                    pending.clear();
                    hb = SlottedPageBuilder::new(node);
                    assert!(hb.push(&buf), "a fresh slotted page must accept the record");
                }
                pending.push(node);
            }
            if !pending.is_empty() {
                pool.write(first_hot_page + hot_pages, |b| b.copy_from_slice(&hb.finish()))?;
                for (slot, &n) in pending.iter().enumerate() {
                    hot_index.insert(n, (first_hot_page + hot_pages, slot as u16));
                }
                hot_pages += 1;
            }
        }

        // The header page goes in *last*: until it exists, the device does
        // not parse as a sealed index at all. Barrier first — "last" must be
        // a media-order fact, not just program order, or a crash between the
        // body and the header could leave a header over torn pages.
        pool.sync()?;
        pool.write(0, |b| {
            b.fill(0);
            PageHeader {
                version: PAGE_FORMAT_V2,
                kind: slotted::kind::FILE_HEADER,
                count: 0,
                first_item: 0,
            }
            .write_to(b);
            let at = slotted::PAGE_HEADER_LEN;
            b[at..at + 4].copy_from_slice(SEALED_MAGIC);
            b[at + 4..at + 6].copy_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
            b[at + 6] = alphabet_tag(&alphabet);
            b[at + 7] = bits as u8;
            b[at + 8] = packed_compare as u8;
            b[at + 9..at + 17].copy_from_slice(&(len as u64).to_le_bytes());
            b[at + 17..at + 21].copy_from_slice(&label_pages.to_le_bytes());
            b[at + 21..at + 25].copy_from_slice(&node_pages.to_le_bytes());
            b[at + 25..at + 29].copy_from_slice(&hot_pages.to_le_bytes());
        })?;
        pool.sync()?;

        Ok(DiskSpine {
            layout: Layout::new(&alphabet),
            alphabet,
            store: Mutex::new(Store::Sealed(SealedStore {
                pool,
                bits,
                packed_compare,
                label_pages,
                node_pages,
                hot_pages,
                label_words,
                first_nodes: Arc::new(first_nodes),
                hot_index: Arc::new(hot_index),
                overflow,
                encoded,
            })),
            spill: Mutex::new(FxHashMap::default()),
            spill_count: AtomicU64::new(0),
            len,
            counters: Counters::new(),
            telemetry: OnceLock::new(),
        })
    }

    /// Is this index in the sealed (read-only) layout?
    pub fn is_sealed(&self) -> bool {
        matches!(&*self.store.lock(), Store::Sealed(_))
    }

    /// Total pages of the sealed file (header + label + node + hot pages),
    /// or `None` for the mutable layout.
    pub fn file_pages(&self) -> Option<u64> {
        match &*self.store.lock() {
            Store::Sealed(s) => {
                Some(1 + s.label_pages as u64 + s.node_pages as u64 + s.hot_pages as u64)
            }
            Store::Mutable(_) => None,
        }
    }

    /// Hot-tier pages appended by [`seal_to_clustered`](Self::seal_to_clustered)
    /// (0 for an unclustered or mutable index).
    pub fn hot_tier_pages(&self) -> u32 {
        match &*self.store.lock() {
            Store::Sealed(s) => s.hot_pages,
            Store::Mutable(_) => 0,
        }
    }

    /// The node → page mapping of the current layout, for attributing
    /// per-node heat to physical pages ([`crate::trace::Heatmap`]).
    pub fn page_map(&self) -> PageMap {
        match &*self.store.lock() {
            Store::Mutable(v) => PageMap::Uniform { records_per_page: v.records_per_page() },
            Store::Sealed(s) => PageMap::Sealed {
                base: 1 + s.label_pages,
                first_nodes: Arc::clone(&s.first_nodes),
                hot: Arc::clone(&s.hot_index),
            },
        }
    }

    /// Absolute page id serving `node`'s record.
    pub fn page_of_node(&self, node: NodeId) -> u32 {
        self.page_map().page_of(node)
    }

    /// Pin `pages` into the buffer pool (fetching absent ones), in order,
    /// until the pool refuses (it always keeps at least one evictable
    /// frame). Returns how many of `pages` ended up pinned. Pinned pages
    /// are never evicted — not even by a full-backbone occurrence scan —
    /// until [`unpin_all`](Self::unpin_all).
    pub fn pin_pages(&self, pages: &[u32]) -> Result<usize> {
        let mut guard = self.store.lock();
        let pool = match &mut *guard {
            Store::Mutable(v) => v.pool_mut(),
            Store::Sealed(s) => &mut s.pool,
        };
        let mut pinned = 0;
        for &p in pages {
            if pool.pin(p)? {
                pinned += 1;
            } else {
                break;
            }
        }
        Ok(pinned)
    }

    /// Pin the pages serving `hot`'s nodes, hottest first, spending at most
    /// `max_pages` pool frames. Returns the pages pinned. The natural
    /// companion of [`seal_to_clustered`](Self::seal_to_clustered): the hot
    /// set collapses onto few pages, so a small budget covers it all.
    pub fn pin_hot(&self, hot: &HotSet, max_pages: usize) -> Result<usize> {
        let map = self.page_map();
        let mut pages: Vec<u32> = Vec::new();
        for node in hot.nodes() {
            if pages.len() >= max_pages {
                break;
            }
            if node as usize > self.len {
                continue;
            }
            let p = map.page_of(node);
            if !pages.contains(&p) {
                pages.push(p);
            }
        }
        self.pin_pages(&pages)
    }

    /// Trace-free pinning default: pin the pages of the first backbone
    /// nodes (the paper's Figure 8 skew — links concentrate upstream),
    /// spending at most `max_pages` frames.
    pub fn pin_hot_prefix(&self, max_pages: usize) -> Result<usize> {
        let map = self.page_map();
        let mut pages: Vec<u32> = Vec::new();
        for node in 0..=self.len as u32 {
            if pages.len() >= max_pages {
                break;
            }
            let p = map.page_of(node);
            if pages.last() != Some(&p) && !pages.contains(&p) {
                pages.push(p);
            }
        }
        self.pin_pages(&pages)
    }

    /// Unpin every pinned page, returning how many were released.
    pub fn unpin_all(&self) -> usize {
        let mut guard = self.store.lock();
        let pool = match &mut *guard {
            Store::Mutable(v) => v.pool_mut(),
            Store::Sealed(s) => &mut s.pool,
        };
        pool.unpin_all()
    }

    /// Pages currently pinned in the buffer pool.
    pub fn pinned_pages(&self) -> usize {
        self.store.lock().pool().pinned_count()
    }

    /// Snapshot of the buffer pool's cache counters (hits, misses,
    /// evictions, pins).
    pub fn pool_stats(&self) -> CacheStatsSnapshot {
        self.store.lock().pool().stats_handle().snapshot()
    }

    /// Decode every sealed record and return the structural totals; the
    /// numbers reconcile with the originating build's [`BuildStats`]
    /// (`ribs == ribs_created`, `extribs == extribs_created`).
    pub fn sealed_census(&self) -> Result<SealedCensus> {
        let mut guard = self.store.lock();
        let Store::Sealed(s) = &mut *guard else {
            return Err(Error::Unsupported("census of a mutable (unsealed) index"));
        };
        let mut c = SealedCensus::default();
        for node in 0..=self.len as u32 {
            let rec = s.with_record(node, |b| record::decode(node, b))?;
            c.nodes += 1;
            c.ribs += rec.ribs.len() as u64;
            c.extribs += rec.extribs.len() as u64;
            c.link_children += rec.children.len() as u64;
            if s.overflow.contains_key(&node) {
                c.overflow_records += 1;
            }
        }
        Ok(c)
    }

    /// Observed batch append: times the whole loop as the Scan phase.
    pub fn extend_from_observed<O: BuildObserver>(
        &mut self,
        codes: &[Code],
        observer: &mut O,
    ) -> Result<()> {
        let t0 = if O::ENABLED { Some(std::time::Instant::now()) } else { None };
        for &c in codes {
            self.push_observed(c, observer)?;
        }
        if let Some(t0) = t0 {
            observer.phase(BuildPhase::Scan, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Observed online append (same validation as [`OnlineIndex::push`]).
    pub fn push_observed<O: BuildObserver>(&mut self, code: Code, observer: &mut O) -> Result<()> {
        if (code as usize) >= self.alphabet.code_space() {
            return Err(Error::InvalidSymbol { byte: code, pos: self.len });
        }
        self.append_observed(code, observer)
    }

    /// Bytes split by edge kind. For the mutable layout this is derived
    /// from the fixed record geometry (field spans × record count) plus the
    /// spill side table; for a sealed index it is the exact encoded
    /// on-device footprint (labels under `vertebrae`, varint sections under
    /// `links`/`ribs`/`extribs`). Logical on-device bytes, not buffer-pool
    /// memory.
    pub fn mem_breakdown(&self) -> MemBreakdown {
        if let Store::Sealed(s) = &*self.store.lock() {
            return s.encoded;
        }
        let records = (self.len + 1) as u64; // root included
        let l = &self.layout;
        MemBreakdown {
            vertebrae: records,                           // cl: 1 byte
            links: records * 8,                           // link + lel
            ribs: records * (1 + l.rib_slots as u64 * 9), // count + slots
            extribs: records * (1 + EXTRIB_SLOTS as u64 * 12)       // count + slots
                + self.spill.lock().values().map(|v| v.len() as u64 * 12).sum::<u64>(),
            link_children: 0,
        }
    }

    /// Number of indexed characters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer-pool hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        self.store.lock().pool().hit_rate()
    }

    /// Cumulative buffer-pool (hits, misses).
    pub fn pool_counts(&self) -> (u64, u64) {
        let g = self.store.lock();
        (g.pool().hits(), g.pool().misses())
    }

    /// (reads, writes) page counts at the device.
    pub fn io_counts(&self) -> (u64, u64) {
        let g = self.store.lock();
        let io = g.pool().io_stats();
        (io.reads(), io.writes())
    }

    /// Durability barriers issued at the device (sealing issues two: one
    /// before the header page, one after). Together with [`Self::io_counts`]
    /// this spans the crashpoint index space the fault sweep enumerates.
    pub fn io_syncs(&self) -> u64 {
        let g = self.store.lock();
        g.pool().io_stats().syncs()
    }

    /// Extribs that did not fit the inline record slots (mutable layout;
    /// zero after sealing, which folds them into the records).
    pub fn spill_count(&self) -> u64 {
        self.spill_count.load(Relaxed)
    }

    /// Flush dirty pages to the device.
    pub fn flush(&self) -> Result<()> {
        self.store.lock().flush()
    }

    /// Work counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Wire this index's storage accounting into `registry`: the buffer
    /// pool's hit/miss/eviction counts as `disk.pool.*` gauges, pages
    /// fetched from the device per query as the `disk.pages_per_query`
    /// histogram, and spill side-table consultations as the
    /// `disk.spill_lookups` counter.
    ///
    /// Attach once, before serving; later calls keep the first hookup.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let store = self.store.lock();
        store.pool().attach_telemetry(registry, "disk.pool");
        let _ = self.telemetry.set(DiskTelemetry {
            cache: store.pool().stats_handle(),
            pages_per_query: registry.histogram("disk.pages_per_query"),
            spill_lookups: registry.counter("disk.spill_lookups"),
        });
    }

    /// Pool misses (device page fetches) so far, if telemetry is attached —
    /// the before/after sample that turns cumulative counters into a
    /// per-query delta. Concurrent queries share the counters, so a query
    /// racing others may attribute their fetches to itself; per-query
    /// numbers are exact in single-query flows (the `exp disk`
    /// experiments) and an upper bound under concurrency.
    fn sample_accesses(&self) -> Option<u64> {
        self.telemetry.get().map(|t| t.cache.snapshot().misses)
    }

    fn record_query_pages(&self, before: Option<u64>) {
        if let (Some(t), Some(b)) = (self.telemetry.get(), before) {
            let after = t.cache.snapshot().misses;
            t.pages_per_query.record_value(after.saturating_sub(b));
        }
    }

    // ----- record access ----------------------------------------------------
    //
    // Every accessor returns `Result`: the records live behind a buffer pool
    // over a fallible device, so any hop can surface an I/O error. The
    // `try_` surface ([`SpineOps`], `try_find_all`) propagates these; the
    // infallible sugar and traits unwrap at their boundary. Each
    // accessor dispatches on the physical layout.

    fn read_cl(&self, node: u32) -> Result<Code> {
        debug_assert!(node >= 1, "the root has no incoming vertebra");
        match &mut *self.store.lock() {
            Store::Mutable(v) => v.read(node as usize, |r| r[0]),
            Store::Sealed(s) => s.label(node as usize - 1),
        }
    }

    fn read_link(&self, node: u32) -> Result<(u32, u32)> {
        match &mut *self.store.lock() {
            Store::Mutable(v) => v.read(node as usize, |r| (get_u32(r, 1), get_u32(r, 5))),
            Store::Sealed(s) => s.with_record(node, record::decode_link),
        }
    }

    fn find_rib(&self, node: u32, c: Code) -> Result<Option<(u32, u32)>> {
        let l = &self.layout;
        match &mut *self.store.lock() {
            Store::Mutable(v) => v.read(node as usize, |r| {
                let count = r[9] as usize;
                for i in 0..count {
                    let off = l.rib_off(i);
                    if r[off] == c {
                        return Some((get_u32(r, off + 1), get_u32(r, off + 5)));
                    }
                }
                None
            }),
            Store::Sealed(s) => s.with_record(node, |rec| record::find_rib(rec, node, c)),
        }
    }

    fn find_extrib(&self, node: u32, prt: u32) -> Result<Option<(u32, u32)>> {
        let inline = {
            let l = &self.layout;
            match &mut *self.store.lock() {
                // Sealed records carry their whole chain — no side table.
                Store::Sealed(s) => {
                    return s.with_record(node, |rec| record::find_extrib(rec, node, prt));
                }
                Store::Mutable(v) => v.read(node as usize, |r| {
                    let count = (r[l.extrib_count_off()] as usize).min(EXTRIB_SLOTS);
                    for i in 0..count {
                        let off = l.extrib_off(i);
                        if get_u32(r, off + 8) == prt {
                            return Some((get_u32(r, off), get_u32(r, off + 4)));
                        }
                    }
                    None
                })?,
            }
        };
        Ok(inline.or_else(|| {
            if let Some(t) = self.telemetry.get() {
                t.spill_lookups.incr();
            }
            self.spill
                .lock()
                .get(&node)
                .and_then(|v| v.iter().find(|&&(p, _, _)| p == prt).map(|&(_, pt, d)| (d, pt)))
        }))
    }

    fn write_link(&self, node: u32, dest: u32, lel: u32) -> Result<()> {
        match &mut *self.store.lock() {
            Store::Mutable(v) => v.write(node as usize, |r| {
                put_u32(r, 1, dest);
                put_u32(r, 5, lel);
            }),
            Store::Sealed(_) => Err(Error::Unsupported("write to a sealed index")),
        }
    }

    fn add_rib(&self, node: u32, c: Code, dest: u32, pt: u32) -> Result<()> {
        let l = &self.layout;
        match &mut *self.store.lock() {
            Store::Mutable(v) => v.write(node as usize, |r| {
                let count = r[9] as usize;
                assert!(count < l.rib_slots, "rib slots exhausted");
                let off = l.rib_off(count);
                r[off] = c;
                put_u32(r, off + 1, dest);
                put_u32(r, off + 5, pt);
                r[9] = (count + 1) as u8;
            }),
            Store::Sealed(_) => Err(Error::Unsupported("write to a sealed index")),
        }
    }

    /// Returns whether the extrib spilled to the side table.
    fn add_extrib(&self, node: u32, prt: u32, dest: u32, pt: u32) -> Result<bool> {
        let l = &self.layout;
        let spilled = match &mut *self.store.lock() {
            Store::Mutable(v) => v.write(node as usize, |r| {
                let co = l.extrib_count_off();
                let count = r[co] as usize;
                if count < EXTRIB_SLOTS {
                    let off = l.extrib_off(count);
                    put_u32(r, off, dest);
                    put_u32(r, off + 4, pt);
                    put_u32(r, off + 8, prt);
                    r[co] = (count + 1) as u8;
                    false
                } else {
                    true
                }
            })?,
            Store::Sealed(_) => return Err(Error::Unsupported("write to a sealed index")),
        };
        if spilled {
            self.spill.lock().entry(node).or_default().push((prt, pt, dest));
            self.spill_count.fetch_add(1, Relaxed);
        }
        Ok(spilled)
    }

    // ----- construction -----------------------------------------------------

    /// The APPEND procedure over page-resident records. Any device error
    /// propagates cleanly; a retry-wrapped device absorbs transient faults
    /// before they reach here.
    fn append(&mut self, c: Code) -> Result<()> {
        self.append_observed(c, &mut crate::observe::NoBuildObserver)
    }

    /// APPEND with observer hooks; emits the same event stream as the
    /// in-memory engines, plus [`BuildEvent::ExtribSpill`] when an extrib
    /// overflows the record's inline slots. Rejected with
    /// [`Error::Unsupported`] on a sealed index.
    fn append_observed<O: BuildObserver>(&mut self, c: Code, o: &mut O) -> Result<()> {
        let t = {
            let mut guard = self.store.lock();
            let Store::Mutable(v) = &mut *guard else {
                return Err(Error::Unsupported("append to a sealed index"));
            };
            let idx = v.push_zeroed()?;
            v.write(idx, |r| r[0] = c)?;
            idx as u32
        };
        self.len += 1;
        let prev = t - 1;
        if prev == ROOT {
            if O::ENABLED {
                o.event(BuildEvent::FirstChar);
                o.event(BuildEvent::LinkSet { dest: ROOT, lel: 0 });
            }
            return Ok(());
        }
        let (mut cur, mut l) = self.read_link(prev)?;
        loop {
            if self.read_cl(cur + 1)? == c {
                self.write_link(t, cur + 1, l + 1)?;
                if O::ENABLED {
                    o.event(BuildEvent::Case1);
                    o.event(BuildEvent::LinkSet { dest: cur + 1, lel: l + 1 });
                }
                return Ok(());
            }
            match self.find_rib(cur, c)? {
                Some((dest, pt)) if pt >= l => {
                    self.write_link(t, dest, l + 1)?;
                    if O::ENABLED {
                        o.event(BuildEvent::Case2);
                        o.event(BuildEvent::LinkSet { dest, lel: l + 1 });
                    }
                    return Ok(());
                }
                Some((dest, pt)) => {
                    // Extrib chain.
                    let t0 = if O::ENABLED { Some(std::time::Instant::now()) } else { None };
                    let prt = pt;
                    let mut last_dest = dest;
                    let mut last_pt = pt;
                    loop {
                        match self.find_extrib(last_dest, prt)? {
                            Some((edest, ept)) if ept >= l => {
                                self.write_link(t, edest, l + 1)?;
                                if O::ENABLED {
                                    o.event(BuildEvent::Case4Link);
                                    o.event(BuildEvent::LinkSet { dest: edest, lel: l + 1 });
                                    if let Some(t0) = t0 {
                                        o.phase(
                                            BuildPhase::RibFixup,
                                            t0.elapsed().as_nanos() as u64,
                                        );
                                    }
                                }
                                return Ok(());
                            }
                            Some((edest, ept)) => {
                                if O::ENABLED {
                                    o.event(BuildEvent::ChainStep);
                                }
                                last_dest = edest;
                                last_pt = ept;
                            }
                            None => break,
                        }
                    }
                    let spilled = self.add_extrib(last_dest, prt, t, l)?;
                    self.write_link(t, last_dest, last_pt + 1)?;
                    if O::ENABLED {
                        o.event(BuildEvent::ExtribCreated { prt, pt: l });
                        if spilled {
                            o.event(BuildEvent::ExtribSpill);
                        }
                        o.event(BuildEvent::Case4Extrib);
                        o.event(BuildEvent::LinkSet { dest: last_dest, lel: last_pt + 1 });
                        if let Some(t0) = t0 {
                            o.phase(BuildPhase::RibFixup, t0.elapsed().as_nanos() as u64);
                        }
                    }
                    return Ok(());
                }
                None => {
                    self.add_rib(cur, c, t, l)?;
                    if O::ENABLED {
                        o.event(BuildEvent::RibCreated { pt: l });
                    }
                    if cur == ROOT {
                        self.write_link(t, ROOT, 0)?;
                        if O::ENABLED {
                            o.event(BuildEvent::Case3Root);
                            o.event(BuildEvent::LinkSet { dest: ROOT, lel: 0 });
                        }
                        return Ok(());
                    }
                    if O::ENABLED {
                        o.event(BuildEvent::ChainStep);
                    }
                    let (nd, nl) = self.read_link(cur)?;
                    cur = nd;
                    l = nl;
                }
            }
        }
    }

    // ----- packed search support --------------------------------------------

    /// `Some(bits)` when the sealed store can compare backbone labels
    /// word-at-a-time at that width.
    fn packing_bits(&self) -> Option<u32> {
        match &*self.store.lock() {
            Store::Sealed(s) if s.packed_compare => Some(s.bits),
            _ => None,
        }
    }

    // ----- fallible query surface -------------------------------------------

    /// Fallible [`crate::search::locate`]: the end node of `pattern`'s first
    /// occurrence, `Ok(None)` if absent, `Err` on a storage failure.
    pub fn try_locate(&self, pattern: &[Code]) -> Result<Option<NodeId>> {
        let before = self.sample_accesses();
        let r = crate::search::try_locate(self, pattern);
        self.record_query_pages(before);
        r
    }

    /// Fallible [`StringIndex::find_all`]: start offsets of every occurrence,
    /// or `Err` if the device fails mid-traversal. This is the entry point
    /// fault-tolerance harnesses use — an injected fault degrades to a clean
    /// `Err` here instead of a panic.
    pub fn try_find_all(&self, pattern: &[Code]) -> Result<Vec<usize>> {
        if pattern.is_empty() {
            return Ok(Vec::new());
        }
        let before = self.sample_accesses();
        let r = crate::occurrences::try_find_all_ends(self, pattern);
        self.record_query_pages(before);
        Ok(r?.into_iter().map(|end| end as usize - pattern.len()).collect())
    }

    /// EXPLAIN `pattern` over the page-resident index: the structural trace
    /// of [`crate::trace::explain`] plus
    /// [`crate::trace::TraceEvent::PageFetches`] events attributing buffer
    /// pool hits and device reads to individual traversal steps (sampled
    /// from the pool's cumulative counters around each step — exact in
    /// single-query flows, an upper bound while concurrent queries share
    /// the pool). A storage failure mid-traversal is captured in
    /// [`crate::trace::QueryTrace::error`] with the partial trace retained.
    /// Traced locates always take the scalar path (the event stream is the
    /// point), so sealed and mutable traces locate step-identically; the
    /// sealed layout then enumerates by the link walk, the mutable one by
    /// the backbone scan ([`crate::trace::QueryTrace::logical_events`]
    /// equates the two).
    pub fn explain(&self, pattern: &[Code]) -> crate::trace::QueryTrace {
        let before = self.sample_accesses();
        let t = crate::trace::explain(self, pattern);
        self.record_query_pages(before);
        t
    }
}

impl SpineOps for DiskSpine {
    fn text_len(&self) -> usize {
        self.len
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        if (node as usize) < self.len {
            Ok(Some(self.read_cl(node + 1)?))
        } else {
            Ok(None)
        }
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.read_link(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.find_rib(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.find_extrib(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        &self.counters
    }

    fn storage_counters(&self) -> Option<(u64, u64)> {
        Some(self.pool_counts())
    }

    fn backbone_packing(&self) -> Option<u32> {
        self.packing_bits()
    }

    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        // The sealed fast path runs under the store lock; the scalar fallback
        // must not (it calls `try_vertebra_out`, which takes the lock again).
        {
            let mut guard = self.store.lock();
            if let Store::Sealed(s) = &mut *guard {
                if s.packed_compare && s.bits == pattern.bits() {
                    return s.label_run(self.len, node, pattern, from);
                }
            }
        }
        crate::ops::scalar_label_run(self, node, pattern, from)
    }

    fn keeps_link_children(&self) -> bool {
        self.is_sealed()
    }

    fn try_link_children(&self, node: NodeId, min_lel: u32, out: &mut Vec<NodeId>) -> Result<u64> {
        match &mut *self.store.lock() {
            Store::Sealed(s) => {
                s.with_record(node, |rec| record::children(rec, node, min_lel, out))
            }
            Store::Mutable(_) => Err(Error::Unsupported("link children of a mutable index")),
        }
    }
}

impl OnlineIndex for DiskSpine {
    fn push(&mut self, code: Code) -> Result<()> {
        if (code as usize) >= self.alphabet.code_space() {
            return Err(Error::InvalidSymbol { byte: code, pos: self.len });
        }
        self.append(code)
    }
}

impl StringIndex for DiskSpine {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn text_len(&self) -> usize {
        self.len
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.read_cl(pos as u32 + 1).expect(INFALLIBLE_BOUNDARY)
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        crate::search::locate(self, pattern).map(|end| end as usize - pattern.len())
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        if pattern.is_empty() {
            return Vec::new();
        }
        crate::occurrences::find_all_ends(self, pattern)
            .into_iter()
            .map(|end| end as usize - pattern.len())
            .collect()
    }
}

impl MatchingIndex for DiskSpine {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        crate::matching::matching_statistics(self, query)
    }

    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
        crate::matching::maximal_matches(self, query, min_len)
    }
}

// ---------------------------------------------------------------------------
// Durability: close and reopen a disk index.
// ---------------------------------------------------------------------------

impl DiskSpine {
    /// Serialize the sidecar metadata (pair it with a flushed device).
    ///
    /// A sealed index writes a version-[`DISK_FORMAT_VERSION`] sidecar that
    /// [`reopen`](Self::reopen) accepts. A mutable index still writes the
    /// legacy version-1 sidecar byte-for-byte — but v1 is build-time only
    /// now, and reopening it reports [`Error::FormatVersion`] ("rebuild
    /// required"): rebuild via [`Self::build_sealed`] /
    /// [`Self::seal_to`].
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> Result<()> {
        let guard = self.store.lock();
        let Store::Sealed(s) = &*guard else {
            drop(guard);
            return self.write_meta_v1(w);
        };
        w.write_all(b"SPND")?;
        w.write_all(&DISK_FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&[alphabet_tag(&self.alphabet)])?;
        w.write_all(&(self.len as u64).to_le_bytes())?;
        w.write_all(&[s.bits as u8, s.packed_compare as u8])?;
        w.write_all(&s.label_pages.to_le_bytes())?;
        w.write_all(&s.node_pages.to_le_bytes())?;
        for &first in s.first_nodes.iter() {
            w.write_all(&first.to_le_bytes())?;
        }
        let e = &s.encoded;
        for part in [e.vertebrae, e.links, e.ribs, e.extribs, e.link_children] {
            w.write_all(&part.to_le_bytes())?;
        }
        let mut entries: Vec<(u32, &Vec<u8>)> = s.overflow.iter().map(|(&n, v)| (n, v)).collect();
        entries.sort_by_key(|&(n, _)| n);
        w.write_all(&(entries.len() as u64).to_le_bytes())?;
        for (node, bytes) in entries {
            w.write_all(&node.to_le_bytes())?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(bytes)?;
        }
        // Optional trailing hot-tier section (absent in pre-hot-tier
        // sidecars; reopen tolerates EOF here, so both directions of the
        // format stay compatible).
        w.write_all(&s.hot_pages.to_le_bytes())?;
        let mut hot: Vec<(u32, (u32, u16))> = s.hot_index.iter().map(|(&n, &e)| (n, e)).collect();
        hot.sort_by_key(|&(n, _)| n);
        w.write_all(&(hot.len() as u64).to_le_bytes())?;
        for (node, (page, slot)) in hot {
            w.write_all(&node.to_le_bytes())?;
            w.write_all(&page.to_le_bytes())?;
            w.write_all(&slot.to_le_bytes())?;
        }
        Ok(())
    }

    /// The legacy mutable-layout sidecar: text length plus the (rare)
    /// spilled extribs that live outside the fixed-size records.
    fn write_meta_v1<W: std::io::Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(b"SPND")?;
        w.write_all(&1u16.to_le_bytes())?;
        w.write_all(&[alphabet_tag(&self.alphabet)])?;
        w.write_all(&(self.len as u64).to_le_bytes())?;
        let spill = self.spill.lock();
        let mut entries: Vec<(u32, &SpillEntry)> = spill.iter().map(|(&n, v)| (n, v)).collect();
        entries.sort_by_key(|&(n, _)| n);
        let total: u64 = entries.iter().map(|(_, v)| v.len() as u64).sum();
        w.write_all(&total.to_le_bytes())?;
        for (node, v) in entries {
            for &(prt, pt, dest) in v {
                w.write_all(&node.to_le_bytes())?;
                w.write_all(&prt.to_le_bytes())?;
                w.write_all(&pt.to_le_bytes())?;
                w.write_all(&dest.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Reattach to a `device` holding a previously sealed and flushed
    /// index, using the sidecar written by [`write_meta`](Self::write_meta).
    ///
    /// Only format-[`DISK_FORMAT_VERSION`] artifacts reopen; an older
    /// sidecar (or a device whose header page carries another version) yields
    /// [`Error::FormatVersion`] — the typed "rebuild required" signal —
    /// and unrecognizable bytes yield [`Error::Parse`].
    pub fn reopen<R: std::io::Read>(
        meta: &mut R,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let mut magic = [0u8; 4];
        meta.read_exact(&mut magic)?;
        if &magic != b"SPND" {
            return Err(Error::Parse("bad DiskSpine meta magic".into()));
        }
        let mut b2 = [0u8; 2];
        meta.read_exact(&mut b2)?;
        let version = u16::from_le_bytes(b2);
        if version != DISK_FORMAT_VERSION {
            return Err(Error::FormatVersion { found: version, expected: DISK_FORMAT_VERSION });
        }
        let mut b1 = [0u8; 1];
        meta.read_exact(&mut b1)?;
        let alphabet = alphabet_from_tag(b1[0])?;
        let mut b8 = [0u8; 8];
        meta.read_exact(&mut b8)?;
        let len = u64::from_le_bytes(b8) as usize;
        let mut bp = [0u8; 2];
        meta.read_exact(&mut bp)?;
        let (bits, packed_compare) = (bp[0] as u32, bp[1] != 0);
        if !(1..=8).contains(&bits) {
            return Err(Error::Parse(format!("packing width {bits} out of range")));
        }
        let mut b4 = [0u8; 4];
        meta.read_exact(&mut b4)?;
        let label_pages = u32::from_le_bytes(b4);
        meta.read_exact(&mut b4)?;
        let node_pages = u32::from_le_bytes(b4);
        if node_pages == 0 {
            return Err(Error::Parse("sealed index must have at least one node page".into()));
        }
        let mut first_nodes = Vec::with_capacity(node_pages as usize);
        for _ in 0..node_pages {
            meta.read_exact(&mut b4)?;
            first_nodes.push(u32::from_le_bytes(b4));
        }
        if first_nodes[0] != 0 || first_nodes.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Parse("corrupt sealed page directory".into()));
        }
        let mut parts = [0u64; 5];
        for p in &mut parts {
            meta.read_exact(&mut b8)?;
            *p = u64::from_le_bytes(b8);
        }
        let [vertebrae, links, ribs, extribs, link_children] = parts;
        let encoded = MemBreakdown { vertebrae, links, ribs, extribs, link_children };
        meta.read_exact(&mut b8)?;
        let overflow_count = u64::from_le_bytes(b8);
        let mut overflow: FxHashMap<u32, Vec<u8>> = FxHashMap::default();
        for _ in 0..overflow_count {
            meta.read_exact(&mut b4)?;
            let node = u32::from_le_bytes(b4);
            meta.read_exact(&mut b4)?;
            let mut bytes = vec![0u8; u32::from_le_bytes(b4) as usize];
            meta.read_exact(&mut bytes)?;
            overflow.insert(node, bytes);
        }

        // Optional trailing hot-tier section: a clean EOF here is a
        // pre-hot-tier sidecar (no hot tier); a partial section is corrupt.
        let mut hot_pages = 0u32;
        let mut hot_index: FxHashMap<u32, (u32, u16)> = FxHashMap::default();
        match meta.read_exact(&mut b4) {
            Ok(()) => {
                hot_pages = u32::from_le_bytes(b4);
                meta.read_exact(&mut b8)?;
                let count = u64::from_le_bytes(b8);
                let node_base = 1 + label_pages + node_pages;
                let mut b2s = [0u8; 2];
                for _ in 0..count {
                    meta.read_exact(&mut b4)?;
                    let node = u32::from_le_bytes(b4);
                    meta.read_exact(&mut b4)?;
                    let page = u32::from_le_bytes(b4);
                    meta.read_exact(&mut b2s)?;
                    let slot = u16::from_le_bytes(b2s);
                    if page < node_base || page >= node_base + hot_pages {
                        return Err(Error::Parse(format!(
                            "hot-tier entry for node {node} points outside the hot tier"
                        )));
                    }
                    hot_index.insert(node, (page, slot));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(e.into()),
        }

        let mut pool = BufferPool::new(device, pool_pages.max(1), policy);
        // The device's own header page must agree — a v1 (or foreign)
        // device fails the per-page version check, not a misparse.
        pool.read(0, |b| -> Result<()> {
            PageHeader::checked(b, slotted::kind::FILE_HEADER)?;
            let at = slotted::PAGE_HEADER_LEN;
            if &b[at..at + 4] != SEALED_MAGIC {
                return Err(Error::Parse("bad sealed device magic".into()));
            }
            let v = u16::from_le_bytes([b[at + 4], b[at + 5]]);
            if v != DISK_FORMAT_VERSION {
                return Err(Error::FormatVersion { found: v, expected: DISK_FORMAT_VERSION });
            }
            Ok(())
        })??;

        let per_word = (64 / bits) as usize;
        Ok(DiskSpine {
            layout: Layout::new(&alphabet),
            alphabet,
            store: Mutex::new(Store::Sealed(SealedStore {
                pool,
                bits,
                packed_compare,
                label_pages,
                node_pages,
                hot_pages,
                label_words: len.div_ceil(per_word),
                first_nodes: Arc::new(first_nodes),
                hot_index: Arc::new(hot_index),
                overflow,
                encoded,
            })),
            spill: Mutex::new(FxHashMap::default()),
            spill_count: AtomicU64::new(0),
            len,
            counters: Counters::new(),
            telemetry: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use pagestore::{Lru, MemDevice, PrefixPriority};

    fn disk(text: &[u8], pool_pages: usize) -> (Alphabet, DiskSpine) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let d = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            pool_pages,
            Box::<Lru>::default(),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn build_with_stats_matches_memory_engine_and_counts_spills() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA";
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let (d, st) = DiskSpine::build_with_stats(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let (_, mem_stats) = Spine::build_with_stats(a, &codes).unwrap();
        // The structural event stream is representation-independent.
        assert_eq!(st.counts(), mem_stats.counts());
        assert_eq!(st.extrib_spills, d.spill_count());
        // PageFlush was timed, and the logical footprint is non-trivial.
        assert!(st.phase_nanos[BuildPhase::PageFlush.index()] > 0);
        assert_eq!(st.mem.vertebrae, text.len() as u64 + 1);
        assert!(st.mem.total() > st.mem.vertebrae);
    }

    #[test]
    fn equivalent_to_reference() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA";
        let (a, d) = disk(text, 4);
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        for node in 0..=r.len() as u32 {
            assert_eq!(r.vertebra_out(node), d.vertebra_out(node), "vertebra {node}");
            if node != ROOT {
                assert_eq!(r.link_of(node), d.link_of(node), "link {node}");
            }
            for code in 0..a.code_space() as Code {
                assert_eq!(r.rib_of(node, code), d.rib_of(node, code), "rib {node}/{code}");
            }
        }
    }

    #[test]
    fn queries_under_memory_pressure() {
        // A single-frame pool forces page traffic on every hop.
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
        let q = a.encode(b"TTACGACCACAACAGGAACC").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&d, &q, 3)
        );
        let (reads, writes) = d.io_counts();
        assert!(reads > 0 && writes > 0, "pressure must cause I/O");
    }

    #[test]
    fn prefix_priority_keeps_hit_rate_healthy() {
        // With the prefix-priority policy the upstream pages stay resident;
        // the hit rate should be healthy even with a small pool.
        let text = b"ACGTACGGTACGTTTACGACGACCAACC".repeat(16);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let d = DiskSpine::build(
            a,
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<PrefixPriority>::default(),
        )
        .unwrap();
        assert!(d.hit_rate() > 0.5, "hit rate {}", d.hit_rate());
    }

    #[test]
    fn flush_persists_everything() {
        let (_, d) = disk(b"ACGTACGT", 2);
        d.flush().unwrap();
        let (_, writes) = d.io_counts();
        assert!(writes > 0);
    }

    #[test]
    fn rejects_bad_code() {
        let a = Alphabet::dna();
        let mut d =
            DiskSpine::new(a, Box::new(MemDevice::new()), 2, Box::<Lru>::default()).unwrap();
        assert!(d.push(9).is_err());
    }

    #[test]
    fn disk_spine_is_send_and_sync() {
        // The query engine serves a DiskSpine from multiple workers; this
        // holds because the device, policy, and spill counter are all
        // Send/Sync-compatible now.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiskSpine>();
    }

    #[test]
    fn telemetry_accounts_pages_and_pool_state() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1); // single-frame pool: every hop touches a page
        let reg = MetricsRegistry::new();
        d.attach_telemetry(&reg);
        d.try_find_all(&a.encode(b"ACGACG").unwrap()).unwrap();
        d.try_locate(&a.encode(b"CA").unwrap()).unwrap();
        let snap = reg.snapshot();
        let pages = snap.histogram("disk.pages_per_query").unwrap();
        assert_eq!(pages.count, 2);
        assert!(pages.max > 0, "queries under pressure must touch pages");
        // Pool gauges are live views of the same pool the queries used.
        let hits = snap.gauge("disk.pool.hits").unwrap();
        let misses = snap.gauge("disk.pool.misses").unwrap();
        let (h, m) = d.pool_counts();
        assert_eq!((hits, misses), (h, m));
        assert!(snap.gauge("disk.pool.evictions").unwrap() > 0);
        // Registered at attach time (counts consultations of the side
        // table, i.e. extrib lookups the inline slots could not answer).
        assert!(snap.counter("disk.spill_lookups").is_some());
    }

    #[test]
    fn explain_attributes_page_fetches() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1); // single-frame pool: every hop faults
        let codes = a.encode(&text).unwrap();
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"TACGACG", b"TTTT"] {
            let p = a.encode(p).unwrap();
            let dt = d.explain(&p);
            dt.verify_against_text(&codes).unwrap();
            // Same logical traversal as the reference engine; pages are the
            // only physical difference.
            assert_eq!(dt.logical_events(), r.explain(&p).logical_events());
            let (hits, misses) = dt.page_fetches();
            assert!(hits + misses > 0, "a single-frame pool must show traffic");
        }
    }

    #[test]
    fn try_find_all_matches_infallible_surface() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = disk(&text, 2);
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b""] {
            let p = a.encode(p).unwrap();
            assert_eq!(d.try_find_all(&p).unwrap(), StringIndex::find_all(&d, &p));
        }
    }

    /// A heatmap-derived hot set from a small query workload.
    fn hot_from_workload(d: &DiskSpine, a: &Alphabet, pats: &[&[u8]]) -> HotSet {
        let mut hm = crate::trace::Heatmap::new(d.len());
        for p in pats {
            hm.add(&d.explain(&a.encode(p).unwrap()));
        }
        HotSet::from_heatmap(&hm, 64)
    }

    #[test]
    fn clustered_seal_redirects_hot_nodes_and_preserves_answers() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(12);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let mutable = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            32,
            Box::<Lru>::default(),
        )
        .unwrap();
        let plain = mutable.seal_to(Box::new(MemDevice::new()), 8, Box::<Lru>::default()).unwrap();
        let hot = hot_from_workload(&plain, &a, &[b"CA", b"ACGACG", b"AACC"]);
        assert!(!hot.is_empty());
        let clustered = mutable
            .seal_to_clustered(Box::new(MemDevice::new()), 8, Box::<Lru>::default(), &hot)
            .unwrap();
        assert!(clustered.hot_tier_pages() > 0, "the hot set must land on hot pages");
        assert_eq!(
            clustered.file_pages().unwrap(),
            plain.file_pages().unwrap() + clustered.hot_tier_pages() as u64,
        );
        // The hottest node's reads are redirected past the base node pages.
        let hottest = hot.nodes().next().unwrap();
        assert!(
            clustered.page_of_node(hottest) as u64 >= plain.file_pages().unwrap(),
            "hot node must be served from the appended tier"
        );
        // Answers and decoded structure are bit-identical either way.
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b"AACCACAACA"] {
            let p = a.encode(p).unwrap();
            assert_eq!(clustered.try_find_all(&p).unwrap(), plain.try_find_all(&p).unwrap());
        }
        assert_eq!(clustered.sealed_census().unwrap(), plain.sealed_census().unwrap());
    }

    #[test]
    fn pinned_pages_survive_backbone_scans() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(16);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            6,
            Box::<Lru>::default(),
        )
        .unwrap();
        let pinned = sealed.pin_hot_prefix(3).unwrap();
        assert!(pinned > 0, "a prefix page must pin");
        assert_eq!(sealed.pinned_pages(), pinned);
        // A full-backbone occurrence scan cannot flush the pinned set.
        let p = a.encode(b"CA").unwrap();
        assert!(!crate::occurrences::backbone_scan_ends(&sealed, &p).is_empty());
        assert_eq!(sealed.pinned_pages(), pinned);
        assert_eq!(sealed.pool_stats().pinned, pinned as u64);
        assert_eq!(sealed.unpin_all(), pinned);
        assert_eq!(sealed.pinned_pages(), 0);
    }

    #[test]
    fn link_walk_reads_fewer_pages_than_the_backbone_scan() {
        // A pseudo-random text, so a 12-mer from its start occurs a handful
        // of times while the scan still strides the whole backbone.
        let mut x = 0x9E37_79B9_u32;
        let codes: Vec<Code> = (0..16_384)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 30) as Code
            })
            .collect();
        let a = Alphabet::dna();
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        // Demand-only pool: each path pays exactly the pages it touches.
        let p = &codes[100..112];
        let before = sealed.pool_stats().misses;
        let walk = crate::occurrences::try_find_all_ends(&sealed, p).unwrap();
        let walk_misses = sealed.pool_stats().misses - before;
        let before = sealed.pool_stats().misses;
        let scan = crate::occurrences::backbone_scan_ends(&sealed, p);
        let scan_misses = sealed.pool_stats().misses - before;
        assert!(!walk.is_empty());
        assert_eq!(walk, scan, "the walk must answer what the reference scan does");
        assert!(walk_misses < scan_misses, "walk read {walk_misses} pages, scan {scan_misses}");
    }

    #[test]
    fn page_map_attributes_every_node_within_the_file() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let (_, mutable) = disk(&text, 4);
        let sealed = DiskSpine::build_sealed(
            a,
            &codes,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mm = mutable.page_map();
        let sm = sealed.page_map();
        let pages = sealed.file_pages().unwrap();
        for node in 0..=sealed.len() as NodeId {
            assert!((sm.page_of(node) as u64) < pages, "node {node} outside the sealed file");
            // Uniform mapping agrees with the PagedVec geometry.
            assert_eq!(mm.page_of(node), (node as usize / mm_records(&mm)) as u32);
        }
        // Sealed pages are monotone in node order (no hot tier here).
        let mut last = 0;
        for node in 0..=sealed.len() as NodeId {
            let p = sm.page_of(node);
            assert!(p >= last);
            last = p;
        }
    }

    fn mm_records(m: &PageMap) -> usize {
        match m {
            PageMap::Uniform { records_per_page } => *records_per_page,
            PageMap::Sealed { .. } => panic!("expected the uniform mapping"),
        }
    }
}

#[cfg(test)]
mod record_codec_tests {
    use super::record::{self, NodeRecord};
    use super::*;
    use proptest::prelude::*;

    fn rt(node: u32, rec: &NodeRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        let sections = record::encode(node, rec, &mut buf);
        assert!(sections[0] >= 2 && sections.iter().sum::<usize>() == buf.len());
        buf
    }

    fn kids(buf: &[u8], node: u32, min_lel: u32) -> (u64, Vec<NodeId>) {
        let mut out = Vec::new();
        let n = record::children(buf, node, min_lel, &mut out).unwrap();
        (n, out)
    }

    #[test]
    fn empty_record_round_trips() {
        let rec = NodeRecord::default();
        let buf = rt(7, &rec);
        assert_eq!(buf, vec![0, 0, 0, 0, 0], "two zero link varints + three zero counts");
        assert_eq!(record::decode(7, &buf).unwrap(), rec);
        assert_eq!(record::decode_link(&buf).unwrap(), (0, 0));
        assert_eq!(record::find_rib(&buf, 7, 3).unwrap(), None);
        assert_eq!(record::find_extrib(&buf, 7, 9).unwrap(), None);
        assert_eq!(kids(&buf, 7, 0), (0, vec![]));
    }

    #[test]
    fn max_degree_record_round_trips() {
        // A bytes-alphabet node can fan out one rib per code (254) plus a
        // long extrib chain and a few hundred children.
        let node = 1000u32;
        let rec = NodeRecord {
            link: (u32::MAX, u32::MAX),
            ribs: (0..254u32).map(|i| (i as Code, node + 1 + i, i * 17)).collect(),
            extribs: (0..40u32).map(|i| (i * 3, i * 5, node + 300 + i)).collect(),
            children: (0..300u32).map(|i| (node + 1 + 3 * i, i % 9)).collect(),
        };
        let buf = rt(node, &rec);
        assert!(buf.len() <= slotted::MAX_RECORD_LEN, "max-degree record fits one page slot");
        assert_eq!(record::decode(node, &buf).unwrap(), rec);
        assert_eq!(record::decode_link(&buf).unwrap(), rec.link);
        for &(cl, dest, pt) in &rec.ribs {
            assert_eq!(record::find_rib(&buf, node, cl).unwrap(), Some((dest, pt)));
        }
        for &(prt, pt, dest) in &rec.extribs {
            assert_eq!(record::find_extrib(&buf, node, prt).unwrap(), Some((dest, pt)));
        }
        assert_eq!(record::find_rib(&buf, node, 255).unwrap(), None);
        let all: Vec<NodeId> = rec.children.iter().map(|&(c, _)| c).collect();
        assert_eq!(kids(&buf, node, 0), (300, all));
        let deep: Vec<NodeId> =
            rec.children.iter().filter(|&&(_, lel)| lel >= 7).map(|&(c, _)| c).collect();
        assert_eq!(kids(&buf, node, 7), (300, deep));
    }

    #[test]
    fn every_strict_prefix_is_rejected_cleanly() {
        let node = 42u32;
        let rec = NodeRecord {
            link: (30, 7),
            ribs: vec![(0, 43, 1), (2, 99999, 500)],
            extribs: vec![(1, 2, 44), (128, 300, 45)],
            children: vec![(43, 2), (50, 9), (70_000, 1)],
        };
        let buf = rt(node, &rec);
        for cut in 0..buf.len() {
            assert!(record::decode(node, &buf[..cut]).is_err(), "prefix of {cut} bytes must fail");
            assert!(
                record::children(&buf[..cut], node, 0, &mut Vec::new()).is_err(),
                "children of a {cut}-byte prefix must fail"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = buf.clone();
        long.push(0);
        assert!(record::decode(node, &long).is_err());
        // A zero gap would repeat a child (or name the node itself).
        let mut dup = rec.clone();
        dup.children = vec![(43, 2)];
        let mut bad = rt(node, &dup);
        let gap = bad.len() - 2;
        bad[gap] = 0;
        assert!(record::decode(node, &bad).is_err());
        assert!(record::children(&bad, node, 0, &mut Vec::new()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_records_round_trip(
            node in 0u32..1_000_000,
            link_dest in 0u32..2_000_000,
            lel in 0u32..1_000_000,
            ribs in proptest::collection::vec((0u32..=255, 1u32..100_000, 0u32..1_000_000), 0..12),
            extribs in proptest::collection::vec((0u32..500_000, 0u32..500_000, 1u32..100_000), 0..10),
            gaps in proptest::collection::vec((1u32..100_000, 0u32..1_000_000), 0..12),
            min_lel in 0u32..1_000_000,
        ) {
            // Unique rib labels / chain prts, as the build guarantees.
            let mut seen = std::collections::HashSet::new();
            let ribs: Vec<(Code, u32, u32)> = ribs
                .into_iter()
                .filter(|&(cl, _, _)| seen.insert(cl))
                .map(|(cl, delta, pt)| (cl as Code, node + delta, pt))
                .collect();
            let mut seen = std::collections::HashSet::new();
            let extribs: Vec<(u32, u32, u32)> = extribs
                .into_iter()
                .filter(|&(prt, _, _)| seen.insert(prt))
                .map(|(prt, pt, delta)| (prt, pt, node + delta))
                .collect();
            let mut prev = node;
            let children: Vec<(u32, u32)> = gaps
                .into_iter()
                .map(|(gap, lel)| {
                    prev += gap;
                    (prev, lel)
                })
                .collect();
            let rec = NodeRecord { link: (link_dest, lel), ribs, extribs, children };
            let buf = rt(node, &rec);
            prop_assert_eq!(record::decode(node, &buf).unwrap(), rec.clone());
            prop_assert_eq!(record::decode_link(&buf).unwrap(), rec.link);
            for &(cl, dest, pt) in &rec.ribs {
                prop_assert_eq!(record::find_rib(&buf, node, cl).unwrap(), Some((dest, pt)));
            }
            for &(prt, pt, dest) in &rec.extribs {
                prop_assert_eq!(record::find_extrib(&buf, node, prt).unwrap(), Some((dest, pt)));
            }
            let want: Vec<NodeId> =
                rec.children.iter().filter(|&&(_, l)| l >= min_lel).map(|&(c, _)| c).collect();
            prop_assert_eq!(kids(&buf, node, min_lel), (rec.children.len() as u64, want));
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            node in 0u32..1_000_000,
            min_lel in 0u32..4,
        ) {
            // Any outcome is fine except a panic or a nonsensical Ok: if it
            // decodes, re-encoding must reproduce the input exactly, and the
            // children accessor must agree with the full decode.
            if let Ok(rec) = record::decode(node, &bytes) {
                let mut out = Vec::new();
                record::encode(node, &rec, &mut out);
                prop_assert_eq!(out, bytes.clone());
                let want: Vec<NodeId> = rec
                    .children
                    .iter()
                    .filter(|&&(_, l)| l >= min_lel)
                    .map(|&(c, _)| c)
                    .collect();
                prop_assert_eq!(kids(&bytes, node, min_lel), (rec.children.len() as u64, want));
            }
            let _ = record::decode_link(&bytes);
            let _ = record::find_rib(&bytes, node, 0);
            let _ = record::find_extrib(&bytes, node, 0);
            let _ = record::children(&bytes, node, min_lel, &mut Vec::new());
        }
    }
}

#[cfg(test)]
mod sealed_tests {
    use super::*;
    use crate::build::Spine;
    use pagestore::{FaultyDevice, Lru, MemDevice};

    fn seal(text: &[u8], pool_pages: usize) -> (Alphabet, DiskSpine) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let d = DiskSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            pool_pages,
            Box::<Lru>::default(),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn sealed_equals_reference_engine() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA".repeat(4);
        let (a, d) = seal(&text, 4);
        assert!(d.is_sealed());
        assert!(d.file_pages().is_some());
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b"AACCACAACA", b"", b"TTTTT"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
            assert_eq!(StringIndex::find_first(&r, &p), StringIndex::find_first(&d, &p));
            assert_eq!(d.try_find_all(&p).unwrap(), StringIndex::find_all(&d, &p));
        }
        for pos in [0, 1, text.len() - 1] {
            assert_eq!(StringIndex::symbol_at(&r, pos), StringIndex::symbol_at(&d, pos));
        }
        let q = a.encode(b"TTACGACCACAACAGGAACC").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&d, &q, 3)
        );
        assert_eq!(
            MatchingIndex::matching_statistics(&r, &q),
            MatchingIndex::matching_statistics(&d, &q)
        );
    }

    #[test]
    fn sealed_structure_is_node_identical_to_reference() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA";
        let (a, d) = seal(text, 4);
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        for node in 0..=r.len() as u32 {
            assert_eq!(r.vertebra_out(node), d.vertebra_out(node), "vertebra {node}");
            if node != ROOT {
                assert_eq!(r.link_of(node), d.link_of(node), "link {node}");
            }
            for code in 0..a.code_space() as Code {
                assert_eq!(r.rib_of(node, code), d.rib_of(node, code), "rib {node}/{code}");
            }
        }
    }

    #[test]
    fn packed_compare_widths_per_alphabet() {
        // DNA: 2-bit words; protein: 5-bit; bytes: bit-tight store but
        // scalar compare.
        let (_, d) = seal(b"ACGTACGTTTGG", 4);
        assert_eq!(SpineOps::backbone_packing(&d), Some(2));

        let a = Alphabet::protein();
        let codes = a.encode(b"MKVLAARDWYHQCGGG").unwrap();
        let d = DiskSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(SpineOps::backbone_packing(&d), Some(5));
        let r = Spine::build(a.clone(), &codes).unwrap();
        for p in [&b"VLA"[..], b"GGG", b"MKVLA", b"WWW"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }

        let a = Alphabet::bytes();
        let codes = a.encode(b"mississippi$mississippi").unwrap();
        let d = DiskSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(SpineOps::backbone_packing(&d), None);
        let r = Spine::build(a.clone(), &codes).unwrap();
        for p in [&b"issi"[..], b"ppi$m", b"zzz"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
    }

    #[test]
    fn separator_in_text_disables_packed_compare_but_not_queries() {
        // A DNA concatenation with document separators cannot pack at
        // 2 bits; the seal falls back to a 3-bit scalar-compared store.
        let a = Alphabet::dna();
        let sep = a.separator();
        let mut codes = a.encode(b"ACGTACGT").unwrap();
        codes.push(sep);
        codes.extend(a.encode(b"TTACG").unwrap());
        let mut src =
            DiskSpine::new(a.clone(), Box::new(MemDevice::new()), 8, Box::<Lru>::default())
                .unwrap();
        for &c in &codes {
            src.push(c).unwrap();
        }
        let patterns: Vec<Vec<Code>> =
            [&b"ACG"[..], b"TTACG", b"GTT"].iter().map(|p| a.encode(p).unwrap()).collect();
        let before: Vec<_> = patterns.iter().map(|p| StringIndex::find_all(&src, p)).collect();
        let d = src.seal_to(Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        assert_eq!(SpineOps::backbone_packing(&d), None);
        for (p, want) in patterns.iter().zip(&before) {
            assert_eq!(&StringIndex::find_all(&d, p), want);
        }
    }

    #[test]
    fn word_boundary_patterns_match_reference() {
        // DNA packs 32 symbols per word; sweep pattern starts and lengths
        // across the word boundary so every phase of the two-shift window
        // assembly is exercised at the engine level.
        let text: Vec<u8> = (0..200).map(|i: usize| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let (a, d) = seal(&text, 4);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for start in [0usize, 1, 30, 31, 32, 33, 63, 64, 65] {
            for len in [0usize, 1, 2, 31, 32, 33, 64, 65] {
                if start + len > text.len() {
                    continue;
                }
                let p = a.encode(&text[start..start + len]).unwrap();
                assert_eq!(
                    StringIndex::find_all(&r, &p),
                    StringIndex::find_all(&d, &p),
                    "start {start} len {len}"
                );
            }
        }
        // Near-miss patterns that diverge at each offset within a word.
        for flip in [0usize, 1, 31, 32, 33] {
            let mut q = text[..40].to_vec();
            q[flip] = if q[flip] == b'A' { b'C' } else { b'A' };
            let p = a.encode(&q).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
    }

    #[test]
    fn sealed_under_memory_pressure() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = seal(&text, 1); // single-frame pool
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
        let (reads, _) = d.io_counts();
        assert!(reads > 0, "pressure must cause reads");
    }

    #[test]
    fn sealed_rejects_appends() {
        let (_, mut d) = seal(b"ACGTACGT", 2);
        assert!(matches!(d.push(0), Err(Error::Unsupported(_))));
        assert!(matches!(
            d.push_observed(0, &mut crate::observe::NoBuildObserver),
            Err(Error::Unsupported(_))
        ));
        // Still fully queryable afterwards.
        let a = Alphabet::dna();
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"CGT").unwrap()), vec![1, 5]);
    }

    #[test]
    fn census_reconciles_with_build_stats() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA".repeat(3);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let (src, st) = DiskSpine::build_with_stats(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let d = src.seal_to(Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        let census = d.sealed_census().unwrap();
        assert_eq!(census.nodes, codes.len() as u64 + 1);
        assert_eq!(census.ribs, st.ribs_created);
        // Spilled extribs are folded into the sealed records, so the
        // decoded total equals everything the build created.
        assert_eq!(census.extribs, st.extribs_created);
        assert_eq!(census.overflow_records, 0);
        assert_eq!(census.link_children, census.nodes - 1, "every non-root node is a child");
        assert_eq!(d.spill_count(), 0);
        // A mutable index has no census.
        assert!(matches!(src.sealed_census(), Err(Error::Unsupported(_))));
    }

    #[test]
    fn oversized_record_takes_the_overflow_path() {
        // A hub: `w` has distinct symbols, so every suffix of it first
        // occurs at node |w|. Each piece `x + suffix` with a fresh context
        // `x` links its end back to node |w| with the suffix length as LEL,
        // giving that node thousands of reverse-link children — a record
        // far past MAX_RECORD_LEN.
        let a = Alphabet::bytes();
        let w: Vec<Code> = (0..100).collect();
        let mut text = w.clone();
        for v in 1..=14 {
            for x in 100..254 {
                text.push(x);
                text.extend_from_slice(&w[w.len() - v..]);
            }
        }
        let d = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let census = d.sealed_census().unwrap();
        assert_eq!(census.overflow_records, 1);
        let hub = w.len() as NodeId;
        assert!(matches!(&*d.store.lock(), Store::Sealed(s) if s.overflow.contains_key(&hub)));
        // The overflow record serves the walk like any other.
        let r = Spine::build(a.clone(), &text).unwrap();
        let mut want = Vec::new();
        r.try_link_children(hub, 3, &mut want).unwrap();
        want.sort_unstable();
        let mut got = Vec::new();
        assert_eq!(d.try_link_children(hub, 3, &mut got).unwrap(), 14 * 154);
        assert_eq!(got, want);
        for p in [&w[97..], &w[90..], &w[..5], &[150, 99][..], &[7, 8, 9, 200][..]] {
            assert_eq!(StringIndex::find_all(&r, p), StringIndex::find_all(&d, p), "{p:?}");
        }
    }

    #[test]
    fn failed_seal_leaves_source_intact() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(2);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let src = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let dead = FaultyDevice::new(MemDevice::new(), 0);
        assert!(src.seal_to(Box::new(dead), 4, Box::<Lru>::default()).is_err());
        assert!(!src.is_sealed());
        let p = a.encode(b"ACGACG").unwrap();
        let r = Spine::build(a.clone(), &codes).unwrap();
        assert_eq!(StringIndex::find_all(&src, &p), StringIndex::find_all(&r, &p));
    }

    #[test]
    fn sealing_cuts_bytes_per_node() {
        let text = b"AACCACAACAGGTTACGACGACCAACGTGTACCACA".repeat(64);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let src = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            32,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mutable_mem = src.mem_breakdown();
        let mutable_pages = (codes.len() + 1).div_ceil(PAGE_SIZE / src.layout.record_size()) as u64;
        let d = src.seal_to(Box::new(MemDevice::new()), 8, Box::<Lru>::default()).unwrap();
        let sealed_pages = d.file_pages().unwrap();
        let nodes = codes.len() as u64 + 1;
        assert!(
            sealed_pages * 3 < mutable_pages,
            "sealed {sealed_pages} pages vs mutable {mutable_pages}"
        );
        let sealed_mem = d.mem_breakdown();
        assert!(
            sealed_mem.total() * 3 < mutable_mem.total(),
            "sealed {} bytes vs mutable {}",
            sealed_mem.total(),
            mutable_mem.total()
        );
        // The headline number: < 10 encoded bytes per node for DNA, vs the
        // 80-byte fixed record of the mutable layout.
        assert!(sealed_mem.bytes_per_node(nodes) < 10.0);
    }

    #[test]
    fn empty_and_tiny_texts_seal() {
        let a = Alphabet::dna();
        let d = DiskSpine::build_sealed(
            a.clone(),
            &[],
            Box::new(MemDevice::new()),
            2,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
        assert_eq!(d.file_pages(), Some(2)); // header + one (root-only) node page
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"A").unwrap()), Vec::<usize>::new());
        assert_eq!(d.sealed_census().unwrap().nodes, 1);

        let d = DiskSpine::build_sealed(
            a.clone(),
            &a.encode(b"G").unwrap(),
            Box::new(MemDevice::new()),
            2,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"G").unwrap()), vec![0]);
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"C").unwrap()), Vec::<usize>::new());
        assert_eq!(StringIndex::symbol_at(&d, 0), a.encode(b"G").unwrap()[0]);
    }

    #[test]
    fn resealing_a_sealed_index_is_lossless() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(3);
        let (a, d1) = seal(&text, 4);
        let d2 = d1.seal_to(Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        assert_eq!(d1.sealed_census().unwrap(), d2.sealed_census().unwrap());
        for p in [&b"CA"[..], b"ACCAA", b"TACGACG"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&d1, &p), StringIndex::find_all(&d2, &p));
        }
    }

    #[test]
    fn sealed_explain_matches_reference_structure() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = seal(&text, 1); // single-frame pool: every hop faults
        let codes = a.encode(&text).unwrap();
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"TACGACG", b"TTTT"] {
            let p = a.encode(p).unwrap();
            let dt = d.explain(&p);
            dt.verify_against_text(&codes).unwrap();
            assert_eq!(dt.logical_events(), r.explain(&p).logical_events());
            let (hits, misses) = dt.page_fetches();
            assert!(hits + misses > 0, "a single-frame pool must show traffic");
        }
    }

    #[test]
    fn sealed_telemetry_accounts_pages() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = seal(&text, 1);
        let reg = MetricsRegistry::new();
        d.attach_telemetry(&reg);
        d.try_find_all(&a.encode(b"ACGACG").unwrap()).unwrap();
        d.try_locate(&a.encode(b"CA").unwrap()).unwrap();
        let snap = reg.snapshot();
        let pages = snap.histogram("disk.pages_per_query").unwrap();
        assert_eq!(pages.count, 2);
        assert!(pages.max > 0);
        let (h, m) = d.pool_counts();
        assert_eq!(snap.gauge("disk.pool.hits").unwrap(), h);
        assert_eq!(snap.gauge("disk.pool.misses").unwrap(), m);
    }

    #[test]
    fn packed_counters_match_scalar_totals() {
        // The packed fast path must account runs exactly like the scalar
        // walk: same nodes_checked / edges totals for the same queries.
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = seal(&text, 8);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"ACGACGACCA"[..], b"AACCACAACAGGTT", b"CA", b"GGTTAC"] {
            let p = a.encode(p).unwrap();
            d.counters().reset();
            r.counters().reset();
            assert_eq!(d.try_locate(&p).unwrap(), crate::search::locate(&r, &p));
            assert_eq!(
                d.counters().nodes_checked(),
                r.counters().nodes_checked(),
                "node checks for {p:?}"
            );
            assert_eq!(
                d.counters().edges_traversed(),
                r.counters().edges_traversed(),
                "edges {p:?}"
            );
        }
    }
}

#[cfg(test)]
mod reopen_tests {
    use super::*;
    use pagestore::{FileDevice, Lru, MemDevice};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spine-reopen-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("dev-{tag}-{}.pages", std::process::id()))
    }

    #[test]
    fn seal_flush_reopen_query() {
        let a = Alphabet::dna();
        let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(16)).unwrap();
        let dev_path = temp_path("v2");
        let built = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(FileDevice::create(&dev_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mut meta = Vec::new();
        built.write_meta(&mut meta).unwrap();
        let before: Vec<usize> = StringIndex::find_all(&built, &a.encode(b"ACGACG").unwrap());
        let census_before = built.sealed_census().unwrap();
        drop(built);

        let reopened = DiskSpine::reopen(
            &mut meta.as_slice(),
            Box::new(FileDevice::open(&dev_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert!(reopened.is_sealed());
        assert_eq!(reopened.len(), text.len());
        // The packed compare survives the round trip.
        assert_eq!(SpineOps::backbone_packing(&reopened), Some(2));
        assert_eq!(StringIndex::find_all(&reopened, &a.encode(b"ACGACG").unwrap()), before);
        assert_eq!(reopened.sealed_census().unwrap(), census_before);
        // Full equivalence against a fresh in-memory build.
        let r = crate::Spine::build(a.clone(), &text).unwrap();
        let q = a.encode(b"TTACGACCACAACAGG").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&reopened, &q, 3)
        );
        std::fs::remove_file(&dev_path).ok();
    }

    #[test]
    fn v1_meta_reports_rebuild_required_and_rebuild_recovers() {
        let a = Alphabet::dna();
        let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(4)).unwrap();
        // A legacy (mutable-layout) artifact: v1 device + v1 sidecar.
        let v1_path = temp_path("v1");
        let old = DiskSpine::build(
            a.clone(),
            &text,
            Box::new(FileDevice::create(&v1_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        old.flush().unwrap();
        let mut v1_meta = Vec::new();
        old.write_meta(&mut v1_meta).unwrap();
        let expected: Vec<usize> = StringIndex::find_all(&old, &a.encode(b"ACGACG").unwrap());
        drop(old);

        // The v2 engine refuses it with the typed version error — no
        // panic, no silent misparse.
        let err = DiskSpine::reopen(
            &mut v1_meta.as_slice(),
            Box::new(FileDevice::open(&v1_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .err()
        .expect("v1 meta must be rejected");
        assert!(matches!(err, Error::FormatVersion { found: 1, expected: 3 }), "got {err:?}");
        assert!(err.to_string().contains("rebuild required"), "{err}");

        // A v2 artifact (sealed records without children) is refused the
        // same way, by its sidecar and by its device header alike. v2 wrote
        // the same header fields, so stamping version 2 into a fresh seal
        // reproduces one.
        let v2_path = temp_path("v2-artifact");
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(FileDevice::create(&v2_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        sealed.flush().unwrap();
        let mut v3_meta = Vec::new();
        sealed.write_meta(&mut v3_meta).unwrap();
        drop(sealed);
        let mut v2_meta = v3_meta.clone();
        v2_meta[4..6].copy_from_slice(&2u16.to_le_bytes());
        let reopen_v2 = |meta: &[u8]| {
            DiskSpine::reopen(
                &mut &meta[..],
                Box::new(FileDevice::open(&v2_path, false).unwrap()),
                8,
                Box::<Lru>::default(),
            )
            .err()
            .expect("a v2 artifact must be rejected")
        };
        let err = reopen_v2(&v2_meta);
        assert!(matches!(err, Error::FormatVersion { found: 2, expected: 3 }), "got {err:?}");
        assert!(err.to_string().contains("rebuild required"), "{err}");
        let mut page0 = std::fs::read(&v2_path).unwrap();
        let at = slotted::PAGE_HEADER_LEN + 4;
        page0[at..at + 2].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&v2_path, &page0).unwrap();
        let err = reopen_v2(&v3_meta);
        assert!(matches!(err, Error::FormatVersion { found: 2, expected: 3 }), "got {err:?}");

        // Even a current sidecar cannot smuggle in a v1 device: the header
        // page fails its per-page version check.
        let sealed_mem = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mut current_meta = Vec::new();
        sealed_mem.write_meta(&mut current_meta).unwrap();
        let err = DiskSpine::reopen(
            &mut current_meta.as_slice(),
            Box::new(FileDevice::open(&v1_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .err()
        .expect("v1 device must be rejected");
        assert!(matches!(err, Error::FormatVersion { .. } | Error::Parse(_)), "got {err:?}");

        // The recovery path: rebuild sealed, write fresh meta, reopen.
        let rebuilt_path = temp_path("rebuilt");
        let rebuilt = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(FileDevice::create(&rebuilt_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mut meta = Vec::new();
        rebuilt.write_meta(&mut meta).unwrap();
        drop(rebuilt);
        let reopened = DiskSpine::reopen(
            &mut meta.as_slice(),
            Box::new(FileDevice::open(&rebuilt_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(StringIndex::find_all(&reopened, &a.encode(b"ACGACG").unwrap()), expected);
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
        std::fs::remove_file(&rebuilt_path).ok();
    }

    #[test]
    fn reopen_rejects_garbage_meta() {
        let dev = Box::new(MemDevice::new());
        assert!(DiskSpine::reopen(&mut &b"JUNKJUNK"[..], dev, 2, Box::<Lru>::default()).is_err());
    }
}
