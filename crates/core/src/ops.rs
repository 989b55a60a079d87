//! The abstract SPINE surface shared by all three physical representations.
//!
//! The reference layout ([`crate::Spine`]), the paper's §5 compact layout
//! ([`crate::CompactSpine`]) and the page-resident engine
//! ([`crate::DiskSpine`]) store the same logical structure. [`SpineOps`]
//! exposes that structure — vertebra labels, links, ribs, extrib chains —
//! and the generic algorithms in [`crate::search`], [`crate::occurrences`]
//! and [`crate::matching`] are written once against it.
//!
//! Storage-backed representations can fail mid-traversal (a page read can
//! error), so every required accessor returns `Result`: the in-memory
//! layouts answer `Ok`, [`crate::DiskSpine`] propagates real device errors.
//! The core traversals ([`crate::search::try_locate`],
//! [`crate::occurrences::try_find_all_ends`]) are written once against
//! these `try_` accessors. The infallible accessors
//! ([`SpineOps::vertebra_out`] and friends) and entry points
//! ([`crate::search::locate`], [`crate::occurrences::find_all_ends`]) are
//! sugar that runs the same traversal and panics on a storage error.
//!
//! A few hooks are optional. [`SpineOps::keeps_link_children`] says
//! whether a representation stores the reverse-link children lists that
//! [`SpineOps::try_link_children`] hands out. Who keeps them decides how
//! occurrences are enumerated ([`crate::occurrences`]): the in-memory
//! reference layout ([`crate::Spine`], and [`crate::GeneralizedSpine`]
//! through it) and a *sealed* [`crate::DiskSpine`] (every
//! [`crate::SegmentedSpine`] segment) keep them and walk the link subtree
//! under the first occurrence; the §5 compact layout, the mutable
//! [`crate::DiskSpine`] and [`crate::PrefixView`] keep none and run the
//! paper's backbone scan. [`SpineOps::backbone_packing`] enables the
//! word-packed locate, [`SpineOps::storage_counters`] feeds page
//! attribution to traces, and [`SpineOps::scan_begin`]/[`SpineOps::scan_end`]
//! bracket backbone scans for page-resident buffer pools.

use crate::node::NodeId;
use strindex::{Code, Counters, Error, PackedText, Result};

/// Panic message of the infallible sugar: its callers opted out of error
/// handling, so a storage error can only panic there. Fault-aware callers
/// use the `try_` surface.
pub(crate) const INFALLIBLE_BOUNDARY: &str =
    "storage error during infallible traversal (use the try_* surface for fault tolerance)";

/// Read access to a SPINE structure. Node ids are `0..=text_len()`, with 0
/// the root.
///
/// The required accessors are fallible; in-memory representations cannot
/// fail and answer `Ok`. A storage failure degrades a query to a clean
/// `Err` (and, at the engine level, a `Failed` outcome) instead of a panic.
pub trait SpineOps {
    /// Number of indexed characters (metadata; never touches storage).
    fn text_len(&self) -> usize;

    /// Character label of the vertebra leaving `node` (text character
    /// `node + 1`), or `None` at the tail.
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>>;

    /// `(destination, LEL)` of `node`'s upstream link. Undefined for the
    /// root (implementations may return `(0, 0)`).
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)>;

    /// `(destination, PT)` of `node`'s rib labeled `c`, if any.
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>>;

    /// `(destination, PT)` of `node`'s extrib belonging to the chain with
    /// parent-rib threshold `prt`, if any.
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>>;

    /// Work counters (see [`strindex::Counters`]).
    fn ops_counters(&self) -> &Counters;

    /// Length of the common run of `pattern[from..]` and the backbone
    /// labels leaving `node` (the text suffix starting at position `node`).
    /// The default walks vertebras one character at a time; packed
    /// representations override it with a word-at-a-time compare. Does not
    /// touch the work counters — the search loop accounts for the run in
    /// bulk so totals match the scalar path exactly.
    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        scalar_label_run(self, node, pattern, from)
    }

    /// Whether this representation keeps the reverse-link children lists
    /// of [`try_link_children`](Self::try_link_children). `true` sends
    /// occurrence enumeration down the link walk; `false` (the default)
    /// down the paper's backbone scan.
    fn keeps_link_children(&self) -> bool {
        false
    }

    /// Append to `out` the reverse-link children of `node` (the nodes whose
    /// link points at `node`) whose link LEL is at least `min_lel`, in any
    /// order, and return how many children were examined. Every non-root
    /// node is the child of exactly one node, so the lists form a tree
    /// rooted at [`crate::ROOT`]: the *reverse-link tree*. Called only when
    /// [`keeps_link_children`](Self::keeps_link_children) holds; the
    /// default reports [`Error::Unsupported`].
    fn try_link_children(
        &self,
        _node: NodeId,
        _min_lel: u32,
        _out: &mut Vec<NodeId>,
    ) -> Result<u64> {
        Err(Error::Unsupported("reverse-link children lists"))
    }

    /// Bits per symbol of this representation's word-packed backbone
    /// labels, or `None` when only character-at-a-time comparison is
    /// available (byte alphabets, or a packing disabled by a separator
    /// code). `Some(bits)` promises [`try_label_run`](Self::try_label_run)
    /// compares word-at-a-time against a pattern packed at the same width.
    fn backbone_packing(&self) -> Option<u32> {
        None
    }

    /// Cumulative `(hits, misses)` of the backing page cache, when this
    /// representation is page-resident; `None` for in-memory structures.
    /// The traced traversals sample this around each step to attribute
    /// buffer-pool traffic to individual traversal decisions
    /// ([`crate::trace::TraceEvent::PageFetches`]) — and only when a
    /// recording sink is attached, so the untraced paths never pay for it.
    fn storage_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// The traversal is about to scan the backbone sequentially from node
    /// `from` to the tail (the occurrence scan of §4). Page-resident
    /// representations switch their buffer pool into scan mode here —
    /// scan-resistant eviction plus sequential read-ahead — and prefetch
    /// the first link pages of the range; in-memory structures ignore it.
    /// Purely advisory: never fails, never changes answers.
    fn scan_begin(&self, _from: NodeId) {}

    /// The sequential scan announced by [`scan_begin`](Self::scan_begin)
    /// ended (including by error — callers pair the two with a guard).
    fn scan_end(&self) {}

    /// [`try_vertebra_out`](Self::try_vertebra_out), panicking on a storage error.
    #[inline]
    fn vertebra_out(&self, node: NodeId) -> Option<Code> {
        self.try_vertebra_out(node).expect(INFALLIBLE_BOUNDARY)
    }

    /// [`try_link_of`](Self::try_link_of), panicking on a storage error.
    #[inline]
    fn link_of(&self, node: NodeId) -> (NodeId, u32) {
        self.try_link_of(node).expect(INFALLIBLE_BOUNDARY)
    }

    /// [`try_rib_of`](Self::try_rib_of), panicking on a storage error.
    #[inline]
    fn rib_of(&self, node: NodeId, c: Code) -> Option<(NodeId, u32)> {
        self.try_rib_of(node, c).expect(INFALLIBLE_BOUNDARY)
    }

    /// [`try_extrib_of`](Self::try_extrib_of), panicking on a storage error.
    #[inline]
    fn extrib_of(&self, node: NodeId, prt: u32) -> Option<(NodeId, u32)> {
        self.try_extrib_of(node, prt).expect(INFALLIBLE_BOUNDARY)
    }
}

/// [`SpineOps::try_label_run`] one vertebra at a time: the default, and the
/// fallback of packed representations whose packing is off.
pub(crate) fn scalar_label_run<S: SpineOps + ?Sized>(
    s: &S,
    node: NodeId,
    pattern: &PackedText,
    from: usize,
) -> Result<usize> {
    let mut k = 0;
    while from + k < pattern.len() {
        match s.try_vertebra_out(node + k as NodeId)? {
            Some(c) if c == pattern.get(from + k) => k += 1,
            _ => break,
        }
    }
    Ok(k)
}
