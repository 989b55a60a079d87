//! All-occurrence enumeration (Section 4).
//!
//! After the valid path locates the *first* occurrence of a pattern `w`,
//! ending at node `fo(w)`, every further occurrence follows from the link
//! property: a link from `j` to `k` with LEL `v` means the length-`v`
//! strings ending at `j` and `k` are equal. So node `j > fo(w)` ends an
//! occurrence of `w` iff `lel(j) ≥ |w|` and `link(j)` ends one. Two
//! algorithms enumerate with it:
//!
//! * **The link walk**, output-sensitive. The occurrence ends are exactly
//!   `fo(w)` plus the subtree below it in the *reverse-link tree*
//!   ([`SpineOps::try_link_children`]), entered through the children with
//!   `lel ≥ |w|`. Below those children no LEL test is needed: if
//!   `k ≠ fo(w)` ends an occurrence and `link(c) = k`, then `lel(c) ≥ |w|`
//!   — otherwise LET(c), a suffix of `w`, would first occur at or before
//!   `fo(w) < k`. The walk visits `deg(fo(w))` children of `fo(w)` plus
//!   one per further occurrence, then sorts: O(occ log occ + deg(fo(w)))
//!   instead of O(n − fo(w)).
//! * **The backbone scan**, the paper's algorithm: one pass over
//!   `fo(w)+1 ..= n`, accepting `j` when `lel(j) ≥ |w|` and `link(j)` is in
//!   the sorted *target node buffer* (binary search). Its batched form
//!   resolves any number of patterns in one pass, the deferral the paper
//!   describes for the maximal-match workload. [`backbone_scan_ends`] and
//!   [`backbone_scan_batch`] name it as the reference the walk is tested
//!   against and the paper's reproductions time.
//!
//! Enumeration dispatches once, in [`try_occurrences_from_traced`] and
//! [`find_all_ends_batch`], on [`SpineOps::keeps_link_children`].
//! Structures that keep the lists walk: the in-memory [`crate::Spine`] and
//! [`crate::GeneralizedSpine`], and a sealed [`crate::DiskSpine`] (so every
//! [`crate::SegmentedSpine`] segment), whose records store each node's
//! children. The walk is one fallible traversal for all of them: a page
//! error mid-walk is an `Err`, never a partial answer. The rest scan: the
//! §5 compact layout, the mutable [`crate::DiskSpine`] and prefix views.

use crate::node::NodeId;
use crate::ops::{SpineOps, INFALLIBLE_BOUNDARY};
use crate::search::try_locate_traced;
use crate::trace::{NoTrace, TraceEvent, TraceSink};
use strindex::{Code, FxHashMap, Result};

/// End positions (1-based) of all occurrences of `pattern`, ascending.
///
/// # Panics
/// On a storage error; [`try_find_all_ends`] returns it instead.
pub fn find_all_ends<S: SpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Vec<NodeId> {
    try_find_all_ends(s, pattern).expect(INFALLIBLE_BOUNDARY)
}

/// Fallible [`find_all_ends`]: a storage failure during the valid-path walk
/// or the enumeration surfaces as `Err` instead of a panic.
pub fn try_find_all_ends<S: SpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Result<Vec<NodeId>> {
    try_find_all_ends_traced(s, &mut NoTrace, pattern)
}

/// [`try_find_all_ends`] with a [`TraceSink`] attached: the valid-path walk
/// and the enumeration both report their decisions. This is the traversal
/// behind `explain` ([`crate::trace::explain`]).
pub fn try_find_all_ends_traced<S: SpineOps + ?Sized, T: TraceSink + ?Sized>(
    s: &S,
    sink: &mut T,
    pattern: &[Code],
) -> Result<Vec<NodeId>> {
    let Some(first) = try_locate_traced(s, sink, pattern)? else {
        return Ok(Vec::new());
    };
    try_occurrences_from_traced(s, sink, first, pattern.len() as u32)
}

/// All nodes ending an occurrence of the length-`len` string whose first
/// occurrence ends at `first`, ascending, with a [`TraceSink`] attached.
/// The link walk emits one [`TraceEvent::WalkStart`], the backbone scan one
/// [`TraceEvent::ScanStart`]; for page-resident structures a single
/// [`TraceEvent::PageFetches`] aggregates the enumeration's buffer-pool
/// traffic. Either way one [`TraceEvent::Occurrence`] per further end
/// follows, ascending.
pub fn try_occurrences_from_traced<S: SpineOps + ?Sized, T: TraceSink + ?Sized>(
    s: &S,
    sink: &mut T,
    first: NodeId,
    len: u32,
) -> Result<Vec<NodeId>> {
    if s.keeps_link_children() {
        try_link_walk(s, sink, first, len)
    } else {
        try_backbone_scan_traced(s, sink, first, len)
    }
}

/// The link walk (see the module docs). Counts the children it examines
/// into the structure's counters with one add.
fn try_link_walk<S: SpineOps + ?Sized, T: TraceSink + ?Sized>(
    s: &S,
    sink: &mut T,
    first: NodeId,
    len: u32,
) -> Result<Vec<NodeId>> {
    if T::ENABLED {
        sink.event(TraceEvent::WalkStart { first, len });
    }
    let before = if T::ENABLED { s.storage_counters() } else { None };
    let mut ends = vec![first];
    let mut visits = s.try_link_children(first, len, &mut ends)?;
    // `ends` doubles as the work list: every node pushed below here is an
    // occurrence end, no test needed.
    let mut i = 1;
    while i < ends.len() {
        visits += s.try_link_children(ends[i], 0, &mut ends)?;
        i += 1;
    }
    s.ops_counters().count_children_visited(visits);
    if let Some(e) = crate::trace::page_delta_event(s, before) {
        sink.event(e);
    }
    // Children have larger ids than their parent, so `first` stays first.
    ends[1..].sort_unstable();
    if T::ENABLED {
        for &j in &ends[1..] {
            let (link, lel) = s.try_link_of(j)?;
            sink.event(TraceEvent::Occurrence { node: j, link, lel });
        }
    }
    Ok(ends)
}

/// The paper's §4 algorithm end to end, whatever the structure keeps:
/// locate `pattern`, then one backbone scan from its first occurrence to the
/// tail. The reference the link walk must equal, and the path the paper's
/// table reproductions time.
pub fn backbone_scan_ends<S: SpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Vec<NodeId> {
    let Some(first) = crate::search::locate(s, pattern) else {
        return Vec::new();
    };
    try_backbone_scan_traced(s, &mut NoTrace, first, pattern.len() as u32)
        .expect(INFALLIBLE_BOUNDARY)
}

/// The backbone scan for one target: [`try_occurrences_from_traced`]'s path
/// for structures without children lists.
fn try_backbone_scan_traced<S: SpineOps + ?Sized, T: TraceSink + ?Sized>(
    s: &S,
    sink: &mut T,
    first: NodeId,
    len: u32,
) -> Result<Vec<NodeId>> {
    let n = s.text_len() as NodeId;
    if T::ENABLED {
        sink.event(TraceEvent::ScanStart { from: first + 1, to: n, len });
    }
    let before = if T::ENABLED { s.storage_counters() } else { None };
    let mut buffer: Vec<NodeId> = vec![first];
    for j in first + 1..=n {
        let (dest, lel) = s.try_link_of(j)?;
        if lel >= len && buffer.binary_search(&dest).is_ok() {
            if T::ENABLED {
                sink.event(TraceEvent::Occurrence { node: j, link: dest, lel });
            }
            buffer.push(j); // scan order keeps the buffer sorted
        }
    }
    if let Some(e) = crate::trace::page_delta_event(s, before) {
        sink.event(e);
    }
    Ok(buffer)
}

/// One pattern of a batched all-occurrences request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// End node of the pattern's first occurrence (from [`crate::search::locate`]).
    pub first_end: NodeId,
    /// Pattern length.
    pub len: u32,
}

/// Resolve many targets at once.
///
/// Returns, for each target (keyed by value, deduplicated), the ascending
/// list of occurrence-end nodes: one link walk per target where the
/// structure keeps children lists, one shared backbone scan otherwise.
///
/// # Panics
/// On a storage error.
pub fn find_all_ends_batch<S: SpineOps + ?Sized>(
    s: &S,
    targets: &[Target],
) -> FxHashMap<Target, Vec<NodeId>> {
    if !s.keeps_link_children() {
        return backbone_scan_batch(s, targets);
    }
    let mut result: FxHashMap<Target, Vec<NodeId>> = FxHashMap::default();
    for &t in targets {
        result.entry(t).or_insert_with(|| {
            try_link_walk(s, &mut NoTrace, t.first_end, t.len).expect(INFALLIBLE_BOUNDARY)
        });
    }
    result
}

/// The paper's batched backbone scan: every target resolved in one pass,
/// whatever the structure keeps. The reference [`find_all_ends_batch`] must
/// equal, and the deferral the paper's maximal-match reproductions time.
///
/// The scan is O(n + total occurrences): each node consults a hash map from
/// "node already in some target buffer" to the targets that buffered it.
///
/// # Panics
/// On a storage error.
pub fn backbone_scan_batch<S: SpineOps + ?Sized>(
    s: &S,
    targets: &[Target],
) -> FxHashMap<Target, Vec<NodeId>> {
    let mut result: FxHashMap<Target, Vec<NodeId>> = FxHashMap::default();
    // node id -> indices of targets whose buffer contains that node.
    let mut buffered: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    let mut uniq: Vec<Target> = Vec::new();
    for &t in targets {
        if result.contains_key(&t) {
            continue;
        }
        result.insert(t, vec![t.first_end]);
        buffered.entry(t.first_end).or_default().push(uniq.len() as u32);
        uniq.push(t);
    }
    if uniq.is_empty() {
        return result;
    }
    let start = uniq.iter().map(|t| t.first_end).min().unwrap() + 1;
    let n = s.text_len() as NodeId;
    for j in start..=n {
        let (dest, lel) = s.link_of(j);
        let Some(hits) = buffered.get(&dest) else {
            continue;
        };
        let mut added: Vec<u32> = Vec::new();
        for &ti in hits {
            if lel >= uniq[ti as usize].len {
                added.push(ti);
            }
        }
        if added.is_empty() {
            continue;
        }
        for &ti in &added {
            result.get_mut(&uniq[ti as usize]).unwrap().push(j);
        }
        buffered.entry(j).or_default().extend(added);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use strindex::{Alphabet, StringIndex};

    fn paper_spine() -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        (a, s)
    }

    #[test]
    fn paper_example_ac_occurrences() {
        // §4 walks this example: searching "ac" fills the target buffer with
        // nodes 3, 6, 9 (ends of the three occurrences).
        let (a, s) = paper_spine();
        let ends = find_all_ends(&s, &a.encode(b"AC").unwrap());
        assert_eq!(ends, vec![3, 6, 9]);
        // Converted to start offsets by find_all:
        assert_eq!(s.find_all(&a.encode(b"AC").unwrap()), vec![1, 4, 7]);
    }

    #[test]
    fn overlapping_occurrences() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AAAAA").unwrap();
        assert_eq!(s.find_all(&a.encode(b"AA").unwrap()), vec![0, 1, 2, 3]);
        assert_eq!(s.find_all(&a.encode(b"AAAAA").unwrap()), vec![0]);
    }

    #[test]
    fn absent_pattern_yields_nothing() {
        let (a, s) = paper_spine();
        assert!(find_all_ends(&s, &a.encode(b"GG").unwrap()).is_empty());
        assert!(s.find_all(&a.encode(b"T").unwrap()).is_empty());
    }

    #[test]
    fn batch_matches_single_scans() {
        let (a, s) = paper_spine();
        let pats: Vec<Vec<Code>> = [&b"A"[..], b"CA", b"AC", b"AACCACAACA", b"CAACA", b"C"]
            .iter()
            .map(|p| a.encode(p).unwrap())
            .collect();
        let targets: Vec<Target> = pats
            .iter()
            .map(|p| Target { first_end: s.locate(p).unwrap(), len: p.len() as u32 })
            .collect();
        let batch = find_all_ends_batch(&s, &targets);
        for (p, t) in pats.iter().zip(&targets) {
            assert_eq!(batch[t], find_all_ends(&s, p), "pattern {p:?}");
        }
    }

    #[test]
    fn batch_deduplicates_targets() {
        let (a, s) = paper_spine();
        let p = a.encode(b"CA").unwrap();
        let t = Target { first_end: s.locate(&p).unwrap(), len: 2 };
        let batch = find_all_ends_batch(&s, &[t, t, t]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[&t], vec![5, 7, 10]);
    }

    #[test]
    fn empty_batch() {
        let (_, s) = paper_spine();
        assert!(find_all_ends_batch(&s, &[]).is_empty());
        assert!(backbone_scan_batch(&s, &[]).is_empty());
    }

    #[test]
    fn empty_pattern_walks_every_node() {
        // Node 1's link to the root is implicit in construction; it must
        // still hang in the root's list for the walk to reach it.
        let (_, s) = paper_spine();
        assert_eq!(find_all_ends(&s, &[]), (0..=10).collect::<Vec<_>>());
        assert_eq!(backbone_scan_ends(&s, &[]), (0..=10).collect::<Vec<_>>());
        let one = Spine::build_from_bytes(Alphabet::dna(), b"G").unwrap();
        assert_eq!(find_all_ends(&one, &[]), vec![0, 1]);
        // The batched scan accepts LEL-0 links for the empty pattern too.
        let t = Target { first_end: 0, len: 0 };
        assert_eq!(backbone_scan_batch(&s, &[t])[&t], (0..=10).collect::<Vec<_>>());
        assert_eq!(find_all_ends_batch(&s, &[t])[&t], (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn walk_visits_at_most_occurrences_plus_first_degree() {
        // visits = deg(fo(w)) + one per occurrence below the entered
        // children ≤ occ − 1 + deg(fo(w)), counted in one add per walk.
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a, &b"AACCACAACAGGTTACGACGACCA".repeat(6)).unwrap();
        let text = s.recover_text();
        assert!(s.keeps_link_children(), "the reference layout keeps lists");
        for i in 0..text.len() {
            for len in 1..=5.min(text.len() - i) {
                let p = &text[i..i + len];
                let before = s.counters().snapshot();
                let ends = find_all_ends(&s, p);
                let visits = s.counters().snapshot().since(&before).children_visited;
                let occ = ends.len() as u64;
                let deg = s.try_link_children(ends[0], 0, &mut Vec::new()).unwrap();
                assert!(visits >= deg, "pattern {p:?}: {visits} visits, degree {deg}");
                assert!(visits <= occ - 1 + deg, "pattern {p:?}: {visits} > {occ} - 1 + {deg}");
            }
        }
        // The backbone scan does no walk work.
        let before = s.counters().children_visited();
        backbone_scan_ends(&s, &text[..3]);
        assert_eq!(s.counters().children_visited(), before);
    }
}
