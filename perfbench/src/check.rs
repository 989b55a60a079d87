//! Answer checking. The suffix-array oracle of the `mem-*` workloads is
//! built only after the run's peak memory is sampled, so it never counts
//! toward `setup_s` or `rss_mib`; the `lsm-mixed` matches, a few KiB, are
//! computed before the run.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use spine::engine::QueryOutcome;
use strindex::{Alphabet, Code, StringIndex};
use suffix_array::SaIndex;

use crate::util::{fnv, FNV_OFFSET};

/// Expected occurrence end positions (ascending) of every query, from the
/// suffix array.
pub fn expected_ends(corpus: &[Code], queries: &[Vec<Code>]) -> Vec<Vec<u32>> {
    let sa = SaIndex::build(Alphabet::dna(), corpus);
    queries
        .iter()
        .map(|q| sa.find_all(q).into_iter().map(|s| (s + q.len()) as u32).collect())
        .collect()
}

/// Start offsets of `pattern` in `doc` (naive scan; documents are short).
pub fn doc_matches(doc: &[Code], pattern: &[Code]) -> Vec<u32> {
    doc.windows(pattern.len())
        .enumerate()
        .filter(|(_, w)| *w == pattern)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Digest of a single-backbone answer; `None` for anything but a
/// completed one.
pub fn answer_digest(outcome: &QueryOutcome) -> Option<u64> {
    match outcome {
        QueryOutcome::Done(ends) => Some(ends_digest(ends)),
        _ => None,
    }
}

/// Digest of expected ends, comparable with [`answer_digest`].
pub fn ends_digest(ends: &[u32]) -> u64 {
    ends.iter().fold(FNV_OFFSET, |h, e| fnv(h, &e.to_le_bytes()))
}

/// Answers of the `mem-*` workloads, held as one digest per distinct query
/// so the run's memory does not grow with its throughput; the oracle
/// compares them after the run.
pub struct MemAnswers {
    digest: Vec<Option<u64>>,
    count: Vec<u64>,
}

impl MemAnswers {
    pub fn new(queries: usize) -> MemAnswers {
        MemAnswers { digest: vec![None; queries], count: vec![0; queries] }
    }

    /// Record one answer to query `q`; false when it is not a completed
    /// answer or differs from an earlier answer to the same query.
    pub fn record(&mut self, q: usize, outcome: &QueryOutcome) -> bool {
        let Some(d) = answer_digest(outcome) else { return false };
        let same = *self.digest[q].get_or_insert(d) == d;
        self.count[q] += u64::from(same);
        same
    }

    /// Recorded answers that agree with each other but not with
    /// `expected`.
    pub fn wrong(&self, expected: &[Vec<u32>]) -> u64 {
        self.digest
            .iter()
            .zip(&self.count)
            .zip(expected)
            .filter(|((d, _), e)| d.is_some_and(|d| d != ends_digest(e)))
            .map(|((_, &c), _)| c)
            .sum()
    }
}

/// When each document of the `lsm-mixed` stream entered and left the store
/// (run-clock ns; `u64::MAX` until it happens), and its matches for every
/// hot pattern. The writer stamps a start before its call and an end after
/// it, so a read that sees a document's effect always finds its stamps.
pub struct LsmOracle {
    /// `[doc][pattern]` → start offsets.
    matches: Vec<Vec<Vec<u32>>>,
    pub add_start: Vec<AtomicU64>,
    pub add_end: Vec<AtomicU64>,
    pub retire_start: Vec<AtomicU64>,
    pub retire_end: Vec<AtomicU64>,
}

impl LsmOracle {
    /// Documents `..preloaded` count as added before the run.
    pub fn new(docs: &[Vec<Code>], hot: &[Vec<Code>], preloaded: usize) -> LsmOracle {
        let stamps = |pre: u64| -> Vec<AtomicU64> {
            (0..docs.len())
                .map(|d| AtomicU64::new(if d < preloaded { pre } else { u64::MAX }))
                .collect()
        };
        LsmOracle {
            matches: docs.iter().map(|d| hot.iter().map(|p| doc_matches(d, p)).collect()).collect(),
            add_start: stamps(0),
            add_end: stamps(0),
            retire_start: stamps(u64::MAX),
            retire_end: stamps(u64::MAX),
        }
    }

    pub fn stamp(v: &[AtomicU64], doc: usize, ns: u64) {
        v[doc].store(ns, Ordering::SeqCst);
    }

    /// A read of hot pattern `pattern` submitted at `t0` and answered at
    /// `t1` must return every match in documents live for the whole
    /// interval and nothing outside documents live at some point of it.
    pub fn read_ok(&self, pattern: usize, t0: u64, t1: u64, outcome: &QueryOutcome) -> bool {
        let QueryOutcome::DoneDocs(got) = outcome else { return false };
        let at = |v: &[AtomicU64], d: usize| v[d].load(Ordering::SeqCst);
        let got: HashSet<(usize, u32)> = got.iter().map(|m| (m.doc, m.offset as u32)).collect();
        for (d, per_pattern) in self.matches.iter().enumerate() {
            let live_whole = at(&self.add_end, d) <= t0 && at(&self.retire_start, d) >= t1;
            if live_whole && !per_pattern[pattern].iter().all(|&o| got.contains(&(d, o))) {
                return false;
            }
        }
        got.iter().all(|&(d, o)| {
            d < self.matches.len()
                && at(&self.add_start, d) <= t1
                && at(&self.retire_end, d) >= t0
                && self.matches[d][pattern].binary_search(&o).is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_answers_reject_wrong_and_inconsistent_answers() {
        let mut a = MemAnswers::new(2);
        assert!(a.record(0, &QueryOutcome::Done(vec![3, 9])));
        assert!(a.record(0, &QueryOutcome::Done(vec![3, 9])));
        assert!(!a.record(0, &QueryOutcome::Done(vec![3])), "differs from the first answer");
        assert!(!a.record(1, &QueryOutcome::Failed("x".into())));
        assert!(a.record(1, &QueryOutcome::Done(vec![5])));
        assert_eq!(a.wrong(&[vec![3, 9], vec![5]]), 0);
        assert_eq!(a.wrong(&[vec![3, 9], vec![6]]), 1);
    }
}
