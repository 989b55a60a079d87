//! Workload inputs, all a pure function of the seed: corpora, query lists,
//! the `lsm-mixed` document stream and its write schedule.

use genseq::MarkovModel;
use rand::Rng;
use strindex::{Alphabet, Code};

use crate::util::{fnv, stream};

/// Order-3 Markov DNA, the texture the repository's generators use for
/// genomic background. The model is the same for every seed, so seeds vary
/// the sampled text and queries, not how repetitive the text is.
pub fn markov_model() -> MarkovModel {
    MarkovModel::random(&Alphabet::dna(), 3, 0.35, &mut stream(0, "model"))
}

pub fn dna_corpus(seed: u64, len: usize) -> Vec<Code> {
    markov_model().sample(len, &mut stream(seed, "corpus"))
}

/// `count` corpus substrings with lengths drawn uniformly from `lens`,
/// starting at uniform positions: every one is a hit.
pub fn hit_queries(
    corpus: &[Code],
    count: usize,
    lens: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Vec<Vec<Code>> {
    let mut r = stream(seed, "hit-queries");
    (0..count)
        .map(|_| {
            let len = r.gen_range(lens.clone());
            let at = r.gen_range(0..=corpus.len() - len);
            corpus[at..at + len].to_vec()
        })
        .collect()
}

/// Length of the k-mers [`KmerSet`] records; near-miss queries are at
/// least this long.
pub const K: usize = 12;

/// Which k-mers (2-bit packed, `K = 12`, so a 2 MiB bitmap) occur in a DNA
/// text. A pattern containing an absent k-mer is itself absent: that is
/// the proof `mem-miss` generation keeps its queries by.
pub struct KmerSet {
    bits: Vec<u64>,
}

impl KmerSet {
    pub fn new(text: &[Code]) -> KmerSet {
        let mut bits = vec![0u64; (1 << (2 * K)) / 64];
        for w in text.windows(K) {
            let k = pack(w);
            bits[k / 64] |= 1 << (k % 64);
        }
        KmerSet { bits }
    }

    /// True when some k-mer of `pattern` never occurs in the text.
    pub fn proves_absent(&self, pattern: &[Code]) -> bool {
        pattern.windows(K).any(|w| {
            let k = pack(w);
            self.bits[k / 64] & (1 << (k % 64)) == 0
        })
    }
}

fn pack(kmer: &[Code]) -> usize {
    kmer.iter().fold(0usize, |acc, &c| (acc << 2) | (c as usize & 3))
}

/// `count` near-miss queries: a corpus substring of 12–22 symbols with its
/// last symbol changed, kept only when `absent` proves the result occurs
/// nowhere. Every query walks its valid path to the last symbol and fails
/// there.
pub fn near_miss_queries(
    corpus: &[Code],
    count: usize,
    absent: impl Fn(&[Code]) -> bool,
    seed: u64,
) -> Vec<Vec<Code>> {
    let mut r = stream(seed, "near-miss-queries");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let len = r.gen_range(K..=22usize);
        let at = r.gen_range(0..=corpus.len() - len);
        let mut q = corpus[at..at + len].to_vec();
        let last = q.last_mut().expect("len >= K > 0");
        *last = (*last + r.gen_range(1..4u8)) % 4;
        if absent(&q) {
            out.push(q);
        }
    }
    out
}

/// Ranks `0..n` drawn with Zipf(1) weights.
pub fn zipf_ranks(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut r = stream(seed, "zipf");
    (0..count)
        .map(|_| {
            let mut u = r.gen_range(0.0..total);
            let mut k = 0;
            while k + 1 < n && u >= weights[k] {
                u -= weights[k];
                k += 1;
            }
            k as u32
        })
        .collect()
}

/// The `lsm-mixed` document stream: the preloaded live set followed by one
/// document per scheduled write, and the hot patterns readers ask for.
pub struct DocStream {
    pub docs: Vec<Vec<Code>>,
    pub hot: Vec<Vec<Code>>,
}

impl DocStream {
    pub fn new(seed: u64, doc_len: usize, docs: usize, preload: usize, hot: usize) -> DocStream {
        let model = markov_model();
        let mut r = stream(seed, "docs");
        let docs: Vec<Vec<Code>> = (0..docs).map(|_| model.sample(doc_len, &mut r)).collect();
        // Hot patterns are 6-symbol windows of the preloaded documents:
        // short enough (tens of matches per 128 Ki) that later documents
        // keep producing matches, so every read is a hit, and of one length
        // so that a read's cost does not depend on which pattern the seed
        // ranks first.
        let mut h = stream(seed, "hot");
        let hot = (0..hot)
            .map(|_| {
                let d = &docs[h.gen_range(0..preload)];
                let at = h.gen_range(0..=d.len() - 6);
                d[at..at + 6].to_vec()
            })
            .collect();
        DocStream { docs, hot }
    }
}

/// Digest of a list of symbol strings (separator-delimited).
pub fn digest(h: u64, items: &[Vec<Code>]) -> u64 {
    items.iter().fold(h, |h, s| fnv(fnv(h, s), &[0xFF]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = dna_corpus(7, 4096);
        assert_eq!(a, dna_corpus(7, 4096));
        assert_ne!(a, dna_corpus(8, 4096));
        assert_eq!(hit_queries(&a, 50, 6..=18, 7), hit_queries(&a, 50, 6..=18, 7));
        let z = zipf_ranks(16, 2000, 1);
        assert!(z.iter().all(|&k| k < 16));
        let top = z.iter().filter(|&&k| k == 0).count();
        assert!(top > z.iter().filter(|&&k| k == 15).count() * 4, "rank 0 dominates");
    }

    #[test]
    fn kmer_proof_is_sound() {
        let text = dna_corpus(3, 1 << 14);
        let set = KmerSet::new(&text);
        for q in hit_queries(&text, 200, 12..=20, 3) {
            assert!(!set.proves_absent(&q), "a corpus substring is never proven absent");
        }
    }
}
