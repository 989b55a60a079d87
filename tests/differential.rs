//! Cross-engine differential tests.
//!
//! Every index engine in the workspace implements the same
//! [`StringIndex`] / [`MatchingIndex`] contracts, so for any text and any
//! pattern they must produce *identical* answers. This suite generates
//! random texts and patterns over the DNA, protein, and raw-byte alphabets
//! (including empty and length-1 texts) and checks
//!
//! * `contains` / `find_first` / `find_all`, and
//! * `matching_statistics` / `maximal_matches`
//!
//! across the reference SPINE, the §5 compact layout, the page-resident
//! disk engine, the suffix tree, the suffix array, and the naive-scan
//! oracle — plus the generalized (multi-document) SPINE against a per-
//! document scan.

use genseq::rng;
use pagestore::{Lru, MemDevice};
use rand::Rng;
use spine::{CompactSpine, DiskSpine, GeneralizedSpine, Spine};
use strindex::{Alphabet, Code, MatchingIndex, StringIndex};
use suffix_array::SaIndex;
use suffix_tree::SuffixTree;
use suffix_trie::NaiveIndex;

/// Every single-string engine in the workspace, built over one text.
fn engines(a: &Alphabet, text: &[Code]) -> Vec<(&'static str, Box<dyn MatchingIndex>)> {
    let mut built: Vec<(&'static str, Box<dyn MatchingIndex>)> =
        vec![("spine", Box::new(Spine::build(a.clone(), text).unwrap()))];
    built.push(("compact-spine", Box::new(CompactSpine::build(a.clone(), text).unwrap())));
    built.push((
        "disk-spine",
        Box::new(
            DiskSpine::build(
                a.clone(),
                text,
                Box::new(MemDevice::new()),
                32,
                Box::<Lru>::default(),
            )
            .unwrap(),
        ),
    ));
    // The sealed layout-v2 engine (varint records, packed backbone where the
    // alphabet allows), served under a deliberately tiny pool so every
    // answer crosses real page boundaries.
    built.push((
        "disk-spine-v2",
        Box::new(
            DiskSpine::build_sealed(
                a.clone(),
                text,
                Box::new(MemDevice::new()),
                4,
                Box::<Lru>::default(),
            )
            .unwrap(),
        ),
    ));
    built.push(("suffix-tree", Box::new(SuffixTree::build(a.clone(), text).unwrap())));
    built.push(("suffix-array", Box::new(SaIndex::build(a.clone(), text))));
    built.push(("naive-oracle", Box::new(NaiveIndex::new(a.clone(), text))));
    built
}

/// Straight-line scan, independent of every engine under test.
fn scan_find_all(text: &[Code], pattern: &[Code]) -> Vec<usize> {
    if pattern.is_empty() || pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len()).filter(|&i| &text[i..i + pattern.len()] == pattern).collect()
}

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

/// Mix of present and absent patterns for a text: substrings at random
/// positions, random strings, single symbols, and the whole text.
fn patterns_for(a: &Alphabet, text: &[Code], seed: u64) -> Vec<Vec<Code>> {
    let mut r = rng(seed ^ 0x9e37_79b9);
    let mut pats: Vec<Vec<Code>> = Vec::new();
    for _ in 0..12 {
        if !text.is_empty() {
            let len = r.gen_range(1..=text.len().min(12));
            let at = r.gen_range(0..=text.len() - len);
            pats.push(text[at..at + len].to_vec());
        }
        let len = r.gen_range(1..=8usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }
    pats.push(vec![0]);
    pats.push(vec![(a.size() - 1) as Code]);
    if !text.is_empty() {
        pats.push(text.to_vec());
    }
    pats
}

fn check_text(a: &Alphabet, text: &[Code], seed: u64) {
    let built = engines(a, text);
    for pattern in patterns_for(a, text, seed) {
        let expected = scan_find_all(text, &pattern);
        for (name, e) in &built {
            assert_eq!(
                e.find_all(&pattern),
                expected,
                "{name}: find_all, text len {}, pattern {pattern:?}",
                text.len()
            );
            assert_eq!(
                e.find_first(&pattern),
                expected.first().copied(),
                "{name}: find_first, pattern {pattern:?}"
            );
            assert_eq!(
                e.contains(&pattern),
                !expected.is_empty(),
                "{name}: contains, pattern {pattern:?}"
            );
        }
    }
}

#[test]
fn dna_random_texts() {
    let a = Alphabet::dna();
    for (i, len) in [0, 1, 2, 7, 64, 500, 1500].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 100 + i as u64), 200 + i as u64);
    }
}

#[test]
fn protein_random_texts() {
    let a = Alphabet::protein();
    for (i, len) in [0, 1, 3, 50, 700].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 300 + i as u64), 400 + i as u64);
    }
}

#[test]
fn byte_random_texts() {
    let a = Alphabet::bytes();
    for (i, len) in [0, 1, 16, 400].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 500 + i as u64), 600 + i as u64);
    }
}

#[test]
fn repetitive_texts_stress_occurrence_scan() {
    // Highly repetitive inputs maximize link fan-in and occurrence counts —
    // the regime where SPINE's backbone scan does the most work.
    let a = Alphabet::dna();
    let mut r = rng(7);
    for period in [1usize, 2, 3, 5] {
        let motif: Vec<Code> = (0..period).map(|_| r.gen_range(0..a.size()) as Code).collect();
        let text: Vec<Code> = motif.iter().copied().cycle().take(600).collect();
        check_text(&a, &text, 700 + period as u64);
    }
}

#[test]
fn matching_statistics_agree() {
    let a = Alphabet::dna();
    for (i, (tlen, qlen)) in
        [(300usize, 80usize), (1000, 200), (1, 5), (40, 1)].into_iter().enumerate()
    {
        let text = random_text(&a, tlen, 800 + i as u64);
        // Half-mutated copy of a text slice: long matches and breaks.
        let mut r = rng(900 + i as u64);
        let mut query: Vec<Code> = (0..qlen)
            .map(|j| {
                if j < text.len() && r.gen_bool(0.7) {
                    text[j % text.len()]
                } else {
                    r.gen_range(0..a.size()) as Code
                }
            })
            .collect();
        if qlen > 2 {
            query[qlen / 2] = (query[qlen / 2] + 1) % a.size() as Code;
        }

        let built = engines(&a, &text);
        let (ref_name, reference) = &built[0];
        let expect_ms = reference.matching_statistics(&query);
        let expect_mm = reference.maximal_matches(&query, 4);
        for (name, e) in &built[1..] {
            assert_eq!(
                e.matching_statistics(&query),
                expect_ms,
                "{name} vs {ref_name}: matching_statistics, case {i}"
            );
            let mut mm = e.maximal_matches(&query, 4);
            let mut expect = expect_mm.clone();
            mm.sort_unstable();
            expect.sort_unstable();
            assert_eq!(mm, expect, "{name} vs {ref_name}: maximal_matches, case {i}");
        }
    }
}

#[test]
fn generalized_matches_per_document_scan() {
    let a = Alphabet::protein();
    let mut r = rng(42);
    let docs: Vec<Vec<Code>> = (0..9)
        .map(|i| {
            let len = [0, 1, 5, 30, 80][i % 5];
            (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
        })
        .collect();
    let mut g = GeneralizedSpine::new(a.clone());
    for d in &docs {
        g.add_document(d).unwrap();
    }

    let mut pats: Vec<Vec<Code>> = Vec::new();
    for d in docs.iter().filter(|d| !d.is_empty()) {
        pats.push(d[..d.len().min(3)].to_vec());
        pats.push(d.clone());
    }
    for _ in 0..10 {
        let len = r.gen_range(1..=4usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }

    for p in &pats {
        let mut expected = Vec::new();
        for (di, d) in docs.iter().enumerate() {
            for off in scan_find_all(d, p) {
                expected.push((di, off));
            }
        }
        let got: Vec<(usize, usize)> =
            g.find_all(p).into_iter().map(|m| (m.doc, m.offset)).collect();
        assert_eq!(got, expected, "generalized find_all, pattern {p:?}");
        let docs_with: Vec<usize> = {
            let mut v: Vec<usize> = expected.iter().map(|&(d, _)| d).collect();
            v.dedup();
            v
        };
        assert_eq!(g.docs_containing(p), docs_with, "docs_containing, pattern {p:?}");
    }
}

#[test]
fn symbol_at_recovers_text_everywhere() {
    let a = Alphabet::dna();
    let text = random_text(&a, 257, 31);
    for (name, e) in engines(&a, &text) {
        assert_eq!(e.text_len(), text.len(), "{name}: text_len");
        for (i, &c) in text.iter().enumerate() {
            assert_eq!(e.symbol_at(i), c, "{name}: symbol_at({i})");
        }
    }
}

/// The hot-page tier is pure mechanism: clustering hot records onto
/// appended pages and pinning them may only move I/O around — never
/// change an answer. Every configuration (plain sealed, clustered,
/// clustered + pinned, and a reopened clustered file) must agree with
/// the in-memory reference on every pattern, under a pool small enough
/// that eviction actually happens.
#[test]
fn hot_tier_machinery_changes_no_answers() {
    use spine::{Heatmap, HotSet};

    let a = Alphabet::dna();
    for (i, len) in [60usize, 500, 2000].into_iter().enumerate() {
        let seed = 0x407_71E8 + i as u64;
        let text = random_text(&a, len, seed);
        let reference = Spine::build(a.clone(), &text).unwrap();
        let pats = patterns_for(&a, &text, seed ^ 0xBEEF);

        let mutable = DiskSpine::build(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            32,
            Box::<Lru>::default(),
        )
        .unwrap();
        let plain = mutable.seal_to(Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();

        // Derive a hot set from a real workload over the plain engine.
        let mut heat = Heatmap::new(text.len());
        for p in &pats {
            heat.add(&plain.explain(p));
        }
        let hot = HotSet::from_heatmap(&heat, 48);
        let clustered = mutable
            .seal_to_clustered(Box::new(MemDevice::new()), 4, Box::<Lru>::default(), &hot)
            .unwrap();

        // Persist + reopen the clustered file: the hot index must survive.
        let dir =
            std::env::temp_dir().join(format!("spine-differential-hot-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dev = pagestore::FileDevice::create(dir.join("seg.pages"), false).unwrap();
        let ondisk =
            mutable.seal_to_clustered(Box::new(dev), 4, Box::<Lru>::default(), &hot).unwrap();
        let mut meta = Vec::new();
        ondisk.write_meta(&mut meta).unwrap();
        ondisk.flush().unwrap();
        std::fs::write(dir.join("seg.meta"), &meta).unwrap();
        drop(ondisk);
        let reopened = DiskSpine::reopen(
            &mut std::fs::File::open(dir.join("seg.meta")).unwrap(),
            Box::new(pagestore::FileDevice::open(dir.join("seg.pages"), false).unwrap()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(reopened.hot_tier_pages(), clustered.hot_tier_pages());

        // Pin the hottest pages mid-stream: still pure I/O.
        clustered.pin_hot(&hot, 2).unwrap();

        for p in &pats {
            let expected = reference.find_all(p);
            assert_eq!(plain.find_all(p), expected, "plain sealed, len {len}, pattern {p:?}");
            assert_eq!(clustered.find_all(p), expected, "clustered, len {len}, pattern {p:?}");
            assert_eq!(reopened.find_all(p), expected, "reopened, len {len}, pattern {p:?}");
        }
        clustered.unpin_all();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Random add / retire / query interleavings against a naive per-document
/// oracle, driving the crash-safe segment store through its full lifecycle:
/// memtable inserts, threshold seals, explicit seals, tombstones, merges,
/// and one full drop-and-recover at the end. Covers DNA, protein, and raw
/// bytes, including empty and length-1 documents.
#[test]
fn segmented_store_matches_per_document_oracle() {
    use spine::{SegmentConfig, SegmentedSpine};
    use std::collections::BTreeMap;

    fn seg_oracle(docs: &BTreeMap<u64, Vec<Code>>, pattern: &[Code]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&id, d) in docs {
            if pattern.is_empty() {
                out.extend((0..=d.len()).map(|off| (id as usize, off)));
            } else {
                out.extend(scan_find_all(d, pattern).into_iter().map(|off| (id as usize, off)));
            }
        }
        out
    }

    fn check_all(store: &SegmentedSpine, docs: &BTreeMap<u64, Vec<Code>>, pats: &[Vec<Code>]) {
        let live: Vec<u64> = docs.keys().copied().collect();
        assert_eq!(store.live_doc_ids(), live, "live_doc_ids diverged from oracle");
        for p in pats {
            let got: Vec<(usize, usize)> =
                store.try_find_all(p).unwrap().into_iter().map(|m| (m.doc, m.offset)).collect();
            assert_eq!(got, seg_oracle(docs, p), "segmented find_all, pattern {p:?}");
        }
    }

    for (ai, a) in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()].iter().enumerate() {
        let dir = std::env::temp_dir()
            .join(format!("spine-differential-segments-{}-{ai}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A small memtable so threshold seals fire mid-script, and a low
        // merge bar so merges have work.
        let cfg = SegmentConfig {
            memtable_max_symbols: 48,
            pool_pages: 4,
            merge_min_segments: 2,
            ..Default::default()
        };
        let store = SegmentedSpine::create(a.clone(), &dir, cfg.clone()).unwrap();
        let mut oracle: BTreeMap<u64, Vec<Code>> = BTreeMap::new();
        let mut r = rng(0xD1F + ai as u64);

        // Edge documents first: empty and length-1.
        for doc in [vec![], vec![0 as Code]] {
            let id = store.add_document(&doc).unwrap();
            oracle.insert(id, doc);
        }

        for step in 0..120 {
            match r.gen_range(0..10usize) {
                0..=4 => {
                    let len = [0usize, 1, 2, 3, 8, 20][r.gen_range(0..6)];
                    let doc = random_text(a, len, 0xADD + ai as u64 * 1000 + step);
                    let id = store.add_document(&doc).unwrap();
                    oracle.insert(id, doc);
                }
                5 | 6 => {
                    if let Some(&id) = {
                        let keys: Vec<u64> = oracle.keys().copied().collect();
                        keys.get(r.gen_range(0..keys.len().max(1))).copied()
                    }
                    .as_ref()
                    {
                        assert!(store.retire_document(id).unwrap(), "retire of live doc {id}");
                        oracle.remove(&id);
                        // Retiring twice is an idempotent no-op, not an error.
                        assert!(!store.retire_document(id).unwrap());
                    }
                    // Unknown (never-assigned) ids are a typed error.
                    assert!(matches!(
                        store.retire_document(u64::MAX),
                        Err(strindex::Error::UnknownDocument { .. })
                    ));
                }
                7 => {
                    store.force_seal().unwrap();
                }
                8 => {
                    store.merge_once().unwrap();
                }
                _ => {
                    let mut pats: Vec<Vec<Code>> = vec![Vec::new()];
                    for _ in 0..3 {
                        let len = r.gen_range(1..=5usize);
                        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
                    }
                    // A substring of a live document, when one is long enough.
                    if let Some(d) = oracle.values().find(|d| d.len() >= 2) {
                        let at = r.gen_range(0..d.len() - 1);
                        pats.push(d[at..at + 2].to_vec());
                    }
                    check_all(&store, &oracle, &pats);
                }
            }
        }

        // Seal everything, drop the handle, and recover: the reopened store
        // must answer exactly like the oracle (nothing volatile remains).
        store.force_seal().unwrap();
        drop(store);
        let store = SegmentedSpine::open(a.clone(), &dir, cfg).unwrap();
        let pats: Vec<Vec<Code>> = std::iter::once(Vec::new())
            .chain((0..8).map(|i| random_text(a, 1 + i % 4, 0xF1A + i as u64)))
            .collect();
        check_all(&store, &oracle, &pats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine-level packed-vs-scalar equivalence. The sealed layout-v2
    /// engine answers through the word-packed backbone scanner (2-bit DNA,
    /// 5-bit protein); the in-memory reference answers symbol by symbol.
    /// Every pattern cut at a word-boundary start offset (and ±1) with
    /// lengths 0..=2·word_len — plus a near-miss with the final symbol
    /// flipped — must agree exactly.
    #[test]
    fn packed_scan_matches_scalar_at_word_boundaries(
        seed in 0u64..1 << 48,
        alpha in 0usize..2,
    ) {
        let (a, bits) = if alpha == 0 {
            (Alphabet::dna(), 2u32)
        } else {
            (Alphabet::protein(), 5u32)
        };
        let per_word = 64 / bits as usize;
        let text = random_text(&a, per_word * 4 + 7, seed);
        let reference = Spine::build(a.clone(), &text).unwrap();
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        prop_assert_eq!(
            spine::SpineOps::backbone_packing(&sealed),
            Some(bits),
            "sealed engine must take the packed path"
        );

        for word in 0..4usize {
            for delta in [0usize, 1] {
                let start = match (word * per_word).checked_sub(delta) {
                    Some(s) if s < text.len() => s,
                    _ => continue,
                };
                for len in 0..=2 * per_word {
                    let end = (start + len).min(text.len());
                    let mut pattern = text[start..end].to_vec();
                    prop_assert_eq!(
                        sealed.find_all(&pattern),
                        reference.find_all(&pattern),
                        "present pattern, start {} len {}", start, len
                    );
                    if let Some(last) = pattern.last_mut() {
                        *last = (*last + 1) % a.size() as Code;
                        prop_assert_eq!(
                            sealed.find_all(&pattern),
                            reference.find_all(&pattern),
                            "near-miss pattern, start {} len {}", start, len
                        );
                    }
                }
            }
        }
    }
}

/// A text of one of four shapes: random, unary (`AAAA…`), short-period
/// repeats, or random blocks glued from a tiny vocabulary (long, nested
/// repeats — deep link subtrees).
fn shaped_text(a: &Alphabet, shape: usize, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    match shape {
        0 => random_text(a, len, seed),
        1 => vec![r.gen_range(0..a.size()) as Code; len],
        2 => {
            let period = random_text(a, r.gen_range(1..=5usize), seed ^ 0xBEEF);
            period.iter().cycle().take(len).copied().collect()
        }
        _ => {
            let vocab: Vec<Vec<Code>> =
                (0..3).map(|i| random_text(a, 1 + i * 3, seed ^ i as u64)).collect();
            let mut t = Vec::new();
            while t.len() < len {
                t.extend_from_slice(&vocab[r.gen_range(0..vocab.len())]);
            }
            t.truncate(len);
            t
        }
    }
}

/// Every substring of length ≤ 6, a few random strings, the empty pattern
/// and the whole text.
fn walk_patterns(a: &Alphabet, text: &[Code], seed: u64) -> Vec<Vec<Code>> {
    let mut pats: Vec<Vec<Code>> = vec![Vec::new(), text.to_vec()];
    for i in 0..text.len() {
        for len in 1..=6.min(text.len() - i) {
            pats.push(text[i..i + len].to_vec());
        }
    }
    let mut r = rng(seed ^ 0x5CA7);
    for _ in 0..8 {
        let len = r.gen_range(1..=4usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }
    pats.sort();
    pats.dedup();
    pats
}

/// The link walk must return exactly what the paper's backbone scan
/// returns, one pattern at a time and batched.
fn assert_walk_equals_scan<S: spine::SpineOps>(tag: &str, s: &S, pats: &[Vec<Code>]) {
    use spine::occurrences::{
        backbone_scan_batch, backbone_scan_ends, find_all_ends, find_all_ends_batch, Target,
    };
    assert!(s.keeps_link_children(), "{tag}: must keep children lists");
    let mut targets = Vec::new();
    for p in pats {
        let scanned = backbone_scan_ends(s, p);
        assert_eq!(find_all_ends(s, p), scanned, "{tag}: pattern {p:?}");
        if let Some(&first) = scanned.first() {
            targets.push(Target { first_end: first, len: p.len() as u32 });
        }
    }
    assert_eq!(find_all_ends_batch(s, &targets), backbone_scan_batch(s, &targets), "{tag}: batch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The output-sensitive link walk equals the paper's backbone scan over
    /// DNA, protein and bytes; on random, unary and repeat-rich texts; on
    /// the empty and length-1 prefixes of each; on indexes built half by
    /// `Spine::build` and half by `push`; and on a `GeneralizedSpine`
    /// whose documents are cut from the same text (separator nodes in the
    /// link tree).
    #[test]
    fn link_walk_equals_backbone_scan(
        alpha in 0usize..3,
        shape in 0usize..4,
        len in 0usize..120,
        cut in 0usize..120,
        seed in 0u64..1 << 48,
    ) {
        let a = [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()][alpha].clone();
        let text = shaped_text(&a, shape, len, seed);
        for t in [&text[..0], &text[..text.len().min(1)], &text[..]] {
            let pats = walk_patterns(&a, t, seed);
            let built = Spine::build(a.clone(), t).unwrap();
            assert_walk_equals_scan("build", &built, &pats);

            let half = cut.min(t.len());
            let mut grown = Spine::build(a.clone(), &t[..half]).unwrap();
            for &c in &t[half..] {
                strindex::OnlineIndex::push(&mut grown, c).unwrap();
            }
            prop_assert!(grown.nodes() == built.nodes(), "build+push must equal build");
            assert_walk_equals_scan("build+push", &grown, &pats);

            let mut g = GeneralizedSpine::new(a.clone());
            let mut r = rng(seed ^ 0xD0C5);
            let mut at = 0;
            while at < t.len() {
                let end = (at + r.gen_range(0..=8usize)).min(t.len());
                g.add_document(&t[at..end]).unwrap();
                at = end;
            }
            g.add_document(&[]).unwrap();
            assert_walk_equals_scan("generalized", &g, &pats);
        }
    }
}

/// A scratch path for the sealed-walk reopen round-trips.
fn walk_tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spine-sealed-walk-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sealed segments enumerate by the link walk over the reverse-link
    /// children stored in their records. It must equal the backbone scan
    /// over the same sealed index — one pattern at a time and batched —
    /// over DNA, protein and bytes; on the empty and length-1 prefixes; on
    /// separator-joined documents (the shape every segment has); after a
    /// sidecar reopen from a real file; and after a re-seal.
    #[test]
    fn sealed_walk_equals_backbone_scan(
        alpha in 0usize..3,
        shape in 0usize..4,
        len in 0usize..120,
        seed in 0u64..1 << 48,
    ) {
        use pagestore::FileDevice;
        let a = [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()][alpha].clone();
        let text = shaped_text(&a, shape, len, seed);
        let mut docs = Vec::new();
        let mut r = rng(seed ^ 0x5E9);
        let mut at = 0;
        while at < text.len() {
            let end = (at + r.gen_range(0..=12usize)).min(text.len());
            docs.extend_from_slice(&text[at..end]);
            docs.push(a.separator());
            at = end;
        }
        for (tag, t) in [
            ("empty", &text[..0]),
            ("len-1", &text[..text.len().min(1)]),
            ("text", &text[..]),
            ("documents", &docs[..]),
        ] {
            let pats = walk_patterns(&a, t, seed);
            let sealed = DiskSpine::build_sealed(
                a.clone(),
                t,
                Box::new(MemDevice::new()),
                4,
                Box::<Lru>::default(),
            )
            .unwrap();
            assert_walk_equals_scan(tag, &sealed, &pats);

            let resealed =
                sealed.seal_to(Box::new(MemDevice::new()), 3, Box::<Lru>::default()).unwrap();
            assert_walk_equals_scan(tag, &resealed, &pats);

            let path = walk_tmp(tag);
            let on_file = DiskSpine::build_sealed(
                a.clone(),
                t,
                Box::new(FileDevice::create(&path, false).unwrap()),
                4,
                Box::<Lru>::default(),
            )
            .unwrap();
            let mut meta = Vec::new();
            on_file.write_meta(&mut meta).unwrap();
            on_file.flush().unwrap();
            drop(on_file);
            let reopened = DiskSpine::reopen(
                &mut meta.as_slice(),
                Box::new(FileDevice::open(&path, false).unwrap()),
                2,
                Box::<Lru>::default(),
            )
            .unwrap();
            assert_walk_equals_scan(tag, &reopened, &pats);
            prop_assert_eq!(reopened.mem_breakdown(), sealed.mem_breakdown());
            std::fs::remove_file(&path).ok();
        }
    }
}
