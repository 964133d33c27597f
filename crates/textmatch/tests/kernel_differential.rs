//! Differential tests of the one-pass L3 kernel (the dense, case-folded
//! automaton holding directory ids and stop-glob pieces) against the
//! kernel it replaced: the sparse-trie matcher and the per-glob
//! backtracking stop filter, kept under `tests/reference/`.
//!
//! Texts are stitched from the patterns themselves (ids and glob pieces
//! in random case), word characters and digits at their edges,
//! separators and non-ASCII UTF-8, so that ids, prefixes of ids and
//! every piece of a glob occur often. `PROPTEST_CASES` scales every test
//! here; CI's `incremental` job runs them at 2048 cases.

mod reference;

use logdep_textmatch::{MatchMode, Matcher, MatcherBuilder, Scan, ScanScratch, StopPatterns};
use proptest::prelude::*;
use reference::{ref_scan, RefMatcher, RefStops};

/// Fragments a text is stitched from, after the patterns themselves.
const FILLER: &[&str] = &[
    " ", "_", "0", "7", "x", "X", "é", "€", "ü", "(", ")", "-", ".", "[", "]", "UPSRV", "upsrv2",
    "*", "?", "\u{00C9}",
];

/// The literal pieces of a glob: its runs between wildcards.
fn pieces(glob: &str) -> Vec<String> {
    glob.split(['*', '?'])
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Flips the ASCII case of the bytes whose bit is set in `mask`.
fn recase(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            } else {
                c
            }
        })
        .collect()
}

/// A text of `parts`, each `(pick, mask)` choosing a pattern, a glob, a
/// glob piece or a filler fragment and recasing it.
#[allow(
    clippy::indexing_slicing,
    reason = "test helper: `pick % vocab.len()` is in bounds"
)]
fn stitch(ids: &[String], globs: &[String], parts: &[(usize, u64)]) -> String {
    let mut vocab: Vec<String> = ids.to_vec();
    vocab.extend(globs.iter().cloned());
    vocab.extend(globs.iter().flat_map(|g| pieces(g)));
    vocab.extend(FILLER.iter().map(|s| (*s).to_owned()));
    parts
        .iter()
        .map(|&(pick, mask)| recase(&vocab[pick % vocab.len()], mask))
        .collect()
}

fn matcher(
    ids: &[String],
    case_insensitive: bool,
    mode: MatchMode,
    stops: &StopPatterns,
) -> Matcher {
    let mut b = MatcherBuilder::new();
    b.case_insensitive(case_insensitive)
        .mode(mode)
        .add_all(ids.iter().map(String::as_str))
        .stop_patterns(stops);
    b.build()
}

/// Every comparison, for one pattern set and a batch of texts scanned
/// with one shared scratch.
fn check(ids: &[String], globs: &[String], texts: &[String]) -> Result<(), TestCaseError> {
    let stops = StopPatterns::new(globs);
    let ref_stops = RefStops::new(globs);
    let mut scratch = ScanScratch::default();
    for case_insensitive in [true, false] {
        for mode in [MatchMode::WholeWord, MatchMode::Substring] {
            let m = matcher(ids, case_insensitive, mode, &stops);
            let r = RefMatcher::new(ids.iter().map(String::as_str), case_insensitive, mode);
            prop_assert_eq!(
                m.pattern_count(),
                ids.iter().filter(|i| !i.is_empty()).count()
            );
            for text in texts {
                prop_assert_eq!(m.find_all(text), r.find_all(text), "find_all on {:?}", text);
                prop_assert_eq!(m.matched_ids(text), r.matched_ids(text));
                prop_assert_eq!(m.contains_any(text), !r.find_all(text).is_empty());
                let got = match m.scan(text, &mut scratch) {
                    Scan::Stopped => None,
                    Scan::Cited(cited) => {
                        let mut cited: Vec<usize> = cited.iter().map(|&i| i as usize).collect();
                        let distinct = cited.len();
                        cited.sort_unstable();
                        cited.dedup();
                        prop_assert_eq!(distinct, cited.len(), "a cited id repeats");
                        Some(cited)
                    }
                };
                prop_assert_eq!(
                    got,
                    ref_scan(&r, &ref_stops, text),
                    "scan of {:?} with globs {:?} (case-insensitive {}, {:?})",
                    text,
                    globs,
                    case_insensitive,
                    mode
                );
            }
        }
    }
    for text in texts {
        prop_assert_eq!(
            stops.matches(text),
            ref_stops.matches(text),
            "stop {:?}",
            text
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn ids_and_globs_on_stitched_texts(
        ids in prop::collection::vec("[aAbB_1U]{0,4}", 0..7),
        globs in prop::collection::vec("[ab_1é*? ]{0,7}", 0..6),
        texts in prop::collection::vec(
            prop::collection::vec((0usize..1000, any::<u64>()), 0..14),
            1..6,
        ),
    ) {
        let texts: Vec<String> = texts.iter().map(|t| stitch(&ids, &globs, t)).collect();
        check(&ids, &globs, &texts)?;
    }

    #[test]
    fn prefix_ids_at_word_edges(
        extra in prop::collection::vec("[A-Z0-9_]{1,6}", 0..4),
        globs in prop::collection::vec("[a-z ]{0,4}[*?]{0,2}[a-z2 ]{0,4}[*]?", 0..4),
        texts in prop::collection::vec(
            prop::collection::vec((0usize..1000, any::<u64>()), 0..12),
            1..6,
        ),
    ) {
        let mut ids: Vec<String> = ["UPSRV", "UPSRV2", "UP", "SRV", "upsrv_2", "2"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        ids.extend(extra);
        let texts: Vec<String> = texts.iter().map(|t| stitch(&ids, &globs, t)).collect();
        check(&ids, &globs, &texts)?;
    }

    #[test]
    fn random_utf8_texts(
        ids in prop::collection::vec("[a-cé€]{1,3}", 1..5),
        globs in prop::collection::vec("[a-c*?é]{0,5}", 0..5),
        texts in prop::collection::vec("[a-cA-Cé€É_ 0-9*?]{0,24}", 1..8),
    ) {
        check(&ids, &globs, &texts)?;
    }

    #[test]
    fn more_than_64_pieces(
        n_globs in 22usize..40,
        picks in prop::collection::vec(
            prop::collection::vec((0usize..1000, any::<u64>()), 0..20),
            1..4,
        ),
    ) {
        // Every glob has three pieces of its own, so the set holds
        // 66–117 distinct pieces: no fixed-width "seen" mask can hold them.
        let globs: Vec<String> = (0..n_globs)
            .map(|g| format!("*k{g}a*k{g}b?k{g}c*"))
            .collect();
        let ids: Vec<String> = ["K3A", "k7b", "SVC"].iter().map(|s| (*s).to_owned()).collect();
        let mut texts: Vec<String> = picks.iter().map(|t| stitch(&ids, &globs, t)).collect();
        // The last glob's pieces, all present, in order and then not.
        let g = n_globs - 1;
        texts.push(format!("x K{g}A y k{g}bZk{g}c SVC"));
        texts.push(format!("k{g}c k{g}a k{g}b SVC"));
        check(&ids, &globs, &texts)?;
    }
}

#[test]
fn edge_globs_and_the_standard_set() {
    let globs: Vec<String> = [
        "", "*", "**", "?", "*?*", "a**b", "??", "a?", "*a", "a*", "a*a", "*ab*ab*",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let texts: Vec<String> = [
        "", "a", "b", "ab", "aab", "abab", "ba", "A", "aB", "xyz", "é", "aé", "abAB", "*", "?",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let ids = vec![
        "a".to_owned(),
        "ab".to_owned(),
        String::new(),
        "b".to_owned(),
    ];
    check(&ids, &globs, &texts).expect("edge globs");

    let standard: Vec<String> = [
        "serving request*",
        "*incoming invocation*",
        "*request received from*",
        "handled * in * ms",
        "dispatching * to local handler*",
        "*session opened by*",
        "*auth check for request*",
        "worker * accepted job*",
        "replication sync * applied",
        "*listener bound on port*",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let texts: Vec<String> = [
        "Serving request [fct [notify] group [DPINOTE]] for App",
        "incoming invocation notify on DPINOTE",
        "handled notify in 12 ms",
        "handled notify in 12 msX",
        "call returned [fct [notify]] rc=0 in 12 ms",
        "Worker 3 accepted job 7 for DPINOTE",
        "(DPINOTE) notify( $params )",
        "calling DPINOTE.notify for record 1234",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let ids = vec!["DPINOTE".to_owned(), "DPINOTE2".to_owned()];
    check(&ids, &standard, &texts).expect("standard set");
}
