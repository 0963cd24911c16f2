//! Seeded truncation and mutation fuzzing of the append-log crash policy
//! (`ppatc::checkpoint`), through both of its wrappers: the checkpoint
//! `Journal` and the warm-cache journal behind `try_recover_cache`.
//!
//! Truncation: a valid journal is cut at every byte offset, header
//! included. Recovery must succeed and return exactly the items of the
//! complete lines before the cut; appending one item and recovering again
//! must return that prefix plus the new item. Mutation: seeded byte flips
//! and insertions must end in `Ok` or `PpatcError::Checkpoint`, never a
//! panic.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ppatc::eval::Sink;
use ppatc::{Journal, JournalSpec, PpatcError};
use ppatc_serve::cache::try_recover_cache;
use ppatc_units::rng::SplitMix64;

/// A scratch path unique to this process and test.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppatc-fuzz-{}-{name}.journal", std::process::id()))
}

/// Byte offsets just past each `\n` of `bytes`: where each complete line
/// ends.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// `bytes` with one to three seeded flips or insertions.
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    const SALIENT: &[u8] = b"\n ce0123456789abcdef";
    let mut out = bytes.to_vec();
    for _ in 0..=rng.next_below(3) {
        let byte = if rng.next_below(2) == 0 {
            SALIENT[rng.next_below(SALIENT.len() as u64) as usize]
        } else {
            rng.next_below(256) as u8
        };
        if rng.next_below(2) == 0 && !out.is_empty() {
            let at = rng.next_below(out.len() as u64) as usize;
            out[at] ^= byte.max(1);
        } else {
            let at = rng.next_below(out.len() as u64 + 1) as usize;
            out.insert(at, byte);
        }
    }
    out
}

// -- checkpoint journal -----------------------------------------------------

/// Items of the checkpoint run under test.
const ITEMS: usize = 12;

fn spec() -> JournalSpec {
    JournalSpec::for_run::<f64>("fuzz", ITEMS, &[7, 11])
}

/// One journaled chunk: its start and each item's outcome (`None` for a
/// journaled panic).
type Chunk = (usize, Vec<Option<f64>>);

fn reference_chunks() -> Vec<Chunk> {
    vec![
        (0, vec![Some(1.5), Some(f64::NAN)]),
        (4, vec![Some(-0.0), None, Some(1e-300)]),
        (2, vec![Some(f64::NEG_INFINITY)]),
        (8, vec![None]),
        (9, vec![Some(2.0), Some(-7.25)]),
    ]
}

fn append_chunk(journal: &Journal, (start, outcomes): &Chunk) {
    let values: Vec<f64> = outcomes.iter().flatten().copied().collect();
    let panicked: Vec<usize> = (*start..)
        .zip(outcomes)
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| i)
        .collect();
    Sink::<f64>::append(journal, *start, start + outcomes.len(), &values, &panicked)
        .expect("append");
}

/// Every item the journal replays, as bit patterns (`None` for a panic).
fn replayed(journal: &Journal) -> BTreeMap<usize, Option<u64>> {
    (0..ITEMS)
        .filter_map(|i| Some((i, Sink::<f64>::replay(journal, i)?.map(f64::to_bits))))
        .collect()
}

/// The items of `chunks`, later chunks overriding earlier ones.
fn expected(chunks: &[Chunk]) -> BTreeMap<usize, Option<u64>> {
    chunks
        .iter()
        .flat_map(|(start, outcomes)| (*start..).zip(outcomes.iter().map(|o| o.map(f64::to_bits))))
        .collect()
}

fn write_checkpoint_reference(path: &Path) -> Vec<u8> {
    let journal = Journal::try_create(path, &spec()).expect("create");
    for chunk in &reference_chunks() {
        append_chunk(&journal, chunk);
    }
    drop(journal);
    std::fs::read(path).expect("read reference")
}

#[test]
fn every_truncation_of_a_checkpoint_journal_recovers_its_complete_prefix() {
    let path = scratch("checkpoint-cut");
    let reference = write_checkpoint_reference(&path);
    let ends = line_ends(&reference);
    let chunks = reference_chunks();
    assert_eq!(
        ends.len(),
        chunks.len() + 1,
        "header plus one line per chunk"
    );
    let fresh: Chunk = (11, vec![Some(42.0)]);
    for cut in 0..=reference.len() {
        std::fs::write(&path, &reference[..cut]).expect("write prefix");
        // Body line k is complete when its '\n' (at ends[k + 1]) is kept.
        let kept = ends
            .iter()
            .filter(|&&end| end <= cut)
            .count()
            .saturating_sub(1);
        let mut want = chunks[..kept].to_vec();
        let journal = Journal::try_resume(&path, &spec())
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(replayed(&journal), expected(&want), "cut at {cut}");
        append_chunk(&journal, &fresh);
        drop(journal);
        want.push(fresh.clone());
        let journal = Journal::try_resume(&path, &spec())
            .unwrap_or_else(|e| panic!("cut at {cut}: second recovery failed: {e}"));
        assert_eq!(replayed(&journal), expected(&want), "cut at {cut}, resumed");
        assert_eq!(journal.completed_items(), expected(&want).len());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeded_mutations_of_a_checkpoint_journal_end_in_ok_or_a_typed_error() {
    let path = scratch("checkpoint-mutate");
    let reference = write_checkpoint_reference(&path);
    let mut rng = SplitMix64::new(2025);
    for case in 0..500 {
        std::fs::write(&path, mutate(&reference, &mut rng)).expect("write mutant");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Journal::try_resume(&path, &spec()).map(|journal| replayed(&journal).len())
        }));
        match outcome {
            Ok(Ok(_) | Err(PpatcError::Checkpoint { .. })) => {}
            Ok(Err(e)) => panic!("case {case}: untyped failure {e}"),
            Err(_) => panic!("case {case}: recovery panicked"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

// -- cache journal ----------------------------------------------------------

/// One shard large enough that nothing is evicted, so the recovered cache
/// lists entries in journal order.
const SHARDS: usize = 1;
const CAPACITY: usize = 16;

fn reference_entries() -> Vec<(String, String)> {
    [
        ("eval capacity_kb=16", "ok\nresult line\twith tabs"),
        ("mc samples=100", "ok\nmean=1.0 p99=2.0"),
        ("a", "1"),
        (
            "eval x=1",
            "ok\nline one\nline two with  spaces\te 9 9 deadbeef\n",
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

fn write_cache_reference(path: &Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (cache, _) = try_recover_cache(path, SHARDS, CAPACITY).expect("fresh journal");
    for (key, value) in &reference_entries() {
        assert!(cache.insert(key, value), "journaled");
    }
    drop(cache);
    std::fs::read(path).expect("read reference")
}

#[test]
fn every_truncation_of_a_cache_journal_recovers_its_complete_prefix() {
    let path = scratch("cache-cut");
    let reference = write_cache_reference(&path);
    let ends = line_ends(&reference);
    let entries = reference_entries();
    assert_eq!(
        ends.len(),
        entries.len() + 1,
        "header plus one line per entry"
    );
    for cut in 0..=reference.len() {
        std::fs::write(&path, &reference[..cut]).expect("write prefix");
        let kept = ends
            .iter()
            .filter(|&&end| end <= cut)
            .count()
            .saturating_sub(1);
        let mut want = entries[..kept].to_vec();
        let (cache, recovered) = try_recover_cache(&path, SHARDS, CAPACITY)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(recovered, kept, "cut at {cut}");
        assert_eq!(cache.entries_in_order(), want, "cut at {cut}");
        assert!(cache.insert("fresh", "ok\nnew"), "journaled");
        drop(cache);
        want.push(("fresh".to_string(), "ok\nnew".to_string()));
        let (cache, recovered) = try_recover_cache(&path, SHARDS, CAPACITY)
            .unwrap_or_else(|e| panic!("cut at {cut}: second recovery failed: {e}"));
        assert_eq!(recovered, want.len(), "cut at {cut}, resumed");
        assert_eq!(cache.entries_in_order(), want, "cut at {cut}, resumed");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeded_mutations_of_a_cache_journal_end_in_ok_or_a_typed_error() {
    let path = scratch("cache-mutate");
    let reference = write_cache_reference(&path);
    let mut rng = SplitMix64::new(2026);
    for case in 0..500 {
        std::fs::write(&path, mutate(&reference, &mut rng)).expect("write mutant");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            try_recover_cache(&path, SHARDS, CAPACITY).map(|(cache, _)| cache.len())
        }));
        match outcome {
            Ok(Ok(_) | Err(PpatcError::Checkpoint { .. })) => {}
            Ok(Err(e)) => panic!("case {case}: untyped failure {e}"),
            Err(_) => panic!("case {case}: recovery panicked"),
        }
    }
    let _ = std::fs::remove_file(&path);
}
