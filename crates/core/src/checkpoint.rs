//! Crash-safe, line-oriented checkpoint journals for supervised runs.
//!
//! A [`Journal`] records completed work items of one supervised parallel
//! run (see [`crate::eval::try_map_indexed`]) as plain text lines:
//! a header identifying the run, then one line per completed chunk. Each
//! item's value is serialized as fixed-width hexadecimal `u64` words, so
//! the format is append-only, human-inspectable, and torn-write safe — a
//! partial trailing line (the only damage a crash can cause to an
//! append-and-flush writer) fails to parse and is simply skipped on
//! resume, costing at most one chunk of recomputation.
//!
//! # Determinism
//!
//! Every journaled run maps an index space `0..n` through a pure function
//! of the index (Monte-Carlo samples are pure in `(seed, i)`, raster cells
//! in their grid coordinates), and the engine merges results back into
//! index order. Replaying journaled items therefore yields *byte-identical*
//! results to recomputing them: the journal stores exact `f64` bit
//! patterns, and which items came from the journal cannot be observed in
//! the output. A [`JournalSpec`] fingerprint of the run parameters guards
//! against resuming with a different configuration.

use crate::error::PpatcError;
use crate::eval::Sink;
use ppatc_units::rng::SplitMix64;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Tag word marking a journaled item that evaluated successfully.
const TAG_OK: u64 = 0;
/// Tag word marking a journaled item whose closure panicked (the panic is
/// deterministic, so it is journaled and replayed as
/// [`PpatcError::WorkerPanic`] instead of re-unwinding on resume).
const TAG_PANICKED: u64 = 1;

/// Seed for the run-parameter fingerprint (the SplitMix64 golden-gamma
/// constant; any fixed odd value works).
const FINGERPRINT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold step of the run-parameter fingerprint.
fn fold(acc: u64, word: u64) -> u64 {
    let mut s = SplitMix64::new(acc ^ word);
    s.next_u64()
}

/// A value that can be journaled as a fixed number of `u64` words.
///
/// `encode` must push exactly [`Checkpointable::WIDTH`] words and `decode`
/// must invert it bit-exactly; floating-point values round-trip through
/// `to_bits`/`from_bits` so NaN payloads and signed zeros survive.
pub trait Checkpointable: Sized {
    /// Number of `u64` words one value occupies in the journal.
    const WIDTH: usize;
    /// Appends exactly [`Checkpointable::WIDTH`] words to `out`.
    fn encode(&self, out: &mut Vec<u64>);
    /// Rebuilds a value from [`Checkpointable::WIDTH`] words; `None` if the
    /// words are malformed (wrong count or unrepresentable payload).
    fn decode(words: &[u64]) -> Option<Self>;
}

impl Checkpointable for f64 {
    const WIDTH: usize = 1;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => Some(f64::from_bits(*w)),
            _ => None,
        }
    }
}

impl Checkpointable for (f64, f64, f64) {
    const WIDTH: usize = 3;

    fn encode(&self, out: &mut Vec<u64>) {
        out.extend([self.0.to_bits(), self.1.to_bits(), self.2.to_bits()]);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [a, b, c] => Some((f64::from_bits(*a), f64::from_bits(*b), f64::from_bits(*c))),
            _ => None,
        }
    }
}

impl Checkpointable for usize {
    const WIDTH: usize = 1;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => usize::try_from(*w).ok(),
            _ => None,
        }
    }
}

/// Identity of one journaled run: what kind of run it is, how many items
/// it spans, how wide each item is, and a fingerprint of every parameter
/// that influences item values.
///
/// Two runs with the same spec are guaranteed to produce identical items
/// (each item is a pure function of its index and the fingerprinted
/// parameters), which is what makes replaying a journal sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSpec {
    /// Short run-kind label, e.g. `"montecarlo"` or `"raster"`.
    pub kind: &'static str,
    /// Number of items in the run's index space.
    pub items: usize,
    /// `u64` words per item (the item type's [`Checkpointable::WIDTH`]).
    pub item_width: usize,
    /// Fold of `kind`, `items`, `item_width`, and the caller's parameter
    /// words; a resumed journal must match it exactly.
    pub fingerprint: u64,
}

impl JournalSpec {
    /// Builds the spec for a run of `items` values of type `T`, folding
    /// `params` (every seed, bound, and knob that influences item values,
    /// as raw `u64`/bit-pattern words) into the fingerprint.
    pub fn for_run<T: Checkpointable>(kind: &'static str, items: usize, params: &[u64]) -> Self {
        let mut acc = FINGERPRINT_SEED;
        for b in kind.bytes() {
            acc = fold(acc, u64::from(b));
        }
        acc = fold(acc, items as u64);
        acc = fold(acc, T::WIDTH as u64);
        for &p in params {
            acc = fold(acc, p);
        }
        Self {
            kind,
            items,
            item_width: T::WIDTH,
            fingerprint: acc,
        }
    }

    /// The exact header line this spec writes and expects.
    fn header_line(&self) -> String {
        format!(
            "ppatc-journal v1 kind={} items={} width={} fingerprint={:016x}",
            self.kind, self.items, self.item_width, self.fingerprint
        )
    }
}

/// Wraps an I/O failure on the journal file as a [`PpatcError::Checkpoint`].
fn journal_error(path: &Path, action: &str, e: &std::io::Error) -> PpatcError {
    PpatcError::Checkpoint {
        detail: format!("could not {action} {}: {e}", path.display()),
    }
}

/// An append-only checkpoint journal bound to one run spec.
///
/// Create with [`Journal::try_create`] (fresh run) or
/// [`Journal::try_resume`] (reload completed items, then keep appending),
/// then pass to [`crate::eval::try_map_indexed`] as its [`Sink`]. Appends are
/// line-buffered and flushed per chunk, so a crash loses at most the
/// in-flight line.
pub struct Journal {
    path: PathBuf,
    spec: JournalSpec,
    writer: Mutex<BufWriter<File>>,
    /// Items reloaded by [`Journal::try_resume`], keyed by index; each
    /// value is the `[tag, payload...]` word run from the file.
    preloaded: HashMap<usize, Vec<u64>>,
}

impl core::fmt::Debug for Journal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("spec", &self.spec)
            .field("preloaded", &self.preloaded.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path` and writes its
    /// header.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be created or written.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_create(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| journal_error(&path, "create", &e))?;
        let mut writer = BufWriter::new(file);
        writer
            .write_all(spec.header_line().as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| journal_error(&path, "write the header of", &e))?;
        Ok(Self {
            path,
            spec: spec.clone(),
            writer: Mutex::new(writer),
            preloaded: HashMap::new(),
        })
    }

    /// Opens an existing journal at `path`, reloads every parseable chunk
    /// line, and reopens the file for appending. A missing file falls back
    /// to [`Journal::try_create`]. Malformed or torn lines are skipped.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be read or reopened,
    /// if its header does not match `spec` (resuming a different run would
    /// silently splice unrelated results), or if a *complete* chunk line
    /// indexes past the end of the run — that cannot result from a torn
    /// write, so the journal belongs to some other run and skipping the
    /// line would silently discard evidence of corruption.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_resume(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        let path = path.into();
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Self::try_create(path, spec);
            }
            Err(e) => return Err(journal_error(&path, "open", &e)),
        };

        let mut preloaded = HashMap::new();
        let mut lines = BufReader::new(file).lines();
        let header = match lines.next() {
            Some(Ok(line)) => line,
            Some(Err(e)) => return Err(journal_error(&path, "read the header of", &e)),
            None => String::new(),
        };
        let expected = spec.header_line();
        if header != expected {
            return Err(PpatcError::Checkpoint {
                detail: format!(
                    "journal {} belongs to a different run: found header '{header}', \
                     expected '{expected}'",
                    path.display()
                ),
            });
        }
        for line in lines {
            let line = line.map_err(|e| journal_error(&path, "read", &e))?;
            match parse_chunk_line(&line, spec) {
                ChunkLine::Chunk(start, items) => {
                    for (offset, words) in items.into_iter().enumerate() {
                        preloaded.insert(start + offset, words);
                    }
                }
                ChunkLine::OutOfRange { start, count } => {
                    return Err(PpatcError::Checkpoint {
                        detail: format!(
                            "journal {} is corrupt: a complete chunk line claims items \
                             {start}..{} but the run spans only {} items — refusing to \
                             resume from a journal that does not belong to this run",
                            path.display(),
                            start.saturating_add(count),
                            spec.items
                        ),
                    });
                }
                ChunkLine::Malformed => {}
            }
        }

        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| journal_error(&path, "reopen for append", &e))?;
        Ok(Self {
            path,
            spec: spec.clone(),
            writer: Mutex::new(BufWriter::new(file)),
            preloaded,
        })
    }

    /// Number of distinct items reloaded from disk by
    /// [`Journal::try_resume`] (zero for a fresh journal).
    pub fn completed_items(&self) -> usize {
        self.preloaded.len()
    }
}

impl<T: Checkpointable> Sink<T> for Journal {
    /// Rejects a run whose item count or item width differs from the
    /// journal's spec.
    fn check_run(&self, n: usize) -> Result<(), PpatcError> {
        let mismatch = if self.spec.item_width != T::WIDTH {
            format!(
                "stores items of width {}, but the run produces width {}",
                self.spec.item_width,
                T::WIDTH
            )
        } else if self.spec.items != n {
            format!("spans {} items, but the run has {n}", self.spec.items)
        } else {
            return Ok(());
        };
        Err(PpatcError::Checkpoint {
            detail: format!("journal {} {mismatch}", self.path.display()),
        })
    }

    /// The reloaded outcome of item `i`; `None` (recompute) if absent or
    /// undecodable.
    fn replay(&self, i: usize) -> Option<Option<T>> {
        let words = self.preloaded.get(&i)?;
        let (tag, payload) = words.split_first()?;
        if *tag == TAG_PANICKED {
            return Some(None);
        }
        T::decode(payload).map(Some)
    }

    /// Appends the chunk as a single flushed line.
    fn append(
        &self,
        start: usize,
        end: usize,
        values: &[T],
        panicked: &[usize],
    ) -> Result<(), PpatcError> {
        use std::fmt::Write as _;
        let mut line = format!("c {start} {}", end - start);
        let mut words: Vec<u64> = Vec::with_capacity(T::WIDTH);
        let mut values = values.iter();
        let mut panicked = panicked.iter().peekable();
        for i in start..end {
            words.clear();
            let tag = if panicked.next_if_eq(&&i).is_some() {
                words.resize(T::WIDTH, 0);
                TAG_PANICKED
            } else if let Some(v) = values.next() {
                v.encode(&mut words);
                TAG_OK
            } else {
                return Err(PpatcError::Checkpoint {
                    detail: format!("chunk {start}..{end} is missing the value of item {i}"),
                });
            };
            debug_assert_eq!(
                words.len(),
                T::WIDTH,
                "encode must push exactly WIDTH words"
            );
            // Writing into a String cannot fail.
            let _ = write!(line, " {tag:016x}");
            for w in &words {
                let _ = write!(line, " {w:016x}");
            }
        }
        line.push('\n');
        let mut writer = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| journal_error(&self.path, "append to", &e))
    }
}

/// Classification of one journal body line on resume.
#[derive(Debug, PartialEq)]
enum ChunkLine {
    /// A well-formed, in-range chunk: items `start..start + values.len()`.
    Chunk(usize, Vec<Vec<u64>>),
    /// A *complete, well-formed* chunk line whose index range does not fit
    /// the run (`start + count > items`). A torn write cannot produce
    /// this — every word is present and parses — so it means the journal
    /// does not belong to this run (hand-edited, spliced, or a fingerprint
    /// collision) and resume must refuse rather than silently drop it.
    OutOfRange { start: usize, count: usize },
    /// Torn or garbage line (truncated words, bad hex, trailing junk);
    /// skipped on resume at the cost of recomputing that chunk.
    Malformed,
}

/// Parses one `c <start> <count> <words...>` chunk line; see [`ChunkLine`]
/// for how damage is distinguished from corruption.
fn parse_chunk_line(line: &str, spec: &JournalSpec) -> ChunkLine {
    let mut toks = line.split_ascii_whitespace();
    if toks.next() != Some("c") {
        return ChunkLine::Malformed;
    }
    let Some(start) = toks.next().and_then(|t| t.parse::<usize>().ok()) else {
        return ChunkLine::Malformed;
    };
    let Some(count) = toks.next().and_then(|t| t.parse::<usize>().ok()) else {
        return ChunkLine::Malformed;
    };
    if count == 0 {
        return ChunkLine::Malformed;
    }
    let Some(stride) = spec.item_width.checked_add(1) else {
        return ChunkLine::Malformed;
    };
    let mut items = Vec::with_capacity(count.min(spec.items));
    for _ in 0..count {
        let mut words = Vec::with_capacity(stride);
        for _ in 0..stride {
            match toks.next().map(|t| u64::from_str_radix(t, 16)) {
                Some(Ok(w)) => words.push(w),
                _ => return ChunkLine::Malformed,
            }
        }
        items.push(words);
    }
    if toks.next().is_some() {
        return ChunkLine::Malformed;
    }
    // Only now that the whole line is known to be complete does an index
    // range past the end of the run mean corruption rather than a tear.
    if start.checked_add(count).is_none_or(|end| end > spec.items) {
        return ChunkLine::OutOfRange { start, count };
    }
    ChunkLine::Chunk(start, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collision-free scratch path for one test.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppatc-journal-{}-{name}.txt", std::process::id()))
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        for v in [0.0_f64, -0.0, 1.5, f64::NAN, f64::NEG_INFINITY, 1e-300] {
            let mut words = Vec::new();
            v.encode(&mut words);
            let back = f64::decode(&words).expect("width matches");
            assert_eq!(v.to_bits(), back.to_bits());
        }
        type Triple = (f64, f64, f64);
        let cell: Triple = (1.0_f64, f64::NAN, -3.25_f64);
        let mut words = Vec::new();
        cell.encode(&mut words);
        let back = Triple::decode(&words).expect("width matches");
        assert_eq!(cell.0.to_bits(), back.0.to_bits());
        assert_eq!(cell.1.to_bits(), back.1.to_bits());
        assert_eq!(cell.2.to_bits(), back.2.to_bits());
        assert_eq!(f64::decode(&[]), None);
        assert_eq!(Triple::decode(&[0, 0]), None);
        assert_eq!(usize::decode(&[7]), Some(7));
    }

    #[test]
    fn create_append_resume_reloads_every_item() {
        let path = scratch("roundtrip");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[42]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            Sink::<f64>::append(&j, 0, 2, &[1.5, f64::NAN], &[]).expect("append");
            Sink::<f64>::append(&j, 5, 7, &[-0.0], &[6]).expect("append");
        }
        let j = Journal::try_resume(&path, &spec).expect("resume");
        assert_eq!(j.completed_items(), 4);
        assert_eq!(Sink::<f64>::replay(&j, 0), Some(Some(1.5)));
        match Sink::<f64>::replay(&j, 1) {
            Some(Some(v)) => assert!(v.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
        assert_eq!(
            Sink::<f64>::replay(&j, 5).map(|r| r.map(f64::to_bits)),
            Some(Some((-0.0_f64).to_bits()))
        );
        assert_eq!(
            Sink::<f64>::replay(&j, 6),
            Some(None),
            "item 6 was journaled as a panic"
        );
        assert_eq!(Sink::<f64>::replay(&j, 2), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_creates_a_fresh_journal() {
        let path = scratch("fresh");
        let _ = std::fs::remove_file(&path);
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        let j = Journal::try_resume(&path, &spec).expect("fresh resume");
        assert_eq!(j.completed_items(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_spec_is_rejected_on_resume() {
        let path = scratch("mismatch");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[1]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        let other = JournalSpec::for_run::<f64>("test", 10, &[2]);
        let err = Journal::try_resume(&path, &other).expect_err("fingerprint differs");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = scratch("torn");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            Sink::<f64>::append(&j, 0, 1, &[2.0], &[]).expect("append");
        }
        // Simulate a crash mid-append: a truncated chunk line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen");
            write!(f, "c 3 2 00000000000").expect("torn write");
        }
        let j = Journal::try_resume(&path, &spec).expect("resume survives the tear");
        assert_eq!(j.completed_items(), 1);
        assert_eq!(Sink::<f64>::replay(&j, 0), Some(Some(2.0)));
        assert_eq!(Sink::<f64>::replay(&j, 3), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_lines_are_skipped_but_complete_out_of_range_lines_are_corruption() {
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        assert_eq!(parse_chunk_line("", &spec), ChunkLine::Malformed);
        assert_eq!(
            parse_chunk_line("x 0 1 0000000000000000 0000000000000000", &spec),
            ChunkLine::Malformed
        );
        // Trailing garbage.
        assert_eq!(
            parse_chunk_line("c 0 1 0000000000000000 0000000000000000 junk", &spec),
            ChunkLine::Malformed
        );
        // A *complete* line indexing past the end of the run is not tear
        // damage — it is evidence the journal belongs to another run.
        assert_eq!(
            parse_chunk_line(
                "c 3 2 0000000000000000 0000000000000000 0000000000000000 0000000000000000",
                &spec
            ),
            ChunkLine::OutOfRange { start: 3, count: 2 }
        );
        // ... but the same range *truncated* is an ordinary torn line.
        assert_eq!(
            parse_chunk_line("c 3 2 0000000000000000 0000000000000000 00000000", &spec),
            ChunkLine::Malformed
        );
        // A well-formed line parses.
        match parse_chunk_line("c 1 1 0000000000000000 3ff8000000000000", &spec) {
            ChunkLine::Chunk(start, items) => {
                assert_eq!(start, 1);
                assert_eq!(items, vec![vec![0, 1.5_f64.to_bits()]]);
            }
            other => panic!("expected a chunk, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_a_journal_with_out_of_range_chunks() {
        let path = scratch("out-of-range");
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            Sink::<f64>::append(&j, 0, 1, &[2.0], &[]).expect("append");
        }
        // Splice in a complete chunk line from a longer run: same header
        // shape, indices past the end of this run's 4-item space.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen");
            writeln!(
                f,
                "c 6 2 0000000000000000 3ff0000000000000 0000000000000000 4000000000000000"
            )
            .expect("splice");
        }
        let err = Journal::try_resume(&path, &spec).expect_err("corruption is fatal");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "{msg}");
        assert!(
            msg.contains("6..8") && msg.contains("only 4 items"),
            "the error names the offending counts: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_kind_items_and_params() {
        let a = JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 2]);
        let b = JournalSpec::for_run::<f64>("raster", 100, &[1, 2]);
        let c = JournalSpec::for_run::<f64>("montecarlo", 101, &[1, 2]);
        let d = JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 3]);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_ne!(a.fingerprint, d.fingerprint);
        assert_eq!(
            a,
            JournalSpec::for_run::<f64>("montecarlo", 100, &[1, 2]),
            "specs are deterministic"
        );
    }
}
