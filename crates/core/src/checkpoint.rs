//! Crash-safe, line-oriented append-logs, and the checkpoint journal of
//! supervised runs built on one.
//!
//! # Append-log
//!
//! [`AppendLog`] is the one file primitive behind every crash-recovery
//! journal in the workspace: the checkpoint [`Journal`] here and the
//! serve crate's warm-cache journal. A log is a text file holding one
//! header line that names the run it belongs to, then body lines, each
//! appended whole and flushed under a lock. Its crash policy:
//!
//! - a line is complete only when it ends in `\n`;
//! - an unterminated final line is a tear (a crash mid-append): recovery
//!   discards it and cuts it off the file before anything is appended, and
//!   a file with no complete line at all counts as missing;
//! - a complete header that differs from the expected one means the file
//!   belongs to a different run, and recovery refuses it;
//! - every complete body line must parse under the caller's grammar;
//!   otherwise recovery fails with a typed error naming the line.
//!
//! Rewriting a log (compaction) writes a sibling `<path>.tmp`, syncs it
//! and renames it over the log, so a crash mid-rewrite leaves the old file
//! whole.
//!
//! # Checkpoint journal
//!
//! A [`Journal`] records completed work items of one supervised parallel
//! run (see [`crate::eval::try_map_indexed`]): one
//! `c <start> <count> <words...>` line per completed chunk, each item a tag
//! word followed by its value as fixed-width hexadecimal `u64` words. A
//! crash costs at most the one chunk whose line it tore.
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
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Tag word marking a journaled item that evaluated successfully.
const TAG_OK: u64 = 0;
/// Tag word marking a journaled item whose closure panicked (the panic is
/// deterministic, so it is journaled and replayed as
/// [`PpatcError::WorkerPanic`] instead of re-unwinding on resume).
const TAG_PANICKED: u64 = 1;

/// Seed for header fingerprints (the SplitMix64 golden-gamma constant; any
/// fixed odd value works).
const FINGERPRINT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold step of a header fingerprint.
fn fold(acc: u64, word: u64) -> u64 {
    SplitMix64::new(acc ^ word).next_u64()
}

/// Fingerprint of a log's identity: the bytes of `label`, then `words`
/// (every parameter that changes what the log's lines mean), folded
/// through SplitMix64. Written into a header, it makes a log written for
/// different parameters fail the header check instead of replaying.
pub fn fingerprint(label: &str, words: impl IntoIterator<Item = u64>) -> u64 {
    label
        .bytes()
        .map(u64::from)
        .chain(words)
        .fold(FINGERPRINT_SEED, fold)
}

/// How one kind of append-log names itself in error messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogKind {
    /// What the file is, e.g. `"journal"`.
    pub noun: &'static str,
    /// What a foreign header means the file was written for, e.g. `"run"`.
    pub owner: &'static str,
}

/// Wraps an I/O failure on a log file as a [`PpatcError::Checkpoint`].
fn journal_error(kind: LogKind, path: &Path, action: &str, e: &std::io::Error) -> PpatcError {
    PpatcError::Checkpoint {
        detail: format!("could not {action} {} {}: {e}", kind.noun, path.display()),
    }
}

/// A header line plus complete, flushed body lines; see the module docs
/// for the crash policy. Callers own the line grammar: they hand in
/// formatted lines and a parser for them.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    kind: LogKind,
    file: Mutex<File>,
}

impl AppendLog {
    /// Replaces whatever is at `path` with a log holding `header` and then
    /// `lines`, atomically: the text goes to a sibling `<path>.tmp`, is
    /// synced, and is renamed over `path`. Returns the log open for
    /// appending. With no lines this creates a fresh log.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the temporary file cannot be created or
    /// written, or the rename fails; `path` is then left as it was.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_rewrite(
        path: impl Into<PathBuf>,
        kind: LogKind,
        header: &str,
        lines: impl IntoIterator<Item = String>,
    ) -> Result<Self, PpatcError> {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut text = format!("{header}\n");
        for line in lines {
            text.push_str(&line);
            text.push('\n');
        }
        let mut file = File::create(&tmp).map_err(|e| journal_error(kind, &tmp, "create", &e))?;
        // Synced, not just flushed: the rename must never replace a whole
        // log with one whose bytes are not yet on disk.
        file.write_all(text.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| journal_error(kind, &tmp, "write", &e))?;
        std::fs::rename(&tmp, &path).map_err(|e| journal_error(kind, &path, "replace", &e))?;
        Ok(Self {
            path,
            kind,
            file: Mutex::new(file),
        })
    }

    /// Reads the log at `path` without changing it: the byte length of its
    /// complete lines and each body line run through `parse`, in file
    /// order. A missing file, or one without a complete line, reads as
    /// `(0, [])`. `parse` returns why a line is bad as a predicate phrase
    /// (`"is not a chunk line"`).
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be read, its header is
    /// not `header`, or a complete body line is not UTF-8 or fails `parse`.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_read<T>(
        path: &Path,
        kind: LogKind,
        header: &str,
        mut parse: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<(u64, Vec<T>), PpatcError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, Vec::new())),
            Err(e) => return Err(journal_error(kind, path, "read", &e)),
        };
        // Only lines ending in '\n' are complete; what follows the last one
        // is a tear.
        let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
            return Ok((0, Vec::new()));
        };
        let mut lines = bytes[..end].split(|&b| b == b'\n');
        let found = lines.next().unwrap_or_default();
        if found != header.as_bytes() {
            return Err(PpatcError::Checkpoint {
                detail: format!(
                    "{} {} belongs to a different {}: found header '{}', expected '{header}'",
                    kind.noun,
                    path.display(),
                    kind.owner,
                    String::from_utf8_lossy(found)
                ),
            });
        }
        let mut body = Vec::new();
        for (number, line) in lines.enumerate() {
            let item = std::str::from_utf8(line)
                .map_err(|_| "is not UTF-8 text".to_string())
                .and_then(&mut parse)
                .map_err(|reason| PpatcError::Checkpoint {
                    detail: format!(
                        "{} {} is corrupt: line {} {reason} — refusing to recover from a \
                         damaged or spliced file",
                        kind.noun,
                        path.display(),
                        number + 2
                    ),
                })?;
            body.push(item);
        }
        Ok((end as u64 + 1, body))
    }

    /// Recovers the log at `path` ([`AppendLog::try_read`]), cuts a torn
    /// tail off the file, and opens it for appending; a missing log is
    /// created fresh. Returns the log and its parsed body lines.
    ///
    /// # Errors
    ///
    /// As [`AppendLog::try_read`] and [`AppendLog::try_rewrite`], plus a
    /// failure to reopen or truncate the file.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_open<T>(
        path: impl Into<PathBuf>,
        kind: LogKind,
        header: &str,
        parse: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<(Self, Vec<T>), PpatcError> {
        let path = path.into();
        let (complete, body) = Self::try_read(&path, kind, header, parse)?;
        if complete == 0 {
            return Ok((Self::try_rewrite(path, kind, header, [])?, body));
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|file| file.set_len(complete).map(|()| file))
            .map_err(|e| journal_error(kind, &path, "reopen for append", &e))?;
        Ok((
            Self {
                path,
                kind,
                file: Mutex::new(file),
            },
            body,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `line` (without its `\n`) as one flushed write.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the write or flush fails.
    #[must_use = "this returns a Result that must be handled"]
    pub fn append(&self, mut line: String) -> Result<(), PpatcError> {
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| journal_error(self.kind, &self.path, "append to", &e))
    }
}

/// How checkpoint journals name themselves in errors.
const JOURNAL: LogKind = LogKind {
    noun: "journal",
    owner: "run",
};

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
        let words = [items as u64, T::WIDTH as u64];
        Self {
            kind,
            items,
            item_width: T::WIDTH,
            fingerprint: fingerprint(kind, words.into_iter().chain(params.iter().copied())),
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

/// An append-only checkpoint journal bound to one run spec.
///
/// Create with [`Journal::try_create`] (fresh run) or
/// [`Journal::try_resume`] (reload completed items, then keep appending),
/// then pass to [`crate::eval::try_map_indexed`] as its [`Sink`]. Each
/// chunk is one flushed line of the underlying [`AppendLog`], so a crash
/// loses at most the in-flight line.
pub struct Journal {
    log: AppendLog,
    spec: JournalSpec,
    /// Items reloaded by [`Journal::try_resume`], keyed by index; each
    /// value is the `[tag, payload...]` word run from the file.
    preloaded: HashMap<usize, Vec<u64>>,
}

impl core::fmt::Debug for Journal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.log.path())
            .field("spec", &self.spec)
            .field("preloaded", &self.preloaded.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates (replacing) a fresh journal at `path` holding only its
    /// header.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be created or written.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_create(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        Ok(Self {
            log: AppendLog::try_rewrite(path, JOURNAL, &spec.header_line(), [])?,
            spec: spec.clone(),
            preloaded: HashMap::new(),
        })
    }

    /// Opens the journal at `path` under the append-log crash policy
    /// (module docs), reloads every chunk line, and keeps appending to it.
    /// A missing file, or one without a complete line, starts a fresh
    /// journal.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] if the file cannot be read or reopened,
    /// if its header does not match `spec` (resuming a different run would
    /// silently splice unrelated results), or if a complete line is not a
    /// chunk of this run — a tear cannot produce one, so the journal is
    /// damaged or belongs to another run.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_resume(path: impl Into<PathBuf>, spec: &JournalSpec) -> Result<Self, PpatcError> {
        let (log, chunks) = AppendLog::try_open(path, JOURNAL, &spec.header_line(), |line| {
            parse_chunk_line(line, spec)
        })?;
        Ok(Self {
            log,
            spec: spec.clone(),
            preloaded: chunks
                .into_iter()
                .flat_map(|(start, items)| (start..).zip(items))
                .collect(),
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
            detail: format!("journal {} {mismatch}", self.log.path().display()),
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
        self.log.append(line)
    }
}

/// Parses one complete `c <start> <count> <words...>` chunk line into its
/// start index and each item's `[tag, payload...]` words. `Err` says what
/// is wrong: a malformed line, an unknown tag word, or an index range past
/// the end of the run.
fn parse_chunk_line(line: &str, spec: &JournalSpec) -> Result<(usize, Vec<Vec<u64>>), String> {
    let malformed = || format!("is not a chunk line of width {}", spec.item_width);
    let tokens: Vec<&str> = line.split(' ').collect();
    let ["c", start, count, words @ ..] = tokens.as_slice() else {
        return Err(malformed());
    };
    let (Ok(start), Ok(count)) = (start.parse::<usize>(), count.parse::<usize>()) else {
        return Err(malformed());
    };
    let stride = spec.item_width.saturating_add(1);
    if count == 0 || count.checked_mul(stride) != Some(words.len()) {
        return Err(malformed());
    }
    let words = words
        .iter()
        .map(|w| u64::from_str_radix(w, 16))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|_| malformed())?;
    if start.checked_add(count).is_none_or(|end| end > spec.items) {
        return Err(format!(
            "claims items {start}..{} but the run spans only {} items",
            start.saturating_add(count),
            spec.items
        ));
    }
    let items: Vec<Vec<u64>> = words.chunks(stride).map(|item| item.to_vec()).collect();
    let mut tags = items.iter().filter_map(|item| item.first());
    if let Some(tag) = tags.find(|&&t| t != TAG_OK && t != TAG_PANICKED) {
        return Err(format!("has unknown tag word {tag:x}"));
    }
    Ok((start, items))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collision-free scratch path for one test.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppatc-journal-{}-{name}.txt", std::process::id()))
    }

    /// Appends raw bytes to `path`, as a crash mid-append or a hand edit
    /// would leave them.
    fn append_raw(path: &Path, bytes: &str) {
        let mut f = OpenOptions::new().append(true).open(path).expect("reopen");
        f.write_all(bytes.as_bytes()).expect("raw append");
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
    fn journal_bytes_are_pinned() {
        let path = scratch("pinned");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[42]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            Sink::<f64>::append(&j, 0, 2, &[1.5, -0.0], &[]).expect("append");
            Sink::<f64>::append(&j, 5, 7, &[2.0], &[6]).expect("append");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text,
            "ppatc-journal v1 kind=test items=10 width=1 fingerprint=e1330fb857c306e3\n\
             c 0 2 0000000000000000 3ff8000000000000 0000000000000000 8000000000000000\n\
             c 5 2 0000000000000000 4000000000000000 0000000000000001 0000000000000000\n"
        );
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
        let intact = std::fs::read(&path).expect("read back");
        // Simulate a crash mid-append: a truncated chunk line.
        append_raw(&path, "c 3 2 00000000000");
        let j = Journal::try_resume(&path, &spec).expect("resume survives the tear");
        assert_eq!(j.completed_items(), 1);
        assert_eq!(Sink::<f64>::replay(&j, 0), Some(Some(2.0)));
        assert_eq!(Sink::<f64>::replay(&j, 3), None);
        assert_eq!(
            std::fs::read(&path).expect("read back"),
            intact,
            "resume cuts the tear off the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_a_tear_never_replays_glued_values() {
        let path = scratch("glued");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        append_raw(&path, "c 0 3 0000000000000000 000");
        let j = Journal::try_resume(&path, &spec).expect("resume over the tear");
        Sink::<f64>::append(&j, 5, 6, &[2.0], &[]).expect("append");
        drop(j);
        let j = Journal::try_resume(&path, &spec).expect("second resume");
        for i in 0..3 {
            assert_eq!(
                Sink::<f64>::replay(&j, i),
                None,
                "item {i} was never computed"
            );
        }
        assert_eq!(Sink::<f64>::replay(&j, 5), Some(Some(2.0)));
        assert_eq!(j.completed_items(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_tag_words_are_corruption() {
        let path = scratch("unknown-tag");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        drop(Journal::try_create(&path, &spec).expect("create"));
        append_raw(&path, "c 0 1 0000000000000005 3ff8000000000000\n");
        let err = Journal::try_resume(&path, &spec).expect_err("tag 5 is neither ok nor panicked");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_malformed_complete_line_mid_file_is_refused() {
        let path = scratch("mid-file");
        let spec = JournalSpec::for_run::<f64>("test", 10, &[]);
        {
            let j = Journal::try_create(&path, &spec).expect("create");
            Sink::<f64>::append(&j, 0, 1, &[2.0], &[]).expect("append");
        }
        append_raw(&path, "c 1 1 zz\n");
        append_raw(&path, "c 2 1 0000000000000000 3ff0000000000000\n");
        let err = Journal::try_resume(&path, &spec).expect_err("mid-file damage is refused");
        let msg = err.to_string();
        assert!(msg.contains("corrupt") && msg.contains("line 3"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_lines_must_parse_and_fit_the_run() {
        let spec = JournalSpec::for_run::<f64>("test", 4, &[]);
        let malformed = "is not a chunk line of width 1";
        for line in [
            "",
            "x 0 1 0000000000000000 0000000000000000",
            "c 0 1 0000000000000000 0000000000000000 junk",
            "c 0 0",
            "c 3 2 0000000000000000 0000000000000000 00000000",
            "c 0 1 0000000000000000 3ff8zz0000000000",
        ] {
            assert_eq!(
                parse_chunk_line(line, &spec),
                Err(malformed.into()),
                "{line}"
            );
        }
        // A complete line indexing past the end of the run is evidence the
        // journal belongs to another run.
        assert_eq!(
            parse_chunk_line(
                "c 3 2 0000000000000000 0000000000000000 0000000000000000 0000000000000000",
                &spec
            ),
            Err("claims items 3..5 but the run spans only 4 items".into())
        );
        assert_eq!(
            parse_chunk_line("c 0 1 0000000000000005 0000000000000000", &spec),
            Err("has unknown tag word 5".into())
        );
        assert_eq!(
            parse_chunk_line("c 1 1 0000000000000000 3ff8000000000000", &spec),
            Ok((1, vec![vec![0, 1.5_f64.to_bits()]]))
        );
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
        append_raw(
            &path,
            "c 6 2 0000000000000000 3ff0000000000000 0000000000000000 4000000000000000\n",
        );
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
