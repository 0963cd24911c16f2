//! The evaluation engine.
//!
//! Every headline exhibit — the Fig. 6b isoline uncertainty band, the joint
//! Monte-Carlo summary, the capacity sweep, the design-space ranking —
//! reduces to thousands of *independent* tCDP evaluations over an index
//! space. [`try_map_indexed`] is the one engine they all run on. It shards
//! the index space across `std::thread::scope` workers (the pattern proven
//! by `ppatc-lint`'s per-file stage) while keeping the results
//! **byte-identical to a serial run for any worker count**:
//!
//! - each work item is a pure function of its index (Monte-Carlo samples
//!   draw from counter-indexed [`SplitMix64::stream`]s, grid points from
//!   their coordinates), so no draw-order coupling exists to begin with;
//! - workers steal fixed-size *chunks* of the index range, and the chunks
//!   are merged back into index order before any reduction — so sorts,
//!   sums, and quantiles see exactly the serial operand order.
//!
//! # Supervision
//!
//! Every run is supervised. A [`RunBudget`] (cooperative [`CancelToken`] +
//! polled wall-clock deadline) is checked at every chunk boundary, and an
//! interrupted run returns [`PpatcError::Interrupted`] carrying the
//! completed-index set instead of discarding partial work. A panicking
//! chunk is re-run item by item, so the panic is pinned to its index in
//! [`Outcomes::panicked`] instead of unwinding the scope. An optional
//! [`Sink`] — a crash-safe [`Journal`](crate::checkpoint::Journal) —
//! persists completed chunks and replays journaled items on resume,
//! byte-identical to an uninterrupted run because every item is a pure
//! function of its index. An unsupervised run is just
//! [`RunBudget::unlimited`] with no sink.
//!
//! [`SplitMix64::stream`]: ppatc_units::rng::SplitMix64::stream

use crate::checkpoint::{Checkpointable, Journal, JournalSpec};
use crate::error::{InterruptReason, PpatcError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Smallest number of items a worker claims at once. Large enough that the
/// fetch-add and the per-run allocation amortize over real work; small
/// enough that a 5-point capacity sweep still spreads across workers.
const MIN_CHUNK: usize = 1;

/// Upper bound on the chunk size, keeping late-arriving workers from
/// starving on very large index spaces and batch buffers cache-sized.
const MAX_CHUNK: usize = 1024;

/// The default worker count: one per available core (1 when parallelism
/// cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The work one engine run maps over an index space.
///
/// Any `Fn(usize) -> T + Sync` closure is a kernel whose batch is the plain
/// map of its items. A kernel that can hoist work shared by a run of
/// consecutive items overrides [`Kernel::batch`], the way
/// [`RatioSource::tcdp_ratio_batch`](crate::montecarlo::RatioSource::tcdp_ratio_batch)
/// does for Monte-Carlo samples.
pub trait Kernel: Sync {
    /// The value of one item.
    type Item: Send;

    /// Evaluates item `i` — a pure function of the index.
    fn item(&self, i: usize) -> Self::Item;

    /// Appends items `start..end` to `out` in index order.
    ///
    /// The default maps [`Kernel::item`]. An override may hoist work that
    /// is constant across items (the hoisted values are the ones a per-item
    /// evaluation would recompute) but must stay bit-identical to the
    /// default: chunk boundaries differ between worker counts. The engine
    /// checks that exactly `end - start` items were appended and re-runs a
    /// wrong-size or panicking batch item by item.
    fn batch(&self, start: usize, end: usize, out: &mut Vec<Self::Item>) {
        out.extend((start..end).map(|i| self.item(i)));
    }
}

impl<T: Send, F: Fn(usize) -> T + Sync> Kernel for F {
    type Item = T;

    fn item(&self, i: usize) -> T {
        self(i)
    }
}

/// A checkpoint sink for one engine run: it replays the items an earlier
/// run journaled and persists every chunk this run completes.
/// [`Journal`] implements it for every
/// [`Checkpointable`](crate::checkpoint::Checkpointable) item type.
pub trait Sink<T>: Sync {
    /// Rejects a run of `n` items the sink was not opened for.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] naming the mismatch.
    fn check_run(&self, n: usize) -> Result<(), PpatcError>;

    /// The journaled outcome of item `i`: `Some(Some(value))`, `Some(None)`
    /// for an item journaled as a panic, or `None` when it must be
    /// evaluated.
    fn replay(&self, i: usize) -> Option<Option<T>>;

    /// Persists the completed chunk `start..end`: `values` holds its items
    /// in index order, skipping the ascending `panicked` indices.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] when the chunk cannot be persisted.
    fn append(
        &self,
        start: usize,
        end: usize,
        values: &[T],
        panicked: &[usize],
    ) -> Result<(), PpatcError>;
}

/// The items of one completed engine run.
///
/// Values are stored plain, with the panicked indices kept beside them, so
/// a run costs one `T` per item whatever the error type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcomes<T> {
    /// The values of the items that completed, in index order. A panicked
    /// item has no entry.
    pub values: Vec<T>,
    /// The indices whose item panicked, ascending.
    pub panicked: Vec<usize>,
}

impl<T> Outcomes<T> {
    /// Every item's value, for runs a missing item would misreport (a
    /// raster, a ranking, a sweep table).
    ///
    /// # Errors
    ///
    /// [`PpatcError::WorkerPanic`] naming the first panicked index.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_into_values(self) -> Result<Vec<T>, PpatcError> {
        match self.panicked.first() {
            Some(&index) => Err(PpatcError::WorkerPanic { index }),
            None => Ok(self.values),
        }
    }
}

/// Evaluates `kernel` for every index in `0..n` across `jobs` workers under
/// `budget`, returning the items in index order — byte-identical to
/// `(0..n).map(|i| kernel.item(i))` for every worker count.
///
/// - **Chunked work stealing.** `jobs` is clamped to `[1, n]`; workers
///   claim chunks of `(n / (jobs·8)).clamp(1, 1024)` indices, so a slow
///   chunk does not serialize the run. `jobs <= 1` runs inline on the
///   caller's thread and extends one output `Vec` in place.
/// - **Budget.** `budget` is polled before every chunk is claimed; a
///   cancelled or expired run returns [`PpatcError::Interrupted`] with the
///   completed-index set. In-flight chunks finish first.
/// - **Unwind boundary.** One `catch_unwind` wraps each chunk's batch. A
///   chunk that panics or appends the wrong number of items is re-run item
///   by item, each under its own boundary, so a panic lands in
///   [`Outcomes::panicked`] at its exact index and siblings are unaffected.
/// - **Sink.** With a `sink`, journaled items are replayed instead of
///   evaluated (a chunk holding any of them runs item by item), and every
///   chunk with fresh items is persisted before its worker claims another.
///
/// # Errors
///
/// [`PpatcError::Interrupted`] when the budget stops the run (chunks
/// completed before the interrupt *are* persisted, so a resumed run skips
/// them), [`PpatcError::Checkpoint`] when the sink does not match the run
/// or cannot be written.
#[must_use = "this returns a Result that must be handled"]
pub fn try_map_indexed<K: Kernel>(
    n: usize,
    jobs: usize,
    budget: &RunBudget,
    sink: Option<&dyn Sink<K::Item>>,
    kernel: K,
) -> Result<Outcomes<K::Item>, PpatcError> {
    if let Some(s) = sink {
        s.check_run(n)?;
    }
    let jobs = jobs.clamp(1, n.max(1));
    let inline = jobs == 1;
    // Aim for several chunks per worker so the tail balances.
    let chunk = (n / (jobs * 8)).clamp(MIN_CHUNK, MAX_CHUNK);
    let next = AtomicUsize::new(0);
    // The first stop reason wins; every worker checks it between chunks.
    let stop: OnceLock<Stop> = OnceLock::new();

    let worker = || {
        let mut claimed = Claimed {
            runs: Vec::new(),
            panicked: Vec::new(),
        };
        while stop.get().is_none() {
            if let Err(reason) = budget.check() {
                let _ = stop.set(Stop::Interrupted(reason));
                break;
            }
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            // The inline worker claims chunks in index order, so it grows
            // one run that becomes the output; parallel workers keep one
            // exact-size run per chunk for the merge.
            if !inline || claimed.runs.is_empty() {
                let capacity = if inline { n } else { end - start };
                claimed
                    .runs
                    .push((start, start, Vec::with_capacity(capacity)));
            }
            let Some(run) = claimed.runs.last_mut() else {
                break;
            };
            if let Err(e) = run_chunk(&kernel, sink, start, end, &mut run.2, &mut claimed.panicked)
            {
                let _ = stop.set(Stop::Failed(e));
                break;
            }
            run.1 = end;
        }
        claimed
    };

    let claims: Vec<Claimed<K::Item>> = if inline {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let mut runs: Vec<(usize, usize, Vec<K::Item>)> = Vec::new();
    let mut panicked: Vec<usize> = Vec::new();
    for c in claims {
        runs.extend(c.runs);
        panicked.extend(c.panicked);
    }
    runs.sort_unstable_by_key(|run| run.0);
    match stop.into_inner() {
        Some(Stop::Failed(e)) => Err(e),
        Some(Stop::Interrupted(reason)) => Err(PpatcError::Interrupted {
            reason,
            completed: coalesce_completed(&runs),
            total: n,
        }),
        None => {
            panicked.sort_unstable();
            let values = if runs.len() == 1 {
                runs.pop().map(|run| run.2).unwrap_or_default()
            } else {
                let mut values = Vec::with_capacity(runs.iter().map(|run| run.2.len()).sum());
                for run in runs {
                    values.extend(run.2);
                }
                values
            };
            Ok(Outcomes { values, panicked })
        }
    }
}

/// Evaluates `f(i)` for every `i in 0..n` across `jobs` workers and returns
/// the results **in index order** — byte-identical to
/// `(0..n).map(f).collect()` for every worker count. The unsupervised
/// face of [`try_map_indexed`].
///
/// # Panics
///
/// Panics when an item panics, naming its index.
pub fn par_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_map_indexed(n, jobs, &RunBudget::unlimited(), None, f)
        .and_then(Outcomes::try_into_values)
    {
        Ok(values) => values,
        Err(e) => panic!("{e}"),
    }
}

/// Why a run stopped before claiming every chunk.
enum Stop {
    Interrupted(InterruptReason),
    Failed(PpatcError),
}

/// What one worker claimed: `(start, end, values)` runs and the indices
/// that panicked.
struct Claimed<T> {
    runs: Vec<(usize, usize, Vec<T>)>,
    panicked: Vec<usize>,
}

/// Evaluates the chunk `start..end`, appending its values to `out` and its
/// panicked indices to `panicked`, replaying from and persisting to `sink`.
fn run_chunk<K: Kernel>(
    kernel: &K,
    sink: Option<&dyn Sink<K::Item>>,
    start: usize,
    end: usize,
    out: &mut Vec<K::Item>,
    panicked: &mut Vec<usize>,
) -> Result<(), PpatcError> {
    let (base, panicked_base) = (out.len(), panicked.len());
    let replayed: Vec<Option<Option<K::Item>>> = match sink {
        Some(s) => (start..end).map(|i| s.replay(i)).collect(),
        None => Vec::new(),
    };
    let fresh = replayed.is_empty() || replayed.iter().any(Option::is_none);
    // Each item is a pure function of its index over read-only inputs, and
    // a failed batch's partial output is truncated away below, so no broken
    // invariant can leak across the unwind boundary: AssertUnwindSafe is
    // sound here.
    let batched = replayed.iter().all(Option::is_none)
        && catch_unwind(AssertUnwindSafe(|| kernel.batch(start, end, out))).is_ok()
        && out.len() == base + (end - start);
    if !batched {
        out.truncate(base);
        let mut replayed = replayed.into_iter();
        for i in start..end {
            match replayed.next().flatten() {
                Some(Some(value)) => out.push(value),
                Some(None) => panicked.push(i),
                None => match catch_unwind(AssertUnwindSafe(|| kernel.item(i))) {
                    Ok(value) => out.push(value),
                    Err(_) => panicked.push(i),
                },
            }
        }
    }
    match sink {
        Some(s) if fresh => s.append(start, end, &out[base..], &panicked[panicked_base..]),
        _ => Ok(()),
    }
}

/// A cooperative cancellation handle: clone it, hand one clone to a
/// [`RunBudget`], and call [`CancelToken::cancel`] from any thread (a
/// signal handler, a UI, a watchdog) to stop supervised runs at their next
/// chunk boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Bounds one supervised run: an optional [`CancelToken`] and an optional
/// wall-clock deadline, both polled at chunk boundaries (cheap: one atomic
/// load and one `Instant::now`). The default budget is unlimited.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl RunBudget {
    /// A budget with no bounds (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token (stored as a clone; cancelling the
    /// caller's token stops the run).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Bounds the run by an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the run by a wall-clock timeout from now.
    #[must_use]
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Whether this budget imposes no bounds at all.
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// Polls the budget: `Err` with the reason once cancelled or past the
    /// deadline. Called by the engine at every chunk boundary.
    pub fn check(&self) -> Result<(), InterruptReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(InterruptReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(InterruptReason::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// The matching per-solve [`ppatc_spice::SolverBudget`], sharing this
    /// budget's deadline — so a run-level deadline also stops a SPICE
    /// recovery ladder or transient loop stuck inside one work item.
    pub fn solver_budget(&self) -> ppatc_spice::SolverBudget {
        match self.deadline {
            Some(d) => ppatc_spice::SolverBudget::unlimited().with_deadline(d),
            None => ppatc_spice::SolverBudget::unlimited(),
        }
    }
}

/// Everything an operation's one fallible call needs beyond its inputs:
/// the [`RunBudget`], and optionally a checkpoint journal path plus whether
/// to resume from it. The default supervisor is unlimited and
/// journal-free.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    budget: RunBudget,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

impl Supervisor {
    /// An unlimited supervisor with no checkpoint journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the run budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Journals completed chunks to `path` (created fresh unless
    /// [`Supervisor::resuming`] is set).
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Whether to reload completed items from an existing checkpoint
    /// journal instead of truncating it.
    #[must_use]
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The run budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Opens this supervisor's journal for a run described by `spec`, as
    /// the [`Sink`] of [`try_map_indexed`]: `None` when no checkpoint path
    /// is configured, a fresh journal when not resuming, a reloaded one
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Checkpoint`] on I/O failure or a spec mismatch with an
    /// existing journal.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_open_journal<T: Checkpointable>(
        &self,
        spec: &JournalSpec,
    ) -> Result<Option<Box<dyn Sink<T>>>, PpatcError> {
        let journal = match &self.checkpoint {
            None => return Ok(None),
            Some(path) if self.resume => Journal::try_resume(path, spec)?,
            Some(path) => Journal::try_create(path, spec)?,
        };
        Ok(Some(Box::new(journal)))
    }
}

/// Coalesces index-sorted disjoint `(start, end, _)` runs into sorted,
/// disjoint half-open `[start, end)` spans for
/// [`PpatcError::Interrupted::completed`].
fn coalesce_completed<T>(runs: &[(usize, usize, T)]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for &(start, end, _) in runs {
        match spans.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => spans.push((start, end)),
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collision-free scratch path for one test.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppatc-eval-{}-{name}.txt", std::process::id()))
    }

    /// The reference item function of the engine tests.
    fn f(i: usize) -> f64 {
        (i as f64).sqrt().sin() / (i as f64 + 0.5)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The fault a table case injects.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Clean,
        PanicAt(usize),
        WrongSizeBatch,
    }

    /// `f` with `fault` injected, evaluated item by item.
    #[derive(Clone, Copy)]
    struct ItemOnly(Fault);

    impl Kernel for ItemOnly {
        type Item = f64;

        fn item(&self, i: usize) -> f64 {
            if let Fault::PanicAt(k) = self.0 {
                assert!(i != k, "injected panic at item {k}");
            }
            f(i)
        }
    }

    /// [`ItemOnly`] with a batch override: one pass over the chunk, one
    /// value short when the fault asks for a wrong-size batch.
    #[derive(Clone, Copy)]
    struct Batched(Fault);

    impl Kernel for Batched {
        type Item = f64;

        fn item(&self, i: usize) -> f64 {
            ItemOnly(self.0).item(i)
        }

        fn batch(&self, start: usize, end: usize, out: &mut Vec<f64>) {
            let take = match self.0 {
                Fault::WrongSizeBatch => end - start - 1,
                _ => end - start,
            };
            out.extend((start..start + take).map(|i| self.item(i)));
        }
    }

    /// A kernel that fails the test if the engine evaluates anything.
    struct MustReplay;

    impl Kernel for MustReplay {
        type Item = f64;

        fn item(&self, i: usize) -> f64 {
            panic!("item {i} must be replayed, not recomputed")
        }

        fn batch(&self, start: usize, _end: usize, _out: &mut Vec<f64>) {
            panic!("batch at {start} must be replayed, not recomputed")
        }
    }

    /// How a table case journals.
    #[derive(Clone, Copy, Debug)]
    enum Journaling {
        None,
        Fresh,
        FullResume,
    }

    /// Runs `kernel` over `n` items as `journaling` asks; a full resume
    /// first journals a complete run, then replays it with [`MustReplay`].
    fn run_case<K: Kernel<Item = f64>>(
        n: usize,
        jobs: usize,
        journaling: Journaling,
        kernel: K,
        label: &str,
    ) -> Outcomes<f64> {
        let unlimited = RunBudget::unlimited();
        let path = scratch(label);
        let spec = JournalSpec::for_run::<f64>("evaltest", n, &[7]);
        let outcomes = match journaling {
            Journaling::None => try_map_indexed(n, jobs, &unlimited, None, kernel),
            Journaling::Fresh => {
                let journal = Journal::try_create(&path, &spec).expect("create journal");
                let out = try_map_indexed(n, jobs, &unlimited, Some(&journal), kernel);
                let reloaded = Journal::try_resume(&path, &spec).expect("reload journal");
                assert_eq!(
                    reloaded.completed_items(),
                    n,
                    "{label}: every item journaled"
                );
                out
            }
            Journaling::FullResume => {
                {
                    let journal = Journal::try_create(&path, &spec).expect("create journal");
                    try_map_indexed(n, jobs, &unlimited, Some(&journal), kernel)
                        .expect("first leg completes");
                }
                let journal = Journal::try_resume(&path, &spec).expect("resume journal");
                try_map_indexed(n, jobs, &unlimited, Some(&journal), MustReplay)
            }
        };
        let _ = std::fs::remove_file(&path);
        outcomes.expect("an unlimited run completes")
    }

    #[test]
    fn every_engine_case_matches_the_serial_map() {
        let n = 300;
        let k = 137;
        for jobs in [1, 2, 3, 8] {
            for batched in [false, true] {
                for journaling in [Journaling::None, Journaling::Fresh, Journaling::FullResume] {
                    for fault in [Fault::Clean, Fault::PanicAt(k), Fault::WrongSizeBatch] {
                        if fault == Fault::WrongSizeBatch && !batched {
                            // The default batch maps items; it cannot miscount.
                            continue;
                        }
                        let label = format!("case-{jobs}-{batched}-{journaling:?}-{fault:?}");
                        let got = if batched {
                            run_case(n, jobs, journaling, Batched(fault), &label)
                        } else {
                            run_case(n, jobs, journaling, ItemOnly(fault), &label)
                        };
                        let pinned: Vec<usize> = match fault {
                            Fault::PanicAt(k) => vec![k],
                            _ => Vec::new(),
                        };
                        let want: Vec<f64> =
                            (0..n).filter(|i| !pinned.contains(i)).map(f).collect();
                        assert_eq!(got.panicked, pinned, "{label}: panicked indices");
                        assert_eq!(bits(&got.values), bits(&want), "{label}: values");
                        match got.try_into_values() {
                            Ok(_) => assert!(pinned.is_empty(), "{label}"),
                            Err(e) => {
                                assert_eq!(e, PpatcError::WorkerPanic { index: k }, "{label}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn par_map_indexed_handles_small_inputs_and_edge_counts() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 1), vec![1]);
        assert_eq!(par_map_indexed(3, 100, |i| i), vec![0, 1, 2]);
        assert_eq!(par_map_indexed(5, 0, |i| i), vec![0, 1, 2, 3, 4]);
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map_indexed(1000, jobs, |i| i * i),
                (0..1000).map(|i| i * i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "item 37")]
    fn par_map_indexed_panics_its_caller_on_a_panicking_item() {
        let _ = par_map_indexed(100, 4, |i| {
            assert!(i != 37, "deterministic injected panic");
            i
        });
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let budget = RunBudget::unlimited().with_cancel(&token);
        let calls = AtomicUsize::new(0);
        let err = try_map_indexed(1000, 4, &budget, None, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .expect_err("cancelled before the first chunk");
        match err {
            PpatcError::Interrupted {
                reason,
                completed,
                total,
            } => {
                assert_eq!(reason, InterruptReason::Cancelled);
                assert!(completed.is_empty(), "{completed:?}");
                assert_eq!(total, 1000);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no item was evaluated");
    }

    #[test]
    fn expired_deadline_interrupts_with_a_typed_reason() {
        let budget = RunBudget::unlimited().with_deadline(Instant::now());
        let err = try_map_indexed(100, 2, &budget, None, |i| i)
            .expect_err("an already-expired deadline stops the run");
        assert!(
            matches!(
                err,
                PpatcError::Interrupted {
                    reason: InterruptReason::DeadlineExpired,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn mid_run_cancellation_keeps_partial_work() {
        // The closure itself trips the token after 96 calls; jobs = 1 makes
        // the call count deterministic. Cancellation is observed at the
        // next chunk boundary, so the in-flight chunk still completes.
        let token = CancelToken::new();
        let budget = RunBudget::unlimited().with_cancel(&token);
        let calls = AtomicUsize::new(0);
        let err = try_map_indexed(1000, 1, &budget, None, |i| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 96 {
                token.cancel();
            }
            i
        })
        .expect_err("cancelled mid-run");
        match err {
            PpatcError::Interrupted {
                reason, completed, ..
            } => {
                assert_eq!(reason, InterruptReason::Cancelled);
                let done: usize = completed.iter().map(|&(s, e)| e - s).sum();
                assert!((96..1000).contains(&done), "partial work kept: {done}");
            }
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn coalesce_merges_adjacent_chunks() {
        let runs = vec![(0, 2, ()), (2, 3, ()), (5, 7, ())];
        assert_eq!(coalesce_completed(&runs), vec![(0, 3), (5, 7)]);
        assert_eq!(coalesce_completed::<u8>(&[]), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn interrupt_then_resume_is_identical_to_uninterrupted() {
        let path = scratch("resume");
        let n = 800;
        let spec = JournalSpec::for_run::<f64>("evaltest", n, &[11]);
        let g = |i: usize| (i as f64).cos() * 3.0;
        let reference: Vec<u64> = (0..n).map(|i| g(i).to_bits()).collect();

        // Interrupted first leg: cancel after ~a third of the items.
        let token = CancelToken::new();
        let budget = RunBudget::unlimited().with_cancel(&token);
        let calls = AtomicUsize::new(0);
        {
            let journal = Journal::try_create(&path, &spec).expect("create journal");
            let err = try_map_indexed(n, 1, &budget, Some(&journal), |i| {
                if calls.fetch_add(1, Ordering::Relaxed) + 1 == n / 3 {
                    token.cancel();
                }
                g(i)
            })
            .expect_err("first leg is cancelled");
            match err {
                PpatcError::Interrupted { completed, .. } => {
                    let done: usize = completed.iter().map(|&(s, e)| e - s).sum();
                    assert!(done > 0 && done < n, "partial first leg: {done}");
                }
                other => panic!("expected Interrupted, got {other}"),
            }
        }

        // Resumed second leg: unlimited budget, journaled items replayed.
        let journal = Journal::try_resume(&path, &spec).expect("resume journal");
        assert!(
            journal.completed_items() > 0,
            "the first leg journaled its chunks"
        );
        let resumed = try_map_indexed(n, 4, &RunBudget::unlimited(), Some(&journal), g)
            .and_then(Outcomes::try_into_values)
            .expect("second leg completes");
        assert_eq!(bits(&resumed), reference, "resume is byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_item_count_mismatch_is_rejected() {
        let path = scratch("mismatch");
        let spec = JournalSpec::for_run::<f64>("evaltest", 10, &[]);
        let journal = Journal::try_create(&path, &spec).expect("create journal");
        let err = try_map_indexed(11, 1, &RunBudget::unlimited(), Some(&journal), |i| i as f64)
            .expect_err("item count differs from the spec");
        assert!(matches!(err, PpatcError::Checkpoint { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_budget_reports_reasons_in_priority_order() {
        assert!(RunBudget::unlimited().is_unlimited());
        assert_eq!(RunBudget::unlimited().check(), Ok(()));
        let token = CancelToken::new();
        let both = RunBudget::unlimited()
            .with_cancel(&token)
            .with_deadline_in(Duration::ZERO);
        assert!(!both.is_unlimited());
        // Deadline already expired, token not yet cancelled.
        assert_eq!(both.check(), Err(InterruptReason::DeadlineExpired));
        token.cancel();
        // Cancellation is checked first.
        assert_eq!(both.check(), Err(InterruptReason::Cancelled));
        // The derived solver budget shares the deadline.
        assert!(both.solver_budget().exhausted(0));
        assert!(RunBudget::unlimited().solver_budget().is_unlimited());
    }
}
