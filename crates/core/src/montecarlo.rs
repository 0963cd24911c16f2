//! Monte-Carlo uncertainty analysis — the continuous generalization of
//! Fig. 6b.
//!
//! Fig. 6b perturbs one uncertainty source at a time; in reality lifetime,
//! use-phase carbon intensity, M3D yield, and the embodied/operational
//! model errors are *jointly* uncertain. This module samples all of them
//! at once and reports the probability that the M3D design ends up more
//! carbon-efficient, together with quantiles of the tCDP ratio — a
//! decision-grade summary ("M3D wins in 74% of futures") instead of a
//! family of isolines.
//!
//! # Sampling discipline
//!
//! Sample *i* is a **pure function of `(seed, i)`**: each sample draws from
//! its own counter-indexed [`SplitMix64::stream`], and each of the five
//! uncertainty sources always consumes exactly one draw (even when its
//! range is degenerate). Consequences:
//!
//! - results are reproducible from a seed, and sample *i* is identical
//!   whether the sweep draws 100 or 10 000 samples;
//! - the freeze-one-at-a-time sensitivity in [`try_sensitivity`] is
//!   properly *paired*: pinning one source leaves every other source's
//!   draws untouched, so the variance reduction it measures is exactly the
//!   pinned source's share;
//! - sweeps can be sharded across workers ([`try_run`]) with results
//!   byte-identical to the serial run for any worker count.
//!
//! # Fault isolation
//!
//! A sweep is only as robust as its worst sample: one NaN from a perturbed
//! model must not abort the other 9 999 samples. [`try_run`] therefore
//! evaluates each sample in isolation, classifies failures into a
//! [`FailureBreakdown`] by cause, and computes the statistics over the
//! survivors. A configurable [`MonteCarloConfig::failure_budget`] bounds the
//! tolerated failed fraction; exceeding it returns
//! [`PpatcError::FailureBudgetExceeded`] instead of silently reporting
//! statistics from a crippled sweep.

use crate::checkpoint::JournalSpec;
use crate::error::{check, PpatcError, ValidationError};
use crate::eval::{try_map_indexed, Kernel, Outcomes, RunBudget, Supervisor};
use crate::isoline::TcdpMap;
use crate::lifetime::Lifetime;
use ppatc_units::rng::SplitMix64;

/// Joint uncertainty ranges. Scales are sampled log-uniformly (a factor of
/// 2 up is as likely as a factor of 2 down); lifetimes and yields
/// uniformly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UncertaintyRanges {
    /// System lifetime, months (min, max).
    pub lifetime_months: (f64, f64),
    /// Scale on CI_use (min, max), log-uniform.
    pub ci_use_scale: (f64, f64),
    /// M3D die yield (min, max).
    pub m3d_yield: (f64, f64),
    /// Scale on the M3D embodied-carbon model (min, max), log-uniform.
    pub m3d_embodied_scale: (f64, f64),
    /// Scale on the M3D operational energy (min, max), log-uniform.
    pub m3d_eop_scale: (f64, f64),
}

impl UncertaintyRanges {
    /// The Fig. 6b-inspired ranges: lifetime 24 ± 6 months, CI ÷3..×3,
    /// yield 10–90%, and ±30%-ish model error on the M3D embodied and
    /// operational terms.
    pub fn paper_default() -> Self {
        Self {
            lifetime_months: (18.0, 30.0),
            ci_use_scale: (1.0 / 3.0, 3.0),
            m3d_yield: (0.10, 0.90),
            m3d_embodied_scale: (0.77, 1.30),
            m3d_eop_scale: (0.80, 1.25),
        }
    }

    /// Checks that every range is finite, positive, and ordered, and that
    /// the yield range stays within (0, 1].
    pub fn validate(&self) -> Result<(), ValidationError> {
        for (name, (lo, hi)) in [
            ("lifetime_months", self.lifetime_months),
            ("ci_use_scale", self.ci_use_scale),
            ("m3d_yield", self.m3d_yield),
            ("m3d_embodied_scale", self.m3d_embodied_scale),
            ("m3d_eop_scale", self.m3d_eop_scale),
        ] {
            check::positive(name, lo)?;
            check::finite(name, hi)?;
            if hi < lo {
                return Err(ValidationError::new(
                    name,
                    hi,
                    "an ordered range (hi >= lo)",
                ));
            }
        }
        if self.m3d_yield.1 > 1.0 {
            return Err(ValidationError::new(
                "m3d_yield",
                self.m3d_yield.1,
                "in (0, 1]",
            ));
        }
        Ok(())
    }
}

/// One sampled future.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UncertaintySample {
    /// Sampled lifetime.
    pub lifetime: Lifetime,
    /// Sampled CI_use scale.
    pub ci_scale: f64,
    /// Sampled M3D yield.
    pub m3d_yield: f64,
    /// Sampled M3D embodied scale.
    pub embodied_scale: f64,
    /// Sampled M3D operational scale.
    pub eop_scale: f64,
}

/// A structure-of-arrays run of consecutive samples: column `i` across the
/// five vectors is exactly [`draw_sample`]`(seed, start + i, ranges)`.
///
/// Batches exist so the hot Monte-Carlo loop can hoist per-sweep constants
/// (range spans, log endpoints, embodied masses) out of the per-sample
/// path while staying bit-identical to per-sample draws: every column is
/// filled with the same expression trees [`draw_sample`] evaluates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleBatch {
    /// Sampled lifetimes.
    pub lifetime: Vec<Lifetime>,
    /// Sampled CI_use scales.
    pub ci_scale: Vec<f64>,
    /// Sampled M3D yields.
    pub m3d_yield: Vec<f64>,
    /// Sampled M3D embodied scales.
    pub embodied_scale: Vec<f64>,
    /// Sampled M3D operational scales.
    pub eop_scale: Vec<f64>,
}

impl SampleBatch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.lifetime.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.lifetime.is_empty()
    }

    /// Row `i` reassembled as an [`UncertaintySample`] — bit-identical to
    /// the [`draw_sample`] call the column fill mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> UncertaintySample {
        UncertaintySample {
            lifetime: self.lifetime[i],
            ci_scale: self.ci_scale[i],
            m3d_yield: self.m3d_yield[i],
            embodied_scale: self.embodied_scale[i],
            eop_scale: self.eop_scale[i],
        }
    }
}

/// A uniform draw with its span precomputed: `lo + span * u` is the same
/// expression tree as [`lerp`]'s `lo + (hi - lo) * u`, so precomputing
/// `hi - lo` once per sweep changes no bits.
#[derive(Clone, Copy, Debug)]
struct UniDraw {
    lo: f64,
    span: f64,
}

impl UniDraw {
    fn new((lo, hi): (f64, f64)) -> Self {
        Self { lo, span: hi - lo }
    }

    fn draw(&self, u: f64) -> f64 {
        self.lo + self.span * u
    }
}

/// A log-uniform draw with its log endpoints precomputed; mirrors
/// [`lerp_log`] exactly, including the degenerate-range branch (which
/// still consumes the variate but returns `lo`).
#[derive(Clone, Copy, Debug)]
struct LogDraw {
    a: f64,
    span: f64,
    lo: f64,
    degenerate: bool,
}

impl LogDraw {
    fn new((lo, hi): (f64, f64)) -> Self {
        if hi > lo {
            Self {
                a: lo.ln(),
                span: hi.ln() - lo.ln(),
                lo,
                degenerate: false,
            }
        } else {
            Self {
                a: 0.0,
                span: 0.0,
                lo,
                degenerate: true,
            }
        }
    }

    fn draw(&self, u: f64) -> f64 {
        if self.degenerate {
            self.lo
        } else {
            (self.a + self.span * u).exp()
        }
    }
}

/// Per-sweep sampling constants hoisted out of the per-sample loop: one
/// [`SamplePlan`] per `(seed, ranges)` pair fills any run of consecutive
/// sample indices, in the exact draw order of [`draw_sample`]
/// (lifetime, CI, yield, embodied, operational — one variate each).
#[derive(Clone, Copy, Debug)]
struct SamplePlan {
    seed: u64,
    lifetime: UniDraw,
    ci: LogDraw,
    m3d_yield: UniDraw,
    embodied: LogDraw,
    eop: LogDraw,
}

impl SamplePlan {
    fn new(seed: u64, r: &UncertaintyRanges) -> Self {
        Self {
            seed,
            lifetime: UniDraw::new(r.lifetime_months),
            ci: LogDraw::new(r.ci_use_scale),
            m3d_yield: UniDraw::new(r.m3d_yield),
            embodied: LogDraw::new(r.m3d_embodied_scale),
            eop: LogDraw::new(r.m3d_eop_scale),
        }
    }

    /// Samples `start .. start + len`, each drawn from its own
    /// counter-indexed stream exactly like [`draw_sample`].
    fn fill(&self, start: u64, len: usize) -> SampleBatch {
        let mut out = SampleBatch {
            lifetime: Vec::with_capacity(len),
            ci_scale: Vec::with_capacity(len),
            m3d_yield: Vec::with_capacity(len),
            embodied_scale: Vec::with_capacity(len),
            eop_scale: Vec::with_capacity(len),
        };
        for k in 0..len {
            let rng = &mut SplitMix64::stream(self.seed, start + k as u64);
            out.lifetime
                .push(Lifetime::months(self.lifetime.draw(rng.next_f64())));
            out.ci_scale.push(self.ci.draw(rng.next_f64()));
            out.m3d_yield.push(self.m3d_yield.draw(rng.next_f64()));
            out.embodied_scale.push(self.embodied.draw(rng.next_f64()));
            out.eop_scale.push(self.eop.draw(rng.next_f64()));
        }
        out
    }
}

/// Anything that maps an [`UncertaintySample`] to a tCDP ratio
/// (M3D / all-Si).
///
/// [`TcdpMap`] is the production implementation; the fault-injection test
/// harness substitutes sources that return NaN or non-positive ratios on
/// selected samples to exercise the isolation machinery.
pub trait RatioSource {
    /// The tCDP ratio of the two designs under this sampled future.
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64;

    /// Evaluates a whole batch, appending one ratio per sample to `ratios`
    /// in index order.
    ///
    /// The default forwards to [`RatioSource::tcdp_ratio`] one sample at a
    /// time in ascending order, so sources whose output depends on call
    /// order see the samples in index order at `jobs = 1`. Overrides may
    /// hoist per-batch constants but must stay bit-identical to the
    /// default — [`try_run`] batches at internal chunk boundaries and
    /// guarantees results byte-identical to per-sample evaluation. It
    /// re-runs a batch that appends the wrong number of ratios sample by
    /// sample.
    fn tcdp_ratio_batch(&self, batch: &SampleBatch, ratios: &mut Vec<f64>) {
        for i in 0..batch.len() {
            ratios.push(self.tcdp_ratio(&batch.sample(i)));
        }
    }
}

impl RatioSource for TcdpMap {
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
        self.ratio_sampled(sample)
    }

    fn tcdp_ratio_batch(&self, batch: &SampleBatch, ratios: &mut Vec<f64>) {
        self.ratio_batch(batch, ratios);
    }
}

/// Configuration of a Monte-Carlo sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of samples to draw. Always at least 1.
    samples: usize,
    /// PRNG seed; equal seeds reproduce the sweep exactly.
    seed: u64,
    /// Maximum tolerated fraction of failed samples, in `[0, 1]`.
    failure_budget: f64,
}

impl MonteCarloConfig {
    /// Creates a configuration with a zero failure budget (any failed
    /// sample aborts the sweep).
    pub fn new(samples: usize, seed: u64) -> Result<Self, ValidationError> {
        if samples == 0 {
            return Err(ValidationError::new("samples", 0.0, ">= 1"));
        }
        Ok(Self {
            samples,
            seed,
            failure_budget: 0.0,
        })
    }

    /// Sets the maximum tolerated fraction of failed samples.
    // ppatc-lint: allow(raw-unit-api) — dimensionless fraction of samples
    pub fn with_failure_budget(self, budget: f64) -> Result<Self, ValidationError> {
        if !(budget.is_finite() && (0.0..=1.0).contains(&budget)) {
            return Err(ValidationError::new("failure_budget", budget, "in [0, 1]"));
        }
        Ok(Self {
            failure_budget: budget,
            ..self
        })
    }

    /// The number of samples this sweep will draw.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The maximum tolerated fraction of failed samples.
    // ppatc-lint: allow(raw-unit-api) — dimensionless fraction of samples
    pub fn failure_budget(&self) -> f64 {
        self.failure_budget
    }
}

/// Per-cause counts of samples discarded by a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FailureBreakdown {
    /// Samples whose tCDP ratio came back NaN or infinite.
    pub non_finite_ratio: usize,
    /// Samples whose tCDP ratio was zero or negative (a physically
    /// meaningless carbon ratio).
    pub non_positive_ratio: usize,
    /// Samples whose evaluation panicked (caught at the item boundary by
    /// the supervised engine and converted to
    /// [`PpatcError::WorkerPanic`]).
    pub worker_panic: usize,
}

impl FailureBreakdown {
    /// Total number of discarded samples.
    pub fn total(&self) -> usize {
        self.non_finite_ratio + self.non_positive_ratio + self.worker_panic
    }

    fn record(&mut self, ratio: f64) {
        if !ratio.is_finite() {
            self.non_finite_ratio += 1;
        } else {
            self.non_positive_ratio += 1;
        }
    }
}

impl core::fmt::Display for FailureBreakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} failed ({} non-finite, {} non-positive, {} panicked)",
            self.total(),
            self.non_finite_ratio,
            self.non_positive_ratio,
            self.worker_panic
        )
    }
}

/// SPICE recovery pressure observed during one sweep: how many DC solves
/// needed the GMIN/source-stepping ladder and how many gave up, differenced
/// from the process-wide [`ppatc_spice::recovery_counters`] around the run.
///
/// The nominal exhibits evaluate pure arithmetic (no SPICE per sample), so
/// both counts are normally zero; nonzero counts flag a sweep whose
/// characterization work is straining the solver. The counters are
/// process-global, so concurrent solves elsewhere in the process (e.g.
/// parallel test threads) can inflate a run's attribution — treat the
/// counts as an upper bound, not an exact per-run tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverRecoveryPressure {
    /// Solves rescued by a recovery rung during the sweep.
    pub recovered_solves: u64,
    /// Solves that exhausted the ladder or a solver budget.
    pub exhausted_solves: u64,
}

impl SolverRecoveryPressure {
    /// Whether any solve needed recovery or gave up.
    pub fn any(&self) -> bool {
        self.recovered_solves > 0 || self.exhausted_solves > 0
    }
}

/// The pressure accumulated since a [`ppatc_spice::recovery_counters`]
/// snapshot taken before the run.
fn pressure_since(before: (u64, u64)) -> SolverRecoveryPressure {
    let (recovered_0, exhausted_0) = before;
    let (recovered_1, exhausted_1) = ppatc_spice::recovery_counters();
    SolverRecoveryPressure {
        recovered_solves: recovered_1.saturating_sub(recovered_0),
        exhausted_solves: exhausted_1.saturating_sub(exhausted_0),
    }
}

/// Summary of a Monte-Carlo run.
#[derive(Clone, Debug, PartialEq)]
pub struct MonteCarloResult {
    /// Number of samples drawn.
    pub samples: usize,
    /// Number of samples that evaluated successfully (the statistics below
    /// are computed over these survivors).
    pub evaluated: usize,
    /// Per-cause counts of discarded samples.
    pub failures: FailureBreakdown,
    /// Fraction of surviving futures in which the M3D design has lower
    /// tCDP.
    pub p_m3d_wins: f64,
    /// 5th / 50th / 95th percentiles of the tCDP ratio (M3D / all-Si) over
    /// the survivors.
    pub ratio_quantiles: (f64, f64, f64),
    /// SPICE recovery pressure observed while the sweep ran (zero for the
    /// pure-arithmetic nominal exhibits).
    pub recovery: SolverRecoveryPressure,
}

impl core::fmt::Display for MonteCarloResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "M3D wins in {:.1}% of {} sampled futures; tCDP ratio p5/p50/p95 = {:.3}/{:.3}/{:.3}",
            self.p_m3d_wins * 100.0,
            self.samples,
            self.ratio_quantiles.0,
            self.ratio_quantiles.1,
            self.ratio_quantiles.2
        )?;
        if self.failures.total() > 0 {
            write!(f, " ({} over survivors)", self.failures)?;
        }
        if self.recovery.any() {
            write!(
                f,
                " [solver recovery: {} rescued, {} exhausted]",
                self.recovery.recovered_solves, self.recovery.exhausted_solves
            )?;
        }
        Ok(())
    }
}

/// Runs a Monte-Carlo sweep over a [`TcdpMap`]'s underlying designs.
///
/// This is the panicking convenience wrapper around [`try_run`] with a zero
/// failure budget and one worker, kept for call sites whose inputs are
/// statically known to be valid.
///
/// # Panics
///
/// Panics if `n` is zero, a range is invalid, or any sample fails to
/// evaluate.
pub fn run(map: &TcdpMap, ranges: &UncertaintyRanges, n: usize, seed: u64) -> MonteCarloResult {
    let config = match MonteCarloConfig::new(n, seed) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    match try_run(map, ranges, &config, 1, &Supervisor::new()) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// [`try_run`] over a [`TcdpMap`] with a default [`Supervisor`].
#[must_use = "this returns a Result that must be handled"]
pub fn try_run_jobs(
    map: &TcdpMap,
    ranges: &UncertaintyRanges,
    config: &MonteCarloConfig,
    jobs: usize,
) -> Result<MonteCarloResult, PpatcError> {
    try_run(map, ranges, config, jobs, &Supervisor::new())
}

/// Runs a Monte-Carlo sweep over any [`RatioSource`] across `jobs`
/// workers, isolating per-sample failures.
///
/// - Each drawn sample is evaluated independently; samples producing
///   non-finite or non-positive ratios, or panicking, are recorded in the
///   result's [`FailureBreakdown`] instead of aborting the sweep, and the
///   statistics are computed over the survivors.
/// - Samples are evaluated in [`SampleBatch`] chunks through
///   [`RatioSource::tcdp_ratio_batch`]; a batch that panics or returns the
///   wrong number of ratios is re-run sample by sample through
///   [`RatioSource::tcdp_ratio`], so the result always equals the
///   per-sample sweep.
/// - The result is byte-identical for any worker count (each sample is a
///   pure function of `(seed, index)` and the reduction sees ratios in
///   index order), *provided the source is a pure function of the sample*:
///   sources whose output depends on call order agree only at `jobs = 1`.
/// - `supervisor`'s [`RunBudget`](crate::eval::RunBudget) is honored at
///   chunk boundaries, completed chunks are journaled when a checkpoint
///   path is configured, and a resumed sweep replays journaled samples
///   instead of recomputing them.
///
/// # Errors
///
/// [`PpatcError::Validation`] for invalid ranges,
/// [`PpatcError::FailureBudgetExceeded`] when the failed fraction exceeds
/// [`MonteCarloConfig::failure_budget`], [`PpatcError::NoSurvivingSamples`]
/// when the budget tolerates the failures but every sample failed,
/// [`PpatcError::Interrupted`] when the budget stops the sweep (completed
/// samples are journaled first, so `--resume` continues where it stopped),
/// and [`PpatcError::Checkpoint`] for journal I/O or identity mismatches.
#[must_use = "this returns a Result that must be handled"]
pub fn try_run(
    source: &(dyn RatioSource + Sync),
    ranges: &UncertaintyRanges,
    config: &MonteCarloConfig,
    jobs: usize,
    supervisor: &Supervisor,
) -> Result<MonteCarloResult, PpatcError> {
    ranges.validate()?;
    let journal = supervisor.try_open_journal(&journal_spec(config, ranges))?;
    let before = ppatc_spice::recovery_counters();
    let outcomes = try_map_indexed(
        config.samples,
        jobs,
        supervisor.budget(),
        journal.as_deref(),
        Sweep::new(source, ranges, config.seed),
    )?;
    summarize(outcomes, config, pressure_since(before))
}

/// One sweep as an engine kernel: item `i` is sample `i`'s ratio, and a
/// batch fills a [`SampleBatch`] once for the whole chunk.
struct Sweep<'a> {
    source: &'a (dyn RatioSource + Sync),
    ranges: &'a UncertaintyRanges,
    plan: SamplePlan,
}

impl<'a> Sweep<'a> {
    fn new(source: &'a (dyn RatioSource + Sync), ranges: &'a UncertaintyRanges, seed: u64) -> Self {
        Self {
            source,
            ranges,
            plan: SamplePlan::new(seed, ranges),
        }
    }
}

impl Kernel for Sweep<'_> {
    type Item = f64;

    fn item(&self, i: usize) -> f64 {
        self.source
            .tcdp_ratio(&draw_sample(self.plan.seed, i as u64, self.ranges))
    }

    fn batch(&self, start: usize, end: usize, out: &mut Vec<f64>) {
        let batch = self.plan.fill(start as u64, end - start);
        self.source.tcdp_ratio_batch(&batch, out);
    }
}

/// The checkpoint-journal identity of one sweep: seed and every range bound
/// (as exact bit patterns) fingerprinted, so a journal from a different
/// seed or different ranges is rejected on resume. The failure budget is
/// deliberately excluded — it only gates the final summary, never the
/// per-sample values a journal stores.
fn journal_spec(config: &MonteCarloConfig, r: &UncertaintyRanges) -> JournalSpec {
    let params = [
        config.seed,
        r.lifetime_months.0.to_bits(),
        r.lifetime_months.1.to_bits(),
        r.ci_use_scale.0.to_bits(),
        r.ci_use_scale.1.to_bits(),
        r.m3d_yield.0.to_bits(),
        r.m3d_yield.1.to_bits(),
        r.m3d_embodied_scale.0.to_bits(),
        r.m3d_embodied_scale.1.to_bits(),
        r.m3d_eop_scale.0.to_bits(),
        r.m3d_eop_scale.1.to_bits(),
    ];
    JournalSpec::for_run::<f64>("montecarlo", config.samples, &params)
}

/// The sweep's reduction: classifies the per-sample outcomes (a panicked
/// sample counts as one more discarded sample), applies the failure
/// budget, and computes survivor statistics with linearly interpolated
/// quantiles. Survivor order does not matter: the win count is a count and
/// the quantiles are order statistics.
fn summarize(
    outcomes: Outcomes<f64>,
    config: &MonteCarloConfig,
    recovery: SolverRecoveryPressure,
) -> Result<MonteCarloResult, PpatcError> {
    let n = config.samples;
    let mut failures = FailureBreakdown {
        worker_panic: outcomes.panicked.len(),
        ..FailureBreakdown::default()
    };
    let mut wins = 0usize;
    let mut survivors = outcomes.values;
    survivors.retain(|&r| {
        if !r.is_finite() || r <= 0.0 {
            failures.record(r);
            return false;
        }
        if r < 1.0 {
            wins += 1;
        }
        true
    });
    let failed = failures.total();
    if failed as f64 / n as f64 > config.failure_budget {
        return Err(PpatcError::FailureBudgetExceeded {
            failed,
            samples: n,
            budget: config.failure_budget,
        });
    }
    if survivors.is_empty() {
        return Err(PpatcError::NoSurvivingSamples { samples: n });
    }
    let m = survivors.len();
    let ps = [0.05, 0.50, 0.95];
    select_ranks(&mut survivors, &quantile_ranks(m, &ps));
    let q = |p: f64| interpolated_quantile(&survivors, p);
    Ok(MonteCarloResult {
        samples: n,
        evaluated: m,
        failures,
        p_m3d_wins: wins as f64 / m as f64,
        ratio_quantiles: (q(0.05), q(0.50), q(0.95)),
        recovery,
    })
}

/// The ranks [`interpolated_quantile`] will read for quantiles `ps` over
/// `m` survivors: floor and ceiling of each rank `p·(m−1)`, ascending and
/// deduplicated.
fn quantile_ranks(m: usize, ps: &[f64]) -> Vec<usize> {
    let mut ranks: Vec<usize> = Vec::with_capacity(2 * ps.len());
    for &p in ps {
        let rank = p * (m - 1) as f64;
        ranks.push(rank.floor() as usize);
        ranks.push(rank.ceil() as usize);
    }
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// Partially orders `values` so every rank in `ranks` (ascending,
/// deduplicated, in range) holds the value a full ascending sort would
/// put there. Under [`f64::total_cmp`] the k-th order statistic is a
/// unique bit pattern, so this replaces the former full sort with an
/// O(n · ranks) selection while leaving the reported quantiles
/// bit-identical. Each selection narrows to the tail strictly above the
/// previously selected position — `select_nth_unstable_by` only pins the
/// selected index, so a later pass over a tail that still contained it
/// would be free to move it. Excluding it keeps every settled rank in
/// place, and the remaining tail holds exactly the elements belonging at
/// the remaining positions (an adjacent rank selects index 0 of it).
fn select_ranks(values: &mut [f64], ranks: &[usize]) {
    let mut offset = 0;
    for &rank in ranks {
        let tail = &mut values[offset..];
        tail.select_nth_unstable_by(rank - offset, f64::total_cmp);
        offset = rank + 1;
        if offset >= values.len() {
            break;
        }
    }
}

/// Linearly interpolated quantile over a non-empty slice partially ordered
/// by [`select_ranks`] at the floor/ceiling ranks this reads (the "type 7"
/// estimator): rank `p·(m−1)` split into its integer floor and fractional
/// part. Unlike nearest-rank rounding, p05/p95 do not collapse onto
/// min/max for small survivor sets, and the estimate varies continuously
/// with `p`.
fn interpolated_quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Variance-based sensitivity: for each uncertainty source, the fraction of
/// the tCDP-ratio variance that disappears when that source is pinned to
/// its nominal value (a freeze-one-at-a-time importance measure).
///
/// Returns `(source name, variance share in [0, 1])`, sorted descending.
///
/// This is the panicking convenience wrapper around [`try_sensitivity`].
///
/// # Panics
///
/// Panics if `n` is zero or a range is invalid.
pub fn sensitivity(
    map: &TcdpMap,
    ranges: &UncertaintyRanges,
    n: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    match try_sensitivity(map, ranges, n, seed, 1, &RunBudget::unlimited()) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Variance-based sensitivity (see [`sensitivity`]) across `jobs`
/// workers under `budget`, byte-identical for any worker count.
///
/// Because every sample is a pure function of `(seed, index)` and every
/// source always consumes exactly one draw, the frozen variants are
/// *paired* with the base sweep: sample *i* of a frozen variant differs
/// from base sample *i* only in the pinned source. The base sweep and every
/// frozen variant poll `budget` at chunk boundaries. Sensitivity sweeps are
/// not checkpointed: the six constituent sweeps are an order of magnitude
/// cheaper than the headline Monte-Carlo run, and a variance share is not a
/// per-index value a journal could resume. Non-finite and panicking
/// samples are skipped in the variance estimates.
///
/// # Errors
///
/// [`PpatcError::Validation`] for a zero sample count or invalid ranges,
/// [`PpatcError::Interrupted`] when the budget stops a constituent sweep.
#[must_use = "this returns a Result that must be handled"]
pub fn try_sensitivity(
    map: &TcdpMap,
    ranges: &UncertaintyRanges,
    n: usize,
    seed: u64,
    jobs: usize,
    budget: &RunBudget,
) -> Result<Vec<(&'static str, f64)>, PpatcError> {
    if n == 0 {
        return Err(ValidationError::new("samples", 0.0, ">= 1").into());
    }
    ranges.validate()?;
    let variance_of = |ranges: &UncertaintyRanges, seed: u64| -> Result<f64, PpatcError> {
        let ratios: Vec<f64> =
            try_map_indexed(n, jobs, budget, None, Sweep::new(map, ranges, seed))?
                .values
                .into_iter()
                .filter(|r| r.is_finite())
                .collect();
        if ratios.is_empty() {
            return Ok(0.0);
        }
        let m = ratios.len() as f64;
        let mean = ratios.iter().sum::<f64>() / m;
        Ok(ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / m)
    };
    let base = variance_of(ranges, seed)?;
    if base <= 0.0 {
        return Ok(vec![
            ("lifetime", 0.0),
            ("CI_use", 0.0),
            ("M3D yield", 0.0),
            ("embodied model", 0.0),
            ("operational model", 0.0),
        ]);
    }
    let mid = |(lo, hi): (f64, f64)| ((lo + hi) / 2.0, (lo + hi) / 2.0);
    let mid_log = |(lo, hi): (f64, f64)| {
        let g = (lo * hi).sqrt();
        (g, g)
    };
    let variants: [(&'static str, UncertaintyRanges); 5] = [
        (
            "lifetime",
            UncertaintyRanges {
                lifetime_months: mid(ranges.lifetime_months),
                ..*ranges
            },
        ),
        (
            "CI_use",
            UncertaintyRanges {
                ci_use_scale: mid_log(ranges.ci_use_scale),
                ..*ranges
            },
        ),
        (
            "M3D yield",
            UncertaintyRanges {
                m3d_yield: mid(ranges.m3d_yield),
                ..*ranges
            },
        ),
        (
            "embodied model",
            UncertaintyRanges {
                m3d_embodied_scale: mid_log(ranges.m3d_embodied_scale),
                ..*ranges
            },
        ),
        (
            "operational model",
            UncertaintyRanges {
                m3d_eop_scale: mid_log(ranges.m3d_eop_scale),
                ..*ranges
            },
        ),
    ];
    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(variants.len());
    for (name, v) in &variants {
        let reduced = variance_of(v, seed)?;
        out.push((*name, ((base - reduced) / base).max(0.0)));
    }
    out.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
    Ok(out)
}

/// Draws sample `index` of the sweep seeded with `seed` — a pure function
/// of `(seed, index)`, independent of the total sample count and of any
/// other sample.
///
/// Each of the five sources consumes exactly one draw from the sample's
/// counter-indexed stream, even when its range is degenerate (`hi == lo`),
/// so pinning one source never shifts another source's draw — the property
/// the paired sensitivity freezes in [`try_sensitivity`] rely on.
///
/// `ranges` are used as given; sweep entry points validate them first.
pub fn draw_sample(seed: u64, index: u64, r: &UncertaintyRanges) -> UncertaintySample {
    let rng = &mut SplitMix64::stream(seed, index);
    UncertaintySample {
        lifetime: Lifetime::months(lerp(rng, r.lifetime_months)),
        ci_scale: lerp_log(rng, r.ci_use_scale),
        m3d_yield: lerp(rng, r.m3d_yield),
        embodied_scale: lerp_log(rng, r.m3d_embodied_scale),
        eop_scale: lerp_log(rng, r.m3d_eop_scale),
    }
}

/// Uniform draw over `[lo, hi)` that always consumes exactly one variate
/// (returns `lo` exactly when the range is degenerate).
fn lerp(rng: &mut SplitMix64, (lo, hi): (f64, f64)) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Log-uniform draw over `[lo, hi)` that always consumes exactly one
/// variate (returns `lo` exactly when the range is degenerate).
fn lerp_log(rng: &mut SplitMix64, (lo, hi): (f64, f64)) -> f64 {
    let u = rng.next_f64();
    if hi > lo {
        (lo.ln() + (hi.ln() - lo.ln()) * u).exp()
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usage::UsagePattern;
    use crate::CarbonTrajectory;
    use ppatc_units::{CarbonMass, Power, Time};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn map() -> TcdpMap {
        let exec = Time::from_seconds(0.04);
        let usage = UsagePattern::paper_default();
        let si = CarbonTrajectory::new(
            CarbonMass::from_grams(3.08),
            Power::from_milliwatts(9.7),
            usage,
            exec,
        );
        let m3d = CarbonTrajectory::new(
            CarbonMass::from_grams(3.52),
            Power::from_milliwatts(8.5),
            usage,
            exec,
        );
        TcdpMap::new(si, m3d, Lifetime::months(24.0), 0.50)
    }

    #[test]
    fn select_ranks_matches_a_full_sort_on_random_data() {
        // Every rank the quantile estimator reads must hold exactly the
        // value a full ascending sort would put there, across many random
        // slices — including the small sizes where floor/ceil ranks are
        // adjacent or coincide. This pins the regression where each
        // selection's tail still contained the previously selected
        // position, letting `select_nth_unstable_by` move it.
        let ps = [0.05, 0.50, 0.95];
        for trial in 0..200_u64 {
            let rng = &mut SplitMix64::stream(0xC0FFEE, trial);
            let m = 1 + (rng.next_f64() * 400.0) as usize;
            let values: Vec<f64> = (0..m).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let mut selected = values;
            let ranks = quantile_ranks(m, &ps);
            select_ranks(&mut selected, &ranks);
            for &r in &ranks {
                assert_eq!(
                    selected[r].to_bits(),
                    sorted[r].to_bits(),
                    "rank {r} of {m} diverged from the full sort (trial {trial})"
                );
            }
            for &p in &ps {
                assert_eq!(
                    interpolated_quantile(&selected, p).to_bits(),
                    interpolated_quantile(&sorted, p).to_bits(),
                    "p{:02} diverged from the full-sort reference (m = {m}, trial {trial})",
                    (p * 100.0) as u32
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = map();
        let r1 = run(&m, &UncertaintyRanges::paper_default(), 2000, 42);
        let r2 = run(&m, &UncertaintyRanges::paper_default(), 2000, 42);
        assert_eq!(r1, r2);
        let r3 = run(&m, &UncertaintyRanges::paper_default(), 2000, 43);
        assert_ne!(r1.ratio_quantiles, r3.ratio_quantiles);
    }

    #[test]
    fn probabilities_are_sane() {
        let r = run(&map(), &UncertaintyRanges::paper_default(), 5000, 7);
        assert!((0.0..=1.0).contains(&r.p_m3d_wins));
        assert_eq!(r.evaluated, r.samples);
        assert_eq!(r.failures.total(), 0);
        // The decision is genuinely uncertain under the full Fig. 6b joint
        // ranges: neither side should win more than ~95% of futures.
        assert!(
            (0.05..0.95).contains(&r.p_m3d_wins),
            "P(M3D wins) = {:.2}",
            r.p_m3d_wins
        );
        let (p5, p50, p95) = r.ratio_quantiles;
        assert!(p5 < p50 && p50 < p95);
    }

    #[test]
    fn tight_ranges_collapse_to_the_nominal() {
        let tight = UncertaintyRanges {
            lifetime_months: (24.0, 24.0),
            ci_use_scale: (1.0, 1.0),
            m3d_yield: (0.50, 0.50),
            m3d_embodied_scale: (1.0, 1.0),
            m3d_eop_scale: (1.0, 1.0),
        };
        let m = map();
        let r = run(&m, &tight, 100, 1);
        let nominal = m.ratio(1.0, 1.0);
        assert!((r.ratio_quantiles.1 - nominal).abs() < 1e-9);
        assert!(r.p_m3d_wins == 0.0 || r.p_m3d_wins == 1.0);
    }

    #[test]
    fn better_yield_ranges_raise_the_win_rate() {
        let m = map();
        let pessimistic = UncertaintyRanges {
            m3d_yield: (0.10, 0.30),
            ..UncertaintyRanges::paper_default()
        };
        let optimistic = UncertaintyRanges {
            m3d_yield: (0.70, 0.90),
            ..UncertaintyRanges::paper_default()
        };
        let p_lo = run(&m, &pessimistic, 4000, 9).p_m3d_wins;
        let p_hi = run(&m, &optimistic, 4000, 9).p_m3d_wins;
        assert!(p_hi > p_lo + 0.2, "win rates {p_lo:.2} vs {p_hi:.2}");
    }

    #[test]
    fn sensitivity_identifies_the_yield_knob() {
        // Over the Fig. 6b ranges, the 10–90% yield span moves embodied
        // carbon by 5× — it must dominate the variance.
        let shares = sensitivity(&map(), &UncertaintyRanges::paper_default(), 4000, 5);
        assert_eq!(shares.len(), 5);
        assert_eq!(shares[0].0, "M3D yield", "ranking: {shares:?}");
        assert!(shares[0].1 > 0.4, "yield share {:.2}", shares[0].1);
        for (_, s) in &shares {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn pinning_everything_kills_the_variance() {
        let tight = UncertaintyRanges {
            lifetime_months: (24.0, 24.0),
            ci_use_scale: (1.0, 1.0),
            m3d_yield: (0.5, 0.5),
            m3d_embodied_scale: (1.0, 1.0),
            m3d_eop_scale: (1.0, 1.0),
        };
        let shares = sensitivity(&map(), &tight, 500, 1);
        for (_, s) in shares {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn display_is_informative() {
        let r = run(&map(), &UncertaintyRanges::paper_default(), 500, 3);
        let text = r.to_string();
        assert!(text.contains("sampled futures"));
        assert!(text.contains("p5/p50/p95"));
    }

    #[test]
    fn invalid_ranges_are_structured_errors_not_panics() {
        let mut bad = UncertaintyRanges::paper_default();
        bad.m3d_yield = (0.5, 1.7);
        let config = MonteCarloConfig::new(100, 1).expect("valid config");
        match try_run(&map(), &bad, &config, 1, &Supervisor::new()) {
            Err(PpatcError::Validation(v)) => {
                assert_eq!(v.field, "m3d_yield");
                assert_eq!(v.value, 1.7);
            }
            other => panic!("expected validation error, got {other:?}"),
        }
        let mut nan = UncertaintyRanges::paper_default();
        nan.ci_use_scale.0 = f64::NAN;
        assert!(matches!(
            try_run(&map(), &nan, &config, 1, &Supervisor::new()),
            Err(PpatcError::Validation(_))
        ));
    }

    #[test]
    fn zero_samples_is_a_structured_error() {
        let e = MonteCarloConfig::new(0, 1).expect_err("zero samples rejected");
        assert_eq!(e.field, "samples");
    }

    /// A source that records every sample it is asked to evaluate.
    struct RecordingSource {
        inner: TcdpMap,
        seen: Mutex<Vec<UncertaintySample>>,
    }

    impl RatioSource for RecordingSource {
        fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
            self.seen.lock().expect("unpoisoned").push(*sample);
            self.inner.ratio_sampled(sample)
        }
    }

    #[test]
    fn sample_i_is_identical_for_100_and_10_000_samples() {
        // Regression: samples used to share one sequential stream, so
        // sample i depended on the draw history of samples 0..i and (via
        // buffer reuse bugs elsewhere) on the configured total. Each sample
        // is now a pure function of (seed, i).
        let ranges = UncertaintyRanges::paper_default();
        let record = |n: usize| {
            let source = RecordingSource {
                inner: map(),
                seen: Mutex::new(Vec::new()),
            };
            let config = MonteCarloConfig::new(n, 12345).expect("valid config");
            let _ = try_run(&source, &ranges, &config, 1, &Supervisor::new()).expect("sweep runs");
            source.seen.into_inner().expect("unpoisoned")
        };
        let small = record(100);
        let large = record(10_000);
        assert_eq!(small.len(), 100);
        assert_eq!(large.len(), 10_000);
        for (i, (a, b)) in small.iter().zip(&large).enumerate() {
            assert_eq!(a, b, "sample {i} depends on the sample count");
        }
        // And directly: the public draw is pure in (seed, index).
        assert_eq!(
            draw_sample(12345, 77, &ranges),
            draw_sample(12345, 77, &ranges)
        );
    }

    #[test]
    fn degenerate_ranges_do_not_shift_other_sources_draws() {
        // Pinning one source must leave every other source's draw at
        // sample i untouched (the paired-freeze property).
        let ranges = UncertaintyRanges::paper_default();
        let frozen = UncertaintyRanges {
            ci_use_scale: (1.0, 1.0),
            ..ranges
        };
        for i in 0..50 {
            let a = draw_sample(9, i, &ranges);
            let b = draw_sample(9, i, &frozen);
            assert_eq!(a.lifetime, b.lifetime);
            assert_eq!(b.ci_scale, 1.0);
            assert_eq!(a.m3d_yield, b.m3d_yield);
            assert_eq!(a.embodied_scale, b.embodied_scale);
            assert_eq!(a.eop_scale, b.eop_scale);
        }
    }

    /// A source that replays a fixed ratio sequence in call order.
    struct SequenceSource {
        values: Vec<f64>,
        calls: AtomicUsize,
    }

    impl RatioSource for SequenceSource {
        fn tcdp_ratio(&self, _: &UncertaintySample) -> f64 {
            let i = self.calls.fetch_add(1, Ordering::Relaxed);
            self.values[i % self.values.len()]
        }
    }

    #[test]
    fn quantiles_are_linearly_interpolated() {
        // Regression: nearest-rank rounding collapsed p05/p95 onto min/max
        // for small survivor sets. For the 10-sample set {1..10} the type-7
        // estimator gives rank p·9: p05 → 1.45, p50 → 5.5, p95 → 9.55.
        let source = SequenceSource {
            values: vec![10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0],
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(10, 1).expect("valid config");
        let r = try_run(
            &source,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        )
        .expect("all samples survive");
        let (q05, q50, q95) = r.ratio_quantiles;
        assert!((q05 - 1.45).abs() < 1e-12, "q05 = {q05}");
        assert!((q50 - 5.5).abs() < 1e-12, "q50 = {q50}");
        assert!((q95 - 9.55).abs() < 1e-12, "q95 = {q95}");
    }

    #[test]
    fn all_samples_failing_is_distinguished_from_a_blown_budget() {
        struct AlwaysNan;
        impl RatioSource for AlwaysNan {
            fn tcdp_ratio(&self, _: &UncertaintySample) -> f64 {
                f64::NAN
            }
        }
        let ranges = UncertaintyRanges::paper_default();
        // With a budget that tolerates every failure, the honest report is
        // "no survivors", not "budget exceeded".
        let tolerant = MonteCarloConfig::new(40, 1)
            .expect("valid")
            .with_failure_budget(1.0)
            .expect("valid budget");
        match try_run(&AlwaysNan, &ranges, &tolerant, 1, &Supervisor::new()) {
            Err(PpatcError::NoSurvivingSamples { samples }) => assert_eq!(samples, 40),
            other => panic!("expected NoSurvivingSamples, got {other:?}"),
        }
        // With a zero budget, the budget violation is the primary cause.
        let strict = MonteCarloConfig::new(40, 1).expect("valid");
        match try_run(&AlwaysNan, &ranges, &strict, 1, &Supervisor::new()) {
            Err(PpatcError::FailureBudgetExceeded {
                failed, samples, ..
            }) => {
                assert_eq!(failed, 40);
                assert_eq!(samples, 40);
            }
            other => panic!("expected FailureBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn batch_fill_matches_draw_sample_exactly() {
        let ranges = UncertaintyRanges::paper_default();
        let plan = SamplePlan::new(2025, &ranges);
        let batch = plan.fill(300, 64);
        assert_eq!(batch.len(), 64);
        for k in 0..64 {
            let scalar = draw_sample(2025, 300 + k as u64, &ranges);
            assert_eq!(batch.sample(k), scalar, "sample {k}");
            assert_eq!(
                batch.lifetime[k].as_time().as_months().to_bits(),
                scalar.lifetime.as_time().as_months().to_bits()
            );
            assert_eq!(batch.ci_scale[k].to_bits(), scalar.ci_scale.to_bits());
            assert_eq!(batch.m3d_yield[k].to_bits(), scalar.m3d_yield.to_bits());
            assert_eq!(
                batch.embodied_scale[k].to_bits(),
                scalar.embodied_scale.to_bits()
            );
            assert_eq!(batch.eop_scale[k].to_bits(), scalar.eop_scale.to_bits());
        }
        // Degenerate ranges take the same branch as lerp/lerp_log.
        let tight = UncertaintyRanges {
            lifetime_months: (24.0, 24.0),
            ci_use_scale: (1.0, 1.0),
            ..ranges
        };
        let plan = SamplePlan::new(7, &tight);
        let batch = plan.fill(0, 8);
        for k in 0..8 {
            assert_eq!(batch.sample(k), draw_sample(7, k as u64, &tight));
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let m = map();
        let ranges = UncertaintyRanges::paper_default();
        let config = MonteCarloConfig::new(3000, 2024).expect("valid config");
        let serial = try_run_jobs(&m, &ranges, &config, 1).expect("serial");
        for jobs in [2, 5, 8] {
            let parallel = try_run_jobs(&m, &ranges, &config, jobs).expect("parallel");
            assert_eq!(serial, parallel, "jobs = {jobs}");
            let bits = |q: (f64, f64, f64)| (q.0.to_bits(), q.1.to_bits(), q.2.to_bits());
            assert_eq!(
                bits(serial.ratio_quantiles),
                bits(parallel.ratio_quantiles),
                "jobs = {jobs}"
            );
        }
    }

    /// A source that fails (returns NaN) on every k-th sample.
    struct FlakySource {
        inner: TcdpMap,
        every: usize,
        calls: AtomicUsize,
    }

    impl RatioSource for FlakySource {
        fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n % self.every == 0 {
                f64::NAN
            } else {
                self.inner.ratio_sampled(sample)
            }
        }
    }

    #[test]
    fn failures_are_isolated_and_counted() {
        let flaky = FlakySource {
            inner: map(),
            every: 10,
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(1000, 7)
            .expect("valid")
            .with_failure_budget(0.2)
            .expect("valid budget");
        let r = try_run(
            &flaky,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        )
        .expect("within budget");
        assert_eq!(r.failures.non_finite_ratio, 100);
        assert_eq!(r.evaluated, 900);
        assert_eq!(r.samples, 1000);
        let (p5, p50, p95) = r.ratio_quantiles;
        assert!(p5.is_finite() && p50.is_finite() && p95.is_finite());
        assert!(p5 <= p50 && p50 <= p95);
    }

    #[test]
    fn exceeding_the_budget_is_an_error() {
        let flaky = FlakySource {
            inner: map(),
            every: 2,
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(1000, 7)
            .expect("valid")
            .with_failure_budget(0.2)
            .expect("valid budget");
        match try_run(
            &flaky,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        ) {
            Err(PpatcError::FailureBudgetExceeded {
                failed,
                samples,
                budget,
            }) => {
                assert_eq!(failed, 500);
                assert_eq!(samples, 1000);
                assert_eq!(budget, 0.2);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn quantiles_interpolate_with_a_single_survivor() {
        // m = 1: rank p·0 = 0 for every p, so all three quantiles are the
        // lone survivor.
        let source = SequenceSource {
            values: vec![f64::NAN, 5.0, f64::NAN],
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(3, 1)
            .expect("valid")
            .with_failure_budget(1.0)
            .expect("valid budget");
        let r = try_run(
            &source,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        )
        .expect("one survivor is enough for statistics");
        assert_eq!(r.evaluated, 1);
        assert_eq!(r.failures.non_finite_ratio, 2);
        assert_eq!(r.ratio_quantiles, (5.0, 5.0, 5.0));
    }

    #[test]
    fn quantiles_interpolate_with_two_survivors() {
        // m = 2: rank p·1 = p, so p05/p50/p95 interpolate between the two
        // survivors (sorted [1, 2]) at 1.05 / 1.5 / 1.95.
        let source = SequenceSource {
            values: vec![2.0, f64::NAN, 1.0],
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(3, 1)
            .expect("valid")
            .with_failure_budget(1.0)
            .expect("valid budget");
        let r = try_run(
            &source,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        )
        .expect("two survivors");
        assert_eq!(r.evaluated, 2);
        let (q05, q50, q95) = r.ratio_quantiles;
        assert!((q05 - 1.05).abs() < 1e-12, "q05 = {q05}");
        assert!((q50 - 1.5).abs() < 1e-12, "q50 = {q50}");
        assert!((q95 - 1.95).abs() < 1e-12, "q95 = {q95}");
    }

    #[test]
    fn no_surviving_samples_surfaces_identically_for_any_worker_count() {
        struct AlwaysNan;
        impl RatioSource for AlwaysNan {
            fn tcdp_ratio(&self, _: &UncertaintySample) -> f64 {
                f64::NAN
            }
        }
        let ranges = UncertaintyRanges::paper_default();
        let config = MonteCarloConfig::new(64, 5)
            .expect("valid")
            .with_failure_budget(1.0)
            .expect("valid budget");
        let reference = try_run(&AlwaysNan, &ranges, &config, 1, &Supervisor::new())
            .expect_err("nothing survives");
        assert_eq!(reference, PpatcError::NoSurvivingSamples { samples: 64 });
        for jobs in [2, 8] {
            let err = try_run(&AlwaysNan, &ranges, &config, jobs, &Supervisor::new())
                .expect_err("nothing survives");
            assert_eq!(err, reference, "jobs = {jobs}");
        }
    }

    /// A thread-safe source that panics deterministically on low-yield
    /// futures (a pure function of the sample, so parallel runs agree).
    struct PanickyBelowYield {
        inner: TcdpMap,
        threshold: f64,
    }

    impl RatioSource for PanickyBelowYield {
        fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
            assert!(
                sample.m3d_yield >= self.threshold,
                "injected panic at yield {}",
                sample.m3d_yield
            );
            self.inner.ratio_sampled(sample)
        }
    }

    #[test]
    fn panicking_samples_count_against_the_failure_budget() {
        let source = PanickyBelowYield {
            inner: map(),
            threshold: 0.14,
        };
        let ranges = UncertaintyRanges::paper_default();
        let config = MonteCarloConfig::new(1000, 17)
            .expect("valid")
            .with_failure_budget(0.25)
            .expect("valid budget");
        let r = try_run(&source, &ranges, &config, 8, &Supervisor::new())
            .expect("panics stay within the budget");
        assert!(
            r.failures.worker_panic > 0,
            "some futures draw yield < 0.14"
        );
        assert_eq!(r.failures.worker_panic, r.failures.total());
        assert_eq!(r.evaluated + r.failures.total(), r.samples);
        assert!(r.to_string().contains("panicked"), "{r}");
        // The same sweep with jobs = 1 classifies the same samples.
        let serial =
            try_run(&source, &ranges, &config, 1, &Supervisor::new()).expect("serial run agrees");
        assert_eq!(serial, r);
    }

    #[test]
    fn panicking_samples_over_a_zero_budget_are_an_error() {
        let source = PanickyBelowYield {
            inner: map(),
            threshold: 0.14,
        };
        let ranges = UncertaintyRanges::paper_default();
        let config = MonteCarloConfig::new(1000, 17).expect("valid");
        match try_run(&source, &ranges, &config, 4, &Supervisor::new()) {
            Err(PpatcError::FailureBudgetExceeded {
                failed, samples, ..
            }) => {
                assert!(failed > 0);
                assert_eq!(samples, 1000);
            }
            other => panic!("expected FailureBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn journal_spec_excludes_the_failure_budget() {
        let ranges = UncertaintyRanges::paper_default();
        let strict = MonteCarloConfig::new(100, 1).expect("valid");
        let tolerant = strict.with_failure_budget(0.5).expect("valid budget");
        assert_eq!(
            journal_spec(&strict, &ranges),
            journal_spec(&tolerant, &ranges),
            "the budget gates the summary, not per-sample values"
        );
        let other_seed = MonteCarloConfig::new(100, 2).expect("valid");
        assert_ne!(
            journal_spec(&strict, &ranges).fingerprint,
            journal_spec(&other_seed, &ranges).fingerprint
        );
    }

    #[test]
    fn survivors_statistics_ignore_failed_samples() {
        // With a generous budget, the quantiles over survivors must match a
        // clean run over the same surviving draws' distribution shape:
        // every survivor ratio is finite and positive.
        let flaky = FlakySource {
            inner: map(),
            every: 3,
            calls: AtomicUsize::new(0),
        };
        let config = MonteCarloConfig::new(900, 11)
            .expect("valid")
            .with_failure_budget(0.5)
            .expect("valid budget");
        let r = try_run(
            &flaky,
            &UncertaintyRanges::paper_default(),
            &config,
            1,
            &Supervisor::new(),
        )
        .expect("within budget");
        assert_eq!(r.evaluated + r.failures.total(), r.samples);
        assert!((0.0..=1.0).contains(&r.p_m3d_wins));
    }
}
