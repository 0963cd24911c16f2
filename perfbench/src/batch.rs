//! The end-to-end metrics of the batch workloads (`reproduce`, `explore`,
//! `lint`), where one iteration is one user-visible operation run in a
//! fresh process. Every time is calibrated to the nominal host speed (see
//! [`crate::calib`]).

use crate::calib;
use crate::report::Outcome;
use crate::stats::{median, tail};
use std::time::{Duration, Instant};

/// Fewest iterations a batch run attempts, whatever `--seconds` says: from
/// 21 on, the tail percentile (ten samples beyond it) is at least the
/// median.
pub const MIN_ITERATIONS: usize = 21;
/// A run stops at this multiple of its planned length, or at [`MAX_RUN`],
/// even if it has not made all its iterations (a much slower program, or
/// one whose every iteration fails, must still end).
const DEADLINE_FACTOR: f64 = 3.0;
/// Longest a batch run may iterate.
const MAX_RUN: Duration = Duration::from_secs(120);

/// How many iterations a batch run attempts, and until when.
///
/// The count depends on `--seconds` alone, never on how fast the program
/// runs, so two commits compared at one `--seconds` take the same number
/// of samples and read the tail at the same rank.
#[derive(Debug)]
pub struct Budget {
    iterations: usize,
    attempts: usize,
    started: Instant,
    deadline: Duration,
}

impl Budget {
    /// A budget for a run of `seconds`, where one iteration took about
    /// `seconds_per_iteration` on the commit that introduced this
    /// benchmark (so the run lasts about `seconds` there).
    pub fn new(seconds: u64, seconds_per_iteration: f64) -> Self {
        let iterations =
            ((seconds as f64 / seconds_per_iteration).round() as usize).max(MIN_ITERATIONS);
        let planned = iterations as f64 * seconds_per_iteration;
        Self {
            iterations,
            attempts: 0,
            started: Instant::now(),
            deadline: Duration::from_secs_f64(planned * DEADLINE_FACTOR).min(MAX_RUN),
        }
    }

    /// True, counting one more attempt, while fewer than the planned
    /// iterations were attempted and the deadline has not passed. Failed
    /// iterations count as attempts.
    pub fn attempt(&mut self) -> bool {
        let more = self.attempts < self.iterations && self.started.elapsed() < self.deadline;
        self.attempts += usize::from(more);
        more
    }

    /// Iterations attempted so far.
    pub fn attempts(&self) -> usize {
        self.attempts
    }
}

/// Samples gathered by a batch run, from its successful iterations.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up times, calibrated, s.
    pub setup_s: Vec<f64>,
    /// Iteration times, calibrated, s.
    pub iteration_s: Vec<f64>,
    /// Every reference reading taken, s.
    pub reference_s: Vec<f64>,
    /// Peak resident set of each iteration's working process, KiB.
    pub peak_rss_kib: Vec<f64>,
}

impl Samples {
    /// Records one set-up of `seconds`, after a reference reading of
    /// `reference` seconds.
    pub fn setup(&mut self, seconds: f64, reference: f64) {
        self.setup_s.push(calib::scaled(seconds, reference));
        self.reference_s.push(reference);
    }

    /// Records one iteration of `seconds`, after a reference reading of
    /// `reference` seconds.
    pub fn iteration(&mut self, seconds: f64, reference: f64, peak_rss_kib: f64) {
        self.iteration_s.push(calib::scaled(seconds, reference));
        self.reference_s.push(reference);
        self.peak_rss_kib.push(peak_rss_kib);
    }
}

/// Adds the seven end-to-end metrics of a batch workload to `out`, from
/// whatever samples the run has (none when every iteration failed: then
/// the times read NaN and the run is not correct).
///
/// - `setup_s`: median set-up time;
/// - `wall_s`: median iteration time;
/// - `p50_ms`, `p99_ms`: the iteration-time distribution in ms, where the
///   tail follows [`crate::stats::tail`];
/// - `max_rps`: iterations per second of back-to-back iterations;
/// - `ok_frac`: operations that passed every check over those attempted;
/// - `peak_rss_mb`: median peak resident set of the working processes.
pub fn metrics(out: &mut Outcome, budget: &Budget, s: &Samples) {
    let nan = f64::NAN;
    let wall = median(&s.iteration_s).unwrap_or(nan);
    out.metric("setup_s", median(&s.setup_s).unwrap_or(nan), "s");
    out.metric("wall_s", wall, "s");
    out.metric("p50_ms", wall * 1e3, "ms");
    let t = tail(&s.iteration_s);
    out.metric("p99_ms", t.map_or(nan, |t| t.value * 1e3), "ms");
    let busy: f64 = s.iteration_s.iter().sum();
    out.metric("max_rps", s.iteration_s.len() as f64 / busy, "req/s");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    let rss = median(&s.peak_rss_kib).unwrap_or(nan);
    out.metric("peak_rss_mb", rss / 1024.0, "MiB");
    out.detail("planned_iterations", budget.iterations);
    out.detail("attempted_iterations", budget.attempts);
    out.detail("iterations", s.iteration_s.len());
    out.detail("setups", s.setup_s.len());
    if let Some(t) = t {
        out.detail("p99_ms_percentile", format!("{:.1}", t.percentile));
    }
    let reference = median(&s.reference_s).unwrap_or(nan);
    out.detail("reference_ms", format!("{:.3}", reference * 1e3));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_iteration_count_depends_on_seconds_only() {
        assert_eq!(Budget::new(20, 0.5).iterations, 40);
        assert_eq!(Budget::new(20, 0.25).iterations, 80);
        assert_eq!(Budget::new(1, 0.5).iterations, MIN_ITERATIONS);
    }

    #[test]
    fn a_short_run_has_time_for_its_fewest_iterations() {
        let budget = Budget::new(1, 0.5);
        assert_eq!(budget.deadline, Duration::from_secs_f64(21.0 * 0.5 * 3.0));
        assert_eq!(Budget::new(25, 0.5).deadline, Duration::from_secs(75));
    }

    #[test]
    fn a_run_whose_every_iteration_fails_still_ends() {
        let mut budget = Budget::new(20, 0.5);
        let s = Samples::default();
        let mut out = Outcome::default();
        while budget.attempt() {
            // Each iteration fails: nothing is sampled.
            out.check(Err("child crashed".to_string()));
        }
        assert_eq!(budget.attempts(), 40);
        assert!(!budget.attempt(), "the budget stays spent");
        metrics(&mut out, &budget, &s);
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (40, 40));
    }

    #[test]
    fn the_deadline_ends_a_run_early() {
        let mut budget = Budget::new(1, 1e-9);
        budget.deadline = Duration::ZERO;
        assert!(!budget.attempt());
        assert_eq!(budget.attempts(), 0);
    }
}
