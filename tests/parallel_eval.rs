//! Serial-vs-parallel determinism of the evaluation engine.
//!
//! Every parallel entry point in the workspace must return results that
//! are *byte-identical* to its serial counterpart for any worker count:
//! Monte-Carlo sample `i` is a pure function of `(seed, i)`, raster point
//! `(i, j)` of its grid coordinates, and design-space candidate `k` of its
//! enumeration index, so how the work is sharded must be unobservable.
//!
//! The Monte-Carlo sweep is also checked against an independent
//! per-sample oracle that shares no code with the batched engine.

use ppatc::montecarlo::{
    self, MonteCarloConfig, MonteCarloResult, RatioSource, SampleBatch, UncertaintyRanges,
    UncertaintySample,
};
use ppatc::optimize::{DesignSpace, Optimizer};
use ppatc::{CaseStudy, Lifetime, RunBudget, Supervisor, TcdpMap};
use ppatc_workloads::{Workload, WorkloadRun};
use std::sync::OnceLock;

const JOBS: [usize; 3] = [1, 2, 8];

fn short_matmul() -> &'static WorkloadRun {
    static RUN: OnceLock<WorkloadRun> = OnceLock::new();
    RUN.get_or_init(|| {
        Workload::matmul_int()
            .execute_with_reps(1)
            .expect("matmul-int runs")
    })
}

#[test]
fn monte_carlo_is_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let config = MonteCarloConfig::new(5000, 42).expect("sample count >= 1");
    let serial = montecarlo::try_run_jobs(&map, &ranges, &config, 1).expect("serial run");
    for jobs in JOBS {
        let parallel =
            montecarlo::try_run_jobs(&map, &ranges, &config, jobs).expect("parallel run");
        assert_eq!(serial, parallel, "jobs = {jobs}");
        // PartialEq on f64 admits -0.0 == 0.0; pin the actual bits too.
        let (s05, s50, s95) = serial.ratio_quantiles;
        let (p05, p50, p95) = parallel.ratio_quantiles;
        assert_eq!(
            (s05.to_bits(), s50.to_bits(), s95.to_bits()),
            (p05.to_bits(), p50.to_bits(), p95.to_bits()),
            "quantile bits, jobs = {jobs}"
        );
    }
}

#[test]
fn sensitivity_shares_are_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let serial = montecarlo::try_sensitivity(&map, &ranges, 2000, 42, 1, &RunBudget::unlimited())
        .expect("serial shares");
    for jobs in JOBS {
        let parallel =
            montecarlo::try_sensitivity(&map, &ranges, 2000, 42, jobs, &RunBudget::unlimited())
                .expect("shares");
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0, "source order, jobs = {jobs}");
            assert_eq!(s.1.to_bits(), p.1.to_bits(), "{}: jobs = {jobs}", s.0);
        }
    }
}

#[test]
fn raster_grid_is_byte_identical_across_worker_counts() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let serial = map
        .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 31, 17, 1)
        .expect("serial raster");
    for jobs in JOBS {
        let parallel = map
            .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 31, 17, jobs)
            .expect("parallel raster");
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                (s.0.to_bits(), s.1.to_bits(), s.2.to_bits()),
                (p.0.to_bits(), p.1.to_bits(), p.2.to_bits()),
                "jobs = {jobs}"
            );
        }
    }
}

#[test]
fn design_space_ranking_is_identical_across_worker_counts() {
    let optimizer = Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0));
    let rank = |jobs: usize| {
        optimizer
            .try_run(short_matmul(), jobs, &RunBudget::unlimited())
            .expect("an unlimited ranking completes")
    };
    let serial = rank(1);
    assert!(!serial.is_empty(), "paper-default space yields candidates");
    for jobs in JOBS {
        let parallel = rank(jobs);
        assert_eq!(serial.len(), parallel.len(), "jobs = {jobs}");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.technology, p.technology, "jobs = {jobs}");
            assert_eq!(s.flavor, p.flavor, "jobs = {jobs}");
            assert_eq!(
                s.f_clk.as_megahertz().to_bits(),
                p.f_clk.as_megahertz().to_bits(),
                "jobs = {jobs}"
            );
            assert_eq!(
                s.tcdp.as_grams_per_hertz().to_bits(),
                p.tcdp.as_grams_per_hertz().to_bits(),
                "tcdp bits, jobs = {jobs}"
            );
            assert_eq!(s.feasible, p.feasible, "jobs = {jobs}");
        }
        let front_serial = Optimizer::pareto_front(&serial);
        let front_parallel = Optimizer::pareto_front(&parallel);
        assert_eq!(
            front_serial.len(),
            front_parallel.len(),
            "front size, jobs = {jobs}"
        );
    }
}

#[test]
fn sample_streams_do_not_depend_on_total_sample_count() {
    // The bug this guards against: a single RNG threaded through the whole
    // sweep makes sample i depend on how many samples precede it. With
    // counter-indexed streams, sample i is a pure function of (seed, i).
    let ranges = UncertaintyRanges::paper_default();
    for i in [0u64, 1, 17, 99] {
        let a = montecarlo::draw_sample(7, i, &ranges);
        let b = montecarlo::draw_sample(7, i, &ranges);
        assert_eq!(a, b, "sample {i} must be reproducible in isolation");
    }
}

/// The per-sample reference for one sweep.
struct Oracle {
    evaluated: usize,
    non_finite: usize,
    non_positive: usize,
    p_m3d_wins: f64,
    quantiles: (f64, f64, f64),
}

/// An independent Monte-Carlo oracle: it draws through the public
/// `draw_sample`, evaluates through `RatioSource::tcdp_ratio` alone,
/// classifies failures itself, and reads type-7 quantiles off a full sort.
/// It shares no code with the batched engine or its reduction.
fn oracle(
    source: &dyn RatioSource,
    ranges: &UncertaintyRanges,
    samples: usize,
    seed: u64,
) -> Oracle {
    let (mut non_finite, mut non_positive) = (0, 0);
    let mut survivors = Vec::new();
    for i in 0..samples {
        let r = source.tcdp_ratio(&montecarlo::draw_sample(seed, i as u64, ranges));
        if r.is_nan() || r.is_infinite() {
            non_finite += 1;
        } else if r <= 0.0 {
            non_positive += 1;
        } else {
            survivors.push(r);
        }
    }
    survivors.sort_by(f64::total_cmp);
    let m = survivors.len();
    assert!(m > 0, "the oracle needs survivors");
    let wins = survivors.iter().filter(|&&r| r < 1.0).count();
    let quantile = |p: f64| {
        let h = (m - 1) as f64 * p;
        let below = h.floor();
        let (a, b) = (survivors[below as usize], survivors[h.ceil() as usize]);
        a + (b - a) * (h - below)
    };
    Oracle {
        evaluated: m,
        non_finite,
        non_positive,
        p_m3d_wins: wins as f64 / m as f64,
        quantiles: (quantile(0.05), quantile(0.50), quantile(0.95)),
    }
}

fn assert_matches_oracle(r: &MonteCarloResult, o: &Oracle, samples: usize, label: &str) {
    assert_eq!(r.samples, samples, "{label}: samples");
    assert_eq!(r.evaluated, o.evaluated, "{label}: evaluated");
    assert_eq!(
        r.failures.non_finite_ratio, o.non_finite,
        "{label}: non-finite"
    );
    assert_eq!(
        r.failures.non_positive_ratio, o.non_positive,
        "{label}: non-positive"
    );
    assert_eq!(r.failures.worker_panic, 0, "{label}: panics");
    assert_eq!(
        r.p_m3d_wins.to_bits(),
        o.p_m3d_wins.to_bits(),
        "{label}: P(win)"
    );
    let bits = |q: (f64, f64, f64)| (q.0.to_bits(), q.1.to_bits(), q.2.to_bits());
    assert_eq!(
        bits(r.ratio_quantiles),
        bits(o.quantiles),
        "{label}: quantiles"
    );
}

/// A pure faulty source: NaN on low-yield futures, a negative ratio on
/// high-CI ones, the map's ratio otherwise.
struct PureFaults(TcdpMap);

impl RatioSource for PureFaults {
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
        if sample.m3d_yield < 0.15 {
            f64::NAN
        } else if sample.ci_scale > 2.8 {
            -1.0
        } else {
            self.0.tcdp_ratio(sample)
        }
    }
}

#[test]
fn batched_sweep_matches_an_independent_per_sample_oracle() {
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let map = study.tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let samples = 5000;
    let config = MonteCarloConfig::new(samples, 2025)
        .expect("sample count >= 1")
        .with_failure_budget(0.5)
        .expect("valid budget");
    let faulty = PureFaults(map.clone());
    let sources: [(&str, &(dyn RatioSource + Sync)); 2] = [("map", &map), ("faulty", &faulty)];
    for (name, source) in sources {
        let want = oracle(source, &ranges, samples, 2025);
        for jobs in [1, 2, 4, 8] {
            let got = montecarlo::try_run(source, &ranges, &config, jobs, &Supervisor::new())
                .expect("sweep completes");
            assert_matches_oracle(&got, &want, samples, &format!("{name}, jobs = {jobs}"));
        }
    }
}

/// A source whose batch override drops the last ratio of every batch.
struct DropsOnePerBatch(TcdpMap);

impl RatioSource for DropsOnePerBatch {
    fn tcdp_ratio(&self, sample: &UncertaintySample) -> f64 {
        self.0.tcdp_ratio(sample)
    }

    fn tcdp_ratio_batch(&self, batch: &SampleBatch, ratios: &mut Vec<f64>) {
        self.0.tcdp_ratio_batch(batch, ratios);
        ratios.pop();
    }
}

#[test]
fn a_source_returning_wrong_size_batches_still_matches_the_oracle() {
    // Regression: a wrong-size batch used to be silently misaligned, so the
    // sweep reported fewer samples with shifted quantiles. The engine now
    // re-runs such a batch sample by sample.
    let study = CaseStudy::paper(short_matmul()).expect("case study builds");
    let source = DropsOnePerBatch(study.tcdp_map(Lifetime::months(24.0)));
    let ranges = UncertaintyRanges::paper_default();
    let samples = 5000;
    let config = MonteCarloConfig::new(samples, 2025).expect("sample count >= 1");
    let want = oracle(&source, &ranges, samples, 2025);
    for jobs in [1, 4] {
        let got = montecarlo::try_run(&source, &ranges, &config, jobs, &Supervisor::new())
            .expect("sweep completes");
        assert_matches_oracle(&got, &want, samples, &format!("jobs = {jobs}"));
    }
}
