//! Measures the parallel evaluation engine and the characterization memo
//! cache, writing `BENCH_eval.json`.
//!
//! ```text
//! cargo run --release -p ppatc-bench --bin eval_bench
//! cargo run --release -p ppatc-bench --bin eval_bench -- --samples 100000 --jobs 8
//! ```
//!
//! Three workloads are timed (median of 5 warm runs each):
//!
//! - the joint Monte-Carlo sweep at 10 000 samples, serial vs. parallel
//!   worker counts up to `--jobs` (byte-identical results are asserted,
//!   not assumed);
//! - a 512×512 tCDP-ratio raster, serial vs. `--jobs` workers;
//! - the capacity sweep cold (every eDRAM macro characterized from
//!   scratch) vs. warm (every characterization served from the memo
//!   cache).
//!
//! `--jobs 0` is rejected, not clamped. `--deadline SECS`, `--checkpoint
//! PATH`, and `--resume` supervise the Monte-Carlo stage: a deadline that
//! expires stops the benchmark with exit code 2, and a checkpoint journals
//! the reference sweep so a rerun with `--resume` replays finished chunks
//! from disk.

use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::{Lifetime, PpatcError, RunBudget, Supervisor};
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions per measurement (median reported).
const RUNS: usize = 5;

/// Exit code of a run stopped by its deadline.
const EXIT_INTERRUPTED: u8 = 2;

fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() -> ExitCode {
    let mut samples = 10_000usize;
    let mut jobs = 4usize;
    let mut deadline = None;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => samples = n,
                _ => {
                    eprintln!("--samples requires a count >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" | "-j" => match ppatc_bench::cli::try_parse_jobs(args.next().as_deref()) {
                Ok(n) => jobs = n,
                Err(e) => {
                    eprintln!("--jobs: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--deadline" => match ppatc_bench::cli::try_parse_deadline(args.next().as_deref()) {
                Ok(d) => deadline = Some(d),
                Err(e) => {
                    eprintln!("--deadline: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match args.next() {
                Some(path) => checkpoint = Some(path),
                None => {
                    eprintln!("--checkpoint requires a journal path");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => resume = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if resume && checkpoint.is_none() {
        eprintln!("--resume requires --checkpoint PATH");
        return ExitCode::FAILURE;
    }

    let cores = ppatc::eval::default_jobs();
    eprintln!("eval_bench: {cores} core(s) available, timing up to {jobs} worker(s)");

    let mut budget = RunBudget::unlimited();
    if let Some(d) = deadline {
        budget = budget.with_deadline_in(d);
    }
    let mut supervisor = Supervisor::new().with_budget(budget).resuming(resume);
    if let Some(path) = &checkpoint {
        supervisor = supervisor.with_checkpoint(path);
    }

    // --- Capacity sweep: cold (characterize everything) vs. warm (memo
    // cache). Run this first so the cache is genuinely cold. The shared
    // matmul-int ISS run is workload *input*, not characterization work, so
    // it is forced outside the timed region (first caller pays the OnceLock
    // init otherwise).
    ppatc_bench::matmul_run();
    let (_, misses0) = ppatc_edram::characterization_cache_stats();
    let t = Instant::now();
    let sweep = || {
        ppatc_bench::capacity::try_sweep(1, &Supervisor::new()).expect("capacity sweep completes")
    };
    let cold_sweep = sweep();
    let capacity_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let (hits1, misses1) = ppatc_edram::characterization_cache_stats();
    let capacity_warm_ms = median_ms(|| {
        let warm = sweep();
        assert_eq!(warm, cold_sweep, "cache must not change sweep results");
    });
    let (hits2, misses2) = ppatc_edram::characterization_cache_stats();

    // --- Monte-Carlo sweep, serial vs. parallel (results asserted equal to
    // the pass under the configured supervisor). That pass runs first so a
    // deadline or journal applies to a full-size sweep rather than an
    // already-warm rerun.
    let map = ppatc_bench::case_study().tcdp_map(Lifetime::months(24.0));
    let ranges = UncertaintyRanges::paper_default();
    let config = MonteCarloConfig::new(samples, 2025).expect("sample count >= 1");
    let reference = match montecarlo::try_run(&map, &ranges, &config, jobs, &supervisor) {
        Ok(r) => r,
        Err(e @ PpatcError::Interrupted { .. }) => {
            eprintln!("{e}");
            if let Some(path) = &checkpoint {
                eprintln!(
                    "partial results are journaled; rerun with `--checkpoint {path} --resume`"
                );
            }
            return ExitCode::from(EXIT_INTERRUPTED);
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workers = vec![1, 2, jobs];
    workers.sort_unstable();
    workers.dedup();
    let mc: Vec<(usize, f64)> = workers
        .iter()
        .map(|&j| {
            let ms = median_ms(|| {
                let r =
                    montecarlo::try_run_jobs(&map, &ranges, &config, j).expect("sweep evaluates");
                assert_eq!(r, reference, "jobs = {j} must be byte-identical");
            });
            (j, ms)
        })
        .collect();

    // --- Raster, serial vs. parallel.
    let raster_ref = map
        .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 512, 512, 1)
        .expect("raster evaluates");
    let raster_ms = |j: usize| {
        median_ms(|| {
            let g = map
                .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 512, 512, j)
                .expect("raster evaluates");
            assert_eq!(g, raster_ref, "jobs = {j} must be byte-identical");
        })
    };
    let mut raster_workers = vec![1, jobs];
    raster_workers.dedup();
    let raster: Vec<(usize, f64)> = raster_workers.iter().map(|&j| (j, raster_ms(j))).collect();

    let rows = |pairs: &[(usize, f64)]| {
        pairs
            .iter()
            .map(|(j, ms)| format!("    \"jobs_{j}\": {ms:.3}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let mc_rows = rows(&mc);
    let raster_rows = rows(&raster);
    let json = format!(
        r#"{{
  "benchmark": "ppatc-core parallel evaluation engine + eDRAM characterization memo cache",
  "command": "cargo run --release -p ppatc-bench --bin eval_bench",
  "methodology": "median of {RUNS} warm runs per row; serial-vs-parallel results asserted byte-identical before timing is reported",
  "host": {{
    "available_parallelism": {cores},
    "note": "on a 1-core host the parallel rows measure engine overhead only; the Monte-Carlo and raster stages scale with cores because every sample/point is a pure function of its index. Regenerate on the target host with the command above."
  }},
  "monte_carlo_{samples}_samples_ms": {{
{mc_rows}
  }},
  "raster_512x512_ms": {{
{raster_rows}
  }},
  "capacity_sweep_ms": {{
    "cold_cache": {:.1},
    "warm_cache": {:.3},
    "speedup": {:.1},
    "characterizations_cold": {},
    "characterizations_warm": {},
    "cache_hits_during_warm_runs": {}
  }},
  "determinism": "asserted in-process: MonteCarloResult (configured supervisor and default) and raster grid equal across worker counts, warm capacity sweep byte-identical to cold; the batched SoA sweep is checked against an independent per-sample oracle in tests/parallel_eval.rs, and supervision in tests/fault_injection.rs"
}}"#,
        capacity_cold_ms,
        capacity_warm_ms,
        capacity_cold_ms / capacity_warm_ms.max(1e-9),
        misses1 - misses0,
        misses2 - misses1,
        hits2 - hits1,
    );
    if let Err(e) = std::fs::write("BENCH_eval.json", format!("{json}\n")) {
        eprintln!("failed to write BENCH_eval.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
