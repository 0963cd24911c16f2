//! `explore`: a design-space batch, the designer's path. Set-up builds the
//! paper case study (the ISS runs here and only here); one iteration is a
//! seeded Monte-Carlo sweep, a fine tCDP raster, and an organization sweep
//! over seeded distinct even capacities, all at `jobs = nproc`.

use crate::batch::{self, Budget, Samples};
use crate::calib;
use crate::proc::{run_self, ChildReport};
use crate::report::Outcome;
use crate::trace::Trace;
use crate::util::{nanos_since, timed, Digest, SplitMix64};
use crate::Ctx;
use ppatc::montecarlo::{self, MonteCarloConfig, MonteCarloResult, UncertaintyRanges};
use ppatc::{
    CaseStudy, EmbodiedPipeline, Lifetime, SystemDesign, TcdpMap, Technology, UsagePattern,
};
use ppatc_edram::{EdramMacro, Organization};
use ppatc_pdk::SiVtFlavor;
use ppatc_units::Frequency;
use ppatc_workloads::{Workload, WorkloadRun};
use std::time::Instant;

/// Monte-Carlo samples per iteration.
pub const MC_SAMPLES: usize = 600_000;
/// Raster resolution per axis.
pub const RASTER_N: usize = 1200;
/// Capacities in the organization sweep; each needs two fresh eDRAM
/// characterizations.
pub const SWEEP_POINTS: usize = 7;
/// Clock of the organization sweep, MHz (timing-feasible at every
/// capacity for both technologies).
const SWEEP_MHZ: f64 = 500.0;
/// Evaluation lifetime, months.
const LIFETIME_MONTHS: f64 = 24.0;

/// The seeded inputs of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Monte-Carlo seed.
    pub mc_seed: u64,
    /// Raster window, embodied-scale axis.
    pub x: (f64, f64),
    /// Raster window, operational-scale axis.
    pub y: (f64, f64),
    /// Per-macro capacities of the organization sweep, kB.
    pub capacities_kb: Vec<u32>,
}

impl Inputs {
    /// Draws the inputs for `seed`. Capacities are distinct even values in
    /// 2–1024 kB other than the case study's 64 kB, so each is a fresh
    /// characterization in a fresh process.
    pub fn new(seed: u64) -> Self {
        let mut g = SplitMix64::new(seed, 0xE7);
        let mut caps: Vec<u32> = (1..=512).map(|k| 2 * k).filter(|&kb| kb != 64).collect();
        g.shuffle(&mut caps);
        caps.truncate(SWEEP_POINTS);
        Self {
            mc_seed: g.next_u64(),
            x: (g.uniform(0.2, 0.4), g.uniform(2.5, 3.5)),
            y: (g.uniform(0.2, 0.4), g.uniform(2.5, 3.5)),
            capacities_kb: caps,
        }
    }
}

fn organization(kb: u32) -> Organization {
    Organization::new(kb * 1024, 2 * 1024, 32)
}

/// One organization-sweep point: areas, embodied carbon and the tCDP
/// ratio, or the typed design error (an infeasible point is a valid
/// result).
fn sweep_point(run: &WorkloadRun, kb: u32) -> Result<[f64; 5], String> {
    let f = Frequency::from_megahertz(SWEEP_MHZ);
    let design = |t| {
        SystemDesign::with_flavor_and_memory(t, f, SiVtFlavor::Rvt, organization(kb))
            .map_err(|e| e.to_string())
    };
    let si = design(Technology::AllSi)?;
    let m3d = design(Technology::M3dIgzoCnfetSi)?;
    let study = CaseStudy::from_designs(
        si,
        m3d,
        run,
        EmbodiedPipeline::paper_default(),
        UsagePattern::paper_default(),
    );
    Ok([
        study
            .design(Technology::AllSi)
            .area()
            .as_square_millimeters(),
        study
            .design(Technology::M3dIgzoCnfetSi)
            .area()
            .as_square_millimeters(),
        study.embodied(Technology::AllSi).per_good_die().as_grams(),
        study
            .embodied(Technology::M3dIgzoCnfetSi)
            .per_good_die()
            .as_grams(),
        study.tcdp_ratio(Lifetime::months(LIFETIME_MONTHS)),
    ])
}

fn mc_digest(r: &MonteCarloResult) -> String {
    let mut d = Digest::default();
    d.bytes(format!("{} {} {}", r.samples, r.evaluated, r.failures.total()).as_bytes())
        .f64(r.p_m3d_wins)
        .f64(r.ratio_quantiles.0)
        .f64(r.ratio_quantiles.1)
        .f64(r.ratio_quantiles.2);
    d.hex()
}

fn raster_digest(grid: &[(f64, f64, f64)]) -> String {
    let mut d = Digest::default();
    for &(x, y, r) in grid {
        d.f64(x).f64(y).f64(r);
    }
    d.hex()
}

fn sweep_digest(points: &[(u32, Result<[f64; 5], String>)]) -> String {
    let mut d = Digest::default();
    for (kb, p) in points {
        d.bytes(&kb.to_le_bytes());
        match p {
            Ok(v) => v.iter().for_each(|&x| {
                d.f64(x);
            }),
            Err(e) => {
                d.bytes(e.as_bytes());
            }
        }
    }
    d.hex()
}

/// The set-up every iteration process pays: the ISS run and the case study.
fn set_up() -> Result<(WorkloadRun, CaseStudy), String> {
    let run = Workload::matmul_int()
        .execute()
        .map_err(|e| e.to_string())?;
    let study = CaseStudy::paper(&run).map_err(|e| e.to_string())?;
    Ok((run, study))
}

fn map_of(study: &CaseStudy) -> TcdpMap {
    study.tcdp_map(Lifetime::months(LIFETIME_MONTHS))
}

fn mc(map: &TcdpMap, inputs: &Inputs, jobs: usize) -> Result<MonteCarloResult, String> {
    let config = MonteCarloConfig::new(MC_SAMPLES, inputs.mc_seed).map_err(|e| e.to_string())?;
    montecarlo::try_run_jobs(map, &UncertaintyRanges::paper_default(), &config, jobs)
        .map_err(|e| e.to_string())
}

fn raster(map: &TcdpMap, inputs: &Inputs, jobs: usize) -> Result<Vec<(f64, f64, f64)>, String> {
    map.try_raster_jobs(inputs.x, inputs.y, RASTER_N, RASTER_N, jobs)
        .map_err(|e| e.to_string())
}

/// Child: set-up, then one iteration at `jobs` workers.
pub fn child_iteration(seed: u64, jobs: usize) -> Result<Vec<(String, String)>, String> {
    let inputs = Inputs::new(seed);
    let setup_reference = calib::reference_s();
    let (setup, setup_ns) = timed(set_up);
    let (run, study) = setup?;
    let reference = calib::reference_s();
    let started = Instant::now();
    let map = map_of(&study);
    let (mc, mc_ns) = timed(|| mc(&map, &inputs, jobs));
    let mc = mc?;
    let (grid, raster_ns) = timed(|| raster(&map, &inputs, jobs));
    let grid = grid?;
    let caps = &inputs.capacities_kb;
    let (points, sweep_ns) = timed(|| {
        ppatc::eval::par_map_indexed(caps.len(), jobs, |k| (caps[k], sweep_point(&run, caps[k])))
    });
    let wall_ns = nanos_since(started);
    Ok(vec![
        ("setup_reference_s".into(), setup_reference.to_string()),
        ("setup_ns".into(), setup_ns.to_string()),
        ("reference_s".into(), reference.to_string()),
        ("wall_ns".into(), wall_ns.to_string()),
        ("mc_ns".into(), mc_ns.to_string()),
        ("raster_ns".into(), raster_ns.to_string()),
        ("sweep_ns".into(), sweep_ns.to_string()),
        ("mc_digest".into(), mc_digest(&mc)),
        ("raster_digest".into(), raster_digest(&grid)),
        ("sweep_digest".into(), sweep_digest(&points)),
    ])
}

/// Child, traced and single-threaded: the same work in layer spans. Each
/// macro is characterized in its own `edram.characterize` span before the
/// core sweep consumes it, so `core.sweep`'s self time excludes SPICE.
pub fn child_traced(seed: u64, trace: &mut Trace) -> Result<Vec<(String, String)>, String> {
    let inputs = Inputs::new(seed);
    let spice0 = ppatc_spice::recovery_counters();
    let cache0 = ppatc_edram::characterization_cache_stats();
    let run = trace.span("m0.iss", |_| Workload::matmul_int().execute());
    let run = run.map_err(|e| e.to_string())?;
    let study = trace.span("core.case_study", |_| CaseStudy::paper(&run));
    let study = study.map_err(|e| e.to_string())?;
    let map = map_of(&study);
    let mc = trace.span("core.mc", |_| mc(&map, &inputs, 1))?;
    let grid = trace.span("core.raster", |_| raster(&map, &inputs, 1))?;
    let points: Vec<_> = trace.span("core.sweep", |t| {
        inputs
            .capacities_kb
            .iter()
            .map(|&kb| {
                for tech in [Technology::AllSi, Technology::M3dIgzoCnfetSi] {
                    // The result is memoized; the design below reuses it.
                    let _ = t.span("edram.characterize", |_| {
                        EdramMacro::characterize_with(tech, organization(kb))
                    });
                }
                (kb, sweep_point(&run, kb))
            })
            .collect()
    });
    let spice1 = ppatc_spice::recovery_counters();
    let cache1 = ppatc_edram::characterization_cache_stats();
    Ok(vec![
        ("instructions".into(), run.instructions.to_string()),
        ("cycles".into(), run.cycles.to_string()),
        ("mc_samples".into(), mc.samples.to_string()),
        ("mc_failed".into(), mc.failures.total().to_string()),
        ("raster_points".into(), grid.len().to_string()),
        ("cache_hits".into(), (cache1.0 - cache0.0).to_string()),
        (
            "characterizations".into(),
            (cache1.1 - cache0.1).to_string(),
        ),
        ("spice_rescued".into(), (spice1.0 - spice0.0).to_string()),
        ("spice_exhausted".into(), (spice1.1 - spice0.1).to_string()),
        ("mc_digest".into(), mc_digest(&mc)),
        ("raster_digest".into(), raster_digest(&grid)),
        ("sweep_digest".into(), sweep_digest(&points)),
    ])
}

const DIGESTS: [&str; 3] = ["mc_digest", "raster_digest", "sweep_digest"];

fn digests(r: &ChildReport) -> Result<[String; 3], String> {
    Ok([
        r.text(DIGESTS[0])?.to_string(),
        r.text(DIGESTS[1])?.to_string(),
        r.text(DIGESTS[2])?.to_string(),
    ])
}

/// Time one iteration (its set-up and reference readings included) took on
/// the commit that introduced this benchmark (2-core host); it fixes the
/// iteration count of a run (see [`Budget`]).
const SECONDS_PER_ITERATION: f64 = 0.65;

/// Runs the fresh-process iterations of about `--seconds`. Every iteration's
/// digests must equal the first's, and a final single-worker process must
/// reproduce them (each engine promises byte-identical results for any
/// worker count).
pub fn drive(ctx: &Ctx, out: &mut Outcome) {
    let args = [ctx.seed.to_string(), ctx.jobs.to_string()];
    let mut s = Samples::default();
    let mut reference: Option<[String; 3]> = None;
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    let mut budget = Budget::new(ctx.seconds, SECONDS_PER_ITERATION);
    while budget.attempt() {
        let checked = run_self(&ctx.exe, "explore", &args).and_then(|r| {
            let d = digests(&r)?;
            let setup: u64 = r.get("setup_ns")?;
            let wall: u64 = r.get("wall_ns")?;
            for (i, key) in ["mc_ns", "raster_ns", "sweep_ns"].iter().enumerate() {
                parts[i].push(r.get::<u64>(key)? as f64 / wall as f64);
            }
            s.setup(setup as f64 * 1e-9, r.get("setup_reference_s")?);
            s.iteration(
                wall as f64 * 1e-9,
                r.get("reference_s")?,
                r.peak_rss_kib as f64,
            );
            match &reference {
                None => {
                    reference = Some(d);
                    Ok(())
                }
                Some(want) if *want == d => Ok(()),
                Some(want) => Err(format!(
                    "explore digests {d:?} differ from the first iteration's {want:?}"
                )),
            }
        });
        out.check(checked);
    }
    let single = [ctx.seed.to_string(), "1".to_string()];
    let cross = run_self(&ctx.exe, "explore", &single).and_then(|r| {
        let d = digests(&r)?;
        match &reference {
            Some(want) if *want == d => Ok(()),
            want => Err(format!(
                "single-worker explore digests {d:?} differ from {want:?}"
            )),
        }
    });
    out.check(cross);
    batch::metrics(out, &budget, &s);
    for (i, part) in ["mc", "raster", "sweep"].iter().enumerate() {
        if let Some(m) = crate::stats::median(&parts[i]) {
            out.detail(&format!("{part}_share"), format!("{m:.3}"));
        }
    }
}
