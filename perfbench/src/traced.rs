//! The traced run (`--trace 1`): one pass over every layer, made twice.
//!
//! Each pass runs a traced segment per workload — `reproduce` and
//! `explore` in fresh child processes, `serve` against a fresh server,
//! `lint` in a fresh child over a fresh corpus copy — single-threaded
//! wherever the benchmark controls the worker count, so process-wide
//! counters belong to the traced work alone. Timings are the mean of the
//! two passes; the exact counts must be equal in both, or the run fails.

use crate::lint::Corpus;
use crate::proc::{run_self, ChildReport};
use crate::report::Outcome;
use crate::reproduce;
use crate::trace::{Span, Trace};
use crate::Ctx;
use std::collections::BTreeMap;

/// Passes per traced run.
const PASSES: u32 = 2;

/// Every per-layer metric: name, unit, and the direction that is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("m0.instructions", "count", "lower"),
    ("m0.cycles", "count", "lower"),
    ("m0.iss_ms", "ms", "lower"),
    ("m0.minstr_per_s", "Minstr/s", "higher"),
    ("edram.characterizations", "count", "lower"),
    ("edram.cache_hit_ratio", "ratio", "higher"),
    ("edram.characterize_ms", "ms", "lower"),
    ("spice.rescued", "count", "lower"),
    ("spice.exhausted", "count", "lower"),
    ("core.case_study_ms", "ms", "lower"),
    ("core.mc_ms", "ms", "lower"),
    ("core.mc_samples_per_s", "1/s", "higher"),
    ("core.mc_failed", "count", "lower"),
    ("core.raster_ms", "ms", "lower"),
    ("core.raster_points_per_s", "1/s", "higher"),
    ("core.sweep_ms", "ms", "lower"),
    ("bench.table1_ms", "ms", "lower"),
    ("bench.fig2ab_ms", "ms", "lower"),
    ("bench.fig2c_ms", "ms", "lower"),
    ("bench.fig2d_ms", "ms", "lower"),
    ("bench.fig4_ms", "ms", "lower"),
    ("bench.table2_ms", "ms", "lower"),
    ("bench.fig5_ms", "ms", "lower"),
    ("bench.fig6a_ms", "ms", "lower"),
    ("bench.fig6b_ms", "ms", "lower"),
    ("bench.ablations_ms", "ms", "lower"),
    ("bench.workloads_ms", "ms", "lower"),
    ("bench.montecarlo_ms", "ms", "lower"),
    ("bench.capacity_ms", "ms", "lower"),
    ("serve.hit_p50_ms", "ms", "lower"),
    ("serve.hit_p99_ms", "ms", "lower"),
    ("serve.miss_eval_p50_ms", "ms", "lower"),
    ("serve.miss_eval_p99_ms", "ms", "lower"),
    ("serve.miss_mc_p50_ms", "ms", "lower"),
    ("serve.miss_mc_p99_ms", "ms", "lower"),
    ("serve.miss_org_p50_ms", "ms", "lower"),
    ("serve.miss_org_p99_ms", "ms", "lower"),
    ("serve.hit_requests", "count", "higher"),
    ("serve.miss_eval_requests", "count", "higher"),
    ("serve.miss_mc_requests", "count", "higher"),
    ("serve.miss_org_requests", "count", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.hot_misses", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_expired", "count", "lower"),
    ("serve.worker_restarts", "count", "lower"),
    ("serve.gen_lag_ms", "ms", "lower"),
    ("lint.cold_ms", "ms", "lower"),
    ("lint.incremental_ms", "ms", "lower"),
    ("lint.files", "count", "higher"),
    ("lint.files_cached", "count", "higher"),
    ("lint.diagnostics", "count", "lower"),
    ("bench.untraced_ms", "ms", "lower"),
    ("bench.trace_overhead_ms", "ms", "lower"),
];

/// Counts that must be equal in every pass of one seed.
const EXACT: &[&str] = &[
    "m0.instructions",
    "m0.cycles",
    "edram.characterizations",
    "core.mc_failed",
    "serve.hit_requests",
    "serve.miss_eval_requests",
    "serve.miss_mc_requests",
    "serve.miss_org_requests",
    "lint.files",
];

/// Layers whose spans count as covered time.
const LAYERS: &[&str] = &["m0", "edram", "spice", "core", "bench", "serve", "lint"];

fn is_layer(s: &Span) -> bool {
    s.name
        .split_once('.')
        .is_some_and(|(layer, _)| LAYERS.contains(&layer))
}

/// Runs a traced child and imports its spans under a `proc.<mode>` span.
fn traced_child(
    ctx: &Ctx,
    trace: &mut Trace,
    mode: &str,
    args: &[String],
) -> Result<ChildReport, String> {
    let start = trace.now_ns();
    let report = run_self(&ctx.exe, mode, args)?;
    let proc_span = trace.record(&format!("proc.{mode}"), start, trace.now_ns());
    trace.import(
        report.spans.iter().map(String::as_str),
        start,
        Some(proc_span),
    )?;
    Ok(report)
}

/// One pass; returns its metric values.
fn pass(
    ctx: &Ctx,
    trace: &mut Trace,
    pass: u32,
    out: &mut Outcome,
) -> Result<BTreeMap<String, f64>, String> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let p = pass.to_string();
    let seed = ctx.seed.to_string();
    // The untraced reference for the trace overhead runs before the pass
    // window, so it does not count as untraced time of the pass.
    let untraced = run_self(&ctx.exe, "reproduce", &["1".to_string()])?;
    out.check(reproduce::check_output(
        untraced.get("len")?,
        untraced.text("digest")?,
    ));
    let pass_start = trace.now_ns();

    trace.set_context("reproduce", pass);
    let r = traced_child(ctx, trace, "trace-reproduce", std::slice::from_ref(&p))?;
    out.check(reproduce::check_output(r.get("len")?, r.text("digest")?));
    let overhead_ns = r.get::<f64>("traced_ns")? - untraced.get::<f64>("wall_ns")?;
    v.insert("bench.trace_overhead_ms".into(), overhead_ns * 1e-6);
    let instructions: f64 = r.get("instructions")?;
    v.insert("m0.instructions".into(), instructions);
    v.insert("m0.cycles".into(), r.get("cycles")?);

    trace.set_context("explore", pass);
    let e = traced_child(ctx, trace, "trace-explore", &[seed.clone(), p.clone()])?;
    out.check(
        if e.text("instructions")? == r.text("instructions")?
            && e.text("cycles")? == r.text("cycles")?
        {
            Ok(())
        } else {
            Err("the two matmul-int ISS runs of one pass disagree".to_string())
        },
    );
    let characterizations: f64 = e.get("characterizations")?;
    let hits: f64 = e.get("cache_hits")?;
    v.insert("edram.characterizations".into(), characterizations);
    v.insert(
        "edram.cache_hit_ratio".into(),
        hits / (hits + characterizations).max(1.0),
    );
    v.insert(
        "spice.rescued".into(),
        r.get::<f64>("spice_rescued")? + e.get::<f64>("spice_rescued")?,
    );
    v.insert(
        "spice.exhausted".into(),
        r.get::<f64>("spice_exhausted")? + e.get::<f64>("spice_exhausted")?,
    );
    v.insert("core.mc_failed".into(), e.get("mc_failed")?);
    let mc_samples: f64 = e.get("mc_samples")?;
    let raster_points: f64 = e.get("raster_points")?;

    trace.set_context("serve", pass);
    let (values, counts) = crate::serve::traced(ctx, trace, out)?;
    v.extend(values);
    v.extend(counts.into_iter().map(|(k, n)| (k, n as f64)));

    trace.set_context("lint", pass);
    let dir = ctx.work_dir.join(format!("trace-lint-{pass}"));
    Corpus::load(&ctx.root)?.unpack(&dir)?;
    let dir_arg = dir.to_string_lossy().into_owned();
    let l = traced_child(ctx, trace, "trace-lint", &[seed, p, dir_arg])?;
    let _ = std::fs::remove_dir_all(&dir);
    for key in ["files", "files_cached", "diagnostics"] {
        v.insert(format!("lint.{key}"), l.get(key)?);
    }

    // Span-derived figures of this pass.
    let this_pass = |s: &Span| s.iteration == pass;
    let spans: Vec<usize> = (0..trace.spans().len())
        .filter(|&i| this_pass(&trace.spans()[i]))
        .collect();
    let self_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|&&i| trace.spans()[i].name == name)
            .map(|&i| trace.self_ns(i) as f64 * 1e-6)
            .sum()
    };
    let mean_ms = |name: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .map(|&i| &trace.spans()[i])
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    let iss_ms = mean_ms("m0.iss");
    v.insert("m0.iss_ms".into(), iss_ms);
    v.insert(
        "m0.minstr_per_s".into(),
        instructions / (iss_ms * 1e-3) / 1e6,
    );
    v.insert(
        "edram.characterize_ms".into(),
        mean_ms("edram.characterize"),
    );
    v.insert("core.case_study_ms".into(), self_ms("core.case_study"));
    let mc_ms = self_ms("core.mc");
    v.insert("core.mc_ms".into(), mc_ms);
    v.insert("core.mc_samples_per_s".into(), mc_samples / (mc_ms * 1e-3));
    let raster_ms = self_ms("core.raster");
    v.insert("core.raster_ms".into(), raster_ms);
    v.insert(
        "core.raster_points_per_s".into(),
        raster_points / (raster_ms * 1e-3),
    );
    v.insert("core.sweep_ms".into(), self_ms("core.sweep"));
    for key in reproduce::exhibit_keys() {
        v.insert(format!("bench.{key}_ms"), self_ms(&format!("bench.{key}")));
    }
    v.insert("lint.cold_ms".into(), self_ms("lint.cold"));
    v.insert("lint.incremental_ms".into(), self_ms("lint.incremental"));
    let covered = trace.covered_ns(|s| this_pass(s) && is_layer(s));
    let pass_ns = trace.now_ns() - pass_start;
    v.insert(
        "bench.untraced_ms".into(),
        pass_ns.saturating_sub(covered) as f64 * 1e-6,
    );
    Ok(v)
}

/// Makes the traced run and adds the per-layer metrics to `out`.
pub fn drive(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut trace = Trace::new(&ctx.workload);
    let mut passes = Vec::new();
    for k in 0..PASSES {
        passes.push(pass(ctx, &mut trace, k, out)?);
    }
    for key in EXACT {
        let values: Vec<Option<&f64>> = passes.iter().map(|p| p.get(*key)).collect();
        out.check(
            if values.windows(2).all(|w| w[0] == w[1]) && values[0].is_some() {
                Ok(())
            } else {
                Err(format!(
                    "exact count `{key}` differs across traced passes: {values:?}"
                ))
            },
        );
    }
    for (name, unit, _) in PER_LAYER {
        let mean = passes
            .iter()
            .map(|p| p.get(*name).copied().unwrap_or(f64::NAN))
            .sum::<f64>()
            / passes.len() as f64;
        out.metric(name, mean, unit);
    }
    out.detail("spans", trace.spans().len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = manifest
            .split("\"per_layer\"")
            .nth(1)
            .expect("a per_layer list");
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
