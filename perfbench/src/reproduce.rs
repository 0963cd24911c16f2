//! `reproduce`: regenerate every paper exhibit (`paper all`), the
//! researcher's path. One iteration is `ppatc_bench::render_all_jobs(nproc)`
//! in a fresh process, so the `matmul_run`/`case_study` memos start empty
//! and the ISS run is inside every iteration.

use crate::batch::{self, Budget, Samples};
use crate::calib;
use crate::proc::{run_self, ChildReport};
use crate::report::Outcome;
use crate::trace::Trace;
use crate::util::{timed, Digest};
use crate::Ctx;
use std::time::Instant;

/// Byte length of `render_all_jobs` output recorded from the commit that
/// introduced this benchmark.
pub const EXPECTED_LEN: usize = 12164;
/// FNV-1a digest of that output.
pub const EXPECTED_DIGEST: &str = "add0fe57b0ff3f8f";

/// An exhibit: metric key, section title, renderer.
type Exhibit = (&'static str, &'static str, Box<dyn Fn() -> String>);

/// Every exhibit of `render_all_jobs`, in its order.
fn exhibits(jobs: usize) -> Vec<Exhibit> {
    use ppatc_bench::{
        ablation, capacity, extras, fig2ab, fig2c, fig2d, fig4, fig5, fig6, table1, table2,
    };
    vec![
        ("table1", "Table I", Box::new(table1::render)),
        ("fig2ab", "Fig. 2a/b", Box::new(fig2ab::render)),
        ("fig2c", "Fig. 2c", Box::new(fig2c::render)),
        ("fig2d", "Fig. 2d", Box::new(fig2d::render)),
        ("fig4", "Fig. 4", Box::new(fig4::render)),
        ("table2", "Table II", Box::new(table2::render)),
        ("fig5", "Fig. 5", Box::new(fig5::render)),
        ("fig6a", "Fig. 6a", Box::new(fig6::render_map)),
        ("fig6b", "Fig. 6b", Box::new(fig6::render_uncertainty)),
        ("ablations", "Ablations", Box::new(ablation::render)),
        (
            "workloads",
            "Workload suite",
            Box::new(extras::render_workloads),
        ),
        (
            "montecarlo",
            "Monte Carlo",
            Box::new(move || extras::render_monte_carlo_jobs(jobs)),
        ),
        (
            "capacity",
            "Capacity sweep",
            Box::new(move || capacity::render_jobs(jobs)),
        ),
    ]
}

/// The exhibit metric keys, in order.
pub fn exhibit_keys() -> Vec<&'static str> {
    exhibits(1).into_iter().map(|(k, _, _)| k).collect()
}

/// Checks rendered output against the recorded digest.
pub fn check_output(len: usize, digest: &str) -> Result<(), String> {
    if len == EXPECTED_LEN && digest == EXPECTED_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "paper-all output is {len} bytes with digest {digest}; expected {EXPECTED_LEN} bytes with digest {EXPECTED_DIGEST}"
        ))
    }
}

/// Child: the shared inputs every `paper all` pays first.
pub fn child_setup() -> Vec<(String, String)> {
    let reference = calib::reference_s();
    let ((), ns) = timed(|| {
        std::hint::black_box(ppatc_bench::matmul_run());
        std::hint::black_box(ppatc_bench::case_study());
    });
    vec![
        ("reference_s".into(), reference.to_string()),
        ("setup_ns".into(), ns.to_string()),
    ]
}

/// Child: one iteration.
pub fn child_iteration(jobs: usize) -> Vec<(String, String)> {
    let reference = calib::reference_s();
    let (text, ns) = timed(|| ppatc_bench::render_all_jobs(jobs));
    vec![
        ("reference_s".into(), reference.to_string()),
        ("wall_ns".into(), ns.to_string()),
        ("len".into(), text.len().to_string()),
        ("digest".into(), Digest::of(text.as_bytes())),
    ]
}

/// Child, traced: the ISS via `matmul_run()` first, then each exhibit's
/// renderer in its own span, single-threaded. The sections are assembled
/// exactly as `render_all_jobs` does, so the output check still applies.
pub fn child_traced(trace: &mut Trace) -> Vec<(String, String)> {
    let started = Instant::now();
    let spice0 = ppatc_spice::recovery_counters();
    let run = trace.span("m0.iss", |_| ppatc_bench::matmul_run());
    let mut text = String::new();
    for (key, title, render) in exhibits(1) {
        let body = trace.span(&format!("bench.{key}"), |_| render());
        text.push_str(&format!("==== {title} ====\n{body}\n\n"));
    }
    let traced_ns = crate::util::nanos_since(started);
    let spice1 = ppatc_spice::recovery_counters();
    vec![
        ("traced_ns".into(), traced_ns.to_string()),
        ("len".into(), text.len().to_string()),
        ("digest".into(), Digest::of(text.as_bytes())),
        ("instructions".into(), run.instructions.to_string()),
        ("cycles".into(), run.cycles.to_string()),
        ("spice_rescued".into(), (spice1.0 - spice0.0).to_string()),
        ("spice_exhausted".into(), (spice1.1 - spice0.1).to_string()),
    ]
}

fn iteration_check(r: &ChildReport) -> Result<(), String> {
    check_output(r.get("len")?, r.text("digest")?)
}

/// Time one iteration took, with its reference reading and its share of
/// set-up children, on the commit that introduced this benchmark (2-core
/// host); it fixes the iteration count of a run (see [`Budget`]).
const SECONDS_PER_ITERATION: f64 = 0.55;

/// Runs the fresh-process iterations of about `--seconds`, with a set-up
/// child after every fourth attempt.
pub fn drive(ctx: &Ctx, out: &mut Outcome) {
    let jobs = [ctx.jobs.to_string()];
    let mut s = Samples::default();
    let mut budget = Budget::new(ctx.seconds, SECONDS_PER_ITERATION);
    while budget.attempt() {
        let iteration = run_self(&ctx.exe, "reproduce", &jobs).and_then(|r| {
            iteration_check(&r)?;
            s.iteration(
                r.get::<u64>("wall_ns")? as f64 * 1e-9,
                r.get("reference_s")?,
                r.peak_rss_kib as f64,
            );
            Ok(())
        });
        out.check(iteration);
        if budget.attempts() % 4 == 1 {
            let setup = run_self(&ctx.exe, "reproduce-setup", &[]).and_then(|r| {
                s.setup(
                    r.get::<u64>("setup_ns")? as f64 * 1e-9,
                    r.get("reference_s")?,
                );
                Ok(())
            });
            out.check(setup);
        }
    }
    batch::metrics(out, &budget, &s);
}
