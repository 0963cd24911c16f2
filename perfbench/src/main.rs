//! `perfbench`: the benchmark of record for the ppatc workspace.
//!
//! ```text
//! bash perfbench/run.sh --workload <reproduce|explore|serve|lint> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! named workload for `--seconds` and prints every end-to-end metric; with
//! `--trace 1` it makes the traced run over every layer and prints the
//! per-layer metrics. The last line of stdout is the result object; the
//! line before it records provenance. See `perfbench/README.md`.

mod batch;
mod calib;
mod explore;
mod lint;
mod mix;
mod openloop;
mod proc;
mod report;
mod reproduce;
mod serve;
mod stats;
mod trace;
mod traced;
mod util;

use report::{Outcome, Provenance};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The named workloads.
const WORKLOADS: [&str; 4] = ["reproduce", "explore", "serve", "lint"];

/// What every workload needs.
pub struct Ctx {
    /// The workload named on the command line.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Worker count: one per available core.
    pub jobs: usize,
    /// The repository root (the working directory).
    pub root: PathBuf,
    /// This executable, for fresh-process children.
    pub exe: PathBuf,
    /// Where the release `ppatc-serve` and `ppatc-lint` binaries are.
    pub bin_dir: PathBuf,
    /// Working space inside the repository root, removed at exit.
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}`; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".to_string()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Builds the context, checking that the program binaries were built in
/// release mode next to this one.
fn context(args: &Args) -> Result<Ctx, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    for needed in ["Cargo.toml", "crates", lint::CORPUS] {
        if !root.join(needed).exists() {
            return Err(format!(
                "{} is missing; run from the repository root",
                needed
            ));
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let bin_dir = root.join(target).join("release");
    for bin in ["ppatc-serve", "ppatc-lint"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!(
                "{} is missing; build it with `cargo build --release -p {bin}` (perfbench/run.sh does)",
                bin_dir.join(bin).display()
            ));
        }
    }
    let work_dir = root
        .join(".bench_work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    Ok(Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        exe: std::env::current_exe().map_err(|e| format!("current executable: {e}"))?,
        root,
        bin_dir,
        work_dir,
    })
}

fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Only succeeds when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        return child_main(&argv[1..]);
    }
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = match context(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect(&ctx.root, ctx.jobs);
    let ticks_before = report::cpu_ticks();
    let mut out = Outcome::default();
    let run = if args.trace {
        traced::drive(&ctx, &mut out)
    } else {
        match args.workload.as_str() {
            "reproduce" => {
                reproduce::drive(&ctx, &mut out);
                Ok(())
            }
            "explore" => {
                explore::drive(&ctx, &mut out);
                Ok(())
            }
            "serve" => serve::drive(&ctx, &mut out),
            _ => lint::drive(&ctx, &mut out),
        }
    };
    remove_work_dir(&ctx.work_dir);
    if let Some(share) = ticks_before
        .zip(report::cpu_ticks())
        .and_then(|(a, b)| a.steal_share(&b))
    {
        out.detail("host_steal_pct", format!("{:.2}", 100.0 * share));
    }
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    for why in &out.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    println!(
        "{}",
        provenance.json(&args.workload, args.seed, args.trace, &out.details)
    );
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A fresh-process child: runs one mode and prints `key value` lines (and
/// `span ...` lines when traced).
fn child_main(argv: &[String]) -> ExitCode {
    let arg = |i: usize| argv.get(i).cloned().unwrap_or_default();
    let num = |i: usize| {
        arg(i)
            .parse::<u64>()
            .map_err(|_| format!("child argument {i} is not a number"))
    };
    let mut trace = trace::Trace::new(&arg(0));
    let result: Result<Vec<(String, String)>, String> = (|| match arg(0).as_str() {
        "reproduce-setup" => Ok(reproduce::child_setup()),
        "reproduce" => Ok(reproduce::child_iteration(num(1)? as usize)),
        "explore" => explore::child_iteration(num(1)?, num(2)? as usize),
        "trace-reproduce" => {
            trace.set_context("reproduce", num(1)? as u32);
            Ok(reproduce::child_traced(&mut trace))
        }
        "trace-explore" => {
            trace.set_context("explore", num(2)? as u32);
            explore::child_traced(num(1)?, &mut trace)
        }
        "trace-lint" => {
            trace.set_context("lint", num(2)? as u32);
            let root = std::env::current_dir().map_err(|e| e.to_string())?;
            lint::child_traced(num(1)?, &root, Path::new(&arg(3)), &mut trace)
        }
        other => Err(format!("unknown child mode `{other}`")),
    })();
    match result {
        Ok(values) => {
            for (k, v) in values {
                println!("{k} {v}");
            }
            for line in trace.encode() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a =
            parse_args(&args("--workload serve --seed 9 --seconds 20 --trace 1")).expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 9, 20, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload lint --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload lint --seconds 5")).is_err());
    }
}
