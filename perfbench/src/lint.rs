//! `lint`: the contributor's edit–lint loop. `ppatc-lint --jobs nproc`
//! runs over a frozen source corpus (`perfbench/corpus/lint-corpus.txt`,
//! the library sources of the commit that introduced this benchmark), not
//! the live workspace, so that adding or deleting source elsewhere never
//! moves the figure. Set-up is a cold run that fills the incremental
//! cache; each iteration restores that cache, keeps the same seeded
//! one-file edit in place, and re-lints incrementally.

use crate::batch::{self, Budget, Samples};
use crate::calib;
use crate::proc::run;
use crate::report::{check_json, Outcome};
use crate::trace::Trace;
use crate::util::{Digest, SplitMix64};
use crate::Ctx;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The corpus archive, relative to the repository root.
pub const CORPUS: &str = "perfbench/corpus/lint-corpus.txt";
/// Cold runs in set-up; `setup_s` is their median.
const COLD_RUNS: usize = 5;

/// Corpus files with no call-graph neighbours (re-export modules, and
/// files whose functions are test-only). Editing one re-lints that file
/// alone (~35 ms on a 2-core host) where an edit anywhere else re-lints
/// 110 of the 121 files (~270 ms), so the seeded edit never picks them:
/// every seed then measures the same regime, the common edit.
const OUTSIDE_CALL_GRAPH: [&str; 11] = [
    "crates/bench/src/cli.rs",
    "crates/core/src/lib.rs",
    "crates/device/src/lib.rs",
    "crates/fab/src/lib.rs",
    "crates/m0/src/lib.rs",
    "crates/pdk/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/spice/src/lib.rs",
    "crates/units/src/lib.rs",
    "crates/units/src/quantity.rs",
    "src/suite.rs",
];

/// The frozen corpus: `(relative path, bytes)` in path order.
pub struct Corpus {
    files: Vec<(String, Vec<u8>)>,
}

impl Corpus {
    /// Parses the archive: a `perfbench-corpus 1` line, then for each file
    /// a `file <path> <bytes>` line, the bytes, and a newline.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join(CORPUS);
        let raw = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut rest = raw
            .strip_prefix(b"perfbench-corpus 1\n".as_slice())
            .ok_or("corpus archive lacks its header")?;
        let mut files = Vec::new();
        while !rest.is_empty() {
            let nl = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or("truncated file line")?;
            let header = std::str::from_utf8(&rest[..nl]).map_err(|e| e.to_string())?;
            let mut f = header.split(' ');
            let (Some("file"), Some(name), Some(len), None) =
                (f.next(), f.next(), f.next(), f.next())
            else {
                return Err(format!("bad corpus line `{header}`"));
            };
            let len: usize = len
                .parse()
                .map_err(|_| format!("bad length in `{header}`"))?;
            let body = rest
                .get(nl + 1..nl + 1 + len)
                .ok_or("truncated file body")?;
            if name.contains("..") || name.starts_with('/') {
                return Err(format!("unsafe corpus path `{name}`"));
            }
            files.push((name.to_string(), body.to_vec()));
            rest = rest.get(nl + 2 + len..).ok_or("missing file terminator")?;
        }
        Ok(Self { files })
    }

    /// Writes the corpus under `dir` as a workspace `ppatc-lint` accepts.
    pub fn unpack(&self, dir: &Path) -> Result<(), String> {
        let _ = fs::remove_dir_all(dir);
        for (name, body) in &self.files {
            let path = dir.join(name);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)
                    .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
            }
            fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .map_err(|e| format!("write manifest: {e}"))
    }

    /// The seeded one-file edit: a comment line appended to a file the
    /// seed picks among those inside the corpus's call graph. Appending
    /// keeps every suppression comment next to the line it covers, so the
    /// edit changes what is analyzed, not the verdict.
    pub fn edit(&self, seed: u64) -> (String, Vec<u8>) {
        let mut g = SplitMix64::new(seed, 0x11);
        let candidates: Vec<&(String, Vec<u8>)> = self
            .files
            .iter()
            .filter(|(name, _)| !OUTSIDE_CALL_GRAPH.contains(&name.as_str()))
            .collect();
        let (name, body) = candidates[g.below(candidates.len())];
        let mut edited = body.clone();
        edited.extend_from_slice(format!("// perfbench edit {:016x}\n", g.next_u64()).as_bytes());
        (name.clone(), edited)
    }
}

fn cache_file(dir: &Path) -> PathBuf {
    dir.join("target").join("ppatc-lint.cache")
}

/// One `ppatc-lint` process: its wall time, peak memory, and the checks
/// (exit status 0 or 1, parseable `--json` output).
fn lint_once(ctx: &Ctx, dir: &Path) -> Result<(f64, f64, String), String> {
    let f = run(Command::new(ctx.bin_dir.join("ppatc-lint"))
        .arg("--root")
        .arg(dir)
        .args(["--jobs", &ctx.jobs.to_string(), "--json"]))?;
    if !matches!(f.code, Some(0 | 1)) {
        return Err(format!("ppatc-lint exited with {:?}", f.code));
    }
    check_json(&f.stdout).map_err(|e| format!("ppatc-lint --json output does not parse: {e}"))?;
    Ok((f.wall_ns as f64 * 1e-9, f.peak_rss_kib as f64, f.stdout))
}

/// Time one incremental iteration (its reference reading included) took on
/// the commit that introduced this benchmark (2-core host); it fixes the
/// iteration count of a run (see [`Budget`]).
const SECONDS_PER_ITERATION: f64 = 0.32;

/// Runs the workload and adds its end-to-end metrics to `out`.
pub fn drive(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let corpus = Corpus::load(&ctx.root)?;
    let dir = ctx.work_dir.join("lint");
    corpus.unpack(&dir)?;
    let mut s = Samples::default();
    let mut first_output: Option<String> = None;
    for _ in 0..COLD_RUNS {
        let _ = fs::remove_file(cache_file(&dir));
        let reference = calib::reference_s();
        let r = lint_once(ctx, &dir).map(|(wall, _, text)| {
            s.setup(wall, reference);
            first_output.get_or_insert(text);
        });
        out.check(r);
    }
    let cache = fs::read(cache_file(&dir)).map_err(|e| format!("cold run left no cache: {e}"))?;
    let (name, edited) = corpus.edit(ctx.seed);
    fs::write(dir.join(&name), &edited).map_err(|e| format!("edit {name}: {e}"))?;
    out.detail("edited_file", &name);
    let mut outputs = Vec::new();
    let mut budget = Budget::new(ctx.seconds, SECONDS_PER_ITERATION);
    while budget.attempt() {
        fs::write(cache_file(&dir), &cache).map_err(|e| format!("restore cache: {e}"))?;
        let reference = calib::reference_s();
        let r = lint_once(ctx, &dir).map(|(wall, rss, text)| {
            s.iteration(wall, reference, rss);
            outputs.push(Digest::of(text.as_bytes()));
        });
        out.check(r);
    }
    // A comment edit changes no finding: every incremental report must
    // equal the cold one.
    if let Some(cold) = first_output {
        let want = Digest::of(cold.as_bytes());
        if let Some(bad) = outputs.iter().find(|d| **d != want) {
            out.fail(format!(
                "incremental lint output {bad} differs from the cold run's {want}"
            ));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    batch::metrics(out, &budget, &s);
    Ok(())
}

/// Child, traced and single-threaded, over a corpus already unpacked in
/// `dir`: a cold run without cache, a run that fills the cache, the seeded
/// edit, then the incremental run.
pub fn child_traced(
    seed: u64,
    root: &Path,
    dir: &Path,
    trace: &mut Trace,
) -> Result<Vec<(String, String)>, String> {
    let corpus = Corpus::load(root)?;
    let cold = trace.span("lint.cold", |_| ppatc_lint::lint_workspace_jobs(dir, 1));
    let cold = cold.map_err(|e| e.to_string())?;
    let fill = trace.span("lint.fill", |_| {
        ppatc_lint::lint_workspace_cached(dir, 1, true)
    });
    fill.map_err(|e| e.to_string())?;
    let (name, edited) = corpus.edit(seed);
    fs::write(dir.join(&name), &edited).map_err(|e| format!("edit {name}: {e}"))?;
    let inc = trace.span("lint.incremental", |_| {
        ppatc_lint::lint_workspace_cached(dir, 1, true)
    });
    let inc = inc.map_err(|e| e.to_string())?;
    if inc.diagnostics.len() != cold.diagnostics.len() {
        return Err(format!(
            "incremental lint found {} diagnostics, the cold run {}",
            inc.diagnostics.len(),
            cold.diagnostics.len()
        ));
    }
    Ok(vec![
        ("files".into(), inc.files.to_string()),
        ("files_cached".into(), inc.cache_hits.to_string()),
        ("diagnostics".into(), inc.diagnostics.len().to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn corpus() -> Corpus {
        Corpus::load(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/..")))
            .expect("frozen corpus loads")
    }

    #[test]
    fn the_frozen_corpus_holds_every_excluded_file() {
        let c = corpus();
        assert_eq!(c.files.len(), 121);
        for name in OUTSIDE_CALL_GRAPH {
            assert!(
                c.files.iter().any(|(n, _)| n == name),
                "{name} not in the corpus"
            );
        }
    }

    #[test]
    fn the_edit_repeats_for_a_seed_and_appends_one_line() {
        let c = corpus();
        assert_eq!(c.edit(5), c.edit(5));
        let picks: BTreeSet<String> = (0..40).map(|s| c.edit(s).0).collect();
        assert!(picks.len() > 10);
        assert!(picks
            .iter()
            .all(|p| !OUTSIDE_CALL_GRAPH.contains(&p.as_str())));
        let (name, edited) = c.edit(5);
        let (_, body) = c
            .files
            .iter()
            .find(|(n, _)| *n == name)
            .expect("picked file");
        assert!(edited.starts_with(body));
        assert_eq!(
            edited[body.len()..].iter().filter(|&&b| b == b'\n').count(),
            1
        );
    }
}
