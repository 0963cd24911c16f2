//! The run's result: metrics with units, the attempted/failed tally, the
//! provenance line, and a minimal JSON checker for program output.

use crate::util::Digest;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (iterations, requests, lint runs).
    pub attempted: u64,
    /// Operations that failed: a panic, an unexpected error, a failed
    /// output check, or an unanswered, shed or deadline-expired request.
    pub failed: u64,
    /// Why each failure counted (printed to stderr).
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra figures for the provenance line (sample counts, percentiles).
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one attempted operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.fail(why);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Adds a detail for the provenance line.
    pub fn detail(&mut self, key: &str, value: impl ToString) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// `(attempted − failed) / attempted`.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// True when every operation passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where and how the measured binaries were built.
pub struct Provenance {
    /// Cores the process may use.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the tree is a git checkout.
    pub commit: String,
    /// Digest of the workspace manifests and every file under `crates/`,
    /// which names the source even where there is no git metadata.
    pub source_digest: String,
    /// Build profile of this executable.
    pub profile: &'static str,
}

impl Provenance {
    /// Collects the provenance of a run started in the repository root.
    pub fn collect(root: &Path, nproc: usize) -> Self {
        let first_line = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
        };
        let commit = first_line(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(root),
        )
        .unwrap_or_else(|| "none".to_string());
        Self {
            nproc,
            rustc: first_line(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
            commit,
            source_digest: source_digest(root),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The provenance line printed before the result.
    pub fn json(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        details: &[(String, String)],
    ) -> String {
        let mut out = format!(
            "{{\"provenance\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\", \"profile\": \"{}\"}}, \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"details\": {{",
            self.nproc,
            escape(&self.rustc),
            escape(&self.commit),
            self.source_digest,
            self.profile
        );
        for (i, (k, v)) in details.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("}}");
        out
    }
}

/// Host-wide CPU time, in clock ticks, from `/proc/stat`.
pub struct CpuTicks {
    /// All states.
    pub total: u64,
    /// Stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTicks {
    /// Share of the host's CPU time stolen by the hypervisor between this
    /// reading and a later one; `None` when no time passed.
    pub fn steal_share(&self, later: &CpuTicks) -> Option<f64> {
        let total = later.total.checked_sub(self.total).filter(|&t| t > 0)?;
        Some(later.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}

/// The `cpu` line of `/proc/stat`, when readable.
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTicks {
        total: fields.iter().take(8).sum(),
        steal: *fields.get(7)?,
    })
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Digest of `Cargo.toml`, `Cargo.lock` and every file under `crates/`, in
/// path order.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.bytes(&bytes);
        }
    }
    d.hex()
}

/// Checks that `text` is one well-formed JSON value (RFC 8259 grammar;
/// numbers and escapes are checked for shape only).
pub fn check_json(text: &str) -> Result<(), String> {
    let bytes = text.trim().as_bytes();
    let mut p = JsonCheck { b: bytes, i: 0 };
    p.value(0)?;
    p.ws();
    if p.i != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(())
}

struct JsonCheck<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonCheck<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > 64 {
            return Err("nesting too deep".to_string());
        }
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.seq(b'}', depth, true),
            Some(b'[') => self.seq(b']', depth, false),
            Some(b'"') => self.string(),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'n') => self.word("null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                Ok(())
            }
            _ => Err(format!("expected a value at offset {}", self.i)),
        }
    }

    fn seq(&mut self, close: u8, depth: usize, object: bool) -> Result<(), String> {
        self.i += 1;
        self.ws();
        if self.b.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            if object {
                self.ws();
                self.string()?;
                self.expect(b':')?;
            }
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(c) if *c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at offset {}",
                        close as char, self.i
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => self.i += 1,
                c if c < 0x20 => return Err(format!("control byte in string at {}", self.i)),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn word(&mut self, w: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(())
        } else {
            Err(format!("expected `{w}` at offset {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metric("wall_s", 0.25, "s");
        let line = o.result_json();
        check_json(&line).expect("valid JSON");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("digest mismatch".to_string()));
        assert!(!o.correct());
        assert_eq!(o.ok_frac(), 0.5);
    }

    #[test]
    fn steal_share_is_stolen_over_all_ticks_between_readings() {
        let a = CpuTicks {
            total: 1000,
            steal: 10,
        };
        let b = CpuTicks {
            total: 1400,
            steal: 30,
        };
        assert_eq!(a.steal_share(&b), Some(0.05));
        assert_eq!(a.steal_share(&a), None);
    }

    #[test]
    fn json_checker_accepts_lint_output_and_rejects_garbage() {
        check_json("{\"schema\":3,\"findings\":[]}").expect("empty report");
        check_json("{\"a\":[1,-2.5e3,\"x\\\"y\",true,null,{}]}").expect("mixed");
        assert!(check_json("{\"schema\":3,").is_err());
        assert!(check_json("{} {}").is_err());
        assert!(check_json("ppatc-lint: 3 files").is_err());
    }
}
