//! Child processes: every timed iteration runs in a fresh process, and the
//! peak resident set of the process doing the work is read from the
//! kernel when it is reaped.

use crate::util::nanos_since;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak memory through Linux wait4 on a 64-bit host");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped process ended.
#[derive(Debug)]
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set (`ru_maxrss`, the kernel's VmHWM), KiB.
    pub peak_rss_kib: u64,
}

/// Waits for `child` and reads its peak resident set. The caller must have
/// drained or dropped the child's piped output first. After this call the
/// process is reaped: do not call `Child::wait` on it.
pub fn reap(child: &Child) -> Result<Reaped, String> {
    reap_with(child, 0).map(|r| r.expect("a blocking wait4 returns only once the child is reaped"))
}

/// [`reap`], but gives `child` at most `timeout` to exit on its own before
/// killing it.
pub fn reap_within(child: &mut Child, timeout: Duration) -> Result<Reaped, String> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(r) = reap_with(child, WNOHANG)? {
            return Ok(r);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child
        .kill()
        .map_err(|e| format!("kill {}: {e}", child.id()))?;
    reap(child)
}

const WNOHANG: i32 = 1;

/// One `wait4` call; `Ok(None)` when `options` has `WNOHANG` and the child
/// is still running.
fn reap_with(child: &Child, options: i32) -> Result<Option<Reaped>, String> {
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact C layouts wait4 writes (`int` and 64-bit `struct rusage`),
        // and `pid` is a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == pid {
            break;
        }
        if r == 0 {
            return Ok(None);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Some(Reaped {
        code,
        peak_rss_kib: u64::try_from(usage.maxrss_kib).unwrap_or(0),
    }))
}

/// A finished child run.
#[derive(Debug)]
pub struct Finished {
    /// Its standard output.
    pub stdout: String,
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Peak resident set, KiB.
    pub peak_rss_kib: u64,
    /// Host time from spawn to reaping, ns.
    pub wall_ns: u64,
}

/// Runs `cmd` to completion with stdout captured and stderr passed through.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("read {cmd:?}: {e}"))?;
    }
    let reaped = reap(&child)?;
    Ok(Finished {
        stdout,
        code: reaped.code,
        peak_rss_kib: reaped.peak_rss_kib,
        wall_ns: nanos_since(started),
    })
}

/// The `key value` lines and `span ...` lines a benchmark child prints.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// `key value` pairs.
    pub values: BTreeMap<String, String>,
    /// Encoded spans (see [`crate::trace::Trace::encode`]).
    pub spans: Vec<String>,
    /// Peak resident set of the child, KiB.
    pub peak_rss_kib: u64,
}

impl ChildReport {
    /// The value under `key`, parsed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .values
            .get(key)
            .ok_or_else(|| format!("child reported no `{key}`"))?;
        raw.parse()
            .map_err(|_| format!("child reported a bad `{key}`: `{raw}`"))
    }

    /// The value under `key` as text.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("child reported no `{key}`"))
    }
}

/// Runs this benchmark's own executable as a child in `mode` and parses
/// its report. A non-zero exit is an error.
pub fn run_self(exe: &Path, mode: &str, args: &[String]) -> Result<ChildReport, String> {
    let finished = run(Command::new(exe).arg("--child").arg(mode).args(args))?;
    if finished.code != Some(0) {
        return Err(format!("child `{mode}` exited with {:?}", finished.code));
    }
    let mut report = ChildReport {
        peak_rss_kib: finished.peak_rss_kib,
        ..ChildReport::default()
    };
    for line in finished.stdout.lines() {
        if line.starts_with("span ") {
            report.spans.push(line.to_string());
        } else if let Some((k, v)) = line.split_once(' ') {
            report.values.insert(k.to_string(), v.to_string());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_code_output_and_peak_memory() {
        let f = run(Command::new("sh").args(["-c", "echo hi; exit 3"])).expect("sh runs");
        assert_eq!(f.stdout, "hi\n");
        assert_eq!(f.code, Some(3));
        assert!(f.peak_rss_kib > 0);
    }
}
