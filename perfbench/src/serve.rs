//! `serve`: the query-service path. The real `ppatc-serve` binary runs as
//! its own process with `--workers nproc`; this process drives it with the
//! seeded [`Mix`]: first open-loop over `nproc` connections at the fixed
//! offered rate [`RATE_RPS`], then closed-loop over one connection (the
//! typical latency), then closed-loop with many requests in flight (the
//! throughput and the tail under load).

use crate::calib;
use crate::mix::{Class, Mix, Request, BLOCK};
use crate::openloop::{closed_loop, open_loop, Sample};
use crate::proc::{reap_within, Reaped};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Trace;
use crate::util::{nanos_since, SplitMix64};
use crate::Ctx;
use ppatc::RunBudget;
use ppatc_serve::protocol::{ok_response, parse_response};
use ppatc_serve::query::{try_evaluate, try_parse_request};
use ppatc_serve::{HealthSnapshot, ServeClient};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered open-loop rate, requests/s. On a 2-core host this is about a
/// fifth of the closed-loop `max_rps` of the commit that introduced this
/// benchmark, yet each of the two connections is already busy about a
/// fifth of the time, most of it waiting on `miss_org` characterizations.
pub const RATE_RPS: f64 = 1500.0;
/// Set-ups per run (spawn plus priming); `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` spent open-loop.
const OPEN_SHARE: f64 = 0.3;
/// Fewest open-loop windows per run.
const MIN_WINDOWS: usize = 3;
/// Open-loop requests per window: at least 1000, so each window has a true
/// 99th percentile with ten samples beyond it (as has each closed-loop
/// batch).
const WINDOW: usize = 2 * BLOCK;
/// Batches of the latency phase: closed-loop over one connection, so each
/// request has the server to itself and its latency is the server's work
/// on it plus the round trip, never a wait behind another request.
/// `p50_ms` is the median over all its requests. (With one connection per
/// worker, a `hit` often shares the host's two cores with a `miss_org`
/// characterization on the other worker, and the median fell on the edge
/// between the two cases: it spread 0.24 over ten runs, against 0.12 here.)
const LATENCY_BATCHES: usize = 20;
/// Batches of the throughput phase: closed-loop over
/// [`THROUGHPUT_CONNS_PER_WORKER`] connections per worker. `max_rps`,
/// `wall_s` and `p99_ms` are medians over the batches. The tail is taken
/// here, under load, where it is set by requests queued behind `miss_org`
/// characterizations; with one request in flight per worker it sits in
/// the slowest `miss_mc` answers instead and moved 2.5× with host steal.
const THROUGHPUT_BATCHES: usize = 25;
/// Enough requests in flight that the server, not the round trip, sets the
/// throughput phase's rate.
const THROUGHPUT_CONNS_PER_WORKER: usize = 4;
/// Requests per closed-loop batch: one mix block. The batch counts are
/// fixed so the unseen capacities last: at 20 s a run uses 440 of the 511,
/// and `miss_org` slots turn to `miss_eval` from about 42 s.
const BATCH: usize = BLOCK;
/// Miss answers per class re-evaluated in-process after the load.
const REEVAL_PER_CLASS: usize = 6;
/// Open-loop requests of the traced run (fixed, so counts repeat).
pub const TRACE_REQUESTS: usize = 6000;

type Transport = Box<dyn FnMut(&str) -> Result<String, String> + Send>;

/// The traced segment's per-layer values and its exact counts.
type TracedFigures = (Vec<(String, f64)>, Vec<(String, u64)>);

/// A running `ppatc-serve` process. Dropping it kills the process.
struct Server {
    child: Option<Child>,
    addr: String,
    stdout: Option<JoinHandle<String>>,
}

impl Server {
    fn spawn(ctx: &Ctx) -> Result<Self, String> {
        let mut child = Command::new(ctx.bin_dir.join("ppatc-serve"))
            .args(["--port", "0", "--workers", &ctx.jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn ppatc-serve: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().ok_or("ppatc-serve has no stdout")?);
        let mut server = Self {
            child: Some(child),
            addr: String::new(),
            stdout: None,
        };
        let mut first = String::new();
        out.read_line(&mut first)
            .map_err(|e| format!("read ppatc-serve banner: {e}"))?;
        server.addr = first
            .trim()
            .strip_prefix("ppatc-serve: listening on ")
            .ok_or_else(|| format!("unexpected ppatc-serve banner `{}`", first.trim()))?
            .to_string();
        // Drain the rest (the final health report) so the server never
        // blocks on a full pipe.
        server.stdout = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = out.read_to_string(&mut rest);
            rest
        }));
        Ok(server)
    }

    fn connect(&self) -> Result<Transport, String> {
        let mut client = ServeClient::try_connect_split(
            &self.addr,
            Duration::from_secs(5),
            Some(Duration::from_secs(30)),
        )
        .map_err(|e| format!("connect {}: {e}", self.addr))?;
        Ok(Box::new(move |line: &str| {
            client.try_request_raw(line).map_err(|e| e.to_string())
        }))
    }

    fn health(&self) -> Result<HealthSnapshot, String> {
        let raw = self.connect()?("health")?;
        let parsed = parse_response(&raw).map_err(|e| e.to_string())?;
        Ok(HealthSnapshot::parse(&parsed.body))
    }

    /// Drains the server and reaps it.
    fn stop(mut self) -> Result<Reaped, String> {
        let drained = self.connect().and_then(|mut c| c("drain"));
        let mut child = self.child.take().ok_or("server already stopped")?;
        let reaped = reap_within(&mut child, Duration::from_secs(20))?;
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        drained?;
        if reaped.code != Some(0) {
            return Err(format!("ppatc-serve exited with {:?}", reaped.code));
        }
        Ok(reaped)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = crate::proc::reap(&child);
        }
    }
}

/// Checks one answer: it must be `ok`, and a query answered before must be
/// answered with the same bytes.
fn check_answer(
    line: &str,
    answer: &Result<String, String>,
    first: &mut HashMap<String, String>,
) -> Result<(), String> {
    let payload = answer
        .as_ref()
        .map_err(|e| format!("`{line}` went unanswered: {e}"))?;
    if !payload.starts_with("ok\n") {
        let head = payload.lines().next().unwrap_or("");
        return Err(format!("`{line}` was answered `{head}`"));
    }
    match first.get(line) {
        Some(before) if before != payload => {
            Err(format!("`{line}` answered differently on a repeat"))
        }
        Some(_) => Ok(()),
        None => {
            first.insert(line.to_string(), payload.clone());
            Ok(())
        }
    }
}

/// Spawns a server and primes it; returns it with the set-up time,
/// calibrated (see [`calib`]).
fn set_up(
    ctx: &Ctx,
    mix: &Mix,
    out: &mut Outcome,
    first: &mut HashMap<String, String>,
) -> Result<(Server, f64), String> {
    let reference = calib::reference_s();
    let started = Instant::now();
    let server = Server::spawn(ctx)?;
    let mut client = server.connect()?;
    for line in mix.priming() {
        let answer = client(&line);
        let checked = check_answer(&line, &answer, first);
        out.check(checked.clone());
        if let Err(why) = checked {
            return Err(format!("priming failed: {why}"));
        }
    }
    let seconds = nanos_since(started) as f64 * 1e-9;
    Ok((server, calib::scaled(seconds, reference)))
}

/// Per-class and overall figures of an open-loop phase.
struct LoadFigures {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    by_class: Vec<(Class, Vec<f64>)>,
}

fn figures(reqs: &[Request], samples: &[Sample]) -> LoadFigures {
    let ms = |ns: u64| ns as f64 * 1e-6;
    LoadFigures {
        latencies_ms: samples.iter().map(|s| ms(s.latency_ns())).collect(),
        lags_ms: samples.iter().map(|s| ms(s.lag_ns())).collect(),
        by_class: Class::ALL
            .iter()
            .map(|&c| {
                let lat = reqs
                    .iter()
                    .zip(samples)
                    .filter(|(r, _)| r.class == c)
                    .map(|(_, s)| ms(s.latency_ns()))
                    .collect();
                (c, lat)
            })
            .collect(),
    }
}

fn transports(server: &Server, n: usize) -> Result<Vec<Transport>, String> {
    (0..n).map(|_| server.connect()).collect()
}

fn dues(n: usize) -> Vec<u64> {
    (0..n).map(|i| (i as f64 * 1e9 / RATE_RPS) as u64).collect()
}

/// Counters of the load window from two `health` snapshots.
struct HealthDelta {
    hits: u64,
    misses: u64,
    shed: u64,
    deadline_expired: u64,
    worker_restarts: u64,
}

fn delta(a: &HealthSnapshot, b: &HealthSnapshot) -> HealthDelta {
    HealthDelta {
        hits: b.cache_hits - a.cache_hits,
        misses: b.cache_misses - a.cache_misses,
        shed: b.shed - a.shed,
        deadline_expired: b.deadline_expired - a.deadline_expired,
        worker_restarts: b.worker_restarts,
    }
}

/// Re-evaluates a seeded sample of the miss answers in this process through
/// `ppatc_serve::query::try_evaluate`; the bytes must match the server's.
fn reevaluate(seed: u64, reqs: &[Request], answers: &[Result<String, String>], out: &mut Outcome) {
    let mut g = SplitMix64::new(seed, 0xEE);
    for class in [Class::MissEval, Class::MissMc, Class::MissOrg] {
        let idx: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].class == class)
            .collect();
        for _ in 0..REEVAL_PER_CLASS.min(idx.len()) {
            let i = idx[g.below(idx.len())];
            let line = &reqs[i].line;
            let check = try_parse_request(line)
                .map_err(|e| format!("`{line}` does not parse: {e}"))
                .and_then(|req| {
                    try_evaluate(&req.query, &RunBudget::unlimited())
                        .map_err(|e| format!("`{line}` fails in-process: {e}"))
                })
                .and_then(|body| match &answers[i] {
                    Ok(served) if *served == ok_response(&body) => Ok(()),
                    _ => Err(format!(
                        "`{line}`: server answer differs from in-process evaluation"
                    )),
                });
            out.check(check);
        }
    }
}

fn class_count(reqs: &[Request], c: Class) -> usize {
    reqs.iter().filter(|r| r.class == c).count()
}

/// Median of `xs`, NaN for none.
fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// 99th-percentile rule of `xs` (see [`tail`]), NaN for too few.
fn p99(xs: &[f64]) -> f64 {
    tail(xs).map_or(f64::NAN, |t| t.value)
}

/// A closed-loop phase: its requests, answers and send-to-answer
/// latencies in ms, and per batch the time, `ok` answers per second and
/// p99 latency in ms. Every figure is calibrated against a reference
/// reading taken before its batch (see [`calib`]).
#[derive(Default)]
struct ClosedPhase {
    reqs: Vec<Request>,
    answers: Vec<Result<String, String>>,
    latency_ms: Vec<f64>,
    batch_s: Vec<f64>,
    batch_rps: Vec<f64>,
    batch_p99_ms: Vec<f64>,
    reference_s: Vec<f64>,
}

/// Sends `batches` mix blocks closed-loop, each over `conns` fresh
/// connections.
fn closed_phase(
    server: &Server,
    mix: &mut Mix,
    batches: usize,
    conns: usize,
) -> Result<ClosedPhase, String> {
    let mut phase = ClosedPhase::default();
    for _ in 0..batches {
        let batch: Vec<Request> = (0..BATCH).map(|_| mix.next_request()).collect();
        let lines: Vec<String> = batch.iter().map(|r| r.line.clone()).collect();
        let transports = transports(server, conns)?;
        let reference = calib::reference_s();
        let (answers, ns) = closed_loop(&lines, transports);
        let ok = answers
            .iter()
            .filter(|(a, _)| a.as_ref().is_ok_and(|p| p.starts_with("ok\n")))
            .count();
        let scaled_ms = |ns: u64| calib::scaled(ns as f64 * 1e-6, reference);
        phase.batch_s.push(scaled_ms(ns) * 1e-3);
        phase.batch_rps.push(ok as f64 / (scaled_ms(ns) * 1e-3));
        phase.reference_s.push(reference);
        let latency_ms: Vec<f64> = answers.iter().map(|(_, ns)| scaled_ms(*ns)).collect();
        phase.batch_p99_ms.push(p99(&latency_ms));
        phase.latency_ms.extend(latency_ms);
        phase.reqs.extend(batch);
        phase.answers.extend(answers.into_iter().map(|(a, _)| a));
    }
    Ok(phase)
}

/// Runs the workload and adds its end-to-end metrics to `out`.
pub fn drive(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut mix = Mix::new(ctx.seed);
    let mut first = HashMap::new();
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let (s, t) = set_up(ctx, &mix, out, &mut first)?;
        setup_s.push(t);
        if k + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server")?;
    let before = server.health()?;

    let windows = ((RATE_RPS * OPEN_SHARE * ctx.seconds as f64 / WINDOW as f64).round() as usize)
        .max(MIN_WINDOWS);
    let n_open = windows * WINDOW;
    let reqs: Vec<Request> = (0..n_open).map(|_| mix.next_request()).collect();
    let lines: Vec<String> = reqs.iter().map(|r| r.line.clone()).collect();
    let samples = open_loop(&lines, &dues(n_open), transports(&server, ctx.jobs)?, None);
    let open_answers: Vec<Result<String, String>> =
        samples.iter().map(|s| s.response.clone()).collect();
    let latency = closed_phase(&server, &mut mix, LATENCY_BATCHES, 1)?;
    let throughput = closed_phase(
        &server,
        &mut mix,
        THROUGHPUT_BATCHES,
        THROUGHPUT_CONNS_PER_WORKER * ctx.jobs,
    )?;
    let after = server.health()?;
    let reaped = server.stop()?;

    let closed = latency
        .reqs
        .iter()
        .zip(&latency.answers)
        .chain(throughput.reqs.iter().zip(&throughput.answers));
    for (r, a) in reqs.iter().zip(&open_answers).chain(closed) {
        out.check(check_answer(&r.line, a, &mut first));
    }
    reevaluate(ctx.seed, &reqs, &open_answers, out);

    out.metric("setup_s", med(&setup_s), "s");
    out.metric("wall_s", med(&throughput.batch_s), "s");
    out.metric("p50_ms", med(&latency.latency_ms), "ms");
    out.metric("p99_ms", med(&throughput.batch_p99_ms), "ms");
    out.metric("max_rps", med(&throughput.batch_rps), "req/s");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out.metric("peak_rss_mb", reaped.peak_rss_kib as f64 / 1024.0, "MiB");

    // The open loop's due-time latencies, median over the windows of each
    // window's p50 and p99: reported, not gated (see README.md).
    let f = figures(&reqs, &samples);
    let (open_p50, open_p99): (Vec<f64>, Vec<f64>) = f
        .latencies_ms
        .chunks_exact(WINDOW)
        .map(|w| (med(w), p99(w)))
        .unzip();
    let d = delta(&before, &after);
    let misses = reqs
        .iter()
        .chain(&latency.reqs)
        .chain(&throughput.reqs)
        .filter(|r| r.class != Class::Hit)
        .count() as u64;
    let references: Vec<f64> = [&latency.reference_s, &throughput.reference_s]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    out.detail("reference_ms", format!("{:.3}", med(&references) * 1e3));
    out.detail("rate_rps", RATE_RPS);
    out.detail("open_requests", n_open);
    out.detail("open_p50_ms", format!("{:.4}", med(&open_p50)));
    out.detail("open_p99_ms", format!("{:.4}", med(&open_p99)));
    out.detail("gen_lag_p99_ms", format!("{:.3}", p99(&f.lags_ms)));
    out.detail("latency_p99_ms", format!("{:.4}", p99(&latency.latency_ms)));
    out.detail(
        "throughput_p50_ms",
        format!("{:.4}", med(&throughput.latency_ms)),
    );
    out.detail("latency_requests", latency.reqs.len());
    out.detail("throughput_requests", throughput.reqs.len());
    out.detail("hot_misses", d.misses.saturating_sub(misses));
    out.detail("shed", d.shed);
    out.detail("deadline_expired", d.deadline_expired);
    Ok(())
}

/// The traced serve segment: spawn and prime, a fixed-size open-loop load,
/// drain. Returns the per-layer figures as `(metric, value)` pairs and the
/// exact counts that must repeat across passes.
pub fn traced(ctx: &Ctx, trace: &mut Trace, out: &mut Outcome) -> Result<TracedFigures, String> {
    let mut mix = Mix::new(ctx.seed);
    let mut first = HashMap::new();
    let (server, _) = trace.span("serve.setup", |_| set_up(ctx, &mix, out, &mut first))?;
    let before = server.health()?;
    let reqs: Vec<Request> = (0..TRACE_REQUESTS).map(|_| mix.next_request()).collect();
    let lines: Vec<String> = reqs.iter().map(|r| r.line.clone()).collect();
    let conns = transports(&server, ctx.jobs)?;
    let samples = trace.span("serve.load", |_| {
        open_loop(&lines, &dues(TRACE_REQUESTS), conns, None)
    });
    let after = server.health()?;
    trace.span("serve.drain", |_| server.stop())?;
    for (r, s) in reqs.iter().zip(&samples) {
        out.check(check_answer(&r.line, &s.response, &mut first));
    }
    let f = figures(&reqs, &samples);
    let d = delta(&before, &after);
    let nan = f64::NAN;
    let mut values = Vec::new();
    for (c, lat) in &f.by_class {
        values.push((
            format!("serve.{}_p50_ms", c.name()),
            median(lat).unwrap_or(nan),
        ));
        values.push((format!("serve.{}_p99_ms", c.name()), p99(lat)));
    }
    let misses = reqs.iter().filter(|r| r.class != Class::Hit).count() as u64;
    let lookups = (d.hits + d.misses).max(1);
    values.push((
        "serve.cache_hit_ratio".into(),
        d.hits as f64 / lookups as f64,
    ));
    values.push((
        "serve.hot_misses".into(),
        d.misses.saturating_sub(misses) as f64,
    ));
    values.push(("serve.shed".into(), d.shed as f64));
    values.push(("serve.deadline_expired".into(), d.deadline_expired as f64));
    values.push(("serve.worker_restarts".into(), d.worker_restarts as f64));
    values.push(("serve.gen_lag_ms".into(), p99(&f.lags_ms)));
    let counts = Class::ALL
        .iter()
        .map(|&c| {
            (
                format!("serve.{}_requests", c.name()),
                class_count(&reqs, c) as u64,
            )
        })
        .collect();
    Ok((values, counts))
}
