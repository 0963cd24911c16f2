//! Open- and closed-loop request loops over any transport.
//!
//! In the open loop a generator thread releases each request at its due
//! time to the connection it is assigned to, whatever state the system is
//! in; each connection sends its requests in order, one in flight at a
//! time. A request's latency runs from its due time to its answer, so a
//! stall anywhere — in the server, on a busy connection, or in the
//! generator itself — is charged to every request scheduled behind it.
//! How late the generator released a request is recorded separately
//! (`lag`), so a late generator is not mistaken for a slow server.

use crate::util::nanos;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One request's timeline, ns since the loop's epoch.
#[derive(Clone, Debug)]
pub struct Sample {
    /// When the request was due.
    pub due_ns: u64,
    /// When the generator released it.
    pub released_ns: u64,
    /// When its answer arrived.
    pub done_ns: u64,
    /// The answer, or the transport error.
    pub response: Result<String, String>,
}

impl Sample {
    /// Due time to answer.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// Due time to release: how late the generator ran.
    pub fn lag_ns(&self) -> u64 {
        self.released_ns.saturating_sub(self.due_ns)
    }
}

/// Lead time before the first due time, so set-up of the connection
/// threads is not charged to the first requests.
pub const LEAD: Duration = Duration::from_millis(20);

/// Runs `lines` open-loop: request `i` is due `dues_ns[i]` after the epoch
/// and goes to connection `i % transports.len()`. `stall` makes the
/// generator sleep an extra span before releasing one request (used by
/// tests to show how a stall is accounted). Returns samples in request
/// order.
pub fn open_loop<T>(
    lines: &[String],
    dues_ns: &[u64],
    transports: Vec<T>,
    stall: Option<(usize, Duration)>,
) -> Vec<Sample>
where
    T: FnMut(&str) -> Result<String, String> + Send,
{
    assert_eq!(lines.len(), dues_ns.len(), "one due time per request");
    let conns = transports.len().max(1);
    let epoch = Instant::now() + LEAD;
    let since = |t: Instant| nanos(t.saturating_duration_since(epoch));
    let mut samples: Vec<Option<Sample>> = vec![None; lines.len()];
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(conns);
        let mut workers = Vec::with_capacity(conns);
        for mut call in transports {
            let (tx, rx) = mpsc::channel::<(usize, u64)>();
            senders.push(tx);
            workers.push(scope.spawn(move || {
                let mut done = Vec::new();
                while let Ok((i, released_ns)) = rx.recv() {
                    let response = call(&lines[i]);
                    done.push((i, released_ns, since(Instant::now()), response));
                }
                done
            }));
        }
        for (i, &due_ns) in dues_ns.iter().enumerate() {
            if let Some((at, extra)) = stall {
                if at == i {
                    std::thread::sleep(extra);
                }
            }
            let due = epoch + Duration::from_nanos(due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let released_ns = since(Instant::now());
            // A closed channel means that worker panicked; the join below
            // reports it.
            let _ = senders[i % conns].send((i, released_ns));
        }
        drop(senders);
        for w in workers {
            let done = w.join().expect("open-loop connection thread panicked");
            for (i, released_ns, done_ns, response) in done {
                samples[i] = Some(Sample {
                    due_ns: dues_ns[i],
                    released_ns,
                    done_ns,
                    response,
                });
            }
        }
    });
    samples
        .into_iter()
        .map(|s| s.expect("every released request is answered or errs"))
        .collect()
}

/// One closed-loop answer and its send-to-answer latency, ns.
pub type Answer = (Result<String, String>, u64);

/// Runs `lines` closed-loop: connection `c` sends requests `c, c + n, ...`
/// back to back. Returns the answers with their latencies in request order,
/// and the time from the first send to the last answer.
pub fn closed_loop<T>(lines: &[String], transports: Vec<T>) -> (Vec<Answer>, u64)
where
    T: FnMut(&str) -> Result<String, String> + Send,
{
    let conns = transports.len().max(1);
    let mut answers: Vec<Option<Answer>> = vec![None; lines.len()];
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(c, mut call)| {
                scope.spawn(move || {
                    (c..lines.len())
                        .step_by(conns)
                        .map(|i| {
                            let sent = Instant::now();
                            let answer = call(&lines[i]);
                            (i, (answer, nanos(sent.elapsed())))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, a) in w.join().expect("closed-loop connection thread panicked") {
                answers[i] = Some(a);
            }
        }
    });
    let elapsed = nanos(started.elapsed());
    (
        answers
            .into_iter()
            .map(|a| a.expect("every request is sent"))
            .collect(),
        elapsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;

    const MS: u64 = 1_000_000;

    /// A transport that answers after `service` and echoes the line.
    fn echo(service: Duration) -> impl FnMut(&str) -> Result<String, String> + Send {
        move |line: &str| {
            std::thread::sleep(service);
            Ok(line.to_string())
        }
    }

    fn run(n: usize, spacing_ns: u64, stall: Option<(usize, Duration)>) -> Vec<Sample> {
        let lines: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let dues: Vec<u64> = (0..n as u64).map(|i| i * spacing_ns).collect();
        let transports = vec![
            echo(Duration::from_micros(200)),
            echo(Duration::from_micros(200)),
        ];
        open_loop(&lines, &dues, transports, stall)
    }

    #[test]
    fn answers_arrive_in_request_order_with_their_due_times() {
        let s = run(40, MS, None);
        assert_eq!(s.len(), 40);
        for (i, x) in s.iter().enumerate() {
            assert_eq!(x.response.as_deref(), Ok(i.to_string().as_str()));
            assert_eq!(x.due_ns, i as u64 * MS);
            assert!(x.done_ns >= x.released_ns && x.released_ns >= x.due_ns);
        }
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_behind_it() {
        let stall_at = 60;
        let s = run(200, MS, Some((stall_at, Duration::from_millis(50))));
        // Before the stall: sub-stall latencies.
        let before: Vec<f64> = s[..stall_at]
            .iter()
            .map(|x| x.latency_ns() as f64)
            .collect();
        assert!(crate::stats::median(&before).expect("samples") < 20.0 * MS as f64);
        // The generator stalls just after releasing request 59, so request
        // 60 goes out ~49 ms late, 61 ~48 ms late, and so on down the line.
        assert!(s[stall_at].latency_ns() >= 45 * MS);
        assert!(s[stall_at].lag_ns() >= 45 * MS);
        assert!(s[stall_at + 20].latency_ns() >= 25 * MS);
        assert!(s[stall_at + 20].lag_ns() >= 25 * MS);
        // ~50 of 200 requests were released late by at least 1 ms, so the
        // lag tail (the 90th percentile here) shows the stall.
        let lags: Vec<f64> = s.iter().map(|x| x.lag_ns() as f64).collect();
        let t = tail(&lags).expect("200 samples");
        assert!(t.value >= 10.0 * MS as f64, "lag tail {} ns", t.value);
        // Without the stall the same tail stays small.
        let calm = run(200, MS, None);
        let calm_lags: Vec<f64> = calm.iter().map(|x| x.lag_ns() as f64).collect();
        assert!(tail(&calm_lags).expect("200 samples").value < t.value / 2.0);
    }

    #[test]
    fn closed_loop_answers_every_request_in_order() {
        let lines: Vec<String> = (0..30).map(|i| i.to_string()).collect();
        let transports = vec![
            echo(Duration::from_micros(100)),
            echo(Duration::from_micros(100)),
        ];
        let (answers, elapsed) = closed_loop(&lines, transports);
        assert_eq!(answers.len(), 30);
        assert!(answers
            .iter()
            .enumerate()
            .all(|(i, (a, _))| a.as_deref() == Ok(i.to_string().as_str())));
        // Each answer took at least its 100 µs of service, and 15 of them
        // ran back to back on each connection.
        assert!(answers.iter().all(|(_, latency)| *latency >= 100_000));
        assert!(elapsed >= 1_500_000);
    }
}
