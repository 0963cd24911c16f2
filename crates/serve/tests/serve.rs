//! End-to-end tests of the serve stack: framing, admission control,
//! deadlines, panic isolation, determinism under concurrency, and drain.

use ppatc_serve::client::ServeClient;
use ppatc_serve::protocol::{MAGIC, MAX_FRAME_BYTES};
use ppatc_serve::server::{try_spawn, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(config: ServerConfig) -> ServerHandle {
    try_spawn(config).expect("server binds on an ephemeral port")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::try_connect(handle.addr(), CLIENT_TIMEOUT).expect("client connects")
}

#[test]
fn ping_health_and_eval_round_trip() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);

    let pong = client.try_request("ping").expect("ping answers");
    assert!(pong.ok);
    assert_eq!(pong.body, "pong");

    let eval = client.try_request("eval").expect("eval answers");
    assert!(eval.ok, "paper-point eval succeeds: {}", eval.body);
    assert!(eval.body.contains("tcdp_ratio="), "{}", eval.body);
    assert!(eval.body.contains("area_si_mm2="), "{}", eval.body);

    let health = client.try_request("health").expect("health answers");
    assert!(health.ok);
    let snap = ppatc_serve::HealthSnapshot::parse(&health.body);
    assert!(snap.served >= 2, "ping + eval counted: {:?}", snap);
    assert_eq!(snap.panicked, 0);

    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn repeated_queries_are_byte_identical_at_any_concurrency() {
    const POISONS: u64 = 4;
    let mut config = ServerConfig::default();
    config.workers = 4;
    config.enable_poison = true;
    config.frame_timeout = Duration::from_millis(100);
    let handle = spawn(config);
    let queries = [
        "eval capacity_kb=16",
        "eval capacity_kb=16 f_clk_mhz=700",
        "mc samples=64 seed=3 capacity_kb=16",
    ];
    // First pass: one client collects the reference bytes.
    let mut reference = Vec::new();
    let mut client = connect(&handle);
    for q in &queries {
        reference.push(client.try_request_raw(q).expect("reference answers"));
    }
    // Storm: 8 clients, interleaved, all must match exactly. They keep
    // going (at least 5 rounds) until the chaos connections are done, so
    // malformed frames, slow-loris stalls and poison panics land mid-storm.
    let chaos_done = AtomicUsize::new(0);
    let give_up = Instant::now() + Duration::from_secs(60);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let handle = &handle;
            let reference = &reference;
            let chaos_done = &chaos_done;
            scope.spawn(move || {
                let mut client = connect(handle);
                let mut round = 0;
                while round < 5
                    || (chaos_done.load(Ordering::SeqCst) < 3 && Instant::now() < give_up)
                {
                    for (i, q) in queries.iter().enumerate() {
                        let got = client.try_request_raw(q).expect("storm answers");
                        assert_eq!(got, reference[i], "query {q} must be byte-identical");
                    }
                    round += 1;
                }
            });
        }
        let handle = &handle;
        let chaos_done = &chaos_done;
        scope.spawn(move || {
            for _ in 0..3 {
                let mut stream = TcpStream::connect(handle.addr()).expect("connects");
                // A header alone: nothing is left unread when the server
                // closes, so its error frame is not lost to a reset.
                stream.write_all(b"XXXX\x00\x00\x00\x04").expect("writes");
                stream
                    .set_read_timeout(Some(CLIENT_TIMEOUT))
                    .expect("timeout");
                let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
                assert!(
                    matches!(got, Ok(Some(ref p)) if p.starts_with("err malformed")),
                    "{got:?}"
                );
            }
            chaos_done.fetch_add(1, Ordering::SeqCst);
        });
        scope.spawn(move || {
            for _ in 0..2 {
                let mut stream = TcpStream::connect(handle.addr()).expect("connects");
                stream.write_all(&MAGIC[..2]).expect("drips two bytes");
                std::thread::sleep(Duration::from_millis(250));
                stream
                    .set_read_timeout(Some(CLIENT_TIMEOUT))
                    .expect("timeout");
                let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
                assert!(
                    matches!(got, Ok(Some(ref p)) if p.contains("timeout")),
                    "{got:?}"
                );
            }
            chaos_done.fetch_add(1, Ordering::SeqCst);
        });
        scope.spawn(move || {
            let mut client = connect(handle);
            for _ in 0..POISONS {
                let resp = client.try_request("poison").expect("typed panic answer");
                assert_eq!(resp.kind, "panic", "{resp:?}");
            }
            chaos_done.fetch_add(1, Ordering::SeqCst);
        });
    });
    let report = handle.drain();
    assert_eq!(report.panicked, POISONS, "{report:?}");
    assert!(report.malformed >= 5, "{report:?}");
    assert_eq!(report.connections_panicked, 0, "{report:?}");
    assert!(report.cache_hits > 0, "the storm must hit the cache");
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    let handle = spawn(ServerConfig::default());

    // Bad magic.
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    stream.write_all(b"HTTP/1.1 GET /\r\n").expect("writes");
    let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
    match got {
        Ok(Some(payload)) => assert!(payload.starts_with("err malformed"), "{payload}"),
        other => panic!("expected a malformed-error frame, got {other:?}"),
    }

    // Oversize length word.
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    let mut frame = Vec::from(MAGIC);
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&frame).expect("writes");
    let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
    match got {
        Ok(Some(payload)) => assert!(payload.starts_with("err malformed"), "{payload}"),
        other => panic!("expected a malformed-error frame, got {other:?}"),
    }

    // Non-UTF-8 payload.
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    let mut frame = Vec::from(MAGIC);
    frame.extend_from_slice(&2u32.to_be_bytes());
    frame.extend_from_slice(&[0xff, 0xfe]);
    stream.write_all(&frame).expect("writes");
    let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
    match got {
        Ok(Some(payload)) => assert!(payload.starts_with("err malformed"), "{payload}"),
        other => panic!("expected a malformed-error frame, got {other:?}"),
    }

    // Bad grammar inside a well-formed frame.
    let mut client = connect(&handle);
    let resp = client.try_request("warp speed=9").expect("answers");
    assert!(!resp.ok);
    assert_eq!(resp.kind, "malformed");

    // The server is still fully alive.
    let pong = client.try_request("ping").expect("still serving");
    assert!(pong.ok);
    let report = handle.drain();
    assert!(
        report.malformed >= 4,
        "all four violations counted: {report:?}"
    );
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn mid_request_disconnects_leave_the_server_serving() {
    let handle = spawn(ServerConfig::default());
    for _ in 0..5 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        // Half a header, then vanish.
        stream.write_all(&MAGIC[..3]).expect("writes");
        drop(stream);
    }
    let mut client = connect(&handle);
    let pong = client.try_request("ping").expect("still serving");
    assert!(pong.ok);
    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn slow_loris_frames_time_out_as_malformed() {
    let mut config = ServerConfig::default();
    config.frame_timeout = Duration::from_millis(200);
    let handle = spawn(config);

    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    stream.write_all(&MAGIC[..2]).expect("drips two bytes");
    std::thread::sleep(Duration::from_millis(600));
    let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
    match got {
        Ok(Some(payload)) => {
            assert!(payload.starts_with("err malformed"), "{payload}");
            assert!(payload.contains("timeout"), "{payload}");
        }
        other => panic!("expected a slow-loris timeout frame, got {other:?}"),
    }
    let report = handle.drain();
    assert!(report.malformed >= 1);
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn overload_sheds_with_a_retry_hint_instead_of_queueing() {
    let mut config = ServerConfig::default();
    config.workers = 1;
    config.queue_capacity = 1;
    let handle = spawn(config);
    // Distinct cold eval points (each characterizes a fresh eDRAM macro)
    // keep the single worker busy; 8 concurrent submitters must overflow
    // the 1-deep queue.
    let shed_seen = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..8u32 {
            let handle = &handle;
            let shed_seen = &shed_seen;
            scope.spawn(move || {
                let mut client = connect(handle);
                let q = format!("eval capacity_kb={}", 18 + 2 * i);
                let resp = client.try_request(&q).expect("typed answer either way");
                if !resp.ok {
                    assert_eq!(resp.kind, "overloaded", "only shedding refuses: {resp:?}");
                    let hint: u64 = resp
                        .field("retry_after_ms")
                        .expect("hint present")
                        .parse()
                        .expect("numeric hint");
                    assert!(hint >= 1);
                    shed_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    let report = handle.drain();
    assert_eq!(
        shed_seen.load(std::sync::atomic::Ordering::Relaxed) as u64,
        report.shed,
        "client-observed sheds match the health counter"
    );
    assert!(
        report.shed + report.served >= 8,
        "every request got a typed outcome: {report:?}"
    );
}

#[test]
fn expired_deadlines_return_typed_partial_progress() {
    let mut config = ServerConfig::default();
    config.workers = 1;
    let handle = spawn(config);
    let mut blocker = connect(&handle);
    let mut hurried = connect(&handle);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // Occupies the only worker with a cold design point.
            let resp = blocker.try_request("eval capacity_kb=34").expect("answers");
            assert!(resp.ok || resp.kind == "deadline_exceeded", "{resp:?}");
        });
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            // 1 ms budget, stuck behind the blocker: must expire.
            let resp = hurried
                .try_request("eval capacity_kb=36 deadline_ms=1")
                .expect("typed answer");
            assert!(!resp.ok, "{resp:?}");
            assert_eq!(resp.kind, "deadline_exceeded");
            let completed: usize = resp
                .field("completed")
                .expect("progress count present")
                .parse()
                .expect("numeric");
            let total: usize = resp
                .field("total")
                .expect("total present")
                .parse()
                .expect("numeric");
            assert!(completed <= total.max(1), "{resp:?}");
        });
    });
    let report = handle.drain();
    assert!(report.deadline_expired >= 1, "{report:?}");
}

#[test]
fn poison_queries_panic_in_isolation_and_service_continues() {
    let mut config = ServerConfig::default();
    config.enable_poison = true;
    let handle = spawn(config);
    let mut client = connect(&handle);
    for _ in 0..3 {
        let resp = client.try_request("poison").expect("typed panic answer");
        assert!(!resp.ok);
        assert_eq!(resp.kind, "panic");
    }
    let pong = client
        .try_request("ping")
        .expect("still serving after panics");
    assert!(pong.ok);
    let eval = client.try_request("eval").expect("evaluation still works");
    assert!(eval.ok);
    let report = handle.drain();
    assert_eq!(report.panicked, 3, "{report:?}");
    assert_eq!(
        report.connections_panicked, 0,
        "panics never escape the request ring: {report:?}"
    );
}

#[test]
fn poison_is_rejected_as_invalid_when_disabled() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    let resp = client.try_request("poison").expect("typed answer");
    assert!(!resp.ok);
    assert_eq!(resp.kind, "invalid");
    let report = handle.drain();
    assert_eq!(report.panicked, 0);
}

#[test]
fn drain_query_stops_the_server_gracefully() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    let eval = client.try_request("eval capacity_kb=16").expect("answers");
    assert!(eval.ok);
    let drain = client.try_request("drain").expect("drain acknowledged");
    assert!(drain.ok);
    assert_eq!(drain.body, "draining");
    let started = Instant::now();
    let report = handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "join returns promptly after a drain query"
    );
    assert!(report.draining);
    assert_eq!(report.connections_panicked, 0);
}

#[test]
fn drain_refuses_new_connections_and_requests() {
    const POOL: &[&str] = &[
        "ping",
        "eval capacity_kb=16",
        "mc samples=64 seed=7 capacity_kb=16",
    ];
    let handle = spawn(ServerConfig::default());
    let addr = handle.addr();
    let token = handle.cancel_token();
    let mut open_before = connect(&handle);
    // Several clients keep requests in flight while the drain lands: each
    // must wind down with `err draining` or a clean close, never a hang.
    let mut clients: Vec<ServeClient> = (0..3).map(|_| connect(&handle)).collect();
    for (id, client) in clients.iter_mut().enumerate() {
        let warm = client
            .try_request(POOL[id])
            .expect("answers before the drain");
        assert!(warm.ok, "{warm:?}");
    }
    let cancelled = AtomicBool::new(false);
    let started = Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        for (id, mut client) in clients.into_iter().enumerate() {
            let (cancelled, started) = (&cancelled, &started);
            scope.spawn(move || {
                started.wait();
                for i in 0..1_000_000 {
                    match client.try_request(POOL[(i + id) % POOL.len()]) {
                        Ok(resp) if resp.ok => {}
                        Ok(resp) => {
                            assert_eq!(resp.kind, "draining", "client {id}: {resp:?}");
                            return;
                        }
                        Err(e) => {
                            assert!(cancelled.load(Ordering::SeqCst), "client {id}: {e}");
                            return;
                        }
                    }
                }
                panic!("client {id} was never drained");
            });
        }
        started.wait();
        cancelled.store(true, Ordering::SeqCst);
        token.cancel();
    });
    let report = handle.drain();
    assert!(report.draining, "{report:?}");
    assert_eq!(report.connections_panicked, 0, "{report:?}");
    // The connection that was open across the drain gets `err draining`
    // (or a clean close) rather than a hang.
    match open_before.try_request("eval capacity_kb=16") {
        Ok(resp) => {
            assert!(!resp.ok);
            assert_eq!(resp.kind, "draining");
        }
        Err(_) => {} // already closed — equally graceful
    }
    // New connections are not accepted once the listener is gone.
    std::thread::sleep(Duration::from_millis(50));
    let late = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
    if let Ok(stream) = late {
        // The OS may still complete the handshake on a dead listener
        // socket; a request must then fail rather than be served.
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let frame =
            ppatc_serve::protocol::try_encode_frame("ping", MAX_FRAME_BYTES).expect("encodes");
        let _ = stream.write_all(&frame);
        let got = ppatc_serve::protocol::try_read_frame(&mut stream, MAX_FRAME_BYTES);
        assert!(
            !matches!(got, Ok(Some(ref p)) if p.starts_with("ok")),
            "a drained server must not serve: {got:?}"
        );
    }
}

#[test]
fn invalid_parameters_name_the_field() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    let resp = client
        .try_request("eval capacity_kb=63")
        .expect("typed answer");
    assert!(!resp.ok);
    assert_eq!(resp.kind, "invalid");
    assert_eq!(resp.field("field"), Some("capacity_kb"));
    let report = handle.drain();
    assert!(report.invalid >= 1);
}
