//! Seeded mutation fuzzing of the `ppatc-serve` wire surface: PPQ1 frames
//! (`protocol::try_read_frame`) and request lines (`query::try_parse_request`).
//!
//! Valid frames and request lines get seeded byte flips, insertions and
//! truncations. Every mutant must end in `Ok` or a typed `WireError` /
//! `QueryError`, never a panic, and every `Truncated { got, want }` must
//! count exactly the bytes that arrived (`got` < `want`). A live server fed
//! the same kind of mutants must answer each with a frame or a close, and
//! keep serving with no panic escaping a connection.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ppatc_serve::protocol::{
    parse_response, try_encode_frame, try_read_frame, WireError, HEADER_BYTES, MAX_FRAME_BYTES,
};
use ppatc_serve::query::{canonical_key, try_parse_request, QueryError};
use ppatc_serve::server::{try_spawn, ServerConfig};
use ppatc_serve::ServeClient;
use ppatc_units::rng::SplitMix64;

/// Request lines the mutants start from: every op, every key, and the
/// transport `deadline_ms` key.
const LINES: &[&str] = &[
    "ping",
    "health",
    "drain",
    "poison",
    "kill_worker",
    "eval",
    "eval capacity_kb=16",
    "eval capacity_kb=16 f_clk_mhz=700 ci_g_per_kwh=50",
    "eval workload=edn hours_per_day=4 lifetime_months=36 deadline_ms=5",
    "mc samples=64 seed=7",
    "mc samples=64 seed=7 capacity_kb=16 deadline_ms=100",
];

/// Frame payload bound of the pure fuzz cases: small, so flipped length
/// words also reach the `Oversize` path.
const SMALL_MAX: usize = 96;

/// `bytes` with one to three seeded flips, insertions or truncations.
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    const SALIENT: &[u8] = b" =_.-+0123456789PQacdeiklmnoprstvw\n\t\0\xff";
    let mut out = bytes.to_vec();
    for _ in 0..=rng.next_below(3) {
        let byte = if rng.next_below(2) == 0 {
            SALIENT[rng.next_below(SALIENT.len() as u64) as usize]
        } else {
            rng.next_below(256) as u8
        };
        match rng.next_below(3) {
            0 if !out.is_empty() => {
                let at = rng.next_below(out.len() as u64) as usize;
                out[at] ^= byte.max(1);
            }
            1 => {
                let at = rng.next_below(out.len() as u64 + 1) as usize;
                out.insert(at, byte);
            }
            _ => out.truncate(rng.next_below(out.len() as u64 + 1) as usize),
        }
    }
    out
}

/// One to four frames of seeded picks from `lines`, back to back: a
/// connection's worth of requests.
fn stream_of_frames(lines: &[&str], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..=rng.next_below(3) {
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        bytes.extend(try_encode_frame(line, SMALL_MAX).expect("every line fits"));
    }
    bytes
}

/// Checks a request line: a typed outcome, and a cache key for every
/// accepted query.
fn check_line(line: &str) -> Result<(), QueryError> {
    let request = try_parse_request(line)?;
    assert!(!canonical_key(&request.query).is_empty(), "{line:?}");
    Ok(())
}

/// Reads every frame out of `bytes` until a clean close or an error,
/// checking what each read reports. Returns the number of frames read.
fn read_all_frames(bytes: &[u8]) -> usize {
    let mut cursor = bytes;
    let mut frames = 0;
    loop {
        let remaining = cursor.len();
        match try_read_frame(&mut cursor, SMALL_MAX) {
            Ok(Some(payload)) => {
                frames += 1;
                let _ = check_line(&payload);
                let _ = parse_response(&payload);
            }
            Ok(None) => {
                assert_eq!(remaining, 0, "a clean close consumed every byte");
                return frames;
            }
            Err(WireError::Truncated { got, want }) => {
                assert!(got < want, "got {got} of {want}");
                assert!(got <= remaining, "got {got} of {remaining} supplied");
                // A short read means every supplied byte was consumed.
                let expected = if remaining < HEADER_BYTES {
                    remaining
                } else {
                    remaining - HEADER_BYTES
                };
                assert_eq!(got, expected, "{remaining} bytes supplied");
                return frames;
            }
            Err(WireError::BadMagic { .. } | WireError::Oversize { .. } | WireError::NotUtf8) => {
                return frames
            }
            Err(e) => panic!("an in-memory reader cannot fail with {e}"),
        }
    }
}

#[test]
fn seeded_frame_mutations_end_in_a_frame_or_a_typed_wire_error() {
    let mut rng = SplitMix64::new(0x5eed_f4a3);
    let mut frames = 0;
    for case in 0..4000 {
        let valid = stream_of_frames(LINES, &mut rng);
        let mutant = mutate(&valid, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| read_all_frames(&mutant))) {
            Ok(n) => frames += n,
            Err(_) => panic!("case {case}: reading {mutant:?} panicked"),
        }
    }
    assert!(frames > 1000, "mutants still carry frames: {frames}");
}

#[test]
fn every_truncation_of_a_frame_stream_reports_the_bytes_that_arrived() {
    let mut bytes = Vec::new();
    for line in ["ping", "", "eval capacity_kb=16", "\0\0\0\0"] {
        bytes.extend(try_encode_frame(line, SMALL_MAX).expect("fits"));
    }
    for cut in 0..=bytes.len() {
        read_all_frames(&bytes[..cut]);
    }
}

#[test]
fn seeded_request_line_mutations_parse_or_are_typed_query_errors() {
    let mut rng = SplitMix64::new(0x5eed_11e5);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..4000 {
        let line = LINES[rng.next_below(LINES.len() as u64) as usize];
        let mutant = String::from_utf8_lossy(&mutate(line.as_bytes(), &mut rng)).into_owned();
        match catch_unwind(AssertUnwindSafe(|| check_line(&mutant))) {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(QueryError::Malformed { .. } | QueryError::Invalid { .. })) => rejected += 1,
            Ok(Err(e)) => panic!("case {case}: {mutant:?}: unexpected error {e}"),
            Err(_) => panic!("case {case}: parsing {mutant:?} panicked"),
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}

#[test]
fn a_live_server_answers_mutated_frames_with_a_frame_or_a_close() {
    // Only cheap ops: a mutant of these lines cannot become `eval`, `mc`
    // or `drain` in three edits, so the server stays up and fast.
    const LIVE: &[&str] = &["ping", "health", "warp speed=9"];
    let handle = try_spawn(ServerConfig::default()).expect("server binds");
    let mut rng = SplitMix64::new(0x5eed_11fe);
    for case in 0..64 {
        let mutant = mutate(&stream_of_frames(LIVE, &mut rng), &mut rng);
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // The server may reset the socket after a malformed frame, so the
        // write, the half-close and the reads can all fail; none may hang.
        let _ = stream.write_all(&mutant);
        let _ = stream.shutdown(Shutdown::Write);
        while let Ok(Some(answer)) = try_read_frame(&mut stream, MAX_FRAME_BYTES) {
            assert!(
                parse_response(&answer).is_ok(),
                "case {case}: answer {answer:?}"
            );
        }
    }
    let mut client =
        ServeClient::try_connect(handle.addr(), Duration::from_secs(30)).expect("connects");
    let pong = client.try_request("ping").expect("still serving");
    assert!(pong.ok);
    let report = handle.drain();
    assert_eq!(report.connections_panicked, 0, "{report:?}");
}
