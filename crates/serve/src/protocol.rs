//! The `ppatc-serve` wire protocol: length-prefixed UTF-8 frames.
//!
//! Hand-rolled in the same spirit as the linter's lexer — no external
//! dependencies, every malformed input a typed error. A frame is:
//!
//! ```text
//! +------+------+------+------+------+------+------+------+-----------+
//! | 'P'  | 'P'  | 'Q'  | '1'  |        length (u32, BE)   |  payload  |
//! +------+------+------+------+------+------+------+------+-----------+
//! ```
//!
//! The 4-byte magic pins the protocol version; the big-endian `u32`
//! length counts payload bytes; the payload is UTF-8 text. Requests are a
//! single line `op key=value ...`; responses start with `ok` or
//! `err <kind> ...` (see [`parse_response`]). A reader rejects frames
//! whose length exceeds its configured bound *before* allocating, so an
//! adversarial header cannot balloon memory, and a half-written frame
//! (slow-loris) is bounded by the server's frame timeout, not by patience.

use std::io::Read;

/// Protocol magic: `PPQ1` (PPAtC Query, version 1).
pub const MAGIC: [u8; 4] = *b"PPQ1";

/// Bytes in a frame header: magic plus the payload length word.
pub const HEADER_BYTES: usize = 8;

/// Default upper bound on a frame payload. Generous for every query and
/// response this protocol carries (the largest health report is < 2 kB).
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A typed wire-level failure. Everything a hostile or broken peer can do
/// to a frame maps onto one of these — never a panic, never an unbounded
/// allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually received.
        found: [u8; 4],
    },
    /// The header announced a payload larger than the reader's bound.
    Oversize {
        /// Announced payload length.
        len: usize,
        /// The reader's configured maximum.
        max: usize,
    },
    /// The peer closed the connection in the middle of a frame.
    Truncated {
        /// Bytes received before the close.
        got: usize,
        /// Bytes the frame required.
        want: usize,
    },
    /// The frame took longer than the reader's frame timeout to arrive
    /// (slow-loris defense).
    Timeout,
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// An underlying socket error, rendered (I/O errors are neither
    /// `Clone` nor `PartialEq`).
    Io {
        /// Human-readable description of the socket failure.
        detail: String,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {MAGIC:02x?})")
            }
            Self::Oversize { len, max } => {
                write!(f, "frame announces {len} payload bytes, limit is {max}")
            }
            Self::Truncated { got, want } => {
                write!(f, "peer closed mid-frame after {got} of {want} bytes")
            }
            Self::Timeout => write!(f, "frame did not arrive within the frame timeout"),
            Self::NotUtf8 => write!(f, "frame payload is not valid UTF-8"),
            Self::Io { detail } => write!(f, "socket error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wraps an I/O failure as a [`WireError::Io`].
pub(crate) fn io_error(e: &std::io::Error) -> WireError {
    WireError::Io {
        detail: e.to_string(),
    }
}

/// Encodes `payload` as one frame (header + bytes).
///
/// # Errors
///
/// [`WireError::Oversize`] when the payload exceeds `max` bytes.
#[must_use = "this returns a Result that must be handled"]
pub fn try_encode_frame(payload: &str, max: usize) -> Result<Vec<u8>, WireError> {
    let bytes = payload.as_bytes();
    if bytes.len() > max {
        return Err(WireError::Oversize {
            len: bytes.len(),
            max,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_BYTES + bytes.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Decodes a frame header: validates the magic and returns the announced
/// payload length.
///
/// # Errors
///
/// [`WireError::BadMagic`] or [`WireError::Oversize`].
#[must_use = "this returns a Result that must be handled"]
pub fn try_decode_header(header: &[u8; HEADER_BYTES], max: usize) -> Result<usize, WireError> {
    let (magic, len_word) = header.split_at(4);
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(WireError::BadMagic { found });
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(len_word);
    let len = u32::from_be_bytes(word) as usize;
    if len > max {
        return Err(WireError::Oversize { len, max });
    }
    Ok(len)
}

/// Reads one frame from a blocking reader (no timeout handling — the
/// server's connection loop layers its own poll-based deadline on top;
/// this is the simple path used by the client and by tests).
///
/// Returns `Ok(None)` on a clean close (EOF before any frame byte).
///
/// # Errors
///
/// Every [`WireError`] a malformed or interrupted frame can produce.
#[must_use = "this returns a Result that must be handled"]
pub fn try_read_frame<R: Read>(reader: &mut R, max: usize) -> Result<Option<String>, WireError> {
    let mut header = [0u8; HEADER_BYTES];
    match read_exact_or_eof(reader, &mut header)? {
        ReadOutcome::CleanClose => return Ok(None),
        ReadOutcome::Short { got } => {
            return Err(WireError::Truncated {
                got,
                want: HEADER_BYTES,
            })
        }
        ReadOutcome::Full => {}
    }
    let len = try_decode_header(&header, max)?;
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(reader, &mut payload)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanClose => return Err(WireError::Truncated { got: 0, want: len }),
        ReadOutcome::Short { got } => return Err(WireError::Truncated { got, want: len }),
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::NotUtf8)
}

/// What a bounded `read_exact`-like loop observed.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte.
    CleanClose,
    /// EOF after `got` bytes but before the buffer filled.
    Short {
        /// Bytes read before the close.
        got: usize,
    },
}

/// `read_exact` that distinguishes a clean close from a mid-buffer close
/// instead of flattening both into `UnexpectedEof`.
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanClose),
            Ok(0) => return Ok(ReadOutcome::Short { got: filled }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A socket read timeout (client request deadline), typed
                // so retry layers can tell it from a torn connection.
                return Err(WireError::Timeout);
            }
            Err(e) => return Err(io_error(&e)),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------------
// Response grammar
// ---------------------------------------------------------------------------

/// First line of every success response.
const OK_TAG: &str = "ok";
/// First token of every error response.
const ERR_TAG: &str = "err";

/// Renders a success response: `ok\n` followed by the body.
pub fn ok_response(body: &str) -> String {
    format!("{OK_TAG}\n{body}")
}

/// Renders an error response: `err <kind> key=value ...` on one line.
/// `kind` is a stable machine-readable token (`overloaded`,
/// `deadline_exceeded`, `malformed`, `invalid`, `eval_failed`, `panic`,
/// `draining`); fields carry the structured detail (counts, hints). A
/// free-text `msg` field, when present, must be last — its value runs to
/// the end of the line.
pub fn err_response(kind: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("{ERR_TAG} {kind}");
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// A response parsed back from its payload text (the client-side view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedResponse {
    /// `true` for `ok` responses.
    pub ok: bool,
    /// `"ok"`, or the error kind token (`overloaded`, ...).
    pub kind: String,
    /// The body (everything after the `ok` line) for successes; the
    /// key=value remainder for errors.
    pub body: String,
}

impl ParsedResponse {
    /// Looks up a `key=value` field in an error response's body. For the
    /// free-text `msg` field the value runs to the end of the line.
    pub fn field(&self, key: &str) -> Option<&str> {
        if key == "msg" {
            return self.body.split_once("msg=").map(|(_, v)| v);
        }
        self.body.split_ascii_whitespace().find_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Parses a response payload into its status, kind, and body.
///
/// # Errors
///
/// [`WireError::Io`] (with a rendered detail) when the payload fits
/// neither the `ok` nor the `err` grammar — a peer speaking a different
/// protocol.
#[must_use = "this returns a Result that must be handled"]
pub fn parse_response(payload: &str) -> Result<ParsedResponse, WireError> {
    if let Some(body) = payload.strip_prefix("ok\n") {
        return Ok(ParsedResponse {
            ok: true,
            kind: OK_TAG.to_string(),
            body: body.to_string(),
        });
    }
    if payload == OK_TAG {
        return Ok(ParsedResponse {
            ok: true,
            kind: OK_TAG.to_string(),
            body: String::new(),
        });
    }
    if let Some(rest) = payload.strip_prefix("err ") {
        let (kind, body) = match rest.split_once(' ') {
            Some((k, b)) => (k, b),
            None => (rest, ""),
        };
        if !kind.is_empty() {
            return Ok(ParsedResponse {
                ok: false,
                kind: kind.to_string(),
                body: body.to_string(),
            });
        }
    }
    Err(WireError::Io {
        detail: format!(
            "response fits neither `ok` nor `err <kind>`: {:?}",
            payload.chars().take(40).collect::<String>()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frame = try_encode_frame("ping", MAX_FRAME_BYTES).expect("encodes");
        assert_eq!(&frame[..4], &MAGIC);
        let mut cursor = &frame[..];
        let back = try_read_frame(&mut cursor, MAX_FRAME_BYTES).expect("reads");
        assert_eq!(back.as_deref(), Some("ping"));
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = try_encode_frame("", MAX_FRAME_BYTES).expect("encodes");
        let mut cursor = &frame[..];
        assert_eq!(
            try_read_frame(&mut cursor, MAX_FRAME_BYTES)
                .expect("reads")
                .as_deref(),
            Some("")
        );
    }

    #[test]
    fn clean_close_is_none_not_an_error() {
        let mut cursor: &[u8] = &[];
        assert_eq!(try_read_frame(&mut cursor, MAX_FRAME_BYTES), Ok(None));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = try_encode_frame("x", MAX_FRAME_BYTES).expect("encodes");
        frame[0] = b'X';
        let mut cursor = &frame[..];
        let err = try_read_frame(&mut cursor, MAX_FRAME_BYTES).expect_err("rejected");
        assert!(matches!(err, WireError::BadMagic { .. }), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn oversize_header_is_rejected_before_allocation() {
        let mut header = [0u8; HEADER_BYTES];
        header[..4].copy_from_slice(&MAGIC);
        header[4..].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = try_decode_header(&header, MAX_FRAME_BYTES).expect_err("rejected");
        assert_eq!(
            err,
            WireError::Oversize {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES
            }
        );
        // Encoding too-large payloads is symmetric.
        let big = "x".repeat(MAX_FRAME_BYTES + 1);
        assert!(matches!(
            try_encode_frame(&big, MAX_FRAME_BYTES),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let frame = try_encode_frame("hello", MAX_FRAME_BYTES).expect("encodes");
        // Close after 3 header bytes.
        let mut cursor = &frame[..3];
        assert!(matches!(
            try_read_frame(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Truncated { got: 3, want: 8 })
        ));
        // Close mid-payload.
        let mut cursor = &frame[..HEADER_BYTES + 2];
        assert_eq!(
            try_read_frame(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Truncated { got: 2, want: 5 })
        );
        // Close after payload bytes that happen to be zero: every byte that
        // arrived counts, whatever its value.
        for partial in [&b"ab\0\0"[..], &[0u8; 4][..]] {
            let mut frame = Vec::from(MAGIC);
            frame.extend_from_slice(&8u32.to_be_bytes());
            frame.extend_from_slice(partial);
            let mut cursor = &frame[..];
            assert_eq!(
                try_read_frame(&mut cursor, MAX_FRAME_BYTES),
                Err(WireError::Truncated { got: 4, want: 8 }),
                "payload {partial:?}"
            );
        }
    }

    #[test]
    fn non_utf8_payload_is_typed() {
        let mut frame = Vec::from(MAGIC);
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = &frame[..];
        assert_eq!(
            try_read_frame(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::NotUtf8)
        );
    }

    #[test]
    fn responses_render_and_parse() {
        let ok = ok_response("process=si tcdp=1.5");
        let parsed = parse_response(&ok).expect("parses");
        assert!(parsed.ok);
        assert_eq!(parsed.body, "process=si tcdp=1.5");

        let err = err_response(
            "overloaded",
            &[
                ("queue_depth", "64".to_string()),
                ("retry_after_ms", "120".to_string()),
            ],
        );
        assert_eq!(err, "err overloaded queue_depth=64 retry_after_ms=120");
        let parsed = parse_response(&err).expect("parses");
        assert!(!parsed.ok);
        assert_eq!(parsed.kind, "overloaded");
        assert_eq!(parsed.field("retry_after_ms"), Some("120"));
        assert_eq!(parsed.field("queue_depth"), Some("64"));
        assert_eq!(parsed.field("absent"), None);
    }

    #[test]
    fn msg_field_runs_to_end_of_line() {
        let err = err_response(
            "invalid",
            &[("msg", "unknown workload `fft`, try matmul-int".to_string())],
        );
        let parsed = parse_response(&err).expect("parses");
        assert_eq!(
            parsed.field("msg"),
            Some("unknown workload `fft`, try matmul-int")
        );
    }

    #[test]
    fn alien_payloads_are_rejected() {
        for bad in ["", "HTTP/1.1 200 OK", "err ", "okay"] {
            assert!(parse_response(bad).is_err(), "{bad:?} must not parse");
        }
        // A bare error kind with no fields still parses.
        let parsed = parse_response("err draining").expect("parses");
        assert_eq!(parsed.kind, "draining");
    }
}
