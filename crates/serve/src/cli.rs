//! Shared flag parsing for the front-end binaries (`ppatc-serve`, `paper`).
//!
//! Both binaries take the same supervision flags (`--jobs`/`--workers`,
//! `--deadline`); parsing them here keeps the front ends in agreement on
//! validation — in particular, `--jobs 0` is a structured
//! [`ValidationError`], never a silent clamp to one worker, and operands
//! are normalized the same way everywhere: surrounding whitespace is
//! trimmed and one leading `+` sign is accepted, so `--jobs +8` and
//! `--deadline " 1.5"` parse while `--jobs ""` reports *empty*, not a
//! baffling `NaN is not a worker count`.

use ppatc::ValidationError;
use std::path::PathBuf;
use std::time::Duration;

/// Normalizes one CLI operand: trims surrounding ASCII whitespace and
/// strips at most one leading `+` sign (so `+8` and `8` are the same
/// worker count). Returns `None` for an operand that is empty after
/// trimming — callers report that as its own requirement text instead of
/// surfacing a parse artifact like `NaN`.
fn normalize(raw: &str) -> Option<&str> {
    let trimmed = raw.trim();
    let unsigned = trimmed.strip_prefix('+').unwrap_or(trimmed);
    if unsigned.is_empty() {
        None
    } else if unsigned.starts_with('+') {
        // `++8`: Rust's own parsers accept one leading sign, so hand the
        // doubly-signed original through and let them reject it.
        Some(trimmed)
    } else {
        Some(unsigned)
    }
}

/// Parses a strictly positive count operand (worker pools, queue bounds,
/// request budgets). `None` (a dangling flag) and empty, non-numeric, or
/// zero values are structured errors; `--flag 0` is rejected rather than
/// silently clamped.
///
/// # Errors
///
/// [`ValidationError`] on a missing, empty, malformed, or zero operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_count(field: &'static str, raw: Option<&str>) -> Result<usize, ValidationError> {
    let Some(raw) = raw else {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "present: the flag takes a count >= 1",
        ));
    };
    let Some(digits) = normalize(raw) else {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "non-empty: the flag takes a count >= 1",
        ));
    };
    match digits.parse::<usize>() {
        Ok(0) => Err(ValidationError::new(field, 0.0, "a count >= 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(ValidationError::new(field, f64::NAN, "a count >= 1")),
    }
}

/// Parses a `--jobs`/`--workers` operand via [`try_parse_count`]: a worker
/// count must be an integer of at least 1.
///
/// # Errors
///
/// [`ValidationError`] on a missing, empty, malformed, or zero operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_jobs(raw: Option<&str>) -> Result<usize, ValidationError> {
    try_parse_count("jobs", raw)
}

/// Parses a `--deadline` operand as seconds into a [`Duration`]. The value
/// must be a finite, positive number of seconds; whitespace and a leading
/// `+` are tolerated like every other operand.
///
/// # Errors
///
/// [`ValidationError`] on a missing, empty, malformed, non-finite, or
/// non-positive operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_deadline(raw: Option<&str>) -> Result<Duration, ValidationError> {
    let Some(raw) = raw else {
        return Err(ValidationError::new(
            "deadline",
            f64::NAN,
            "present: the flag takes a positive number of seconds",
        ));
    };
    let Some(number) = normalize(raw) else {
        return Err(ValidationError::new(
            "deadline",
            f64::NAN,
            "non-empty: the flag takes a positive number of seconds",
        ));
    };
    let secs = number.parse::<f64>().unwrap_or(f64::NAN);
    if !(secs.is_finite() && secs > 0.0) {
        return Err(ValidationError::new(
            "deadline",
            secs,
            "a positive number of seconds",
        ));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Parses a count operand that may legitimately be zero (restart
/// budgets: `--restart-budget 0` means "never respawn a dead worker").
/// Unlike [`try_parse_count`], `0` is accepted; everything else —
/// missing, empty, or malformed operands — is still a structured error.
///
/// # Errors
///
/// [`ValidationError`] on a missing, empty, or malformed operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_count_or_zero(
    field: &'static str,
    raw: Option<&str>,
) -> Result<usize, ValidationError> {
    let Some(raw) = raw else {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "present: the flag takes a count >= 0",
        ));
    };
    let Some(digits) = normalize(raw) else {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "non-empty: the flag takes a count >= 0",
        ));
    };
    digits
        .parse::<usize>()
        .map_err(|_| ValidationError::new(field, f64::NAN, "a count >= 0"))
}

/// Parses a filesystem-path operand (`--cache-journal`). The only
/// validation is non-emptiness after trimming: the file need not exist
/// (the server creates the journal when absent), and nearly any byte
/// sequence is a legal path, so no `+`-stripping or numeric normalizing
/// applies here.
///
/// # Errors
///
/// [`ValidationError`] on a missing or empty operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_path(field: &'static str, raw: Option<&str>) -> Result<PathBuf, ValidationError> {
    let Some(raw) = raw else {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "present: the flag takes a file path",
        ));
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(ValidationError::new(
            field,
            f64::NAN,
            "non-empty: the flag takes a file path",
        ));
    }
    Ok(PathBuf::from(trimmed))
}

/// Parses a `--port` operand: any integer in `[0, 65535]` (0 asks the OS
/// for an ephemeral port).
///
/// # Errors
///
/// [`ValidationError`] on a missing, empty, malformed, or out-of-range
/// operand.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_port(raw: Option<&str>) -> Result<u16, ValidationError> {
    let Some(raw) = raw else {
        return Err(ValidationError::new(
            "port",
            f64::NAN,
            "present: the flag takes a port in [0, 65535]",
        ));
    };
    let Some(digits) = normalize(raw) else {
        return Err(ValidationError::new(
            "port",
            f64::NAN,
            "non-empty: the flag takes a port in [0, 65535]",
        ));
    };
    digits
        .parse::<u16>()
        .map_err(|_| ValidationError::new("port", f64::NAN, "a port in [0, 65535]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_accepts_positive_integers() {
        assert_eq!(try_parse_jobs(Some("1")), Ok(1));
        assert_eq!(try_parse_jobs(Some("8")), Ok(8));
    }

    #[test]
    fn jobs_accepts_leading_plus_and_surrounding_whitespace() {
        assert_eq!(try_parse_jobs(Some("+8")), Ok(8));
        assert_eq!(try_parse_jobs(Some(" 8 ")), Ok(8));
        assert_eq!(try_parse_jobs(Some("\t+4\n")), Ok(4));
    }

    #[test]
    fn jobs_zero_is_a_structured_error_not_a_clamp() {
        let e = try_parse_jobs(Some("0")).expect_err("zero workers rejected");
        assert_eq!(e.field, "jobs");
        assert_eq!(e.value, 0.0);
        assert!(try_parse_jobs(Some("+0")).is_err(), "+0 is still zero");
    }

    #[test]
    fn jobs_empty_operand_names_the_emptiness() {
        for raw in ["", "   ", "+", " + "] {
            let e = try_parse_jobs(Some(raw)).expect_err("empty rejected");
            assert_eq!(e.field, "jobs");
            assert!(
                e.requirement.contains("non-empty"),
                "message must say the operand was empty, got: {}",
                e.requirement
            );
        }
    }

    #[test]
    fn jobs_rejects_garbage_and_missing_operands() {
        for raw in ["two", "-3", "++8", "8 8", "0x10"] {
            let e = try_parse_jobs(Some(raw)).expect_err("garbage rejected");
            assert_eq!(e.field, "jobs");
        }
        let e = try_parse_jobs(None).expect_err("dangling flag rejected");
        assert_eq!(e.field, "jobs");
        assert!(e.requirement.contains("present"), "{}", e.requirement);
    }

    #[test]
    fn deadline_parses_fractional_seconds() {
        let d = try_parse_deadline(Some("1.5")).expect("1.5 s parses");
        assert_eq!(d, Duration::from_millis(1_500));
    }

    #[test]
    fn deadline_accepts_leading_plus_and_whitespace() {
        assert_eq!(
            try_parse_deadline(Some("+1.5")).expect("+1.5 s parses"),
            Duration::from_millis(1_500)
        );
        assert_eq!(
            try_parse_deadline(Some(" 2 ")).expect("' 2 ' parses"),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn deadline_rejects_bad_operands() {
        for raw in [Some("0"), Some("-2"), Some("inf"), Some("soon"), None] {
            let e = try_parse_deadline(raw).expect_err("bad deadline rejected");
            assert_eq!(e.field, "deadline");
        }
    }

    #[test]
    fn deadline_empty_operand_names_the_emptiness() {
        let e = try_parse_deadline(Some("  ")).expect_err("empty rejected");
        assert!(e.requirement.contains("non-empty"), "{}", e.requirement);
    }

    #[test]
    fn count_reports_its_own_field_name() {
        assert_eq!(try_parse_count("queue", Some("64")), Ok(64));
        let e = try_parse_count("queue", Some("no")).expect_err("rejected");
        assert_eq!(e.field, "queue");
    }

    #[test]
    fn count_or_zero_accepts_zero_but_rejects_garbage() {
        assert_eq!(try_parse_count_or_zero("restart-budget", Some("0")), Ok(0));
        assert_eq!(try_parse_count_or_zero("restart-budget", Some("+8")), Ok(8));
        for raw in [Some("-1"), Some("no"), Some(" "), None] {
            let e = try_parse_count_or_zero("restart-budget", raw).expect_err("rejected");
            assert_eq!(e.field, "restart-budget");
        }
    }

    #[test]
    fn path_trims_but_does_not_mangle() {
        assert_eq!(
            try_parse_path("cache-journal", Some(" /tmp/j.txt ")),
            Ok(PathBuf::from("/tmp/j.txt"))
        );
        // A path may legitimately start with `+`; no sign-stripping.
        assert_eq!(
            try_parse_path("cache-journal", Some("+cache.journal")),
            Ok(PathBuf::from("+cache.journal"))
        );
        for raw in [Some(""), Some("   "), None] {
            let e = try_parse_path("cache-journal", raw).expect_err("rejected");
            assert_eq!(e.field, "cache-journal");
        }
    }

    #[test]
    fn port_parses_the_full_range() {
        assert_eq!(try_parse_port(Some("0")), Ok(0));
        assert_eq!(try_parse_port(Some("65535")), Ok(65_535));
        assert_eq!(try_parse_port(Some("+7878")), Ok(7_878));
        assert!(try_parse_port(Some("65536")).is_err());
        assert!(try_parse_port(Some("-1")).is_err());
        assert!(try_parse_port(Some("")).is_err());
        assert!(try_parse_port(None).is_err());
    }
}
