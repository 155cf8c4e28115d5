//! Lenient environment-variable configuration parsing.
//!
//! Several knobs across the workspace are tuning parameters that must
//! never change *results* — worker counts (`EXEC_THREADS`), the service
//! layer's cache and queue limits (`ATD_CACHE_ENTRIES`,
//! `ATD_QUEUE_DEPTH`). For those, a malformed value should fall back to
//! the built-in default rather than abort a run, and every consumer
//! should fall back the same way. This module is that one shared idiom:
//! trim, parse, reject zero, fall back.

/// Parses a positive integer from an optional raw string; `None` for
/// absent, unparsable, or zero values. The pure core of the idiom, kept
/// separate from the environment read so it is trivially testable.
fn parse_positive_usize(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|n| *n > 0)
}

/// Reads `name` from the environment and leniently parses it as a
/// positive integer, falling back to `default` when the variable is
/// absent, unparsable, or zero.
pub fn positive_usize_or(name: &str, default: usize) -> usize {
    parse_positive_usize(std::env::var(name).ok().as_deref()).unwrap_or(default)
}

/// Parses a nonnegative integer from an optional raw string; `None` for
/// absent or unparsable values. Unlike [`parse_positive_usize`], zero is
/// a legal configuration here — knobs like retry budgets ("retry this
/// many times", where 0 means fail fast) are counts, not capacities.
fn parse_nonnegative_u32(raw: Option<&str>) -> Option<u32> {
    raw.and_then(|s| s.trim().parse::<u32>().ok())
}

/// Reads `name` from the environment and leniently parses it as a
/// nonnegative integer, falling back to `default` when the variable is
/// absent or unparsable.
pub fn nonnegative_u32_or(name: &str, default: u32) -> u32 {
    parse_nonnegative_u32(std::env::var(name).ok().as_deref()).unwrap_or(default)
}

/// Parses a positive `u64` from an optional raw string; `None` for
/// absent, unparsable, or zero values. Same idiom as
/// [`parse_positive_usize`], for byte-sized knobs that must not be
/// clipped to the platform word (`ATD_STORE_SEGMENT_BYTES`,
/// `ATD_STORE_MAX_BYTES`).
fn parse_positive_u64(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|s| s.trim().parse::<u64>().ok()).filter(|n| *n > 0)
}

/// Reads `name` from the environment and leniently parses it as a
/// positive `u64`, falling back to `default` when the variable is
/// absent, unparsable, or zero.
pub fn positive_u64_or(name: &str, default: u64) -> u64 {
    parse_positive_u64(std::env::var(name).ok().as_deref()).unwrap_or(default)
}

/// Reads `name` from the environment and returns it trimmed; `None`
/// when the variable is absent or blank. Path-valued knobs
/// (`ATD_STORE_DIR`) use this: an empty string means "off", the same as
/// unset, so a scripted `ATD_STORE_DIR=""` disables cleanly.
pub fn non_empty(name: &str) -> Option<String> {
    std::env::var(name).ok().map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenient_parse_accepts_positive_integers_only() {
        assert_eq!(parse_positive_usize(Some("4")), Some(4));
        assert_eq!(parse_positive_usize(Some(" 12 ")), Some(12));
        assert_eq!(parse_positive_usize(Some("0")), None);
        assert_eq!(parse_positive_usize(Some("-3")), None);
        assert_eq!(parse_positive_usize(Some("abc")), None);
        assert_eq!(parse_positive_usize(Some("")), None);
        assert_eq!(parse_positive_usize(None), None);
    }

    #[test]
    fn env_read_falls_back_when_unset() {
        // An env var no test sets: the default must come back verbatim.
        assert_eq!(positive_usize_or("EXEC_ENV_TEST_UNSET_4711", 37), 37);
    }

    #[test]
    fn nonnegative_parse_admits_zero() {
        assert_eq!(parse_nonnegative_u32(Some("0")), Some(0));
        assert_eq!(parse_nonnegative_u32(Some(" 3 ")), Some(3));
        assert_eq!(parse_nonnegative_u32(Some("-1")), None);
        assert_eq!(parse_nonnegative_u32(Some("abc")), None);
        assert_eq!(parse_nonnegative_u32(None), None);
        assert_eq!(nonnegative_u32_or("EXEC_ENV_TEST_UNSET_4712", 2), 2);
    }

    #[test]
    fn u64_parse_accepts_positive_integers_only() {
        assert_eq!(parse_positive_u64(Some("1048576")), Some(1 << 20));
        assert_eq!(parse_positive_u64(Some(" 8 ")), Some(8));
        assert_eq!(parse_positive_u64(Some("18446744073709551615")), Some(u64::MAX));
        assert_eq!(parse_positive_u64(Some("0")), None);
        assert_eq!(parse_positive_u64(Some("-3")), None);
        assert_eq!(parse_positive_u64(Some("abc")), None);
        assert_eq!(parse_positive_u64(None), None);
        assert_eq!(positive_u64_or("EXEC_ENV_TEST_UNSET_4713", 64), 64);
    }

    #[test]
    fn non_empty_treats_blank_as_unset() {
        assert_eq!(non_empty("EXEC_ENV_TEST_UNSET_4714"), None);
        std::env::set_var("EXEC_ENV_TEST_SET_4715", "  /tmp/store  ");
        assert_eq!(non_empty("EXEC_ENV_TEST_SET_4715"), Some("/tmp/store".to_string()));
        std::env::set_var("EXEC_ENV_TEST_SET_4716", "   ");
        assert_eq!(non_empty("EXEC_ENV_TEST_SET_4716"), None);
    }
}
