//! A minimal `--key value` argument parser for the experiment binaries.
//!
//! Kept dependency-free on purpose: harness binaries take a handful of
//! numeric knobs (`--domains`, `--queries`, `--seed`, ...) and nothing else.
//! Each binary names the flags it reads, so a mistyped one is an error
//! rather than a silently applied default.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process arguments (skipping `argv[0]`), accepting only
    /// the named `flags`.
    ///
    /// # Panics
    /// Panics with a usage hint on malformed input (a `--key` without a
    /// value, a key not in `flags`, or a stray positional argument).
    #[must_use]
    pub fn from_env(flags: &[&str]) -> Self {
        Self::parse_from(flags, std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable entry point).
    ///
    /// # Panics
    /// As [`from_env`](Self::from_env).
    pub fn parse_from<I: IntoIterator<Item = String>>(flags: &[&str], iter: I) -> Self {
        let mut values = BTreeMap::new();
        let mut iter = iter.into_iter();
        while let Some(key) = iter.next() {
            let stripped = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("unexpected positional argument: {key}"));
            assert!(flags.contains(&stripped), "unknown flag --{stripped}");
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("--{stripped} requires a value"));
            values.insert(stripped.to_owned(), value);
        }
        Self { values }
    }

    /// The flag's parsed value, or `default` when it is absent.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T, expects: &str) -> T {
        self.values.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} expects {expects}, got {v}"))
        })
    }

    /// Integer flag with default.
    ///
    /// # Panics
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key, default, "an integer")
    }

    /// `u64` flag with default.
    ///
    /// # Panics
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key, default, "an integer")
    }

    /// Float flag with default.
    ///
    /// # Panics
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key, default, "a number")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        let flags = ["domains", "queries", "alpha", "seed"];
        Args::parse_from(&flags, s.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_pairs() {
        let a = args(&["--domains", "1000", "--alpha", "2.5"]);
        assert_eq!(a.get_usize("domains", 1), 1000);
        assert!((a.get_f64("alpha", 0.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get_usize("queries", 500), 500);
        assert_eq!(a.get_u64("seed", 42), 42);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn dangling_key_panics() {
        let _ = args(&["--domains"]);
    }

    #[test]
    #[should_panic(expected = "unexpected positional")]
    fn positional_rejected() {
        let _ = args(&["oops"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --domain")]
    fn unknown_flag_rejected() {
        let _ = args(&["--domain", "20000"]);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = args(&["--domains", "many"]);
        let _ = a.get_usize("domains", 1);
    }
}
