//! Minimal argument parsing for the CLI.
//!
//! A deliberate hand-rolled parser (no external dependency): subcommand +
//! `--flag value` / `--switch` pairs + positional arguments. Unknown flags
//! are an error; every command's flags are listed in the usage text.

use std::collections::BTreeMap;
use std::fmt;

use tt_trace::time::SimDuration;

/// Parsed command line: positionals plus flag map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// CLI usage errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments. `switch_names` lists the boolean flags, which
    /// take no value, and `value_names` the flags that consume one value;
    /// any other token starting with `--` is an error.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an unknown flag or a flag missing its value.
    pub fn parse(
        raw: &[String],
        switch_names: &[&str],
        value_names: &[&str],
    ) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(token) = it.next() {
            if let Some(name) = token.strip_prefix("--") {
                if switch_names.contains(&name) {
                    args.switches.push(name.to_string());
                } else if value_names.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    args.flags.insert(name.to_string(), value.clone());
                } else {
                    return Err(ArgError(format!("unknown flag --{name}")));
                }
            } else {
                args.positionals.push(token.clone());
            }
        }
        Ok(args)
    }

    /// Positional argument `i`, if present.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positionals.
    #[must_use]
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// String flag value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// String flag with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// `true` when a boolean switch was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses a flag as `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on unparsable input.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: expected an integer, got {v:?}"))),
        }
    }

    /// Parses a flag as `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on unparsable input.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: expected an integer, got {v:?}"))),
        }
    }

    /// Parses a flag as `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on unparsable input.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: expected a number, got {v:?}"))),
        }
    }

    /// Parses a flag as a duration with unit suffix (`ns`, `us`, `ms`,
    /// `s`), e.g. `--period 10ms`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on unparsable input.
    pub fn get_duration(&self, name: &str, default: SimDuration) -> Result<SimDuration, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => parse_duration(v)
                .ok_or_else(|| ArgError(format!("--{name}: expected e.g. 10ms/100us, got {v:?}"))),
        }
    }
}

/// Parses `"10ms"`, `"100us"`, `"1.5s"`, `"250ns"`.
#[must_use]
pub fn parse_duration(s: &str) -> Option<SimDuration> {
    let s = s.trim();
    let (value, unit): (&str, &str) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))?;
    let value: f64 = value.parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    let nanos = match unit {
        "ns" => value,
        "us" => value * 1e3,
        "ms" => value * 1e6,
        "s" => value * 1e9,
        _ => return None,
    };
    Some(SimDuration::from_nanos(nanos.round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_flags_positionals_switches() {
        let a = Args::parse(
            &raw(&["in.csv", "--method", "revision", "--timing", "out.csv"]),
            &["timing"],
            &["method"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("in.csv"));
        assert_eq!(a.positional(1), Some("out.csv"));
        assert_eq!(a.get("method"), Some("revision"));
        assert!(a.switch("timing"));
        assert!(!a.switch("json"));
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse(&raw(&["--method"]), &[], &["method"]).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn unknown_flags_are_errors_even_before_a_value() {
        // An unlisted flag must not swallow the next token as its value.
        let err =
            Args::parse(&raw(&["--paralel", "--groups"]), &["groups"], &["parallel"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --paralel");
    }

    #[test]
    fn numeric_flags_parse_with_defaults() {
        let a = Args::parse(&raw(&["--requests", "500"]), &[], &["requests"]).unwrap();
        assert_eq!(a.get_usize("requests", 100).unwrap(), 500);
        assert_eq!(a.get_usize("seed", 42).unwrap(), 42);
        assert!(a.get_f64("requests", 0.0).is_ok());
        assert!(
            Args::parse(&raw(&["--requests", "abc"]), &[], &["requests"])
                .unwrap()
                .get_usize("requests", 1)
                .is_err()
        );
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("10ms"), Some(SimDuration::from_msecs(10)));
        assert_eq!(parse_duration("100us"), Some(SimDuration::from_usecs(100)));
        assert_eq!(
            parse_duration("1.5s"),
            Some(SimDuration::from_nanos(1_500_000_000))
        );
        assert_eq!(parse_duration("250ns"), Some(SimDuration::from_nanos(250)));
        assert_eq!(parse_duration("10"), None);
        assert_eq!(parse_duration("10min"), None);
        assert_eq!(parse_duration("-5ms"), None);
    }
}
