//! Sample summaries, output digests, and the result line the benchmark
//! prints last.

use std::fmt::Write as _;

/// FNV-1a over byte streams: the digest every output check compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds one little-endian `u64` into the digest.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    Fnv::default().bytes(bytes).finish()
}

/// Quantile of an ascending slice by linear interpolation between order
/// statistics (the "inclusive" method); `NaN` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The samples behind `value`, when it is a median of several.
    pub spread: Option<Summary>,
}

impl Metric {
    /// A single-valued metric.
    #[must_use]
    pub fn value(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
        }
    }

    /// The median of `samples`, keeping the quartiles for the report.
    #[must_use]
    pub fn median(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Metric {
        let spread = Summary::of(samples);
        Metric {
            name: name.into(),
            value: spread.median,
            unit,
            spread: Some(spread),
        }
    }

    /// The human-readable `metric <workload> <name> <value> <unit> …` line.
    #[must_use]
    pub fn line(&self, workload: &str) -> String {
        let mut line = format!(
            "metric {workload} {} {} {}",
            self.name, self.value, self.unit
        );
        if let Some(s) = self.spread {
            let _ = write!(line, " n={} q1={} q3={}", s.n, s.q1, s.q3);
        }
        line
    }
}

/// The machine-readable result: the last line of standard output.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; they only arise from an empty
        // sample set, which the output checks already reject.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!(s.median, 1.5);
    }

    #[test]
    fn result_line_is_json() {
        let line = result_json(true, 3, 0, &[Metric::value("setup_s", 0.5, "s")]);
        let v = serde::json::parse(&line).unwrap();
        assert_eq!(v.get_field("attempted").as_u64(), Some(3));
        assert_eq!(
            v.get_field("metrics")
                .get_field("setup_s")
                .get_field("value")
                .as_f64(),
            Some(0.5)
        );
    }
}
