//! Order statistics, the timing statistic, and the metric list a run prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Quantile `q` (in `[0, 1]`) of `samples` by linear interpolation between
/// the closest ranks.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The share of samples below the reported time. The host switches its
/// vector units between two speeds about 1.8x apart, in episodes of seconds;
/// a low quantile of many short samples reads the fast mode whenever a run
/// spends a tenth of its time there, while a slowdown of the program itself
/// moves every sample, this one included (see README.md).
pub const FAST_Q: f64 = 0.1;

/// The timing statistic of every repeated call: [`FAST_Q`] of its samples.
pub fn fast(samples: &[f64]) -> f64 {
    quantile(samples, FAST_Q)
}

/// Prints every set-up time of a run; `setup_s` is their median.
pub fn print_setups(setups: &[f64]) {
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "setup: {} s | median {:.4} s",
        each.join(", "),
        median(setups)
    );
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Largest absolute difference between two equally long slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "compared outputs differ in length");
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

/// Index of the largest entry of each `classes`-wide row.
pub fn argmax_rows(logits: &[f32], classes: usize) -> Vec<usize> {
    logits
        .chunks(classes)
        .map(|r| {
            r.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i)
        })
        .collect()
}

/// One named figure of a run.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The figures of a run, in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push('}');
        s
    }
}

/// What a workload hands back: its checks, its operation counts and its
/// figures.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.5, "ms");
        m.push("b", 2.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}"
        );
    }
}
