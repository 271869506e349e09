//! Percentiles with sample-count discipline, and the run's report.

use std::fmt::Write as _;

/// A percentile is emitted only when at least this many samples lie
/// beyond it; with fewer, the figure would be one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `values`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(name: &str, values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{name}: refusing p{:.0} of {n} samples ({beyond} beyond it, {MIN_BEYOND} required)",
            q * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a run's few set-up repetitions. Set-up is measured a
/// handful of times per run, not thousands, so this is the plain middle
/// value and carries its (small) sample count rather than the
/// percentile rule above.
pub fn setup_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One reported figure with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run reports. `metrics` are the figures under the names
/// the workload defines; `gated` holds the subset, under the names in
/// `BENCHMARK.json`, that the last JSON line carries.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub gated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Adds the `q`-quantile of `values` (in the unit given) under `name`.
    pub fn add_percentile(
        &mut self,
        name: &str,
        unit: &'static str,
        values: &[f64],
        q: f64,
    ) -> Result<f64, String> {
        let v = percentile(name, values, q)?;
        self.add(name, unit, v, values.len());
        Ok(v)
    }

    /// Re-exports an already added metric to the JSON line under `as_name`.
    pub fn export(&mut self, name: &str, as_name: &str) {
        let m = self
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .clone();
        self.gated.push(Metric {
            name: as_name.to_string(),
            ..m
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Human-readable lines: every metric by name with unit and sample
    /// count, then the notes.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            println!(
                "  {:<36} {:>14.4} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for line in &self.notes {
            println!("  {line}");
        }
    }

    /// The last line of a run: `correct`, `attempted`, `failed` and the
    /// `BENCHMARK.json` metrics with their units.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.gated.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile("x", &v, 0.5).unwrap(), 10.0);
        assert!(percentile("x", &v[..19], 0.5).is_err());
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile("x", &w, 0.95).unwrap(), 190.0);
        assert!(percentile("x", &w[..199], 0.95).is_err());
        assert!(percentile("x", &w, 0.99).is_err());
    }
}
