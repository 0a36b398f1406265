//! The run's output: one human-readable line per metric (name, value,
//! unit, sample count), then the machine-readable result as the last
//! line of standard output.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Outcome of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations whose output did not match the expected file or the
    /// interpreter, or that were refused, overloaded, timed out or
    /// errored.
    pub failed: u64,
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Messages describing each failure (printed, capped).
    pub failures: Vec<String>,
    /// Informational lines, printed before the metrics (workload size,
    /// machine block, the workload-named metrics).
    pub notes: Vec<Metric>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Fails the run for every metric that is not a finite number.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is {}", m.name, m.value))
            .collect();
        for why in bad {
            self.fail(why);
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable block — failures, then one line per note and
    /// metric with its unit and sample count — and the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for why in self.failures.iter().take(20) {
            out.push_str(&format!("FAILED {why}\n"));
        }
        let error_rate = Metric::new(
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted as usize,
        );
        for m in self.notes.iter().chain(&self.metrics).chain([&error_rate]) {
            out.push_str(&format!(
                "metric {:<34} {:>14} {:<8} n={}\n",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            ));
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot hold, become 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

fn fmt_value(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e12 {
        format!("{x}")
    } else {
        format!("{x:.4}")
    }
}
