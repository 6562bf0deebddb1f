//! What one benchmark run reports: metrics, output checks, and the
//! one-line JSON result.

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("cycle_s", "s"),
    ("setup_s", "s"),
    ("analysis_rmse", "nondim"),
    ("spread_skill_err", "nondim"),
    ("degraded_cycle_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced run.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("sqg.forecast_s", "s"),
    ("sqg.member_steps", "count"),
    ("sqg.step_us", "us"),
    ("ensf.analyze_s", "s"),
    ("ensf.sde_steps", "count"),
    ("ensf.gflops_computed", "GFLOP/s"),
    ("core.driver_self_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("resilience.quarantined_members", "count"),
    ("dist.forecast_s", "s"),
    ("dist.analyze_s", "s"),
    ("dist.gather_s", "s"),
    ("dist.rank_imbalance", "ratio"),
    ("hpc.collectives", "count"),
    ("hpc.bytes", "bytes"),
    ("hpc.modeled_comm_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// What the value is a share or rate of, or why the layer is idle.
    pub base: String,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its verdict and evidence.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Cycles (or analyses) attempted.
    pub attempted: u64,
    /// Cycles that ended without a finite analysis.
    pub failed: u64,
    /// Metrics, in the order of the table they come from.
    pub metrics: Vec<Metric>,
    /// Output checks; any failure makes the run incorrect.
    pub checks: Vec<Check>,
    /// Human-readable report lines (coverage, notes).
    pub report: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            base: base.into(),
        });
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, passed, detail));
    }

    /// True when every check passed and every metric of `table` was
    /// measured and is finite.
    pub fn correct(&self, table: &[(&str, &str)]) -> bool {
        self.checks.iter().all(|c| c.passed)
            && table
                .iter()
                .all(|(name, _)| self.value(name).is_some_and(f64::is_finite))
    }

    /// Looks a metric up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `table` with their units, as one JSON object. A non-finite value
    /// is written as `null` (and the run is then incorrect).
    pub fn json_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.value(name) {
                    Some(v) if v.is_finite() => format!("{v:?}"),
                    _ => "null".to_string(),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(table),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
