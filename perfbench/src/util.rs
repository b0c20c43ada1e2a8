//! Small measurement helpers: order statistics, process memory, and the
//! result record every workload fills in.

use ba_stats::json::JsonObject;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check of the run passed.
    pub correct: bool,
    /// Ops attempted (balls thrown on `paper-tables`).
    pub attempted: u64,
    /// Ops in units whose correctness check failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra context for the human summary and the result file: sample
    /// counts, check outcomes, per-layer self times.
    pub detail: Vec<(String, String)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Failed checks so far.
    pub failures: usize,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check: it makes the run incorrect, and the first
    /// few are printed and stored in the detail.
    pub fn fail(&mut self, what: String) {
        const SHOWN: usize = 8;
        self.correct = false;
        self.failures += 1;
        if self.failures <= SHOWN {
            self.lines.push(format!("CHECK FAILED: {what}"));
            self.detail
                .push((format!("check_failed_{}", self.failures), what));
        }
    }

    /// The result as one JSON line. `detail` values are emitted as JSON
    /// strings unless they already parse as a number or object.
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            metrics = metrics.field_raw(
                m.name,
                &JsonObject::new()
                    .field_f64("value", m.value)
                    .field_str("unit", m.unit)
                    .finish(),
            );
        }
        let mut detail = JsonObject::new();
        for (k, v) in &self.detail {
            detail = if is_json_scalar_or_object(v) {
                detail.field_raw(k, v)
            } else {
                detail.field_str(k, v)
            };
        }
        JsonObject::new()
            .field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish())
            .field_raw("detail", &detail.finish())
            .finish()
    }
}

fn is_json_scalar_or_object(v: &str) -> bool {
    v.parse::<f64>().is_ok_and(f64::is_finite) || v == "true" || v == "false" || v.starts_with('{')
}

/// The median of `values` (0 when empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty). Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Throughput and median latency over the calmest tenth of a run.
///
/// The host's other tenants slow the program in streaks of seconds, and
/// how much of a run they cover changes from run to run. The run is cut
/// into windows of consecutive units (an episode, or a fixed number of
/// table rows); the fastest tenth of the windows, by ops over the time
/// spent in their units, gives the figures.
#[derive(Debug)]
pub struct Calm {
    pub ops_per_s: f64,
    pub p50_us: f64,
    /// Windows kept, of `windows`.
    pub kept: usize,
    pub windows: usize,
    /// Units in the kept windows.
    pub samples: usize,
}

/// [`Calm`] over `unit_us` cut into windows of `window` units, each unit
/// doing `ops_per_unit` ops.
pub fn calm_tenth(unit_us: &[f64], window: usize, ops_per_unit: f64) -> Calm {
    let mut windows: Vec<&[f64]> = unit_us.chunks(window.max(1)).collect();
    // Fastest first: least time per unit.
    windows.sort_by(|a, b| {
        let per_unit = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
        per_unit(a).total_cmp(&per_unit(b))
    });
    let kept = windows.len().div_ceil(10);
    let mut units: Vec<f64> = windows[..kept]
        .iter()
        .flat_map(|w| w.iter().copied())
        .collect();
    let busy_s = units.iter().sum::<f64>() / 1e6;
    Calm {
        ops_per_s: ratio(ops_per_unit * units.len() as f64, busy_s),
        p50_us: median(&mut units),
        kept,
        windows: windows.len(),
        samples: units.len(),
    }
}

/// Min, quartiles and max of `values` as a JSON object. Sorts in place.
pub fn spread(values: &mut [f64]) -> String {
    let mut q = |p| percentile(values, p);
    let (min, q1, q2, q3) = (q(0.0), q(25.0), q(50.0), q(75.0));
    let max = q(100.0);
    JsonObject::new()
        .field_f64("min", min)
        .field_f64("q1", q1)
        .field_f64("median", q2)
        .field_f64("q3", q3)
        .field_f64("max", max)
        .finish()
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`), or 0 where the
/// file does not exist.
fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM") as f64 / 1024.0
}

/// Current resident set of the process, in MiB.
pub fn rss_mib() -> f64 {
    proc_status_kib("VmRSS") as f64 / 1024.0
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
