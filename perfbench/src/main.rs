//! The repository benchmark's measuring program.
//!
//! `perfbench --workload <paper-tables|serve-insert|serve-zipf> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed`, `metrics`
//! (`{name: {value, unit}}`) and `detail`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` they are the per-layer ones,
//! and `--trace-out` names the file the spans are written to. Every
//! number is timed from outside the library crates, around calls to
//! their public functions. `perfbench/run.py` builds this program and
//! drives it; see `perfbench/README.md`.

mod paper;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use util::Report;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTables,
    ServeInsert,
    ServeZipf,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "paper-tables" => Workload::PaperTables,
            "serve-insert" => Workload::ServeInsert,
            "serve-zipf" => Workload::ServeZipf,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper-tables",
            Workload::ServeInsert => "serve-insert",
            Workload::ServeZipf => "serve-zipf",
        }
    }
}

/// `Tiny` shrinks every workload for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub trace_out: Option<PathBuf>,
    /// Host fingerprint and provenance (a JSON object) copied into the
    /// trace file's header.
    pub stamp: String,
}

/// Spans kept for the trace file; layer totals cover every span.
pub const SPAN_CAP: usize = 50_000;

/// Per-layer metrics only the serving workloads measure; `paper-tables`
/// reports them as 0.
pub const SERVE_LAYERS: [(&str, &str); 16] = [
    ("engine.build_ms", "ms"),
    ("engine.route_ns_per_op", "ns"),
    ("engine.shard_skew", "ratio"),
    ("engine.handoff_us_per_batch", "us"),
    ("engine.idle_share", "share"),
    ("shard.apply_ns_per_op", "ns"),
    ("shard.unattributed_share", "share"),
    ("hash.batch_ns_per_key", "ns"),
    ("index.push_ns", "ns"),
    ("index.depth_ns", "ns"),
    ("index.rss_mb", "MiB"),
    ("index.keys", "count"),
    ("index.mean_depth", "balls"),
    ("metrics.record_ns_per_op", "ns"),
    ("sink.record_ns_per_batch", "ns"),
    ("sink.bytes_per_batch", "bytes"),
];

/// Per-layer metrics only `paper-tables` measures; the serving
/// workloads report them as 0.
pub const PAPER_LAYERS: [(&str, &str); 3] = [
    ("runner.trial_ms", "ms"),
    ("runner.idle_share", "share"),
    ("stats.accumulate_us_per_trial", "us"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut trace_out = None;
    let mut stamp = "{}".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--stamp" => stamp = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
        trace_out,
        stamp,
    })
}

/// Adds the self-time table to the printed lines and writes the trace
/// file, if one was asked for.
pub fn finish_trace(args: &Args, tracer: &trace::Tracer, report: &mut Report) {
    report.lines.extend(tracer.self_table());
    let Some(path) = &args.trace_out else {
        return;
    };
    let header = ba_stats::json::JsonObject::new()
        .field_str("workload", args.workload.name())
        .field_u64("seed", args.seed)
        .field_f64("seconds", args.seconds)
        .field_raw("stamp", &args.stamp)
        .finish();
    match tracer.write(path, &header) {
        Ok(()) => report
            .detail
            .push(("trace_file".to_string(), path.display().to_string())),
        Err(err) => report.fail(format!("writing {}: {err}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::PaperTables => paper::run(&args),
        w => serve::run(&args, w),
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.to_json());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
