//! `paper-tables`: the paper's standard process in Table-1 shape.
//!
//! One unit is one table row: `run_load_experiment` over the
//! double-hashing arm, then over the fully-random (without replacement)
//! arm, each with the same trial count, seed and thread count. Every
//! unit repeats the same experiment, so every unit must reproduce the
//! single-thread reference bit for bit.

use crate::trace::{ns_since, Span, Tracer, ROOT};
use crate::util::{calm_tenth, median, micros, peak_rss_mib, percentile, ratio, secs, Report};
use crate::{Args, Scale};
use ba_core::experiment::{run_load_experiment, ExperimentConfig};
use ba_core::{run_process_keys, runner, ChoiceSource};
use ba_hash::{ChoiceScheme, DoubleHashing, FullyRandom, Replacement};
use ba_rng::SeedSequence;
use ba_stats::{two_proportion_z, LoadHistogram, TrialAccumulator};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Seconds to set up before a unit, timed once before every unit: both
/// schemes and the config (nanoseconds), plus one spawn and join of the
/// trial runner's worker threads, run here with empty trials. The runner
/// has no persistent pool; every `run_load_experiment` call starts its
/// workers like this. Construction alone is too small to time steadily:
/// it read 8 or 15 ns from one build to the next.
fn time_setup(s: &Sizes, seed: u64) -> f64 {
    let t = Instant::now();
    let arms = black_box(set_up(black_box(s), black_box(seed)));
    let threads = arms.config.threads;
    runner::run_trials(threads as u64, threads, seed, |_, _| ());
    secs(t.elapsed())
}

/// Table rows per window of the calm-tenth estimate (~0.5 s at full
/// size).
const WINDOW_UNITS: usize = 25;

struct Sizes {
    /// Bins, and balls per trial (m = n).
    n: u64,
    d: usize,
    /// Trials per arm per unit.
    trials: u64,
    threads: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: 1 << 14,
            d: 3,
            trials: 16,
            threads: 2,
        },
        Scale::Tiny => Sizes {
            n: 1 << 10,
            d: 3,
            trials: 4,
            threads: 2,
        },
    }
}

struct Arms {
    double: DoubleHashing,
    random: FullyRandom,
    config: ExperimentConfig,
}

fn set_up(s: &Sizes, seed: u64) -> Arms {
    Arms {
        double: DoubleHashing::new(s.n, s.d),
        random: FullyRandom::new(s.n, s.d, Replacement::Without),
        config: ExperimentConfig::new(s.n)
            .trials(s.trials)
            .seed(seed)
            .threads(s.threads),
    }
}

/// A bit-exact rendering of an accumulator: `Debug` prints every `f64`
/// in shortest round-trip form.
fn fingerprint(acc: &TrialAccumulator) -> String {
    format!("{acc:?}")
}

/// The z statistic `tests/paper_claims.rs` uses: load-`load` bin counts
/// pooled over all trials of each arm.
fn load_z(a: &TrialAccumulator, b: &TrialAccumulator, load: usize) -> f64 {
    let bins_a = a.trials() * a.bins_per_trial();
    let bins_b = b.trials() * b.bins_per_trial();
    let xa = (a.mean_fraction(load) * bins_a as f64).round() as u64;
    let xb = (b.mean_fraction(load) * bins_b as f64).round() as u64;
    two_proportion_z(xa, bins_a, xb, bins_b)
}

pub fn run(args: &Args) -> Report {
    let s = sizes(args.scale);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut setup = Vec::new();
    let arms = set_up(&s, args.seed);

    // The single-thread reference every unit must reproduce.
    let one_thread = arms.config.clone().threads(1);
    let ref_double = run_load_experiment(&arms.double, &one_thread);
    let ref_random = run_load_experiment(&arms.random, &one_thread);
    let reference = [fingerprint(&ref_double), fingerprint(&ref_random)];
    for load in 0..=2 {
        let z = load_z(&ref_random, &ref_double, load);
        report
            .detail
            .push((format!("z_load{load}"), format!("{z:.4}")));
        if z.abs() >= 4.0 {
            report.fail(format!(
                "load {load}: |z| = {:.3} between the arms",
                z.abs()
            ));
        }
    }
    let max_load = ref_double.overall_max_load();

    let balls_per_unit = 2 * s.trials * s.n;
    let mut unit_us = Vec::new();
    let mut rates = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { budget / 4 } else { budget };
    let start = Instant::now();
    while unit_us.is_empty() || start.elapsed() < untraced_budget {
        setup.push(time_setup(&s, args.seed));
        let t = Instant::now();
        let double = run_load_experiment(&arms.double, &arms.config);
        let random = run_load_experiment(&arms.random, &arms.config);
        let dt = t.elapsed();
        unit_us.push(micros(dt));
        rates.push(balls_per_unit as f64 / secs(dt));
        check_unit(&mut report, &reference, [&double, &random], balls_per_unit);
    }
    let units = unit_us.len();
    report
        .detail
        .push(("unit_rates".to_string(), crate::util::spread(&mut rates)));
    let ops_per_s = median(&mut rates);

    if args.trace {
        let mut tracer = Tracer::new(Instant::now(), crate::SPAN_CAP);
        let traced_ops_per_s = traced(args, &s, &arms, &reference, &mut tracer, &mut report);
        let balls = tracer.layer("runner.trial").count as f64 * s.n as f64;
        let trials = tracer.layer("runner.trial").count as f64;
        let stream = tracer.total_ns("hash.stream");
        let m = &mut report;
        zero_serve_layers(m);
        m.metric("hash.stream_ns_per_ball", ratio(stream, balls), "ns");
        m.metric(
            "core.place_ns_per_ball",
            ratio(tracer.total_ns("core.process") - stream, balls),
            "ns",
        );
        m.metric(
            "runner.trial_ms",
            ratio(tracer.total_ns("runner.trial"), trials) / 1e6,
            "ms",
        );
        m.metric(
            "runner.idle_share",
            1.0 - ratio(
                tracer.total_ns("runner.trial"),
                s.threads as f64 * tracer.total_ns("runner.run_trials"),
            ),
            "share",
        );
        m.metric(
            "stats.accumulate_us_per_trial",
            ratio(tracer.total_ns("stats.accumulate"), trials) / 1e3,
            "us",
        );
        m.metric("trace.untraced_ops_per_s", ops_per_s, "1/s");
        m.metric("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
        crate::finish_trace(args, &tracer, &mut report);
    } else {
        let calm = calm_tenth(&unit_us, WINDOW_UNITS, balls_per_unit as f64);
        report.metric("setup_s", median(&mut setup), "s");
        report.metric("ops_per_s", calm.ops_per_s, "1/s");
        report.metric("unit_p50_us", calm.p50_us, "us");
        report.detail.push((
            "calm_windows".to_string(),
            format!(
                "{} of {} windows, {} units",
                calm.kept, calm.windows, calm.samples
            ),
        ));
        report.detail.push((
            "unit_p99_us".to_string(),
            percentile(&mut unit_us, 99.0).to_string(),
        ));
        report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        report.metric("max_load", f64::from(max_load), "balls");
    }
    report
        .detail
        .push(("unit_samples".to_string(), units.to_string()));
    report
        .detail
        .push(("setup_samples".to_string(), setup.len().to_string()));
    report.lines.push(format!(
        "paper-tables: n={} d={} trials/arm/unit={} threads={} units={} max_load={}",
        s.n, s.d, s.trials, s.threads, units, max_load
    ));
    report
}

fn check_unit(
    report: &mut Report,
    reference: &[String; 2],
    accs: [&TrialAccumulator; 2],
    balls: u64,
) {
    report.attempted += balls;
    for (arm, (acc, want)) in ["double", "random"]
        .iter()
        .zip(accs.iter().zip(reference.iter()))
    {
        if fingerprint(acc) != *want {
            report.failed += balls;
            report.fail(format!(
                "{arm} arm differs from its single-thread recomputation"
            ));
            return;
        }
    }
}

/// The per-layer metrics of the serving workloads, which this workload
/// never runs.
fn zero_serve_layers(report: &mut Report) {
    for (name, unit) in crate::SERVE_LAYERS {
        report.metric(name, 0.0, unit);
    }
}

/// Small per-thread lane number for worker spans.
fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// One trial exactly as `run_load_experiment` runs it (stream choices),
/// with spans around the process and the histogram.
fn traced_trial<S: ChoiceScheme + ?Sized>(
    scheme: &S,
    config: &ExperimentConfig,
    seq: SeedSequence,
    base: Instant,
    unit: u64,
) -> (LoadHistogram, [Span; 3]) {
    let lane = lane();
    let t0 = ns_since(base);
    let mut rng = seq.rng_of(config.rng);
    let alloc = run_process_keys(
        scheme,
        ChoiceSource::Stream,
        0..config.balls,
        config.tie,
        &mut rng.as_mut(),
    );
    let t1 = ns_since(base);
    let hist = alloc.histogram();
    let t2 = ns_since(base);
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        unit,
        lane,
    };
    (
        hist,
        [
            span("runner.trial", t0, t2, ROOT),
            span("core.process", t0, t1, 0),
            span("stats.histogram", t1, t2, 0),
        ],
    )
}

/// The traced units; returns the traced ops per second (balls over the
/// time inside `run_trials`).
fn traced(
    args: &Args,
    s: &Sizes,
    arms: &Arms,
    reference: &[String; 2],
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let failures_before = report.failures;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.75);
    let mut unit = 0u64;
    let mut balls = 0u64;
    while unit == 0 || Instant::now() < deadline {
        let root = tracer.push("paper.unit", tracer.now(), 0, ROOT, unit, 0);
        let double = traced_arm(&arms.double, &arms.config, unit, root, tracer);
        let random = traced_arm(&arms.random, &arms.config, unit, root, tracer);
        tracer.set_end(root, tracer.now());
        tracer.finish_unit();
        check_unit(report, reference, [&double, &random], 2 * s.trials * s.n);
        balls += 2 * s.trials * s.n;
        unit += 1;
    }
    let passed = report.failures == failures_before;
    report.lines.push(format!(
        "recomposition check: {unit} traced units {} the single-thread reference",
        if passed { "equal" } else { "do not all equal" }
    ));
    report
        .detail
        .push(("recomposition_passed".to_string(), passed.to_string()));
    ratio(balls as f64, tracer.total_ns("runner.run_trials") / 1e9)
}

fn traced_arm<S: ChoiceScheme + ?Sized>(
    scheme: &S,
    config: &ExperimentConfig,
    unit: u64,
    root: u32,
    tracer: &mut Tracer,
) -> TrialAccumulator {
    let base = tracer.base();
    let start = tracer.now();
    let results = runner::run_trials(config.trials, config.threads, config.seed, |_i, seq| {
        traced_trial(scheme, config, seq, base, unit)
    });
    let run = tracer.push("runner.run_trials", start, tracer.now(), root, unit, 0);
    for (_, spans) in &results {
        tracer.adopt(spans, run);
    }
    let start = tracer.now();
    let mut acc = TrialAccumulator::new();
    for (hist, _) in &results {
        acc.push(hist);
    }
    tracer.push("stats.accumulate", start, tracer.now(), root, unit, 0);

    // Choice generation alone, on fresh copies of each trial's stream.
    // Inside a trial it interleaves with random tie-breaks on the same
    // stream, so it cannot be split out without changing the draws;
    // `core.place` is the process time minus this span.
    let start = tracer.now();
    let mut buf = vec![0u64; scheme.d()];
    let seq = SeedSequence::new(config.seed);
    for i in 0..config.trials {
        let mut rng = seq.child(i).rng_of(config.rng);
        for key in 0..config.balls {
            ChoiceSource::Stream.fill(scheme, key, rng.as_mut(), &mut buf);
            black_box(&mut buf);
        }
    }
    tracer.push("hash.stream", start, tracer.now(), root, unit, 0);
    acc
}
