//! `serve-insert` and `serve-zipf`: one closed-loop client feeding
//! batches of 1,024 ops through `Engine::apply_batch`.
//!
//! An episode builds a fresh engine and serves the workload's whole op
//! stream; every episode of a run serves the same stream, so every
//! episode must end in the same state, and that state must equal that of
//! a twin served in the other worker mode (sequential for the worker
//! pool, the worker pool for the sequential engine). The traced run
//! alternates two passes over the same stream:
//!
//! * pass A serves it through the real engine, timing `apply_batch`, the
//!   sink's `record` calls and, beside each batch, `route()` into
//!   per-shard slices;
//! * pass B applies each routed slice to a standalone `Shard` built from
//!   the same config, timing `Shard::apply`, then replays the slices
//!   through the pieces `Shard::apply` is made of — choice generation,
//!   `Allocation` placement, `KeyIndex`, `OnlinePercentiles` — on
//!   standalone objects seeded by the public derivation, one batch-sized
//!   span per piece, and checks that both end in the engine's state.

use crate::trace::{Tracer, ROOT};
use crate::util::{
    calm_tenth, median, micros, peak_rss_mib, percentile, ratio, rss_mib, secs, Report,
};
use crate::{Args, Scale, Workload};
use ba_core::{Allocation, TieBreak};
use ba_engine::{
    route, Engine, EngineConfig, EngineStats, JsonLinesExporter, KeyIndex, MetricRecord,
    MetricsSink, Op, OpObservations, Shard, WorkerMode,
};
use ba_hash::{AnyScheme, ChoiceScheme, ChoiceSource};
use ba_rng::{AnyRng, SeedSequence};
use ba_workload::Scenario;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCHEME: &str = "double";

/// The exporter window `examples/engine_serve.rs` uses.
const SINK_WINDOW: Duration = Duration::from_millis(25);

/// Extra engine builds before every episode, so `setup_s` is a median
/// of many samples spread over the run.
const EXTRA_SETUPS: usize = 4;

/// Keys per `choices_for_batch` call. The chunk size mirrors the one
/// `Shard`'s batched keyed insert path uses; chunking does not change any
/// choice, only the shape of the timed kernel.
const INSERT_RUN_CHUNK: usize = 128;

pub struct Spec {
    keyed: bool,
    /// How `apply_batch` runs the shards: on the persistent worker pool
    /// (`serve-insert`, the only workload that measures the hand-off) or
    /// one after another on the client's thread (`serve-zipf`).
    workers: WorkerMode,
    shards: usize,
    bins: u64,
    d: usize,
    scenario: Scenario,
    keyspace: u64,
    ops: usize,
    batch: usize,
    sink: bool,
}

pub fn spec(workload: Workload, scale: Scale) -> Spec {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::ServeInsert => Spec {
            keyed: true,
            workers: WorkerMode::Persistent,
            shards: 2,
            bins: if tiny { 1 << 10 } else { 1 << 16 },
            d: 3,
            scenario: Scenario::Uniform,
            keyspace: 1 << 40,
            ops: if tiny { 1 << 14 } else { 1 << 21 },
            batch: 1024,
            sink: false,
        },
        Workload::ServeZipf => Spec {
            keyed: false,
            workers: WorkerMode::Sequential,
            shards: 2,
            bins: if tiny { 1 << 8 } else { 1 << 12 },
            d: 3,
            scenario: Scenario::Zipf { theta: 0.9 },
            keyspace: if tiny { 1 << 10 } else { 1 << 12 },
            ops: if tiny { 1 << 14 } else { 1 << 20 },
            batch: 1024,
            sink: true,
        },
        Workload::PaperTables => unreachable!("paper-tables is not a serving workload"),
    }
}

impl Spec {
    fn config(&self, seed: u64) -> EngineConfig {
        let config = EngineConfig::new(self.shards, self.bins, self.d)
            .seed(seed)
            .workers(self.workers);
        if self.keyed {
            config.keyed()
        } else {
            config
        }
    }

    /// Shards that can be busy at once inside one `apply_batch`.
    fn lanes(&self) -> usize {
        match self.workers {
            WorkerMode::Sequential => 1,
            _ => self.shards,
        }
    }

    fn scheme(&self) -> AnyScheme {
        AnyScheme::by_name(SCHEME, self.bins, self.d).expect("double is a built-in scheme")
    }
}

/// A writer that keeps only the byte count.
struct CountingWriter(Arc<AtomicU64>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn exporter(bytes: &Arc<AtomicU64>) -> JsonLinesExporter<CountingWriter> {
    JsonLinesExporter::new(CountingWriter(Arc::clone(bytes)), SINK_WINDOW)
}

/// Wraps the exporter to time each `record` call from outside it.
struct TimedSink {
    inner: JsonLinesExporter<CountingWriter>,
    base: Instant,
    calls: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl MetricsSink for TimedSink {
    fn record(&mut self, record: &MetricRecord) {
        let start = crate::trace::ns_since(self.base);
        self.inner.record(record);
        let end = crate::trace::ns_since(self.base);
        self.calls
            .lock()
            .expect("sink call log poisoned")
            .push((start, end));
    }
    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Builds the engine a client talks to: shards, the persistent worker
/// pool if the workload uses one (spawned here by an empty batch rather
/// than lazily by the first real one) and the sink.
fn build(spec: &Spec, seed: u64, sink: Option<Box<dyn MetricsSink + Send>>) -> Engine<AnyScheme> {
    let mut engine =
        Engine::by_name(SCHEME, spec.config(seed)).expect("double is a built-in scheme");
    engine.apply_batch(&[]);
    if let Some(sink) = sink {
        engine.set_sink(sink);
    }
    engine
}

fn generate(spec: &Spec, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    spec.scenario
        .build(spec.keyspace, seed)
        .fill(&mut ops, spec.ops);
    ops
}

/// Checks every shard's O(1) max-load tracker against a full scan.
fn scan_check(engine: &Engine<AnyScheme>, report: &mut Report, what: &str) -> bool {
    let mut ok = true;
    for shard in engine.shards() {
        let alloc = shard.allocation();
        if alloc.max_load() != alloc.scanned_max_load() {
            report.fail(format!(
                "{what}: shard {} max_load {} != scanned {}",
                shard.id(),
                alloc.max_load(),
                alloc.scanned_max_load()
            ));
            ok = false;
        }
    }
    ok
}

/// Everything one shard's final state is compared on.
#[derive(Debug, PartialEq)]
struct Digest {
    loads: Vec<u32>,
    balls: u64,
    live_keys: usize,
    /// A mix of every live key with its bin stack, in key order.
    keys: u64,
    observed: OpObservations,
}

fn digest<'a>(
    alloc: &Allocation,
    sorted_keys: Vec<u64>,
    bins_of: impl Fn(u64) -> Option<&'a [u64]>,
    observed: &OpObservations,
) -> Digest {
    let mut h = 0u64;
    for &key in &sorted_keys {
        h = ba_rng::SplitMix64::mix(h ^ key);
        for &bin in bins_of(key).unwrap_or(&[]) {
            h = ba_rng::SplitMix64::mix(h ^ bin);
        }
    }
    Digest {
        loads: alloc.loads().to_vec(),
        balls: alloc.balls(),
        live_keys: sorted_keys.len(),
        keys: h,
        observed: observed.clone(),
    }
}

fn shard_digest(shard: &Shard<AnyScheme>) -> Digest {
    digest(
        shard.allocation(),
        shard.live_key_ids(),
        |k| shard.bins_of(k),
        shard.observations(),
    )
}

pub fn run(args: &Args, workload: Workload) -> Report {
    let spec = spec(workload, args.scale);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let ops = generate(&spec, args.seed);
    let (inserts, lookups) = ops.iter().fold((0u64, 0u64), |(i, l), op| match op {
        Op::Insert(_) => (i + 1, l),
        Op::Lookup(_) => (i, l + 1),
        Op::Delete(_) => (i, l),
    });
    report.lines.push(format!(
        "{}: shards={} bins/shard={} d={} keyed={} ops/episode={} (inserts={} lookups={}) batch={} sink={}",
        workload.name(),
        spec.shards,
        spec.bins,
        spec.d,
        spec.keyed,
        ops.len(),
        inserts,
        lookups,
        spec.batch,
        spec.sink
    ));
    let bytes = Arc::new(AtomicU64::new(0));
    let sink = || {
        spec.sink
            .then(|| Box::new(exporter(&bytes)) as Box<dyn MetricsSink + Send>)
    };

    // Measured first, while the heap holds no freed memory it could
    // reuse without the resident set growing.
    let index_rss = if args.trace {
        index_rss_mib(&spec, args.seed, &ops)
    } else {
        0.0
    };
    let mut setup = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut unit_us = Vec::new();
    let mut rates = Vec::new();
    let mut episodes = Vec::new();
    let mut max_load = 0;
    let mut peak_rss = 0.0;
    let mut episode_p99 = Vec::new();
    // A traced run serves untraced for a quarter of its time, for the
    // overhead ratio.
    let untraced_budget = if args.trace { budget / 4 } else { budget };
    while episodes.is_empty() || start.elapsed() < untraced_budget {
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let engine = build(&spec, args.seed, sink());
            setup.push(secs(t.elapsed()));
            drop(engine);
        }
        let t = Instant::now();
        let mut engine = build(&spec, args.seed, sink());
        setup.push(secs(t.elapsed()));
        let t0 = Instant::now();
        let mut served = ba_engine::BatchSummary::default();
        for chunk in ops.chunks(spec.batch) {
            let t = Instant::now();
            served.absorb(&engine.apply_batch(chunk));
            unit_us.push(micros(t.elapsed()));
        }
        rates.push(ops.len() as f64 / secs(t0.elapsed()));
        // The tail is taken per episode: every episode serves the same
        // stream, so its p99 lands on the same batches (index growth on
        // serve-insert), and the median over episodes keeps a burst of
        // host noise in one episode from moving it.
        let mut episode = unit_us[unit_us.len() - ops.len().div_ceil(spec.batch)..].to_vec();
        episode_p99.push(percentile(&mut episode, 99.0));
        engine.take_sink();
        let scanned = scan_check(&engine, &mut report, "engine");
        let counts_ok = served.inserts == inserts && served.lookups == lookups;
        if !counts_ok {
            report.fail(format!(
                "served {} inserts / {} lookups, expected {inserts} / {lookups}",
                served.inserts, served.lookups
            ));
        }
        max_load = engine.max_load();
        if episodes.is_empty() {
            // Later episodes only reuse the first one's memory; reading
            // the peak here keeps it independent of how many fit.
            peak_rss = peak_rss_mib();
        }
        episodes.push((engine.stats(), scanned && counts_ok));
        drop(engine);
    }
    report
        .detail
        .push(("episode_rates".to_string(), crate::util::spread(&mut rates)));
    let untraced_ops_per_s = median(&mut rates);

    if args.trace {
        let mut tracer = Tracer::new(Instant::now(), crate::SPAN_CAP);
        let untraced = &episodes[0].0;
        for (stats, ok) in &episodes {
            report.attempted += ops.len() as u64;
            if !(*ok && stats.matches(untraced)) {
                report.fail("untraced episodes ended in different states".to_string());
                report.failed += ops.len() as u64;
            }
        }
        report.metric("engine.build_ms", median(&mut setup) * 1e3, "ms");
        traced(
            args,
            &spec,
            &ops,
            untraced,
            &mut tracer,
            &mut report,
            start + budget,
            index_rss,
        );
        report.metric("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s");
        for (name, unit) in crate::PAPER_LAYERS {
            report.metric(name, 0.0, unit);
        }
        crate::finish_trace(args, &tracer, &mut report);
    } else {
        let twin = twin_stats(&spec, args.seed, &ops, &mut report);
        for (stats, ok) in &episodes {
            report.attempted += ops.len() as u64;
            let same = stats.matches(&twin);
            if !same {
                report.fail(format!(
                    "engine state differs from the other worker mode's twin: {:?}",
                    stats.divergences(&twin).first()
                ));
            }
            if !(same && *ok) {
                report.failed += ops.len() as u64;
            }
        }
        let batches = ops.len().div_ceil(spec.batch);
        let calm = calm_tenth(&unit_us, batches, ops.len() as f64 / batches as f64);
        report.metric("setup_s", median(&mut setup), "s");
        report.metric("ops_per_s", calm.ops_per_s, "1/s");
        report.metric("unit_p50_us", calm.p50_us, "us");
        report.detail.push((
            "calm_windows".to_string(),
            format!(
                "{} of {} episodes, {} batches",
                calm.kept, calm.windows, calm.samples
            ),
        ));
        report.detail.push((
            "unit_p99_us".to_string(),
            median(&mut episode_p99).to_string(),
        ));
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.metric("max_load", f64::from(max_load), "balls");
    }
    report
        .detail
        .push(("episodes".to_string(), episodes.len().to_string()));
    report
        .detail
        .push(("unit_samples".to_string(), unit_us.len().to_string()));
    report
        .detail
        .push(("setup_samples".to_string(), setup.len().to_string()));
    report.detail.push((
        "sink_bytes".to_string(),
        bytes.load(Ordering::Relaxed).to_string(),
    ));
    report
}

/// Serves the same ops, untimed, through a twin in the other worker
/// mode: a sequential twin for the worker pool, a worker-pool twin for
/// the sequential engine.
fn twin_stats(spec: &Spec, seed: u64, ops: &[Op], report: &mut Report) -> EngineStats {
    let other = match spec.workers {
        WorkerMode::Sequential => WorkerMode::Persistent,
        _ => WorkerMode::Sequential,
    };
    let mut twin = Engine::by_name(SCHEME, spec.config(seed).workers(other))
        .expect("double is a built-in scheme");
    for chunk in ops.chunks(spec.batch) {
        twin.apply_batch(chunk);
    }
    scan_check(&twin, report, &format!("{other:?} twin"));
    twin.stats()
}

/// Totals over every traced pass; the per-layer metrics divide them.
#[derive(Default)]
struct Totals {
    /// Ops and batches the engine served in pass A.
    ops: u64,
    batches: u64,
    /// Σ over batches of (largest slice × shards / batch length).
    skew: f64,
    /// Σ over batches of `apply_batch` time minus sink time (pass A), and
    /// of the critical path and of all `Shard::apply` calls on the same
    /// batch's slices (pass B). The critical path is the slowest call
    /// when the shards run in parallel and their sum when they run one
    /// after another.
    served_ns: f64,
    critical_ns: f64,
    busy_ns: f64,
    sink_bytes: u64,
    /// Inserts and lookups replayed in pass B.
    inserts: u64,
    lookups: u64,
    /// The replayed indexes' final size.
    keys: u64,
    balls: u64,
    /// Pass-B replays whose recomposed state equalled the engine's.
    recomposed: u64,
    passes: u64,
}

fn traced(
    args: &Args,
    spec: &Spec,
    ops: &[Op],
    untraced: &EngineStats,
    tracer: &mut Tracer,
    report: &mut Report,
    deadline: Instant,
    index_rss: f64,
) {
    let mut t = Totals::default();
    while t.batches == 0 || Instant::now() < deadline {
        let (digests, served) = pass_a(spec, args.seed, ops, untraced, tracer, &mut t, report);
        pass_b(
            spec, args.seed, ops, &served, &digests, tracer, &mut t, report,
        );
    }
    report.lines.push(format!(
        "recomposition check: {} of {} replays equal the engine's shards",
        t.recomposed, t.passes
    ));
    report.detail.push((
        "recomposition_passed".to_string(),
        (t.recomposed == t.passes).to_string(),
    ));
    let per_op = |name: &str| ratio(tracer.total_ns(name), t.ops as f64);
    let per_insert = |name: &str| ratio(tracer.total_ns(name), t.inserts as f64);
    let m = report;
    m.metric("engine.route_ns_per_op", per_op("engine.route"), "ns");
    m.metric(
        "engine.shard_skew",
        ratio(t.skew, t.batches as f64),
        "ratio",
    );
    m.metric(
        "engine.handoff_us_per_batch",
        ratio(t.served_ns - t.critical_ns, t.batches as f64) / 1e3,
        "us",
    );
    m.metric(
        "engine.idle_share",
        1.0 - ratio(t.busy_ns, spec.lanes() as f64 * t.served_ns),
        "share",
    );
    let apply = per_op("shard.apply");
    m.metric("shard.apply_ns_per_op", apply, "ns");
    // The pieces on the state path; `hash.stream` is a side measurement
    // already inside `core.fill_place`.
    let pieces: f64 = [
        "hash.batch",
        "core.place",
        "core.fill_place",
        "index.push",
        "index.depth",
        "metrics.record",
    ]
    .iter()
    .map(|name| per_op(name))
    .sum();
    m.metric(
        "shard.unattributed_share",
        1.0 - ratio(pieces, apply),
        "share",
    );
    m.metric("hash.batch_ns_per_key", per_insert("hash.batch"), "ns");
    m.metric("hash.stream_ns_per_ball", per_insert("hash.stream"), "ns");
    m.metric(
        "core.place_ns_per_ball",
        per_insert("core.place") + per_insert("core.fill_place") - per_insert("hash.stream"),
        "ns",
    );
    m.metric("index.push_ns", per_insert("index.push"), "ns");
    m.metric(
        "index.depth_ns",
        ratio(tracer.total_ns("index.depth"), t.lookups as f64),
        "ns",
    );
    m.metric("index.rss_mb", index_rss, "MiB");
    m.metric("index.keys", t.keys as f64, "count");
    m.metric(
        "index.mean_depth",
        ratio(t.balls as f64, t.keys as f64),
        "balls",
    );
    m.metric("metrics.record_ns_per_op", per_op("metrics.record"), "ns");
    m.metric(
        "sink.record_ns_per_batch",
        ratio(tracer.total_ns("sink.record"), t.batches as f64),
        "ns",
    );
    m.metric(
        "sink.bytes_per_batch",
        ratio(t.sink_bytes as f64, t.batches as f64),
        "bytes",
    );
    m.metric(
        "trace.traced_ops_per_s",
        ratio(t.ops as f64, tracer.total_ns("engine.apply_batch") / 1e9),
        "1/s",
    );
}

/// Pass A: the real engine, with routing timed beside it. Returns the
/// engine's per-shard digests and each batch's serving time (apply
/// minus sink).
fn pass_a(
    spec: &Spec,
    seed: u64,
    ops: &[Op],
    untraced: &EngineStats,
    tracer: &mut Tracer,
    t: &mut Totals,
    report: &mut Report,
) -> (Vec<Digest>, Vec<u64>) {
    let bytes = Arc::new(AtomicU64::new(0));
    let calls = Arc::new(Mutex::new(Vec::new()));
    let sink = spec.sink.then(|| {
        Box::new(TimedSink {
            inner: exporter(&bytes),
            base: tracer.base(),
            calls: Arc::clone(&calls),
        }) as Box<dyn MetricsSink + Send>
    });
    let mut engine = build(spec, seed, sink);
    let mut slices: Vec<Vec<Op>> = vec![Vec::with_capacity(spec.batch); spec.shards];
    let mut served = Vec::with_capacity(ops.len().div_ceil(spec.batch));
    for (i, chunk) in ops.chunks(spec.batch).enumerate() {
        let unit = i as u64;
        let root = tracer.push("serve.unit", tracer.now(), 0, ROOT, unit, 0);
        let start = tracer.now();
        engine.apply_batch(chunk);
        let end = tracer.now();
        let apply = tracer.push("engine.apply_batch", start, end, root, unit, 0);
        let mut sink_ns = 0;
        for (s, e) in calls.lock().expect("sink call log poisoned").drain(..) {
            tracer.push("sink.record", s, e, apply, unit, 0);
            sink_ns += e - s;
        }
        served.push(end - start - sink_ns);

        let start = tracer.now();
        route_into(chunk, &mut slices);
        tracer.push("engine.route", start, tracer.now(), root, unit, 0);
        let largest = slices.iter().map(Vec::len).max().unwrap_or(0);
        t.skew += (largest * spec.shards) as f64 / chunk.len() as f64;
        tracer.set_end(root, tracer.now());
        tracer.finish_unit();
    }
    engine.take_sink();
    t.sink_bytes += bytes.load(Ordering::Relaxed);
    t.ops += ops.len() as u64;
    t.batches += served.len() as u64;
    report.attempted += ops.len() as u64;
    let mut ok = scan_check(&engine, report, "traced engine");
    if !engine.stats().matches(untraced) {
        report.fail("traced engine state differs from the untraced episode's".to_string());
        ok = false;
    }
    if !ok {
        report.failed += ops.len() as u64;
    }
    let digests = engine.shards().into_iter().map(shard_digest).collect();
    (digests, served)
}

/// RSS growth from building one standalone `KeyIndex` per shard over the
/// workload's inserts. The bins pushed are placeholders: an index's
/// memory depends on its keys and stack depths, not on bin numbers.
fn index_rss_mib(spec: &Spec, seed: u64, ops: &[Op]) -> f64 {
    let config = spec.config(seed);
    let salts: Vec<u64> = (0..spec.shards)
        .map(|id| Shard::new(id, spec.scheme(), &config).salt())
        .collect();
    let before = rss_mib();
    let mut indexes: Vec<KeyIndex> = salts.into_iter().map(KeyIndex::with_seed).collect();
    for op in ops {
        if let Op::Insert(key) = *op {
            indexes[route(key, spec.shards)].push(key, 0);
        }
    }
    let grown = rss_mib() - before;
    black_box(&indexes);
    grown
}

/// Splits a batch into per-shard slices, in arrival order, the way the
/// engine partitions it.
fn route_into(chunk: &[Op], slices: &mut [Vec<Op>]) {
    for slice in slices.iter_mut() {
        slice.clear();
    }
    for &op in chunk {
        slices[route(op.key(), slices.len())].push(op);
    }
}

/// One shard rebuilt from its parts: the same scheme, seed stream, salt
/// and tie rule as the engine's shard.
struct Replica {
    scheme: AnyScheme,
    alloc: Allocation,
    rng: AnyRng,
    tie: TieBreak,
    keyed: bool,
    salt: u64,
    index: KeyIndex,
    observed: OpObservations,
    keys: Vec<u64>,
    /// `(key, inserts before it in the slice)` per lookup.
    lookups: Vec<(u64, usize)>,
    matrix: Vec<u64>,
    choices: Vec<u64>,
    /// `(bin, probe, load after placing)` per insert.
    placed: Vec<(u64, u32, u32)>,
    depths: Vec<u32>,
}

impl Replica {
    fn new(id: usize, spec: &Spec, config: &EngineConfig) -> Self {
        let scheme = spec.scheme();
        let salt = Shard::new(id, scheme.clone(), config).salt();
        Self {
            alloc: Allocation::new(scheme.n()),
            rng: SeedSequence::new(config.seed)
                .child(id as u64)
                .any_rng(config.rng),
            tie: config.tie,
            keyed: spec.keyed,
            salt,
            index: KeyIndex::with_seed(salt),
            observed: OpObservations::default(),
            keys: Vec::new(),
            lookups: Vec::new(),
            matrix: Vec::new(),
            choices: vec![0; scheme.d()],
            placed: Vec::new(),
            depths: Vec::new(),
            scheme,
        }
    }

    /// Replays one routed slice, one span per piece.
    fn replay(&mut self, slice: &[Op], tracer: &mut Tracer, parent: u32, unit: u64, lane: u32) {
        self.keys.clear();
        self.lookups.clear();
        self.placed.clear();
        self.depths.clear();
        for op in slice {
            match *op {
                Op::Insert(k) => self.keys.push(k),
                Op::Lookup(k) => self.lookups.push((k, self.keys.len())),
                Op::Delete(_) => unreachable!("no benchmark workload deletes"),
            }
        }
        let d = self.scheme.d();
        let span = |tracer: &mut Tracer, name: &'static str, start: u64| {
            tracer.push(name, start, tracer.now(), parent, unit, lane);
        };

        if self.keyed {
            // Keyed choices consume no randomness, so they can all be
            // derived before any placement without changing a draw.
            let t = tracer.now();
            self.matrix.resize(self.keys.len() * d, 0);
            for (keys, rows) in self
                .keys
                .chunks(INSERT_RUN_CHUNK)
                .zip(self.matrix.chunks_mut(INSERT_RUN_CHUNK * d))
            {
                self.scheme.choices_for_batch(keys, self.salt, rows);
            }
            span(tracer, "hash.batch", t);
            let t = tracer.now();
            for row in self.matrix.chunks_exact(d) {
                let (bin, probe) = self.alloc.place_indexed(row, self.tie, &mut self.rng);
                self.placed.push((bin, probe, self.alloc.load(bin)));
            }
            span(tracer, "core.place", t);
        } else {
            // Stream choices and random tie-breaks share one stream, so
            // choice generation cannot be split from placement without
            // changing the draws. It is timed alone on a copy of the
            // stream; `core.place` is `core.fill_place` minus that.
            let t = tracer.now();
            let mut copy = self.rng.clone();
            for &key in &self.keys {
                ChoiceSource::Stream.fill(&self.scheme, key, &mut copy, &mut self.choices);
                black_box(&mut self.choices);
            }
            span(tracer, "hash.stream", t);
            let t = tracer.now();
            for &key in &self.keys {
                ChoiceSource::Stream.fill(&self.scheme, key, &mut self.rng, &mut self.choices);
                let (bin, probe) = self
                    .alloc
                    .place_indexed(&self.choices, self.tie, &mut self.rng);
                self.placed.push((bin, probe, self.alloc.load(bin)));
            }
            span(tracer, "core.fill_place", t);
        }

        let t = tracer.now();
        for (&key, &(bin, _, _)) in self.keys.iter().zip(&self.placed) {
            self.index.push(key, bin);
        }
        span(tracer, "index.push", t);

        if !self.lookups.is_empty() {
            let t = tracer.now();
            for &(key, _) in &self.lookups {
                self.depths.push(self.index.depth(key) as u32);
            }
            span(tracer, "index.depth", t);
            // The depths above see the whole slice's pushes; a lookup
            // saw only the pushes before it. Untimed bookkeeping.
            let mut later: HashMap<u64, u32> = HashMap::new();
            let mut next_insert = self.keys.len();
            for (j, &(key, before)) in self.lookups.iter().enumerate().rev() {
                while next_insert > before {
                    next_insert -= 1;
                    *later.entry(self.keys[next_insert]).or_default() += 1;
                }
                self.depths[j] -= later.get(&key).copied().unwrap_or(0);
            }
        }

        let t = tracer.now();
        for &(_, probe, load) in &self.placed {
            self.observed.insert_load.record(load);
            self.observed.insert_probe.record(probe);
        }
        for &depth in &self.depths {
            self.observed.lookup_depth.record(depth);
        }
        span(tracer, "metrics.record", t);
    }

    fn digest(&self) -> Digest {
        digest(
            &self.alloc,
            self.index.sorted_keys(),
            |k| self.index.get(k),
            &self.observed,
        )
    }
}

/// Pass B: each shard's slices applied to a standalone `Shard` built
/// from the engine's config, then all of them replayed through the
/// pieces of `Shard::apply`; both must end in the engine's state from
/// pass A.
#[allow(clippy::too_many_arguments)]
fn pass_b(
    spec: &Spec,
    seed: u64,
    ops: &[Op],
    served: &[u64],
    engine: &[Digest],
    tracer: &mut Tracer,
    t: &mut Totals,
    report: &mut Report,
) {
    let config = spec.config(seed);
    let mut shards: Vec<Shard<AnyScheme>> = (0..spec.shards)
        .map(|id| Shard::new(id, spec.scheme(), &config))
        .collect();
    let mut replicas: Vec<Replica> = (0..spec.shards)
        .map(|id| Replica::new(id, spec, &config))
        .collect();
    let mut slices: Vec<Vec<Op>> = vec![Vec::with_capacity(spec.batch); spec.shards];
    // The standalone shards first, over the whole stream, then the
    // replicas: interleaving them batch by batch would make each
    // `Shard::apply` start with the replicas' data in its caches, which
    // the engine never does.
    for ((i, chunk), &batch_ns) in ops.chunks(spec.batch).enumerate().zip(served) {
        let unit = i as u64;
        let root = tracer.push("replay.unit", tracer.now(), 0, ROOT, unit, 0);
        route_into(chunk, &mut slices);
        let (mut slowest, mut sum) = (0, 0);
        for (id, slice) in slices.iter().enumerate() {
            let start = tracer.now();
            shards[id].apply(slice);
            let end = tracer.now();
            tracer.push("shard.apply", start, end, root, unit, id as u32);
            slowest = slowest.max(end - start);
            sum += end - start;
        }
        t.served_ns += batch_ns as f64;
        t.busy_ns += sum as f64;
        t.critical_ns += if spec.lanes() == 1 { sum } else { slowest } as f64;
        tracer.set_end(root, tracer.now());
        tracer.finish_unit();
    }
    for (i, chunk) in ops.chunks(spec.batch).enumerate() {
        let unit = i as u64;
        let root = tracer.push("recompose.unit", tracer.now(), 0, ROOT, unit, 0);
        route_into(chunk, &mut slices);
        for (id, slice) in slices.iter().enumerate() {
            let lane = id as u32;
            let replay = tracer.push("shard.replay", tracer.now(), 0, root, unit, lane);
            replicas[id].replay(slice, tracer, replay, unit, lane);
            tracer.set_end(replay, tracer.now());
        }
        tracer.set_end(root, tracer.now());
        tracer.finish_unit();
    }
    t.inserts += replicas.iter().map(|r| r.alloc.balls()).sum::<u64>();
    t.lookups += replicas
        .iter()
        .map(|r| r.observed.lookup_depth.count())
        .sum::<u64>();
    t.keys = replicas.iter().map(|r| r.index.len() as u64).sum();
    t.balls = replicas.iter().map(|r| r.alloc.balls()).sum();

    report.attempted += ops.len() as u64;
    let mut ok = true;
    for (id, want) in engine.iter().enumerate() {
        if shard_digest(&shards[id]) != *want {
            report.fail(format!(
                "standalone shard {id} fed the routed slices differs from the engine's"
            ));
            ok = false;
        }
        if replicas[id].digest() != *want {
            report.fail(format!(
                "shard {id} recomposed from its parts differs from the engine's"
            ));
            ok = false;
        }
    }
    t.passes += 1;
    if ok {
        t.recomposed += 1;
    } else {
        report.failed += ops.len() as u64;
    }
}
