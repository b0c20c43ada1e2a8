//! The sharded engine: routing, batched ingestion, parallel application.

use crate::metrics::{EngineStats, ShardStats};
use crate::op::{BatchSummary, Op};
use crate::rounds::{tie_hash, Proposal, RoundReport, RoundsState};
use crate::shard::Shard;
use crate::sink::{MetricRecord, MetricsSink};
use crate::spsc;
use ba_core::TieBreak;
use ba_hash::{AnyScheme, ChoiceScheme};
use ba_rng::RngKind;
use std::fmt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How shards obtain each ball's choice vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChoiceMode {
    /// Fresh choices from the shard's RNG stream per insert — the paper's
    /// process model. Re-inserting a deleted key draws new bins.
    #[default]
    Stream,
    /// Choices derived from `hash(key, shard_salt)` — the hash-table
    /// model. Re-inserting a key replays its exact `f + k·g` probe
    /// sequence; the RNG stream is consumed only by random tie-breaks.
    Keyed,
}

/// How op streams flow from the producer into the shard workers.
///
/// Either mode yields bit-identical shard states, summaries, and
/// [`EngineStats`](crate::EngineStats) percentiles for the same op
/// stream — each shard still applies exactly its routed subsequence in
/// order — so the axis trades only latency/throughput, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IngestMode {
    /// Strictly alternate generate/apply phases: buffer one batch, apply
    /// it across all shards, wait for every shard, repeat. Simple and
    /// allocation-light, but producers idle while workers run and vice
    /// versa.
    #[default]
    Phased,
    /// Overlap production with application: one or more producer stages
    /// partition the op stream and ship per-shard batches into bounded
    /// lock-free SPSC rings (see [`crate::spsc`]) while the persistent
    /// workers apply earlier batches. `queue_depth` caps how many
    /// batches may sit queued per (producer, shard) ring; a full ring
    /// blocks that producer (backpressure) rather than buffering without
    /// limit. With `producers > 1`, chunks of the stream are routed by
    /// producer threads in deterministic round-robin and every shard
    /// worker merges its per-producer rings in (producer, seq) order, so
    /// results stay bit-identical to sequential serving regardless of
    /// producer count or timing.
    Pipelined {
        /// Maximum batches queued per (producer, shard) ring before the
        /// producer blocks. Must be a power of two (ring granularity).
        /// Depth 1 is a strict double-buffer (worker applies batch `k`
        /// while the producer fills `k+1`); larger depths absorb
        /// burstier routing at the cost of memory.
        queue_depth: usize,
        /// Number of producer threads routing the op stream. 1 routes on
        /// the calling thread (no fan-out stage); `N > 1` spawns N
        /// routing threads fed round-robin with stream chunks.
        producers: usize,
    },
    /// Resolve each batch's inserts in synchronized bulk-parallel
    /// rounds over the *global* bin space (see [`crate::rounds`]):
    /// every pending ball proposes its next keyed probe, bins accept
    /// proposals below the round's load threshold in salted-key-hash
    /// tie order, and losers re-propose next round. Deletes and lookups
    /// apply at batch barriers against pre-batch state. Placement is a
    /// pure function of *(batch contents as a multiset, seed)* —
    /// independent of op order within the batch, worker mode, producer
    /// count, and shard count — a strictly stronger determinism
    /// contract than the other modes' bit-identity to sequential
    /// serving. [`ChoiceMode`] and [`ba_core::TieBreak`] are ignored:
    /// probes are always keyed off the rounds salt and ties always
    /// break by key hash.
    Rounds {
        /// Number of threads deriving probe vectors in the propose
        /// step. 1 proposes on the calling thread; `N > 1` splits the
        /// batch's balls into N contiguous chunks, one scoped thread
        /// each. Results never depend on this value.
        producers: usize,
    },
}

/// How batches are applied across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkerMode {
    /// Apply shard by shard on the calling thread — the oracle every
    /// parallel path is checked against.
    Sequential,
    /// Long-lived worker threads, one per shard, spawned on the first
    /// parallel batch and joined when the engine drops. Each batch ships
    /// every shard with work to its own thread and waits for all of them.
    #[default]
    Persistent,
}

/// Configuration for a sharded engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of independent shards.
    pub shards: usize,
    /// Bins per shard table.
    pub bins_per_shard: u64,
    /// Choices per ball within a shard.
    pub d: usize,
    /// Tie-breaking rule used by every shard.
    pub tie: TieBreak,
    /// Master seed; shard `i` uses stream `SeedSequence::new(seed).child(i)`.
    pub seed: u64,
    /// Where choice vectors come from (stream or keyed derivation).
    pub mode: ChoiceMode,
    /// Which generator family drives each shard's stream (the paper's
    /// PRNG ablation, at the engine layer).
    pub rng: RngKind,
    /// How batches are applied across shards. Results are bit-identical
    /// for every mode; only throughput differs.
    pub workers: WorkerMode,
    /// How op streams are ingested: strict generate/apply phases or the
    /// pipelined producer/worker overlap. Results are bit-identical for
    /// either mode; only throughput and memory bounds differ.
    pub ingest: IngestMode,
}

/// A structurally invalid [`EngineConfig`], caught at engine
/// construction — before any ops flow — instead of deep inside a
/// serving call mid-stream. Every variant's message names the builder
/// call that produced the bad value, so the fix is one grep away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `EngineConfig::new` was given zero shards.
    ZeroShards,
    /// Pipelined ingestion was configured with a zero ring depth.
    ZeroQueueDepth,
    /// Pipelined ingestion was configured with a ring depth that is not
    /// a power of two (the SPSC ring's granularity).
    QueueDepthNotPowerOfTwo(usize),
    /// Pipelined ingestion was configured with zero producer threads.
    ZeroProducers,
    /// Rounds ingestion was configured with zero propose threads.
    ZeroRoundsProducers,
    /// A cluster was configured with zero partitions.
    ZeroPartitions,
    /// A cluster ring was configured with zero virtual nodes per node.
    ZeroVnodes,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroShards => {
                write!(f, "EngineConfig::new(0, ..): need at least one shard")
            }
            ConfigError::ZeroQueueDepth => write!(
                f,
                "EngineConfig::pipelined(0) / pipelined_producers(0, ..): \
                 queue depth must be positive"
            ),
            ConfigError::QueueDepthNotPowerOfTwo(depth) => write!(
                f,
                "EngineConfig::pipelined({depth}): queue depth must be a \
                 power of two (SPSC ring granularity)"
            ),
            ConfigError::ZeroProducers => write!(
                f,
                "EngineConfig::pipelined_producers(.., 0): need at least one producer"
            ),
            ConfigError::ZeroRoundsProducers => write!(
                f,
                "EngineConfig::rounds_producers(0): need at least one propose thread"
            ),
            ConfigError::ZeroPartitions => write!(
                f,
                "ClusterConfig::partitions(0): need at least one partition"
            ),
            ConfigError::ZeroVnodes => write!(
                f,
                "ClusterConfig::vnodes(0): need at least one virtual node per node"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// A config with random ties, seed 1, stream choices, the xoshiro
    /// generator, and persistent parallel application.
    pub fn new(shards: usize, bins_per_shard: u64, d: usize) -> Self {
        Self {
            shards,
            bins_per_shard,
            d,
            tie: TieBreak::Random,
            seed: 1,
            mode: ChoiceMode::default(),
            rng: RngKind::default(),
            workers: WorkerMode::default(),
            ingest: IngestMode::default(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tie-breaking rule.
    pub fn tie(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// Sets the choice mode.
    pub fn mode(mut self, mode: ChoiceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects keyed choice derivation (`hash(key, shard_salt)`).
    pub fn keyed(self) -> Self {
        self.mode(ChoiceMode::Keyed)
    }

    /// Sets the generator family for every shard's stream.
    pub fn rng(mut self, rng: RngKind) -> Self {
        self.rng = rng;
        self
    }

    /// Sets the worker mode for batch application.
    pub fn workers(mut self, workers: WorkerMode) -> Self {
        self.workers = workers;
        self
    }

    /// Chooses sequential (deterministic-by-construction) application.
    pub fn sequential(self) -> Self {
        self.workers(WorkerMode::Sequential)
    }

    /// Sets the ingestion mode for [`Engine::serve`]/[`Engine::serve_replay`].
    pub fn ingest(mut self, ingest: IngestMode) -> Self {
        self.ingest = ingest;
        self
    }

    /// Selects pipelined ingestion with the given per-worker queue depth
    /// and a single producer routing on the calling thread
    /// (see [`IngestMode::Pipelined`]).
    pub fn pipelined(self, queue_depth: usize) -> Self {
        self.pipelined_producers(queue_depth, 1)
    }

    /// Selects pipelined ingestion with `producers` routing threads and
    /// the given per-(producer, shard) ring depth
    /// (see [`IngestMode::Pipelined`]).
    pub fn pipelined_producers(self, queue_depth: usize, producers: usize) -> Self {
        self.ingest(IngestMode::Pipelined {
            queue_depth,
            producers,
        })
    }

    /// Selects round-based bulk-parallel ingestion with probe
    /// derivation on the calling thread (see [`IngestMode::Rounds`]).
    pub fn rounds(self) -> Self {
        self.rounds_producers(1)
    }

    /// Selects round-based bulk-parallel ingestion with `producers`
    /// propose threads (see [`IngestMode::Rounds`]). Results never
    /// depend on the thread count.
    pub fn rounds_producers(self, producers: usize) -> Self {
        self.ingest(IngestMode::Rounds { producers })
    }

    /// Checks the config's structural invariants, returning the first
    /// violation. Engine constructors
    /// ([`Engine::with_scheme_factory`]/[`Engine::by_name`]) call this and
    /// panic with the error's message, so an `EngineConfig::pipelined(3)`
    /// fails when the engine is built — naming the offending builder call
    /// — rather than deep inside `serve_pipelined_producers` mid-run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if let IngestMode::Pipelined {
            queue_depth,
            producers,
        } = self.ingest
        {
            check_pipeline(queue_depth, producers)?;
        }
        if let IngestMode::Rounds { producers } = self.ingest {
            if producers == 0 {
                return Err(ConfigError::ZeroRoundsProducers);
            }
        }
        Ok(())
    }
}

/// Checks the pipelined-ingestion arguments: the one check behind both
/// [`EngineConfig::validate`] and [`Engine::serve_pipelined_producers`].
fn check_pipeline(queue_depth: usize, producers: usize) -> Result<(), ConfigError> {
    if queue_depth == 0 {
        return Err(ConfigError::ZeroQueueDepth);
    }
    if !queue_depth.is_power_of_two() {
        return Err(ConfigError::QueueDepthNotPowerOfTwo(queue_depth));
    }
    if producers == 0 {
        return Err(ConfigError::ZeroProducers);
    }
    Ok(())
}

/// Routes a key to a shard: SplitMix64 finalizer, then a multiply-shift
/// range reduction. Stable across runs — the route is part of the engine's
/// deterministic contract.
#[inline]
pub fn route(key: u64, shards: usize) -> usize {
    let mixed = ba_rng::SplitMix64::mix(key ^ 0x9E6C_63D0_876A_3F6B);
    ((mixed as u128 * shards as u128) >> 64) as usize
}

/// One shipped unit on the pipelined hot path: the ops a producer routed
/// to one shard from one stream chunk, stamped with that chunk's index.
/// Chunk `k` is routed by producer `k % N`, so the worker's round-robin
/// receive replays chunks in stream order.
struct Batch {
    seq: u64,
    ops: Vec<Op>,
}

/// Work for one pool thread: a closure that owns everything it touches
/// — a shard shipped *by value* (a shallow move of the struct, not a
/// deep copy of its bin table and key index), that shard's input, and a
/// reply sender — so between calls the engine keeps full ownership (and
/// `&`-access) to every shard.
type Task = Box<dyn FnOnce() + Send>;

/// The persistent worker pool: one long-lived thread per shard, each
/// running the [`Task`]s sent down its own queue (see
/// [`Engine::on_shards`]). A task that panics ends its thread; the
/// engine sees that as a reply that never comes, or — on a later call —
/// as a queue that refuses the next task. Dropping the pool closes every
/// queue (each thread's `recv` then errors and the thread exits) and
/// joins every handle: graceful shutdown without flags or timeouts.
struct WorkerPool {
    queues: Vec<mpsc::Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(shards: usize) -> Self {
        let (queues, handles) = (0..shards)
            .map(|id| {
                let (tx, rx) = mpsc::channel::<Task>();
                let handle = std::thread::Builder::new()
                    .name(format!("ba-shard-{id}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task();
                        }
                    })
                    .expect("spawn shard worker thread");
                (tx, handle)
            })
            .unzip();
        Self { queues, handles }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect every queue; workers finish their task and exit.
        self.queues.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A shard worker's side of a pipelined stream: apply batches as the
/// producers ship them into this shard's SPSC rings (one per producer)
/// until the stream ends, returning each drained op buffer through
/// `recycle` to the producer that filled it. Returns the stream's
/// summary and — when `track` is set, i.e. a sink is attached — each
/// batch's apply latency in receive order, which the engine joins with
/// the producer-side ship records.
fn drain_stream<S: ChoiceScheme>(
    shard: &mut Shard<S>,
    batches: &[spsc::RingConsumer<Batch>],
    recycle: &[mpsc::Sender<Vec<Op>>],
    track: bool,
) -> (BatchSummary, Vec<Duration>) {
    let mut summary = BatchSummary::default();
    let mut applies = Vec::new();
    // Deterministic cross-producer merge: chunk `k` of the stream was
    // routed by producer `k % producers` and shipped with `seq = k`
    // (producers ship one batch per chunk per shard, empty ones
    // included), so receiving in strict round-robin replays this shard's
    // ops in stream order. A disconnect at the ring whose turn it is
    // proves no later chunk exists anywhere — producers ship their
    // chunks in order before exiting — so the whole stream has drained.
    let mut chunk = 0usize;
    loop {
        let p = chunk % batches.len();
        let Ok(Batch { seq, mut ops }) = batches[p].recv() else {
            break;
        };
        debug_assert_eq!(seq as usize, chunk, "cross-producer merge out of order");
        if track {
            let t0 = Instant::now();
            summary.absorb(&shard.apply(&ops));
            applies.push(t0.elapsed());
        } else {
            summary.absorb(&shard.apply(&ops));
        }
        ops.clear();
        // A recycle error means the producer is gone (it panicked);
        // keep draining so the stream still ends cleanly.
        let _ = recycle[p].send(ops);
        chunk += 1;
    }
    (summary, applies)
}

/// A sharded, concurrently-served balanced-allocation engine.
///
/// Every shard runs the paper's "least loaded of d choices" placement over
/// its own bin table, with choices produced by its own copy of a
/// [`ChoiceScheme`] — drawn from the shard's private RNG stream
/// ([`ChoiceMode::Stream`]) or derived from each key
/// ([`ChoiceMode::Keyed`]). Batches of [`Op`]s are partitioned by
/// [`route`] and applied to all shards — by one long-lived worker thread
/// per shard under [`WorkerMode::Persistent`] — and each shard's outcome
/// depends only on its own ordered op subsequence, so the engine's final
/// state is bit-identical between sequential and parallel application and
/// across any number of worker threads.
pub struct Engine<S> {
    config: EngineConfig,
    /// `None` only transiently while a shard is out with a worker during
    /// a persistent parallel batch; always `Some` between public calls.
    shards: Vec<Option<Shard<S>>>,
    pool: Option<WorkerPool>,
    /// Per-shard partition buffers, reused across batches so the hot path
    /// never allocates a fresh `Vec<Vec<Op>>`. Under persistent workers
    /// the buffers travel to the workers with their shard and ride home
    /// with the replies — the engine and the workers alternate ownership
    /// without either side ever reallocating.
    scratch: Vec<Vec<Op>>,
    /// Reusable chunking buffer for [`Engine::serve_replay`], kept across
    /// calls so repeated serving allocates nothing after warm-up.
    replay_buf: Vec<Op>,
    /// Drained pipeline batch buffers reclaimed at the end of each
    /// [`Engine::serve_pipelined`] call, so repeated short streams reuse
    /// their buffers across calls just like phased serving reuses
    /// `scratch`.
    spare_buffers: Vec<Vec<Op>>,
    /// Optional per-batch metrics consumer (see [`Engine::set_sink`]).
    /// Sinks observe, never steer: no sink call can change what the
    /// engine allocates, so results stay bit-identical with or without
    /// one attached.
    sink: Option<Box<dyn MetricsSink + Send>>,
    /// Construction instant — the monotonic anchor every
    /// [`MetricRecord::at`] offset is measured from.
    started: Instant,
    /// Records emitted so far; the next record's sequence number.
    emitted: u64,
    /// Non-fatal configuration hazards noticed while serving (e.g. a
    /// pipelined `batch_size` smaller than the shard count, which clamps
    /// every per-shard batch to one op). Results stay correct; drain via
    /// [`Engine::take_warnings`].
    warnings: Vec<String>,
    /// Rounds-mode companion state (global scheme, salt, key index,
    /// report). `Some` exactly when the config's ingest mode is
    /// [`IngestMode::Rounds`].
    rounds: Option<RoundsState<S>>,
}

impl<S: fmt::Debug> fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("shards", &self.shards)
            .field("pool", &self.pool)
            .field("sink", &self.sink.is_some())
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

/// Counts the op kinds in a batch — the record's pre-apply op mix.
fn op_mix(ops: &[Op]) -> (u32, u32, u32) {
    let (mut inserts, mut deletes, mut lookups) = (0u32, 0u32, 0u32);
    for op in ops {
        match op {
            Op::Insert(_) => inserts += 1,
            Op::Delete(_) => deletes += 1,
            Op::Lookup(_) => lookups += 1,
        }
    }
    (inserts, deletes, lookups)
}

/// Producer-side half of a pipelined batch measurement: everything known
/// at ship time, joined with the worker-side apply latency at stream end.
/// `(shard, chunk)` addresses the matching apply sample: every chunk
/// ships one batch per shard, so the chunk index equals the worker's
/// receive index for that shard.
struct PendingShip {
    at: Duration,
    shard: usize,
    chunk: u64,
    producer: u32,
    routed: Duration,
    ops: u32,
    inserts: u32,
    deletes: u32,
    lookups: u32,
    stalls: u32,
    stalled: Duration,
    occupancy: u32,
}

/// Grabs a cleared op buffer with room for `capacity` ops: the
/// `recycled` one if a worker handed one back, a retained spare
/// otherwise, a fresh allocation only during warm-up.
fn grab_buffer(recycled: Option<Vec<Op>>, spare: &mut Vec<Vec<Op>>, capacity: usize) -> Vec<Op> {
    let mut buf = recycled.or_else(|| spare.pop()).unwrap_or_default();
    buf.clear();
    buf.reserve(capacity);
    buf
}

/// Cuts `ops` into chunks of `chunk_size` ops, collected in `buf`, and
/// hands chunk `k` to `ship(k, buf)`, which must leave `buf` empty. The
/// last chunk may be short; an empty stream ships nothing. Stops early
/// when `ship` returns `false`.
fn feed_chunks(
    ops: impl IntoIterator<Item = Op>,
    buf: &mut Vec<Op>,
    chunk_size: usize,
    mut ship: impl FnMut(u64, &mut Vec<Op>) -> bool,
) {
    let mut chunk = 0u64;
    for op in ops {
        buf.push(op);
        if buf.len() == chunk_size {
            if !ship(chunk, buf) {
                return;
            }
            chunk += 1;
        }
    }
    if !buf.is_empty() {
        ship(chunk, buf);
    }
}

/// One producer's routing stage under
/// [`Engine::serve_pipelined_producers`]: routes each stream chunk it is
/// given into per-shard buffers and ships one [`Batch`] per shard per
/// chunk — empty ones included, so every worker's round-robin merge
/// stays aligned with the chunk index. The calling thread drives the only
/// router inline when there is one producer; with N, producer thread `p`
/// drives router `p` over chunks `k ≡ p (mod N)`.
struct Router {
    producer: u32,
    rings: Vec<spsc::RingProducer<Batch>>,
    recycle: mpsc::Receiver<Vec<Op>>,
    filling: Vec<Vec<Op>>,
    spare: Vec<Vec<Op>>,
    pending: Vec<PendingShip>,
    batch_size: usize,
    started: Instant,
    track: bool,
}

impl Router {
    /// Routes chunk `chunk` of the stream (never empty, see
    /// [`feed_chunks`]) and ships its per-shard batches. Returns `false`
    /// once a shard's worker has died: the caller stops routing, and the
    /// engine's reply collection names the dead shard.
    fn route(&mut self, chunk: u64, ops: &[Op]) -> bool {
        let shards = self.rings.len();
        let route_t0 = self.track.then(Instant::now);
        for &op in ops {
            self.filling[route(op.key(), shards)].push(op);
        }
        // Routing cost for the whole chunk; attributed to shipped
        // batches below, proportionally to their share of the chunk.
        let routed_chunk = route_t0.map(|t| t.elapsed()).unwrap_or_default();
        for (s, ring) in self.rings.iter().enumerate() {
            let recycled = self.recycle.try_recv().ok();
            let next = grab_buffer(recycled, &mut self.spare, self.batch_size);
            let full = std::mem::replace(&mut self.filling[s], next);
            let batch_ops = full.len();
            let mix = self.track.then(|| op_mix(&full));
            let Ok(stalled) = ring.send_tracked(Batch {
                seq: chunk,
                ops: full,
            }) else {
                return false;
            };
            let Some((inserts, deletes, lookups)) = mix else {
                continue;
            };
            let routed = routed_chunk.mul_f64(batch_ops as f64 / ops.len() as f64);
            self.pending.push(PendingShip {
                at: self.started.elapsed(),
                shard: s,
                chunk,
                producer: self.producer,
                routed,
                ops: batch_ops as u32,
                inserts,
                deletes,
                lookups,
                stalls: u32::from(stalled > Duration::ZERO),
                stalled,
                occupancy: ring.queued() as u32,
            });
        }
        true
    }

    /// Ends this producer's share of the stream: dropping its rings
    /// disconnects the workers from it. What is left — ship records,
    /// recycle receiver, buffers — goes back to the engine.
    fn finish(mut self) -> Self {
        self.rings.clear();
        self
    }
}

impl Engine<AnyScheme> {
    /// Builds an engine whose shards run the named scheme
    /// (see [`AnyScheme::by_name`]). Returns `None` for an unknown name.
    pub fn by_name(name: &str, config: EngineConfig) -> Option<Self> {
        // Probe once so an unknown name fails before any shard is built.
        AnyScheme::by_name(name, config.bins_per_shard, config.d)?;
        Some(Self::with_scheme_factory(config, |cfg| {
            AnyScheme::by_name(name, cfg.bins_per_shard, cfg.d).expect("probed above")
        }))
    }
}

impl<S: ChoiceScheme + 'static> Engine<S> {
    /// Builds an engine, constructing one scheme per shard via `factory`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`]'s message — which names the
    /// offending builder call — if the config fails
    /// [`EngineConfig::validate`], so a bad pipeline depth or producer
    /// count is rejected here rather than mid-serve.
    pub fn with_scheme_factory(config: EngineConfig, factory: impl Fn(&EngineConfig) -> S) -> Self {
        if let Err(err) = config.validate() {
            panic!("invalid EngineConfig: {err}");
        }
        let shards = (0..config.shards)
            .map(|id| Some(Shard::new(id, factory(&config), &config)))
            .collect();
        // Rounds mode places over the global bin space: build one extra
        // scheme spanning every shard's bins by handing the factory a
        // synthetic single-shard config of the global size.
        let rounds = matches!(config.ingest, IngestMode::Rounds { .. }).then(|| {
            let mut global = config.clone();
            global.bins_per_shard = config.shards as u64 * config.bins_per_shard;
            global.shards = 1;
            RoundsState::new(
                factory(&global),
                config.seed,
                config.shards,
                config.bins_per_shard,
            )
        });
        Self {
            config,
            shards,
            pool: None,
            scratch: Vec::new(),
            replay_buf: Vec::new(),
            spare_buffers: Vec::new(),
            sink: None,
            started: Instant::now(),
            emitted: 0,
            warnings: Vec::new(),
            rounds,
        }
    }

    /// Attaches a metrics sink: every subsequently applied batch emits
    /// one [`MetricRecord`] into it (phased batches as they apply;
    /// pipelined batches when their stream drains — the two halves of a
    /// pipelined measurement live on different threads and join at end
    /// of stream). Replaces — after flushing — any sink already
    /// attached. Sinks only observe, so attaching one never changes
    /// allocation results.
    pub fn set_sink(&mut self, sink: Box<dyn MetricsSink + Send>) {
        if let Some(mut old) = self.sink.replace(sink) {
            old.finish();
        }
    }

    /// Detaches the sink, flushing it first (so e.g. a
    /// [`JsonLinesExporter`](crate::JsonLinesExporter) writes its final
    /// partial window). Returns `None` if no sink was attached.
    pub fn take_sink(&mut self) -> Option<Box<dyn MetricsSink + Send>> {
        let mut sink = self.sink.take()?;
        sink.finish();
        Some(sink)
    }

    /// Whether a metrics sink is currently attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Drains the non-fatal configuration warnings recorded while
    /// serving, oldest first. Warnings flag hazards that degrade
    /// throughput but never correctness — today the one producer is
    /// [`Engine::serve_replay`] clamping a pipelined `batch_size` smaller
    /// than the shard count (see its docs). Each hazard is recorded once
    /// per serving call, so callers polling between calls see every
    /// occurrence.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// The shard at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= config.shards`.
    pub fn shard(&self, id: usize) -> &Shard<S> {
        self.shards[id]
            .as_ref()
            .expect("shard present between batches")
    }

    /// Read access to the shards (metrics, tests), indexed by shard id.
    pub fn shards(&self) -> Vec<&Shard<S>> {
        self.iter_shards().collect()
    }

    /// Mutable access to one shard between batches (internal).
    fn shard_slot(&mut self, id: usize) -> &mut Shard<S> {
        self.shards[id]
            .as_mut()
            .expect("shard present between batches")
    }

    /// Allocation-free shard iteration for internal aggregates.
    fn iter_shards(&self) -> impl Iterator<Item = &Shard<S>> {
        self.shards
            .iter()
            .map(|slot| slot.as_ref().expect("shard present between batches"))
    }

    /// Total balls currently placed across all shards.
    pub fn total_balls(&self) -> u64 {
        self.iter_shards().map(|s| s.allocation().balls()).sum()
    }

    /// The maximum bin load across all shards.
    pub fn max_load(&self) -> u32 {
        self.iter_shards()
            .map(|s| s.allocation().max_load())
            .max()
            .unwrap_or(0)
    }

    /// Partitions `ops` by shard into the reusable scratch buffers,
    /// preserving arrival order per shard. Buffers are sized once at
    /// `ops.len() / shards + 1` — the expected per-shard share — and
    /// reused (cleared, never shrunk) on every subsequent batch.
    fn partition_into_scratch(&mut self, ops: &[Op]) {
        let shards = self.shards.len();
        if self.scratch.len() != shards {
            let cap = ops.len() / shards + 1;
            self.scratch = (0..shards).map(|_| Vec::with_capacity(cap)).collect();
        } else {
            for buf in &mut self.scratch {
                buf.clear();
            }
        }
        for &op in ops {
            self.scratch[route(op.key(), shards)].push(op);
        }
    }

    /// Applies one batch of operations and returns its aggregate summary.
    ///
    /// Partitioning is stable: two ops on the same key always reach the
    /// same shard in their batch order, so insert-then-delete sequences
    /// behave as written even when shards run on different threads.
    ///
    /// With a sink attached (see [`Engine::set_sink`]) each call also
    /// emits one engine-wide [`MetricRecord`] (`shard: None`; queue
    /// fields zero — phased batches never touch the bounded queues).
    pub fn apply_batch(&mut self, ops: &[Op]) -> BatchSummary {
        // Take the sink out for the duration so the inner path borrows
        // `self` freely; restore it afterwards.
        let Some(mut sink) = self.sink.take() else {
            return self.apply_batch_inner(ops);
        };
        let at = self.started.elapsed();
        let t0 = Instant::now();
        let summary = self.apply_batch_inner(ops);
        let apply = t0.elapsed();
        let (inserts, deletes, lookups) = op_mix(ops);
        let record = MetricRecord {
            seq: self.emitted,
            at,
            shard: None,
            producer: 0,
            ops: ops.len() as u32,
            inserts,
            deletes,
            lookups,
            apply,
            routed: Duration::ZERO,
            queue_occupancy: 0,
            stalls: 0,
            stalled: Duration::ZERO,
        };
        self.emitted += 1;
        sink.record(&record);
        self.sink = Some(sink);
        summary
    }

    /// The sink-free batch application path shared by every worker mode.
    fn apply_batch_inner(&mut self, ops: &[Op]) -> BatchSummary {
        if let IngestMode::Rounds { producers } = self.config.ingest {
            return self.apply_batch_rounds(ops, producers);
        }
        if self.shards.len() == 1 {
            // One shard: everything routes to it — apply the batch slice
            // directly, no partition pass at all.
            return self.shard_slot(0).apply(ops);
        }
        self.partition_into_scratch(ops);
        let work: Vec<(usize, Vec<Op>)> = self
            .scratch
            .iter_mut()
            .enumerate()
            .filter(|(_, buf)| !buf.is_empty())
            .map(|(id, buf)| (id, std::mem::take(buf)))
            .collect();
        // Each partition buffer rides home with its shard's reply and
        // goes back into `scratch`, capacity intact.
        let (replies, ()) = self.on_shards(
            self.config.workers,
            work,
            |shard, ops| (shard.apply(&ops), ops),
            || (),
        );
        let mut total = BatchSummary::default();
        for (id, (summary, buf)) in replies {
            total.absorb(&summary);
            self.scratch[id] = buf;
        }
        total
    }

    /// Runs `work(shard, input)` for every `(id, input)` in `inputs` — the
    /// one dispatch behind phased batches, rounds and pipelined streams —
    /// and returns the `(id, output)` pairs, in no particular order,
    /// together with what `meanwhile` returned.
    ///
    /// Under [`WorkerMode::Sequential`] the work runs shard by shard on
    /// the calling thread, then `meanwhile` runs. Under
    /// [`WorkerMode::Persistent`] each listed shard travels by value to
    /// pool worker `id` (spawning the pool on first use), `meanwhile` runs
    /// on the calling thread while the workers do, and every worker
    /// replies `(id, shard, output)` on one channel, which puts the shard
    /// back in its slot. A worker that panics drops its reply sender
    /// unsent, so collection ends with a panic naming that shard rather
    /// than waiting forever.
    fn on_shards<I, O, R>(
        &mut self,
        workers: WorkerMode,
        inputs: Vec<(usize, I)>,
        work: impl Fn(&mut Shard<S>, I) -> O + Copy + Send + 'static,
        meanwhile: impl FnOnce() -> R,
    ) -> (Vec<(usize, O)>, R)
    where
        I: Send + 'static,
        O: Send + 'static,
    {
        if workers == WorkerMode::Sequential {
            let outputs = inputs
                .into_iter()
                .map(|(id, input)| (id, work(self.shard_slot(id), input)))
                .collect();
            return (outputs, meanwhile());
        }
        let shards = self.shards.len();
        let pool = self.pool.get_or_insert_with(|| WorkerPool::spawn(shards));
        // One slot per task: no reply ever blocks, and the channel
        // allocates exactly the slots it needs (an unbounded channel
        // allocates a block of many reply slots per call, which
        // measurably slowed small batches).
        let sent = inputs.len();
        let (reply_tx, replies) = mpsc::sync_channel(sent);
        for (id, input) in inputs {
            let mut shard = self.shards[id]
                .take()
                .expect("shard present between batches");
            let reply = reply_tx.clone();
            let task: Task = Box::new(move || {
                let output = work(&mut shard, input);
                // A send error means the engine is gone (it panicked);
                // nothing is left to report to.
                let _ = reply.send((id, shard, output));
            });
            if pool.queues[id].send(task).is_err() {
                panic!("shard worker {id} exited early");
            }
        }
        drop(reply_tx);
        let during = meanwhile();
        // Take exactly one reply per task rather than waiting for the
        // channel to disconnect, which would also wait for each worker
        // to drop its sender after replying. `recv` errors early only if
        // a task died: each holds one sender clone, and the original was
        // dropped above.
        let mut outputs = Vec::with_capacity(sent);
        while outputs.len() < sent {
            let Ok((id, shard, output)) = replies.recv() else {
                break;
            };
            self.shards[id] = Some(shard);
            outputs.push((id, output));
        }
        if let Some(id) = self.shards.iter().position(Option::is_none) {
            panic!("shard worker {id} panicked");
        }
        (outputs, during)
    }

    /// Drains the accumulated [`RoundReport`] (rounds taken,
    /// re-proposals per round, max load) under [`IngestMode::Rounds`].
    /// Returns `None` when the engine is not in rounds mode; subsequent
    /// calls return a fresh report covering only batches resolved since
    /// this one.
    pub fn take_round_report(&mut self) -> Option<RoundReport> {
        self.rounds
            .as_mut()
            .map(|st| std::mem::take(&mut st.report))
    }

    /// The rounds-ingestion batch path (see [`crate::rounds`] for the
    /// algorithm and its determinism contract): lookups observe
    /// pre-batch state, deletes apply in ascending key order against
    /// pre-batch placements, then the batch's inserts resolve in
    /// synchronized propose/resolve rounds over the global bin space.
    fn apply_batch_rounds(&mut self, ops: &[Op], producers: usize) -> BatchSummary {
        let mut st = self
            .rounds
            .take()
            .expect("rounds state present under IngestMode::Rounds");
        let mut summary = BatchSummary::default();
        let shards = self.shards.len();
        let bins_per_shard = self.config.bins_per_shard;

        // Barrier 1: lookups, against the placements the batch started
        // with. Each lookup reads the global index independently, so
        // the recorded depths form a multiset pure in the batch's
        // lookup keys — op order never matters. Observations attribute
        // to the key's routed shard, matching the other ingest modes.
        for &op in ops {
            if let Op::Lookup(key) = op {
                let depth = st.index.depth(key) as u32;
                self.shard_slot(route(key, shards)).rounds_lookup(depth);
                summary.lookups += 1;
                summary.hits += u64::from(depth > 0);
            }
        }

        // Barrier 2: deletes, against pre-batch placements, resolved in
        // ascending key order (LIFO within a key's stack) so the
        // outcome is pure in the batch's delete multiset. Inserts from
        // this same batch are not yet placed and thus not deletable — a
        // documented semantic difference from sequential ingestion.
        let mut deletes: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Delete(k) => Some(*k),
                _ => None,
            })
            .collect();
        deletes.sort_unstable();
        for key in deletes {
            match st.index.pop(key) {
                Some(global) => {
                    let owner = (global / bins_per_shard) as usize;
                    self.shard_slot(owner)
                        .rounds_delete(global % bins_per_shard);
                    summary.deletes += 1;
                }
                None => {
                    self.shard_slot(route(key, shards)).rounds_missed_delete();
                    summary.missed_deletes += 1;
                }
            }
        }

        // The batch's balls, in canonical (key, duplicate-index) order:
        // every later step is indexed by position in this list, so the
        // whole resolution is pure in the insert multiset.
        let mut keys: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Insert(k) => Some(*k),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        let balls = keys.len();
        st.report.batches += 1;
        if balls == 0 {
            self.rounds = Some(st);
            return summary;
        }
        let d = self.config.d;

        // Propose prep: each ball's d global probes and its tie hash,
        // derived once. `instance` numbers duplicate inserts of a key so
        // their ties differ. The derivation is embarrassingly parallel:
        // `producers` scoped threads fill disjoint chunks of the arena.
        let mut instances = vec![0u64; balls];
        for i in 1..balls {
            if keys[i] == keys[i - 1] {
                instances[i] = instances[i - 1] + 1;
            }
        }
        let mut probes = vec![0u64; balls * d];
        let mut ties = vec![0u64; balls];
        {
            let scheme = &st.scheme;
            let salt = st.salt;
            let fill = |keys: &[u64], inst: &[u64], probes: &mut [u64], ties: &mut [u64]| {
                // One batched-kernel dispatch fills the whole chunk's
                // probe matrix (row i = ball i's d global probes),
                // bit-identical to per-ball choices_for by contract.
                scheme.choices_for_batch(keys, salt, probes);
                for (i, (&key, &instance)) in keys.iter().zip(inst).enumerate() {
                    ties[i] = tie_hash(key, salt, instance);
                }
            };
            if producers > 1 && balls >= producers {
                let chunk = balls.div_ceil(producers);
                std::thread::scope(|scope| {
                    for (((keys, inst), probes), ties) in keys
                        .chunks(chunk)
                        .zip(instances.chunks(chunk))
                        .zip(probes.chunks_mut(chunk * d))
                        .zip(ties.chunks_mut(chunk))
                    {
                        scope.spawn(move || fill(keys, inst, probes, ties));
                    }
                });
            } else {
                fill(&keys, &instances, &mut probes, &mut ties);
            }
        }

        // The round loop. The threshold starts one above the emptiest
        // bin and rises by one whenever d consecutive rounds place
        // nothing — by then every pending ball has offered all d of its
        // probes at the current threshold, so raising it is the only
        // way forward (and guarantees termination).
        let mut threshold = self
            .iter_shards()
            .flat_map(|s| s.allocation().loads().iter().copied())
            .min()
            .expect("at least one bin")
            + 1;
        let mut pending: Vec<u32> = (0..balls as u32).collect();
        let mut cursor = vec![0u8; balls];
        let mut placed = vec![false; balls];
        let mut placed_bins = vec![0u64; balls];
        let mut proposals: Vec<Vec<Proposal>> = (0..shards).map(|_| Vec::new()).collect();
        let mut zero_streak = 0usize;
        let mut rounds_this_batch = 0u64;
        while !pending.is_empty() {
            for buf in &mut proposals {
                buf.clear();
            }
            for &ball in &pending {
                let b = ball as usize;
                let global = probes[b * d + cursor[b] as usize];
                proposals[(global / bins_per_shard) as usize].push(Proposal {
                    ball,
                    bin: global % bins_per_shard,
                    tie: ties[b],
                    probe: cursor[b],
                });
            }
            // Resolve the round on every proposed-to shard. The outcome
            // is mode-independent: a bin's acceptances depend only on its
            // own proposals and the threshold.
            let work = proposals
                .iter_mut()
                .enumerate()
                .filter(|(_, props)| !props.is_empty())
                .map(|(id, props)| (id, std::mem::take(props)))
                .collect();
            let (winners, ()) = self.on_shards(
                self.config.workers,
                work,
                move |shard, props| shard.rounds_resolve(props, threshold),
                || (),
            );
            let mut placed_now = 0u64;
            for (shard_id, accepted) in winners {
                for w in accepted {
                    placed[w.ball as usize] = true;
                    placed_bins[w.ball as usize] = shard_id as u64 * bins_per_shard + w.bin;
                    placed_now += 1;
                }
            }
            pending.retain(|&ball| !placed[ball as usize]);
            for &ball in &pending {
                let b = ball as usize;
                cursor[b] = if usize::from(cursor[b]) + 1 == d {
                    0
                } else {
                    cursor[b] + 1
                };
            }
            let round = rounds_this_batch as usize;
            rounds_this_batch += 1;
            if !pending.is_empty() {
                if st.report.reproposals.len() <= round {
                    st.report.reproposals.resize(round + 1, 0);
                }
                st.report.reproposals[round] += pending.len() as u64;
            }
            if placed_now == 0 {
                zero_streak += 1;
                if zero_streak == d {
                    threshold += 1;
                    zero_streak = 0;
                }
            } else {
                zero_streak = 0;
            }
        }

        // Commit placements to the global index in canonical ball
        // order, so a key's LIFO stack is also pure in the batch set.
        for b in 0..balls {
            st.index.push(keys[b], placed_bins[b]);
        }
        summary.inserts += balls as u64;
        st.report.balls += balls as u64;
        st.report.rounds += rounds_this_batch;
        st.report.max_rounds_per_batch = st.report.max_rounds_per_batch.max(rounds_this_batch);
        st.report.max_load = st.report.max_load.max(self.max_load());
        self.rounds = Some(st);
        summary
    }

    /// Applies a long op stream in `batch_size` chunks; returns the overall
    /// summary. This is the engine's ingestion entry point for drivers that
    /// generate traffic faster than they want to synchronize. Delegates to
    /// [`Engine::serve_replay`] — slices and iterators share one chunking
    /// loop — and therefore honours [`EngineConfig::ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn serve(&mut self, ops: &[Op], batch_size: usize) -> BatchSummary {
        self.serve_replay(ops.iter().copied(), batch_size)
    }

    /// Serves an op *stream* in `batch_size` chunks without materializing
    /// it: the streaming ingestion path. Captured workloads (see
    /// `ba-workload`'s replay module) can hold millions of ops; this
    /// buffers one batch at a time, so replaying a capture costs the same
    /// memory as serving live traffic. Equivalent to collecting the
    /// iterator and calling [`Engine::serve`]. Under
    /// [`IngestMode::Pipelined`] the stream flows through
    /// [`Engine::serve_pipelined`] instead of phased chunking — results
    /// are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    ///
    /// Under [`IngestMode::Pipelined`], `batch_size` keeps its phased
    /// meaning — ops per *engine-wide* batch — and each shard worker
    /// receives batches of `batch_size / shards` ops. A `batch_size`
    /// smaller than the shard count therefore clamps every per-shard
    /// batch to a single op, shipping one ring message per op: results
    /// stay bit-identical, but the rings churn. The clamp records a
    /// warning (see [`Engine::take_warnings`]) instead of silently
    /// re-interpreting the argument.
    pub fn serve_replay(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
    ) -> BatchSummary {
        assert!(batch_size > 0, "batch size must be positive");
        if let IngestMode::Pipelined {
            queue_depth,
            producers,
        } = self.config.ingest
        {
            // `batch_size` keeps its phased meaning — ops per engine-wide
            // batch — so the ingest axis never changes per-worker message
            // granularity: each shard sees ~batch_size/shards ops per
            // batch under either mode, and a phased-vs-pipelined
            // comparison at the same `batch_size` isolates the overlap.
            let shards = self.shards.len();
            if batch_size < shards {
                self.warnings.push(format!(
                    "serve_replay: batch_size {batch_size} < {shards} shards under \
                     IngestMode::Pipelined clamps every per-shard batch to 1 op \
                     (one ring message per op); raise batch_size to at least the \
                     shard count to amortize ring traffic"
                ));
            }
            let per_shard = (batch_size / self.shards.len()).max(1);
            return self.serve_pipelined_producers(ops, per_shard, queue_depth, producers);
        }
        let mut total = BatchSummary::default();
        let mut buf = std::mem::take(&mut self.replay_buf);
        buf.clear();
        buf.reserve(batch_size);
        for op in ops {
            buf.push(op);
            if buf.len() == batch_size {
                total.absorb(&self.apply_batch(&buf));
                buf.clear();
            }
        }
        if !buf.is_empty() {
            total.absorb(&self.apply_batch(&buf));
            buf.clear();
        }
        self.replay_buf = buf;
        total
    }

    /// Serves an op stream with production and application overlapped:
    /// the calling thread acts as the producer stage — cutting the stream
    /// into chunks of `batch_size × shards` ops, routing each chunk into
    /// per-shard batches and shipping every batch into that shard's
    /// bounded SPSC ring (see [`crate::spsc`]) — while every persistent
    /// worker applies previously shipped batches concurrently. A ring at
    /// `queue_depth` blocks the producer until its worker catches up
    /// (backpressure), so memory stays bounded by about
    /// `(queue_depth + 2) × batch_size × shards` ops regardless of
    /// stream length.
    ///
    /// Each shard still applies exactly its routed subsequence in arrival
    /// order, so the outcome — shard loads, max load, batch summary, and
    /// every [`EngineStats`](crate::EngineStats) percentile — is
    /// bit-identical to phased serving in any [`WorkerMode`], including
    /// [`WorkerMode::Sequential`]. Only throughput differs: here the
    /// producer (op generation, routing) runs concurrently with shard
    /// application instead of alternating with it.
    ///
    /// `batch_size` here is the *per-shard* batch granularity: each
    /// worker receives one batch per chunk, `batch_size` ops on average.
    /// (The config-driven entry points
    /// [`Engine::serve`]/[`Engine::serve_replay`] pass
    /// `batch_size / shards` so their `batch_size` argument keeps one
    /// meaning across ingest modes.) Drained batch buffers recycle back
    /// to the producer — and persist on the engine across calls — so
    /// steady-state ingestion performs no allocation. This path always
    /// uses the persistent worker pool (spawning it on first use)
    /// regardless of [`EngineConfig::workers`], which only governs phased
    /// [`Engine::apply_batch`] application.
    ///
    /// Equivalent to [`Engine::serve_pipelined_producers`] with a single
    /// producer.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero, if `queue_depth` is zero or not a
    /// power of two (the ring's granularity), or if a shard worker
    /// panics mid-stream (surfaced as `shard worker {id} panicked`, never
    /// a deadlock).
    pub fn serve_pipelined(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
        queue_depth: usize,
    ) -> BatchSummary {
        self.serve_pipelined_producers(ops, batch_size, queue_depth, 1)
    }

    /// [`Engine::serve_pipelined`] with `producers` routing stages
    /// between the calling thread and the shard workers.
    ///
    /// The stream is cut into chunks of `batch_size × shards` ops, and
    /// chunk `k` is routed by producer `k % producers`, which ships one
    /// batch per shard — empty ones included — stamped with the chunk
    /// index into its own SPSC ring per shard. Every shard worker merges
    /// its rings in round-robin order, which replays that shard's routed
    /// subsequence exactly in stream order: placements, stats
    /// percentiles, and summaries are bit-identical to sequential
    /// serving regardless of producer count or thread timing.
    ///
    /// With one producer the calling thread routes inline, so the stream
    /// costs no thread beyond the shard workers. With `N > 1` the calling
    /// thread only cuts chunks and hands them to N scoped producer
    /// threads over shallow bounded channels.
    ///
    /// Memory stays bounded by about `(queue_depth + 2) × batch_size ×
    /// shards` ops per producer.
    ///
    /// # Panics
    ///
    /// As [`Engine::serve_pipelined`], plus if `producers` is zero.
    pub fn serve_pipelined_producers(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
        queue_depth: usize,
        producers: usize,
    ) -> BatchSummary {
        assert!(batch_size > 0, "batch size must be positive");
        if let Err(err) = check_pipeline(queue_depth, producers) {
            panic!("serve_pipelined_producers: {err}");
        }
        let shards = self.shards.len();
        let track = self.sink.is_some();
        let started = self.started;
        // A producers × shards matrix of SPSC rings. Producer p owns row
        // p of senders; shard worker s receives column s and merges it in
        // (producer, seq) round-robin order.
        let mut ring_txs: Vec<Vec<spsc::RingProducer<Batch>>> = Vec::with_capacity(producers);
        let mut ring_rxs: Vec<Vec<spsc::RingConsumer<Batch>>> =
            (0..shards).map(|_| Vec::with_capacity(producers)).collect();
        for _ in 0..producers {
            let mut row = Vec::with_capacity(shards);
            for col in ring_rxs.iter_mut() {
                let (tx, rx) = spsc::ring::<Batch>(queue_depth);
                row.push(tx);
                col.push(rx);
            }
            ring_txs.push(row);
        }
        // Per-producer recycle channels; every worker holds a clone of
        // each sender so drained buffers go home to the producer that
        // filled them (the recycle path is MPSC and cold — only the
        // batch rings are hot).
        let (recycle_txs, recycle_rxs): (Vec<_>, Vec<_>) =
            (0..producers).map(|_| mpsc::channel::<Vec<Op>>()).unzip();
        let streams = ring_rxs
            .into_iter()
            .enumerate()
            .map(|(id, rings)| (id, (rings, recycle_txs.clone())))
            .collect();
        drop(recycle_txs);
        // Buffers kept from earlier calls: the chunk buffer first, then
        // each router's working set — per shard, one filling buffer, up
        // to `queue_depth` queued batches and one being applied. What is
        // left feeds the distribution stage.
        let chunk_size = batch_size * shards;
        let mut spare = std::mem::take(&mut self.spare_buffers);
        let mut buf = grab_buffer(None, &mut spare, chunk_size);
        let mut routers: Vec<Router> = ring_txs
            .into_iter()
            .zip(recycle_rxs)
            .enumerate()
            .map(|(p, (rings, recycle))| {
                let mut own =
                    spare.split_off(spare.len().saturating_sub(shards * (queue_depth + 2)));
                Router {
                    producer: p as u32,
                    rings,
                    recycle,
                    filling: (0..shards)
                        .map(|_| grab_buffer(None, &mut own, batch_size))
                        .collect(),
                    spare: own,
                    pending: Vec::new(),
                    batch_size,
                    started,
                    track,
                }
            })
            .collect();
        // The producer stage, run on this thread while the workers drain.
        let produce = || {
            if producers == 1 {
                let mut router = routers.pop().expect("one router per producer");
                feed_chunks(ops, &mut buf, chunk_size, |chunk, buf| {
                    let alive = router.route(chunk, buf);
                    buf.clear();
                    alive
                });
                return vec![router.finish()];
            }
            // Hand chunk k to producer thread k % producers over a
            // shallow bounded channel (depth 2 keeps each producer one
            // chunk ahead without unbounded buffering). Routed-out chunk
            // buffers come back for reuse.
            std::thread::scope(|scope| {
                let (chunk_back_tx, chunk_back_rx) = mpsc::channel::<Vec<Op>>();
                let (dist_txs, handles): (Vec<_>, Vec<_>) = routers
                    .into_iter()
                    .map(|mut router| {
                        let (dist_tx, dist_rx) = mpsc::sync_channel::<(u64, Vec<Op>)>(2);
                        let chunk_back = chunk_back_tx.clone();
                        let handle = std::thread::Builder::new()
                            .name(format!("ba-producer-{}", router.producer))
                            .spawn_scoped(scope, move || {
                                while let Ok((chunk, mut buf)) = dist_rx.recv() {
                                    let alive = router.route(chunk, &buf);
                                    buf.clear();
                                    let _ = chunk_back.send(buf);
                                    if !alive {
                                        break;
                                    }
                                }
                                router.finish()
                            })
                            .expect("spawn pipeline producer thread");
                        (dist_tx, handle)
                    })
                    .unzip();
                drop(chunk_back_tx);
                feed_chunks(ops, &mut buf, chunk_size, |chunk, buf| {
                    let back = chunk_back_rx.try_recv().ok();
                    let full = std::mem::replace(buf, grab_buffer(back, &mut spare, chunk_size));
                    // A send error means the producer stopped routing
                    // (its worker died); stop distributing.
                    dist_txs[chunk as usize % producers]
                        .send((chunk, full))
                        .is_ok()
                });
                // Disconnect distribution: each producer finishes its
                // queued chunks, ships them, and drops its rings, which
                // ends every worker's stream.
                drop(dist_txs);
                let routers: Vec<Router> = handles
                    .into_iter()
                    .map(|handle| {
                        handle
                            .join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    })
                    .collect();
                spare.extend(chunk_back_rx.try_iter());
                routers
            })
        };
        let (replies, routers) = self.on_shards(
            WorkerMode::Persistent,
            streams,
            move |shard, (rings, recycle)| drain_stream(shard, &rings, &recycle, track),
            produce,
        );
        // Reclaim every buffer for the next call and gather the metric
        // halves; the chunk buffer goes last so the next call pops it.
        let mut pending: Vec<PendingShip> = Vec::new();
        for router in routers {
            spare.extend(router.recycle.try_iter());
            // Every chunk shipped in full, so the filling buffers are
            // empty (after a dead worker `on_shards` panicked above).
            spare.extend(router.filling);
            spare.extend(router.spare);
            pending.extend(router.pending);
        }
        spare.push(buf);
        self.spare_buffers = spare;
        self.finish_stream(replies, pending)
    }

    /// Folds a drained stream's worker replies into its summary, then
    /// joins producer-side ship records with worker-side apply latencies
    /// — `(shard, chunk)` addresses the apply sample — and emits the
    /// stream's records in ship-time order. Empty merge-alignment batches
    /// carry no traffic and emit no record.
    fn finish_stream(
        &mut self,
        replies: Vec<(usize, (BatchSummary, Vec<Duration>))>,
        pending: Vec<PendingShip>,
    ) -> BatchSummary {
        let mut total = BatchSummary::default();
        let mut applies: Vec<Vec<Duration>> = vec![Vec::new(); self.shards.len()];
        for (id, (summary, latencies)) in replies {
            total.absorb(&summary);
            applies[id] = latencies;
        }
        let Some(mut sink) = self.sink.take() else {
            return total;
        };
        debug_assert_eq!(
            pending.len(),
            applies.iter().map(Vec::len).sum::<usize>(),
            "ship records and apply samples must pair 1:1"
        );
        let mut records = Vec::with_capacity(pending.len());
        for ship in pending {
            let apply = applies[ship.shard][ship.chunk as usize];
            if ship.ops == 0 {
                continue;
            }
            records.push(MetricRecord {
                seq: 0, // assigned below, in ship-time order
                at: ship.at,
                shard: Some(ship.shard),
                producer: ship.producer,
                ops: ship.ops,
                inserts: ship.inserts,
                deletes: ship.deletes,
                lookups: ship.lookups,
                apply,
                routed: ship.routed,
                queue_occupancy: ship.occupancy,
                stalls: ship.stalls,
                stalled: ship.stalled,
            });
        }
        records.sort_by_key(|r| (r.at, r.shard));
        for mut record in records {
            record.seq = self.emitted;
            self.emitted += 1;
            sink.record(&record);
        }
        self.sink = Some(sink);
        total
    }

    /// Snapshot of per-shard and aggregate load/traffic statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats::new(
            self.iter_shards()
                .map(|s| {
                    ShardStats::capture(
                        s.id(),
                        s.allocation(),
                        s.lifetime_summary(),
                        s.observations(),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SharedSink;
    use ba_core::{run_process, run_process_keys};
    use ba_hash::{ChoiceSource, DoubleHashing};
    use ba_rng::SeedSequence;

    fn engine(shards: usize, workers: WorkerMode) -> Engine<AnyScheme> {
        let cfg = EngineConfig::new(shards, 256, 3).seed(42).workers(workers);
        Engine::by_name("double", cfg).unwrap()
    }

    fn mixed_ops(count: u64) -> Vec<Op> {
        (0..count)
            .map(|i| match i % 5 {
                0..=2 => Op::Insert(i / 2),
                3 => Op::Lookup(i / 3),
                _ => Op::Delete(i / 2),
            })
            .collect()
    }

    #[test]
    fn unknown_scheme_rejected() {
        assert!(Engine::by_name("nope", EngineConfig::new(2, 64, 2)).is_none());
    }

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7, 64] {
            for key in 0..1000u64 {
                let s = route(key, shards);
                assert!(s < shards);
                assert_eq!(s, route(key, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn route_spreads_keys() {
        let shards = 8;
        let mut counts = vec![0u64; shards];
        for key in 0..80_000u64 {
            counts[route(key, shards)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "skewed routing {counts:?}"
            );
        }
    }

    #[test]
    fn every_worker_mode_agrees() {
        let ops = mixed_ops(20_000);
        let mut seq = engine(8, WorkerMode::Sequential);
        let ss = seq.serve(&ops, 1_024);
        let mut par = engine(8, WorkerMode::Persistent);
        assert_eq!(par.serve(&ops, 1_024), ss);
        for (a, b) in par.shards().iter().zip(seq.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn persistent_pool_survives_many_batches() {
        // The worker pool spawns once and serves every subsequent batch;
        // per-shard state keeps matching the sequential engine throughout.
        let ops = mixed_ops(10_000);
        let mut par = engine(4, WorkerMode::Persistent);
        let mut seq = engine(4, WorkerMode::Sequential);
        for chunk in ops.chunks(100) {
            assert_eq!(par.apply_batch(chunk), seq.apply_batch(chunk));
        }
        for (a, b) in par.shards().iter().zip(seq.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn serve_replay_equals_serve() {
        // The replay ingestion path is the slice path, minus the slice:
        // identical summaries and shard states, batch boundaries included.
        let ops = mixed_ops(7_777);
        for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
            let mut live = engine(4, workers);
            let mut replayed = engine(4, workers);
            let a = live.serve(&ops, 512);
            let b = replayed.serve_replay(ops.iter().copied(), 512);
            assert_eq!(a, b, "{workers:?}");
            for (x, y) in live.shards().iter().zip(replayed.shards()) {
                assert_eq!(
                    x.allocation().loads(),
                    y.allocation().loads(),
                    "{workers:?}"
                );
            }
        }
    }

    #[test]
    fn serve_pipelined_equals_sequential_serving() {
        // The pipelined acceptance contract at the unit level: identical
        // summaries, per-shard loads, and stats snapshots to sequential
        // phased serving, for every queue depth — batch boundaries and
        // producer/worker interleaving must be invisible in the results.
        let ops = mixed_ops(20_000);
        let mut seq = engine(8, WorkerMode::Sequential);
        let expected = seq.serve(&ops, 1_024);
        for depth in [1usize, 4, 64] {
            let mut pip = engine(8, WorkerMode::Sequential);
            let got = pip.serve_pipelined(ops.iter().copied(), 1_024, depth);
            assert_eq!(got, expected, "depth {depth}");
            assert!(pip.stats().matches(&seq.stats()), "depth {depth}");
            for (a, b) in pip.shards().iter().zip(seq.shards()) {
                assert_eq!(
                    a.allocation().loads(),
                    b.allocation().loads(),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn pipelined_ingest_mode_flows_through_serve_and_serve_replay() {
        // The config axis: an engine configured Pipelined serves through
        // the pipeline on both entry points and still matches phased.
        let ops = mixed_ops(9_999);
        let mut phased = engine(4, WorkerMode::Persistent);
        let expected = phased.serve(&ops, 512);
        let cfg = EngineConfig::new(4, 256, 3).seed(42).pipelined(2);
        assert_eq!(
            cfg.ingest,
            IngestMode::Pipelined {
                queue_depth: 2,
                producers: 1
            }
        );
        let mut via_serve = Engine::by_name("double", cfg.clone()).unwrap();
        assert_eq!(via_serve.serve(&ops, 512), expected);
        let mut via_replay = Engine::by_name("double", cfg).unwrap();
        assert_eq!(via_replay.serve_replay(ops.iter().copied(), 512), expected);
        for (a, b) in via_serve.shards().iter().zip(phased.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn serve_pipelined_survives_repeated_calls_and_single_shard() {
        // The stream jobs and the pool outlive any one call; a one-shard
        // engine still pipelines (producer/worker overlap is the point).
        let ops = mixed_ops(5_000);
        let mut seq = engine(1, WorkerMode::Sequential);
        let mut pip = engine(1, WorkerMode::Sequential);
        for chunk in ops.chunks(1_000) {
            let a = seq.serve(chunk, 128);
            let b = pip.serve_pipelined(chunk.iter().copied(), 128, 2);
            assert_eq!(a, b);
        }
        assert_eq!(
            seq.shard(0).allocation().loads(),
            pip.shard(0).allocation().loads()
        );
        // The drained batch buffers survive the call on the engine's
        // spare pool, so the next stream starts allocation-free.
        assert!(
            !pip.spare_buffers.is_empty(),
            "pipeline buffers were dropped instead of pooled"
        );
    }

    #[test]
    fn serve_pipelined_handles_empty_stream() {
        let mut eng = engine(4, WorkerMode::Persistent);
        assert_eq!(
            eng.serve_pipelined(std::iter::empty(), 64, 4),
            BatchSummary::default()
        );
        assert_eq!(eng.total_balls(), 0);
    }

    #[test]
    fn pipelined_worker_panic_propagates_instead_of_deadlocking() {
        // A shard panicking mid-stream must surface as a panic in
        // serve_pipelined — whether the producer is blocked in a bounded
        // send or waiting on the worker's result — never a deadlock.
        let result = std::panic::catch_unwind(|| {
            let cfg = EngineConfig::new(2, 64, 1).seed(1).keyed();
            let mut eng = Engine::with_scheme_factory(cfg, |_| Exploding { n: 64, poison: 42 });
            eng.serve_pipelined((0..4_096u64).map(Op::Insert), 8, 1);
        });
        let payload = result.expect_err("pipelined worker panic was swallowed");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("shard worker"), "{msg:?}");
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_rejected() {
        engine(2, WorkerMode::Persistent).serve_pipelined([Op::Insert(1)], 8, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_queue_depth_rejected() {
        engine(2, WorkerMode::Persistent).serve_pipelined([Op::Insert(1)], 8, 3);
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn zero_producers_rejected() {
        engine(2, WorkerMode::Persistent).serve_pipelined_producers([Op::Insert(1)], 8, 2, 0);
    }

    #[test]
    #[should_panic(expected = "EngineConfig::pipelined(3)")]
    fn invalid_pipeline_depth_rejected_at_construction() {
        // The fail-fast contract: a bad queue depth dies when the engine
        // is built — naming the builder call — never mid-serve.
        let _ = Engine::by_name("double", EngineConfig::new(2, 64, 3).pipelined(3));
    }

    #[test]
    #[should_panic(expected = "EngineConfig::pipelined_producers(.., 0)")]
    fn zero_pipeline_producers_rejected_at_construction() {
        let _ = Engine::by_name(
            "double",
            EngineConfig::new(2, 64, 3).pipelined_producers(4, 0),
        );
    }

    #[test]
    fn validate_names_each_offending_builder_call() {
        let base = EngineConfig::new(2, 64, 3);
        assert_eq!(base.validate(), Ok(()));
        assert_eq!(
            EngineConfig::new(0, 64, 3).validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            base.clone().pipelined(0).validate(),
            Err(ConfigError::ZeroQueueDepth)
        );
        assert_eq!(
            base.clone().pipelined(6).validate(),
            Err(ConfigError::QueueDepthNotPowerOfTwo(6))
        );
        assert_eq!(
            base.clone().pipelined_producers(4, 0).validate(),
            Err(ConfigError::ZeroProducers)
        );
        // Each message carries the builder call that produced the value.
        let msg = ConfigError::QueueDepthNotPowerOfTwo(6).to_string();
        assert!(msg.contains("EngineConfig::pipelined(6)"), "{msg}");
        let msg = ConfigError::ZeroProducers.to_string();
        assert!(msg.contains("pipelined_producers"), "{msg}");
    }

    #[test]
    fn degenerate_pipelined_batch_size_warns_but_stays_bit_identical() {
        // batch_size < shards under Pipelined clamps per-shard batches to
        // one op: correctness must hold, and the hazard must be recorded.
        let ops = mixed_ops(4_000);
        let mut phased = engine(8, WorkerMode::Sequential);
        let expected = phased.serve(&ops, 3);
        assert!(phased.take_warnings().is_empty(), "phased path never warns");

        let cfg = EngineConfig::new(8, 256, 3).seed(42).pipelined(4);
        let mut pipelined = Engine::by_name("double", cfg).unwrap();
        let got = pipelined.serve(&ops, 3);
        assert_eq!(got, expected);
        assert!(phased.stats().matches(&pipelined.stats()));
        let warnings = pipelined.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("batch_size 3 < 8 shards"),
            "{warnings:?}"
        );
        // Drained: a second poll is empty; a healthy batch size never warns.
        assert!(pipelined.take_warnings().is_empty());
        pipelined.serve(&ops, 64);
        assert!(pipelined.take_warnings().is_empty());
    }

    #[test]
    fn multi_producer_pipelined_equals_sequential_serving() {
        // The tentpole contract at the unit level: the fanned routing
        // stage and the (producer, seq) merge must be invisible in the
        // results for any producer count × depth, including producer
        // counts that do not divide the chunk count evenly.
        let ops = mixed_ops(20_000);
        let mut seq = engine(8, WorkerMode::Sequential);
        let expected = seq.serve(&ops, 1_024);
        for producers in [2usize, 3, 8] {
            for depth in [1usize, 4] {
                let mut pip = engine(8, WorkerMode::Sequential);
                let got = pip.serve_pipelined_producers(ops.iter().copied(), 128, depth, producers);
                assert_eq!(got, expected, "producers {producers} depth {depth}");
                assert!(
                    pip.stats().matches(&seq.stats()),
                    "producers {producers} depth {depth}"
                );
                for (a, b) in pip.shards().iter().zip(seq.shards()) {
                    assert_eq!(
                        a.allocation().loads(),
                        b.allocation().loads(),
                        "producers {producers} depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_producer_handles_empty_and_subchunk_streams() {
        // No chunk is ever formed (empty stream) and a single partial
        // chunk (shorter than batch_size × shards) both terminate every
        // worker's round-robin merge cleanly.
        let mut eng = engine(4, WorkerMode::Persistent);
        assert_eq!(
            eng.serve_pipelined_producers(std::iter::empty(), 64, 4, 3),
            BatchSummary::default()
        );
        assert_eq!(eng.total_balls(), 0);
        let mut seq = engine(4, WorkerMode::Sequential);
        let ops = mixed_ops(10);
        let expected = seq.serve(&ops, 64);
        let got = eng.serve_pipelined_producers(ops.iter().copied(), 64, 4, 3);
        assert_eq!(got, expected);
        for (a, b) in eng.shards().iter().zip(seq.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn multi_producer_single_shard_and_repeated_calls() {
        let ops = mixed_ops(5_000);
        let mut seq = engine(1, WorkerMode::Sequential);
        let mut pip = engine(1, WorkerMode::Sequential);
        for chunk in ops.chunks(1_000) {
            let a = seq.serve(chunk, 128);
            let b = pip.serve_pipelined_producers(chunk.iter().copied(), 128, 2, 4);
            assert_eq!(a, b);
        }
        assert_eq!(
            seq.shard(0).allocation().loads(),
            pip.shard(0).allocation().loads()
        );
        // Buffers reclaimed from producers and workers persist across
        // calls on the engine's spare pool.
        assert!(
            !pip.spare_buffers.is_empty(),
            "fanned pipeline buffers were dropped instead of pooled"
        );
    }

    #[test]
    fn multi_producer_worker_panic_propagates_instead_of_deadlocking() {
        // A shard panicking mid-stream must surface as the same panic
        // with N producers — producers bail via ring disconnect, the
        // distribution stage stops, and the dead worker is reported —
        // never a deadlock.
        let result = std::panic::catch_unwind(|| {
            let cfg = EngineConfig::new(2, 64, 1).seed(1).keyed();
            let mut eng = Engine::with_scheme_factory(cfg, |_| Exploding { n: 64, poison: 42 });
            eng.serve_pipelined_producers((0..4_096u64).map(Op::Insert), 8, 1, 3);
        });
        let payload = result.expect_err("fanned worker panic was swallowed");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("shard worker"), "{msg:?}");
    }

    #[test]
    fn multi_producer_sink_records_carry_producer_and_stay_bit_identical() {
        // Sink attachment under fanned serving: results unchanged, every
        // record attributed to a real (shard, producer) pair, sequence
        // numbers dense in ship-time order, no empty alignment batches
        // leaking through, and op totals conserved.
        let ops = mixed_ops(8_000);
        let mut plain = engine(4, WorkerMode::Persistent);
        let expected = plain.serve(&ops, 1_024);
        let sink = SharedSink::new();
        let mut observed = engine(4, WorkerMode::Persistent);
        observed.set_sink(Box::new(sink.clone()));
        let got = observed.serve_pipelined_producers(ops.iter().copied(), 128, 2, 3);
        assert_eq!(got, expected);
        assert!(observed.stats().matches(&plain.stats()));
        let records = sink.records();
        assert!(!records.is_empty());
        assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 8_000);
        assert!(records.iter().all(|r| r.ops > 0), "empty batch leaked");
        assert!(records.iter().all(|r| r.shard.is_some()));
        assert!(records.iter().all(|r| r.producer < 3));
        let seen: std::collections::HashSet<u32> = records.iter().map(|r| r.producer).collect();
        assert!(seen.len() > 1, "all records from one producer: {seen:?}");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence numbers must be dense");
        }
        for pair in records.windows(2) {
            assert!(pair[0].at <= pair[1].at, "ship-time order violated");
        }
    }

    #[test]
    fn batches_reuse_partition_scratch_in_every_worker_mode() {
        // The zero-allocation contract, observably: after the first
        // batch, partition buffers are reused (their capacity persists)
        // rather than freshly allocated per batch — including under the
        // pool, where each buffer must ride home with its shard's reply.
        for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
            let mut eng = engine(2, workers);
            eng.apply_batch(&(0..1_000u64).map(Op::Insert).collect::<Vec<_>>());
            let caps: Vec<usize> = eng.scratch.iter().map(Vec::capacity).collect();
            assert!(
                caps.iter().all(|&c| c > 0),
                "{workers:?}: scratch never materialized"
            );
            eng.apply_batch(&(1_000..1_400u64).map(Op::Insert).collect::<Vec<_>>());
            let caps_after: Vec<usize> = eng.scratch.iter().map(Vec::capacity).collect();
            assert_eq!(
                caps, caps_after,
                "{workers:?}: smaller batch must not reallocate"
            );
        }
    }

    #[test]
    fn serve_replay_handles_empty_and_partial_batches() {
        let mut eng = engine(2, WorkerMode::Sequential);
        assert_eq!(
            eng.serve_replay(std::iter::empty(), 64),
            BatchSummary::default()
        );
        let summary = eng.serve_replay((0..100u64).map(Op::Insert), 64);
        assert_eq!(summary.inserts, 100);
        assert_eq!(eng.total_balls(), 100);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let ops: Vec<Op> = (0..5_000u64).map(Op::Insert).collect();
        let mut small = engine(4, WorkerMode::Persistent);
        let mut large = engine(4, WorkerMode::Persistent);
        small.serve(&ops, 64);
        large.serve(&ops, 5_000);
        for (a, b) in small.shards().iter().zip(large.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn per_shard_state_matches_single_threaded_core_run() {
        // The acceptance contract: for the same (seed, scheme) pair, each
        // shard's max-load statistics equal a single-threaded ba_core run
        // over that shard's insert stream.
        let seed = 7u64;
        let shards = 4usize;
        let mut eng =
            Engine::by_name("double", EngineConfig::new(shards, 512, 3).seed(seed)).unwrap();
        let ops: Vec<Op> = (0..4_096u64).map(Op::Insert).collect();
        eng.apply_batch(&ops);

        for id in 0..shards {
            let balls = ops
                .iter()
                .filter(|op| route(op.key(), shards) == id)
                .count() as u64;
            let scheme = DoubleHashing::new(512, 3);
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let reference = run_process(&scheme, balls, TieBreak::Random, &mut rng);
            let shard = eng.shard(id);
            assert_eq!(shard.allocation().loads(), reference.loads());
            assert_eq!(shard.allocation().max_load(), reference.max_load());
        }
    }

    #[test]
    fn keyed_per_shard_state_matches_core_keyed_run() {
        // The keyed twin: shard i's table equals run_process_keys over its
        // routed key stream with the shard's own salt.
        let seed = 13u64;
        let shards = 4usize;
        let cfg = EngineConfig::new(shards, 512, 3).seed(seed).keyed();
        let mut eng = Engine::by_name("double", cfg).unwrap();
        let ops: Vec<Op> = (0..4_096u64).map(Op::Insert).collect();
        eng.apply_batch(&ops);

        for id in 0..shards {
            let keys: Vec<u64> = ops
                .iter()
                .map(|op| op.key())
                .filter(|&k| route(k, shards) == id)
                .collect();
            let scheme = DoubleHashing::new(512, 3);
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let shard = eng.shard(id);
            let reference = run_process_keys(
                &scheme,
                ChoiceSource::Keyed { salt: shard.salt() },
                keys.iter().copied(),
                TieBreak::Random,
                &mut rng,
            );
            assert_eq!(shard.allocation().loads(), reference.loads(), "shard {id}");
        }
    }

    #[test]
    fn rng_kind_flows_into_every_shard() {
        let mk = |rng: RngKind| {
            let mut eng =
                Engine::by_name("double", EngineConfig::new(4, 256, 3).seed(3).rng(rng)).unwrap();
            eng.apply_batch(&(0..2_048u64).map(Op::Insert).collect::<Vec<_>>());
            eng.stats().merged_histogram().counts().to_vec()
        };
        let xo = mk(RngKind::Xoshiro);
        let pcg = mk(RngKind::Pcg64);
        let lcg = mk(RngKind::Lcg48);
        assert_eq!(xo, mk(RngKind::Xoshiro), "same kind must reproduce");
        // Different generator families must produce different tables.
        assert!(xo != pcg || xo != lcg, "PRNG ablation collapsed");
    }

    #[test]
    fn conservation_across_mixed_traffic() {
        let mut eng = engine(4, WorkerMode::Persistent);
        let mut ops = Vec::new();
        for key in 0..3_000u64 {
            ops.push(Op::Insert(key));
        }
        for key in 0..1_000u64 {
            ops.push(Op::Delete(key));
        }
        for key in 0..500u64 {
            ops.push(Op::Lookup(key * 5));
        }
        let summary = eng.serve(&ops, 512);
        assert_eq!(summary.inserts, 3_000);
        assert_eq!(summary.deletes, 1_000);
        assert_eq!(summary.missed_deletes, 0);
        assert_eq!(summary.lookups, 500);
        assert_eq!(eng.total_balls(), 2_000);
        let stats = eng.stats();
        assert_eq!(stats.total_balls(), 2_000);
        assert_eq!(stats.total_ops(), 4_500);
        let observed = stats.merged_observations();
        assert_eq!(observed.insert_load.count(), 3_000);
        assert_eq!(observed.delete_load.count(), 1_000);
        assert_eq!(observed.lookup_depth.count(), 500);
    }

    /// A scheme that panics when asked to derive choices for a poison
    /// key — the hook the worker-panic regression test needs.
    #[derive(Debug, Clone)]
    struct Exploding {
        n: u64,
        poison: u64,
    }

    impl ChoiceScheme for Exploding {
        fn n(&self) -> u64 {
            self.n
        }
        fn d(&self) -> usize {
            1
        }
        fn fill_choices(&self, rng: &mut dyn ba_rng::Rng64, out: &mut [u64]) {
            out[0] = rng.gen_range(self.n);
        }
        fn choices_for(&self, key: u64, _salt: u64, out: &mut [u64]) {
            assert_ne!(key, self.poison, "poison key reached the scheme");
            out[0] = key % self.n;
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A shard panicking inside a persistent worker must surface as a
        // panic in apply_batch — not leave the engine blocked forever on
        // a result that will never arrive.
        let result = std::panic::catch_unwind(|| {
            let cfg = EngineConfig::new(2, 64, 1).seed(1).keyed();
            let mut eng = Engine::with_scheme_factory(cfg, |_| Exploding { n: 64, poison: 42 });
            eng.apply_batch(&(0..256u64).map(Op::Insert).collect::<Vec<_>>());
        });
        assert!(result.is_err(), "worker panic was swallowed");
    }

    #[test]
    fn engine_drop_joins_workers_cleanly() {
        let mut eng = engine(8, WorkerMode::Persistent);
        eng.apply_batch(&(0..1_000u64).map(Op::Insert).collect::<Vec<_>>());
        drop(eng); // must not hang or leak threads
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Engine::by_name("double", EngineConfig::new(0, 64, 2));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        engine(2, WorkerMode::Sequential).serve(&[Op::Insert(1)], 0);
    }

    #[test]
    fn sink_sees_every_phased_batch() {
        let sink = SharedSink::new();
        let mut eng = engine(4, WorkerMode::Persistent);
        eng.set_sink(Box::new(sink.clone()));
        assert!(eng.has_sink());
        let ops = mixed_ops(2_000);
        eng.serve(&ops, 512);
        let records = sink.records();
        assert_eq!(records.len(), 4, "3 full batches + 1 partial");
        assert!(
            records.iter().all(|r| r.shard.is_none()),
            "phased: engine-wide"
        );
        assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 2_000);
        let mix: u64 = records
            .iter()
            .map(|r| u64::from(r.inserts + r.deletes + r.lookups))
            .sum();
        assert_eq!(mix, 2_000, "op mix must partition the batch");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(eng.take_sink().is_some());
        assert!(!eng.has_sink());
    }

    #[test]
    fn pipelined_sink_records_attribute_batches_to_shards() {
        let sink = SharedSink::new();
        let mut eng = engine(4, WorkerMode::Sequential);
        eng.set_sink(Box::new(sink.clone()));
        let ops = mixed_ops(4_000);
        eng.serve_pipelined(ops.iter().copied(), 128, 2);
        let records = sink.records();
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.shard.is_some()),
            "pipelined: per shard"
        );
        assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 4_000);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence numbers must be dense");
        }
        for pair in records.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "records must be ship-time ordered"
            );
        }
        // Both halves of the join landed: ship-side occupancy is bounded
        // by the queue depth, worker-side applies were all measured.
        assert!(records.iter().all(|r| r.queue_occupancy <= 2));
    }

    #[test]
    fn attaching_a_sink_never_changes_results() {
        // The bit-identity acceptance contract at the unit level: serving
        // with a sink attached yields the same summary, stats, and loads
        // as serving without one, on both ingestion paths.
        let ops = mixed_ops(8_000);
        let mut plain = engine(4, WorkerMode::Persistent);
        let expected = plain.serve(&ops, 1_024);
        for pipelined in [false, true] {
            let mut observed = engine(4, WorkerMode::Persistent);
            observed.set_sink(Box::new(SharedSink::new()));
            let got = if pipelined {
                observed.serve_pipelined(ops.iter().copied(), 256, 2)
            } else {
                observed.serve(&ops, 1_024)
            };
            assert_eq!(got, expected, "pipelined={pipelined}");
            assert!(
                observed.stats().matches(&plain.stats()),
                "pipelined={pipelined}"
            );
            for (a, b) in observed.shards().iter().zip(plain.shards()) {
                assert_eq!(a.allocation().loads(), b.allocation().loads());
            }
        }
    }

    /// Concatenated per-shard bin loads in shard order — the global bin
    /// vector the rounds determinism contract is stated over.
    fn global_loads(engine: &Engine<AnyScheme>) -> Vec<u32> {
        engine
            .shards()
            .iter()
            .flat_map(|s| s.allocation().loads().to_vec())
            .collect()
    }

    fn rounds_engine(shards: usize, workers: WorkerMode, producers: usize) -> Engine<AnyScheme> {
        let bins = 1024 / shards as u64; // constant 1024 global bins
        let cfg = EngineConfig::new(shards, bins, 3)
            .seed(42)
            .workers(workers)
            .rounds_producers(producers);
        Engine::by_name("double", cfg).unwrap()
    }

    #[test]
    fn rounds_config_validates_producers() {
        assert_eq!(
            EngineConfig::new(2, 64, 3).rounds_producers(0).validate(),
            Err(ConfigError::ZeroRoundsProducers)
        );
        assert!(EngineConfig::new(2, 64, 3).rounds().validate().is_ok());
    }

    #[test]
    fn rounds_places_every_ball_and_reports() {
        let mut e = rounds_engine(4, WorkerMode::Sequential, 1);
        let ops: Vec<Op> = (0..800u64).map(Op::Insert).collect();
        let summary = e.apply_batch(&ops);
        assert_eq!(summary.inserts, 800);
        assert_eq!(e.total_balls(), 800);
        let report = e.take_round_report().expect("rounds mode");
        assert_eq!(report.batches, 1);
        assert_eq!(report.balls, 800);
        assert!(report.rounds >= 1);
        assert_eq!(report.max_load, e.max_load());
        // 800 balls into 1024 bins with d = 3: the bulk process stays
        // in the same low-max-load regime as sequential d-choice.
        assert!(e.max_load() <= 4, "max load {}", e.max_load());
        // Drained: the next report covers only new batches.
        assert_eq!(e.take_round_report().unwrap(), RoundReport::default());
    }

    #[test]
    fn rounds_result_is_pure_in_the_batch_set() {
        // The tentpole contract at the unit level: permuting the ops
        // within a batch, changing worker mode, propose-thread count, or
        // shard count never changes the global bin vector or summary.
        let mut ops = mixed_ops(6_000);
        let mut base = rounds_engine(1, WorkerMode::Sequential, 1);
        let expected = base.apply_batch(&ops);
        let expected_loads = global_loads(&base);
        ops.reverse();
        for (shards, workers, producers) in [
            (1, WorkerMode::Sequential, 4),
            (2, WorkerMode::Persistent, 1),
            (4, WorkerMode::Persistent, 2),
            (8, WorkerMode::Persistent, 4),
        ] {
            let mut e = rounds_engine(shards, workers, producers);
            let got = e.apply_batch(&ops);
            assert_eq!(got, expected, "{shards} shards {workers:?} x{producers}");
            assert_eq!(
                global_loads(&e),
                expected_loads,
                "{shards} shards {workers:?} x{producers}"
            );
        }
    }

    #[test]
    fn rounds_barriers_apply_deletes_and_lookups_against_pre_batch_state() {
        let mut e = rounds_engine(2, WorkerMode::Sequential, 1);
        e.apply_batch(&[Op::Insert(7), Op::Insert(7), Op::Insert(9)]);
        // Lookups see pre-batch placements; the same-batch delete of key
        // 9 cannot see the same-batch insert of key 11.
        let summary = e.apply_batch(&[
            Op::Delete(7),
            Op::Lookup(7),
            Op::Insert(11),
            Op::Delete(11),
            Op::Delete(9),
            Op::Lookup(404),
        ]);
        assert_eq!(summary.inserts, 1);
        assert_eq!(summary.deletes, 2);
        assert_eq!(summary.missed_deletes, 1, "same-batch insert not deletable");
        assert_eq!(summary.lookups, 2);
        assert_eq!(summary.hits, 1);
        // Balls: 3 placed, 2 deleted, 1 placed = 2 live.
        assert_eq!(e.total_balls(), 2);
        // The delete of key 7 freed the newest of its two balls; the
        // next batch can still delete the older one.
        let s2 = e.apply_batch(&[Op::Delete(7), Op::Delete(7)]);
        assert_eq!((s2.deletes, s2.missed_deletes), (1, 1));
    }

    #[test]
    fn rounds_batches_are_order_sensitive_only_across_barriers() {
        // Two engines serve the same two batches; within each batch the
        // op order differs. Final state must match exactly.
        let batch1: Vec<Op> = (0..500u64).map(Op::Insert).collect();
        let mut batch2: Vec<Op> = (0..500u64)
            .map(|i| {
                if i % 3 == 0 {
                    Op::Delete(i)
                } else {
                    Op::Insert(i)
                }
            })
            .collect();
        let mut a = rounds_engine(4, WorkerMode::Persistent, 2);
        a.apply_batch(&batch1);
        a.apply_batch(&batch2);
        let mut b = rounds_engine(4, WorkerMode::Persistent, 2);
        let mut shuffled1 = batch1.clone();
        shuffled1.rotate_left(123);
        b.apply_batch(&shuffled1);
        batch2.reverse();
        b.apply_batch(&batch2);
        assert_eq!(global_loads(&a), global_loads(&b));
        assert!(a.stats().matches(&b.stats()), "stats must match too");
    }

    #[test]
    fn rounds_threshold_escalates_past_full_tables() {
        // 64 bins, 256 balls: mean load 4, so the threshold must rise
        // repeatedly and every ball must still land.
        let cfg = EngineConfig::new(2, 32, 3).seed(7).rounds();
        let mut e = Engine::by_name("double", cfg).unwrap();
        let ops: Vec<Op> = (0..256u64).map(Op::Insert).collect();
        assert_eq!(e.apply_batch(&ops).inserts, 256);
        assert_eq!(e.total_balls(), 256);
        let report = e.take_round_report().unwrap();
        assert!(report.max_load >= 4, "max load {}", report.max_load);
        assert_eq!(report.max_rounds_per_batch, report.rounds);
    }

    #[test]
    fn take_round_report_is_none_outside_rounds_mode() {
        let mut e = engine(2, WorkerMode::Sequential);
        assert!(e.take_round_report().is_none());
    }
}
