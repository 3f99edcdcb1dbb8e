//! The daemon: TCP accept loop, sharded dispatch, per-connection ordered
//! writers, batched telemetry flushes, and the always-on flight recorder.
//!
//! Thread shape (all scoped, all `std`):
//!
//! ```text
//! accept loop ──spawns──▶ connection reader ──┐ (Job via mpsc)
//!                                             ▼
//!                               shard workers 0..N  (one queue each)
//!                                             │ (seq, line)
//!                                             ▼
//!                         per-connection writer (reorders by seq)
//! ```
//!
//! Determinism across shard counts: a request is assigned to shard
//! `program_hash % shards` (conform: `seed % shards`), but a shard never
//! contributes anything to a response — it only decides *where* the pure
//! function [`ops::execute`] runs, and the per-connection writer restores
//! request order with sequence numbers. Changing `--shards` therefore
//! changes scheduling, never bytes; `bench --serve` hard-fails if that
//! ever stops being true. The same discipline extends to telemetry: the
//! flight recorder and per-shard metric registries observe requests, they
//! never touch response bytes, so recording is always on.
//!
//! Failure containment: program resolution (assembly, compilation) on
//! the connection thread and request execution on a worker both run
//! under `catch_unwind`, so a panicking request yields a `serve-err-v1`
//! response of kind `panic` and the connection and shard live on. A
//! worker panic also makes the daemon drain the flight recorder into a
//! `flight-v1` black-box dump (same for a configurable streak of
//! budget-exceeded responses, and on demand via the `dump` op for
//! external triggers like a sentinel-drift alarm).
//! Budget violations and simulation faults are ordinary error responses
//! from [`ops::execute`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use liquid_simd_trace::{FlightEvent, FlightRecorder, FlightStage, Json, Metrics};

use crate::cache::{BuildCache, CacheEntry, ProgramEntry, TranslationCache};
use crate::inspect;
use crate::ops::{self, OpOutput};
use crate::proto::{self, Op, Request};
use crate::record::{Lookup, Tally};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker shard count (floored to 1).
    pub shards: usize,
    /// History file for `perfhist-serve-v1` batch records (`None` = no
    /// telemetry).
    pub history: Option<PathBuf>,
    /// Flush a batch record every this many requests (`0` = only the
    /// final flush at shutdown; default 64, which `serve --history-every`
    /// also defaults to).
    pub history_every: usize,
    /// Execution backend every shard simulates with (`serve --backend`).
    /// Simulation results are backend-independent, so this only changes
    /// daemon throughput (and the backend tag and block stats in `explain`
    /// output). The default stays the interpreter although the simulator's
    /// default is the superblock: `explain` replies are compared against
    /// interpreter replays, and those replies name the backend.
    pub backend: liquid_simd::BackendKind,
    /// Per-shard flight-recorder ring capacity in events (`0` disables
    /// recording, as `bench --serve --measure-recorder`'s recorder-off
    /// pass does; the recorder is otherwise always on).
    pub flight_capacity: usize,
    /// Directory receiving `flight-v1` dump files (`None` = incidents are
    /// still contained, just not dumped).
    pub flight_dir: Option<PathBuf>,
    /// Honor test-only `"inject"` request fields (`serve --inject-faults`)
    /// — off by default so production daemons cannot be panicked remotely.
    pub inject_faults: bool,
    /// Dump the flight recorder after this many *consecutive*
    /// budget-exceeded responses (`0` disables the burst trigger).
    pub burst_threshold: u64,
    /// Translation-cache entry bound (`0` = unbounded; see
    /// [`TranslationCache::with_capacity`]).
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            history: None,
            history_every: 64,
            backend: liquid_simd::BackendKind::Interp,
            flight_capacity: liquid_simd_trace::DEFAULT_FLIGHT_CAPACITY,
            flight_dir: None,
            inject_faults: false,
            burst_threshold: 8,
            cache_capacity: 0,
        }
    }
}

/// What a daemon did with its life, returned when it exits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeSummary {
    /// Requests answered (errors included, stats/shutdown included).
    pub requests: u64,
    /// `serve-err-v1` responses.
    pub errors: u64,
    /// Translation-cache hits.
    pub cache_hits: u64,
    /// Translation-cache misses.
    pub cache_misses: u64,
    /// History records appended.
    pub records_appended: u64,
    /// `flight-v1` dump files written.
    pub dumps: u64,
    /// Final determinism hashes (requests, responses) and cycle total.
    pub determinism: (u64, u64, u64),
}

impl ServeSummary {
    /// Translation-cache hits as a fraction of all lookups.
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        Tally {
            hits: self.cache_hits,
            misses: self.cache_misses,
            ..Tally::default()
        }
        .hit_rate()
    }
}

/// One shard's telemetry: the tally of the requests it answered and a
/// metric registry (counters + histograms) merged from them, under one
/// lock. Registries merge across shards in ascending shard order for the
/// `inspect` snapshot.
#[derive(Default)]
struct ShardStat {
    tally: Tally,
    metrics: Metrics,
}

/// Shared daemon state.
struct State {
    opts: ServeOptions,
    builds: BuildCache,
    cache: TranslationCache,
    recorder: FlightRecorder,
    shard_stats: Vec<Mutex<ShardStat>>,
    /// Requests answered on a connection thread: stats, inspect, dump,
    /// shutdown, invalid lines and build failures.
    front: Mutex<Tally>,
    /// The totals at the last batch flush.
    flushed: Mutex<Tally>,
    shutdown: AtomicBool,
    records_appended: AtomicU64,
    dumps: AtomicU64,
    budget_streak: AtomicU64,
    started: Instant,
}

impl State {
    fn new(opts: ServeOptions) -> State {
        let shards = opts.shards.max(1);
        State {
            recorder: FlightRecorder::new(shards, opts.flight_capacity, opts.backend.name()),
            shard_stats: (0..shards).map(|_| Mutex::default()).collect(),
            cache: TranslationCache::with_capacity(opts.cache_capacity),
            opts,
            builds: BuildCache::default(),
            front: Mutex::default(),
            flushed: Mutex::default(),
            shutdown: AtomicBool::new(false),
            records_appended: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            budget_streak: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn shard(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardStat> {
        self.shard_stats[shard]
            .lock()
            .expect("shard stats poisoned")
    }

    /// The daemon's totals (the front tally merged with every shard's)
    /// and each shard's own tally, in shard order.
    fn tallies(&self) -> (Tally, Vec<Tally>) {
        let mut totals = self.front.lock().expect("front tally poisoned").clone();
        let shards: Vec<Tally> = (0..self.shard_stats.len())
            .map(|i| self.shard(i).tally.clone())
            .collect();
        for t in &shards {
            totals.merge(t);
        }
        (totals, shards)
    }

    /// Tallies one request answered on a connection thread.
    fn answered_front(&self, op: &str, ok: bool) {
        self.front
            .lock()
            .expect("front tally poisoned")
            .answered(op, ok);
        self.flush_due();
    }

    /// Flushes a batch record once `history_every` requests were answered
    /// since the last flush.
    fn flush_due(&self) {
        if self.opts.history_every > 0 {
            self.flush_batch(self.opts.history_every as u64);
        }
    }

    /// Appends one `perfhist-serve-v1` record — the totals minus the
    /// totals at the last flush — when at least `min` (≥ 1) requests were
    /// answered since. No-op when telemetry is off.
    fn flush_batch(&self, min: u64) {
        let Some(history) = &self.opts.history else {
            return;
        };
        let rec = {
            let mut flushed = self.flushed.lock().expect("flushed tally poisoned");
            let (totals, _) = self.tallies();
            if totals.requests - flushed.requests < min {
                return;
            }
            let rec =
                crate::record::build(self.opts.shards, &totals, &flushed, self.cache.entries());
            *flushed = totals;
            rec
        };
        match liquid_simd_perfhist::store::append(history, &rec) {
            Ok(()) => {
                self.records_appended.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("liquid-simd serve: history append failed: {e}"),
        }
    }

    fn stats_body(&self) -> String {
        let (totals, shards) = self.tallies();
        let per_shard = shards.iter().enumerate().map(|(i, t)| {
            Json::obj([
                ("shard", i.into()),
                ("requests", t.requests.into()),
                ("errors", t.errors.into()),
                (
                    "cache",
                    Json::obj([
                        ("hits", t.hits.into()),
                        ("misses", t.misses.into()),
                        ("inserts", t.inserts.into()),
                        ("evictions", t.evictions.into()),
                    ]),
                ),
            ])
        });
        proto::ok_body(
            Op::Stats,
            vec![
                ("backend", self.opts.backend.name().into()),
                ("shards", self.opts.shards.into()),
                ("requests", totals.requests.into()),
                ("errors", totals.errors.into()),
                (
                    "cache",
                    Json::obj([
                        ("hits", totals.hits.into()),
                        ("misses", totals.misses.into()),
                        ("entries", self.cache.entries().into()),
                        ("capacity", self.cache.capacity().into()),
                        ("generation", self.cache.generation().into()),
                        ("evictions", totals.evictions.into()),
                        ("hit_rate", Json::f64(totals.hit_rate())),
                    ]),
                ),
                ("builds", self.builds.len().into()),
                ("per_shard", Json::arr(per_shard)),
            ],
        )
    }

    /// The `metrics-v1` snapshot behind the `inspect` op: cumulative
    /// counters, per-shard registries merged in ascending shard order,
    /// cache and flight-recorder state. Built before the inspect request
    /// itself is tallied, so a snapshot after a fixed load reflects
    /// exactly that load.
    fn inspect_body(&self) -> String {
        let (totals, _) = self.tallies();
        let by_op = Json::obj(totals.by_op.iter().map(|(k, &v)| (k.clone(), v.into())));
        // Deterministic merge order: ascending shard index. Counter and
        // bucket addition is commutative, so the merged registry is also
        // independent of how requests were scheduled onto shards.
        let mut merged = Metrics::new();
        for i in 0..self.shard_stats.len() {
            merged.merge(&self.shard(i).metrics);
        }
        let (counters, histograms) = inspect::registry_json(&merged);
        let uptime_us = self.started.elapsed().as_micros() as u64;
        let doc = Json::obj([
            ("schema", inspect::METRICS_SCHEMA.into()),
            ("backend", self.opts.backend.name().into()),
            ("shards", self.opts.shards.into()),
            ("uptime_us", uptime_us.into()),
            (
                "requests",
                Json::obj([
                    ("total", totals.requests.into()),
                    ("errors", totals.errors.into()),
                    ("by_op", by_op),
                ]),
            ),
            ("determinism", totals.determinism_json()),
            (
                "cache",
                Json::obj([
                    ("builds", self.builds.len().into()),
                    (
                        "translations",
                        Json::obj([
                            ("entries", self.cache.entries().into()),
                            ("capacity", self.cache.capacity().into()),
                            ("generation", self.cache.generation().into()),
                            ("evictions", totals.evictions.into()),
                            ("hits", totals.hits.into()),
                            ("misses", totals.misses.into()),
                            ("hit_rate", Json::f64(totals.hit_rate())),
                        ]),
                    ),
                ]),
            ),
            (
                "flight",
                Json::obj([
                    ("capacity", self.recorder.capacity().into()),
                    ("events", self.recorder.events().into()),
                    ("dropped", self.recorder.dropped().into()),
                    ("contended", self.recorder.contended().into()),
                ]),
            ),
            ("counters", counters),
            ("histograms", histograms),
        ]);
        proto::ok_body(Op::Inspect, vec![("metrics", doc)])
    }

    /// Drains the flight recorder into `flight-<n>-<reason>.jsonl` (plus a
    /// `.folded` flamegraph sidecar) under the configured dump directory.
    fn dump_flight(&self, reason: &str) -> Result<(PathBuf, u64), String> {
        let dir = self.opts.flight_dir.clone().ok_or_else(|| {
            "no flight dump directory configured (serve --flight-dir)".to_string()
        })?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let records = self.recorder.drain();
        let idx = self.dumps.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("flight-{idx:03}-{slug}.jsonl"));
        std::fs::write(&path, self.recorder.dump(reason, &records))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let folded = liquid_simd_trace::flight::folded_events("serve", &records);
        let folded_path = path.with_extension("folded");
        std::fs::write(&folded_path, folded)
            .map_err(|e| format!("write {}: {e}", folded_path.display()))?;
        Ok((path, records.len() as u64))
    }

    fn summary(&self) -> ServeSummary {
        let (totals, _) = self.tallies();
        ServeSummary {
            requests: totals.requests,
            errors: totals.errors,
            cache_hits: totals.hits,
            cache_misses: totals.misses,
            records_appended: self.records_appended.load(Ordering::Relaxed),
            dumps: self.dumps.load(Ordering::Relaxed),
            determinism: (
                totals.requests_hash,
                totals.responses_hash,
                totals.sim_cycles_total,
            ),
        }
    }
}

/// The request id as flight-event text (numbers render raw, no id = "").
fn id_text(id: Option<&Json>) -> String {
    match id {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.write(),
    }
}

/// One unit of shard work: a resolved request plus its reply route.
struct Job {
    seq: u64,
    req: Request,
    program: Option<Arc<ProgramEntry>>,
    key: String,
    arrived: Instant,
    reply: mpsc::Sender<(u64, String)>,
}

/// A running daemon.
pub struct ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub addr: SocketAddr,
    join: std::thread::JoinHandle<ServeSummary>,
    state: Arc<State>,
}

impl ServerHandle {
    /// Requests shutdown without a client connection (same effect as a
    /// `shutdown` op).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
    }

    /// Waits for the daemon to exit and returns its lifetime summary.
    ///
    /// # Errors
    ///
    /// Reports a panicked daemon thread (which would be a bug — workers
    /// contain panics).
    pub fn join(self) -> Result<ServeSummary, String> {
        self.join
            .join()
            .map_err(|_| "serve daemon thread panicked".to_string())
    }
}

/// Binds `opts.addr` and starts the daemon on a background thread.
///
/// # Errors
///
/// Returns a message if the address cannot be bound.
pub fn spawn(opts: ServeOptions) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shards = opts.shards.max(1);
    let state = Arc::new(State::new(ServeOptions { shards, ..opts }));
    let thread_state = Arc::clone(&state);
    let join = std::thread::spawn(move || run_loop(&listener, &thread_state));
    Ok(ServerHandle { addr, join, state })
}

fn run_loop(listener: &TcpListener, state: &Arc<State>) -> ServeSummary {
    let shards = state.opts.shards;
    let mut senders = Vec::with_capacity(shards);
    let mut receivers = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel::<Job>();
        senders.push(tx);
        receivers.push(rx);
    }
    std::thread::scope(|scope| {
        for (shard, rx) in receivers.into_iter().enumerate() {
            scope.spawn(move || shard_worker(rx, shard, state));
        }
        loop {
            if state.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let txs = senders.clone();
                    scope.spawn(|| connection(stream, txs, state));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    eprintln!("liquid-simd serve: accept failed: {e}");
                    break;
                }
            }
        }
        // Closing the original senders lets each shard drain its queue and
        // exit once the connection threads (which hold clones) finish.
        drop(senders);
    });
    state.flush_batch(1);
    state.summary()
}

fn shard_worker(rx: mpsc::Receiver<Job>, shard: usize, state: &State) {
    while let Ok(job) = rx.recv() {
        let (entry, lookup) = answer(&job, shard, state);
        let output = &entry.output;
        let latency = job.arrived.elapsed().as_micros() as u64;
        // The counter snapshot inside the entry is a pure function of the
        // request, so merging it per *request* (hit or miss alike) keeps
        // the merged registry independent of shard count and cache
        // schedule.
        {
            let mut stat = state.shard(shard);
            stat.tally
                .served(job.req.op.name(), &job.key, output, lookup);
            let m = &mut stat.metrics;
            for (name, &v) in &output.counters {
                m.add(&format!("sim.{name}"), v);
            }
            m.observe("request.cycles", output.cycles, &inspect::cycle_bounds());
            m.observe("wall.latency_us", latency, &inspect::latency_bounds());
        }
        state.recorder.record(
            shard,
            FlightEvent::new(
                &id_text(job.req.id.as_ref()),
                job.req.op.name(),
                FlightStage::Respond,
            )
            .ok(output.ok)
            .detail(&output.kind)
            .cycles(output.cycles)
            .generation(state.cache.generation()),
        );
        // Black-box triggers. A panic entry dumps only when freshly
        // computed — a cache hit on an old panic is not a new incident.
        if lookup != Lookup::Hit && output.kind == "panic" {
            report_dump(state.dump_flight("worker-panic"), "worker panic");
        }
        if output.kind == "budget-exceeded" {
            let streak = state.budget_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if state.opts.burst_threshold > 0 && streak == state.opts.burst_threshold {
                report_dump(state.dump_flight("budget-burst"), "budget burst");
            }
        } else {
            state.budget_streak.store(0, Ordering::Relaxed);
        }
        state.flush_due();
        let line = proto::with_id(&output.body, job.req.id.as_ref());
        // A dropped receiver means the client went away; nothing to do.
        let _ = job.reply.send((job.seq, line));
    }
}

/// Logs a dump attempt's outcome without failing the request path.
fn report_dump(result: Result<(PathBuf, u64), String>, what: &str) {
    match result {
        Ok((path, events)) => {
            eprintln!(
                "liquid-simd serve: {what}: dumped {events} flight events to {}",
                path.display()
            );
        }
        Err(e) => eprintln!("liquid-simd serve: {what}: flight dump skipped: {e}"),
    }
}

/// Runs `f`, containing a panic as `Err` with the panic's message (or a
/// placeholder for a non-string payload). Every stage that runs request
/// code on a daemon thread goes through here, so a panic becomes a
/// `panic` reply instead of a dead thread or a dropped connection.
fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload")
            .to_string()
    })
}

/// Computes (or cache-hits) the response for one shard job, containing
/// any panic as a `serve-err-v1` of kind `panic`. Returns the entry and
/// what the request did at the translation cache.
fn answer(job: &Job, shard: usize, state: &State) -> (Arc<CacheEntry>, Lookup) {
    let id = id_text(job.req.id.as_ref());
    let op = job.req.op.name();
    let probe_gen = state.cache.generation();
    if let Some(hit) = state.cache.lookup(&job.key) {
        state.recorder.record(
            shard,
            FlightEvent::new(&id, op, FlightStage::Probe)
                .detail("hit")
                .generation(probe_gen),
        );
        return (hit, Lookup::Hit);
    }
    state.recorder.record(
        shard,
        FlightEvent::new(&id, op, FlightStage::Probe)
            .detail("miss")
            .generation(probe_gen),
    );
    state
        .recorder
        .record(shard, FlightEvent::new(&id, op, FlightStage::Translate));
    // A `translate` entry keeps the microcode its run left resident: the
    // entry *is* the service's microcode cache line, preloadable by a
    // future execution layer. Conform carries no program; execute() never
    // reads the placeholder.
    let computed = contain(|| match &job.program {
        Some(entry) => {
            ops::execute_entry(&job.req, &entry.program, &entry.name, state.opts.backend)
        }
        None => ops::execute_entry(
            &job.req,
            &ops::assemble_inline(".text\nmain:\n    halt\n")
                .expect("placeholder program assembles"),
            "<none>",
            state.opts.backend,
        ),
    });
    let entry = match computed {
        Ok(entry) => {
            state.recorder.record(
                shard,
                FlightEvent::new(&id, op, FlightStage::Execute)
                    .ok(entry.output.ok)
                    .detail(state.opts.backend.name())
                    .cycles(entry.output.cycles),
            );
            entry
        }
        Err(msg) => {
            state.recorder.record(
                shard,
                FlightEvent::new(&id, op, FlightStage::Panic)
                    .ok(false)
                    .detail(&msg),
            );
            CacheEntry {
                output: OpOutput {
                    body: proto::err_body(Some(job.req.op), "panic", &msg),
                    ok: false,
                    cycles: 0,
                    kind: "panic".to_string(),
                    counters: BTreeMap::new(),
                },
                microcode: Vec::new(),
            }
        }
    };
    let (arc, inserted, evicted) = state.cache.insert(&job.key, entry);
    (arc, Lookup::Miss { inserted, evicted })
}

/// Reads request lines, resolves programs, dispatches to shards, and
/// joins its ordered writer before returning.
fn connection(stream: TcpStream, shard_txs: Vec<mpsc::Sender<Job>>, state: &State) {
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, String)>();
    let writer = std::thread::spawn(move || ordered_writer(write_stream, &reply_rx));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seq: u64 = 0;
    loop {
        // Never buffer more than one byte past the cap: a line that
        // reaches it without a newline is refused, not grown.
        let room = (proto::MAX_REQUEST_LINE + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > proto::MAX_REQUEST_LINE => {
                let msg = format!("request line exceeds {} bytes", proto::MAX_REQUEST_LINE);
                reject(&msg, seq, state, &reply_tx);
                break;
            }
            Ok(_) => {
                if !line.trim().is_empty() {
                    handle_line(
                        line.trim_end_matches(['\r', '\n']),
                        seq,
                        &shard_txs,
                        state,
                        &reply_tx,
                    );
                    seq += 1;
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // `read_line` preserves bytes already appended to `line`,
                // so retrying cannot tear a request across reads.
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(reply_tx);
    drop(shard_txs);
    // Joining the writer blocks until every in-flight job for this
    // connection has replied and been flushed.
    let _ = writer.join();
}

/// Answers a line that is not a request (malformed or oversized) with a
/// `bad-request` error, recorded and tallied under the `invalid` op.
fn reject(msg: &str, seq: u64, state: &State, reply_tx: &mpsc::Sender<(u64, String)>) {
    state.recorder.record(
        0,
        FlightEvent::new("", "invalid", FlightStage::Parse)
            .ok(false)
            .detail(msg),
    );
    state.recorder.record(
        0,
        FlightEvent::new("", "invalid", FlightStage::Respond).ok(false),
    );
    state.answered_front("invalid", false);
    let _ = reply_tx.send((seq, proto::err_body(None, "bad-request", msg)));
}

/// Parses one request line and routes it: immediate front-end answers for
/// stats/inspect/dump/shutdown/bad requests, shard dispatch for
/// deterministic ops. Front-end lifecycle events land on shard ring 0
/// (they have no shard of their own); dispatched requests record their
/// accept/parse/build events on their destination shard's ring so an
/// incident dump shows each request's full story in one place.
fn handle_line(
    line: &str,
    seq: u64,
    shard_txs: &[mpsc::Sender<Job>],
    state: &State,
    reply_tx: &mpsc::Sender<(u64, String)>,
) {
    let arrived = Instant::now();
    let front = |body: String, id: Option<&Json>, op: &str, ok: bool| {
        state.recorder.record(
            0,
            FlightEvent::new(&id_text(id), op, FlightStage::Respond).ok(ok),
        );
        state.answered_front(op, ok);
        let _ = reply_tx.send((seq, proto::with_id(&body, id)));
    };
    let req = match proto::parse_request(line) {
        Ok(req) => req,
        Err(msg) => return reject(&msg, seq, state, reply_tx),
    };
    if req.inject_panic && !state.opts.inject_faults {
        front(
            proto::err_body(
                Some(req.op),
                "bad-request",
                "fault injection is disabled (start the daemon with --inject-faults)",
            ),
            req.id.as_ref(),
            req.op.name(),
            false,
        );
        return;
    }
    match req.op {
        Op::Stats => front(state.stats_body(), req.id.as_ref(), Op::Stats.name(), true),
        Op::Inspect => {
            // Render before tallying: the snapshot reflects every request
            // answered so far, not itself.
            let body = state.inspect_body();
            front(body, req.id.as_ref(), Op::Inspect.name(), true);
        }
        Op::Dump => {
            let reason = req.reason.clone().unwrap_or_else(|| "manual".to_string());
            match state.dump_flight(&reason) {
                Ok((path, events)) => front(
                    proto::ok_body(
                        Op::Dump,
                        vec![
                            ("reason", reason.into()),
                            ("path", path.display().to_string().into()),
                            ("events", events.into()),
                        ],
                    ),
                    req.id.as_ref(),
                    Op::Dump.name(),
                    true,
                ),
                Err(msg) => front(
                    proto::err_body(Some(Op::Dump), "no-flight-dir", &msg),
                    req.id.as_ref(),
                    Op::Dump.name(),
                    false,
                ),
            }
        }
        Op::Shutdown => {
            state.shutdown.store(true, Ordering::Relaxed);
            front(
                proto::ok_body(Op::Shutdown, Vec::new()),
                req.id.as_ref(),
                Op::Shutdown.name(),
                true,
            );
        }
        Op::Translate | Op::Run | Op::Explain | Op::Conform => {
            let program = if req.op == Op::Conform {
                None
            } else {
                // Assembly and compilation run request input on this
                // connection thread, inside the workers' panic boundary.
                let resolved = match contain(|| match (&req.workload, &req.program) {
                    (Some(name), _) => state.builds.workload(name),
                    (None, Some(src)) => state.builds.inline(src, req.name.as_deref()),
                    (None, None) => Err("missing program".to_string()),
                }) {
                    Ok(Ok(entry)) => Ok(entry),
                    Ok(Err(msg)) => Err((FlightStage::Build, "bad-request", msg)),
                    Err(msg) => Err((FlightStage::Panic, "panic", msg)),
                };
                match resolved {
                    Ok(entry) => Some(entry),
                    Err((stage, kind, msg)) => {
                        state.recorder.record(
                            0,
                            FlightEvent::new(&id_text(req.id.as_ref()), req.op.name(), stage)
                                .ok(false)
                                .detail(&msg),
                        );
                        front(
                            proto::err_body(Some(req.op), kind, &msg),
                            req.id.as_ref(),
                            req.op.name(),
                            false,
                        );
                        return;
                    }
                }
            };
            let prog_hash = program.as_ref().map_or(req.seed, |p| p.hash);
            let cfg_hash = ops::machine_config(req.mode, req.lanes, req.jit).fingerprint();
            let key = proto::canonical_key(&req, prog_hash, cfg_hash);
            let shard = (prog_hash % shard_txs.len() as u64) as usize;
            let id = id_text(req.id.as_ref());
            let op = req.op.name();
            state
                .recorder
                .record(shard, FlightEvent::new(&id, op, FlightStage::Accept));
            state
                .recorder
                .record(shard, FlightEvent::new(&id, op, FlightStage::Parse));
            state.recorder.record(
                shard,
                FlightEvent::new(&id, op, FlightStage::Build).detail(&format!("{prog_hash:016x}")),
            );
            let job = Job {
                seq,
                req,
                program,
                key,
                arrived,
                reply: reply_tx.clone(),
            };
            // A send can only fail after shutdown closed the shard; the
            // writer then simply never sees this seq, and the connection
            // is going away anyway.
            let _ = shard_txs[shard].send(job);
        }
    }
}

/// Writes `(seq, line)` replies to the socket in strict `seq` order,
/// buffering out-of-order arrivals — the piece that makes per-connection
/// responses independent of shard scheduling.
fn ordered_writer(mut stream: TcpStream, rx: &mpsc::Receiver<(u64, String)>) {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next_seq: u64 = 0;
    while let Ok((seq, line)) = rx.recv() {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next_seq) {
            if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
            next_seq += 1;
        }
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for l in lines {
            stream.write_all(format!("{l}\n").as_bytes()).unwrap();
        }
        let reader = BufReader::new(stream);
        reader
            .lines()
            .take(lines.len())
            .map(|l| l.expect("response line"))
            .collect()
    }

    /// Like [`client`], but sends each line only after the previous reply
    /// arrived, so no two requests of the connection are in flight at once.
    fn client_in_turn(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        lines
            .iter()
            .map(|l| {
                stream.write_all(format!("{l}\n").as_bytes()).unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("response line");
                reply.trim_end().to_string()
            })
            .collect()
    }

    #[test]
    fn responses_preserve_request_order_and_echo_ids() {
        let handle = spawn(ServeOptions {
            shards: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let lines: Vec<String> = vec![
            r#"{"op":"run","workload":"fir","id":"a"}"#.to_string(),
            r#"{"op":"run","workload":"fft","id":"b"}"#.to_string(),
            r#"{"op":"stats","id":"c"}"#.to_string(),
            r#"{"op":"shutdown","id":"d"}"#.to_string(),
        ];
        let responses = client(handle.addr, &lines);
        assert_eq!(responses.len(), 4);
        for (resp, id) in responses.iter().zip(["a", "b", "c", "d"]) {
            let doc = Json::parse(resp).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_str), Some(id), "{resp}");
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
        }
        let summary = handle.join().unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn a_translate_entry_caches_the_microcode_of_its_one_run() {
        let state = State::new(ServeOptions::default());
        let program = state.builds.workload("fir").unwrap();
        let (reply, _replies) = mpsc::channel();
        let job = Job {
            seq: 0,
            req: proto::parse_request(r#"{"op":"translate","workload":"fir","width":8}"#).unwrap(),
            program: Some(Arc::clone(&program)),
            key: "translate-fir-8".to_string(),
            arrived: Instant::now(),
            reply,
        };
        let (entry, lookup) = answer(&job, 0, &state);
        assert!(matches!(lookup, Lookup::Miss { .. }));
        let config = liquid_simd::MachineConfig::liquid(8).with_backend(state.opts.backend);
        let mut fresh = liquid_simd::Machine::new(&program.program, config);
        fresh.run().unwrap();
        assert!(!entry.microcode.is_empty());
        assert_eq!(entry.microcode, fresh.microcode_snapshot());
        let (hit, lookup) = answer(&job, 0, &state);
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&hit, &entry));
    }

    #[test]
    fn repeat_requests_hit_the_translation_cache() {
        let handle = spawn(ServeOptions::default()).unwrap();
        let lines: Vec<String> = (0..5)
            .map(|i| format!(r#"{{"op":"translate","workload":"fir","width":8,"id":{i}}}"#))
            .collect();
        let responses = client(handle.addr, &lines);
        // All five translate responses are byte-identical apart from ids.
        let strip = |s: &str| {
            Json::parse(s).map(|mut d| {
                d.remove("id");
                d.write()
            })
        };
        let first = strip(&responses[0]).unwrap();
        for r in &responses[1..5] {
            assert_eq!(strip(r).unwrap(), first);
        }
        // Stats reflect the counters at arrival time, so ask only after
        // every translate response has been read back.
        let stats_resp = client(handle.addr, &[r#"{"op":"stats","id":"s"}"#.to_string()]);
        let stats = Json::parse(&stats_resp[0]).unwrap();
        let cache = stats.get("cache").unwrap();
        assert!(cache.get("hits").and_then(Json::as_u64).unwrap() >= 4);
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("evictions").and_then(Json::as_u64), Some(0));
        assert_eq!(cache.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats.get("backend").and_then(Json::as_str),
            Some("interp"),
            "stats echoes the backend tag"
        );
        let per_shard = stats.get("per_shard").and_then(Json::as_arr).unwrap();
        assert_eq!(per_shard.len(), 4, "one entry per shard");
        let answered: u64 = per_shard
            .iter()
            .filter_map(|s| s.get("requests").and_then(Json::as_u64))
            .sum();
        assert_eq!(answered, 5, "all translates answered by shards");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn bad_requests_and_budgets_answer_gracefully() {
        let handle = spawn(ServeOptions::default()).unwrap();
        let lines: Vec<String> = vec![
            "this is not json".to_string(),
            r#"{"op":"run","workload":"no-such-workload","id":1}"#.to_string(),
            r#"{"op":"run","workload":"fir","budget_cycles":10,"id":2}"#.to_string(),
            r#"{"op":"run","workload":"fir","id":3}"#.to_string(),
        ];
        let responses = client(handle.addr, &lines);
        let kinds: Vec<Option<String>> = responses
            .iter()
            .map(|r| {
                Json::parse(r)
                    .unwrap()
                    .get("kind")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(kinds[0].as_deref(), Some("bad-request"));
        assert_eq!(kinds[1].as_deref(), Some("bad-request"));
        assert_eq!(kinds[2].as_deref(), Some("budget-exceeded"));
        assert_eq!(
            kinds[3], None,
            "healthy request still served: {}",
            responses[3]
        );
        handle.shutdown();
        let summary = handle.join().unwrap();
        assert_eq!(summary.errors, 3);
    }

    #[test]
    fn inject_is_rejected_without_the_flag() {
        let handle = spawn(ServeOptions::default()).unwrap();
        let responses = client(
            handle.addr,
            &[r#"{"op":"run","workload":"fir","inject":"panic","id":"x"}"#.to_string()],
        );
        let doc = Json::parse(&responses[0]).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));
        let err = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("--inject-faults"), "{err}");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn contain_turns_a_panic_into_its_message() {
        assert_eq!(contain(|| 7), Ok(7));
        assert_eq!(
            contain(|| -> u32 { panic!("static message") }),
            Err("static message".to_string())
        );
        let n = 3;
        assert_eq!(
            contain(|| -> u32 { panic!("formatted {n}") }),
            Err("formatted 3".to_string())
        );
        assert_eq!(
            contain(|| -> u32 { std::panic::panic_any(5u8) }),
            Err("opaque panic payload".to_string())
        );
    }

    #[test]
    fn injected_panic_is_contained_and_dumped() {
        let dir =
            std::env::temp_dir().join(format!("liquid-simd-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = spawn(ServeOptions {
            shards: 2,
            inject_faults: true,
            flight_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        let lines: Vec<String> = vec![
            r#"{"op":"run","workload":"fir","id":"healthy-1"}"#.to_string(),
            r#"{"op":"run","workload":"fir","inject":"panic","id":"boom"}"#.to_string(),
            r#"{"op":"run","workload":"fir","id":"healthy-2"}"#.to_string(),
        ];
        // One request at a time: the worker records `respond` before it
        // sends the reply, so the connection thread's `accept`/`parse` of
        // the next request never collides with a worker write on the same
        // flight ring (a collision drops the event by design). Ordering
        // under pipelining is `responses_preserve_request_order_and_echo_ids`.
        let responses = client_in_turn(handle.addr, &lines);
        let kind_of = |r: &str| {
            Json::parse(r)
                .unwrap()
                .get("kind")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(kind_of(&responses[0]), None);
        assert_eq!(kind_of(&responses[1]).as_deref(), Some("panic"));
        assert_eq!(kind_of(&responses[2]), None, "shard survives the panic");
        handle.shutdown();
        let summary = handle.join().unwrap();
        assert_eq!(summary.dumps, 1, "one worker-panic dump");
        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
            .expect("dump file written");
        let text = std::fs::read_to_string(dump.path()).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schema\":\"flight-v1\""));
        assert!(header.contains("\"reason\":\"worker-panic\""));
        assert!(header.contains("\"contended\":0"), "{header}");
        // The failing request's lifecycle is in the dump, through panic.
        for stage in ["accept", "parse", "build", "probe", "translate", "panic"] {
            assert!(
                text.lines().any(|l| l.contains("\"id\":\"boom\"")
                    && l.contains(&format!("\"stage\":\"{stage}\""))),
                "dump missing boom/{stage}:\n{text}"
            );
        }
        assert!(
            dump.path().with_extension("folded").exists(),
            "folded sidecar written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_burst_triggers_a_dump() {
        let dir =
            std::env::temp_dir().join(format!("liquid-simd-burst-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = spawn(ServeOptions {
            burst_threshold: 3,
            flight_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        let lines: Vec<String> = (0..4)
            .map(|i| format!(r#"{{"op":"run","workload":"fir","budget_cycles":10,"id":{i}}}"#))
            .collect();
        let responses = client(handle.addr, &lines);
        assert!(responses
            .iter()
            .all(|r| r.contains("\"kind\":\"budget-exceeded\"")));
        handle.shutdown();
        let summary = handle.join().unwrap();
        assert_eq!(summary.dumps, 1, "exactly one dump at the threshold");
        let burst = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().contains("budget-burst"));
        assert!(burst, "dump file names its reason");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_returns_a_metrics_snapshot_and_dump_op_works() {
        let dir =
            std::env::temp_dir().join(format!("liquid-simd-inspect-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = spawn(ServeOptions {
            flight_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        let warm: Vec<String> = vec![
            r#"{"op":"run","workload":"fir","id":"a"}"#.to_string(),
            r#"{"op":"run","workload":"fir","id":"b"}"#.to_string(),
        ];
        let _ = client(handle.addr, &warm);
        let responses = client(
            handle.addr,
            &[
                r#"{"op":"inspect","id":"i"}"#.to_string(),
                r#"{"op":"dump","reason":"sentinel-drift","id":"d"}"#.to_string(),
            ],
        );
        let doc = Json::parse(&responses[0]).unwrap();
        let metrics = doc.get("metrics").expect("metrics field");
        assert_eq!(
            metrics.get("schema").and_then(Json::as_str),
            Some("metrics-v1")
        );
        assert_eq!(
            metrics
                .get("requests")
                .and_then(|r| r.get("total"))
                .and_then(Json::as_u64),
            Some(2),
            "snapshot sees the warm load, not itself"
        );
        let hist = metrics
            .get("histograms")
            .and_then(|h| h.get("request.cycles"))
            .expect("cycle histogram");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert!(
            metrics
                .get("counters")
                .and_then(|c| c.get("sim.cycles"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
            "merged sim counters present"
        );
        let dump = Json::parse(&responses[1]).unwrap();
        assert_eq!(dump.get("ok"), Some(&Json::Bool(true)), "{}", responses[1]);
        let path = dump.get("path").and_then(Json::as_str).unwrap();
        assert!(path.contains("sentinel-drift"));
        assert!(std::path::Path::new(path).exists());
        handle.shutdown();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
