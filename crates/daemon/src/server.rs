//! The resident analysis server.
//!
//! A [`Daemon`] binds a Unix-domain socket and serves the framed-JSON
//! protocol from one shared [`Engine`] + persist layer: every connection
//! gets its own thread, but all of them hit the same diagnostic cache,
//! context store, points-to constraint cache, and persist shards — so the
//! first client pays the cold solve and everyone after (and every repeat
//! request) is served from resident state. `notify_edit` keeps that state
//! alive *across* program states: the recorded query dependency edges
//! invalidate only the edited functions' reachable cone, and the rest of
//! the memoized artifacts carry over (see
//! [`Engine::apply_edit`]).

use crate::protocol::{
    error_response, invalidation_to_value, read_frame, response_ok, write_frame, PROTOCOL_VERSION,
};
use ivy_analysis::pointsto::{verify_derivations, Loc};
use ivy_blockstop::BlockStopChecker;
use ivy_ccount::CCountChecker;
use ivy_cmir::parser::parse_program;
use ivy_deputy::plugin::DeputyChecker;
use ivy_engine::{AnalysisCtx, Engine, EngineStats, PersistLayer, Report};
use serde_json::{Map, Value};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Socket path to bind (a stale file at this path is replaced).
    pub socket: PathBuf,
    /// Persist directory shared with batch runs and other workers; `None`
    /// runs memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Engine worker threads (0 = one per hardware thread).
    pub threads: usize,
    /// Record points-to derivations so the `explain` verb can answer.
    /// Equivalent to starting the process with `IVY_PROVENANCE=1`; the
    /// flag only ever widens the environment-derived solve options.
    pub provenance: bool,
    /// Deputy configuration for the served fleet. The default keeps
    /// daemon answers byte-comparable to batch runs; sessions that want
    /// the indirect-annotation drift check opt in here.
    pub deputy: ivy_deputy::DeputyConfig,
}

impl DaemonConfig {
    /// A daemon on `socket` with no persistence and default parallelism.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            cache_dir: None,
            threads: 0,
            provenance: false,
            deputy: ivy_deputy::DeputyConfig::default(),
        }
    }

    /// Attaches a persist directory (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> DaemonConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the engine thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> DaemonConfig {
        self.threads = threads;
        self
    }

    /// Enables derivation recording for the `explain` verb (builder style).
    pub fn with_provenance(mut self, on: bool) -> DaemonConfig {
        self.provenance = on;
        self
    }

    /// Serves the fleet with a non-default Deputy configuration (builder
    /// style), e.g. with `check_indirect_annotations` on.
    pub fn with_deputy(mut self, deputy: ivy_deputy::DeputyConfig) -> DaemonConfig {
        self.deputy = deputy;
        self
    }
}

/// The checker fleet — Deputy (at the given configuration), CCount, and
/// BlockStop. The *single* definition every serving path builds from:
/// the daemon ([`fleet_engine`]), batch mode
/// (`ivy_core::experiments::default_engine`), and the pipeline's
/// `recheck` fallback all call this, so their answers cannot drift.
pub fn fleet_checkers(deputy: ivy_deputy::DeputyConfig) -> Vec<Arc<dyn ivy_engine::Checker>> {
    vec![
        Arc::new(DeputyChecker::with_config(deputy)),
        Arc::new(CCountChecker::new()),
        Arc::new(BlockStopChecker::new()),
    ]
}

/// Builds the engine a daemon serves: the default checker fleet
/// ([`fleet_checkers`] at the default Deputy configuration) — the same
/// fleet batch mode runs, which is what makes daemon answers
/// byte-comparable to batch reports.
pub fn fleet_engine(threads: usize, persist: Option<Arc<PersistLayer>>) -> Engine {
    fleet_engine_with(threads, persist, ivy_deputy::DeputyConfig::default())
}

/// [`fleet_engine`] with an explicit Deputy configuration (the daemon
/// passes [`DaemonConfig::deputy`] through here).
pub fn fleet_engine_with(
    threads: usize,
    persist: Option<Arc<PersistLayer>>,
    deputy: ivy_deputy::DeputyConfig,
) -> Engine {
    let mut engine = Engine::new().with_threads(threads);
    for checker in fleet_checkers(deputy) {
        engine = engine.with_checker(checker);
    }
    match persist {
        Some(layer) => engine.with_persist(layer),
        None => engine,
    }
}

/// Requests at or above this duration land in the slow-request ring.
const SLOW_REQUEST_MICROS: u64 = 10_000;

/// Capacity of the slow-request ring: old entries fall off the front, so a
/// long-lived daemon holds the most recent slow requests, not the first.
const SLOW_RING_CAP: usize = 64;

/// One entry of the slow-request ring.
struct SlowRequest {
    verb: String,
    micros: u64,
    /// Milliseconds since the daemon started, so entries order themselves
    /// without a wall clock.
    at_ms: u64,
}

/// A bounded ring of the most recent slow requests: pushing at capacity
/// evicts the *oldest* entry, so a long-lived daemon always holds the
/// latest [`SlowRing::cap`] slow requests, never the first ones it saw.
struct SlowRing {
    entries: std::collections::VecDeque<SlowRequest>,
    cap: usize,
}

impl SlowRing {
    fn new(cap: usize) -> SlowRing {
        SlowRing {
            entries: std::collections::VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn push(&mut self, entry: SlowRequest) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    fn iter(&self) -> impl Iterator<Item = &SlowRequest> {
        self.entries.iter()
    }
}

/// Every verb the daemon meters, plus the `unknown` catch-all. The order
/// is the index order of [`VerbMetrics`] slots.
const VERBS: [&str; 8] = [
    "analyze",
    "diagnostics",
    "notify_edit",
    "explain",
    "stats",
    "metrics",
    "shutdown",
    "unknown",
];

/// Fixed log-scale latency bucket upper bounds, in microseconds. Fixed
/// bounds (rather than adaptive ones) keep the exposition stable across
/// snapshots and daemons, so dashboards can aggregate them.
const LATENCY_BUCKETS_MICROS: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// One verb's latency histogram: a non-cumulative count per bucket of
/// [`LATENCY_BUCKETS_MICROS`] (observations above the last bound land only
/// in `count`), plus a running sum for the mean.
struct LatencyHistogram {
    buckets: [AtomicU64; 12],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn observe(&self, micros: u64) {
        if let Some(slot) = LATENCY_BUCKETS_MICROS.iter().position(|&le| micros <= le) {
            self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as *cumulative* bucket counts (the Prometheus `le`
    /// convention) plus sum and count. The cumulative array is monotone
    /// non-decreasing and each entry is at most `count` by construction.
    fn snapshot(&self) -> ([u64; 12], u64, u64) {
        let mut cumulative = [0u64; 12];
        let mut running = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            running += bucket.load(Ordering::Relaxed);
            cumulative[slot] = running;
        }
        (
            cumulative,
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }

    /// The q-quantile estimate: the upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q * count)`. Observations past the
    /// last bound report the last bound (the histogram cannot resolve
    /// further); an empty histogram reports 0.
    fn quantile(cumulative: &[u64; 12], count: u64, q: f64) -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        for (slot, &cum) in cumulative.iter().enumerate() {
            if cum >= rank {
                return LATENCY_BUCKETS_MICROS[slot];
            }
        }
        LATENCY_BUCKETS_MICROS[LATENCY_BUCKETS_MICROS.len() - 1]
    }
}

/// Per-verb request counters and latency histograms, surfaced in `stats`
/// and `metrics` responses.
#[derive(Default)]
struct VerbMetrics {
    counts: [AtomicU64; 8],
    latency: [LatencyHistogram; 8],
}

impl VerbMetrics {
    fn index(verb: &str) -> usize {
        VERBS
            .iter()
            .position(|&v| v == verb)
            .unwrap_or(VERBS.len() - 1)
    }

    fn bump(&self, verb: &str) {
        self.counts[Self::index(verb)].fetch_add(1, Ordering::Relaxed);
    }

    fn observe(&self, verb: &str, micros: u64) {
        self.latency[Self::index(verb)].observe(micros);
    }

    fn snapshot(&self) -> [(&'static str, u64); 8] {
        std::array::from_fn(|slot| (VERBS[slot], self.counts[slot].load(Ordering::Relaxed)))
    }
}

/// Shared server state: the engine, the resident context the last
/// `analyze` left behind (the base `notify_edit` diffs against), and
/// request counters.
struct State {
    engine: Engine,
    persist: Option<Arc<PersistLayer>>,
    resident: Mutex<Option<Arc<AnalysisCtx>>>,
    /// Serializes `notify_edit` against in-flight analyzes. `apply_edit`
    /// snapshots the resident db's dependency edges and memo table; a
    /// compute racing that snapshot could publish a memo entry whose
    /// edges were not yet recorded, and the entry would be carried into
    /// the edited db as clean with a pre-edit value. Analyzes take the
    /// shared side (concurrent clients still run in parallel); an edit
    /// takes it exclusively and waits for them to drain.
    edit_gate: RwLock<()>,
    /// Clones of every open client stream (keyed by fd), so shutdown can
    /// unblock connections idling in a read instead of waiting on them
    /// forever.
    connections: Mutex<std::collections::HashMap<i32, UnixStream>>,
    started: Instant,
    requests: AtomicU64,
    analyzes: AtomicU64,
    edits: AtomicU64,
    verbs: VerbMetrics,
    /// Engine stats of the most recent `analyze`, so the `stats` verb can
    /// report provenance volume without re-running anything.
    last_stats: Mutex<Option<EngineStats>>,
    /// Ring buffer of the most recent requests that took at least
    /// [`SLOW_REQUEST_MICROS`]; surfaced by the `stats` verb.
    slow: Mutex<SlowRing>,
    shutdown: AtomicBool,
    /// Exclusive lock on the sidecar `<socket>.lock` file, held until the
    /// accept loop has removed the socket (see [`Daemon::bind`]); the OS
    /// releases it when the file handle drops.
    _socket_lock: std::fs::File,
}

impl State {
    /// Registers a connection in the shutdown registry; returns false
    /// (and the caller must drop the connection unserved) if the
    /// registry clone cannot be made — a connection served while
    /// invisible to [`State::close_connections`] would hang shutdown's
    /// join on its blocking read.
    fn register_connection(&self, stream: &UnixStream) -> bool {
        use std::os::fd::AsRawFd;
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(stream.as_raw_fd(), clone);
        // Close the race with a concurrent shutdown: if the registry was
        // drained before this insert, nobody will close this stream for
        // us — the mutex ordering guarantees the flag (set before the
        // drain) is visible here, so self-close instead of blocking in a
        // read forever and hanging the accept loop's join.
        if self.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        true
    }

    fn deregister_connection(&self, stream: &UnixStream) {
        use std::os::fd::AsRawFd;
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&stream.as_raw_fd());
    }

    /// Unblocks every open connection (idle clients sit in a blocking
    /// read; a plain join would wait on them forever). Only the *read*
    /// half is shut down: a connection mid-compute still delivers its
    /// in-flight response over the intact write half, then sees EOF on
    /// its next read and exits cleanly.
    fn close_connections(&self) {
        let connections = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in connections.into_values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
    fn analyze_source(&self, source: &str) -> Result<(Arc<AnalysisCtx>, Report, bool), String> {
        let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
        let _gate = self
            .edit_gate
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let (ctx, reused) = self.engine.context_for(&program);
        let report = self.engine.analyze_with_ctx(&ctx, reused);
        *self.resident.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&ctx));
        *self
            .last_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(report.stats.clone());
        Ok((ctx, report, reused))
    }

    /// Renders the Prometheus-style text exposition served by the
    /// `metrics` verb: daemon request counters, engine cache traffic,
    /// points-to batch reuse, persist-layer I/O, and — appended last —
    /// every in-process [`ivy_telemetry`] counter series.
    fn metrics_text(&self) -> String {
        let mut prom = ivy_telemetry::PromText::new();
        prom.gauge(
            "ivy_daemon_uptime_seconds",
            None,
            self.started.elapsed().as_secs_f64(),
        );
        prom.counter(
            "ivy_daemon_requests_served_total",
            None,
            self.requests.load(Ordering::Relaxed),
        );
        for (verb, count) in self.verbs.snapshot() {
            prom.counter(
                "ivy_daemon_verb_requests_total",
                Some(("verb", verb)),
                count,
            );
        }
        // Per-verb latency: the full histogram for dashboards, then
        // p50/p95/p99 summary gauges so a bare `curl | grep p9` answers
        // "is the daemon slow" without a Prometheus server. Verbs never
        // requested are skipped — an all-zero histogram is noise.
        for (slot, &verb) in VERBS.iter().enumerate() {
            let (cumulative, sum, count) = self.verbs.latency[slot].snapshot();
            if count == 0 {
                continue;
            }
            prom.histogram(
                "ivy_daemon_request_duration_micros",
                Some(("verb", verb)),
                &LATENCY_BUCKETS_MICROS,
                &cumulative,
                sum,
                count,
            );
            for (name, q) in [
                ("ivy_daemon_request_p50_micros", 0.50),
                ("ivy_daemon_request_p95_micros", 0.95),
                ("ivy_daemon_request_p99_micros", 0.99),
            ] {
                prom.gauge(
                    name,
                    Some(("verb", verb)),
                    LatencyHistogram::quantile(&cumulative, count, q) as f64,
                );
            }
        }
        let cache = self.engine.cache();
        prom.counter("ivy_daemon_cache_hits_total", None, cache.hits());
        prom.counter("ivy_daemon_cache_misses_total", None, cache.misses());
        prom.gauge("ivy_daemon_cached_results", None, cache.len() as f64);
        let store = self.engine.ctx_store();
        prom.counter("ivy_daemon_ctx_hits_total", None, store.hits());
        prom.counter("ivy_daemon_ctx_misses_total", None, store.misses());
        prom.counter("ivy_daemon_ctx_evictions_total", None, store.evictions());
        prom.gauge("ivy_daemon_resident_contexts", None, store.len() as f64);
        let pts = self.engine.pointsto_cache();
        prom.counter("ivy_daemon_pointsto_batch_hits_total", None, pts.hits());
        prom.counter("ivy_daemon_pointsto_batch_misses_total", None, pts.misses());
        prom.counter(
            "ivy_daemon_pointsto_solves_total",
            Some(("mode", "cold")),
            pts.solves_cold(),
        );
        prom.counter(
            "ivy_daemon_pointsto_solves_total",
            Some(("mode", "incremental-repropagate")),
            pts.solves_repropagate(),
        );
        if let Some(layer) = &self.persist {
            prom.counter("ivy_daemon_persist_hits_total", None, layer.hits());
            prom.counter("ivy_daemon_persist_misses_total", None, layer.misses());
            prom.counter("ivy_daemon_persist_writes_total", None, layer.writes());
            prom.counter("ivy_daemon_persist_pruned_total", None, layer.pruned());
        }
        let mut text = prom.finish();
        text.push_str(&ivy_telemetry::prometheus_text());
        text
    }

    /// Answers an `explain` request against the resident context: resolves
    /// `lvalue` in `func` to either an indirect-call expression or a
    /// pointer slot, picks the claimed target (the request's, or the first
    /// in the static answer), and returns the recorded derivation chain —
    /// replay-verified against the program's constraints before it ships.
    fn explain(&self, ctx: &AnalysisCtx, func: &str, lvalue: &str, target: Option<&str>) -> Value {
        let sensitivity = self.engine.required_sensitivity();
        let pts = ctx.pointsto(sensitivity);
        if !pts.has_provenance() {
            return error_response(
                "the resident solve recorded no derivations; start the daemon with --provenance \
                 (or IVY_PROVENANCE=1) and re-run analyze",
            );
        }
        // An lvalue that is an indirect callee expression in `func` is
        // explained as a call resolution; otherwise it names a pointer
        // slot (a global if the program declares one, else a local).
        let (fact, chain) = if let Some(targets) = pts.indirect_targets_for(func, lvalue) {
            let chosen = match target {
                Some(t) => {
                    if !targets.contains(t) {
                        return error_response(&format!(
                            "the static answer does not resolve `{lvalue}` in `{func}` to \
                             `{t}`; it resolves to: {}",
                            targets.iter().cloned().collect::<Vec<_>>().join(", ")
                        ));
                    }
                    t.to_string()
                }
                None => match targets.iter().next() {
                    Some(first) => first.clone(),
                    None => {
                        return error_response(&format!(
                            "the static answer resolves `{lvalue}` in `{func}` to no targets"
                        ))
                    }
                },
            };
            let fact = format!("indirect call `{lvalue}` in `{func}` may reach `{chosen}`");
            match pts.why_indirect(&ctx.program, func, lvalue, &chosen) {
                Some(chain) => (fact, chain),
                None => {
                    return error_response(&format!(
                        "no recorded derivation for {fact} (provenance store incomplete?)"
                    ))
                }
            }
        } else {
            let loc = if ctx.program.global(lvalue).is_some() {
                Loc::Global(lvalue.to_string())
            } else {
                Loc::Local {
                    func: func.to_string(),
                    var: lvalue.to_string(),
                }
            };
            let set = pts.points_to(&loc);
            let chosen = match target {
                Some(t) => match set.iter().find(|p| p.to_string() == t) {
                    Some(p) => p.clone(),
                    None => {
                        return error_response(&format!(
                            "the static answer does not put `{t}` in the points-to set of \
                             `{loc}`; the set is: {{{}}}",
                            set.iter()
                                .map(|p| p.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ))
                    }
                },
                None => match set.iter().next() {
                    Some(p) => p.clone(),
                    None => {
                        return error_response(&format!(
                            "the points-to set of `{loc}` is empty: no seed constraint \
                             (address-of or allocation) ever reaches it"
                        ))
                    }
                },
            };
            let fact = format!("`{loc}` may point to `{chosen}`");
            match pts.why(&loc, &chosen) {
                Some(chain) => (fact, chain),
                None => {
                    return error_response(&format!(
                        "no recorded derivation for {fact} (provenance store incomplete?)"
                    ))
                }
            }
        };
        // Replay the whole store against the program before shipping any
        // chain: an `explain` answer is a soundness artifact, and a chain
        // from a corrupt store is worse than an error.
        let replay = verify_derivations(&ctx.program, &pts);
        let replay_verified = match replay {
            Ok(_) => true,
            Err(e) => return error_response(&format!("derivation replay failed: {e}")),
        };
        ivy_telemetry::counter("ivy_daemon_explains_total", 1);
        let links: Vec<Value> = chain
            .iter()
            .map(|link| {
                let mut l = Map::new();
                l.insert(
                    "fact".into(),
                    Value::from(format!("{} may point to {}", link.dst, link.pointee)),
                );
                l.insert("rule".into(), Value::from(link.rule));
                if let Some(src) = &link.src {
                    l.insert("from".into(), Value::from(src.to_string()));
                }
                if let Some((trigger, aux)) = &link.via {
                    l.insert("via".into(), Value::from(format!("{trigger} -> {aux}")));
                }
                Value::Object(l)
            })
            .collect();
        let rendered: Vec<Value> = chain
            .iter()
            .map(|link| Value::from(link.render()))
            .collect();
        let mut m = Map::new();
        m.insert("ok".into(), Value::from(true));
        m.insert("fn".into(), Value::from(func));
        m.insert("lvalue".into(), Value::from(lvalue));
        m.insert("fact".into(), Value::from(fact.as_str()));
        m.insert("replay_verified".into(), Value::from(replay_verified));
        m.insert(
            "provenance_facts".into(),
            Value::from(pts.provenance_facts() as u64),
        );
        m.insert("chain".into(), Value::Array(links));
        m.insert("rendered".into(), Value::Array(rendered));
        Value::Object(m)
    }

    fn handle(&self, request: &Value) -> Value {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
            return error_response("request has no \"cmd\" field");
        };
        self.verbs.bump(cmd);
        ivy_telemetry::counter_labeled("ivy_daemon_requests_total", "verb", cmd, 1);
        let _span = ivy_telemetry::span("daemon/request", cmd.to_string());
        let start = Instant::now();
        let response = self.dispatch(cmd, request);
        let micros = start.elapsed().as_micros() as u64;
        self.verbs.observe(cmd, micros);
        if micros >= SLOW_REQUEST_MICROS {
            self.slow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(SlowRequest {
                    verb: cmd.to_string(),
                    micros,
                    at_ms: self.started.elapsed().as_millis() as u64,
                });
        }
        response
    }

    fn dispatch(&self, cmd: &str, request: &Value) -> Value {
        match cmd {
            "analyze" | "diagnostics" => {
                let Some(source) = request.get("source").and_then(Value::as_str) else {
                    return error_response("analyze needs a \"source\" field");
                };
                self.analyzes.fetch_add(1, Ordering::Relaxed);
                match self.analyze_source(source) {
                    Err(message) => error_response(&message),
                    Ok((ctx, report, _)) => {
                        let mut m = Map::new();
                        m.insert("ok".into(), Value::from(true));
                        m.insert(
                            "program_hash".into(),
                            Value::from(format!("{:016x}", ctx.program_hash)),
                        );
                        m.insert(
                            "diagnostics_json".into(),
                            Value::from(report.diagnostics_json().as_str()),
                        );
                        if cmd == "analyze" {
                            m.insert(
                                "diagnostic_count".into(),
                                Value::from(report.diagnostics.len()),
                            );
                            m.insert("stats".into(), report.stats.to_value());
                        }
                        Value::Object(m)
                    }
                }
            }
            "notify_edit" => {
                let Some(source) = request.get("source").and_then(Value::as_str) else {
                    return error_response("notify_edit needs a \"source\" field");
                };
                let edited = match parse_program(source) {
                    Ok(p) => p,
                    Err(e) => return error_response(&format!("parse error: {e}")),
                };
                let _gate = self
                    .edit_gate
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                let base = self
                    .resident
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                let Some(base) = base else {
                    return error_response("notify_edit before any analyze: nothing is resident");
                };
                self.edits.fetch_add(1, Ordering::Relaxed);
                let (ctx, stats) = self.engine.apply_edit(&base, &edited);
                *self.resident.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(Arc::clone(&ctx));
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                m.insert(
                    "program_hash".into(),
                    Value::from(format!("{:016x}", ctx.program_hash)),
                );
                m.insert("invalidation".into(), invalidation_to_value(&stats));
                Value::Object(m)
            }
            "stats" => {
                let cache = self.engine.cache();
                let store = self.engine.ctx_store();
                let mut engine_stats = Map::new();
                engine_stats.insert("cache_hits".into(), Value::from(cache.hits()));
                engine_stats.insert("cache_misses".into(), Value::from(cache.misses()));
                engine_stats.insert("cached_results".into(), Value::from(cache.len()));
                engine_stats.insert("resident_contexts".into(), Value::from(store.len()));
                engine_stats.insert("ctx_hits".into(), Value::from(store.hits()));
                engine_stats.insert("ctx_misses".into(), Value::from(store.misses()));
                engine_stats.insert("evictions".into(), Value::from(self.engine.ctx_evictions()));
                let pts = self.engine.pointsto_cache();
                let mut pointsto = Map::new();
                pointsto.insert("batch_hits".into(), Value::from(pts.hits()));
                pointsto.insert("batch_misses".into(), Value::from(pts.misses()));
                pointsto.insert("solves_cold".into(), Value::from(pts.solves_cold()));
                pointsto.insert(
                    "solves_repropagate".into(),
                    Value::from(pts.solves_repropagate()),
                );
                engine_stats.insert("pointsto".into(), Value::Object(pointsto));
                // Provenance volume of the last analyze (0 when provenance
                // is off or nothing has been analyzed yet).
                let (prov_facts, prov_bytes) = self
                    .last_stats
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ref()
                    .map_or((0, 0), |s| (s.provenance_facts, s.provenance_bytes));
                engine_stats.insert("provenance_facts".into(), Value::from(prov_facts));
                engine_stats.insert("provenance_bytes".into(), Value::from(prov_bytes));
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                m.insert("protocol".into(), Value::from(PROTOCOL_VERSION));
                m.insert(
                    "uptime_ms".into(),
                    Value::from(self.started.elapsed().as_millis() as u64),
                );
                m.insert(
                    "requests".into(),
                    Value::from(self.requests.load(Ordering::Relaxed)),
                );
                m.insert(
                    "analyzes".into(),
                    Value::from(self.analyzes.load(Ordering::Relaxed)),
                );
                m.insert(
                    "edits".into(),
                    Value::from(self.edits.load(Ordering::Relaxed)),
                );
                let mut verbs = Map::new();
                for (verb, count) in self.verbs.snapshot() {
                    verbs.insert(verb.into(), Value::from(count));
                }
                m.insert("verbs".into(), Value::Object(verbs));
                let slow: Vec<Value> = self
                    .slow
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|r| {
                        let mut e = Map::new();
                        e.insert("verb".into(), Value::from(r.verb.as_str()));
                        e.insert("micros".into(), Value::from(r.micros));
                        e.insert("at_ms".into(), Value::from(r.at_ms));
                        Value::Object(e)
                    })
                    .collect();
                m.insert("slow_requests".into(), Value::Array(slow));
                m.insert("engine".into(), Value::Object(engine_stats));
                if let Some(layer) = &self.persist {
                    let mut persist = Map::new();
                    persist.insert("hits".into(), Value::from(layer.hits()));
                    persist.insert("misses".into(), Value::from(layer.misses()));
                    persist.insert("writes".into(), Value::from(layer.writes()));
                    persist.insert("pruned".into(), Value::from(layer.pruned()));
                    persist.insert("writer".into(), Value::from(layer.writer_id()));
                    m.insert("persist".into(), Value::Object(persist));
                }
                Value::Object(m)
            }
            "explain" => {
                let Some(func) = request.get("fn").and_then(Value::as_str) else {
                    return error_response("explain needs a \"fn\" field");
                };
                let Some(lvalue) = request.get("lvalue").and_then(Value::as_str) else {
                    return error_response("explain needs an \"lvalue\" field");
                };
                let target = request.get("target").and_then(Value::as_str);
                // Explain reads the resident context like an analyze does,
                // so it takes the shared side of the edit gate.
                let _gate = self
                    .edit_gate
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                let resident = self
                    .resident
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                let Some(ctx) = resident else {
                    return error_response("explain before any analyze: nothing is resident");
                };
                self.explain(&ctx, func, lvalue, target)
            }
            "metrics" => {
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                m.insert("metrics_text".into(), Value::from(self.metrics_text()));
                Value::Object(m)
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                let mut m = Map::new();
                m.insert("ok".into(), Value::from(true));
                Value::Object(m)
            }
            other => error_response(&format!("unknown cmd {other:?}")),
        }
    }
}

/// A running daemon (see [`Daemon::spawn`] / [`Daemon::serve`]).
pub struct Daemon;

/// Handle to a daemon spawned in the background; join it after asking the
/// server to shut down (e.g. via [`crate::Client::shutdown`]).
pub struct DaemonHandle {
    socket: PathBuf,
    accept_thread: JoinHandle<()>,
}

impl DaemonHandle {
    /// The socket the daemon is listening on.
    pub fn socket(&self) -> &PathBuf {
        &self.socket
    }

    /// Waits for the accept loop to exit (it exits once a client sent
    /// `shutdown`).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

impl Daemon {
    fn bind(config: &DaemonConfig) -> io::Result<(UnixListener, Arc<State>)> {
        if let Some(parent) = config.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Ownership of the socket path is an exclusive OS lock on a
        // sidecar `<socket>.lock` file, held for the daemon's lifetime
        // and released by the kernel on exit, clean or not. A bare
        // probe-then-unlink would be a TOCTOU: two daemons starting
        // concurrently could both observe a dead socket, and the loser's
        // `remove_file` would unlink the path the winner had just bound.
        // The lock also covers the exit-time cleanup in the accept loop,
        // which could otherwise unlink a *newer* daemon's socket when an
        // old daemon shuts down late. The lock file itself is never
        // removed — unlinking it would reopen the race through a second
        // inode.
        let mut lock_path = config.socket.clone().into_os_string();
        lock_path.push(".lock");
        let socket_lock = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(PathBuf::from(lock_path))?;
        if let Err(err) = socket_lock.try_lock() {
            return Err(match err {
                std::fs::TryLockError::WouldBlock => io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "another daemon owns (or is starting on) {}",
                        config.socket.display()
                    ),
                ),
                // A lock the filesystem cannot take at all (e.g. ENOLCK)
                // is an I/O problem, not a second daemon — report it as
                // itself so the operator does not chase a phantom.
                std::fs::TryLockError::Error(e) => e,
            });
        }
        // Holding the lock: a live daemon on this path is impossible (it
        // would hold the lock), so any socket file here is leftover from
        // a dead process — but keep the probe as a guard against foreign,
        // non-lock-aware listeners before unlinking.
        if config.socket.exists() {
            if UnixStream::connect(&config.socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", config.socket.display()),
                ));
            }
            let _ = std::fs::remove_file(&config.socket);
        }
        let listener = UnixListener::bind(&config.socket)?;
        let persist = match &config.cache_dir {
            Some(dir) => Some(Arc::new(PersistLayer::open(dir)?)),
            None => None,
        };
        // A daemon always meters itself: counters are a handful of sharded
        // atomics with no per-request allocation, and the `metrics` verb is
        // useless without them. Spans stay opt-in (`IVY_TRACE=1`) — a
        // long-lived server must not accumulate span records unasked.
        ivy_telemetry::enable_counters();
        let state = Arc::new(State {
            engine: fleet_engine_with(config.threads, persist.clone(), config.deputy)
                .with_provenance(config.provenance),
            persist,
            resident: Mutex::new(None),
            edit_gate: RwLock::new(()),
            connections: Mutex::new(std::collections::HashMap::new()),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            analyzes: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            verbs: VerbMetrics::default(),
            last_stats: Mutex::new(None),
            slow: Mutex::new(SlowRing::new(SLOW_RING_CAP)),
            shutdown: AtomicBool::new(false),
            _socket_lock: socket_lock,
        });
        Ok((listener, state))
    }

    /// Runs the accept loop until a client sends `shutdown`. Each
    /// connection is served on its own thread; the shared state makes
    /// concurrent answers deterministic and byte-identical.
    fn accept_loop(listener: UnixListener, state: Arc<State>, socket: PathBuf) {
        let mut clients: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished connections so a long-lived daemon does not
            // accumulate one handle per connection ever served.
            clients.retain(|client| !client.is_finished());
            let Ok(stream) = stream else {
                continue;
            };
            let state = Arc::clone(&state);
            let socket = socket.clone();
            clients.push(thread::spawn(move || {
                serve_connection(stream, &state, &socket);
            }));
        }
        for client in clients {
            let _ = client.join();
        }
        let _ = std::fs::remove_file(&socket);
    }

    /// Starts a daemon in a background thread of this process and returns
    /// immediately. The "zero-deploy" mode used by tests, the bench, and
    /// the session example; production use runs [`Daemon::serve`] in a
    /// dedicated process (`ivy-daemon` binary).
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let (listener, state) = Self::bind(&config)?;
        let socket = config.socket.clone();
        let accept_socket = socket.clone();
        let accept_thread =
            thread::spawn(move || Self::accept_loop(listener, state, accept_socket));
        Ok(DaemonHandle {
            socket,
            accept_thread,
        })
    }

    /// Binds and serves on the calling thread until shutdown (the blocking
    /// mode the `ivy-daemon` binary runs).
    pub fn serve(config: DaemonConfig) -> io::Result<()> {
        let (listener, state) = Self::bind(&config)?;
        let socket = config.socket.clone();
        Self::accept_loop(listener, state, socket);
        Ok(())
    }
}

/// Serves one client connection: frames in, frames out, until the peer
/// closes or asks for shutdown.
fn serve_connection(stream: UnixStream, state: &State, socket: &PathBuf) {
    // Under fd pressure the registry clone can fail; shed the connection
    // (the client sees a clean close) rather than serve it invisibly.
    if !state.register_connection(&stream) {
        return;
    }
    let reader = stream.try_clone();
    connection_loop(reader, stream, state, socket);
}

fn connection_loop(
    reader: io::Result<UnixStream>,
    stream: UnixStream,
    state: &State,
    socket: &PathBuf,
) {
    let mut reader = match reader {
        Ok(s) => s,
        Err(_) => {
            state.deregister_connection(&stream);
            return;
        }
    };
    let mut writer = stream;
    let mut shutdown_sent = false;
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(e) => {
                if !state.shutdown.load(Ordering::SeqCst) {
                    // A torn read during shutdown is our own teardown of
                    // the socket, not a client error worth answering.
                    let _ = write_frame(&mut writer, &error_response(&format!("bad frame: {e}")));
                }
                break;
            }
        };
        let response = state.handle(&request);
        shutdown_sent = state.shutdown.load(Ordering::SeqCst)
            && request.get("cmd").and_then(Value::as_str) == Some("shutdown");
        let _ = write_frame(&mut writer, &response);
        if shutdown_sent && response_ok(&response) {
            break;
        }
    }
    state.deregister_connection(&writer);
    if shutdown_sent {
        // The requester has its answer; now unblock every idle connection
        // and wake the accept loop so it observes the flag and exits.
        state.close_connections();
        let _ = UnixStream::connect(socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_evicts_oldest_first_at_capacity() {
        let mut ring = SlowRing::new(3);
        for micros in 0..5u64 {
            ring.push(SlowRequest {
                verb: "analyze".into(),
                micros,
                at_ms: micros,
            });
        }
        let held: Vec<u64> = ring.iter().map(|r| r.micros).collect();
        // The first two entries fell off the front; the latest three
        // remain in arrival order.
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative_and_monotone() {
        let h = LatencyHistogram::default();
        // One observation per bucket bound, one in-between, one overflow
        // past the last bound.
        for le in LATENCY_BUCKETS_MICROS {
            h.observe(le);
        }
        h.observe(300); // lands in the 500 bucket
        h.observe(2_000_000); // overflow: counted, bucketed nowhere
        let (cumulative, sum, count) = h.snapshot();
        assert_eq!(count, LATENCY_BUCKETS_MICROS.len() as u64 + 2);
        assert_eq!(
            sum,
            LATENCY_BUCKETS_MICROS.iter().sum::<u64>() + 300 + 2_000_000
        );
        for pair in cumulative.windows(2) {
            assert!(pair[0] <= pair[1], "cumulative counts must be monotone");
        }
        // Every cumulative entry is bounded by the total observation count.
        assert!(cumulative.iter().all(|&c| c <= count));
        // The overflow observation is visible as count minus the last
        // cumulative bucket.
        assert_eq!(cumulative[LATENCY_BUCKETS_MICROS.len() - 1], count - 1);
    }

    #[test]
    fn latency_quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.observe(80); // <= 100
        }
        h.observe(600_000); // <= 1_000_000
        let (cumulative, _, count) = h.snapshot();
        assert_eq!(LatencyHistogram::quantile(&cumulative, count, 0.50), 100);
        assert_eq!(LatencyHistogram::quantile(&cumulative, count, 0.95), 100);
        assert_eq!(
            LatencyHistogram::quantile(&cumulative, count, 1.0),
            1_000_000
        );
        assert_eq!(LatencyHistogram::quantile(&[0; 12], 0, 0.99), 0);
    }
}
