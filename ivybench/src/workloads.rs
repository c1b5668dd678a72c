//! The two workloads. Each runs in its own process, sets up several
//! times and reports the median set-up, measures for the given number of
//! seconds, then checks every answer outside the timed region.
//!
//! With tracing on, a run spends its first half measuring untraced (the
//! baseline for the tracing overhead) and its second half traced, then
//! replays whatever layers its loop did not reach (see
//! [`Lab::complete`]), so every per-layer metric is measured on every
//! workload.

use crate::checks::{self, Check};
use crate::edits::{EditKind, EditScript, SplitMix, State};
use crate::layers::{fleet, Lab, THREADS};
use crate::stats::{growth_exponent, median, tail};
use ivy_cmir::parser::parse_program;
use ivy_cmir::Program;
use ivy_daemon::{Client, Daemon, DaemonConfig, DaemonHandle};
use ivy_engine::{AnalysisCtx, Engine};
use ivy_kernelgen::{GroundTruth, KernelBuild, KernelConfig};
use serde_json::{Map, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ethernet drivers of the kernels (kernelgen's paper configuration
/// otherwise): 4 gives the 308-function paper kernel, 256 gives 1568
/// functions.
pub const SMALL_DRIVERS: usize = 4;
/// The large `cold_ladder` rung.
pub const LARGE_DRIVERS: usize = 256;

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The percentile rule: report p90, or the highest percentile below it
/// that leaves this many samples above it.
const TAIL_TARGET: f64 = 0.9;
const TAIL_BEYOND: usize = 10;

/// Where a run keeps its sockets and its trace, relative to the checkout.
pub const RUN_DIR: &str = ".ivybench";

/// The end-to-end metrics, in output order, with their units. Every
/// workload reports all four; `README.md` gives their meaning per
/// workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the kernelgen seed and the edit script derive from it.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations whose answer failed a check, plus failed global checks.
    pub failed: u64,
    /// Named checks.
    pub checks: Vec<Check>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload facts: sizes, bases of every ratio, sample counts.
    pub detail: Map,
    /// The traced run's spans.
    pub trace: Option<Value>,
}

impl Outcome {
    fn check(&mut self, check: Check) {
        if !check.passed() {
            self.failed += 1;
        }
        self.checks.push(check);
    }

    fn fact(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.insert(key.into(), value.into());
    }

    fn end_to_end(&mut self, setup: &[f64], peak_rss_mb: f64, primary: f64, secondary: f64) {
        let values = [
            median(setup).expect("set up"),
            peak_rss_mb,
            primary,
            secondary,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            self.metrics.push((name, value, unit));
        }
    }

    fn per_layer(&mut self, lab: Lab, overhead_s: f64) {
        self.metrics = lab.metrics(overhead_s);
        self.fact("trace_spans", lab.tracer.spans().len());
        self.trace = Some(lab.tracer.to_json());
    }
}

/// Seeds derived from the workload seed.
struct Seeds {
    kernel: u64,
    script: u64,
}

fn seeds(seed: u64) -> Seeds {
    let mut rng = SplitMix::new(seed);
    Seeds {
        kernel: rng.next_u64(),
        script: rng.next_u64(),
    }
}

/// A generated kernel as a client holds it: the source text, the program
/// parsed from that text (so its spans match what the daemon parses), and
/// the seeded ground truth.
pub struct Kernel {
    /// KC source text.
    pub source: String,
    /// `source`, parsed.
    pub program: Program,
    /// The defects kernelgen planted.
    pub truth: GroundTruth,
}

/// A paper-configuration kernel with `drivers` drivers.
pub fn kernel(drivers: usize, seed: u64) -> Kernel {
    let build = KernelBuild::generate(&KernelConfig {
        seed,
        drivers,
        ..KernelConfig::paper()
    });
    let source = build.source();
    Kernel {
        program: parse_program(&source).expect("generated source parses"),
        source,
        truth: build.ground_truth,
    }
}

/// Bytes a [`Scrub`] writes through the caches.
const SCRUB_BYTES: usize = 64 << 20;

/// Evicts the working set from the CPU caches before each timed cold run,
/// so that every run starts cache-cold. Across ten seeds, run alternately
/// with and without it on a 2-CPU host, it cut the spread of
/// `cold_large_s` from 0.16 to 0.05 of the median and that of
/// `cold_small_s` from 0.22 to 0.13. The same comparison on `edit_loop`
/// showed no gain, so that workload does not scrub. The write costs about
/// 10 ms and is not timed.
struct Scrub(Vec<u64>);

impl Scrub {
    fn new() -> Scrub {
        let mut scrub = Scrub(vec![0; SCRUB_BYTES / 8]);
        scrub.run();
        scrub
    }

    fn run(&mut self) {
        for word in &mut self.0 {
            *word = word.wrapping_add(1);
        }
        black_box(&self.0);
    }

    /// Its buffer in MB, resident from its creation to the end of the run.
    fn mb(&self) -> f64 {
        SCRUB_BYTES as f64 / (1 << 20) as f64
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// The median and the percentile-rule tail of a sample set, recorded
/// under `key` in the run's facts. The tail falls back to the maximum when
/// the run has too few samples for the rule, and says so.
fn latency(out: &mut Outcome, key: &str, samples: &[f64]) -> (f64, f64) {
    let p50 = median(samples).expect("at least one operation ran");
    let (q, value, beyond) = match tail(samples, TAIL_TARGET, TAIL_BEYOND) {
        Some(t) => (t.quantile, t.value, t.beyond),
        None => (1.0, samples.iter().copied().fold(f64::MIN, f64::max), 0),
    };
    let mut m = Map::new();
    m.insert("samples".into(), Value::from(samples.len()));
    m.insert("p50_s".into(), Value::from(p50));
    m.insert("tail_quantile".into(), Value::from(q));
    m.insert("tail_s".into(), Value::from(value));
    m.insert("tail_samples_beyond".into(), Value::from(beyond));
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let deciles = (1..10).map(|d| Value::from(sorted[d * (sorted.len() - 1) / 10]));
    m.insert("deciles_s".into(), Value::Array(deciles.collect()));
    out.fact(key, Value::Object(m));
    (p50, value)
}

fn until(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// A daemon served in this process, and one client connected to it.
struct Served {
    handle: DaemonHandle,
    client: Client,
}

impl Served {
    fn spawn(tag: &str, k: usize) -> Served {
        let socket = Path::new(RUN_DIR).join(format!("{tag}-{}-{k}.sock", std::process::id()));
        let handle =
            Daemon::spawn(DaemonConfig::new(&socket).with_threads(THREADS)).expect("daemon starts");
        let client = Client::connect(handle.socket()).expect("client connects");
        Served { handle, client }
    }

    fn stop(mut self) {
        let socket: PathBuf = self.handle.socket().clone();
        self.client.shutdown().expect("daemon shuts down");
        self.handle.join();
        // The daemon keeps its `<socket>.lock` sidecar by design; the run
        // removes both files it caused.
        let _ = std::fs::remove_file(&socket);
        let mut lock = socket.into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(lock);
    }
}

/// Sets up `edit_loop` `SETUP_REPEATS` times: daemon spawn, kernel
/// generation, the priming `analyze`, and a warm-up of one rotation of the
/// edit script (so the timed loop measures the daemon's steady state; the
/// warm-up's cost shows in `setup_s`). Returns the set-up times, the last
/// daemon (the others are stopped), its kernel, and its script, which the
/// timed loop continues.
fn edit_setup(seeds: &Seeds) -> (Vec<f64>, Served, Kernel, EditScript) {
    let mut times = Vec::new();
    let mut last: Option<(Served, Kernel, EditScript)> = None;
    for k in 0..SETUP_REPEATS {
        // One daemon at a time, so the peak memory is one daemon's.
        if let Some((previous, _, _)) = last.take() {
            previous.stop();
        }
        let start = Instant::now();
        let mut served = Served::spawn("edit", k);
        let kernel = kernel(SMALL_DRIVERS, seeds.kernel);
        let client = &mut served.client;
        client.analyze(&kernel.source).expect("priming analyze");
        let mut script = EditScript::new(kernel.source.clone(), SMALL_DRIVERS, seeds.script);
        for _ in EditKind::ALL {
            let edit = script.next_edit();
            client.notify_edit(&edit.source).expect("warm-up edit");
            client.analyze(&edit.source).expect("warm-up analyze");
        }
        times.push(start.elapsed().as_secs_f64());
        last = Some((served, kernel, script));
    }
    let (served, kernel, script) = last.expect("set up at least once");
    (times, served, kernel, script)
}

// ---------------------------------------------------------------------------
// cold_ladder
// ---------------------------------------------------------------------------

/// Small-rung analyses per round of `cold_ladder`. One small-rung sample
/// is the mean of a round's analyses, about two seconds of work, as long
/// as one large-rung analysis. The 2-CPU host the benchmark was tuned on
/// switches between fast and slow phases lasting seconds (one ~80 ms
/// analysis reads 66-70 ms in one phase and 95-105 ms in the next, on
/// every seed at once), so single small-rung analyses have two modes and
/// their median jumps between them from run to run; means over seconds
/// do not.
const SMALL_PER_ROUND: usize = 20;

/// Fresh fleet engines analyzing the rungs cold, in rounds, until the
/// deadline. A round analyzes each rung `repeats` times; a rung's sample
/// per round is the mean of those analyses, each timed alone after a
/// scrub. Returns the samples and the first answer per rung; answers that
/// differ from the rung's first answer are counted in `out.failed`.
fn cold_runs(
    out: &mut Outcome,
    scrub: &mut Scrub,
    rungs: &[(&Kernel, usize)],
    seconds: f64,
) -> (Vec<Vec<f64>>, Vec<String>) {
    let deadline = until(seconds);
    let mut times = vec![Vec::new(); rungs.len()];
    let mut first: Vec<Option<String>> = vec![None; rungs.len()];
    while Instant::now() < deadline {
        for (i, &(rung, repeats)) in rungs.iter().enumerate() {
            let mut total = 0.0;
            for _ in 0..repeats {
                let engine = fleet();
                scrub.run();
                let start = Instant::now();
                let report = engine.analyze(&rung.program);
                total += start.elapsed().as_secs_f64();
                drop(engine);
                out.attempted += 1;
                let json = report.diagnostics_json();
                match &first[i] {
                    None => {
                        out.check(checks::ground_truth(
                            &format!("rung {}", rung.program.functions.len()),
                            &report,
                            &rung.truth,
                        ));
                        first[i] = Some(json);
                    }
                    Some(reference) => out.failed += u64::from(*reference != json),
                }
            }
            times[i].push(total / repeats as f64);
        }
    }
    let first = first
        .into_iter()
        .map(|j| j.expect("every rung ran"))
        .collect();
    (times, first)
}

/// `cold_ladder`: cold `Engine::analyze` on a ~300- and a ~1.5k-function
/// kernel.
pub fn cold_ladder(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut scrub = Scrub::new();
    let seeds = seeds(args.seed);
    let mut setup = Vec::new();
    let mut rungs = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let small = kernel(SMALL_DRIVERS, seeds.kernel);
        let large = kernel(LARGE_DRIVERS, seeds.kernel);
        setup.push(start.elapsed().as_secs_f64());
        rungs = Some((small, large));
    }
    let (small, large) = rungs.expect("set up at least once");
    let (n_small, n_large) = (small.program.functions.len(), large.program.functions.len());
    out.fact("functions_small", n_small);
    out.fact("functions_large", n_large);

    if args.trace {
        let (untraced, first) = cold_runs(&mut out, &mut scrub, &[(&large, 1)], args.seconds / 2.0);
        let mut lab = Lab::default();
        let deadline = until(args.seconds / 2.0);
        while Instant::now() < deadline {
            scrub.run();
            let report = lab.replay_cold(&large.program);
            out.attempted += 1;
            out.failed += u64::from(first[0] != report.diagnostics_json());
        }
        let traced = lab.durations("engine.analyze_cold");
        let overhead = median(&traced).expect("traced") - median(&untraced[0]).expect("ran");
        // Request and edit layers are attributed on the small rung.
        let source = &small.source;
        let mut served = Served::spawn("cold", 0);
        let mirror = fleet();
        lab.complete(
            &small.program,
            source,
            SMALL_DRIVERS,
            seeds.script,
            &mut served.client,
            &mirror,
        );
        served.stop();
        out.per_layer(lab, overhead);
    } else {
        let rungs = [(&small, SMALL_PER_ROUND), (&large, 1)];
        let (times, _) = cold_runs(&mut out, &mut scrub, &rungs, args.seconds);
        let cold_small = median(&times[0]).expect("ran");
        let (cold_large, _) = latency(&mut out, "cold_large", &times[1]);
        latency(&mut out, "cold_small", &times[0]);
        out.fact("cold_small_s", cold_small);
        out.fact("cold_small_analyses_per_sample", SMALL_PER_ROUND);
        out.fact("cold_large_s", cold_large);
        out.fact(
            "cold_growth_exp",
            growth_exponent(n_small as f64, cold_small, n_large as f64, cold_large),
        );
        let rss = peak_rss_mb() - scrub.mb();
        out.end_to_end(&setup, rss, cold_large, cold_small);
    }
    out.check(checks::pointsto_matches_naive("small rung", &small.program));
    out.check(checks::oracle_sound("small rung", &small.program));
    out
}

// ---------------------------------------------------------------------------
// edit_loop
// ---------------------------------------------------------------------------

/// Timed edits cross-checked against a batch run, per edit kind.
const CROSS_CHECKS_PER_KIND: usize = 8;

/// One timed edit as the client saw it.
struct Step {
    kind: EditKind,
    state: State,
    /// The daemon's round trip, `notify_edit` + `analyze`.
    rt_s: f64,
    /// The daemon's answer: program hash, a digest of the diagnostics
    /// JSON, and the per-function results the engine computed fresh.
    program_hash: String,
    digest: u64,
    cache_misses: u64,
}

fn digest(json: &str) -> u64 {
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    h.finish()
}

/// Sends the next edit of `script` to the daemon and times the round
/// trip. Returns the step and the time it started and ended, or `None` if
/// the daemon failed to answer.
fn timed_edit(client: &mut Client, script: &mut EditScript) -> Option<(Step, Instant, Instant)> {
    let edit = script.next_edit();
    let start = Instant::now();
    client.notify_edit(&edit.source).ok()?;
    let answer = client.analyze(&edit.source).ok()?;
    let end = Instant::now();
    let step = Step {
        kind: edit.kind,
        state: edit.state,
        rt_s: (end - start).as_secs_f64(),
        program_hash: answer.program_hash,
        digest: digest(&answer.diagnostics_json),
        cache_misses: answer.stats.cache_misses,
    };
    Some((step, start, end))
}

/// The mirror a traced run replays each edit on: the span recorder, the
/// mirror engine, and its context for the daemon's current program.
type Replay<'a> = (&'a mut Lab, &'a Engine, &'a mut Arc<AnalysisCtx>);

/// Runs timed edits until `seconds` have passed, appending them to `steps`
/// and replaying each on the mirror, if one is given.
fn edit_run(
    out: &mut Outcome,
    client: &mut Client,
    script: &mut EditScript,
    steps: &mut Vec<Step>,
    seconds: f64,
    mut replay: Option<Replay>,
) {
    let deadline = until(seconds);
    while Instant::now() < deadline {
        out.attempted += 1;
        match timed_edit(client, script) {
            Some((step, start, end)) => {
                if let Some((lab, mirror, resident)) = replay.as_mut() {
                    let source = script.source_of(&step.state);
                    lab.replay_edit(mirror, resident, step.kind, &source, Some((start, end)));
                }
                steps.push(step);
            }
            None => out.failed += 1,
        }
    }
}

/// `edit_loop`: one closed-loop client replays the seeded edit script
/// against the daemon, each edit a `notify_edit` plus an `analyze`.
pub fn edit_loop(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seeds = seeds(args.seed);
    let (setup, mut served, kernel, mut script) = edit_setup(&seeds);
    out.fact("functions", kernel.program.functions.len());
    let targets: Vec<Value> = script
        .targets()
        .iter()
        .map(|t| Value::from(format!("{}: {} -> {}", t.function, t.from, t.to[0])))
        .collect();
    out.fact("edit_targets", Value::Array(targets));

    let mut steps = Vec::new();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let client = &mut served.client;
    edit_run(&mut out, client, &mut script, &mut steps, untraced_s, None);
    let untraced: Vec<f64> = steps.iter().map(|s| s.rt_s).collect();

    let mut lab = Lab::default();
    if args.trace {
        let mirror = fleet();
        // Bring the mirror to the daemon's current program.
        let current = parse_program(&script.source_of(script.state())).expect("parses");
        let mut resident = lab.prime(&mirror, &current);
        let replay = Some((&mut lab, &mirror, &mut resident));
        edit_run(
            &mut out,
            client,
            &mut script,
            &mut steps,
            args.seconds / 2.0,
            replay,
        );
        lab.complete(
            &kernel.program,
            &kernel.source,
            SMALL_DRIVERS,
            seeds.script,
            client,
            &mirror,
        );
    }
    served.stop();

    // Every step must have led to a program the daemon had not analyzed,
    // and computed fresh results for at least the edited function.
    let mut seen = BTreeSet::new();
    let repeated: Vec<String> = steps
        .iter()
        .filter(|s| !seen.insert(s.program_hash.as_str()))
        .map(|s| format!("program {} analyzed twice", s.program_hash))
        .collect();
    out.check(Check::new("every edit leads to a new program", repeated));
    let cached: Vec<String> = steps
        .iter()
        .filter(|s| s.cache_misses == 0)
        .map(|s| {
            format!(
                "{} edit {} served from cache",
                s.kind.name(),
                s.program_hash
            )
        })
        .collect();
    out.check(Check::new("every edit re-runs the checkers", cached));

    // Batch cross-check of a seeded sample of steps per kind: a fresh fleet
    // engine analyzes the same source. These cold runs are also the
    // in-process base of the edit/cold ratio.
    let base_report = fleet().analyze(&kernel.program);
    out.check(checks::ground_truth(
        "paper kernel",
        &base_report,
        &kernel.truth,
    ));
    let mut rng = SplitMix::new(seeds.script);
    let mut cold = Vec::new();
    for kind in EditKind::ALL {
        let mut of_kind: Vec<&Step> = steps.iter().filter(|s| s.kind == kind).collect();
        for _ in 0..CROSS_CHECKS_PER_KIND.min(of_kind.len()) {
            let step = of_kind.swap_remove(rng.below(of_kind.len() as u64) as usize);
            let program =
                parse_program(&script.source_of(&step.state)).expect("edited source parses");
            let engine = fleet();
            let start = Instant::now();
            let batch = engine.analyze(&program);
            cold.push(start.elapsed().as_secs_f64());
            let hash = format!("{:016x}", AnalysisCtx::hash_program(&program));
            if hash != step.program_hash || digest(&batch.diagnostics_json()) != step.digest {
                out.failed += 1;
            }
        }
    }
    out.fact("cross_checked", cold.len());
    let cold_s = median(&cold).expect("at least one edit was checked");
    out.fact("inprocess_cold_s", cold_s);

    if args.trace {
        for t in cold {
            lab.cold_base(t);
        }
        let traced = lab.durations("daemon.edit_rt");
        let overhead = median(&traced).expect("traced") - median(&untraced).expect("ran");
        out.per_layer(lab, overhead);
    } else {
        let (p50, p90) = latency(&mut out, "edit_rt", &untraced);
        for kind in EditKind::ALL {
            let of_kind: Vec<&Step> = steps.iter().filter(|s| s.kind == kind).collect();
            let times: Vec<f64> = of_kind.iter().map(|s| s.rt_s).collect();
            let misses: Vec<f64> = of_kind.iter().map(|s| s.cache_misses as f64).collect();
            latency(&mut out, &format!("edit_rt_{}", kind.name()), &times);
            out.fact(
                &format!("edit_cache_misses_{}_p50", kind.name()),
                median(&misses).expect("every kind ran"),
            );
        }
        out.fact("edit_rt_p50_s", p50);
        out.fact("edit_rt_p90_s", p90);
        out.fact("edit_cold_ratio", p50 / cold_s);
        out.end_to_end(&setup, peak_rss_mb(), p50, p90);
    }
    out
}

/// Reads the checked-out revision from `.git`, if the checkout is a git
/// repository.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Writes the traced run's spans under [`RUN_DIR`].
pub fn write_trace(args: &Args, spans: &Value) -> std::io::Result<PathBuf> {
    let path = Path::new(RUN_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(
        &path,
        serde_json::to_string(spans).expect("spans serialize"),
    )?;
    Ok(path)
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["cold_ladder", "edit_loop"];
