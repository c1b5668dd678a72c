//! Per-layer attribution, measured from outside the program.
//!
//! Every function here replays the public calls one layer of the system
//! makes, on the workload's own inputs, each inside a span (see
//! [`crate::trace`]). Daemon round trips cannot be seen into, so the
//! request path is replayed in-process on a *mirror* engine that holds the
//! same program states as the daemon; a cold `Engine::analyze` is
//! decomposed on a second, fresh engine into the queries it demands. What
//! the replayed layers do not explain stays in the parent span's self time
//! (`daemon.residual_s`, `engine.cold_residual_s`).

use crate::edits::{EditKind, EditScript};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use ivy_analysis::pointsto::{analyze_with, Sensitivity, SolveOptions};
use ivy_cmir::parser::parse_program;
use ivy_cmir::typecheck::validate_program;
use ivy_cmir::Program;
use ivy_daemon::protocol::{invalidation_to_value, read_frame, request, write_frame};
use ivy_daemon::{AnalyzeOutcome, Client};
use ivy_engine::{AnalysisCtx, Engine, Report};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Engine worker threads, in the daemon and in-process alike. Fixed, since
/// peak memory roughly doubles with a second thread.
pub const THREADS: usize = 1;

/// The fleet engine every workload runs: Deputy, CCount and BlockStop.
pub fn fleet() -> Engine {
    ivy_core::experiments::default_engine(THREADS)
}

/// Warm daemon requests [`Lab::complete`] times and replays.
const REPLAYED_REQUESTS: usize = 10;

/// Root spans: one per measured operation. Coverage is the share of their
/// wall time that their replayed children explain.
pub const ROOTS: [&str; 3] = ["engine.analyze_cold", "daemon.request_rt", "daemon.edit_rt"];

/// The per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("cmir.parse_s", "s"),
    ("cmir.typecheck_s", "s"),
    ("cmir.source_bytes", "bytes"),
    ("engine.hash_s", "s"),
    ("daemon.frame_rt_s", "s"),
    ("daemon.request_bytes", "bytes"),
    ("daemon.response_bytes", "bytes"),
    ("daemon.residual_s", "s"),
    ("diag.encode_json_s", "s"),
    ("diag.json_bytes", "bytes"),
    ("pointsto.steensgaard_cold_s", "s"),
    ("pointsto.andersen_cold_s", "s"),
    ("pointsto.andersen_field_cold_s", "s"),
    ("pointsto.constraints", "count"),
    ("pointsto.incremental_s", "s"),
    ("pointsto.batches_reused", "count"),
    ("pointsto.batches_generated", "count"),
    ("pointsto.solves_cold", "count"),
    ("pointsto.solves_repropagate", "count"),
    ("pointsto.solves_delta", "count"),
    ("engine.context_s", "s"),
    ("engine.pointsto_s", "s"),
    ("engine.summaries_s", "s"),
    ("deputy.check_s", "s"),
    ("ccount.check_s", "s"),
    ("blockstop.check_s", "s"),
    ("deputy.diagnostics", "count"),
    ("ccount.diagnostics", "count"),
    ("blockstop.diagnostics", "count"),
    ("engine.analyze_cold_s", "s"),
    ("engine.cold_residual_s", "s"),
    ("engine.apply_edit_s", "s"),
    ("engine.invalidated", "count"),
    ("engine.retained", "count"),
    ("engine.retention_rate", "ratio"),
    ("engine.reanalyze_s", "s"),
    ("engine.analyze_warm_s", "s"),
    ("engine.cache_hit_rate", "ratio"),
    ("edit.local_p50_s", "s"),
    ("edit.ptr_p50_s", "s"),
    ("edit.hub_p50_s", "s"),
    ("edit.cold_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Spans plus the counts observed at the same layer boundaries.
#[derive(Debug, Default)]
pub struct Lab {
    /// The span recorder.
    pub tracer: Tracer,
    counts: BTreeMap<&'static str, Vec<f64>>,
    next_request: u64,
}

impl Lab {
    /// A fresh operation identifier.
    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Records one observation of a count or ratio.
    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Whether a span or count named `name` has been recorded.
    fn has(&self, name: &str) -> bool {
        self.tracer.spans().iter().any(|s| s.name == name) || self.counts.contains_key(name)
    }

    /// Share of the root spans' wall time that their children explain:
    /// one minus the roots' summed self time (the residuals) over their
    /// summed duration. A replay can run faster than the operation it
    /// explains, so single residuals may be negative; they are summed as
    /// measured.
    fn coverage(&self) -> f64 {
        let self_times = self.tracer.self_times();
        let (mut wall, mut uncovered) = (0.0, 0.0);
        for (span, self_time) in self.tracer.spans().iter().zip(self_times) {
            if span.parent.is_none() && ROOTS.contains(&span.name) {
                wall += span.duration();
                uncovered += self_time;
            }
        }
        if wall > 0.0 {
            1.0 - uncovered / wall
        } else {
            0.0
        }
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect()
    }

    /// The per-layer metric values: the median self time of each layer's
    /// spans, and the median of each count. `overhead_s` is the traced
    /// minus the untraced median of the workload's operation.
    pub fn metrics(&self, overhead_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let self_times = self.tracer.self_times_by_name();
        let self_median = |name: &str| self_times.get(name).and_then(|v| median(v));
        let count_median = |name: &str| self.counts.get(name).and_then(|v| median(v));
        let roots_self: Vec<f64> = ["daemon.request_rt", "daemon.edit_rt"]
            .iter()
            .flat_map(|r| self_times.get(r).cloned().unwrap_or_default())
            .collect();
        let cold = median(&self.durations("engine.analyze_cold"));
        let edits: Vec<f64> = EditKind::ALL
            .iter()
            .flat_map(|&k| self.counts.get(edit_metric(k)).cloned().unwrap_or_default())
            .collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "daemon.residual_s" => median(&roots_self),
                    "engine.analyze_cold_s" => cold,
                    "engine.cold_residual_s" => self_median("engine.analyze_cold"),
                    "edit.cold_ratio" => median(&edits)
                        .zip(count_median("edit.cold_base_s"))
                        .map(|(e, c)| e / c),
                    "trace.coverage" => Some(self.coverage()),
                    "trace.overhead_s" => Some(overhead_s),
                    _ if unit == "s" && !name.starts_with("edit.") => {
                        self_median(name.trim_end_matches("_s"))
                    }
                    _ => count_median(name),
                };
                let value = value.unwrap_or_else(|| panic!("layer {name} was never measured"));
                (name, value, unit)
            })
            .collect()
    }

    /// Records one in-process cold `Engine::analyze` of the edited kernel:
    /// the base of `edit.cold_ratio`.
    pub fn cold_base(&mut self, seconds: f64) {
        self.count("edit.cold_base_s", seconds);
    }

    /// Analyzes `program` cold on `engine`, which will then replay edits
    /// as a mirror. Returns the resident context.
    pub fn prime(&mut self, engine: &Engine, program: &Program) -> Arc<AnalysisCtx> {
        let (ctx, _) = engine.context_for(program);
        engine.analyze_with_ctx(&ctx, false);
        ctx
    }

    /// Replays the frame layer: encodes and decodes a request and its
    /// response on an in-memory buffer, as the client and daemon each do.
    /// The socket hop between them stays in the round trip's residual.
    fn frames(&mut self, parent: SpanId, req: u64, request: &Value, response: &Value) {
        let [request, response] = self.tracer.span("daemon.frame_rt", Some(parent), req, || {
            [request, response].map(|message| {
                let mut buf = Vec::new();
                write_frame(&mut buf, message).expect("frame encodes");
                black_box(read_frame(&mut buf.as_slice()).expect("frame decodes"));
                buf.len()
            })
        });
        self.count("daemon.request_bytes", request as f64);
        self.count("daemon.response_bytes", response as f64);
    }

    /// Parses and hashes `source` as a request does; returns the program.
    fn parse_and_hash(&mut self, parent: SpanId, req: u64, source: &str) -> (Program, u64) {
        let program = self.tracer.span("cmir.parse", Some(parent), req, || {
            parse_program(source).expect("workload source parses")
        });
        self.count("cmir.source_bytes", source.len() as f64);
        let hash = self.tracer.span("engine.hash", Some(parent), req, || {
            AnalysisCtx::hash_program(&program)
        });
        (program, hash)
    }

    /// Attributes one warm `analyze` round trip that took `start..end`:
    /// replays parse, hash, the warm engine run, the report encoding and the
    /// frames on `mirror`, which has analyzed `source`.
    fn replay_request(
        &mut self,
        mirror: &Engine,
        source: &str,
        answer: &AnalyzeOutcome,
        start: Instant,
        end: Instant,
    ) {
        let req = self.request_id();
        let root = self
            .tracer
            .record("daemon.request_rt", None, req, start, end);
        let (program, hash) = self.parse_and_hash(root, req, source);
        let report = self.warm_analyze(root, req, mirror, hash);
        self.encode(root, req, &report);
        let response = response_value(answer);
        self.frames(root, req, &source_request("analyze", source), &response);
        // Not a child: the daemon's request path does not typecheck.
        self.tracer.span("cmir.typecheck", None, req, || {
            black_box(validate_program(&program))
        });
    }

    fn warm_analyze(&mut self, parent: SpanId, req: u64, mirror: &Engine, hash: u64) -> Report {
        let ctx = mirror
            .ctx_store()
            .get(hash)
            .expect("the mirror engine holds the served program");
        let report = self
            .tracer
            .span("engine.analyze_warm", Some(parent), req, || {
                mirror.analyze_with_ctx(&ctx, true)
            });
        self.count("engine.cache_hit_rate", report.stats.hit_rate());
        report
    }

    fn encode(&mut self, parent: SpanId, req: u64, report: &Report) -> String {
        let json = self.tracer.span("diag.encode_json", Some(parent), req, || {
            report.diagnostics_json()
        });
        self.count("diag.json_bytes", json.len() as f64);
        json
    }

    /// Attributes one edit round trip (`notify_edit` + `analyze` of
    /// `source`, the program the edit leads to). `timed` is the daemon
    /// round trip, which is also the sample of the kind's
    /// `edit.<kind>_p50_s`; with `None` the replay runs in-process only and
    /// its own duration is the sample. `resident` is the mirror's context
    /// for the previous program and is advanced.
    pub fn replay_edit(
        &mut self,
        mirror: &Engine,
        resident: &mut Arc<AnalysisCtx>,
        kind: EditKind,
        source: &str,
        timed: Option<(Instant, Instant)>,
    ) {
        let req = self.request_id();
        let begun = Instant::now();
        let root = match timed {
            Some((start, end)) => self.tracer.record("daemon.edit_rt", None, req, start, end),
            // In-process only: the root is the replay itself, recorded
            // below once its end is known.
            None => self.tracer.record("edit.replay", None, req, begun, begun),
        };
        let sensitivity = mirror.required_sensitivity();
        // notify_edit: parse, then apply the edit to the resident state.
        let edited = self.tracer.span("cmir.parse", Some(root), req, || {
            parse_program(source).expect("edited source parses")
        });
        let (ctx, stats) = self.tracer.span("engine.apply_edit", Some(root), req, || {
            mirror.apply_edit(resident, &edited)
        });
        self.count("engine.invalidated", stats.invalidated as f64);
        self.count("engine.retained", stats.retained as f64);
        self.count("engine.retention_rate", stats.retention_rate());
        // analyze: parse and hash again, then the incremental solve and the
        // re-analysis of the invalidated cone.
        let (_, hash) = self.parse_and_hash(root, req, source);
        debug_assert_eq!(hash, ctx.program_hash);
        let pts = self
            .tracer
            .span("pointsto.incremental", Some(root), req, || {
                ctx.pointsto(sensitivity)
            });
        self.count("pointsto.batches_reused", pts.batches_reused as f64);
        self.count("pointsto.batches_generated", pts.batches_generated as f64);
        let report = self.tracer.span("engine.reanalyze", Some(root), req, || {
            mirror.analyze_with_ctx(&ctx, true)
        });
        let json = self.encode(root, req, &report);
        let answer = AnalyzeOutcome {
            program_hash: format!("{:016x}", ctx.program_hash),
            diagnostics_json: json,
            diagnostic_count: report.diagnostics.len(),
            stats: report.stats.clone(),
        };
        let mut edit_response = Map::new();
        edit_response.insert("ok".into(), Value::from(true));
        edit_response.insert(
            "program_hash".into(),
            Value::from(answer.program_hash.as_str()),
        );
        edit_response.insert("invalidation".into(), invalidation_to_value(&stats));
        self.frames(
            root,
            req,
            &source_request("notify_edit", source),
            &Value::Object(edit_response),
        );
        self.frames(
            root,
            req,
            &source_request("analyze", source),
            &response_value(&answer),
        );
        match timed {
            Some((start, end)) => self.count(edit_metric(kind), (end - start).as_secs_f64()),
            None => {
                // The in-process root spans the replay itself. No measured
                // operation stands behind it, so it is not one of the ROOTS.
                let end = Instant::now();
                self.count(edit_metric(kind), (end - begun).as_secs_f64());
                self.tracer.close(root, end);
            }
        }
        let cache = mirror.pointsto_cache();
        self.counts
            .insert("pointsto.solves_cold", vec![cache.solves_cold() as f64]);
        self.counts.insert(
            "pointsto.solves_repropagate",
            vec![cache.solves_repropagate() as f64],
        );
        self.counts
            .insert("pointsto.solves_delta", vec![cache.solves_delta() as f64]);
        *resident = ctx;
    }

    /// Times one real cold `Engine::analyze` of `program` on a fresh
    /// engine, then decomposes it on a second fresh engine into the context
    /// lookup, the points-to solve, the summaries and each checker's
    /// `check_program` + `check_function` calls. Also times each
    /// sensitivity's standalone cold points-to solve. Returns the real
    /// run's report.
    pub fn replay_cold(&mut self, program: &Program) -> Report {
        let req = self.request_id();
        let engine = fleet();
        let start = Instant::now();
        let report = engine.analyze(program);
        let root = self
            .tracer
            .record("engine.analyze_cold", None, req, start, Instant::now());
        drop(engine);

        let engine = fleet();
        let sensitivity = engine.required_sensitivity();
        // The context lookup: the program hash, then a fresh context.
        let (ctx, _) = self.tracer.span("engine.context", Some(root), req, || {
            engine.context_for(program)
        });
        self.tracer.span("engine.pointsto", Some(root), req, || {
            black_box(ctx.pointsto(sensitivity))
        });
        let summaries = self.tracer.span("engine.summaries", Some(root), req, || {
            ctx.summaries(sensitivity)
        });
        let functions: Vec<_> = summaries
            .condensation
            .sccs
            .iter()
            .flatten()
            .filter_map(|name| ctx.program.function(name))
            .collect();
        for checker in engine.checkers() {
            let layer = match checker.name() {
                "deputy" => "deputy.check",
                "ccount" => "ccount.check",
                "blockstop" => "blockstop.check",
                other => panic!("unexpected checker {other}"),
            };
            let diagnostics = self.tracer.span(layer, Some(root), req, || {
                // The fingerprint is part of every cache lookup the engine
                // makes, so it is charged to the checker that defines it.
                let mut n = checker.check_program(&ctx).len();
                for func in &functions {
                    black_box(checker.context_fingerprint(&ctx, func));
                    n += checker.check_function(&ctx, func).len();
                }
                n
            });
            self.count(diagnostics_metric(layer), diagnostics as f64);
        }
        drop(ctx);
        drop(engine);

        for sensitivity in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ] {
            let layer = match sensitivity {
                Sensitivity::Steensgaard => "pointsto.steensgaard_cold",
                Sensitivity::Andersen => "pointsto.andersen_cold",
                Sensitivity::AndersenField => "pointsto.andersen_field_cold",
            };
            let result = self.tracer.span(layer, None, req, || {
                analyze_with(program, sensitivity, SolveOptions::default())
            });
            if sensitivity == Sensitivity::Steensgaard {
                self.count("pointsto.constraints", result.constraint_count as f64);
            }
        }
        report
    }

    /// Runs whatever layer groups the workload's own traced loop did not
    /// reach, so that every per-layer metric is measured on every workload:
    /// cold decomposition, in-process edits of each kind, and warm daemon
    /// round trips on `source`.
    pub fn complete(
        &mut self,
        program: &Program,
        source: &str,
        drivers: usize,
        seed: u64,
        client: &mut Client,
        mirror: &Engine,
    ) {
        if !self.has("engine.analyze_cold") {
            self.replay_cold(program);
        }
        if !self.has("engine.apply_edit") {
            let editor = fleet();
            let start = Instant::now();
            let mut resident = self.prime(&editor, program);
            self.cold_base(start.elapsed().as_secs_f64());
            let mut script = EditScript::new(source.to_string(), drivers, seed);
            for _ in 0..EditKind::ALL.len() {
                let edit = script.next_edit();
                self.replay_edit(&editor, &mut resident, edit.kind, &edit.source, None);
            }
        }
        if !self.has("daemon.request_rt") {
            // Both sides hold `source` warm before the replayed requests.
            client.analyze(source).expect("priming analyze");
            mirror.analyze(program);
            for _ in 0..REPLAYED_REQUESTS {
                let start = Instant::now();
                let answer = client.analyze(source).expect("warm analyze");
                let end = Instant::now();
                self.replay_request(mirror, source, &answer, start, end);
            }
        }
    }
}

fn edit_metric(kind: EditKind) -> &'static str {
    match kind {
        EditKind::Local => "edit.local_p50_s",
        EditKind::Ptr => "edit.ptr_p50_s",
        EditKind::Hub => "edit.hub_p50_s",
    }
}

fn diagnostics_metric(layer: &str) -> &'static str {
    match layer {
        "deputy.check" => "deputy.diagnostics",
        "ccount.check" => "ccount.diagnostics",
        _ => "blockstop.diagnostics",
    }
}

/// The request frame a client sends for `verb` over `source`.
pub fn source_request(verb: &str, source: &str) -> Value {
    let mut m = request(verb);
    m.insert("source".into(), Value::from(source));
    Value::Object(m)
}

/// The daemon's response to an `analyze` request, rebuilt from the
/// client's typed answer.
fn response_value(answer: &AnalyzeOutcome) -> Value {
    let mut m = Map::new();
    m.insert("ok".into(), Value::from(true));
    m.insert(
        "program_hash".into(),
        Value::from(answer.program_hash.as_str()),
    );
    m.insert(
        "diagnostics_json".into(),
        Value::from(answer.diagnostics_json.as_str()),
    );
    m.insert(
        "diagnostic_count".into(),
        Value::from(answer.diagnostic_count),
    );
    m.insert("stats".into(), answer.stats.to_value());
    Value::Object(m)
}
