//! Bench for E6: points-to precision ablation (Steensgaard vs Andersen vs
//! field-sensitive Andersen), the paper's "field- and context-sensitive
//! analysis would improve the results" remark quantified — plus the
//! solver-scaling comparison for the solver substrate: naive reference vs
//! interned worklist solver, cold solve vs incremental re-propagation after
//! a one-function edit, a solver-phase gate for the union-find Steensgaard
//! representation (vs the mirrored-subset worklist), and a provenance
//! column pricing the derivation-recording arena against the plain
//! worklist cold solve. Emits a machine-readable `JSON-SUMMARY` line (the
//! `BENCH_pointsto.json` trajectory).

use criterion::{criterion_group, criterion_main, Criterion};
use ivy_analysis::pointsto::{
    analyze_incremental, analyze_incremental_with, analyze_naive, analyze_with, ConstraintCache,
    Sensitivity, SolveOptions, SolverChoice,
};
use ivy_cmir::ast::Program;
use ivy_core::experiments::{pointsto_ablation, Scale};
use ivy_kernelgen::{KernelBuild, KernelConfig};
use serde_json::{Map, Value};
use std::time::Instant;

const SENSITIVITIES: [Sensitivity; 3] = [
    Sensitivity::Steensgaard,
    Sensitivity::Andersen,
    Sensitivity::AndersenField,
];

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn time_runs(mut run: impl FnMut(), samples: usize) -> f64 {
    median_secs(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median *solver-phase* seconds for `run`: the sum of the
/// `pointsto/seed` and `pointsto/propagate` telemetry spans, i.e. graph
/// build + fixpoint only. The constraint-generation/interning frontend is
/// byte-identical across solvers and dominates end-to-end time on these
/// corpora, so solver-vs-solver comparisons are made on the phases a
/// solver can actually change.
fn solver_secs(mut run: impl FnMut(), samples: usize) -> f64 {
    median_secs(
        (0..samples)
            .map(|_| {
                ivy_telemetry::reset();
                ivy_telemetry::enable_spans();
                run();
                let spans = ivy_telemetry::spans_snapshot();
                ivy_telemetry::disable_spans();
                ivy_telemetry::reset();
                spans
                    .iter()
                    .filter(|s| s.cat == "pointsto/seed" || s.cat == "pointsto/propagate")
                    .map(|s| s.dur_us)
                    .sum::<u64>() as f64
                    / 1e6
            })
            .collect(),
    )
}

/// The edited program for the incremental measurement: one function body
/// grows by a duplicated statement (the same edit the engine's dirty-cone
/// test uses).
fn one_function_edit(program: &Program) -> Program {
    let mut edited = program.clone();
    let func = edited
        .function_mut("watchdog_tick")
        .expect("corpus has watchdog_tick");
    let body = func.body.as_mut().expect("defined");
    let extra = body.stmts.first().cloned().expect("non-empty body");
    body.stmts.insert(0, extra);
    edited
}

fn bench_ablation(c: &mut Criterion) {
    let scale = Scale::paper();
    println!("\n==== E6: points-to precision ablation ====");
    println!(
        "{:<16} {:>9} {:>16} {:>13}",
        "variant", "findings", "false positives", "mean fanout"
    );
    for row in pointsto_ablation(&scale) {
        println!(
            "{:<16} {:>9} {:>16} {:>13.2}",
            row.sensitivity, row.findings, row.false_positives, row.mean_indirect_fanout
        );
    }
    println!();

    // ---- Solver scaling: naive vs worklist, cold vs incremental. --------
    // `large` is the largest configuration this bench uses: the paper
    // corpus plus four 400-deep reverse-ordered pointer-handoff chains —
    // the adversarial case for the naive solver (one full rescan round per
    // chain link) and the representative case for deep kernel pointer
    // plumbing.
    let mut large_config = KernelConfig::paper();
    large_config.chains = 4;
    large_config.chain_depth = 400;
    let sweep = [
        ("paper", KernelConfig::paper(), 3usize),
        ("large", large_config, 1usize),
    ];

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut summary = ivy_bench::summary::Summary::new("table6_pointsto_solver");
    let mut cfg = Map::new();
    cfg.insert("kernels".into(), Value::from("paper,large"));
    cfg.insert(
        "sensitivities".into(),
        Value::from("steensgaard,andersen,andersen_field"),
    );
    cfg.insert("available_parallelism".into(), Value::from(cpus));
    summary.config(Value::Object(cfg));
    // (kernel, variant, worklist, unify) solver-phase seconds for the E6c
    // table.
    let mut solver_rows: Vec<(String, String, f64, Option<f64>)> = Vec::new();
    println!(
        "==== E6b: solver scaling (naive vs worklist, cold vs incremental vs provenance) ===="
    );
    println!(
        "{:<8} {:<16} {:>12} {:>12} {:>9} {:>12} {:>9} {:>12} {:>8}",
        "kernel",
        "variant",
        "naive (s)",
        "worklist (s)",
        "speedup",
        "incr (s)",
        "vs cold",
        "prov (s)",
        "prov-x",
    );
    for (name, config, naive_samples) in &sweep {
        let build = KernelBuild::generate(config);
        let edited = one_function_edit(&build.program);
        for s in SENSITIVITIES {
            let worklist = SolveOptions {
                solver: SolverChoice::Worklist,
                provenance: false,
            };
            let naive_cold = time_runs(
                || {
                    analyze_naive(&build.program, s);
                },
                *naive_samples,
            );
            // Pinned to the worklist so the baseline column stays the same
            // solver regardless of dispatch.
            let worklist_cold = time_runs(
                || {
                    analyze_with(&build.program, s, worklist);
                },
                5,
            );
            // The same cold solve with the derivation arena recording —
            // the E6 provenance column. The answers are byte-identical
            // (pinned by the differential tests); this row prices the
            // recording itself.
            let provenance_cold = time_runs(
                || {
                    analyze_with(&build.program, s, worklist.with_provenance(true));
                },
                5,
            );
            // Incremental re-propagation: prime a fresh cache with the
            // base program, then measure the first re-solve of the
            // one-function edit (so every sample sees exactly one dirty
            // batch, never a fully-warm replay). Pinned to the worklist.
            let incremental = median_secs(
                (0..5)
                    .map(|_| {
                        let cache = ConstraintCache::new();
                        analyze_incremental_with(&build.program, s, &cache, worklist);
                        let start = Instant::now();
                        analyze_incremental_with(&edited, s, &cache, worklist);
                        start.elapsed().as_secs_f64()
                    })
                    .collect(),
            );
            // Solver-phase timings (seed + propagate spans only) — the
            // phases a solver implementation can actually change. The
            // worklist baseline is measured for every row; the union-find
            // representation exists only for Steensgaard.
            let solver_with = |choice: SolverChoice| {
                solver_secs(
                    || {
                        analyze_with(
                            &build.program,
                            s,
                            SolveOptions {
                                solver: choice,
                                provenance: false,
                            },
                        );
                    },
                    5,
                )
            };
            let worklist_solver = solver_with(SolverChoice::Worklist);
            let unify_solver =
                (s == Sensitivity::Steensgaard).then(|| solver_with(SolverChoice::UnionFind));
            solver_rows.push((
                (*name).to_string(),
                s.name().to_string(),
                worklist_solver,
                unify_solver,
            ));
            let reference = analyze_with(&build.program, s, worklist);
            println!(
                "{:<8} {:<16} {:>12.4} {:>12.4} {:>8.1}x {:>12.5} {:>8.1}x {:>12.4} {:>7.2}x",
                name,
                s.name(),
                naive_cold,
                worklist_cold,
                naive_cold / worklist_cold.max(1e-9),
                incremental,
                worklist_cold / incremental.max(1e-9),
                provenance_cold,
                provenance_cold / worklist_cold.max(1e-9),
            );
            let mut row = Map::new();
            row.insert("kernel".into(), Value::from(*name));
            row.insert("sensitivity".into(), Value::from(s.name()));
            row.insert(
                "functions".into(),
                Value::from(build.program.functions.len()),
            );
            row.insert(
                "initial_constraints".into(),
                Value::from(reference.initial_constraints),
            );
            row.insert(
                "total_constraints".into(),
                Value::from(reference.constraint_count),
            );
            row.insert("naive_cold_seconds".into(), Value::from(naive_cold));
            row.insert("worklist_cold_seconds".into(), Value::from(worklist_cold));
            row.insert(
                "cold_speedup".into(),
                Value::from(naive_cold / worklist_cold.max(1e-9)),
            );
            row.insert("incremental_seconds".into(), Value::from(incremental));
            row.insert(
                "incremental_speedup_vs_cold".into(),
                Value::from(worklist_cold / incremental.max(1e-9)),
            );
            row.insert(
                "incremental_speedup_vs_naive".into(),
                Value::from(naive_cold / incremental.max(1e-9)),
            );
            row.insert(
                "provenance_cold_seconds".into(),
                Value::from(provenance_cold),
            );
            row.insert(
                "provenance_overhead".into(),
                Value::from(provenance_cold / worklist_cold.max(1e-9)),
            );
            row.insert(
                "worklist_solver_seconds".into(),
                Value::from(worklist_solver),
            );
            if let Some(unify_solver) = unify_solver {
                row.insert("unify_solver_seconds".into(), Value::from(unify_solver));
                row.insert(
                    "unify_solver_speedup".into(),
                    Value::from(worklist_solver / unify_solver.max(1e-9)),
                );
            }
            summary.push_row(row);
            if *name == "paper" && s == Sensitivity::AndersenField {
                summary.headline(
                    "paper_field_provenance_overhead",
                    provenance_cold / worklist_cold.max(1e-9),
                );
            }
            if *name == "paper" && s == Sensitivity::Steensgaard {
                let unify_solver = unify_solver.expect("measured for steensgaard");
                let unify_speedup = worklist_solver / unify_solver.max(1e-9);
                summary.headline("paper_steensgaard_unify_speedup", unify_speedup);
                assert!(
                    unify_speedup >= 5.0,
                    "union-find Steensgaard must be >=5x the mirrored-subset \
                     worklist (solver phase) on the paper kernel, got {unify_speedup:.1}x"
                );
            }
            if *name == "large" && s == Sensitivity::AndersenField {
                summary.headline("large_field_worklist_cold_seconds", worklist_cold);
                summary.headline(
                    "large_field_cold_speedup",
                    naive_cold / worklist_cold.max(1e-9),
                );
                summary.headline(
                    "large_field_incremental_speedup_vs_cold",
                    worklist_cold / incremental.max(1e-9),
                );
            }
        }
    }
    println!("\n==== E6c: solver-phase timing (seed+propagate spans) ====");
    println!(
        "{:<8} {:<16} {:>12} {:>11} {:>8}",
        "kernel", "variant", "worklist (s)", "unify (s)", "unify-x"
    );
    let fmt_opt = |v: Option<f64>, width: usize| match v {
        Some(v) => format!("{v:>width$.5}"),
        None => format!("{:>width$}", "-"),
    };
    let fmt_ratio = |num: f64, den: Option<f64>, width: usize| match den {
        Some(d) => format!("{:>w$.1}x", num / d.max(1e-9), w = width - 1),
        None => format!("{:>width$}", "-"),
    };
    for (kernel, variant, wl, unify) in &solver_rows {
        println!(
            "{:<8} {:<16} {:>12.5} {} {}",
            kernel,
            variant,
            wl,
            fmt_opt(*unify, 11),
            fmt_ratio(*wl, *unify, 8),
        );
    }
    println!();
    summary.emit();

    // Criterion measurements on the paper configuration.
    let build = KernelBuild::generate(&scale.kernel);
    let mut group = c.benchmark_group("pointsto");
    group.sample_size(10);
    for s in SENSITIVITIES {
        group.bench_function(format!("worklist/{}", s.name()), |b| {
            b.iter(|| {
                analyze_with(
                    &build.program,
                    s,
                    SolveOptions {
                        solver: SolverChoice::Worklist,
                        provenance: false,
                    },
                )
            })
        });
    }
    group.bench_function("worklist-provenance/andersen+field", |b| {
        b.iter(|| {
            analyze_with(
                &build.program,
                Sensitivity::AndersenField,
                SolveOptions {
                    solver: SolverChoice::Worklist,
                    provenance: true,
                },
            )
        })
    });
    group.bench_function("unify/steensgaard", |b| {
        b.iter(|| {
            analyze_with(
                &build.program,
                Sensitivity::Steensgaard,
                SolveOptions {
                    solver: SolverChoice::UnionFind,
                    provenance: false,
                },
            )
        })
    });
    let cache = ConstraintCache::new();
    analyze_incremental(&build.program, Sensitivity::AndersenField, &cache);
    group.bench_function("incremental-warm/andersen+field", |b| {
        b.iter(|| analyze_incremental(&build.program, Sensitivity::AndersenField, &cache))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
