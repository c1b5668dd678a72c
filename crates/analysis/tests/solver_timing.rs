//! Ad-hoc solver timing harness for comparing the worklist and union-find
//! solvers phase by phase (intern vs seed vs propagate, via telemetry
//! spans). Ignored by default — not a correctness test; run with
//! `cargo test -p ivy-analysis --release --test solver_timing -- --ignored --nocapture`.

use ivy_analysis::pointsto::{analyze_with, Sensitivity, SolveOptions, SolverChoice};
use ivy_kernelgen::{KernelBuild, KernelConfig};
use std::time::Instant;

#[test]
#[ignore]
fn steensgaard_solver_phase_timing() {
    let build = KernelBuild::generate(&KernelConfig::paper());
    ivy_telemetry::enable_all();
    for round in 0..3 {
        for (label, solver) in [
            ("worklist", SolverChoice::Worklist),
            ("unify", SolverChoice::UnionFind),
        ] {
            let start = Instant::now();
            let r = analyze_with(
                &build.program,
                Sensitivity::Steensgaard,
                SolveOptions {
                    solver,
                    provenance: false,
                },
            );
            let total = start.elapsed();
            eprintln!(
                "round {round} {label}: total {total:?} pops {} constraints {}",
                r.iterations, r.constraint_count
            );
        }
    }
    let spans = ivy_telemetry::spans_snapshot();
    for cat in ["pointsto/intern", "pointsto/seed", "pointsto/propagate"] {
        let times: Vec<u64> = spans
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.dur_us)
            .collect();
        eprintln!("{cat}: {times:?} us");
    }
}
