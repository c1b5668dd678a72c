//! CI pin for the provenance budget: derivation recording is opt-in, and
//! paying for it while it is *off* would tax every solve in the system.
//! The disabled-mode cost is one branch on an `Option<ProvStore>` per
//! recording site the solver passes; this test prices that gate the same
//! way the telemetry suite prices its disabled span gate — count the
//! events one enabled solve records, multiply by the measured per-gate
//! cost, and hold the product under 2% of the disabled cold-solve wall
//! time. (That the recording never changes an answer is pinned separately
//! by the differential property tests.)

use ivy::analysis::pointsto::{analyze_with, Sensitivity, SolveOptions, SolverChoice};
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::time::Instant;

#[test]
fn disabled_provenance_overhead_stays_under_the_telemetry_budget() {
    let build = KernelBuild::generate(&KernelConfig::paper());
    let worklist = SolveOptions {
        solver: SolverChoice::Worklist,
        provenance: false,
    };

    // Median wall time of the disabled cold solve — the denominator the
    // budget is a percentage of.
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            analyze_with(&build.program, Sensitivity::AndersenField, worklist);
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let disabled_seconds = samples[samples.len() / 2];

    // Every recording call one enabled solve makes: one per derived fact
    // plus one per dynamically-discovered graph edge. Each of those sites
    // costs the disabled mode exactly one gate check.
    let enabled = analyze_with(
        &build.program,
        Sensitivity::AndersenField,
        worklist.with_provenance(true),
    );
    let events = (enabled.provenance_facts() + enabled.provenance_edges()) as u64;
    assert!(events > 0, "the enabled solve must have recorded something");

    // Price the gate: the None branch of an opaque Option, the exact shape
    // of `if let Some(prov) = &mut self.prov` with provenance off.
    const CALLS: u64 = 10_000_000;
    let mut gate: Option<Box<u64>> = None;
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..CALLS {
        if let Some(g) = std::hint::black_box(&mut gate) {
            acc = acc.wrapping_add(**g);
        } else {
            acc = acc.wrapping_add(i & 1);
        }
    }
    std::hint::black_box(acc);
    let gate_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;

    let overhead_pct = (events as f64 * gate_ns) / (disabled_seconds * 1e9) * 100.0;
    assert!(
        overhead_pct < 2.0,
        "disabled provenance costs {overhead_pct:.4}% of a cold solve \
         ({events} gate checks x {gate_ns:.2} ns over {disabled_seconds:.6} s)"
    );
}
