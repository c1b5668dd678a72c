//! Correctness checks. Each runs outside the timed region; a failed check
//! counts as a failed operation.

use ivy_analysis::pointsto::{analyze_naive, analyze_with, Sensitivity, SolveOptions};
use ivy_cmir::Program;
use ivy_engine::{Report, Severity};
use ivy_kernelgen::GroundTruth;
use ivy_oracle::{EntrySpec, Oracle};

/// The outcome of one named check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Failures found (empty when the check passed).
    pub failures: Vec<String>,
}

impl Check {
    /// A check named `name` that found `failures`.
    pub fn new(name: impl Into<String>, failures: Vec<String>) -> Check {
        Check {
            name: name.into(),
            failures,
        }
    }

    /// Whether the check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// BlockStop reports every seeded blocking bug (an error in the seeded
/// caller), and CCount flags every seeded bad-free function (its
/// instrumentation report counts at least one checked free site there).
pub fn ground_truth(label: &str, report: &Report, truth: &GroundTruth) -> Check {
    let mut failures = Vec::new();
    for bug in &truth.blocking_bugs {
        let reported = report.diagnostics.iter().any(|d| {
            d.code == "blockstop/atomic-call"
                && d.severity == Severity::Error
                && d.function == bug.caller
        });
        if !reported {
            failures.push(format!(
                "blockstop missed the blocking bug in {}",
                bug.caller
            ));
        }
    }
    for defect in &truth.bad_free_defects {
        let flagged = report.diagnostics.iter().any(|d| {
            d.code == "ccount/instrumentation"
                && d.function == defect.function
                && checked_free_sites(&d.message) > 0
        });
        if !flagged {
            failures.push(format!("ccount did not flag {}", defect.function));
        }
    }
    Check::new(format!("{label}: ground truth"), failures)
}

/// The free-site count of a CCount instrumentation message
/// (`"..., 2 free site(s), ..."`).
fn checked_free_sites(message: &str) -> u64 {
    message
        .split(", ")
        .find_map(|part| part.strip_suffix(" free site(s)"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The worklist points-to solution equals the naive reference, for every
/// sensitivity.
pub fn pointsto_matches_naive(label: &str, program: &Program) -> Check {
    let mut failures = Vec::new();
    for sensitivity in [
        Sensitivity::Steensgaard,
        Sensitivity::Andersen,
        Sensitivity::AndersenField,
    ] {
        let fast = analyze_with(program, sensitivity, SolveOptions::default());
        let naive = analyze_naive(program, sensitivity);
        if fast.pts() != naive.pts() || fast.indirect_targets != naive.indirect_targets {
            failures.push(format!(
                "{} differs from the naive solver",
                sensitivity.name()
            ));
        }
    }
    Check::new(format!("{label}: points-to equals naive"), failures)
}

/// The dynamic soundness oracle finds no violation.
pub fn oracle_sound(label: &str, program: &Program) -> Check {
    let report = Oracle::default().run(program, &EntrySpec::defaults_for(program, 6));
    let failures = report
        .violations
        .iter()
        .map(|v| format!("oracle violation: {:?} {}", v.kind, v.key))
        .collect();
    Check::new(format!("{label}: oracle finds no violation"), failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_sites_are_read_from_the_instrumentation_message() {
        let m = "2 counted pointer write(s), 2 local write(s), 3 free site(s), 0 alloc site(s)";
        assert_eq!(checked_free_sites(m), 3);
        assert_eq!(
            checked_free_sites("0 counted pointer write(s), 0 free site(s)"),
            0
        );
        assert_eq!(checked_free_sites("no sites here"), 0);
    }
}
