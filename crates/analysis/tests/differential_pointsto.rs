//! Differential testing of the worklist points-to solver against the
//! retained naive reference, in the spirit of Klinger et al.'s differential
//! program-analysis testing: generate random programs, run both solvers at
//! every sensitivity, and require *identical* `pts` and `indirect_targets`.
//!
//! Programs are derived from `ivy-kernelgen` corpora: a generated kernel is
//! randomly sub-sampled (whole functions dropped, bodies of others turned
//! extern) so every case exercises a different constraint graph — dangling
//! direct calls, unresolved indirect sites, orphaned function pointers —
//! while staying realistic kernel code. The incremental path re-solves each
//! case against one shared [`ConstraintCache`], so cross-program batch and
//! interner reuse is under the same identity check.
//!
//! CI runs this file explicitly and fails if these tests are filtered out
//! or skipped (see `.github/workflows/ci.yml`).

use ivy_analysis::pointsto::{
    analyze, analyze_incremental, analyze_incremental_with, analyze_naive, analyze_with,
    verify_derivations, ConstraintCache, Loc, PointsToResult, Sensitivity, SolveOptions,
    SolverChoice,
};
use ivy_cmir::ast::Program;
use ivy_kernelgen::{subsample_program, KernelBuild, KernelConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Cases per property; each case checks all three sensitivities, so every
/// sensitivity level sees this many generated programs (the acceptance
/// floor is 100 per level).
const CASES: u32 = 110;

/// Base kernels, generated once for the whole run.
fn base_kernels() -> &'static Vec<Program> {
    static BASES: OnceLock<Vec<Program>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut tiny = KernelConfig::small();
        tiny.drivers = 1;
        tiny.fp_groups = 1;
        tiny.cache_defects = 1;
        tiny.ring_defects = 1;
        vec![
            KernelBuild::generate(&tiny).program,
            KernelBuild::generate(&KernelConfig::small()).program,
        ]
    })
}

/// One constraint cache per sensitivity, shared across *all* generated
/// cases so the incremental path is exercised with genuine cross-program
/// batch and interner reuse.
fn shared_caches() -> &'static [ConstraintCache; 3] {
    static CACHES: OnceLock<[ConstraintCache; 3]> = OnceLock::new();
    CACHES.get_or_init(|| {
        [
            ConstraintCache::new(),
            ConstraintCache::new(),
            ConstraintCache::new(),
        ]
    })
}

/// The point query agrees with the reference's whole map: `points_to` on
/// `r` equals `slow.pts()` at every location the reference knows, and a
/// location no solve ever interned has an empty set.
fn point_queries_match(
    r: &PointsToResult,
    slow: &PointsToResult,
    what: &str,
) -> Result<(), String> {
    for (loc, set) in slow.pts() {
        prop_assert_eq!(&r.points_to(loc), set, "{} point query at {}", what, loc);
    }
    let never = Loc::Global("$never_interned".into());
    prop_assert!(
        r.points_to(&never).is_empty(),
        "{} point query on an unknown location",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn worklist_and_incremental_match_naive_on_generated_programs(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        let bases = base_kernels();
        let caches = shared_caches();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        for (i, s) in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ]
        .into_iter()
        .enumerate()
        {
            let slow = analyze_naive(&program, s);
            let fast = analyze(&program, s);
            point_queries_match(&fast, &slow, s.name())?;
            prop_assert_eq!(fast.pts(), slow.pts(), "pts diverge at {}", s.name());
            prop_assert_eq!(
                &fast.indirect_targets, &slow.indirect_targets,
                "indirect targets diverge at {}", s.name()
            );
            prop_assert_eq!(fast.initial_constraints, slow.initial_constraints);
            prop_assert_eq!(fast.constraint_count, slow.constraint_count);

            // The cache-backed path must agree too (shared interner,
            // cross-program batch reuse).
            let incr = analyze_incremental(&program, s, &caches[i]);
            point_queries_match(&incr, &slow, "cached")?;
            prop_assert_eq!(incr.pts(), slow.pts(), "cached pts diverge at {}", s.name());
            prop_assert_eq!(
                &incr.indirect_targets, &slow.indirect_targets,
                "cached indirect targets diverge at {}", s.name()
            );
        }
    }

    /// Union-find Steensgaard and automatic dispatch against a long-lived
    /// cache, checked against the same naive reference on the same
    /// generated-program distribution. Each case re-solves in a cache that
    /// still holds the previous cases' batches, so the incremental solve
    /// mixes reused and fresh batches from unrelated programs.
    #[test]
    fn unionfind_and_shared_cache_match_naive_on_generated_programs(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        static LONG_LIVED_CACHES: OnceLock<[ConstraintCache; 3]> = OnceLock::new();
        let caches = LONG_LIVED_CACHES.get_or_init(|| {
            [
                ConstraintCache::new(),
                ConstraintCache::new(),
                ConstraintCache::new(),
            ]
        });
        let bases = base_kernels();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        for (i, s) in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ]
        .into_iter()
        .enumerate()
        {
            let slow = analyze_naive(&program, s);

            if s == Sensitivity::Steensgaard {
                let uf = analyze_with(&program, s, SolveOptions {
                    solver: SolverChoice::UnionFind,
                    ..SolveOptions::default()
                });
                point_queries_match(&uf, &slow, "union-find")?;
                prop_assert_eq!(uf.pts(), slow.pts(), "union-find pts diverge");
                prop_assert_eq!(
                    &uf.indirect_targets, &slow.indirect_targets,
                    "union-find indirect targets diverge"
                );
                prop_assert_eq!(uf.constraint_count, slow.constraint_count);
            }

            // Auto dispatch against the long-lived cache: after the first
            // case this re-propagates a plan of reused and fresh batches,
            // and must be identical to the reference.
            let incr = analyze_incremental_with(&program, s, &caches[i], SolveOptions::default());
            prop_assert_eq!(incr.constraint_count, slow.constraint_count);
            point_queries_match(&incr, &slow, incr.mode.name())?;
            prop_assert_eq!(incr.pts(), slow.pts(), "shared-cache pts diverge at {}", s.name());
            prop_assert_eq!(
                &incr.indirect_targets, &slow.indirect_targets,
                "shared-cache indirect targets diverge at {}", s.name()
            );
        }
    }

    /// Provenance recording changes nothing: at every sensitivity the
    /// traced solve produces byte-identical answers, and every recorded
    /// derivation replays — each step's conclusion follows from its
    /// premises by a real rule (AddrOf seed, static copy, or a justified
    /// dynamic edge), premises strictly precede conclusions in the arena,
    /// and the recorded facts are exactly the final sets.
    #[test]
    fn provenance_solves_are_identical_and_replay_on_generated_programs(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        let bases = base_kernels();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        for s in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ] {
            let plain = analyze_with(&program, s, SolveOptions::default());
            let traced = analyze_with(&program, s, SolveOptions::default().with_provenance(true));
            prop_assert_eq!(
                traced.pts(), plain.pts(),
                "provenance pts diverge at {}", s.name()
            );
            prop_assert_eq!(
                &traced.indirect_targets, &plain.indirect_targets,
                "provenance indirect targets diverge at {}", s.name()
            );
            prop_assert_eq!(traced.initial_constraints, plain.initial_constraints);
            prop_assert_eq!(traced.constraint_count, plain.constraint_count);
            let replayed = verify_derivations(&program, &traced);
            prop_assert!(
                replayed.is_ok(),
                "replay failed at {}: {}", s.name(),
                replayed.unwrap_err()
            );
            prop_assert_eq!(replayed.unwrap(), traced.provenance_facts());
        }
    }
}
