//! The seeded edit script of the `edit_loop` workload.
//!
//! A script fixes one target per edit kind, chosen from the workload seed,
//! and then rotates the kinds `local`, `ptr`, `hub`. Each step rewrites its
//! kind's target with a constant no earlier step used, so every step
//! changes exactly one function relative to the previous program and leads
//! to a program (and a version of that function) the analysis has never
//! seen: no step can be answered from a result cached for an earlier one.
//! `ptr` steps also toggle their pointer store between the edited and the
//! original target. Edits stay on one line, so the line/column spans of
//! every other function are unchanged.

/// What an edit does to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EditKind {
    /// A constant changed in a leaf body: no points-to effect.
    Local,
    /// A pointer-flow change: a `null` store becomes a store of a list head
    /// (and back, on the next visit).
    Ptr,
    /// An edit inside a helper that many functions call.
    Hub,
}

impl EditKind {
    /// All kinds, in script order.
    pub const ALL: [EditKind; 3] = [EditKind::Local, EditKind::Ptr, EditKind::Hub];

    /// Stable name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Local => "local",
            EditKind::Ptr => "ptr",
            EditKind::Hub => "hub",
        }
    }
}

/// The placeholder in [`Target::to`] that a step's constant replaces.
const CONSTANT: &str = "{k}";

/// One edit target: the first occurrence of `from` inside the body of
/// `function` is replaced by one of the `to` forms, with [`CONSTANT`]
/// filled in. Visits alternate between the two forms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Target {
    /// Edit kind.
    pub kind: EditKind,
    /// Function whose body is edited.
    pub function: String,
    /// Original text.
    pub from: String,
    /// Edited text of odd and even visits.
    pub to: [String; 2],
}

impl Target {
    /// The edited text of the `visit`-th visit (0-based) with `constant`.
    fn text(&self, visit: u64, constant: u64) -> String {
        self.to[(visit % 2) as usize].replace(CONSTANT, &constant.to_string())
    }
}

/// Pointer-flow edits: each makes a dequeued node point back at the list
/// head of the same type, or (every second visit) restores the `null`
/// store. The unused local carries the step's constant.
const PTR_TARGETS: [(&str, &str, &str); 3] = [
    ("dequeue_task", "t->next", "runqueue"),
    ("munmap_region", "vma->next", "mm_vma_list"),
    ("unload_module", "m->next", "module_list"),
];

/// Helpers called from most subsystems and every driver.
const HUB_TARGETS: [&str; 2] = ["kmemcpy", "kmemset"];

/// SplitMix64: a small, fixed, seedable generator (the script must be
/// reproducible from the workload seed alone).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A program the script leads to: the text currently in place of each
/// target (`None` = the original text).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct State([Option<String>; 3]);

/// One step of the script.
#[derive(Debug, Clone)]
pub struct Edit {
    /// What the step edits.
    pub kind: EditKind,
    /// The program the step leads to.
    pub state: State,
    /// That program's full source.
    pub source: String,
}

/// The edit script over one base program.
#[derive(Debug, Clone)]
pub struct EditScript {
    base: String,
    targets: [Target; 3],
    state: State,
    /// The constant of step 0; step `s` uses `first_constant + s`, so no
    /// two steps write the same text.
    first_constant: u64,
    step: u64,
}

impl EditScript {
    /// A script for `base` (pretty-printed kernelgen source with `drivers`
    /// ethernet drivers), its targets and constants drawn from `seed`.
    pub fn new(base: String, drivers: usize, seed: u64) -> EditScript {
        let mut rng = SplitMix::new(seed);
        let driver = rng.below(drivers.max(1) as u64);
        // Above the original loop bound of 16, as every edited bound is.
        let first_constant = 17 + rng.below(1 << 16);
        let (ptr_fn, field, head) = PTR_TARGETS[rng.below(PTR_TARGETS.len() as u64) as usize];
        let hub_fn = HUB_TARGETS[rng.below(HUB_TARGETS.len() as u64) as usize];
        let same = |to: String| [to.clone(), to];
        let targets = [
            Target {
                kind: EditKind::Local,
                function: format!("eth{driver}_interrupt"),
                from: "while (i < 16)".into(),
                to: same(format!("while (i < {CONSTANT})")),
            },
            Target {
                kind: EditKind::Ptr,
                function: ptr_fn.into(),
                from: format!("{field} = null;"),
                to: [head, "null"]
                    .map(|value| format!("{field} = {value}; let edit_k: u32 = {CONSTANT};")),
            },
            Target {
                kind: EditKind::Hub,
                function: hub_fn.into(),
                from: "i = i + 1;".into(),
                to: same(format!("i = i + {CONSTANT};")),
            },
        ];
        EditScript {
            base,
            targets,
            state: State::default(),
            first_constant,
            step: 0,
        }
    }

    /// The script's targets, in kind order.
    pub fn targets(&self) -> &[Target; 3] {
        &self.targets
    }

    /// The current program (the base program before the first step).
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The next step.
    pub fn next_edit(&mut self) -> Edit {
        let slot = (self.step % 3) as usize;
        let visit = self.step / 3;
        let constant = self.first_constant + self.step;
        self.step += 1;
        self.state.0[slot] = Some(self.targets[slot].text(visit, constant));
        Edit {
            kind: self.targets[slot].kind,
            state: self.state.clone(),
            source: self.source_of(&self.state),
        }
    }

    /// The source of a program the script leads to.
    pub fn source_of(&self, state: &State) -> String {
        let mut source = self.base.clone();
        for (target, text) in self.targets.iter().zip(&state.0) {
            if let Some(text) = text {
                source = apply(&source, &target.function, &target.from, text)
                    .unwrap_or_else(|| panic!("edit target {target:?} is not in the kernel"));
            }
        }
        source
    }
}

/// Replaces the first occurrence of `from` inside the body of `function`
/// with `to`, or `None` if the function or the text is missing.
pub fn apply(source: &str, function: &str, from: &str, to: &str) -> Option<String> {
    let header = source.find(&format!("fn {function}("))?;
    let open = header + source[header..].find('{')?;
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in source[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &source[open..close?];
    let at = open + body.find(from)?;
    let mut out = String::with_capacity(source.len() + to.len());
    out.push_str(&source[..at]);
    out.push_str(to);
    out.push_str(&source[at + from.len()..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::content::function_content_hash;
    use ivy_cmir::parser::parse_program;
    use ivy_cmir::typecheck::validate_program;
    use ivy_cmir::Program;
    use ivy_kernelgen::{KernelBuild, KernelConfig};
    use std::collections::BTreeSet;

    fn changed_functions(a: &Program, b: &Program) -> BTreeSet<String> {
        a.functions
            .iter()
            .filter(|f| {
                b.function(&f.name)
                    .map(|g| function_content_hash(f) != function_content_hash(g))
                    .unwrap_or(true)
            })
            .map(|f| f.name.clone())
            .collect()
    }

    #[test]
    fn every_kind_parses_typechecks_and_changes_one_function_for_several_seeds() {
        let config = KernelConfig::paper();
        let base = KernelBuild::generate(&config).source();
        for seed in [0, 1, 2, 3, 17, 12345, u64::MAX] {
            let mut script = EditScript::new(base.clone(), config.drivers, seed);
            let mut previous = parse_program(&base).unwrap();
            let mut kinds = BTreeSet::new();
            let mut sources = BTreeSet::from([base.clone()]);
            let mut versions = BTreeSet::new();
            // Three rotations: every `ptr` form is visited at least once.
            for step in 0..9 {
                let edit = script.next_edit();
                let kind = edit.kind;
                let program = parse_program(&edit.source)
                    .unwrap_or_else(|e| panic!("seed {seed} {kind:?}: {e}"));
                let v = validate_program(&program);
                assert!(v.is_ok(), "seed {seed} {kind:?}: {:?}", v.errors);
                let changed = changed_functions(&previous, &program);
                let target = &script.targets()[kind as usize];
                assert_eq!(
                    changed,
                    BTreeSet::from([target.function.clone()]),
                    "seed {seed} {kind:?}"
                );
                assert_eq!(edit.source.lines().count(), base.lines().count());
                assert_eq!(script.source_of(&edit.state), edit.source);
                // No step returns to a program, or to a version of the
                // edited function, that an earlier step produced.
                assert!(sources.insert(edit.source), "seed {seed} step {step}");
                let func = program.function(&target.function).unwrap();
                assert!(
                    versions.insert(function_content_hash(func)),
                    "seed {seed} step {step}"
                );
                kinds.insert(kind);
                previous = program;
            }
            assert_eq!(kinds.len(), 3, "seed {seed}");
        }
    }

    #[test]
    fn ptr_edits_toggle_the_pointer_store() {
        let base = KernelBuild::generate(&KernelConfig::paper()).source();
        let mut script = EditScript::new(base, 4, 5);
        let ptr = script.targets()[EditKind::Ptr as usize].clone();
        let field = ptr.from.trim_end_matches(" = null;").to_string();
        let stores: Vec<bool> = (0..12)
            .map(|_| script.next_edit())
            .filter(|e| e.kind == EditKind::Ptr)
            .map(|e| !e.source.contains(&format!("{field} = null;")))
            .collect();
        assert_eq!(stores, [true, false, true, false]);
    }

    #[test]
    fn targets_derive_from_the_seed() {
        let base = KernelBuild::generate(&KernelConfig::paper()).source();
        let mut a = EditScript::new(base.clone(), 4, 7);
        let mut b = EditScript::new(base.clone(), 4, 7);
        assert_eq!(a.targets(), b.targets());
        for _ in 0..4 {
            assert_eq!(a.next_edit().source, b.next_edit().source);
        }
        let distinct: BTreeSet<_> = (0..32)
            .map(|seed| {
                let mut script = EditScript::new(base.clone(), 4, seed);
                script.next_edit().source
            })
            .collect();
        assert_eq!(distinct.len(), 32);
    }

    #[test]
    fn apply_edits_only_inside_the_named_function() {
        let source = "fn a() { x = 1; }\nfn b() { x = 1; }\n";
        assert_eq!(
            apply(source, "b", "x = 1;", "x = 2;").unwrap(),
            "fn a() { x = 1; }\nfn b() { x = 2; }\n"
        );
        assert_eq!(apply(source, "c", "x = 1;", "x = 2;"), None);
    }
}
