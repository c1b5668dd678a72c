//! Per-function summaries, SCC condensation, and dependency hashing.
//!
//! The analysis engine (`ivy-engine`) schedules checker work bottom-up over
//! the call graph and caches per-function results across runs. Both needs
//! are served from here:
//!
//! * [`Condensation`] — Tarjan SCC condensation of a [`CallGraph`] plus a
//!   bottom-up level order (level 0 = leaf SCCs), the unit of parallel
//!   scheduling.
//! * [`FunctionSummary`] — per-function facts: direct+indirect callees, a
//!   content hash of the (pretty-printed) definition, and a *cone hash*
//!   mixing the content hash with the cone hashes of everything reachable
//!   from the function. Two functions with equal cone hashes have
//!   byte-identical bodies *and* byte-identical transitive callees, which is
//!   what makes the hash a sound cache key for bottom-up analyses.
//! * [`ProgramSummaries::env_hash`] — a hash of the whole-program type
//!   environment (composites, typedefs, globals, and every function
//!   *signature*), the extra dependency of analyses that consult callee
//!   signatures rather than callee bodies.

use crate::callgraph::CallGraph;
use ivy_cmir::ast::Program;
use ivy_cmir::pretty::pretty_function;
use std::collections::{BTreeMap, BTreeSet};

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Mixes a value into an existing hash (order-sensitive).
pub fn mix(hash: u64, value: u64) -> u64 {
    let mut h = hash ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Summary of one function for scheduling and caching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSummary {
    /// Function name.
    pub name: String,
    /// Every possible callee (direct and points-to-resolved indirect).
    pub callees: BTreeSet<String>,
    /// Hash of the pretty-printed definition (attributes, signature, body).
    pub content_hash: u64,
    /// Hash of the definition plus the cone hashes of all transitive
    /// callees (SCC-aware, so recursion is well-defined).
    pub cone_hash: u64,
    /// Index of the function's SCC in [`Condensation::sccs`].
    pub scc: usize,
}

/// SCC condensation of a call graph with a bottom-up schedule.
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    /// The strongly connected components; members sorted by name.
    pub sccs: Vec<Vec<String>>,
    /// Function name → SCC index.
    pub scc_of: BTreeMap<String, usize>,
    /// Bottom-up waves of SCC indices: every SCC in `levels[i]` only calls
    /// into SCCs at levels `< i`, so all SCCs of one level can be analyzed
    /// in parallel once the previous levels are done.
    pub levels: Vec<Vec<usize>>,
}

/// Summaries for a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramSummaries {
    /// Per-function summaries.
    pub functions: BTreeMap<String, FunctionSummary>,
    /// The condensation used to order them.
    pub condensation: Condensation,
    /// Hash of the type environment: composites, typedefs, globals, and all
    /// function signatures (bodies excluded).
    pub env_hash: u64,
}

impl ProgramSummaries {
    /// The cone hash for a function, if it is known.
    pub fn cone_hash(&self, func: &str) -> Option<u64> {
        self.functions.get(func).map(|s| s.cone_hash)
    }
}

/// Iterative Tarjan SCC over integer nodes `0..succ.len()`. Components are
/// emitted with successors before their predecessors (reverse topological
/// order of the condensation), members sorted ascending.
pub fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }

    let mut state = vec![NodeState::default(); succ.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack of (node, next-successor-position).
    for start in 0..succ.len() {
        if state[start].index.is_some() {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
            if *pos == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if state[w].index.is_none() {
                    dfs.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.expect("visited"));
                }
            } else {
                // v is finished.
                if state[v].lowlink == state[v].index.expect("visited") {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack non-empty");
                        state[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
            }
        }
    }
    sccs
}

/// Tarjan SCC over function names; edges come from the call graph
/// (restricted to functions that exist in the program, so calls to VM
/// builtins do not create phantom nodes).
fn tarjan(nodes: &[String], edges: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let id_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let succ: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            edges
                .get(n)
                .map(|cs| {
                    cs.iter()
                        .filter_map(|c| id_of.get(c.as_str()).copied())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    tarjan_sccs(&succ)
        .into_iter()
        .map(|comp| {
            let mut comp: Vec<String> = comp.into_iter().map(|i| nodes[i].clone()).collect();
            comp.sort();
            comp
        })
        .collect()
}

impl Condensation {
    /// Builds the condensation of `cg` over the functions of `program`.
    /// Tarjan emits SCCs with callees before callers, which directly yields
    /// the bottom-up level structure.
    pub fn build(program: &Program, cg: &CallGraph) -> Condensation {
        let nodes: Vec<String> = program.functions.iter().map(|f| f.name.clone()).collect();
        let sccs = tarjan(&nodes, &cg.edges);
        let mut scc_of = BTreeMap::new();
        for (i, comp) in sccs.iter().enumerate() {
            for name in comp {
                scc_of.insert(name.clone(), i);
            }
        }

        // Level = 1 + max(level of callee SCCs); SCCs arrive in an order
        // where callees precede callers, so one pass suffices.
        let mut level_of = vec![0usize; sccs.len()];
        for (i, comp) in sccs.iter().enumerate() {
            let mut level = 0usize;
            for member in comp {
                if let Some(callees) = cg.edges.get(member) {
                    for callee in callees {
                        if let Some(&j) = scc_of.get(callee) {
                            if j != i {
                                level = level.max(level_of[j] + 1);
                            }
                        }
                    }
                }
            }
            level_of[i] = level;
        }
        let max_level = level_of.iter().copied().max().unwrap_or(0);
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
        for (i, &l) in level_of.iter().enumerate() {
            levels[l].push(i);
        }
        Condensation {
            sccs,
            scc_of,
            levels,
        }
    }
}

/// Hash of the whole-program type environment (signatures, not bodies).
///
/// Delegates to the span-insensitive structural hasher in
/// [`ivy_cmir::content`]; the incremental points-to path computes this on
/// every re-solve, so it must not allocate the pretty-printed environment
/// just to hash it.
pub fn env_hash(program: &Program) -> u64 {
    ivy_cmir::content::program_env_hash(program)
}

/// Builds the per-function summaries of a program over a call graph.
pub fn summarize(program: &Program, cg: &CallGraph) -> ProgramSummaries {
    let condensation = Condensation::build(program, cg);
    let env = env_hash(program);

    let content: BTreeMap<String, u64> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), fnv1a(pretty_function(f).as_bytes())))
        .collect();

    // Cone hash per SCC, bottom-up (Tarjan order has callees first). The
    // SCC's hash mixes every member's content hash plus every callee SCC's
    // cone hash; a member's cone hash then re-mixes its own content so two
    // members of one SCC still hash differently.
    let mut scc_cone = vec![0u64; condensation.sccs.len()];
    for (i, comp) in condensation.sccs.iter().enumerate() {
        let mut h = fnv1a(b"scc");
        for member in comp {
            h = mix(h, content[member]);
        }
        let mut callee_sccs: BTreeSet<usize> = BTreeSet::new();
        for member in comp {
            if let Some(callees) = cg.edges.get(member) {
                for callee in callees {
                    if let Some(&j) = condensation.scc_of.get(callee) {
                        if j != i {
                            callee_sccs.insert(j);
                        }
                    }
                }
            }
        }
        for j in callee_sccs {
            h = mix(h, scc_cone[j]);
        }
        scc_cone[i] = h;
    }

    let mut functions = BTreeMap::new();
    for f in &program.functions {
        let scc = condensation.scc_of[&f.name];
        let callees = cg.edges.get(&f.name).cloned().unwrap_or_default();
        functions.insert(
            f.name.clone(),
            FunctionSummary {
                name: f.name.clone(),
                callees,
                content_hash: content[&f.name],
                cone_hash: mix(scc_cone[scc], content[&f.name]),
                scc,
            },
        );
    }
    ProgramSummaries {
        functions,
        condensation,
        env_hash: env,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::{analyze, Sensitivity};
    use ivy_cmir::parser::parse_program;

    const SRC: &str = r#"
        fn leaf() { }
        fn mid() { leaf(); }
        fn rec_a(n: u32) { if (n > 0) { rec_b(n - 1); } }
        fn rec_b(n: u32) { rec_a(n); mid(); }
        fn top() { rec_a(3); }
    "#;

    fn build(src: &str) -> (ivy_cmir::ast::Program, CallGraph) {
        let p = parse_program(src).unwrap();
        let pts = analyze(&p, Sensitivity::Steensgaard);
        let cg = CallGraph::build(&p, &pts);
        (p, cg)
    }

    #[test]
    fn condensation_groups_recursion_and_levels_are_bottom_up() {
        let (p, cg) = build(SRC);
        let cond = Condensation::build(&p, &cg);
        let scc_rec_a = cond.scc_of["rec_a"];
        assert_eq!(
            scc_rec_a, cond.scc_of["rec_b"],
            "mutual recursion in one SCC"
        );
        assert_ne!(cond.scc_of["leaf"], cond.scc_of["mid"]);
        // Every SCC's callees live at strictly lower levels.
        let level_of = |scc: usize| {
            cond.levels
                .iter()
                .position(|l| l.contains(&scc))
                .expect("every scc has a level")
        };
        assert!(level_of(cond.scc_of["leaf"]) < level_of(cond.scc_of["mid"]));
        assert!(level_of(cond.scc_of["mid"]) < level_of(scc_rec_a));
        assert!(level_of(scc_rec_a) < level_of(cond.scc_of["top"]));
    }

    #[test]
    fn cone_hash_changes_exactly_for_the_dirty_cone() {
        let (p1, cg1) = build(SRC);
        let s1 = summarize(&p1, &cg1);
        // Edit leaf(): everything reaching leaf is dirty, top/rec_* included.
        let edited = SRC.replace("fn leaf() { }", "fn leaf() { let x: u32 = 1; }");
        let (p2, cg2) = build(&edited);
        let s2 = summarize(&p2, &cg2);
        for dirty in ["leaf", "mid", "rec_a", "rec_b", "top"] {
            assert_ne!(
                s1.cone_hash(dirty),
                s2.cone_hash(dirty),
                "{dirty} should be dirty"
            );
        }

        // Edit top() only: the cone below it is untouched.
        let edited = SRC.replace("fn top() { rec_a(3); }", "fn top() { rec_a(4); }");
        let (p3, cg3) = build(&edited);
        let s3 = summarize(&p3, &cg3);
        assert_ne!(s1.cone_hash("top"), s3.cone_hash("top"));
        for clean in ["leaf", "mid", "rec_a", "rec_b"] {
            assert_eq!(
                s1.cone_hash(clean),
                s3.cone_hash(clean),
                "{clean} should be clean"
            );
        }
    }

    #[test]
    fn env_hash_tracks_signatures_not_bodies() {
        let (p1, _) = build(SRC);
        let body_edit = SRC.replace("fn top() { rec_a(3); }", "fn top() { rec_a(4); }");
        let (p2, _) = build(&body_edit);
        assert_eq!(env_hash(&p1), env_hash(&p2), "body edits keep the env hash");
        let sig_edit = SRC.replace("fn top()", "fn top(flags: u32)");
        let (p3, _) = build(&sig_edit);
        assert_ne!(
            env_hash(&p1),
            env_hash(&p3),
            "signature edits change the env hash"
        );
    }
}
