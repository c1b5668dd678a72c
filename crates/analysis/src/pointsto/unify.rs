//! True union-find Steensgaard solving.
//!
//! The worklist solver handles Steensgaard's equality constraints by
//! *mirroring* every assignment into two subset edges, which makes the
//! coarsest sensitivity the slowest to solve: every fact crosses every
//! mirrored pair twice and the solver carries twice the edges. This module
//! replaces that encoding with the classic near-linear algorithm: a
//! path-compressed, union-by-rank union-find over interned location ids.
//!
//! * Every static `Copy` constraint is a **union** — sound because the
//!   generator emits Steensgaard copies mirrored, i.e. as equalities.
//! * Load/store constraints stay **directional**, exactly as in the
//!   worklist solver (dereference-spawned flows are not mirrored in either
//!   solver): they become class-level subset edges solved by a small
//!   difference-propagating worklist over equivalence classes.
//! * Indirect-call bindings unify argument with parameter and return with
//!   result (the worklist adds both mirror edges; one union is the same
//!   equality), counted exactly like the naive reference (two constraints
//!   per bound pair).
//!
//! At the end, `pts(id)` is materialized as the points-to set of `find(id)`
//! for every id the plan references — byte-identical to the worklist
//! solver's output, because mirrored subset edges force equal fixpoint sets
//! across each equivalence class and the fixpoint is unique.

use super::constraints::{IConstraint, ISite, InternedBatch};
use super::solve::{merge_into, merge_sorted, plan_max_id, BindTable, SolveOutput};
use super::Sensitivity;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Solves a Steensgaard plan by unification. The output is byte-identical
/// to `solve_worklist` on the same (mirrored) plan.
pub(super) fn solve_unify(
    sensitivity: Sensitivity,
    batches: &[Arc<InternedBatch>],
    bind: &BindTable,
) -> SolveOutput {
    debug_assert_eq!(sensitivity, Sensitivity::Steensgaard);
    let seed_span = ivy_telemetry::span("pointsto/seed", sensitivity.name());

    let n = plan_max_id(batches, bind) as usize + 1;
    let mut uf = Unify::new(n, bind);

    // Pass 1: unions. Collapsing classes before any propagation means the
    // subset pass below runs over the condensed graph from the start.
    let mut initial_constraints = 0usize;
    for batch in batches {
        initial_constraints += batch.constraints.len();
        for c in &batch.constraints {
            if let IConstraint::Copy { dst, src } = *c {
                uf.union(dst, src);
            }
        }
    }

    // Pass 2: seeds and directional deref constraints.
    let mut seeds: Vec<(u32, u32)> = Vec::new();
    for batch in batches {
        for c in &batch.constraints {
            match *c {
                IConstraint::AddrOf { dst, loc } => seeds.push((dst, loc)),
                IConstraint::Copy { .. } => {}
                IConstraint::Load { dst, src } => {
                    let r = uf.find(src) as usize;
                    uf.loads[r].push(dst);
                }
                IConstraint::Store { dst, src } => {
                    let r = uf.find(dst) as usize;
                    uf.stores[r].push(src);
                }
            }
        }
    }
    uf.total_constraints = initial_constraints;

    // Indirect sites attach to their callee's class and follow it through
    // later merges.
    let sites: Vec<&ISite> = batches.iter().flat_map(|b| b.sites.iter()).collect();
    for (i, site) in sites.iter().enumerate() {
        let r = uf.find(site.callee) as usize;
        uf.sites_at[r].push(i);
    }

    for (dst, loc) in seeds {
        let r = uf.find(dst);
        uf.add_pts(r, &[loc]);
    }
    drop(seed_span);

    let propagate_span = ivy_telemetry::span("pointsto/propagate", sensitivity.name());
    let mut delta_total = 0u64;
    while let Some(r) = uf.worklist.pop_front() {
        let r = uf.find(r);
        uf.pops += 1;
        uf.inq[r as usize] = false;
        let d = std::mem::take(&mut uf.delta[r as usize]);
        if d.is_empty() {
            continue;
        }
        delta_total += d.len() as u64;
        // `t = *r`: each new pointee class flows into t's class.
        let loads = std::mem::take(&mut uf.loads[r as usize]);
        for &t in &loads {
            for &p in &d {
                uf.add_edge(p, t);
            }
        }
        uf.loads[r as usize].splice(0..0, loads);
        // `*r = s`: s's class flows into each new pointee class.
        let stores = std::mem::take(&mut uf.stores[r as usize]);
        for &s in &stores {
            for &p in &d {
                uf.add_edge(s, p);
            }
        }
        uf.stores[r as usize].splice(0..0, stores);
        // Subset successors receive the delta.
        let succ = std::mem::take(&mut uf.succ[r as usize]);
        for &v in &succ {
            let rv = uf.find(v);
            uf.add_pts(rv, &d);
        }
        uf.succ[r as usize].splice(0..0, succ);
        // Indirect calls through this class: unify with new targets.
        let site_idxs = std::mem::take(&mut uf.sites_at[r as usize]);
        if !site_idxs.is_empty() {
            let new_funcs: Vec<u32> = d
                .iter()
                .copied()
                .filter(|p| uf.bind.func_names.contains_key(p))
                .collect();
            for &f in &new_funcs {
                for &i in &site_idxs {
                    uf.bind_site(sites[i], f, i);
                }
            }
        }
        let home = uf.find(r) as usize;
        uf.sites_at[home].splice(0..0, site_idxs);
    }
    drop(propagate_span);
    ivy_telemetry::counter("ivy_pointsto_worklist_pops_total", uf.pops as u64);
    ivy_telemetry::counter("ivy_pointsto_delta_locations_total", delta_total);
    ivy_telemetry::counter("ivy_pointsto_unify_unions_total", uf.unions);

    // Materialize per-id sets from the class sets.
    let mut sets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for id in 0..n as u32 {
        let r = uf.find(id) as usize;
        if !uf.pts[r].is_empty() {
            sets[id as usize] = uf.pts[r].clone();
        }
    }

    let mut indirect_targets: HashMap<(String, String), BTreeSet<String>> = HashMap::new();
    for site in &sites {
        let targets: BTreeSet<String> = sets[site.callee as usize]
            .iter()
            .filter_map(|p| uf.bind.func_names.get(p).cloned())
            .collect();
        indirect_targets
            .entry((site.func.clone(), site.callee_text.clone()))
            .or_default()
            .extend(targets);
    }

    SolveOutput {
        sets,
        indirect_targets,
        initial_constraints,
        total_constraints: uf.total_constraints,
        pops: uf.pops,
        // Unification derives facts by merging equivalence classes, not by
        // propagating along edges; it records no provenance (dispatch
        // routes provenance solves to the worklist instead).
        provenance: None,
    }
}

/// Union-find with per-class solver state. All per-class vectors are
/// indexed by *root* id; on union, the loser's state is appended to the
/// winner's.
struct Unify<'a> {
    bind: &'a BindTable,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Class points-to sets (element ids are plain location ids).
    pts: Vec<Vec<u32>>,
    delta: Vec<Vec<u32>>,
    /// Class-level subset successors (stored as node ids, canonicalized on
    /// use so merges need no rewriting).
    succ: Vec<Vec<u32>>,
    /// Deref constraints: `loads[r]` ∋ t for `t = *r`, `stores[r]` ∋ s for
    /// `*r = s`.
    loads: Vec<Vec<u32>>,
    stores: Vec<Vec<u32>>,
    /// Indirect sites whose callee lives in this class.
    sites_at: Vec<Vec<usize>>,
    /// Subset-edge dedup over roots at insertion time (post-merge
    /// duplicates only cost a redundant re-propagation).
    edge_set: HashSet<u64>,
    /// Site/target pairs already bound (class deltas can resurface an
    /// element after a merge, unlike the exact-once worklist deltas).
    bound: HashSet<(usize, u32)>,
    inq: Vec<bool>,
    worklist: VecDeque<u32>,
    total_constraints: usize,
    pops: usize,
    unions: u64,
}

impl<'a> Unify<'a> {
    fn new(n: usize, bind: &'a BindTable) -> Unify<'a> {
        Unify {
            bind,
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            pts: vec![Vec::new(); n],
            delta: vec![Vec::new(); n],
            succ: vec![Vec::new(); n],
            loads: vec![Vec::new(); n],
            stores: vec![Vec::new(); n],
            sites_at: vec![Vec::new(); n],
            edge_set: HashSet::new(),
            bound: HashSet::new(),
            inq: vec![false; n],
            worklist: VecDeque::new(),
            total_constraints: 0,
            pops: 0,
            unions: 0,
        }
    }

    /// Path-halving find.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Adds `items` to the class set of root `r`; fresh elements join the
    /// class delta and queue the class.
    fn add_pts(&mut self, r: u32, items: &[u32]) {
        let fresh = merge_into(&mut self.pts[r as usize], items);
        if fresh.is_empty() {
            return;
        }
        let merged = merge_sorted(&self.delta[r as usize], &fresh);
        self.delta[r as usize] = merged;
        if !self.inq[r as usize] {
            self.inq[r as usize] = true;
            self.worklist.push_back(r);
        }
    }

    /// Adds the class-level subset edge class(u) → class(v), propagating
    /// the source class's current set.
    fn add_edge(&mut self, u: u32, v: u32) {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return;
        }
        if !self.edge_set.insert(u64::from(ru) << 32 | u64::from(rv)) {
            return;
        }
        self.succ[ru as usize].push(rv);
        if !self.pts[ru as usize].is_empty() {
            let snapshot = self.pts[ru as usize].clone();
            self.add_pts(rv, &snapshot);
        }
    }

    /// Unifies the classes of `a` and `b` (union by rank). The merged
    /// class's delta gains the symmetric difference of the two sets: each
    /// half is new to the other side's subset edges, and re-propagating it
    /// along the combined edge list covers both (monotone, so the
    /// redundancy is sound).
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.unions += 1;
        let (w, l) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        if self.rank[w as usize] == self.rank[l as usize] {
            self.rank[w as usize] += 1;
        }
        self.parent[l as usize] = w;

        let l_pts = std::mem::take(&mut self.pts[l as usize]);
        let w_pts = std::mem::take(&mut self.pts[w as usize]);
        let sym: Vec<u32> = symmetric_difference(&w_pts, &l_pts);
        self.pts[w as usize] = merge_sorted(&w_pts, &l_pts);

        let l_delta = std::mem::take(&mut self.delta[l as usize]);
        let merged_delta = merge_sorted(&merge_sorted(&self.delta[w as usize], &l_delta), &sym);
        self.delta[w as usize] = merged_delta;

        let l_succ = std::mem::take(&mut self.succ[l as usize]);
        self.succ[w as usize].extend(l_succ);
        let l_loads = std::mem::take(&mut self.loads[l as usize]);
        self.loads[w as usize].extend(l_loads);
        let l_stores = std::mem::take(&mut self.stores[l as usize]);
        self.stores[w as usize].extend(l_stores);
        let l_sites = std::mem::take(&mut self.sites_at[l as usize]);
        self.sites_at[w as usize].extend(l_sites);

        if !self.delta[w as usize].is_empty() && !self.inq[w as usize] {
            self.inq[w as usize] = true;
            self.worklist.push_back(w);
        }
    }

    /// Binds one indirect site to one discovered target: argument/parameter
    /// and return/result unify (the mirrored pair of the subset encoding),
    /// counted exactly like the naive reference (two per pair).
    fn bind_site(&mut self, site: &ISite, func_pointee: u32, site_idx: usize) {
        if !self.bound.insert((site_idx, func_pointee)) {
            return;
        }
        let fname = &self.bind.func_names[&func_pointee];
        let Some((params, ret)) = self.bind.funcs.get(fname) else {
            return;
        };
        let (params, ret) = (params.clone(), *ret);
        for (idx, &pid) in params.iter().enumerate() {
            let Some(&arg) = site.args.get(idx) else {
                break;
            };
            self.union(arg, pid);
            self.total_constraints += 2;
        }
        self.union(ret, site.result);
        self.total_constraints += 2;
    }
}

/// Elements in exactly one of two sorted, deduped slices.
fn symmetric_difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_difference_keeps_unshared_elements() {
        assert_eq!(symmetric_difference(&[1, 2, 5], &[2, 3]), vec![1, 3, 5]);
        assert_eq!(symmetric_difference(&[], &[4]), vec![4]);
        assert!(symmetric_difference(&[7], &[7]).is_empty());
    }
}
