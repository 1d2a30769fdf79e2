//! A CDCL SAT solver.
//!
//! Conflict-driven clause learning with two-watched-literal propagation,
//! VSIDS variable activity, first-UIP conflict analysis, non-chronological
//! backjumping, Luby-sequence restarts, and solving under assumptions. This
//! is the decision engine behind [`crate::session::SmtSession`]; the eager
//! bit-blasting pipeline reduces every finite-domain formula in the
//! workspace to the clause sets solved here.
//!
//! Branching takes the unassigned variable of highest activity, the lowest
//! index among equals, from a binary max-heap (`VarOrder`). Every
//! unassigned variable is in the heap; an assigned one leaves it lazily,
//! when it reaches the top. Because the order is total, the heap picks
//! exactly the variable a scan over all variables would, at O(log n) per
//! decision instead of O(n).
//!
//! The implementation follows the MiniSat architecture. It is deliberately
//! free of unsafe code and of heuristics that only pay off on industrial
//! instances (phase saving beyond polarity caching, preprocessing): the
//! synthesis encodings in this workspace are thousands, not millions, of
//! clauses.
//!
//! One industrial feature *is* included: learned-clause database reduction,
//! keyed on literal block distance (LBD). A single query never needs it,
//! but a session kept alive across an entire lifting search retains
//! learned clauses between queries, and they must not grow without bound.
//! Reduction runs at restart boundaries (decision level 0), drops the
//! weakest half of the long high-LBD learned clauses, and never drops a
//! clause that is the reason for a currently assigned literal.

/// A literal: a variable index with a sign. Encoded as `var << 1 | sign`
/// where sign 1 means negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// Negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// Literal of `v` with the given polarity (`true` = positive).
    pub fn with_polarity(v: usize, polarity: bool) -> Lit {
        if polarity {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// True if the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists (0..2*num_vars).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var() + 1)
        } else {
            write!(f, "{}", self.var() + 1)
        }
    }
}

use crate::budget::{Budget, Interrupt, InterruptReason};

/// Result of a SAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a total assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The search was interrupted before reaching a verdict (budget
    /// exhausted or cancelled). Only produced when a [`Budget`] is set;
    /// without one the solver is complete.
    Unknown(Interrupt),
}

impl SatResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// True if the search was interrupted before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Undef,
    True,
    False,
}

impl Val {
    fn from_bool(b: bool) -> Val {
        if b {
            Val::True
        } else {
            Val::False
        }
    }
}

/// Solver statistics, exposed for the solver benchmark (E5).
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Sum of learned-clause LBDs (for the running average in timeline
    /// samples).
    pub lbd_sum: u64,
    /// Learned clauses with LBD ≤ 2 ("glue" — kept forever).
    pub lbd_glue: u64,
    /// Learned clauses with 2 < LBD ≤ 6.
    pub lbd_mid: u64,
    /// Learned clauses with LBD > 6 (first reduction victims).
    pub lbd_high: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
}

/// Per-clause bookkeeping for database reduction.
#[derive(Debug, Clone, Copy)]
struct ClauseInfo {
    /// Learned by conflict analysis (original clauses are never deleted).
    learned: bool,
    /// Literal block distance at learn time: the number of distinct
    /// decision levels among the clause's literals. Lower is better —
    /// "glue" clauses (LBD ≤ 2) are kept forever.
    lbd: u32,
}

/// Learned clauses tolerated before [`SatSolver::reduce_db`] fires at the
/// next restart. Grows geometrically after each reduction.
const DEFAULT_REDUCE_THRESHOLD: usize = 2000;

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    num_vars: usize,
    /// Clause database. Indices are stable between [`SatSolver::reduce_db`]
    /// calls; a reduction compacts the database and remaps every watch and
    /// reason index.
    clauses: Vec<Vec<Lit>>,
    /// Parallel to `clauses`: learned flag and LBD tag.
    clause_info: Vec<ClauseInfo>,
    /// Learned clauses currently in the database.
    num_learned: usize,
    /// Learned-clause count that triggers the next reduction; 0 disables.
    reduce_threshold: usize,
    /// Cumulative database reductions over the solver's lifetime.
    reductions: u64,
    /// For each literal index, the clauses currently watching that literal.
    watches: Vec<Vec<usize>>,
    assign: Vec<Val>,
    /// Saved polarity per variable (phase saving).
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    /// Branching candidates, ordered by `activity`.
    order: VarOrder,
    var_inc: f64,
    /// Set at level 0 when the instance is discovered unsatisfiable.
    unsat: bool,
    /// Assumption literals found responsible for the last
    /// assumption-`Unsat` answer (an unsat core over the assumptions).
    last_core: Vec<Lit>,
    /// Resource bounds for `solve`; unlimited by default.
    budget: Budget,
    /// Statistics for the current/last `solve` call.
    pub stats: SatStats,
    /// Branch by the reference scan instead of the heap.
    #[cfg(test)]
    branch_by_scan: bool,
    /// Every variable branched on, in order.
    #[cfg(test)]
    branched: Vec<usize>,
}

/// The variables that may be branched on, as a binary max-heap keyed by
/// activity, ties going to the lower index. Activities live in the solver;
/// every operation that compares takes them as an argument.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarOrder {
    /// Does `a` branch before `b`?
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != ABSENT
    }

    /// Add the variable `v == pos.len()`, which has never been in the heap.
    fn grow(&mut self, activity: &[f64]) {
        self.pos.push(ABSENT);
        self.insert(self.pos.len() - 1, activity);
    }

    fn insert(&mut self, v: usize, activity: &[f64]) {
        debug_assert!(!self.contains(v));
        self.pos[v] = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restore the order after `v`'s activity grew.
    fn raised(&mut self, v: usize, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v] as usize, activity);
        }
    }

    /// Remove and return the first variable in branching order.
    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap is non-empty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top as usize)
    }

    /// Re-establish the heap over new activities, which may have reordered
    /// any two of its variables.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// Conflicts between two introspection samples (`sat.timeline`, and
/// `dpll.timeline` from the DPLL oracle): coarse enough to be free in hot
/// loops, fine enough that multi-second queries show a usable timeline.
pub const SAMPLE_PERIOD: u64 = 256;

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            clause_info: Vec::new(),
            num_learned: 0,
            reduce_threshold: DEFAULT_REDUCE_THRESHOLD,
            reductions: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            order: VarOrder::default(),
            var_inc: 1.0,
            unsat: false,
            last_core: Vec::new(),
            budget: Budget::default(),
            stats: SatStats::default(),
            #[cfg(test)]
            branch_by_scan: false,
            #[cfg(test)]
            branched: Vec::new(),
        }
    }
}

impl SatSolver {
    /// Create an empty solver.
    pub fn new() -> Self {
        SatSolver::default()
    }

    /// Allocate a fresh variable and return its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        self.assign.push(Val::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.order.grow(&self.activity);
        self.watches.push(Vec::new()); // positive literal
        self.watches.push(Vec::new()); // negative literal
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Add a clause. Returns `false` if the solver is already known
    /// unsatisfiable (including via this clause being empty after
    /// level-0 simplification).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_owned(lits.to_vec())
    }

    /// [`SatSolver::add_clause`] for a clause the caller hands over: it is
    /// simplified in place and stored as it is, with no copy.
    pub(crate) fn add_clause_owned(&mut self, mut lits: Vec<Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if self.unsat {
            return false;
        }
        // Level-0 simplification: drop false literals, detect satisfied or
        // tautological clauses, dedup. The kept literals are compacted into
        // the front of `lits`.
        let mut kept = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            debug_assert!(
                l.var() < self.num_vars,
                "literal references unknown variable"
            );
            match self.value(l) {
                Val::True => return true, // already satisfied
                Val::False => continue,
                Val::Undef => {
                    if lits[..kept].contains(&l.negated()) {
                        return true; // tautology
                    }
                    if !lits[..kept].contains(&l) {
                        lits[kept] = l;
                        kept += 1;
                    }
                }
            }
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watch(lits[0], idx);
                self.watch(lits[1], idx);
                self.clauses.push(lits);
                self.clause_info.push(ClauseInfo {
                    learned: false,
                    lbd: 0,
                });
                true
            }
        }
    }

    /// Number of clauses currently in the database (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Learned clauses currently in the database.
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Database reductions performed over the solver's lifetime.
    pub fn reductions(&self) -> u64 {
        self.reductions
    }

    /// Set the learned-clause count that triggers a reduction at the next
    /// restart boundary (0 disables reduction). The threshold grows by half
    /// after every reduction so a long session reduces ever more rarely.
    pub fn set_reduce_threshold(&mut self, n: usize) {
        self.reduce_threshold = n;
    }

    fn watch(&mut self, l: Lit, clause: usize) {
        self.watches[l.index()].push(clause);
    }

    fn value(&self, l: Lit) -> Val {
        match self.assign[l.var()] {
            Val::Undef => Val::Undef,
            Val::True => {
                if l.is_neg() {
                    Val::False
                } else {
                    Val::True
                }
            }
            Val::False => {
                if l.is_neg() {
                    Val::True
                } else {
                    Val::False
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.value(l), Val::Undef);
        let v = l.var();
        self.assign[v] = Val::from_bool(!l.is_neg());
        self.polarity[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation over watched literals. Returns a conflicting clause
    /// index if a conflict is found.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated(); // literals equal to ¬p are now false
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i];
                // Ensure the false literal is at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value(first) == Val::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci].len() {
                    let l = self.clauses[ci][k];
                    if self.value(l) != Val::False {
                        self.clauses[ci].swap(1, k);
                        self.watches[l.index()].push(ci);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting.
                if self.value(first) == Val::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.index()].extend_from_slice(&ws[i..]);
                    ws.truncate(i);
                    self.watches[false_lit.index()].append(&mut ws);
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[false_lit.index()].append(&mut ws);
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
            // The division can round two activities together, and their
            // tie then goes to the lower index, whatever the heap held.
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(v, &self.activity);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: usize) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for UIP
        let mut seen = vec![false; self.num_vars];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut trail_idx = self.trail.len();

        loop {
            let start = if p.is_none() { 0 } else { 1 };
            // For the reason clause of p, skip position 0 (p itself).
            for k in start..self.clauses[clause].len() {
                let q = self.clauses[clause][k];
                let v = q.var();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.unwrap().negated();
                break;
            }
            clause = self.reason[pv].expect("non-decision literal must have a reason");
        }

        // Backjump level: second-highest level in the learned clause.
        let bt_level = if learned.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var()] > self.level[learned[max_i].var()] {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.level[learned[1].var()]
        };
        (learned, bt_level)
    }

    /// Literal block distance of a clause: distinct decision levels among
    /// its (currently assigned) literals. Computed at learn time, before
    /// backjumping, when every literal still carries its conflict-side
    /// level.
    fn clause_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Drop the weakest half of the disposable learned clauses and compact
    /// the database. Must be called at decision level 0.
    ///
    /// A learned clause is *disposable* when it is long (> 2 literals), has
    /// weak glue (LBD > 2), and — critically — is not the reason for any
    /// currently assigned literal: level-0 propagations keep their reason
    /// indices across queries, and deleting (or failing to remap) such a
    /// clause would corrupt later conflict analysis. Original clauses are
    /// never deleted. Watch lists and reason pointers are remapped to the
    /// compacted indices.
    pub fn reduce_db(&mut self) {
        debug_assert_eq!(
            self.decision_level(),
            0,
            "reduce_db must run at decision level 0"
        );
        let mut is_reason = vec![false; self.clauses.len()];
        for v in 0..self.num_vars {
            if self.assign[v] != Val::Undef {
                if let Some(ci) = self.reason[v] {
                    is_reason[ci] = true;
                }
            }
        }
        let mut disposable: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let info = self.clause_info[i];
                info.learned && info.lbd > 2 && self.clauses[i].len() > 2 && !is_reason[i]
            })
            .collect();
        self.reductions += 1;
        if disposable.len() < 2 {
            return;
        }
        // Best (low LBD, short) first; the back half is dropped.
        disposable.sort_by_key(|&i| (self.clause_info[i].lbd, self.clauses[i].len()));
        let mut keep = vec![true; self.clauses.len()];
        for &i in &disposable[disposable.len() / 2..] {
            keep[i] = false;
            self.num_learned -= 1;
        }
        let mut remap = vec![usize::MAX; self.clauses.len()];
        let mut next = 0usize;
        for i in 0..self.clauses.len() {
            if keep[i] {
                remap[i] = next;
                self.clauses.swap(next, i);
                self.clause_info.swap(next, i);
                next += 1;
            }
        }
        self.clauses.truncate(next);
        self.clause_info.truncate(next);
        for ws in &mut self.watches {
            ws.retain_mut(|ci| {
                if remap[*ci] == usize::MAX {
                    false
                } else {
                    *ci = remap[*ci];
                    true
                }
            });
        }
        for v in 0..self.num_vars {
            if let Some(ci) = self.reason[v] {
                debug_assert_ne!(remap[ci], usize::MAX, "reason clause was dropped");
                self.reason[v] = Some(remap[ci]);
            }
        }
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v] = Val::Undef;
            self.reason[v] = None;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity, the lowest index among
    /// equals; `None` when every variable is assigned.
    fn pick_branch_var(&mut self) -> Option<usize> {
        #[cfg(test)]
        if self.branch_by_scan {
            return self.scan_branch_var();
        }
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == Val::Undef {
                return Some(v);
            }
        }
        None
    }

    /// The reference for [`SatSolver::pick_branch_var`]: a scan over every
    /// variable.
    #[cfg(test)]
    fn scan_branch_var(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars {
            if self.assign[v] == Val::Undef
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Bound subsequent `solve` calls by `budget`. The budget stays in
    /// effect until replaced; pass [`Budget::unlimited`] to clear it.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Solve the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under `budget` (convenience for [`SatSolver::set_budget`] +
    /// [`SatSolver::solve`]; the budget stays in effect afterwards).
    pub fn solve_under(&mut self, budget: Budget) -> SatResult {
        self.set_budget(budget);
        self.solve()
    }

    /// An [`Interrupt`] snapshotting the current search progress.
    fn interrupt(&self, reason: InterruptReason, at: &'static str) -> Interrupt {
        Interrupt {
            reason,
            at,
            conflicts: self.stats.conflicts,
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
        }
    }

    /// The subset of assumption literals responsible for the last
    /// [`SatSolver::solve_with_assumptions`] returning `Unsat` (an unsat
    /// core). Empty when the clause set itself is unsatisfiable.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Solve under the given assumption literals: the solver searches for a
    /// model in which every assumption holds; `Unsat` means no such model
    /// exists (the clause set itself may still be satisfiable), in which
    /// case [`SatSolver::unsat_core`] names the responsible assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats = SatStats::default();
        self.last_core.clear();
        if self.unsat {
            return SatResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let mut restart_count = 0u64;
        loop {
            let budget = 64 * luby(restart_count);
            match self.search(assumptions, budget) {
                SearchOutcome::Sat => {
                    let model: Vec<bool> = self.assign.iter().map(|&v| v == Val::True).collect();
                    self.cancel_until(0);
                    return SatResult::Sat(model);
                }
                SearchOutcome::Unsat => {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                SearchOutcome::Restart => {
                    self.cancel_until(0);
                    self.stats.restarts += 1;
                    restart_count += 1;
                    // Restart boundaries are the only place the trail is
                    // guaranteed back at level 0, which reduce_db requires.
                    if self.reduce_threshold > 0 && self.num_learned >= self.reduce_threshold {
                        self.reduce_db();
                        self.reduce_threshold += self.reduce_threshold / 2;
                    }
                }
                SearchOutcome::Interrupted(i) => {
                    // Interruption is not a verdict: restore level 0 and
                    // leave `self.unsat` untouched so a later (re-budgeted)
                    // solve can still answer correctly.
                    self.cancel_until(0);
                    i.record();
                    return SatResult::Unknown(i);
                }
            }
        }
    }

    /// Check the integer caps and (throttled by the caller) the coarse
    /// deadline/cancellation axes against the current stats.
    fn check_budget(&self, coarse: bool) -> Result<(), Interrupt> {
        let b = &self.budget;
        if let Some(cap) = b.max_conflicts {
            if self.stats.conflicts >= cap {
                return Err(self.interrupt(InterruptReason::Conflicts, "sat.search"));
            }
        }
        if let Some(cap) = b.max_decisions {
            if self.stats.decisions >= cap {
                return Err(self.interrupt(InterruptReason::Decisions, "sat.search"));
            }
        }
        if let Some(cap) = b.max_propagations {
            if self.stats.propagations >= cap {
                return Err(self.interrupt(InterruptReason::Propagations, "sat.search"));
            }
        }
        if coarse {
            if let Err(i) = b.check_coarse("sat.search") {
                return Err(Interrupt {
                    conflicts: self.stats.conflicts,
                    decisions: self.stats.decisions,
                    propagations: self.stats.propagations,
                    ..i
                });
            }
        }
        Ok(())
    }

    fn search(&mut self, assumptions: &[Lit], conflict_budget: u64) -> SearchOutcome {
        if netexpl_faults::triggered(netexpl_faults::sites::SAT_SEARCH) {
            return SearchOutcome::Interrupted(
                self.interrupt(InterruptReason::Fault, "sat.search"),
            );
        }
        // Deadline/cancellation involve an `Instant::now()` or atomic load,
        // so they are checked every `COARSE_PERIOD` iterations; the integer
        // caps are plain compares and are checked every iteration.
        const COARSE_PERIOD: u32 = 128;
        let limited = !self.budget.is_unlimited();
        let mut since_coarse = COARSE_PERIOD; // check once on entry
        let mut conflicts = 0u64;
        loop {
            if limited {
                since_coarse += 1;
                let coarse = since_coarse >= COARSE_PERIOD;
                if coarse {
                    since_coarse = 0;
                }
                if let Err(i) = self.check_budget(coarse) {
                    return SearchOutcome::Interrupted(i);
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SearchOutcome::Unsat;
                }
                // Conflicts below or at the assumption prefix mean the
                // assumptions themselves are contradictory with the clauses.
                if (self.decision_level() as usize) <= assumptions.len() {
                    self.last_core = self.final_core(&self.clauses[confl], assumptions, None);
                    return SearchOutcome::Unsat;
                }
                let (learned, bt) = self.analyze(confl);
                // LBD reads decision levels, so it must be computed before
                // backjumping erases them.
                let lbd = self.clause_lbd(&learned);
                self.cancel_until(bt);
                self.learn(learned, lbd);
                self.decay_activities();
                if self.stats.conflicts.is_multiple_of(SAMPLE_PERIOD) {
                    self.emit_timeline_sample();
                }
                if conflicts >= conflict_budget {
                    return SearchOutcome::Restart;
                }
            } else {
                // Extend the assumption prefix first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        Val::True => {
                            // Already implied; open an empty decision level
                            // so the prefix indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Val::False => {
                            self.last_core = self.final_core(&[a], assumptions, Some(a));
                            return SearchOutcome::Unsat;
                        }
                        Val::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        #[cfg(test)]
                        self.branched.push(v);
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::with_polarity(v, self.polarity[v]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// The unsat core over the assumptions from a final conflict: mark the
    /// seed literals' variables, walk the trail backwards expanding
    /// reasons; decisions reached this way are the responsible assumptions.
    /// `extra` adds a literal to the core directly (the assumption whose
    /// enqueue failed).
    fn final_core(&self, seed_lits: &[Lit], assumptions: &[Lit], extra: Option<Lit>) -> Vec<Lit> {
        let mut seen = vec![false; self.num_vars];
        for l in seed_lits {
            if self.level[l.var()] > 0 {
                seen[l.var()] = true;
            }
        }
        let mut core: Vec<Lit> = extra.into_iter().collect();
        for i in (0..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !seen[v] {
                continue;
            }
            match self.reason[v] {
                Some(cl) => {
                    for q in &self.clauses[cl] {
                        if self.level[q.var()] > 0 {
                            seen[q.var()] = true;
                        }
                    }
                }
                None => {
                    // A decision inside the assumption prefix is an
                    // assumption (general decisions only exist above it, and
                    // a final conflict never reaches them).
                    if assumptions.contains(&l) {
                        core.push(l);
                    }
                }
            }
        }
        core.sort();
        core.dedup();
        core
    }

    /// One point of the solver introspection timeline, attached to the
    /// enclosing obs span (the owning `session.query`).
    /// No-op when no obs session is installed on this thread.
    fn emit_timeline_sample(&self) {
        let s = &self.stats;
        let lbd_avg = if s.learned > 0 {
            s.lbd_sum as f64 / s.learned as f64
        } else {
            0.0
        };
        netexpl_obs::sample(
            "sat.timeline",
            &[
                ("conflicts", s.conflicts as f64),
                ("decisions", s.decisions as f64),
                ("propagations", s.propagations as f64),
                ("learned_db", self.num_learned as f64),
                ("restarts", s.restarts as f64),
                ("lbd_avg", lbd_avg),
                ("lbd_glue", s.lbd_glue as f64),
                ("lbd_mid", s.lbd_mid as f64),
                ("lbd_high", s.lbd_high as f64),
            ],
        );
    }

    fn learn(&mut self, learned: Vec<Lit>, lbd: u32) {
        self.stats.learned += 1;
        self.stats.lbd_sum += lbd as u64;
        match lbd {
            0..=2 => self.stats.lbd_glue += 1,
            3..=6 => self.stats.lbd_mid += 1,
            _ => self.stats.lbd_high += 1,
        }
        if learned.len() == 1 {
            // Asserting unit: must hold at level 0, but we may currently be
            // above it only if cancel_until already brought us to 0.
            debug_assert_eq!(self.decision_level(), 0);
            if self.value(learned[0]) == Val::Undef {
                self.enqueue(learned[0], None);
            } else if self.value(learned[0]) == Val::False {
                self.unsat = true;
            }
            return;
        }
        let idx = self.clauses.len();
        let asserting = learned[0];
        self.watch(learned[0], idx);
        self.watch(learned[1], idx);
        self.clauses.push(learned);
        self.clause_info.push(ClauseInfo { learned: true, lbd });
        self.num_learned += 1;
        if self.value(asserting) == Val::Undef {
            self.enqueue(asserting, Some(idx));
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    Interrupted(Interrupt),
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
pub fn luby(i: u64) -> u64 {
    // Knuth's formula: find k with 2^(k-1) <= i+1 < 2^k.
    let mut k = 1u32;
    while (1u64 << k) < i + 2 {
        k += 1;
    }
    if i + 2 == 1 << k {
        1 << (k - 1)
    } else {
        luby(i + 1 - (1 << (k - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_model(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
        clauses.iter().all(|c| {
            c.iter().any(|l| {
                let v = model[l.var()];
                if l.is_neg() {
                    !v
                } else {
                    v
                }
            })
        })
    }

    #[test]
    fn lit_encoding() {
        let p = Lit::pos(3);
        let n = Lit::neg(3);
        assert_eq!(p.var(), 3);
        assert!(!p.is_neg());
        assert!(n.is_neg());
        assert_eq!(p.negated(), n);
        assert_eq!(n.negated(), p);
        assert_ne!(p.index(), n.index());
        assert_eq!(p.to_string(), "4");
        assert_eq!(n.to_string(), "-4");
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        match s.solve() {
            SatResult::Sat(m) => assert!(m[a]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn implication_chain_propagates() {
        // a, a→b, b→c, c→d  ⊢  d
        let mut s = SatSolver::new();
        let vars: Vec<usize> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        match s.solve() {
            SatResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn xor_constraints_sat() {
        // (a xor b) encoded in CNF, with a forced true → b must be false.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        s.add_clause(&[Lit::pos(a)]);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m[a]);
                assert!(!m[b]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// Pigeonhole principle PHP(n+1, n) is unsatisfiable and requires real
    /// conflict analysis to solve in reasonable time.
    fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) {
        let var = |p: usize, h: usize| p * holes + h;
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        // Every pigeon in some hole.
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            s.add_clause(&clause);
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=5 {
            let mut s = SatSolver::new();
            pigeonhole(&mut s, n + 1, n);
            assert_eq!(s.solve(), SatResult::Unsat, "PHP({}, {})", n + 1, n);
        }
    }

    #[test]
    fn pigeonhole_exact_fit_sat() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 4, 4);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn db_reduction_fires_and_preserves_unsat() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 6, 5);
        s.set_reduce_threshold(10);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.reductions() > 0,
            "a threshold of 10 must trigger reduction on PHP(6,5)"
        );
    }

    #[test]
    fn db_reduction_preserves_answers_across_queries() {
        // One long-lived solver alternating sat and unsat-under-assumptions
        // queries with an aggressive reduction threshold: reduction between
        // queries must never flip a verdict.
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 4, 4);
        s.set_reduce_threshold(8);
        // Keeping pigeon 0 out of every hole contradicts its at-least-one
        // clause.
        let evict: Vec<Lit> = (0..4).map(Lit::neg).collect();
        for _ in 0..3 {
            assert!(s.solve().is_sat());
            assert_eq!(s.solve_with_assumptions(&evict), SatResult::Unsat);
        }
    }

    #[test]
    fn reduce_db_protects_reason_clauses() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
        for round in 0..20 {
            let n = rng.gen_range(5..15);
            let m = rng.gen_range(10..60);
            let mut s = SatSolver::new();
            for _ in 0..n {
                s.new_var();
            }
            for _ in 0..m {
                let len = rng.gen_range(1..=3);
                let mut c: Vec<Lit> = (0..len)
                    .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                c.dedup();
                s.add_clause(&c);
            }
            let first = s.solve();
            // Force a reduction pass at level 0 regardless of thresholds;
            // level-0 propagated literals may hold clause-index reasons.
            s.reduce_db();
            for v in 0..n {
                if self::Val::Undef == s.assign[v] {
                    continue;
                }
                if let Some(ci) = s.reason[v] {
                    assert!(
                        ci < s.clauses.len(),
                        "round {round}: dangling reason index after reduce_db"
                    );
                    assert!(
                        s.clauses[ci].iter().any(|l| l.var() == v),
                        "round {round}: remapped reason does not mention its var"
                    );
                }
            }
            // The verdict must be unchanged by reduction.
            assert_eq!(first.is_sat(), s.solve().is_sat(), "round {round}");
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert!(s.solve_with_assumptions(&[Lit::neg(a)]).is_sat());
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(a), Lit::neg(b)]),
            SatResult::Unsat
        );
        // The clause set itself stays satisfiable after an unsat query.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with_assumptions(&[Lit::pos(a), Lit::neg(a)]),
            SatResult::Unsat
        );
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&Lit::neg(a)), "{core:?}");
    }

    #[test]
    fn unsat_core_names_responsible_assumptions() {
        // Clauses: ¬a ∨ ¬b. Assumptions: a, c, b — core must contain a and b
        // but not the irrelevant c.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        let result = s.solve_with_assumptions(&[Lit::pos(a), Lit::pos(c), Lit::pos(b)]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&Lit::pos(a)), "{core:?}");
        assert!(core.contains(&Lit::pos(b)), "{core:?}");
        assert!(
            !core.contains(&Lit::pos(c)),
            "irrelevant assumption in core: {core:?}"
        );
    }

    #[test]
    fn unsat_core_through_propagation_chain() {
        // a → x, x → ¬b; assumptions a, b: core = {a, b} via the chain.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let x = s.new_var();
        let b = s.new_var();
        let noise = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::pos(x)]);
        s.add_clause(&[Lit::neg(x), Lit::neg(b)]);
        let result = s.solve_with_assumptions(&[Lit::pos(noise), Lit::pos(a), Lit::pos(b)]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&Lit::pos(a)), "{core:?}");
        assert!(core.contains(&Lit::pos(b)), "{core:?}");
        assert!(!core.contains(&Lit::pos(noise)), "{core:?}");
        // The clause set itself is still satisfiable afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn conflict_cap_yields_unknown_and_preserves_answer() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 6, 5); // needs many conflicts to refute
        s.set_budget(Budget::unlimited().max_conflicts(3));
        match s.solve() {
            SatResult::Unknown(i) => {
                assert_eq!(i.reason, InterruptReason::Conflicts);
                assert_eq!(i.at, "sat.search");
                assert!(i.conflicts >= 3, "{i:?}");
            }
            other => panic!("expected unknown, got {other:?}"),
        }
        // Lifting the budget recovers the correct verdict: interruption
        // must not have corrupted solver state.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn expired_deadline_yields_unknown() {
        use std::time::Duration;
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 6, 5);
        s.set_budget(Budget::unlimited().deadline_in(Duration::ZERO));
        match s.solve() {
            SatResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Deadline),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_yields_unknown() {
        use crate::budget::CancelToken;
        let tok = CancelToken::new();
        tok.cancel();
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 5, 4);
        match s.solve_under(Budget::unlimited().cancelled_by(tok)) {
            SatResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Cancelled),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_does_not_change_verdicts() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 5, 4);
        s.set_budget(Budget::unlimited().max_conflicts(1_000_000));
        assert_eq!(s.solve(), SatResult::Unsat);
        let mut s2 = SatSolver::new();
        pigeonhole(&mut s2, 4, 4);
        s2.set_budget(Budget::unlimited().max_conflicts(1_000_000));
        assert!(s2.solve().is_sat());
    }

    #[test]
    fn fault_injection_interrupts_search() {
        let _g = netexpl_faults::arm(netexpl_faults::sites::SAT_SEARCH);
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        match s.solve() {
            SatResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Fault),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    /// A solver over `n` variables and `clauses`, branching from the heap
    /// or, for the reference, by the scan.
    fn loaded(n: usize, clauses: &[Vec<Lit>], by_scan: bool) -> SatSolver {
        let mut s = SatSolver::new();
        s.branch_by_scan = by_scan;
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    fn same_stats(a: &SatStats, b: &SatStats) -> bool {
        let key = |s: &SatStats| {
            [
                s.decisions,
                s.propagations,
                s.conflicts,
                s.restarts,
                s.learned,
                s.lbd_sum,
                s.lbd_glue,
                s.lbd_mid,
                s.lbd_high,
            ]
        };
        key(a) == key(b)
    }

    /// The heap branches on the scan's variable at every decision: on
    /// random 3-SAT instances near the threshold, over a stream of queries
    /// with and without assumptions, with activities rescaled mid-search,
    /// the two solvers make the same decisions and report the same stats,
    /// models and cores.
    #[test]
    fn heap_branches_like_the_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EAF);
        let mut rescaled = 0;
        for round in 0..60 {
            let n = rng.gen_range(8..40);
            let m = n * 4 + rng.gen_range(0..n);
            let clauses: Vec<Vec<Lit>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let mut heap = loaded(n, &clauses, false);
            let mut scan = loaded(n, &clauses, true);
            for query in 0..6 {
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..4))
                    .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                if query % 3 == 2 {
                    // The next conflicts bump activities past the limit.
                    heap.var_inc = 1e99;
                    scan.var_inc = 1e99;
                }
                let expect = scan.solve_with_assumptions(&assumptions);
                let got = heap.solve_with_assumptions(&assumptions);
                let at = format!("round {round}, query {query}");
                assert_eq!(got, expect, "{at}");
                assert_eq!(heap.branched, scan.branched, "{at}");
                assert!(same_stats(&heap.stats, &scan.stats), "{at}");
                assert_eq!(heap.unsat_core(), scan.unsat_core(), "{at}");
                assert_eq!(heap.activity, scan.activity, "{at}");
                if heap.var_inc < 1.0 {
                    rescaled += 1;
                }
            }
        }
        assert!(rescaled > 0, "no query rescaled its activities");
    }

    /// A rescale can round activities together; the scan then breaks
    /// their ties by index, and so must the heap, whatever order it held
    /// them in before.
    #[test]
    fn rescale_rebreaks_ties_by_index() {
        let mut s = SatSolver::new();
        for _ in 0..5 {
            s.new_var();
        }
        // The heap holds [1, 3, 2, 0, 4]: variable 3 above variable 0, by a
        // margin the rescale rounds away.
        s.activity = vec![1e-300, 5e-300, 3e-300, 4e-300, 0.0];
        s.order.rebuild(&s.activity);
        assert_eq!(s.order.heap, [1, 3, 2, 0, 4]);
        s.var_inc = 2e100;
        s.bump_var(2);
        assert_eq!(s.activity, [0.0, 0.0, 2.0, 0.0, 0.0]);
        let mut picks = Vec::new();
        while let Some(v) = s.scan_branch_var() {
            assert_eq!(s.pick_branch_var(), Some(v), "after {picks:?}");
            s.assign[v] = Val::True;
            picks.push(v);
        }
        assert_eq!(s.pick_branch_var(), None);
        assert_eq!(picks, [2, 0, 1, 3, 4]);
    }

    /// A handed-over clause is simplified in place and stored in the
    /// allocation it came in.
    #[test]
    fn owned_clause_is_stored_without_a_copy() {
        let mut s = SatSolver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        assert!(s.add_clause(&[Lit::neg(c)]));
        let clause = vec![Lit::pos(a), Lit::pos(c), Lit::pos(b), Lit::pos(a)];
        let buffer = clause.as_ptr();
        assert!(s.add_clause_owned(clause));
        assert_eq!(s.clauses[0], [Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.clauses[0].as_ptr(), buffer);
        // Satisfied and tautological clauses are dropped.
        assert!(s.add_clause_owned(vec![Lit::neg(c), Lit::pos(a)]));
        assert!(s.add_clause_owned(vec![Lit::pos(b), Lit::neg(a), Lit::neg(b)]));
        assert_eq!(s.num_clauses(), 1);
    }

    #[test]
    fn model_satisfies_all_clauses_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        for round in 0..50 {
            let n = rng.gen_range(3..12);
            let m = rng.gen_range(1..40);
            let mut s = SatSolver::new();
            for _ in 0..n {
                s.new_var();
            }
            let mut clauses = Vec::new();
            for _ in 0..m {
                let len = rng.gen_range(1..=3);
                let mut c: Vec<Lit> = (0..len)
                    .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                c.dedup();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if let SatResult::Sat(model) = s.solve() {
                assert!(
                    check_model(&clauses, &model),
                    "round {round}: model violates a clause"
                );
            }
        }
    }
}
