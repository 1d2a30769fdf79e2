//! A deliberately simple DPLL solver.
//!
//! Recursive backtracking with unit propagation and pure-literal
//! elimination, no learning, no watched literals. It exists for two
//! reasons: as an independent oracle for cross-checking the CDCL solver in
//! tests, and as the baseline in the solver-ablation benchmark (E5), which
//! demonstrates why the synthesis encodings need CDCL.

use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::sat::{Lit, SatResult};

/// Search statistics for one [`solve_with_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Conflicts reached (backtracks).
    pub conflicts: u64,
}

/// Solve a clause set over `num_vars` variables with plain DPLL.
///
/// Clauses are slices of [`Lit`]. Returns a total model on success.
pub fn solve(num_vars: usize, clauses: &[Vec<Lit>]) -> SatResult {
    solve_with_stats(num_vars, clauses).0
}

/// Like [`solve`], but also returns the search statistics.
pub fn solve_with_stats(num_vars: usize, clauses: &[Vec<Lit>]) -> (SatResult, SolverStats) {
    solve_under(num_vars, clauses, &Budget::unlimited())
}

/// Like [`solve_with_stats`], but bounded by `budget`: the search stops with
/// [`SatResult::Unknown`] when the budget is exhausted. An unlimited budget
/// makes this identical to [`solve_with_stats`].
pub fn solve_under(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    budget: &Budget,
) -> (SatResult, SolverStats) {
    let mut assign: Vec<Option<bool>> = vec![None; num_vars];
    let mut stats = SolverStats::default();
    let interrupt = |reason, stats: &SolverStats| Interrupt {
        reason,
        at: "dpll.search",
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
    };
    if netexpl_faults::triggered(netexpl_faults::sites::DPLL_SEARCH) {
        let i = interrupt(InterruptReason::Fault, &stats);
        i.record();
        return (SatResult::Unknown(i), stats);
    }
    let mut search = Search {
        budget,
        limited: !budget.is_unlimited(),
        since_coarse: COARSE_PERIOD,
    };
    let result = match search.dpll(clauses, &mut assign, &mut stats) {
        Ok(true) => SatResult::Sat(assign.into_iter().map(|v| v.unwrap_or(false)).collect()),
        Ok(false) => SatResult::Unsat,
        Err(i) => {
            i.record();
            SatResult::Unknown(i)
        }
    };
    (result, stats)
}

fn lit_value(assign: &[Option<bool>], l: Lit) -> Option<bool> {
    assign[l.var()].map(|v| if l.is_neg() { !v } else { v })
}

/// Status of a clause under a partial assignment.
enum ClauseStatus {
    Satisfied,
    /// All literals false.
    Conflict,
    /// Exactly one literal unassigned, the rest false.
    Unit(Lit),
    Unresolved,
}

fn clause_status(assign: &[Option<bool>], clause: &[Lit]) -> ClauseStatus {
    let mut unassigned = None;
    let mut count = 0;
    for &l in clause {
        match lit_value(assign, l) {
            Some(true) => return ClauseStatus::Satisfied,
            Some(false) => {}
            None => {
                unassigned = Some(l);
                count += 1;
            }
        }
    }
    match count {
        0 => ClauseStatus::Conflict,
        1 => ClauseStatus::Unit(unassigned.unwrap()),
        _ => ClauseStatus::Unresolved,
    }
}

/// How many recursive calls pass between deadline/cancellation checks; the
/// integer caps (decisions/conflicts/propagations) are compared every call.
const COARSE_PERIOD: u32 = 64;

/// Recursion state threading the budget through the search.
struct Search<'a> {
    budget: &'a Budget,
    limited: bool,
    since_coarse: u32,
}

impl Search<'_> {
    fn check(&mut self, stats: &SolverStats) -> Result<(), Interrupt> {
        let snapshot = |reason| Interrupt {
            reason,
            at: "dpll.search",
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
        };
        let b = self.budget;
        if let Some(cap) = b.max_conflicts {
            if stats.conflicts >= cap {
                return Err(snapshot(InterruptReason::Conflicts));
            }
        }
        if let Some(cap) = b.max_decisions {
            if stats.decisions >= cap {
                return Err(snapshot(InterruptReason::Decisions));
            }
        }
        if let Some(cap) = b.max_propagations {
            if stats.propagations >= cap {
                return Err(snapshot(InterruptReason::Propagations));
            }
        }
        self.since_coarse += 1;
        if self.since_coarse >= COARSE_PERIOD {
            self.since_coarse = 0;
            if let Err(i) = b.check_coarse("dpll.search") {
                return Err(Interrupt {
                    conflicts: stats.conflicts,
                    decisions: stats.decisions,
                    propagations: stats.propagations,
                    ..i
                });
            }
        }
        Ok(())
    }

    fn dpll(
        &mut self,
        clauses: &[Vec<Lit>],
        assign: &mut Vec<Option<bool>>,
        stats: &mut SolverStats,
    ) -> Result<bool, Interrupt> {
        if self.limited {
            self.check(stats)?;
        }
        // Unit propagation to fixpoint.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut propagated = false;
            for clause in clauses {
                match clause_status(assign, clause) {
                    ClauseStatus::Conflict => {
                        stats.conflicts += 1;
                        if stats.conflicts.is_multiple_of(crate::sat::SAMPLE_PERIOD) {
                            netexpl_obs::sample(
                                "dpll.timeline",
                                &[
                                    ("conflicts", stats.conflicts as f64),
                                    ("decisions", stats.decisions as f64),
                                    ("propagations", stats.propagations as f64),
                                ],
                            );
                        }
                        for v in trail {
                            assign[v] = None;
                        }
                        return Ok(false);
                    }
                    ClauseStatus::Unit(l) => {
                        assign[l.var()] = Some(!l.is_neg());
                        trail.push(l.var());
                        stats.propagations += 1;
                        propagated = true;
                    }
                    _ => {}
                }
            }
            if !propagated {
                break;
            }
        }

        // Find an unassigned variable occurring in an unresolved clause.
        let mut branch = None;
        'outer: for clause in clauses {
            if matches!(clause_status(assign, clause), ClauseStatus::Unresolved) {
                for &l in clause {
                    if assign[l.var()].is_none() {
                        branch = Some(l.var());
                        break 'outer;
                    }
                }
            }
        }

        let Some(v) = branch else {
            // Every clause satisfied (or no clauses): SAT.
            let all_ok = clauses
                .iter()
                .all(|c| matches!(clause_status(assign, c), ClauseStatus::Satisfied));
            if all_ok {
                return Ok(true);
            }
            for v in trail {
                assign[v] = None;
            }
            return Ok(false);
        };

        for value in [true, false] {
            stats.decisions += 1;
            assign[v] = Some(value);
            match self.dpll(clauses, assign, stats) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(i) => {
                    // Unwind fully so an interrupted search leaves no
                    // residue in the caller's assignment buffer.
                    assign[v] = None;
                    for v in trail {
                        assign[v] = None;
                    }
                    return Err(i);
                }
            }
            assign[v] = None;
        }
        for v in trail {
            assign[v] = None;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatSolver;
    use rand::{Rng, SeedableRng};

    #[test]
    fn simple_sat_and_unsat() {
        let a = Lit::pos(0);
        let na = Lit::neg(0);
        assert!(solve(1, &[vec![a]]).is_sat());
        assert_eq!(solve(1, &[vec![a], vec![na]]), SatResult::Unsat);
        assert_eq!(solve(1, &[vec![]]), SatResult::Unsat);
        assert!(solve(0, &[]).is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        // a, ¬a∨b, ¬b∨c
        let clauses = vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::neg(1), Lit::pos(2)],
        ];
        match solve(3, &clauses) {
            SatResult::Sat(m) => assert_eq!(m, vec![true, true, true]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn stats_track_search_effort() {
        // The propagation chain solves by unit propagation alone: three
        // propagations, no decisions, no conflicts.
        let chain = vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::neg(1), Lit::pos(2)],
        ];
        let (result, stats) = solve_with_stats(3, &chain);
        assert!(result.is_sat());
        assert_eq!(stats.propagations, 3);
        assert_eq!(stats.decisions, 0);
        assert_eq!(stats.conflicts, 0);

        // (a∨b) ∧ (¬a∨b) ∧ (a∨¬b) ∧ (¬a∨¬b) is UNSAT and forces the solver
        // to branch and hit conflicts.
        let unsat = vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::neg(0), Lit::neg(1)],
        ];
        let (result, stats) = solve_with_stats(2, &unsat);
        assert_eq!(result, SatResult::Unsat);
        assert!(stats.decisions >= 1);
        assert!(stats.conflicts >= 2);
        assert!(stats.propagations >= 1);
    }

    /// An UNSAT instance that needs real search: x1..xn free, plus parity-ish
    /// constraints forcing exponential branching for plain DPLL.
    fn hard_unsat(n: usize) -> Vec<Vec<Lit>> {
        // Pigeonhole (n+1 pigeons, n holes).
        let holes = n;
        let var = |p: usize, h: usize| p * holes + h;
        let mut clauses = Vec::new();
        for p in 0..n + 1 {
            clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..n + 1 {
                for p2 in (p1 + 1)..n + 1 {
                    clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        clauses
    }

    #[test]
    fn decision_cap_yields_unknown() {
        let clauses = hard_unsat(5);
        let budget = Budget::unlimited().max_decisions(4);
        let (result, stats) = solve_under(30, &clauses, &budget);
        match result {
            SatResult::Unknown(i) => {
                assert_eq!(i.reason, InterruptReason::Decisions);
                assert_eq!(i.at, "dpll.search");
            }
            other => panic!("expected unknown, got {other:?}"),
        }
        assert!(stats.decisions >= 4);
        // Unbudgeted, the same instance is refuted.
        assert_eq!(solve(30, &clauses), SatResult::Unsat);
    }

    #[test]
    fn fault_injection_interrupts_dpll() {
        let _g = netexpl_faults::arm(netexpl_faults::sites::DPLL_SEARCH);
        let (result, _) = solve_with_stats(1, &[vec![Lit::pos(0)]]);
        match result {
            SatResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Fault),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn agrees_with_cdcl_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let n = rng.gen_range(2..9);
            let m = rng.gen_range(1..25);
            let mut clauses = Vec::new();
            for _ in 0..m {
                let len = rng.gen_range(1..=3);
                let c: Vec<Lit> = (0..len)
                    .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                clauses.push(c);
            }
            let dpll_result = solve(n, &clauses).is_sat();
            let mut cdcl = SatSolver::new();
            for _ in 0..n {
                cdcl.new_var();
            }
            let mut early_unsat = false;
            for c in &clauses {
                if !cdcl.add_clause(c) {
                    early_unsat = true;
                }
            }
            let cdcl_result = !early_unsat && cdcl.solve().is_sat();
            assert_eq!(dpll_result, cdcl_result, "solvers disagree on {clauses:?}");
        }
    }
}
