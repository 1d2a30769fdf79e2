//! Differential suite for incremental solver sessions: a persistent
//! [`SmtSession`] answering a stream of assert/query operations must agree
//! verdict-for-verdict with a fresh one-shot [`SmtSolver`] per query and
//! with semantic ground truth (brute-force model enumeration at the term
//! level, the complete DPLL oracle at the clause level) — including when
//! the learned-clause database reduction is forced to fire between
//! queries. Session reuse is an optimization; any divergence is a bug.

mod common;

use common::gen::cases_from_env;
use proptest::prelude::*;

use netexpl_logic::dpll;
use netexpl_logic::model::Assignment;
use netexpl_logic::sat::{Lit, SatResult, SatSolver};
use netexpl_logic::solver::SmtSolver;
use netexpl_logic::term::{Ctx, TermId};
use netexpl_logic::{SmtResult, SmtSession};

// ---------------------------------------------------------------------------
// Term-level streams: random assert/query interleavings over mixed sorts.

/// A small mixed-sort formula shape, built over two shared variables of
/// each sort so that formulas in one stream genuinely interact.
#[derive(Debug, Clone)]
enum F {
    BoolVar(u8),
    EnumEq(u8, u8),
    IntLe(u8, i8),
    /// `i0 = i1`, `i0 ≤ i1` or `i0 < i1` (by the first field mod 3), with
    /// the operands swapped when the flag is set.
    IntCmp(u8, bool),
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
}

fn arb_f() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        (0u8..2).prop_map(F::BoolVar),
        (0u8..2, 0u8..3).prop_map(|(v, c)| F::EnumEq(v, c)),
        (0u8..2, 0i8..6).prop_map(|(v, c)| F::IntLe(v, c)),
        (0u8..3, proptest::bool::ANY).prop_map(|(op, swap)| F::IntCmp(op, swap)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| F::Or(a.into(), b.into())),
        ]
    })
}

/// One step of a session's life: grow the assertion base, or ask a query
/// under zero or more assumptions.
#[derive(Debug, Clone)]
enum Op {
    Assert(F),
    Query(Vec<F>),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        2 => arb_f().prop_map(Op::Assert),
        3 => proptest::collection::vec(arb_f(), 0..3).prop_map(Op::Query),
    ];
    proptest::collection::vec(op, 1..8)
}

/// Shared variable pool for one stream.
struct Vars {
    bools: [TermId; 2],
    enums: [TermId; 2],
    ints: [TermId; 2],
    sort: netexpl_logic::sort::EnumSortId,
}

impl Vars {
    fn new(ctx: &mut Ctx) -> Vars {
        let sort = ctx.enum_sort("E", &["a", "b", "c"]);
        Vars {
            bools: [ctx.bool_var("b0"), ctx.bool_var("b1")],
            enums: [ctx.enum_var("e0", sort), ctx.enum_var("e1", sort)],
            // Shifted ranges, so var–var atoms are lowered across
            // different lower bounds.
            ints: [ctx.int_var("i0", 0, 5), ctx.int_var("i1", 2, 7)],
            sort,
        }
    }

    fn build(&self, ctx: &mut Ctx, f: &F) -> TermId {
        match f {
            F::BoolVar(i) => self.bools[*i as usize % 2],
            F::EnumEq(v, c) => {
                let cv = ctx.enum_const(self.sort, (*c % 3) as u16);
                ctx.eq(self.enums[*v as usize % 2], cv)
            }
            F::IntLe(v, c) => {
                let cv = ctx.int_const(*c as i64);
                ctx.le(self.ints[*v as usize % 2], cv)
            }
            F::IntCmp(op, swap) => {
                let [a, b] = if *swap {
                    [self.ints[1], self.ints[0]]
                } else {
                    self.ints
                };
                match op % 3 {
                    0 => ctx.eq(a, b),
                    1 => ctx.le(a, b),
                    _ => ctx.lt(a, b),
                }
            }
            F::Not(a) => {
                let a = self.build(ctx, a);
                ctx.not(a)
            }
            F::And(a, b) => {
                let (a, b) = (self.build(ctx, a), self.build(ctx, b));
                ctx.and2(a, b)
            }
            F::Or(a, b) => {
                let (a, b) = (self.build(ctx, a), self.build(ctx, b));
                ctx.or2(a, b)
            }
        }
    }
}

/// Ground truth for "asserted ∧ assumptions" by enumerating every
/// assignment of the (small) shared variable pool.
fn brute_force_sat(ctx: &mut Ctx, asserted: &[TermId], assumptions: &[TermId]) -> bool {
    let mut all: Vec<TermId> = asserted.to_vec();
    all.extend_from_slice(assumptions);
    let conj = ctx.and(&all);
    let vars = ctx.free_vars(conj);
    let mut sat = false;
    Assignment::for_all_assignments(ctx, &vars, 4096, |asg| {
        if asg.eval_bool(ctx, conj) == Some(true) {
            sat = true;
        }
    });
    sat
}

proptest! {
    #![proptest_config(cases_from_env(64))]

    /// The three backends — persistent session, fresh one-shot solver per
    /// query, brute-force enumeration — must return the same verdict for
    /// every query of every randomized assert/query interleaving. A tiny
    /// clause-database reduction threshold forces reductions mid-stream,
    /// so this also exercises answering from a reduced database.
    #[test]
    fn session_fresh_and_oracle_agree_on_op_streams(ops in arb_ops()) {
        let mut ctx = Ctx::new();
        let vars = Vars::new(&mut ctx);
        let mut session = SmtSession::new();
        session.set_reduce_threshold(2);
        let mut asserted: Vec<TermId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Assert(f) => {
                    let t = vars.build(&mut ctx, f);
                    asserted.push(t);
                    session.assert(&mut ctx, t);
                }
                Op::Query(fs) => {
                    let assumptions: Vec<TermId> =
                        fs.iter().map(|f| vars.build(&mut ctx, f)).collect();

                    let expected = brute_force_sat(&mut ctx, &asserted, &assumptions);

                    // Fresh one-shot solver: the pre-session behaviour.
                    let mut fresh = SmtSolver::new();
                    for &t in &asserted {
                        fresh.assert(t);
                    }
                    let (fresh_result, _) = fresh.check_assuming(&mut ctx, &assumptions);
                    prop_assert!(
                        !matches!(fresh_result, SmtResult::Unknown(_)),
                        "step {step}: unbudgeted fresh solver returned Unknown"
                    );
                    prop_assert_eq!(
                        fresh_result.is_sat(), expected,
                        "step {step}: fresh solver disagrees with brute force"
                    );

                    // Incremental session: same question, reused state.
                    let (sess_result, _) = session.check_assuming(&mut ctx, &assumptions);
                    prop_assert!(
                        !matches!(sess_result, SmtResult::Unknown(_)),
                        "step {step}: unbudgeted session returned Unknown"
                    );
                    prop_assert_eq!(
                        sess_result.is_sat(), expected,
                        "step {step}: session disagrees with brute force"
                    );

                    // A session model must satisfy base and assumptions.
                    if let Some(model) = sess_result.model() {
                        let mut all = asserted.clone();
                        all.extend_from_slice(&assumptions);
                        let conj = ctx.and(&all);
                        prop_assert_eq!(
                            model.eval_bool(&ctx, conj), Some(true),
                            "step {step}: session model violates the query"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Clause-level streams: one persistent SAT solver, many assumption sets,
// reductions forced between queries, DPLL as the complete oracle.

fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (3usize..9).prop_flat_map(|n| {
        let lit = (0..n, proptest::bool::ANY).prop_map(|(v, pol)| Lit::with_polarity(v, pol));
        let clause = proptest::collection::vec(lit, 1..4);
        (Just(n), proptest::collection::vec(clause, 1..24))
    })
}

fn arb_assumption_sets(n: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    let lit = (0..n, proptest::bool::ANY).prop_map(|(v, pol)| Lit::with_polarity(v, pol));
    proptest::collection::vec(proptest::collection::vec(lit, 0..3), 1..6)
}

/// A CNF instance together with a query stream over it.
fn arb_sat_stream() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>, Vec<Vec<Lit>>)> {
    arb_cnf().prop_flat_map(|(n, clauses)| (Just(n), Just(clauses), arb_assumption_sets(n)))
}

proptest! {
    #![proptest_config(cases_from_env(128))]

    /// A single long-lived [`SatSolver`] answering a sequence of
    /// assumption queries — with the clause-database reduction threshold
    /// set low enough to fire repeatedly — must agree with the DPLL
    /// oracle run from scratch on "clauses + assumption units" for every
    /// query in the sequence. Learned clauses and reductions carried over
    /// from earlier queries must never flip a later verdict.
    #[test]
    fn persistent_sat_solver_with_reductions_agrees_with_dpll(
        (n, clauses, sets) in arb_sat_stream(),
    ) {
        let mut solver = SatSolver::new();
        solver.set_reduce_threshold(2);
        for _ in 0..n {
            solver.new_var();
        }
        for c in &clauses {
            solver.add_clause(c);
        }

        for (round, assumptions) in sets.iter().enumerate() {
            let mut with_units = clauses.clone();
            for &l in assumptions {
                with_units.push(vec![l]);
            }
            let reference = dpll::solve(n, &with_units);

            match solver.solve_with_assumptions(assumptions) {
                SatResult::Sat(model) => {
                    prop_assert!(
                        reference.is_sat(),
                        "round {round}: incremental said Sat, DPLL said Unsat"
                    );
                    for clause in &with_units {
                        prop_assert!(
                            clause.iter().any(|l| model[l.var()] != l.is_neg()),
                            "round {round}: incremental model violates a clause"
                        );
                    }
                }
                SatResult::Unsat => prop_assert!(
                    matches!(reference, SatResult::Unsat),
                    "round {round}: incremental said Unsat, DPLL found a model"
                ),
                SatResult::Unknown(i) => {
                    prop_assert!(false, "round {round}: unbudgeted solve returned Unknown: {i}");
                }
            }
        }
    }
}
