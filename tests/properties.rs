//! Cross-crate property tests: DSL round-trips, simulator invariants, and
//! SMT-vs-brute-force agreement on mixed-sort formulas.

use proptest::prelude::*;

use netexpl_bgp::{Action, Community, NetworkConfig, RouteMap, RouteMapEntry, SetClause};
use netexpl_logic::budget::{Budget, InterruptReason};
use netexpl_logic::dpll;
use netexpl_logic::model::Assignment;
use netexpl_logic::sat::{Lit, SatResult, SatSolver};
use netexpl_logic::term::{Ctx, TermId};
use netexpl_logic::SmtSession;
use netexpl_spec::{parse, PathPattern, Requirement, Seg, Specification};
use netexpl_topology::builders::random_gnp;
use netexpl_topology::Prefix;

// ---------------------------------------------------------------------------
// Specification DSL round-trip on arbitrary specs.

fn arb_ident() -> impl Strategy<Value = String> {
    // Avoid the `D…` namespace so generated router names never collide with
    // destination names (the parser resolves a trailing declared-destination
    // identifier as a destination, which would break round-tripping).
    "[A-CE-Z][a-z0-9]{0,6}"
}

fn arb_pattern(dests: Vec<String>) -> impl Strategy<Value = PathPattern> {
    let seg = prop_oneof![4 => arb_ident().prop_map(Seg::Router), 1 => Just(Seg::Any)];
    (
        proptest::collection::vec(seg, 1..5),
        proptest::option::of(0..dests.len().max(1)),
    )
        .prop_map(move |(mut segs, dest)| {
            // Repair invalid shapes instead of discarding: no adjacent Any,
            // ensure at least one router, optional trailing destination.
            segs.dedup_by(|a, b| matches!(a, Seg::Any) && matches!(b, Seg::Any));
            if !segs.iter().any(|s| matches!(s, Seg::Router(_))) {
                segs.push(Seg::Router("R0".into()));
            }
            if let (Some(i), false) = (dest, dests.is_empty()) {
                if !matches!(segs.last(), Some(Seg::Any)) || segs.len() > 1 {
                    segs.push(Seg::Dest(dests[i % dests.len()].clone()));
                }
            }
            PathPattern::new(segs)
        })
}

fn arb_spec() -> impl Strategy<Value = Specification> {
    let dests = proptest::collection::btree_map("D[0-9]", 0u32..255, 1..3);
    dests.prop_flat_map(|dest_map| {
        let dest_names: Vec<String> = dest_map.keys().cloned().collect();
        let forbidden = arb_pattern(dest_names.clone()).prop_map(Requirement::Forbidden);
        let dn = dest_names.clone();
        let reach = (arb_ident(), 0..dn.len()).prop_map(move |(src, i)| Requirement::Reachable {
            src,
            dst: dn[i].clone(),
        });
        let req = prop_oneof![forbidden, reach];
        (
            Just(dest_map),
            proptest::collection::vec(req, 1..4),
            proptest::bool::ANY,
        )
            .prop_map(|(dest_map, reqs, fallback)| {
                let mut spec = Specification::new();
                if fallback {
                    spec.mode = netexpl_spec::PreferenceMode::Fallback;
                }
                for (i, (name, third_octet)) in dest_map.into_iter().enumerate() {
                    let prefix = Prefix::from_octets(10, i as u8, third_octet as u8, 0, 24);
                    spec.dest(&name, prefix);
                }
                spec.block("Req1", reqs);
                spec
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_display_parse_roundtrip(spec in arb_spec()) {
        let printed = spec.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed spec must reparse: {e}\n{printed}"));
        prop_assert_eq!(spec, reparsed, "printed:\n{}", printed);
    }

    #[test]
    fn config_render_parse_roundtrip(seed in 0u64..40) {
        let (topo, net) = random_network(seed);
        let rendered = net.render(&topo);
        let parsed = netexpl_bgp::parse_config(&topo, &rendered)
            .unwrap_or_else(|e| panic!("rendered config must reparse: {e}\n{rendered}"));
        // Originations are not part of render(); compare maps only.
        for r in topo.router_ids() {
            prop_assert_eq!(net.router(r), parsed.router(r));
        }
    }

    #[test]
    fn simulator_invariants(seed in 0u64..60) {
        let (topo, net) = random_network(seed);
        let Ok(state) = netexpl_bgp::sim::stabilize(&topo, &net) else { return Ok(()) };
        for (prefix, router, best) in state.selections() {
            // Propagation paths are simple and end at the holder.
            let mut seen = std::collections::HashSet::new();
            for &hop in &best.propagation {
                prop_assert!(seen.insert(hop), "loop in propagation path");
            }
            prop_assert_eq!(*best.propagation.last().unwrap(), router);
            prop_assert_eq!(best.prefix, prefix);
            // Consecutive hops are adjacent.
            for w in best.propagation.windows(2) {
                prop_assert!(topo.adjacent(w[0], w[1]));
            }
            // The selected route is undominated among the available ones.
            for cand in state.available(prefix, router) {
                prop_assert!(
                    netexpl_bgp::decision::compare(best, cand) != std::cmp::Ordering::Less,
                    "best route dominated by a candidate"
                );
            }
            // Forwarding path = reversed propagation.
            let fwd = state.forwarding_path(prefix, router).unwrap();
            let mut rev = best.propagation.clone();
            rev.reverse();
            prop_assert_eq!(fwd, rev);
        }
    }

    #[test]
    fn budgeted_cdcl_agrees_or_returns_unknown(
        (n, clauses) in arb_cnf(),
        max_conflicts in 0u64..6,
    ) {
        // Reference verdict from the unbudgeted (complete) DPLL oracle.
        let reference = dpll::solve(n, &clauses);
        let mut solver = SatSolver::new();
        for _ in 0..n {
            solver.new_var();
        }
        let mut level0_unsat = false;
        for c in &clauses {
            level0_unsat |= !solver.add_clause(c);
        }
        let budget = Budget::unlimited().max_conflicts(max_conflicts);
        match solver.solve_under(budget) {
            // A budget may cost completeness (Unknown), never soundness:
            // a budgeted verdict must match the complete oracle's.
            SatResult::Sat(model) => {
                prop_assert!(reference.is_sat(), "budgeted CDCL said Sat, DPLL said Unsat");
                for clause in &clauses {
                    prop_assert!(
                        clause.iter().any(|l| model[l.var()] != l.is_neg()),
                        "budgeted CDCL model violates a clause"
                    );
                }
            }
            SatResult::Unsat => prop_assert!(
                matches!(reference, SatResult::Unsat),
                "budgeted CDCL said Unsat, DPLL found a model"
            ),
            SatResult::Unknown(i) => {
                // Bailing out is only legal through the one limit this
                // budget sets, and never after level-0 already refuted.
                prop_assert!(!level0_unsat, "level-0 Unsat must not degrade to Unknown");
                prop_assert_eq!(i.reason, InterruptReason::Conflicts);
            }
        }
        // The same solver, resumed after clearing the budget, is complete
        // again and must agree with DPLL exactly.
        solver.set_budget(Budget::unlimited());
        match solver.solve() {
            SatResult::Sat(_) => prop_assert!(reference.is_sat()),
            SatResult::Unsat => prop_assert!(matches!(reference, SatResult::Unsat)),
            SatResult::Unknown(i) => prop_assert!(false, "unbudgeted solve returned Unknown: {i}"),
        }
    }

    #[test]
    fn smt_agrees_with_brute_force(formula in arb_mixed_formula()) {
        let (mut ctx, term, vars) = formula;
        // Brute force over the original variables.
        let mut bf_sat = false;
        Assignment::for_all_assignments(&ctx, &vars, 4096, |asg| {
            if asg.eval_bool(&ctx, term) == Some(true) {
                bf_sat = true;
            }
        });
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[term]);
        let result = session.check(&mut ctx);
        prop_assert_eq!(bf_sat, result.is_sat());
        if let Some(model) = result.model() {
            prop_assert_eq!(model.eval_bool(&ctx, term), Some(true), "model must satisfy");
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers.

/// A small random CNF: enough variables and short clauses to produce a mix
/// of Sat and Unsat instances, with search hard enough that tiny conflict
/// caps sometimes fire.
fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (3usize..9).prop_flat_map(|n| {
        let lit = (0..n, proptest::bool::ANY).prop_map(|(v, pol)| Lit::with_polarity(v, pol));
        let clause = proptest::collection::vec(lit, 1..4);
        (Just(n), proptest::collection::vec(clause, 1..24))
    })
}

fn random_network(seed: u64) -> (netexpl_topology::Topology, NetworkConfig) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..5);
    let topo = random_gnp(n, 0.5, seed.wrapping_mul(31));
    let mut net = NetworkConfig::new();
    let pa = topo.router_by_name("Pa").unwrap();
    net.originate(pa, "10.0.0.0/8".parse().unwrap());
    let comms = [Community(100, 1), Community(100, 2)];
    for r in topo.internal_routers().collect::<Vec<_>>() {
        for &nb in topo.neighbors(r) {
            if rng.gen_bool(0.5) {
                let mut entries = Vec::new();
                if rng.gen_bool(0.5) {
                    entries.push(RouteMapEntry {
                        seq: 10,
                        action: Action::Deny,
                        matches: vec![netexpl_bgp::MatchClause::Community(
                            comms[rng.gen_range(0..2)],
                        )],
                        sets: vec![],
                    });
                }
                entries.push(RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: if rng.gen_bool(0.5) {
                        vec![SetClause::LocalPref(rng.gen_range(50..250))]
                    } else {
                        vec![SetClause::AddCommunity(comms[rng.gen_range(0..2)])]
                    },
                });
                let map = RouteMap::new(&format!("m{}_{}", r.0, nb.0), entries);
                if rng.gen_bool(0.5) {
                    net.router_mut(r).set_import(nb, map);
                } else {
                    net.router_mut(r).set_export(nb, map);
                }
            }
        }
    }
    (topo, net)
}

/// An arbitrary small formula mixing booleans, a 3-variant enum and a
/// bounded int, built directly into a fresh context.
fn arb_mixed_formula() -> impl Strategy<Value = (Ctx, TermId, Vec<netexpl_logic::term::VarId>)> {
    #[derive(Debug, Clone)]
    enum F {
        BoolVar(u8),
        EnumEq(u8, u8),
        IntLe(u8, i8),
        Not(Box<F>),
        And(Box<F>, Box<F>),
        Or(Box<F>, Box<F>),
        Implies(Box<F>, Box<F>),
    }
    let leaf = prop_oneof![
        (0u8..2).prop_map(F::BoolVar),
        (0u8..2, 0u8..3).prop_map(|(v, c)| F::EnumEq(v, c)),
        (0u8..2, 0i8..6).prop_map(|(v, c)| F::IntLe(v, c)),
    ];
    let formula = leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| F::Implies(a.into(), b.into())),
        ]
    });
    formula.prop_map(|f| {
        let mut ctx = Ctx::new();
        let sort = ctx.enum_sort("E", &["a", "b", "c"]);
        let bools = [ctx.bool_var("b0"), ctx.bool_var("b1")];
        let enums = [ctx.enum_var("e0", sort), ctx.enum_var("e1", sort)];
        let ints = [ctx.int_var("i0", 0, 5), ctx.int_var("i1", 0, 5)];
        fn build(
            ctx: &mut Ctx,
            f: &F,
            bools: &[TermId; 2],
            enums: &[TermId; 2],
            ints: &[TermId; 2],
            sort: netexpl_logic::sort::EnumSortId,
        ) -> TermId {
            match f {
                F::BoolVar(i) => bools[*i as usize % 2],
                F::EnumEq(v, c) => {
                    let cv = ctx.enum_const(sort, (*c % 3) as u16);
                    ctx.eq(enums[*v as usize % 2], cv)
                }
                F::IntLe(v, c) => {
                    let cv = ctx.int_const(*c as i64);
                    ctx.le(ints[*v as usize % 2], cv)
                }
                F::Not(a) => {
                    let a = build(ctx, a, bools, enums, ints, sort);
                    ctx.not(a)
                }
                F::And(a, b) => {
                    let (a, b) = (
                        build(ctx, a, bools, enums, ints, sort),
                        build(ctx, b, bools, enums, ints, sort),
                    );
                    ctx.and2(a, b)
                }
                F::Or(a, b) => {
                    let (a, b) = (
                        build(ctx, a, bools, enums, ints, sort),
                        build(ctx, b, bools, enums, ints, sort),
                    );
                    ctx.or2(a, b)
                }
                F::Implies(a, b) => {
                    let (a, b) = (
                        build(ctx, a, bools, enums, ints, sort),
                        build(ctx, b, bools, enums, ints, sort),
                    );
                    ctx.implies(a, b)
                }
            }
        }
        let term = build(&mut ctx, &f, &bools, &enums, &ints, sort);
        let vars = ctx.free_vars(term);
        (ctx, term, vars)
    })
}
