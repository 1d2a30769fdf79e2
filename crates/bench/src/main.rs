//! `tables` — regenerate every experiment row of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p netexpl-bench --bin tables            # everything
//! cargo run --release -p netexpl-bench --bin tables -- E1 E4  # selected
//! ```
//!
//! Experiment ids follow DESIGN.md: F1-F6 are the paper's figures
//! (qualitative, golden outputs), E1-E6 the quantitative claims.

use std::time::Instant;

use netexpl_bench::*;
use netexpl_core::symbolize::{Dir, Field, Selector};
use netexpl_core::{explain, seed_spec, ExplainOptions};
use netexpl_logic::sat::{Lit, SatSolver};
use netexpl_logic::simplify::{RuleMask, Simplifier};
use netexpl_logic::solver::is_sat;
use netexpl_logic::term::{Ctx, TermId};
use netexpl_synth::encode::EncodeOptions;
use netexpl_synth::sketch::HoleFactory;
use netexpl_synth::synthesize::{default_sketch, synthesize, SynthOptions};
use netexpl_topology::builders::PaperTopology;
use netexpl_topology::RouterId;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    if want("F1") || want("F2") {
        figures_f1_f2();
    }
    if want("F3") || want("F4") {
        figure_f4();
    }
    if want("F5") {
        figure_f5();
    }
    if want("E1") {
        table_e1();
    }
    if want("E2") {
        table_e2();
    }
    if want("E3") {
        table_e3();
    }
    if want("E4") {
        table_e4();
    }
    if want("E5") {
        table_e5();
    }
    if want("E6") {
        table_e6();
    }
}

fn header(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Median wall time of `reps` runs of `f`, in milliseconds — for the rows
/// whose single run is too short to time on its own.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[reps / 2]
}

/// Scenario 3's conjoined seed specification with the router `pick`
/// chooses symbolized router-wide.
fn scenario3_seed(ctx: &mut Ctx, pick: impl Fn(&PaperTopology) -> RouterId) -> TermId {
    let (topo, h, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    let sorts = vocab.sorts(ctx);
    let factory = HoleFactory::new(&vocab, sorts);
    let (sym, _table) =
        netexpl_core::symbolize(ctx, &factory, &topo, &net, pick(&h), &Selector::Router);
    let seed = seed_spec(
        ctx,
        &topo,
        &vocab,
        sorts,
        &sym,
        &spec,
        EncodeOptions::default(),
    )
    .unwrap();
    seed.conjunction(ctx)
}

// ---------------------------------------------------------------------------

fn figures_f1_f2() {
    header(
        "F1/F2",
        "Scenario 1 end-to-end; subspecification at R1 (paper Fig. 2)",
    );
    let (topo, h, net, spec) = scenario1();
    let vocab = paper_vocab(&topo, net.prefixes());
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let expl = explain(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &net,
        &spec,
        h.r1,
        &Selector::Entry {
            neighbor: h.p1,
            dir: Dir::Export,
            entry: 1,
        },
        ExplainOptions::default(),
    )
    .unwrap();
    println!("paper Fig. 2:   R1 {{ !(R1->P1) }}");
    println!(
        "measured:       {}",
        expl.subspec.to_string().replace('\n', " ")
    );
    println!("exact:          {}", expl.lift_complete);
}

fn figure_f4() {
    header("F3/F4", "Scenario 2; subspecification at R3 (paper Fig. 4)");
    let (topo, h, net, spec) = scenario2();
    let vocab = paper_vocab(&topo, net.prefixes());
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let expl = explain(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &net,
        &spec,
        h.r3,
        &Selector::Router,
        ExplainOptions::default(),
    )
    .unwrap();
    println!(
        "paper Fig. 4:   preference (R3->R1->P1->...->D1) >> (R3->R2->P2->...->D1);\n\
         \x20               !(R3->R1->R2->P2->...->D1)  !(R3->R2->R1->P1->...->D1)"
    );
    println!("measured:\n{}", expl.subspec);
    println!("exact:          {}", expl.lift_complete);
}

fn figure_f5() {
    header(
        "F5",
        "Scenario 3; per-requirement subspecifications (paper Fig. 5)",
    );
    let (topo, h, net, spec) = scenario3();
    let req1 = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, net.prefixes());

    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let r2 = explain(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &net,
        &req1,
        h.r2,
        &Selector::Session {
            neighbor: h.p2,
            dir: Dir::Export,
        },
        ExplainOptions::default(),
    )
    .unwrap();
    println!("paper Fig. 5:   R2 to P2 {{ !(P1->R1->R2->P2)  !(P1->R1->R3->R2->P2) }}");
    println!("measured (R2):\n{}", r2.subspec);

    let mut ctx2 = Ctx::new();
    let sorts2 = vocab.sorts(&mut ctx2);
    let r3 = explain(
        &mut ctx2,
        &topo,
        &vocab,
        sorts2,
        &net,
        &req1,
        h.r3,
        &Selector::Router,
        ExplainOptions::default(),
    )
    .unwrap();
    println!(
        "paper:          R3 can do anything (empty subspecification)\n\
         measured (R3):  {} (empty: {})",
        r3.subspec.to_string().replace('\n', " "),
        r3.subspec.is_empty()
    );
}

// ---------------------------------------------------------------------------

fn table_e1() {
    header(
        "E1",
        "Seed-specification size before/after simplification\n\
         (paper §3: \"more than 1000 constraints even in the simple scenario\",\n\
          reduced to \"only a few\")",
    );
    println!(
        "{:<10} {:<9} {:>12} {:>11} {:>16} {:>15} {:>10}",
        "scenario",
        "router",
        "seed nodes",
        "seed conj",
        "simplified nodes",
        "simplified conj",
        "on-router"
    );
    let cases: Vec<(&str, _)> = vec![
        ("scenario1", scenario1()),
        ("scenario2", scenario2()),
        ("scenario3", scenario3()),
    ];
    for (name, (topo, h, net, spec)) in cases {
        let vocab = paper_vocab(&topo, net.prefixes());
        for router in [h.r1, h.r2, h.r3] {
            let mut ctx = Ctx::new();
            let sorts = vocab.sorts(&mut ctx);
            let expl = match explain(
                &mut ctx,
                &topo,
                &vocab,
                sorts,
                &net,
                &spec,
                router,
                &Selector::Router,
                ExplainOptions {
                    skip_lift: true,
                    ..Default::default()
                },
            ) {
                Ok(e) => e,
                Err(_) => continue, // router unconfigured in this scenario
            };
            println!(
                "{:<10} {:<9} {:>12} {:>11} {:>16} {:>15} {:>10}",
                name,
                topo.name(router),
                expl.seed_size,
                expl.seed_conjuncts,
                expl.simplified_size,
                expl.simplified_conjuncts,
                expl.simplified_text.len()
            );
        }
    }
}

fn table_e2() {
    header(
        "E2",
        "Subspecification size vs. number of symbolized variables\n\
         (paper §4 obs. 2: \"linear in relation to the configuration variables\")",
    );
    let (topo, h, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    println!(
        "{:<46} {:>5} {:>16} {:>15} {:>10}",
        "selector (incremental)", "vars", "simplified nodes", "simplified conj", "on-router"
    );
    // Symbolize R2's export to P2 one field at a time, then whole entries,
    // then the session, then the router — increasing variable counts.
    let selectors: Vec<(&str, Selector)> = vec![
        (
            "entry 0 action only",
            Selector::Field {
                neighbor: h.p2,
                dir: Dir::Export,
                entry: 0,
                field: Field::Action,
            },
        ),
        (
            "entry 0 match value only",
            Selector::Field {
                neighbor: h.p2,
                dir: Dir::Export,
                entry: 0,
                field: Field::Match(0),
            },
        ),
        (
            "entry 0 (action+match)",
            Selector::Entry {
                neighbor: h.p2,
                dir: Dir::Export,
                entry: 0,
            },
        ),
        (
            "entry 1 (catch-all)",
            Selector::Entry {
                neighbor: h.p2,
                dir: Dir::Export,
                entry: 1,
            },
        ),
        (
            "whole export session",
            Selector::Session {
                neighbor: h.p2,
                dir: Dir::Export,
            },
        ),
        ("whole router", Selector::Router),
    ];
    for (label, sel) in selectors {
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r2,
            &sel,
            ExplainOptions {
                skip_lift: true,
                ..Default::default()
            },
        )
        .unwrap();
        println!(
            "{:<46} {:>5} {:>16} {:>15} {:>10}",
            label,
            expl.symbolized.len(),
            expl.simplified_size,
            expl.simplified_conjuncts,
            expl.simplified_text.len()
        );
    }
}

fn table_e3() {
    header(
        "E3",
        "Explanation scaling with topology size (the paper's untested claim)",
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "topology", "routers", "paths", "seed nodes", "seed ms", "simplify ms", "lift ms"
    );
    for n in [4usize, 6, 8, 10, 12] {
        let (topo, base, spec, vocab) = ring_workload(n);
        // Synthesize a concrete configuration first.
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let Ok(result) = synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        ) else {
            continue;
        };
        let r0 = topo.router_by_name("R0").unwrap();
        let pa = topo.router_by_name("Pa").unwrap();

        // Fresh context for measuring explanation alone.
        let mut ctx2 = Ctx::new();
        let sorts2 = vocab.sorts(&mut ctx2);
        let factory2 = HoleFactory::new(&vocab, sorts2);
        let t0 = Instant::now();
        let (sym, _table) = netexpl_core::symbolize(
            &mut ctx2,
            &factory2,
            &topo,
            &result.config,
            r0,
            &Selector::Session {
                neighbor: pa,
                dir: Dir::Export,
            },
        );
        let seed = seed_spec(
            &mut ctx2,
            &topo,
            &vocab,
            sorts2,
            &sym,
            &spec,
            EncodeOptions {
                max_path_len: topo.num_routers(),
            },
        )
        .unwrap();
        let seed_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t1 = Instant::now();
        let conj = seed.conjunction(&mut ctx2);
        let _simplified = Simplifier::default().simplify(&mut ctx2, conj);
        let simp_ms = t1.elapsed().as_secs_f64() * 1000.0;

        let t2 = Instant::now();
        let _ = netexpl_core::lift(
            &mut ctx2,
            &topo,
            &spec,
            &seed,
            r0,
            netexpl_core::LiftOptions::default(),
        );
        let lift_ms = t2.elapsed().as_secs_f64() * 1000.0;

        let num_paths: usize = seed.encoded.paths.values().map(Vec::len).sum();
        println!(
            "{:<10} {:>8} {:>10} {:>12} {:>12.1} {:>14.1} {:>12.1}",
            format!("ring:{n}"),
            topo.num_routers(),
            num_paths,
            seed.size,
            seed_ms,
            simp_ms,
            lift_ms
        );
    }
}

fn table_e4() {
    header(
        "E4",
        "Rewrite-rule ablation: simplified seed size with one rule disabled\n\
         (scenario 3, router R2, whole-router symbolization)",
    );
    let (topo, h, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    println!(
        "{:<22} {:>16} {:>15} {:>14}",
        "rules", "simplified nodes", "simplified conj", "rule firings"
    );
    let mut configs: Vec<(String, RuleMask)> = vec![
        ("all 15 rules".to_string(), RuleMask::ALL),
        ("none".to_string(), RuleMask::NONE),
    ];
    for r in 1..=15u8 {
        configs.push((format!("all except R{r}"), RuleMask::all_except(r)));
    }
    for (label, mask) in configs {
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r2,
            &Selector::Router,
            ExplainOptions {
                skip_lift: true,
                rules: mask,
                ..Default::default()
            },
        )
        .unwrap();
        println!(
            "{:<22} {:>16} {:>15} {:>14}",
            label,
            expl.simplified_size,
            expl.simplified_conjuncts,
            expl.rule_stats.total()
        );
    }
    // Memoization ablation (✦): the full rule set with and without the
    // hash-consed memo table — identical output, different cost.
    let mut ctx = Ctx::new();
    let conj = scenario3_seed(&mut ctx, |h| h.r2);
    let with_memo = Simplifier::default().simplify(&mut ctx, conj);
    let without_memo = Simplifier::default()
        .without_memo()
        .simplify(&mut ctx, conj);
    assert_eq!(with_memo, without_memo, "memoization changed the output");
    let memo_ms = median_ms(21, || {
        Simplifier::default().simplify(&mut ctx, conj);
    });
    let no_memo_ms = median_ms(21, || {
        Simplifier::default()
            .without_memo()
            .simplify(&mut ctx, conj);
    });
    println!("\n{:<22} {:>14}", "memoization", "simplify ms");
    println!("{:<22} {:>14.2}", "memo (default)", memo_ms);
    println!("{:<22} {:>14.2}", "no memo", no_memo_ms);
}

fn table_e5() {
    header(
        "E5",
        "Solver substrate: CDCL vs. plain DPLL (pigeonhole PHP(n+1, n))",
    );
    println!("{:<10} {:>12} {:>12}", "instance", "CDCL ms", "DPLL ms");
    for n in [4usize, 5, 6, 7] {
        // Build PHP(n+1, n) clauses.
        let pigeons = n + 1;
        let holes = n;
        let var = |p: usize, h: usize| p * holes + h;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let num_vars = pigeons * holes;

        let t0 = Instant::now();
        let mut s = SatSolver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        assert!(!s.solve().is_sat());
        let cdcl_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t1 = Instant::now();
        let dpll_ms = if n <= 6 {
            assert!(!netexpl_logic::dpll::solve(num_vars, &clauses).is_sat());
            t1.elapsed().as_secs_f64() * 1000.0
        } else {
            f64::NAN // too slow to include by default
        };
        println!(
            "PHP({},{})  {:>12.2} {:>12.2}",
            pigeons, holes, cdcl_ms, dpll_ms
        );
    }
    // Random 3-SAT at the phase transition (clause/variable ratio 4.26),
    // the regime closest to the synthesis encodings; plain DPLL only at
    // the smaller size.
    for n in [40usize, 60] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        let clauses: Vec<Vec<Lit>> = (0..(n as f64 * 4.26) as usize)
            .map(|_| {
                (0..3)
                    .map(|_| Lit::with_polarity(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        let cdcl = || {
            let mut s = SatSolver::new();
            for _ in 0..n {
                s.new_var();
            }
            clauses.iter().all(|c| s.add_clause(c)) && s.solve().is_sat()
        };
        let sat = cdcl();
        let cdcl_ms = median_ms(21, || {
            cdcl();
        });
        let dpll_ms = if n <= 40 {
            assert_eq!(netexpl_logic::dpll::solve(n, &clauses).is_sat(), sat);
            median_ms(21, || {
                netexpl_logic::dpll::solve(n, &clauses);
            })
        } else {
            f64::NAN // plain DPLL is measured at n=40 only
        };
        println!(
            "{:<10} {:>12.2} {:>12.2}",
            format!("3-SAT n={n}"),
            cdcl_ms,
            dpll_ms
        );
    }
    // A real workload: the full SMT pipeline (bit-blast, Tseitin, CDCL)
    // deciding scenario 3's seed specification at R3, one fresh session
    // per run.
    let mut ctx = Ctx::new();
    let conj = scenario3_seed(&mut ctx, |h| h.r3);
    assert!(is_sat(&mut ctx, conj));
    let smt_ms = median_ms(5, || {
        is_sat(&mut ctx, conj);
    });
    println!("{:<10} {:>12.2} {:>12.2}", "S3 seed", smt_ms, f64::NAN);
}

fn table_e6() {
    header("E6", "Synthesis scaling with topology size");
    println!(
        "{:<10} {:>8} {:>7} {:>13} {:>12} {:>10}",
        "topology", "routers", "holes", "constraints", "paths", "synth ms"
    );
    for (kind, sizes) in [
        ("line", vec![3usize, 5, 8, 12]),
        ("ring", vec![4, 6, 8, 10]),
        ("grid", vec![2, 3]),
        ("clos", vec![2, 3]),
    ] {
        for n in sizes {
            let (topo, base, spec, vocab) = match kind {
                "line" => line_workload(n),
                "ring" => ring_workload(n),
                "grid" => grid_workload(n, 3),
                _ => clos_workload(n, 3),
            };
            let mut ctx = Ctx::new();
            let sorts = vocab.sorts(&mut ctx);
            let factory = HoleFactory::new(&vocab, sorts);
            let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
            let t0 = Instant::now();
            let result = match synthesize(
                &mut ctx,
                &topo,
                &vocab,
                sorts,
                &sketch,
                &spec,
                SynthOptions::default(),
            ) {
                Ok(result) => result,
                Err(e) => {
                    println!(
                        "{:<10} {:>8}  synthesis failed: {e}",
                        format!("{kind}:{n}"),
                        topo.num_routers()
                    );
                    continue;
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            println!(
                "{:<10} {:>8} {:>7} {:>13} {:>12} {:>10.1}",
                format!("{kind}:{n}"),
                topo.num_routers(),
                result.stats.num_holes,
                result.stats.num_constraints,
                result.stats.num_paths,
                ms
            );
        }
    }
}
