//! `bounded-query`: the FP/FO and RCQP cells.
//!
//! The Thm 3.1 2-head-DFA bounded semi-decision (with `L` nonempty and with
//! `L` empty) makes hundreds of query evaluations and tens of thousands of
//! index probes per decision; Thm 4.5(1) 3SAT RCQP instances (checked
//! against the DPLL oracle), tiling witnesses and Cor 4.6 fixed-(Dm, V)
//! queries add the RCQP candidate pools. Every other workload evaluates one
//! query per decision, so this is where `ric-query` and `ric-data` are hot.

use super::{check_rcdp, engine, schedule, Expect};
use crate::harness::{Check, Ctx, Workload};
use ric::prelude::*;
use ric::reductions::two_head_dfa::{self, TwoHeadDfa};
use ric::reductions::{rcqp_conp, rcqp_pi3, sat, tiling};
use ric::SplitMix64;
use std::time::{Duration, Instant};

/// Copies of the 20-op base mix in one cycle: 120 ops, so that 12 of them
/// lie beyond p90.
const REPEAT: usize = 6;

/// Longest word the DFA oracle tries.
const DFA_ORACLE_LEN: usize = 12;

/// Where an instance's expected verdict comes from.
enum Truth {
    /// Thm 3.1: `D` is incomplete iff the automaton accepts some word.
    Dfa(TwoHeadDfa),
    /// Thm 4.5(1): the RCQ set is nonempty iff the formula is unsatisfiable.
    Sat(sat::Cnf),
    /// A tiling witness is complete when the grid is a valid tiling.
    Tiling(tiling::TilingInstance, Vec<usize>),
    /// Cor 4.6: bounded queries are relatively complete, unbounded ones not.
    Fixed(bool),
}

/// What an op decides.
enum Kind {
    Rcdp(Database),
    Rcqp,
}

/// What the oracle expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    Rcdp(Expect),
    Rcqp { nonempty: bool },
}

struct Instance {
    label: &'static str,
    prepared: PreparedSetting,
    query: Query,
    kind: Kind,
    budget: SearchBudget,
    truth: Truth,
    want: Option<Want>,
}

enum Outcome {
    Rcdp(Result<Verdict, DecisionError>),
    Rcqp(Result<QueryVerdict, DecisionError>),
}

/// The workload state.
pub struct BoundedQuery {
    instances: Vec<Instance>,
    order: Vec<usize>,
    prepare_time: Duration,
    last: Option<Outcome>,
}

impl BoundedQuery {
    /// Generate and prepare every instance of the cycle.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let engine = engine(workers);
        let exact = SearchBudget::default().with_engine(engine);
        let fp = SearchBudget {
            max_delta_tuples: 3,
            fresh_values: 2,
            max_candidates: 500_000,
            ..SearchBudget::default()
        }
        .with_engine(engine);
        let fixed = SearchBudget {
            fresh_values: 3,
            ..SearchBudget::default()
        }
        .with_engine(engine);
        let mut prepare_time = Duration::ZERO;
        let mut instances = Vec::new();
        let mut classes = Vec::new();
        let mut push = |inst: (&'static str, Setting, Query, Kind, SearchBudget, Truth),
                        ops: usize| {
            let (label, setting, query, kind, budget, truth) = inst;
            let stats_db = match &kind {
                Kind::Rcdp(db) => db.clone(),
                Kind::Rcqp => Database::empty(&setting.schema),
            };
            let t0 = Instant::now();
            let prepared =
                prepare(&setting, &stats_db, engine).expect("generated setting prepares");
            prepare_time += t0.elapsed();
            instances.push(Instance {
                label,
                prepared,
                query,
                kind,
                budget,
                truth,
                want: None,
            });
            classes.push((instances.len() - 1, ops));
        };

        // Ops per cycle: the DFA cells make most of the time and hold p50
        // (L nonempty, 30–80% of the ops) and p90 (L empty, the top 20%);
        // the RCQP cells are the fast 30%. Per 20 ops the mix has 10 DFA
        // nonempty, 4 DFA empty, 3 3SAT, 1 tiling and 2 fixed-(Dm, V); a
        // cycle is REPEAT times that, with a distinct seeded formula or
        // query per RCQP op. The automata and the tiling are fixed by their
        // theorems, so their instances repeat.
        for (label, dfa, ops) in [
            ("dfa-nonempty", TwoHeadDfa::ones(), 10),
            ("dfa-empty", TwoHeadDfa::empty_language(), 4),
        ] {
            let (setting, query, db) = two_head_dfa::to_rcdp_instance(&dfa);
            push(
                (label, setting, query, Kind::Rcdp(db), fp, Truth::Dfa(dfa)),
                ops * REPEAT,
            );
        }
        for _ in 0..REPEAT {
            for (n_vars, n_clauses) in [(3, 24), (4, 12), (5, 20)] {
                let phi = sat::Cnf::random_3sat(n_vars, n_clauses, &mut rng);
                let (setting, query) = rcqp_conp::to_rcqp_instance(&phi);
                push(
                    (
                        "3sat-rcqp",
                        setting,
                        query,
                        Kind::Rcqp,
                        exact,
                        Truth::Sat(phi),
                    ),
                    1,
                );
            }
        }
        {
            let inst = tiling::TilingInstance::solvable_example(2);
            let (setting, query) = tiling::to_rcqp_instance(&inst);
            let grid = inst.solve().expect("the example tiling is solvable");
            let witness = tiling::tiling_witness(&setting.schema, &inst, &grid);
            let truth = Truth::Tiling(inst, grid);
            push(
                ("tiling", setting, query, Kind::Rcdp(witness), exact, truth),
                REPEAT,
            );
        }
        let setting = rcqp_pi3::fixed_setting();
        for _ in 0..REPEAT {
            let k = rng.random_range(0..8);
            for bounded in [true, false] {
                let query = if bounded {
                    rcqp_pi3::bounded_query(&setting, k)
                } else {
                    rcqp_pi3::unbounded_query(&setting, k)
                };
                let inst = (
                    "fixed-dm-v",
                    setting.clone(),
                    query,
                    Kind::Rcqp,
                    fixed,
                    Truth::Fixed(bounded),
                );
                push(inst, 1);
            }
        }
        let order = schedule(&classes, &mut rng);
        BoundedQuery {
            instances,
            order,
            prepare_time,
            last: None,
        }
    }
}

impl Workload for BoundedQuery {
    fn cycle_len(&self) -> usize {
        self.order.len()
    }

    fn trace_cycles(&self) -> usize {
        4
    }

    fn class(&self, i: usize) -> &'static str {
        self.instances[self.order[i]].label
    }

    fn parsed(&self) -> (usize, Duration) {
        (0, Duration::ZERO)
    }

    fn setup_prepare(&self) -> Duration {
        self.prepare_time
    }

    fn oracle(&mut self) {
        for inst in &mut self.instances {
            inst.want = Some(match &inst.truth {
                Truth::Dfa(dfa) => Want::Rcdp(match dfa.find_accepted_word(DFA_ORACLE_LEN) {
                    Some(_) => Expect::Incomplete,
                    None => Expect::NotIncomplete,
                }),
                Truth::Sat(phi) => Want::Rcqp {
                    nonempty: !phi.satisfiable(),
                },
                Truth::Tiling(inst, grid) => Want::Rcdp(Expect::complete_if(inst.check(grid))),
                Truth::Fixed(bounded) => Want::Rcqp { nonempty: *bounded },
            });
        }
    }

    fn corrupt_oracle(&mut self) {
        let inst = &mut self.instances[self.order[0]];
        inst.want = inst.want.map(|w| match w {
            Want::Rcdp(Expect::Incomplete) => Want::Rcdp(Expect::Complete),
            Want::Rcdp(_) => Want::Rcdp(Expect::Incomplete),
            Want::Rcqp { nonempty } => Want::Rcqp {
                nonempty: !nonempty,
            },
        });
    }

    fn run(&mut self, i: usize, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let inst = &self.instances[self.order[i]];
        let (prepared, query, budget) = (&inst.prepared, &inst.query, &inst.budget);
        self.last = Some(match &inst.kind {
            Kind::Rcdp(db) => Outcome::Rcdp(ctx.decide(|p| {
                try_rcdp_prepared_probed(prepared, query, db, budget, p).map(|d| d.verdict)
            })),
            Kind::Rcqp => Outcome::Rcqp(ctx.decide(|p| {
                try_rcqp_prepared_probed(prepared, query, budget, p).map(|d| d.verdict)
            })),
        });
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let inst = &self.instances[self.order[i]];
        let want = inst.want.expect("oracle ran before the first op");
        match (self.last.take(), want, &inst.kind) {
            (Some(Outcome::Rcdp(got)), Want::Rcdp(expect), Kind::Rcdp(db)) => check_rcdp(
                &got,
                expect,
                inst.prepared.setting(),
                &inst.query,
                db,
                inst.label,
            ),
            (Some(Outcome::Rcqp(got)), Want::Rcqp { nonempty }, _) => match got {
                Ok(QueryVerdict::Nonempty { .. }) if nonempty => Check::Ok { decided: true },
                Ok(QueryVerdict::Empty) if !nonempty => Check::Ok { decided: true },
                Ok(v) => Check::Failed(format!(
                    "{}: expected {}, got {v:?}",
                    inst.label,
                    if nonempty { "nonempty" } else { "empty" }
                )),
                Err(e) => Check::Failed(format!("{}: {e}", inst.label)),
            },
            _ => Check::Failed(format!("{}: no result", inst.label)),
        }
    }
}
