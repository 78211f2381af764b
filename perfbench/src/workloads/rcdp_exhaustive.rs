//! `rcdp-exhaustive`: RCDP decisions on settings prepared once in setup.
//!
//! Most of the time goes to the Example 3.1 FD-pinned (CQ, CQ) and
//! two-disjunct (UCQ, CQ) cells, which are complete by construction, so the
//! decider sweeps the whole valuation space. Thm 3.6 ∀*∃*-3SAT instances
//! (checked against the QBF oracle) and planted (CQ, INDs) instances make
//! the fast share of the mix. Analysis, reasoning and the monitor do no work
//! here: per-valuation cost is nearly all of the latency.

use super::{check_rcdp, engine, fd_pinned, schedule, Expect, Parser};
use crate::harness::{Check, Ctx, Workload};
use ric::prelude::*;
use ric::reductions::workload::{planted_rcdp, WorkloadParams};
use ric::reductions::{qbf, rcdp_sigma2};
use ric::SplitMix64;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Where an instance's expected verdict comes from.
enum Truth {
    /// FD-pinned: complete by construction.
    Pinned,
    /// Thm 3.6: complete iff the formula is true.
    Qbf(qbf::ForallExists),
    /// Planted complete or incomplete by the generator.
    Planted(bool),
}

struct Instance {
    label: &'static str,
    prepared: Rc<PreparedSetting>,
    query: Query,
    db: Rc<Database>,
    truth: Truth,
    expect: Option<Expect>,
}

/// Distinct seeded instances per op of the base mix: 6 × 20 = 120 ops per
/// cycle, so that 12 of them lie beyond p90.
const REPEAT: usize = 6;

/// The workload state.
pub struct RcdpExhaustive {
    instances: Vec<Instance>,
    order: Vec<usize>,
    budget: SearchBudget,
    parser: Parser,
    prepare_time: Duration,
    last: Option<Result<Verdict, DecisionError>>,
}

impl RcdpExhaustive {
    /// Generate, parse and prepare every instance of the cycle.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let engine = engine(workers);
        let budget = SearchBudget::default().with_engine(engine);
        let mut parser = Parser::default();
        let mut prepare_time = Duration::ZERO;
        let mut prepared = |setting: &Setting, db: &Database| {
            let t0 = Instant::now();
            let p = prepare(setting, db, engine).expect("generated setting prepares");
            prepare_time += t0.elapsed();
            Rc::new(p)
        };
        let mut instances = Vec::new();

        // Each instance runs once per cycle. The FD cells dominate the time;
        // per 20 ops the mix has 4 CQ n=24, 3 UCQ n=24, 1 CQ n=48, 4 UCQ
        // n=48, 4 sigma2 and 4 planted, which puts p50 inside the CQ n=24
        // class (40–60% of the ops) and p90 inside the UCQ n=48 class (the
        // top 20%). The FD queries of one size share one preparation.
        for (n, cq_ops, ucq_ops, cq_label, ucq_label) in [
            (24usize, 4, 3, "fd-cq-24", "fd-ucq-24"),
            (48, 1, 4, "fd-cq-48", "fd-ucq-48"),
        ] {
            let (setting, db) = fd_pinned(n, "");
            let fd = prepared(&setting, &db);
            let db = Rc::new(db);
            let mut e = || format!("e{}", rng.random_range(0..n));
            for _ in 0..cq_ops * REPEAT {
                let text = format!("Q(C) :- Supt('{}', D, C).", e());
                let query = parser.cq(&setting.schema, &text).into();
                instances.push((
                    cq_label,
                    Rc::clone(&fd),
                    query,
                    Rc::clone(&db),
                    Truth::Pinned,
                ));
            }
            for _ in 0..ucq_ops * REPEAT {
                let text = format!(
                    "Q(C) :- Supt('{}', D, C). Q(C) :- Supt('{}', D, C).",
                    e(),
                    e()
                );
                let query = parser.ucq(&setting.schema, &text).into();
                instances.push((
                    ucq_label,
                    Rc::clone(&fd),
                    query,
                    Rc::clone(&db),
                    Truth::Pinned,
                ));
            }
        }
        for _ in 0..REPEAT {
            for shape in [(3, 3, 6), (3, 3, 6), (3, 4, 6), (3, 4, 6)] {
                let phi = qbf::ForallExists::random(shape.0, shape.1, shape.2, &mut rng);
                let (setting, query, db) = rcdp_sigma2::to_rcdp_instance(&phi);
                let p = prepared(&setting, &db);
                instances.push(("sigma2", p, query, Rc::new(db), Truth::Qbf(phi)));
            }
            for complete in [true, true, false, false] {
                let params = WorkloadParams {
                    n_customers: 32,
                    n_employees: 4,
                    n_support: 64,
                };
                let inst = planted_rcdp(&params, complete, &mut rng);
                let p = prepared(&inst.setting, &inst.db);
                let truth = Truth::Planted(inst.complete);
                instances.push(("planted", p, inst.query, Rc::new(inst.db), truth));
            }
        }
        let instances: Vec<Instance> = instances
            .into_iter()
            .map(|(label, prepared, query, db, truth)| Instance {
                label,
                prepared,
                query,
                db,
                truth,
                expect: None,
            })
            .collect();
        let classes: Vec<(usize, usize)> = (0..instances.len()).map(|i| (i, 1)).collect();
        let order = schedule(&classes, &mut rng);
        RcdpExhaustive {
            instances,
            order,
            budget,
            parser,
            prepare_time,
            last: None,
        }
    }
}

impl Workload for RcdpExhaustive {
    fn cycle_len(&self) -> usize {
        self.order.len()
    }

    fn trace_cycles(&self) -> usize {
        2
    }

    fn class(&self, i: usize) -> &'static str {
        self.instances[self.order[i]].label
    }

    fn parsed(&self) -> (usize, Duration) {
        (self.parser.count, self.parser.time)
    }

    fn setup_prepare(&self) -> Duration {
        self.prepare_time
    }

    fn oracle(&mut self) {
        for inst in &mut self.instances {
            inst.expect = Some(match &inst.truth {
                Truth::Pinned => Expect::Complete,
                Truth::Qbf(phi) => Expect::complete_if(phi.eval()),
                Truth::Planted(complete) => Expect::complete_if(*complete),
            });
        }
    }

    fn corrupt_oracle(&mut self) {
        let inst = &mut self.instances[self.order[0]];
        inst.expect = inst.expect.map(|e| match e {
            Expect::Complete => Expect::Incomplete,
            _ => Expect::Complete,
        });
    }

    fn run(&mut self, i: usize, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let inst = &self.instances[self.order[i]];
        let budget = &self.budget;
        self.last = Some(ctx.decide(|p| {
            try_rcdp_prepared_probed(&inst.prepared, &inst.query, &inst.db, budget, p)
                .map(|d| d.verdict)
        }));
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let inst = &self.instances[self.order[i]];
        let Some(got) = self.last.take() else {
            return Check::Failed("no result".into());
        };
        check_rcdp(
            &got,
            inst.expect.expect("oracle ran before the first op"),
            inst.prepared.setting(),
            &inst.query,
            &inst.db,
            inst.label,
        )
    }
}
