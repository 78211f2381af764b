//! `compile-oneshot`: one-off completeness assessment of fresh settings.
//!
//! Every op takes a setting it has not compiled before through the whole
//! pipeline: `analyze` → certified rewrites → `reason` + `prepare`
//! (`ReasonedSetting::prepare`) → `try_rcdp_static`. The stream mixes
//! redundant-V settings (one IND plus implied CQ restatements the reasoner
//! drops), statically decidable ones (denial-killed queries), FO-syntax
//! queries that analysis downgrades to CQ, and a minority of FD-pinned
//! settings that need a real search. The compile pipeline dominates here and
//! enumeration is near zero.

use super::{check_rcdp, engine, fd_pinned, schedule, Expect, Parser};
use crate::harness::{Check, Ctx, Workload};
use ric::prelude::*;
use ric::query::{Atom, FoExpr, FoQuery};
use ric::SplitMix64;
use std::time::Duration;

/// One generated setting, its query and database, and its construction
/// truth.
struct Instance {
    label: &'static str,
    setting: Setting,
    query: Query,
    db: Database,
    complete: bool,
    expect: Option<Expect>,
}

/// The workload state.
pub struct CompileOneshot {
    instances: Vec<Instance>,
    order: Vec<usize>,
    budget: SearchBudget,
    parser: Parser,
    last: Option<Result<Verdict, DecisionError>>,
}

fn str_tuple<const N: usize>(vals: [String; N]) -> Tuple {
    Tuple::new(vals.map(Value::str))
}

/// `Supt(eid, dept, cid)` IND-bounded by a master customer list of `n`, plus
/// `k` CQ restatements of the bound with `atoms` join atoms each. `D`
/// supports every master customer, so the query is complete.
fn redundant_v(n: usize, k: usize, atoms: usize, tag: u64, parser: &mut Parser) -> Instance {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").expect("fixed relation");
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
        .expect("fixed schema");
    let dcust = master.rel_id("DCust").expect("fixed relation");
    let mut dm = Database::empty(&master);
    for c in 0..n {
        dm.insert(dcust, str_tuple([format!("c{tag}_{c}")]));
    }
    let mut ccs = vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![2])),
        dcust,
        vec![0],
    )];
    for _ in 0..k {
        let body: Vec<String> = (0..atoms).map(|a| format!("Supt(E{a}, D{a}, C)")).collect();
        let cq = parser.cq(&schema, &format!("Q(C) :- {}.", body.join(", ")));
        ccs.push(ContainmentConstraint::into_master(
            CcBody::Cq(cq),
            dcust,
            vec![0],
        ));
    }
    let setting = Setting::new(schema.clone(), master, dm, ConstraintSet::new(ccs));
    let query = parser.cq(&schema, "Q(C) :- Supt(E, D, C).").into();
    let mut db = Database::empty(&schema);
    for c in 0..n {
        db.insert(
            supt,
            str_tuple([
                format!("e{tag}_{c}"),
                format!("d{tag}"),
                format!("c{tag}_{c}"),
            ]),
        );
    }
    Instance {
        label: "redundant-v",
        setting,
        query,
        db,
        complete: true,
        expect: None,
    }
}

/// The query's relation is denied outright, so every legal database keeps
/// the answer empty: statically complete.
fn denial_killed(n: usize, parser: &mut Parser) -> Instance {
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("R", &["a", "b"]),
        RelationSchema::infinite("S", &["a"]),
    ])
    .expect("fixed schema");
    let srel = schema.rel_id("S").expect("fixed relation");
    let master =
        Schema::from_relations(vec![RelationSchema::infinite("Rm", &["a"])]).expect("fixed schema");
    let rm = master.rel_id("Rm").expect("fixed relation");
    let mut dm = Database::empty(&master);
    for v in 0..n {
        dm.insert(rm, Tuple::new([Value::int(v as i64)]));
    }
    let denial = parser.cq(&schema, "Q(X, Y) :- R(X, Y).");
    let v = ConstraintSet::new(vec![
        ContainmentConstraint::into_empty(CcBody::Cq(denial)),
        ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(srel, vec![0])),
            rm,
            vec![0],
        ),
    ]);
    let setting = Setting::new(schema.clone(), master, dm, v);
    let query = parser.cq(&schema, "Q(X) :- R(X, Y).").into();
    let mut db = Database::empty(&schema);
    for v in 0..n {
        db.insert(srel, Tuple::new([Value::int(v as i64)]));
    }
    Instance {
        label: "denial-killed",
        setting,
        query,
        db,
        complete: true,
        expect: None,
    }
}

/// `Q(c) := ∃e (Supt(e, c) ∧ ¬¬Pref(c))`, semantically the CQ
/// `Q(C) :- Supt(E, C), Pref(C).`, over `Supt(eid, cid)` bounded by a master
/// list of `n`; `D` supports every master customer but the last, so the
/// query is incomplete.
fn fo_as_cq(n: usize, tag: u64) -> Instance {
    let schema = Schema::from_relations(vec![
        RelationSchema::infinite("Supt", &["eid", "cid"]),
        RelationSchema::infinite("Pref", &["cid"]),
    ])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").expect("fixed relation");
    let pref = schema.rel_id("Pref").expect("fixed relation");
    let master = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
        .expect("fixed schema");
    let dcust = master.rel_id("DCust").expect("fixed relation");
    let cust = |c: usize| format!("c{tag}_{c}");
    let mut dm = Database::empty(&master);
    for c in 0..n {
        dm.insert(dcust, str_tuple([cust(c)]));
    }
    let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
        CcBody::Proj(Projection::new(supt, vec![1])),
        dcust,
        vec![0],
    )]);
    let setting = Setting::new(schema.clone(), master, dm, v);
    let mut db = Database::empty(&schema);
    for c in 0..n {
        db.insert(pref, str_tuple([cust(c)]));
    }
    for c in 0..n - 1 {
        db.insert(supt, str_tuple([format!("e{tag}"), cust(c)]));
    }
    let (c, e) = (Var(0), Var(1));
    let fo = FoQuery::new(
        vec![c],
        FoExpr::Exists(
            vec![e],
            Box::new(FoExpr::And(vec![
                FoExpr::Atom(Atom::new(supt, vec![Term::Var(e), Term::Var(c)])),
                FoExpr::not(FoExpr::not(FoExpr::Atom(Atom::new(
                    pref,
                    vec![Term::Var(c)],
                )))),
            ])),
        ),
        vec!["c".into(), "e".into()],
    );
    Instance {
        label: "fo-as-cq",
        setting,
        query: Query::Fo(fo),
        db,
        complete: false,
        expect: None,
    }
}

/// A small Example 3.1 FD-pinned (CQ, CQ) setting: complete, and nothing
/// the reasoner concludes saves the search.
fn fd_search(n: usize, tag: u64, parser: &mut Parser) -> Instance {
    let (setting, db) = fd_pinned(n, &format!("{tag}_"));
    let query = parser
        .cq(&setting.schema, &format!("Q(C) :- Supt('e{tag}_0', D, C)."))
        .into();
    Instance {
        label: "fd-search",
        setting,
        query,
        db,
        complete: true,
        expect: None,
    }
}

impl CompileOneshot {
    /// Generate and parse the pool of distinct settings. Nothing is
    /// compiled here: compiling is the op.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let budget = SearchBudget::default().with_engine(engine(workers));
        let mut parser = Parser::default();
        let mut instances = Vec::new();
        // One cycle of distinct settings, 120 of them so that 12 lie beyond
        // p90. Sizes run through fixed lists and only names and order
        // depend on the seed, so every seed gets the same mix: p50 falls
        // inside the FO-as-CQ class and p90 inside the redundant-V class.
        for i in 0..36 {
            instances.push(denial_killed(8 + i % 9, &mut parser));
        }
        for i in 0..48 {
            instances.push(fo_as_cq(6 + i % 7, rng.next_u64() % 1000));
        }
        for i in 0..12 {
            instances.push(fd_search(6 + i % 3, rng.next_u64() % 1000, &mut parser));
        }
        for i in 0..24 {
            instances.push(redundant_v(
                8 + i % 5,
                3,
                3,
                rng.next_u64() % 1000,
                &mut parser,
            ));
        }
        let classes: Vec<(usize, usize)> = (0..instances.len()).map(|i| (i, 1)).collect();
        let order = schedule(&classes, &mut rng);
        CompileOneshot {
            instances,
            order,
            budget,
            parser,
            last: None,
        }
    }
}

impl Workload for CompileOneshot {
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
        (self.parser.count, self.parser.time)
    }

    fn setup_prepare(&self) -> Duration {
        Duration::ZERO
    }

    fn oracle(&mut self) {
        for inst in &mut self.instances {
            inst.expect = Some(Expect::complete_if(inst.complete));
        }
    }

    fn corrupt_oracle(&mut self) {
        let inst = &mut self.instances[self.order[0]];
        inst.expect = Some(Expect::complete_if(!inst.complete));
    }

    fn run(&mut self, i: usize, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let inst = &self.instances[self.order[i]];
        let budget = &self.budget;
        let (report, (setting, query)) = ctx.analyze(|| {
            let report = analyze(&inst.setting, &inst.query);
            let rewritten = report.apply(&inst.setting, &inst.query);
            (report, rewritten)
        });
        if report.has_errors() {
            return Err(format!("{}: analysis rejected the setting", inst.label));
        }
        ctx.layers.downgrades += report.downgrade_count() as u64;
        let reasoned = ctx
            .prepare(|p| {
                ReasonedSetting::prepare_probed(
                    &setting,
                    &query,
                    &inst.db,
                    budget.engine,
                    budget,
                    p,
                )
            })
            .map_err(|e| format!("{}: {e}", inst.label))?;
        self.last =
            Some(ctx.decide(|p| {
                try_rcdp_static_probed(&reasoned, &inst.db, budget, p).map(|d| d.verdict)
            }));
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let inst = &mut self.instances[self.order[i]];
        let Some(got) = self.last.take() else {
            return Check::Failed(format!("{}: no result", inst.label));
        };
        let check = check_rcdp(
            &got,
            inst.expect.expect("oracle ran before the first op"),
            &inst.setting,
            &inst.query,
            &inst.db,
            inst.label,
        );
        // A clone carries no lazily built indexes or caches, so the next
        // time this setting comes round it is compiled and decided cold.
        inst.db = inst.db.clone();
        inst.setting = inst.setting.clone();
        check
    }
}
