//! Seeded properties of the datalog evaluator, on the in-tree SplitMix64 so
//! they run offline and in tier-1:
//!
//! * the transitive-closure program agrees with a reachability BFS;
//! * a non-recursive program agrees with its CQ unfolding;
//! * evaluating on an overlay `D ∪ Δ` (a reusable delta buffer, or a delta
//!   database with tombstones) agrees with evaluating on the union built as
//!   a database;
//! * one compiled program reused across 200 databases agrees with a fresh
//!   evaluation on each.

use ric_data::{
    Database, DeltaBuf, Overlay, RelId, RelationSchema, Schema, SplitMix64, Tuple, Value,
};
use ric_query::datalog::PredId;
use ric_query::{parse_cq, parse_program, Program};
use std::collections::BTreeSet;

const CASES: u64 = 200;

fn schema() -> Schema {
    Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap()
}

fn edge(a: usize, b: usize) -> Tuple {
    Tuple::new([Value::int(a as i64), Value::int(b as i64)])
}

/// Up to `max_edges` random edges over nodes `0..nodes`.
fn random_db(rng: &mut SplitMix64, nodes: usize, max_edges: usize) -> Database {
    let mut db = Database::with_relations(1);
    for _ in 0..rng.random_range(0..max_edges + 1) {
        db.insert(
            RelId(0),
            edge(rng.random_range(0..nodes), rng.random_range(0..nodes)),
        );
    }
    db
}

fn tc_program(s: &Schema) -> Program {
    parse_program(s, "Tc(X,Y) :- E(X,Y). Tc(X,Y) :- E(X,Z), Tc(Z,Y).", "Tc").unwrap()
}

/// Programs covering recursion through one and two predicates, `=`, `≠`,
/// constants and a nullary head.
fn programs(s: &Schema) -> Vec<Program> {
    vec![
        tc_program(s),
        parse_program(
            s,
            "Odd(X,Y) :- E(X,Y). Even(X,Y) :- E(X,Z), Odd(Z,Y). Odd(X,Y) :- E(X,Z), Even(Z,Y).",
            "Even",
        )
        .unwrap(),
        parse_program(
            s,
            "Hop(X,Z) :- E(X,Y), E(Y,Z), X != Z. Far(X) :- Hop(X,Z), Z = 5. Loop() :- E(X,Y), X = Y.",
            "Far",
        )
        .unwrap(),
        parse_program(
            s,
            "R(X) :- E(0,X). R(Y) :- R(X), E(X,Y), Y != 3. Hit() :- R(X), E(X,X).",
            "Hit",
        )
        .unwrap(),
    ]
}

/// Every IDB predicate's tuples, from the evaluator's `eval_all`.
fn all_preds<S: ric_data::TupleStore>(p: &Program, db: &S) -> Vec<BTreeSet<Tuple>> {
    p.eval_all(db)
        .iter()
        .map(|inst| inst.iter().cloned().collect())
        .collect()
}

fn bfs_closure(db: &Database) -> BTreeSet<Tuple> {
    let edges: Vec<(Value, Value)> = db
        .instance(RelId(0))
        .iter()
        .map(|t| (t.get(0).clone(), t.get(1).clone()))
        .collect();
    let nodes: BTreeSet<Value> = edges
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let mut expected = BTreeSet::new();
    for start in &nodes {
        let mut frontier = vec![start.clone()];
        let mut seen = BTreeSet::new();
        while let Some(n) = frontier.pop() {
            for (a, b) in &edges {
                if a == &n && seen.insert(b.clone()) {
                    frontier.push(b.clone());
                }
            }
        }
        for b in seen {
            expected.insert(Tuple::new([start.clone(), b]));
        }
    }
    expected
}

#[test]
fn datalog_tc_equals_bfs() {
    let s = schema();
    let p = tc_program(&s);
    let mut rng = SplitMix64::seed_from_u64(1);
    for case in 0..CASES {
        let db = random_db(&mut rng, 7, 14);
        assert_eq!(p.eval(&db), bfs_closure(&db), "case {case}: {db:?}");
    }
}

#[test]
fn nonrecursive_datalog_equals_cq() {
    let s = schema();
    let p = parse_program(
        &s,
        "Hop2(X, Z) :- E(X, Y), E(Y, Z). Out(X) :- Hop2(X, Z), Z = 5.",
        "Out",
    )
    .unwrap();
    let q = parse_cq(&s, "Q(X) :- E(X, Y), E(Y, 5).").unwrap();
    let mut rng = SplitMix64::seed_from_u64(2);
    for case in 0..CASES {
        let db = random_db(&mut rng, 7, 14);
        assert_eq!(
            p.eval(&db),
            ric_query::eval::eval_cq(&q, &db).unwrap(),
            "case {case}: {db:?}"
        );
    }
}

#[test]
fn overlay_evaluation_equals_the_materialized_union() {
    let s = schema();
    let progs = programs(&s);
    let mut rng = SplitMix64::seed_from_u64(3);
    let mut buf = DeltaBuf::new(1);
    for case in 0..CASES {
        let base = random_db(&mut rng, 7, 12);
        let delta = random_db(&mut rng, 8, 4);
        // Tombstones: some base tuples, and a tuple the base lacks.
        let mut deletes = Database::with_relations(1);
        for t in base.instance(RelId(0)).iter() {
            if rng.random_bool(0.3) {
                deletes.insert(RelId(0), t.clone());
            }
        }
        deletes.insert(RelId(0), edge(9, 9));

        let mut union = base.clone();
        let mut effective = base.clone();
        for t in deletes.instance(RelId(0)).iter() {
            effective.instance_mut(RelId(0)).remove(t);
        }
        for t in delta.instance(RelId(0)).iter() {
            union.insert(RelId(0), t.clone());
            effective.insert(RelId(0), t.clone());
        }
        buf.clear();
        for t in delta.instance(RelId(0)).iter() {
            buf.insert_with(RelId(0), t.arity(), |i| t.get(i));
        }
        let over_buf = Overlay::over_buf(&base, &mut buf).unwrap();
        let with_deletes = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        for (pi, p) in progs.iter().enumerate() {
            assert_eq!(
                all_preds(p, &over_buf),
                all_preds(p, &union),
                "case {case}, program {pi}: over_buf"
            );
            assert_eq!(
                all_preds(p, &with_deletes),
                all_preds(p, &effective),
                "case {case}, program {pi}: with_deletes"
            );
        }
    }
}

#[test]
fn compiled_program_reused_equals_fresh_evaluation() {
    let s = schema();
    let progs = programs(&s);
    let mut compiled: Vec<_> = progs.iter().map(Program::compile).collect();
    let mut rng = SplitMix64::seed_from_u64(4);
    for case in 0..CASES {
        // Sizes swing both ways, so the reused tables grow and shrink.
        let max_edges = rng.random_range(0..30);
        let db = random_db(&mut rng, 10, max_edges);
        for (pi, (p, c)) in progs.iter().zip(compiled.iter_mut()).enumerate() {
            c.run(&db);
            let fresh = all_preds(p, &db);
            for (pred, want) in fresh.iter().enumerate() {
                let got: BTreeSet<Tuple> = c
                    .rows(PredId(pred))
                    .map(|row| Tuple::new(row.iter().cloned()))
                    .collect();
                assert_eq!(&got, want, "case {case}, program {pi}, predicate {pred}");
            }
            assert_eq!(c.output(), p.eval(&db), "case {case}, program {pi}");
            assert_eq!(c.output_len(), c.output().len(), "rows are distinct");
        }
        assert_eq!(compiled[0].output(), bfs_closure(&db), "case {case}: TC");
    }
}
