//! Property-based tests for the query layer: parser round-trips, tableau
//! normalisation invariants, and ∃FO⁺ DNF semantics. The datalog properties
//! run as seeded loops in `datalog_properties.rs`, which needs no external
//! crate.
//!
//! These suites need the external `proptest` crate, which is unavailable in
//! the offline build; enable the off-by-default `proptest` cargo feature to
//! run them (`cargo test --features proptest`).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use ric_data::{Database, RelationSchema, Schema, Tuple, Value};
use ric_query::tableau::Tableau;
use ric_query::{parse_cq, EfoExpr, EfoQuery, Term, Var};

fn schema() -> Schema {
    Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap()
}

prop_compose! {
    fn arb_db()(edges in proptest::collection::vec((0i64..7, 0i64..7), 0..14)) -> Database {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in edges {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        db
    }
}

proptest! {
    /// Display → parse is the identity on evaluation behaviour.
    #[test]
    fn parse_display_roundtrip(db in arb_db(), qi in 0usize..4) {
        let s = schema();
        let sources = [
            "Q(X) :- E(X, Y).",
            "Q(X, Z) :- E(X, Y), E(Y, Z), X != Z.",
            "Q(Y) :- E(3, Y), Y != 0.",
            "Q() :- E(X, X).",
        ];
        let q = parse_cq(&s, sources[qi]).unwrap();
        let printed = format!("{}.", q.display(&s));
        let reparsed = parse_cq(&s, &printed).unwrap();
        prop_assert_eq!(
            ric_query::eval::eval_cq(&q, &db).unwrap(),
            ric_query::eval::eval_cq(&reparsed, &db).unwrap(),
            "printed form: {}", printed
        );
    }

    /// Tableau normalisation preserves evaluation.
    #[test]
    fn tableau_preserves_semantics(db in arb_db()) {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        // A query with equalities that normalisation must fold away:
        // Q(X) :- E(X, Y), E(Y2, Z), Y = Y2, Z = 4.
        let mut b = ric_query::Cq::builder();
        let (x, y, y2, z) = (b.var("x"), b.var("y"), b.var("y2"), b.var("z"));
        let q = b
            .atom(e, vec![Term::Var(x), Term::Var(y)])
            .atom(e, vec![Term::Var(y2), Term::Var(z)])
            .eq(Term::Var(y), Term::Var(y2))
            .eq(Term::Var(z), Term::from(4))
            .head_vars(vec![x])
            .build();
        let t = Tableau::of(&q).unwrap();
        // After folding: 2 canonical variables remain (x, y), z became 4.
        prop_assert_eq!(t.n_vars, 2);
        // Reference: evaluate an equivalent hand-rewritten query.
        let reference = parse_cq(&s, "Q(X) :- E(X, Y), E(Y, 4).").unwrap();
        prop_assert_eq!(
            ric_query::eval::eval_tableau(&t, &db),
            ric_query::eval::eval_cq(&reference, &db).unwrap()
        );
    }

    /// ∃FO⁺ evaluation distributes over disjunction: Q1 ∨ Q2 answers are
    /// exactly the union of the disjunct answers.
    #[test]
    fn efo_disjunction_is_union(db in arb_db()) {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let x = Var(0);
        let y = Var(1);
        let left = EfoExpr::And(vec![
            EfoExpr::Atom(ric_query::Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
            EfoExpr::Eq(Term::Var(y), Term::from(1)),
        ]);
        let right = EfoExpr::And(vec![
            EfoExpr::Atom(ric_query::Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
            EfoExpr::Eq(Term::Var(y), Term::from(2)),
        ]);
        let both = EfoQuery::new(
            vec![Term::Var(x)],
            EfoExpr::Or(vec![left.clone(), right.clone()]),
            vec!["x".into(), "y".into()],
        );
        let l = EfoQuery::new(vec![Term::Var(x)], left, vec!["x".into(), "y".into()]);
        let r = EfoQuery::new(vec![Term::Var(x)], right, vec!["x".into(), "y".into()]);
        let mut expected = l.eval(&db).unwrap();
        expected.extend(r.eval(&db).unwrap());
        prop_assert_eq!(both.eval(&db).unwrap(), expected);
    }
}
