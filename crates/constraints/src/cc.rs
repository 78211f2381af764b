//! Containment constraints `q_v(R) ⊆ p(R_m)` and their satisfaction.

use ric_data::{Database, RelId, Tuple, TupleStore, Value};
use ric_query::tableau::TableauError;
use ric_query::{Cq, EfoQuery, FoQuery, Program, QueryLanguage, Ucq};
use std::collections::BTreeSet;

/// A projection query `π_cols(R_i)` — the only query form allowed on the
/// right-hand side, and the left-hand side form when `L_C` is the class of
/// inclusion dependencies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Projection {
    /// The projected relation.
    pub rel: RelId,
    /// The projected column positions, in output order.
    pub cols: Vec<usize>,
}

impl Projection {
    /// Build a projection.
    pub fn new(rel: RelId, cols: Vec<usize>) -> Self {
        Projection { rel, cols }
    }

    /// Evaluate on a store.
    pub fn eval<S: TupleStore>(&self, db: &S) -> BTreeSet<Tuple> {
        // Collected first, so the set is bulk-built from the (mostly sorted)
        // rows rather than grown one insertion at a time.
        let mut rows = Vec::with_capacity(db.rel_len(self.rel));
        db.scan(self.rel, &mut |t| {
            rows.push(t.project(&self.cols));
            true
        });
        rows.into_iter().collect()
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }
}

/// The left-hand side `q_v` of a containment constraint, in one of the
/// languages `L_C` of the paper.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CcBody {
    /// A projection on the database — `L_C` = INDs.
    Proj(Projection),
    /// A conjunctive query.
    Cq(Cq),
    /// A union of conjunctive queries.
    Ucq(Ucq),
    /// A positive existential FO query.
    Efo(EfoQuery),
    /// A first-order query (undecidable cells of Tables I/II).
    Fo(FoQuery),
    /// A datalog query (undecidable cells of Tables I/II).
    Fp(Program),
}

impl CcBody {
    /// The language this body belongs to (smallest class in the paper's
    /// hierarchy that syntactically contains it).
    pub fn language(&self) -> QueryLanguage {
        match self {
            CcBody::Proj(_) => QueryLanguage::Inds,
            CcBody::Cq(_) => QueryLanguage::Cq,
            CcBody::Ucq(_) => QueryLanguage::Ucq,
            CcBody::Efo(_) => QueryLanguage::EfoPlus,
            CcBody::Fo(_) => QueryLanguage::Fo,
            CcBody::Fp(_) => QueryLanguage::Fp,
        }
    }

    /// Evaluate on a store (a database, or an overlay `D ∪ Δ`).
    pub fn eval<S: TupleStore>(&self, db: &S) -> Result<BTreeSet<Tuple>, TableauError> {
        match self {
            CcBody::Proj(p) => Ok(p.eval(db)),
            CcBody::Cq(q) => ric_query::eval::eval_cq(q, db),
            CcBody::Ucq(q) => ric_query::eval::eval_ucq(q, db),
            CcBody::Efo(q) => q.eval(db),
            CcBody::Fo(q) => Ok(q.eval(db)),
            CcBody::Fp(p) => Ok(p.eval(db)),
        }
    }

    /// Constants appearing in the body (contributes to `Adom`).
    pub fn constants(&self) -> BTreeSet<Value> {
        match self {
            CcBody::Proj(_) => BTreeSet::new(),
            CcBody::Cq(q) => q.constants(),
            CcBody::Ucq(q) => q.constants(),
            CcBody::Efo(q) => q.constants(),
            CcBody::Fo(q) => {
                let mut out = BTreeSet::new();
                q.body.constants(&mut out);
                out
            }
            CcBody::Fp(p) => {
                let mut out = BTreeSet::new();
                for rule in &p.rules {
                    let mut push = |t: &ric_query::Term| {
                        if let ric_query::Term::Const(c) = t {
                            out.insert(c.clone());
                        }
                    };
                    for t in &rule.head_args {
                        push(t);
                    }
                    for lit in &rule.body {
                        match lit {
                            ric_query::Literal::Edb(a) => a.args.iter().for_each(&mut push),
                            ric_query::Literal::Idb(_, args) => args.iter().for_each(&mut push),
                            ric_query::Literal::Eq(l, r) | ric_query::Literal::Neq(l, r) => {
                                push(l);
                                push(r);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// The CQ disjuncts of this body, if it is (equivalent to) a UCQ — used
    /// by the characterizations, which work tableau by tableau. `None` for
    /// FO/FP bodies. Projections need the database schema to recover their
    /// relation's arity.
    pub fn as_ucq(&self, schema: &ric_data::Schema) -> Option<Ucq> {
        match self {
            CcBody::Proj(p) => {
                let arity = schema.arity(p.rel).ok()?;
                let mut b = Cq::builder();
                let vars: Vec<_> = (0..arity).map(|i| b.var(&format!("c{i}"))).collect();
                let head = p
                    .cols
                    .iter()
                    .map(|&c| ric_query::Term::Var(vars[c]))
                    .collect();
                let q = b
                    .atom(
                        p.rel,
                        vars.iter().map(|&v| ric_query::Term::Var(v)).collect(),
                    )
                    .head(head)
                    .build();
                Some(Ucq::single(q))
            }
            CcBody::Cq(q) => Some(Ucq::single(q.clone())),
            CcBody::Ucq(q) => Some(q.clone()),
            CcBody::Efo(q) => Some(q.to_ucq()),
            CcBody::Fo(_) | CcBody::Fp(_) => None,
        }
    }

    /// The database relations this body reads. Incremental checking skips a
    /// constraint when a delta touches none of them.
    pub fn rels(&self) -> BTreeSet<RelId> {
        let mut out = BTreeSet::new();
        match self {
            CcBody::Proj(p) => {
                out.insert(p.rel);
            }
            CcBody::Cq(q) => out.extend(q.atoms.iter().map(|a| a.rel)),
            CcBody::Ucq(u) => {
                out.extend(
                    u.disjuncts
                        .iter()
                        .flat_map(|d| d.atoms.iter())
                        .map(|a| a.rel),
                );
            }
            CcBody::Efo(q) => {
                fn scan(e: &ric_query::EfoExpr, out: &mut BTreeSet<RelId>) {
                    match e {
                        ric_query::EfoExpr::Atom(a) => {
                            out.insert(a.rel);
                        }
                        ric_query::EfoExpr::Eq(..) | ric_query::EfoExpr::Neq(..) => {}
                        ric_query::EfoExpr::And(ps) | ric_query::EfoExpr::Or(ps) => {
                            ps.iter().for_each(|p| scan(p, out));
                        }
                    }
                }
                scan(&q.body, &mut out);
            }
            CcBody::Fo(q) => {
                fn scan(e: &ric_query::FoExpr, out: &mut BTreeSet<RelId>) {
                    match e {
                        ric_query::FoExpr::Atom(a) => {
                            out.insert(a.rel);
                        }
                        ric_query::FoExpr::Eq(..) => {}
                        ric_query::FoExpr::Not(x) => scan(x, out),
                        ric_query::FoExpr::And(ps) | ric_query::FoExpr::Or(ps) => {
                            ps.iter().for_each(|p| scan(p, out));
                        }
                        ric_query::FoExpr::Exists(_, x) | ric_query::FoExpr::Forall(_, x) => {
                            scan(x, out);
                        }
                    }
                }
                scan(&q.body, &mut out);
            }
            CcBody::Fp(p) => {
                for rule in &p.rules {
                    for lit in &rule.body {
                        if let ric_query::Literal::Edb(a) = lit {
                            out.insert(a.rel);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The right-hand side `p` of a containment constraint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CcRhs {
    /// `q_v ⊆ ∅` — containment in an empty master relation.
    Empty,
    /// `q_v ⊆ π_cols(R^m_i)` — a projection of a master relation.
    Master(Projection),
}

impl CcRhs {
    /// Evaluate against the master data.
    pub fn eval(&self, dm: &Database) -> BTreeSet<Tuple> {
        match self {
            CcRhs::Empty => BTreeSet::new(),
            CcRhs::Master(p) => p.eval(dm),
        }
    }
}

/// A containment constraint `q_v(R) ⊆ p(R_m)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContainmentConstraint {
    /// The query on the database.
    pub body: CcBody,
    /// The projection on the master data (or `∅`).
    pub rhs: CcRhs,
}

impl ContainmentConstraint {
    /// `q_v ⊆ ∅`.
    pub fn into_empty(body: CcBody) -> Self {
        ContainmentConstraint {
            body,
            rhs: CcRhs::Empty,
        }
    }

    /// `q_v ⊆ π_cols(R^m)`.
    pub fn into_master(body: CcBody, rel: RelId, cols: Vec<usize>) -> Self {
        ContainmentConstraint {
            body,
            rhs: CcRhs::Master(Projection::new(rel, cols)),
        }
    }

    /// `(D, D_m) |= φ_v`.
    pub fn satisfied(&self, db: &Database, dm: &Database) -> Result<bool, TableauError> {
        let lhs = self.body.eval(db)?;
        if lhs.is_empty() {
            return Ok(true);
        }
        let rhs = self.rhs.eval(dm);
        Ok(lhs.is_subset(&rhs))
    }
}

/// A *lower-bound* containment constraint `p(R_m) ⊆ q(R)`: the database must
/// contain at least the master information extracted by `p`.
///
/// Section 5 of the paper defers this "richer class" (constraints from the
/// master data into the database) to future work; Example 1.1 already needs
/// it (`Manage ⊇ Manage_m`). The key property that keeps the RCDP machinery
/// unchanged: with a monotone body `q`, a satisfied lower bound stays
/// satisfied in every extension `D′ ⊇ D`, so lower bounds gate the *input*
/// (partial closure) but can never be violated by adding tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LowerBound {
    /// The projection on the master data.
    pub master: Projection,
    /// The query on the database that must cover it.
    pub body: CcBody,
}

impl LowerBound {
    /// `(D, D_m) |= p(R_m) ⊆ q(R)`, on any store `D`.
    pub fn satisfied<S: TupleStore>(&self, db: &S, dm: &Database) -> Result<bool, TableauError> {
        let lhs = self.master.eval(dm);
        if lhs.is_empty() {
            return Ok(true);
        }
        Ok(lhs.is_subset(&self.body.eval(db)?))
    }
}

/// A set `V` of containment constraints.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ConstraintSet {
    /// The upper-bound constraints `q(R) ⊆ p(R_m)` of the paper.
    pub ccs: Vec<ContainmentConstraint>,
    /// Lower-bound constraints `p(R_m) ⊆ q(R)` (the Section 5 extension).
    pub lower_bounds: Vec<LowerBound>,
}

impl ConstraintSet {
    /// The empty constraint set (pure open-world database).
    pub fn empty() -> Self {
        ConstraintSet::default()
    }

    /// Build from constraints.
    pub fn new(ccs: Vec<ContainmentConstraint>) -> Self {
        ConstraintSet {
            ccs,
            lower_bounds: Vec::new(),
        }
    }

    /// Add a constraint.
    pub fn push(&mut self, cc: ContainmentConstraint) {
        self.ccs.push(cc);
    }

    /// Add a lower-bound constraint (the Section 5 extension).
    pub fn push_lower_bound(&mut self, lb: LowerBound) {
        self.lower_bounds.push(lb);
    }

    /// `(D, D_m) |= V`, including lower bounds.
    pub fn satisfied(&self, db: &Database, dm: &Database) -> Result<bool, TableauError> {
        if !self.upper_satisfied(db, dm)? {
            return Ok(false);
        }
        for lb in &self.lower_bounds {
            if !lb.satisfied(db, dm)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Only the upper-bound constraints — what the deciders re-check on
    /// candidate extensions (lower bounds are preserved under extension by
    /// monotonicity and are validated once, on the input).
    pub fn upper_satisfied(&self, db: &Database, dm: &Database) -> Result<bool, TableauError> {
        Ok(self.first_violated_upper(db, dm)?.is_none())
    }

    /// Like [`Self::upper_satisfied`], reporting *which* constraint failed:
    /// the index (into [`Self::ccs`]) of the first violated upper bound, or
    /// `None` when all hold. Same evaluation order and short-circuit as the
    /// boolean check, so instrumented and uninstrumented runs do identical
    /// work — the deciders' pruning-attribution counters key on this index.
    pub fn first_violated_upper(
        &self,
        db: &Database,
        dm: &Database,
    ) -> Result<Option<usize>, TableauError> {
        for (i, cc) in self.ccs.iter().enumerate() {
            if !cc.satisfied(db, dm)? {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// The most expressive language used by any constraint body, which
    /// determines the `L_C` column of Tables I/II (CQ for the empty set).
    pub fn language(&self) -> QueryLanguage {
        self.ccs
            .iter()
            .map(|cc| cc.body.language())
            .chain(self.lower_bounds.iter().map(|lb| lb.body.language()))
            .max()
            .unwrap_or(QueryLanguage::Inds)
    }

    /// Are all constraints inclusion dependencies? (Enables the C3/E3-E4
    /// fast paths of Corollary 3.4 and Proposition 4.3.)
    pub fn is_ind_set(&self) -> bool {
        self.ccs.iter().all(|cc| matches!(cc.body, CcBody::Proj(_)))
    }

    /// All constants appearing in constraint bodies.
    pub fn constants(&self) -> BTreeSet<Value> {
        self.ccs.iter().flat_map(|cc| cc.body.constants()).collect()
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.ccs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ccs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{RelationSchema, Schema};
    use ric_query::parse_cq;

    /// Database schema: Cust(cid, cc); master schema: DCust(cid).
    fn schemas() -> (Schema, Schema) {
        let r =
            Schema::from_relations(vec![RelationSchema::infinite("Cust", &["cid", "cc"])]).unwrap();
        let m = Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        (r, m)
    }

    #[test]
    fn ind_cc_bounds_projection() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let cc = ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(cust, vec![0])),
            dcust,
            vec![0],
        );
        let mut dm = Database::empty(&m);
        dm.insert(dcust, Tuple::new([Value::int(1)]));
        dm.insert(dcust, Tuple::new([Value::int(2)]));
        let mut db = Database::empty(&r);
        db.insert(cust, Tuple::new([Value::int(1), Value::int(1)]));
        assert!(cc.satisfied(&db, &dm).unwrap());
        db.insert(cust, Tuple::new([Value::int(3), Value::int(1)]));
        assert!(!cc.satisfied(&db, &dm).unwrap());
    }

    #[test]
    fn cq_cc_with_selection() {
        let (r, m) = schemas();
        let dcust = m.rel_id("DCust").unwrap();
        // Domestic customers (cc = 1) bounded by DCust.
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 1.").unwrap();
        let cc = ContainmentConstraint::into_master(CcBody::Cq(q), dcust, vec![0]);
        let mut dm = Database::empty(&m);
        dm.insert(dcust, Tuple::new([Value::int(10)]));
        let cust = r.rel_id("Cust").unwrap();
        let mut db = Database::empty(&r);
        db.insert(cust, Tuple::new([Value::int(10), Value::int(1)])); // domestic, known
        db.insert(cust, Tuple::new([Value::int(99), Value::int(2)])); // international, free
        assert!(cc.satisfied(&db, &dm).unwrap());
        db.insert(cust, Tuple::new([Value::int(11), Value::int(1)])); // domestic, unknown
        assert!(!cc.satisfied(&db, &dm).unwrap());
    }

    #[test]
    fn empty_rhs_is_denial() {
        let (r, m) = schemas();
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 7.").unwrap();
        let cc = ContainmentConstraint::into_empty(CcBody::Cq(q));
        let dm = Database::empty(&m);
        let cust = r.rel_id("Cust").unwrap();
        let mut db = Database::empty(&r);
        db.insert(cust, Tuple::new([Value::int(1), Value::int(1)]));
        assert!(cc.satisfied(&db, &dm).unwrap());
        db.insert(cust, Tuple::new([Value::int(2), Value::int(7)]));
        assert!(!cc.satisfied(&db, &dm).unwrap());
    }

    #[test]
    fn constraint_set_language_and_fast_path_flags() {
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let mut v = ConstraintSet::empty();
        assert!(v.is_ind_set());
        assert_eq!(v.language(), QueryLanguage::Inds);
        v.push(ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(cust, vec![0])),
            dcust,
            vec![0],
        ));
        assert!(v.is_ind_set());
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 1.").unwrap();
        v.push(ContainmentConstraint::into_empty(CcBody::Cq(q)));
        assert!(!v.is_ind_set());
        assert_eq!(v.language(), QueryLanguage::Cq);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn downward_closure_of_satisfaction() {
        // CC satisfaction with a monotone body is inherited by sub-databases:
        // the property the per-disjunct RCDP decider relies on.
        let (r, m) = schemas();
        let cust = r.rel_id("Cust").unwrap();
        let dcust = m.rel_id("DCust").unwrap();
        let q = parse_cq(&r, "Q(C) :- Cust(C, Cc), Cc = 1.").unwrap();
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Cq(q),
            dcust,
            vec![0],
        )]);
        let mut dm = Database::empty(&m);
        for i in 0..4 {
            dm.insert(dcust, Tuple::new([Value::int(i)]));
        }
        let mut big = Database::empty(&r);
        for i in 0..4 {
            big.insert(cust, Tuple::new([Value::int(i), Value::int(1)]));
        }
        assert!(v.satisfied(&big, &dm).unwrap());
        let mut small = Database::empty(&r);
        small.insert(cust, Tuple::new([Value::int(2), Value::int(1)]));
        assert!(small.is_contained_in(&big));
        assert!(v.satisfied(&small, &dm).unwrap());
    }
}
