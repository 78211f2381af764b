//! Overlays: the extension `D ∪ Δ` — and, with a deletes side, the stream
//! view `(D ∖ Δ⁻) ∪ Δ⁺` — as a *view*, without copying `D`.
//!
//! The deciders' innermost loops ask, per candidate valuation, whether a
//! small delta `Δ` (the instantiated tableau atoms, at most a handful of
//! tuples) keeps the constraints satisfied. Materializing `D ∪ Δ` clones the
//! whole base per candidate; an [`Overlay`] borrows both sides and answers
//! membership, scans, and index probes against their union directly.
//!
//! A delta tuple already present in the base is *not novel*: it changes
//! nothing about the union. The novel tuples are what incremental constraint
//! checking (`ric-constraints`'s delta mode) evaluates against.
//! [`Overlay::over_buf`] takes the delta as a reusable
//! [`DeltaBuf`] — the deciders' per-candidate form — and
//! marks each tuple's novelty once, when the view is built.
//!
//! [`Overlay::with_deletes`] adds a third side of *tombstones*: base tuples
//! listed there are treated as absent, so the effective view is
//! `(base ∖ deletes) ∪ delta`. A tuple that is both tombstoned and
//! re-inserted through the delta is present (the delta wins), and counts as
//! novel — its base copy is dead. Streams (the `ric-monitor` crate) use this
//! to evaluate against a post-transaction state without mutating the base.
//! The delta-mode constraint checker's precondition ("the constraints hold
//! on the base") then refers to the *effective* base `base ∖ deletes`.
//!
//! Tombstones interact with two caches deliberately:
//!
//! * the base [`Database::active_domain`] cache still contains constants
//!   that appear only in tombstoned tuples, so [`Overlay::active_domain_into`]
//!   bypasses it and rescans whenever a deletes side is present;
//! * the base per-column [`ColumnIndex`](crate::index::ColumnIndex) still
//!   lists tombstoned tuples, so the store's probe path re-checks every
//!   index hit against the tombstones (see `store.rs`).

use crate::database::{Database, Tuple};
use crate::delta::DeltaBuf;
use crate::error::DataError;
use crate::schema::RelId;
use crate::value::Value;
use std::collections::BTreeSet;

/// The delta side of an overlay: a plain database, or a candidate
/// [`DeltaBuf`] whose novelty was marked when the overlay was built.
#[derive(Clone, Copy, Debug)]
enum Side<'a> {
    Db(&'a Database),
    Buf(&'a DeltaBuf),
}

/// A borrowed view of `(base ∖ deletes) ∪ delta`.
#[derive(Clone, Copy, Debug)]
pub struct Overlay<'a> {
    base: &'a Database,
    delta: Side<'a>,
    deletes: Option<&'a Database>,
}

impl<'a> Overlay<'a> {
    /// View `base ∪ delta`. Errors when the two sides disagree on the number
    /// of relations.
    pub fn new(base: &'a Database, delta: &'a Database) -> Result<Self, DataError> {
        if base.len() != delta.len() {
            return Err(DataError::SchemaMismatch);
        }
        Ok(Overlay {
            base,
            delta: Side::Db(delta),
            deletes: None,
        })
    }

    /// View `base ∪ delta` for a candidate buffer, marking once which of its
    /// tuples are novel (absent from the base), so the scans, probes and
    /// novelty queries below never look them up in the base again. Errors
    /// when the two sides disagree on the number of relations.
    pub fn over_buf(base: &'a Database, delta: &'a mut DeltaBuf) -> Result<Self, DataError> {
        if base.len() != delta.rel_count() {
            return Err(DataError::SchemaMismatch);
        }
        let mut flags = std::mem::take(&mut delta.novel);
        flags.clear();
        flags.extend(delta.iter().map(|(rel, t)| !base.instance(rel).contains(t)));
        delta.novel = flags;
        Ok(Overlay {
            base,
            delta: Side::Buf(delta),
            deletes: None,
        })
    }

    /// View `(base ∖ deletes) ∪ delta`. Errors when any side disagrees on
    /// the number of relations. Tombstones not present in the base are
    /// harmless no-ops; a tuple in both `deletes` and `delta` is present
    /// (and novel — its base copy is dead).
    pub fn with_deletes(
        base: &'a Database,
        delta: &'a Database,
        deletes: &'a Database,
    ) -> Result<Self, DataError> {
        if base.len() != delta.len() || base.len() != deletes.len() {
            return Err(DataError::SchemaMismatch);
        }
        Ok(Overlay {
            base,
            delta: Side::Db(delta),
            deletes: Some(deletes),
        })
    }

    /// The base database `D`.
    pub fn base(&self) -> &'a Database {
        self.base
    }

    /// The tombstoned tuples `Δ⁻`, when this overlay carries a deletes side.
    pub fn deletes(&self) -> Option<&'a Database> {
        self.deletes
    }

    /// Number of relations.
    pub fn rel_count(&self) -> usize {
        self.base.len()
    }

    /// Is `t` a *live* base tuple — present in the base and not tombstoned?
    pub fn in_live_base(&self, rel: RelId, t: &Tuple) -> bool {
        self.base.instance(rel).contains(t)
            && !self.deletes.is_some_and(|d| d.instance(rel).contains(t))
    }

    /// Is `t`, a tuple of the base, live? Free without a deletes side.
    pub(crate) fn base_tuple_live(&self, rel: RelId, t: &Tuple) -> bool {
        !self.deletes.is_some_and(|d| d.instance(rel).contains(t))
    }

    /// Effective-view membership.
    pub fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        self.in_live_base(rel, t)
            || match self.delta {
                Side::Db(d) => d.instance(rel).contains(t),
                Side::Buf(b) => b.contains(rel, t),
            }
    }

    /// Effective-view cardinality of one relation (novel delta tuples
    /// counted once, tombstoned base tuples not at all).
    pub fn rel_len(&self, rel: RelId) -> usize {
        let live_base = match self.deletes {
            None => self.base.instance(rel).len(),
            Some(_) => self
                .base
                .instance(rel)
                .iter()
                .filter(|t| self.in_live_base(rel, t))
                .count(),
        };
        let mut novel = 0;
        self.for_each_novel(rel, &mut |_| {
            novel += 1;
            true
        });
        live_base + novel
    }

    /// Does `rel` have at least one *novel* delta tuple (a tuple of `Δ` not
    /// already live in the base)?
    pub fn has_novel(&self, rel: RelId) -> bool {
        !self.for_each_novel(rel, &mut |_| false)
    }

    /// Relations with at least one novel delta tuple.
    pub fn novel_rels(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rel_count())
            .map(RelId)
            .filter(|&rel| self.has_novel(rel))
    }

    /// Visit the novel delta tuples of `rel` in order; stop early when `f`
    /// returns `false`. Returns `false` iff stopped early.
    pub fn for_each_novel(&self, rel: RelId, f: &mut dyn FnMut(&'a Tuple) -> bool) -> bool {
        match self.delta {
            Side::Db(d) => {
                for t in d.instance(rel).iter() {
                    if !self.in_live_base(rel, t) && !f(t) {
                        return false;
                    }
                }
            }
            Side::Buf(b) => {
                for (i, t) in b.rel_entries(rel) {
                    if b.novel[i] && !f(t) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Every delta tuple, novel or not, in `(relation, tuple)` order.
    fn for_each_delta(&self, f: &mut dyn FnMut(RelId, &'a Tuple)) {
        match self.delta {
            Side::Db(d) => {
                for (rel, inst) in d.iter() {
                    inst.iter().for_each(|t| f(rel, t));
                }
            }
            Side::Buf(b) => b.iter().for_each(|(rel, t)| f(rel, t)),
        }
    }

    /// The delta's tuples of `rel` as an owned instance (statistics only).
    pub(crate) fn delta_instance(&self, rel: RelId) -> crate::database::Instance {
        let mut out = crate::database::Instance::new();
        self.for_each_delta(&mut |r, t| {
            if r == rel {
                out.insert(t.clone());
            }
        });
        out
    }

    /// Collect the effective view's active domain into `out`.
    ///
    /// With a deletes side the base's cached
    /// [`active_domain`](Database::active_domain) cannot be trusted — it
    /// still holds constants that survive only in tombstoned tuples — so the
    /// live base tuples are rescanned instead.
    pub fn active_domain_into(&self, out: &mut BTreeSet<Value>) {
        match self.deletes {
            None => out.extend(self.base.active_domain().iter().cloned()),
            Some(_) => {
                for (rel, inst) in self.base.iter() {
                    for t in inst.iter() {
                        if self.in_live_base(rel, t) {
                            out.extend(t.iter().cloned());
                        }
                    }
                }
            }
        }
        self.for_each_delta(&mut |_, t| out.extend(t.iter().cloned()));
    }

    /// Materialize the effective view as an owned database — the reference
    /// that tests compare overlay-aware evaluation against (every evaluator
    /// reads overlays directly).
    pub fn materialize(&self) -> Database {
        let mut live = match self.deletes {
            None => self.base.clone(),
            Some(del) => self.base.difference(del).unwrap_or_else(|e| {
                unreachable!("overlay sides agree on relation count by construction: {e:?}")
            }),
        };
        self.for_each_delta(&mut |rel, t| {
            live.insert(rel, t.clone());
        });
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vs: &[i64]) -> Tuple {
        Tuple::new(vs.iter().map(|&v| Value::int(v)))
    }

    fn two_rel() -> (Database, Database) {
        let mut base = Database::with_relations(2);
        base.insert(RelId(0), t(&[1, 2]));
        base.insert(RelId(0), t(&[2, 3]));
        let mut delta = Database::with_relations(2);
        delta.insert(RelId(0), t(&[2, 3])); // already in base: not novel
        delta.insert(RelId(1), t(&[9]));
        (base, delta)
    }

    #[test]
    fn membership_and_lengths_cover_the_union() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        assert!(ov.contains(RelId(0), &t(&[1, 2])));
        assert!(ov.contains(RelId(1), &t(&[9])));
        assert!(!ov.contains(RelId(0), &t(&[9, 9])));
        assert_eq!(ov.rel_len(RelId(0)), 2);
        assert_eq!(ov.rel_len(RelId(1)), 1);
        assert_eq!(ov.materialize(), base.union(&delta).unwrap());
    }

    #[test]
    fn novelty_ignores_delta_tuples_already_in_base() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        let novel: Vec<RelId> = ov.novel_rels().collect();
        assert_eq!(novel, vec![RelId(1)]);
        let mut seen = Vec::new();
        ov.for_each_novel(RelId(0), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert!(seen.is_empty(), "(2,3) is already in the base");
        ov.for_each_novel(RelId(1), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert_eq!(seen, vec![t(&[9])]);
    }

    #[test]
    fn buffered_delta_views_like_the_database_delta() {
        let (base, delta) = two_rel();
        let mut buf = DeltaBuf::new(2);
        for (rel, t) in delta
            .iter()
            .flat_map(|(r, i)| i.iter().map(move |t| (r, t)))
        {
            buf.insert_with(rel, t.arity(), |i| t.get(i));
        }
        let by_db = Overlay::new(&base, &delta).unwrap();
        let by_buf = Overlay::over_buf(&base, &mut buf).unwrap();
        assert_eq!(by_buf.materialize(), by_db.materialize());
        assert_eq!(
            by_buf.novel_rels().collect::<Vec<_>>(),
            by_db.novel_rels().collect::<Vec<_>>()
        );
        for rel in [RelId(0), RelId(1)] {
            assert_eq!(by_buf.rel_len(rel), by_db.rel_len(rel));
            assert!(by_buf.contains(rel, &t(&[9])) == by_db.contains(rel, &t(&[9])));
        }
        assert!(Overlay::over_buf(&base, &mut DeltaBuf::new(3)).is_err());
    }

    #[test]
    fn mismatched_relation_counts_rejected() {
        let base = Database::with_relations(1);
        let delta = Database::with_relations(2);
        assert!(Overlay::new(&base, &delta).is_err());
        let del1 = Database::with_relations(1);
        let del2 = Database::with_relations(2);
        let delta1 = Database::with_relations(1);
        assert!(Overlay::with_deletes(&base, &delta1, &del2).is_err());
        assert!(Overlay::with_deletes(&base, &delta1, &del1).is_ok());
    }

    #[test]
    fn active_domain_unions_both_sides() {
        let (base, delta) = two_rel();
        let ov = Overlay::new(&base, &delta).unwrap();
        let mut dom = BTreeSet::new();
        ov.active_domain_into(&mut dom);
        assert_eq!(
            dom,
            [1, 2, 3, 9]
                .into_iter()
                .map(Value::int)
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn tombstones_remove_base_tuples_from_the_view() {
        let (base, delta) = two_rel();
        let mut deletes = Database::with_relations(2);
        deletes.insert(RelId(0), t(&[1, 2]));
        deletes.insert(RelId(0), t(&[7, 7])); // not in base: harmless
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        assert!(!ov.contains(RelId(0), &t(&[1, 2])));
        assert!(ov.contains(RelId(0), &t(&[2, 3])));
        assert_eq!(ov.rel_len(RelId(0)), 1);
        let mut expected = Database::with_relations(2);
        expected.insert(RelId(0), t(&[2, 3]));
        expected.insert(RelId(1), t(&[9]));
        assert_eq!(ov.materialize(), expected);
    }

    #[test]
    fn deleted_then_reinserted_tuple_is_present_and_novel() {
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1]));
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[1]));
        let mut delta = Database::with_relations(1);
        delta.insert(RelId(0), t(&[1]));
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        assert!(ov.contains(RelId(0), &t(&[1])));
        assert_eq!(ov.rel_len(RelId(0)), 1);
        // The base copy is dead, so the delta copy is the live one — novel.
        let novel: Vec<RelId> = ov.novel_rels().collect();
        assert_eq!(novel, vec![RelId(0)]);
        let mut seen = Vec::new();
        ov.for_each_novel(RelId(0), &mut |t| {
            seen.push(t.clone());
            true
        });
        assert_eq!(seen, vec![t(&[1])]);
    }

    #[test]
    fn tombstoned_only_constants_leave_the_active_domain() {
        // Regression: the base's *cached* active domain still contains 5;
        // the overlay must rescan, not trust the cache.
        let mut base = Database::with_relations(1);
        base.insert(RelId(0), t(&[1, 2]));
        base.insert(RelId(0), t(&[5, 2]));
        let _warm = base.active_domain(); // populate the cache
        let mut deletes = Database::with_relations(1);
        deletes.insert(RelId(0), t(&[5, 2]));
        let delta = Database::with_relations(1);
        let ov = Overlay::with_deletes(&base, &delta, &deletes).unwrap();
        let mut dom = BTreeSet::new();
        ov.active_domain_into(&mut dom);
        assert_eq!(
            dom,
            [1, 2].into_iter().map(Value::int).collect::<BTreeSet<_>>(),
            "constant 5 survives only in a tombstoned tuple"
        );
    }
}
