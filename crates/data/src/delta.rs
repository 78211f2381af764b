//! [`DeltaBuf`] — a small, reusable candidate delta `Δ`.
//!
//! The deciders check one candidate extension `D ∪ Δ` per valuation, where
//! `Δ` is a handful of instantiated tableau atoms. Building `Δ` as a
//! [`Database`] costs a `BTreeSet` node and a boxed tuple per atom, per
//! candidate. A `DeltaBuf` keeps its tuple slots across candidates and
//! overwrites their fields in place, so a steady-state candidate allocates
//! nothing.
//!
//! The live tuples are kept sorted by `(relation, tuple)` and distinct — the
//! order in which a `Database` would iterate the same set — so every
//! consumer visits them exactly as it visited the scratch `Database` the
//! buffer replaces. [`Overlay::over_buf`](crate::Overlay::over_buf) marks
//! which live tuples are novel with respect to a base, once per candidate.

use crate::database::{Database, Tuple};
use crate::schema::RelId;
use crate::value::Value;
use std::cmp::Ordering;

/// A reusable delta: a short list of distinct `(relation, tuple)` pairs in
/// `Database` iteration order, backed by slots that outlive [`Self::clear`].
#[derive(Debug, Default)]
pub struct DeltaBuf {
    n_rels: usize,
    /// `slots[..len]` are live, sorted and distinct; the rest are spare
    /// tuples kept for their allocations.
    slots: Vec<(RelId, Tuple)>,
    len: usize,
    /// Per live slot: is the tuple absent from the overlay's live base? Set by
    /// `Overlay::over_buf`.
    pub(crate) novel: Vec<bool>,
}

impl DeltaBuf {
    /// An empty delta over a schema with `n_rels` relations.
    pub fn new(n_rels: usize) -> Self {
        DeltaBuf {
            n_rels,
            ..DeltaBuf::default()
        }
    }

    /// Number of relations of the schema the delta ranges over.
    pub fn rel_count(&self) -> usize {
        self.n_rels
    }

    /// Drop every live tuple, keeping the slots for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of live (distinct) tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the delta empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert the tuple of `rel` whose field `i` is `field(i)`, for
    /// `i < arity`, keeping set semantics. Returns whether it was new. Reuses
    /// a spare slot of the same arity when one exists, and clones a field
    /// only when it differs from what the slot already holds — consecutive
    /// candidates mostly share fields, and an unchanged interned string
    /// costs a pointer comparison instead of two reference-count updates.
    pub fn insert_with<'v>(
        &mut self,
        rel: RelId,
        arity: usize,
        mut field: impl FnMut(usize) -> &'v Value,
    ) -> bool {
        let spare = (self.len..self.slots.len()).find(|&i| self.slots[i].1.arity() == arity);
        match spare {
            Some(i) => self.slots.swap(self.len, i),
            None => {
                self.slots
                    .push((rel, Tuple::new((0..arity).map(|_| Value::Int(0)))));
                let last = self.slots.len() - 1;
                self.slots.swap(self.len, last);
            }
        }
        let slot = &mut self.slots[self.len];
        slot.0 = rel;
        for (i, f) in slot.1 .0.iter_mut().enumerate() {
            let v = field(i);
            if f != v {
                *f = v.clone();
            }
        }
        // Insertion sort from the back: deltas hold a handful of tuples.
        let mut pos = self.len;
        while pos > 0 {
            match cmp_entry(&self.slots[pos - 1], &self.slots[self.len]) {
                Ordering::Less => break,
                Ordering::Equal => return false,
                Ordering::Greater => pos -= 1,
            }
        }
        self.slots[pos..=self.len].rotate_right(1);
        self.len += 1;
        true
    }

    /// The live tuples, in `(relation, tuple)` order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.slots[..self.len].iter().map(|(r, t)| (*r, t))
    }

    /// The live tuples of `rel` with their positions (the novelty index).
    pub(crate) fn rel_entries(&self, rel: RelId) -> impl Iterator<Item = (usize, &Tuple)> {
        self.slots[..self.len]
            .iter()
            .enumerate()
            .filter(move |(_, (r, _))| *r == rel)
            .map(|(i, (_, t))| (i, t))
    }

    /// Membership.
    pub fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        self.rel_entries(rel).any(|(_, u)| u == t)
    }

    /// The live tuples as an owned database — the API edge (counterexamples,
    /// engines that materialize).
    pub fn to_database(&self) -> Database {
        let mut db = Database::with_relations(self.n_rels);
        for (rel, t) in self.iter() {
            db.insert(rel, t.clone());
        }
        db
    }
}

fn cmp_entry(a: &(RelId, Tuple), b: &(RelId, Tuple)) -> Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(buf: &mut DeltaBuf, rel: usize, vs: &[i64]) -> bool {
        let vs: Vec<Value> = vs.iter().map(|&v| Value::int(v)).collect();
        buf.insert_with(RelId(rel), vs.len(), |i| &vs[i])
    }

    #[test]
    fn iterates_like_the_equivalent_database() {
        let mut buf = DeltaBuf::new(2);
        let mut db = Database::with_relations(2);
        for (rel, vs) in [
            (1, [5, 1]),
            (0, [3, 4]),
            (0, [1, 9]),
            (1, [5, 1]),
            (0, [3, 4]),
        ] {
            let fresh = fill(&mut buf, rel, &vs);
            assert_eq!(fresh, db.insert(RelId(rel), Tuple::new(vs.map(Value::int))));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.to_database(), db);
        let order: Vec<(RelId, Tuple)> = buf.iter().map(|(r, t)| (r, t.clone())).collect();
        let expected: Vec<(RelId, Tuple)> = db
            .iter()
            .flat_map(|(r, inst)| inst.iter().map(move |t| (r, t.clone())))
            .collect();
        assert_eq!(order, expected);
        assert!(buf.contains(RelId(0), &Tuple::new([Value::int(1), Value::int(9)])));
        assert!(!buf.contains(RelId(1), &Tuple::new([Value::int(1), Value::int(9)])));
    }

    #[test]
    fn cleared_slots_are_reused_across_arities() {
        let mut buf = DeltaBuf::new(2);
        fill(&mut buf, 0, &[1, 2]);
        fill(&mut buf, 1, &[7]);
        buf.clear();
        assert!(buf.is_empty());
        // Reversed insertion order still finds a same-arity spare for each.
        fill(&mut buf, 1, &[8]);
        fill(&mut buf, 0, &[3, 4]);
        assert_eq!(buf.slots.len(), 2, "no new slot once both arities exist");
        let order: Vec<RelId> = buf.iter().map(|(r, _)| r).collect();
        assert_eq!(order, vec![RelId(0), RelId(1)]);
    }
}
