//! Enumeration of *valid valuations* (Section 3.2).
//!
//! A valuation `μ` of the tableau variables is valid when (a) each variable
//! draws from its active domain — the full finite domain `d_f` for
//! finite-domain variables, `Adom` (constants + `New`) otherwise — and (b)
//! `Q(μ(T_Q)) ≠ ∅`, which for CQ means exactly that the inequalities of the
//! tableau hold under `μ`.
//!
//! The enumerator walks variables in an order that puts head variables first
//! (so callers can prune whole subtrees once the candidate output tuple is
//! known to already be in `Q(D)`), checks inequalities as soon as both sides
//! are bound, and breaks the symmetry of the fresh pool: fresh value `k+1` is
//! only tried after fresh values `0..k` are in use. Symmetry breaking is
//! sound because no input mentions a fresh value, so every predicate the
//! deciders evaluate is invariant under permutations of the pool.

use crate::adom::Adom;
use crate::budget::Meter;
use ric_data::{RelId, Schema, Value};
use ric_query::tableau::{Tableau, Valuation};
use ric_query::Term;
use ric_telemetry::Probe;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Number of per-depth profile slots; work at deeper assignment depths is
/// clamped into the last slot.
pub const PROFILE_DEPTH: usize = 16;

/// Stable counter names for candidates tried per assignment depth (slot 15
/// absorbs all deeper work). Telemetry names are `&'static str`, so the
/// depth-indexed families are spelled out once here.
pub const DEPTH_CANDIDATES: [&str; PROFILE_DEPTH] = [
    "depth.candidates.00",
    "depth.candidates.01",
    "depth.candidates.02",
    "depth.candidates.03",
    "depth.candidates.04",
    "depth.candidates.05",
    "depth.candidates.06",
    "depth.candidates.07",
    "depth.candidates.08",
    "depth.candidates.09",
    "depth.candidates.10",
    "depth.candidates.11",
    "depth.candidates.12",
    "depth.candidates.13",
    "depth.candidates.14",
    "depth.candidates.15",
];

/// Stable counter names for subtrees pruned per assignment depth (inequality
/// inconsistency or a failed partial filter at that depth).
pub const DEPTH_PRUNED: [&str; PROFILE_DEPTH] = [
    "depth.pruned.00",
    "depth.pruned.01",
    "depth.pruned.02",
    "depth.pruned.03",
    "depth.pruned.04",
    "depth.pruned.05",
    "depth.pruned.06",
    "depth.pruned.07",
    "depth.pruned.08",
    "depth.pruned.09",
    "depth.pruned.10",
    "depth.pruned.11",
    "depth.pruned.12",
    "depth.pruned.13",
    "depth.pruned.14",
    "depth.pruned.15",
];

/// A per-run search profile: candidates tried and subtrees pruned at each
/// assignment depth, plus whole-subtree head-filter prunes. `Cell`-based so
/// the recursive enumerator and the caller's closures can share one profile
/// without threading `&mut` through the recursion.
#[derive(Default, Debug)]
pub struct DepthProfile {
    candidates: [Cell<u64>; PROFILE_DEPTH],
    pruned: [Cell<u64>; PROFILE_DEPTH],
    head_prunes: Cell<u64>,
}

impl DepthProfile {
    /// An empty profile.
    pub fn new() -> Self {
        DepthProfile::default()
    }

    fn candidate(&self, depth: usize) {
        let c = &self.candidates[depth.min(PROFILE_DEPTH - 1)];
        c.set(c.get() + 1);
    }

    fn prune(&self, depth: usize) {
        let c = &self.pruned[depth.min(PROFILE_DEPTH - 1)];
        c.set(c.get() + 1);
    }

    fn head_prune(&self) {
        self.head_prunes.set(self.head_prunes.get() + 1);
    }

    /// Candidates tried per depth slot.
    pub fn candidates(&self) -> [u64; PROFILE_DEPTH] {
        std::array::from_fn(|i| self.candidates[i].get())
    }

    /// Subtrees pruned per depth slot.
    pub fn pruned(&self) -> [u64; PROFILE_DEPTH] {
        std::array::from_fn(|i| self.pruned[i].get())
    }

    /// Subtrees pruned by the head filter (candidate answer already present).
    pub fn head_prunes(&self) -> u64 {
        self.head_prunes.get()
    }

    /// The deepest slot at which any candidate was tried, if any.
    pub fn max_depth(&self) -> Option<usize> {
        (0..PROFILE_DEPTH)
            .rev()
            .find(|&i| self.candidates[i].get() > 0)
    }
}

/// Emit a per-depth profile to `probe` under the stable
/// [`DEPTH_CANDIDATES`] / [`DEPTH_PRUNED`] / `prune.head` names. Zero deltas
/// are dropped by the probe, so quiet depths add no events.
pub fn emit_profile(
    probe: Probe<'_>,
    candidates: &[u64; PROFILE_DEPTH],
    pruned: &[u64; PROFILE_DEPTH],
    head_prunes: u64,
) {
    for (name, &v) in DEPTH_CANDIDATES.iter().zip(candidates) {
        probe.count(name, v);
    }
    for (name, &v) in DEPTH_PRUNED.iter().zip(pruned) {
        probe.count(name, v);
    }
    probe.count("prune.head", head_prunes);
}

/// How an enumeration run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnumOutcome {
    /// Every valid valuation was visited.
    Exhausted,
    /// A callback broke out early.
    Stopped,
    /// The meter ran out.
    BudgetExceeded,
}

/// Code of a variable that is not bound yet.
pub const UNBOUND: u32 = u32::MAX;

/// A tableau term encoded against a space's codes: a variable slot, or the
/// code of a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// The variable with this index.
    Var(u32),
    /// The constant with this code.
    Code(u32),
}

impl Slot {
    /// The code this term takes under `binding` ([`UNBOUND`] for an unbound
    /// variable).
    #[inline]
    pub fn code(self, binding: &[u32]) -> u32 {
        match self {
            Slot::Var(v) => binding[v as usize],
            Slot::Code(c) => c,
        }
    }
}

/// A depth-0 candidate — the unit the parallel scheduler shards on — as its
/// code and the fresh-pool usage after choosing it.
pub type SplitPoint = (u32, usize);

/// What the enumerator asks of its caller during a search. `binding[v]` is
/// the code of variable `v`, or [`UNBOUND`]; [`ValuationSpace::value`]
/// decodes a code.
pub trait Candidates {
    /// Called once all head variables are bound; `false` prunes the subtree.
    fn head(&mut self, _space: &ValuationSpace<'_>, _binding: &[u32]) -> bool {
        true
    }

    /// Called after every consistent binding step; `false` prunes the
    /// subtree. Sound for any property that is *anti-monotone in the
    /// instantiated tuples* — in particular "the tuples instantiated so far
    /// do not yet violate `V`": constraint bodies are monotone, so a partial
    /// violation persists in every completion (the pruning the Σᵖ₂
    /// reduction instances of Theorem 3.6 rely on to stay tractable).
    fn partial(&mut self, _space: &ValuationSpace<'_>, _binding: &[u32]) -> bool {
        true
    }

    /// Called for each valid valuation; `Break` stops the run.
    fn leaf(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> ControlFlow<()>;
}

/// A closure is a visitor of the valid valuations alone.
impl<F: FnMut(&ValuationSpace<'_>, &[u32]) -> ControlFlow<()>> Candidates for F {
    fn leaf(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> ControlFlow<()> {
        self(space, binding)
    }
}

/// Candidate codes for one variable.
#[derive(Clone, Debug)]
enum Cands {
    /// A finite-domain variable: exactly these codes.
    Finite(Vec<u32>),
    /// An infinite-domain variable: the shared constants plus the
    /// (symmetry-broken) fresh pool.
    Infinite,
}

/// A prepared enumeration over the valid valuations of one tableau.
///
/// The search runs on dense `u32` codes: codes `0..c` are the Adom
/// constants in order, `c..c + f` the fresh pool, and any further codes
/// values only a finite domain or the tableau itself mentions. Equal values
/// get equal codes, so the inequality checks compare integers, and a
/// candidate step writes one `u32` — no value is cloned or dropped until a
/// caller decodes one.
pub struct ValuationSpace<'a> {
    adom: &'a Adom,
    /// Values beyond the Adom, coded from `adom.len()` up.
    extra: Vec<Value>,
    n_vars: usize,
    cands: Vec<Cands>,
    /// Variable assignment order; head variables first.
    order: Vec<u32>,
    /// How many leading entries of `order` are head variables.
    head_prefix: usize,
    atoms: Vec<(RelId, Box<[Slot]>)>,
    head: Box<[Slot]>,
    neqs: Box<[(Slot, Slot)]>,
}

impl<'a> ValuationSpace<'a> {
    /// Prepare the space for `tableau` over `adom`, reading per-variable
    /// domains from `schema`.
    pub fn new(tableau: &Tableau, schema: &Schema, adom: &'a Adom) -> Self {
        let mut extra: Vec<Value> = Vec::new();
        let mut encode = |v: &Value| -> u32 {
            let code = match adom.constants.iter().position(|c| c == v) {
                Some(i) => i,
                None => match adom.fresh.iter().position(|c| c == v) {
                    Some(i) => adom.constants.len() + i,
                    None => {
                        let i = extra.iter().position(|c| c == v).unwrap_or_else(|| {
                            extra.push(v.clone());
                            extra.len() - 1
                        });
                        adom.len() + i
                    }
                },
            };
            u32::try_from(code).unwrap_or_else(|_| unreachable!("domains fit u32 codes"))
        };
        let cands = tableau
            .var_domains(schema)
            .into_iter()
            .map(|d| match d {
                Some(set) => Cands::Finite(set.iter().map(&mut encode).collect()),
                None => Cands::Infinite,
            })
            .collect();
        let mut slot = |t: &Term| match t {
            Term::Var(v) => Slot::Var(v.0),
            Term::Const(c) => Slot::Code(encode(c)),
        };
        let atoms = tableau
            .atoms
            .iter()
            .map(|a| (a.rel, a.args.iter().map(&mut slot).collect()))
            .collect();
        let head = tableau.head.iter().map(&mut slot).collect();
        let neqs = tableau
            .neqs
            .iter()
            .map(|(l, r)| (slot(l), slot(r)))
            .collect();
        // Head variables first, then the rest in index order.
        let head_vars: BTreeSet<u32> = tableau.head_vars().iter().map(|v| v.0).collect();
        let mut order: Vec<u32> = head_vars.iter().copied().collect();
        order.extend((0..tableau.n_vars).filter(|v| !head_vars.contains(v)));
        ValuationSpace {
            adom,
            extra,
            n_vars: tableau.n_vars as usize,
            cands,
            order,
            head_prefix: head_vars.len(),
            atoms,
            head,
            neqs,
        }
    }

    /// The value behind a code.
    #[inline]
    pub fn value(&self, code: u32) -> &Value {
        let c = code as usize;
        let n_const = self.adom.constants.len();
        if c < n_const {
            &self.adom.constants[c]
        } else if c < self.adom.len() {
            &self.adom.fresh[c - n_const]
        } else {
            &self.extra[c - self.adom.len()]
        }
    }

    /// The value a term takes under `binding` (its variable must be bound).
    #[inline]
    pub fn slot_value(&self, slot: Slot, binding: &[u32]) -> &Value {
        self.value(slot.code(binding))
    }

    /// The tableau atoms, encoded, in tableau order.
    pub fn atoms(&self) -> &[(RelId, Box<[Slot]>)] {
        &self.atoms
    }

    /// The summary (head) terms, encoded.
    pub fn head(&self) -> &[Slot] {
        &self.head
    }

    /// Decode a complete binding — the API edge (witnesses, tests).
    pub fn valuation(&self, binding: &[u32]) -> Valuation {
        Valuation(binding.iter().map(|&c| self.value(c).clone()).collect())
    }

    /// Enumerate the valid valuations, the whole space (`start: None`) or
    /// the subtree of one depth-0 candidate returned by
    /// [`Self::split_points`], accumulating per-depth statistics into
    /// `profile`. `meter` ticks once per assignment tried; exhaustion
    /// aborts. Inequalities are checked as soon as both sides are bound.
    ///
    /// A chunk ticks once for its candidate and once per deeper assignment,
    /// so the chunks' ticks sum to the whole run's, and concatenating the
    /// chunks in `split_points` order visits valuations in exactly the
    /// whole run's order. The per-chunk profiles sum to the whole run's,
    /// with one deliberate exception: with no head variables each chunk
    /// re-checks the head filter (sound: it is pure in the all-unbound
    /// binding) without counting a head prune, so such a prune at depth 0
    /// is attributed once by the whole run and not at all by the chunks.
    pub fn enumerate<C: Candidates>(
        &self,
        profile: &DepthProfile,
        start: Option<SplitPoint>,
        meter: &mut Meter<'_>,
        c: &mut C,
    ) -> EnumOutcome {
        let mut binding = vec![UNBOUND; self.n_vars];
        match start {
            None => self.rec(0, 0, &mut binding, profile, meter, c),
            Some((code, next_fresh)) => {
                if self.head_prefix == 0 && !c.head(self, &binding) {
                    return EnumOutcome::Exhausted;
                }
                let var = self.order[0] as usize;
                self.assign(0, var, code, next_fresh, &mut binding, profile, meter, c)
            }
        }
    }

    /// [`Self::enumerate`] over the whole space, reporting the run to
    /// `probe`: the assignments tried (metered ticks) as
    /// `valuations.assignments`, the wall time as the `valuations.enumerate`
    /// span, per-depth candidate and prune counters under the
    /// [`DEPTH_CANDIDATES`] / [`DEPTH_PRUNED`] families, head-filter prunes
    /// as `prune.head`, and the deepest depth reached as the
    /// `valuations.max_depth` gauge.
    pub fn enumerate_probed<C: Candidates>(
        &self,
        probe: Probe<'_>,
        meter: &mut Meter<'_>,
        c: &mut C,
    ) -> EnumOutcome {
        let before = meter.used();
        let profile = DepthProfile::default();
        let span = probe.span("valuations.enumerate");
        let outcome = self.enumerate(&profile, None, meter, c);
        drop(span);
        probe.count("valuations.assignments", meter.used() - before);
        emit_profile(
            probe,
            &profile.candidates(),
            &profile.pruned(),
            profile.head_prunes(),
        );
        if let Some(d) = profile.max_depth() {
            probe.gauge("valuations.max_depth", d as u64 + 1);
        }
        outcome
    }

    /// The depth-0 candidates of this space — the chunk boundaries the
    /// parallel scheduler shards on — in the order the whole run tries them
    /// (constants first, then the single symmetry-broken fresh
    /// representative). `None` when the space has no variables: the single
    /// empty valuation is unsplittable.
    pub fn split_points(&self) -> Option<Vec<SplitPoint>> {
        let var = *self.order.first()? as usize;
        Some(match &self.cands[var] {
            Cands::Finite(codes) => codes.iter().map(|&c| (c, 0)).collect(),
            Cands::Infinite => {
                let n_const = self.adom.constants.len() as u32;
                let mut out: Vec<SplitPoint> = (0..n_const).map(|c| (c, 0)).collect();
                // At depth 0 no fresh value is in use yet, so the symmetry
                // break admits exactly the first pool value.
                if !self.adom.fresh.is_empty() {
                    out.push((n_const, 1));
                }
                out
            }
        })
    }

    fn rec<C: Candidates>(
        &self,
        depth: usize,
        fresh_used: usize,
        binding: &mut [u32],
        profile: &DepthProfile,
        meter: &mut Meter<'_>,
        c: &mut C,
    ) -> EnumOutcome {
        if depth == self.head_prefix && !c.head(self, binding) {
            profile.head_prune();
            return EnumOutcome::Exhausted; // pruned subtree, not a stop
        }
        if depth == self.order.len() {
            return match c.leaf(self, binding) {
                ControlFlow::Continue(()) => EnumOutcome::Exhausted,
                ControlFlow::Break(()) => EnumOutcome::Stopped,
            };
        }
        let var = self.order[depth] as usize;
        let mut try_code = |code: u32, next_fresh: usize, binding: &mut [u32]| {
            self.assign(depth, var, code, next_fresh, binding, profile, meter, c)
        };
        match &self.cands[var] {
            Cands::Finite(codes) => {
                for &code in codes {
                    match try_code(code, fresh_used, binding) {
                        EnumOutcome::Exhausted => {}
                        other => return other,
                    }
                }
            }
            Cands::Infinite => {
                let n_const = self.adom.constants.len();
                for code in 0..n_const {
                    match try_code(code as u32, fresh_used, binding) {
                        EnumOutcome::Exhausted => {}
                        other => return other,
                    }
                }
                // Symmetry-broken fresh pool: reuse any fresh value already
                // in use, or introduce exactly the next unused one.
                let limit = (fresh_used + 1).min(self.adom.fresh.len());
                for i in 0..limit {
                    let next = if i == fresh_used {
                        fresh_used + 1
                    } else {
                        fresh_used
                    };
                    match try_code((n_const + i) as u32, next, binding) {
                        EnumOutcome::Exhausted => {}
                        other => return other,
                    }
                }
            }
        }
        EnumOutcome::Exhausted
    }

    /// Try `var = code` at `depth`: tick, profile, check, recurse, unbind.
    #[allow(clippy::too_many_arguments)]
    fn assign<C: Candidates>(
        &self,
        depth: usize,
        var: usize,
        code: u32,
        next_fresh: usize,
        binding: &mut [u32],
        profile: &DepthProfile,
        meter: &mut Meter<'_>,
        c: &mut C,
    ) -> EnumOutcome {
        if !meter.tick() {
            return EnumOutcome::BudgetExceeded;
        }
        profile.candidate(depth);
        binding[var] = code;
        let outcome = if self.neqs_consistent(binding) && c.partial(self, binding) {
            self.rec(depth + 1, next_fresh, binding, profile, meter, c)
        } else {
            profile.prune(depth);
            EnumOutcome::Exhausted
        };
        binding[var] = UNBOUND;
        outcome
    }

    /// Are the tableau inequalities consistent with the partial binding?
    fn neqs_consistent(&self, binding: &[u32]) -> bool {
        self.neqs.iter().all(|&(l, r)| {
            let (a, b) = (l.code(binding), r.code(binding));
            a == UNBOUND || b == UNBOUND || a != b
        })
    }
}

/// Instantiate every atom of a tableau under a total assignment, returning
/// `(relation, tuple)` pairs (used by the fresh-escape emptiness test).
pub fn materialize(
    t: &Tableau,
    assignment: &[Option<Value>],
) -> Vec<(ric_data::RelId, ric_data::Tuple)> {
    t.atoms
        .iter()
        .map(|atom| {
            let tuple = ric_data::Tuple::new(atom.args.iter().map(|term| {
                match term {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => assignment[v.idx()]
                        .clone()
                        .unwrap_or_else(|| unreachable!("total assignment")),
                }
            }));
            (atom.rel, tuple)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{Attribute, Database, RelationSchema};
    use ric_query::{parse_cq, Cq};

    fn boolean_schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![Attribute::boolean("x"), Attribute::new("y")],
        )])
        .unwrap()
    }

    /// Visit every valid valuation with a pruning head filter.
    struct HeadFiltered<H, V>(H, V);

    impl<H, V> Candidates for HeadFiltered<H, V>
    where
        H: FnMut(&[u32]) -> bool,
        V: FnMut(&ValuationSpace<'_>, &[u32]) -> ControlFlow<()>,
    {
        fn head(&mut self, _: &ValuationSpace<'_>, binding: &[u32]) -> bool {
            (self.0)(binding)
        }

        fn leaf(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> ControlFlow<()> {
            (self.1)(space, binding)
        }
    }

    fn run(
        space: &ValuationSpace<'_>,
        meter: &mut Meter<'_>,
        mut visit: impl FnMut(&ValuationSpace<'_>, &[u32]) -> ControlFlow<()>,
    ) -> EnumOutcome {
        space.enumerate(&DepthProfile::new(), None, meter, &mut visit)
    }

    fn adom_for(schema: &Schema, q: &Cq, n_fresh: usize) -> Adom {
        let setting = crate::Setting::open_world(schema.clone());
        let db = Database::empty(schema);
        Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), n_fresh)
    }

    #[test]
    fn finite_vars_range_over_their_domain() {
        let s = boolean_schema();
        let q = parse_cq(&s, "Q(X) :- B(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 2);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut seen = Vec::new();
        let mut meter = Meter::new(1_000_000);
        let out = run(&space, &mut meter, |space, b| {
            seen.push(space.valuation(b));
            ControlFlow::Continue(())
        });
        assert_eq!(out, EnumOutcome::Exhausted);
        // X ∈ {0,1}; Y infinite: constants ∅ (no db constants) + fresh pool
        // symmetry-broken to exactly 1 representative.
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn symmetry_breaking_collapses_fresh_permutations() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y), X != Y.").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut count = 0;
        let mut meter = Meter::new(1_000_000);
        run(&space, &mut meter, |_, _| {
            count += 1;
            ControlFlow::Continue(())
        });
        // With no constants, the only canonical valuation is
        // (fresh0, fresh1): fresh0=fresh1 violates X≠Y, permutations are
        // broken, and fresh2 can never be introduced before fresh1.
        assert_eq!(count, 1);
    }

    #[test]
    fn head_filter_prunes() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 2);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut visited = 0;
        let mut meter = Meter::new(1_000_000);
        let mut prune_all = HeadFiltered(
            |_: &[u32]| false, // prune everything
            |_: &ValuationSpace<'_>, _: &[u32]| {
                visited += 1;
                ControlFlow::Continue(())
            },
        );
        let out = space.enumerate(&DepthProfile::new(), None, &mut meter, &mut prune_all);
        assert_eq!(out, EnumOutcome::Exhausted);
        assert_eq!(visited, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut meter = Meter::new(1);
        let out = run(&space, &mut meter, |_, _| ControlFlow::Continue(()));
        assert_eq!(out, EnumOutcome::BudgetExceeded);
    }

    #[test]
    fn early_stop_reported() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X, Y) :- R(X, Y).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 3);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut meter = Meter::new(1_000_000);
        let out = run(&space, &mut meter, |_, _| ControlFlow::Break(()));
        assert_eq!(out, EnumOutcome::Stopped);
    }

    #[test]
    fn chunk_concatenation_matches_sequential_enumeration() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b"])]).unwrap();
        let q = parse_cq(&s, "Q(X) :- R(X, Y), X != Y.").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let setting = crate::Setting::open_world(s.clone());
        let mut db = Database::empty(&s);
        let r = s.rel_id("R").unwrap();
        db.insert(r, ric_data::Tuple::new([Value::int(1), Value::int(2)]));
        let adom = Adom::build(&db, &setting, &crate::Query::Cq(q.clone()), 2);
        let space = ValuationSpace::new(&t, &s, &adom);

        let mut sequential = Vec::new();
        let mut seq_meter = Meter::new(1_000_000);
        let out = run(&space, &mut seq_meter, |space, b| {
            sequential.push(space.valuation(b));
            ControlFlow::Continue(())
        });
        assert_eq!(out, EnumOutcome::Exhausted);
        assert!(!sequential.is_empty());

        let mut chunked = Vec::new();
        let mut chunk_ticks = 0;
        let points = space.split_points().expect("space has variables");
        assert!(points.len() > 1, "multiple chunks exercise the split");
        for point in points {
            let mut meter = Meter::new(1_000_000);
            let mut visit = |space: &ValuationSpace<'_>, b: &[u32]| {
                chunked.push(space.valuation(b));
                ControlFlow::Continue(())
            };
            let out = space.enumerate(&DepthProfile::new(), Some(point), &mut meter, &mut visit);
            assert_eq!(out, EnumOutcome::Exhausted);
            chunk_ticks += meter.used();
        }
        assert_eq!(chunked, sequential, "same valuations in the same order");
        assert_eq!(chunk_ticks, seq_meter.used(), "same metered work");
    }

    #[test]
    fn zero_variable_tableau_yields_unit_valuation() {
        let s = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let q = parse_cq(&s, "Q() :- R(5).").unwrap();
        let t = ric_query::Tableau::of(&q).unwrap();
        let adom = adom_for(&s, &q, 1);
        let space = ValuationSpace::new(&t, &s, &adom);
        let mut seen = 0;
        let mut meter = Meter::new(10);
        let out = run(&space, &mut meter, |_, b| {
            assert!(b.is_empty());
            seen += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(out, EnumOutcome::Exhausted);
        assert_eq!(seen, 1);
    }
}
