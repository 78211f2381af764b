//! Plan executors: run a [`PreparedPlan`] / [`DeltaPlans`] against any
//! [`TupleStore`].
//!
//! The executor is a direct loop over the compiled step list: each step
//! either scans its relation or probes the pre-resolved column, matches the
//! tuple against the step's arena'd column `Action`s (constants, equality
//! checks against bound slots, fresh binds), runs the inequality checks
//! pinned to this step, and recurses. A variable slot holds a *reference* to
//! the field that bound it — the store lends its tuples for as long as it is
//! borrowed — so binding, probing on a bound key, and undoing cost no clone
//! and no reference-count traffic. The slots live in a fixed-capacity array
//! on the stack ([`INLINE_VARS`]); only wider bodies use a heap vector. A
//! candidate tuple that fails mid-match undoes exactly the binds it
//! performed (a second pass over the same action slice).
//!
//! Answer-set equality with the greedy evaluator is by construction: both
//! enumerate exactly the valuations satisfying every atom and inequality,
//! and answers land in a `BTreeSet`, so join order is unobservable.

use crate::planner::{Action, DeltaPlans, NeqCheck, PreparedPlan, ProbeChoice, Src};
use ric_data::{Overlay, Tuple, TupleStore, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Bodies with at most this many variables bind them in a stack array;
/// wider ones (rare) fall back to one heap vector per execution.
pub const INLINE_VARS: usize = 16;

/// A binding: per variable slot, the field that bound it.
type Binding<'s> = [Option<&'s Value>];

/// Run `f` over an all-unbound binding of `n` slots.
fn with_binding<'s, R>(n: usize, f: impl FnOnce(&mut Binding<'s>) -> R) -> R {
    if n <= INLINE_VARS {
        f(&mut [None; INLINE_VARS][..n])
    } else {
        f(&mut vec![None; n])
    }
}

fn src_value<'s>(s: &'s Src, binding: &Binding<'s>) -> &'s Value {
    match s {
        Src::Const(c) => c,
        Src::Var(v) => binding[*v as usize]
            .unwrap_or_else(|| unreachable!("planner pins checks after both sides are bound")),
    }
}

fn neqs_hold<'s>(checks: &'s [NeqCheck], binding: &Binding<'s>) -> bool {
    checks
        .iter()
        .all(|c| src_value(&c.l, binding) != src_value(&c.r, binding))
}

impl PreparedPlan {
    /// The head tuple of a complete binding.
    fn head_tuple<'s>(&'s self, binding: &Binding<'s>) -> Tuple {
        Tuple::new(self.head.iter().map(|s| src_value(s, binding).clone()))
    }

    /// Compare the head of a complete binding with `t`, in `Tuple` order,
    /// without building the head.
    fn cmp_head<'s>(&'s self, binding: &Binding<'s>, t: &Tuple) -> Ordering {
        self.head
            .iter()
            .map(|s| src_value(s, binding))
            .cmp(t.iter())
    }

    /// Match `tuple` against step `k`'s actions and pinned inequalities,
    /// recurse on success, and undo exactly the binds performed. Returns
    /// `false` iff the visitor below requested a stop.
    fn match_and_descend<'s, S: TupleStore>(
        &'s self,
        store: &'s S,
        k: usize,
        tuple: &'s Tuple,
        binding: &mut Binding<'s>,
        f: &mut dyn FnMut(&Binding<'s>) -> bool,
    ) -> bool {
        let step = &self.steps[k];
        let (start, len) = step.actions;
        let actions = &self.actions[start as usize..(start + len) as usize];
        if tuple.arity() != actions.len() {
            return true;
        }
        let mut bound = 0usize;
        let mut ok = true;
        for (col, act) in actions.iter().enumerate() {
            match act {
                Action::Const(c) => {
                    if tuple.get(col) != c {
                        ok = false;
                        break;
                    }
                }
                Action::Check(slot) => {
                    if binding[*slot as usize] != Some(tuple.get(col)) {
                        ok = false;
                        break;
                    }
                }
                Action::Bind(slot) => {
                    binding[*slot as usize] = Some(tuple.get(col));
                    bound += 1;
                }
            }
        }
        if ok {
            let (ns, nl) = step.neqs;
            ok = neqs_hold(&self.neqs[ns as usize..(ns + nl) as usize], binding);
        }
        let keep_going = if ok {
            self.step(store, k + 1, binding, f)
        } else {
            true
        };
        if bound > 0 {
            // Undo pass: reset the first `bound` Bind slots (actions execute
            // in column order, so these are exactly the binds performed).
            let mut undone = 0usize;
            for act in actions {
                if let Action::Bind(slot) = act {
                    binding[*slot as usize] = None;
                    undone += 1;
                    if undone == bound {
                        break;
                    }
                }
            }
        }
        keep_going
    }

    /// Execute from step `k` onward. Returns `false` iff `f` stopped early.
    fn step<'s, S: TupleStore>(
        &'s self,
        store: &'s S,
        k: usize,
        binding: &mut Binding<'s>,
        f: &mut dyn FnMut(&Binding<'s>) -> bool,
    ) -> bool {
        if k == self.steps.len() {
            return f(binding);
        }
        let step = &self.steps[k];
        // A bound key is a reference into a tuple the store lends, not a
        // borrow of the binding, so it needs no clone.
        let key: Option<(usize, &'s Value)> = match &step.probe {
            ProbeChoice::Scan => None,
            ProbeChoice::ConstKey { col, key } => Some((*col as usize, key)),
            ProbeChoice::VarKey { col, var } => Some((
                *col as usize,
                binding[*var as usize]
                    .unwrap_or_else(|| unreachable!("planner probes only earlier-bound slots")),
            )),
        };
        let mut visit = |t: &'s Tuple| self.match_and_descend(store, k, t, binding, f);
        match key {
            None => store.scan(step.rel, &mut visit),
            Some((col, key)) => store.probe(step.rel, col, key, &mut visit),
        }
    }

    /// Visit every answer (head tuple) of the plan over `store`; stop when
    /// `f` returns `false`. Returns `false` iff stopped early.
    pub fn for_each_answer<S: TupleStore>(
        &self,
        store: &S,
        f: &mut dyn FnMut(Tuple) -> bool,
    ) -> bool {
        debug_assert!(!self.pinned, "delta plans execute through DeltaPlans");
        with_binding(self.n_vars as usize, |binding| {
            self.step(store, 0, binding, &mut |b| f(self.head_tuple(b)))
        })
    }

    /// Evaluate the plan and insert every answer into `out`.
    pub fn eval_into<S: TupleStore>(&self, store: &S, out: &mut BTreeSet<Tuple>) {
        self.for_each_answer(store, &mut |t| {
            out.insert(t);
            true
        });
    }

    /// Boolean evaluation: does the plan produce at least one answer?
    pub fn holds<S: TupleStore>(&self, store: &S) -> bool {
        debug_assert!(!self.pinned, "delta plans execute through DeltaPlans");
        with_binding(self.n_vars as usize, |binding| {
            !self.step(store, 0, binding, &mut |_| false)
        })
    }

    /// Execute one pin plan over `ov`: step 0 iterates novel Δ-tuples, the
    /// remaining steps join over the full overlay. `f` sees each complete
    /// binding. Returns `false` iff `f` stopped early.
    fn for_each_delta_binding<'s>(
        &'s self,
        ov: &'s Overlay<'_>,
        f: &mut dyn FnMut(&Binding<'s>) -> bool,
    ) -> bool {
        debug_assert!(self.pinned, "not a delta pin plan");
        let Some(step0) = self.steps.first() else {
            return true; // atomless: no pins, nothing novel to derive.
        };
        with_binding(self.n_vars as usize, |binding| {
            ov.for_each_novel(step0.rel, &mut |t| {
                self.match_and_descend(ov, 0, t, binding, f)
            })
        })
    }
}

impl DeltaPlans {
    /// Every answer derivable *using at least one novel Δ-tuple* — the
    /// compiled mirror of `eval_tableau_delta` — inserted into `out`.
    pub fn eval_delta_into(&self, ov: &Overlay<'_>, out: &mut BTreeSet<Tuple>) {
        for plan in self.pins.iter() {
            plan.for_each_delta_binding(ov, &mut |b| {
                out.insert(plan.head_tuple(b));
                true
            });
        }
    }

    /// Are all Δ-derived answers contained in `rhs`, a sorted and distinct
    /// tuple list? Exits on the first answer outside `rhs` without building
    /// the answer set or any answer tuple: each answer's head is compared
    /// in place by binary search, and with an empty `rhs` (a denial, FD or
    /// CFD body) the first answer is already the violation — the decider
    /// hot path for containment-constraint bodies.
    pub fn delta_answers_within(&self, ov: &Overlay<'_>, rhs: &[Tuple]) -> bool {
        debug_assert!(rhs.windows(2).all(|w| w[0] < w[1]), "rhs sorted, distinct");
        self.pins.iter().all(|plan| {
            plan.for_each_delta_binding(ov, &mut |b| {
                rhs.binary_search_by(|t| plan.cmp_head(b, t).reverse())
                    .is_ok()
            })
        })
    }
}
