//! Datalog (the paper's FP, Section 2.1(f)): positive rules with `=` and `≠`,
//! evaluated with an inflationary (semi-naive) fixpoint.
//!
//! FP sits on the undecidable side of Tables I and II; like FO it is needed
//! here so the bounded semi-decision procedures can evaluate FP queries (e.g.
//! the transitive-closure query `Q_3` of Example 1.1 and the 2-head-DFA
//! reachability query of Theorem 3.1(3)).

use crate::cq::Atom;
use crate::term::{Term, Var};
use ric_data::index::FxHasher;
use ric_data::{Instance, Tuple, TupleStore, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies an IDB predicate within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredId(pub usize);

/// A body literal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Literal {
    /// An EDB atom over the database schema.
    Edb(Atom),
    /// An IDB atom over a program predicate.
    Idb(PredId, Vec<Term>),
    /// Equality.
    Eq(Term, Term),
    /// Inequality.
    Neq(Term, Term),
}

/// A rule `p(x̄) ← l_1, …, l_n`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Head predicate.
    pub head: PredId,
    /// Head arguments.
    pub head_args: Vec<Term>,
    /// Body literals.
    pub body: Vec<Literal>,
    /// Number of variables in the rule (rule-local numbering).
    pub n_vars: u32,
}

/// Hard cap on body literals per rule; beyond it [`Program::validate`]
/// rejects the rule instead of letting the recursive evaluator chew through
/// an adversarial body (each literal adds a recursion frame in the evaluator).
pub const MAX_RULE_BODY: usize = 4096;

/// Why a program is ill-formed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A head or comparison variable that occurs in no positive relational
    /// body literal (not range-restricted).
    NotRangeRestricted { rule: usize, var: Var },
    /// An IDB atom whose arity disagrees with the predicate declaration.
    ArityMismatch { rule: usize, pred: PredId },
    /// A rule body with more than [`MAX_RULE_BODY`] literals.
    BodyTooLong { rule: usize, len: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NotRangeRestricted { rule, var } => {
                write!(f, "rule {rule}: variable {var} is not range-restricted")
            }
            ProgramError::ArityMismatch { rule, pred } => {
                write!(f, "rule {rule}: arity mismatch for predicate P{}", pred.0)
            }
            ProgramError::BodyTooLong { rule, len } => {
                write!(
                    f,
                    "rule {rule}: body has {len} literals (limit {MAX_RULE_BODY})"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A datalog program with a designated output predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Predicate display names.
    pub pred_names: Vec<String>,
    /// Predicate arities.
    pub arities: Vec<usize>,
    /// The rules.
    pub rules: Vec<Rule>,
    /// The output predicate.
    pub output: PredId,
}

impl Program {
    /// Validate range restriction and arities.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (ri, rule) in self.rules.iter().enumerate() {
            if rule.body.len() > MAX_RULE_BODY {
                return Err(ProgramError::BodyTooLong {
                    rule: ri,
                    len: rule.body.len(),
                });
            }
            // Arities of IDB literals and the head.
            if rule.head_args.len() != self.arities[rule.head.0] {
                return Err(ProgramError::ArityMismatch {
                    rule: ri,
                    pred: rule.head,
                });
            }
            for lit in &rule.body {
                if let Literal::Idb(p, args) = lit {
                    if args.len() != self.arities[p.0] {
                        return Err(ProgramError::ArityMismatch { rule: ri, pred: *p });
                    }
                }
            }
            // Range restriction: variables bound by a positive relational
            // literal, closed under equality propagation (`x = y` or
            // `x = c` makes `x` bound when the other side is).
            let mut positive: BTreeSet<Var> = BTreeSet::new();
            for lit in &rule.body {
                match lit {
                    Literal::Edb(a) => positive.extend(a.vars()),
                    Literal::Idb(_, args) => positive.extend(args.iter().filter_map(Term::as_var)),
                    _ => {}
                }
            }
            loop {
                let mut grew = false;
                for lit in &rule.body {
                    if let Literal::Eq(l, r) = lit {
                        let l_bound = match l {
                            Term::Const(_) => true,
                            Term::Var(v) => positive.contains(v),
                        };
                        let r_bound = match r {
                            Term::Const(_) => true,
                            Term::Var(v) => positive.contains(v),
                        };
                        if l_bound && !r_bound {
                            if let Term::Var(v) = r {
                                grew |= positive.insert(*v);
                            }
                        }
                        if r_bound && !l_bound {
                            if let Term::Var(v) = l {
                                grew |= positive.insert(*v);
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            let check = |t: &Term| -> Result<(), ProgramError> {
                if let Term::Var(v) = t {
                    if !positive.contains(v) {
                        return Err(ProgramError::NotRangeRestricted { rule: ri, var: *v });
                    }
                }
                Ok(())
            };
            for t in &rule.head_args {
                check(t)?;
            }
            for lit in &rule.body {
                match lit {
                    Literal::Eq(l, r) | Literal::Neq(l, r) => {
                        check(l)?;
                        check(r)?;
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Evaluate the program on a store with a semi-naive fixpoint; returns
    /// the output predicate's tuples. A caller that evaluates one program
    /// many times compiles it once with [`Program::compile`] instead.
    pub fn eval<S: TupleStore>(&self, db: &S) -> BTreeSet<Tuple> {
        let mut compiled = self.compile();
        compiled.run(db);
        compiled.output()
    }

    /// Evaluate and return every IDB instance (useful for debugging and for
    /// the reduction tests, which inspect auxiliary predicates).
    pub fn eval_all<S: TupleStore>(&self, db: &S) -> Vec<Instance> {
        let mut compiled = self.compile();
        compiled.run(db);
        (0..self.arities.len())
            .map(|p| {
                compiled
                    .rows(PredId(p))
                    .map(|row| Tuple::new(row.iter().cloned()))
                    .collect()
            })
            .collect()
    }

    /// Compile the program for repeated evaluation: each rule's body
    /// schedule, probe columns and delta positions are worked out here once,
    /// and the returned evaluator keeps its IDB tables and binding buffers
    /// across [`CompiledProgram::run`] calls.
    pub fn compile(&self) -> CompiledProgram<'_> {
        CompiledProgram::new(self)
    }
}

/// Empty slot of the row tables' open-addressing arrays, and the end of a
/// column chain.
const NIL: u32 = u32::MAX;

/// One rule, compiled.
struct CompiledRule {
    /// Position of the rule in [`Program::rules`].
    rule: usize,
    /// `(body position, probe column)` per step, in schedule order. The probe
    /// column of a relational literal is its first argument already bound
    /// when the step runs (a constant, or a variable of an earlier step);
    /// `None` scans.
    steps: Vec<(usize, Option<usize>)>,
    /// `(step, predicate)` of every IDB literal: the semi-naive delta
    /// positions.
    idb_steps: Vec<(usize, usize)>,
}

impl CompiledRule {
    /// `None` for a rule that can derive nothing: no evaluable ordering (a
    /// comparison never gets its variables bound), or an IDB arity that
    /// disagrees with the declaration ([`Program::validate`] rejects both).
    fn new(program: &Program, ri: usize) -> Option<Self> {
        let rule = &program.rules[ri];
        let arity_ok = |p: PredId, n: usize| program.arities.get(p.0) == Some(&n);
        if !arity_ok(rule.head, rule.head_args.len()) {
            return None;
        }
        let order = schedule_body(rule)?;
        let mut bound = vec![false; rule.n_vars as usize];
        let is_bound = |t: &Term, bound: &[bool]| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[v.idx()],
        };
        let mut steps = Vec::with_capacity(order.len());
        let mut idb_steps = Vec::new();
        for pos in order {
            let args = match &rule.body[pos] {
                Literal::Edb(a) => Some(&a.args[..]),
                Literal::Idb(p, args) => {
                    if !arity_ok(*p, args.len()) {
                        return None;
                    }
                    idb_steps.push((steps.len(), p.0));
                    Some(&args[..])
                }
                Literal::Eq(l, r) => {
                    for v in [l, r].into_iter().filter_map(Term::as_var) {
                        bound[v.idx()] = true;
                    }
                    None
                }
                Literal::Neq(..) => None,
            };
            let key = args.and_then(|args| args.iter().position(|t| is_bound(t, &bound)));
            for v in args.into_iter().flatten().filter_map(Term::as_var) {
                bound[v.idx()] = true;
            }
            steps.push((pos, key));
        }
        Some(CompiledRule {
            rule: ri,
            steps,
            idb_steps,
        })
    }
}

/// A [`Program`] compiled for repeated semi-naive evaluation over any
/// [`TupleStore`].
///
/// The IDB predicates live in append-only row tables whose rows, dedup set
/// and per-column indexes keep their buffers across runs, and every binding
/// goes through one reused trail, so re-evaluating on a database no larger
/// than an earlier one allocates nothing.
pub struct CompiledProgram<'p> {
    program: &'p Program,
    /// The rules that can derive something.
    rules: Vec<CompiledRule>,
    state: State,
}

/// The IDB of one run. Rounds are row ranges: a predicate's rows before
/// `lo` were derived before the last round, those in `lo..hi` in it, and
/// rows a firing derives are appended at `hi` and beyond, invisible until
/// the next round.
struct State {
    tables: Vec<RowTable>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    scratch: Scratch,
}

/// The mutable state of one rule firing.
#[derive(Default)]
struct Scratch {
    binding: Vec<Option<Value>>,
    /// Slots bound so far, in binding order; each level undoes its own.
    trail: Vec<usize>,
    /// Head rows derived by the current firing, row-major, added to the head
    /// table once the firing ends.
    derived: Vec<Value>,
    n_derived: usize,
}

impl<'p> CompiledProgram<'p> {
    fn new(program: &'p Program) -> Self {
        let n_preds = program.arities.len();
        let n_vars = program.rules.iter().map(|r| r.n_vars as usize).max();
        CompiledProgram {
            program,
            rules: (0..program.rules.len())
                .filter_map(|ri| CompiledRule::new(program, ri))
                .collect(),
            state: State {
                tables: program.arities.iter().map(|&a| RowTable::new(a)).collect(),
                lo: vec![0; n_preds],
                hi: vec![0; n_preds],
                scratch: Scratch {
                    binding: vec![None; n_vars.unwrap_or(0)],
                    ..Scratch::default()
                },
            },
        }
    }

    /// Compute the least fixpoint on `db`, replacing the previous run's.
    pub fn run<S: TupleStore>(&mut self, db: &S) {
        let state = &mut self.state;
        for t in &mut state.tables {
            t.clear();
        }
        state.lo.fill(0);
        state.hi.fill(0);
        // First round: every rule against the empty IDB.
        for c in &self.rules {
            state.fire(&self.program.rules[c.rule], c, db, None);
        }
        // Semi-naive rounds: the rows the last round derived are the delta,
        // and each firing binds one IDB literal to it.
        loop {
            let mut grew = false;
            for (p, t) in state.tables.iter().enumerate() {
                state.lo[p] = state.hi[p];
                state.hi[p] = t.len;
                grew |= state.lo[p] < state.hi[p];
            }
            if !grew {
                break;
            }
            for c in &self.rules {
                for &(step, pred) in &c.idb_steps {
                    if state.lo[pred] < state.hi[pred] {
                        state.fire(&self.program.rules[c.rule], c, db, Some(step));
                    }
                }
            }
        }
    }

    /// Rows of `pred` derived by the last run, in derivation order.
    pub fn rows(&self, pred: PredId) -> impl Iterator<Item = &[Value]> {
        let t = &self.state.tables[pred.0];
        (0..t.len).map(move |id| t.row(id))
    }

    /// Rows of the output predicate derived by the last run.
    pub fn output_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows(self.program.output)
    }

    /// Number of output rows of the last run.
    pub fn output_len(&self) -> usize {
        self.state.tables[self.program.output.0].len as usize
    }

    /// The output predicate's tuples from the last run.
    pub fn output(&self) -> BTreeSet<Tuple> {
        self.output_rows()
            .map(|row| Tuple::new(row.iter().cloned()))
            .collect()
    }
}

impl State {
    /// Fire `rule` (with the IDB literal of step `delta` bound to the last
    /// round's rows), then add what it derived to the head table.
    fn fire<S: TupleStore>(
        &mut self,
        rule: &Rule,
        compiled: &CompiledRule,
        store: &S,
        delta: Option<usize>,
    ) {
        let firing = Firing {
            rule,
            steps: &compiled.steps,
            tables: &self.tables,
            lo: &self.lo,
            hi: &self.hi,
            store,
            delta,
        };
        let sc = &mut self.scratch;
        sc.derived.clear();
        sc.n_derived = 0;
        firing.rec(0, sc);
        let head = &mut self.tables[rule.head.0];
        let arity = head.arity;
        for i in 0..sc.n_derived {
            head.insert(&sc.derived[i * arity..(i + 1) * arity]);
        }
    }
}

/// One rule firing: the rule, its compiled steps and the tables it reads.
struct Firing<'c, S> {
    rule: &'c Rule,
    steps: &'c [(usize, Option<usize>)],
    tables: &'c [RowTable],
    lo: &'c [u32],
    hi: &'c [u32],
    store: &'c S,
    /// The step whose IDB literal ranges over the last round's rows only.
    delta: Option<usize>,
}

impl<S: TupleStore> Firing<'_, S> {
    fn rec(&self, depth: usize, sc: &mut Scratch) {
        let Some(&(pos, key)) = self.steps.get(depth) else {
            for t in &self.rule.head_args {
                let v = match t {
                    Term::Var(v) => sc.binding[v.idx()]
                        .clone()
                        .unwrap_or_else(|| unreachable!("head vars are range-restricted")),
                    Term::Const(c) => c.clone(),
                };
                sc.derived.push(v);
            }
            sc.n_derived += 1;
            return;
        };
        match &self.rule.body[pos] {
            Literal::Eq(l, r) => {
                let (a, b) = (term_val(l, &sc.binding), term_val(r, &sc.binding));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            self.rec(depth + 1, sc);
                        }
                    }
                    // The schedule binds at least one side first; bind the
                    // other.
                    (Some(bound), None) | (None, Some(bound)) => {
                        let free = if a.is_none() { l } else { r };
                        if let Term::Var(v) = free {
                            sc.binding[v.idx()] = Some(bound.clone());
                            self.rec(depth + 1, sc);
                            sc.binding[v.idx()] = None;
                        }
                    }
                    // Unreachable under a valid schedule; derive nothing.
                    (None, None) => {}
                }
            }
            Literal::Neq(l, r) => {
                // A half-bound `≠` is unreachable under a valid schedule;
                // it derives nothing rather than panic.
                if let (Some(a), Some(b)) = (term_val(l, &sc.binding), term_val(r, &sc.binding)) {
                    if a != b {
                        self.rec(depth + 1, sc);
                    }
                }
            }
            Literal::Edb(atom) => {
                let args = &atom.args;
                let key = probe_key(args, key, &sc.binding);
                let mut visit = |t: &Tuple| {
                    self.matched(args, &t.0, depth, sc);
                    true
                };
                match key {
                    Some((col, v)) => self.store.probe(atom.rel, col, &v, &mut visit),
                    None => self.store.scan(atom.rel, &mut visit),
                };
            }
            Literal::Idb(p, args) => {
                let table = &self.tables[p.0];
                let hi = self.hi[p.0];
                let lo = if self.delta == Some(depth) {
                    self.lo[p.0]
                } else {
                    0
                };
                match probe_key(args, key, &sc.binding) {
                    Some((col, v)) => {
                        ric_data::index::count_probe();
                        // Chains run in row order, so the rows of this round
                        // (at `hi` and beyond) end the walk.
                        let mut id = table.chain(col, &v);
                        while id < hi {
                            if id >= lo {
                                self.matched(args, table.row(id), depth, sc);
                            }
                            id = table.cols[col].next[id as usize];
                        }
                    }
                    None => {
                        for id in lo..hi {
                            self.matched(args, table.row(id), depth, sc);
                        }
                    }
                }
            }
        }
    }

    /// Bind `args` against `row` and, when they match, go one step deeper;
    /// the binds are undone either way.
    fn matched(&self, args: &[Term], row: &[Value], depth: usize, sc: &mut Scratch) {
        if args.len() != row.len() {
            return;
        }
        let mark = sc.trail.len();
        let ok = args.iter().zip(row).all(|(term, value)| match term {
            Term::Const(c) => c == value,
            Term::Var(v) => match &sc.binding[v.idx()] {
                Some(b) => b == value,
                None => {
                    sc.binding[v.idx()] = Some(value.clone());
                    sc.trail.push(v.idx());
                    true
                }
            },
        });
        if ok {
            self.rec(depth + 1, sc);
        }
        for i in sc.trail.drain(mark..) {
            sc.binding[i] = None;
        }
    }
}

/// The probe column and its bound value, when the step has one.
fn probe_key(
    args: &[Term],
    key: Option<usize>,
    binding: &[Option<Value>],
) -> Option<(usize, Value)> {
    key.and_then(|col| term_val(&args[col], binding).map(|v| (col, v.clone())))
}

fn term_val<'a>(t: &'a Term, binding: &'a [Option<Value>]) -> Option<&'a Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding[v.idx()].as_ref(),
    }
}

/// The rows of one IDB predicate: row-major and append-only, deduplicated
/// through an open-addressing set of row ids, with an append-only chain index
/// per column. Every buffer keeps its capacity across [`RowTable::clear`].
struct RowTable {
    arity: usize,
    len: u32,
    /// `len × arity` values.
    vals: Vec<Value>,
    /// Open-addressing set of row ids (`NIL` = empty slot); its size is a
    /// power of two at least twice `len`.
    set: Vec<u32>,
    cols: Vec<Chains>,
}

/// One column's index: an open-addressing map (the same size as the row
/// set) from a value to the first and last row holding it in this column,
/// and per row the next row with the same value, so a probe walks the
/// matching rows in insertion order.
#[derive(Default)]
struct Chains {
    heads: Vec<u32>,
    tails: Vec<u32>,
    next: Vec<u32>,
}

impl RowTable {
    fn new(arity: usize) -> Self {
        RowTable {
            arity,
            len: 0,
            vals: Vec::new(),
            set: Vec::new(),
            cols: (0..arity).map(|_| Chains::default()).collect(),
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.vals.clear();
        self.set.fill(NIL);
        for c in &mut self.cols {
            c.heads.fill(NIL);
            c.next.clear();
        }
    }

    fn row(&self, id: u32) -> &[Value] {
        let start = id as usize * self.arity;
        &self.vals[start..start + self.arity]
    }

    /// Add `row` unless present; returns whether it was new.
    fn insert(&mut self, row: &[Value]) -> bool {
        if self.set.len() < 2 * (self.len as usize + 1) {
            self.grow();
        }
        let mask = self.set.len() - 1;
        let mut i = slot(hash_row(row), mask);
        while self.set[i] != NIL {
            if self.row(self.set[i]) == row {
                return false;
            }
            i = (i + 1) & mask;
        }
        let id = self.len;
        self.set[i] = id;
        self.vals.extend_from_slice(row);
        self.len += 1;
        for col in 0..self.arity {
            self.link(col, id);
        }
        true
    }

    /// Append row `id` to the chain of its value in column `col`.
    fn link(&mut self, col: usize, id: u32) {
        let arity = self.arity;
        let v = &self.vals[id as usize * arity + col];
        let chains = &mut self.cols[col];
        chains.next.push(NIL);
        let mask = chains.heads.len() - 1;
        let mut i = slot(hash_value(v), mask);
        loop {
            let head = chains.heads[i];
            if head == NIL {
                chains.heads[i] = id;
                chains.tails[i] = id;
                return;
            }
            if self.vals[head as usize * arity + col] == *v {
                chains.next[chains.tails[i] as usize] = id;
                chains.tails[i] = id;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// The first row with `v` in column `col`, or `NIL`.
    fn chain(&self, col: usize, v: &Value) -> u32 {
        let heads = &self.cols[col].heads;
        if heads.is_empty() {
            return NIL;
        }
        let mask = heads.len() - 1;
        let mut i = slot(hash_value(v), mask);
        loop {
            let head = heads[i];
            if head == NIL || self.vals[head as usize * self.arity + col] == *v {
                return head;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the set and the column maps, and re-add the rows in order.
    fn grow(&mut self) {
        let size = (self.set.len() * 2).max(8);
        self.set.clear();
        self.set.resize(size, NIL);
        for c in &mut self.cols {
            c.heads.clear();
            c.heads.resize(size, NIL);
            c.tails.resize(size, NIL);
            c.next.clear();
        }
        let mask = size - 1;
        for id in 0..self.len {
            let mut i = slot(hash_row(self.row(id)), mask);
            while self.set[i] != NIL {
                i = (i + 1) & mask;
            }
            self.set[i] = id;
            for col in 0..self.arity {
                self.link(col, id);
            }
        }
    }
}

fn hash_row(row: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

fn hash_value(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Fold the high bits of a multiplicative hash into the slot index.
fn slot(h: u64, mask: usize) -> usize {
    (h ^ (h >> 32)) as usize & mask
}

/// Greedily order the body so every comparison sees the bindings it needs:
/// relational literals are always schedulable (they bind their variables),
/// `l = r` needs at least one side bound (it then binds the other), and
/// `l ≠ r` needs both sides bound. The scan restarts from the front after
/// each pick, so the original literal order is preserved wherever legal.
/// `None` when some comparison can never be scheduled.
#[allow(clippy::needless_range_loop)] // `i` indexes three parallel structures
fn schedule_body(rule: &Rule) -> Option<Vec<usize>> {
    let n = rule.body.len();
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    let mut bound = vec![false; rule.n_vars as usize];
    let is_bound = |t: &Term, bound: &[bool]| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound[v.idx()],
    };
    while order.len() < n {
        let mut progressed = false;
        for i in 0..n {
            if scheduled[i] {
                continue;
            }
            let ready = match &rule.body[i] {
                Literal::Edb(_) | Literal::Idb(..) => true,
                Literal::Eq(l, r) => is_bound(l, &bound) || is_bound(r, &bound),
                Literal::Neq(l, r) => is_bound(l, &bound) && is_bound(r, &bound),
            };
            if !ready {
                continue;
            }
            scheduled[i] = true;
            order.push(i);
            match &rule.body[i] {
                Literal::Edb(a) => {
                    for v in a.vars() {
                        bound[v.idx()] = true;
                    }
                }
                Literal::Idb(_, args) => {
                    for v in args.iter().filter_map(Term::as_var) {
                        bound[v.idx()] = true;
                    }
                }
                Literal::Eq(l, r) => {
                    for t in [l, r] {
                        if let Term::Var(v) = t {
                            bound[v.idx()] = true;
                        }
                    }
                }
                Literal::Neq(..) => {}
            }
            progressed = true;
            break;
        }
        if !progressed {
            return None;
        }
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_data::{Database, RelationSchema, Schema};

    fn setup() -> (Schema, Database) {
        let s = Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap();
        let e = s.rel_id("E").unwrap();
        let mut db = Database::empty(&s);
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert(e, Tuple::new([Value::int(a), Value::int(b)]));
        }
        (s, db)
    }

    /// TC(x,y) ← E(x,y);  TC(x,y) ← E(x,z), TC(z,y).
    fn transitive_closure(s: &Schema) -> Program {
        let e = s.rel_id("E").unwrap();
        let tc = PredId(0);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let base = Rule {
            head: tc,
            head_args: vec![Term::Var(x), Term::Var(y)],
            body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
            n_vars: 2,
        };
        let step = Rule {
            head: tc,
            head_args: vec![Term::Var(x), Term::Var(y)],
            body: vec![
                Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                Literal::Idb(tc, vec![Term::Var(z), Term::Var(y)]),
            ],
            n_vars: 3,
        };
        Program {
            pred_names: vec!["TC".into()],
            arities: vec![2],
            rules: vec![base, step],
            output: tc,
        }
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let (s, db) = setup();
        let p = transitive_closure(&s);
        p.validate().unwrap();
        let res = p.eval(&db);
        assert_eq!(res.len(), 6); // 1-2,1-3,1-4,2-3,2-4,3-4
        assert!(res.contains(&Tuple::new([Value::int(1), Value::int(4)])));
        assert!(!res.contains(&Tuple::new([Value::int(4), Value::int(1)])));
    }

    #[test]
    fn cycle_closes_fully() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(4), Value::int(1)]));
        let p = transitive_closure(&s);
        assert_eq!(p.eval(&db).len(), 16);
    }

    #[test]
    fn neq_literal_filters() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(5), Value::int(5)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["NoLoop".into()],
            arities: vec![2],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                    Literal::Neq(Term::Var(x), Term::Var(y)),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        assert_eq!(p.eval(&db).len(), 3);
    }

    #[test]
    fn validation_rejects_unrestricted_head() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y, w) = (Var(0), Var(1), Var(2));
        let p = Program {
            pred_names: vec!["Bad".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(w)],
                body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                n_vars: 3,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::NotRangeRestricted { .. })
        ));
    }

    #[test]
    fn validation_rejects_arity_mismatch() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["Bad".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                n_vars: 2,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn comparison_before_binding_literal_is_reordered_not_panicked() {
        // `Q(X) :- X = Y, E(X, Y).` is range-restricted (equality
        // propagation) but lists the comparison first; the evaluator used to
        // panic here and now schedules E(X,Y) before the equality.
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(7), Value::int(7)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["Loop".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x)],
                body: vec![
                    Literal::Eq(Term::Var(x), Term::Var(y)),
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        let res = p.eval(&db);
        assert_eq!(res.len(), 1);
        assert!(res.contains(&Tuple::new([Value::int(7)])));
    }

    #[test]
    fn neq_before_binding_literal_is_reordered() {
        let (s, mut db) = setup();
        let e = s.rel_id("E").unwrap();
        db.insert(e, Tuple::new([Value::int(5), Value::int(5)]));
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let p = Program {
            pred_names: vec!["NoLoop".into()],
            arities: vec![2],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x), Term::Var(y)],
                body: vec![
                    Literal::Neq(Term::Var(x), Term::Var(y)),
                    Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)])),
                ],
                n_vars: 2,
            }],
            output: out,
        };
        p.validate().unwrap();
        assert_eq!(p.eval(&db).len(), 3, "the 5-5 loop is filtered");
    }

    #[test]
    fn validation_rejects_oversized_body() {
        let (s, _) = setup();
        let e = s.rel_id("E").unwrap();
        let out = PredId(0);
        let (x, y) = (Var(0), Var(1));
        let lit = Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]));
        let p = Program {
            pred_names: vec!["Big".into()],
            arities: vec![1],
            rules: vec![Rule {
                head: out,
                head_args: vec![Term::Var(x)],
                body: vec![lit; MAX_RULE_BODY + 1],
                n_vars: 2,
            }],
            output: out,
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BodyTooLong { rule: 0, .. })
        ));
    }

    #[test]
    fn mutual_recursion_two_predicates() {
        let (s, db) = setup();
        let e = s.rel_id("E").unwrap();
        // Even(x,y): path of even length; Odd(x,y): odd length.
        let even = PredId(0);
        let odd = PredId(1);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let p = Program {
            pred_names: vec!["Even".into(), "Odd".into()],
            arities: vec![2, 2],
            rules: vec![
                Rule {
                    head: odd,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(y)]))],
                    n_vars: 2,
                },
                Rule {
                    head: even,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![
                        Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                        Literal::Idb(odd, vec![Term::Var(z), Term::Var(y)]),
                    ],
                    n_vars: 3,
                },
                Rule {
                    head: odd,
                    head_args: vec![Term::Var(x), Term::Var(y)],
                    body: vec![
                        Literal::Edb(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                        Literal::Idb(even, vec![Term::Var(z), Term::Var(y)]),
                    ],
                    n_vars: 3,
                },
            ],
            output: even,
        };
        p.validate().unwrap();
        let res = p.eval(&db); // path 1-2-3-4: even paths 1-3, 2-4
        assert_eq!(res.len(), 2);
        assert!(res.contains(&Tuple::new([Value::int(1), Value::int(3)])));
        assert!(res.contains(&Tuple::new([Value::int(2), Value::int(4)])));
    }
}
