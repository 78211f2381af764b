//! `monitor-stream`: ongoing completeness management as the data changes.
//!
//! One `Monitor` over a multi-department CRM schema keeps several settings
//! current: per-department support tables bounded by the master customer
//! list (CQ, INDs), and account tables whose FD `eid → dept, cid` pins each
//! account's row (CQ, CQ) on top of the same master bound; an activity log
//! no setting reads sits beside them. An op is one `Monitor::apply`. The
//! seeded stream (see [`KINDS`]) mixes inserts and deletes on `D`,
//! master-data inserts and deletes (which reach every footprint), and
//! exact-inverse transactions that revisit earlier states; each cycle ends
//! with the inverse of its first half, so every cycle starts from the
//! post-setup state and each op meets the same state in every cycle.
//!
//! The oracle replays one cycle on plain databases and decides every setting
//! from scratch after every transaction; every verdict the monitor reports
//! is compared with the one for its position in the cycle, and every
//! `Incomplete` counterexample must certify on that state.

use super::{engine, schedule, Parser};
use crate::harness::{Check, Ctx, Workload};
use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::{MonitorCounters, Op, SettingId, SettingVerdict, SplitMix64, Target, Txn};
use std::time::{Duration, Instant};

/// Support tables with a (CQ, INDs) setting each.
const DEPTS: usize = 3;
/// Account tables with an FD-constrained (CQ, CQ) setting each.
const ACCTS: usize = 2;
/// Forward transactions per cycle; the cycle then replays their inverses.
const FORWARD: usize = 300;
/// Activity-log rows the stream keeps around.
const LOG_ROWS: usize = 8;

/// What a from-scratch decision says at one state of the stream. The state
/// itself is not kept: [`replay`] rebuilds it when a counterexample needs
/// certifying.
struct Truth {
    verdicts: Vec<Result<Verdict, DecisionError>>,
    /// The counterexamples that certified here, per setting, so a replayed
    /// one is not certified twice.
    certified: Vec<Vec<CounterExample>>,
}

/// The workload state.
pub struct MonitorStream {
    schema: Schema,
    master_schema: Schema,
    dm0: Database,
    load: Txn,
    defs: Vec<(String, ConstraintSet, Query)>,
    cycle: Vec<Txn>,
    classes: Vec<&'static str>,
    budget: SearchBudget,
    monitor: Monitor,
    ids: Vec<SettingId>,
    truth: Vec<Truth>,
    /// Index into `truth` of the state after each transaction of the cycle.
    state_of: Vec<usize>,
    parser: Parser,
    register_time: Duration,
}

/// Apply `txn` to plain databases; every op must be effective, so the
/// stream's inverses restore states exactly.
fn apply_plain(db: &mut Database, dm: &mut Database, txn: &Txn) {
    for op in &txn.ops {
        let (target, rel, tuple, insert) = match op {
            Op::Insert { target, rel, tuple } => (target, rel, tuple, true),
            Op::Delete { target, rel, tuple } => (target, rel, tuple, false),
        };
        let store = match target {
            Target::Db => &mut *db,
            Target::Master => &mut *dm,
        };
        let effective = if insert {
            store.insert(*rel, tuple.clone())
        } else {
            store.instance_mut(*rel).remove(tuple)
        };
        assert!(effective, "stream generator emitted a no-op: {op:?}");
    }
}

/// Transaction kinds, and how many of each every 20 forward transactions
/// hold. Fixed counts in seeded order keep the mix the same for every seed:
/// a quarter are cheap (activity-log writes no setting reads, and account
/// openings, which keep the FD settings complete); 55% touch one or more
/// departments, whose settings stay incomplete and recertify their
/// counterexamples (p50 falls here); 15% make the FD settings re-decide
/// (account closings and moves of the pinned account; p90 falls here); and
/// the top 5% are master-data changes, which reach every footprint.
const KINDS: [(Kind, usize); 8] = [
    (Kind::Log, 3),
    (Kind::Account, 4),
    (Kind::Background, 4),
    (Kind::Cover, 3),
    (Kind::Batch, 2),
    (Kind::Undo, 2),
    (Kind::Move, 1),
    (Kind::Master, 1),
];

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Write the activity log, which no registered setting reads.
    Log,
    /// Open an account under a fresh id, or close the extra one again.
    Account,
    /// Insert or delete other employees' support rows in one department.
    Background,
    /// Move `e0`'s coverage from one customer to another, keeping two or
    /// three customers uncovered.
    Cover,
    /// Background rows in every department plus a coverage change.
    Batch,
    /// The exact inverse of the previous transaction when that one touched
    /// departments only; otherwise a background transaction.
    Undo,
    /// Move the pinned account `a0` to another customer.
    Move,
    /// Add a master customer, or retire the added one with every row that
    /// references it; reaches every footprint.
    Master,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Log => "log",
            Kind::Account => "account",
            Kind::Background => "background",
            Kind::Cover => "cover",
            Kind::Batch => "batch",
            Kind::Undo => "undo",
            Kind::Move => "move",
            Kind::Master => "master",
        }
    }

    /// Does this kind touch departments only?
    fn departmental(self) -> bool {
        matches!(
            self,
            Kind::Background | Kind::Cover | Kind::Batch | Kind::Undo
        )
    }
}

/// The stream generator: draws transactions against a model of the current
/// state, so deletes always hit present tuples and inserts absent ones, and
/// table sizes stay near their initial sizes.
struct Generator<'a> {
    rng: SplitMix64,
    db: Database,
    dm: Database,
    supt: &'a [RelId],
    acct: &'a [RelId],
    log: RelId,
    dcust: RelId,
    /// Other employees' support rows per department at the start.
    background_rows: usize,
    /// Rows per account table at the start.
    accounts: usize,
    fresh: usize,
}

impl Generator<'_> {
    /// A current master customer, drawn uniformly.
    fn customer(&mut self) -> Value {
        let all = self.dm.instance(self.dcust);
        let pick = self.rng.random_range(0..all.len());
        match all.iter().nth(pick) {
            Some(t) => t.get(0).clone(),
            None => unreachable!("the master customer list is never empty"),
        }
    }

    fn row(e: &str, d: &str, c: Value) -> Tuple {
        Tuple::new([Value::str(e), Value::str(d), c])
    }

    /// A uniformly drawn tuple of `rel` in `D` satisfying `keep`.
    fn pick(&mut self, rel: RelId, keep: impl Fn(&Tuple) -> bool) -> Option<Tuple> {
        let rows: Vec<Tuple> = self
            .db
            .instance(rel)
            .iter()
            .filter(|t| keep(t))
            .cloned()
            .collect();
        (!rows.is_empty()).then(|| rows[self.rng.random_range(0..rows.len())].clone())
    }

    /// Insert another employee's support row, or delete one when the
    /// department holds more than it started with.
    fn background(&mut self, rel: RelId, ops: &mut Vec<Op>) {
        let other = |t: &Tuple| t.get(0).as_str() != Some("e0");
        let rows = self.db.instance(rel).iter().filter(|t| other(t)).count();
        let existing = if rows > self.background_rows {
            self.pick(rel, other)
        } else {
            None
        };
        let op = match existing {
            Some(t) => Op::delete(rel, t),
            None => {
                let e = format!("e{}", self.rng.random_range(1..4));
                let d = format!("d{}", self.rng.random_range(1..4));
                let c = self.customer();
                Op::insert(rel, Self::row(&e, &d, c))
            }
        };
        // Two ops on one tuple in one transaction would not both be
        // effective; drop the second.
        let tuple = |o: &Op| match o {
            Op::Insert { tuple, .. } | Op::Delete { tuple, .. } => tuple.clone(),
        };
        let absent =
            matches!(op, Op::Delete { .. }) || !self.db.instance(rel).contains(&tuple(&op));
        if absent && !ops.iter().any(|o| tuple(o) == tuple(&op)) {
            ops.push(op);
        }
    }

    /// Restore `e0`'s coverage of an uncovered customer when three or more
    /// are uncovered, otherwise drop the coverage of a covered one.
    fn cover(&mut self, rel: RelId, ops: &mut Vec<Op>) {
        let (covered, uncovered): (Vec<Tuple>, Vec<Tuple>) = self
            .dm
            .instance(self.dcust)
            .iter()
            .map(|c| Self::row("e0", "d0", c.get(0).clone()))
            .partition(|t| self.db.instance(rel).contains(t));
        ops.push(if uncovered.len() >= 3 {
            Op::insert(
                rel,
                uncovered[self.rng.random_range(0..uncovered.len())].clone(),
            )
        } else {
            Op::delete(
                rel,
                covered[self.rng.random_range(0..covered.len())].clone(),
            )
        });
    }

    /// One forward transaction of `kind`, after `previous`.
    fn next(&mut self, kind: Kind, previous: Option<&(Txn, Kind)>) -> Txn {
        let mut ops = Vec::new();
        let kind = match (kind, previous) {
            (Kind::Undo, Some((txn, k))) if k.departmental() => return self.commit(txn.inverse()),
            (Kind::Undo, _) => Kind::Background,
            (k, _) => k,
        };
        match kind {
            Kind::Log => {
                let existing = if self.db.instance(self.log).len() >= LOG_ROWS {
                    self.pick(self.log, |_| true)
                } else {
                    None
                };
                ops.push(match existing {
                    Some(t) => Op::delete(self.log, t),
                    None => {
                        self.fresh += 1;
                        let e = format!("e{}", self.rng.random_range(0..4));
                        let note = Value::str(format!("note{}", self.fresh));
                        Op::insert(self.log, Tuple::new([Value::str(e), note]))
                    }
                });
            }
            Kind::Account => {
                let not_a0 = |t: &Tuple| t.get(0).as_str() != Some("a0");
                let extra = self
                    .acct
                    .iter()
                    .copied()
                    .find(|&rel| self.db.instance(rel).len() > self.accounts);
                match extra.and_then(|rel| Some((rel, self.pick(rel, not_a0)?))) {
                    Some((rel, t)) => ops.push(Op::delete(rel, t)),
                    None => {
                        let rel = self.acct[self.rng.random_range(0..ACCTS)];
                        self.fresh += 1;
                        let c = self.customer();
                        ops.push(Op::insert(
                            rel,
                            Self::row(&format!("n{}", self.fresh), "d0", c),
                        ));
                    }
                }
            }
            Kind::Background => {
                let rel = self.supt[self.rng.random_range(0..DEPTS)];
                for _ in 0..self.rng.random_range(1..4) {
                    self.background(rel, &mut ops);
                }
            }
            Kind::Cover => {
                let rel = self.supt[self.rng.random_range(0..DEPTS)];
                self.cover(rel, &mut ops);
            }
            Kind::Move => {
                let rel = self.acct[self.rng.random_range(0..ACCTS)];
                let c = self.customer();
                let new = Self::row("a0", "d0", c);
                if !self.db.instance(rel).contains(&new) {
                    if let Some(old) = self.pick(rel, |t| t.get(0).as_str() == Some("a0")) {
                        ops.push(Op::delete(rel, old));
                    }
                    ops.push(Op::insert(rel, new));
                }
            }
            Kind::Master => {
                let added: Vec<Value> = self
                    .dm
                    .instance(self.dcust)
                    .iter()
                    .map(|t| t.get(0).clone())
                    .filter(|v| v.as_str().is_some_and(|s| s.starts_with('m')))
                    .collect();
                // Alternate: add a customer, then retire it.
                if let Some(c) = added.first().cloned() {
                    for &rel in self.supt.iter().chain(self.acct) {
                        for t in self.db.instance(rel).iter().filter(|t| t.get(2) == &c) {
                            ops.push(Op::delete(rel, t.clone()));
                        }
                    }
                    ops.push(Op::master_delete(self.dcust, Tuple::new([c])));
                } else {
                    self.fresh += 1;
                    let c = Value::str(format!("m{}", self.fresh));
                    ops.push(Op::master_insert(self.dcust, Tuple::new([c])));
                }
            }
            Kind::Batch => {
                for i in 0..DEPTS {
                    self.background(self.supt[i], &mut ops);
                }
                let rel = self.supt[self.rng.random_range(0..DEPTS)];
                self.cover(rel, &mut ops);
            }
            Kind::Undo => unreachable!("resolved above"),
        }
        self.commit(Txn::new(ops))
    }

    fn commit(&mut self, txn: Txn) -> Txn {
        apply_plain(&mut self.db, &mut self.dm, &txn);
        txn
    }
}

impl MonitorStream {
    /// Build the schemas, settings and stream, then register every setting
    /// and load the initial data.
    pub fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n_customers = 24;
        let n_accounts = 12;
        let mut rels: Vec<RelationSchema> = (0..DEPTS)
            .map(|i| RelationSchema::infinite(format!("Supt{i}"), &["eid", "dept", "cid"]))
            .collect();
        rels.extend(
            (0..ACCTS)
                .map(|j| RelationSchema::infinite(format!("Acct{j}"), &["eid", "dept", "cid"])),
        );
        rels.push(RelationSchema::infinite("Log", &["eid", "note"]));
        let schema = Schema::from_relations(rels).expect("fixed schema");
        let master_schema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])])
                .expect("fixed schema");
        let dcust = master_schema.rel_id("DCust").expect("fixed relation");
        let supt: Vec<RelId> = (0..DEPTS)
            .map(|i| schema.rel_id(&format!("Supt{i}")).expect("fixed relation"))
            .collect();
        let log = schema.rel_id("Log").expect("fixed relation");
        let acct: Vec<RelId> = (0..ACCTS)
            .map(|j| schema.rel_id(&format!("Acct{j}")).expect("fixed relation"))
            .collect();
        let tag = rng.next_u64() % 1000;
        let cust = |c: usize| format!("c{tag}_{c}");
        let mut dm0 = Database::empty(&master_schema);
        for c in 0..n_customers {
            dm0.insert(dcust, Tuple::new([Value::str(cust(c))]));
        }

        let mut parser = Parser::default();
        let bound = |rel: RelId| {
            ContainmentConstraint::into_master(
                CcBody::Proj(Projection::new(rel, vec![2])),
                dcust,
                vec![0],
            )
        };
        let mut defs = Vec::new();
        for (i, &rel) in supt.iter().enumerate() {
            let q = parser.cq(&schema, &format!("Q(C) :- Supt{i}('e0', D, C)."));
            defs.push((
                format!("dept{i}"),
                ConstraintSet::new(vec![bound(rel)]),
                q.into(),
            ));
        }
        for (j, &rel) in acct.iter().enumerate() {
            let fd = Fd::new(rel, vec![0], vec![1, 2]);
            let mut ccs = ric::constraints::compile::fd_to_ccs(&fd, &schema);
            ccs.push(bound(rel));
            let q = parser.cq(&schema, &format!("Q(C) :- Acct{j}('a0', D, C)."));
            defs.push((format!("acct{j}"), ConstraintSet::new(ccs), q.into()));
        }

        // Initial data: e0 covers every customer but two in each department
        // (so the department settings start incomplete), plus background
        // rows; each account id has exactly one row.
        let mut load = Vec::new();
        for &rel in &supt {
            for c in 2..n_customers {
                load.push(Op::insert(
                    rel,
                    Generator::row("e0", "d0", Value::str(cust(c))),
                ));
            }
            for c in 0..n_customers {
                let e = format!("e{}", 1 + rng.random_range(0..3));
                load.push(Op::insert(
                    rel,
                    Generator::row(&e, "d1", Value::str(cust(c))),
                ));
            }
        }
        for &rel in &acct {
            for a in 0..n_accounts {
                let c = Value::str(cust(rng.random_range(0..n_customers)));
                load.push(Op::insert(rel, Generator::row(&format!("a{a}"), "d0", c)));
            }
        }
        let load = Txn::new(load);

        let mut gen = Generator {
            rng: SplitMix64::seed_from_u64(rng.next_u64()),
            db: Database::empty(&schema),
            dm: dm0.clone(),
            supt: &supt,
            acct: &acct,
            log,
            dcust,
            background_rows: n_customers,
            accounts: n_accounts,
            fresh: 0,
        };
        gen.commit(load.clone());
        let per_20: Vec<(usize, usize)> = KINDS
            .iter()
            .enumerate()
            .map(|(k, &(_, n))| (k, n * FORWARD / 20))
            .collect();
        let kinds = schedule(&per_20, &mut rng);
        let mut forward: Vec<(Txn, Kind)> = Vec::with_capacity(FORWARD);
        for &k in &kinds {
            let kind = KINDS[k].0;
            let txn = gen.next(kind, forward.last());
            forward.push((txn, kind));
        }
        let mut classes: Vec<&'static str> = forward.iter().map(|(_, k)| k.name()).collect();
        let forward: Vec<Txn> = forward.into_iter().map(|(t, _)| t).collect();
        let mut cycle = forward.clone();
        cycle.extend(forward.iter().rev().map(Txn::inverse));
        classes.extend(classes.clone().into_iter().rev());

        let budget = SearchBudget::default().with_engine(engine(workers));
        let t0 = Instant::now();
        let (monitor, ids) = start(&schema, &master_schema, &dm0, budget, &defs, &load);
        let register_time = t0.elapsed();
        MonitorStream {
            schema,
            master_schema,
            dm0,
            load,
            defs,
            cycle,
            classes,
            budget,
            monitor,
            ids,
            truth: Vec::new(),
            state_of: Vec::new(),
            parser,
            register_time,
        }
    }
}

/// The state after `load` and then `txns`, on plain databases.
fn replay(schema: &Schema, dm0: &Database, load: &Txn, txns: &[Txn]) -> (Database, Database) {
    let mut db = Database::empty(schema);
    let mut dm = dm0.clone();
    for txn in std::iter::once(load).chain(txns) {
        apply_plain(&mut db, &mut dm, txn);
    }
    (db, dm)
}

/// A monitor with every setting registered and the initial data loaded.
fn start(
    schema: &Schema,
    master_schema: &Schema,
    dm: &Database,
    budget: SearchBudget,
    defs: &[(String, ConstraintSet, Query)],
    load: &Txn,
) -> (Monitor, Vec<SettingId>) {
    let mut monitor = Monitor::new(schema.clone(), master_schema.clone(), dm.clone(), budget)
        .expect("schemas are consistent");
    let ids = defs
        .iter()
        .map(|(name, v, q)| {
            monitor
                .register(name.clone(), v.clone(), q.clone())
                .expect("generated setting registers")
        })
        .collect();
    monitor.apply(load).expect("initial load is valid");
    (monitor, ids)
}

impl Workload for MonitorStream {
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    fn trace_cycles(&self) -> usize {
        2
    }

    fn class(&self, i: usize) -> &'static str {
        self.classes[i]
    }

    fn parsed(&self) -> (usize, Duration) {
        (self.parser.count, self.parser.time)
    }

    fn setup_prepare(&self) -> Duration {
        self.register_time
    }

    fn oracle(&mut self) {
        let decide = |db: &Database, dm: &Database| -> Vec<Result<Verdict, DecisionError>> {
            self.defs
                .iter()
                .map(|(_, v, q)| {
                    let setting = Setting::new(
                        self.schema.clone(),
                        self.master_schema.clone(),
                        dm.clone(),
                        v.clone(),
                    );
                    let prepared =
                        prepare(&setting, db, self.budget.engine).map_err(DecisionError::Rc)?;
                    try_rcdp_prepared(&prepared, q, db, &self.budget)
                })
                .collect()
        };
        // States of the forward half: after the load, then after each
        // forward transaction. The second half walks them back.
        let (mut db, mut dm) = replay(&self.schema, &self.dm0, &self.load, &[]);
        let mut states = Vec::with_capacity(FORWARD + 1);
        for i in 0..=FORWARD {
            if i > 0 {
                apply_plain(&mut db, &mut dm, &self.cycle[i - 1]);
            }
            states.push((db.clone(), dm.clone()));
        }
        self.state_of = (0..self.cycle.len())
            .map(|p| {
                if p < FORWARD {
                    p + 1
                } else {
                    2 * FORWARD - 1 - p
                }
            })
            .collect();
        for p in FORWARD..self.cycle.len() {
            apply_plain(&mut db, &mut dm, &self.cycle[p]);
            let (sdb, sdm) = &states[self.state_of[p]];
            assert!(
                *sdb == db && *sdm == dm,
                "the second half of the cycle retraces the first"
            );
        }
        self.truth = states
            .iter()
            .map(|(db, dm)| Truth {
                verdicts: decide(db, dm),
                certified: vec![Vec::new(); self.defs.len()],
            })
            .collect();
    }

    fn corrupt_oracle(&mut self) {
        let slot = &mut self.truth[self.state_of[0]].verdicts[0];
        *slot = match slot {
            Ok(Verdict::Complete) => Err(DecisionError::Rc(RcError::NotPartiallyClosed)),
            _ => Ok(Verdict::Complete),
        };
    }

    fn run(&mut self, i: usize, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let txn = &self.cycle[i];
        let monitor = &mut self.monitor;
        ctx.decide(|p| monitor.apply_probed(txn, p))
            .map(|_| ())
            .map_err(|e| format!("txn {i}: {e}"))
    }

    fn check(&mut self, i: usize) -> Check {
        let state_at = self.state_of[i];
        let truth = &mut self.truth[state_at];
        let mut state = None;
        let mut decided = true;
        for (k, (&id, (name, v, q))) in self.ids.iter().zip(&self.defs).enumerate() {
            let Ok(got) = self.monitor.verdict(id) else {
                return Check::Failed(format!("txn {i}: {name} is not registered"));
            };
            let ok = match (got, &truth.verdicts[k]) {
                (
                    SettingVerdict::NotPartiallyClosed,
                    Err(DecisionError::Rc(RcError::NotPartiallyClosed)),
                ) => true,
                (SettingVerdict::Decided(Verdict::Complete), Ok(Verdict::Complete)) => true,
                (
                    SettingVerdict::Decided(Verdict::Unknown { stats: a }),
                    Ok(Verdict::Unknown { stats: b }),
                ) => {
                    decided = false;
                    a.limit == b.limit
                }
                (SettingVerdict::Decided(Verdict::Incomplete(ce)), Ok(Verdict::Incomplete(_))) => {
                    truth.certified[k].contains(ce) || {
                        let (db, dm) = state.get_or_insert_with(|| {
                            replay(&self.schema, &self.dm0, &self.load, &self.cycle[..state_at])
                        });
                        let setting = Setting::new(
                            self.schema.clone(),
                            self.master_schema.clone(),
                            dm.clone(),
                            v.clone(),
                        );
                        let ok = certify_counterexample(&setting, q, db, ce).unwrap_or(false);
                        if ok {
                            truth.certified[k].push(ce.clone());
                        }
                        ok
                    }
                }
                _ => false,
            };
            if !ok {
                return Check::Failed(format!(
                    "txn {i}: {name}: monitor says {:?}, from scratch {:?}",
                    got.status(),
                    truth.verdicts[k].as_ref().map(|v| v.to_string())
                ));
            }
        }
        Check::Ok { decided }
    }

    fn reset(&mut self) -> bool {
        let (monitor, ids) = start(
            &self.schema,
            &self.master_schema,
            &self.dm0,
            self.budget,
            &self.defs,
            &self.load,
        );
        self.monitor = monitor;
        self.ids = ids;
        true
    }

    fn settings(&self) -> usize {
        self.defs.len()
    }

    fn monitor_counters(&self) -> Option<MonitorCounters> {
        Some(self.monitor.counters().clone())
    }
}
