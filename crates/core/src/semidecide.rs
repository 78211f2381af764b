//! Bounded semi-decision for the undecidable cells of Tables I and II.
//!
//! When `L_Q` or `L_C` is FO or FP, RCDP and RCQP are undecidable (Theorems
//! 3.1 and 4.1) — no terminating procedure can decide them. What *is*
//! possible, and what this module provides, is a bounded search over
//! candidate extensions:
//!
//! * [`rcdp_bounded`] — enumerate extensions `Δ` built from tuples over the
//!   active domain plus a small fresh pool, up to `budget.max_delta_tuples`
//!   tuples. Finding `Δ` with `(D ∪ Δ, D_m) |= V` and `Q(D ∪ Δ) ≠ Q(D)`
//!   *certifies* incompleteness; exhausting the bound yields `Unknown`.
//! * [`rcqp_bounded`] — search for a candidate database that `rcdp_bounded`
//!   cannot refute within the bound. Because completeness itself is
//!   undecidable here, a surviving candidate is only evidence, so the result
//!   is at best `Unknown` with a description of how far the search went —
//!   exactly the epistemic state the undecidability theorems force.

use crate::adom::Adom;
use crate::budget::{Engine, Meter, MeterKind, SearchBudget};
use crate::guard::Guard;
use crate::par::ChunkStats;
use crate::query::Query;
use crate::setting::Setting;
use crate::verdict::{BudgetLimit, CounterExample, QueryVerdict, RcError, SearchStats, Verdict};
use ric_constraints::PreparedUpper;
use ric_data::{index::probe_count, Database, DeltaBuf, Overlay, RelId, Tuple, TupleStore, Value};
use ric_query::CompiledProgram;
use ric_telemetry::Probe;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Upper bound on the materialised candidate pool; beyond it the bounded
/// searches report `Unknown` instead of exhausting memory.
const MAX_POOL: usize = 100_000;

/// Estimated pool size (saturating): Σ over relations of |values|^arity.
pub(crate) fn pool_estimate(setting: &Setting, n_values: usize) -> usize {
    let mut total = 0usize;
    for (_, rs) in setting.schema.iter() {
        let mut per = 1usize;
        for attr in &rs.attributes {
            let base = match attr.domain.finite_values() {
                Some(d) => d.len(),
                None => n_values,
            };
            per = per.saturating_mul(base.max(1));
        }
        total = total.saturating_add(per);
    }
    total
}

/// All candidate tuples over `values`, per relation, respecting finite
/// domains, excluding tuples already in `db`.
pub(crate) fn tuple_pool(
    setting: &Setting,
    db: &Database,
    values: &[Value],
) -> Vec<(RelId, Tuple)> {
    let mut pool = Vec::new();
    for (rel, rs) in setting.schema.iter() {
        let arity = rs.arity();
        let mut current: Vec<Value> = Vec::with_capacity(arity);
        fill(rs, values, 0, &mut current, &mut |t: Tuple| {
            if !db.instance(rel).contains(&t) {
                pool.push((rel, t));
            }
        });
    }
    pool
}

/// How the bounded search checks `(D ∪ Δ, D_m) |= V` per candidate.
enum BoundedCheck {
    /// Materialize every candidate union and check `V` in full — the Naive
    /// engine's oracle path.
    Full,
    /// Check upper bounds incrementally on the overlay `D ∪ Δ`. Requires the
    /// upper bounds to hold on the base.
    Delta {
        prepared: Arc<PreparedUpper>,
        /// Lower bounds must be re-checked on each surviving union — some
        /// body is FO/FP (not monotone) or the base does not satisfy them
        /// yet (an extension can repair a missing lower bound).
        recheck_lower: bool,
    },
}

impl BoundedCheck {
    fn select(
        setting: &Setting,
        db: &Database,
        engine: Engine,
        reuse: Option<&Arc<PreparedUpper>>,
    ) -> Result<Self, RcError> {
        // The incremental identity for monotone upper bodies needs the upper
        // bounds to hold on the base; when they do not (possible here —
        // `rcdp_bounded` is a public entry that does not demand partial
        // closure), the naive path keeps the original semantics.
        if !engine.indexed() || !setting.v.upper_satisfied(db, &setting.dm)? {
            return Ok(BoundedCheck::Full);
        }
        let mut recheck_lower = false;
        for lb in &setting.v.lower_bounds {
            if !crate::rcdp::exactly_decidable(lb.body.language())
                || !lb.satisfied(db, &setting.dm)?
            {
                recheck_lower = true;
                break;
            }
        }
        let prepared = match reuse {
            Some(prep) => Arc::clone(prep),
            None => prepare_upper(setting, db, engine)?,
        };
        Ok(BoundedCheck::Delta {
            prepared,
            recheck_lower,
        })
    }

    /// The shared preparation backing the delta mode, if any.
    fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            BoundedCheck::Delta { prepared, .. } => Some(prepared),
            BoundedCheck::Full => None,
        }
    }
}

/// Compile the upper bounds for the delta mode: with cost-based plans steered
/// by `db` on the planned engine, plain otherwise.
fn prepare_upper(
    setting: &Setting,
    db: &Database,
    engine: Engine,
) -> Result<Arc<PreparedUpper>, RcError> {
    let (v, schema, dm) = (&setting.v, &setting.schema, &setting.dm);
    Ok(Arc::new(if engine.is_planned() {
        PreparedUpper::with_plans(v, schema, dm, db)?
    } else {
        PreparedUpper::new(v, schema, dm)?
    }))
}

/// The query side of the bounded check.
enum BoundedQuery<'q> {
    /// FP, compiled once and re-run per surviving candidate. Datalog is
    /// monotone, so `Q(D) ⊆ Q(D ∪ Δ)`, and the answers differ exactly when
    /// the output has more rows than `Q(D)`: no answer set is built unless
    /// they do.
    Fp(CompiledProgram<'q>),
    /// Any other language: evaluate the answer set and compare.
    Set(&'q Query),
}

impl<'q> BoundedQuery<'q> {
    fn new(query: &'q Query) -> Self {
        match query {
            Query::Fp(p) => BoundedQuery::Fp(p.compile()),
            other => BoundedQuery::Set(other),
        }
    }

    /// The least answer in `Q(store) △ Q(D)`, or `None` when the answers
    /// agree. For non-monotone `L_Q` an addition can also *remove* answers,
    /// so either side of the difference counts.
    fn new_answer<S: TupleStore>(
        &mut self,
        store: &S,
        q_d: &BTreeSet<Tuple>,
    ) -> Result<Option<Tuple>, RcError> {
        match self {
            BoundedQuery::Fp(compiled) => {
                compiled.run(store);
                if compiled.output_len() == q_d.len() {
                    return Ok(None);
                }
                let least = compiled
                    .output_rows()
                    .filter(|row| !q_d.contains(*row))
                    .min()
                    .unwrap_or_else(|| unreachable!("monotone: a larger output has a new row"));
                Ok(Some(Tuple::new(least.iter().cloned())))
            }
            BoundedQuery::Set(query) => {
                let after = query.eval(store)?;
                Ok(after.symmetric_difference(q_d).next().cloned())
            }
        }
    }
}

/// The per-candidate work of the bounded search: fill one reused
/// [`DeltaBuf`] with the chosen pool tuples, check `V` on `D ∪ Δ` and, for
/// a survivor, compare `Q(D ∪ Δ)` with `Q(D)`. In the delta mode the union
/// is only ever an [`Overlay`]; a [`Database`] is built for a counterexample
/// and for the full mode. The sequential, chunked and resumed searches all
/// check through one of these.
struct BoundedChecker<'a> {
    search: &'a BoundedSearch<'a>,
    query: BoundedQuery<'a>,
    delta: DeltaBuf,
    cc_checks: u64,
    cc_skipped: u64,
    query_evals: u64,
}

impl<'a> BoundedChecker<'a> {
    /// A checker whose counters start at `committed`'s.
    fn new(search: &'a BoundedSearch<'a>, committed: &ChunkStats) -> Self {
        BoundedChecker {
            search,
            query: BoundedQuery::new(search.query),
            delta: DeltaBuf::new(search.setting.schema.len()),
            cc_checks: committed.cc_checks,
            cc_skipped: committed.cc_skipped,
            query_evals: committed.query_evals,
        }
    }

    /// Check the candidate made of the pool tuples at `subset`.
    fn check(&mut self, subset: &[usize]) -> Result<Option<CounterExample>, RcError> {
        let BoundedSearch {
            setting, db, q_d, ..
        } = *self.search;
        self.delta.clear();
        for &i in subset {
            let (rel, t) = &self.search.pool[i];
            self.delta.insert_with(*rel, t.arity(), |j| t.get(j));
        }
        self.cc_checks += 1;
        let new_answer = match self.search.check {
            BoundedCheck::Full => {
                let extended = db
                    .union(&self.delta.to_database())
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                if !setting.partially_closed(&extended)? {
                    return Ok(None);
                }
                self.query_evals += 1;
                self.query.new_answer(&extended, q_d)?
            }
            BoundedCheck::Delta {
                prepared,
                recheck_lower,
            } => {
                let ov = Overlay::over_buf(db, &mut self.delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared.satisfied_delta(&setting.v, &ov)?;
                self.cc_skipped += res.skipped as u64;
                if !res.satisfied {
                    return Ok(None);
                }
                if *recheck_lower {
                    for lb in &setting.v.lower_bounds {
                        if !lb.satisfied(&ov, &setting.dm)? {
                            return Ok(None);
                        }
                    }
                }
                self.query_evals += 1;
                self.query.new_answer(&ov, q_d)?
            }
        };
        Ok(new_answer.map(|new_answer| CounterExample {
            delta: self.delta.to_database(),
            new_answer,
        }))
    }

    /// The checker's counters with the meter's ticks and the probes issued.
    fn stats(&self, ticks: u64, probes: u64) -> ChunkStats {
        ChunkStats {
            ticks,
            cc_checks: self.cc_checks,
            cc_skipped: self.cc_skipped,
            query_evals: self.query_evals,
            probes,
            // The bounded search enumerates tuple subsets, not valuation
            // trees — no depth profile applies.
            ..ChunkStats::default()
        }
    }
}

fn fill(
    rs: &ric_data::RelationSchema,
    values: &[Value],
    col: usize,
    current: &mut Vec<Value>,
    out: &mut impl FnMut(Tuple),
) {
    if col == rs.arity() {
        out(Tuple::new(current.iter().cloned()));
        return;
    }
    match rs.attributes[col].domain.finite_values() {
        Some(dom) => {
            for v in dom {
                current.push(v.clone());
                fill(rs, values, col + 1, current, out);
                current.pop();
            }
        }
        None => {
            for v in values {
                current.push(v.clone());
                fill(rs, values, col + 1, current, out);
                current.pop();
            }
        }
    }
}

/// Bounded RCDP: certify incompleteness with a small witness extension, or
/// report `Unknown`.
pub fn rcdp_bounded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, RcError> {
    rcdp_bounded_probed(setting, query, db, budget, Probe::disabled())
}

/// [`rcdp_bounded`] with a telemetry probe attached.
pub fn rcdp_bounded_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_bounded_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`rcdp_bounded`] with an explicit [`Guard`] (deadline / cancellation /
/// fault plan) and a telemetry probe attached.
pub fn rcdp_bounded_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_bounded_guarded_reusing(setting, query, db, budget, guard, probe, None)
}

/// [`rcdp_bounded_guarded`] with an optional pre-built upper-bound
/// preparation from a [`crate::PreparedSetting`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn rcdp_bounded_guarded_reusing(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
) -> Result<Verdict, RcError> {
    let probe = probe.with_ticks(guard);
    let (verdict, _) = bounded_decide(setting, query, db, budget, guard, probe, reuse, None)?;
    crate::rcdp::emit_verdict(probe, &verdict);
    Ok(verdict)
}

/// A bounded-search resume point: every extension size below `next_size` is
/// fully searched, with `stats` the cumulative committed work over those
/// sizes. The public mirror is
/// [`Frontier::BoundedSizes`](crate::checkpoint::Frontier).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundedResume {
    /// First unexplored extension size.
    pub next_size: usize,
    /// Cumulative stats over the fully-searched smaller sizes.
    pub stats: ChunkStats,
}

/// The resumable bounded decider: [`rcdp_bounded_guarded`] with a size-level
/// resume point in and out.
pub(crate) fn rcdp_bounded_resumed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    prior: Option<&BoundedResume>,
) -> Result<(Verdict, Option<BoundedResume>), RcError> {
    let probe = probe.with_ticks(guard);
    let out = bounded_decide(setting, query, db, budget, guard, probe, None, prior)?;
    crate::rcdp::emit_verdict(probe, &out.0);
    Ok(out)
}

/// One bounded decision, fresh (`prior` `None`) or resumed. Setup (query
/// evaluation, check-mode selection, active domain, candidate pool) re-runs
/// every installment — it is deterministic, so the emitted telemetry stays
/// installment-independent. Returns the resume point alongside the verdict
/// when the search stopped on a budget-like limit.
#[allow(clippy::too_many_arguments)]
fn bounded_decide(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
    prior: Option<&BoundedResume>,
) -> Result<(Verdict, Option<BoundedResume>), RcError> {
    let q_d = query.eval(db)?;
    let probes_before = probe_count();
    let check = BoundedCheck::select(setting, db, budget.engine, reuse)?;
    crate::rcdp::emit_plan_telemetry(
        probe,
        setting,
        budget.engine,
        check.prepared(),
        reuse.is_some(),
        db,
    );
    let adom = Adom::build(db, setting, query, budget.fresh_values);
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    probe.gauge("semidecide.adom_size", values.len() as u64);
    if pool_estimate(setting, values.len()) > MAX_POOL {
        probe.count("semidecide.query_evals", 1);
        let verdict = Verdict::unknown(SearchStats::new(
            BudgetLimit::PoolBound,
            format!(
                "candidate tuple space exceeds {MAX_POOL} over {} values; \
                 narrow the schema or shrink the database",
                values.len()
            ),
        ));
        return Ok((verdict, None));
    }
    let pool = tuple_pool(setting, db, &values);
    probe.gauge("semidecide.pool_size", pool.len() as u64);
    let search = BoundedSearch {
        setting,
        query,
        db,
        q_d: &q_d,
        check: &check,
        pool: &pool,
    };
    let start_size = prior.map_or(1, |r| r.next_size);
    let committed = prior.map_or_else(ChunkStats::default, |r| r.stats);
    if budget.engine.sharded() {
        rcdp_bounded_parallel(
            &search,
            budget,
            guard,
            probe,
            probes_before,
            start_size,
            &committed,
        )
    } else {
        let probes_offset = probe_count().saturating_sub(probes_before) + committed.probes;
        bounded_search_sequential(
            &search,
            budget,
            guard,
            probe,
            start_size,
            &committed,
            probes_offset,
        )
    }
}

/// One bounded decision's candidate space and check, shared by its drivers
/// and by every [`BoundedChecker`] they make.
struct BoundedSearch<'a> {
    setting: &'a Setting,
    query: &'a Query,
    db: &'a Database,
    /// `Q(D)`.
    q_d: &'a BTreeSet<Tuple>,
    check: &'a BoundedCheck,
    pool: &'a [(RelId, Tuple)],
}

/// The (resumable) sequential bounded extension search. `start_size` and
/// `committed` come from a prior installment's checkpoint (size 1 and empty
/// stats for a fresh run): the meter is primed with the committed ticks and
/// the checker with the committed totals, so the search rejects — and
/// reports — at exactly the point an uninterrupted run at the same budget
/// would. `probes_offset` is the caller's setup probe count plus any probes
/// committed by earlier installments; the emitted `index.probe` counter is
/// `probes_offset` + this call's own probes, keeping the counter
/// installment-independent. Returns the resume point alongside the verdict
/// when the search stopped on a budget-like limit.
fn bounded_search_sequential(
    search: &BoundedSearch<'_>,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    start_size: usize,
    committed: &ChunkStats,
    probes_offset: u64,
) -> Result<(Verdict, Option<BoundedResume>), RcError> {
    let pool = search.pool;
    let entry_probes = probe_count();
    let mut meter = Meter::guarded_primed(
        MeterKind::Candidates,
        budget.max_candidates,
        committed.ticks,
        guard,
    );
    let mut checker = BoundedChecker::new(search, committed);
    let mut ledger = *committed;
    let mut frontier = None;

    let span = probe.span("semidecide.extension_search");
    let mut verdict = None;
    let mut chosen: Vec<usize> = Vec::with_capacity(budget.max_delta_tuples.min(pool.len()));
    for size in start_size..=budget.max_delta_tuples.min(pool.len()) {
        let found = choose(pool, 0, size, &mut chosen, &mut meter, &mut |subset| {
            checker.check(subset)
        })?;
        match found {
            ChooseOutcome::Found(ce) => {
                verdict = Some(Verdict::Incomplete(ce));
                break;
            }
            ChooseOutcome::Budget => {
                let detail = match meter.interrupt() {
                    Some(interrupt) => {
                        probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
                        meter.stop_detail("candidate")
                    }
                    None => format!(
                        "bounded search: candidate budget {} exhausted at extension \
                         size {size}",
                        meter.limit()
                    ),
                };
                let max = budget.max_delta_tuples.min(pool.len());
                probe.note("explain.frontier", || {
                    format!(
                        "bounded search stopped at extension size {size}/{max}; \
                         remaining subsets of size {size} and all larger sizes unexplored"
                    )
                });
                verdict = Some(Verdict::unknown(
                    SearchStats::new(meter.stop_limit(BudgetLimit::MaxCandidates), detail)
                        .with_candidates(meter.used()),
                ));
                frontier = Some(BoundedResume {
                    next_size: size,
                    stats: ledger,
                });
                break;
            }
            ChooseOutcome::Exhausted => {
                // Commit this fully-searched size: the cumulative totals are
                // what a resumed installment primes its meter and checker
                // with.
                let probes = committed.probes + probe_count().saturating_sub(entry_probes);
                ledger = checker.stats(meter.used(), probes);
            }
        }
    }
    drop(span);
    probe.count("semidecide.candidates", meter.used());
    probe.count("semidecide.cc_checks", checker.cc_checks);
    probe.count("semidecide.query_evals", 1 + checker.query_evals);
    probe.count("cc.skipped_by_delta", checker.cc_skipped);
    // Thread-local counter: exact even when other threads probe concurrently.
    probe.count(
        "index.probe",
        probes_offset + probe_count().saturating_sub(entry_probes),
    );
    let verdict = verdict.unwrap_or_else(|| {
        Verdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxDeltaTuples,
                format!(
                    "bounded search: no violating extension with ≤ {} tuple(s) over {} \
                     candidate tuple(s) ({} fresh value(s))",
                    budget.max_delta_tuples.min(pool.len()),
                    pool.len(),
                    budget.fresh_values
                ),
            )
            .with_candidates(meter.used()),
        )
    });
    Ok((verdict, frontier))
}

/// The bounded extension search, sharded across the worker pool: for each
/// extension size, one chunk per choice of the subset's *first* pool index.
/// Chunk `i`'s subtree enumerates exactly the subsets the sequential
/// [`choose`] visits after pushing `i` first, so concatenating the chunks in
/// index order reproduces the sequential candidate order and the
/// first-terminal-by-index merge keeps the verdict schedule-independent. A
/// decider error inside a chunk rides the `Hit` channel as `Err`, so the
/// earliest erroring/finding chunk — the one the sequential engine would
/// have reached first — decides.
///
/// Resumable at size granularity: `start_size`/`committed` skip the sizes an
/// earlier installment fully searched, and the per-size `remaining` budget is
/// derived from the committed ticks exactly as an uninterrupted run would. A
/// chunk lost twice (panic plus failed quarantine retry, see
/// [`par::run_chunks_recovering`]) downgrades the rest of the decision to
/// the sequential driver, re-running the failed size from its start —
/// verdict- and witness-sound, though the sequential meter's death point may
/// differ from the parallel slicing's.
fn rcdp_bounded_parallel(
    search: &BoundedSearch<'_>,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    probes_before: u64,
    start_size: usize,
    committed: &ChunkStats,
) -> Result<(Verdict, Option<BoundedResume>), RcError> {
    use crate::par::{self, ChunkEvent, ChunkResult, PoolOutcome};

    let pool = search.pool;
    // Probes issued while building the check mode, active domain, and pool —
    // the sequential path counts them too, before its enumeration begins.
    let setup_probes = probe_count().saturating_sub(probes_before);
    let mut totals = *committed;
    let mut ledger = *committed;
    let mut executed = 0u64;
    let mut steals = 0u64;
    let mut verdict = None;
    let mut frontier = None;

    let span = probe.span("semidecide.extension_search");
    let max_size = budget.max_delta_tuples.min(pool.len());
    for size in start_size..=max_size {
        let remaining = budget.max_candidates.saturating_sub(totals.ticks);
        if remaining == 0 {
            verdict = Some(Verdict::unknown(
                SearchStats::new(
                    BudgetLimit::MaxCandidates,
                    format!(
                        "bounded search: candidate budget {} exhausted at extension \
                         size {size}",
                        budget.max_candidates
                    ),
                )
                .with_candidates(totals.ticks),
            ));
            frontier = Some(BoundedResume {
                next_size: size,
                stats: ledger,
            });
            break;
        }
        // Subsets of `size` tuples whose smallest pool index is `i` exist
        // for i ≤ pool.len() - size.
        let n_chunks = pool.len() - size + 1;
        let job = |idx: usize, wguard: &Guard| -> ChunkResult<Result<CounterExample, RcError>> {
            let worker_probes_before = probe_count();
            let mut meter = Meter::guarded(
                MeterKind::Candidates,
                par::chunk_budget(remaining, n_chunks, idx),
                wguard,
            );
            let mut checker = BoundedChecker::new(search, &ChunkStats::default());
            let mut chosen: Vec<usize> = Vec::with_capacity(size);
            chosen.push(idx);
            let found = choose(
                pool,
                idx + 1,
                size - 1,
                &mut chosen,
                &mut meter,
                &mut |subset| checker.check(subset),
            );
            let (event, value) = match found {
                Ok(ChooseOutcome::Found(ce)) => (ChunkEvent::Hit, Some(Ok(ce))),
                Ok(ChooseOutcome::Budget) => match meter.interrupt() {
                    Some(interrupt) => (ChunkEvent::Interrupted(interrupt), None),
                    None => (ChunkEvent::Exhausted, None),
                },
                Ok(ChooseOutcome::Exhausted) => (ChunkEvent::Clear, None),
                Err(e) => (ChunkEvent::Hit, Some(Err(e))),
            };
            ChunkResult {
                event,
                value,
                stats: checker.stats(
                    meter.used(),
                    probe_count().saturating_sub(worker_probes_before),
                ),
            }
        };
        let recovered = par::run_chunks_recovering(budget.engine.workers(), n_chunks, guard, &job);
        probe.count("recover.chunk", recovered.recovered);
        if !recovered.lost.is_empty() {
            // Degradation ladder: quarantine retry failed too. Commit the
            // fully-searched sizes and finish sequentially, re-running the
            // failed size from its start.
            probe.count("degrade.chunk", recovered.lost.len() as u64);
            probe.note("degrade.engine", || {
                format!(
                    "parallel engine lost {} chunk(s) after quarantine retry; \
                     downgrading to the sequential indexed engine",
                    recovered.lost.len()
                )
            });
            executed += recovered.run.executed;
            steals += recovered.run.steals;
            drop(span);
            probe.count("par.chunk", executed);
            probe.count("par.steal", steals);
            return bounded_search_sequential(
                search,
                budget,
                guard,
                probe,
                size,
                &ledger,
                setup_probes + ledger.probes,
            );
        }
        let run = recovered.run;
        if probe.trace().is_some() {
            for entry in &run.timeline {
                let e = *entry;
                probe.note("par.timeline", || {
                    format!(
                        "worker {} chunk {} {}..{}us",
                        e.worker, e.chunk, e.start_micros, e.end_micros
                    )
                });
            }
        }
        let merged = run.merge_search();
        totals.absorb(&merged.stats);
        executed += merged.executed;
        steals += merged.steals;
        match merged.outcome {
            PoolOutcome::Clear => {
                // Commit this fully-searched size for the resume frontier.
                ledger = totals;
                continue;
            }
            PoolOutcome::Hit(Ok(ce)) => {
                verdict = Some(Verdict::Incomplete(ce));
            }
            PoolOutcome::Hit(Err(e)) => return Err(e),
            PoolOutcome::Exhausted => {
                let deciding = merged.deciding;
                probe.note("explain.frontier", || {
                    let at = deciding.map_or(n_chunks, |k| k + 1);
                    format!(
                        "bounded search stopped at extension size {size}/{max_size} \
                         (chunk {at}/{n_chunks}); larger sizes unexplored"
                    )
                });
                verdict = Some(Verdict::unknown(
                    SearchStats::new(
                        BudgetLimit::MaxCandidates,
                        format!(
                            "bounded search: candidate budget {} exhausted at extension \
                             size {size}",
                            budget.max_candidates
                        ),
                    )
                    .with_candidates(totals.ticks),
                ));
                frontier = Some(BoundedResume {
                    next_size: size,
                    stats: ledger,
                });
            }
            PoolOutcome::Interrupted(interrupt) => {
                probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
                let deciding = merged.deciding;
                probe.note("explain.frontier", || {
                    let at = deciding.map_or(n_chunks, |k| k + 1);
                    format!(
                        "bounded search interrupted at extension size {size}/{max_size} \
                         (chunk {at}/{n_chunks}); larger sizes unexplored"
                    )
                });
                verdict = Some(Verdict::unknown(
                    SearchStats::new(
                        interrupt.limit(),
                        par::interrupt_detail(interrupt, totals.ticks, "candidate"),
                    )
                    .with_candidates(totals.ticks),
                ));
                frontier = Some(BoundedResume {
                    next_size: size,
                    stats: ledger,
                });
            }
        }
        break;
    }
    drop(span);
    probe.count("par.chunk", executed);
    probe.count("par.steal", steals);
    probe.count("semidecide.candidates", totals.ticks);
    probe.count("semidecide.cc_checks", totals.cc_checks);
    probe.count("semidecide.query_evals", 1 + totals.query_evals);
    probe.count("cc.skipped_by_delta", totals.cc_skipped);
    probe.count("index.probe", setup_probes + totals.probes);
    let verdict = verdict.unwrap_or_else(|| {
        Verdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxDeltaTuples,
                format!(
                    "bounded search: no violating extension with ≤ {} tuple(s) over {} \
                     candidate tuple(s) ({} fresh value(s))",
                    budget.max_delta_tuples.min(pool.len()),
                    pool.len(),
                    budget.fresh_values
                ),
            )
            .with_candidates(totals.ticks),
        )
    });
    Ok((verdict, frontier))
}

enum ChooseOutcome {
    Found(CounterExample),
    Budget,
    Exhausted,
}

fn choose(
    pool: &[(RelId, Tuple)],
    start: usize,
    remaining: usize,
    chosen: &mut Vec<usize>,
    meter: &mut Meter<'_>,
    check: &mut impl FnMut(&[usize]) -> Result<Option<CounterExample>, RcError>,
) -> Result<ChooseOutcome, RcError> {
    if remaining == 0 {
        if !meter.tick() {
            return Ok(ChooseOutcome::Budget);
        }
        if let Some(ce) = check(chosen)? {
            return Ok(ChooseOutcome::Found(ce));
        }
        return Ok(ChooseOutcome::Exhausted);
    }
    for i in start..pool.len() {
        chosen.push(i);
        let outcome = choose(pool, i + 1, remaining - 1, chosen, meter, check)?;
        chosen.pop();
        match outcome {
            ChooseOutcome::Exhausted => {}
            other => return Ok(other),
        }
    }
    Ok(ChooseOutcome::Exhausted)
}

/// Bounded RCQP for undecidable language combinations: search small candidate
/// databases; a candidate that survives [`rcdp_bounded`] within budget is
/// reported (as evidence, not proof) in the `Unknown` description; finding a
/// certified violating extension for *every* candidate is likewise not a
/// proof of emptiness, because the candidate space is unbounded.
pub fn rcqp_bounded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
) -> Result<QueryVerdict, RcError> {
    rcqp_bounded_probed(setting, query, budget, Probe::disabled())
}

/// [`rcqp_bounded`] with a telemetry probe attached.
pub fn rcqp_bounded_probed(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<QueryVerdict, RcError> {
    rcqp_bounded_guarded(setting, query, budget, &Guard::new(budget), probe)
}

/// [`rcqp_bounded`] with an explicit [`Guard`] and a telemetry probe.
pub fn rcqp_bounded_guarded(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<QueryVerdict, RcError> {
    let probe = probe.with_ticks(guard);
    let verdict = rcqp_bounded_inner(setting, query, budget, guard, probe, None)?;
    crate::rcqp::emit_query_verdict(probe, &verdict);
    Ok(verdict)
}

/// The bounded RCQP search without the outcome note. `reuse` is a
/// pre-built upper-bound preparation; without one, `V` is compiled once, at
/// the first partially closed candidate, and every candidate's refutation
/// search shares it (plans fix join order only, so the statistics they were
/// costed against never change a verdict).
pub(crate) fn rcqp_bounded_inner(
    setting: &Setting,
    query: &Query,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
) -> Result<QueryVerdict, RcError> {
    let empty = Database::empty(&setting.schema);
    let adom = Adom::build(&empty, setting, query, budget.fresh_values);
    let mut values = adom.constants.clone();
    values.extend(adom.fresh.iter().cloned());
    probe.gauge("semidecide.adom_size", values.len() as u64);
    if pool_estimate(setting, values.len()) > MAX_POOL {
        return Ok(QueryVerdict::unknown(SearchStats::new(
            BudgetLimit::PoolBound,
            format!("candidate tuple space exceeds {MAX_POOL}"),
        )));
    }
    let pool = tuple_pool(setting, &empty, &values);
    probe.gauge("semidecide.pool_size", pool.len() as u64);
    let mut meter = Meter::guarded(MeterKind::Candidates, budget.max_candidates, guard);
    let cc_checks = Cell::new(0u64);
    let mut upper = reuse.cloned();

    let span = probe.span("semidecide.candidate_search");
    let mut verdict = None;
    let max_size = budget.max_delta_tuples.min(pool.len());
    'sizes: for size in 0..=max_size {
        let mut chosen: Vec<usize> = Vec::with_capacity(size);
        let mut survivor: Option<Database> = None;
        let outcome = choose(
            &pool,
            0,
            size,
            &mut chosen,
            &mut meter,
            &mut |subset: &[usize]| -> Result<Option<CounterExample>, RcError> {
                let mut db = Database::with_relations(setting.schema.len());
                for &i in subset {
                    let (rel, t) = &pool[i];
                    db.insert(*rel, t.clone());
                }
                cc_checks.set(cc_checks.get() + 1);
                if !setting.partially_closed(&db)? {
                    return Ok(None);
                }
                // The per-candidate refutation runs unprobed: thousands of
                // candidates would flood the sink with inner-search events;
                // the outer meter already accounts for the work. The guard is
                // shared so a deadline covers the inner searches too.
                if upper.is_none() && budget.engine.indexed() {
                    upper = Some(prepare_upper(setting, &db, budget.engine)?);
                }
                let refuted = bounded_decide(
                    setting,
                    query,
                    &db,
                    budget,
                    guard,
                    Probe::disabled(),
                    upper.as_ref(),
                    None,
                )?;
                if let (Verdict::Unknown { .. }, _) = refuted {
                    // An Unknown caused by a guard trip is not evidence that
                    // the candidate survived — the refutation search was cut
                    // short. Report nothing; the tripped guard ends the outer
                    // enumeration at its next tick.
                    if guard.tripped().is_some() {
                        return Ok(None);
                    }
                    // No refutation within bound: treat as a survivor and
                    // abuse the Found channel to stop the search.
                    survivor = Some(db);
                    return Ok(Some(CounterExample {
                        delta: Database::with_relations(setting.schema.len()),
                        new_answer: Tuple::unit(),
                    }));
                }
                Ok(None)
            },
        )?;
        match outcome {
            ChooseOutcome::Found(_) => {
                let db = survivor.unwrap_or_else(|| unreachable!("survivor is set before Found"));
                verdict = Some(QueryVerdict::unknown(
                    SearchStats::new(
                        BudgetLimit::MaxDeltaTuples,
                        format!(
                            "undecidable combination: candidate with {} tuple(s) not refuted \
                             within extension bound {} (evidence only)",
                            db.tuple_count(),
                            budget.max_delta_tuples
                        ),
                    )
                    .with_candidates(meter.used()),
                ));
                break 'sizes;
            }
            ChooseOutcome::Budget => {
                let detail = match meter.interrupt() {
                    Some(interrupt) => {
                        probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
                        meter.stop_detail("candidate")
                    }
                    None => "candidate budget exhausted".to_string(),
                };
                probe.note("explain.frontier", || {
                    format!(
                        "candidate search stopped at database size {size}/{max_size}; \
                         remaining candidates of size {size} and all larger sizes unexplored"
                    )
                });
                verdict = Some(QueryVerdict::unknown(
                    SearchStats::new(meter.stop_limit(BudgetLimit::MaxCandidates), detail)
                        .with_candidates(meter.used()),
                ));
                break 'sizes;
            }
            ChooseOutcome::Exhausted => {}
        }
    }
    drop(span);
    probe.count("semidecide.candidates", meter.used());
    probe.count("semidecide.cc_checks", cc_checks.get());
    // A trip inside the very last candidate's inner refutation leaves the
    // outer loop "exhausted" without another tick to observe it; the blanket
    // claim below would then overstate coverage.
    if verdict.is_none() {
        if let Some(interrupt) = guard.tripped() {
            probe.interrupt("semidecide.interrupt", interrupt.name(), guard.ticks());
            verdict = Some(QueryVerdict::unknown(
                SearchStats::new(
                    interrupt.limit(),
                    match interrupt {
                        crate::guard::Interrupt::Deadline => format!(
                            "wall-clock deadline expired after {} candidate(s)",
                            meter.used()
                        ),
                        crate::guard::Interrupt::Cancelled => {
                            format!("cancelled after {} candidate(s)", meter.used())
                        }
                    },
                )
                .with_candidates(meter.used()),
            ));
        }
    }
    Ok(verdict.unwrap_or_else(|| {
        QueryVerdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxDeltaTuples,
                format!(
                    "undecidable combination: every candidate database with ≤ {max_size} \
                     tuple(s) was refuted within the extension bound"
                ),
            )
            .with_candidates(meter.used()),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::ConstraintSet;
    use ric_data::{RelationSchema, Schema};
    use ric_query::{parse_program, FoExpr, FoQuery, Term, Var};

    fn edge_schema() -> Schema {
        Schema::from_relations(vec![RelationSchema::infinite("E", &["a", "b"])]).unwrap()
    }

    #[test]
    fn fp_query_incompleteness_found() {
        // Transitive closure query on an open-world edge relation: adding an
        // edge changes the answer, so any finite DB is incomplete; the
        // bounded search certifies this.
        let schema = edge_schema();
        let setting = Setting::open_world(schema.clone());
        let p = parse_program(
            &schema,
            "Tc(X,Y) :- E(X,Y). Tc(X,Y) :- E(X,Z), Tc(Z,Y).",
            "Tc",
        )
        .unwrap();
        let q: Query = p.into();
        let db = Database::empty(&schema);
        let verdict = crate::rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match verdict {
            Verdict::Incomplete(ce) => {
                assert!(crate::rcdp::certify_counterexample(&setting, &q, &db, &ce).unwrap());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn fo_query_with_blocking_constraint_reports_unknown() {
        // Q := ∀x∀y ¬E(x,y) (emptiness of E) with a CC forbidding any E
        // tuple: no extension is allowed, so the bounded search finds no
        // counterexample and honestly reports Unknown.
        let schema = edge_schema();
        let e = schema.rel_id("E").unwrap();
        let (x, y) = (Var(0), Var(1));
        let fo = FoQuery::new(
            vec![],
            FoExpr::Forall(
                vec![x, y],
                Box::new(FoExpr::not(FoExpr::Atom(ric_query::Atom::new(
                    e,
                    vec![Term::Var(x), Term::Var(y)],
                )))),
            ),
            vec!["x".into(), "y".into()],
        );
        let block = ric_query::parse_cq(&schema, "Q(X, Y) :- E(X, Y).").unwrap();
        let v = ConstraintSet::new(vec![ric_constraints::ContainmentConstraint::into_empty(
            ric_constraints::CcBody::Cq(block),
        )]);
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let db = Database::empty(&schema);
        let verdict = crate::rcdp(&setting, &Query::Fo(fo), &db, &SearchBudget::small()).unwrap();
        match verdict {
            Verdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn fo_query_answer_can_shrink() {
        // Q(x) := E(x,x) ∧ ∀y ¬E(x,y) is non-monotone-ish; simpler: Q :=
        // ¬∃x E(x,x). Adding a loop removes the empty-tuple answer.
        let schema = edge_schema();
        let e = schema.rel_id("E").unwrap();
        let x = Var(0);
        let fo = FoQuery::new(
            vec![],
            FoExpr::not(FoExpr::Exists(
                vec![x],
                Box::new(FoExpr::Atom(ric_query::Atom::new(
                    e,
                    vec![Term::Var(x), Term::Var(x)],
                ))),
            )),
            vec!["x".into()],
        );
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(e, Tuple::new([Value::int(1), Value::int(2)]));
        let verdict = crate::rcdp(
            &setting,
            &Query::Fo(fo.clone()),
            &db,
            &SearchBudget::default(),
        )
        .unwrap();
        match verdict {
            Verdict::Incomplete(ce) => {
                // The distinguishing tuple is the unit tuple leaving the
                // answer set.
                assert_eq!(ce.new_answer, Tuple::unit());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn tuple_pool_respects_finite_domains_and_db() {
        let schema = Schema::from_relations(vec![RelationSchema::new(
            "B",
            vec![ric_data::Attribute::boolean("x")],
        )])
        .unwrap();
        let b = schema.rel_id("B").unwrap();
        let setting = Setting::open_world(schema.clone());
        let mut db = Database::empty(&schema);
        db.insert(b, Tuple::new([Value::int(0)]));
        let pool = tuple_pool(&setting, &db, &[Value::int(42)]);
        // Only (1) remains: (0) is in db and 42 is outside the domain.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].1, Tuple::new([Value::int(1)]));
    }

    #[test]
    fn rcqp_bounded_reports_unknown_with_evidence() {
        let schema = edge_schema();
        let setting = Setting::open_world(schema.clone());
        let p = parse_program(
            &schema,
            "Tc(X,Y) :- E(X,Y). Tc(X,Y) :- E(X,Z), Tc(Z,Y).",
            "Tc",
        )
        .unwrap();
        let verdict = rcqp_bounded(&setting, &Query::Fp(p), &SearchBudget::small()).unwrap();
        match verdict {
            QueryVerdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
