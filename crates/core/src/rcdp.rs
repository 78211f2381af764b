//! RCDP — the *relatively complete database* problem (Section 3).
//!
//! Given `Q`, `(D_m, V)`, and a partially closed `D`, decide whether
//! `D ∈ RCQ(Q, D_m, V)`. For `L_Q, L_C` among INDs/CQ/UCQ/∃FO⁺ the decision
//! is exact and follows the paper's characterizations:
//!
//! > `D` is complete iff for every valid valuation `μ` of a disjunct tableau
//! > `(T_i, u_i)` over `Adom`: `(D ∪ μ(T_i), D_m) |= V  ⇒  μ(u_i) ∈ Q(D)`.
//!
//! This folds C1 and C2 (Proposition 3.3: when `Q(D) = ∅` the right-hand side
//! is unsatisfiable, giving C1), C3 (Corollary 3.4: for INDs,
//! `(D ∪ μ(T), D_m) |= V` simplifies to `(μ(T), D_m) |= V` because `D` is
//! partially closed and projections distribute over unions), and the
//! per-disjunct reading of C4 (Corollary 3.5: CC satisfaction with monotone
//! bodies is inherited by sub-extensions, so a UCQ extension changes the
//! answer iff some single disjunct instantiation does).
//!
//! When `L_Q` or `L_C` is FO or FP the problem is undecidable (Theorem 3.1);
//! [`rcdp`] automatically falls back to the bounded extension search of
//! [`crate::semidecide`], which can certify incompleteness but reports
//! `Unknown` otherwise.

use crate::adom::Adom;
use crate::budget::{Engine, Meter, MeterKind, SearchBudget};
use crate::guard::Guard;
use crate::par::CC_ATTR;
use crate::query::Query;
use crate::setting::Setting;
use crate::valuations::{Candidates, DepthProfile, EnumOutcome, SplitPoint, ValuationSpace};
use crate::verdict::{BudgetLimit, CounterExample, RcError, SearchStats, Verdict};
use ric_constraints::{PreparedInds, PreparedUpper};
use ric_data::{index::probe_count, Database, DeltaBuf, Overlay, Tuple, Value};
use ric_query::QueryLanguage;
use ric_telemetry::Probe;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// How the inner loop checks `(D ∪ Δ, D_m) |= V` per candidate.
pub(crate) enum CheckMode {
    /// IND constraint sets: projections distribute over unions and `D` is
    /// partially closed, so checking `Δ` alone is equivalent (C3).
    IndOnly(PreparedInds),
    /// Materialize `D ∪ Δ` and re-check every constraint (naive engine).
    Union,
    /// Overlay `D ∪ Δ` and re-check only what the novel tuples can break.
    /// Shared (`Arc`) so a [`crate::PreparedSetting`] can compile once and
    /// hand the same preparation to every decision.
    Delta(Arc<PreparedUpper>),
}

impl CheckMode {
    /// Pick the mode for this decision. The delta mode's precondition —
    /// upper bounds hold on the base — is the partial-closure input
    /// requirement, verified by the callers. `db` supplies the statistics
    /// the planned engine compiles its join orders from.
    pub(crate) fn select(
        setting: &Setting,
        engine: Engine,
        db: &Database,
    ) -> Result<CheckMode, RcError> {
        Self::select_reusing(setting, engine, db, None)
    }

    /// [`Self::select`] with an optional pre-built preparation (the
    /// prepared-decision path): when `reuse` is given and the decision wants
    /// the delta mode, the shared preparation is cloned instead of
    /// recompiled.
    pub(crate) fn select_reusing(
        setting: &Setting,
        engine: Engine,
        db: &Database,
        reuse: Option<&Arc<PreparedUpper>>,
    ) -> Result<CheckMode, RcError> {
        if let Some(inds) = PreparedInds::new(&setting.v, &setting.dm) {
            Ok(CheckMode::IndOnly(inds))
        } else if !engine.indexed() {
            Ok(CheckMode::Union)
        } else if let Some(prep) = reuse {
            Ok(CheckMode::Delta(Arc::clone(prep)))
        } else if engine.is_planned() {
            Ok(CheckMode::Delta(Arc::new(PreparedUpper::with_plans(
                &setting.v,
                &setting.schema,
                &setting.dm,
                db,
            )?)))
        } else {
            Ok(CheckMode::Delta(Arc::new(PreparedUpper::new(
                &setting.v,
                &setting.schema,
                &setting.dm,
            )?)))
        }
    }

    /// The shared preparation backing the delta mode, if any.
    pub(crate) fn prepared(&self) -> Option<&Arc<PreparedUpper>> {
        match self {
            CheckMode::Delta(prep) => Some(prep),
            _ => None,
        }
    }

    /// Is `(D ∪ Δ, D_m) |= V` for the delta overlaid on `db`? Reports the
    /// index of the first violated constraint (`None` = satisfied) and counts
    /// skipped constraints into `cc_skipped`. Every strategy evaluates the
    /// constraints in set order and short-circuits on the first violation,
    /// so the search profiler's `prune.cc.NN` attribution counters key on
    /// the result without perturbing any other counter.
    fn upper_check(
        &self,
        setting: &Setting,
        db: &Database,
        delta: &mut DeltaBuf,
        cc_skipped: &mut u64,
    ) -> Option<usize> {
        let invalid = |e: &dyn std::fmt::Debug| -> ! {
            unreachable!("constraint bodies validated by the precondition check: {e:?}")
        };
        match self {
            CheckMode::IndOnly(inds) => inds.first_violated(delta),
            CheckMode::Union => {
                let extended = db
                    .union(&delta.to_database())
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                setting
                    .v
                    .first_violated_upper(&extended, &setting.dm)
                    .unwrap_or_else(|e| invalid(&e))
            }
            CheckMode::Delta(prepared) => {
                let ov = Overlay::over_buf(db, delta)
                    .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
                let res = prepared
                    .satisfied_delta(&setting.v, &ov)
                    .unwrap_or_else(|e| invalid(&e));
                *cc_skipped += res.skipped as u64;
                res.violated
            }
        }
    }
}

/// The per-candidate work of every valuation search: instantiate the atoms
/// a binding has fully bound into one reused [`DeltaBuf`] and check them
/// against the upper bounds. Steady state, a candidate allocates nothing:
/// the buffer's tuple slots, the head buffer and the plan executor's binding
/// array are all reused, and values are decoded only to fill the delta.
pub(crate) struct CandidateChecker<'d> {
    setting: &'d Setting,
    db: &'d Database,
    mode: &'d CheckMode,
    delta: DeltaBuf,
    /// The candidate answer `μ(u)`, for borrowed lookups in `Q(D)`.
    head: Vec<Value>,
    pub(crate) cc_checks: u64,
    pub(crate) cc_skipped: u64,
    /// `prune.cc.NN` attribution: rejections by first violated constraint.
    pub(crate) cc_viol: [u64; CC_ATTR],
}

impl<'d> CandidateChecker<'d> {
    pub(crate) fn new(setting: &'d Setting, db: &'d Database, mode: &'d CheckMode) -> Self {
        CandidateChecker {
            setting,
            db,
            mode,
            delta: DeltaBuf::new(setting.schema.len()),
            head: Vec::new(),
            cc_checks: 0,
            cc_skipped: 0,
            cc_viol: [0; CC_ATTR],
        }
    }

    /// Fill the delta with the atoms of `space` that `binding` binds fully
    /// (constants-only atoms always qualify). Returns whether any did.
    pub(crate) fn fill(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> bool {
        self.delta.clear();
        let mut any = false;
        for (rel, args) in space.atoms() {
            if args
                .iter()
                .all(|s| s.code(binding) != crate::valuations::UNBOUND)
            {
                self.delta
                    .insert_with(*rel, args.len(), |i| space.slot_value(args[i], binding));
                any = true;
            }
        }
        any
    }

    /// Check the filled delta: the first violated upper bound, if any. Counts
    /// one CC check and attributes a violation to its constraint. Upper
    /// bounds only: lower bounds hold on `D` and are preserved by extension
    /// (monotone bodies).
    pub(crate) fn check(&mut self) -> Option<usize> {
        self.cc_checks += 1;
        let violated =
            self.mode
                .upper_check(self.setting, self.db, &mut self.delta, &mut self.cc_skipped);
        if let Some(i) = violated {
            self.cc_viol[i.min(CC_ATTR - 1)] += 1;
        }
        violated
    }

    /// Decode the candidate answer `μ(u)` into the reused head buffer.
    fn load_head(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) {
        self.head.clear();
        self.head.extend(
            space
                .head()
                .iter()
                .map(|&s| space.slot_value(s, binding).clone()),
        );
    }

    /// Is the candidate answer `μ(u)` already in `q_d`? Looked up by a
    /// borrowed key, so no tuple is built.
    fn answered(
        &mut self,
        space: &ValuationSpace<'_>,
        binding: &[u32],
        q_d: &BTreeSet<Tuple>,
    ) -> bool {
        self.load_head(space, binding);
        q_d.contains(&self.head[..])
    }

    /// The filled delta, minus what `D` already holds, as a witness.
    fn counterexample(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> CounterExample {
        self.load_head(space, binding);
        let delta = self
            .delta
            .to_database()
            .difference(self.db)
            .unwrap_or_else(|e| unreachable!("delta shares the setting schema: {e:?}"));
        CounterExample {
            delta,
            new_answer: Tuple::new(self.head.iter().cloned()),
        }
    }
}

/// The exact search of one decision (Theorem 3.6): a valid valuation `μ` is
/// a counterexample when `μ(u)` is a new answer and `(D ∪ μ(T), D_m) |= V`.
/// One instance serves every disjunct and every chunk a thread runs.
pub(crate) struct ExactSearch<'d> {
    checker: CandidateChecker<'d>,
    q_d: &'d BTreeSet<Tuple>,
    found: Option<CounterExample>,
}

impl<'d> ExactSearch<'d> {
    pub(crate) fn new(
        setting: &'d Setting,
        db: &'d Database,
        mode: &'d CheckMode,
        q_d: &'d BTreeSet<Tuple>,
    ) -> Self {
        ExactSearch {
            checker: CandidateChecker::new(setting, db, mode),
            q_d,
            found: None,
        }
    }
}

impl Candidates for ExactSearch<'_> {
    /// Prune: if the candidate output tuple is already answered, no
    /// valuation with these head values is a counterexample.
    fn head(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> bool {
        !self.checker.answered(space, binding, self.q_d)
    }

    /// Prune subtrees whose already-instantiated tuples violate V:
    /// constraint bodies are monotone, so the violation persists in every
    /// completion.
    fn partial(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> bool {
        !self.checker.fill(space, binding) || self.checker.check().is_none()
    }

    fn leaf(&mut self, space: &ValuationSpace<'_>, binding: &[u32]) -> ControlFlow<()> {
        self.checker.fill(space, binding);
        if self.checker.check().is_some() {
            return ControlFlow::Continue(());
        }
        self.found = Some(self.checker.counterexample(space, binding));
        ControlFlow::Break(())
    }
}

/// Stable counter names for pruning attribution by containment-constraint
/// index: `prune.cc.NN` counts candidate rejections whose first violated
/// constraint was `V[NN]` (slot 15 absorbs larger sets).
pub(crate) const PRUNE_CC: [&str; CC_ATTR] = [
    "prune.cc.00",
    "prune.cc.01",
    "prune.cc.02",
    "prune.cc.03",
    "prune.cc.04",
    "prune.cc.05",
    "prune.cc.06",
    "prune.cc.07",
    "prune.cc.08",
    "prune.cc.09",
    "prune.cc.10",
    "prune.cc.11",
    "prune.cc.12",
    "prune.cc.13",
    "prune.cc.14",
    "prune.cc.15",
];

/// Emit nonzero `prune.cc.NN` attribution counters.
pub(crate) fn emit_cc_attribution(probe: Probe<'_>, viol: &[u64; CC_ATTR]) {
    for (name, &v) in PRUNE_CC.iter().zip(viol) {
        probe.count(name, v);
    }
}

/// Is the language exactly decidable by the Σᵖ₂ procedure?
pub(crate) fn exactly_decidable(l: QueryLanguage) -> bool {
    matches!(
        l,
        QueryLanguage::Inds | QueryLanguage::Cq | QueryLanguage::Ucq | QueryLanguage::EfoPlus
    )
}

/// Decide RCDP. Dispatches to the exact Σᵖ₂ decider when both `L_Q` and
/// `L_C` avoid negation and recursion, and to the bounded semi-decision
/// procedure otherwise.
///
/// Errors if `D` is not partially closed with respect to `(D_m, V)` — both
/// decision problems take partially closed databases as input.
pub fn rcdp(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, RcError> {
    rcdp_probed(setting, query, db, budget, Probe::disabled())
}

/// [`rcdp`] with a telemetry probe attached: reports the dispatch strategy,
/// active-domain size, valuations enumerated, CC checks, query evaluations,
/// per-phase wall time, and the outcome (see the crate-level Observability
/// notes).
pub fn rcdp_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`rcdp_probed`] under a caller-supplied [`Guard`], so one deadline and one
/// [`CancelToken`](crate::CancelToken) span this decision (and any nested
/// decider calls). This is the entry point the facade's cancellable API uses;
/// `rcdp`/`rcdp_probed` delegate here with a fresh guard built from the
/// budget.
pub fn rcdp_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_guarded_reusing(setting, query, db, budget, guard, probe, None)
}

/// [`rcdp_guarded`] with an optional pre-built upper-bound preparation from a
/// [`crate::PreparedSetting`]: when given, the exact and bounded paths reuse
/// the shared plans instead of recompiling them per decision.
pub(crate) fn rcdp_guarded_reusing(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
) -> Result<Verdict, RcError> {
    // The guard is the decision's deterministic timebase: spans opened below
    // carry tick deltas alongside wall-clock micros.
    let probe = probe.with_ticks(guard);
    validate_fp_bodies(setting, query)?;
    if !setting.partially_closed(db)? {
        return Err(RcError::NotPartiallyClosed);
    }
    if exactly_decidable(query.language()) && exactly_decidable(setting.v.language()) {
        probe.note("rcdp.strategy", || "exact".into());
        rcdp_exact_reusing(setting, query, db, budget, guard, probe, reuse)
    } else {
        probe.note("rcdp.strategy", || "bounded".into());
        crate::semidecide::rcdp_bounded_guarded_reusing(
            setting, query, db, budget, guard, probe, reuse,
        )
    }
}

/// The exact decider; callers must have verified the language combination
/// and partial closure. Exposed for the characterization cross-checks.
pub fn rcdp_exact(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
) -> Result<Verdict, RcError> {
    rcdp_exact_probed(setting, query, db, budget, Probe::disabled())
}

/// [`rcdp_exact`] with a telemetry probe attached.
pub fn rcdp_exact_probed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_exact_guarded(setting, query, db, budget, &Guard::new(budget), probe)
}

/// [`rcdp_exact`] under a caller-supplied [`Guard`].
pub fn rcdp_exact_guarded(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
) -> Result<Verdict, RcError> {
    rcdp_exact_reusing(setting, query, db, budget, guard, probe, None)
}

/// Emit `plan.*` telemetry for a planned-engine decision: compile/reuse,
/// static-fallback count, total estimated cost, the rendered plan note, and
/// the planned-vs-actual cardinality note (`plan.cards`) comparing the row
/// counts the planner costed against with the decision database `db`.
/// No-ops for every other engine so the indexed counter stream is untouched.
pub(crate) fn emit_plan_telemetry(
    probe: Probe<'_>,
    setting: &Setting,
    engine: Engine,
    prep: Option<&Arc<PreparedUpper>>,
    reused: bool,
    db: &Database,
) {
    if !engine.is_planned() {
        return;
    }
    let Some(prep) = prep else { return };
    let rel_name = |rel: ric_data::RelId| {
        setting
            .schema
            .relation(rel)
            .map(|r| r.name.clone())
            .unwrap_or_else(|_| format!("r{}", rel.0))
    };
    let (compiled, fallbacks, cost) = prep.plan_summary();
    if reused {
        probe.count("plan.reuse", 1);
    } else {
        probe.count("plan.compile", compiled as u64);
    }
    probe.count("plan.fallback", fallbacks as u64);
    probe.count("plan.cost", cost as u64);
    probe.note("plan.explain", || prep.render_plans(rel_name));
    probe.note("plan.cards", || {
        use ric_data::TupleStore;
        prep.planned_rows()
            .iter()
            .map(|&(rel, planned)| {
                format!(
                    "{} planned={planned} actual={}",
                    rel_name(rel),
                    db.rel_len(rel)
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    });
    // Export the planner's statistics as gauges so metrics snapshots carry
    // the row counts each plan was costed against, keyed by relation id like
    // the `prune.cc.NN` attribution family (gauges max-merge, and the
    // planning snapshot is fixed per preparation, so workers agree).
    for &(rel, planned) in prep.planned_rows() {
        let slot = rel.0.min(STATS_ROWS.len() - 1);
        probe.gauge(STATS_ROWS[slot], planned as u64);
    }
}

/// Stable gauge names for the planner's per-relation statistics by relation
/// id: `stats.rows.NN` is the row count relation `NN` reported to the
/// planner (slot 15 absorbs larger schemas, maximum wins).
pub(crate) const STATS_ROWS: [&str; 16] = [
    "stats.rows.00",
    "stats.rows.01",
    "stats.rows.02",
    "stats.rows.03",
    "stats.rows.04",
    "stats.rows.05",
    "stats.rows.06",
    "stats.rows.07",
    "stats.rows.08",
    "stats.rows.09",
    "stats.rows.10",
    "stats.rows.11",
    "stats.rows.12",
    "stats.rows.13",
    "stats.rows.14",
    "stats.rows.15",
];

/// [`rcdp_exact_guarded`] with an optional shared preparation (see
/// [`CheckMode::select_reusing`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rcdp_exact_reusing(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    reuse: Option<&Arc<PreparedUpper>>,
) -> Result<Verdict, RcError> {
    let probe = probe.with_ticks(guard);
    let Some(ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(format!(
            "exact RCDP requires a UCQ-expressible query, got {:?}",
            query.language()
        )));
    };
    let tableaux = ucq.tableaux()?;
    if tableaux.is_empty() {
        // Unsatisfiable query: every partially closed database is complete.
        probe.note("rcdp.outcome", || "complete".into());
        return Ok(Verdict::Complete);
    }
    let q_d: BTreeSet<Tuple> = query.eval(db)?;
    probe.count("rcdp.query_evals", 1);
    let n_fresh = tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let adom = Adom::build(db, setting, query, n_fresh);
    probe.gauge("rcdp.adom_size", adom.len() as u64);
    let mode = CheckMode::select_reusing(setting, budget.engine, db, reuse)?;
    emit_plan_telemetry(
        probe,
        setting,
        budget.engine,
        mode.prepared(),
        reuse.is_some(),
        db,
    );
    if budget.engine.sharded() {
        return rcdp_exact_parallel(
            setting, db, budget, guard, probe, &tableaux, &q_d, &adom, &mode,
        );
    }
    let mut meter = Meter::guarded(MeterKind::Valuations, budget.max_valuations, guard);
    let probes_before = probe_count();
    // One search for every disjunct: steady-state, a candidate costs index
    // probes and a few field writes, never an allocation.
    let mut search = ExactSearch::new(setting, db, &mode, &q_d);

    let span = probe.span("rcdp.enumerate");
    let mut verdict = Verdict::Complete;
    for (ti, t) in tableaux.iter().enumerate() {
        if !t.domain_consistent(&setting.schema) {
            // Constants outside finite domains: this disjunct matches no
            // valid tuple and cannot witness incompleteness.
            continue;
        }
        let space = ValuationSpace::new(t, &setting.schema, &adom);
        let outcome = space.enumerate_probed(probe, &mut meter, &mut search);
        match outcome {
            EnumOutcome::Stopped => {
                verdict =
                    Verdict::Incomplete(search.found.take().unwrap_or_else(|| {
                        unreachable!("found is set before the enumeration breaks")
                    }));
                break;
            }
            EnumOutcome::BudgetExceeded => {
                verdict = Verdict::unknown(
                    SearchStats::new(
                        meter.stop_limit(BudgetLimit::MaxValuations),
                        meter.stop_detail("valuation"),
                    )
                    .with_valuations(meter.used()),
                );
                if let Some(interrupt) = meter.interrupt() {
                    probe.interrupt("rcdp.interrupt", interrupt.name(), guard.ticks());
                }
                probe.note("explain.frontier", || {
                    format!(
                        "stopped in disjunct {}/{} after {} assignment(s); \
                         later disjuncts unexplored",
                        ti + 1,
                        tableaux.len(),
                        meter.used()
                    )
                });
                break;
            }
            EnumOutcome::Exhausted => {}
        }
    }
    drop(span);
    let checker = &search.checker;
    probe.count("rcdp.valuations", meter.used());
    probe.count("rcdp.cc_checks", checker.cc_checks);
    probe.count("cc.skipped_by_delta", checker.cc_skipped);
    // Thread-local counter: exact for this decision even when concurrent
    // decisions probe on other threads.
    probe.count("index.probe", probe_count().saturating_sub(probes_before));
    emit_cc_attribution(probe, &checker.cc_viol);
    emit_verdict(probe, &verdict);
    Ok(verdict)
}

/// The exact decider's enumeration, sharded across the worker pool: one
/// chunk per (tableau, depth-0 candidate) pair, concatenating — in chunk
/// index order — to exactly the sequence the sequential engine enumerates.
/// The merge is first-terminal-by-index, so the verdict and witness are
/// independent of thread count and interleaving; per-chunk stats summed up
/// to the deciding chunk reproduce the sequential telemetry counters.
#[allow(clippy::too_many_arguments)]
fn rcdp_exact_parallel(
    setting: &Setting,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    tableaux: &[ric_query::tableau::Tableau],
    q_d: &BTreeSet<Tuple>,
    adom: &Adom,
    mode: &CheckMode,
) -> Result<Verdict, RcError> {
    let (spaces, chunks) = exact_chunk_layout(tableaux, setting, adom);
    if chunks.is_empty() {
        let verdict = Verdict::Complete;
        emit_verdict(probe, &verdict);
        return Ok(verdict);
    }
    let (verdict, _) = exact_chunks_parallel(
        setting,
        db,
        budget,
        guard,
        probe,
        q_d,
        mode,
        &spaces,
        &chunks,
        BTreeMap::new(),
    );
    Ok(verdict)
}

/// The domain-consistent valuation spaces plus the `(space index, split
/// point)` chunk list derived from them.
type ExactChunkLayout<'a> = (Vec<ValuationSpace<'a>>, Vec<(usize, Option<SplitPoint>)>);

/// A resumable exact run's committed ledger: the number of frontier chunks
/// already settled and the per-chunk stats backing the checkpoint.
pub(crate) type ExactLedger = (usize, Vec<(usize, crate::par::ChunkStats)>);

/// The exact decider's canonical chunk decomposition: one chunk per depth-0
/// candidate of each domain-consistent disjunct's valuation space; a
/// zero-variable space is one unsplittable chunk. A space with no depth-0
/// candidates at all enumerates nothing and contributes no chunk (and no
/// metered ticks), exactly like the sequential loop. This list — and its
/// order — is shared by the parallel scheduler, the resumable sequential
/// driver, and the checkpoint frontier, so a chunk index means the same
/// thing in all three.
fn exact_chunk_layout<'a>(
    tableaux: &'a [ric_query::tableau::Tableau],
    setting: &'a Setting,
    adom: &'a Adom,
) -> ExactChunkLayout<'a> {
    let spaces: Vec<ValuationSpace> = tableaux
        .iter()
        .filter(|t| t.domain_consistent(&setting.schema))
        .map(|t| ValuationSpace::new(t, &setting.schema, adom))
        .collect();
    let mut chunks: Vec<(usize, Option<SplitPoint>)> = Vec::new();
    for (si, space) in spaces.iter().enumerate() {
        match space.split_points() {
            Some(points) => chunks.extend(points.into_iter().map(|p| (si, Some(p)))),
            None => chunks.push((si, None)),
        }
    }
    (spaces, chunks)
}

/// Enumerate one chunk of the exact search against `meter`, producing the
/// chunk-pool result shape. Used verbatim by the parallel job (per-chunk
/// meter slice) and the resumable sequential driver (one shared meter and
/// one search for every chunk), so the per-chunk work — and therefore the
/// committed checkpoint stats — are engine-independent.
fn run_exact_chunk(
    search: &mut ExactSearch<'_>,
    space: &ValuationSpace<'_>,
    point: Option<SplitPoint>,
    meter: &mut Meter<'_>,
) -> crate::par::ChunkResult<CounterExample> {
    use crate::par::{ChunkEvent, ChunkResult, ChunkStats};
    let used_before = meter.used();
    let probes_before = probe_count();
    let c = &search.checker;
    let (checks_before, skipped_before, viol_before) = (c.cc_checks, c.cc_skipped, c.cc_viol);
    let profile = DepthProfile::new();
    let outcome = space.enumerate(&profile, point, meter, search);
    let event = match outcome {
        EnumOutcome::Stopped => ChunkEvent::Hit,
        EnumOutcome::Exhausted => ChunkEvent::Clear,
        EnumOutcome::BudgetExceeded => match meter.interrupt() {
            Some(interrupt) => ChunkEvent::Interrupted(interrupt),
            None => ChunkEvent::Exhausted,
        },
    };
    let c = &search.checker;
    ChunkResult {
        event,
        value: search.found.take(),
        stats: ChunkStats {
            ticks: meter.used() - used_before,
            cc_checks: c.cc_checks - checks_before,
            cc_skipped: c.cc_skipped - skipped_before,
            probes: probe_count().saturating_sub(probes_before),
            query_evals: 0,
            depth_candidates: profile.candidates(),
            depth_pruned: profile.pruned(),
            head_prunes: profile.head_prunes(),
            cc_viol: std::array::from_fn(|i| c.cc_viol[i] - viol_before[i]),
        },
    }
}

/// The resumable sequential exact search: walk the canonical chunk list in
/// index order under ONE meter primed with the committed ticks, skipping
/// chunks already cleared by an earlier installment. Because chunk
/// concatenation reproduces the sequential enumeration order and tick
/// sequence exactly (pinned in `valuations.rs`), the verdict, witness, and
/// scoped counters are identical to an uninterrupted sequential run at the
/// same budget. Returns the cleared-chunk ledger when the search stopped on
/// a budget-like limit.
#[allow(clippy::too_many_arguments)]
fn exact_chunks_sequential(
    setting: &Setting,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    q_d: &BTreeSet<Tuple>,
    mode: &CheckMode,
    spaces: &[ValuationSpace<'_>],
    chunks: &[(usize, Option<SplitPoint>)],
    committed: BTreeMap<usize, crate::par::ChunkStats>,
) -> (Verdict, Option<Vec<(usize, crate::par::ChunkStats)>>) {
    use crate::par::{ChunkEvent, ChunkStats};
    let committed_ticks: u64 = committed.values().map(|s| s.ticks).sum();
    let mut totals = ChunkStats::default();
    for stats in committed.values() {
        totals.absorb(stats);
    }
    let mut meter = Meter::guarded_primed(
        MeterKind::Valuations,
        budget.max_valuations,
        committed_ticks,
        guard,
    );
    let mut ledger: Vec<(usize, ChunkStats)> = committed.iter().map(|(&i, s)| (i, *s)).collect();
    let mut frontier = None;
    let n_chunks = chunks.len();

    let mut search = ExactSearch::new(setting, db, mode, q_d);
    let span = probe.span("rcdp.enumerate");
    let mut verdict = Verdict::Complete;
    for (idx, &(si, point)) in chunks.iter().enumerate() {
        if committed.contains_key(&idx) {
            continue;
        }
        let result = run_exact_chunk(&mut search, &spaces[si], point, &mut meter);
        totals.absorb(&result.stats);
        match result.event {
            ChunkEvent::Clear => ledger.push((idx, result.stats)),
            ChunkEvent::Hit => {
                verdict = Verdict::Incomplete(
                    result
                        .value
                        .unwrap_or_else(|| unreachable!("hit chunks carry a counterexample")),
                );
                break;
            }
            ChunkEvent::Exhausted | ChunkEvent::Interrupted(_) => {
                if let Some(interrupt) = meter.interrupt() {
                    probe.interrupt("rcdp.interrupt", interrupt.name(), guard.ticks());
                }
                probe.note("explain.frontier", || {
                    format!(
                        "stopped in chunk {}/{} after {} assignment(s); \
                         uncleared chunks unexplored",
                        idx + 1,
                        n_chunks,
                        meter.used()
                    )
                });
                verdict = Verdict::unknown(
                    SearchStats::new(
                        meter.stop_limit(BudgetLimit::MaxValuations),
                        meter.stop_detail("valuation"),
                    )
                    .with_valuations(meter.used()),
                );
                ledger.sort_unstable_by_key(|&(i, _)| i);
                frontier = Some(std::mem::take(&mut ledger));
                break;
            }
        }
    }
    drop(span);
    probe.count("valuations.assignments", totals.ticks);
    probe.count("rcdp.valuations", totals.ticks);
    probe.count("rcdp.cc_checks", totals.cc_checks);
    probe.count("cc.skipped_by_delta", totals.cc_skipped);
    probe.count("index.probe", totals.probes);
    crate::valuations::emit_profile(
        probe,
        &totals.depth_candidates,
        &totals.depth_pruned,
        totals.head_prunes,
    );
    emit_cc_attribution(probe, &totals.cc_viol);
    emit_verdict(probe, &verdict);
    (verdict, frontier)
}

/// The parallel exact search over the canonical chunk list, resumable and
/// loss-tolerant: chunks cleared by an earlier installment become
/// synthesized cleared slots (a cleared chunk's stats are independent of its
/// budget slice — clearing means the whole subtree fit), the remaining
/// chunks run under their *current-budget* slices, and a chunk that dies
/// twice (see [`crate::par::run_chunks_recovering`]) triggers the
/// degradation ladder: commit every cleared chunk and finish on the indexed
/// sequential driver, recording `degrade.engine`.
#[allow(clippy::too_many_arguments)]
fn exact_chunks_parallel(
    setting: &Setting,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    q_d: &BTreeSet<Tuple>,
    mode: &CheckMode,
    spaces: &[ValuationSpace<'_>],
    chunks: &[(usize, Option<SplitPoint>)],
    committed: BTreeMap<usize, crate::par::ChunkStats>,
) -> (Verdict, Option<Vec<(usize, crate::par::ChunkStats)>>) {
    use crate::par::{self, ChunkEvent, ChunkResult, ChunkSlot, ChunkStats, PoolOutcome, PoolRun};

    let n_chunks = chunks.len();
    let total_valuations = budget.max_valuations;
    let todo: Vec<usize> = (0..n_chunks)
        .filter(|i| !committed.contains_key(i))
        .collect();

    let job = |pos: usize, wguard: &Guard| -> ChunkResult<CounterExample> {
        let idx = todo[pos];
        let (si, point) = chunks[idx];
        // The slice is computed from the *current* budget and the chunk's
        // canonical index: an uninterrupted run at this budget hands the
        // chunk exactly this slice, which is what the resume invariant pins.
        let mut meter = Meter::guarded(
            MeterKind::Valuations,
            par::chunk_budget(total_valuations, n_chunks, idx),
            wguard,
        );
        let mut search = ExactSearch::new(setting, db, mode, q_d);
        run_exact_chunk(&mut search, &spaces[si], point, &mut meter)
    };

    let span = probe.span("rcdp.enumerate");
    let recovered = par::run_chunks_recovering(budget.engine.workers(), todo.len(), guard, &job);
    probe.count("recover.chunk", recovered.recovered);
    if !recovered.lost.is_empty() {
        probe.count("degrade.chunk", recovered.lost.len() as u64);
        probe.note("degrade.engine", || {
            format!(
                "parallel engine lost {} chunk(s) after quarantine retry; \
                 downgrading to the sequential indexed engine",
                recovered.lost.len()
            )
        });
        let mut ledger = committed;
        for (pos, slot) in recovered.run.slots.iter().enumerate() {
            if let Some(ChunkSlot::Done(result)) = slot {
                if matches!(result.event, ChunkEvent::Clear) {
                    ledger.insert(todo[pos], result.stats);
                }
            }
        }
        drop(span);
        return exact_chunks_sequential(
            setting, db, budget, guard, probe, q_d, mode, spaces, chunks, ledger,
        );
    }

    let run = recovered.run;
    if probe.trace().is_some() {
        for entry in &run.timeline {
            let e = *entry;
            let chunk = todo.get(e.chunk).copied().unwrap_or(e.chunk);
            probe.note("par.timeline", || {
                format!(
                    "worker {} chunk {} {}..{}us",
                    e.worker, chunk, e.start_micros, e.end_micros
                )
            });
        }
    }
    // Compose the full canonical slot list: committed chunks appear as
    // synthesized cleared slots, fresh chunks take their pool slot (both
    // walks ascend, so the zip is positional).
    let mut fresh = run.slots.into_iter();
    let slots: Vec<Option<ChunkSlot<CounterExample>>> = (0..n_chunks)
        .map(|idx| match committed.get(&idx) {
            Some(stats) => Some(ChunkSlot::Done(Box::new(ChunkResult {
                event: ChunkEvent::Clear,
                value: None,
                stats: *stats,
            }))),
            None => fresh
                .next()
                .unwrap_or_else(|| unreachable!("one pool slot per uncommitted chunk")),
        })
        .collect();
    let mut ledger: Vec<(usize, ChunkStats)> = Vec::new();
    for (idx, slot) in slots.iter().enumerate() {
        if let Some(ChunkSlot::Done(result)) = slot {
            if matches!(result.event, ChunkEvent::Clear) {
                ledger.push((idx, result.stats));
            }
        }
    }
    let full = PoolRun {
        slots,
        steals: run.steals,
        executed: run.executed,
        timeline: Vec::new(),
    };
    let merged = full.merge_search();
    drop(span);

    probe.count("par.chunk", merged.executed);
    probe.count("par.steal", merged.steals);
    probe.count("valuations.assignments", merged.stats.ticks);
    probe.count("rcdp.valuations", merged.stats.ticks);
    probe.count("rcdp.cc_checks", merged.stats.cc_checks);
    probe.count("cc.skipped_by_delta", merged.stats.cc_skipped);
    probe.count("index.probe", merged.stats.probes);
    crate::valuations::emit_profile(
        probe,
        &merged.stats.depth_candidates,
        &merged.stats.depth_pruned,
        merged.stats.head_prunes,
    );
    emit_cc_attribution(probe, &merged.stats.cc_viol);
    let deciding = merged.deciding;
    let resumable = matches!(
        merged.outcome,
        PoolOutcome::Exhausted | PoolOutcome::Interrupted(_)
    );
    if resumable {
        probe.note("explain.frontier", || {
            let at = deciding.map_or(n_chunks, |k| k + 1);
            format!(
                "parallel fan-out stopped at chunk {at}/{n_chunks}; higher-index chunks unexplored"
            )
        });
    }
    let verdict = match merged.outcome {
        PoolOutcome::Clear => Verdict::Complete,
        PoolOutcome::Hit(ce) => Verdict::Incomplete(ce),
        PoolOutcome::Exhausted => Verdict::unknown(
            SearchStats::new(
                BudgetLimit::MaxValuations,
                format!("valuation budget of {total_valuations} exhausted"),
            )
            .with_valuations(merged.stats.ticks),
        ),
        PoolOutcome::Interrupted(interrupt) => {
            probe.interrupt("rcdp.interrupt", interrupt.name(), merged.stats.ticks);
            Verdict::unknown(
                SearchStats::new(
                    interrupt.limit(),
                    par::interrupt_detail(interrupt, merged.stats.ticks, "valuation"),
                )
                .with_valuations(merged.stats.ticks),
            )
        }
    };
    emit_verdict(probe, &verdict);
    (verdict, resumable.then_some(ledger))
}

/// The resumable exact decider: [`rcdp_exact_guarded`] with a cleared-chunk
/// ledger in and out. `committed` is `(n_chunks, cleared)` from a prior
/// installment's checkpoint; a ledger whose chunk count does not match this
/// decision's canonical layout is discarded (with a `resume.discarded` note)
/// rather than trusted. Setup (query evaluation, active domain, check-mode
/// selection) re-runs every installment — it is deterministic, so the
/// telemetry the facade compares stays installment-independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rcdp_exact_resumed(
    setting: &Setting,
    query: &Query,
    db: &Database,
    budget: &SearchBudget,
    guard: &Guard,
    probe: Probe<'_>,
    committed: Option<ExactLedger>,
) -> Result<(Verdict, Option<ExactLedger>), RcError> {
    let probe = probe.with_ticks(guard);
    let Some(ucq) = query.as_ucq() else {
        return Err(RcError::Unsupported(format!(
            "exact RCDP requires a UCQ-expressible query, got {:?}",
            query.language()
        )));
    };
    let tableaux = ucq.tableaux()?;
    if tableaux.is_empty() {
        probe.note("rcdp.outcome", || "complete".into());
        return Ok((Verdict::Complete, None));
    }
    let q_d: BTreeSet<Tuple> = query.eval(db)?;
    probe.count("rcdp.query_evals", 1);
    let n_fresh = tableaux
        .iter()
        .map(|t| t.n_vars as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let adom = Adom::build(db, setting, query, n_fresh);
    probe.gauge("rcdp.adom_size", adom.len() as u64);
    let mode = CheckMode::select(setting, budget.engine, db)?;
    emit_plan_telemetry(probe, setting, budget.engine, mode.prepared(), false, db);
    let (spaces, chunks) = exact_chunk_layout(&tableaux, setting, &adom);
    if chunks.is_empty() {
        let verdict = Verdict::Complete;
        emit_verdict(probe, &verdict);
        return Ok((verdict, None));
    }
    let n_chunks = chunks.len();
    let committed: BTreeMap<usize, crate::par::ChunkStats> = match committed {
        Some((n, cleared)) if n == n_chunks && cleared.iter().all(|&(i, _)| i < n_chunks) => {
            cleared.into_iter().collect()
        }
        Some(_) => {
            probe.note("resume.discarded", || {
                "checkpoint frontier does not match this decision's chunk layout; restarting".into()
            });
            BTreeMap::new()
        }
        None => BTreeMap::new(),
    };
    let (verdict, ledger) = if budget.engine.sharded() {
        exact_chunks_parallel(
            setting, db, budget, guard, probe, &q_d, &mode, &spaces, &chunks, committed,
        )
    } else {
        exact_chunks_sequential(
            setting, db, budget, guard, probe, &q_d, &mode, &spaces, &chunks, committed,
        )
    };
    Ok((verdict, ledger.map(|l| (n_chunks, l))))
}

/// Emit the outcome note (and the exhausted limit, for `Unknown`) for an
/// RCDP verdict.
pub(crate) fn emit_verdict(probe: Probe<'_>, verdict: &Verdict) {
    match verdict {
        Verdict::Complete => probe.note("rcdp.outcome", || "complete".into()),
        Verdict::Incomplete(_) => probe.note("rcdp.outcome", || "incomplete".into()),
        Verdict::Unknown { stats } => {
            probe.note("rcdp.outcome", || "unknown".into());
            probe.note("rcdp.limit", || stats.limit.name().into());
        }
    }
}

/// Check a claimed counterexample: `(D ∪ Δ, D_m) |= V` and
/// `Q(D ∪ Δ) ≠ Q(D)`. Used by tests and by downstream consumers that want to
/// re-verify certificates.
pub fn certify_counterexample(
    setting: &Setting,
    query: &Query,
    db: &Database,
    ce: &CounterExample,
) -> Result<bool, RcError> {
    let extended = db
        .union(&ce.delta)
        .map_err(|_| RcError::NotPartiallyClosed)?;
    if !setting.partially_closed(&extended)? {
        return Ok(false);
    }
    let before = query.eval(db)?;
    let after = query.eval(&extended)?;
    Ok(before != after && (after.contains(&ce.new_answer) != before.contains(&ce.new_answer)))
}

pub(crate) fn validate_fp_bodies(setting: &Setting, query: &Query) -> Result<(), RcError> {
    if let Query::Fp(p) = query {
        p.validate().map_err(|e| RcError::Program(e.to_string()))?;
    }
    for cc in &setting.v.ccs {
        if let ric_constraints::CcBody::Fp(p) = &cc.body {
            p.validate().map_err(|e| RcError::Program(e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ric_constraints::{CcBody, ConstraintSet, ContainmentConstraint, Projection};
    use ric_data::{RelationSchema, Schema, Value};
    use ric_query::parse_cq;

    /// Example 1.1 / 2.2 style setting: Supt(eid, dept, cid) with master
    /// relation DCust(cid) bounding the customers employee e0 may support.
    fn supt_setting() -> (Setting, ric_data::RelId) {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let mschema =
            Schema::from_relations(vec![RelationSchema::infinite("DCust", &["cid"])]).unwrap();
        let dcust = mschema.rel_id("DCust").unwrap();
        let mut dm = Database::empty(&mschema);
        for c in ["c1", "c2"] {
            dm.insert(dcust, Tuple::new([Value::str(c)]));
        }
        // All supported customers must be master customers.
        let v = ConstraintSet::new(vec![ContainmentConstraint::into_master(
            CcBody::Proj(Projection::new(supt, vec![2])),
            dcust,
            vec![0],
        )]);
        (Setting::new(schema, mschema, dm, v), supt)
    }

    fn t3(a: &str, b: &str, c: &str) -> Tuple {
        Tuple::new([Value::str(a), Value::str(b), Value::str(c)])
    }

    #[test]
    fn open_world_database_is_incomplete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X).").unwrap().into();
        let db = Database::empty(&schema);
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn database_covering_master_is_complete() {
        let (setting, supt) = supt_setting();
        // Q: customers supported by e0.
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        assert_eq!(verdict, Verdict::Complete);
    }

    #[test]
    fn database_missing_master_customer_is_incomplete() {
        let (setting, supt) = supt_setting();
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c1")); // c2 still possible
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
                assert_eq!(ce.new_answer, Tuple::new([Value::str("c2")]));
            }
            other => panic!("expected incomplete, got {other:?}"),
        }
    }

    #[test]
    fn not_partially_closed_is_an_error() {
        let (setting, supt) = supt_setting();
        let q: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        let mut db = Database::empty(&setting.schema);
        db.insert(supt, t3("e0", "d", "c-unknown"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()),
            Err(RcError::NotPartiallyClosed)
        );
    }

    #[test]
    fn unsatisfiable_query_trivially_complete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite("R", &["a"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X) :- R(X), X != X.").unwrap().into();
        let db = Database::empty(&schema);
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let schema =
            Schema::from_relations(vec![RelationSchema::infinite("R", &["a", "b", "c"])]).unwrap();
        let setting = Setting::open_world(schema.clone());
        let q: Query = parse_cq(&schema, "Q(X, Y, Z) :- R(X, Y, Z).")
            .unwrap()
            .into();
        let db = Database::empty(&schema);
        let tiny = SearchBudget {
            max_valuations: 0,
            ..SearchBudget::small()
        };
        match rcdp(&setting, &q, &db, &tiny).unwrap() {
            Verdict::Unknown { .. } => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    /// Example 3.1, first part: with the "at most k customers per employee"
    /// CC in place, a database already holding k answers is complete.
    #[test]
    fn at_most_k_makes_full_database_complete() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let denial = ric_constraints::classical::at_most_k_per_key(supt, 0, 2, 2, 3);
        let v = ConstraintSet::new(vec![ric_constraints::compile::denial_to_cc(&denial)]);
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();
        // k = 2 customers already supported: complete.
        let mut db = Database::empty(&schema);
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
        // Only one: still incomplete.
        let mut db1 = Database::empty(&schema);
        db1.insert(supt, t3("e0", "d", "c1"));
        let verdict = rcdp(&setting, &q, &db1, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete(), "got {verdict:?}");
    }

    /// Example 3.1, second part: under the FD eid → dept,cid a database with
    /// no e0 tuple is incomplete, but any database with one e0 tuple is
    /// complete for Q2.
    #[test]
    fn fd_blocks_after_one_tuple() {
        let schema = Schema::from_relations(vec![RelationSchema::infinite(
            "Supt",
            &["eid", "dept", "cid"],
        )])
        .unwrap();
        let supt = schema.rel_id("Supt").unwrap();
        let fd = ric_constraints::Fd::new(supt, vec![0], vec![1, 2]);
        let v = ConstraintSet::new(ric_constraints::compile::fd_to_ccs(&fd, &schema));
        let setting = Setting::new(
            schema.clone(),
            Schema::new(),
            Database::with_relations(0),
            v,
        );
        let q: Query = parse_cq(&schema, "Q(C) :- Supt('e0', D, C).")
            .unwrap()
            .into();

        let empty = Database::empty(&schema);
        let verdict = rcdp(&setting, &q, &empty, &SearchBudget::default()).unwrap();
        assert!(verdict.is_incomplete(), "empty Supt should be incomplete");

        let mut db = Database::empty(&schema);
        db.insert(supt, t3("e0", "d0", "c0"));
        assert_eq!(
            rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap(),
            Verdict::Complete,
            "FD pins e0's single (dept, cid) pair"
        );
    }

    #[test]
    fn ucq_per_disjunct_counterexample() {
        let (setting, supt) = supt_setting();
        // Heads carry the employee, so the disjuncts do not overlap.
        let q: Query = ric_query::parse_ucq(
            &setting.schema,
            "Q(E, C) :- Supt(E, D, C), E = 'e0'. Q(E, C) :- Supt(E, D, C), E = 'e1'.",
        )
        .unwrap()
        .into();
        let mut db = Database::empty(&setting.schema);
        // e0 saturated, e1 not.
        db.insert(supt, t3("e0", "d", "c1"));
        db.insert(supt, t3("e0", "d", "c2"));
        db.insert(supt, t3("e1", "d", "c1"));
        let verdict = rcdp(&setting, &q, &db, &SearchBudget::default()).unwrap();
        match &verdict {
            Verdict::Incomplete(ce) => {
                assert!(certify_counterexample(&setting, &q, &db, ce).unwrap());
                assert_eq!(
                    ce.new_answer,
                    Tuple::new([Value::str("e1"), Value::str("c2")])
                );
            }
            other => panic!("expected incomplete, got {other:?}"),
        }

        // A database where both disjuncts saturate the master list is
        // complete even though the per-employee answers differ.
        let mut full = db.clone();
        full.insert(supt, t3("e1", "d", "c2"));
        assert_eq!(
            rcdp(&setting, &q, &full, &SearchBudget::default()).unwrap(),
            Verdict::Complete
        );
    }
}
