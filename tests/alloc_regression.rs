//! Allocation regression test for the exact and bounded RCDP candidate
//! loops.
//!
//! The searches check one candidate per valuation or per tuple subset, so
//! any allocation inside the loop multiplies by the candidate count. This
//! binary installs a counting global allocator (here only, never in the
//! library) and runs, on the planned engine with 1 and 4 workers:
//!
//! * one prepared Example 3.1 FD decision at n = 24 and one at n = 48 — the
//!   larger sweeps about 4× the valuations. The decision's allocation count
//!   may grow with its setup (the active domain, and with workers the
//!   per-chunk bookkeeping of the pool), which is linear in |Adom|, but not
//!   with the number of valuations;
//! * the Theorem 3.1 2-head-DFA instance with `L = ∅` (an FP query the
//!   bounded search evaluates per surviving candidate), at extension bound 2
//!   (300 candidates) and 3 (2324). Per added candidate the decision may
//!   allocate less than twice: chunks, counterexamples and the active
//!   domain, not the candidates.
//!
//! Everything runs in one `#[test]` so no other test thread allocates while
//! a decision is being counted.

use ric::prelude::*;
use ric::reductions::two_head_dfa::{self, TwoHeadDfa};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Example 3.1: `Supt(eid, dept, cid)` under the FD `eid → dept, cid`, with
/// one row per employee, so a query pinning an employee is complete and the
/// decider sweeps its whole valuation space.
fn fd_cell(n: usize, engine: Engine) -> (PreparedSetting, Query, Database) {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .unwrap();
    let supt = schema.rel_id("Supt").unwrap();
    let fd = Fd::new(supt, vec![0], vec![1, 2]);
    let v = ConstraintSet::new(ric::constraints::compile::fd_to_ccs(&fd, &schema));
    let setting = Setting::new(
        schema.clone(),
        Schema::new(),
        Database::with_relations(0),
        v,
    );
    let mut db = Database::empty(&schema);
    for i in 0..n {
        let row = ["e", "d", "c"].map(|k| Value::str(format!("{k}{i}")));
        db.insert(supt, Tuple::new(row));
    }
    let query: Query = parse_cq(&schema, "Q(C) :- Supt('e5', D, C).")
        .unwrap()
        .into();
    let prepared = prepare(&setting, &db, engine).unwrap();
    (prepared, query, db)
}

/// One decision's allocations (probe disabled), plus its `rcdp.valuations`
/// and `rcdp.adom_size` from a second, traced run.
fn measure(n: usize, workers: usize) -> (u64, u64, u64) {
    let engine = Engine::planned(workers);
    let (prepared, query, db) = fd_cell(n, engine);
    let budget = SearchBudget::default().with_engine(engine);
    // Warm the lazily built base index and active-domain cache, which a
    // long-lived database pays for once, not per decision.
    assert_eq!(
        try_rcdp_prepared(&prepared, &query, &db, &budget).unwrap(),
        Verdict::Complete
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let verdict = try_rcdp_prepared(&prepared, &query, &db, &budget).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(verdict, Verdict::Complete);
    let collector = Collector::new();
    try_rcdp_prepared_probed(&prepared, &query, &db, &budget, Probe::attached(&collector)).unwrap();
    let report = collector.report();
    (
        allocs,
        report.counter("rcdp.valuations"),
        report.gauges.get("rcdp.adom_size").copied().unwrap_or(0),
    )
}

/// One bounded decision's allocations on the `L = ∅` 2-head-DFA instance
/// at extension bound `k` (probe disabled), plus its
/// `semidecide.candidates` from a second, traced run.
fn measure_bounded(k: usize, workers: usize) -> (u64, u64) {
    let engine = Engine::planned(workers);
    let (setting, query, db) = two_head_dfa::to_rcdp_instance(&TwoHeadDfa::empty_language());
    let prepared = prepare(&setting, &db, engine).unwrap();
    let budget = SearchBudget {
        max_delta_tuples: k,
        fresh_values: 2,
        max_candidates: 500_000,
        ..SearchBudget::default()
    }
    .with_engine(engine);
    let unknown = |v: &Verdict| matches!(v, Verdict::Unknown { .. });
    assert!(unknown(
        &try_rcdp_prepared(&prepared, &query, &db, &budget).unwrap()
    ));
    let before = ALLOCS.load(Ordering::Relaxed);
    let verdict = try_rcdp_prepared(&prepared, &query, &db, &budget).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(unknown(&verdict), "L(A) = ∅ has no counterexample");
    let collector = Collector::new();
    try_rcdp_prepared_probed(&prepared, &query, &db, &budget, Probe::attached(&collector)).unwrap();
    (allocs, collector.report().counter("semidecide.candidates"))
}

#[test]
fn decision_allocations_do_not_grow_with_valuations() {
    for workers in [1, 4] {
        let (a24, v24, d24) = measure(24, workers);
        let (a48, v48, d48) = measure(48, workers);
        eprintln!("workers={workers}: n=24 {a24} allocs / {v24} valuations / adom {d24}; n=48 {a48} allocs / {v48} valuations / adom {d48}");
        assert!(v48 > 3 * v24, "n=48 should sweep ~4x the valuations");
        // Setup is linear in |Adom|, and so is the pool's per-chunk
        // bookkeeping: every Adom value is one depth-0 chunk. A loop that
        // allocated even once per valuation would add ~v48 - v24, about 200
        // per added Adom value.
        let per_adom = (a48.saturating_sub(a24)) as f64 / (d48 - d24) as f64;
        assert!(
            per_adom <= 16.0,
            "workers={workers}: {a24} -> {a48} allocations for {v24} -> {v48} valuations \
             ({per_adom:.1} per added Adom value)"
        );

        let (b2, c2) = measure_bounded(2, workers);
        let (b3, c3) = measure_bounded(3, workers);
        eprintln!("workers={workers}: dfa-empty k=2 {b2} allocs / {c2} candidates; k=3 {b3} allocs / {c3} candidates");
        assert_eq!(
            (c2, c3),
            (300, 2324),
            "the bounded search's candidate counts"
        );
        // A bounded loop that evaluated the query from scratch, or built a
        // database per candidate, would add tens of allocations a candidate.
        let per_candidate = b3.saturating_sub(b2) as f64 / (c3 - c2) as f64;
        assert!(
            per_candidate < 2.0,
            "workers={workers}: {b2} -> {b3} allocations for {c2} -> {c3} candidates \
             ({per_candidate:.2} per added candidate)"
        );
    }
}
