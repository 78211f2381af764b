//! Work-count golden test for the exact RCDP search.
//!
//! The differential suites compare engines with each other, and every
//! engine runs the same candidate loop, so none of them notices when the
//! loop as a whole starts doing more (or different) work. This test pins the
//! absolute deterministic counters — valuations, CC checks, index probes,
//! delta skips, pruning attribution and the per-depth profile — of prepared
//! planned-engine decisions on the benchmark's cells: the Example 3.1 FD
//! cells at n = 24 and n = 48 (CQ and UCQ), Theorem 3.6 ∀*∃*-3SAT
//! instances, and planted (CQ, INDs) instances. A change to any figure is a
//! change to the search, and has to be explained and re-pinned.
//!
//! The bounded semi-decision gets the same treatment: the Theorem 3.1
//! 2-head-DFA cells (`L` nonempty and `L` empty, the benchmark's FP cells)
//! pin the verdict with its counterexample and the candidate, CC-check,
//! query-evaluation and delta-skip counters, on one worker and on four.

use ric::prelude::*;
use ric::reductions::two_head_dfa::{self, TwoHeadDfa};
use ric::reductions::workload::{planted_rcdp, WorkloadParams};
use ric::reductions::{qbf, rcdp_sigma2};
use ric::SplitMix64;

/// Example 3.1: `Supt(eid, dept, cid)` under the FD `eid → dept, cid`, one
/// row per employee.
fn fd_cell(n: usize) -> (Setting, Database) {
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
    (setting, db)
}

/// The pinned counters of one planned-engine decision, `name=value` in name
/// order, zeros omitted.
fn counts(setting: &Setting, query: &Query, db: &Database) -> String {
    let engine = Engine::planned(1);
    let prepared = prepare(setting, db, engine).unwrap();
    let budget = SearchBudget::default().with_engine(engine);
    let collector = Collector::new();
    try_rcdp_prepared_probed(&prepared, query, db, &budget, Probe::attached(&collector)).unwrap();
    let report = collector.report();
    report
        .counters
        .iter()
        .filter(|(name, &v)| {
            v > 0
                && (matches!(
                    **name,
                    "rcdp.valuations" | "rcdp.cc_checks" | "index.probe" | "cc.skipped_by_delta"
                ) || name.starts_with("prune.")
                    || name.starts_with("depth."))
        })
        .map(|(name, v)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every cell's label and counters, in a fixed order.
fn all_cells() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for n in [24, 48] {
        let (setting, db) = fd_cell(n);
        let cq: Query = parse_cq(&setting.schema, "Q(C) :- Supt('e5', D, C).")
            .unwrap()
            .into();
        let ucq: Query = parse_ucq(
            &setting.schema,
            "Q(C) :- Supt('e5', D, C). Q(C) :- Supt('e7', D, C).",
        )
        .unwrap()
        .into();
        out.push((format!("fd-cq-{n}"), counts(&setting, &cq, &db)));
        out.push((format!("fd-ucq-{n}"), counts(&setting, &ucq, &db)));
    }
    let mut rng = SplitMix64::seed_from_u64(11);
    for (i, shape) in [(3, 3, 6), (3, 4, 6)].into_iter().enumerate() {
        let phi = qbf::ForallExists::random(shape.0, shape.1, shape.2, &mut rng);
        let (setting, query, db) = rcdp_sigma2::to_rcdp_instance(&phi);
        out.push((format!("sigma2-{i}"), counts(&setting, &query, &db)));
    }
    for complete in [true, false] {
        let params = WorkloadParams {
            n_customers: 32,
            n_employees: 4,
            n_support: 64,
        };
        let inst = planted_rcdp(&params, complete, &mut rng);
        let label = format!(
            "planted-{}",
            if complete { "complete" } else { "incomplete" }
        );
        out.push((label, counts(&inst.setting, &inst.query, &inst.db)));
    }
    out
}

/// Recorded before the candidate loop moved to dense codes and a reusable
/// delta buffer; the loop must do exactly this work.
const PINNED: &[(&str, &str)] = &[
    ("fd-cq-24", "depth.candidates.00=73 depth.candidates.01=5257 depth.pruned.01=5257 index.probe=5545 prune.cc.00=5185 prune.cc.01=72 prune.head=1 rcdp.cc_checks=5257 rcdp.valuations=5330"),
    ("fd-ucq-24", "depth.candidates.00=146 depth.candidates.01=10368 depth.pruned.01=10368 index.probe=10936 prune.cc.00=10226 prune.cc.01=142 prune.head=4 rcdp.cc_checks=10368 rcdp.valuations=10514"),
    ("fd-cq-48", "depth.candidates.00=145 depth.candidates.01=20881 depth.pruned.01=20881 index.probe=21457 prune.cc.00=20737 prune.cc.01=144 prune.head=1 rcdp.cc_checks=20881 rcdp.valuations=21026"),
    ("fd-ucq-48", "depth.candidates.00=290 depth.candidates.01=41472 depth.pruned.01=41472 index.probe=42616 prune.cc.00=41186 prune.cc.01=286 prune.head=4 rcdp.cc_checks=41472 rcdp.valuations=41762"),
    ("sigma2-0", "depth.candidates.00=2 depth.candidates.01=5 depth.candidates.02=11 depth.candidates.03=1 depth.candidates.04=1 depth.candidates.05=1 depth.candidates.06=1 depth.candidates.07=2 depth.candidates.08=1 depth.candidates.09=2 depth.candidates.10=1 depth.candidates.11=2 depth.candidates.12=2 depth.candidates.13=2 depth.candidates.14=1 depth.candidates.15=21 depth.pruned.01=1 depth.pruned.02=3 depth.pruned.07=1 depth.pruned.09=1 depth.pruned.11=1 depth.pruned.12=1 depth.pruned.13=1 depth.pruned.15=6 prune.cc.00=4 prune.cc.01=8 prune.cc.03=3 prune.head=7 rcdp.cc_checks=57 rcdp.valuations=56"),
    ("sigma2-1", "depth.candidates.00=1 depth.candidates.01=1 depth.candidates.02=1 depth.candidates.03=2 depth.candidates.04=2 depth.candidates.05=2 depth.candidates.06=1 depth.candidates.07=2 depth.candidates.08=1 depth.candidates.09=2 depth.candidates.10=1 depth.candidates.11=2 depth.candidates.12=1 depth.candidates.13=2 depth.candidates.14=1 depth.candidates.15=25 depth.pruned.03=1 depth.pruned.04=1 depth.pruned.05=1 depth.pruned.07=1 depth.pruned.09=1 depth.pruned.11=1 depth.pruned.13=1 depth.pruned.15=8 prune.cc.01=8 prune.cc.03=7 rcdp.cc_checks=48 rcdp.valuations=47"),
    ("planted-complete", "depth.candidates.00=40 depth.candidates.01=321 depth.pruned.01=321 prune.cc.00=321 prune.head=32 rcdp.cc_checks=321 rcdp.valuations=361"),
    ("planted-incomplete", "depth.candidates.00=6 depth.candidates.01=1 prune.head=5 rcdp.cc_checks=2 rcdp.valuations=7"),
];

#[test]
fn exact_search_work_is_pinned() {
    let got = all_cells();
    let rendered: Vec<String> = got
        .iter()
        .map(|(cell, c)| format!("    (\"{cell}\", \"{c}\"),"))
        .collect();
    let expected: Vec<(String, String)> = PINNED
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(
        got,
        expected,
        "work counters changed; actual table:\n{}",
        rendered.join("\n")
    );
}

/// One prepared bounded decision of the Theorem 3.1 instance for `dfa`, with
/// the benchmark's budget: the verdict (counterexample included) and the
/// bounded search's counters, `name=value` in name order.
fn bounded_counts(dfa: &TwoHeadDfa, workers: usize) -> String {
    let (setting, query, db) = two_head_dfa::to_rcdp_instance(dfa);
    let engine = Engine::planned(workers);
    let prepared = prepare(&setting, &db, engine).unwrap();
    let budget = SearchBudget {
        max_delta_tuples: 3,
        fresh_values: 2,
        max_candidates: 500_000,
        ..SearchBudget::default()
    }
    .with_engine(engine);
    let collector = Collector::new();
    let decision =
        try_rcdp_prepared_probed(&prepared, &query, &db, &budget, Probe::attached(&collector))
            .unwrap();
    let report = collector.report();
    let counters = [
        "semidecide.candidates",
        "semidecide.cc_checks",
        "semidecide.query_evals",
        "cc.skipped_by_delta",
    ]
    .map(|name| format!("{name}={}", report.counter(name)))
    .join(" ");
    format!("{:?} {counters}", decision.verdict)
}

/// Recorded on the bounded search that materialized every surviving union
/// and evaluated the datalog query from scratch per candidate.
const PINNED_BOUNDED: &[(&str, &str)] = &[
    ("dfa-nonempty-w1", "Incomplete(CounterExample { delta: [{(0)}, {}, {(0, 1), (1, 1)}], new_answer: () }) semidecide.candidates=920 semidecide.cc_checks=920 semidecide.query_evals=808 cc.skipped_by_delta=473"),
    ("dfa-empty-w1", "Unknown { stats: SearchStats { limit: MaxDeltaTuples, valuations: 0, candidates: 2324, detail: \"bounded search: no violating extension with ≤ 3 tuple(s) over 24 candidate tuple(s) (2 fresh value(s))\" } } semidecide.candidates=2324 semidecide.cc_checks=2324 semidecide.query_evals=1619 cc.skipped_by_delta=824"),
    ("dfa-nonempty-w4", "Incomplete(CounterExample { delta: [{(0)}, {}, {(0, 1), (1, 1)}], new_answer: () }) semidecide.candidates=920 semidecide.cc_checks=920 semidecide.query_evals=808 cc.skipped_by_delta=473"),
    ("dfa-empty-w4", "Unknown { stats: SearchStats { limit: MaxDeltaTuples, valuations: 0, candidates: 2324, detail: \"bounded search: no violating extension with ≤ 3 tuple(s) over 24 candidate tuple(s) (2 fresh value(s))\" } } semidecide.candidates=2324 semidecide.cc_checks=2324 semidecide.query_evals=1619 cc.skipped_by_delta=824"),
];

#[test]
fn bounded_search_work_is_pinned() {
    let mut got = Vec::new();
    for workers in [1, 4] {
        for (label, dfa) in [
            ("dfa-nonempty", TwoHeadDfa::ones()),
            ("dfa-empty", TwoHeadDfa::empty_language()),
        ] {
            got.push((format!("{label}-w{workers}"), bounded_counts(&dfa, workers)));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(cell, c)| format!("    (\"{cell}\", \"{}\"),", c.replace('"', "\\\"")))
        .collect();
    let expected: Vec<(String, String)> = PINNED_BOUNDED
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(
        got,
        expected,
        "bounded-search verdicts or counters changed; actual table:\n{}",
        rendered.join("\n")
    );
}
