//! The four workloads and the helpers they share.

pub mod bounded_query;
pub mod compile_oneshot;
pub mod monitor_stream;
pub mod rcdp_exhaustive;

use crate::harness::{Check, Workload};
use ric::complete::rcdp::certify_counterexample;
use ric::prelude::*;
use ric::SplitMix64;
use std::time::{Duration, Instant};

/// The one place the benchmark picks its engine: the planned engine the
/// prepared facade and `Monitor` use, with `workers` enumeration threads.
pub fn engine(workers: usize) -> Engine {
    Engine::planned(workers)
}

/// The engine's name in provenance records.
pub const ENGINE_NAME: &str = "planned";

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "rcdp-exhaustive",
    "compile-oneshot",
    "monitor-stream",
    "bounded-query",
];

/// Build workload `name` from `seed` with `workers` enumeration threads;
/// `None` for an unknown name.
pub fn build(name: &str, seed: u64, workers: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "rcdp-exhaustive" => Box::new(rcdp_exhaustive::RcdpExhaustive::setup(seed, workers)),
        "compile-oneshot" => Box::new(compile_oneshot::CompileOneshot::setup(seed, workers)),
        "monitor-stream" => Box::new(monitor_stream::MonitorStream::setup(seed, workers)),
        "bounded-query" => Box::new(bounded_query::BoundedQuery::setup(seed, workers)),
        _ => return None,
    })
}

/// Times the query parses of one setup.
#[derive(Default)]
pub struct Parser {
    /// Queries parsed.
    pub count: usize,
    /// Time spent parsing them.
    pub time: Duration,
}

impl Parser {
    /// Parse a CQ.
    pub fn cq(&mut self, schema: &Schema, text: &str) -> Cq {
        let t0 = Instant::now();
        let q = parse_cq(schema, text).unwrap_or_else(|e| panic!("generated query {text}: {e}"));
        self.time += t0.elapsed();
        self.count += 1;
        q
    }

    /// Parse a UCQ.
    pub fn ucq(&mut self, schema: &Schema, text: &str) -> Ucq {
        let t0 = Instant::now();
        let q = parse_ucq(schema, text).unwrap_or_else(|e| panic!("generated query {text}: {e}"));
        self.time += t0.elapsed();
        self.count += 1;
        q
    }
}

/// The Example 3.1 setting: `Supt(eid, dept, cid)` under the FD
/// `eid → dept, cid` compiled to CQ-bodied constraints, and a database with
/// `n` rows `(e{prefix}{i}, d{prefix}{i}, c{prefix}{i})`, one per employee,
/// so the FD pins every employee's row and any query pinning an employee is
/// complete.
pub fn fd_pinned(n: usize, prefix: &str) -> (Setting, Database) {
    let schema = Schema::from_relations(vec![RelationSchema::infinite(
        "Supt",
        &["eid", "dept", "cid"],
    )])
    .expect("fixed schema");
    let supt = schema.rel_id("Supt").expect("fixed relation");
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
        let row = ["e", "d", "c"].map(|k| Value::str(format!("{k}{prefix}{i}")));
        db.insert(supt, Tuple::new(row));
    }
    (setting, db)
}

/// Fisher–Yates shuffle driven by the workload's seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// A cycle that repeats each op class `count` times, in seeded order.
pub fn schedule(classes: &[(usize, usize)], rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = classes
        .iter()
        .flat_map(|&(item, count)| std::iter::repeat_n(item, count))
        .collect();
    shuffle(&mut order, rng);
    order
}

/// The RCDP outcome an oracle expects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// `Complete`.
    Complete,
    /// `Incomplete`, with a counterexample that certifies.
    Incomplete,
    /// Anything but `Incomplete`: the oracle proves no counterexample
    /// exists, but the bounded search may stop at `Unknown`.
    NotIncomplete,
}

impl Expect {
    /// From an oracle's "is `D` complete?" answer.
    pub fn complete_if(complete: bool) -> Expect {
        if complete {
            Expect::Complete
        } else {
            Expect::Incomplete
        }
    }
}

/// Check an RCDP result against the oracle's expectation; an `Incomplete`
/// counterexample must also certify on `db`.
pub fn check_rcdp(
    got: &Result<Verdict, DecisionError>,
    expect: Expect,
    setting: &Setting,
    query: &Query,
    db: &Database,
    label: &str,
) -> Check {
    let verdict = match got {
        Ok(v) => v,
        Err(e) => return Check::Failed(format!("{label}: {e}")),
    };
    match (expect, verdict) {
        (Expect::Complete | Expect::NotIncomplete, Verdict::Complete) => {
            Check::Ok { decided: true }
        }
        (Expect::NotIncomplete, Verdict::Unknown { .. }) => Check::Ok { decided: false },
        (Expect::Incomplete, Verdict::Incomplete(ce)) => {
            match certify_counterexample(setting, query, db, ce) {
                Ok(true) => Check::Ok { decided: true },
                _ => Check::Failed(format!("{label}: counterexample does not certify")),
            }
        }
        (e, v) => Check::Failed(format!("{label}: expected {e:?}, got {v}")),
    }
}
