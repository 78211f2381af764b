//! Every metric the benchmark prints, declared once, and how each is
//! derived from the passes of a run.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the benchmark's own tests hold the two lists equal.

use crate::harness::Pass;
use ric::telemetry::Report;
use std::time::Duration;

/// One declared metric. `moves` names the end-to-end metric a change in
/// this one should move, and `on` the workload where it should; `flat` the
/// workload where it should not move.
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric this one should move (per-layer metrics only).
    pub moves: &'static str,
    /// Workload where it should move.
    pub on: &'static str,
    /// Workload where it should stay flat.
    pub flat: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        moves: "",
        on: "",
        flat: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    flat: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        moves,
        on,
        flat,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [Decl; 7] = [
    e2e("latency_us.p50", "us"),
    e2e("latency_us.p90", "us"),
    e2e("throughput_ops_s", "1/s"),
    e2e("ok_frac", "frac"),
    e2e("decided_frac", "frac"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
];

const P50: &str = "latency_us.p50";
const P90: &str = "latency_us.p90";
const TPUT: &str = "throughput_ops_s";
const RCDP: &str = "rcdp-exhaustive";
const COMPILE: &str = "compile-oneshot";
const MONITOR: &str = "monitor-stream";
const BOUNDED: &str = "bounded-query";
const ALL: &str = "all";

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [Decl; 38] = [
    // ric-complete: the RCDP search.
    layer("core.decide_us_per_op", "us", P50, RCDP, COMPILE),
    layer("core.valuations_per_op", "count", TPUT, RCDP, COMPILE),
    layer("core.ns_per_valuation", "ns", P50, RCDP, COMPILE),
    layer("core.prune_frac", "frac", P50, RCDP, COMPILE),
    layer("core.enumerate_share", "frac", P50, RCDP, COMPILE),
    layer("core.allocs_per_valuation", "count", P50, RCDP, COMPILE),
    layer("core.alloc_bytes_per_valuation", "B", P50, RCDP, COMPILE),
    // ric-complete: RCQP and the bounded semi-decision.
    layer(
        "core.rcqp_valuations_per_op",
        "count",
        P50,
        BOUNDED,
        COMPILE,
    ),
    layer(
        "core.semidecide_candidates_per_op",
        "count",
        "peak_rss_mb",
        BOUNDED,
        COMPILE,
    ),
    // ric-constraints.
    layer(
        "constraints.cc_checks_per_valuation",
        "count",
        P50,
        RCDP,
        COMPILE,
    ),
    layer(
        "constraints.cc_skipped_by_delta_per_op",
        "count",
        P50,
        RCDP,
        COMPILE,
    ),
    // ric-data.
    layer(
        "data.index_probes_per_valuation",
        "count",
        P50,
        BOUNDED,
        COMPILE,
    ),
    // ric-query.
    layer("query.evals_per_op", "count", P50, BOUNDED, RCDP),
    layer("query.evals_per_candidate", "count", P50, BOUNDED, RCDP),
    layer("query.parse_us_per_query", "us", "setup_s", COMPILE, RCDP),
    // ric-plan.
    layer("plan.us_per_op", "us", P50, COMPILE, RCDP),
    layer("plan.setup_us", "us", "setup_s", RCDP, COMPILE),
    layer("plan.compiles_per_op", "count", P50, COMPILE, RCDP),
    layer("plan.fallbacks_per_op", "count", P50, COMPILE, RCDP),
    // ric-analysis.
    layer("analysis.us_per_op", "us", P50, COMPILE, RCDP),
    layer("analysis.downgrades_per_op", "count", P50, COMPILE, RCDP),
    // ric-reason.
    layer("reason.us_per_op", "us", P50, COMPILE, RCDP),
    layer("reason.static_frac", "frac", "decided_frac", COMPILE, RCDP),
    layer("reason.ccs_dropped_per_op", "count", P50, COMPILE, RCDP),
    // ric-monitor, fractions over settings × transactions.
    layer("monitor.skip_frac", "frac", P50, MONITOR, RCDP),
    layer("monitor.memo_hit_frac", "frac", P50, MONITOR, RCDP),
    layer("monitor.fast_complete_frac", "frac", P50, MONITOR, RCDP),
    layer("monitor.recert_hit_frac", "frac", P50, MONITOR, RCDP),
    layer("monitor.redecide_frac", "frac", P90, MONITOR, RCDP),
    layer("monitor.cc_delta_frac", "frac", P50, MONITOR, RCDP),
    layer("monitor.replans_per_ktxn", "count", TPUT, MONITOR, RCDP),
    layer("monitor.redecide_txn_us.p50", "us", P90, MONITOR, RCDP),
    layer("monitor.fastpath_txn_us.p50", "us", P50, MONITOR, RCDP),
    // Parallel enumeration, from one traced pass at two workers.
    layer("par.balance", "frac", TPUT, RCDP, ""),
    layer("par.chunks_per_worker", "count", TPUT, RCDP, ""),
    // ric-telemetry: whether traced numbers stand for the untraced run.
    layer("telemetry.trace_overhead_frac", "frac", "", ALL, ""),
    // The whole op.
    layer("alloc.allocs_per_op", "count", "peak_rss_mb", ALL, ""),
    layer("alloc.bytes_per_op", "B", "peak_rss_mb", ALL, ""),
];

/// Workers of the parallel traced pass.
pub const PAR_WORKERS: usize = 2;

/// A quantile by linear interpolation between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Durations in microseconds, sorted.
pub fn sorted_us(samples: &[Duration]) -> Vec<f64> {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum_prefix(report: &Report, prefix: &str) -> u64 {
    report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The passes of a traced run.
pub struct Traced<'a> {
    /// No probe, no allocation counting.
    pub plain: &'a Pass,
    /// Collector attached.
    pub traced: &'a Pass,
    /// Counting allocator on.
    pub alloc: &'a Pass,
    /// Traced at [`PAR_WORKERS`] workers (`rcdp-exhaustive` only).
    pub par: Option<&'a Pass>,
    /// Settings per monitor transaction (0 without a monitor).
    pub settings: usize,
    /// Queries parsed in setup, and the time it took.
    pub parsed: (usize, Duration),
    /// Time in prepare/register calls during setup.
    pub setup_prepare: Duration,
}

/// Derive every per-layer metric, in [`PER_LAYER`] order.
pub fn per_layer(t: &Traced<'_>) -> Vec<f64> {
    let r = &t.traced.layers.report;
    let c = |name: &str| r.counter(name) as f64;
    let ops = t.traced.ops as f64;
    let plain_ops = t.plain.ops as f64;
    // Every candidate a decider enumerates counts as one valuation.
    let valuations = c("rcdp.valuations")
        + c("rcqp.valuations")
        + c("rcqp.candidates")
        + c("semidecide.candidates");
    let plain_decide_us = us(t.plain.layers.decide);
    let traced_decide_us = us(t.traced.layers.decide);
    let span = |name: &str| r.span_micros(name).unwrap_or(0) as f64;
    let enumerate_us = span("rcdp.enumerate") + span("semidecide.extension_search");
    let reason_us = span("reason");
    let plan_self_us = (us(t.traced.layers.prepare) - reason_us).max(0.0);
    let query_evals = c("rcdp.query_evals") + c("semidecide.query_evals");
    let cc_checks = c("rcdp.cc_checks") + c("semidecide.cc_checks");
    let pruned = sum_prefix(r, "depth.pruned.") as f64;
    let tried = sum_prefix(r, "depth.candidates.") as f64;

    let m = &t.plain.layers.monitor;
    let slots = (t.settings as f64) * plain_ops;
    // Each cycle position's best latency, split by whether its transaction
    // re-decided some setting.
    let redecide_lat: Vec<Duration> = t.plain.best_redecide.iter().flatten().copied().collect();
    let fast_lat: Vec<Duration> = t.plain.best_fast.iter().flatten().copied().collect();

    let (balance, chunks_per_worker) = t.par.map_or((0.0, 0.0), par_balance);
    let plain_p50 = quantile(&sorted_us(&t.plain.best), 0.5);
    let traced_p50 = quantile(&sorted_us(&t.traced.best), 0.5);
    let decide_alloc = t.alloc.layers.decide_alloc;

    vec![
        ratio(plain_decide_us, plain_ops),
        ratio(valuations, ops),
        ratio(plain_decide_us * 1e3, valuations),
        ratio(pruned, tried),
        ratio(enumerate_us, traced_decide_us),
        ratio(decide_alloc.allocs as f64, valuations),
        ratio(decide_alloc.bytes as f64, valuations),
        ratio(c("rcqp.valuations") + c("rcqp.candidates"), ops),
        ratio(c("semidecide.candidates"), ops),
        ratio(cc_checks, valuations),
        ratio(c("cc.skipped_by_delta"), ops),
        ratio(c("index.probe"), valuations),
        ratio(query_evals, ops),
        ratio(query_evals, valuations),
        ratio(us(t.parsed.1), t.parsed.0 as f64),
        ratio(plan_self_us, ops),
        us(t.setup_prepare),
        ratio(
            (t.traced.layers.prepares
                + t.traced.layers.monitor.replan
                + t.traced.layers.monitor.reprepare) as f64,
            ops,
        ),
        ratio(c("plan.fallback"), ops),
        ratio(us(t.plain.layers.analyze), plain_ops),
        ratio(t.traced.layers.downgrades as f64, ops),
        ratio(reason_us, ops),
        ratio(c("reason.static_verdict") + c("reason.cover_hit"), ops),
        ratio(c("reason.cc.dropped"), ops),
        ratio(m.skip as f64, slots),
        ratio(m.memo_hit as f64, slots),
        ratio(m.fast_complete as f64, slots),
        ratio(m.recert_hit as f64, slots),
        ratio(m.redecide as f64, slots),
        ratio(m.cc_delta as f64, (m.cc_delta + m.cc_full) as f64),
        ratio(m.replan as f64 * 1e3, plain_ops),
        quantile(&sorted_us(&redecide_lat), 0.5),
        quantile(&sorted_us(&fast_lat), 0.5),
        balance,
        chunks_per_worker,
        ratio(traced_p50, plain_p50) - 1.0,
        ratio(t.alloc.op_alloc.allocs as f64, t.alloc.ops as f64),
        ratio(t.alloc.op_alloc.bytes as f64, t.alloc.ops as f64),
    ]
}

/// Work balance of a parallel pass from its `par.timeline` notes
/// (`worker W chunk C S..Eus`): summed chunk time over workers × the
/// busiest worker's time, and chunks per worker.
fn par_balance(p: &Pass) -> (f64, f64) {
    let mut busy = [0.0; PAR_WORKERS];
    let mut chunks = 0usize;
    for note in p.layers.report.notes("par.timeline") {
        let mut words = note.split_whitespace();
        let worker = words.nth(1).and_then(|w| w.parse::<usize>().ok());
        let span = words.nth(2).and_then(|s| {
            let (a, b) = s.trim_end_matches("us").split_once("..")?;
            Some(b.parse::<f64>().ok()? - a.parse::<f64>().ok()?)
        });
        if let (Some(w), Some(d)) = (worker, span) {
            if let Some(b) = busy.get_mut(w) {
                *b += d;
                chunks += 1;
            }
        }
    }
    let workers = PAR_WORKERS as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    (
        ratio(busy.iter().sum(), workers * max),
        chunks as f64 / workers,
    )
}
