//! The closed loop shared by every workload: one client, the next op
//! sent only after the previous one returns.
//!
//! A workload is a fixed, seeded cycle of ops. Each op calls into the
//! library through [`Ctx`], which times the calls into each layer from
//! outside (analysis, reasoning + planning, the decision) and, in the traced
//! run, attaches a [`Collector`] to them. Checking an op against its oracle
//! happens after the op's clock stops.

use crate::alloc;
use ric::telemetry::{Collector, Probe, Report, TraceState};
use ric::MonitorCounters;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What the benchmark learns from one op, beyond its latency.
pub enum Check {
    /// The result matches the oracle; `decided` says whether it is a
    /// definite verdict rather than an `Unknown`.
    Ok { decided: bool },
    /// The result disagrees with the oracle, or the call returned an error.
    Failed(String),
}

/// A workload: setup builds its inputs from the seed, `oracle` computes the
/// expected results (outside every timed region), and `run` executes one op
/// of the cycle. Op `i` meets the same input in every cycle, so each op's
/// best latency over the cycles of a run is well defined.
pub trait Workload {
    /// Ops in one cycle of the schedule.
    fn cycle_len(&self) -> usize;

    /// Cycles in one pass of the traced run.
    fn trace_cycles(&self) -> usize;

    /// A short name for the class of op `i`, for the per-class summary.
    fn class(&self, i: usize) -> &'static str;

    /// Queries parsed during setup, and the time that took.
    fn parsed(&self) -> (usize, Duration);

    /// Time spent in prepare/register calls during setup.
    fn setup_prepare(&self) -> Duration;

    /// Compute the expected result of every op of the cycle.
    fn oracle(&mut self);

    /// Flip one expected result, to prove the checks catch a wrong verdict.
    fn corrupt_oracle(&mut self);

    /// Run op `i` of the cycle.
    fn run(&mut self, i: usize, ctx: &mut Ctx<'_>) -> Result<(), String>;

    /// Check the result of the op just run against the oracle.
    fn check(&mut self, i: usize) -> Check;

    /// Bring a stateful workload back to its post-setup state, so every
    /// traced pass starts from the same place; `false` when there is no
    /// state to reset.
    fn reset(&mut self) -> bool {
        false
    }

    /// Registered settings (the monitor's fan-out per op); 0 for workloads
    /// without a monitor.
    fn settings(&self) -> usize {
        0
    }

    /// The monitor's cumulative counters, for workloads that run one.
    fn monitor_counters(&self) -> Option<MonitorCounters> {
        None
    }
}

/// Per-layer accumulators for one pass, filled by [`Ctx`].
#[derive(Clone, Default, Debug)]
pub struct Layers {
    /// Time in the call that runs the decision (the facade decide call, or
    /// `Monitor::apply`).
    pub decide: Duration,
    /// Allocations inside those calls (allocation passes only).
    pub decide_alloc: alloc::Snapshot,
    /// Time in `analyze` plus applying its rewrites.
    pub analyze: Duration,
    /// Time in the reason + prepare call (reasoning included).
    pub prepare: Duration,
    /// Preparations built inside ops.
    pub prepares: u64,
    /// Certified fragment downgrades applied by analysis.
    pub downgrades: u64,
    /// Telemetry of every probed call, merged.
    pub report: Report,
    /// `MonitorCounters` delta over the pass.
    pub monitor: MonitorCounters,
}

/// The handle an op uses to call into the library.
pub struct Ctx<'a> {
    collector: Option<&'a Collector>,
    /// The per-layer accumulators of the current pass.
    pub layers: &'a mut Layers,
}

impl<'a> Ctx<'a> {
    /// Time `f` as the op's decision call, probed in traced passes.
    pub fn decide<T>(&mut self, f: impl FnOnce(Probe<'_>) -> T) -> T {
        let trace = TraceState::new();
        let probe = self.probe(&trace);
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let out = f(probe);
        self.layers.decide += t0.elapsed();
        self.layers.decide_alloc = add(self.layers.decide_alloc, alloc::snapshot().since(a0));
        out
    }

    /// Time `f` as static analysis.
    pub fn analyze<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.layers.analyze += t0.elapsed();
        out
    }

    /// Time `f` as reasoning + preparation, probed in traced passes.
    pub fn prepare<T>(&mut self, f: impl FnOnce(Probe<'_>) -> T) -> T {
        let trace = TraceState::new();
        let probe = self.probe(&trace);
        let t0 = Instant::now();
        let out = f(probe);
        self.layers.prepare += t0.elapsed();
        self.layers.prepares += 1;
        out
    }

    fn probe<'t>(&self, trace: &'t TraceState) -> Probe<'t>
    where
        'a: 't,
    {
        match self.collector {
            Some(c) => Probe::attached(c).with_trace(trace),
            None => Probe::disabled(),
        }
    }
}

fn add(a: alloc::Snapshot, b: alloc::Snapshot) -> alloc::Snapshot {
    alloc::Snapshot {
        allocs: a.allocs + b.allocs,
        bytes: a.bytes + b.bytes,
    }
}

/// How a pass is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// No probe, no allocation counting: the end-to-end configuration.
    Plain,
    /// A `Collector` on every probed call.
    Traced,
    /// The counting allocator on, no probe.
    Alloc,
}

/// Everything one pass observed. Its size depends on the cycle, not on how
/// many ops ran: latencies are kept as running minima per cycle position.
#[derive(Default, Debug)]
pub struct Pass {
    /// Ops attempted.
    pub ops: u64,
    /// Each cycle position's best latency over the pass's cycles. Op `i`
    /// meets the same input in every cycle; on a shared host the best of its
    /// runs repeats from run to run, where a quantile over all samples moves
    /// with the share of the run other tenants slowed.
    pub best: Vec<Duration>,
    /// The fastest whole cycle that ran: the sum of its ops' latencies.
    pub best_cycle: Option<Duration>,
    /// Ops that reached a definite verdict.
    pub decided: u64,
    /// Failure messages (one per failed op).
    pub failures: Vec<String>,
    /// Whole-op allocations (allocation passes only).
    pub op_alloc: alloc::Snapshot,
    /// Per-layer accumulators.
    pub layers: Layers,
    /// Per cycle position, the best latency among its ops whose
    /// transaction re-decided some setting (monitor workload only).
    pub best_redecide: Vec<Option<Duration>>,
    /// The same, among ops that took only fast paths.
    pub best_fast: Vec<Option<Duration>>,
}

/// How often a pass with a pause callback runs it, at a cycle boundary.
pub const PAUSE_EVERY: Duration = Duration::from_secs(1);

fn keep_min(slot: &mut Option<Duration>, lat: Duration) {
    *slot = Some(slot.map_or(lat, |b| b.min(lat)));
}

/// Run whole cycles of ops: at least `cycles`, and more until `until` has
/// passed, calling `pause` at the first cycle boundary after every
/// [`PAUSE_EVERY`]. Stopping and pausing only at cycle boundaries keeps the
/// op mix exact.
pub fn run_pass(
    w: &mut dyn Workload,
    mode: Mode,
    cycles: usize,
    until: Option<Instant>,
    mut pause: Option<&mut dyn FnMut()>,
) -> Pass {
    let len = w.cycle_len();
    let split = if w.monitor_counters().is_some() {
        len
    } else {
        0
    };
    let mut pass = Pass {
        best: vec![Duration::MAX; len],
        best_redecide: vec![None; split],
        best_fast: vec![None; split],
        ..Pass::default()
    };
    let collector = Collector::new();
    let start = w.monitor_counters();
    let mut next_pause = Instant::now() + PAUSE_EVERY;
    let mut cycle_time = Duration::ZERO;
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(len) && i > 0 {
            keep_min(&mut pass.best_cycle, cycle_time);
            cycle_time = Duration::ZERO;
            let now = Instant::now();
            if i / len >= cycles && until.is_none_or(|t| now >= t) {
                break;
            }
            if let Some(p) = pause.as_mut().filter(|_| now >= next_pause) {
                p();
                next_pause = Instant::now() + PAUSE_EVERY;
            }
        }
        let pos = i % len;
        let before = w.monitor_counters();
        if mode == Mode::Traced {
            collector.reset();
        }
        alloc::set_counting(mode == Mode::Alloc);
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let result = {
            let mut ctx = Ctx {
                collector: (mode == Mode::Traced).then_some(&collector),
                layers: &mut pass.layers,
            };
            catch_unwind(AssertUnwindSafe(|| w.run(pos, &mut ctx)))
        };
        let elapsed = t0.elapsed();
        let op_alloc = alloc::snapshot().since(a0);
        alloc::set_counting(false);
        pass.ops += 1;
        pass.best[pos] = pass.best[pos].min(elapsed);
        cycle_time += elapsed;
        pass.op_alloc = add(pass.op_alloc, op_alloc);
        if mode == Mode::Traced {
            pass.layers.report.merge(&collector.report());
        }
        if let (Some(b), Some(a)) = (before, w.monitor_counters()) {
            let path = if a.redecide > b.redecide {
                &mut pass.best_redecide
            } else {
                &mut pass.best_fast
            };
            keep_min(&mut path[pos], elapsed);
        }
        let check = match result {
            Ok(Ok(())) => w.check(pos),
            Ok(Err(e)) => Check::Failed(format!("op {pos}: error: {e}")),
            Err(_) => Check::Failed(format!("op {pos}: panicked")),
        };
        match check {
            Check::Ok { decided } => pass.decided += u64::from(decided),
            Check::Failed(msg) => pass.failures.push(msg),
        }
        i += 1;
    }
    if let (Some(b), Some(a)) = (start, w.monitor_counters()) {
        pass.layers.monitor = delta(&b, &a);
    }
    pass
}

fn delta(b: &MonitorCounters, a: &MonitorCounters) -> MonitorCounters {
    MonitorCounters {
        skip: a.skip - b.skip,
        redecide: a.redecide - b.redecide,
        memo_hit: a.memo_hit - b.memo_hit,
        recert_hit: a.recert_hit - b.recert_hit,
        recert_miss: a.recert_miss - b.recert_miss,
        fast_complete: a.fast_complete - b.fast_complete,
        cc_delta: a.cc_delta - b.cc_delta,
        cc_full: a.cc_full - b.cc_full,
        cc_delta_skipped: a.cc_delta_skipped - b.cc_delta_skipped,
        plan_stale: a.plan_stale - b.plan_stale,
        replan: a.replan - b.replan,
        reprepare: a.reprepare - b.reprepare,
        frontier_resume: a.frontier_resume - b.frontier_resume,
        memo_evict: a.memo_evict - b.memo_evict,
    }
}
