//! End-to-end benchmark for `ric`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject-fault]
//! ```
//!
//! One client runs a closed loop over the workload's seeded op cycle with one
//! enumeration worker. With `--trace 0` it sets up, warms up for one cycle,
//! then runs whole cycles for `--seconds` (timing one more set-up about once
//! a second) and prints the end-to-end metrics: latency quantiles over each
//! op's best latency across cycles, throughput of the fastest cycle, and the
//! memory high-water mark of the measured loop. With `--trace 1` it
//! runs fixed passes — untraced, traced twice, allocation-counted twice, and
//! for `rcdp-exhaustive` one traced pass at two workers — checks that the
//! two traced and the two counted passes report identical deterministic
//! counts, and prints the per-layer metrics. Every op is checked against an
//! oracle after its clock stops. `--inject-fault` flips one expected verdict
//! so the checks can be seen to fail.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a provenance line comes
//! before it. The exit code is 1 when any op failed or the determinism
//! check did not hold, 2 on bad arguments.

mod alloc;
mod harness;
mod metrics;
mod provenance;
mod workloads;

use harness::{run_pass, Mode, Pass, Workload};
use metrics::{quantile, ratio, sorted_us, Decl, Traced, END_TO_END, PAR_WORKERS, PER_LAYER};
use ric::telemetry::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Report counters that depend on the thread schedule, left out of the
/// determinism check.
const SCHEDULE_DEPENDENT: [&str; 2] = ["par.steal", "par.chunk"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_fault = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        inject_fault,
    })
}

/// A finished run: the metrics in declaration order, plus op accounting.
struct Outcome {
    values: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    deterministic: bool,
}

fn build(args: &Args, workers: usize) -> Box<dyn Workload> {
    match workloads::build(&args.workload, args.seed, workers) {
        Some(w) => w,
        None => unreachable!("workload names are checked while parsing arguments"),
    }
}

/// The post-setup steps every run shares: the oracle (untimed), the
/// optional injected fault, and one warm-up cycle.
fn prime(w: &mut dyn Workload, args: &Args, passes: &mut Vec<Pass>) {
    w.oracle();
    if args.inject_fault {
        w.corrupt_oracle();
    }
    passes.push(run_pass(w, Mode::Plain, 1, None, None));
}

/// Resident-set high-water mark of this process since [`reset_peak_rss`],
/// in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand the heap's free pages back to the system: glibc keeps freed memory
/// resident, which would count set-up and oracle garbage as the loop's.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and only releases memory the
    // allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Lower the resident-set high-water mark to the current resident set, so
/// that [`peak_rss_mb`] sees only what comes after.
fn reset_peak_rss() {
    trim_heap();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the resident-set high-water mark: {e}");
    }
}

fn untraced(args: &Args) -> Outcome {
    let mut w = build(args, 1);
    let mut passes = Vec::new();
    prime(w.as_mut(), args, &mut passes);
    // The memory high-water mark starts from what is live after set-up,
    // oracle and warm-up, and is read at the first pause, about a second
    // into the loop and before any extra set-up: the cycles reach their peak
    // in their first run, so the figure does not grow with the length of
    // the run. In each pause, at a cycle boundary about once a second, the
    // workload is set up once more from scratch and dropped, so the set-up
    // samples spread over the run like the op samples do.
    reset_peak_rss();
    let mut peak_mb = None;
    let mut setups = Vec::new();
    let mut set_up_again = || {
        peak_mb.get_or_insert_with(peak_rss_mb);
        let t0 = Instant::now();
        drop(build(args, 1));
        setups.push(t0.elapsed().as_secs_f64());
    };
    let end = Instant::now() + Duration::from_secs(args.seconds);
    let pass = run_pass(
        w.as_mut(),
        Mode::Plain,
        1,
        Some(end),
        Some(&mut set_up_again),
    );
    set_up_again();
    let ops = pass.ops as f64;
    let lat = sorted_us(&pass.best);
    let cycle_s = pass.best_cycle.map_or(0.0, |d| d.as_secs_f64());
    setups.sort_by(f64::total_cmp);
    let values = vec![
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        ratio(w.cycle_len() as f64, cycle_s),
        1.0 - ratio(pass.failures.len() as f64, ops),
        ratio(pass.decided as f64, ops),
        setups[0],
        peak_mb.unwrap_or(0.0),
    ];
    let cycles = pass.ops / w.cycle_len() as u64;
    let beyond = |q: f64| Json::from(lat.iter().filter(|&&x| x > q).count() as u64);
    println!(
        "{}",
        Json::obj([(
            "latency_samples",
            Json::obj([
                ("ops_per_cycle", Json::from(w.cycle_len() as u64)),
                ("cycles", Json::from(cycles)),
                ("beyond_p50", beyond(values[0])),
                ("beyond_p90", beyond(values[1])),
                ("setups", Json::from(setups.len() as u64)),
            ])
        )])
    );
    eprintln!(
        "{ops} ops measured in {cycles} cycles; latency is over each op's best of its cycles, throughput over the fastest cycle"
    );
    summarize_classes(w.as_ref(), &pass.best, values[0], values[1]);
    passes.push(pass);
    finish(values, &passes, true)
}

fn traced(args: &Args) -> Outcome {
    let mut w = build(args, 1);
    let mut passes = Vec::new();
    prime(w.as_mut(), args, &mut passes);
    let cycles = w.trace_cycles();
    let pass = |w: &mut dyn Workload, mode, passes: &mut Vec<Pass>| {
        if w.reset() {
            passes.push(run_pass(w, Mode::Plain, 1, None, None));
        }
        run_pass(w, mode, cycles, None, None)
    };
    let plain = pass(w.as_mut(), Mode::Plain, &mut passes);
    let traced = pass(w.as_mut(), Mode::Traced, &mut passes);
    let traced2 = pass(w.as_mut(), Mode::Traced, &mut passes);
    let counted = pass(w.as_mut(), Mode::Alloc, &mut passes);
    let counted2 = pass(w.as_mut(), Mode::Alloc, &mut passes);
    let deterministic = same_counts(&traced, &traced2, &counted, &counted2);
    let par = (args.workload == "rcdp-exhaustive").then(|| {
        let mut w2 = build(args, PAR_WORKERS);
        prime(w2.as_mut(), args, &mut passes);
        run_pass(w2.as_mut(), Mode::Traced, 1, None, None)
    });
    let values = metrics::per_layer(&Traced {
        plain: &plain,
        traced: &traced,
        alloc: &counted,
        par: par.as_ref(),
        settings: w.settings(),
        parsed: w.parsed(),
        setup_prepare: w.setup_prepare(),
    });
    passes.extend([plain, traced, traced2, counted, counted2]);
    passes.extend(par);
    finish(values, &passes, deterministic)
}

/// Do two traced and two allocation-counted passes of the same ops report
/// the same deterministic counts?
fn same_counts(t1: &Pass, t2: &Pass, a1: &Pass, a2: &Pass) -> bool {
    let counters = |p: &Pass| {
        let mut c = p.layers.report.counters.clone();
        c.retain(|k, _| !SCHEDULE_DEPENDENT.contains(k));
        c
    };
    let mut ok = true;
    let (c1, c2) = (counters(t1), counters(t2));
    if c1 != c2 {
        for (k, v) in &c1 {
            if c2.get(k) != Some(v) {
                eprintln!("determinism: counter {k}: {v} vs {:?}", c2.get(k));
            }
        }
        ok = false;
    }
    if t1.layers.monitor != t2.layers.monitor {
        eprintln!(
            "determinism: monitor counters {:?} vs {:?}",
            t1.layers.monitor, t2.layers.monitor
        );
        ok = false;
    }
    if a1.op_alloc != a2.op_alloc || a1.layers.decide_alloc != a2.layers.decide_alloc {
        eprintln!(
            "determinism: allocations {:?}/{:?} vs {:?}/{:?}",
            a1.op_alloc, a1.layers.decide_alloc, a2.op_alloc, a2.layers.decide_alloc
        );
        ok = false;
    }
    ok
}

fn finish(values: Vec<f64>, passes: &[Pass], deterministic: bool) -> Outcome {
    Outcome {
        values,
        attempted: passes.iter().map(|p| p.ops).sum(),
        failures: passes
            .iter()
            .flat_map(|p| p.failures.iter().cloned())
            .collect(),
        deterministic,
    }
}

/// Per op class, on standard error: its share of the cycle, the quantiles
/// of its ops' best latencies, and the share of them above the reported p50
/// and p90, which shows where the percentiles fall in the mix.
fn summarize_classes(w: &dyn Workload, best: &[Duration], p50: f64, p90: f64) {
    let mut by_class: Vec<(&str, Vec<Duration>)> = Vec::new();
    for (i, lat) in best.iter().enumerate() {
        let class = w.class(i);
        match by_class.iter_mut().find(|(c, _)| *c == class) {
            Some((_, v)) => v.push(*lat),
            None => by_class.push((class, vec![*lat])),
        }
    }
    for (class, lats) in &by_class {
        let s = sorted_us(lats);
        let above = |q: f64| s.iter().filter(|&&x| x > q).count() as f64 / s.len() as f64;
        eprintln!(
            "  {class:<16} share={:>5.3} p50={:>10.1}us p90={:>10.1}us above p50/p90: {:.2}/{:.2}",
            s.len() as f64 / best.len() as f64,
            quantile(&s, 0.5),
            quantile(&s, 0.9),
            above(p50),
            above(p90)
        );
    }
}

fn metrics_json(decls: &[Decl], values: &[f64]) -> Json {
    Json::obj(decls.iter().zip(values).map(|(d, &v)| {
        (
            d.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::from(d.unit))]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ric-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let record = provenance::record(
        &args.workload,
        args.seed,
        workloads::ENGINE_NAME,
        1,
        args.trace,
    );
    println!("{}", Json::obj([("provenance", record)]));
    let (outcome, decls): (Outcome, &[Decl]) = if args.trace {
        (traced(&args), &PER_LAYER)
    } else {
        (untraced(&args), &END_TO_END)
    };
    if args.trace {
        for (d, v) in decls.iter().zip(&outcome.values) {
            let moves = match (d.moves, d.flat) {
                ("", _) => format!("(moves no end-to-end metric; on {})", d.on),
                (m, "") => format!("moves {m} on {}", d.on),
                (m, f) => format!("moves {m} on {}; flat on {f}", d.on),
            };
            eprintln!("  {:<40} {v:>14.4} {:<6} {moves}", d.name, d.unit);
        }
    }
    for f in outcome.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    let failed = outcome.failures.len() as u64;
    let correct = failed == 0 && outcome.deterministic;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(outcome.attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics_json(decls, &outcome.values)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
