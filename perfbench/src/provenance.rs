//! Where a result came from: source revision, seed, engine, host and
//! toolchain. Printed as a JSON line ahead of every result.

use ric::telemetry::Json;
use std::process::Command;

/// `git describe --dirty --always` of the working directory, or `"unknown"`
/// outside a git checkout. Discovery stops at the working directory, so a
/// checkout nested in another repository does not report the outer one.
fn git_describe() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()));
    let mut cmd = Command::new("git");
    cmd.args(["describe", "--dirty", "--always"]);
    if let Some(ceiling) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The effective CPU quota in cores, from cgroup v2 `cpu.max` or cgroup v1
/// `cpu.cfs_quota_us` / `cpu.cfs_period_us`; `None` when unlimited or
/// unreadable.
fn cpu_quota() -> Option<f64> {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    if let Some(max) = read("/sys/fs/cgroup/cpu.max") {
        let mut parts = max.split_whitespace();
        let quota = parts.next()?.parse::<f64>().ok()?;
        let period = parts.next()?.parse::<f64>().ok()?;
        return Some(quota / period);
    }
    let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?
        .trim()
        .parse::<f64>()
        .ok()?;
    let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?
        .trim()
        .parse::<f64>()
        .ok()?;
    (quota > 0.0).then(|| quota / period)
}

/// The provenance record for one run.
pub fn record(workload: &str, seed: u64, engine: &str, workers: usize, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git", Json::from(git_describe().as_str())),
        ("workload", Json::from(workload)),
        ("seed", Json::Int(seed.into())),
        ("engine", Json::from(engine)),
        ("workers", Json::from(workers)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::from(nproc)),
        ("cpu_quota_cores", cpu_quota().map_or(Json::Null, Json::Num)),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC_VERSION"))),
    ])
}
