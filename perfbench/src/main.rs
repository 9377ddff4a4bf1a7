//! The repository benchmark: four seeded workloads driven through the
//! program's public entry points, with output checks, end-to-end host
//! metrics, per-layer counts and a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (`setup_s`, `wall_s`,
//! `peak_rss_mb`), measured with tracing off; with `--trace 1` they are
//! the per-layer ones, and the spans of the median traced pass are
//! written to `perfbench/out/<workload>.trace.json`. A failed output
//! check exits 1 without a result line; bad arguments exit 2.

mod admission;
mod gen;
mod layers;
mod trace;
mod vni;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use slingshot_k8s::{
    run_fabric_scenario, run_scenario, run_vni_stress, Cluster, FabricSweepReport, ScenarioReport,
    ShardedVniDb, VniDbConfig, VniStressReport, VniStressWorkload,
};

use crate::layers::Layers;
use crate::trace::{Trace, Tracer};

const WORKLOADS: [&str; 4] = [
    "admission-churn",
    "serving-allreduce",
    "dragonfly-sweep",
    "vni-churn",
];

/// Set-ups before each timed run; `setup_s` is the median of all.
const SETUP_REPS: usize = 15;
/// Fewest timed runs of the workload, however long they take.
const MIN_RUNS: usize = 3;
/// Median time of the one-thread [`reference_kernel`] on the host the
/// bounds were set on (a 2-vCPU x86-64 VM), so normalised times read as
/// seconds there.
const REFERENCE_KERNEL_S: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one benchmark process reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Pin glibc's mmap threshold at its default. glibc otherwise raises the
/// threshold after the first large free, so later large `Vec` growth
/// copies on the heap instead of remapping, and a run's peak RSS then
/// depends on allocation history: serving-allreduce read 21 or 26 MB
/// across seeds with the dynamic threshold, 14.6-14.8 MB pinned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets an allocator tunable; it is called once,
    // on the main thread, before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "admission-churn" => admission_churn(&args),
        "serving-allreduce" => serving_allreduce(&args),
        "dragonfly-sweep" => dragonfly_sweep(&args),
        _ => vni_churn(&args),
    };
    match result {
        Ok(out) => {
            // Built by hand so every value keeps all its digits (`{}` on
            // an f64 prints the shortest string that reads back exactly).
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    assert!(value.is_finite(), "{name} is not finite");
                    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                out.attempted,
                out.failed,
                metrics.join(",")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

// ---- Measurement -----------------------------------------------------

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples: the `ceil(q·n/100)`-th
/// smallest.
fn nearest_rank(sorted: &[u64], q: u64) -> u64 {
    let rank = (sorted.len() as u64 * q).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// FNV-1a 64 over the serialized report: equal digests mean equal
/// report bytes, so a change that claims to touch only host speed can
/// show its simulated output did not move.
fn digest<T: serde::Serialize>(report: &T) -> u64 {
    let bytes = serde_json::to_string(report).expect("reports serialize");
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A fixed workload that shares no code with the program: string keys
/// churning through an ordered map, the same kind of work (allocation,
/// pointer chasing, comparisons) the simulator does. Its time measures
/// how fast the host runs right now. It runs on as many threads as the
/// workload; several threads meet at a `Barrier` every 100 operations,
/// as the sharded simulator's workers meet at every window, so the
/// kernel also slows when only one of the host's CPUs is busy elsewhere.
fn reference_kernel(threads: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let work = |mut x: u64| {
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(format!("tenant/{}", x % 20_000), i);
            if i % 3 == 0 {
                map.remove(&format!("tenant/{}", (x >> 20) % 20_000));
            }
            if threads > 1 && i % 100 == 0 {
                barrier.wait();
            }
        }
        black_box(map.len());
    };
    let t = Instant::now();
    std::thread::scope(|s| {
        for k in 1..threads {
            s.spawn(move || work(0x9e37_79b9_7f4a_7c15 ^ k as u64));
        }
        work(0x9e37_79b9_7f4a_7c15);
    });
    t.elapsed().as_secs_f64()
}

/// End-to-end timings of one process. Each round times the reference
/// kernel, [`SETUP_REPS`] set-ups, one run of the workload on the last
/// set-up's input, and the kernel again; rounds repeat until `seconds`
/// have passed (at least [`MIN_RUNS`]). Every run must produce the same
/// report bytes.
///
/// The host's speed drifts by 20-30% over minutes (other tenants of the
/// machine), far more than the bounds allow. The kernel slows with it
/// (log-correlation 0.82-0.84 with serving-allreduce runs), so each
/// round's times are scaled by `REFERENCE_KERNEL_S / kernel time`, the
/// mean of the kernel before and after: over 15-run windows the spread
/// of the median fell from 13% raw to 3% scaled.
struct Timed<R> {
    /// Normalised set-up times.
    setup_s: Vec<f64>,
    /// Normalised run times.
    wall_s: Vec<f64>,
    /// Raw run times.
    raw_wall_s: Vec<f64>,
    /// Reference-kernel time of each round.
    kernel_s: Vec<f64>,
    report: R,
    digest: u64,
}

fn measure<I, R: serde::Serialize>(
    seconds: f64,
    threads: usize,
    setup: impl Fn() -> I,
    run: impl Fn(&I) -> R,
) -> Result<Timed<R>, String> {
    let start = Instant::now();
    let (mut setup_s, mut wall_s, mut raw_wall_s, mut kernel_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(R, u64)> = None;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    loop {
        let before = reference_kernel(threads);
        setups.clear();
        let mut input = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous input before timing the next set-up.
            drop(input.take());
            let t = Instant::now();
            let i = black_box(setup());
            setups.push(t.elapsed().as_secs_f64());
            input = Some(i);
        }
        let input = input.expect("at least one set-up");
        let t = Instant::now();
        let report = black_box(run(&input));
        let wall = t.elapsed().as_secs_f64();
        let kernel = (before + reference_kernel(threads)) / 2.0;
        let scale = REFERENCE_KERNEL_S / kernel;
        setup_s.extend(setups.iter().map(|s| s * scale));
        wall_s.push(wall * scale);
        raw_wall_s.push(wall);
        kernel_s.push(kernel);
        let d = digest(&report);
        match &first {
            None => first = Some((report, d)),
            Some((_, d0)) if *d0 != d => {
                return Err(format!(
                    "run {} produced different report bytes",
                    wall_s.len()
                ))
            }
            Some(_) => {}
        }
        if wall_s.len() >= MIN_RUNS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (report, digest) = first.expect("at least one run");
    Ok(Timed {
        setup_s,
        wall_s,
        raw_wall_s,
        kernel_s,
        report,
        digest,
    })
}

/// The traced run: after an untraced warm-up, untraced and traced
/// passes alternate until `seconds` have passed (at least one of each).
/// Returns the untraced walls, the warm-up's report, and every traced
/// pass.
fn measure_traced<R, X>(
    seconds: f64,
    mut untraced: impl FnMut() -> R,
    mut traced: impl FnMut(&mut Tracer) -> X,
) -> (Vec<f64>, R, Vec<(Trace, X)>) {
    // One untraced warm-up pass, so the first timed pass does not pay
    // for growing the heap.
    let first = black_box(untraced());
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = black_box(untraced());
        walls.push(t.elapsed().as_secs_f64());
        drop(r);
        let mut tr = Tracer::start();
        let x = black_box(traced(&mut tr));
        passes.push((tr.finish(), x));
    }
    (walls, first, passes)
}

/// The traced pass whose wall time is the median; its self times plus
/// its uncovered time add up to its wall time exactly.
fn median_pass<X>(mut passes: Vec<(Trace, X)>) -> (Trace, X, f64) {
    let walls: Vec<f64> = passes
        .iter()
        .map(|(t, _)| t.wall_ns() as f64 * 1e-9)
        .collect();
    let med = median(&walls);
    let idx = walls
        .iter()
        .enumerate()
        .min_by(|a, b| (a.1 - med).abs().total_cmp(&(b.1 - med).abs()))
        .map(|(i, _)| i)
        .expect("at least one pass");
    let (trace, x) = passes.swap_remove(idx);
    (trace, x, med)
}

/// Print the end-to-end metrics of an untraced run, with the simulated
/// ones from `l`, and build the result.
fn end_to_end<R>(
    name: &str,
    m: &Timed<R>,
    l: &mut Layers,
    (attempted, failed): (u64, u64),
) -> Result<Outcome, String> {
    let (setup, wall) = (median(&m.setup_s), median(&m.wall_s));
    let rss = peak_rss_mb()?;
    println!("digest {name} fnv1a64={:016x}", m.digest);
    println!(
        "metric setup_s {setup:.6} s (median of {} set-ups, host-speed normalised)",
        m.setup_s.len()
    );
    let runs: Vec<String> = m.raw_wall_s.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "metric wall_s {wall:.6} s (median of {} runs, host-speed normalised; raw median {:.6} s, runs: {})",
        m.wall_s.len(),
        median(&m.raw_wall_s),
        runs.join(" ")
    );
    println!(
        "host reference kernel median {:.6} s (normalised to {REFERENCE_KERNEL_S} s)",
        median(&m.kernel_s)
    );
    println!("metric peak_rss_mb {rss:.3} MB");
    print_sim(l, attempted, failed);
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), setup, "s"),
            ("wall_s".into(), wall, "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ],
    })
}

/// Print the simulated end-to-end metrics and the failure ratio; a
/// workload they do not apply to says so.
fn print_sim(l: &mut Layers, attempted: u64, failed: u64) {
    let ratio = failed as f64 / attempted as f64;
    l.set("ops_failed_ratio", ratio);
    println!("metric ops_failed_ratio {ratio} ({failed}/{attempted})");
    for (name, unit) in [
        ("sim_admission_p50_s", "s"),
        ("sim_admission_p99_s", "s"),
        ("sim_rpc_p50_us", "us"),
        ("sim_rpc_p99_us", "us"),
    ] {
        match l.get(name) {
            Some(v) => println!("metric {name} {v} {unit}"),
            None => println!("metric {name} n/a (not measured by this workload)"),
        }
    }
}

/// Print the traced run's results, write its trace, and build the
/// result from every per-layer metric.
fn finish_traced(
    name: &str,
    l: &mut Layers,
    (attempted, failed): (u64, u64),
    untraced_walls: &[f64],
    trace: &Trace,
    traced_wall: f64,
) -> Result<Outcome, String> {
    print_sim(l, attempted, failed);
    let untraced = median(untraced_walls);
    l.set("trace.overhead_ratio", (traced_wall - untraced) / untraced);
    l.set("trace.uncovered_ratio", trace.uncovered_ratio());
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("{name}.trace.json"),
    ]
    .iter()
    .collect();
    trace
        .write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace {name}: {} (Chrome trace-event JSON)", path.display());
    print!("{}", trace.table());
    Ok(Outcome {
        attempted,
        failed,
        metrics: l.print_and_collect(),
    })
}

// ---- admission-churn -------------------------------------------------

fn admission_churn(a: &Args) -> Result<Outcome, String> {
    let seed = a.seed;
    let setup = || {
        let sc = gen::admission_churn(seed);
        let cluster = Cluster::new(sc.config.clone());
        (sc, cluster)
    };
    if !a.trace {
        let m = measure(a.seconds, 1, setup, |(sc, _)| run_scenario(sc))?;
        let checked = check_admission(&m.report)?;
        let mut l = Layers::default();
        admission_counts(&mut l, &m.report, median(&m.raw_wall_s));
        return end_to_end("admission-churn", &m, &mut l, checked);
    }
    let (sc, _) = setup();
    let (walls, report, passes) = measure_traced(
        a.seconds,
        || run_scenario(&sc),
        |tr| admission::replay(&sc, Cluster::new(sc.config.clone()), tr),
    );
    let checked = check_admission(&report)?;
    for (_, replay) in &passes {
        replay
            .check_against(&report)
            .map_err(|e| format!("replay equivalence: {e}"))?;
    }
    println!(
        "replay-equivalence admission-churn: admission instants, pods started and VNI txns match"
    );
    let (trace, replay, traced_wall) = median_pass(passes);
    let mut l = Layers::default();
    admission_counts(&mut l, &report, median(&walls));
    let t = trace.layers();
    let s = |n: &str| Trace::self_s(&t, n);
    l.set(
        "k8s.tick_s",
        t.get("k8s.tick").map_or(0.0, |x| x.total_ns as f64 * 1e-9),
    );
    l.set("k8s.jobctl_s", s("k8s.jobctl"));
    l.set("k8s.svcctl_s", s("k8s.svcctl"));
    l.set("k8s.vni_decorators_s", s("k8s.vni_decorators"));
    l.set("k8s.scheduler_s", s("k8s.scheduler"));
    l.set("k8s.kubelet_s", s("k8s.kubelet"));
    l.set("k8s.pleg_s", s("k8s.pleg"));
    l.set(
        "containers.runtime_s",
        s("containers.create_sandbox")
            + s("containers.start_container")
            + s("containers.remove_sandbox"),
    );
    l.set("cni.add_s", s("cni.add"));
    l.set("cni.del_s", s("cni.del"));
    l.set("k8s.api_events", replay.api_events as f64);
    l.set("vni_db.acquires", replay.vni_acquires as f64);
    l.set("vni_db.releases", replay.vni_releases as f64);
    l.set("vni_db.reuse_allocs", replay.vni_reuse_allocs as f64);
    l.unavailable(
        "vni_db.op_s",
        "VNI transactions run inside the decorator controllers' spans",
    );
    l.unavailable(
        "vnistore.device_bytes",
        "the cluster's store devices are not crashed here",
    );
    finish_traced(
        "admission-churn",
        &mut l,
        checked,
        &walls,
        &trace,
        traced_wall,
    )
}

/// Output checks; returns (attempted, failed) = (jobs planned, jobs not
/// started + pods failed).
fn check_admission(r: &ScenarioReport) -> Result<(u64, u64), String> {
    if !r.passed {
        return Err(format!(
            "isolation or end-state audit failed: {:?}",
            r.isolation
        ));
    }
    if r.traffic.authorized_sends != 0 || r.traffic.rounds != 0 {
        return Err("admission-churn must carry no traffic".into());
    }
    if r.jobs.started < gen::ADMISSION_MIN_STARTED {
        return Err(format!(
            "{} jobs admitted, the workload needs at least {}",
            r.jobs.started,
            gen::ADMISSION_MIN_STARTED
        ));
    }
    let failed = (r.jobs.planned - r.jobs.started) + r.kubelet.pods_failed;
    Ok((r.jobs.planned, failed))
}

fn admission_counts(l: &mut Layers, r: &ScenarioReport, wall_s: f64) {
    scenario_counts(l, r, wall_s);
    let mut adm: Vec<u64> = r
        .jobs
        .outcomes
        .iter()
        .filter_map(|o| o.admission_us)
        .collect();
    adm.sort_unstable();
    // The p99 needs at least ten samples beyond it (1,000 admitted
    // jobs); check_admission guarantees that many.
    l.set("sim_admission_p50_s", nearest_rank(&adm, 50) as f64 * 1e-6);
    l.set("sim_admission_p99_s", nearest_rank(&adm, 99) as f64 * 1e-6);
    l.unavailable(
        "k8s.api_events",
        "the untraced run keeps its cluster private",
    );
}

/// Counts every scenario report carries.
fn scenario_counts(l: &mut Layers, r: &ScenarioReport, wall_s: f64) {
    let iso = &r.isolation;
    let svc_requests: u64 = r.services.iter().map(|s| s.requests).sum();
    let svc_auth_failures: u64 = r.services.iter().map(|s| s.auth_failures).sum();
    l.set("k8s.pods_started", r.kubelet.pods_started as f64);
    l.set("k8s.pods_failed", r.kubelet.pods_failed as f64);
    l.set("cni.retries", r.kubelet.cni_retries as f64);
    // Every send and every probe authenticates once; an RPC
    // authenticates both ends.
    l.set(
        "cxi.auth_checks",
        (r.traffic.authorized_sends
            + r.traffic.auth_failures
            + 2 * svc_requests
            + iso.cross_tenant_attempts) as f64,
    );
    l.set(
        "cxi.auth_failures",
        (r.traffic.auth_failures + svc_auth_failures) as f64,
    );
    l.set(
        "cxi.probes_denied_ratio",
        if iso.cross_tenant_attempts == 0 {
            1.0
        } else {
            iso.cross_tenant_denied as f64 / iso.cross_tenant_attempts as f64
        },
    );
    l.set(
        "scenario.isolation_violations",
        (iso.cross_vni_deliveries
            + iso.quarantine_violations
            + iso.leaked_services
            + iso.stale_grants
            + iso.placement_violations) as f64,
    );
    l.set("vni_db.txns", r.vni.txn_count as f64);
    l.set("vni_db.acquires", r.vni.acquisitions as f64);
    l.set("vni_db.releases", r.vni.releases as f64);
    l.set("vni_db.exhaustions", r.vni.exhaustions as f64);
    l.set("vni_db.audit_len", r.vni.audit_len as f64);
    l.unavailable(
        "vni_db.reuse_allocs",
        "ScenarioReport carries no reuse count",
    );
    l.set("des.events", r.events_executed as f64);
    l.set("des.ns_per_event", wall_s * 1e9 / r.events_executed as f64);
    l.unavailable(
        "des.windows",
        "the scenario engine runs the serial calendar",
    );
    l.unavailable(
        "des.events_per_window",
        "the scenario engine runs the serial calendar",
    );
    l.unavailable(
        "des.cross_shard_injections",
        "the scenario engine runs the serial calendar",
    );
    l.unavailable(
        "des.parallel_speedup",
        "the scenario engine runs the serial calendar",
    );
    l.set("scenario.rpc_requests", svc_requests as f64);
    l.set(
        "scenario.rpc_dropped",
        r.services.iter().map(|s| s.dropped).sum::<u64>() as f64,
    );
    l.set(
        "scenario.skipped_fires",
        r.services.iter().map(|s| s.skipped_fires).sum::<u64>() as f64,
    );
    l.set(
        "scenario.collective_sends",
        r.traffic.authorized_sends as f64,
    );
    for name in [
        "k8s.tick_s",
        "k8s.jobctl_s",
        "k8s.svcctl_s",
        "k8s.vni_decorators_s",
        "k8s.scheduler_s",
        "k8s.kubelet_s",
        "k8s.pleg_s",
        "containers.runtime_s",
        "cni.add_s",
        "cni.del_s",
    ] {
        l.unavailable(
            name,
            "run_scenario is entered through one call; splitting it needs spans inside the program",
        );
    }
}

// ---- serving-allreduce -----------------------------------------------

fn serving_allreduce(a: &Args) -> Result<Outcome, String> {
    let seed = a.seed;
    let setup = || {
        let sc = gen::serving_allreduce(seed);
        let cluster = Cluster::new(sc.config.clone());
        (sc, cluster)
    };
    if !a.trace {
        let m = measure(a.seconds, 1, setup, |(sc, _)| run_scenario(sc))?;
        let checked = check_serving(&m.report)?;
        let mut l = Layers::default();
        serving_counts(&mut l, &m.report, median(&m.raw_wall_s));
        return end_to_end("serving-allreduce", &m, &mut l, checked);
    }
    let (sc, _) = setup();
    let (walls, report, passes) = measure_traced(
        a.seconds,
        || run_scenario(&sc),
        |tr| {
            tr.enter("scenario.run_scenario", 0);
            let r = run_scenario(&sc);
            tr.exit();
            digest(&r)
        },
    );
    let checked = check_serving(&report)?;
    let d = digest(&report);
    if passes.iter().any(|(_, x)| *x != d) {
        return Err("traced run produced different report bytes".into());
    }
    let (trace, _, traced_wall) = median_pass(passes);
    let mut l = Layers::default();
    serving_counts(&mut l, &report, median(&walls));
    finish_traced(
        "serving-allreduce",
        &mut l,
        checked,
        &walls,
        &trace,
        traced_wall,
    )
}

/// Output checks; returns (attempted, failed) = (RPCs + collective
/// sends, RPCs dropped or refused + collective sends dropped).
fn check_serving(r: &ScenarioReport) -> Result<(u64, u64), String> {
    if !r.passed {
        return Err(format!(
            "isolation, SLO or ready-floor check failed: {:?} {:?}",
            r.isolation,
            r.services
                .iter()
                .map(|s| (s.slo_met, s.floor_held))
                .collect::<Vec<_>>()
        ));
    }
    let rpc: u64 = r.services.iter().map(|s| s.requests).sum();
    let rpc_failed: u64 = r.services.iter().map(|s| s.dropped + s.auth_failures).sum();
    let failed = rpc_failed + r.traffic.dropped + r.traffic.auth_failures;
    if failed != 0 {
        return Err(format!(
            "{failed} RPCs or collective sends dropped or refused"
        ));
    }
    if r.services.len() != 2 || r.services.iter().any(|s| !s.slo_met || s.completed == 0) {
        return Err("both services must complete RPCs within their SLO".into());
    }
    Ok((
        rpc + r.traffic.authorized_sends + r.traffic.auth_failures,
        failed,
    ))
}

fn serving_counts(l: &mut Layers, r: &ScenarioReport, wall_s: f64) {
    scenario_counts(l, r, wall_s);
    l.unavailable(
        "k8s.api_events",
        "the untraced run keeps its cluster private",
    );
    let worst = |f: fn(&slingshot_k8s::ServiceReport) -> u64| {
        r.services.iter().map(f).max().unwrap_or(0) as f64 * 1e-3
    };
    l.set("sim_rpc_p50_us", worst(|s| s.p50_latency_ns));
    l.set("sim_rpc_p99_us", worst(|s| s.p99_latency_ns));
    // A request leg is one transfer and a response leg another; with no
    // drops (checked) every RPC made both.
    let rpc_legs: u64 = r
        .services
        .iter()
        .map(|s| s.requests - s.auth_failures + s.completed)
        .sum();
    let messages = r.traffic.authorized_sends + rpc_legs;
    let hops: u64 = r.traffic.by_job.iter().map(|j| j.fabric_switch_hops).sum();
    let job_delivered: u64 = r.traffic.by_job.iter().map(|j| j.delivered).sum();
    let congestion: u64 = r.traffic.by_class.iter().map(|c| c.congestion_drops).sum();
    let drops = r.traffic.dropped + r.services.iter().map(|s| s.dropped).sum::<u64>();
    l.set("fabric.messages", messages as f64);
    l.set(
        "fabric.hops_per_msg",
        hops as f64 / job_delivered.max(1) as f64,
    );
    l.note(
        "fabric.hops_per_msg",
        "collective messages only (services report no hop counts)",
    );
    l.set(
        "fabric.reroutes",
        r.traffic.fabric_reroutes.unwrap_or(0) as f64,
    );
    l.set(
        "fabric.ecn_marks",
        r.traffic.fabric_ecn_marks.unwrap_or(0) as f64,
    );
    l.set("fabric.congestion_drops", congestion as f64);
    l.set(
        "fabric.route_drops",
        drops.saturating_sub(congestion) as f64,
    );
    l.set("fabric.ns_per_msg", wall_s * 1e9 / messages.max(1) as f64);
    l.note(
        "fabric.ns_per_msg",
        "whole run_scenario wall over fabric transfers (an upper bound)",
    );
    l.set(
        "fabric.msg_latency_mean_us",
        r.traffic.mean_latency_ns as f64 * 1e-3,
    );
    l.note("fabric.msg_latency_mean_us", "collective messages");
}

// ---- dragonfly-sweep -------------------------------------------------

fn dragonfly_sweep(a: &Args) -> Result<Outcome, String> {
    let seed = a.seed;
    let setup = || gen::dragonfly_sweep(seed);
    if !a.trace {
        let m = measure(a.seconds, gen::SWEEP_THREADS, setup, |(sc, _)| {
            run_fabric_scenario(sc, gen::SWEEP_THREADS)
        })?;
        let checked = check_sweep(&m.report)?;
        let mut l = Layers::default();
        sweep_counts(&mut l, &m.report, median(&m.raw_wall_s));
        let out = end_to_end("dragonfly-sweep", &m, &mut l, checked)?;
        println!(
            "sim message latency mean {} us, max {} us",
            m.report.mean_latency_ns as f64 * 1e-3,
            m.report.max_latency_ns as f64 * 1e-3
        );
        return Ok(out);
    }
    let (sc, _) = setup();
    let (walls, report, passes) = measure_traced(
        a.seconds,
        || run_fabric_scenario(&sc, gen::SWEEP_THREADS),
        |tr| {
            tr.enter("fabric.run_sweep_t2", 0);
            let t2 = run_fabric_scenario(&sc, gen::SWEEP_THREADS);
            tr.exit();
            tr.enter("fabric.run_sweep_t1", 0);
            let t1 = run_fabric_scenario(&sc, 1);
            tr.exit();
            (t1, t2)
        },
    );
    let checked = check_sweep(&report)?;
    for (_, (t1, t2)) in &passes {
        if *t1 != report || *t2 != report {
            return Err("sweep reports differ between 1 and 2 threads or between runs".into());
        }
    }
    println!("thread-invariance dragonfly-sweep: 1-thread and 2-thread reports are identical");
    let (trace, _, _) = median_pass(passes);
    let mut l = Layers::default();
    sweep_counts(&mut l, &report, median(&walls));
    let t = trace.layers();
    let (t1, t2) = (
        Trace::self_s(&t, "fabric.run_sweep_t1"),
        Trace::self_s(&t, "fabric.run_sweep_t2"),
    );
    l.set("des.parallel_speedup", t1 / t2);
    l.note(
        "des.parallel_speedup",
        &format!(
            "1-thread over {}-thread wall, {} cores available",
            gen::SWEEP_THREADS,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    );
    // The traced pass runs the sweep twice (2 threads, then 1), so its
    // overhead is measured against the 2-thread span alone.
    finish_traced("dragonfly-sweep", &mut l, checked, &walls, &trace, t2)
}

/// Output checks; returns (attempted, failed) = (messages sent,
/// messages not delivered).
fn check_sweep(r: &FabricSweepReport) -> Result<(u64, u64), String> {
    if !r.passed {
        return Err("sweep failed conservation or conservative-sync checks".into());
    }
    if r.sent != r.delivered + r.congestion_drops + r.route_drops.unwrap_or(0) {
        return Err("messages not conserved".into());
    }
    if r.min_inject_slack_ns.is_some_and(|s| s < 0) {
        return Err("negative inject slack".into());
    }
    Ok((r.sent, r.sent - r.delivered))
}

fn sweep_counts(l: &mut Layers, r: &FabricSweepReport, wall_s: f64) {
    l.unavailable(
        "cxi.probes_denied_ratio",
        "no tenant probes another in this workload",
    );
    l.set("fabric.messages", r.sent as f64);
    l.set(
        "fabric.hops_per_msg",
        r.switch_hops as f64 / r.delivered.max(1) as f64,
    );
    l.unavailable(
        "fabric.reroutes",
        "the sharded engine does not count reroutes",
    );
    l.unavailable("fabric.ecn_marks", "the sharded engine does not mark ECN");
    l.set("fabric.congestion_drops", r.congestion_drops as f64);
    l.set("fabric.route_drops", r.route_drops.unwrap_or(0) as f64);
    l.set("fabric.ns_per_msg", wall_s * 1e9 / r.sent as f64);
    l.set(
        "fabric.msg_latency_mean_us",
        r.mean_latency_ns as f64 * 1e-3,
    );
    l.set("des.events", r.events_executed as f64);
    l.set("des.ns_per_event", wall_s * 1e9 / r.events_executed as f64);
    l.set("des.windows", r.windows as f64);
    l.set(
        "des.events_per_window",
        r.events_executed as f64 / r.windows.max(1) as f64,
    );
    l.set("des.cross_shard_injections", r.cross_group_injected as f64);
    l.unavailable("des.parallel_speedup", "measured by the traced run");
}

// ---- vni-churn -------------------------------------------------------

fn vni_churn(a: &Args) -> Result<Outcome, String> {
    let seed = a.seed;
    let setup = || {
        let sc = gen::vni_churn(seed);
        let db = ShardedVniDb::new(
            VniDbConfig {
                range: VniStressWorkload::RANGE,
                quarantine: shs_des::SimDur::from_secs(30),
            },
            sc.shards,
        );
        (sc, db)
    };
    if !a.trace {
        let m = measure(a.seconds, 1, setup, |(sc, _)| run_vni_stress(sc))?;
        let checked = check_vni(&m.report)?;
        let mut l = Layers::default();
        vni_counts(&mut l, &m.report);
        return end_to_end("vni-churn", &m, &mut l, checked);
    }
    let (sc, _) = setup();
    let (walls, report, passes) =
        measure_traced(a.seconds, || run_vni_stress(&sc), |tr| vni::run(&sc, tr));
    let checked = check_vni(&report)?;
    if passes.iter().any(|(_, x)| x.report != report) {
        return Err("replay equivalence: the traced run's VniStressReport differs".into());
    }
    println!("replay-equivalence vni-churn: traced VniStressReport matches");
    let (trace, traced, traced_wall) = median_pass(passes);
    let mut l = Layers::default();
    vni_counts(&mut l, &report);
    let t = trace.layers();
    l.set("vni_db.op_s", Trace::self_s(&t, "vni_db.op"));
    l.set("vnistore.flush_s", Trace::self_s(&t, "vnistore.flush_step"));
    l.set("vnistore.recover_s", Trace::self_s(&t, "vnistore.recover"));
    l.set("vnistore.device_bytes", traced.device_bytes as f64);
    finish_traced("vni-churn", &mut l, checked, &walls, &trace, traced_wall)
}

/// Output checks; returns (attempted, failed) = (ops, exhaustions).
fn check_vni(r: &VniStressReport) -> Result<(u64, u64), String> {
    if !(r.passed && r.consistent && r.recovered) {
        return Err(format!(
            "consistent={} recovered={}",
            r.consistent, r.recovered
        ));
    }
    if r.exhaustions != 0 {
        return Err(format!(
            "{} exhaustions; the workload must never exhaust",
            r.exhaustions
        ));
    }
    Ok((r.ops, r.exhaustions))
}

fn vni_counts(l: &mut Layers, r: &VniStressReport) {
    l.unavailable(
        "cxi.probes_denied_ratio",
        "no tenant probes another in this workload",
    );
    l.set("vni_db.txns", r.txns as f64);
    l.set("vni_db.acquires", r.acquires as f64);
    l.set("vni_db.releases", r.releases as f64);
    l.set("vni_db.reuse_allocs", r.reuse_allocs as f64);
    l.set("vni_db.exhaustions", r.exhaustions as f64);
    l.set("vni_db.audit_len", r.audit_len as f64);
}
