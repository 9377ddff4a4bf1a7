//! `bench-run` — the machine-readable perf trajectory.
//!
//! ```text
//! bench-run [--quick] [--baseline FILE] [--gate] [--label NAME] [--out FILE]
//!           [--shards LIST]
//! ```
//!
//! Times the control-plane hot paths the paper's VNI Database serializes
//! (§III-C2) and the end-to-end scenario engine, then emits one JSON
//! document (`shs-bench/v1`) with the **median ns/op** per benchmark and
//! **events/sec** per scenario. Passing `--baseline FILE` (a previous
//! `bench-run` output) folds that run's medians in as
//! `baseline_median_ns_per_op` plus a `speedup_vs_baseline` ratio
//! (3 decimals) and the raw signed `delta_pct`, so every PR's
//! `results/BENCH_pr<N>.json` records before *and* after. A benchmark
//! the baseline file does not know about gets an explicit
//! `"baseline_median_ns_per_op": null`. Adding `--gate` turns the
//! comparison into a CI check: the run exits non-zero when any metric
//! regresses by more than [`shs_harness::gate::MAX_REGRESSION_PCT`]
//! percent (new metrics are informational — see `shs_harness::gate`).
//! A metric that regresses on its first measurement is re-measured up
//! to [`GATE_RETRIES`] times and judged on its best result: on a
//! shared machine a throttle window makes unchanged code read 50%
//! slow, and one unlucky sample must not fail CI — a real regression
//! is slow on every attempt.
//!
//! Benchmarks:
//! * `vni_db_acquire_release` — allocate/release cycles at the default
//!   range width (3072) with the clock pinned at t=0, so released VNIs
//!   pile up in quarantine and the allocator must step past them;
//! * `vni_db_churn_hot` — the high-occupancy hot path: 3000 of 3072
//!   VNIs stay allocated while one tenant churns through the remainder,
//!   the clock advancing past the 30 s quarantine each cycle;
//! * `store_txn_commit` — a single-put ACID transaction (WAL append +
//!   fsync + apply), the floor under every VniDb operation;
//! * `store_txn_commit_grouped` — the same single-put transaction
//!   inside an open WAL group-commit batch flushed every 64 commits:
//!   the amortized per-commit cost the control plane pays under load;
//! * `store_recover_hist10k` / `store_recover_hist100k` — full store
//!   recovery from a shut-down device after 10k vs 100k commits of
//!   churn over the **same** live-row count. The truncating snapshot
//!   cadence keeps the device (and so the recovery scan) O(live rows):
//!   10× the history must not mean 10× the recovery time, and each
//!   entry records its `device_bytes` so the bound is visible;
//! * `osu_allreduce` — one 8-rank, 64 KiB ring allreduce over a 2-group
//!   dragonfly (every hop crossing the group trunk), the collective
//!   hot path of the `shs_mpi::Communicator`;
//! * `service_mesh_hot` — one TSoR-style request/response round trip
//!   per op between 8 replica NICs on the 3-group dragonfly (the
//!   response leg departs at the request's arrival instant), the
//!   serving-plane data path;
//! * `pleg_status_read_100` / `pleg_status_read_10k` — one PLEG-cached
//!   cluster status read (Running count + one group's ready count) at
//!   100 vs 10,000 pods. The pair is the serving plane's O(1)
//!   acceptance record: the cached median must stay flat across the
//!   100× pod-count step while the `pod_scan_status_read_*` pair — the
//!   same answer computed by the pre-PLEG full pod scan — grows
//!   linearly; the emitted `"pleg_status_reads"` block records both
//!   ratios.
//!
//! Scenarios (`churn`, `steady-state`, `rolling-update-allreduce`) run
//! once under the DES clock; their event counts are deterministic,
//! their wall-clock is not.
//!
//! The **sharded sweep**: the 1024-node `dragonfly-1024` fabric sweep
//! runs once under the sharded engine, its barrier windows inline on
//! the calling thread, emitting the `dragonfly-1024-t1` scenario row;
//! a `"parallel"` block records the deterministic shape (nodes, shards,
//! windows, cross-group events).
//!
//! The **control-plane sharding curve**: a bench-scale tenant-churn
//! stress run (2000 tenants through the sharded VNI database under
//! group commit, ending in a crash-recovery audit) runs once per
//! `--shards` entry (default `1,2,4`), emitting one `vni_stress-s<N>`
//! scenario row each. The run asserts the stress report —
//! allocations, audit length, transaction count, recovery outcome —
//! is **identical at every shard count** before reporting; only
//! wall-clock (and so ops/sec) may differ between rows.
//!
//! The emitted document also records a top-level `"host"` fingerprint
//! (core count, OS, architecture, CPU model): medians are only
//! comparable like-for-like, and the fingerprint makes cross-host
//! comparisons visibly suspect instead of silently wrong.

use std::path::PathBuf;
use std::time::Instant;

use serde_json::{json, Value};
use shs_harness::gate::{self, GateCheck};
use shs_harness::{HostInfo, OsuAllreduceWorkload};
use shs_vnistore::{SimDisk, Store, StoreConfig};
use slingshot_k8s::{
    by_name, parallel_by_name, run_fabric_scenario, run_scenario, run_vni_stress,
    AcquireReleaseWorkload, ChurnHotWorkload, FabricAdaptiveHotWorkload, FabricSweepReport,
    FabricTransferHotWorkload, PlegStatusReadWorkload, ServiceMeshHotWorkload, VniDb,
    VniStressReport, VniStressScenario,
};

/// Library scenarios timed end to end, one row each. The serving
/// entry drives every RPC through the service fire path (replica
/// resolution, endpoint authentication, two fabric legs), which
/// `service_mesh_hot` does not reach.
const TIMED_SCENARIOS: [&str; 3] = ["churn", "steady-state", "rolling-update-allreduce"];

/// The sharded-sweep subject: the 1024-node library sweep.
const PARALLEL_SCENARIO: &str = "dragonfly-1024";

/// Row name of the sweep. The `-t1` suffix dates from when the sweep
/// also ran on worker threads; keeping it lets the row compare against
/// the `dragonfly-1024-t1` rows of earlier `results/BENCH_pr<N>.json`.
const PARALLEL_ROW: &str = "dragonfly-1024-t1";

/// Row-name prefix of the control-plane sharding curve
/// (`vni_stress-s<N>` = the bench-scale stress run at N store shards).
const STRESS_PREFIX: &str = "vni_stress-s";

/// Tenant identities cycled by the bench-scale stress run.
const STRESS_TENANTS: u64 = 2_000;

/// Steps per bench-scale stress run (`vni_stress-s<N>` rows). Fixed
/// across `--quick` and full mode — the run ends in a crash+recovery
/// whose fixed cost amortizes over the op count, so rows are only
/// gate-comparable to a baseline recorded at the *same* size (unlike
/// the pure per-op micros, where iteration count cancels out).
const STRESS_OPS: u64 = 20_000;

/// Commits per durability barrier in `store_txn_commit_grouped` — the
/// same cadence `VniStressWorkload` flushes its group batches at.
const GROUP_FLUSH_EVERY: u64 = 64;

/// Live rows both recovery benchmarks leave on the device; only the
/// churn *history* differs between them.
const RECOVER_LIVE: u64 = 1_000;

/// How many fresh measurements a first-pass gate regression earns
/// before the gate fails it. The entry keeps its **best** measurement
/// and the baseline-derived fields are re-folded to match.
const GATE_RETRIES: usize = 2;

struct Opts {
    quick: bool,
    baseline: Option<PathBuf>,
    gate: bool,
    label: String,
    out: Option<PathBuf>,
    /// Shard counts for the control-plane sharding curve (one
    /// `vni_stress-s<N>` scenario row per entry).
    shards: Vec<usize>,
}

/// Sample/iteration budgets shared by the first measurement pass and
/// gate-mode re-measurement.
#[derive(Clone, Copy)]
struct Budgets {
    samples: usize,
    ar_iters: u64,
    churn_iters: u64,
    store_iters: u64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        baseline: None,
        gate: false,
        label: "bench-run".into(),
        out: None,
        shards: vec![1, 2, 4],
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--gate" => opts.gate = true,
            "--shards" => {
                let v = args.next().unwrap_or_else(|| usage("--shards needs a list, e.g. 1,2,4"));
                opts.shards = v
                    .split(',')
                    .map(|t| match t.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => usage("--shards entries must be integers >= 1"),
                    })
                    .collect();
                if opts.shards.is_empty() {
                    usage("--shards needs at least one entry");
                }
            }
            "--baseline" => {
                let v = args.next().unwrap_or_else(|| usage("--baseline needs a path"));
                opts.baseline = Some(PathBuf::from(v));
            }
            "--label" => {
                opts.label = args.next().unwrap_or_else(|| usage("--label needs a value"));
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage("--out needs a path"));
                opts.out = Some(PathBuf::from(v));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.gate && opts.baseline.is_none() {
        usage("--gate needs --baseline FILE to gate against");
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("bench-run: {msg}");
    eprintln!(
        "usage: bench-run [--quick] [--baseline FILE] [--gate] [--label NAME] [--out FILE] \
         [--shards LIST]"
    );
    std::process::exit(2);
}

/// Median of per-op timings, one entry per sample.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Time `op` for `samples` batches of `iters` calls; returns the median
/// ns/op over samples (each sample's mean is one data point).
fn measure(samples: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(per_op)
}

fn bench_entry(name: &str, median_ns: f64, samples: usize, iters: u64) -> Value {
    json!({
        "name": name,
        "median_ns_per_op": round1(median_ns),
        "samples": samples,
        "iters_per_sample": iters,
    })
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Speedup ratios get three decimals: at one decimal a real 0.96×
/// reads as the alarming 1.0×→0.9× step that made PR 5's noise look
/// like a regression (and a real 1.04× win disappears entirely).
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Allocate/release cycles with the clock pinned at t=0 — the exact
/// workload the `vni_db_acquire_release` Criterion target times (one
/// shared definition in `slingshot_k8s::workloads`).
fn bench_acquire_release(samples: usize, iters: u64) -> f64 {
    let mut w = AcquireReleaseWorkload::new();
    measure(samples, iters, || {
        w.step();
    })
}

/// The high-occupancy hot path timed by the `vni_db_churn_hot`
/// Criterion target — same shared definition, see
/// `slingshot_k8s::workloads::ChurnHotWorkload`.
fn bench_churn_hot(samples: usize, iters: u64) -> (f64, ChurnHotWorkload) {
    let mut w = ChurnHotWorkload::new();
    let med = measure(samples, iters, || {
        w.step();
    });
    (med, w)
}

/// The multi-switch fabric hot path timed by the `fabric_transfer_hot`
/// Criterion target — same shared definition, see
/// `slingshot_k8s::workloads::FabricTransferHotWorkload`.
fn bench_fabric_transfer_hot(samples: usize, iters: u64) -> f64 {
    let mut w = FabricTransferHotWorkload::new();
    measure(samples, iters, || {
        w.step();
    })
}

/// The same fabric hot path under UGAL adaptive routing — the per-step
/// premium of the injection-time queue compare over the static
/// `fabric_transfer_hot` baseline (see
/// `slingshot_k8s::workloads::FabricAdaptiveHotWorkload`).
fn bench_fabric_adaptive_hot(samples: usize, iters: u64) -> f64 {
    let mut w = FabricAdaptiveHotWorkload::new();
    measure(samples, iters, || {
        w.step();
    })
}

/// One 8-rank, 64 KiB ring allreduce across the 2-group dragonfly per
/// op — the `osu_allreduce` collective hot path, shared with the
/// Criterion `micro` target (see
/// `shs_harness::collective::OsuAllreduceWorkload`).
fn bench_osu_allreduce(samples: usize, iters: u64) -> f64 {
    let mut w = OsuAllreduceWorkload::new();
    let med = measure(samples, iters, || {
        w.step();
    });
    assert_eq!(w.lost(), 0, "the benchmark rig must stay lossless");
    med
}

/// One request/response round trip per op — the serving-plane data path
/// timed by the `service_mesh_hot` Criterion target (see
/// `slingshot_k8s::workloads::ServiceMeshHotWorkload`).
fn bench_service_mesh_hot(samples: usize, iters: u64) -> f64 {
    let mut w = ServiceMeshHotWorkload::new();
    measure(samples, iters, || {
        w.step();
    })
}

/// One PLEG-cached cluster status read per op over a settled `pods`-pod
/// cluster (see `slingshot_k8s::workloads::PlegStatusReadWorkload`).
fn bench_pleg_status_read(samples: usize, iters: u64, pods: u64) -> f64 {
    let mut w = PlegStatusReadWorkload::new(pods);
    measure(samples, iters, || {
        w.cached_read();
    })
}

/// The same status read computed by a full pod scan — the pre-PLEG read
/// path kept as the linear-growth contrast row.
fn bench_pod_scan_status_read(samples: usize, iters: u64, pods: u64) -> f64 {
    let mut w = PlegStatusReadWorkload::new(pods);
    measure(samples, iters, || {
        w.scan_read();
    })
}

/// `"pleg_status_read_<N>"` / `"pod_scan_status_read_<N>"` → (cached?,
/// pods) for the gate re-measure arm (`"10k"` → 10,000).
fn status_read_pods(name: &str) -> Option<(bool, u64)> {
    let (cached, rest) = if let Some(r) = name.strip_prefix("pleg_status_read_") {
        (true, r)
    } else if let Some(r) = name.strip_prefix("pod_scan_status_read_") {
        (false, r)
    } else {
        return None;
    };
    let pods = match rest.strip_suffix('k') {
        Some(thousands) => thousands.parse::<u64>().ok()? * 1_000,
        None => rest.parse::<u64>().ok()?,
    };
    Some((cached, pods))
}

fn bench_store_commit(samples: usize, iters: u64) -> f64 {
    let mut store = Store::new(StoreConfig { snapshot_every: None, ..Default::default() });
    let mut i = 0u64;
    measure(samples, iters, || {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"row");
        i += 1;
        txn.commit();
    })
}

/// The same single-put transaction as `store_txn_commit`, but inside an
/// open WAL group-commit batch flushed every [`GROUP_FLUSH_EVERY`]
/// commits — so each op's cost is the staged append plus its 1/64th
/// share of one batch frame + fsync. This amortized figure is what
/// every control-plane transaction pays under tenant-churn load.
fn bench_store_commit_grouped(samples: usize, iters: u64) -> f64 {
    let mut store = Store::new(StoreConfig { snapshot_every: None, ..Default::default() });
    store.group_begin();
    let mut i = 0u64;
    let med = measure(samples, iters, || {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"row");
        i += 1;
        txn.commit();
        if i.is_multiple_of(GROUP_FLUSH_EVERY) {
            store.group_flush();
        }
    });
    store.group_end();
    med
}

/// Store config for the recovery benchmarks: the WAL-growth-triggered
/// truncating snapshot cadence the VNI database runs under, which is
/// what bounds the device at O(live rows).
fn recover_config() -> StoreConfig {
    StoreConfig { snapshot_every: Some(256), snapshot_wal_factor: 1 }
}

/// Build a shut-down device holding [`RECOVER_LIVE`] stable rows plus
/// `history` commits of churn over a handful of hot keys. Under the
/// truncating snapshot cadence the device length is governed by the
/// live rows, not `history`.
fn churned_disk(history: u64) -> SimDisk {
    let mut store = Store::new(recover_config());
    for i in 0..RECOVER_LIVE {
        let mut txn = store.begin();
        txn.put("vnis", &i.to_be_bytes(), b"live row");
        txn.commit();
    }
    for i in 0..history {
        let mut txn = store.begin();
        txn.put("hot", &(i % 8).to_be_bytes(), &i.to_be_bytes());
        txn.commit();
    }
    store.shutdown()
}

/// Median ns per full recovery (snapshot decode + WAL-tail replay +
/// index rebuild) from a clone of `disk`.
fn bench_store_recover(samples: usize, iters: u64, disk: &SimDisk) -> f64 {
    measure(samples, iters, || {
        let store = Store::recover(disk.clone(), recover_config());
        assert_eq!(store.row_count("vnis") as u64, RECOVER_LIVE, "recovery lost rows");
    })
}

/// `"store_recover_hist<N>k"` → churn history for the remeasure arm.
fn recover_row_history(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("store_recover_hist")?.strip_suffix('k')?;
    rest.parse::<u64>().ok().map(|k| k * 1_000)
}

/// Run one library scenario, returning (events executed, wall seconds).
fn run_scenario_timed(name: &str) -> (u64, f64) {
    let scenario = by_name(name, 42).expect("library scenario");
    let start = Instant::now();
    let report = run_scenario(&scenario);
    (report.events_executed, start.elapsed().as_secs_f64())
}

/// Run the parallel library sweep, returning its report and the wall
/// seconds.
fn run_parallel_timed() -> (FabricSweepReport, f64) {
    let sweep = parallel_by_name(PARALLEL_SCENARIO, 42).expect("parallel library scenario");
    let start = Instant::now();
    let report = run_fabric_scenario(&sweep, 1);
    let wall_s = start.elapsed().as_secs_f64();
    assert!(report.passed, "bench sweep must conserve messages: {report:?}");
    (report, wall_s)
}

/// `"vni_stress-s<N>"` → `N`: the shard count a sharding-curve scenario
/// row was measured at (gate re-measurement needs it back).
fn stress_row_shards(name: &str) -> Option<usize> {
    name.strip_prefix(STRESS_PREFIX)?.parse().ok()
}

/// Run the bench-scale control-plane stress scenario at `shards` store
/// shards, returning the (shard-count-invariant) report and the wall
/// seconds.
fn run_stress_timed(shards: usize, ops: u64) -> (VniStressReport, f64) {
    let scenario = VniStressScenario {
        name: "vni-stress-bench".into(),
        description: "bench-scale tenant churn through the sharded VNI database".into(),
        seed: 42,
        tenants: STRESS_TENANTS,
        ops,
        shards,
    };
    let start = Instant::now();
    let report = run_vni_stress(&scenario);
    let wall_s = start.elapsed().as_secs_f64();
    assert!(report.passed, "bench stress run must stay consistent and recover: {report:?}");
    (report, wall_s)
}

/// Baseline medians from a previous bench-run output, keyed by name.
fn baseline_map(path: &PathBuf, section: &str, field: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("bench-run: cannot read baseline {}", path.display());
        std::process::exit(2);
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        eprintln!("bench-run: baseline {} is not valid JSON", path.display());
        std::process::exit(2);
    };
    let mut out = Vec::new();
    if let Some(entries) = doc[section].as_array() {
        for e in entries {
            if let (Some(name), Some(v)) = (e["name"].as_str(), e[field].as_f64()) {
                out.push((name.to_string(), v));
            }
        }
    }
    out
}

fn fold_baseline(entries: &mut [Value], baseline: &[(String, f64)], field: &str) {
    let higher_is_better = field.ends_with("per_sec");
    for e in entries.iter_mut() {
        let Some(name) = e["name"].as_str() else { continue };
        let found = baseline.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
        let Some(current) = e[field].as_f64() else { continue };
        if let Value::Object(map) = e {
            let Some(base) = found else {
                // New benchmark: no history in this baseline file. The
                // explicit null tells readers (and the gate) "compared,
                // nothing to compare against" rather than "not compared".
                map.insert(format!("baseline_{field}"), Value::Null);
                continue;
            };
            map.insert(format!("baseline_{field}"), json!(round1(base)));
            if current > 0.0 && base > 0.0 {
                let ratio = if higher_is_better { current / base } else { base / current };
                map.insert("speedup_vs_baseline".into(), json!(round3(ratio)));
                // Raw signed regression percentage (positive = worse),
                // unrounded — the number the gate thresholds.
                map.insert(
                    "delta_pct".into(),
                    json!(gate::regression_pct(current, base, higher_is_better)),
                );
            }
        }
    }
}

/// One fresh measurement of a gate metric: `(value, wall_ms)` — the
/// value in the entry's own unit (ns/op or events/sec), `wall_ms` only
/// for scenario entries so their wall-clock field can stay coherent.
fn remeasure(name: &str, b: &Budgets) -> Option<(f64, Option<f64>)> {
    Some(match name {
        "vni_db_acquire_release" => (bench_acquire_release(b.samples, b.ar_iters), None),
        "vni_db_churn_hot" => (bench_churn_hot(b.samples, b.churn_iters).0, None),
        "store_txn_commit" => (bench_store_commit(b.samples, b.store_iters), None),
        "store_txn_commit_grouped" => (bench_store_commit_grouped(b.samples, b.store_iters), None),
        "fabric_transfer_hot" => (bench_fabric_transfer_hot(b.samples, b.store_iters), None),
        "fabric_adaptive_hot" => (bench_fabric_adaptive_hot(b.samples, b.store_iters), None),
        "osu_allreduce" => (bench_osu_allreduce(b.samples, b.churn_iters), None),
        "service_mesh_hot" => (bench_service_mesh_hot(b.samples, b.store_iters), None),
        _ if TIMED_SCENARIOS.contains(&name) => {
            let (events, wall_s) = run_scenario_timed(name);
            (events as f64 / wall_s, Some(wall_s * 1e3))
        }
        PARALLEL_ROW => {
            let (report, wall_s) = run_parallel_timed();
            (report.events_executed as f64 / wall_s, Some(wall_s * 1e3))
        }
        _ => {
            if let Some(history) = recover_row_history(name) {
                let disk = churned_disk(history);
                (bench_store_recover(b.samples, b.churn_iters, &disk), None)
            } else if let Some((cached, pods)) = status_read_pods(name) {
                let med = if cached {
                    bench_pleg_status_read(b.samples, b.store_iters, pods)
                } else {
                    bench_pod_scan_status_read(b.samples, b.churn_iters, pods)
                };
                (med, None)
            } else {
                let shards = stress_row_shards(name)?;
                let (report, wall_s) = run_stress_timed(shards, STRESS_OPS);
                (report.ops as f64 / wall_s, Some(wall_s * 1e3))
            }
        }
    })
}

/// Gate-mode de-flaking: every entry whose first measurement regresses
/// past the threshold is re-measured up to [`GATE_RETRIES`] times and
/// keeps its best result. A transient scheduler/throttle window does
/// not survive three attempts; a real regression fails all of them.
fn retry_regressions(
    entries: &mut [Value],
    baseline: &[(String, f64)],
    field: &str,
    budgets: &Budgets,
) {
    let higher_is_better = field.ends_with("per_sec");
    for _ in 0..GATE_RETRIES {
        let mut any_failing = false;
        for e in entries.iter_mut() {
            let Some(name) = e["name"].as_str().map(str::to_string) else { continue };
            let Some(current) = e[field].as_f64() else { continue };
            let Some(base) = baseline.iter().find(|(n, _)| n == &name).map(|&(_, b)| b) else {
                continue;
            };
            if gate::regression_pct(current, base, higher_is_better) <= gate::MAX_REGRESSION_PCT {
                continue;
            }
            any_failing = true;
            let Some((fresh, wall_ms)) = remeasure(&name, budgets) else { continue };
            let keep = if higher_is_better { fresh > current } else { fresh < current };
            eprintln!(
                "bench-run: gate retry {name}: first pass {} {field}, re-measured {} — keeping {}",
                round1(current),
                round1(fresh),
                round1(if keep { fresh } else { current }),
            );
            if keep {
                if let Value::Object(map) = e {
                    map.insert(field.to_string(), json!(round1(fresh)));
                    if let Some(w) = wall_ms {
                        map.insert("wall_ms".into(), json!(round1(w)));
                    }
                }
            }
        }
        if !any_failing {
            break;
        }
    }
    // Speedup/delta must describe the kept measurements.
    fold_baseline(entries, baseline, field);
}

/// Extract the gate's view of folded entries: `(name, current,
/// baseline-or-None)` in entry order.
fn gate_checks(entries: &[Value], field: &str) -> Vec<GateCheck> {
    let higher_is_better = field.ends_with("per_sec");
    entries
        .iter()
        .filter_map(|e| {
            Some(GateCheck {
                name: e["name"].as_str()?.to_string(),
                current: e[field].as_f64()?,
                baseline: e[format!("baseline_{field}").as_str()].as_f64(),
                higher_is_better,
            })
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    // Sample/iteration budgets keep acquire_release inside one workload
    // epoch (the backlog profile stays comparable across runs) and keep
    // churn_hot affordable on un-indexed builds.
    let budgets = if opts.quick {
        Budgets { samples: 7, ar_iters: 100, churn_iters: 10, store_iters: 200 }
    } else {
        Budgets { samples: 15, ar_iters: 150, churn_iters: 20, store_iters: 500 }
    };
    let Budgets { samples, ar_iters, churn_iters, store_iters } = budgets;

    eprintln!("bench-run: timing vni_db_acquire_release ...");
    let ar = bench_acquire_release(samples, ar_iters);
    eprintln!("bench-run: timing vni_db_churn_hot ...");
    let (churn, churn_workload) = bench_churn_hot(samples, churn_iters);
    eprintln!("bench-run: timing store_txn_commit ...");
    let store = bench_store_commit(samples, store_iters);
    eprintln!("bench-run: timing store_txn_commit_grouped ...");
    let store_grouped = bench_store_commit_grouped(samples, store_iters);
    eprintln!("bench-run: timing store_recover_hist10k / store_recover_hist100k ...");
    let disk_10k = churned_disk(10_000);
    let recover_10k = bench_store_recover(samples, churn_iters, &disk_10k);
    let disk_100k = churned_disk(100_000);
    let recover_100k = bench_store_recover(samples, churn_iters, &disk_100k);
    eprintln!("bench-run: timing fabric_transfer_hot ...");
    let fabric_iters = store_iters;
    let fabric = bench_fabric_transfer_hot(samples, fabric_iters);
    eprintln!("bench-run: timing fabric_adaptive_hot ...");
    let fabric_adaptive = bench_fabric_adaptive_hot(samples, fabric_iters);
    eprintln!("bench-run: timing osu_allreduce ...");
    let allreduce_iters = churn_iters;
    let allreduce = bench_osu_allreduce(samples, allreduce_iters);
    eprintln!("bench-run: timing service_mesh_hot ...");
    let mesh = bench_service_mesh_hot(samples, fabric_iters);
    eprintln!("bench-run: timing pleg_status_read_100 / pleg_status_read_10k ...");
    let pleg_100 = bench_pleg_status_read(samples, store_iters, 100);
    let pleg_10k = bench_pleg_status_read(samples, store_iters, 10_000);
    eprintln!("bench-run: timing pod_scan_status_read_100 / pod_scan_status_read_10k ...");
    let scan_100 = bench_pod_scan_status_read(samples, churn_iters, 100);
    let scan_10k = bench_pod_scan_status_read(samples, churn_iters, 10_000);

    let mut recover_10k_entry = bench_entry("store_recover_hist10k", recover_10k, samples, churn_iters);
    recover_10k_entry["device_bytes"] = json!(disk_10k.len());
    let mut recover_100k_entry =
        bench_entry("store_recover_hist100k", recover_100k, samples, churn_iters);
    recover_100k_entry["device_bytes"] = json!(disk_100k.len());

    let mut benchmarks = vec![
        bench_entry("vni_db_acquire_release", ar, samples, ar_iters),
        bench_entry("vni_db_churn_hot", churn, samples, churn_iters),
        bench_entry("store_txn_commit", store, samples, store_iters),
        bench_entry("store_txn_commit_grouped", store_grouped, samples, store_iters),
        recover_10k_entry,
        recover_100k_entry,
        bench_entry("fabric_transfer_hot", fabric, samples, fabric_iters),
        bench_entry("fabric_adaptive_hot", fabric_adaptive, samples, fabric_iters),
        bench_entry("osu_allreduce", allreduce, samples, allreduce_iters),
        bench_entry("service_mesh_hot", mesh, samples, fabric_iters),
        bench_entry("pleg_status_read_100", pleg_100, samples, store_iters),
        bench_entry("pleg_status_read_10k", pleg_10k, samples, store_iters),
        bench_entry("pod_scan_status_read_100", scan_100, samples, churn_iters),
        bench_entry("pod_scan_status_read_10k", scan_10k, samples, churn_iters),
    ];

    let mut scenarios = Vec::new();
    for name in TIMED_SCENARIOS {
        eprintln!("bench-run: running scenario {name} ...");
        let (events, wall_s) = run_scenario_timed(name);
        scenarios.push(json!({
            "name": name,
            "events_executed": events,
            "wall_ms": round1(wall_s * 1e3),
            "events_per_sec": round1(events as f64 / wall_s),
        }));
    }

    eprintln!("bench-run: running scenario {PARALLEL_SCENARIO} ...");
    let (parallel_shape, wall_s) = run_parallel_timed();
    scenarios.push(json!({
        "name": PARALLEL_ROW,
        "events_executed": parallel_shape.events_executed,
        "wall_ms": round1(wall_s * 1e3),
        "events_per_sec": round1(parallel_shape.events_executed as f64 / wall_s),
    }));

    // The control-plane sharding curve: the same stress run at each
    // store shard count. The report — allocations, audit, transactions,
    // recovery — is asserted identical across shard counts; only the
    // wall-clock (and so ops/sec) may differ between rows.
    let mut stress_shape: Option<VniStressReport> = None;
    for &shards in &opts.shards {
        eprintln!("bench-run: running scenario {STRESS_PREFIX}{shards} ...");
        let (report, wall_s) = run_stress_timed(shards, STRESS_OPS);
        if let Some(base) = &stress_shape {
            assert_eq!(&report, base, "stress report diverged at shards={shards}");
        }
        scenarios.push(json!({
            "name": format!("{STRESS_PREFIX}{shards}"),
            "shards": shards,
            "events_executed": report.ops,
            "txns": report.txns,
            "wall_ms": round1(wall_s * 1e3),
            "events_per_sec": round1(report.ops as f64 / wall_s),
        }));
        stress_shape.get_or_insert(report);
    }

    let mut gate_report = None;
    if let Some(path) = &opts.baseline {
        let bench_base = baseline_map(path, "benchmarks", "median_ns_per_op");
        fold_baseline(&mut benchmarks, &bench_base, "median_ns_per_op");
        let scen_base = baseline_map(path, "scenarios", "events_per_sec");
        fold_baseline(&mut scenarios, &scen_base, "events_per_sec");
        if opts.gate {
            retry_regressions(&mut benchmarks, &bench_base, "median_ns_per_op", &budgets);
            retry_regressions(&mut scenarios, &scen_base, "events_per_sec", &budgets);
            let mut checks = gate_checks(&benchmarks, "median_ns_per_op");
            checks.extend(gate_checks(&scenarios, "events_per_sec"));
            gate_report = Some(gate::evaluate(&checks, gate::MAX_REGRESSION_PCT));
        }
    }

    // The deterministic shape of the sharded sweep.
    let parallel = json!({
        "scenario": PARALLEL_SCENARIO,
        "nodes": parallel_shape.nodes,
        "shards": parallel_shape.shards,
        "lookahead_ns": parallel_shape.lookahead_ns,
        "events_executed": parallel_shape.events_executed,
        "windows": parallel_shape.windows,
        "cross_group_injected": parallel_shape.cross_group_injected,
    });

    // The deterministic shape of the stress run — identical at every
    // shard count (asserted above), so recorded once.
    let control = stress_shape.as_ref().map(|r| {
        json!({
            "scenario": r.scenario,
            "tenants": r.tenants,
            "ops": r.ops,
            "acquires": r.acquires,
            "reuse_allocs": r.reuse_allocs,
            "audit_len": r.audit_len,
            "txns": r.txns,
            "recovered": r.recovered,
        })
    });

    let doc = json!({
        "schema": "shs-bench/v1",
        "label": opts.label,
        "quick": opts.quick,
        "host": HostInfo::detect(),
        "benchmarks": benchmarks,
        "scenarios": scenarios,
        "parallel": parallel,
        "control": control,
        // The serving plane's O(1) acceptance record: the cached ratio
        // across the 100× pod-count step must stay near 1.0 while the
        // scan ratio tracks the pod count.
        "pleg_status_reads": {
            "cached_100_ns": round1(pleg_100),
            "cached_10k_ns": round1(pleg_10k),
            "cached_ratio_10k_vs_100": round3(pleg_10k / pleg_100),
            "scan_100_ns": round1(scan_100),
            "scan_10k_ns": round1(scan_10k),
            "scan_ratio_10k_vs_100": round3(scan_10k / scan_100),
        },
        "allocator_counters": allocator_counters(churn_workload.db()),
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    println!("{text}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("bench-run: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(report) = gate_report {
        for line in &report.informational {
            eprintln!("bench-run: gate [info] {line}");
        }
        if !report.passed() {
            for line in &report.failures {
                eprintln!("bench-run: gate FAIL {line}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench-run: gate passed (no metric regressed >{}% vs baseline)",
            gate::MAX_REGRESSION_PCT
        );
    }
}

/// Allocator-level counters from the churn-hot database — how the
/// allocations were satisfied (fresh VNIs vs post-quarantine reuse) and
/// how much expiry work the index performed.
fn allocator_counters(db: &VniDb) -> Value {
    serde_json::to_value(db.counters()).expect("counters serialize")
}
