//! Seeded workload generators. Each turns `--seed` into the one input
//! the program receives (a `Scenario`, `SweepConfig` or
//! `VniStressScenario`) and asserts the property that defines the
//! workload, so no seed can quietly turn one workload into another.
//!
//! Sizes are fixed; the seed moves only instants, phases, tenants and
//! hashes. Host time per run therefore does not depend on the seed,
//! which keeps run-to-run spread down to the host's own noise.

use shs_des::{CalendarQueue, DetRng, SimDur, SimTime};
use shs_fabric::{
    CostModel, FaultKind, RoutingPolicy, SweepConfig, SweepFault, Topology, TopologySpec,
    TrafficClass,
};
use slingshot_k8s::{
    ClaimPlan, ClusterConfig, FabricScenario, JobPlan, Scenario, ServicePlan, TrafficPattern,
    TrafficPlan, VniMode, VniStressScenario, VniStressWorkload,
};

/// Span of the DES calendar's bucket ring: events further out than this
/// sit on the overflow list (256 buckets; the count is private to
/// `shs_des::calendar`).
const RING_HORIZON_NS: u64 = 256 * CalendarQueue::<()>::BUCKET_NS;

/// Jobs planned by admission-churn; the nearest-rank p99 needs at least
/// 1,000 admitted.
const ADMISSION_JOBS: usize = 1_100;
/// Admitted jobs admission-churn must reach at any seed.
pub const ADMISSION_MIN_STARTED: u64 = 1_000;

fn ms(x: u64) -> SimTime {
    SimTime::from_nanos(x * 1_000_000)
}

/// admission-churn: ~1,100 short jobs from 64 tenants arrive over two
/// simulated minutes on a 24-node dragonfly, with no traffic. Most use
/// dedicated VNIs, some the global VNI, a few join a shared `VniClaim`.
pub fn admission_churn(seed: u64) -> Scenario {
    const CLAIM_TENANTS: usize = 4;
    let mut rng = DetRng::new(seed).derive("admission-churn");
    let claims: Vec<ClaimPlan> = (0..CLAIM_TENANTS)
        .map(|k| ClaimPlan {
            tenant: format!("team{k}"),
            name: format!("shared{k}"),
            create_at: SimTime::ZERO,
            delete_at: Some(ms(126_000)),
        })
        .collect();
    let jobs: Vec<JobPlan> = (0..ADMISSION_JOBS)
        .map(|i| {
            // Arrivals at nanosecond resolution: they never line up with
            // the 20 ms control-plane tick, so admission delays spread
            // over the tick instead of collapsing onto a few values.
            let arrival = SimTime::from_nanos(rng.range(1_000_000_000, 121_000_000_000));
            let ranks = match rng.below(10) {
                0..=5 => 1,
                6..=8 => 2,
                _ => 4,
            };
            let (tenant, vni) = match rng.below(100) {
                0..=79 => (format!("t{}", rng.below(64)), VniMode::Dedicated),
                80..=94 => (format!("t{}", rng.below(64)), VniMode::Global),
                _ => {
                    let k = rng.below(CLAIM_TENANTS as u64);
                    (format!("team{k}"), VniMode::Claim(format!("shared{k}")))
                }
            };
            JobPlan {
                tenant,
                name: format!("j{i}"),
                ranks,
                arrival,
                run_ms: Some(rng.range(200, 2_000)),
                vni,
                delete_at: None,
                traffic: None,
                pin_nodes: None,
            }
        })
        .collect();
    let sc = Scenario {
        name: "admission-churn".into(),
        description: format!(
            "{ADMISSION_JOBS} short jobs from 64 tenants over 120 s on a 24-node dragonfly, \
             no traffic"
        ),
        config: ClusterConfig {
            seed,
            nodes: 24,
            topology: Some(TopologySpec {
                groups: 3,
                switches_per_group: 2,
                edge_ports: 4,
            }),
            ..Default::default()
        },
        claims,
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(130_000),
        tick: SimDur::from_millis(20),
    };
    assert!(sc.jobs.len() >= ADMISSION_MIN_STARTED as usize);
    assert!(
        sc.jobs.iter().all(|j| j.traffic.is_none()),
        "admission-churn carries no traffic"
    );
    assert!(sc.services.is_empty());
    sc
}

/// serving-allreduce: two 4-replica Services serve open-loop RPCs every
/// 2 ms beside two 8-rank 64 KiB ring allreduces on a 3-group dragonfly
/// with adaptive routing; one Service rolls mid-run.
pub fn serving_allreduce(seed: u64) -> Scenario {
    let mut rng = DetRng::new(seed).derive("serving-allreduce");
    let jobs: Vec<JobPlan> = (0..2usize)
        .map(|k| JobPlan {
            tenant: format!("hpc{k}"),
            name: format!("ring{k}"),
            ranks: 8,
            arrival: SimTime::from_nanos(rng.range(400_000_000, 600_000_000)),
            run_ms: None,
            vni: VniMode::Dedicated,
            delete_at: Some(ms(38_000)),
            traffic: Some(TrafficPlan {
                rounds: 1_200,
                interval: SimDur::from_nanos(rng.range(24_000_000, 26_000_000)),
                size: 1 << 16,
                tc: TrafficClass::Dedicated,
                burst: 1,
                pattern: TrafficPattern::Allreduce,
            }),
            pin_nodes: Some((8 * k..8 * k + 8).collect()),
        })
        .collect();
    let services: Vec<ServicePlan> = (0..2usize)
        .map(|k| ServicePlan {
            tenant: format!("web{k}"),
            name: format!("frontend{k}"),
            replicas: 4,
            arrival: SimTime::from_nanos(rng.range(400_000_000, 600_000_000)),
            vni: VniMode::Dedicated,
            tc: TrafficClass::LowLatency,
            request_interval: SimDur::from_micros(rng.range(1_950, 2_050)),
            requests_per_fire: 32,
            request_bytes: 2048,
            response_bytes: 4096,
            slo_p99: SimDur::from_micros(500),
            update_at: (k == 0).then(|| SimTime::from_nanos(rng.range(14_000, 16_000) * 1_000_000)),
            delete_at: Some(ms(40_000)),
            burst: None,
            autoscale: None,
            pin_nodes: Some((16 + 4 * k..20 + 4 * k).collect()),
        })
        .collect();
    let sc = Scenario {
        name: "serving-allreduce".into(),
        description: "two 4-replica RPC services beside two 8-rank 64 KiB allreduces on a \
                      3-group adaptive dragonfly, one rolling update mid-run"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 24,
            topology: Some(TopologySpec {
                groups: 3,
                switches_per_group: 2,
                edge_ports: 4,
            }),
            routing: RoutingPolicy::Adaptive,
            ..Default::default()
        },
        claims: vec![],
        jobs,
        services,
        faults: vec![],
        horizon: ms(42_000),
        tick: SimDur::from_millis(20),
    };
    assert_eq!(
        sc.services.iter().filter(|s| s.update_at.is_some()).count(),
        1
    );
    assert!(sc.jobs.iter().all(|j| j
        .traffic
        .is_some_and(|t| t.pattern == TrafficPattern::Allreduce)));
    sc
}

/// Worker threads the dragonfly sweep runs on.
pub const SWEEP_THREADS: usize = 2;

/// dragonfly-sweep: a 1024-node, 4-group adaptive sweep, half the
/// messages crossing groups, over a simulated span longer than the
/// calendar's ring horizon. One group trunk is down from the start and
/// restored mid-run: traffic reroutes around it and returns, and no
/// message is ever in flight on the trunk when it dies (a cut under
/// load loses the 0-2 messages crossing it, depending on the seed).
/// Returns the scenario and the topology built for it.
pub fn dragonfly_sweep(seed: u64) -> (FabricScenario, Topology) {
    const MESSAGES_PER_NODE: u32 = 400;
    const INTERVAL_NS: u64 = 45_000;
    let mut rng = DetRng::new(seed).derive("dragonfly-sweep");
    let spec = TopologySpec {
        groups: 4,
        switches_per_group: 8,
        edge_ports: 32,
    };
    let policy = RoutingPolicy::Adaptive;
    let topo = Topology::new(spec, policy);
    let (a, b) = (topo.gateway(0, 1), topo.gateway(1, 0));
    let span_ns = u64::from(MESSAGES_PER_NODE) * INTERVAL_NS;
    let up = rng.range(span_ns / 3, 2 * span_ns / 3);
    let config = SweepConfig {
        spec,
        policy,
        nodes_per_switch: 32,
        messages_per_node: MESSAGES_PER_NODE,
        payload_bytes: 4096,
        interval_ns: INTERVAL_NS,
        cross_group_every: 2,
        seed: rng.next_u64(),
        model: CostModel::default(),
        faults: vec![
            SweepFault {
                at_ns: 0,
                kind: FaultKind::LinkDown(a, b),
            },
            SweepFault {
                at_ns: up,
                kind: FaultKind::LinkUp(a, b),
            },
        ],
    };
    assert!(
        span_ns > RING_HORIZON_NS,
        "the sweep must outlast the calendar ring"
    );
    let sc = FabricScenario {
        name: "dragonfly-sweep",
        description:
            "1024-node 4-group adaptive sweep, 50% cross-group, one trunk down until mid-run",
        config,
    };
    (sc, topo)
}

/// vni-churn: ~25,000 tenants run 300,000 acquire/release transactions
/// through a 4-shard VNI database under WAL group commit, ending in a
/// crash and recovery.
pub fn vni_churn(seed: u64) -> VniStressScenario {
    let mut rng = DetRng::new(seed).derive("vni-churn");
    let tenants = 25_000 + rng.below(64);
    let ops = 300_000;
    // No exhaustion at any seed: the live population (one VNI per
    // tenant) plus a quarantine window of releases (30 s at one step per
    // 100 ms) fits in the range.
    assert!(tenants as usize + 300 < VniStressWorkload::RANGE.len());
    VniStressScenario {
        name: "vni-churn".into(),
        description: format!(
            "{tenants} tenants churning {ops} transactions through 4 VNI store shards under \
             WAL group commit, with a crash-recovery audit"
        ),
        seed: rng.next_u64(),
        tenants,
        ops,
        shards: 4,
    }
}
