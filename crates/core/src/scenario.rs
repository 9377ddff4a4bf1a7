//! The end-to-end multi-tenant scenario engine.
//!
//! Everything below the composition layer is a pure state machine; this
//! module is where the whole stack is driven as one system under the
//! deterministic DES clock. A [`Scenario`] describes tenants, jobs,
//! claims, traffic and fault injections; [`run_scenario`] schedules it
//! as `shs_des::Sim` events over a real [`Cluster`] and checks tenant
//! isolation **at every hop** while it runs:
//!
//! * pod admission goes through the real scheduler, kubelet, CNI chain
//!   and VNI Service (admission latency is measured per job);
//! * rank-to-rank traffic and service RPCs authenticate against the
//!   node's CXI driver (netns member check) before they touch the
//!   fabric, exactly like an RDMA application opening an endpoint: each
//!   rank or replica once per traffic round or service fire, since the
//!   driver's state changes only in control-plane events (§II-C), and a
//!   refused endpoint's every message counts an auth failure;
//! * every traffic round also mounts an **adversarial cross-tenant
//!   probe**: a pod tries to authenticate against another tenant's VNI,
//!   and — should the driver ever admit it — the fabric's per-port VNI
//!   enforcement is the last line. Any delivery on a foreign VNI counts
//!   as an isolation violation;
//! * after the horizon, the engine audits the end state: no CXI service
//!   may outlive its pod, no switch-port grant may outlive its VNI
//!   allocation, and the [`VniDb`](crate::vni_db::VniDb) audit log must
//!   show every VNI reuse separated by the full quarantine window.
//!
//! The built-in [`library`] covers the cluster-scale situations the
//! paper's design must survive: steady multi-tenant operation, a
//! churn/teardown storm, quarantine pressure on a tiny VNI range, a
//! node drain, an oversubscribed VNI space, and — on a 2-group
//! dragonfly fabric — a noisy-neighbour contention duel and an N→1
//! incast with per-traffic-class drop accounting. The `scenario-run`
//! binary in `shs-harness` executes them and emits the JSON
//! [`ScenarioReport`]s; for one seed the report bytes are identical
//! across runs.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;
use shs_des::{Sim, SimDur, SimTime};
use shs_fabric::{
    ring_allreduce_schedule, FaultKind, RoutingPolicy, SwitchId, TopologySpec, TrafficClass,
    TransferOutcome, Vni,
};
use shs_k8s::{kinds, spec_of, status_of, KubeletParams, PodSpec, PodStatus};

use crate::cluster::{alpine, Cluster, ClusterConfig, PodHandle};

/// How a job attaches to the VNI Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VniMode {
    /// No annotation: the pod rides the globally accessible VNI
    /// (single-tenant baseline).
    Global,
    /// `vni: "true"` — the job owns a fresh VNI (Per-Resource model).
    Dedicated,
    /// `vni: "<claim>"` — the job redeems a named VNI Claim.
    Claim(String),
}

/// Shape of one traffic round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficPattern {
    /// Every rank sends to its ring successor (`i → (i+1) mod n`).
    #[default]
    Ring,
    /// Every rank but rank 0 sends to rank 0 — the N→1 congestion
    /// pattern that backlogs the links converging on rank 0's switch.
    Incast,
    /// One MPI-style ring allreduce per round, decomposed into its
    /// point-to-point chunk sends (`n − 1` reduce-scatter steps then
    /// `n − 1` allgather steps, each rank passing a `≈ size/n` chunk to
    /// its ring successor — the same schedule
    /// `shs_mpi::Communicator::allreduce` executes), so every hop flows
    /// through fabric routing, trunk WRR and per-VNI accounting.
    /// `burst` scales the chunk count per step.
    Allreduce,
    /// TCP-over-RDMA request/response (modeled on TSoR): every rank
    /// sends a request of `size` bytes to its ring successor, which
    /// answers with a `size`-byte response dispatched at the request's
    /// *arrival* instant — so the pair's virtual-time latency composes
    /// like a real RPC. Long-running [`ServicePlan`]s use the same
    /// two-leg model with independent request/response sizes, per-
    /// request latency samples, and a p99 SLO.
    RequestResponse,
}

/// Rank-to-rank traffic a job generates once its pods run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficPlan {
    /// Rounds to complete (rounds before all ranks run are skipped, not
    /// consumed).
    pub rounds: u32,
    /// Gap between rounds.
    pub interval: SimDur,
    /// Payload bytes per message.
    pub size: u64,
    /// Traffic class of the job's messages.
    pub tc: TrafficClass,
    /// Messages each sender issues back-to-back per round (1 = the
    /// classic one-message round).
    pub burst: u32,
    /// Communication pattern of a round.
    pub pattern: TrafficPattern,
}

/// One job in a scenario.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Job name.
    pub name: String,
    /// Ranks (pod parallelism).
    pub ranks: u32,
    /// Submission instant.
    pub arrival: SimTime,
    /// Workload duration (`None` runs until the job is deleted).
    pub run_ms: Option<u64>,
    /// VNI attachment model.
    pub vni: VniMode,
    /// Explicit deletion instant, if any.
    pub delete_at: Option<SimTime>,
    /// Traffic the ranks exchange.
    pub traffic: Option<TrafficPlan>,
    /// Topology-aware rank placement: restrict this job's pods to these
    /// node indices (see [`Cluster::submit_job_placed`]). `None` leaves
    /// placement to the spread-first scheduler.
    pub pin_nodes: Option<Vec<usize>>,
}

/// One VNI Claim in a scenario.
#[derive(Debug, Clone)]
pub struct ClaimPlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Claim name.
    pub name: String,
    /// Creation instant.
    pub create_at: SimTime,
    /// Deletion-request instant (deletion stalls while users remain).
    pub delete_at: Option<SimTime>,
}

/// A demand spike window for a [`ServicePlan`]'s request generator.
#[derive(Debug, Clone, Copy)]
pub struct BurstPlan {
    /// Start of the spike (inclusive).
    pub from: SimTime,
    /// End of the spike (exclusive).
    pub until: SimTime,
    /// Extra requests added to every generator fire inside the window.
    pub extra: u32,
}

/// Deterministic demand-driven horizontal autoscaling for a
/// [`ServicePlan`]: at every generator fire the desired replica count
/// is `clamp(ceil(demand / per_replica), replicas, max_replicas)`, and
/// the service is rescaled through the API server whenever it changes.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalePlan {
    /// Requests one replica absorbs per generator fire.
    pub per_replica: u32,
    /// Replica-count ceiling.
    pub max_replicas: u32,
}

/// One long-running serving-plane [`Service`](shs_k8s::service) in a
/// scenario: a replica set kept converged by the deterministic service
/// controller, carrying open-loop TSoR-style request/response traffic
/// between its replicas through the same fabric (WRR classes, adaptive
/// routing, fault model) and the same per-hop isolation checks as the
/// MPI jobs.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Tenant namespace.
    pub tenant: String,
    /// Service name (must not collide with an annotated job's name in
    /// the namespace — both own the VNI CRD `vni-<name>`).
    pub name: String,
    /// Baseline replica count (also the autoscale floor).
    pub replicas: u32,
    /// Creation instant.
    pub arrival: SimTime,
    /// VNI attachment model.
    pub vni: VniMode,
    /// Traffic class of the service's requests and responses.
    pub tc: TrafficClass,
    /// Open-loop request-generator cadence (fires regardless of
    /// completion, like TSoR clients).
    pub request_interval: SimDur,
    /// Requests issued per generator fire (before any burst).
    pub requests_per_fire: u32,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub response_bytes: u64,
    /// p99 latency SLO over full request+response round trips.
    pub slo_p99: SimDur,
    /// Rolling-update instant (bumps the template revision), if any.
    pub update_at: Option<SimTime>,
    /// Deletion instant, if any.
    pub delete_at: Option<SimTime>,
    /// Demand spike window, if any.
    pub burst: Option<BurstPlan>,
    /// Demand-driven autoscaling, if any.
    pub autoscale: Option<AutoscalePlan>,
    /// Restrict replicas to these node indices (`None` leaves placement
    /// to the spread-first scheduler).
    pub pin_nodes: Option<Vec<usize>>,
}

/// Fault injections.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Cordon a node (status `ready: false`) and evict every job that
    /// has a pod bound to it.
    DrainNode {
        /// Index into [`Cluster::nodes`].
        node: usize,
        /// Injection instant.
        at: SimTime,
    },
    /// Cut the trunk between two switches. In-flight messages are
    /// unaffected; subsequent transfers reroute deterministically (or
    /// drop with `NoRoute` if the fabric is partitioned).
    LinkDown {
        /// Injection instant.
        at: SimTime,
        /// One endpoint switch index.
        a: usize,
        /// The other endpoint switch index.
        b: usize,
    },
    /// Restore a previously cut trunk.
    LinkUp {
        /// Injection instant.
        at: SimTime,
        /// One endpoint switch index.
        a: usize,
        /// The other endpoint switch index.
        b: usize,
    },
    /// Take a whole switch out of service (kills every trunk touching
    /// it; endpoints stay bound and drop with `NoRoute`).
    SwitchDown {
        /// Injection instant.
        at: SimTime,
        /// Switch index.
        switch: usize,
    },
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable identifier, used by `scenario-run`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Cluster configuration the scenario runs on.
    pub config: ClusterConfig,
    /// VNI Claims to create/delete.
    pub claims: Vec<ClaimPlan>,
    /// Jobs to submit.
    pub jobs: Vec<JobPlan>,
    /// Long-running services to run.
    pub services: Vec<ServicePlan>,
    /// Fault injections.
    pub faults: Vec<Fault>,
    /// Simulated end of the scenario.
    pub horizon: SimTime,
    /// Control-plane tick cadence.
    pub tick: SimDur,
}

/// Per-job outcome in the report.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct JobOutcome {
    /// `tenant/name`.
    pub job: String,
    /// Whether the first pod ever started.
    pub started: bool,
    /// Submission → first pod start, in microseconds.
    pub admission_us: Option<u64>,
    /// Whether the job object was gone at the horizon (completed and
    /// reaped, or deleted).
    pub reaped: bool,
}

/// Job lifecycle metrics.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct JobsReport {
    /// Jobs in the plan.
    pub planned: u64,
    /// Jobs whose first pod started.
    pub started: u64,
    /// Jobs gone (reaped/deleted) at the horizon.
    pub reaped: u64,
    /// Mean admission latency (µs) over started jobs.
    pub admission_mean_us: u64,
    /// Worst admission latency (µs).
    pub admission_max_us: u64,
    /// Per-job detail, in plan order.
    pub outcomes: Vec<JobOutcome>,
}

/// Per-traffic-class slice of the fabric traffic, emitted for
/// multi-switch topologies (single-switch scenarios have no trunk
/// links, so the section is omitted and their reports are unchanged).
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ClassTraffic {
    /// Traffic-class name (`low-latency`, `dedicated`, `bulk-data`,
    /// `best-effort`).
    pub class: String,
    /// Authorized sends on this class.
    pub sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Authorized messages the fabric dropped (any reason).
    pub dropped: u64,
    /// Messages dropped by trunk congestion management, summed over
    /// every inter-switch link (per-hop counters rolled up).
    pub congestion_drops: u64,
    /// Worst queueing delay accepted at any trunk link (ns).
    pub trunk_queued_ns_max: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
}

/// Per-tenant (per-job) slice of the fabric traffic, emitted for
/// scenarios that run collective patterns — the per-VNI accounting
/// surface that makes placement effects (hops per message, trunk
/// congestion drops) attributable to a tenant. Engine-side counters
/// come from the traffic rounds; `fabric_*` fields come from the
/// fabric's **per-VNI** counters, so for jobs holding a dedicated VNI
/// the two views reconcile exactly. Caveat: the fabric counts per VNI,
/// not per job — jobs that share a claim VNI (or reuse a
/// quarantine-expired VNI within one horizon) each report the combined
/// fabric totals for that VNI, while their engine-side counters stay
/// per-job. Collective scenarios comparing `fabric_*` across tenants
/// should give each tenant a dedicated VNI, as the library ones do.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct JobTraffic {
    /// `tenant/name`.
    pub job: String,
    /// The VNI the job's ranks authenticated with (absent if the job
    /// never completed a traffic round).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub vni: Option<u16>,
    /// Authorized sends by this job's ranks.
    pub sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Messages the fabric dropped (any reason).
    pub dropped: u64,
    /// Delivered payload bytes.
    pub payload_bytes: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
    /// Total switch hops of this tenant's delivered messages, from the
    /// fabric's per-VNI counters (1 per message on a single switch; 2+
    /// when routes cross trunks — the placement-skew signal).
    pub fabric_switch_hops: u64,
    /// This tenant's messages dropped by trunk congestion management,
    /// from the fabric's per-VNI counters.
    pub fabric_congestion_drops: u64,
    /// Deliveries that took a repaired (non-policy) route because a
    /// fault masked the preferred path; absent when zero so reports
    /// from fault-free runs are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_reroutes: Option<u64>,
    /// ECN marks accrued by this tenant's deliveries; absent when zero
    /// (the default mark threshold never fires).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_ecn_marks: Option<u64>,
}

/// Fabric traffic metrics (authorized rank-to-rank sends).
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct TrafficReport {
    /// Completed traffic rounds.
    pub rounds: u64,
    /// Rounds skipped because ranks were not (yet) running.
    pub skipped_rounds: u64,
    /// Sends whose sender authenticated against its own VNI.
    pub authorized_sends: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Authorized messages the fabric dropped.
    pub dropped: u64,
    /// Sends refused because their sender failed to authenticate
    /// against its *own* VNI (one per send).
    pub auth_failures: u64,
    /// Mean delivery latency (ns) over delivered messages.
    pub mean_latency_ns: u64,
    /// Worst delivery latency (ns).
    pub max_latency_ns: u64,
    /// Delivered payload bytes.
    pub payload_bytes: u64,
    /// Per-traffic-class counters, active classes only; present only on
    /// multi-switch topologies.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub by_class: Vec<ClassTraffic>,
    /// Per-tenant traffic accounting, present only for scenarios that
    /// run collective patterns (all other reports are unchanged).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub by_job: Vec<JobTraffic>,
    /// Whole-fabric reroute count (deliveries that took a repaired
    /// route after a fault); absent when zero, so fault-free reports
    /// are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_reroutes: Option<u64>,
    /// Whole-fabric ECN mark count; absent when zero.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric_ecn_marks: Option<u64>,
}

/// VNI Service metrics (from the endpoint counters and the database).
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct VniReport {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Releases into quarantine.
    pub releases: u64,
    /// Claim redemptions.
    pub redemptions: u64,
    /// Acquisitions refused on an exhausted range.
    pub exhaustions: u64,
    /// Claim deletions deferred because users remained.
    pub stalled_claim_deletes: u64,
    /// Allocated rows at the horizon.
    pub allocated_at_end: u64,
    /// Quarantined rows at the horizon (after the expiry sweep).
    pub quarantined_at_end: u64,
    /// Audit-log length at the horizon.
    pub audit_len: u64,
    /// ACID transactions committed by the VNI database over the run —
    /// the §III-C2 serialization point, made countable. Deterministic
    /// for a fixed scenario + seed.
    pub txn_count: u64,
}

/// Kubelet counters summed over nodes.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct KubeletReport {
    /// Pods started.
    pub pods_started: u64,
    /// Pods fully torn down.
    pub pods_removed: u64,
    /// CNI ADD retries.
    pub cni_retries: u64,
    /// Pods marked Failed.
    pub pods_failed: u64,
}

/// Per-service serving-plane metrics: open-loop request/response
/// traffic outcomes, the p99-vs-SLO verdict, and the rolling-update
/// availability floor observed over the run. Emitted only for
/// scenarios that plan services, so job-only reports are byte-identical
/// to earlier versions.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ServiceReport {
    /// `tenant/name`.
    pub service: String,
    /// Baseline replica count from the plan.
    pub replicas: u64,
    /// The VNI the service's replicas authenticated with (absent if no
    /// request was ever issued).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub vni: Option<u16>,
    /// Request-generator fires that issued traffic.
    pub fires: u64,
    /// Generator fires skipped because fewer than two replicas were
    /// ready (startup ramp, or a roll that lost the fleet).
    pub skipped_fires: u64,
    /// Requests issued (each is a request leg + a response leg).
    pub requests: u64,
    /// Round trips completed (both legs delivered).
    pub completed: u64,
    /// Round trips lost to a fabric drop on either leg.
    pub dropped: u64,
    /// Requests refused because either replica failed to authenticate
    /// against the service VNI (one per request).
    pub auth_failures: u64,
    /// Delivered payload bytes (both legs).
    pub payload_bytes: u64,
    /// Median round-trip latency (ns).
    pub p50_latency_ns: u64,
    /// 99th-percentile round-trip latency (ns).
    pub p99_latency_ns: u64,
    /// Worst round-trip latency (ns).
    pub max_latency_ns: u64,
    /// The plan's p99 SLO (ns).
    pub slo_p99_ns: u64,
    /// p99 met the SLO (and at least one round trip completed).
    pub slo_met: bool,
    /// Fewest ready replicas observed at any control-plane tick after
    /// the service first reached full readiness (and before deletion).
    pub min_ready: u64,
    /// Most ready replicas observed (the autoscale high-water mark).
    pub max_ready: u64,
    /// The rolling-update availability floor,
    /// `replicas − maxUnavailable`.
    pub ready_floor: u64,
    /// Ready replicas never dropped below the floor once full readiness
    /// was reached.
    pub floor_held: bool,
}

/// Isolation assertions — every field except the `*_attempts`/`denied`
/// counters must be zero for the scenario to pass.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct IsolationReport {
    /// Adversarial cross-tenant probes mounted.
    pub cross_tenant_attempts: u64,
    /// Probes denied (driver auth or fabric enforcement).
    pub cross_tenant_denied: u64,
    /// Probes that *delivered* on a foreign VNI (violation).
    pub cross_vni_deliveries: u64,
    /// VNI reuses inside the quarantine window, from the audit log
    /// (violation).
    pub quarantine_violations: u64,
    /// CXI services that outlived their pod (violation).
    pub leaked_services: u64,
    /// Switch-port VNI grants that outlived the allocation (violation).
    pub stale_grants: u64,
    /// Pods placed on a drained node after the drain (violation).
    pub placement_violations: u64,
}

/// The full JSON report of one scenario run. Deterministic: for a fixed
/// scenario + seed the serialized bytes are identical across runs.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Cluster seed.
    pub seed: u64,
    /// Horizon in milliseconds.
    pub horizon_ms: u64,
    /// DES events executed.
    pub events_executed: u64,
    /// Job lifecycle metrics.
    pub jobs: JobsReport,
    /// Traffic metrics.
    pub traffic: TrafficReport,
    /// VNI Service metrics.
    pub vni: VniReport,
    /// Kubelet metrics.
    pub kubelet: KubeletReport,
    /// Serving-plane metrics, one per planned service; empty (and
    /// omitted from the JSON) for job-only scenarios, so their reports
    /// are byte-identical to earlier versions.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub services: Vec<ServiceReport>,
    /// Isolation assertions.
    pub isolation: IsolationReport,
    /// Whether every isolation assertion (and traffic liveness, where
    /// the plan generates traffic) held.
    pub passed: bool,
}

impl ScenarioReport {
    fn evaluate(&mut self, traffic_expected: bool) {
        let iso = &self.isolation;
        let services_ok = self.services.iter().all(|s| {
            s.auth_failures == 0 && s.completed > 0 && s.slo_met && s.floor_held
        });
        self.passed = iso.cross_vni_deliveries == 0
            && iso.quarantine_violations == 0
            && iso.leaked_services == 0
            && iso.stale_grants == 0
            && iso.placement_violations == 0
            && services_ok
            && (!traffic_expected || (self.traffic.delivered > 0 && self.traffic.auth_failures == 0));
    }
}

struct JobTrack {
    plan: JobPlan,
    started_at: Option<SimTime>,
    rounds_done: u32,
    /// The VNI the job's ranks authenticated with, captured at the
    /// first traffic round (the CRD is reaped at teardown, so the
    /// end-state audit could no longer resolve it).
    vni_seen: Option<Vni>,
}

struct ServiceTrack {
    plan: ServicePlan,
    vni_seen: Option<Vni>,
    /// Round-trip latency samples (ns), sorted once at report time.
    latencies: Vec<u64>,
    fires: u64,
    skipped_fires: u64,
    requests: u64,
    completed: u64,
    dropped: u64,
    auth_failures: u64,
    payload_bytes: u64,
    /// Round-robin cursor over the ready replica list.
    rr: usize,
    /// Last desired replica count pushed by the autoscaler.
    desired: u32,
    /// The service reached `replicas` ready pods at least once.
    full_ready_seen: bool,
    min_ready: u64,
    max_ready: u64,
}

/// Per-class (and per-job) slice of the raw counters.
#[derive(Default, Clone, Copy)]
struct ClassAgg {
    sends: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    lat_sum_ns: u64,
    lat_max_ns: u64,
}

#[derive(Default)]
struct Raw {
    rounds: u64,
    skipped_rounds: u64,
    authorized_sends: u64,
    delivered: u64,
    dropped: u64,
    auth_failures: u64,
    lat_sum_ns: u64,
    lat_max_ns: u64,
    payload_bytes: u64,
    cross_attempts: u64,
    cross_denied: u64,
    cross_deliveries: u64,
    class: [ClassAgg; 4],
    /// Per-job slices of the same counters, in plan order.
    per_job: Vec<ClassAgg>,
}

struct World {
    cluster: Cluster,
    horizon: SimTime,
    tick: SimDur,
    jobs: Vec<JobTrack>,
    services: Vec<ServiceTrack>,
    m: Raw,
    msg_id: u64,
    /// (node index, drain instant)
    drained: Vec<(usize, SimTime)>,
}

fn annotations(mode: &VniMode) -> Vec<(String, String)> {
    match mode {
        VniMode::Global => vec![],
        VniMode::Dedicated => vec![("vni".to_string(), "true".to_string())],
        VniMode::Claim(c) => vec![("vni".to_string(), c.clone())],
    }
}

/// The VNI a job's pods would authenticate with, if decorated yet.
fn resolve_vni(cluster: &Cluster, plan: &JobPlan) -> Option<Vni> {
    resolve_named_vni(cluster, &plan.vni, &plan.tenant, &plan.name)
}

/// The VNI a service's replicas would authenticate with, if decorated.
fn resolve_service_vni(cluster: &Cluster, plan: &ServicePlan) -> Option<Vni> {
    resolve_named_vni(cluster, &plan.vni, &plan.tenant, &plan.name)
}

fn resolve_named_vni(cluster: &Cluster, mode: &VniMode, tenant: &str, name: &str) -> Option<Vni> {
    match mode {
        VniMode::Global => Some(Vni::GLOBAL),
        _ => {
            let child = crate::endpoint::VniEndpoint::child_name_for_job(name);
            let crd = cluster.api.get(kinds::VNI, tenant, &child)?;
            crd.spec["vni"].as_u64().map(|v| Vni(v as u16))
        }
    }
}

fn tick_ev(sim: &mut Sim<World>) {
    let now = sim.now();
    sim.world.cluster.tick(now);
    // Admission tracking: record the first pod-start instant per job.
    // (This runs every 20 ms tick — borrow jobs and cluster as disjoint
    // fields rather than cloning job keys.)
    let w = &mut sim.world;
    for ji in 0..w.jobs.len() {
        let t = &w.jobs[ji];
        if t.started_at.is_some() || now < t.plan.arrival {
            continue;
        }
        let started = w.cluster.job_started_at(&t.plan.tenant, &t.plan.name);
        if let Some(at) = started {
            w.jobs[ji].started_at = Some(at);
        }
    }
    // Availability-floor tracking: sample the PLEG-cached ready count of
    // every live service at every tick, so a rolling update dipping
    // below `replicas − maxUnavailable` between request fires is caught.
    for t in &mut w.services {
        if now < t.plan.arrival || t.plan.delete_at.is_some_and(|d| now >= d) {
            continue;
        }
        let ready = w.cluster.pleg.ready_count(&t.plan.tenant, &t.plan.name) as u64;
        t.max_ready = t.max_ready.max(ready);
        if ready >= u64::from(t.plan.replicas) {
            t.full_ready_seen = true;
        }
        if t.full_ready_seen {
            t.min_ready = t.min_ready.min(ready);
        }
    }
    let (tick, horizon) = (w.tick, w.horizon);
    if now < horizon {
        sim.after(tick, tick_ev);
    }
}

/// A ready pod as one DES event sees it: its runtime handle plus the
/// CXI driver's verdict for the event's VNI. The driver authenticates
/// "only during endpoint creation" (§II-C) and its state changes only
/// in control-plane events (ticks, CNI add/del, deletions), never
/// inside a traffic round or a service fire, so one verdict per
/// endpoint per event is exactly what a per-message check would say.
#[derive(Clone, Copy)]
struct Endpoint {
    pod: PodHandle,
    authorized: bool,
}

/// Authenticate each pod against `vni` once — the member check every
/// RDMA application passes when it opens its endpoint.
fn authenticate(cluster: &Cluster, pods: &[PodHandle], vni: Vni) -> Vec<Endpoint> {
    pods.iter()
        .map(|&pod| {
            let n = &cluster.nodes[pod.node_idx].inner;
            let authorized = n.device.driver.find_service(&n.host, pod.pid, vni).is_ok();
            Endpoint { pod, authorized }
        })
        .collect()
}

/// Send one message from `src` (refused unless its endpoint
/// authenticated this event) through the fabric, folding the outcome
/// into the scenario counters. Returns the delivery instant so
/// request/response pairs can chain the response leg off the
/// request's arrival.
#[allow(clippy::too_many_arguments)]
fn send_authorized(
    w: &mut World,
    now: SimTime,
    ji: usize,
    src: Endpoint,
    dst: Endpoint,
    vni: Vni,
    size: u64,
    tc: TrafficClass,
) -> Option<SimTime> {
    w.msg_id += 1;
    let id = w.msg_id;
    if !src.authorized {
        w.m.auth_failures += 1;
        return None;
    }
    w.m.authorized_sends += 1;
    w.m.class[tc.index()].sends += 1;
    w.m.per_job[ji].sends += 1;
    let Cluster { nodes, fabric, .. } = &mut w.cluster;
    let src_nic = nodes[src.pod.node_idx].inner.nic;
    let dst_nic = nodes[dst.pod.node_idx].inner.nic;
    match fabric.transfer(now, src_nic, dst_nic, vni, tc, size, id) {
        TransferOutcome::Delivered { arrival, .. } => {
            w.m.delivered += 1;
            w.m.payload_bytes += size;
            let lat = (arrival - now).as_nanos();
            w.m.lat_sum_ns += lat;
            w.m.lat_max_ns = w.m.lat_max_ns.max(lat);
            for agg in [&mut w.m.class[tc.index()], &mut w.m.per_job[ji]] {
                agg.delivered += 1;
                agg.bytes += size;
                agg.lat_sum_ns += lat;
                agg.lat_max_ns = agg.lat_max_ns.max(lat);
            }
            Some(arrival)
        }
        TransferOutcome::Dropped(_) => {
            w.m.dropped += 1;
            w.m.class[tc.index()].dropped += 1;
            w.m.per_job[ji].dropped += 1;
            None
        }
    }
}

/// The first *other* job currently decorated with a different,
/// non-global VNI — the adversarial probe target. Falls back to a
/// service VNI, so jobs and services probe each other's isolation.
fn pick_foreign(w: &World, ji: usize, own: Vni) -> Option<Vni> {
    w.jobs
        .iter()
        .enumerate()
        .find_map(|(k, t)| {
            if k == ji {
                return None;
            }
            let v = resolve_vni(&w.cluster, &t.plan)?;
            (v != own && v != Vni::GLOBAL).then_some(v)
        })
        .or_else(|| pick_foreign_service(w, own))
}

/// The first service decorated with a different, non-global VNI.
fn pick_foreign_service(w: &World, own: Vni) -> Option<Vni> {
    w.services.iter().find_map(|t| {
        let v = resolve_service_vni(&w.cluster, &t.plan)?;
        (v != own && v != Vni::GLOBAL).then_some(v)
    })
}

fn probe_cross(w: &mut World, now: SimTime, attacker: PodHandle, foreign: Vni, tc: TrafficClass) {
    w.m.cross_attempts += 1;
    w.msg_id += 1;
    let id = w.msg_id;
    let Cluster { nodes, fabric, .. } = &mut w.cluster;
    let sn = &nodes[attacker.node_idx];
    // Hop 1: the CXI driver must refuse the endpoint (netns member).
    if sn.inner.device.driver.find_service(&sn.inner.host, attacker.pid, foreign).is_err() {
        w.m.cross_denied += 1;
        return;
    }
    // Hop 2: even an admitted endpoint must die at the switch port.
    let src_nic = sn.inner.nic;
    let dst_nic = nodes[(attacker.node_idx + 1) % nodes.len()].inner.nic;
    match fabric.transfer(now, src_nic, dst_nic, foreign, tc, 64, id) {
        TransferOutcome::Delivered { .. } => w.m.cross_deliveries += 1,
        TransferOutcome::Dropped(_) => w.m.cross_denied += 1,
    }
}

fn traffic_round(sim: &mut Sim<World>, ji: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let (ranks, delete_at, traffic) = {
        let p = &w.jobs[ji].plan;
        (p.ranks, p.delete_at, p.traffic)
    };
    let Some(tp) = traffic else { return };
    let past_delete = delete_at.is_some_and(|d| now >= d);
    let mut complete = false;
    if !past_delete {
        let mut handles = Vec::with_capacity(ranks as usize);
        for r in 0..ranks {
            let p = &w.jobs[ji].plan;
            let pod = format!("{}-{r}", p.name);
            match w.cluster.pod_handle(&p.tenant, &pod) {
                Some(h) => handles.push(h),
                None => break,
            }
        }
        let vni = resolve_vni(&w.cluster, &w.jobs[ji].plan);
        match (handles.len() == ranks as usize, vni) {
            (true, Some(vni)) => {
                w.m.rounds += 1;
                w.jobs[ji].vni_seen = Some(vni);
                if handles.len() >= 2 {
                    let eps = authenticate(&w.cluster, &handles, vni);
                    let n = eps.len();
                    match tp.pattern {
                        TrafficPattern::Ring => {
                            for i in 0..n {
                                let dst = eps[(i + 1) % n];
                                for _ in 0..tp.burst.max(1) {
                                    send_authorized(w, now, ji, eps[i], dst, vni, tp.size, tp.tc);
                                }
                            }
                        }
                        TrafficPattern::Incast => {
                            for i in 1..n {
                                for _ in 0..tp.burst.max(1) {
                                    send_authorized(
                                        w, now, ji, eps[i], eps[0], vni, tp.size, tp.tc,
                                    );
                                }
                            }
                        }
                        TrafficPattern::Allreduce => {
                            for step in ring_allreduce_schedule(n, tp.size) {
                                for (src, dst, len) in step {
                                    for _ in 0..tp.burst.max(1) {
                                        send_authorized(
                                            w, now, ji, eps[src], eps[dst], vni, len, tp.tc,
                                        );
                                    }
                                }
                            }
                        }
                        TrafficPattern::RequestResponse => {
                            for i in 0..n {
                                let dst = eps[(i + 1) % n];
                                for _ in 0..tp.burst.max(1) {
                                    // The response leg departs when the
                                    // request arrives, like a real RPC.
                                    if let Some(arrival) = send_authorized(
                                        w, now, ji, eps[i], dst, vni, tp.size, tp.tc,
                                    ) {
                                        send_authorized(
                                            w, arrival, ji, dst, eps[i], vni, tp.size, tp.tc,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(foreign) = pick_foreign(w, ji, vni) {
                    probe_cross(w, now, handles[0], foreign, tp.tc);
                }
                w.jobs[ji].rounds_done += 1;
                complete = w.jobs[ji].rounds_done >= tp.rounds;
            }
            _ => w.m.skipped_rounds += 1,
        }
    }
    let horizon = w.horizon;
    if !complete && !past_delete && now + tp.interval <= horizon {
        sim.after(tp.interval, move |s| traffic_round(s, ji));
    }
}

fn drain_ev(sim: &mut Sim<World>, node_idx: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let name = w.cluster.nodes[node_idx].inner.name.clone();
    let _ = w.cluster.api.mutate(kinds::NODE, "", &name, |o| {
        o.status = serde_json::json!({ "ready": false });
    });
    // Evict: delete every job with a pod bound to the drained node.
    let mut doomed: BTreeSet<(String, String)> = BTreeSet::new();
    for pod in w.cluster.api.list(kinds::POD) {
        let spec: PodSpec = spec_of(pod);
        if spec.node_name.as_deref() == Some(name.as_str()) {
            if let Some(job) = spec.job_name {
                doomed.insert((pod.meta.namespace.clone(), job));
            }
        }
    }
    for (ns, job) in doomed {
        w.cluster.delete_job(&ns, &job);
    }
    w.drained.push((node_idx, now));
}

/// One TSoR-style round trip between two replicas that authenticated
/// against the service VNI this fire: push the request leg, then the
/// response leg dispatched at the request's arrival instant; the
/// latency sample is the full round trip in virtual time.
fn service_request(w: &mut World, now: SimTime, si: usize, src: Endpoint, dst: Endpoint, vni: Vni) {
    w.msg_id += 1;
    let req_id = w.msg_id;
    w.msg_id += 1;
    let resp_id = w.msg_id;
    let World { cluster, services, .. } = w;
    let t = &mut services[si];
    let (tc, req, resp) = (t.plan.tc, t.plan.request_bytes, t.plan.response_bytes);
    t.requests += 1;
    // Both ends hold an RDMA endpoint: the client's sends the request,
    // the server's the response.
    if !(src.authorized && dst.authorized) {
        t.auth_failures += 1;
        return;
    }
    let Cluster { nodes, fabric, .. } = cluster;
    let src_nic = nodes[src.pod.node_idx].inner.nic;
    let dst_nic = nodes[dst.pod.node_idx].inner.nic;
    let TransferOutcome::Delivered { arrival, .. } =
        fabric.transfer(now, src_nic, dst_nic, vni, tc, req, req_id)
    else {
        t.dropped += 1;
        return;
    };
    match fabric.transfer(arrival, dst_nic, src_nic, vni, tc, resp, resp_id) {
        TransferOutcome::Delivered { arrival: done, .. } => {
            t.completed += 1;
            t.payload_bytes += req + resp;
            t.latencies.push((done - now).as_nanos());
        }
        TransferOutcome::Dropped(_) => t.dropped += 1,
    }
}

/// One open-loop generator fire: compute the demand (baseline + burst
/// window), drive the autoscaler, authenticate each PLEG-cached ready
/// replica once against the service VNI, then round-robin the requests
/// over them, plus one adversarial cross-VNI probe per fire.
fn service_fire(w: &mut World, now: SimTime, si: usize) {
    let plan = w.services[si].plan.clone();
    let mut demand = plan.requests_per_fire;
    if let Some(b) = &plan.burst {
        if now >= b.from && now < b.until {
            demand += b.extra;
        }
    }
    if let Some(a) = &plan.autoscale {
        let desired = demand.div_ceil(a.per_replica.max(1)).clamp(plan.replicas, a.max_replicas);
        if w.services[si].desired != desired {
            w.services[si].desired = desired;
            w.cluster.scale_service(&plan.tenant, &plan.name, desired);
        }
    }
    let vni = resolve_service_vni(&w.cluster, &plan);
    let ready = w.cluster.service_ready(&plan.tenant, &plan.name);
    let handles: Vec<PodHandle> =
        ready.iter().filter_map(|p| w.cluster.pod_handle(&plan.tenant, p)).collect();
    let (Some(vni), true) = (vni, handles.len() >= 2) else {
        w.services[si].skipped_fires += 1;
        return;
    };
    w.services[si].fires += 1;
    w.services[si].vni_seen = Some(vni);
    let eps = authenticate(&w.cluster, &handles, vni);
    let n = eps.len();
    let mut rr = w.services[si].rr;
    for _ in 0..demand {
        let (src, dst) = (eps[rr % n], eps[(rr + 1) % n]);
        rr += 1;
        service_request(w, now, si, src, dst, vni);
    }
    w.services[si].rr = rr % n;
    // Jobs probe service VNIs and vice versa — isolation is adversarial
    // in both directions.
    let foreign = w
        .jobs
        .iter()
        .find_map(|t| {
            let v = resolve_vni(&w.cluster, &t.plan)?;
            (v != vni && v != Vni::GLOBAL).then_some(v)
        })
        .or_else(|| pick_foreign_service(w, vni));
    if let Some(foreign) = foreign {
        probe_cross(w, now, handles[0], foreign, plan.tc);
    }
}

/// The self-rescheduling generator event behind [`ServicePlan`]'s
/// open-loop arrivals.
fn service_round(sim: &mut Sim<World>, si: usize) {
    let now = sim.now();
    let w = &mut sim.world;
    let (interval, delete_at) = {
        let p = &w.services[si].plan;
        (p.request_interval, p.delete_at)
    };
    let past_delete = delete_at.is_some_and(|d| now >= d);
    if !past_delete {
        service_fire(w, now, si);
    }
    let horizon = w.horizon;
    if !past_delete && now + interval <= horizon {
        sim.after(interval, move |s| service_round(s, si));
    }
}

/// Execute a scenario end to end; never panics on isolation failures —
/// they are reported in the returned [`ScenarioReport`].
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    let mut sim = schedule(scenario);
    sim.run_until(scenario.horizon);
    audit(scenario, sim)
}

/// Build the scenario's world and schedule its ticks, claims, jobs,
/// services and faults as DES events.
fn schedule(scenario: &Scenario) -> Sim<World> {
    let cluster = Cluster::new(scenario.config.clone());
    let world = World {
        cluster,
        horizon: scenario.horizon,
        tick: scenario.tick,
        jobs: scenario
            .jobs
            .iter()
            .map(|p| JobTrack {
                plan: p.clone(),
                started_at: None,
                rounds_done: 0,
                vni_seen: None,
            })
            .collect(),
        services: scenario
            .services
            .iter()
            .map(|p| ServiceTrack {
                plan: p.clone(),
                vni_seen: None,
                latencies: Vec::new(),
                fires: 0,
                skipped_fires: 0,
                requests: 0,
                completed: 0,
                dropped: 0,
                auth_failures: 0,
                payload_bytes: 0,
                rr: 0,
                desired: p.replicas,
                full_ready_seen: false,
                min_ready: u64::MAX,
                max_ready: 0,
            })
            .collect(),
        m: Raw {
            per_job: vec![ClassAgg::default(); scenario.jobs.len()],
            ..Default::default()
        },
        msg_id: 0,
        drained: Vec::new(),
    };
    let mut sim = Sim::new(world);

    sim.at(SimTime::ZERO, tick_ev);
    for claim in &scenario.claims {
        let (ns, name) = (claim.tenant.clone(), claim.name.clone());
        sim.at(claim.create_at, move |s| {
            let now = s.now();
            s.world.cluster.create_claim(now, &ns, &name);
        });
        if let Some(at) = claim.delete_at {
            let (ns, name) = (claim.tenant.clone(), claim.name.clone());
            sim.at(at, move |s| s.world.cluster.delete_claim(&ns, &name));
        }
    }
    for (ji, plan) in scenario.jobs.iter().enumerate() {
        let p = plan.clone();
        sim.at(plan.arrival, move |s| {
            let now = s.now();
            let ann = annotations(&p.vni);
            let ann_refs: Vec<(&str, &str)> =
                ann.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            s.world.cluster.submit_job_placed(
                now,
                &p.tenant,
                &p.name,
                &ann_refs,
                p.ranks,
                &alpine(),
                p.run_ms,
                p.pin_nodes.as_deref(),
            );
            if let Some(tp) = &p.traffic {
                s.after(tp.interval, move |s2| traffic_round(s2, ji));
            }
        });
        if let Some(at) = plan.delete_at {
            let (ns, name) = (plan.tenant.clone(), plan.name.clone());
            sim.at(at, move |s| s.world.cluster.delete_job(&ns, &name));
        }
    }
    for (si, plan) in scenario.services.iter().enumerate() {
        let p = plan.clone();
        sim.at(plan.arrival, move |s| {
            let now = s.now();
            let ann = annotations(&p.vni);
            let ann_refs: Vec<(&str, &str)> =
                ann.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            s.world.cluster.submit_service(
                now,
                &p.tenant,
                &p.name,
                &ann_refs,
                p.replicas,
                &alpine(),
                p.pin_nodes.as_deref(),
            );
            s.after(p.request_interval, move |s2| service_round(s2, si));
        });
        if let Some(at) = plan.update_at {
            let (ns, name) = (plan.tenant.clone(), plan.name.clone());
            sim.at(at, move |s| s.world.cluster.roll_service(&ns, &name));
        }
        if let Some(at) = plan.delete_at {
            let (ns, name) = (plan.tenant.clone(), plan.name.clone());
            sim.at(at, move |s| s.world.cluster.delete_service(&ns, &name));
        }
    }
    for fault in &scenario.faults {
        match fault {
            Fault::DrainNode { node, at } => {
                let node = *node;
                sim.at(*at, move |s| drain_ev(s, node));
            }
            Fault::LinkDown { at, a, b } => {
                let (a, b) = (SwitchId(*a), SwitchId(*b));
                sim.at(*at, move |s| {
                    s.world.cluster.fabric.apply_fault(FaultKind::LinkDown(a, b));
                });
            }
            Fault::LinkUp { at, a, b } => {
                let (a, b) = (SwitchId(*a), SwitchId(*b));
                sim.at(*at, move |s| {
                    s.world.cluster.fabric.apply_fault(FaultKind::LinkUp(a, b));
                });
            }
            Fault::SwitchDown { at, switch } => {
                let sw = SwitchId(*switch);
                sim.at(*at, move |s| {
                    s.world.cluster.fabric.apply_fault(FaultKind::SwitchDown(sw));
                });
            }
        }
    }
    sim
}

/// Audit the end state of a run driven to its horizon and build its
/// report.
fn audit(scenario: &Scenario, mut sim: Sim<World>) -> ScenarioReport {
    let events_executed = sim.events_executed();
    let w = &mut sim.world;

    // ---- End-state audit ------------------------------------------------
    let mut iso = IsolationReport {
        cross_tenant_attempts: w.m.cross_attempts,
        cross_tenant_denied: w.m.cross_denied,
        cross_vni_deliveries: w.m.cross_deliveries,
        ..Default::default()
    };

    // Rows as of the horizon, captured before the audit sweep below
    // deletes expired quarantine rows (a grant left behind for an
    // expired VNI is just as stale as one inside the window).
    let rows_at_horizon = w.cluster.endpoint.borrow().db.rows();

    // Quarantine discipline, from the audit log: every re-acquisition of
    // a VNI must be >= the quarantine window after its release.
    let quarantine_ns = w.cluster.endpoint.borrow().db.quarantine().as_nanos();
    let audit = w.cluster.endpoint.borrow_mut().db.audit_at(scenario.horizon);
    let mut last_release: BTreeMap<u16, u64> = BTreeMap::new();
    for entry in &audit {
        match entry.event.as_str() {
            "acquire" => {
                if let Some(rel) = last_release.get(&entry.vni) {
                    if entry.at_ns.saturating_sub(*rel) < quarantine_ns {
                        iso.quarantine_violations += 1;
                    }
                }
            }
            "release" => {
                last_release.insert(entry.vni, entry.at_ns);
            }
            _ => {}
        }
    }

    // Leaked CXI services: a `cni:` service whose pod no longer exists.
    for node in &w.cluster.nodes {
        for svc in node.inner.device.driver.services() {
            let Some(sandbox) = svc.label.strip_prefix("cni:") else { continue };
            let Some((ns, pod)) = sandbox.split_once('_') else { continue };
            if w.cluster.api.get(kinds::POD, ns, pod).is_none() {
                iso.leaked_services += 1;
            }
        }
    }

    // Stale switch grants: a port grant is only legitimate while the VNI
    // is allocated AND some CXI service on that node still carries it
    // (the plugin grants after service creation and revokes after the
    // last service goes). This also catches a leaked grant from a VNI's
    // *previous* owner after the VNI has been re-acquired elsewhere.
    for row in rows_at_horizon {
        let vni = Vni(row.vni);
        for node in &w.cluster.nodes {
            if !w.cluster.fabric.nic_has_vni(node.inner.nic, vni) {
                continue;
            }
            let justified = row.state == crate::vni_db::VniState::Allocated
                && node.inner.device.driver.services().iter().any(|s| s.vnis.contains(&vni));
            if !justified {
                iso.stale_grants += 1;
            }
        }
    }

    // Placement: nothing may start on a drained node after the drain.
    for &(node_idx, at) in &w.drained {
        let name = w.cluster.nodes[node_idx].inner.name.clone();
        for pod in w.cluster.api.list(kinds::POD) {
            let spec: PodSpec = spec_of(pod);
            if spec.node_name.as_deref() != Some(name.as_str()) {
                continue;
            }
            let started = status_of::<PodStatus>(pod).and_then(|s| s.started_at_ns);
            if started.is_some_and(|s| s > at.as_nanos()) {
                iso.placement_violations += 1;
            }
        }
    }

    // VNI database end state — `stats` sweeps expired quarantines so the
    // reported split is consistent with what `acquire` would see.
    let (counters, db_stats, audit_len, txn_count) = {
        let mut ep = w.cluster.endpoint.borrow_mut();
        let counters = ep.counters;
        let stats = ep.db.stats(scenario.horizon);
        let audit_len = ep.db.audit_len();
        let txn_count = ep.db.txn_count();
        (counters, stats, audit_len, txn_count)
    };

    let mut outcomes = Vec::with_capacity(w.jobs.len());
    let mut started = 0u64;
    let mut reaped = 0u64;
    let (mut adm_sum, mut adm_max, mut adm_n) = (0u64, 0u64, 0u64);
    for t in &w.jobs {
        let gone = !w.cluster.job_exists(&t.plan.tenant, &t.plan.name);
        let admission_us = t.started_at.map(|at| (at - t.plan.arrival).as_nanos() / 1_000);
        if t.started_at.is_some() {
            started += 1;
        }
        if gone {
            reaped += 1;
        }
        if let Some(us) = admission_us {
            adm_sum += us;
            adm_max = adm_max.max(us);
            adm_n += 1;
        }
        outcomes.push(JobOutcome {
            job: format!("{}/{}", t.plan.tenant, t.plan.name),
            started: t.started_at.is_some(),
            admission_us,
            reaped: gone,
        });
    }

    let kubelet = w.cluster.nodes.iter().fold(KubeletReport::default(), |mut acc, n| {
        acc.pods_started += n.kubelet.counters.pods_started;
        acc.pods_removed += n.kubelet.counters.pods_removed;
        acc.cni_retries += n.kubelet.counters.cni_retries;
        acc.pods_failed += n.kubelet.counters.pods_failed;
        acc
    });

    // Per-class traffic slice: only multi-switch topologies have trunk
    // links (and thus per-hop class counters); single-switch scenarios
    // omit the section so their reports stay byte-identical.
    let by_class = if w.cluster.fabric.topology().switch_count() > 1 {
        let trunk_totals = w.cluster.fabric.trunk_class_totals();
        TrafficClass::ALL
            .iter()
            .filter_map(|&tc| {
                let agg = &w.m.class[tc.index()];
                let trunk = &trunk_totals[tc.index()];
                if agg.sends == 0 && trunk.congestion_drops == 0 {
                    return None;
                }
                Some(ClassTraffic {
                    class: tc.to_string(),
                    sends: agg.sends,
                    delivered: agg.delivered,
                    dropped: agg.dropped,
                    congestion_drops: trunk.congestion_drops,
                    trunk_queued_ns_max: trunk.queued_ns_max,
                    mean_latency_ns: agg.lat_sum_ns.checked_div(agg.delivered).unwrap_or(0),
                    max_latency_ns: agg.lat_max_ns,
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    // Per-tenant accounting: only collective scenarios carry it, so the
    // pre-collective report library stays byte-identical.
    let collective = scenario
        .jobs
        .iter()
        .any(|j| j.traffic.is_some_and(|t| t.pattern == TrafficPattern::Allreduce));
    let by_job = if collective {
        w.jobs
            .iter()
            .enumerate()
            .map(|(ji, t)| {
                let agg = &w.m.per_job[ji];
                let fab = t.vni_seen.map(|v| w.cluster.fabric.traffic(v)).unwrap_or_default();
                JobTraffic {
                    job: format!("{}/{}", t.plan.tenant, t.plan.name),
                    vni: t.vni_seen.map(|v| v.0),
                    sends: agg.sends,
                    delivered: agg.delivered,
                    dropped: agg.dropped,
                    payload_bytes: agg.bytes,
                    mean_latency_ns: agg.lat_sum_ns.checked_div(agg.delivered).unwrap_or(0),
                    max_latency_ns: agg.lat_max_ns,
                    fabric_switch_hops: fab.switch_hops,
                    fabric_congestion_drops: fab.congestion_drops,
                    fabric_reroutes: (fab.reroutes > 0).then_some(fab.reroutes),
                    fabric_ecn_marks: (fab.ecn_marks > 0).then_some(fab.ecn_marks),
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    // Serving-plane slice: per-service request/response outcomes, the
    // p99-vs-SLO verdict, and the availability floor observed while the
    // service was live (empty for job-only scenarios).
    let services: Vec<ServiceReport> = w
        .services
        .iter_mut()
        .map(|t| {
            t.latencies.sort_unstable();
            // Nearest-rank percentile: ceil(q·n/100)ᵗʰ smallest sample.
            let pct = |q: u64| -> u64 {
                if t.latencies.is_empty() {
                    return 0;
                }
                let rank = (t.latencies.len() as u64 * q).div_ceil(100).max(1);
                t.latencies[rank as usize - 1]
            };
            let (p50, p99) = (pct(50), pct(99));
            let max = t.latencies.last().copied().unwrap_or(0);
            let floor = u64::from(t.plan.replicas.saturating_sub(1));
            let min_ready = if t.full_ready_seen { t.min_ready } else { 0 };
            ServiceReport {
                service: format!("{}/{}", t.plan.tenant, t.plan.name),
                replicas: u64::from(t.plan.replicas),
                vni: t.vni_seen.map(|v| v.0),
                fires: t.fires,
                skipped_fires: t.skipped_fires,
                requests: t.requests,
                completed: t.completed,
                dropped: t.dropped,
                auth_failures: t.auth_failures,
                payload_bytes: t.payload_bytes,
                p50_latency_ns: p50,
                p99_latency_ns: p99,
                max_latency_ns: max,
                slo_p99_ns: t.plan.slo_p99.as_nanos(),
                slo_met: t.completed > 0 && p99 <= t.plan.slo_p99.as_nanos(),
                min_ready,
                max_ready: t.max_ready,
                ready_floor: floor,
                floor_held: t.full_ready_seen && min_ready >= floor,
            }
        })
        .collect();

    let fabric_totals = w.cluster.fabric.traffic_totals();
    let traffic_expected =
        scenario.jobs.iter().any(|j| j.traffic.is_some() && j.ranks >= 2);
    let mut report = ScenarioReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        seed: scenario.config.seed,
        horizon_ms: scenario.horizon.as_nanos() / 1_000_000,
        events_executed,
        jobs: JobsReport {
            planned: w.jobs.len() as u64,
            started,
            reaped,
            admission_mean_us: adm_sum.checked_div(adm_n).unwrap_or(0),
            admission_max_us: adm_max,
            outcomes,
        },
        traffic: TrafficReport {
            rounds: w.m.rounds,
            skipped_rounds: w.m.skipped_rounds,
            authorized_sends: w.m.authorized_sends,
            delivered: w.m.delivered,
            dropped: w.m.dropped,
            auth_failures: w.m.auth_failures,
            mean_latency_ns: w.m.lat_sum_ns.checked_div(w.m.delivered).unwrap_or(0),
            max_latency_ns: w.m.lat_max_ns,
            payload_bytes: w.m.payload_bytes,
            by_class,
            by_job,
            fabric_reroutes: (fabric_totals.reroutes > 0).then_some(fabric_totals.reroutes),
            fabric_ecn_marks: (fabric_totals.ecn_marks > 0).then_some(fabric_totals.ecn_marks),
        },
        vni: VniReport {
            acquisitions: counters.acquisitions,
            releases: counters.releases,
            redemptions: counters.redemptions,
            exhaustions: counters.exhaustions,
            stalled_claim_deletes: counters.stalled_claim_deletes,
            allocated_at_end: db_stats.allocated as u64,
            quarantined_at_end: db_stats.quarantined as u64,
            audit_len: audit_len as u64,
            txn_count,
        },
        kubelet,
        services,
        isolation: iso,
        passed: false,
    };
    report.evaluate(traffic_expected);
    report
}

// ---- The named scenario library -----------------------------------------

fn ms(x: u64) -> SimTime {
    SimTime::from_nanos(x * 1_000_000)
}

fn job(tenant: &str, name: &str, ranks: u32, arrival_ms: u64, vni: VniMode) -> JobPlan {
    JobPlan {
        tenant: tenant.into(),
        name: name.into(),
        ranks,
        arrival: ms(arrival_ms),
        run_ms: None,
        vni,
        delete_at: None,
        traffic: None,
        pin_nodes: None,
    }
}

fn std_traffic() -> TrafficPlan {
    TrafficPlan {
        rounds: 8,
        interval: SimDur::from_millis(1_000),
        size: 4096,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Ring,
    }
}

/// The 2-group dragonfly the contention scenarios run on: one switch
/// per group, nodes round-robined across groups, so rank-to-rank rings
/// and incasts must cross the single global link.
fn two_group_topology() -> TopologySpec {
    TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 }
}

/// The 3-group dragonfly the fault/adaptive scenarios run on: the
/// smallest all-to-all group graph where every trunk has an alternate
/// (Valiant) path, so a single link cut degrades routes instead of
/// partitioning the fabric.
fn three_group_topology() -> TopologySpec {
    TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 8 }
}

/// Three tenants with dedicated VNIs, a shared claim, and a baseline
/// global-VNI job, all exchanging traffic concurrently, then torn down.
pub fn steady_state(seed: u64) -> Scenario {
    let mut jobs = Vec::new();
    for (i, (tenant, name)) in
        [("tenant-a", "alpha"), ("tenant-b", "beta"), ("tenant-c", "gamma")].iter().enumerate()
    {
        let mut j = job(tenant, name, 2, 500 + 500 * i as u64, VniMode::Dedicated);
        j.delete_at = Some(ms(30_000));
        j.traffic = Some(std_traffic());
        jobs.push(j);
    }
    let mut delta = job("acme", "delta", 2, 2_000, VniMode::Claim("shared".into()));
    delta.delete_at = Some(ms(28_000));
    delta.traffic = Some(std_traffic());
    jobs.push(delta);
    let mut omega = job("plain", "omega", 2, 2_500, VniMode::Global);
    omega.delete_at = Some(ms(30_000));
    omega.traffic = Some(TrafficPlan { size: 2048, tc: TrafficClass::BulkData, ..std_traffic() });
    jobs.push(omega);
    Scenario {
        name: "steady-state".into(),
        description: "3 dedicated-VNI tenants + a shared claim + a global-VNI baseline, \
                      concurrent traffic, clean teardown"
            .into(),
        config: ClusterConfig { seed, ..Default::default() },
        claims: vec![ClaimPlan {
            tenant: "acme".into(),
            name: "shared".into(),
            create_at: SimTime::ZERO,
            delete_at: Some(ms(31_000)),
        }],
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// Waves of short-lived jobs: allocation, completion, TTL reaping and
/// quarantine all cycling at once.
pub fn churn(seed: u64) -> Scenario {
    let mut jobs = Vec::new();
    for wave in 0..3u64 {
        for i in 0..6u64 {
            let mut j = job(
                "churn",
                &format!("w{wave}j{i}"),
                1,
                1_000 + wave * 7_000 + i * 100,
                VniMode::Dedicated,
            );
            j.run_ms = Some(500);
            jobs.push(j);
        }
    }
    Scenario {
        name: "churn".into(),
        description: "3 waves x 6 short jobs; teardown storm must leave zero leaked state"
            .into(),
        config: ClusterConfig { seed, ..Default::default() },
        claims: vec![],
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(60_000),
        tick: SimDur::from_millis(20),
    }
}

/// Nine jobs over a three-VNI range: progress is gated by quarantine
/// expiry, and reuse must respect the full 30 s window.
pub fn quarantine_pressure(seed: u64) -> Scenario {
    let mut jobs = Vec::new();
    for i in 0..9u64 {
        let mut j = job("qp", &format!("q{i}"), 1, 200 * i, VniMode::Dedicated);
        j.run_ms = Some(300);
        jobs.push(j);
    }
    Scenario {
        name: "quarantine-pressure".into(),
        description: "9 jobs through a 3-wide VNI range; reuse gated by the 30s quarantine"
            .into(),
        config: ClusterConfig {
            seed,
            vni_range: 2048..2051,
            vni_resync: Some(SimDur::from_millis(1_000)),
            kubelet: KubeletParams {
                retry_backoff: SimDur::from_millis(1_000),
                max_attempts: 200,
                ..Default::default()
            },
            ..Default::default()
        },
        claims: vec![],
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(100_000),
        tick: SimDur::from_millis(20),
    }
}

/// Drain a node mid-run: its jobs are evicted, replacements may only
/// land on the surviving nodes, and the drained node must end clean.
pub fn node_drain(seed: u64) -> Scenario {
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        let mut j = job("dr", &format!("d{i}"), 2, 500 + 500 * i, VniMode::Dedicated);
        j.delete_at = Some(ms(40_000));
        j.traffic = Some(TrafficPlan { rounds: 6, size: 1024, ..std_traffic() });
        jobs.push(j);
    }
    for i in 0..2u64 {
        let mut j = job("dr", &format!("r{i}"), 2, 15_000 + 500 * i, VniMode::Dedicated);
        j.delete_at = Some(ms(40_000));
        j.traffic = Some(TrafficPlan { rounds: 6, size: 1024, ..std_traffic() });
        jobs.push(j);
    }
    Scenario {
        name: "node-drain".into(),
        description: "cordon + evict node0 at t=10s; replacements must avoid it and it \
                      must end with no leaked services or grants"
            .into(),
        config: ClusterConfig { seed, nodes: 3, ..Default::default() },
        claims: vec![],
        jobs,
        services: vec![],
        faults: vec![Fault::DrainNode { node: 0, at: ms(10_000) }],
        horizon: ms(55_000),
        tick: SimDur::from_millis(20),
    }
}

/// Five long-running jobs over a two-VNI range: a standing backlog that
/// only drains as earlier tenants release and quarantine expires.
pub fn oversubscribed(seed: u64) -> Scenario {
    let mut jobs = Vec::new();
    let deletes = [10_000u64, 10_000, 55_000, 55_000, 100_000];
    for (i, del) in deletes.iter().enumerate() {
        let mut j = job("over", &format!("o{i}"), 1, 300 * (i as u64 + 1), VniMode::Dedicated);
        j.delete_at = Some(ms(*del));
        jobs.push(j);
    }
    Scenario {
        name: "oversubscribed".into(),
        description: "5 standing jobs over a 2-wide VNI range; the backlog drains only \
                      through release + quarantine expiry"
            .into(),
        config: ClusterConfig {
            seed,
            vni_range: 3000..3002,
            vni_resync: Some(SimDur::from_millis(1_000)),
            kubelet: KubeletParams {
                retry_backoff: SimDur::from_millis(2_000),
                max_attempts: 100,
                ..Default::default()
            },
            ..Default::default()
        },
        claims: vec![],
        jobs,
        services: vec![],
        faults: vec![],
        horizon: ms(110_000),
        tick: SimDur::from_millis(20),
    }
}

/// A bulk-data tenant and a latency-sensitive tenant contending for the
/// same group link of a 2-group dragonfly: per-traffic-class trunk
/// scheduling must keep the victim's slowdown bounded while the noisy
/// neighbour's burst drains (and may be clipped by congestion
/// management).
pub fn noisy_neighbor(seed: u64) -> Scenario {
    // 4 ranks, one per node: the ring has two bulk flows per trunk
    // direction, so the group link actually backlogs (one sender alone
    // is already serialized by its own uplink).
    let mut noisy = job("noisy", "bulk", 4, 500, VniMode::Dedicated);
    noisy.delete_at = Some(ms(30_000));
    noisy.traffic = Some(TrafficPlan {
        rounds: 12,
        interval: SimDur::from_millis(1_000),
        size: 1 << 20,
        tc: TrafficClass::BulkData,
        burst: 8,
        pattern: TrafficPattern::Ring,
    });
    let mut victim = job("victim", "latency", 2, 1_000, VniMode::Dedicated);
    victim.delete_at = Some(ms(30_000));
    victim.traffic = Some(TrafficPlan {
        rounds: 24,
        interval: SimDur::from_millis(500),
        size: 64,
        tc: TrafficClass::LowLatency,
        burst: 1,
        pattern: TrafficPattern::Ring,
    });
    Scenario {
        name: "noisy-neighbor".into(),
        description: "bulk tenant vs latency tenant across a group link; per-class trunk \
                      scheduling must bound the victim's slowdown"
            .into(),
        // 6 nodes, 3 per group: the bulk tenant occupies 4, the victim
        // gets the two idle ones (one per group), so the tenants share
        // *only* the group link — the resource traffic classes arbitrate.
        config: ClusterConfig {
            seed,
            nodes: 6,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![noisy, victim],
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// N→1 congestion: three ranks incast large bulk messages into rank 0
/// across the group link while a light low-latency pair shares the same
/// trunk; congestion management must clip the incast (per-class drop
/// accounting) without touching the low-latency class.
pub fn incast(seed: u64) -> Scenario {
    let mut sink = job("sink", "fanin", 4, 500, VniMode::Dedicated);
    sink.delete_at = Some(ms(30_000));
    sink.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 21,
        tc: TrafficClass::BulkData,
        burst: 4,
        pattern: TrafficPattern::Incast,
    });
    let mut probe = job("probe", "probe", 2, 1_000, VniMode::Dedicated);
    probe.delete_at = Some(ms(30_000));
    probe.traffic = Some(TrafficPlan {
        rounds: 20,
        interval: SimDur::from_millis(500),
        size: 64,
        tc: TrafficClass::LowLatency,
        burst: 1,
        pattern: TrafficPattern::Ring,
    });
    Scenario {
        name: "incast".into(),
        description: "3→1 bulk incast across the group link; finite per-class trunk queues \
                      drop the overflow, counted per class, sparing low-latency probes"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 4,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![sink, probe],
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// A tenant's 8-rank ring allreduce — every hop crossing the 2-group
/// trunk (round-robin placement alternates groups) — while a bulk-class
/// tenant bursts megabyte messages over the same group link: WRR trunk
/// scheduling must keep the collective's slowdown bounded and
/// congestion management must clip only the bulk class, with zero
/// cross-tenant leakage under the standing adversarial probes.
pub fn collective_noisy_neighbor(seed: u64) -> Scenario {
    // 10 nodes round-robined over 2 groups: the collective's 8 ranks
    // pin to nodes 0-7 (alternating groups, so every ring hop crosses
    // the trunk), the bulk pair to the two leftover nodes 8/9 (one per
    // group, so its burst rides the same trunk).
    let mut coll = job("hpc", "allreduce", 8, 500, VniMode::Dedicated);
    coll.delete_at = Some(ms(30_000));
    coll.pin_nodes = Some((0..8).collect());
    coll.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 16,
        tc: TrafficClass::LowLatency,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    // A 500 ms cadence from a 1 s arrival makes every other bulk round
    // land exactly on a collective round instant, so the two tenants
    // genuinely contend for the trunk there: WRR stretches the bulk
    // class 5x ((8+2)/2) while the collective is active, which backlogs
    // the staggered burst past the 100 µs trunk queue bound — the
    // clipping is visible as bulk-only congestion drops.
    let mut noisy = job("noisy", "bulk", 2, 1_000, VniMode::Dedicated);
    noisy.delete_at = Some(ms(30_000));
    noisy.pin_nodes = Some(vec![8, 9]);
    noisy.traffic = Some(TrafficPlan {
        rounds: 24,
        interval: SimDur::from_millis(500),
        size: 1 << 20,
        tc: TrafficClass::BulkData,
        burst: 8,
        pattern: TrafficPattern::Ring,
    });
    Scenario {
        name: "collective-noisy-neighbor".into(),
        description: "8-rank cross-group allreduce under a bulk burst on the group trunk; \
                      WRR must bound the collective's slowdown, congestion management may \
                      clip only the bulk class"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 10,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![coll, noisy],
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// Placement skew vs. packed placement for the same 4-rank allreduce:
/// one tenant's ranks alternate dragonfly groups (every ring hop
/// crosses the trunk, two uplinks converge per trunk direction), the
/// other's pack into one group (pure intra-switch). The per-tenant
/// report must show the hop inflation (2 hops/message vs 1) and the
/// congestion drops only the skewed tenant takes.
pub fn cross_group_allreduce(seed: u64) -> Scenario {
    // 12 nodes round-robined over 2 groups: even nodes in group 0, odd
    // in group 1. The skewed tenant pins nodes 0-3 (ranks alternate
    // groups); the packed tenant pins four even nodes (all group 0).
    let mut skewed = job("skew", "wide", 4, 500, VniMode::Dedicated);
    skewed.delete_at = Some(ms(30_000));
    skewed.pin_nodes = Some(vec![0, 1, 2, 3]);
    skewed.traffic = Some(TrafficPlan {
        rounds: 8,
        interval: SimDur::from_millis(1_000),
        size: 4 << 20,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    let mut packed = job("pack", "tight", 4, 1_000, VniMode::Dedicated);
    packed.delete_at = Some(ms(30_000));
    packed.pin_nodes = Some(vec![4, 6, 8, 10]);
    packed.traffic = Some(TrafficPlan {
        rounds: 8,
        interval: SimDur::from_millis(1_000),
        size: 4 << 20,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    Scenario {
        name: "cross-group-allreduce".into(),
        description: "the same 4-rank allreduce placed skewed across groups vs packed into \
                      one; per-tenant accounting must show the hop and congestion-drop \
                      deltas"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 12,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![skewed, packed],
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// A 4-rank ring allreduce whose every hop crosses the (0,1) trunk of a
/// 3-group dragonfly, with that trunk cut mid-run: UGAL routing must
/// finish the collective by detouring through group 2 (the per-tenant
/// report shows the reroute count and the 2→3 hop inflation), and the
/// report must stay byte-identical across runs.
pub fn trunk_cut_allreduce(seed: u64) -> Scenario {
    // 6 nodes round-robined over 3 groups (node i → switch i % 3): the
    // collective pins nodes 0/1/3/4, so ranks alternate switches 0 and
    // 1 and every ring hop rides the (0,1) trunk. The cut at 5 s lands
    // between allreduce rounds 4 and 5: the first half of the traffic
    // takes the 2-switch minimal route, the second half detours
    // 0→2→1.
    let mut coll = job("hpc", "ring", 4, 500, VniMode::Dedicated);
    coll.delete_at = Some(ms(30_000));
    coll.pin_nodes = Some(vec![0, 1, 3, 4]);
    coll.traffic = Some(TrafficPlan {
        rounds: 8,
        interval: SimDur::from_millis(1_000),
        size: 1 << 20,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    Scenario {
        name: "trunk-cut-allreduce".into(),
        description: "4-rank cross-group allreduce loses its trunk mid-collective; UGAL \
                      reroutes through the third group and the tenant report shows the \
                      reroute count and hop inflation"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 6,
            topology: Some(three_group_topology()),
            routing: RoutingPolicy::Adaptive,
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![coll],
        services: vec![],
        faults: vec![Fault::LinkDown { at: ms(5_000), a: 0, b: 1 }],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// The incast shape on a 3-group fabric while the contended trunk flaps
/// down/up twice: bulk traffic must keep flowing through the detour
/// during the down windows and the low-latency probe sharing the trunk
/// must see zero drops throughout.
pub fn flapping_link_incast(seed: u64) -> Scenario {
    // 11 nodes round-robined over 3 groups: the sink's rank 0 lands on
    // switch 0 (node 0) and its three senders on switch 1 (nodes
    // 1/4/7), so the whole incast crosses the (0,1) trunk; the probe
    // pair (nodes 9/10) rings across the same trunk. The (0,1) link
    // flaps down at 3 s and 9 s and recovers at 6 s and 12 s, squarely
    // inside both traffic windows.
    let mut sink = job("sink", "fanin", 4, 500, VniMode::Dedicated);
    sink.delete_at = Some(ms(30_000));
    sink.pin_nodes = Some(vec![0, 1, 4, 7]);
    sink.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 21,
        tc: TrafficClass::BulkData,
        burst: 4,
        pattern: TrafficPattern::Incast,
    });
    let mut probe = job("probe", "probe", 2, 1_000, VniMode::Dedicated);
    probe.delete_at = Some(ms(30_000));
    probe.pin_nodes = Some(vec![9, 10]);
    probe.traffic = Some(TrafficPlan {
        rounds: 20,
        interval: SimDur::from_millis(500),
        size: 64,
        tc: TrafficClass::LowLatency,
        burst: 1,
        pattern: TrafficPattern::Ring,
    });
    Scenario {
        name: "flapping-link-incast".into(),
        description: "3→1 bulk incast while its trunk flaps down/up twice; UGAL detours \
                      through the spare group during the outages and the low-latency probe \
                      must take zero drops"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 11,
            topology: Some(three_group_topology()),
            routing: RoutingPolicy::Adaptive,
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![sink, probe],
        services: vec![],
        faults: vec![
            Fault::LinkDown { at: ms(3_000), a: 0, b: 1 },
            Fault::LinkUp { at: ms(6_000), a: 0, b: 1 },
            Fault::LinkDown { at: ms(9_000), a: 0, b: 1 },
            Fault::LinkUp { at: ms(12_000), a: 0, b: 1 },
        ],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// The incast shape with UGAL adaptive routing on a healthy 3-group
/// fabric — the A/B counterpart to running the same scenario with
/// [`RoutingPolicy::Minimal`]: diverting part of the burst through the
/// spare group must lower the worst bulk-class trunk queue depth while
/// the low-latency probe keeps zero drops (asserted by the scenario
/// suite, which runs both sides).
pub fn adaptive_incast(seed: u64) -> Scenario {
    // Same placement as the flapping scenario, no faults: three senders
    // on switch 1 incast into switch 0, so minimal routing funnels
    // every burst down the (0,1) trunk while UGAL can spill over the
    // 1→2→0 detour once the direct queue crosses the UGAL break-even.
    // The burst is sized *below* the 100 µs congestion-clip bound
    // (12 × 128 KiB ≈ 60 µs of minimal-route backlog), so the trunk
    // pressure is visible as accepted queue depth rather than being
    // flattened into drops — the quantity the A/B compares.
    let mut sink = job("sink", "fanin", 4, 500, VniMode::Dedicated);
    sink.delete_at = Some(ms(30_000));
    sink.pin_nodes = Some(vec![0, 1, 4, 7]);
    sink.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 17,
        tc: TrafficClass::BulkData,
        burst: 4,
        pattern: TrafficPattern::Incast,
    });
    let mut probe = job("probe", "probe", 2, 1_000, VniMode::Dedicated);
    probe.delete_at = Some(ms(30_000));
    probe.pin_nodes = Some(vec![9, 10]);
    probe.traffic = Some(TrafficPlan {
        rounds: 20,
        interval: SimDur::from_millis(500),
        size: 64,
        tc: TrafficClass::LowLatency,
        burst: 1,
        pattern: TrafficPattern::Ring,
    });
    Scenario {
        name: "adaptive-incast".into(),
        description: "3→1 bulk incast on a 3-group fabric under UGAL adaptive routing; \
                      spillover through the spare group lowers the worst trunk queue depth \
                      vs minimal routing, sparing the low-latency probe"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 11,
            topology: Some(three_group_topology()),
            routing: RoutingPolicy::Adaptive,
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![sink, probe],
        services: vec![],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// A latency-sensitive microservice mesh sharing the 2-group trunk with
/// an 8-rank HPC allreduce: the service's request/response round trips
/// ride the low-latency WRR class while the collective saturates the
/// dedicated class, and the service's p99 must stay under its SLO with
/// isolation asserted adversarially in both directions.
pub fn service_mesh_allreduce(seed: u64) -> Scenario {
    // 10 nodes round-robined over 2 groups: the collective's 8 ranks pin
    // to nodes 0-7 (every ring hop crosses the trunk), the mesh's 4
    // replicas to the leftover nodes 8/9 — one per group, so about half
    // its request round trips cross the same contended trunk.
    let mut coll = job("hpc", "allreduce", 8, 500, VniMode::Dedicated);
    coll.delete_at = Some(ms(30_000));
    coll.pin_nodes = Some((0..8).collect());
    coll.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 16,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    let mesh = ServicePlan {
        tenant: "mesh".into(),
        name: "frontend".into(),
        replicas: 4,
        arrival: ms(500),
        vni: VniMode::Dedicated,
        tc: TrafficClass::LowLatency,
        request_interval: SimDur::from_millis(200),
        requests_per_fire: 4,
        request_bytes: 2048,
        response_bytes: 4096,
        slo_p99: SimDur::from_micros(500),
        update_at: None,
        delete_at: Some(ms(40_000)),
        burst: None,
        autoscale: None,
        pin_nodes: Some(vec![8, 9]),
    };
    Scenario {
        name: "service-mesh-allreduce".into(),
        description: "4-replica microservice mesh rides the low-latency class across the \
                      trunk an 8-rank allreduce saturates; the mesh p99 must hold its SLO \
                      and both tenants probe each other's VNI"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 10,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![coll],
        services: vec![mesh],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// A serving tenant under a demand spike: the deterministic autoscaler
/// must grow the replica set to absorb the burst (surge-bounded rollout
/// of new pods through the full scheduler/kubelet/CNI/VNI chain), then
/// shrink back to baseline — all while the p99 SLO and the availability
/// floor hold.
pub fn autoscale_burst(seed: u64) -> Scenario {
    // A quiet second tenant holding its own VNI, so the service's
    // per-fire adversarial probe has a foreign VNI to attack.
    let mut bg = job("batch", "bg", 1, 1_000, VniMode::Dedicated);
    bg.delete_at = Some(ms(42_000));
    let api = ServicePlan {
        tenant: "web".into(),
        name: "api".into(),
        replicas: 2,
        arrival: ms(500),
        vni: VniMode::Dedicated,
        tc: TrafficClass::LowLatency,
        request_interval: SimDur::from_millis(250),
        requests_per_fire: 4,
        request_bytes: 1024,
        response_bytes: 2048,
        slo_p99: SimDur::from_micros(200),
        update_at: None,
        delete_at: Some(ms(40_000)),
        // 10s-20s: demand jumps 4 → 28 requests per fire, which drives
        // the autoscaler to its 6-replica ceiling until the spike ends.
        burst: Some(BurstPlan { from: ms(10_000), until: ms(20_000), extra: 24 }),
        autoscale: Some(AutoscalePlan { per_replica: 4, max_replicas: 6 }),
        pin_nodes: None,
    };
    Scenario {
        name: "autoscale-burst".into(),
        description: "open-loop demand spike drives the service from 2 to 6 replicas and \
                      back; admission rides the full scheduler/kubelet/CNI/VNI chain and \
                      the p99 SLO must hold throughout"
            .into(),
        config: ClusterConfig { seed, nodes: 4, ..Default::default() },
        claims: vec![],
        jobs: vec![bg],
        services: vec![api],
        faults: vec![],
        horizon: ms(50_000),
        tick: SimDur::from_millis(20),
    }
}

/// The serving-plane acceptance scenario: a rolling update of the
/// service **while** an 8-rank allreduce crosses the same trunk. The
/// roll must respect `maxUnavailable`/`maxSurge` in virtual time (the
/// ready count never dips below the floor), the service p99 must stay
/// under SLO while replicas are replaced, and the collective must
/// complete with zero drops.
pub fn rolling_update_allreduce(seed: u64) -> Scenario {
    let mut coll = job("hpc", "ring", 8, 500, VniMode::Dedicated);
    coll.delete_at = Some(ms(30_000));
    coll.pin_nodes = Some((0..8).collect());
    coll.traffic = Some(TrafficPlan {
        rounds: 10,
        interval: SimDur::from_millis(1_000),
        size: 1 << 16,
        tc: TrafficClass::Dedicated,
        burst: 1,
        pattern: TrafficPattern::Allreduce,
    });
    let web = ServicePlan {
        tenant: "web".into(),
        name: "frontend".into(),
        replicas: 4,
        arrival: ms(500),
        vni: VniMode::Dedicated,
        tc: TrafficClass::LowLatency,
        request_interval: SimDur::from_millis(200),
        requests_per_fire: 4,
        request_bytes: 2048,
        response_bytes: 4096,
        slo_p99: SimDur::from_micros(500),
        // The template revision bumps at 10s, squarely inside the
        // collective's traffic window: replicas roll one at a time
        // (surge 1 / maxUnavailable 1) while both tenants keep sending.
        update_at: Some(ms(10_000)),
        delete_at: Some(ms(40_000)),
        burst: None,
        autoscale: None,
        pin_nodes: Some(vec![8, 9]),
    };
    Scenario {
        name: "rolling-update-allreduce".into(),
        description: "surge-bounded rolling update of a 4-replica service while an 8-rank \
                      allreduce saturates the shared trunk; the ready floor, the service \
                      p99 SLO and the collective's zero-drop run must all hold"
            .into(),
        config: ClusterConfig {
            seed,
            nodes: 10,
            topology: Some(two_group_topology()),
            ..Default::default()
        },
        claims: vec![],
        jobs: vec![coll],
        services: vec![web],
        faults: vec![],
        horizon: ms(45_000),
        tick: SimDur::from_millis(20),
    }
}

/// The named scenario library executed by `scenario-run`.
pub fn library(seed: u64) -> Vec<Scenario> {
    vec![
        steady_state(seed),
        churn(seed),
        quarantine_pressure(seed),
        node_drain(seed),
        oversubscribed(seed),
        noisy_neighbor(seed),
        incast(seed),
        collective_noisy_neighbor(seed),
        cross_group_allreduce(seed),
        trunk_cut_allreduce(seed),
        flapping_link_incast(seed),
        adaptive_incast(seed),
        service_mesh_allreduce(seed),
        autoscale_burst(seed),
        rolling_update_allreduce(seed),
    ]
}

/// Look up one library scenario by name.
pub fn by_name(name: &str, seed: u64) -> Option<Scenario> {
    library(seed).into_iter().find(|s| s.name == name)
}

// ---- Control-plane stress scenarios -------------------------------------

/// A control-plane stress scenario: tenants churning directly through a
/// sharded VNI database under group commit, without the cluster around
/// it — the scale test for the million-tenant control plane
/// (`shs-harness scenario-run` reports these under `control_reports`).
#[derive(Debug, Clone)]
pub struct VniStressScenario {
    /// Scenario name (`vni-stress-10k`, `vni-stress-1m`).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Crash-recovery seed.
    pub seed: u64,
    /// Distinct tenant identities cycled through the run.
    pub tenants: u64,
    /// Control-plane transactions to execute.
    pub ops: u64,
    /// Store shards (overridable by `scenario-run --shards`).
    pub shards: usize,
}

/// Deterministic end-state report of a [`VniStressScenario`]. Every
/// field is shard-count-invariant, so for one seed the report bytes are
/// identical at any `--shards` value — the facade's equivalence
/// contract, asserted by `tests/report_identity.rs`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VniStressReport {
    /// Scenario name.
    pub scenario: String,
    /// Human description.
    pub description: String,
    /// Crash-recovery seed.
    pub seed: u64,
    /// Tenant identities cycled.
    pub tenants: u64,
    /// Steps executed.
    pub ops: u64,
    /// Successful acquisitions.
    pub acquires: u64,
    /// Acquisitions satisfied by recycling an expired quarantine row.
    pub reuse_allocs: u64,
    /// Releases into quarantine.
    pub releases: u64,
    /// Acquire attempts refused on an exhausted range.
    pub exhaustions: u64,
    /// Audit-log entries persisted.
    pub audit_len: u64,
    /// Logical control-plane transactions.
    pub txns: u64,
    /// Allocated rows at the end of the run.
    pub allocated_at_end: u64,
    /// Quarantined rows at the end of the run.
    pub quarantined_at_end: u64,
    /// Simulated horizon in milliseconds.
    pub horizon_ms: u64,
    /// Index invariants held at the end of the run.
    pub consistent: bool,
    /// A crash + recovery reproduced rows, audit length, and passed the
    /// consistency check.
    pub recovered: bool,
    /// All checks passed.
    pub passed: bool,
}

/// Execute a control-plane stress scenario (see
/// [`crate::workloads::VniStressWorkload`] for the step semantics):
/// run the churn, audit the end state, then crash every shard and
/// verify recovery reproduces it.
pub fn run_vni_stress(scenario: &VniStressScenario) -> VniStressReport {
    use crate::workloads::VniStressWorkload;

    let mut w = VniStressWorkload::new(scenario.shards, scenario.tenants);
    for _ in 0..scenario.ops {
        w.step();
    }
    let (mut db, now, ops, _) = w.finish();
    let consistent = db.check_index_consistency().is_ok();
    let stats = db.stats(now);
    let c = db.counters();
    let rows = db.rows();
    let audit_len = db.audit_len() as u64;
    let txns = db.txn_count();

    // Crash-recovery audit: after the final group flush, a crash at any
    // shard must lose nothing.
    let config = crate::vni_db::VniDbConfig {
        range: VniStressWorkload::RANGE,
        quarantine: db.quarantine(),
    };
    let mut rng = shs_des::DetRng::new(scenario.seed);
    let recovered_db = crate::sharded_db::ShardedVniDb::recover(db.crash(&mut rng), config);
    let recovered = recovered_db.rows() == rows
        && recovered_db.audit_len() as u64 == audit_len
        && recovered_db.check_index_consistency().is_ok();

    VniStressReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        seed: scenario.seed,
        tenants: scenario.tenants,
        ops,
        acquires: c.acquires,
        reuse_allocs: c.reuse_allocs,
        releases: c.releases,
        exhaustions: c.exhaustions,
        audit_len,
        txns,
        allocated_at_end: stats.allocated as u64,
        quarantined_at_end: stats.quarantined as u64,
        horizon_ms: now.as_nanos() / 1_000_000,
        consistent,
        recovered,
        passed: consistent && recovered,
    }
}

/// The control-plane stress library executed by `scenario-run` (smoke
/// scale; the million-tenant configuration is reachable by name).
pub fn stress_library(seed: u64) -> Vec<VniStressScenario> {
    vec![vni_stress(seed, "vni-stress-10k", 10_000, 100_000)]
}

/// Look up a stress scenario by name, including the full-scale
/// `vni-stress-1m` (1M tenants, 10M transactions) which is too heavy
/// for the default suite.
pub fn stress_by_name(name: &str, seed: u64) -> Option<VniStressScenario> {
    if name == "vni-stress-1m" {
        return Some(vni_stress(seed, "vni-stress-1m", 1_000_000, 10_000_000));
    }
    stress_library(seed).into_iter().find(|s| s.name == name)
}

fn vni_stress(seed: u64, name: &str, tenants: u64, ops: u64) -> VniStressScenario {
    VniStressScenario {
        name: name.into(),
        description: format!(
            "{tenants} tenants churning {ops} control-plane transactions through the \
             sharded VNI database under WAL group commit, with a crash-recovery audit"
        ),
        seed,
        tenants,
        ops,
        shards: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        let mut a = job("t0", "a", 2, 500, VniMode::Dedicated);
        a.delete_at = Some(ms(6_000));
        a.traffic = Some(TrafficPlan {
            rounds: 3,
            interval: SimDur::from_millis(500),
            size: 1024,
            tc: TrafficClass::Dedicated,
            burst: 1,
            pattern: TrafficPattern::Ring,
        });
        let mut b = job("t1", "b", 2, 800, VniMode::Dedicated);
        b.delete_at = Some(ms(6_000));
        b.traffic = Some(TrafficPlan {
            rounds: 3,
            interval: SimDur::from_millis(500),
            size: 1024,
            tc: TrafficClass::Dedicated,
            burst: 1,
            pattern: TrafficPattern::Ring,
        });
        Scenario {
            name: "tiny".into(),
            description: "two dedicated tenants with traffic".into(),
            config: ClusterConfig { seed: 11, ..Default::default() },
            claims: vec![],
            jobs: vec![a, b],
            services: vec![],
            faults: vec![],
            horizon: ms(12_000),
            tick: SimDur::from_millis(20),
        }
    }

    #[test]
    fn tiny_scenario_passes_all_isolation_assertions() {
        let r = run_scenario(&tiny());
        assert_eq!(r.jobs.started, 2, "both jobs admitted");
        assert!(r.traffic.delivered > 0, "rank traffic flowed");
        assert!(r.isolation.cross_tenant_attempts > 0, "probes mounted");
        assert_eq!(r.isolation.cross_vni_deliveries, 0);
        assert_eq!(r.isolation.quarantine_violations, 0);
        assert_eq!(r.isolation.leaked_services, 0);
        assert_eq!(r.isolation.stale_grants, 0);
        assert!(r.passed, "report: {r:?}");
    }

    #[test]
    fn tiny_scenario_is_deterministic() {
        let a = run_scenario(&tiny());
        let b = run_scenario(&tiny());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn library_has_fifteen_distinct_scenarios() {
        let lib = library(1);
        assert_eq!(lib.len(), 15);
        let names: std::collections::BTreeSet<_> =
            lib.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 15);
        assert!(by_name("churn", 1).is_some());
        assert!(by_name("noisy-neighbor", 1).is_some());
        assert!(by_name("incast", 1).is_some());
        assert!(by_name("collective-noisy-neighbor", 1).is_some());
        assert!(by_name("cross-group-allreduce", 1).is_some());
        assert!(by_name("trunk-cut-allreduce", 1).is_some());
        assert!(by_name("flapping-link-incast", 1).is_some());
        assert!(by_name("adaptive-incast", 1).is_some());
        assert!(by_name("service-mesh-allreduce", 1).is_some());
        assert!(by_name("autoscale-burst", 1).is_some());
        assert!(by_name("rolling-update-allreduce", 1).is_some());
        assert!(by_name("nope", 1).is_none());
    }

    /// A 2-replica service carrying request/response traffic on a
    /// single switch: round trips complete, latency samples accrue, and
    /// the report carries the serving-plane section.
    fn tiny_service() -> Scenario {
        let svc = ServicePlan {
            tenant: "svc".into(),
            name: "echo".into(),
            replicas: 2,
            arrival: ms(500),
            vni: VniMode::Dedicated,
            tc: TrafficClass::LowLatency,
            request_interval: SimDur::from_millis(250),
            requests_per_fire: 2,
            request_bytes: 512,
            response_bytes: 1024,
            slo_p99: SimDur::from_micros(200),
            update_at: None,
            delete_at: Some(ms(8_000)),
            burst: None,
            autoscale: None,
            pin_nodes: None,
        };
        Scenario {
            name: "tiny-service".into(),
            description: "one 2-replica request/response service".into(),
            config: ClusterConfig { seed: 7, ..Default::default() },
            claims: vec![],
            jobs: vec![],
            services: vec![svc],
            faults: vec![],
            horizon: ms(12_000),
            tick: SimDur::from_millis(20),
        }
    }

    /// A 4-replica service beside a 4-rank allreduce on one switch,
    /// with fires and rounds far enough apart to drive one by hand.
    fn endpoint_rig() -> Scenario {
        let mut ring = job("hpc", "ring", 4, 500, VniMode::Dedicated);
        ring.traffic = Some(TrafficPlan {
            rounds: 100,
            interval: SimDur::from_millis(1_000),
            size: 4096,
            tc: TrafficClass::Dedicated,
            burst: 1,
            pattern: TrafficPattern::Allreduce,
        });
        let svc = ServicePlan {
            tenant: "web".into(),
            name: "front".into(),
            replicas: 4,
            arrival: ms(500),
            vni: VniMode::Dedicated,
            tc: TrafficClass::LowLatency,
            request_interval: SimDur::from_millis(250),
            requests_per_fire: 8,
            request_bytes: 512,
            response_bytes: 1024,
            slo_p99: SimDur::from_micros(200),
            update_at: None,
            delete_at: None,
            burst: None,
            autoscale: None,
            pin_nodes: None,
        };
        Scenario {
            name: "endpoint-rig".into(),
            description: "one service and one allreduce, driven event by event".into(),
            config: ClusterConfig { seed: 5, nodes: 4, ..Default::default() },
            claims: vec![],
            jobs: vec![ring],
            services: vec![svc],
            faults: vec![],
            horizon: ms(10_000),
            tick: SimDur::from_millis(20),
        }
    }

    /// Destroy the CXI service the CNI plugin made for `pod`, between
    /// DES events and behind the engine's back; its switch grant stays,
    /// so only the driver verdict can keep the pod's messages off the
    /// fabric.
    fn revoke(w: &mut World, ns: &str, pod: &str) {
        let h = w.cluster.pod_handle(ns, pod).expect("pod running");
        let node = &mut w.cluster.nodes[h.node_idx].inner;
        let root = node.host.credentials(shs_oslinux::Pid(1)).expect("init exists");
        let label = format!("cni:{ns}_{pod}");
        let gone = node
            .device
            .driver
            .svc_destroy_matching(&root, &mut node.device.nic, |s| s.label == label)
            .expect("root may destroy");
        assert_eq!(gone.len(), 1, "{pod} had one CNI service");
    }

    /// (delivered messages, every drop) the fabric has seen on `vni`.
    fn fabric_seen(w: &World, vni: Vni) -> (u64, u64) {
        let t = w.cluster.fabric.traffic(vni);
        let switch_drops: u64 = w.cluster.fabric.switches().map(|s| s.counters.total_drops()).sum();
        (t.messages, t.congestion_drops + switch_drops)
    }

    #[test]
    fn a_revoked_replica_fails_every_request_it_touches_and_no_other() {
        let sc = endpoint_rig();
        let mut sim = schedule(&sc);
        sim.run_until(ms(3_000));
        let now = sim.now();
        let w = &mut sim.world;
        let vni = resolve_service_vni(&w.cluster, &w.services[0].plan).expect("decorated");
        let ready = w.cluster.service_ready("web", "front");
        assert_eq!(ready.len(), 4, "every replica ready");
        revoke(w, "web", &ready[1]);

        let t = &w.services[0];
        let (n, demand, rr) = (ready.len(), u64::from(t.plan.requests_per_fire), t.rr);
        // Request k goes from replica k % n to replica (k + 1) % n, so
        // it touches replica 1 when either end is 1.
        let touching =
            (rr..rr + demand as usize).filter(|k| k % n == 1 || (k + 1) % n == 1).count() as u64;
        assert!(touching > 0 && touching < demand);
        let before = (t.requests, t.auth_failures, t.completed, t.dropped, t.latencies.len());
        let (delivered0, drops0) = fabric_seen(w, vni);
        let (id0, probes0) = (w.msg_id, w.m.cross_attempts);

        service_fire(w, now, 0);

        let t = &w.services[0];
        assert_eq!(t.requests - before.0, demand, "every request counted");
        assert_eq!(t.auth_failures - before.1, touching, "one failure per touching request");
        assert_eq!(t.completed - before.2, demand - touching, "the other replicas serve");
        assert_eq!(t.dropped - before.3, 0);
        assert_eq!(t.latencies.len() - before.4, (demand - touching) as usize);
        let (delivered, drops) = fabric_seen(w, vni);
        assert_eq!(delivered - delivered0, 2 * (demand - touching), "refused legs never sent");
        assert_eq!(drops - drops0, 0);
        // Two message ids per request, refused or not, plus the probe.
        assert_eq!(w.msg_id - id0, 2 * demand + (w.m.cross_attempts - probes0));
    }

    #[test]
    fn a_revoked_rank_fails_every_send_it_makes_and_no_other() {
        let sc = endpoint_rig();
        let mut sim = schedule(&sc);
        sim.run_until(ms(3_000));
        let w = &mut sim.world;
        let vni = resolve_vni(&w.cluster, &w.jobs[0].plan).expect("decorated");
        revoke(w, "hpc", "ring-2");

        let steps = ring_allreduce_schedule(4, 4096);
        let sends = steps.iter().map(Vec::len).sum::<usize>() as u64;
        let from_victim = steps.iter().flatten().filter(|&&(src, _, _)| src == 2).count() as u64;
        assert!(from_victim > 0 && from_victim < sends);
        let m = &w.m;
        let before = (m.auth_failures, m.authorized_sends, m.delivered, m.dropped, m.rounds);
        let (delivered0, drops0) = fabric_seen(w, vni);
        let (id0, probes0) = (w.msg_id, w.m.cross_attempts);

        traffic_round(&mut sim, 0);

        let w = &sim.world;
        let m = &w.m;
        assert_eq!(m.rounds - before.4, 1, "the round ran");
        assert_eq!(m.auth_failures - before.0, from_victim, "one failure per send it makes");
        assert_eq!(m.authorized_sends - before.1, sends - from_victim);
        assert_eq!(m.delivered - before.2, sends - from_victim, "the other ranks deliver");
        assert_eq!(m.dropped - before.3, 0);
        let (delivered, drops) = fabric_seen(w, vni);
        assert_eq!(delivered - delivered0, sends - from_victim, "refused sends never sent");
        assert_eq!(drops - drops0, 0);
        // One message id per send, refused or not, plus the probe.
        assert_eq!(w.msg_id - id0, sends + (w.m.cross_attempts - probes0));
    }

    #[test]
    fn tiny_service_scenario_serves_and_unwinds_clean() {
        let r = run_scenario(&tiny_service());
        assert_eq!(r.services.len(), 1);
        let s = &r.services[0];
        assert_eq!(s.service, "svc/echo");
        assert!(s.completed > 0, "round trips completed: {s:?}");
        assert_eq!(s.auth_failures, 0);
        assert!(s.slo_met, "p99 {} vs slo {}", s.p99_latency_ns, s.slo_p99_ns);
        assert!(s.floor_held, "min_ready {} floor {}", s.min_ready, s.ready_floor);
        assert_eq!(r.vni.allocated_at_end, 0, "service VNI released at teardown");
        assert!(r.passed, "report: {r:?}");
        // The serving-plane section serializes; job-only reports omit it
        // (pinned by tests/report_identity.rs against committed fixtures).
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"services\""));
    }

    #[test]
    fn tiny_service_scenario_is_deterministic() {
        let a = run_scenario(&tiny_service());
        let b = run_scenario(&tiny_service());
        assert_eq!(a, b);
    }

    #[test]
    fn request_response_pattern_completes_round_trips() {
        let mut s = tiny();
        for j in &mut s.jobs {
            if let Some(tp) = &mut j.traffic {
                tp.pattern = TrafficPattern::RequestResponse;
            }
        }
        let r = run_scenario(&s);
        // Each ring slot issues a request and a response leg.
        assert!(r.traffic.delivered > 0);
        assert_eq!(r.traffic.delivered % 2, 0, "paired legs: {r:?}");
        assert!(r.passed, "report: {r:?}");
    }
}
