//! Traced replay of admission-churn through the public `Cluster` API.
//!
//! `run_scenario` drives the cluster from a DES calendar; for a plan
//! without traffic, services or faults its event order is simple enough
//! to replay directly: a control-plane tick every `scenario.tick` from
//! time zero, with each plan event (claim create/delete, job
//! submit/delete) running before the tick at or after its instant —
//! except at time zero, where the first tick was scheduled first. Each
//! tick is split into the calls `Cluster::tick` makes, in its order, and
//! the node backend is rebuilt here from `NodeInner`'s public fields so
//! the container runtime and the CNI chain get spans of their own.
//!
//! The replay must reproduce the untraced run's per-job admission
//! instants, pods started and VNI transaction count
//! ([`Replay::check_against`]).

use shs_cni::{CniArgs, PodRef};
use shs_containers::{Image, UserNsMode};
use shs_des::{SimDur, SimTime};
use shs_fabric::Fabric;
use shs_k8s::{spec_of, ApiObject, ApiServer, CniAddOutcome, NodeBackend, PodSpec};
use shs_oslinux::{Creds, NetNsId, Pid};
use slingshot_k8s::{alpine, Cluster, NodeCniCtx, NodeInner, Scenario, ScenarioReport, VniMode};

use crate::trace::Tracer;

/// What the replay observed, for the equivalence check and the
/// per-layer counts.
pub struct Replay {
    /// First pod-start instant per planned job, in plan order.
    pub admission_us: Vec<Option<u64>>,
    /// Pods started over all kubelets.
    pub pods_started: u64,
    /// Logical VNI database transactions.
    pub vni_txns: u64,
    /// VNI database acquisitions / releases / quarantine reuses.
    pub vni_acquires: u64,
    pub vni_releases: u64,
    pub vni_reuse_allocs: u64,
    /// Length of the API server's watch log (`ApiServer::latest_rv`).
    pub api_events: u64,
}

impl Replay {
    /// The replay-equivalence check against the untraced run.
    pub fn check_against(&self, report: &ScenarioReport) -> Result<(), String> {
        let expected: Vec<Option<u64>> = report
            .jobs
            .outcomes
            .iter()
            .map(|o| o.admission_us)
            .collect();
        if expected != self.admission_us {
            let first = expected
                .iter()
                .zip(&self.admission_us)
                .position(|(a, b)| a != b);
            return Err(format!(
                "replayed admission instants differ (first at job {first:?})"
            ));
        }
        if report.kubelet.pods_started != self.pods_started {
            return Err(format!(
                "replay started {} pods, the untraced run {}",
                self.pods_started, report.kubelet.pods_started
            ));
        }
        if report.vni.txn_count != self.vni_txns {
            return Err(format!(
                "replay ran {} VNI transactions, the untraced run {}",
                self.vni_txns, report.vni.txn_count
            ));
        }
        Ok(())
    }
}

enum PlanEvent {
    CreateClaim(usize),
    DeleteClaim(usize),
    Submit(usize),
    DeleteJob(usize),
}

/// Replay `sc` on `cluster` (built by `Cluster::new(sc.config.clone())`),
/// recording spans into `tr`.
pub fn replay(sc: &Scenario, mut cluster: Cluster, tr: &mut Tracer) -> Replay {
    assert!(
        sc.services.is_empty()
            && sc.faults.is_empty()
            && sc.jobs.iter().all(|j| j.traffic.is_none()),
        "the replay covers control-plane-only scenarios"
    );
    // Plan events in the order run_scenario schedules them; a stable
    // sort by instant keeps that order among equal instants.
    let mut events: Vec<(SimTime, PlanEvent)> = Vec::new();
    for (i, c) in sc.claims.iter().enumerate() {
        events.push((c.create_at, PlanEvent::CreateClaim(i)));
        if let Some(at) = c.delete_at {
            events.push((at, PlanEvent::DeleteClaim(i)));
        }
    }
    for (i, j) in sc.jobs.iter().enumerate() {
        events.push((j.arrival, PlanEvent::Submit(i)));
        if let Some(at) = j.delete_at {
            events.push((at, PlanEvent::DeleteJob(i)));
        }
    }
    events.sort_by_key(|(t, _)| *t);
    let image = alpine();
    let mut started_at: Vec<Option<SimTime>> = vec![None; sc.jobs.len()];
    let mut next = 0usize;
    let mut tick_no = 0u64;
    loop {
        let now = SimTime::from_nanos(tick_no * sc.tick.as_nanos());
        if now > sc.horizon {
            break;
        }
        while next < events.len()
            && (events[next].0 < now || (tick_no > 0 && events[next].0 == now))
        {
            apply(&mut cluster, sc, &events[next], &image, tr);
            next += 1;
        }
        tick(&mut cluster, now, tick_no, tr);
        tr.enter("scenario.track_admission", tick_no);
        for (j, plan) in sc.jobs.iter().enumerate() {
            if started_at[j].is_some() || now < plan.arrival {
                continue;
            }
            started_at[j] = cluster.job_started_at(&plan.tenant, &plan.name);
        }
        tr.exit();
        tick_no += 1;
    }
    while next < events.len() && events[next].0 <= sc.horizon {
        apply(&mut cluster, sc, &events[next], &image, tr);
        next += 1;
    }
    // run_scenario's end-state audit reads the VNI database through
    // calls that sweep expired quarantines (one transaction when any
    // expired); the replay makes the same reads.
    tr.enter("scenario.audit", tick_no);
    {
        let mut ep = cluster.endpoint.borrow_mut();
        ep.db.audit_at(sc.horizon);
        ep.db.stats(sc.horizon);
    }
    tr.exit();
    let pods_started = cluster
        .nodes
        .iter()
        .map(|n| n.kubelet.counters.pods_started)
        .sum();
    let ep = cluster.endpoint.borrow();
    let counters = ep.db.counters();
    Replay {
        admission_us: sc
            .jobs
            .iter()
            .zip(&started_at)
            .map(|(p, s)| s.map(|at| (at - p.arrival).as_nanos() / 1_000))
            .collect(),
        pods_started,
        vni_txns: ep.db.txn_count(),
        vni_acquires: counters.acquires,
        vni_releases: counters.releases,
        vni_reuse_allocs: counters.reuse_allocs,
        api_events: cluster.api.latest_rv(),
    }
}

fn apply(
    c: &mut Cluster,
    sc: &Scenario,
    ev: &(SimTime, PlanEvent),
    image: &Image,
    tr: &mut Tracer,
) {
    let now = ev.0;
    match ev.1 {
        PlanEvent::CreateClaim(i) => {
            let p = &sc.claims[i];
            tr.enter("k8s.create_claim", i as u64);
            c.create_claim(now, &p.tenant, &p.name);
            tr.exit();
        }
        PlanEvent::DeleteClaim(i) => {
            let p = &sc.claims[i];
            tr.enter("k8s.delete_claim", i as u64);
            c.delete_claim(&p.tenant, &p.name);
            tr.exit();
        }
        PlanEvent::Submit(i) => {
            let p = &sc.jobs[i];
            let ann: Vec<(&str, &str)> = match &p.vni {
                VniMode::Global => vec![],
                VniMode::Dedicated => vec![("vni", "true")],
                VniMode::Claim(claim) => vec![("vni", claim.as_str())],
            };
            tr.enter("k8s.submit_job", i as u64);
            c.submit_job_placed(
                now,
                &p.tenant,
                &p.name,
                &ann,
                p.ranks,
                image,
                p.run_ms,
                p.pin_nodes.as_deref(),
            );
            tr.exit();
        }
        PlanEvent::DeleteJob(i) => {
            let p = &sc.jobs[i];
            tr.enter("k8s.delete_job", i as u64);
            c.delete_job(&p.tenant, &p.name);
            tr.exit();
        }
    }
}

/// `Cluster::tick`, call by call.
fn tick(c: &mut Cluster, now: SimTime, id: u64, tr: &mut Tracer) {
    tr.enter("k8s.tick", id);
    tr.enter("k8s.jobctl", id);
    c.job_controller.poll(&mut c.api, now);
    tr.exit();
    tr.enter("k8s.svcctl", id);
    c.service_controller.poll(&mut c.api, now);
    tr.exit();
    for decorator in [&mut c.vni_claims, &mut c.vni_jobs, &mut c.vni_services] {
        tr.enter("k8s.vni_decorators", id);
        decorator.poll(&mut c.api, now);
        tr.exit();
    }
    tr.enter("k8s.scheduler", id);
    c.scheduler.poll(&mut c.api, now);
    tr.exit();
    for (i, node) in c.nodes.iter_mut().enumerate() {
        tr.enter("k8s.kubelet", i as u64);
        let mut backend = TracedBackend {
            inner: &mut node.inner,
            fabric: &mut c.fabric,
            tr,
            id,
        };
        node.kubelet.poll(&mut c.api, &mut backend, now);
        tr.exit();
    }
    tr.enter("k8s.pleg", id);
    c.pleg.sync(&c.api);
    tr.exit();
    tr.exit();
}

/// The cluster's node backend, rebuilt from public fields with a span
/// around every container-runtime and CNI-chain call.
struct TracedBackend<'a> {
    inner: &'a mut NodeInner,
    fabric: &'a mut Fabric,
    tr: &'a mut Tracer,
    id: u64,
}

impl TracedBackend<'_> {
    fn cni_args(pod: &ApiObject, netns: NetNsId) -> CniArgs {
        CniArgs {
            container_id: NodeInner::sandbox_id(pod),
            netns,
            ifname: "eth0".into(),
            pod: Some(PodRef {
                namespace: pod.meta.namespace.clone(),
                name: pod.meta.name.clone(),
                uid: pod.meta.uid.to_string(),
            }),
        }
    }

    fn root(&self) -> Creds {
        self.inner.host.credentials(Pid(1)).expect("init exists")
    }
}

impl NodeBackend for TracedBackend<'_> {
    fn create_sandbox(&mut self, pod: &ApiObject) -> Result<(NetNsId, SimDur), String> {
        let spec: PodSpec = spec_of(pod);
        let mode = match spec.userns_base {
            Some(base) => UserNsMode::Mapped { base },
            None => UserNsMode::Host,
        };
        let id = NodeInner::sandbox_id(pod);
        self.tr.enter("containers.create_sandbox", self.id);
        let out = self
            .inner
            .runtime
            .create_sandbox(&mut self.inner.host, &id, mode);
        self.tr.exit();
        out.map_err(|e| e.to_string())
    }

    fn cni_add(&mut self, api: &ApiServer, pod: &ApiObject, netns: NetNsId) -> CniAddOutcome {
        let args = Self::cni_args(pod, netns);
        let root = self.root();
        let mut ctx = NodeCniCtx {
            host: &mut self.inner.host,
            device: &mut self.inner.device,
            fabric: self.fabric,
            api,
            nic: self.inner.nic,
            root,
        };
        self.tr.enter("cni.add", self.id);
        let out = self.inner.chain.add(&mut ctx, &args);
        self.tr.exit();
        match out {
            Ok((_result, cost)) => CniAddOutcome::Ok(cost),
            Err((e, cost)) if e.code == 11 => CniAddOutcome::Retry(cost),
            Err((e, cost)) => CniAddOutcome::Fatal(cost, e.to_string()),
        }
    }

    fn start_workload(&mut self, pod: &ApiObject) -> Result<(SimDur, Option<SimDur>), String> {
        let spec: PodSpec = spec_of(pod);
        // The registry's copy of the image is what gets pulled; the size
        // only matters when publishing.
        let image = Image {
            reference: spec.image.clone(),
            size_bytes: 0,
        };
        let run = spec.run_ms.map(SimDur::from_millis);
        let id = NodeInner::sandbox_id(pod);
        self.tr.enter("containers.start_container", self.id);
        let out =
            self.inner
                .runtime
                .start_container(&mut self.inner.host, &id, "main", &image, run);
        self.tr.exit();
        out.map(|(_pid, cost)| (cost, run))
            .map_err(|e| e.to_string())
    }

    fn cni_del(&mut self, pod: &ApiObject, netns: NetNsId) -> SimDur {
        let args = Self::cni_args(pod, netns);
        let root = self.root();
        // DEL must not depend on API state: hand it an empty view.
        let empty = ApiServer::default();
        let mut ctx = NodeCniCtx {
            host: &mut self.inner.host,
            device: &mut self.inner.device,
            fabric: self.fabric,
            api: &empty,
            nic: self.inner.nic,
            root,
        };
        self.tr.enter("cni.del", self.id);
        let cost = self.inner.chain.del(&mut ctx, &args);
        self.tr.exit();
        cost
    }

    fn remove_sandbox(&mut self, pod: &ApiObject) -> SimDur {
        let id = NodeInner::sandbox_id(pod);
        self.tr.enter("containers.remove_sandbox", self.id);
        let out = self.inner.runtime.remove_sandbox(&mut self.inner.host, &id);
        self.tr.exit();
        // A sandbox already gone costs the same 1 ms status round trip
        // as any other removal error.
        out.unwrap_or(SimDur::from_millis(1))
    }
}
