//! Typed views over the dynamic API objects: Jobs, Pods, Nodes.

use serde::{Deserialize, Serialize};

use crate::api::ApiObject;

/// The annotation key carrying VNI requests (paper §III-C1): `vni: true`
/// for a Per-Resource VNI, `vni: <claim-name>` to redeem a VNI Claim.
pub const VNI_ANNOTATION: &str = "vni";

/// Well-known kinds.
pub mod kinds {
    /// Batch job.
    pub const JOB: &str = "Job";
    /// Pod.
    pub const POD: &str = "Pod";
    /// Cluster node.
    pub const NODE: &str = "Node";
    /// The VNI custom resource (paper CRD).
    pub const VNI: &str = "Vni";
    /// The VNI Claim custom resource (paper CRD).
    pub const VNI_CLAIM: &str = "VniClaim";
    /// Long-running replicated service (the serving plane).
    pub const SERVICE: &str = "Service";
}

/// Pod template inside a job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodTemplate {
    /// Image reference.
    pub image: String,
    /// Workload runtime in milliseconds (`None` = runs until killed).
    #[serde(default)]
    pub run_ms: Option<u64>,
    /// Base host uid for a user-namespaced pod (`None` = host userns).
    #[serde(default)]
    pub userns_base: Option<u32>,
    /// Node selector: when set, the scheduler only considers these
    /// nodes (topology-aware rank placement — pinning a job's ranks
    /// into one dragonfly group, or deliberately across groups).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub node_selector: Option<Vec<String>>,
}

/// Job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Number of pods to run in parallel.
    pub parallelism: u32,
    /// Pod template.
    pub template: PodTemplate,
    /// Delete the job this many seconds after it finishes (the paper's
    /// admission tests use 0: "Jobs are configured to be deleted
    /// immediately after completion", §IV-B).
    #[serde(default)]
    pub ttl_seconds_after_finished: Option<u64>,
}

/// Pod spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Owning job name (if job-managed).
    #[serde(default)]
    pub job_name: Option<String>,
    /// Image reference.
    pub image: String,
    /// Workload runtime in ms.
    #[serde(default)]
    pub run_ms: Option<u64>,
    /// Userns base.
    #[serde(default)]
    pub userns_base: Option<u32>,
    /// Node binding (set by the scheduler).
    #[serde(default)]
    pub node_name: Option<String>,
    /// Topology-spread group key: pods sharing a key are spread across
    /// nodes (the paper uses topology spread constraints to place the two
    /// OSU ranks on two nodes, §IV-A).
    #[serde(default)]
    pub spread_key: Option<String>,
    /// Node selector inherited from the pod template: when set, the
    /// scheduler binds only to one of these nodes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub node_selector: Option<Vec<String>>,
    /// Termination grace period in seconds. The CXI CNI plugin enforces
    /// ≤ 30 s for VNI-requesting pods (§III-C1).
    #[serde(default = "default_grace")]
    pub termination_grace_period_secs: u64,
}

fn default_grace() -> u64 {
    30
}

/// A pod's node binding ([`PodSpec::node_name`]), read straight from the
/// spec JSON without decoding the rest of it — the cheap check behind a
/// `spec.nodeName` field selector. `None` while the pod is unbound.
pub fn pod_node_name(pod: &ApiObject) -> Option<&str> {
    pod.spec["node_name"].as_str()
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodPhase {
    /// Created, not yet started on a node.
    Pending,
    /// Containers running.
    Running,
    /// Workload exited successfully.
    Succeeded,
    /// Startup or workload failed.
    Failed,
}

/// Pod status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodStatus {
    /// Phase.
    pub phase: PodPhase,
    /// Instant the workload started (ns since sim start).
    #[serde(default)]
    pub started_at_ns: Option<u64>,
    /// Failure message, if failed.
    #[serde(default)]
    pub message: Option<String>,
}

/// Job status.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Pods that reached Succeeded.
    pub succeeded: u32,
    /// Whether the job completed.
    pub complete: bool,
    /// Completion instant (ns since sim start).
    #[serde(default)]
    pub completed_at_ns: Option<u64>,
}

/// Build a Job object.
pub fn make_job(namespace: &str, name: &str, spec: &JobSpec) -> ApiObject {
    ApiObject::new(
        kinds::JOB,
        namespace,
        name,
        serde_json::to_value(spec).expect("JobSpec serializes"),
    )
}

/// Build a Node object.
pub fn make_node(name: &str, max_pods: u32) -> ApiObject {
    let mut node = ApiObject::new(kinds::NODE, "", name, serde_json::json!({"maxPods": max_pods}));
    node.status = serde_json::json!({"ready": true});
    node
}

/// Decode a typed spec from an object; panics on schema mismatch (which
/// is a programming error in this closed system).
pub fn spec_of<T: serde::de::DeserializeOwned>(obj: &ApiObject) -> T {
    serde_json::from_value(obj.spec.clone())
        .unwrap_or_else(|e| panic!("bad {} spec for {}: {e}", obj.kind, obj.full_name()))
}

/// Decode a typed status; `None` when the status is null/absent.
pub fn status_of<T: serde::de::DeserializeOwned>(obj: &ApiObject) -> Option<T> {
    if obj.status.is_null() {
        None
    } else {
        serde_json::from_value(obj.status.clone()).ok()
    }
}

/// Pod phase accessor (Pending when unset).
pub fn pod_phase(pod: &ApiObject) -> PodPhase {
    status_of::<PodStatus>(pod).map_or(PodPhase::Pending, |s| s.phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_des::SimTime;

    #[test]
    fn job_roundtrips_through_spec_json() {
        let spec = JobSpec {
            parallelism: 2,
            template: PodTemplate {
                image: "alpine".into(),
                run_ms: Some(10),
                userns_base: None,
                node_selector: None,
            },
            ttl_seconds_after_finished: Some(0),
        };
        let obj = make_job("tenant-a", "bench", &spec);
        let back: JobSpec = spec_of(&obj);
        assert_eq!(back, spec);
        assert_eq!(obj.kind, kinds::JOB);
    }

    #[test]
    fn pod_phase_defaults_to_pending() {
        let pod = ApiObject::new(kinds::POD, "ns", "p", serde_json::json!({"image": "x"}));
        assert_eq!(pod_phase(&pod), PodPhase::Pending);
    }

    #[test]
    fn pod_status_roundtrip() {
        let mut api = crate::api::ApiServer::default();
        let pod = ApiObject::new(
            kinds::POD,
            "ns",
            "p",
            serde_json::to_value(PodSpec {
                job_name: None,
                image: "alpine".into(),
                run_ms: Some(5),
                userns_base: None,
                node_name: None,
                spread_key: None,
                node_selector: None,
                termination_grace_period_secs: 30,
            })
            .unwrap(),
        );
        api.create(pod, SimTime::ZERO).unwrap();
        api.mutate(kinds::POD, "ns", "p", |o| {
            o.status = serde_json::to_value(PodStatus {
                phase: PodPhase::Running,
                started_at_ns: Some(123),
                message: None,
            })
            .unwrap();
        })
        .unwrap();
        let pod = api.get(kinds::POD, "ns", "p").unwrap();
        assert_eq!(pod_phase(pod), PodPhase::Running);
        let st: PodStatus = status_of(pod).unwrap();
        assert_eq!(st.started_at_ns, Some(123));
    }

    #[test]
    fn pod_node_name_agrees_with_the_typed_decode() {
        let spec = |node: Option<&str>| PodSpec {
            job_name: Some("j".into()),
            image: "alpine".into(),
            run_ms: None,
            userns_base: None,
            node_name: node.map(str::to_string),
            spread_key: None,
            node_selector: None,
            termination_grace_period_secs: 30,
        };
        let pod = |name: &str, node: Option<&str>| {
            ApiObject::new(kinds::POD, "ns", name, serde_json::to_value(spec(node)).unwrap())
        };
        let agrees = |pod: &ApiObject| {
            assert_eq!(pod_node_name(pod), spec_of::<PodSpec>(pod).node_name.as_deref());
        };

        let unbound = pod("unbound", None);
        agrees(&unbound);
        assert_eq!(pod_node_name(&unbound), None);
        let bound = pod("bound", Some("n3"));
        agrees(&bound);
        assert_eq!(pod_node_name(&bound), Some("n3"));

        // Bound the way the cluster binds: by the scheduler's mutate.
        let mut api = crate::api::ApiServer::default();
        api.create(make_node("n0", 10), SimTime::ZERO).unwrap();
        api.create(pod("scheduled", None), SimTime::ZERO).unwrap();
        crate::scheduler::Scheduler::new().poll(&mut api, SimTime::ZERO);
        let scheduled = api.get(kinds::POD, "ns", "scheduled").unwrap();
        agrees(scheduled);
        assert_eq!(pod_node_name(scheduled), Some("n0"));
    }

    #[test]
    fn default_grace_period_is_thirty_seconds() {
        let spec: PodSpec =
            serde_json::from_value(serde_json::json!({"image": "alpine"})).unwrap();
        assert_eq!(spec.termination_grace_period_secs, 30);
    }
}
