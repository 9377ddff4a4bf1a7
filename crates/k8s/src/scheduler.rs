//! The pod scheduler: binds pending pods to ready nodes, honouring
//! per-node capacity and topology-spread groups (the constraint the
//! paper uses to place the two benchmark ranks on two nodes, §IV-A).
//!
//! Event-driven: pods enter the pending set via watch events and leave
//! when bound, deleted, or failed; a poll with an empty pending set is
//! O(events) only.

use std::collections::{BTreeMap, BTreeSet};

use shs_des::SimTime;

use crate::api::{ApiServer, WatchType};
use crate::objects::{kinds, pod_node_name, pod_phase, spec_of, PodPhase, PodSpec};

/// Scheduler state (a controller; poll-driven).
#[derive(Debug, Default)]
pub struct Scheduler {
    last_rv: u64,
    pending: BTreeSet<(String, String)>,
    /// Pods bound over this scheduler's lifetime (diagnostics).
    pub bindings: u64,
}

impl Scheduler {
    /// Fresh scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Pods awaiting a binding.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// One reconcile pass: bind every pending, non-terminating pod.
    /// Binding writes `spec.node_name` (the "binding" subresource).
    pub fn poll(&mut self, api: &mut ApiServer, _now: SimTime) {
        // Learn about new pods from the watch stream.
        let (events, rv) = api.events_since(self.last_rv);
        self.last_rv = rv;
        for ev in events {
            if ev.object.kind != kinds::POD {
                continue;
            }
            let key = (ev.object.meta.namespace.clone(), ev.object.meta.name.clone());
            match ev.kind {
                WatchType::Deleted => {
                    self.pending.remove(&key);
                }
                _ => {
                    let spec: PodSpec = spec_of(&ev.object);
                    if spec.node_name.is_none() && !ev.object.meta.deletion_requested {
                        self.pending.insert(key);
                    } else {
                        self.pending.remove(&key);
                    }
                }
            }
        }
        if self.pending.is_empty() {
            return;
        }

        let nodes: Vec<(String, u32)> = api
            .list(kinds::NODE)
            .iter()
            .filter(|n| n.status["ready"] == serde_json::json!(true))
            .map(|n| {
                let max = n.spec["maxPods"].as_u64().unwrap_or(110) as u32;
                (n.meta.name.clone(), max)
            })
            .collect();
        if nodes.is_empty() {
            return;
        }

        // Current occupancy and per-spread-group placement counts.
        let mut pods_on: BTreeMap<String, u32> = BTreeMap::new();
        let mut group_on: BTreeMap<(String, String), u32> = BTreeMap::new();
        for pod in api.list(kinds::POD) {
            if pod_phase(pod) == PodPhase::Failed {
                continue;
            }
            let spec: PodSpec = spec_of(pod);
            if let Some(node) = &spec.node_name {
                *pods_on.entry(node.clone()).or_insert(0) += 1;
                if let Some(g) = &spec.spread_key {
                    *group_on.entry((g.clone(), node.clone())).or_insert(0) += 1;
                }
            }
        }

        let work: Vec<(String, String)> = self.pending.iter().cloned().collect();
        for (ns, name) in work {
            let Some(pod) = api.get(kinds::POD, &ns, &name) else {
                self.pending.remove(&(ns, name));
                continue;
            };
            if pod.meta.deletion_requested {
                self.pending.remove(&(ns, name));
                continue;
            }
            let spec: PodSpec = spec_of(pod);
            // Candidates with capacity, ranked by (spread count, total
            // pods, name) for deterministic, spread-first placement. A
            // node selector (topology-aware rank placement) restricts
            // the candidate set before ranking.
            let mut best: Option<(u32, u32, &str)> = None;
            for (node, max) in &nodes {
                if let Some(sel) = &spec.node_selector {
                    if !sel.contains(node) {
                        continue;
                    }
                }
                let total = pods_on.get(node).copied().unwrap_or(0);
                if total >= *max {
                    continue;
                }
                let group = spec
                    .spread_key
                    .as_ref()
                    .map(|g| group_on.get(&(g.clone(), node.clone())).copied().unwrap_or(0))
                    .unwrap_or(0);
                let cand = (group, total, node.as_str());
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, _, chosen)) = best else { continue }; // no capacity: stays pending
            let chosen = chosen.to_string();
            api.mutate(kinds::POD, &ns, &name, |o| {
                let mut s: PodSpec = spec_of(o);
                s.node_name = Some(chosen.clone());
                o.spec = serde_json::to_value(s).expect("PodSpec serializes");
            })
            .expect("pod exists");
            *pods_on.entry(chosen.clone()).or_insert(0) += 1;
            if let Some(g) = &spec.spread_key {
                *group_on.entry((g.clone(), chosen)).or_insert(0) += 1;
            }
            self.bindings += 1;
            self.pending.remove(&(ns, name));
        }
    }
}

/// Convenience: the node a pod is bound to (read with
/// [`pod_node_name`], no spec decode).
pub fn bound_node(api: &ApiServer, namespace: &str, name: &str) -> Option<String> {
    pod_node_name(api.get(kinds::POD, namespace, name)?).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiObject;
    use crate::objects::make_node;
    use serde_json::json;

    fn pod(ns: &str, name: &str, spread: Option<&str>) -> ApiObject {
        ApiObject::new(
            kinds::POD,
            ns,
            name,
            json!({
                "image": "alpine",
                "spread_key": spread,
            }),
        )
    }

    fn cluster(api: &mut ApiServer, nodes: &[(&str, u32)]) {
        for (n, max) in nodes {
            api.create(make_node(n, *max), SimTime::ZERO).unwrap();
        }
    }

    #[test]
    fn binds_pending_pods_round_robin_by_load() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10)]);
        for i in 0..4 {
            api.create(pod("ns", &format!("p{i}"), None), SimTime::ZERO).unwrap();
        }
        Scheduler::new().poll(&mut api, SimTime::ZERO);
        let mut counts = BTreeMap::new();
        for i in 0..4 {
            let n = bound_node(&api, "ns", &format!("p{i}")).expect("bound");
            *counts.entry(n).or_insert(0) += 1;
        }
        assert_eq!(counts.get("n0"), Some(&2));
        assert_eq!(counts.get("n1"), Some(&2));
    }

    #[test]
    fn topology_spread_splits_a_group_across_nodes() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10)]);
        // Pre-load n0 with unrelated pods so naive least-loaded would
        // put both group members on n1.
        for i in 0..3 {
            api.create(pod("ns", &format!("bg{i}"), None), SimTime::ZERO).unwrap();
        }
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        api.create(pod("ns", "osu-0", Some("osu")), SimTime::ZERO).unwrap();
        api.create(pod("ns", "osu-1", Some("osu")), SimTime::ZERO).unwrap();
        s.poll(&mut api, SimTime::ZERO);
        let a = bound_node(&api, "ns", "osu-0").unwrap();
        let b = bound_node(&api, "ns", "osu-1").unwrap();
        assert_ne!(a, b, "spread group must land on distinct nodes");
    }

    #[test]
    fn respects_node_capacity_and_retries_later() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 2)]);
        for i in 0..3 {
            api.create(pod("ns", &format!("p{i}"), None), SimTime::ZERO).unwrap();
        }
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        let bound = (0..3)
            .filter(|i| bound_node(&api, "ns", &format!("p{i}")).is_some())
            .count();
        assert_eq!(bound, 2, "third pod must stay pending");
        assert_eq!(s.pending(), 1);
        // Free a slot (delete a bound pod) and re-poll: the third binds.
        api.delete(kinds::POD, "ns", "p0").unwrap();
        s.poll(&mut api, SimTime::ZERO);
        let bound = (0..3)
            .filter(|i| bound_node(&api, "ns", &format!("p{i}")).is_some())
            .count();
        assert_eq!(bound, 2, "p1 still bound + p2 newly bound");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn node_selector_restricts_candidates() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10), ("n1", 10), ("n2", 10)]);
        // n0 is least loaded overall, but the selector excludes it.
        let mut p = pod("ns", "pinned", None);
        p.spec["node_selector"] = json!(["n1", "n2"]);
        api.create(p, SimTime::ZERO).unwrap();
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!(bound_node(&api, "ns", "pinned").as_deref(), Some("n1"));
        // A selector naming no schedulable node leaves the pod pending.
        let mut q = pod("ns", "stuck", None);
        q.spec["node_selector"] = json!(["n9"]);
        api.create(q, SimTime::ZERO).unwrap();
        s.poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "stuck").is_none());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn skips_terminating_pods() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10)]);
        let mut dying = pod("ns", "dying", None);
        dying.meta.finalizers.push("x".into());
        api.create(dying, SimTime::ZERO).unwrap();
        api.delete(kinds::POD, "ns", "dying").unwrap();
        let mut s = Scheduler::new();
        s.poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "dying").is_none());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn unready_nodes_get_nothing() {
        let mut api = ApiServer::default();
        let mut node = make_node("n0", 10);
        node.status = json!({"ready": false});
        api.create(node, SimTime::ZERO).unwrap();
        api.create(pod("ns", "p", None), SimTime::ZERO).unwrap();
        Scheduler::new().poll(&mut api, SimTime::ZERO);
        assert!(bound_node(&api, "ns", "p").is_none());
    }

    #[test]
    fn empty_pending_poll_is_cheap_noop() {
        let mut api = ApiServer::default();
        cluster(&mut api, &[("n0", 10)]);
        let mut s = Scheduler::new();
        let before = api.requests;
        s.poll(&mut api, SimTime::ZERO);
        s.poll(&mut api, SimTime::ZERO);
        assert_eq!(api.requests, before, "no API mutations on idle polls");
    }
}
