//! The per-layer metric set. Every workload reports every name (the
//! result line must carry all of them); a metric a workload cannot
//! measure reads 0 and carries the reason, printed beside the table.

use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("k8s.tick_s", "s"),
    ("k8s.jobctl_s", "s"),
    ("k8s.svcctl_s", "s"),
    ("k8s.vni_decorators_s", "s"),
    ("k8s.scheduler_s", "s"),
    ("k8s.kubelet_s", "s"),
    ("k8s.pleg_s", "s"),
    ("k8s.api_events", "count"),
    ("k8s.pods_started", "count"),
    ("k8s.pods_failed", "count"),
    ("containers.runtime_s", "s"),
    ("cni.add_s", "s"),
    ("cni.del_s", "s"),
    ("cni.retries", "count"),
    ("cxi.auth_checks", "count"),
    ("cxi.auth_failures", "count"),
    ("cxi.probes_denied_ratio", "ratio"),
    ("scenario.isolation_violations", "count"),
    ("vni_db.txns", "count"),
    ("vni_db.acquires", "count"),
    ("vni_db.releases", "count"),
    ("vni_db.reuse_allocs", "count"),
    ("vni_db.exhaustions", "count"),
    ("vni_db.audit_len", "count"),
    ("vni_db.op_s", "s"),
    ("vnistore.flush_s", "s"),
    ("vnistore.recover_s", "s"),
    ("vnistore.device_bytes", "bytes"),
    ("fabric.messages", "count"),
    ("fabric.hops_per_msg", "hops"),
    ("fabric.reroutes", "count"),
    ("fabric.ecn_marks", "count"),
    ("fabric.congestion_drops", "count"),
    ("fabric.route_drops", "count"),
    ("fabric.ns_per_msg", "ns"),
    ("fabric.msg_latency_mean_us", "us"),
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("des.windows", "count"),
    ("des.events_per_window", "count"),
    ("des.cross_shard_injections", "count"),
    ("des.parallel_speedup", "ratio"),
    ("scenario.rpc_requests", "count"),
    ("scenario.rpc_dropped", "count"),
    ("scenario.skipped_fires", "count"),
    ("scenario.collective_sends", "count"),
    ("sim_admission_p50_s", "s"),
    ("sim_admission_p99_s", "s"),
    ("sim_rpc_p50_us", "us"),
    ("sim_rpc_p99_us", "us"),
    ("ops_failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_ratio", "ratio"),
];

/// Values, reasons and notes for the per-layer metrics of one run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    why_absent: BTreeMap<&'static str, String>,
    notes: BTreeMap<&'static str, String>,
}

fn known(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

impl Layers {
    /// Record a measured value (clears an earlier "unavailable").
    pub fn set(&mut self, name: &str, value: f64) {
        let name = known(name);
        self.why_absent.remove(name);
        self.values.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Mark a metric this workload cannot measure.
    pub fn unavailable(&mut self, name: &str, why: &str) {
        let name = known(name);
        self.values.remove(name);
        self.why_absent.insert(name, why.into());
    }

    /// Qualify how a measured value was obtained.
    pub fn note(&mut self, name: &str, note: &str) {
        self.notes.insert(known(name), note.into());
    }

    /// Print one line per metric and return them all for the result
    /// line.
    pub fn print_and_collect(&self) -> Vec<(String, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                match (self.why_absent.get(name), self.notes.get(name)) {
                    (Some(why), _) => println!("layer {name} unavailable: {why}"),
                    (None, Some(note)) => println!("layer {name} {value} {unit} ({note})"),
                    (None, None) => println!("layer {name} {value} {unit}"),
                }
                (name.to_string(), value, unit)
            })
            .collect()
    }
}
