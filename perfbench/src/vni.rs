//! Traced run of vni-churn: `run_vni_stress`, step by step, with a
//! span around every `VniStressWorkload::step` (steps that close a WAL
//! group-commit window named apart from plain steps) and around the
//! crash and recovery. It must reproduce the untraced
//! `VniStressReport` exactly.

use shs_des::DetRng;
use slingshot_k8s::{
    ShardedVniDb, VniDbConfig, VniStressReport, VniStressScenario, VniStressWorkload,
};

use crate::trace::Tracer;

/// The report plus what only the stepwise run can see.
pub struct Traced {
    /// Must equal the untraced `run_vni_stress` report.
    pub report: VniStressReport,
    /// Bytes on the crashed store devices, over all shards.
    pub device_bytes: u64,
}

/// Run `sc` as `run_vni_stress` does, recording spans into `tr`.
pub fn run(sc: &VniStressScenario, tr: &mut Tracer) -> Traced {
    tr.enter("vni_db.new", 0);
    let mut w = VniStressWorkload::new(sc.shards, sc.tenants);
    tr.exit();
    for op in 1..=sc.ops {
        let name = if op % VniStressWorkload::FLUSH_EVERY == 0 {
            "vnistore.flush_step"
        } else {
            "vni_db.op"
        };
        tr.enter(name, op);
        w.step();
        tr.exit();
    }
    tr.enter("vnistore.group_end", sc.ops);
    let (mut db, now, ops, _) = w.finish();
    tr.exit();
    tr.enter("vni_db.audit", sc.ops);
    let consistent = db.check_index_consistency().is_ok();
    let stats = db.stats(now);
    let c = db.counters();
    let rows = db.rows();
    let audit_len = db.audit_len() as u64;
    let txns = db.txn_count();
    let config = VniDbConfig {
        range: VniStressWorkload::RANGE,
        quarantine: db.quarantine(),
    };
    tr.exit();
    let mut rng = DetRng::new(sc.seed);
    tr.enter("vnistore.crash", sc.ops);
    let disks = db.crash(&mut rng);
    tr.exit();
    let device_bytes = disks.iter().map(|d| d.len() as u64).sum();
    tr.enter("vnistore.recover", sc.ops);
    let recovered_db = ShardedVniDb::recover(disks, config);
    tr.exit();
    tr.enter("vni_db.audit", sc.ops);
    let recovered = recovered_db.rows() == rows
        && recovered_db.audit_len() as u64 == audit_len
        && recovered_db.check_index_consistency().is_ok();
    tr.exit();
    Traced {
        report: VniStressReport {
            scenario: sc.name.clone(),
            description: sc.description.clone(),
            seed: sc.seed,
            tenants: sc.tenants,
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
        },
        device_bytes,
    }
}
