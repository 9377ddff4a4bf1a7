//! Shard-count invariance of serialized reports: the deliverable the
//! sharded control plane must not break. A scenario (or control-plane
//! stress run) executed at `--shards 1`, `2` and `4` must emit
//! **byte-identical** JSON — the facade's global-minimum allocation and
//! global audit sequencing guarantee it, and these tests pin the
//! contract at the report level, where any divergence would reach users.
//!
//! The committed fixtures under `tests/fixtures/` additionally freeze
//! every library report at seed 42: the twelve job-only reports were
//! generated *before* the serving plane existed, so matching them today
//! proves that merging Services/PLEG changed no byte of any pre-existing
//! report (no new JSON fields, no counter drift). The four parallel
//! fabric sweeps are frozen the same way under `tests/fixtures/sweeps/`,
//! so the sharded engine's routing and per-hop timing are pinned byte
//! for byte, not only by thread-count invariance.

use slingshot_k8s::{
    by_name, library, parallel_library, run_fabric_scenario, run_scenario, run_vni_stress,
    VniStressScenario,
};

/// Full cluster scenarios through the DES engine: only
/// `ClusterConfig::vni_shards` varies.
#[test]
fn scenario_reports_are_byte_identical_across_shard_counts() {
    for name in ["quarantine-pressure", "churn", "autoscale-burst", "rolling-update-allreduce"] {
        let render = |shards: usize| {
            let mut scenario = by_name(name, 42).expect("library scenario");
            scenario.config.vni_shards = shards;
            serde_json::to_string_pretty(&run_scenario(&scenario)).expect("serializes")
        };
        let one = render(1);
        assert_eq!(one, render(2), "{name}: shards=2 diverged from shards=1");
        assert_eq!(one, render(4), "{name}: shards=4 diverged from shards=1");
    }
}

/// Every library report at seed 42 must match its committed fixture
/// byte for byte. The twelve job-only fixtures predate the serving
/// plane, so this is the regression pin that services, the PLEG cache,
/// and the service Metacontroller are invisible to scenarios that don't
/// plan them; the three service fixtures freeze the serving-plane
/// reports themselves.
#[test]
fn library_reports_match_their_committed_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut seen = 0;
    for scenario in library(42) {
        let expected = std::fs::read_to_string(dir.join(format!("{}.json", scenario.name)))
            .unwrap_or_else(|e| panic!("fixture for {}: {e}", scenario.name));
        let got = serde_json::to_string_pretty(&run_scenario(&scenario)).expect("serializes") + "\n";
        assert_eq!(got, expected, "{} diverged from its committed fixture", scenario.name);
        seen += 1;
    }
    assert_eq!(seen, 15, "every library scenario has a fixture");
}

/// Every parallel fabric sweep at seed 42 (run on 2 worker threads)
/// must match its committed fixture byte for byte: route selection,
/// the failure fallback chain and the cut-through timing of the
/// sharded engine all reach these reports.
#[test]
fn sweep_reports_match_their_committed_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweeps");
    let mut seen = 0;
    for sc in parallel_library(42) {
        let expected = std::fs::read_to_string(dir.join(format!("{}.json", sc.name)))
            .unwrap_or_else(|e| panic!("fixture for {}: {e}", sc.name));
        let got = serde_json::to_string_pretty(&run_fabric_scenario(&sc, 2)).expect("serializes")
            + "\n";
        assert_eq!(got, expected, "{} diverged from its committed fixture", sc.name);
        seen += 1;
    }
    assert_eq!(seen, 4, "every parallel sweep has a fixture");
}

/// Job-only scenarios must not grow a `services` key (the serde
/// skip-if-empty contract the fixture pin depends on), and the three
/// serving-plane scenarios must carry one.
#[test]
fn services_section_appears_only_when_planned() {
    for scenario in library(42) {
        let has_services = !scenario.services.is_empty();
        let json = serde_json::to_string(&run_scenario(&scenario)).expect("serializes");
        assert_eq!(
            json.contains("\"services\""),
            has_services,
            "{}: services key presence mismatch",
            scenario.name
        );
    }
}

/// Control-plane stress reports (direct database churn under group
/// commit, ending in a crash-recovery audit).
#[test]
fn stress_reports_are_byte_identical_across_shard_counts() {
    let render = |shards: usize| {
        let scenario = VniStressScenario {
            name: "vni-stress-identity".into(),
            description: "shard-invariance fixture".into(),
            seed: 42,
            tenants: 2_000,
            ops: 6_000,
            shards,
        };
        let report = run_vni_stress(&scenario);
        assert!(report.passed, "stress run failed at shards={shards}");
        serde_json::to_string_pretty(&report).expect("serializes")
    };
    let one = render(1);
    assert_eq!(one, render(2), "shards=2 diverged from shards=1");
    assert_eq!(one, render(4), "shards=4 diverged from shards=1");
}
