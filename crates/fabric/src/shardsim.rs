//! Sharded fabric engine: one [`ShardSim`] per dragonfly group under
//! the conservative [`ParallelSim`] coordinator, for cluster-scale
//! sweeps (1000+ nodes) the serial engine cannot reach. The
//! coordinator runs every barrier window inline on the calling thread.
//!
//! # Shard ownership
//!
//! The partition follows [`Topology::group_view`]: a shard owns its
//! group's switches, the edge links of the nodes attached there, and
//! every directed trunk *sourced* in the group. A message's walk only
//! ever reserves state the executing shard owns; when the route crosses
//! a group boundary the message has, by then, cleared the boundary
//! trunk (owned by the sending shard), and the continuation is handed
//! to the destination group via [`ShardSim::send_to`], due at the
//! head's arrival instant on the far side.
//!
//! # The lookahead rule
//!
//! Every cross-group handoff is due at least one trunk step —
//! propagation + hop latency, [`trunk_lookahead`] — after the emitting
//! event's time: a launch event hands off no earlier than uplink + the
//! boundary trunk step (2 steps), and a continuation entering group
//! *g* hands off to a third group no earlier than one further trunk
//! step. That bound is the coordinator's conservative lookahead, so no
//! shard ever receives an event below its local clock (asserted by
//! `tests/shardsim_props.rs` over arbitrary topologies).
//!
//! # Per-hop timing
//!
//! Identical code to the serial [`Fabric`](crate::Fabric): route
//! selection is a per-shard [`Router`], trunks are a [`TrunkTable`]
//! (weighted processor sharing + finite queue) and the cut-through
//! launch, hop and delivery instants come from [`crate::link`]. This
//! engine measures routing, queueing and QoS at scale; VNI enforcement
//! stays with the serial k8s engine, which exercises it end to end per
//! message.

use std::sync::Arc;

use shs_des::{ParallelSim, ShardSim, SimDur, SimTime};

use crate::faults::{FaultKind, MAX_REPAIR_PATH};
use crate::link::{trunk_lookahead, CutThrough, LinkState, TrunkTable};
use crate::packet::CostModel;
use crate::router::Router;
use crate::topology::{RoutingPolicy, Topology, TopologySpec};
use crate::types::{SwitchId, TrafficClass};

/// One message in flight (small and `Copy`: continuations carry it
/// across shard boundaries by value). The route is chosen once at
/// injection — where adaptive/fault-fallback selection runs against the
/// source shard's live state — and travels with the message, so a
/// boundary handoff never re-derives it (the destination shard would
/// not know which candidate the source picked).
#[derive(Debug, Clone, Copy)]
struct Msg {
    src: u32,
    dst: u32,
    t0: SimTime,
    len: u64,
    tc: TrafficClass,
    id: u64,
    /// Switch ids of the chosen route, endpoints included.
    path: [u16; MAX_REPAIR_PATH],
    /// Number of valid entries in `path`.
    path_len: u8,
}

/// Counters one shard owns outright (its group's slice of the sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCounters {
    /// Messages launched by nodes of this group.
    pub sent: u64,
    /// Messages delivered to nodes of this group.
    pub delivered: u64,
    /// Messages congestion-dropped on trunks this group owns.
    pub congestion_drops: u64,
    /// Payload bytes of delivered messages.
    pub payload_bytes: u64,
    /// Sum of end-to-end latencies of delivered messages (ns).
    pub latency_sum_ns: u64,
    /// Worst end-to-end latency of a delivered message (ns).
    pub latency_max_ns: u64,
    /// Switch hops of delivered messages.
    pub switch_hops: u64,
    /// Delivered messages per class, [`TrafficClass::index`] order.
    pub class_delivered: [u64; 4],
    /// Congestion drops per class, [`TrafficClass::index`] order.
    pub class_drops: [u64; 4],
    /// Messages dropped `NoRoute`: no live route existed at injection,
    /// or a trunk on the chosen route died while the message was in
    /// flight. Zero on a healthy fabric.
    pub route_drops: u64,
}

/// The per-shard world: one group's slice of the fabric.
pub struct GroupNet {
    topo: Arc<Topology>,
    model: CostModel,
    group: usize,
    nodes_per_switch: usize,
    /// First global node id of this group.
    node_base: u32,
    /// Edge-link occupancy per local node.
    edge: Vec<LinkState>,
    /// The directed trunks this group owns.
    trunks: TrunkTable,
    /// This shard's route selection and view of fabric liveness. Every
    /// shard schedules the same globally-known fault schedule locally,
    /// so the views never diverge and no cross-shard fault notification
    /// (which would break the lookahead) is needed.
    router: Router,
    /// The group's counters.
    pub counters: GroupCounters,
}

impl GroupNet {
    fn new(topo: Arc<Topology>, model: CostModel, group: usize, nodes_per_switch: usize) -> Self {
        let view = topo.group_view(group);
        let node_base = (view.switches[0].0 * nodes_per_switch) as u32;
        GroupNet {
            model,
            group,
            nodes_per_switch,
            node_base,
            edge: vec![LinkState::default(); view.switches.len() * nodes_per_switch],
            trunks: TrunkTable::new(topo.switch_count(), &view.trunks_out),
            router: Router::default(),
            topo,
            counters: GroupCounters::default(),
        }
    }

    #[inline]
    fn switch_of(&self, node: u32) -> SwitchId {
        SwitchId(node as usize / self.nodes_per_switch)
    }

    #[inline]
    fn edge_mut(&mut self, node: u32) -> &mut LinkState {
        &mut self.edge[(node - self.node_base) as usize]
    }

    /// Apply one fault event to this shard's liveness view.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) {
        self.router.apply_fault(kind);
    }
}

/// The launch event: route selection against the shard's live state
/// (both UGAL candidates' first hops are sourced at the local switch,
/// so the signal is shard-local), uplink reservation in the source
/// group, then the route walk (which may hand off at a group boundary).
fn launch(s: &mut ShardSim<GroupNet>, mut m: Msg) {
    let now = s.now();
    let w = &mut s.world;
    w.counters.sent += 1;
    let (src_sw, dst_sw) = (w.switch_of(m.src), w.switch_of(m.dst));
    let model = w.model;
    let Some((path, _)) = w.router.select(
        &w.topo,
        &w.trunks,
        src_sw,
        dst_sw,
        m.tc,
        m.id,
        now,
        model.adaptive_bias_ns,
    ) else {
        w.counters.route_drops += 1;
        return;
    };
    for (slot, sw) in m.path.iter_mut().zip(path) {
        *slot = sw.0 as u16;
    }
    m.path_len = path.len() as u8;
    let ser = SimDur::from_nanos(model.serialize_ns(model.wire_bytes(m.len)));
    let ct = w.edge_mut(m.src).launch(now, ser, &model);
    walk_from(s, m, 0, ct);
}

/// Walk the message's carried route from hop index `pos` (an owned
/// switch), reserving owned trunks; hand off to the next group's shard
/// at a boundary, or deliver onto the destination downlink. A trunk
/// that died after injection (the liveness check below) drops the
/// message `NoRoute` at the hop that would have crossed it.
fn walk_from(s: &mut ShardSim<GroupNet>, m: Msg, pos: usize, mut ct: CutThrough) {
    let model = s.world.model;
    let ser_ns = model.serialize_ns(model.wire_bytes(m.len));
    for i in pos..m.path_len as usize - 1 {
        let (a, b) = (SwitchId(m.path[i] as usize), SwitchId(m.path[i + 1] as usize));
        let w = &mut s.world;
        if !w.router.liveness().link_live(a, b) {
            // The trunk died while the message was in flight.
            w.counters.route_drops += 1;
            return;
        }
        debug_assert_eq!(w.topo.group_of(a), w.group, "shard reserves only owned trunks");
        if w.trunks.traverse(a, b, m.tc, ser_ns, m.len, &mut ct, &model).is_err() {
            w.counters.congestion_drops += 1;
            w.counters.class_drops[m.tc.index()] += 1;
            return;
        }
        let gb = w.topo.group_of(b);
        if gb != w.group {
            // The message cleared the boundary trunk this shard owns;
            // its head arrives at switch `b` (owned by group `gb`) at
            // `ct.head`, at least one trunk step in the future — the
            // conservative lookahead. The continuation resumes at hop
            // index `i + 1` of the carried route.
            let delay = ct.head - s.now();
            s.send_to(gb, delay, move |d| walk_from(d, m, i + 1, ct));
            return;
        }
    }

    // Destination switch reached (it is ours): downlink + delivery.
    debug_assert_eq!(s.world.switch_of(m.dst).0, m.path[m.path_len as usize - 1] as usize);
    let arrival = s.world.edge_mut(m.dst).deliver(ct, SimDur::from_nanos(ser_ns), &model);
    let c = &mut s.world.counters;
    c.delivered += 1;
    c.payload_bytes += m.len;
    c.switch_hops += m.path_len as u64;
    c.class_delivered[m.tc.index()] += 1;
    let lat = (arrival - m.t0).as_nanos();
    c.latency_sum_ns += lat;
    c.latency_max_ns = c.latency_max_ns.max(lat);
}

/// One scheduled fault in a sweep's globally-known fault schedule.
/// `run_sweep` schedules it into **every** shard's local event queue
/// (before any message of the same instant), so all liveness views
/// flip identically and the conservative lookahead is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepFault {
    /// Instant the fault takes effect (ns).
    pub at_ns: u64,
    /// What fails (or recovers).
    pub kind: FaultKind,
}

/// A synthetic all-groups traffic sweep over a dragonfly topology —
/// the workload the scenario library and bench harness size up to
/// 1000+ nodes.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fabric shape.
    pub spec: TopologySpec,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Nodes attached per switch (≤ `spec.edge_ports`).
    pub nodes_per_switch: usize,
    /// Messages each node sends.
    pub messages_per_node: u32,
    /// Payload per message (bytes).
    pub payload_bytes: u64,
    /// Nominal gap between a node's consecutive sends (ns); per-message
    /// jitter spreads nodes inside the gap.
    pub interval_ns: u64,
    /// Every `k`-th message of a node goes cross-group (1 = all of
    /// them; 0 = none).
    pub cross_group_every: u32,
    /// Seed folded into every per-message hash.
    pub seed: u64,
    /// Timing model.
    pub model: CostModel,
    /// Fault schedule, applied identically in every shard.
    pub faults: Vec<SweepFault>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 2, edge_ports: 8 },
            policy: RoutingPolicy::Minimal,
            nodes_per_switch: 4,
            messages_per_node: 8,
            payload_bytes: 4096,
            interval_ns: 2_000,
            cross_group_every: 2,
            seed: 1,
            model: CostModel::default(),
            faults: Vec::new(),
        }
    }
}

/// Deterministic per-message hash (splitmix64 over seed ⊕ node ⊕ k).
fn mix(seed: u64, node: u32, k: u32, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add((node as u64) << 32)
        .wrapping_add(k as u64)
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Aggregated outcome of [`run_sweep`]: the sum of every group's
/// counters plus the coordinator's accounting — the scenario layer
/// serialises this into reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Total nodes in the topology.
    pub nodes: u64,
    /// Shards (= dragonfly groups).
    pub shards: usize,
    /// The conservative lookahead used (ns).
    pub lookahead_ns: u64,
    /// Whole-sweep totals.
    pub totals: GroupCounters,
    /// Per-group counters, group order.
    pub per_group: Vec<GroupCounters>,
    /// Events executed across all shards.
    pub events_executed: u64,
    /// Barrier windows the coordinator ran.
    pub windows: u64,
    /// Cross-group events injected.
    pub injected: u64,
    /// Minimum observed injection slack (ns): `event time − destination
    /// clock`, `None` when no cross-group event was exchanged. The
    /// conservative-sync invariant is `≥ 0`.
    pub min_inject_slack: Option<i128>,
}

impl SweepStats {
    /// Message conservation: every launched message was delivered,
    /// congestion-dropped, or route-dropped by a failure.
    pub fn conserved(&self) -> bool {
        self.totals.sent
            == self.totals.delivered + self.totals.congestion_drops + self.totals.route_drops
    }

    /// Mean delivered latency in ns (0 when nothing was delivered).
    pub fn mean_latency_ns(&self) -> u64 {
        self.totals.latency_sum_ns.checked_div(self.totals.delivered).unwrap_or(0)
    }
}

/// Run a sweep to completion on the calling thread.
pub fn run_sweep(cfg: &SweepConfig) -> SweepStats {
    assert!(cfg.nodes_per_switch >= 1 && cfg.nodes_per_switch <= cfg.spec.edge_ports);
    let topo = Arc::new(Topology::new(cfg.spec, cfg.policy));
    let lookahead = trunk_lookahead(&cfg.model);
    let worlds: Vec<GroupNet> = (0..topo.groups())
        .map(|g| GroupNet::new(Arc::clone(&topo), cfg.model, g, cfg.nodes_per_switch))
        .collect();
    let mut psim = ParallelSim::new(worlds, lookahead);

    // The fault schedule is globally known at setup: schedule it into
    // every shard before any message, so at equal instants the fault
    // event (lower sequence number) applies first and all shards'
    // liveness views flip identically — no cross-shard notification,
    // no lookahead impact.
    for g in 0..topo.groups() {
        for f in &cfg.faults {
            let kind = f.kind;
            psim.shard_mut(g)
                .at(SimTime::from_nanos(f.at_ns), move |s| s.world.apply_fault(kind));
        }
    }

    let nodes_per_group = (cfg.spec.switches_per_group * cfg.nodes_per_switch) as u32;
    let total_nodes = nodes_per_group * cfg.spec.groups as u32;
    let interval = cfg.interval_ns.max(1);
    for node in 0..total_nodes {
        let g = (node / nodes_per_group) as usize;
        for k in 0..cfg.messages_per_node {
            let cross = cfg.spec.groups > 1
                && cfg.cross_group_every > 0
                && k % cfg.cross_group_every == 0;
            let dst = if cross {
                let dg = (g + 1 + (mix(cfg.seed, node, k, 1) as usize % (cfg.spec.groups - 1)))
                    % cfg.spec.groups;
                dg as u32 * nodes_per_group + mix(cfg.seed, node, k, 2) as u32 % nodes_per_group
            } else {
                if nodes_per_group < 2 {
                    continue; // no distinct local peer exists
                }
                let base = g as u32 * nodes_per_group;
                let peer = base + mix(cfg.seed, node, k, 2) as u32 % nodes_per_group;
                if peer == node {
                    base + (peer - base + 1) % nodes_per_group
                } else {
                    peer
                }
            };
            let t0 = SimTime::from_nanos(
                k as u64 * interval + mix(cfg.seed, node, k, 3) % interval,
            );
            let tc = TrafficClass::ALL[(mix(cfg.seed, node, k, 4) % 4) as usize];
            let m = Msg {
                src: node,
                dst,
                t0,
                len: cfg.payload_bytes,
                tc,
                id: (node as u64) << 32 | k as u64,
                // Filled in by `launch` against the shard's live state.
                path: [0; MAX_REPAIR_PATH],
                path_len: 0,
            };
            psim.shard_mut(g).at(t0, move |s| launch(s, m));
        }
    }

    psim.run();

    let per_group: Vec<GroupCounters> = psim.shards().map(|s| s.world.counters).collect();
    let mut totals = GroupCounters::default();
    for c in &per_group {
        totals.sent += c.sent;
        totals.delivered += c.delivered;
        totals.congestion_drops += c.congestion_drops;
        totals.payload_bytes += c.payload_bytes;
        totals.latency_sum_ns += c.latency_sum_ns;
        totals.latency_max_ns = totals.latency_max_ns.max(c.latency_max_ns);
        totals.switch_hops += c.switch_hops;
        totals.route_drops += c.route_drops;
        for i in 0..4 {
            totals.class_delivered[i] += c.class_delivered[i];
            totals.class_drops[i] += c.class_drops[i];
        }
    }
    SweepStats {
        nodes: total_nodes as u64,
        shards: psim.shard_count(),
        lookahead_ns: lookahead.as_nanos(),
        totals,
        per_group,
        events_executed: psim.events_executed(),
        windows: psim.windows(),
        injected: psim.injected(),
        min_inject_slack: psim.min_inject_slack(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_conserved_and_thread_invariant() {
        let cfg = SweepConfig::default();
        let base = run_sweep(&cfg);
        assert!(base.totals.sent > 0);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0);
        assert!(base.min_inject_slack.unwrap() >= 0);
    }

    #[test]
    fn single_group_sweep_runs_serially_correct() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 1, switches_per_group: 2, edge_ports: 4 },
            cross_group_every: 0,
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved());
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.injected, 0);
        assert!(stats.totals.delivered > 0);
    }

    #[test]
    fn valiant_sweep_crosses_intermediate_groups() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            policy: RoutingPolicy::Valiant,
            cross_group_every: 1,
            ..SweepConfig::default()
        };
        let base = run_sweep(&cfg);
        assert!(base.conserved());
        assert!(base.totals.delivered > 0);
        assert!(base.min_inject_slack.unwrap() >= 0);
        // Valiant detours mean more hops per delivered message than the
        // minimal 4-switch bound would allow on average workloads.
        assert!(base.totals.switch_hops >= base.totals.delivered * 2);
    }

    #[test]
    fn adaptive_sweep_is_conserved_and_thread_invariant() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 4, switches_per_group: 2, edge_ports: 4 },
            policy: RoutingPolicy::Adaptive,
            cross_group_every: 1,
            interval_ns: 200,
            ..SweepConfig::default()
        };
        let base = run_sweep(&cfg);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0);
        assert!(base.min_inject_slack.unwrap() >= 0);
    }

    #[test]
    fn trunk_cut_mid_sweep_conserves_and_stays_thread_invariant() {
        // 3 groups × 1 switch: cut trunk (0, 1) mid-sweep. Adaptive
        // fallback detours via group 2; messages already in flight on
        // the dead trunk's route are route-dropped.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 3, switches_per_group: 1, edge_ports: 8 },
            policy: RoutingPolicy::Adaptive,
            cross_group_every: 1,
            messages_per_node: 16,
            ..SweepConfig::default()
        };
        let half = 8 * cfg.interval_ns;
        let cut = SweepFault {
            at_ns: half,
            kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)),
        };
        let cfg = SweepConfig { faults: vec![cut], ..cfg };
        let base = run_sweep(&cfg);
        assert!(base.conserved(), "{:?}", base.totals);
        assert!(base.totals.delivered > 0, "detours keep traffic flowing");
        assert!(base.min_inject_slack.unwrap() >= 0);
    }

    #[test]
    fn permanent_partition_route_drops_all_cross_traffic() {
        // 2 groups × 1 switch, only trunk dead from t = 0: every
        // cross-group message is a route drop, local ones deliver.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 },
            nodes_per_switch: 4,
            faults: vec![SweepFault {
                at_ns: 0,
                kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)),
            }],
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved(), "{:?}", stats.totals);
        assert!(stats.totals.route_drops > 0);
        assert_eq!(stats.totals.congestion_drops, 0);
        // cross_group_every = 2: half of each node's messages detour
        // nowhere — exactly they are dropped.
        assert_eq!(
            stats.totals.route_drops,
            stats.totals.sent - stats.totals.delivered,
        );
    }

    #[test]
    fn link_up_restores_service_mid_sweep() {
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 8 },
            messages_per_node: 16,
            faults: vec![
                SweepFault { at_ns: 0, kind: FaultKind::LinkDown(SwitchId(0), SwitchId(1)) },
                SweepFault {
                    at_ns: 8 * 2_000,
                    kind: FaultKind::LinkUp(SwitchId(0), SwitchId(1)),
                },
            ],
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert!(stats.conserved());
        assert!(stats.totals.route_drops > 0, "early cross traffic died");
        // Cross-group deliveries resume after the LinkUp: some message
        // must have crossed (2 hops) post-recovery.
        assert!(stats.totals.switch_hops > stats.totals.delivered);
    }

    #[test]
    fn unloaded_cross_group_latency_matches_serial_fabric_formula() {
        // One message, idle fabric: the sharded walk must reproduce the
        // serial engine's unloaded arrival formula exactly.
        let cfg = SweepConfig {
            spec: TopologySpec { groups: 2, switches_per_group: 1, edge_ports: 4 },
            nodes_per_switch: 1,
            messages_per_node: 1,
            cross_group_every: 1,
            interval_ns: 1,
            ..SweepConfig::default()
        };
        let stats = run_sweep(&cfg);
        assert_eq!(stats.totals.sent, 2);
        assert_eq!(stats.totals.delivered, 2);
        let m = cfg.model;
        let ser = m.serialize_ns(m.wire_bytes(cfg.payload_bytes));
        // 2 switch hops: ser + 2*hop + 3*prop (the serial fabric's
        // unloaded_route_ns for a 2-switch route).
        let unloaded = ser + 2 * m.hop_latency_ns + 3 * m.propagation_ns;
        assert_eq!(stats.totals.latency_max_ns, unloaded);
    }
}
