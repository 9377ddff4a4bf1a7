//! Link state shared by both fabric engines: edge links with scalar
//! busy-until semantics, the [`TrunkTable`] of directed inter-switch
//! links with per-class weighted sharing and finite queues, and the
//! cut-through timing that carries a message from its uplink, across
//! every trunk hop, onto its downlink.
//!
//! The serial [`crate::Fabric`] and the sharded [`crate::shardsim`]
//! engine both call exactly these functions per hop, so their timing
//! cannot drift apart.

use shs_des::{SimDur, SimTime};

use crate::packet::CostModel;
use crate::types::{SwitchId, TrafficClass};

/// One trunk step (propagation plus switch hop latency): the head's
/// advance per hop in both engines, and so the conservative lookahead
/// of the sharded engine — any event an in-flight message triggers in
/// *another* group is at least one boundary-trunk traversal away.
pub fn trunk_lookahead(model: &CostModel) -> SimDur {
    SimDur::from_nanos(model.propagation_ns + model.hop_latency_ns)
}

/// Cut-through progress of one message in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutThrough {
    /// Instant the head reaches the egress side of the current switch.
    pub(crate) head: SimTime,
    /// Last byte's progress through the pipeline: a trunk carrying the
    /// message at a weighted share of the link rate holds the tail
    /// back, so contended classes see their serialization stretch in
    /// the arrival, not only in the trunk's busy horizon.
    pub(crate) tail: SimTime,
}

/// Per-port edge-link occupancy (full duplex: separate up/down
/// directions), with scalar busy-until semantics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkState {
    /// Node→switch direction busy until this instant.
    up_busy: SimTime,
    /// Switch→node direction busy until this instant.
    down_busy: SimTime,
}

impl LinkState {
    /// Reserve the uplink for a message of serialization time `ser`
    /// injected at `now`. The returned head is at the egress side of
    /// the first switch; the tail is the instant the last byte left the
    /// source NIC (the sender's local completion).
    #[inline]
    pub(crate) fn launch(&mut self, now: SimTime, ser: SimDur, model: &CostModel) -> CutThrough {
        let t0 = now.max(self.up_busy);
        self.up_busy = t0 + ser;
        CutThrough { head: t0 + trunk_lookahead(model), tail: t0 + ser }
    }

    /// Reserve the downlink and return the arrival of the last byte at
    /// the destination NIC: after both the downlink's own serialization
    /// and the slowest upstream stage have released it. On a single
    /// switch `t1 + ser` always dominates (`t1 ≥ t0 + prop + hop`), so
    /// the single-switch formula `t1 + ser + prop` holds bit for bit.
    #[inline]
    pub(crate) fn deliver(&mut self, ct: CutThrough, ser: SimDur, model: &CostModel) -> SimTime {
        let prop = SimDur::from_nanos(model.propagation_ns);
        let t1 = ct.head.max(self.down_busy);
        self.down_busy = t1 + ser;
        (t1 + ser).max(ct.tail + prop) + prop
    }
}

/// Per-traffic-class counters of one directed trunk link (or, via
/// [`Fabric::trunk_class_totals`](crate::Fabric::trunk_class_totals),
/// of all of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkClassCounters {
    /// Messages that traversed the link on this class.
    pub messages: u64,
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Messages dropped because the class queue exceeded the cost
    /// model's `trunk_queue_ns` bound.
    pub congestion_drops: u64,
    /// Worst queueing delay a message of this class accepted (ns).
    pub queued_ns_max: u64,
}

/// One directed inter-switch link: per-class busy horizons (the
/// weighted-sharing state) plus per-class counters.
#[derive(Debug, Clone, Default)]
struct TrunkState {
    cls_busy: [SimTime; 4],
    counters: [TrunkClassCounters; 4],
}

/// The directed trunks one engine reserves: their states plus a dense
/// `(from, to) → state` index, so a per-hop lookup is two array
/// indexings. The serial fabric holds every trunk; a shard of the
/// sharded engine holds the trunks sourced in its group.
#[derive(Debug, Clone)]
pub struct TrunkTable {
    /// Switch count: the row stride of `idx`.
    n: usize,
    /// `from * n + to → states`, `u32::MAX` where the table holds no
    /// such trunk.
    idx: Vec<u32>,
    states: Vec<TrunkState>,
}

impl TrunkTable {
    /// An idle table over `links` (directed `(from, to)` pairs) of a
    /// topology with `switch_count` switches.
    pub fn new(switch_count: usize, links: &[(SwitchId, SwitchId)]) -> Self {
        let mut idx = vec![u32::MAX; switch_count * switch_count];
        for (i, &(a, b)) in links.iter().enumerate() {
            idx[a.0 * switch_count + b.0] = i as u32;
        }
        TrunkTable { n: switch_count, idx, states: vec![TrunkState::default(); links.len()] }
    }

    /// State slot of the trunk `from → to`; routes only follow links
    /// the table holds.
    #[inline]
    fn slot(&self, from: SwitchId, to: SwitchId) -> usize {
        let i = self.idx[from.0 * self.n + to.0];
        debug_assert!(i != u32::MAX, "route follows held topology links");
        i as usize
    }

    /// Current queue depth of one class on the trunk `from → to` in ns:
    /// how long a message of this class injected at `now` would wait
    /// before its head enters the link. The live-occupancy signal UGAL
    /// routing decides on.
    pub(crate) fn queue_ns(&self, from: SwitchId, to: SwitchId, tc: TrafficClass, now: SimTime) -> u64 {
        let busy = self.states[self.slot(from, to)].cls_busy[tc.index()];
        if busy > now {
            (busy - now).as_nanos()
        } else {
            0
        }
    }

    /// Per-class counters of the trunk `from → to`, if the table holds it.
    pub(crate) fn counters(&self, from: SwitchId, to: SwitchId) -> Option<&[TrunkClassCounters; 4]> {
        match self.idx.get(from.0 * self.n + to.0) {
            Some(&i) if i != u32::MAX => Some(&self.states[i as usize].counters),
            _ => None,
        }
    }

    /// Per-class counters summed over every trunk of the table, in
    /// [`TrafficClass::index`] order.
    pub(crate) fn class_totals(&self) -> [TrunkClassCounters; 4] {
        let mut out = [TrunkClassCounters::default(); 4];
        for trunk in &self.states {
            for (acc, c) in out.iter_mut().zip(trunk.counters.iter()) {
                acc.messages += c.messages;
                acc.payload_bytes += c.payload_bytes;
                acc.congestion_drops += c.congestion_drops;
                acc.queued_ns_max = acc.queued_ns_max.max(c.queued_ns_max);
            }
        }
        out
    }

    /// One message of `len` payload bytes and serialization `ser_ns`
    /// crossing the trunk `from → to`: the per-class finite-queue check
    /// plus weighted-processor-sharing bookkeeping, then the cut-through
    /// advance of `ct` past the hop. Returns how long the head queued
    /// (ns), or `Err(())` when the class queue exceeds the cost model's
    /// `trunk_queue_ns` bound — the congestion drop is already counted
    /// on this trunk; the caller books its own counters.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn traverse(
        &mut self,
        from: SwitchId,
        to: SwitchId,
        tc: TrafficClass,
        ser_ns: u64,
        len: u64,
        ct: &mut CutThrough,
        model: &CostModel,
    ) -> Result<u64, ()> {
        let slot = self.slot(from, to);
        let trunk = &mut self.states[slot];
        let cls = tc.index();
        let start = ct.head.max(trunk.cls_busy[cls]);
        let queued_ns = (start - ct.head).as_nanos();
        if queued_ns > model.trunk_queue_ns {
            trunk.counters[cls].congestion_drops += 1;
            return Err(());
        }
        // Weighted processor sharing across the classes backlogged at
        // `start`: class `tc` drains at weight(tc)/Σ weights of the
        // link rate, so its serialization stretches by the inverse
        // share (1x when it has the trunk to itself).
        let active: u64 = TrafficClass::ALL
            .iter()
            .filter(|c| c.index() == cls || trunk.cls_busy[c.index()] > start)
            .map(|c| c.weight() as u64)
            .sum();
        let finish = start + SimDur::from_nanos(ser_ns * active / tc.weight() as u64);
        trunk.cls_busy[cls] = finish;
        let c = &mut trunk.counters[cls];
        c.messages += 1;
        c.payload_bytes += len;
        c.queued_ns_max = c.queued_ns_max.max(queued_ns);
        let prop = SimDur::from_nanos(model.propagation_ns);
        ct.head = start + trunk_lookahead(model);
        ct.tail = (ct.tail + prop).max(finish);
        Ok(queued_ns)
    }
}
