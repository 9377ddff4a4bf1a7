//! Route selection, shared by both fabric engines: the routing policy's
//! primary route (UGAL-L for [`RoutingPolicy::Adaptive`]) and, when a
//! fault killed it, the deterministic failure fallback — minimal, then
//! every Valiant salt class, then a cached BFS repair over the live
//! graph. This is the only implementation of that chain: the serial
//! [`crate::Fabric`] and every shard of [`crate::shardsim`] own a
//! [`Router`] and call [`Router::select`] at injection.

use std::collections::BTreeMap;

use shs_des::SimTime;

use crate::faults::{repair_route, FaultKind, LivenessMask};
use crate::link::TrunkTable;
use crate::topology::{RoutingPolicy, Topology};
use crate::types::{SwitchId, TrafficClass};

/// One engine's routing state: its view of fabric liveness and the BFS
/// repair routes computed since the last fault event.
#[derive(Debug, Clone, Default)]
pub struct Router {
    /// Runtime fault state. Empty on a healthy fabric, where every
    /// primary route is live and no fallback runs.
    mask: LivenessMask,
    /// Repair routes keyed by `(src switch, dst switch)`; `None` caches
    /// "partitioned". A pure function of topology and mask, so cleared
    /// by [`Router::apply_fault`] and otherwise never stale.
    repair_cache: BTreeMap<(u32, u32), Option<Vec<SwitchId>>>,
}

impl Router {
    /// Apply a runtime fault event: the liveness mask flips and every
    /// cached repair route is dropped. Interned route arenas are never
    /// rebuilt — dead candidates are filtered per selection.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        self.mask.apply(kind);
        self.repair_cache.clear();
    }

    /// The current liveness mask (empty on a healthy fabric).
    pub fn liveness(&self) -> &LivenessMask {
        &self.mask
    }

    /// The route for one message from switch `from` to switch `to`,
    /// endpoints included, plus whether it is a failure reroute.
    ///
    /// The policy's primary route is taken when fully live: minimal,
    /// the `salt`-chosen Valiant detour, or for
    /// [`RoutingPolicy::Adaptive`] the UGAL-L choice between the two —
    /// detour only when the minimal path's cost (first-trunk queue depth
    /// of class `tc` at `now` in `trunks`, times path switch count)
    /// exceeds the detour's by more than `adaptive_bias_ns`. Only the
    /// candidates' first hops, sourced at `from`, are consulted: what a
    /// Rosetta ingress port can see at injection time.
    ///
    /// Otherwise the fallback order is fixed and independent of queue
    /// state, so serial and sharded runs agree: the minimal route, then
    /// every Valiant salt class starting from the message's own and
    /// wrapping, then a BFS repair, cached per pair until the next
    /// fault. `None` means the pair is partitioned.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn select<'a>(
        &'a mut self,
        topo: &'a Topology,
        trunks: &TrunkTable,
        from: SwitchId,
        to: SwitchId,
        tc: TrafficClass,
        salt: u64,
        now: SimTime,
        adaptive_bias_ns: u64,
    ) -> Option<(&'a [SwitchId], bool)> {
        let primary = match topo.policy() {
            RoutingPolicy::Minimal => topo.route_minimal(from, to),
            RoutingPolicy::Valiant => topo.route_valiant(from, to, salt),
            RoutingPolicy::Adaptive => {
                let min = topo.route_minimal(from, to);
                let val = topo.route_valiant(from, to, salt);
                // A detour no longer than the minimal route is the
                // degenerate one (< 3 groups, or a same-switch pair):
                // the Valiant arena fell back to the minimal route.
                let prefer_val = val.len() > min.len()
                    && trunks.queue_ns(min[0], min[1], tc, now) * min.len() as u64
                        > trunks.queue_ns(val[0], val[1], tc, now) * val.len() as u64
                            + adaptive_bias_ns;
                if prefer_val {
                    val
                } else {
                    min
                }
            }
        };
        if self.mask.route_live(primary) {
            return Some((primary, false));
        }
        self.fallback(topo, from, to, salt).map(|path| (path, true))
    }

    /// The failure fallback of [`Router::select`]: it runs only on a
    /// degraded fabric, so it stays out of line and the primary-route
    /// path stays small enough to inline into the engines' hot loops.
    fn fallback<'a>(
        &'a mut self,
        topo: &'a Topology,
        from: SwitchId,
        to: SwitchId,
        salt: u64,
    ) -> Option<&'a [SwitchId]> {
        let min = topo.route_minimal(from, to);
        if self.mask.route_live(min) {
            return Some(min);
        }
        // Below 3 groups every salt class degrades to the minimal route
        // just rejected.
        if topo.groups() >= 3 {
            let classes = topo.salt_classes() as u64;
            for k in 0..classes {
                let val = topo.route_valiant(from, to, (salt + k) % classes);
                if self.mask.route_live(val) {
                    return Some(val);
                }
            }
        }
        let mask = &self.mask;
        let repaired: &'a Option<Vec<SwitchId>> = self
            .repair_cache
            .entry((from.0 as u32, to.0 as u32))
            .or_insert_with(|| repair_route(topo, mask, from, to));
        repaired.as_deref()
    }
}
