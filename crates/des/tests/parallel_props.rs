//! Property oracle for the barrier-window coordinator: arbitrary
//! cascading event workloads over 2–4 shards must apply events in an
//! order bit-identical to the serial [`Sim`].
//!
//! Two properties, because the engines' tie-breaks differ by design:
//!
//! 1. **Serial oracle** (`parallel_matches_serial_sim_on_unique_times`):
//!    when no two events share a timestamp, `(time, seq)` order is just
//!    time order, so the parallel engine's per-shard apply order must
//!    equal the serial `Sim`'s. Uniqueness is *by construction*: every
//!    event gets a structural id (base-8 tree numbering, stable across
//!    both engines) embedded in the low 13 bits of its timestamp.
//! 2. **Tied cascades** (`tied_cascades_run_to_completion`): with ties
//!    allowed, serial-vs-parallel order may legitimately differ (the
//!    serial `Sim` breaks a local-vs-remote tie by global scheduling
//!    order; the parallel engine defers remote injection to the
//!    barrier). What must still hold is conservative safety (no
//!    injection below a destination clock) and that every seed's
//!    cascade executes in full.
//!
//! Cascades are a pure function of the structural id (a splitmix-style
//! hash decides fan-out, destination and delays), so both engines
//! replay the identical workload from the same generated seed events.

use proptest::prelude::*;
use shs_des::{ParallelSim, ShardSim, Sim, SimDur, SimTime};

/// Low-bits width reserved for the structural id ⇒ the uniqueness tag.
const ID_BITS: u32 = 13;
/// Lookahead for the unique-time workload: one id-tag quantum, so a
/// remote bump of 2 quanta always clears it (see `child_time`).
const LOOKAHEAD: u64 = 1 << ID_BITS;
/// Max structural fan-out; ids are base-(FANOUT) tree-numbered.
const FANOUT: u32 = 8;

/// Per-shard apply trace: (time ns, structural id).
type Trace = Vec<(u64, u32)>;

#[derive(Debug, Clone)]
struct Seed {
    shard: usize,
    raw_t: u64,
    fuel: u8,
}

#[derive(Debug, Clone)]
struct Workload {
    nshards: usize,
    seeds: Vec<Seed>,
}

fn workload_strategy(max_fuel: u8) -> impl Strategy<Value = Workload> {
    (2usize..=4)
        .prop_flat_map(move |nshards| {
            let seed = (0..nshards, 0u64..1024, 0..=max_fuel)
                .prop_map(|(shard, raw_t, fuel)| Seed { shard, raw_t, fuel });
            (Just(nshards), prop::collection::vec(seed, 1..24))
        })
        .prop_map(|(nshards, seeds)| Workload { nshards, seeds })
}

/// Deterministic per-id hash driving the cascade shape (splitmix64).
fn h(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A cascade step: what event `id` (holding `fuel`) spawns on `shard`.
/// Pure data, identical for both engines.
struct Child {
    id: u32,
    shard: usize,
    time: u64,
    remote: bool,
    fuel: u8,
}

/// Children of `(id, shard, now, fuel)` in an `nshards`-wide world.
/// `unique_times` selects the id-tagged time construction (collision
/// free) or raw hashed deltas (ties allowed).
fn children(id: u32, shard: usize, now: u64, fuel: u8, nshards: usize, unique_times: bool) -> Vec<Child> {
    if fuel == 0 {
        return Vec::new();
    }
    let n = (h(id as u64) % 3) as u32; // 0..=2 children
    (0..n)
        .map(|k| {
            let cid = id * FANOUT + 64 + k;
            let hk = h((id as u64) << 8 | k as u64);
            let remote = nshards > 1 && hk.is_multiple_of(2);
            let dst = if remote { (shard + 1 + (hk >> 8) as usize % (nshards - 1)) % nshards } else { shard };
            let raw = (hk >> 16) % 512;
            let time = if unique_times {
                // Replace the low id-tag bits and bump the high part by
                // 1 (local) or 2 (remote) quanta + raw: times stay
                // strictly increasing down the tree, all ids < 2^13 are
                // unique, and a remote delta is ≥ LOOKAHEAD + 1.
                let bump = if remote { 2 } else { 1 };
                ((now >> ID_BITS) + bump + raw) << ID_BITS | cid as u64
            } else {
                // Ties allowed: pure hashed delta, remote clamped to
                // the lookahead by construction.
                now + if remote { LOOKAHEAD + raw } else { raw }
            };
            Child { id: cid, shard: dst, time, remote, fuel: fuel - 1 }
        })
        .collect()
}

/// Serial oracle: one `Sim` whose world is every shard's trace; remote
/// sends become plain `at` calls on the global queue.
fn run_serial(w: &Workload, unique_times: bool) -> Vec<Trace> {
    fn exec(sim: &mut Sim<Vec<Trace>>, id: u32, shard: usize, fuel: u8, nshards: usize, uniq: bool) {
        let now = sim.now().as_nanos();
        sim.world[shard].push((now, id));
        for c in children(id, shard, now, fuel, nshards, uniq) {
            sim.at(SimTime::from_nanos(c.time), move |s| {
                exec(s, c.id, c.shard, c.fuel, nshards, uniq);
            });
        }
    }
    let mut sim: Sim<Vec<Trace>> = Sim::new(vec![Vec::new(); w.nshards]);
    let nshards = w.nshards;
    for (i, s) in w.seeds.iter().enumerate() {
        let t = if unique_times { s.raw_t << ID_BITS | i as u64 } else { s.raw_t };
        let (id, shard, fuel) = (i as u32, s.shard, s.fuel);
        sim.at(SimTime::from_nanos(t), move |sm| exec(sm, id, shard, fuel, nshards, unique_times));
    }
    sim.run();
    sim.world
}

/// The system under test: one shard per group, cascades routed through
/// `send_to` whenever they cross shards.
fn run_parallel(w: &Workload, unique_times: bool) -> (Vec<Trace>, ParallelSim<Trace>) {
    fn exec(s: &mut ShardSim<Trace>, id: u32, fuel: u8, nshards: usize, uniq: bool) {
        let now = s.now().as_nanos();
        s.world.push((now, id));
        let here = s.id();
        for c in children(id, here, now, fuel, nshards, uniq) {
            if c.remote {
                let delay = SimDur::from_nanos(c.time - now);
                s.send_to(c.shard, delay, move |d| exec(d, c.id, c.fuel, nshards, uniq));
            } else {
                s.at(SimTime::from_nanos(c.time), move |d| exec(d, c.id, c.fuel, nshards, uniq));
            }
        }
    }
    let mut psim = ParallelSim::new(vec![Trace::new(); w.nshards], SimDur::from_nanos(LOOKAHEAD));
    let nshards = w.nshards;
    for (i, s) in w.seeds.iter().enumerate() {
        let t = if unique_times { s.raw_t << ID_BITS | i as u64 } else { s.raw_t };
        let (id, fuel) = (i as u32, s.fuel);
        psim.shard_mut(s.shard)
            .at(SimTime::from_nanos(t), move |sh| exec(sh, id, fuel, nshards, unique_times));
    }
    psim.run();
    let traces = psim.shards().map(|s| s.world.clone()).collect();
    (traces, psim)
}

proptest! {
    /// With globally unique timestamps the parallel apply order must be
    /// bit-identical to the serial `Sim`'s, shard by shard.
    #[test]
    fn parallel_matches_serial_sim_on_unique_times(w in workload_strategy(2)) {
        let serial = run_serial(&w, true);
        let (traces, psim) = run_parallel(&w, true);
        prop_assert_eq!(&traces, &serial);
        if let Some(slack) = psim.min_inject_slack() {
            prop_assert!(slack >= 0, "conservative violation: slack {}", slack);
        }
        // Sanity: the oracle actually executed every seed's cascade.
        let total: usize = serial.iter().map(|t| t.len()).sum();
        prop_assert!(total >= w.seeds.len());
    }

    /// With ties allowed, no shard receives an event below its clock and
    /// every seed's cascade executes in full: each shard applies the
    /// same `(time, id)` events as the serial `Sim`, in possibly
    /// different order among equal times.
    #[test]
    fn tied_cascades_run_to_completion(w in workload_strategy(2)) {
        let (mut traces, psim) = run_parallel(&w, false);
        if let Some(slack) = psim.min_inject_slack() {
            prop_assert!(slack >= 0, "conservative violation: slack {}", slack);
        }
        let executed: usize = traces.iter().map(|t| t.len()).sum();
        prop_assert_eq!(psim.events_executed(), executed as u64);
        prop_assert!(executed >= w.seeds.len());
        let mut serial = run_serial(&w, false);
        for t in traces.iter_mut().chain(serial.iter_mut()) {
            t.sort_unstable();
        }
        prop_assert_eq!(&traces, &serial);
    }
}
