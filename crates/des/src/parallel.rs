//! Conservative barrier-window coordinator over [`ShardSim`] shards.
//!
//! [`ParallelSim`] runs N shards — each a serial simulator with its own
//! calendar queue and world — under classic conservative (null-message
//! free) barrier synchronisation, every window inline on the calling
//! thread:
//!
//! 1. **Peek.** Take `T = min` over every shard's
//!    [`peek_min_time`](ShardSim::peek_min_time) (non-mutating, so no
//!    ring window slides before injections land).
//! 2. **Window.** Open the half-open window `[T, T + L)` where `L` is
//!    the lookahead — the minimum cross-shard latency every
//!    [`send_to`](ShardSim::send_to) is clamped to.
//! 3. **Run.** Every shard executes all of its local events due inside
//!    the window, in `(time, seq)` order, shards in id order. No shard
//!    touches another shard's state; cross-shard events accumulate in
//!    per-shard outboxes.
//! 4. **Exchange.** After the barrier, the coordinator drains outboxes
//!    in shard-id order and injects each remote event into its
//!    destination queue. Conservative safety: an event executing at
//!    `t < T + L` emits remote work due at `t + delay ≥ t + L ≥ T + L`
//!    — never inside the window just executed, and never below any
//!    destination clock (clocks are `< T + L` too).
//!
//! # Why the windows run inline
//!
//! Every source of order is a pure function of the shards: each shard's
//! in-window execution order is its own `(time, seq)` order; outboxes
//! are filled in execution order and drained in shard-id order;
//! injection assigns destination `seq` numbers between windows. Worker
//! threads could run the windows without changing a result, but they do
//! not pay: on the sharded dragonfly sweep a window carries ~14 events
//! (~30 µs of work), about what two barrier rendezvous cost, and two
//! threads on a 2-core host ran the sweep in 2.6 s against 1.3 s
//! inline. The window algorithm stays because it defines the sweep's
//! event order and its reported window and injection counts;
//! `tests/parallel_props.rs` checks it against the serial [`Sim`].
//!
//! [`Sim`]: crate::Sim
//!
//! # Example
//!
//! Two shards ping-ponging across the boundary:
//!
//! ```
//! use shs_des::{ParallelSim, SimDur, SimTime};
//!
//! let mut psim = ParallelSim::new(vec![0u64, 0u64], SimDur::from_nanos(100));
//! psim.shard_mut(0).at(SimTime::ZERO, |s| {
//!     s.world += 1;
//!     s.send_to(1, SimDur::from_nanos(100), |peer| peer.world += 10);
//! });
//! psim.run();
//! assert_eq!(psim.shard(0).world, 1);
//! assert_eq!(psim.shard(1).world, 10);
//! assert!(psim.windows() >= 2);
//! ```

use crate::shard::{Remote, ShardSim};
use crate::time::{SimDur, SimTime};

/// The coordinator: owns the shards and drives barrier windows. See the
/// module docs for the algorithm and the determinism argument.
pub struct ParallelSim<W> {
    shards: Vec<ShardSim<W>>,
    lookahead: SimDur,
    windows: u64,
    injected: u64,
    /// Minimum, over all injections so far, of `event time − destination
    /// clock` in ns. Conservative sync guarantees this never goes
    /// negative; the lookahead-safety proptest asserts it.
    min_inject_slack: Option<i128>,
}

impl<W> ParallelSim<W> {
    /// Build one shard per world, ids `0..worlds.len()`, all sharing the
    /// same positive `lookahead`.
    pub fn new(worlds: Vec<W>, lookahead: SimDur) -> Self {
        assert!(lookahead > SimDur::ZERO, "conservative sync needs a positive lookahead");
        let shards = worlds
            .into_iter()
            .enumerate()
            .map(|(id, w)| ShardSim::new(id, w, lookahead))
            .collect();
        ParallelSim { shards, lookahead, windows: 0, injected: 0, min_inject_slack: None }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `i` (seed events with [`ShardSim::at`], read worlds).
    #[inline]
    pub fn shard(&self, i: usize) -> &ShardSim<W> {
        &self.shards[i]
    }

    /// Mutably borrow shard `i`.
    #[inline]
    pub fn shard_mut(&mut self, i: usize) -> &mut ShardSim<W> {
        &mut self.shards[i]
    }

    /// Iterate the shards in id order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardSim<W>> {
        self.shards.iter()
    }

    /// The configured lookahead.
    #[inline]
    pub fn lookahead(&self) -> SimDur {
        self.lookahead
    }

    /// Barrier windows executed so far.
    #[inline]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-shard events injected so far.
    #[inline]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed()).sum()
    }

    /// Minimum observed `event time − destination clock` over every
    /// cross-shard injection, in ns (`None` before any injection). The
    /// conservative-sync invariant is `≥ 0`: no shard ever receives an
    /// event below its local clock.
    #[inline]
    pub fn min_inject_slack(&self) -> Option<i128> {
        self.min_inject_slack
    }

    /// Run until every queue and outbox drains.
    pub fn run(&mut self) {
        while let Some(end) = self.next_window_end() {
            for s in &mut self.shards {
                s.run_window(end);
            }
            self.windows += 1;
            self.exchange();
        }
    }

    /// End of the next window `[T, T + L)`, or `None` once every queue
    /// is empty.
    fn next_window_end(&self) -> Option<SimTime> {
        let t = self.shards.iter().filter_map(|s| s.peek_min_time()).min()?;
        Some(t + self.lookahead)
    }

    /// Drain every outbox in shard-id order and inject into the
    /// destinations. It runs between windows, so destination
    /// `seq` assignment — the tie-break among same-time remote events —
    /// is a pure function of shard ids and per-shard execution order.
    fn exchange(&mut self) {
        for src in 0..self.shards.len() {
            let out = self.shards[src].take_outbox();
            for Remote { dst, time, event } in out {
                let slack =
                    time.as_nanos() as i128 - self.shards[dst].now().as_nanos() as i128;
                self.min_inject_slack =
                    Some(self.min_inject_slack.map_or(slack, |m| m.min(slack)));
                self.injected += 1;
                self.shards[dst].at_boxed(time, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    fn log_time(label: u64) -> impl FnOnce(&mut ShardSim<Vec<(u64, u64)>>) {
        move |s| {
            let t = s.now().as_nanos();
            s.world.push((t, label));
        }
    }

    fn worlds(n: usize) -> Vec<Vec<(u64, u64)>> {
        vec![Vec::new(); n]
    }

    #[test]
    fn cross_shard_cascade_lands_at_its_due_times() {
        let mut p = ParallelSim::new(worlds(4), SimDur::from_nanos(50));
        for g in 0..4usize {
            p.shard_mut(g).at(SimTime::from_nanos(g as u64 * 7), move |s| {
                let id = s.id();
                s.world.push((s.now().as_nanos(), id as u64));
                s.send_to((id + 1) % 4, SimDur::from_nanos(50 + id as u64), move |d| {
                    let t = d.now().as_nanos();
                    d.world.push((t, 100 + id as u64));
                    if id == 0 {
                        d.send_to(0, SimDur::from_nanos(60), log_time(999));
                    }
                });
            });
        }
        p.run();
        assert_eq!(p.shard(0).world, vec![(0, 0), (74, 103), (110, 999)]);
        assert_eq!(p.shard(1).world, vec![(7, 1), (50, 100)]);
        assert_eq!(p.shard(2).world, vec![(14, 2), (58, 101)]);
        assert_eq!(p.shard(3).world, vec![(21, 3), (66, 102)]);
        assert_eq!(p.events_executed(), 9);
        assert_eq!(p.injected(), 5);
        assert!(p.min_inject_slack().unwrap() >= 0);
    }

    #[test]
    fn empty_run_terminates_immediately() {
        let mut p: ParallelSim<Vec<(u64, u64)>> =
            ParallelSim::new(worlds(3), SimDur::from_nanos(10));
        p.run();
        assert_eq!(p.windows(), 0);
        assert_eq!(p.events_executed(), 0);
    }

    #[test]
    fn injection_order_is_shard_id_then_emission_order() {
        // Two shards emit to shard 2 at the *same* due time; the
        // destination must apply src-0's events before src-1's.
        let mut p = ParallelSim::new(worlds(3), SimDur::from_nanos(100));
        for src in [1usize, 0] {
            p.shard_mut(src).at(SimTime::ZERO, move |s| {
                let id = s.id() as u64;
                s.send_to(2, SimDur::from_nanos(100), log_time(id));
                s.send_to(2, SimDur::from_nanos(100), log_time(10 + id));
            });
        }
        p.run();
        assert_eq!(p.shard(2).world, vec![(100, 0), (100, 10), (100, 1), (100, 11)]);
    }

    #[test]
    fn coordinator_accepts_a_non_send_world() {
        // `Rc` is `!Send`, here as the worlds and as captured event
        // state: every window runs on the calling thread, so neither
        // has to be `Send`.
        let seen = Rc::new(Cell::new(0u64));
        let worlds = vec![Rc::new(Cell::new(0u64)), Rc::clone(&seen)];
        let mut p = ParallelSim::new(worlds, SimDur::from_nanos(10));
        let token = Rc::new(7u64);
        p.shard_mut(0).at(SimTime::from_nanos(5), move |s| {
            s.world.set(1);
            s.send_to(1, SimDur::from_nanos(10), move |d| {
                d.world.set(*token + d.now().as_nanos());
            });
        });
        p.run();
        assert_eq!(p.shard(0).world.get(), 1);
        assert_eq!(seen.get(), 7 + 15);
        assert_eq!(p.injected(), 1);
    }
}
