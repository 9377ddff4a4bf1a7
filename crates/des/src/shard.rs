//! One shard of a conservatively-synchronised partitioned simulation.
//!
//! [`ShardSim`] is the per-shard twin of [`Sim`](crate::Sim): the same
//! calendar queue, the same `(time, seq)` ordering contract, the same
//! monotone clock — plus an **outbox** for cross-shard scheduling:
//! [`ShardSim::send_to`] records a [`Remote`] event that the
//! coordinator ([`ParallelSim`](crate::ParallelSim)) injects into the
//! destination shard *between* barrier windows, never during one.
//!
//! The conservative contract is enforced here at the source: a remote
//! event's delay is clamped to at least the configured **lookahead**, so
//! by construction an event executing inside the window `[T, T + L)` can
//! only produce remote work at or past `T + L` — which is exactly where
//! the next window can begin. See [`crate::parallel`] for the window
//! algebra and the determinism argument.

use crate::calendar::CalendarQueue;
use crate::time::{SimDur, SimTime};

/// Identifies a shard within one [`ParallelSim`](crate::ParallelSim).
pub type ShardId = usize;

/// A scheduled shard event: a boxed closure over the shard.
pub type ShardEventFn<W> = Box<dyn FnOnce(&mut ShardSim<W>)>;

/// A cross-shard event waiting in a source shard's outbox.
pub struct Remote<W> {
    /// Destination shard.
    pub dst: ShardId,
    /// Absolute due time in the destination shard (already includes the
    /// lookahead-clamped delay).
    pub time: SimTime,
    /// The event to run over the destination shard.
    pub event: ShardEventFn<W>,
}

/// One shard: a serial simulator over its own world and calendar queue,
/// exchanging cross-shard events only through its outbox.
pub struct ShardSim<W> {
    /// The shard-owned world. Public for the same reason
    /// [`Sim::world`](crate::Sim::world) is: event closures and drivers
    /// reach component state directly.
    pub world: W,
    id: ShardId,
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<ShardEventFn<W>>,
    executed: u64,
    lookahead: SimDur,
    outbox: Vec<Remote<W>>,
}

impl<W> ShardSim<W> {
    /// Create shard `id` at time zero. `lookahead` is the minimum
    /// cross-shard delay this shard will ever emit; the coordinator
    /// requires it to be positive.
    pub fn new(id: ShardId, world: W, lookahead: SimDur) -> Self {
        assert!(lookahead > SimDur::ZERO, "conservative sync needs a positive lookahead");
        ShardSim {
            world,
            id,
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            executed: 0,
            lookahead,
            outbox: Vec::new(),
        }
    }

    /// This shard's id within the coordinator.
    #[inline]
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// Current shard-local simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events this shard has executed.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still queued locally (outbox not included).
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Due time of the earliest queued local event, without mutating the
    /// queue (no ring-window slide — see
    /// [`CalendarQueue::peek_min_time`]). The coordinator takes the
    /// minimum of this across all shards to open the next window.
    #[inline]
    pub fn peek_min_time(&self) -> Option<SimTime> {
        self.queue.peek_min_time()
    }

    /// Schedule a local event at absolute time `t`. Scheduling in the
    /// past is a logic error and panics (debug builds) or clamps to
    /// `now` (release) — same contract as [`Sim::at`](crate::Sim::at).
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut ShardSim<W>) + 'static) {
        self.at_boxed(t, Box::new(f));
    }

    /// Schedule a local event after a relative delay.
    #[inline]
    pub fn after(&mut self, d: SimDur, f: impl FnOnce(&mut ShardSim<W>) + 'static) {
        self.at(self.now + d, f);
    }

    /// [`at`](Self::at) for an already-boxed event — the injection path
    /// the coordinator uses when draining outboxes, kept public so
    /// custom drivers can route [`Remote`] events themselves.
    pub fn at_boxed(&mut self, t: SimTime, f: ShardEventFn<W>) {
        debug_assert!(t >= self.now, "scheduling into the past: {t} < {}", self.now);
        let t = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(t, seq, f);
    }

    /// Schedule `f` on shard `dst` after `delay`, clamped up to the
    /// lookahead. The event does not leave this shard until the
    /// coordinator drains the outbox at the next barrier, which is what
    /// keeps the exchange conservative: anything emitted inside the
    /// window `[T, T + L)` is due at `now + delay ≥ T + L`, at or past
    /// the earliest possible next window start.
    ///
    /// A `delay` below the lookahead is a modelling error (the caller
    /// promised `lookahead` was the minimum cross-shard latency):
    /// debug builds panic, release builds clamp to the lookahead.
    pub fn send_to(
        &mut self,
        dst: ShardId,
        delay: SimDur,
        f: impl FnOnce(&mut ShardSim<W>) + 'static,
    ) {
        debug_assert!(
            delay >= self.lookahead,
            "cross-shard delay {delay} below the lookahead {}",
            self.lookahead
        );
        let delay = delay.max(self.lookahead);
        self.outbox.push(Remote { dst, time: self.now + delay, event: Box::new(f) });
    }

    /// Take the accumulated outbox (coordinator use, between windows).
    pub fn take_outbox(&mut self) -> Vec<Remote<W>> {
        std::mem::take(&mut self.outbox)
    }

    /// Execute every local event strictly before `window_end`, in
    /// `(time, seq)` order, including follow-ups scheduled into the
    /// window by the events themselves. Events at or past `window_end`
    /// are left untouched — the underlying peek declines without
    /// sliding the ring window, so later cross-shard injections below
    /// this shard's queued head remain safe.
    ///
    /// Returns the number of events executed in this window.
    pub fn run_window(&mut self, window_end: SimTime) -> u64 {
        let before = self.executed;
        if window_end == SimTime::ZERO {
            return 0;
        }
        // `next_time_at_most` is inclusive; the window is half-open.
        let deadline = SimTime::from_nanos(window_end.as_nanos() - 1);
        while self.queue.next_time_at_most(deadline).is_some() {
            self.step();
        }
        self.executed - before
    }

    /// Execute the next local event, if any.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.time >= self.now);
                self.now = ev.time;
                self.executed += 1;
                (ev.item)(self);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_runs_only_events_strictly_before_end() {
        let mut s: ShardSim<Vec<u64>> = ShardSim::new(0, Vec::new(), SimDur::from_nanos(100));
        for t in [10u64, 50, 99, 100, 150] {
            s.at(SimTime::from_nanos(t), move |sh| sh.world.push(t));
        }
        assert_eq!(s.run_window(SimTime::from_nanos(100)), 3);
        assert_eq!(s.world, vec![10, 50, 99]);
        assert_eq!(s.now(), SimTime::from_nanos(99));
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn followups_inside_the_window_still_run() {
        let mut s: ShardSim<Vec<u64>> = ShardSim::new(0, Vec::new(), SimDur::from_nanos(10));
        s.at(SimTime::from_nanos(5), |sh| {
            sh.world.push(5);
            sh.after(SimDur::from_nanos(3), |sh2| sh2.world.push(8));
        });
        s.run_window(SimTime::from_nanos(10));
        assert_eq!(s.world, vec![5, 8]);
    }

    #[test]
    fn send_to_clamps_to_lookahead_and_stays_in_outbox() {
        let mut s: ShardSim<Vec<u64>> = ShardSim::new(0, Vec::new(), SimDur::from_nanos(100));
        s.at(SimTime::from_nanos(40), |sh| {
            sh.send_to(1, SimDur::from_nanos(250), |d| d.world.push(1));
        });
        s.run_window(SimTime::from_nanos(100));
        let out = s.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1);
        assert_eq!(out[0].time, SimTime::from_nanos(290));
        assert!(s.take_outbox().is_empty(), "take drains");
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    #[cfg(debug_assertions)]
    fn sub_lookahead_send_panics_in_debug() {
        let mut s: ShardSim<()> = ShardSim::new(0, (), SimDur::from_nanos(100));
        s.at(SimTime::ZERO, |sh| {
            sh.send_to(1, SimDur::from_nanos(1), |_| {});
        });
        s.run_window(SimTime::from_nanos(1000));
    }

    #[test]
    fn declined_window_peek_allows_later_injection_below_the_head() {
        // The shard-local face of the `next_time_at_most` hazard pinned
        // in calendar.rs: a shard whose head lies past the window end
        // must decline without sliding its ring window, so a cross-shard
        // injection between the window end and that head still lands.
        let far = CalendarQueue::<()>::BUCKET_NS * 2048;
        let mut s: ShardSim<Vec<u64>> = ShardSim::new(0, Vec::new(), SimDur::from_nanos(100));
        s.at(SimTime::from_nanos(far), move |sh| sh.world.push(far));
        // Window well before the head: nothing runs, nothing mutates.
        assert_eq!(s.run_window(SimTime::from_nanos(1_000)), 0);
        // Coordinator injects below the declined head.
        s.at_boxed(SimTime::from_nanos(2_000), Box::new(|sh| sh.world.push(2_000)));
        assert_eq!(s.run_window(SimTime::from_nanos(far + 1)), 2);
        assert_eq!(s.world, vec![2_000, far]);
    }
}
