//! Collective traffic schedules. The ring allreduce lives here, below
//! both of its users: `shs_mpi::Communicator::allreduce` executes it
//! step by step over real endpoints, and the scenario engine's
//! `TrafficPattern::Allreduce` (`slingshot_k8s`) injects the same steps
//! as raw fabric traffic.

/// The ring-allreduce schedule for `n` ranks and `size` bytes: one
/// inner `Vec` of `(src rank, dst rank, chunk bytes)` per step — `n−1`
/// reduce-scatter steps (step *s*: rank *i* passes chunk `(i − s) mod
/// n` to its successor) then `n−1` allgather steps (chunk `(i + 1 − s)
/// mod n`). Chunks split at byte boundaries `⌊i·size/n⌋`, so lengths
/// are balanced within one byte and sum exactly to `size`.
pub fn ring_allreduce_schedule(n: usize, size: u64) -> Vec<Vec<(usize, usize, u64)>> {
    let mut steps = Vec::with_capacity(2 * (n.saturating_sub(1)));
    for phase in 0..2usize {
        for s in 0..n - 1 {
            let mut ops = Vec::with_capacity(n);
            ring_step_into(n, size, phase, s, &mut ops);
            steps.push(ops);
        }
    }
    steps
}

/// Append one ring-allreduce step's ops (phase 0 = reduce-scatter,
/// phase 1 = allgather, step `s` within the phase) to `out`. The single
/// generator behind [`ring_allreduce_schedule`] and callers that build
/// one step at a time into a reused buffer, so the two cannot diverge.
pub fn ring_step_into(
    n: usize,
    size: u64,
    phase: usize,
    s: usize,
    out: &mut Vec<(usize, usize, u64)>,
) {
    let chunk = |idx: usize| -> u64 {
        let (n, idx) = (n as u64, (idx % n) as u64);
        (idx + 1) * size / n - idx * size / n
    };
    out.extend((0..n).map(|i| {
        let idx = match phase {
            0 => (i + n - s) % n,
            _ => (i + 1 + n - s) % n,
        };
        (i, (i + 1) % n, chunk(idx))
    }));
}
