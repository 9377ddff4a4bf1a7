//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public API, and written out only when the run ends.
//! A span's name is `<layer>.<call>`; its self time is its duration
//! minus the part its child spans cover. The root span (`bench.run`)
//! wraps a whole traced pass, so its self time is the benchmark-loop time no
//! layer span covers and every nanosecond of the pass is attributed to
//! exactly one span.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the span wrapping a whole traced pass.
pub const ROOT: &str = "bench.run";

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// `<layer>.<call>`.
    name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for the root.
    parent: u32,
    /// The job, tick, node or op the span belongs to.
    id: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer whose root span starts now.
    pub fn start() -> Self {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        };
        t.enter(ROOT, 0);
        t
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Close the root span and hand over the recording.
    pub fn finish(mut self) -> Trace {
        self.exit();
        assert!(self.stack.is_empty(), "every span closed");
        Trace { spans: self.spans }
    }
}

/// Self and total time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed durations minus child coverage (ns).
    pub self_ns: u64,
}

/// A finished recording.
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Wall time of the root span (ns).
    pub fn wall_ns(&self) -> u64 {
        let root = &self.spans[0];
        root.end_ns - root.start_ns
    }

    /// Per-name calls, total and self time. Children of one span run
    /// one after another on one thread, so their durations never
    /// overlap and subtracting their sum gives the exact self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur - child;
        }
        out
    }

    /// Seconds of self time under `name` (0 when never entered).
    pub fn self_s(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
        layers.get(name).map_or(0.0, |l| l.self_ns as f64 * 1e-9)
    }

    /// Share of the traced wall time no layer span covers.
    pub fn uncovered_ratio(&self) -> f64 {
        let layers = self.layers();
        layers[ROOT].self_ns as f64 / self.wall_ns() as f64
    }

    /// Write the spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), which Perfetto and `chrome://tracing`
    /// open directly.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.id
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }

    /// The per-layer self-time table, one line per span name, largest
    /// self time first.
    pub fn table(&self) -> String {
        let wall = self.wall_ns() as f64;
        let mut rows: Vec<_> = self.layers().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<28} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "calls", "self_s", "total_s", "self%"
        );
        for (name, l) in rows {
            out += &format!(
                "{:<28} {:>10} {:>12.6} {:>12.6} {:>6.2}%\n",
                name,
                l.calls,
                l.self_ns as f64 * 1e-9,
                l.total_ns as f64 * 1e-9,
                100.0 * l.self_ns as f64 / wall
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_uncovered_account_for_the_wall() {
        let mut t = Tracer::start();
        t.enter("a.outer", 1);
        t.enter("b.inner", 1);
        t.exit();
        t.exit();
        t.enter("b.inner", 2);
        t.exit();
        let trace = t.finish();
        let layers = trace.layers();
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, trace.wall_ns());
        assert_eq!(layers["b.inner"].calls, 2);
        assert!(layers["a.outer"].total_ns >= layers["a.outer"].self_ns);
    }
}
