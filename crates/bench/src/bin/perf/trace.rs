//! In-memory spans around the calls into each layer, written out when the
//! traced run ends. Spans are recorded by the benchmark, from outside the
//! layers; spans inside the program are a later change (ROADMAP 4b).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use stardust_spatial::{ExecStats, RunError};

use crate::metrics::{median, steady};

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Spans of one operation share `op_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
}

/// Span and count recorder for one traced run (single recording thread).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    stack: Vec<u32>,
    op_id: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `instant` on the trace's clock (nanoseconds since the trace began).
    pub fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the operation id stamped on spans opened from here on.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op_id: self.op_id,
        };
        let id = self.record(span);
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a span with no children of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Records a finished span with explicit parent and times, for
    /// operations that overlap on one thread (a client with several
    /// requests outstanding) and so cannot use the open-span stack.
    pub fn record(&mut self, span: Span) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(span);
        id
    }

    /// Adds `n` to a named count, kept beside the spans so ratios are
    /// measured where the work happens.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Nanoseconds per counted trip of the interpreter's loop nodes:
    /// total `spatial.run` span time over the `spatial.run.trips` count.
    pub fn run_ns_per_trip(&self) -> Option<f64> {
        let trips = self.counts.get("spatial.run.trips").copied().unwrap_or(0);
        let ns: u64 = (self.spans.iter().filter(|s| s.name == "spatial.run"))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (trips > 0).then(|| ns as f64 / trips as f64)
    }

    /// Times `machine.run` as a `spatial.run` span and counts its trips.
    pub fn run_span(
        &mut self,
        run: impl FnOnce() -> Result<ExecStats, RunError>,
    ) -> Result<ExecStats, RunError> {
        let stats = self.leaf("spatial.run", run)?;
        self.count("spatial.run.trips", stats.node_trips.iter().sum());
        Ok(stats)
    }

    /// Time per operation spent in spans called `name`: operations are
    /// grouped into chunks of `chunk_len` consecutive `op_id`s, each chunk
    /// gives (total span time) / `chunk_len`, and the [`steady`] mean over
    /// chunks is reported in microseconds, as the end-to-end times are. `None` when
    /// no span has that name.
    pub fn per_op_us(&self, name: &str, chunk_len: u32) -> Option<f64> {
        let mut chunks: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *chunks.entry(s.op_id / chunk_len).or_default() += s.end_ns - s.start_ns;
        }
        if chunks.is_empty() {
            return None;
        }
        let per_op: Vec<f64> = chunks
            .values()
            .map(|&ns| ns as f64 / f64::from(chunk_len) / 1e3)
            .collect();
        Some(steady(&per_op))
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (!durations.is_empty()).then(|| median(&durations))
    }

    /// Writes `{"names": [...], "counts": {...}, "spans": [[name, start_ns,
    /// end_ns, parent, op_id, self_ns], ...]}`; `name` indexes `names`,
    /// `parent` is a span's position in `spans` or -1.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        write!(out, "{{\"names\": [{}], \"counts\": {{", quoted.join(", "))?;
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        write!(out, "{}}}, \"spans\": [", counts.join(", "))?;
        let self_ns = self_times_ns(&self.spans);
        let mut line = String::new();
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            line.clear();
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                line,
                "{sep}[{name}, {}, {}, {parent}, {}, {own}]",
                s.start_ns, s.end_ns, s.op_id
            )
            .expect("write to string");
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals, clipped to the span (children recorded explicitly may
/// overlap each other or stick out of the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("compile", 10, 40, 0),
            span("lower", 15, 25, 1), // nested: counts against compile only
            span("run", 50, 90, 0),   // sibling of compile
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let spans = [
            span("op", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 250, 0), // sticks out by 50
            span("d", 10, 20, 0),   // wholly outside
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn stack_assigns_parents_and_leaf_returns_its_value() {
        let mut t = Tracer::new();
        t.set_op(7);
        let op = t.open("op");
        let v = t.leaf("child", || 42);
        t.close(op);
        t.leaf("next", || ());
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, op);
        assert_eq!(t.spans[2].parent, NO_PARENT);
        assert!(t
            .spans
            .iter()
            .all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn per_op_time_is_the_mean_over_chunks() {
        let mut t = Tracer::new();
        // Chunks of 2 ops: totals 4000, 2000 and (one op) 6000 ns.
        for (op_id, ns) in [(0, 3000), (1, 1000), (2, 1000), (3, 1000), (4, 6000)] {
            t.record(Span {
                op_id,
                ..span("run", 0, ns, NO_PARENT)
            });
        }
        assert_eq!(t.per_op_us("run", 2), Some(2.0));
        assert_eq!(t.per_op_us("absent", 2), None);
        assert_eq!(t.median_us("run"), Some(1.0));
    }
}
