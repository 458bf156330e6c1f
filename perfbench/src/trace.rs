//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions — never inside the program. Each span has a name, a
//! start and an end on one monotonic clock, the span that was open when it
//! started (its parent), and the id of the trial, instance or call it
//! belongs to. Spans stay in memory until the run ends and are then written
//! out as one tab-separated file.

use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Marks a span opened while no other span was open.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (a public call or a loop body).
    pub name: &'static str,
    /// Trial, instance, shard or call id.
    pub item: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in ns since the recorder started.
    pub start_ns: u64,
    /// End, in ns since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a range of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus what their children cover.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str, item: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and returns
    /// its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (a nesting bug in the
    /// benchmark).
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, item);
        let out = f();
        self.close(id);
        out
    }

    /// Number of spans recorded so far: the start of the next range.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name over `range`. A child
    /// outside `range` is not subtracted from its parent.
    pub fn totals(&self, range: Range<usize>) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for span in &self.spans[range.clone()] {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns();
        }
        for span in &self.spans[range.clone()] {
            let p = span.parent as usize;
            if span.parent != NO_PARENT && range.contains(&p) {
                let parent = out
                    .get_mut(self.spans[p].name)
                    .expect("parent name counted above");
                parent.self_ns -= span.duration_ns();
            }
        }
        out
    }

    /// Writes every span as a tab-separated line: index, parent (`-` for
    /// none), name, item, start ns, end ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\titem\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                write!(out, "{i}\t-")?;
            } else {
                write!(out, "{i}\t{}", s.parent)?;
            }
            writeln!(
                out,
                "\t{}\t{}\t{}\t{}",
                s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_in_range() {
        let mut tr = Tracer::new();
        let outer = tr.open("outer", 0);
        tr.leaf("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close(outer);
        let t = tr.totals(0..tr.mark());
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(tr.spans()[1].parent, 0);
        assert_eq!(tr.spans()[0].parent, NO_PARENT);
    }
}
