//! Client-side spans, recorded from the benchmark's own files around
//! each call into a layer's public API: name, start, end, the span that
//! caused it, and the transaction they share. Spans stay in memory
//! while the workload runs and are written to
//! `out/trace_<workload>.jsonl` when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No span": the parent of a root, and every id a disabled tracer
/// hands out.
pub const NONE: u32 = u32::MAX;

/// At most this many spans are kept per tracer (and written).
const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u64,
}

/// One thread's span buffer. All tracers of a run share `epoch`.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span whose end is not known yet (a transaction).
    pub fn open(&mut self, name: &'static str, txn: u64, start: Instant) -> u32 {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return NONE;
        }
        let start_ns = self.ns(start);
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NONE,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        if id != NONE {
            let end_ns = self.ns(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Record a finished call under `parent`.
    pub fn call(
        &mut self,
        name: &'static str,
        parent: u32,
        txn: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            txn,
        });
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Per span name: count, total time and self time (duration minus the
/// part covered by child spans), in nanoseconds.
pub fn self_times(tracers: &[Tracer]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for t in tracers {
        let mut child = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in t.spans.iter().zip(&child) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*c);
        }
    }
    by_name
        .into_iter()
        .map(|(n, (c, total, own))| (n, c, total, own))
        .collect()
}

/// Write every span as one JSON object per line. Span ids are
/// `"<thread>.<index>"`, unique within the file.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                format!("\"{}.{}\"", t.thread, s.parent)
            };
            writeln!(
                w,
                "{{\"id\":\"{}.{}\",\"parent\":{},\"thread\":{},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.thread, i, parent, t.thread, s.txn, s.name, s.start_ns, s.end_ns
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 0);
        let at = |us: u64| epoch + Duration::from_micros(us);
        let txn = t.open("txn", 7, at(0));
        t.call("commit", txn, 7, at(10), at(40));
        t.close(txn, at(100));
        let rows = self_times(&[t]);
        assert_eq!(
            rows,
            vec![("commit", 1, 30_000, 30_000), ("txn", 1, 100_000, 70_000)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.open("txn", 1, Instant::now());
        assert_eq!(id, NONE);
        t.call("x", id, 1, Instant::now(), Instant::now());
        t.close(id, Instant::now());
        assert!(t.is_empty());
    }
}
