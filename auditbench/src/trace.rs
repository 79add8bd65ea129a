//! Benchmark-side tracing: spans wrapped around the calls into each layer
//! of the program, kept in memory and written out as JSON lines at exit.
//!
//! A span records its name, its parent, and its start and end relative to
//! the tracer's creation. A layer's self time is its spans' durations minus
//! the time covered by their direct children. With tracing off, [`Tracer::span`]
//! only calls the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` 0 means a root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store lock poisoned by a panicking workload thread")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock poisoned").clone()
    }

    /// Take in spans recorded by another tracer — a local one, or one in
    /// another process — under fresh ids, shifted to end now.
    pub fn adopt(&self, spans: &[Span]) {
        if !self.on || spans.is_empty() {
            return;
        }
        let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0);
        let base = self.next.fetch_add(max_id + 1, Ordering::Relaxed);
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let shift = (self.t0.elapsed().as_nanos() as u64).saturating_sub(end);
        let mut store = self.spans.lock().expect("span store lock poisoned");
        store.extend(spans.iter().map(|s| Span {
            id: s.id + base,
            parent: if s.parent == 0 { 0 } else { s.parent + base },
            name: s.name,
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
        }));
    }

    /// Self time in seconds and span count, per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = self.spans.lock().expect("span store lock poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let slot = out.entry(s.name).or_default();
            slot.0 += own as f64 / 1e9;
            slot.1 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, |id| {
            t.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        assert!(st["inner"].0 >= 0.019);
        assert!(st["outer"].0 < st["inner"].0);
    }

    #[test]
    fn adopted_spans_keep_their_tree() {
        let local = Tracer::new(true);
        local.span("outer", 0, |id| local.span("inner", id, |_| ()));
        let t = Tracer::new(true);
        t.span("first", 0, |_| ());
        t.adopt(&local.spans());
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(spans.iter().filter(|s| s.id == outer.id).count(), 1);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |id| id), 0);
        assert!(t.self_times().is_empty());
    }
}
