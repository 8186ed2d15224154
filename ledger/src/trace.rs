//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the ledger's own files, around the calls into
//! each layer: `name, start_ns, end_ns, parent`. They stay in memory for
//! the rep and are written out once, after the measurements. A layer's
//! self time is its spans' duration minus the part their child spans
//! cover.
//!
//! Phase spans (a handful per rep) are always recorded — the end-to-end
//! timings are read from them in both passes. Fine spans (one per
//! dataplane step and per controller-link call) are recorded only when
//! the tracer was built with `fine = true`, i.e. in the traced pass.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Work items the span handled (a punt batch's size; 1 otherwise).
    pub items: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. Single-threaded: the driver is one thread, and the
/// controller link it wraps is called synchronously from it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    fine: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The handle the driver loop and the link wrapper share.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn new(fine: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            fine,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn shared(fine: bool) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(fine)))
    }

    /// Whether per-step and per-call spans are wanted.
    pub fn fine(&self) -> bool {
        self.fine
    }

    /// Forgets the previous rep's spans (capacity is kept, so a warm
    /// tracer does not reallocate inside a measured rep).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.open_items(name, 1)
    }

    /// [`Tracer::open`] for a span that handles `items` work items.
    pub fn open_items(&mut self, name: &'static str, items: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            items,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open beneath it); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Self time per span name: duration minus direct children.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        self_times_ns(&self.spans)
    }

    /// Writes the spans as one JSON array (chrome-trace-like, but with
    /// explicit parent indices so self times can be recomputed).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"items\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time per span name over an arbitrary span list.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(children) {
        *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Runs `f` inside a span on the shared tracer and returns its result
/// with the span's duration in seconds. The tracer is not borrowed while
/// `f` runs, so `f` may open spans of its own.
pub fn phase<R>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tracer.borrow_mut().open(name);
    let out = f();
    let ns = tracer.borrow_mut().close(id);
    (out, ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            items: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep [0,100) > step [10,60) > call [20,50); step [60,90) has no child.
        let spans = [
            span("rep", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("call", 20, 50, Some(1)),
            span("step", 60, 90, Some(0)),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t["rep"], 100 - 50 - 30);
        assert_eq!(t["step"], (50 - 30) + 30);
        assert_eq!(t["call"], 30);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn open_close_nest_and_close_unwinds_forgotten_children() {
        let mut t = Tracer::new(true);
        let a = t.open("a");
        let b = t.open("b");
        let _leaked = t.open("c");
        t.close(b);
        let d = t.open("d");
        t.close(d);
        t.close(a);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(a));
        assert_eq!(s[2].parent, Some(b));
        assert_eq!(s[3].parent, Some(a), "d opens under a once b is closed");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns);
        t.clear();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn phase_reports_the_span_it_recorded() {
        let t = Tracer::shared(false);
        let (v, secs) = phase(&t, "p", || {
            let (_, inner) = phase(&t, "q", || 1);
            assert!(inner >= 0.0);
            7
        });
        assert_eq!(v, 7);
        let tr = t.borrow();
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!((tr.total_s("p") - secs).abs() < 1e-12);
    }
}
