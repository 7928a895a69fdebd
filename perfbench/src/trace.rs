//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name (the layer), a start and an end relative to the
//! tracer's epoch, the span that caused it, and the op it belongs to.
//! Spans are kept in memory and written out once the run ends. When the
//! tracer is off, [`Tracer::span`] only calls through.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Op ids at or above this mark the per-run layer battery, not the
/// workload's op loop.
pub const BATTERY_OP: u64 = 1 << 40;

pub struct Tracer {
    epoch: Instant,
    on: Cell<bool>,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: Cell::new(false),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Starts recording spans for `op`, or stops recording.
    pub fn set(&self, op: u64, on: bool) {
        self.op.set(op);
        self.on.set(on);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now(),
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[id].end_ns = end;
        r
    }

    /// Durations of the spans named `name`, in ns: all of them, or only
    /// the battery's.
    pub fn durations(&self, name: &str, battery_only: bool) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && (!battery_only || s.op >= BATTERY_OP))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Share of the op spans' wall time covered by their layer spans,
    /// summed over every traced op of the op loop.
    pub fn coverage(&self) -> f64 {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut num, mut den) = (0u64, 0u64);
        for (i, s) in spans.iter().enumerate() {
            if s.name == "op" && s.op < BATTERY_OP {
                num += covered[i];
                den += s.end_ns - s.start_ns;
            }
        }
        num as f64 / den.max(1) as f64
    }

    /// Self time (duration minus the time child spans cover) summed per
    /// layer over the op loop, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.op < BATTERY_OP {
                *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child[i]);
            }
        }
        out
    }

    /// One line per span: `op id parent name start_ns end_ns`.
    pub fn render(&self) -> String {
        let mut out = String::from("# op id parent name start_ns end_ns\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{} {i} {parent} {} {} {}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
