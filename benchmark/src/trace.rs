//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the crates, around each call the
//! benchmark makes into a layer. Each rank closure owns a [`Tracer`] (no
//! lock on the recording path); the tracers are merged into one
//! [`Trace`] when the repetition ends and written out when the process
//! exits. A disabled tracer records nothing, so the untraced run pays one
//! predictable branch per call site.
//!
//! Reading a verb span: under `Backend::Event` one task runs at a time,
//! so the wall interval of a blocking verb includes whatever other ranks
//! ran while the caller was parked inside it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rank value of spans recorded on the launching thread.
pub const HOST: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    /// Size class or cell label (`b128`, `put.shared.b8`), empty if none.
    pub detail: String,
    pub layer: &'static str,
    pub rank: u32,
    /// One id per repetition: every span of one repetition shares it.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations inside the span (calls of a sweep, messages of a phase).
    pub count: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn secs(&self) -> f64 {
        self.dur_ns() as f64 / 1e9
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(usize);

const CLOSED: usize = usize::MAX;

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    /// This tracer's number among the tracers of the process.
    serial: u64,
    epoch: Instant,
    rank: u32,
    rep: u32,
    root: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for `rank` whose top-level spans hang under span `root`.
    pub fn new(on: bool, epoch: Instant, rank: u32, rep: u32, root: u64) -> Tracer {
        static TRACERS: AtomicU64 = AtomicU64::new(1);
        Tracer {
            on,
            serial: TRACERS.fetch_add(1, Ordering::Relaxed),
            epoch,
            rank,
            rep,
            root,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), HOST, 0, 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ids are unique across the tracers of one process — a rank gets a
    /// new tracer with every launch: the tracer's serial in the high
    /// half, its span index in the low half.
    fn id_of(&self, idx: usize) -> u64 {
        (self.serial << 32) | (idx as u64 + 1)
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, detail: &str) -> Open {
        if !self.on {
            return Open(CLOSED);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map_or(self.root, |&p| self.id_of(p));
        self.spans.push(Span {
            id: self.id_of(idx),
            parent,
            name,
            detail: detail.to_string(),
            layer,
            rank: self.rank,
            rep: self.rep,
            start_ns: 0,
            end_ns: 0,
            count: 1,
            bytes: 0,
        });
        self.stack.push(idx);
        // Stamp last so the recorder's own bookkeeping stays outside.
        self.spans[idx].start_ns = self.now_ns();
        Open(idx)
    }

    /// Close `open`, crediting it with `count` operations and `bytes`.
    pub fn end(&mut self, open: Open, count: u64, bytes: u64) {
        if open.0 == CLOSED {
            return;
        }
        let end = self.now_ns();
        let s = &mut self.spans[open.0];
        s.end_ns = end;
        s.count = count;
        s.bytes = bytes;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    /// Record an already-measured interval (the launcher's `core.launch`
    /// and `core.teardown`, known only after the run returns).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        detail: &str,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: self.id_of(idx),
            parent: self.stack.last().map_or(self.root, |&p| self.id_of(p)),
            name,
            detail: detail.to_string(),
            layer,
            rank: self.rank,
            rep: self.rep,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            count,
            bytes: 0,
        });
    }

    /// The id of an open span (0 when tracing is off), for tracers whose
    /// spans hang under it.
    pub fn id(&self, open: Open) -> u64 {
        if open.0 == CLOSED {
            0
        } else {
            self.id_of(open.0)
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "unclosed span");
        self.spans
    }
}

/// All spans of one process.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Spans named `name` (any detail).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans named `name` with exactly `detail`.
    pub fn of<'a>(&'a self, name: &'a str, detail: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.named(name).filter(move |s| s.detail == detail)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that child spans cover (children of different ranks
    /// overlap, so the cover is the union, not the sum).
    pub fn self_times(&self) -> Vec<u64> {
        let index: std::collections::HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = index.get(&s.parent) {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| {
                k.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in k.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Per `(layer, name, detail)`: span count, operations, total and
    /// self nanoseconds — sorted by name, so the file repeats.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64, u64)> {
        let selfs = self.self_times();
        let mut rows: std::collections::BTreeMap<String, (u64, u64, u64, u64)> = Default::default();
        for (s, own) in self.spans.iter().zip(selfs) {
            let key = if s.detail.is_empty() {
                format!("{}/{}", s.layer, s.name)
            } else {
                format!("{}/{}.{}", s.layer, s.name, s.detail)
            };
            let e = rows.entry(key).or_default();
            e.0 += 1;
            e.1 += s.count;
            e.2 += s.dur_ns();
            e.3 += own;
        }
        rows.into_iter()
            .map(|(k, v)| (k, v.0, v.1, v.2, v.3))
            .collect()
    }

    /// `{"workload":…,"summary":[…],"spans":[…]}`, one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self.self_times();
        let mut out = String::with_capacity(160 * self.spans.len() + 4096);
        let _ = write!(out, "{{\"schema\":\"hostbench-trace-v1\",\"workload\":\"{workload}\",\"time_unit\":\"ns\",\n\"summary\":[");
        for (i, (key, spans, ops, total, own)) in self.summary().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{{\"span\":\"{key}\",\"spans\":{spans},\"ops\":{ops},\"total_ns\":{total},\"self_ns\":{own}}}");
        }
        out.push_str("\n],\n\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let rank = if s.rank == HOST {
                -1
            } else {
                i64::from(s.rank)
            };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{},\"rep\":{},\"layer\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\",\"rank\":{rank},\"start\":{},\"end\":{},\"self\":{own},\"count\":{},\"bytes\":{}}}",
                s.id, s.parent, s.rep, s.layer, s.name, s.detail, s.start_ns, s.end_ns, s.count, s.bytes
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            detail: String::new(),
            layer: "core",
            rank: 0,
            rep: 1,
            start_ns: start,
            end_ns: end,
            count: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Trace {
            spans: vec![
                span(1, 0, 0, 100),
                span(2, 1, 10, 40),
                span(3, 1, 30, 60),
                span(4, 1, 80, 90),
                span(5, 2, 10, 20),
            ],
        };
        // Children cover [10,60) and [80,90) of the root: 60 of 100.
        assert_eq!(t.self_times(), vec![40, 20, 30, 10, 10]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 3, 1, 77);
        let outer = t.begin("core", "phase", "b64");
        let inner = t.begin("core", "send", "");
        t.end(inner, 1, 64);
        t.end(outer, 2, 128);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 77);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[0].count, spans[0].bytes), (2, 128));

        let mut off = Tracer::off();
        let o = off.begin("core", "send", "");
        off.end(o, 1, 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn ids_differ_across_tracers() {
        let e = Instant::now();
        // The same rank in two launches of one repetition.
        let (mut a, mut b) = (Tracer::new(true, e, 0, 1, 0), Tracer::new(true, e, 0, 1, 0));
        let (oa, ob) = (a.begin("core", "x", ""), b.begin("core", "x", ""));
        assert_ne!(a.id(oa), b.id(ob));
        a.end(oa, 1, 0);
        b.end(ob, 1, 0);
    }
}
