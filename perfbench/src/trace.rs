//! Span recording for the traced run. The harness wraps each call it makes
//! into a crate's public functions; spans stay in memory and are written
//! once, when the run ends. Spans inside the crates are a later change.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Spans of one request share an id; 0 marks harness phases (set-up,
    /// an epoch, a probe group) that belong to no request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: `(index into spans, request id)`.
    open: Vec<(usize, u64)>,
    next_request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_request: 1,
        }
    }

    /// Run `f` inside a span that inherits the enclosing request (or none).
    /// Returns `f`'s result and its wall time in nanoseconds; the time is
    /// measured whether or not spans are being kept.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let request = self.open.last().map_or(0, |&(_, r)| r);
        self.run(name, request, f)
    }

    /// Like [`Self::time`], but the span starts a new request.
    pub fn time_request<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let request = self.next_request;
        self.next_request += 1;
        self.run(name, request, f)
    }

    /// Run `f` with recording off (timing still works).
    pub fn paused<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let was = std::mem::replace(&mut self.enabled, false);
        let out = f(self);
        self.enabled = was;
        out
    }

    fn run<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed().as_nanos() as u64);
        }
        let slot = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: slot as u32,
            parent: self.open.last().map(|&(i, _)| i as u32),
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push((slot, request));
        let out = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[slot].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span plus the per-name self-time totals as one JSON
    /// document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let num = |n: u64| Value::Num(n as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), num(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Num(-1.0), |p| num(p as u64)),
                    ),
                    ("request".into(), num(s.request)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ])
            })
            .collect();
        let self_time = self_time_by_name(&self.spans)
            .into_iter()
            .map(|(name, ns)| (name.to_string(), num(ns)))
            .collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), num(seed)),
            ("self_time_ns".into(), Value::Object(self_time)),
            ("spans".into(), Value::Array(spans)),
        ]);
        std::fs::write(path, doc.pretty())
    }
}

/// Each span's self time: its duration minus the part its direct children
/// cover. The harness is single-threaded, so children never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.end_ns - s.start_ns;
        }
    }
    own
}

pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "round", 10, 60),
            span(2, Some(1), "call", 20, 30),
            span(3, Some(1), "call", 35, 55),
            span(4, Some(0), "round", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["run"], 30);
        assert_eq!(by_name["round"], 40);
        assert_eq!(by_name["call"], 30);
        // Self times partition the root's duration.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_and_requests_propagate() {
        let mut t = Tracer::new(true);
        t.time("phase", |t| {
            t.time_request("req", |t| {
                t.time("inner", |_| ());
            });
            t.time_request("req", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[0].request), (None, 0));
        assert_eq!((s[1].parent, s[1].request), (Some(0), 1));
        assert_eq!((s[2].parent, s[2].request), (Some(1), 1));
        assert_eq!((s[3].parent, s[3].request), (Some(0), 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.time_request("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 2_000_000);
        assert!(t.spans().is_empty());
    }
}
