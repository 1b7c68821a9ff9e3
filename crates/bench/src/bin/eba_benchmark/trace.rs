//! Spans recorded by the benchmark itself (the product carries none
//! yet): a client-side span per request during the traced window, and
//! the layer replay's spans grafted under the request they re-run. Spans
//! stay in memory and go to the trace file when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// What caused the span: one id per ingest batch or read cycle.
    pub trace: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Trace ids of read cycles start here; ingest batches count from 0.
pub const CYCLE_TRACE_BASE: u64 = 1 << 32;

/// The span sink. Request threads append under one short lock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the tracer was made.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("no span writer panics mid-push");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// The trace id `id` was recorded under.
    pub fn trace_of(&self, id: SpanId) -> u64 {
        self.spans.lock().expect("no span writer panics mid-push")[id].trace
    }

    /// Closes a span that was recorded open (`end_us == start_us`) so its
    /// children could name it as their parent.
    pub fn set_end(&self, id: SpanId, end_us: f64) {
        self.spans.lock().expect("no span writer panics mid-push")[id].end_us = end_us;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span writer panics mid-push")
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its child spans cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
                let mut reach = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// One row of the per-layer table: a span name's count, total and self
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub self_p50_us: f64,
}

pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times_us(spans);
    let mut by_name: BTreeMap<&'static str, (f64, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += s.end_us - s.start_us;
        entry.1.push(*own);
    }
    by_name
        .into_iter()
        .map(|(name, (total_us, own))| LayerRow {
            name,
            count: own.len(),
            total_ms: total_us / 1e3,
            self_ms: own.iter().sum::<f64>() / 1e3,
            self_p50_us: crate::stats::median(&own),
        })
        .collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("trace", Json::Num(s.trace as f64)),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, "wire", 0.0, 100.0),
            // Two overlapping children cover [10, 60) once, not twice.
            span(1, Some(0), "session", 10.0, 50.0),
            span(2, Some(0), "encode", 40.0, 60.0),
            // A grandchild only reduces its own parent.
            span(3, Some(1), "engine", 20.0, 30.0),
            // A child that overruns its parent is clipped to it.
            span(4, Some(2), "flush", 55.0, 90.0),
            span(5, None, "other", 0.0, 7.0),
        ];
        assert_eq!(
            self_times_us(&spans),
            vec![50.0, 30.0, 15.0, 10.0, 35.0, 7.0]
        );
        let table = layer_table(&spans);
        let wire = table.iter().find(|r| r.name == "wire").unwrap();
        assert_eq!((wire.count, wire.total_ms, wire.self_ms), (1, 0.1, 0.05));
        let rendered = spans_json(&spans).render();
        assert!(rendered.contains("\"parent\": null"));
        assert!(rendered.contains("\"name\": \"engine\""));
    }

    #[test]
    fn tracer_hands_out_ids_in_record_order() {
        let t = Tracer::new();
        let a = t.record("a", 7, None, 0.0, 5.0);
        let b = t.record("b", 7, Some(a), 1.0, 2.0);
        assert_eq!((a, b), (0, 1));
        assert!(t.at(Instant::now()) >= 0.0);
        t.set_end(a, 9.0);
        assert_eq!(t.trace_of(b), 7);
        let spans = t.into_spans();
        assert_eq!(spans[0].end_us, 9.0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace, 7);
    }
}
