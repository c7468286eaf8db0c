//! In-memory spans for the traced run, written out at exit as a Chrome
//! trace-event file (open it in `chrome://tracing` or ui.perfetto.dev).
//!
//! A span is opened around each call the benchmark makes into a layer's
//! public functions; its parent is the innermost span still open when it
//! began, and spans of one query carry that query's run id. Counts measured
//! at the same boundary ride on the span as arguments.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    query: Option<u32>,
    counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let span = Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            query: None,
            counts: Vec::new(),
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    pub fn set_query(&mut self, id: usize, run_id: u32) {
        self.spans[id].query = Some(run_id);
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// The trace-event JSON of every closed span.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_us.is_nan() {
                continue;
            }
            if !out.ends_with('[') {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(q) = s.query {
                let _ = write!(out, ",\"query\":{q}");
            }
            for (k, v) in &s.counts {
                if v.is_finite() {
                    let _ = write!(out, ",{k:?}:{v}");
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}
