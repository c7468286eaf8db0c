//! What one run records — operation counts, latencies, engine counters,
//! per-layer samples and spans — and the metrics derived from it.

use crate::trace::Tracer;
use grape_algo::Query;
use grape_worker::{QueryOutcome, Session, SessionUpdate, UpdateReceipt};
use std::collections::BTreeMap;
use std::time::Instant;

/// The query classes the workloads submit, in report order.
pub const CLASSES: [&str; 7] = [
    "sssp",
    "cc",
    "pagerank",
    "sim",
    "keyword",
    "marketing",
    "subiso",
];

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_ms", "ms"),
    ("seq_speedup", "x"),
    ("comm_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("partition.assign_ms", "ms"),
        ("partition.build_ms", "ms"),
        ("partition.cut_edges", "count"),
        ("partition.border_vertices", "count"),
        ("partition.mutate_ms", "ms"),
        ("graph.delta_apply_ms", "ms"),
        ("graph.dirty_vertices", "count"),
        ("comm.fragment_encode_ms", "ms"),
        ("comm.fragment_decode_ms", "ms"),
        ("comm.fragment_mb", "MB"),
        ("comm.ship_ms", "ms"),
        ("comm.bytes_per_query", "bytes"),
        ("comm.messages_per_query", "count"),
        ("core.supersteps_per_query", "count"),
        ("core.coord_ms", "ms"),
        ("core.barrier_wait_ms", "ms"),
        ("core.published_per_changed", "ratio"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for class in CLASSES {
        out.push((format!("algo.{class}.peval_ms"), "ms"));
        out.push((format!("algo.{class}.inceval_ms"), "ms"));
    }
    for class in CLASSES {
        out.push((format!("service.{class}.overhead_ms"), "ms"));
        out.push((format!("service.{class}.latency_ms"), "ms"));
    }
    out.push(("service.update_ms".into(), "ms"));
    out.push(("trace.overhead_pct".into(), "%"));
    out
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples of one operation kind (a query class, or `update`).
#[derive(Default)]
struct KindSamples {
    latency_ms: Vec<f64>,
    peval_ms: Vec<f64>,
    inceval_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

/// Engine counters summed over the answered queries of the stream.
#[derive(Default)]
struct Counters {
    queries: u64,
    latency_s: f64,
    supersteps: u64,
    bytes: u64,
    messages: u64,
    coord_ms: f64,
    barrier_ms: f64,
    published: u64,
    changed: u64,
}

pub struct Recorder {
    pub tracer: Option<Tracer>,
    started: Instant,
    /// `kind → (attempted, failed)`.
    ops: BTreeMap<String, (u64, u64)>,
    kinds: BTreeMap<&'static str, KindSamples>,
    setup_s: Vec<f64>,
    counters: Counters,
    seq_reference_s: f64,
    seq_engine_s: f64,
    /// Samples of the layer calls the traced run makes itself.
    layer: BTreeMap<&'static str, Vec<f64>>,
    trace_only_s: f64,
    stream_started: Option<Instant>,
    stream_s: f64,
    rounds: usize,
    errors: Vec<String>,
}

impl Recorder {
    pub fn new(trace: bool) -> Recorder {
        Recorder {
            tracer: trace.then(Tracer::new),
            started: Instant::now(),
            ops: BTreeMap::new(),
            kinds: BTreeMap::new(),
            setup_s: Vec::new(),
            counters: Counters::default(),
            seq_reference_s: 0.0,
            seq_engine_s: 0.0,
            layer: BTreeMap::new(),
            trace_only_s: 0.0,
            stream_started: None,
            stream_s: 0.0,
            rounds: 0,
            errors: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn begin(&mut self, name: &str) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.begin(name))
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
    }

    pub fn count(&mut self, span: Option<usize>, key: &'static str, value: f64) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.count(id, key, value);
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and seconds.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(name);
        let t = Instant::now();
        let value = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(span);
        (value, secs)
    }

    /// Like [`Recorder::call`] for work only the traced run does (its own
    /// layer calls): the time counts as tracing overhead and the duration in
    /// ms is kept as a sample of the per-layer metric `metric`.
    pub fn layer_call<T>(&mut self, metric: &'static str, span: &str, f: impl FnOnce() -> T) -> T {
        let (value, secs) = self.call(span, f);
        self.trace_only_s += secs;
        self.layer_sample(metric, secs * 1e3);
        value
    }

    /// Counts `secs` of work only the traced run does as tracing overhead.
    pub fn trace_overhead(&mut self, secs: f64) {
        self.trace_only_s += secs;
    }

    /// `comm.ship_ms`: what a load costs beyond cutting the graph and
    /// building its fragments (shipping, for remote sessions).
    pub fn derive_ship_ms(&mut self) {
        let m = |k: &str| self.layer.get(k).map_or(0.0, |v| median(v));
        let ship = m("session.load_ms") - m("partition.assign_ms") - m("partition.build_ms");
        self.layer.insert("comm.ship_ms", vec![ship.max(0.0)]);
    }

    pub fn layer_sample(&mut self, metric: &'static str, value: f64) {
        self.layer.entry(metric).or_default().push(value);
    }

    pub fn op(&mut self, kind: &str, ok: bool) {
        let entry = self.ops.entry(kind.to_string()).or_insert((0, 0));
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
        }
    }

    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            eprintln!("perfbench: WRONG ANSWER: {e}");
            self.errors.push(e);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.check(Err(what));
    }

    pub fn setup_sample(&mut self, secs: f64) {
        self.setup_s.push(secs);
    }

    /// Pairs one engine answer's latency with the reference computation of
    /// the same query, measured right after it.
    pub fn pair(&mut self, engine_s: f64, reference_s: f64) {
        self.seq_engine_s += engine_s;
        self.seq_reference_s += reference_s;
    }

    pub fn stream_begin(&mut self) {
        self.stream_started = Some(Instant::now());
    }

    pub fn stream_end(&mut self, rounds: usize) {
        self.stream_s = self
            .stream_started
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.rounds = rounds;
    }

    /// Submits `query` and joins it. A failed query is counted, reported on
    /// stderr and left out of every latency; the run goes on. `measured`
    /// queries feed the latency and engine metrics; the others (a
    /// workload's cold priming queries) are only counted and checked.
    /// Returns the outcome and its submit→join seconds.
    pub fn query(
        &mut self,
        session: &Session,
        query: Query,
        measured: bool,
    ) -> Option<(QueryOutcome, f64)> {
        let class = query.class().name();
        let kind = if measured { "query" } else { "prime" };
        let span = self.begin(&format!("session.query.{class}"));
        let t = Instant::now();
        let outcome = session.submit(query).and_then(|h| h.join());
        let secs = t.elapsed().as_secs_f64();
        self.end(span);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {kind}.{class} failed after {secs:.3}s: {e}");
                self.op(&format!("{kind}.{class}"), false);
                return None;
            }
        };
        self.op(&format!("{kind}.{class}"), true);
        let s = &outcome.stats;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.set_query(id, s.run_id);
            t.count(id, "supersteps", s.supersteps as f64);
            t.count(id, "bytes", s.bytes as f64);
            t.count(id, "messages", s.messages as f64);
            t.count(id, "peval_ms", s.peval_seconds * 1e3);
            t.count(id, "inceval_ms", s.inceval_seconds * 1e3);
        }
        if measured {
            let wall_ms = s.wall_time.as_secs_f64() * 1e3;
            let samples = self.kinds.entry(class).or_default();
            samples.latency_ms.push(secs * 1e3);
            samples.peval_ms.push(s.peval_seconds * 1e3);
            samples.inceval_ms.push(s.inceval_seconds * 1e3);
            samples.overhead_ms.push(secs * 1e3 - wall_ms);
            let c = &mut self.counters;
            c.queries += 1;
            c.latency_s += secs;
            c.supersteps += s.supersteps as u64;
            c.bytes += s.bytes;
            c.messages += s.messages;
            c.coord_ms += wall_ms - (s.peval_seconds + s.inceval_seconds) * 1e3;
            for step in &s.history {
                // Worker time spent idle at the barrier, waiting for the
                // slowest worker of the superstep.
                c.barrier_ms += (step.active_workers as f64 * step.max_eval_seconds
                    - step.total_eval_seconds)
                    .max(0.0)
                    * 1e3;
                c.published += step.published_updates as u64;
                c.changed += step.changed_slots as u64;
            }
        }
        Some((outcome, secs))
    }

    /// Applies one update batch through the session, timed and counted.
    pub fn update(
        &mut self,
        session: &Session,
        batch: impl Into<SessionUpdate>,
    ) -> Option<UpdateReceipt> {
        let span = self.begin("session.update");
        let t = Instant::now();
        let receipt = session.update(batch);
        let secs = t.elapsed().as_secs_f64();
        self.end(span);
        match receipt {
            Ok(r) => {
                self.op("update", true);
                self.count(span, "dirty", r.dirty as f64);
                self.count(span, "version", r.version as f64);
                self.kinds
                    .entry("update")
                    .or_default()
                    .latency_ms
                    .push(secs * 1e3);
                Some(r)
            }
            Err(e) => {
                eprintln!("perfbench: update failed after {secs:.3}s: {e}");
                self.op("update", false);
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|(_, f)| f).sum()
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn kind_median(&self, kind: &str, pick: fn(&KindSamples) -> &Vec<f64>) -> f64 {
        self.kinds.get(kind).map_or(0.0, |k| median(pick(k)))
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let c = &self.counters;
        // Geometric mean of the per-kind median latencies: every query
        // class of the workload (and its updates) weighs the same.
        let medians: Vec<f64> = self
            .kinds
            .values()
            .map(|k| median(&k.latency_ms))
            .filter(|m| m.is_finite() && *m > 0.0)
            .collect();
        let gmean = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
        let values = [
            median(&self.setup_s),
            c.queries as f64 / c.latency_s,
            gmean,
            self.seq_reference_s / self.seq_engine_s,
            c.bytes as f64 / c.queries as f64 / 1e6,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    }

    pub fn per_layer(&self) -> Vec<(String, &'static str, f64)> {
        let c = &self.counters;
        let per_query = |x: f64| {
            if c.queries == 0 {
                0.0
            } else {
                x / c.queries as f64
            }
        };
        let layer = |m: &str| self.layer.get(m).map_or(0.0, |v| median(v));
        let run_s = self.started.elapsed().as_secs_f64();
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "comm.bytes_per_query" => per_query(c.bytes as f64),
                    "comm.messages_per_query" => per_query(c.messages as f64),
                    "core.supersteps_per_query" => per_query(c.supersteps as f64),
                    "core.coord_ms" => per_query(c.coord_ms),
                    "core.barrier_wait_ms" => per_query(c.barrier_ms),
                    "core.published_per_changed" => {
                        if c.changed == 0 {
                            0.0
                        } else {
                            c.published as f64 / c.changed as f64
                        }
                    }
                    "service.update_ms" => self.kind_median("update", |k| &k.latency_ms),
                    "trace.overhead_pct" => {
                        100.0 * self.trace_only_s / (run_s - self.trace_only_s).max(1e-9)
                    }
                    n => match n.split('.').collect::<Vec<_>>().as_slice() {
                        ["algo", class, "peval_ms"] => self.kind_median(class, |k| &k.peval_ms),
                        ["algo", class, "inceval_ms"] => self.kind_median(class, |k| &k.inceval_ms),
                        ["service", class, "overhead_ms"] => {
                            self.kind_median(class, |k| &k.overhead_ms)
                        }
                        ["service", class, "latency_ms"] => {
                            self.kind_median(class, |k| &k.latency_ms)
                        }
                        _ => layer(n),
                    },
                };
                (name, unit, value)
            })
            .collect()
    }

    fn layer_max(&self, metric: &str) -> f64 {
        self.layer
            .get(metric)
            .map_or(0.0, |v| v.iter().fold(0.0, |a: f64, b| a.max(*b)))
    }

    /// One line of detail for people and for `steady.py`: counts per
    /// operation kind, per-kind median latencies, and the exact engine
    /// counters of the stream.
    pub fn detail_json(&self) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(k, (a, f))| format!("{k:?}:{{\"attempted\":{a},\"failed\":{f}}}"))
            .collect();
        let kinds: Vec<String> = self
            .kinds
            .iter()
            .map(|(k, s)| format!("\"{k}_ms\":{}", json_number(median(&s.latency_ms))))
            .collect();
        format!(
            "{{\"ops\":{{{}}},\"median_latency\":{{{}}},\"pagerank_max_gap\":{},\"pagerank_max_l1_gap\":{},\"rounds\":{},\"stream_s\":{},\"queries\":{},\"supersteps\":{},\"bytes\":{},\"messages\":{},\"errors\":{}}}",
            ops.join(","),
            kinds.join(","),
            json_number(self.layer_max("check.pagerank_gap")),
            json_number(self.layer_max("check.pagerank_l1_gap")),
            self.rounds,
            json_number(self.stream_s),
            self.counters.queries,
            self.counters.supersteps,
            self.counters.bytes,
            self.counters.messages,
            self.errors.len()
        )
    }
}

/// A JSON number; non-finite values (which a correct run never produces)
/// print as 0 so the line stays parseable.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
