//! The traced run: the per-layer breakdown of every rotation item.
//!
//! Each traced query takes the path a served query takes:
//! `GraphSnapshot::attach`, then `CypherEngine::run` on an engine built
//! like the server's (a plan cache of its own and a query log). A
//! [`StageSink`] on the private environment (forked environments do not
//! inherit sinks) records when each `on_stage` call arrives, and a
//! [`LogSink`] records when the engine logs the query. The layers of the
//! measured path are:
//!
//! - `attach`: `GraphSnapshot::attach`;
//! - `cypher.parse`: from the start of `run` to the start of the engine's
//!   execution, which the query log's `wall_seconds` dates back from its
//!   arrival: the `parse_pipeline` call `run` makes;
//! - the dataflow stages: stage *i* spans from the previous arrival (the
//!   first from the start of execution, so it includes the plan-cache
//!   lookup) to its own;
//! - the executor's self time: from the last stage to the query log;
//! - `result.materialize`: from the query log to the end of `run`, where
//!   the engine turns the embeddings into the result table (next to
//!   nothing for multi-clause items, whose pipeline builds its table
//!   before logging).
//!
//! `planner.plan` is a cold `CypherEngine::plan` (an engine without a plan
//! cache; single-`MATCH` items only), timed before the measured path and
//! not counted in it. The untraced variant runs the same path without the
//! stage sink, so the two differ by the cost of tracing alone.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gradoop_core::{
    CypherEngine, MatchingConfig, PlanCache, QueryLogRecord, QueryLogSink, DEFAULT_PLAN_CAPACITY,
};
use gradoop_dataflow::{SpanRecord, StageReport, TraceSink};
use gradoop_server::GraphSnapshot;

use crate::oracle::Expected;
use crate::rotation::Item;

/// What the sink keeps of one finished stage.
#[derive(Debug, Clone, Copy)]
struct StageEvent {
    at: Instant,
    records_out: u64,
    bytes_shuffled: u64,
    peak_memory_bytes: u64,
    morsels: u64,
    batches: u64,
}

/// A trace sink that records when each stage report arrives.
#[derive(Default)]
pub struct StageSink {
    events: Mutex<Vec<StageEvent>>,
}

impl StageSink {
    fn take(&self) -> Vec<StageEvent> {
        std::mem::take(&mut *self.events.lock().expect("stage sink poisoned"))
    }
}

impl TraceSink for StageSink {
    fn on_stage(&self, report: &StageReport) {
        let event = StageEvent {
            at: Instant::now(),
            records_out: report.records_out,
            bytes_shuffled: report.bytes_shuffled,
            peak_memory_bytes: report.peak_memory_bytes,
            morsels: report.morsels,
            batches: report.batches,
        };
        self.events.lock().expect("stage sink poisoned").push(event);
    }

    fn on_span(&self, _span: &SpanRecord) {}
}

/// A query log that keeps when the last record arrived and how long the
/// engine's execution took by its own clock.
#[derive(Default)]
pub struct LogSink {
    last: Mutex<Option<(Instant, f64)>>,
}

impl LogSink {
    fn take(&self) -> Option<(Instant, f64)> {
        self.last.lock().expect("log sink poisoned").take()
    }
}

impl QueryLogSink for LogSink {
    fn log(&self, record: &QueryLogRecord) {
        *self.last.lock().expect("log sink poisoned") = Some((Instant::now(), record.wall_seconds));
    }
}

/// The per-layer breakdown of one traced query. Times are in seconds.
#[derive(Debug, Clone, Default)]
pub struct TracedQuery {
    /// Index of the item in the rotation.
    pub item: usize,
    /// Wall time of the measured path: attach plus `run`.
    pub total: f64,
    /// Cold `CypherEngine::plan`, off the measured path (0 for
    /// multi-clause items).
    pub plan: f64,
    /// `GraphSnapshot::attach`.
    pub attach: f64,
    /// From the start of `run` to the start of execution.
    pub parse: f64,
    /// The engine's execution, from its start to the query log.
    pub execute: f64,
    /// Stage intervals inside the execution.
    pub stages: Vec<f64>,
    /// From the query log to the end of `run`.
    pub materialize: f64,
    /// Result rows.
    pub rows: usize,
    /// Records produced by the stages.
    pub records_out: u64,
    /// Bytes the stages shuffled.
    pub bytes_shuffled: u64,
    /// Largest per-stage peak of transient operator state.
    pub peak_memory_bytes: u64,
    /// Morsels the stages executed.
    pub morsels: u64,
    /// Column-major batches the stages processed.
    pub batches: u64,
    /// Whether the result matched the oracle.
    pub correct: bool,
}

impl TracedQuery {
    /// Sum of the stage intervals.
    pub fn stage_total(&self) -> f64 {
        self.stages.iter().sum()
    }

    /// Time of the measured path that named layers account for: attach,
    /// parse, the dataflow stages and materialization.
    pub fn named(&self) -> f64 {
        self.attach + self.parse + self.stage_total() + self.materialize
    }
}

/// The engines one traced client drives.
pub struct Tracer<'a> {
    snapshot: &'a GraphSnapshot,
    /// No plan cache: every `plan` call plans from scratch.
    cold: CypherEngine,
    /// Built like the server's engine, with a plan cache of its own.
    warm: CypherEngine,
    log: Arc<LogSink>,
    matching: MatchingConfig,
}

impl<'a> Tracer<'a> {
    /// Engines over `snapshot`'s statistics.
    pub fn new(snapshot: &'a GraphSnapshot) -> Self {
        let log = Arc::new(LogSink::default());
        let statistics = snapshot.statistics().clone();
        Tracer {
            snapshot,
            cold: CypherEngine::with_statistics(statistics.clone()).with_query_log(log.clone()),
            warm: CypherEngine::with_statistics(statistics)
                .with_plan_cache(Arc::new(PlanCache::new(DEFAULT_PLAN_CAPACITY)))
                .with_query_log(log.clone()),
            log,
            matching: MatchingConfig::cypher_default(),
        }
    }

    /// Runs `item` with a [`StageSink`] installed when `traced`, returning
    /// its breakdown. Untraced runs leave `stages` empty.
    pub fn run(
        &self,
        index: usize,
        item: &Item,
        expected: &Expected,
        traced: bool,
    ) -> Result<TracedQuery, String> {
        let fail = |layer: &str, error: String| format!("{} {layer}: {error}", item.label);
        let mut query = TracedQuery {
            item: index,
            ..TracedQuery::default()
        };
        if item.simple {
            let timer = Instant::now();
            self.cold
                .plan(&item.text, &item.params)
                .map_err(|e| fail("plan", e.to_string()))?;
            query.plan = timer.elapsed().as_secs_f64();
            self.log.take();
        }

        let started = Instant::now();
        let (env, graph) = self.snapshot.attach();
        let sink = Arc::new(StageSink::default());
        if traced {
            env.set_trace_sink(Some(sink.clone()));
        }
        let attached = Instant::now();
        let table = self
            .warm
            .run(&graph, &item.text, &item.params, self.matching)
            .map_err(|e| fail("run", e.to_string()))?;
        let finished = Instant::now();
        env.set_trace_sink(None);
        query.rows = table.rows.len();
        query.correct = expected.matches_table(&table);
        let (logged, execute) = self
            .log
            .take()
            .ok_or_else(|| fail("run", "no query log record".to_string()))?;
        let executing = logged
            .checked_sub(Duration::from_secs_f64(execute))
            .unwrap_or(attached)
            .max(attached);

        query.total = (finished - started).as_secs_f64();
        query.attach = (attached - started).as_secs_f64();
        query.parse = (executing - attached).as_secs_f64();
        query.execute = (logged - executing).as_secs_f64();
        query.materialize = (finished - logged).as_secs_f64();
        let mut previous = executing;
        for event in sink.take() {
            if event.at > logged {
                continue;
            }
            query.stages.push((event.at - previous).as_secs_f64());
            previous = event.at;
            query.records_out += event.records_out;
            query.bytes_shuffled += event.bytes_shuffled;
            query.peak_memory_bytes = query.peak_memory_bytes.max(event.peak_memory_bytes);
            query.morsels += event.morsels;
            query.batches += event.batches;
        }
        Ok(query)
    }
}

/// The traced and untraced queries of one client.
#[derive(Debug, Default)]
pub struct ClientTrace {
    /// Traced queries, in run order.
    pub traced: Vec<TracedQuery>,
    /// Untraced queries, in run order.
    pub untraced: Vec<TracedQuery>,
    /// Queries run, the warm-up rotation included.
    pub attempted: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries whose result differed from the oracle.
    pub mismatches: u64,
}

/// Alternates traced and untraced rotations until `until`, after one
/// untraced rotation that warms the plan cache. Every client has engines
/// of its own and starts at a different rotation offset.
pub fn trace_client(
    snapshot: &GraphSnapshot,
    items: &[Item],
    expected: &[Expected],
    offset: usize,
    until: Instant,
) -> ClientTrace {
    let tracer = Tracer::new(snapshot);
    let mut client = ClientTrace::default();
    let rotation = |traced: bool, keep: bool, client: &mut ClientTrace| {
        for step in 0..items.len() {
            let index = (offset + step) % items.len();
            client.attempted += 1;
            match tracer.run(index, &items[index], &expected[index], traced) {
                Ok(query) => {
                    client.mismatches += u64::from(!query.correct);
                    match (keep, traced) {
                        (true, true) => client.traced.push(query),
                        (true, false) => client.untraced.push(query),
                        (false, _) => {}
                    }
                }
                Err(error) => {
                    eprintln!("traced query failed: {error}");
                    client.errors += 1;
                }
            }
        }
    };
    rotation(false, false, &mut client);
    loop {
        rotation(true, true, &mut client);
        rotation(false, true, &mut client);
        if Instant::now() >= until {
            return client;
        }
    }
}
