//! Wall-clock benchmark of the Cypher engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--persons <n>]
//! ```
//!
//! Generates an LDBC graph from `--seed`, sets the query server up over it
//! (several times; the median is `setup_s`), computes the result oracle,
//! and then runs closed-loop clients over the fixed 18-item rotation for
//! `--seconds`. With `--trace 0` it reports the end-to-end metrics of the
//! served queries; with `--trace 1` it reports per-layer metrics from a
//! traced run that calls each layer's entry point directly. The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--persons` overrides the workload's graph size (the self-test uses it).

mod dataset;
mod oracle;
mod rotation;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gradoop_core::{PlanCacheStats, TableResult};
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{GradoopId, GraphHead, GraphStatistics, LogicalGraph, Properties};
use gradoop_ldbc::{generate, pick_names, LdbcConfig, SelectivityNames};
use gradoop_server::{GraphSnapshot, QueryServer, ServerConfig, ServerError};

use oracle::Expected;
use rotation::{Group, Item};
use stats::{mean, median, quantile};
use trace::TracedQuery;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// LDBC persons; everything else in the graph scales from it.
    persons: usize,
    /// Simulated workers (partitions per dataset).
    workers: usize,
    /// Closed-loop client threads.
    clients: usize,
    /// Per-query deadline; `DeadlineSink` is installed on every query.
    deadline: Option<Duration>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oltp-s200",
        persons: 200,
        workers: 4,
        clients: 1,
        deadline: None,
    },
    Workload {
        name: "olap-s1500",
        persons: 1500,
        workers: 2,
        clients: 1,
        deadline: None,
    },
    Workload {
        name: "server-s200-c2",
        persons: 200,
        workers: 4,
        clients: 2,
        deadline: Some(Duration::from_secs(1)),
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Untimed serving before measurement starts, so allocator pools and
/// caches have grown to their working size: a tenth of the measured time,
/// at most this many seconds, and at least one rotation.
const WARM_UP_SECONDS: f64 = 3.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    persons: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut persons = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|e| format!("{what} `{value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number("seed")?),
            "--seconds" => seconds = Some(number("seconds")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            "--persons" => persons = Some(number("persons")? as usize),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload: &'static Workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let persons = persons.unwrap_or(workload.persons);
    if persons < 10 {
        return Err("--persons must be at least 10".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        persons,
    })
}

/// One set-up of the server.
struct SetUp {
    server: Arc<QueryServer>,
    names: SelectivityNames,
    times: SetUpTimes,
}

/// Timings of one set-up; the traced run also times its layers apart.
struct SetUpTimes {
    /// Generation, `GraphSnapshot::of` and server construction.
    seconds: f64,
    /// `generate` plus building the logical graph.
    generate: f64,
    /// `LogicalGraph::to_indexed` alone (traced runs only).
    index: f64,
    /// `GraphStatistics::of` alone (traced runs only).
    statistics: f64,
}

fn set_up(args: &Args, generator_seed: u64) -> SetUp {
    let started = Instant::now();
    let data = generate(&LdbcConfig::with_persons(args.persons).seed(generator_seed));
    let names = pick_names(&data);
    let env = ExecutionEnvironment::with_workers(args.workload.workers);
    let head = GraphHead::new(GradoopId(0), "LdbcSocialNetwork", Properties::new());
    let graph = LogicalGraph::from_data(&env, head, data.vertices, data.edges);
    let generate = started.elapsed().as_secs_f64();
    let (mut index, mut statistics) = (0.0, 0.0);
    if args.trace {
        let timer = Instant::now();
        std::hint::black_box(graph.to_indexed());
        index = timer.elapsed().as_secs_f64();
        let timer = Instant::now();
        std::hint::black_box(GraphStatistics::of(&graph));
        statistics = timer.elapsed().as_secs_f64();
    }
    let timer = Instant::now();
    let server = QueryServer::new(
        GraphSnapshot::of(graph),
        ServerConfig {
            default_deadline: args.workload.deadline,
            ..ServerConfig::default()
        },
    );
    SetUp {
        server,
        names,
        times: SetUpTimes {
            seconds: generate + timer.elapsed().as_secs_f64(),
            generate,
            index,
            statistics,
        },
    }
}

/// Failures of served queries, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Failures {
    errors: u64,
    rejected: u64,
    deadline: u64,
    mismatches: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.errors + self.rejected + self.deadline + self.mismatches
    }

    fn add(&mut self, other: &Failures) {
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.deadline += other.deadline;
        self.mismatches += other.mismatches;
    }

    fn record(&mut self, outcome: &Result<TableResult, ServerError>, expected: &Expected) {
        match outcome {
            Ok(table) if expected.matches_table(table) => {}
            Ok(_) => self.mismatches += 1,
            Err(ServerError::Overloaded(_)) => self.rejected += 1,
            Err(ServerError::DeadlineExceeded(_)) => self.deadline += 1,
            Err(ServerError::Query(_)) => self.errors += 1,
        }
    }
}

/// What the served clients measured.
struct Served {
    /// Latency samples in seconds, per rotation item.
    latencies: Vec<Vec<f64>>,
    attempted: u64,
    failures: Failures,
    /// Wall seconds from the clients' start to the last one's end.
    elapsed: f64,
    /// High-water mark of the resident set size while serving, in kB.
    peak_rss_kb: u64,
    /// CPU seconds the whole process spent while serving, all threads.
    cpu: f64,
    /// Sum of `QueryLogRecord::wall_seconds` over the served queries.
    log_wall: f64,
    /// Served queries whose log record carries no plan-cache status.
    uncached: u64,
}

impl Served {
    fn empty(items: usize) -> Self {
        Served {
            latencies: vec![Vec::new(); items],
            attempted: 0,
            failures: Failures::default(),
            elapsed: 0.0,
            peak_rss_kb: 0,
            cpu: 0.0,
            log_wall: 0.0,
            uncached: 0,
        }
    }
}

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (in units of 1/100 s on Linux).
fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Resets the high-water mark of this process's resident set size to its
/// current size (`/proc/self/clear_refs`, Linux 4.0 and later).
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the resident set high-water mark: {e}"))
}

/// High-water mark of this process's resident set size in kB since the
/// last [`reset_peak_rss`], from `/proc/self/status`.
fn peak_rss_kb() -> Result<u64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// Runs `clients` closed-loop clients over the rotation until `seconds`
/// have passed, each finishing the rotation it is in. Client `c` starts at
/// item `c · 18 / clients`, so concurrent clients run different queries.
/// The resident set's high-water mark is reset at the start, so the peak
/// covers serving alone.
fn serve(
    server: &Arc<QueryServer>,
    items: &[Item],
    expected: &[Expected],
    clients: usize,
    seconds: f64,
) -> Result<Served, String> {
    server.query_log().drain();
    reset_peak_rss()?;
    let cpu_before = process_cpu_seconds();
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let session = server.session();
                    let offset = client * items.len() / clients;
                    let mut mine = Served::empty(items.len());
                    loop {
                        for step in 0..items.len() {
                            let index = (offset + step) % items.len();
                            let item = &items[index];
                            let timer = Instant::now();
                            let outcome = session.query(&item.text, &item.params);
                            let latency = timer.elapsed().as_secs_f64();
                            mine.attempted += 1;
                            if outcome.is_ok() {
                                mine.latencies[index].push(latency);
                            }
                            mine.failures.record(&outcome, &expected[index]);
                        }
                        for record in server.query_log().drain() {
                            mine.log_wall += record.wall_seconds;
                            mine.uncached += u64::from(record.plan_cache.is_none());
                        }
                        if Instant::now() >= until {
                            return mine;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let mut served = Served::empty(items.len());
    served.elapsed = started.elapsed().as_secs_f64();
    served.cpu = process_cpu_seconds() - cpu_before;
    served.peak_rss_kb = peak_rss_kb()?;
    for client in per_client {
        for (all, mine) in served.latencies.iter_mut().zip(client.latencies) {
            all.extend(mine);
        }
        served.failures.add(&client.failures);
        served.attempted += client.attempted;
        served.log_wall += client.log_wall;
        served.uncached += client.uncached;
    }
    Ok(served)
}

/// Serves rotations through one session for `seconds`, checking every
/// result against the oracle. Returns the first rotation's simulated
/// seconds and the number of queries run.
fn warm_up(
    server: &Arc<QueryServer>,
    items: &[Item],
    expected: &[Expected],
    seconds: f64,
    failures: &mut Failures,
) -> (f64, u64) {
    server.query_log().drain();
    let session = server.session();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut simulated = None;
    let mut queries = 0;
    while simulated.is_none() || Instant::now() < until {
        for (item, expected) in items.iter().zip(expected) {
            failures.record(&session.query(&item.text, &item.params), expected);
        }
        queries += items.len() as u64;
        let records = server.query_log().drain();
        simulated.get_or_insert(records.iter().map(|r| r.simulated_seconds).sum());
    }
    (simulated.unwrap_or_default(), queries)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// The median of each rotation item's samples.
fn item_medians(latencies: &[Vec<f64>]) -> Vec<f64> {
    latencies.iter().map(|samples| median(samples)).collect()
}

/// Mean over a group's items of a per-item figure.
fn group_mean(items: &[Item], per_item: &[f64], group: Group) -> f64 {
    let values: Vec<f64> = items
        .iter()
        .zip(per_item)
        .filter(|(item, _)| item.group == group)
        .map(|(_, value)| *value)
        .collect();
    mean(&values)
}

fn end_to_end(items: &[Item], served: &Served, setup_s: f64, simulated_s: f64) -> Metrics {
    let all: Vec<f64> = served.latencies.iter().flatten().copied().collect();
    let medians = item_medians(&served.latencies);
    let mut metrics: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("qps".into(), all.len() as f64 / served.elapsed, "1/s"),
        // The median of the item medians, not of the pooled samples: with
        // 18 equally weighted items the pooled median sits between two
        // items' latency clusters and jumps from one to the other.
        ("latency_p50_ms".into(), ms(median(&medians)), "ms"),
        ("latency_p95_ms".into(), ms(quantile(&all, 0.95)), "ms"),
        (
            "cpu_ms_per_query".into(),
            ms(served.cpu / served.attempted as f64),
            "ms",
        ),
    ];
    for group in Group::all() {
        let name = match group {
            Group::Ldbc(_) => format!("{}_p50_ms", group.key()),
            Group::MultiClause => "multi_clause_p50_ms".to_string(),
        };
        metrics.push((name, ms(group_mean(items, &medians, group)), "ms"));
    }
    metrics.push(("simulated_s".into(), simulated_s, "s"));
    metrics.push((
        "peak_rss_mb".into(),
        served.peak_rss_kb as f64 / 1024.0,
        "MB",
    ));
    metrics
}

/// Per-layer metrics of a traced run.
struct LayerInputs<'a> {
    items: &'a [Item],
    setups: &'a [SetUpTimes],
    served: &'a Served,
    plan_cache: PlanCacheStats,
    traced: &'a [TracedQuery],
    untraced: &'a [TracedQuery],
    /// The first complete traced rotation, for exact per-rotation counts.
    first_rotation: &'a [TracedQuery],
}

fn per_layer(inputs: &LayerInputs) -> Metrics {
    let items = inputs.items;
    let setup_median = |field: fn(&SetUpTimes) -> f64| {
        median(&inputs.setups.iter().map(field).collect::<Vec<_>>())
    };
    // Per-item medians of a field over traced (or untraced) queries.
    let per_item = |queries: &[TracedQuery], field: fn(&TracedQuery) -> f64| {
        let mut values = vec![Vec::new(); items.len()];
        for query in queries {
            values[query.item].push(field(query));
        }
        item_medians(&values)
    };
    let medians = |field: fn(&TracedQuery) -> f64| per_item(inputs.traced, field);
    let simple_mean = |per_item: &[f64]| {
        let values: Vec<f64> = items
            .iter()
            .zip(per_item)
            .filter(|(item, _)| item.simple)
            .map(|(_, value)| *value)
            .collect();
        mean(&values)
    };
    let intervals: Vec<f64> = inputs
        .traced
        .iter()
        .flat_map(|q| q.stages.iter().copied())
        .collect();
    let coverage = |queries: &mut dyn Iterator<Item = &TracedQuery>| {
        let (named, total) = queries.fold((0.0, 0.0), |(n, t), q| (n + q.named(), t + q.total));
        named / total
    };
    let untraced = per_item(inputs.untraced, |q| q.total);
    let traced_total = medians(|q| q.total);
    let first = inputs.first_rotation;
    let sum = |field: fn(&TracedQuery) -> u64| first.iter().map(field).sum::<u64>() as f64;
    let served = inputs.served;
    let served_queries: usize = served.latencies.iter().map(Vec::len).sum();
    let served_latency: f64 = served.latencies.iter().flatten().sum();

    let mut metrics: Metrics = vec![
        ("ldbc.generate_s".into(), setup_median(|s| s.generate), "s"),
        ("epgm.index_s".into(), setup_median(|s| s.index), "s"),
        (
            "epgm.statistics_s".into(),
            setup_median(|s| s.statistics),
            "s",
        ),
        (
            "cypher.parse_ms".into(),
            ms(mean(&medians(|q| q.parse))),
            "ms",
        ),
        (
            "planner.plan_ms".into(),
            ms(simple_mean(&medians(|q| q.plan))),
            "ms",
        ),
        (
            "plancache.hit_rate".into(),
            inputs.plan_cache.hit_rate(),
            "share",
        ),
        (
            "plancache.misses".into(),
            inputs.plan_cache.misses as f64,
            "count",
        ),
        (
            "plancache.evictions".into(),
            inputs.plan_cache.evictions as f64,
            "count",
        ),
        (
            "plancache.uncached_share".into(),
            served.uncached as f64 / served_queries.max(1) as f64,
            "share",
        ),
        (
            "dataflow.stages".into(),
            first.iter().map(|q| q.stages.len()).sum::<usize>() as f64,
            "count",
        ),
        ("dataflow.stage_ms_p50".into(), ms(median(&intervals)), "ms"),
        (
            "dataflow.stage_ms_total".into(),
            ms(mean(&medians(|q| q.stage_total()))),
            "ms",
        ),
        (
            "dataflow.records_out".into(),
            sum(|q| q.records_out),
            "count",
        ),
        (
            "dataflow.bytes_shuffled".into(),
            sum(|q| q.bytes_shuffled),
            "bytes",
        ),
        (
            "dataflow.peak_memory_bytes".into(),
            first.iter().map(|q| q.peak_memory_bytes).max().unwrap_or(0) as f64,
            "bytes",
        ),
        ("dataflow.morsels".into(), sum(|q| q.morsels), "count"),
        ("dataflow.batches".into(), sum(|q| q.batches), "count"),
        (
            "executor.execute_ms".into(),
            ms(mean(&medians(|q| q.execute))),
            "ms",
        ),
        (
            "result.materialize_ms".into(),
            ms(simple_mean(&medians(|q| q.materialize))),
            "ms",
        ),
        (
            "result.rows".into(),
            first.iter().map(|q| q.rows).sum::<usize>() as f64,
            "count",
        ),
        (
            "server.overhead_ms".into(),
            ms((served_latency - served.log_wall) / served_queries.max(1) as f64),
            "ms",
        ),
        (
            "breakdown.coverage".into(),
            coverage(&mut inputs.traced.iter()),
            "share",
        ),
        (
            "tracing.overhead_share".into(),
            mean(&traced_total) / mean(&untraced) - 1.0,
            "share",
        ),
    ];
    let stage_total = medians(|q| q.stage_total());
    let execute_self = medians(|q| q.execute - q.stage_total());
    let materialize = medians(|q| q.materialize);
    for group in Group::all() {
        let key = group.key();
        metrics.push((
            format!("{key}.coverage"),
            coverage(
                &mut inputs
                    .traced
                    .iter()
                    .filter(|q| items[q.item].group == group),
            ),
            "share",
        ));
        metrics.push((
            format!("{key}.stages_ms"),
            ms(group_mean(items, &stage_total, group)),
            "ms",
        ));
        metrics.push((
            format!("{key}.execute_self_ms"),
            ms(group_mean(items, &execute_self, group)),
            "ms",
        ));
        metrics.push((
            format!("{key}.materialize_ms"),
            ms(group_mean(items, &materialize, group)),
            "ms",
        ));
    }
    metrics
}

/// The last line of standard output.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    println!(
        "workload {} seed {} persons {} workers {} clients {} seconds {} trace {} cores {}",
        workload.name,
        args.seed,
        args.persons,
        workload.workers,
        workload.clients,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (generator_seed, candidates) = dataset::generator_seed(args.seed, args.persons)?;
    // Each set-up replaces the previous one, so only one server is alive.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = set_up(args, generator_seed);
    for _ in 1..SETUPS {
        setups.push(last.times);
        drop(last.server);
        last = set_up(args, generator_seed);
    }
    setups.push(last.times);
    let setup_s = median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let server = last.server;
    let graph = server.snapshot().graph();
    println!(
        "generator seed {generator_seed} ({candidates} candidates); graph {} vertices {} edges; \
         names high={} medium={} low={}",
        graph.vertex_count(),
        graph.edge_count(),
        last.names.high,
        last.names.medium,
        last.names.low
    );
    let items = rotation::rotation(&last.names);

    let expected = oracle::expected_results(&items, graph, args.persons)?;
    for (item, expected) in items.iter().zip(&expected) {
        println!(
            "  oracle {:<10} {:?} {:.3}s, {} rows",
            item.label, expected.source, expected.seconds, expected.rows
        );
    }

    let mut failures = Failures::default();
    let warm_up_seconds = (args.seconds / 10.0).min(WARM_UP_SECONDS);
    let (simulated_s, mut attempted) =
        warm_up(&server, &items, &expected, warm_up_seconds, &mut failures);

    let metrics = if args.trace {
        let served = serve(
            &server,
            &items,
            &expected,
            workload.clients,
            args.seconds / 3.0,
        )?;
        attempted += served.attempted;
        failures.add(&served.failures);
        let plan_cache = server.stats().plan_cache;
        let until = Instant::now() + Duration::from_secs_f64(args.seconds * 2.0 / 3.0);
        let clients: Vec<trace::ClientTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workload.clients)
                .map(|client| {
                    let (snapshot, items, expected) = (server.snapshot(), &items, &expected);
                    let offset = client * items.len() / workload.clients;
                    scope.spawn(move || {
                        trace::trace_client(snapshot, items, expected, offset, until)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("traced client panicked"))
                .collect()
        });
        let traced: Vec<TracedQuery> = clients.iter().flat_map(|c| c.traced.clone()).collect();
        let untraced: Vec<TracedQuery> = clients.iter().flat_map(|c| c.untraced.clone()).collect();
        for client in &clients {
            attempted += client.attempted;
            failures.errors += client.errors;
            failures.mismatches += client.mismatches;
        }
        let first_rotation = clients[0]
            .traced
            .get(..items.len())
            .ok_or("the first traced rotation did not complete")?;
        per_layer(&LayerInputs {
            items: &items,
            setups: &setups,
            served: &served,
            plan_cache,
            traced: &traced,
            untraced: &untraced,
            first_rotation,
        })
    } else {
        let served = serve(&server, &items, &expected, workload.clients, args.seconds)?;
        attempted += served.attempted;
        failures.add(&served.failures);
        let medians = item_medians(&served.latencies);
        for (item, median) in items.iter().zip(&medians) {
            println!("  {:<10} p50 {:>9.3} ms", item.label, ms(*median));
        }
        end_to_end(&items, &served, setup_s, simulated_s)
    };

    println!(
        "failed_share {} (errors {}, rejected {}, deadline {}, mismatches {}) of {} attempted",
        failures.total() as f64 / attempted as f64,
        failures.errors,
        failures.rejected,
        failures.deadline,
        failures.mismatches,
        attempted
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
    }
    println!(
        "{}",
        result_json(
            failures.mismatches == 0,
            attempted,
            failures.total(),
            &metrics
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--persons <n>]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
