//! The always-on query event log.
//!
//! Every query the [`CypherEngine`](crate::CypherEngine) runs — successful,
//! rejected at parse/plan time, or failed at runtime — produces one
//! structured [`QueryLogRecord`], delivered to a pluggable
//! [`QueryLogSink`]. Records carry everything a fleet-level dashboard
//! needs to aggregate query behaviour without access to the data:
//!
//! * a **query-shape fingerprint**: the query text with literals
//!   normalized away plus a stable 64-bit hash of that shape, so repeated
//!   parameterizations of the same pattern group together;
//! * a **plan digest**: a stable hash of the annotated plan tree, so plan
//!   changes (statistics drift, optimizer changes) are visible as digest
//!   changes for an unchanged fingerprint;
//! * per-operator rows/bytes, the estimate-vs-actual q-error,
//!   recovery/steal counters, and both wall-clock and simulated time;
//! * the [`QueryOutcome`]: `ok`, `error` (parse/plan rejection) or
//!   `faulted` (runtime failure after retry exhaustion).
//!
//! The engine defaults to the process-wide [`global_query_log`] (an
//! in-memory ring of recent records); install a [`JsonlQueryLog`] via
//! [`CypherEngine::with_query_log`](crate::CypherEngine::with_query_log)
//! to stream records to a JSONL file.

use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use gradoop_dataflow::{JsonValue, SpanRecord, StageReport, TraceSink};

use crate::observe::{Profile, ProfileNode};

/// How a query run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query executed and returned a result.
    Ok,
    /// The query was rejected before execution (parse, query-graph or
    /// planning error).
    Error,
    /// Execution started but failed at runtime (fault-tolerance budget
    /// exhausted); no result was returned.
    Faulted,
}

impl QueryOutcome {
    /// Stable lower-case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Error => "error",
            QueryOutcome::Faulted => "faulted",
        }
    }
}

/// Rows and bytes produced by one operator (or dataflow stage) of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorLogEntry {
    /// Operator or stage label.
    pub name: String,
    /// Rows produced.
    pub rows_out: u64,
    /// Bytes produced (embedding bytes for profiled operators, shuffled
    /// bytes for raw stages).
    pub bytes: u64,
}

/// One structured record of the query event log.
#[derive(Debug, Clone)]
pub struct QueryLogRecord {
    /// The raw query text.
    pub query: String,
    /// The query text with literals normalized away (see
    /// [`normalize_query_shape`]).
    pub shape: String,
    /// Stable 64-bit FNV-1a hash of [`shape`](QueryLogRecord::shape), hex.
    pub fingerprint: String,
    /// Stable hash of the annotated plan tree, hex. Empty when planning
    /// failed before a plan existed.
    pub plan_digest: String,
    /// `Some("hit")`/`Some("miss")` when the engine consulted a
    /// [`PlanCache`](crate::plancache::PlanCache) for this run; `None`
    /// when no cache was installed (or the run took the pipeline path,
    /// which plans per stage and is not cached).
    pub plan_cache: Option<&'static str>,
    /// How the run ended.
    pub outcome: QueryOutcome,
    /// Human-readable error when `outcome != Ok`.
    pub error: Option<String>,
    /// Final match count (0 unless `outcome == Ok`).
    pub matches: u64,
    /// Wall-clock seconds from plan to result.
    pub wall_seconds: f64,
    /// Simulated seconds charged by the run.
    pub simulated_seconds: f64,
    /// Per-operator rows/bytes (stage-level for plain `execute`,
    /// operator-level for `profile`).
    pub operators: Vec<OperatorLogEntry>,
    /// Worst estimate-vs-actual q-error observed (1.0 when unknown).
    pub max_q_error: f64,
    /// Recovery attempts consumed by the run.
    pub recovery_attempts: u64,
    /// Morsels that ran on a worker other than their partition's owner.
    pub stolen_morsels: u64,
    /// Peak transient bytes on the most loaded worker.
    pub peak_memory_bytes: u64,
}

impl QueryLogRecord {
    /// The record as a JSON document (one JSONL line when compacted).
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("query", JsonValue::string(self.query.clone())),
            ("shape", JsonValue::string(self.shape.clone())),
            ("fingerprint", JsonValue::string(self.fingerprint.clone())),
            ("plan_digest", JsonValue::string(self.plan_digest.clone())),
            ("outcome", JsonValue::string(self.outcome.name())),
        ];
        if let Some(plan_cache) = self.plan_cache {
            pairs.push(("plan_cache", JsonValue::string(plan_cache)));
        }
        if let Some(error) = &self.error {
            pairs.push(("error", JsonValue::string(error.clone())));
        }
        pairs.push(("matches", JsonValue::Number(self.matches as f64)));
        pairs.push(("wall_seconds", JsonValue::Number(self.wall_seconds)));
        pairs.push((
            "simulated_seconds",
            JsonValue::Number(self.simulated_seconds),
        ));
        pairs.push(("max_q_error", JsonValue::Number(self.max_q_error)));
        pairs.push((
            "recovery_attempts",
            JsonValue::Number(self.recovery_attempts as f64),
        ));
        pairs.push((
            "stolen_morsels",
            JsonValue::Number(self.stolen_morsels as f64),
        ));
        pairs.push((
            "peak_memory_bytes",
            JsonValue::Number(self.peak_memory_bytes as f64),
        ));
        pairs.push((
            "operators",
            JsonValue::Array(
                self.operators
                    .iter()
                    .map(|op| {
                        JsonValue::object(vec![
                            ("name", JsonValue::string(op.name.clone())),
                            ("rows_out", JsonValue::Number(op.rows_out as f64)),
                            ("bytes", JsonValue::Number(op.bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        JsonValue::object(pairs)
    }

    /// The record as one compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json_value().to_json()
    }
}

/// Receiver for query log records. Implementations must be thread-safe.
pub trait QueryLogSink: Send + Sync {
    /// Called once per finished (or rejected) query.
    fn log(&self, record: &QueryLogRecord);
}

/// Maximum records the in-memory log retains (oldest evicted first).
pub const MEMORY_LOG_CAPACITY: usize = 1024;

/// A [`QueryLogSink`] that buffers the most recent records in memory —
/// the engine's always-on default.
#[derive(Default)]
pub struct MemoryQueryLog {
    records: Mutex<Vec<QueryLogRecord>>,
}

impl MemoryQueryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        MemoryQueryLog::default()
    }

    /// The retained records, recovered if a panicking thread poisoned the
    /// lock: the log outlives every query, and a record is pushed whole or
    /// not at all, so one panic must not fail every later query.
    fn records(&self) -> MutexGuard<'_, Vec<QueryLogRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryLogRecord> {
        self.records().clone()
    }

    /// Removes and returns the retained records, oldest first.
    pub fn drain(&self) -> Vec<QueryLogRecord> {
        std::mem::take(&mut *self.records())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueryLogSink for MemoryQueryLog {
    fn log(&self, record: &QueryLogRecord) {
        let mut records = self.records();
        if records.len() >= MEMORY_LOG_CAPACITY {
            records.remove(0);
        }
        records.push(record.clone());
    }
}

/// A [`QueryLogSink`] that appends one JSONL line per record to a file.
/// Write errors are swallowed: telemetry must never fail a query.
pub struct JsonlQueryLog {
    file: Mutex<std::fs::File>,
}

impl JsonlQueryLog {
    /// Opens (creating or appending to) the JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlQueryLog {
            file: Mutex::new(file),
        })
    }
}

impl QueryLogSink for JsonlQueryLog {
    fn log(&self, record: &QueryLogRecord) {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(file, "{}", record.to_jsonl());
    }
}

/// The process-wide default query log every engine reports into unless
/// [`CypherEngine::with_query_log`](crate::CypherEngine::with_query_log)
/// installs another sink.
pub fn global_query_log() -> Arc<MemoryQueryLog> {
    static GLOBAL: OnceLock<Arc<MemoryQueryLog>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Arc::new(MemoryQueryLog::new()))
        .clone()
}

/// A [`TraceSink`] that forwards every event to an optional downstream
/// sink *and* a collector — how the engine observes per-stage rows/bytes
/// for the query log without clobbering a user-installed sink.
pub struct TeeSink {
    downstream: Option<Arc<dyn TraceSink>>,
    collector: Arc<dyn TraceSink>,
}

impl TeeSink {
    /// Creates a tee over `downstream` (kept, may be `None`) and
    /// `collector` (always fed).
    pub fn new(downstream: Option<Arc<dyn TraceSink>>, collector: Arc<dyn TraceSink>) -> Self {
        TeeSink {
            downstream,
            collector,
        }
    }
}

impl TraceSink for TeeSink {
    fn on_stage(&self, report: &StageReport) {
        if let Some(downstream) = &self.downstream {
            downstream.on_stage(report);
        }
        self.collector.on_stage(report);
    }

    fn on_span(&self, span: &SpanRecord) {
        if let Some(downstream) = &self.downstream {
            downstream.on_span(span);
        }
        self.collector.on_span(span);
    }
}

/// Replaces string, numeric and `$parameter` literals with `?` and
/// collapses whitespace, so the same query shape fingerprints identically
/// across parameterizations: `MATCH (a {age: 42})`, `MATCH (a {age: 7})`
/// and `MATCH (a {age: $a})` all normalize to the same text — the property
/// a plan cache keyed on the fingerprint needs to hit across users
/// regardless of whether they inline values or bind parameters.
///
/// Numeric literals cover every spelling the lexer accepts: integers,
/// floats, leading-dot floats (`.5`) and scientific notation with an
/// optional exponent sign (`1e9`, `1.5E+10`). Range bounds of
/// variable-length paths normalize one placeholder per bound (`*1..10` →
/// `*?..?`), never swallowing the `..` operator.
pub fn normalize_query_shape(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    let mut chars = query.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        match c {
            '\'' | '"' => {
                // Quoted string literal: skip to the matching quote,
                // honouring backslash escapes.
                while let Some(&next) = chars.peek() {
                    chars.next();
                    if next == '\\' {
                        chars.next();
                    } else if next == c {
                        break;
                    }
                }
                out.push('?');
            }
            '$' => {
                // `$name` parameter: one placeholder, same as an inline
                // literal in that position, so parameterized and literal
                // spellings of a shape share a fingerprint.
                let mut consumed = false;
                while let Some(&next) = chars.peek() {
                    if next.is_ascii_alphanumeric() || next == '_' {
                        chars.next();
                        consumed = true;
                    } else {
                        break;
                    }
                }
                out.push(if consumed { '?' } else { c });
            }
            '0'..='9' => {
                // Numeric literal (possibly float). Identifier-embedded
                // digits are kept: only a digit starting a token counts.
                let prev = out.chars().last();
                let in_identifier =
                    matches!(prev, Some(p) if p.is_ascii_alphanumeric() || p == '_');
                if in_identifier {
                    out.push(c);
                } else {
                    consume_number_tail(&mut chars);
                    out.push('?');
                }
            }
            '.' => {
                // Leading-dot float (`.5`): a literal only when the dot
                // starts a token — after an identifier it is property
                // access, after another dot it is the `..` range operator.
                let prev = out.chars().last();
                let starts_token = !matches!(
                    prev,
                    Some(p) if p.is_ascii_alphanumeric() || p == '_' || p == '.'
                );
                if starts_token && chars.peek().is_some_and(char::is_ascii_digit) {
                    consume_number_tail(&mut chars);
                    out.push('?');
                } else {
                    out.push(c);
                }
            }
            _ => out.push(c),
        }
    }
    collapse_list_literals(&out)
}

/// Consumes the remainder of a numeric literal whose first character was
/// already taken: digits, a fractional part, and an optional exponent with
/// sign. Stops before a `..` so range bounds stay separate tokens.
fn consume_number_tail(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    let mut seen_dot = false;
    while let Some(&next) = chars.peek() {
        if next.is_ascii_digit() {
            chars.next();
        } else if next == '.' && !seen_dot {
            // Peek past the dot without consuming: `1..5` must leave
            // the range operator intact, so only a `.` followed by a
            // digit extends the literal.
            let mut ahead = chars.clone();
            ahead.next();
            if ahead.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
                seen_dot = true;
            } else {
                break;
            }
        } else if next == 'e' || next == 'E' {
            // Exponent: `e` / `E`, optional sign, at least one digit.
            // Anything else means the `e` starts an identifier (`1em`
            // cannot occur in valid Cypher, but stay conservative).
            let mut ahead = chars.clone();
            ahead.next();
            let after = ahead.peek().copied();
            let signed = matches!(after, Some('+') | Some('-'));
            if signed {
                ahead.next();
            }
            if ahead.peek().is_some_and(char::is_ascii_digit) {
                chars.next(); // e
                if signed {
                    chars.next(); // sign
                }
                while chars.peek().is_some_and(char::is_ascii_digit) {
                    chars.next();
                }
            }
            break;
        } else {
            break;
        }
    }
}

/// Collapses normalized literal *lists* (`[?, ?, ?]` from `[1, 2, 3]`) to a
/// single `[?]` placeholder, so `UNWIND [1, 2]` and `UNWIND [7, 8, 9]`
/// share one fingerprint regardless of list length. Only runs inside
/// square brackets: `RETURN ?, ?` (two projection items) and `RETURN ?`
/// (one) must keep distinct shapes — the old text-global collapse conflated
/// them and collided distinct plans in the cache.
fn collapse_list_literals(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            // Scan ahead: does this bracket hold only `?` placeholders
            // separated by commas (whitespace allowed)?
            let mut j = i + 1;
            let mut placeholders = 0usize;
            let mut expect_placeholder = true;
            let mut collapsible = false;
            while j < bytes.len() {
                match bytes[j] {
                    b' ' => {}
                    b'?' if expect_placeholder => {
                        placeholders += 1;
                        expect_placeholder = false;
                    }
                    b',' if !expect_placeholder => expect_placeholder = true,
                    b']' if !expect_placeholder && placeholders > 0 => {
                        collapsible = true;
                        break;
                    }
                    _ => break,
                }
                j += 1;
            }
            if collapsible {
                out.push_str("[?]");
                i = j + 1;
                continue;
            }
        }
        let c = text[i..].chars().next().expect("in-bounds char");
        out.push(c);
        i += c.len_utf8();
    }
    out
}

/// Stable 64-bit FNV-1a hash, rendered as 16 hex digits. Used for both
/// query fingerprints and plan digests so values are reproducible across
/// runs, platforms and Rust versions.
pub fn stable_digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Builds the per-operator rows/bytes list and worst q-error from a
/// profiled plan tree.
pub(crate) fn operators_from_profile(root: &ProfileNode) -> (Vec<OperatorLogEntry>, f64) {
    fn walk(node: &ProfileNode, out: &mut Vec<OperatorLogEntry>, worst: &mut f64) {
        out.push(OperatorLogEntry {
            name: node.operator.clone(),
            rows_out: node.rows_out,
            bytes: node.embedding_bytes,
        });
        if node.estimate_error > *worst {
            *worst = node.estimate_error;
        }
        for child in &node.children {
            walk(child, out, worst);
        }
    }
    let mut out = Vec::new();
    let mut worst = 1.0;
    walk(root, &mut out, &mut worst);
    (out, worst)
}

/// Builds a query log record from a finished [`Profile`].
pub(crate) fn record_from_profile(
    query_text: &str,
    plan_digest: String,
    profile: &Profile,
    stolen_morsels: u64,
) -> QueryLogRecord {
    let shape = normalize_query_shape(query_text);
    let fingerprint = stable_digest(&shape);
    let (operators, max_q_error) = operators_from_profile(&profile.root);
    QueryLogRecord {
        query: query_text.to_string(),
        shape,
        fingerprint,
        plan_digest,
        plan_cache: None,
        outcome: QueryOutcome::Ok,
        error: None,
        matches: profile.matches,
        wall_seconds: profile.wall_seconds,
        simulated_seconds: profile.simulated_seconds,
        operators,
        max_q_error,
        recovery_attempts: profile.recovery_attempts,
        stolen_morsels,
        peak_memory_bytes: profile.peak_memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_normalize_literals_and_whitespace() {
        let a = normalize_query_shape(
            "MATCH (p:Person {name: 'Alice', age: 42})-->(b)\n  RETURN p.name",
        );
        let b =
            normalize_query_shape("MATCH (p:Person {name: \"Bob\", age: 7})-->(b) RETURN p.name");
        assert_eq!(a, b);
        assert_eq!(a, "MATCH (p:Person {name: ?, age: ?})-->(b) RETURN p.name");
        // Identifier-embedded digits are not literals.
        assert_eq!(normalize_query_shape("RETURN a1.x"), "RETURN a1.x");
        // Escaped quotes do not end the literal early.
        assert_eq!(
            normalize_query_shape(r#"MATCH (a {s: "x\"y"}) RETURN a"#),
            "MATCH (a {s: ?}) RETURN a"
        );
    }

    #[test]
    fn shapes_collapse_literal_lists_and_paging_literals() {
        // List literals of different lengths share one fingerprint…
        assert_eq!(
            normalize_query_shape("UNWIND [1, 2, 3] AS x RETURN x"),
            normalize_query_shape("UNWIND [70,80] AS x RETURN x"),
        );
        assert_eq!(
            normalize_query_shape("UNWIND [1, 2, 3] AS x RETURN x"),
            "UNWIND [?] AS x RETURN x"
        );
        // …as do SKIP/LIMIT with different cut-offs.
        assert_eq!(
            normalize_query_shape("MATCH (a) RETURN a ORDER BY a.name SKIP 10 LIMIT 5"),
            normalize_query_shape("MATCH (a) RETURN a ORDER BY a.name SKIP 2 LIMIT 700"),
        );
        // Property-map placeholders keep their keys: no over-collapsing.
        assert_eq!(
            normalize_query_shape("MATCH (p {name: 'Al', age: 4}) RETURN p"),
            "MATCH (p {name: ?, age: ?}) RETURN p"
        );
    }

    #[test]
    fn shapes_do_not_collapse_outside_list_literals() {
        // Regression: the old text-global `?, ?` collapse conflated a
        // two-item projection with a one-item projection, colliding
        // distinct plans under one fingerprint.
        assert_ne!(
            normalize_query_shape("RETURN 1, 2"),
            normalize_query_shape("RETURN 1"),
        );
        assert_eq!(normalize_query_shape("RETURN 1, 2"), "RETURN ?, ?");
        assert_ne!(
            normalize_query_shape("MATCH (n) RETURN n.a, n.b"),
            normalize_query_shape("MATCH (n) RETURN n.a"),
        );
        // Literal argument lists outside brackets keep their arity too.
        assert_ne!(
            normalize_query_shape("MATCH (a) WHERE a.x = 1 OR a.y = 2 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x = 1 RETURN a"),
        );
        // Inside brackets the collapse still applies, but a non-literal
        // element keeps the list expanded.
        assert_eq!(
            normalize_query_shape("UNWIND [1, x, 3] AS y RETURN y"),
            "UNWIND [?, x, ?] AS y RETURN y"
        );
    }

    #[test]
    fn shapes_normalize_scientific_and_leading_dot_numbers() {
        // Regression: `1e9` used to normalize to `?e9` — the exponent
        // leaked into the shape, so equal shapes fingerprinted apart.
        assert_eq!(
            normalize_query_shape("MATCH (a) WHERE a.x > 1e9 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x > 2e10 RETURN a"),
        );
        assert_eq!(
            normalize_query_shape("RETURN 1e9"),
            normalize_query_shape("RETURN 1.5E+10"),
        );
        assert_eq!(normalize_query_shape("RETURN 2e-3"), "RETURN ?");
        // Regression: leading-dot floats were not normalized at all.
        assert_eq!(
            normalize_query_shape("MATCH (a) WHERE a.x > .5 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x > 0.7 RETURN a"),
        );
        // Property access dots are untouched.
        assert_eq!(normalize_query_shape("RETURN a.b5"), "RETURN a.b5");
        // Var-length range bounds normalize per bound, keeping `..`.
        assert_eq!(
            normalize_query_shape("MATCH (a)-[*0..10]->(b) RETURN a"),
            "MATCH (a)-[*?..?]->(b) RETURN a"
        );
        assert_eq!(
            normalize_query_shape("MATCH (a)-[*0..10]->(b) RETURN a"),
            normalize_query_shape("MATCH (a)-[*2..5]->(b) RETURN a"),
        );
    }

    #[test]
    fn shapes_normalize_parameters_like_inline_literals() {
        // The cache-hit-across-users property: a `$param` spelling and an
        // inline-literal spelling of the same shape share one entry.
        assert_eq!(
            normalize_query_shape("MATCH (p:Person {age: $a}) RETURN p"),
            normalize_query_shape("MATCH (p:Person {age: 42}) RETURN p"),
        );
        assert_eq!(
            normalize_query_shape("MATCH (p) WHERE p.name = $name RETURN p"),
            normalize_query_shape("MATCH (p) WHERE p.name = 'Alice' RETURN p"),
        );
        assert_eq!(
            normalize_query_shape("MATCH (p {age: $a}) RETURN p"),
            "MATCH (p {age: ?}) RETURN p"
        );
        // Distinct parameters in distinct positions keep the arity.
        assert_ne!(
            normalize_query_shape("RETURN $a, $b"),
            normalize_query_shape("RETURN $a"),
        );
        // A bare `$` that is not a parameter survives unchanged.
        assert_eq!(normalize_query_shape("RETURN '$'"), "RETURN ?");
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        assert_eq!(stable_digest("abc"), stable_digest("abc"));
        assert_ne!(stable_digest("abc"), stable_digest("abd"));
        assert_eq!(stable_digest("").len(), 16);
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(stable_digest(""), "cbf29ce484222325");
    }

    #[test]
    fn memory_log_retains_and_evicts() {
        let log = MemoryQueryLog::new();
        let record = QueryLogRecord {
            query: "RETURN 1".into(),
            shape: "RETURN ?".into(),
            fingerprint: stable_digest("RETURN ?"),
            plan_digest: String::new(),
            plan_cache: None,
            outcome: QueryOutcome::Ok,
            error: None,
            matches: 1,
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            operators: vec![],
            max_q_error: 1.0,
            recovery_attempts: 0,
            stolen_morsels: 0,
            peak_memory_bytes: 0,
        };
        for _ in 0..MEMORY_LOG_CAPACITY + 5 {
            log.log(&record);
        }
        assert_eq!(log.len(), MEMORY_LOG_CAPACITY);
        assert!(!log.is_empty());
        assert_eq!(log.drain().len(), MEMORY_LOG_CAPACITY);
        assert!(log.is_empty());
    }

    #[test]
    fn records_render_as_parseable_jsonl() {
        let record = QueryLogRecord {
            query: "MATCH (a) RETURN a".into(),
            shape: "MATCH (a) RETURN a".into(),
            fingerprint: stable_digest("MATCH (a) RETURN a"),
            plan_digest: stable_digest("ScanVertices(a)"),
            plan_cache: Some("hit"),
            outcome: QueryOutcome::Faulted,
            error: Some("stage `join` exhausted retries".into()),
            matches: 0,
            wall_seconds: 0.01,
            simulated_seconds: 2.5,
            operators: vec![OperatorLogEntry {
                name: "ScanVertices(a)".into(),
                rows_out: 10,
                bytes: 240,
            }],
            max_q_error: 3.5,
            recovery_attempts: 2,
            stolen_morsels: 4,
            peak_memory_bytes: 4096,
        };
        let line = record.to_jsonl();
        assert!(!line.contains('\n'));
        let parsed = JsonValue::parse(&line).expect("JSONL line parses");
        assert!(parsed.semantically_eq(&record.to_json_value()));
        assert_eq!(
            parsed.get("outcome").and_then(JsonValue::as_str),
            Some("faulted")
        );
        assert_eq!(
            parsed.get("plan_cache").and_then(JsonValue::as_str),
            Some("hit")
        );
        assert_eq!(
            parsed
                .get("operators")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn memory_log_keeps_working_after_a_panic_poisoned_its_lock() {
        let log = MemoryQueryLog::new();
        let record = QueryLogRecord {
            query: "RETURN 1".into(),
            shape: "RETURN ?".into(),
            fingerprint: stable_digest("RETURN ?"),
            plan_digest: String::new(),
            plan_cache: None,
            outcome: QueryOutcome::Ok,
            error: None,
            matches: 1,
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            operators: vec![],
            max_q_error: 1.0,
            recovery_attempts: 0,
            stolen_morsels: 0,
            peak_memory_bytes: 0,
        };
        log.log(&record);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = log.records.lock().unwrap();
                panic!("panic while holding the query log lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(log.records.is_poisoned());
        log.log(&record);
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshot()[1].query, record.query);
        assert_eq!(log.drain().len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn jsonl_sink_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join("gradoop-querylog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let sink = JsonlQueryLog::create(&path).unwrap();
            let record = QueryLogRecord {
                query: "RETURN 1".into(),
                shape: "RETURN ?".into(),
                fingerprint: stable_digest("RETURN ?"),
                plan_digest: String::new(),
                plan_cache: None,
                outcome: QueryOutcome::Ok,
                error: None,
                matches: 1,
                wall_seconds: 0.0,
                simulated_seconds: 0.0,
                operators: vec![],
                max_q_error: 1.0,
                recovery_attempts: 0,
                stolen_morsels: 0,
                peak_memory_bytes: 0,
            };
            sink.log(&record);
            sink.log(&record);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(JsonValue::parse(line).is_ok());
        }
        let _ = std::fs::remove_file(&path);
    }
}
