//! The result oracle, computed before any timed region.
//!
//! Every rotation item gets an [`Expected`] result. Where the reference
//! interpreter (`reference_pipeline`, which follows the openCypher formal
//! semantics) finishes in about a second at the workload's scale, the
//! expectation comes from it. Otherwise it comes from a cold, cache-less,
//! one-worker `CypherEngine::run` over an unindexed copy of the graph — a
//! different scan path, worker count and planning path than the server
//! uses.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use gradoop_core::{
    reference_pipeline, CypherEngine, MatchingConfig, MemoryQueryLog, Row, TableResult, Value,
};
use gradoop_cypher::parse_pipeline;
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{GraphStatistics, LogicalGraph};

use crate::rotation::{Group, Item};

/// Where an expectation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The reference interpreter.
    Reference,
    /// A cold, cache-less, one-worker engine run.
    Engine,
}

/// The expected result of one rotation item.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Output column names.
    pub columns: Vec<String>,
    /// Whether row order is part of the result.
    pub ordered: bool,
    /// Row count.
    pub rows: usize,
    /// [`rows_digest`] of the rows.
    pub digest: u64,
    /// Where the expectation came from.
    pub source: Source,
    /// Seconds the oracle spent computing it.
    pub seconds: f64,
}

impl Expected {
    /// `true` when a served table equals the expectation.
    pub fn matches_table(&self, table: &TableResult) -> bool {
        table.columns == self.columns
            && table.ordered == self.ordered
            && table.rows.len() == self.rows
            && rows_digest(&table.rows, self.ordered) == self.digest
    }
}

/// Whether the reference interpreter answers `item` in about a second at
/// a scale of `persons`, measured on a 2-core host. At 200 persons Q3 takes
/// about 50 s in the reference and Q5 and Q6 about 3.5 s; Q4 takes about
/// 1 s there and grows out of reach at 1,500 persons, where the other items
/// take 0.1–0.4 s. Larger graphs use the engine oracle throughout.
fn reference_is_fast(item: &Item, persons: usize) -> bool {
    match item.group {
        Group::Ldbc(3 | 5 | 6) => false,
        Group::Ldbc(4) => persons <= 200,
        _ => persons <= 1500,
    }
}

/// Computes the expectation of every item over `graph` (a graph generated
/// with `persons` persons).
pub fn expected_results(
    items: &[Item],
    graph: &LogicalGraph,
    persons: usize,
) -> Result<Vec<Expected>, String> {
    let matching = MatchingConfig::cypher_default();
    let env = ExecutionEnvironment::with_workers(1);
    let single_worker = LogicalGraph::from_data(
        &env,
        graph.head().clone(),
        graph.vertices().collect(),
        graph.edges().collect(),
    );
    let engine = CypherEngine::with_statistics(GraphStatistics::of(&single_worker))
        .with_query_log(Arc::new(MemoryQueryLog::new()));
    let mut expected = Vec::with_capacity(items.len());
    for item in items {
        let started = Instant::now();
        let (columns, rows, ordered, source) = if reference_is_fast(item, persons) {
            let pipeline = parse_pipeline(&item.inline_text)
                .map_err(|e| format!("{}: reference parse: {e}", item.label))?;
            let table = reference_pipeline(graph, &pipeline, &matching)
                .map_err(|e| format!("{}: reference: {e}", item.label))?;
            (table.columns, table.rows, table.ordered, Source::Reference)
        } else {
            let table = engine
                .run(&single_worker, &item.text, &item.params, matching)
                .map_err(|e| format!("{}: engine oracle: {e}", item.label))?;
            (table.columns, table.rows, table.ordered, Source::Engine)
        };
        expected.push(Expected {
            digest: rows_digest(&rows, ordered),
            rows: rows.len(),
            columns,
            ordered,
            source,
            seconds: started.elapsed().as_secs_f64(),
        });
    }
    Ok(expected)
}

/// A digest of result rows: positional when `ordered`, otherwise
/// independent of row order.
pub fn rows_digest(rows: &[Row], ordered: bool) -> u64 {
    let mut row_hashes: Vec<u64> = rows
        .iter()
        .map(|row| {
            let mut hasher = DefaultHasher::new();
            row.len().hash(&mut hasher);
            for value in row {
                hash_value(value, &mut hasher);
            }
            hasher.finish()
        })
        .collect();
    if !ordered {
        row_hashes.sort_unstable();
    }
    let mut hasher = DefaultHasher::new();
    row_hashes.hash(&mut hasher);
    hasher.finish()
}

fn hash_value(value: &Value, hasher: &mut DefaultHasher) {
    match value {
        Value::Null => hasher.write_u8(0),
        Value::Bool(b) => {
            hasher.write_u8(1);
            b.hash(hasher);
        }
        Value::Int(i) => {
            hasher.write_u8(2);
            i.hash(hasher);
        }
        Value::Float(f) => {
            hasher.write_u8(3);
            f.to_bits().hash(hasher);
        }
        Value::Str(s) => {
            hasher.write_u8(4);
            s.hash(hasher);
        }
        Value::Vertex(id) => {
            hasher.write_u8(5);
            id.hash(hasher);
        }
        Value::Edge(id) => {
            hasher.write_u8(6);
            id.hash(hasher);
        }
        Value::Path(ids) => {
            hasher.write_u8(7);
            ids.hash(hasher);
        }
        Value::List(values) => {
            hasher.write_u8(8);
            values.len().hash(hasher);
            for value in values {
                hash_value(value, hasher);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_digest_ignores_row_order_but_not_values() {
        let a = vec![vec![Value::Int(1)], vec![Value::Str("x".into())]];
        let b = vec![vec![Value::Str("x".into())], vec![Value::Int(1)]];
        assert_eq!(rows_digest(&a, false), rows_digest(&b, false));
        assert_ne!(rows_digest(&a, true), rows_digest(&b, true));
        let c = vec![vec![Value::Int(2)], vec![Value::Str("x".into())]];
        assert_ne!(rows_digest(&a, false), rows_digest(&c, false));
    }
}
