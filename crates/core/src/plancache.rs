//! The parse/plan cache: memoizes parsed ASTs by exact query text and
//! query plans by *normalized query shape* (see
//! [`normalize_query_shape`](crate::querylog::normalize_query_shape)), so a
//! server running the same parameterized query for many users plans it
//! once and re-binds `$param` values per execution.
//!
//! ## Why keying on the shape is sound
//!
//! A cached [`QueryPlan`] only stores query-graph *indices* (which query
//! vertex to scan, which edges to join) — literal values live in the
//! [`QueryGraph`] that every execution rebuilds from its own AST and its
//! own parameter bindings. The greedy planner's estimator is
//! value-independent (selectivities derive from property keys, comparison
//! operators and labels, never from literal values), so two queries with
//! the same shape produce plans with the same structure. The cache map is
//! keyed on the **full shape string** (plus [`PlanMode`]), not its 64-bit
//! fingerprint, so a fingerprint hash collision can never cross-wire two
//! different shapes. As a belt-and-braces check, each entry also records a
//! structural signature of the query graph it was planned for and a
//! lookup whose graph disagrees is treated as a miss.
//!
//! A cache is only valid for one set of graph statistics: plans are
//! cost-based, so engines over different data graphs must not share one
//! (the server owns one cache per snapshot).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gradoop_cypher::ast::Query;
use gradoop_cypher::{parse, ParseError, QueryGraph};
use gradoop_dataflow::MetricsRegistry;

use crate::planner::{PlanMode, QueryPlan};

/// Default number of plans retained before least-recently-used eviction.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// Counters of one cache's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Plans currently retained.
    pub entries: u64,
}

impl PlanCacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Structural signature of a [`QueryGraph`]: everything a cached plan's
/// indices refer to. Two graphs with equal signatures can execute the same
/// plan tree (their predicates may differ — those are looked up by index
/// from the fresh graph at execution time).
#[derive(Debug, Clone, PartialEq, Eq)]
struct GraphSignature {
    vertices: usize,
    edges: Vec<EdgeSignature>,
    cross_clauses: usize,
    return_items: usize,
    distinct: bool,
}

/// The structural facts of one query edge a cached plan depends on.
/// Variable-length range bounds are literal positions in the query text, so
/// they never affect the *shape* — they must be validated here instead:
/// `*1..3` and `*1..10` share a fingerprint but cannot share a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeSignature {
    source: usize,
    target: usize,
    undirected: bool,
    range: Option<(usize, usize)>,
    open_range: bool,
}

impl GraphSignature {
    fn of(query: &QueryGraph) -> GraphSignature {
        GraphSignature {
            vertices: query.vertices.len(),
            edges: query
                .edges
                .iter()
                .map(|e| EdgeSignature {
                    source: e.source,
                    target: e.target,
                    undirected: e.undirected,
                    range: e.range,
                    open_range: e.open_range,
                })
                .collect(),
            cross_clauses: query.cross_clauses.len(),
            return_items: query.return_items.len(),
            distinct: query.distinct,
        }
    }
}

struct PlanEntry {
    plan: Arc<QueryPlan>,
    signature: GraphSignature,
    last_used: u64,
}

struct AstEntry {
    ast: Arc<Query>,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Plans keyed on `(normalized shape, plan mode)`.
    plans: HashMap<(String, PlanModeKey), PlanEntry>,
    /// Parsed ASTs keyed on exact query text (classic single-`MATCH` path).
    asts: HashMap<String, AstEntry>,
    tick: u64,
}

/// `PlanMode` is not `Hash`; its discriminant is.
type PlanModeKey = u8;

fn mode_key(mode: PlanMode) -> PlanModeKey {
    match mode {
        PlanMode::CostBased => 0,
        PlanMode::ForceBinary => 1,
        PlanMode::ForceWco => 2,
    }
}

/// A bounded, thread-safe parse/plan cache. Cheap to share: clone the
/// `Arc` into every engine that serves the same graph snapshot.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache retaining at most `capacity` plans (and as many
    /// parsed ASTs), evicting least-recently-used entries beyond that.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Parses `query_text`, answering repeated texts from the AST cache.
    pub fn parse(&self, query_text: &str) -> Result<Arc<Query>, ParseError> {
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.asts.get_mut(query_text) {
            entry.last_used = tick;
            return Ok(entry.ast.clone());
        }
        drop(inner);
        // Parse outside the lock: parse errors are per-text and cheap to
        // recompute, so failed texts are deliberately not cached.
        let ast = Arc::new(parse(query_text)?);
        let mut inner = self.inner();
        let tick = inner.tick;
        if inner.asts.len() >= self.capacity {
            evict_lru(&mut inner.asts, |e| e.last_used);
        }
        inner.asts.insert(
            query_text.to_string(),
            AstEntry {
                ast: ast.clone(),
                last_used: tick,
            },
        );
        Ok(ast)
    }

    /// Looks up the plan cached for `(shape, mode)`, validating it against
    /// the structure of the freshly built `query` graph. Counts a hit or a
    /// miss; on a miss the caller plans and [`insert`](PlanCache::insert)s.
    pub fn lookup(
        &self,
        shape: &str,
        mode: PlanMode,
        query: &QueryGraph,
    ) -> Option<Arc<QueryPlan>> {
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner
            .plans
            .get_mut(&(shape.to_string(), mode_key(mode)))
            .and_then(|entry| {
                if entry.signature == GraphSignature::of(query) {
                    entry.last_used = tick;
                    Some(entry.plan.clone())
                } else {
                    None
                }
            });
        drop(inner);
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                MetricsRegistry::global().counter("plan_cache.hits").add(1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                MetricsRegistry::global()
                    .counter("plan_cache.misses")
                    .add(1);
            }
        }
        found
    }

    /// Stores `plan` for `(shape, mode)`, remembering the structure of the
    /// `query` graph it was planned for.
    pub fn insert(&self, shape: String, mode: PlanMode, query: &QueryGraph, plan: Arc<QueryPlan>) {
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.plans.len() >= self.capacity
            && !inner.plans.contains_key(&(shape.clone(), mode_key(mode)))
        {
            evict_lru(&mut inner.plans, |e| e.last_used);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            MetricsRegistry::global()
                .counter("plan_cache.evictions")
                .add(1);
        }
        inner.plans.insert(
            (shape, mode_key(mode)),
            PlanEntry {
                plan,
                signature: GraphSignature::of(query),
                last_used: tick,
            },
        );
    }

    /// The cache state, recovered if a panicking thread poisoned the lock:
    /// the cache outlives every query that uses it, so one panic must not
    /// fail all later queries. Every critical section keeps the maps valid
    /// at each step; a panic inside one can at worst lose an entry, which
    /// costs a re-plan, never a wrong plan.
    fn inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner().plans.len() as u64,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Removes the least-recently-used entry of `map` (no-op when empty).
fn evict_lru<K: Clone + std::hash::Hash + Eq, V>(
    map: &mut HashMap<K, V>,
    used: impl Fn(&V) -> u64,
) {
    if let Some(key) = map
        .iter()
        .min_by_key(|(_, v)| used(v))
        .map(|(k, _)| k.clone())
    {
        map.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query_with_mode, Estimator};
    use gradoop_epgm::GraphStatistics;

    fn plan_for(text: &str) -> (QueryGraph, Arc<QueryPlan>) {
        let ast = parse(text).expect("parse");
        let query = QueryGraph::from_query(&ast).expect("query graph");
        let statistics = GraphStatistics::default();
        let plan = plan_query_with_mode(&query, &Estimator::new(&statistics), PlanMode::CostBased)
            .expect("plan");
        (query, Arc::new(plan))
    }

    #[test]
    fn cache_keeps_working_after_a_panic_poisoned_its_lock() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a {x: 1}) RETURN a");
        cache.insert("shape".into(), PlanMode::CostBased, &query, plan);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("panic while holding the plan cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.inner.is_poisoned());
        assert!(cache.lookup("shape", PlanMode::CostBased, &query).is_some());
        assert!(cache.parse("MATCH (b) RETURN b").is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn caches_by_shape_and_counts_hits() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a {x: 1}) RETURN a");
        assert!(cache
            .lookup("MATCH (a {x: ?}) RETURN a", PlanMode::CostBased, &query)
            .is_none());
        cache.insert(
            "MATCH (a {x: ?}) RETURN a".into(),
            PlanMode::CostBased,
            &query,
            plan.clone(),
        );
        // A different parameterization of the same shape hits.
        let (query2, _) = plan_for("MATCH (a {x: 99}) RETURN a");
        let cached = cache
            .lookup("MATCH (a {x: ?}) RETURN a", PlanMode::CostBased, &query2)
            .expect("hit");
        assert_eq!(cached.root, plan.root);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn plan_modes_do_not_share_entries() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a) RETURN a");
        cache.insert(
            "MATCH (a) RETURN a".into(),
            PlanMode::ForceWco,
            &query,
            plan,
        );
        assert!(cache
            .lookup("MATCH (a) RETURN a", PlanMode::CostBased, &query)
            .is_none());
        assert!(cache
            .lookup("MATCH (a) RETURN a", PlanMode::ForceWco, &query)
            .is_some());
    }

    #[test]
    fn signature_mismatch_is_a_miss() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a)-->(b) RETURN a");
        cache.insert("shape".into(), PlanMode::CostBased, &query, plan);
        // Same key but a structurally different graph: the guard refuses.
        let (other, _) = plan_for("MATCH (a)-->(b)-->(c) RETURN a");
        assert!(cache.lookup("shape", PlanMode::CostBased, &other).is_none());
    }

    #[test]
    fn evicts_least_recently_used_plan() {
        let cache = PlanCache::new(2);
        let (query, plan) = plan_for("MATCH (a) RETURN a");
        cache.insert("s1".into(), PlanMode::CostBased, &query, plan.clone());
        cache.insert("s2".into(), PlanMode::CostBased, &query, plan.clone());
        // Touch s1 so s2 becomes the LRU victim.
        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_some());
        cache.insert("s3".into(), PlanMode::CostBased, &query, plan);
        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_some());
        assert!(cache.lookup("s2", PlanMode::CostBased, &query).is_none());
        assert!(cache.lookup("s3", PlanMode::CostBased, &query).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn ast_cache_returns_shared_parses() {
        let cache = PlanCache::new(4);
        let first = cache.parse("MATCH (a) RETURN a").expect("parse");
        let second = cache.parse("MATCH (a) RETURN a").expect("parse");
        assert!(Arc::ptr_eq(&first, &second));
        assert!(cache.parse("MATCH (a) RETURN").is_err());
    }
}
