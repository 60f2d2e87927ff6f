//! The workload's graph seed, derived from the benchmark seed.
//!
//! The LDBC generator draws friendships, interests and memberships from
//! heavy-tailed distributions, so two generator seeds give graphs of the
//! same size whose analytical queries differ several-fold in result size
//! (at 200 persons, Q6 returns between 2,700 and 9,200 rows over seeds
//! 1–24) and in run time with it. A benchmark seed therefore does not pick
//! the generator seed directly: it defines a sequence of candidate
//! generator seeds, and the first candidate whose vertex count, Q4–Q6
//! result sizes and (at 200 persons) reply depth lie within their
//! tolerances of the typical values at that scale is the workload's
//! graph. The same benchmark seed always yields the same graph. Graph
//! sizes without a typical-size entry use the first candidate.
//!
//! Every check is a property of the generated data, so the choice does
//! not depend on how the engine plans or executes: Q4–Q6 take no
//! parameters and their result sizes are fixed by the query semantics, and
//! the reply depth is computed from the edges directly.

use std::collections::HashMap;

use gradoop_core::{CypherEngine, MatchingConfig};
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{GradoopId, GraphHead, LogicalGraph, Properties};
use gradoop_ldbc::schema::edge;
use gradoop_ldbc::{generate, pick_names, BenchmarkQuery, GeneratedData, LdbcConfig, Selectivity};

/// A workload graph's typical shape, as medians over generator seeds:
/// vertex count, result sizes of Q4, Q5 and Q6, and (where checked) the
/// [`reply_depth`] of the selectivity names.
struct Typical {
    persons: usize,
    vertices: usize,
    analytical: [usize; 3],
    reply_depth: Option<usize>,
}

/// Seeds 1–24 and 40 candidates of seed 1 at 200 persons; seeds 1–14
/// (1–12 for result sizes) at 1,500 persons, where every name reaches the
/// generator's deepest reply chains, so the depth is not checked.
const TYPICAL: [Typical; 2] = [
    Typical {
        persons: 200,
        vertices: 2856,
        analytical: [3724, 1543, 4165],
        reply_depth: Some(REPLY_DEPTH_200),
    },
    Typical {
        persons: 1500,
        vertices: 21488,
        analytical: [31073, 11957, 30701],
        reply_depth: None,
    },
];

/// Median [`reply_depth`] at 200 persons over 120 candidates (24 each of
/// benchmark seeds 1–5). Over those candidates the depth ranged from 16
/// to 40 and followed the rotation's one-worker stage count with a
/// correlation of 0.93; at depth 24 the stage count was 379–389.
const REPLY_DEPTH_200: usize = 24;

/// Largest accepted deviation of the vertex count, as a share of it.
const VERTEX_TOLERANCE: f64 = 0.03;

/// Largest accepted deviation of a Q4–Q6 result size, as a share of it.
const RESULT_TOLERANCE: f64 = 0.10;

/// Largest accepted deviation of the reply depth, in hops.
const DEPTH_TOLERANCE: usize = 0;

/// Candidates tried before settling for the one closest to typical.
const CANDIDATES: u64 = 1024;

/// The `k`-th candidate generator seed of benchmark seed `seed`.
fn candidate(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// How deep the reply chains reach that Q2 and Q3 expand, summed over the
/// three selectivity names: for each name, the depth (hops to the post) of
/// the deepest message created by a person of that name (Q2's
/// `replyOf*0..10`) plus that of the deepest comment created by a friend
/// of such a person (Q3's `replyOf*1..10`). Variable-length expansion runs
/// one superstep per hop, so this sets how many dataflow stages the
/// rotation runs.
pub fn reply_depth(data: &GeneratedData) -> usize {
    let names = pick_names(data);
    let mut parent: HashMap<u64, u64> = HashMap::new();
    let mut creator: Vec<(u64, u64)> = Vec::new();
    let mut knows: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in &data.edges {
        let (source, target) = (e.source.0, e.target.0);
        if e.label == edge::REPLY_OF {
            parent.insert(source, target);
        } else if e.label == edge::HAS_CREATOR {
            creator.push((source, target));
        } else if e.label == edge::KNOWS {
            knows.entry(source).or_default().push(target);
        }
    }
    let depth = |mut message: u64| {
        let mut hops = 0;
        while let Some(&up) = parent.get(&message) {
            message = up;
            hops += 1;
        }
        hops
    };
    // The deepest message each person created.
    let mut deepest: HashMap<u64, usize> = HashMap::new();
    for &(message, person) in &creator {
        let hops = depth(message);
        let entry = deepest.entry(person).or_insert(0);
        *entry = (*entry).max(hops);
    }
    let mut total = 0;
    for level in Selectivity::all() {
        let name = names.name(level);
        let persons = data
            .person_ids
            .iter()
            .zip(&data.first_names)
            .filter(|(_, first)| **first == name)
            .map(|(id, _)| *id);
        let (mut own, mut friends) = (0, 0);
        for person in persons {
            own = own.max(deepest.get(&person).copied().unwrap_or(0));
            for friend in knows.get(&person).into_iter().flatten() {
                friends = friends.max(deepest.get(friend).copied().unwrap_or(0));
            }
        }
        total += own + friends;
    }
    total
}

/// How far the graph generated with `config` is from `typical`: the
/// largest deviation in units of its tolerance, so at most 1 is accepted.
/// Checks run from cheap to costly and stop at the first that fails:
/// vertex count, reply depth, then Q4–Q6 result sizes from one-worker
/// engine runs.
fn deviation(config: &LdbcConfig, typical: &Typical) -> Result<f64, String> {
    let share = |actual: usize, typical: usize| (actual as f64 / typical as f64 - 1.0).abs();
    let data = generate(config);
    let mut worst = share(data.vertices.len(), typical.vertices) / VERTEX_TOLERANCE;
    if let Some(depth) = typical.reply_depth {
        let hops = reply_depth(&data).abs_diff(depth);
        worst = worst.max(hops as f64 / (DEPTH_TOLERANCE as f64 + 0.5));
    }
    if worst > 1.0 {
        return Ok(worst);
    }
    let env = ExecutionEnvironment::with_workers(1);
    let head = GraphHead::new(GradoopId(0), "candidate", Properties::new());
    let graph = LogicalGraph::from_data(&env, head, data.vertices, data.edges);
    let engine = CypherEngine::for_graph(&graph);
    let analytical = [BenchmarkQuery::Q4, BenchmarkQuery::Q5, BenchmarkQuery::Q6];
    for (query, &size) in analytical.iter().zip(&typical.analytical) {
        let rows = engine
            .run(
                &graph,
                &query.text(None),
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .map_err(|e| format!("Q{} on generator seed {}: {e}", query.number(), config.seed))?
            .rows
            .len();
        worst = worst.max(share(rows, size) / RESULT_TOLERANCE);
    }
    Ok(worst)
}

/// The generator seed for benchmark seed `seed` at `persons` persons, and
/// how many candidates were tried.
pub fn generator_seed(seed: u64, persons: usize) -> Result<(u64, u64), String> {
    let Some(typical) = TYPICAL.iter().find(|t| t.persons == persons) else {
        return Ok((candidate(seed, 0), 1));
    };
    let mut closest = (f64::INFINITY, candidate(seed, 0));
    for k in 0..CANDIDATES {
        let config = LdbcConfig::with_persons(persons).seed(candidate(seed, k));
        let deviation = deviation(&config, typical)?;
        if deviation <= 1.0 {
            return Ok((config.seed, k + 1));
        }
        if deviation < closest.0 {
            closest = (deviation, config.seed);
        }
    }
    Ok((closest.1, CANDIDATES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_epgm::Edge;

    #[test]
    fn reply_depth_sums_own_and_friends_deepest_messages_per_name() {
        // Persons 1 (Ana, the low-selectivity pick of three equally common
        // names), 2 (Bo, medium) and 3 (Cy, high). Ana wrote post 10 and
        // comment 12 two hops below it; Cy wrote comment 11 one hop below
        // it; Bo knows Ana and wrote nothing.
        let edge = |id: u64, label: &str, source: u64, target: u64| {
            Edge::new(
                GradoopId(id),
                label,
                GradoopId(source),
                GradoopId(target),
                Properties::new(),
            )
        };
        let data = GeneratedData {
            vertices: Vec::new(),
            edges: vec![
                edge(20, edge::REPLY_OF, 11, 10),
                edge(21, edge::REPLY_OF, 12, 11),
                edge(22, edge::HAS_CREATOR, 10, 1),
                edge(23, edge::HAS_CREATOR, 11, 3),
                edge(24, edge::HAS_CREATOR, 12, 1),
                edge(25, edge::KNOWS, 2, 1),
            ],
            person_ids: vec![1, 2, 3],
            first_names: vec!["Ana", "Bo", "Cy"],
        };
        // Ana: own 2, friends 0; Bo: own 0, friends 2; Cy: own 1, friends 0.
        assert_eq!(reply_depth(&data), 5);
    }
}
