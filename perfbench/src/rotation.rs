//! The fixed query rotation every workload runs: 18 items in a fixed order.
//!
//! - Q1–Q3 as `parameterized_text()`, bound to the high-, medium- and
//!   low-selectivity first names;
//! - Q4–Q6 as written;
//! - three multi-clause queries (M1–M3), each bound to the high and the low
//!   name.

use std::collections::HashMap;

use gradoop_cypher::Literal;
use gradoop_ldbc::{BenchmarkQuery, Selectivity, SelectivityNames};

/// The query an item belongs to; per-query metrics are grouped by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// One of the paper's six LDBC queries (1–6).
    Ldbc(usize),
    /// One of the multi-clause queries M1–M3.
    MultiClause,
}

impl Group {
    /// The metric-name prefix of the group: `q1` … `q6`, `multi`.
    pub fn key(self) -> String {
        match self {
            Group::Ldbc(number) => format!("q{number}"),
            Group::MultiClause => "multi".to_string(),
        }
    }

    /// Every group in report order.
    pub fn all() -> Vec<Group> {
        let mut groups: Vec<Group> = (1..=6).map(Group::Ldbc).collect();
        groups.push(Group::MultiClause);
        groups
    }
}

/// One query of the rotation with its parameter binding.
#[derive(Debug, Clone)]
pub struct Item {
    /// Short label, e.g. `Q1/high` or `M2/low`.
    pub label: String,
    /// The query the item belongs to.
    pub group: Group,
    /// The query text as clients send it (with `$firstName` when bound).
    pub text: String,
    /// The parameter binding clients send.
    pub params: HashMap<String, Literal>,
    /// The text with the binding written inline, for the reference
    /// interpreter, which takes no parameters.
    pub inline_text: String,
    /// `true` when the item is a single `MATCH … RETURN` that the engine
    /// plans and executes on its embedding path.
    pub simple: bool,
}

/// M1: friends of the named persons, then those friends' posts.
const M1: &str = "MATCH (p:Person)-[:knows]->(f:Person) WHERE p.firstName = $firstName \
                  WITH f, count(*) AS c \
                  MATCH (f)<-[:hasCreator]-(m:Post) \
                  RETURN f.firstName AS friend, c, m.creationDate AS date \
                  ORDER BY date DESC, friend LIMIT 10";

/// M2: the named persons and, where they have one, their university.
const M2: &str = "MATCH (p:Person) WHERE p.firstName = $firstName \
                  OPTIONAL MATCH (p)-[:studyAt]->(u:University) \
                  RETURN p.firstName, p.lastName, u.name";

/// M3: the named persons' most common interests.
const M3: &str = "MATCH (p:Person)-[:hasInterest]->(t:Tag) WHERE p.firstName = $firstName \
                  RETURN t.name AS tag, count(*) AS persons \
                  ORDER BY persons DESC, tag LIMIT 5";

fn binding(name: &str) -> HashMap<String, Literal> {
    HashMap::from([("firstName".to_string(), Literal::String(name.to_string()))])
}

fn level_label(level: Selectivity) -> &'static str {
    match level {
        Selectivity::High => "high",
        Selectivity::Medium => "medium",
        Selectivity::Low => "low",
    }
}

/// Builds the 18-item rotation for a dataset's selectivity names.
pub fn rotation(names: &SelectivityNames) -> Vec<Item> {
    let mut items = Vec::new();
    for query in BenchmarkQuery::all() {
        let group = Group::Ldbc(query.number());
        if query.is_operational() {
            for level in Selectivity::all() {
                let name = names.name(level);
                items.push(Item {
                    label: format!("Q{}/{}", query.number(), level_label(level)),
                    group,
                    text: query.parameterized_text(),
                    params: binding(name),
                    inline_text: query.text(Some(name)),
                    simple: true,
                });
            }
        } else {
            items.push(Item {
                label: format!("Q{}", query.number()),
                group,
                text: query.text(None),
                params: HashMap::new(),
                inline_text: query.text(None),
                simple: true,
            });
        }
    }
    for (number, text) in [(1, M1), (2, M2), (3, M3)] {
        for level in [Selectivity::High, Selectivity::Low] {
            let name = names.name(level);
            items.push(Item {
                label: format!("M{number}/{}", level_label(level)),
                group: Group::MultiClause,
                text: text.to_string(),
                params: binding(name),
                inline_text: text.replace("$firstName", &format!("'{name}'")),
                simple: false,
            });
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_has_eighteen_items_in_fixed_order() {
        let names = SelectivityNames {
            high: "Ana".into(),
            medium: "Bo".into(),
            low: "Cy".into(),
        };
        let items = rotation(&names);
        let labels: Vec<&str> = items.iter().map(|item| item.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "Q1/high",
                "Q1/medium",
                "Q1/low",
                "Q2/high",
                "Q2/medium",
                "Q2/low",
                "Q3/high",
                "Q3/medium",
                "Q3/low",
                "Q4",
                "Q5",
                "Q6",
                "M1/high",
                "M1/low",
                "M2/high",
                "M2/low",
                "M3/high",
                "M3/low"
            ]
        );
        for item in &items {
            assert!(!item.inline_text.contains('$'), "{}", item.label);
            let pipeline = gradoop_cypher::parse_pipeline(&item.text).expect("rotation parses");
            assert_eq!(
                pipeline.as_simple().is_some(),
                item.simple,
                "{}",
                item.label
            );
        }
        assert!(items[14].inline_text.contains("'Ana'"));
    }
}
