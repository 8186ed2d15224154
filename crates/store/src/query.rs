//! Find options and the aggregation pipeline.
//!
//! These back Athena's query options (Table IV of the paper): *sorting*,
//! *aggregation*, and *limiting*, plus projections for feature
//! re-organization.

use crate::document::{Document, Fields, Key};
use crate::filter::{compare_values, Filter};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SortOrder {
    /// Smallest first.
    #[default]
    Ascending,
    /// Largest first.
    Descending,
}

/// A sort key: field path plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortSpec {
    /// The field to sort by (dotted path).
    pub field: String,
    /// The direction.
    pub order: SortOrder,
}

impl SortSpec {
    /// Ascending sort on `field`.
    pub fn asc(field: impl Into<String>) -> Self {
        SortSpec {
            field: field.into(),
            order: SortOrder::Ascending,
        }
    }

    /// Descending sort on `field`.
    pub fn desc(field: impl Into<String>) -> Self {
        SortSpec {
            field: field.into(),
            order: SortOrder::Descending,
        }
    }
}

/// Options applied to a `find`: sort, limit, projection.
///
/// # Examples
///
/// ```
/// use athena_store::{FindOptions, SortSpec};
/// let opts = FindOptions::default()
///     .sort(SortSpec::desc("byte_count"))
///     .limit(10);
/// assert_eq!(opts.limit, Some(10));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FindOptions {
    /// Sort keys, applied in order.
    pub sort: Vec<SortSpec>,
    /// Maximum number of results.
    pub limit: Option<usize>,
    /// If non-empty, keep only these fields.
    pub projection: Vec<String>,
}

impl FindOptions {
    /// Adds a sort key.
    pub fn sort(mut self, spec: SortSpec) -> Self {
        self.sort.push(spec);
        self
    }

    /// Sets the limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Adds a projected field.
    pub fn project(mut self, field: impl Into<String>) -> Self {
        self.projection.push(field.into());
        self
    }

    /// Applies sort/limit/projection to a result set. Documents are
    /// moved by handle; only a projection builds new bodies.
    pub fn apply(&self, mut docs: Vec<Arc<Document>>) -> Vec<Arc<Document>> {
        if !self.sort.is_empty() {
            docs.sort_by(|a, b| self.compare_docs(a, b));
        }
        if let Some(n) = self.limit {
            docs.truncate(n);
        }
        if !self.projection.is_empty() {
            // One shared name per projected path, not one per document.
            let keys: Vec<Key> = self.projection.iter().map(Key::from).collect();
            for d in &mut docs {
                let kept: Fields = keys
                    .iter()
                    .filter_map(|key| Some((key.clone(), d.get(key.as_str())?.clone())))
                    .collect();
                *d = Arc::new(Document {
                    id: d.id,
                    fields: kept,
                });
            }
        }
        docs
    }

    fn compare_docs(&self, a: &Document, b: &Document) -> Ordering {
        for spec in &self.sort {
            let av = a.get(&spec.field).unwrap_or(&Value::Null);
            let bv = b.get(&spec.field).unwrap_or(&Value::Null);
            let ord = compare_values(av, bv);
            let ord = match spec.order {
                SortOrder::Ascending => ord,
                SortOrder::Descending => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// An aggregation accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Accumulator {
    /// Sum of a numeric field.
    Sum(String),
    /// Mean of a numeric field.
    Avg(String),
    /// Minimum of a field.
    Min(String),
    /// Maximum of a field.
    Max(String),
    /// Number of documents in the group.
    Count,
    /// First value seen for a field.
    First(String),
}

/// A group stage: group key fields plus named accumulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GroupSpec {
    /// Fields whose values form the group key.
    pub by: Vec<String>,
    /// `(output name, accumulator)` pairs.
    pub accumulators: Vec<(String, Accumulator)>,
}

impl GroupSpec {
    /// Creates a group over the given key fields.
    pub fn by(fields: &[&str]) -> Self {
        GroupSpec {
            by: fields.iter().map(|s| (*s).to_owned()).collect(),
            accumulators: Vec::new(),
        }
    }

    /// Adds a named accumulator.
    pub fn with(mut self, name: impl Into<String>, acc: Accumulator) -> Self {
        self.accumulators.push((name.into(), acc));
        self
    }
}

/// One stage of an aggregation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggStage {
    /// Keep only matching documents.
    Match(Filter),
    /// Group and accumulate.
    Group(GroupSpec),
    /// Sort the current set.
    Sort(Vec<SortSpec>),
    /// Keep the first `n` documents.
    Limit(usize),
    /// Keep only the named fields.
    Project(Vec<String>),
}

/// An aggregation pipeline: stages applied in order.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Accumulator, Aggregation, GroupSpec, SortSpec};
/// use std::sync::Arc;
///
/// let docs = [
///     doc! { "sw" => 1, "pkts" => 10 },
///     doc! { "sw" => 1, "pkts" => 30 },
///     doc! { "sw" => 2, "pkts" => 5 },
/// ]
/// .map(Arc::new)
/// .to_vec();
/// let out = Aggregation::new()
///     .group(GroupSpec::by(&["sw"]).with("total", Accumulator::Sum("pkts".into())))
///     .sort(vec![SortSpec::desc("total")])
///     .run(docs);
/// assert_eq!(out[0].get_f64("total"), Some(40.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Aggregation {
    /// The pipeline stages.
    pub stages: Vec<AggStage>,
}

impl Aggregation {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Aggregation::default()
    }

    /// Appends a match stage.
    pub fn matching(mut self, f: Filter) -> Self {
        self.stages.push(AggStage::Match(f));
        self
    }

    /// Appends a group stage.
    pub fn group(mut self, g: GroupSpec) -> Self {
        self.stages.push(AggStage::Group(g));
        self
    }

    /// Appends a sort stage.
    pub fn sort(mut self, s: Vec<SortSpec>) -> Self {
        self.stages.push(AggStage::Sort(s));
        self
    }

    /// Appends a limit stage.
    pub fn limit(mut self, n: usize) -> Self {
        self.stages.push(AggStage::Limit(n));
        self
    }

    /// Appends a projection stage.
    pub fn project(mut self, fields: Vec<String>) -> Self {
        self.stages.push(AggStage::Project(fields));
        self
    }

    /// Runs the pipeline over a document set. Documents are moved by
    /// handle; only a group or a projection stage builds new bodies.
    pub fn run(&self, mut docs: Vec<Arc<Document>>) -> Vec<Arc<Document>> {
        for stage in &self.stages {
            docs = match stage {
                AggStage::Match(f) => docs.into_iter().filter(|d| f.matches(d)).collect(),
                AggStage::Group(g) => run_group(g, &docs),
                AggStage::Sort(specs) => {
                    let opts = FindOptions {
                        sort: specs.clone(),
                        ..FindOptions::default()
                    };
                    opts.apply(docs)
                }
                AggStage::Limit(n) => {
                    docs.truncate(*n);
                    docs
                }
                AggStage::Project(fields) => {
                    let opts = FindOptions {
                        projection: fields.clone(),
                        ..FindOptions::default()
                    };
                    opts.apply(docs)
                }
            };
        }
        docs
    }
}

fn run_group(spec: &GroupSpec, docs: &[Arc<Document>]) -> Vec<Arc<Document>> {
    // Group key -> (key values, accumulator states)
    struct AccState {
        sum: f64,
        count: u64,
        min: Option<Value>,
        max: Option<Value>,
        first: Option<Value>,
    }
    let mut groups: HashMap<String, (Vec<Value>, Vec<AccState>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for d in docs {
        let key_vals: Vec<Value> = spec
            .by
            .iter()
            .map(|f| d.get(f).cloned().unwrap_or(Value::Null))
            .collect();
        let key = serde_json::to_string(&key_vals).unwrap_or_default();
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (
                key_vals,
                spec.accumulators
                    .iter()
                    .map(|_| AccState {
                        sum: 0.0,
                        count: 0,
                        min: None,
                        max: None,
                        first: None,
                    })
                    .collect(),
            )
        });
        for ((_, acc), state) in spec.accumulators.iter().zip(entry.1.iter_mut()) {
            match acc {
                Accumulator::Sum(f) | Accumulator::Avg(f) => {
                    if let Some(x) = d.get_f64(f) {
                        state.sum += x;
                        state.count += 1;
                    }
                }
                Accumulator::Count => state.count += 1,
                Accumulator::Min(f) => {
                    if let Some(v) = d.get(f) {
                        let better = state
                            .min
                            .as_ref()
                            .is_none_or(|m| compare_values(v, m) == Ordering::Less);
                        if better {
                            state.min = Some(v.clone());
                        }
                    }
                }
                Accumulator::Max(f) => {
                    if let Some(v) = d.get(f) {
                        let better = state
                            .max
                            .as_ref()
                            .is_none_or(|m| compare_values(v, m) == Ordering::Greater);
                        if better {
                            state.max = Some(v.clone());
                        }
                    }
                }
                Accumulator::First(f) => {
                    if state.first.is_none() {
                        state.first = d.get(f).cloned();
                    }
                }
            }
        }
    }

    // One shared name per output member, not one per group.
    let by: Vec<Key> = spec.by.iter().map(Key::from).collect();
    let accumulators: Vec<(Key, &Accumulator)> = spec
        .accumulators
        .iter()
        .map(|(name, acc)| (Key::from(name), acc))
        .collect();
    order
        .into_iter()
        .filter_map(|key| groups.remove(&key))
        .map(|(key_vals, states)| {
            let keyed = by.iter().cloned().zip(key_vals);
            let accumulated = accumulators.iter().zip(states).map(|((name, acc), state)| {
                let v = match acc {
                    Accumulator::Sum(_) => Value::from(state.sum),
                    Accumulator::Avg(_) => {
                        if state.count == 0 {
                            Value::Null
                        } else {
                            Value::from(state.sum / state.count as f64)
                        }
                    }
                    Accumulator::Count => Value::from(state.count),
                    Accumulator::Min(_) => state.min.unwrap_or(Value::Null),
                    Accumulator::Max(_) => state.max.unwrap_or(Value::Null),
                    Accumulator::First(_) => state.first.unwrap_or(Value::Null),
                };
                (name.clone(), v)
            });
            // Collected at once: a repeated name keeps its last value,
            // as setting the members one by one would.
            Arc::new(Document {
                fields: keyed.chain(accumulated).collect(),
                ..Document::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn docs() -> Vec<Arc<Document>> {
        [
            doc! { "sw" => 1, "port" => 1, "pkts" => 10 },
            doc! { "sw" => 1, "port" => 2, "pkts" => 30 },
            doc! { "sw" => 2, "port" => 1, "pkts" => 5 },
            doc! { "sw" => 2, "port" => 2, "pkts" => 50 },
        ]
        .map(Arc::new)
        .to_vec()
    }

    #[test]
    fn sort_then_limit() {
        let opts = FindOptions::default().sort(SortSpec::desc("pkts")).limit(2);
        let out = opts.apply(docs());
        let pkts: Vec<i64> = out.iter().filter_map(|d| d.get_i64("pkts")).collect();
        assert_eq!(pkts, vec![50, 30]);
    }

    #[test]
    fn multi_key_sort() {
        let opts = FindOptions::default()
            .sort(SortSpec::asc("sw"))
            .sort(SortSpec::desc("pkts"));
        let out = opts.apply(docs());
        let pairs: Vec<(i64, i64)> = out
            .iter()
            .map(|d| (d.get_i64("sw").unwrap(), d.get_i64("pkts").unwrap()))
            .collect();
        assert_eq!(pairs, vec![(1, 30), (1, 10), (2, 50), (2, 5)]);
    }

    #[test]
    fn projection_keeps_only_named_fields() {
        let opts = FindOptions::default().project("pkts");
        let out = opts.apply(docs());
        assert!(out
            .iter()
            .all(|d| d.fields.len() == 1 && d.get("pkts").is_some()));
    }

    #[test]
    fn missing_sort_fields_sort_first_ascending() {
        let mut ds = docs();
        ds.push(Arc::new(doc! { "sw" => 9 })); // no pkts
        let opts = FindOptions::default().sort(SortSpec::asc("pkts"));
        let out = opts.apply(ds);
        assert_eq!(out[0].get_i64("sw"), Some(9));
    }

    #[test]
    fn group_sum_avg_count_min_max() {
        let out = Aggregation::new()
            .group(
                GroupSpec::by(&["sw"])
                    .with("total", Accumulator::Sum("pkts".into()))
                    .with("mean", Accumulator::Avg("pkts".into()))
                    .with("n", Accumulator::Count)
                    .with("lo", Accumulator::Min("pkts".into()))
                    .with("hi", Accumulator::Max("pkts".into())),
            )
            .sort(vec![SortSpec::asc("sw")])
            .run(docs());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get_f64("total"), Some(40.0));
        assert_eq!(out[0].get_f64("mean"), Some(20.0));
        assert_eq!(out[0].get_i64("n"), Some(2));
        assert_eq!(out[1].get_f64("lo"), Some(5.0));
        assert_eq!(out[1].get_f64("hi"), Some(50.0));
    }

    #[test]
    fn pipeline_match_then_group_then_limit() {
        let out = Aggregation::new()
            .matching(Filter::gt("pkts", 5))
            .group(GroupSpec::by(&["sw"]).with("n", Accumulator::Count))
            .sort(vec![SortSpec::desc("n")])
            .limit(1)
            .run(docs());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_i64("sw"), Some(1));
        assert_eq!(out[0].get_i64("n"), Some(2));
    }

    #[test]
    fn group_by_multiple_keys() {
        let out = Aggregation::new()
            .group(GroupSpec::by(&["sw", "port"]).with("n", Accumulator::Count))
            .run(docs());
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|d| d.get_i64("n") == Some(1)));
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let out = Aggregation::new().run(docs());
        assert_eq!(out.len(), 4);
    }
}
