//! Filter trees: the store's query predicate language.
//!
//! Filters are built programmatically ([`Filter::eq`], [`Filter::and`], …)
//! and mirror the operator set of Athena's northbound query language
//! (Table IV of the paper): arithmetic comparisons `> >= == != <= <` and
//! the relationships `and` / `or`.

use crate::document::Document;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::cmp::Ordering;
use std::fmt;

/// A predicate over documents.
///
/// # Examples
///
/// ```
/// use athena_store::{doc, Filter};
///
/// let f = Filter::and(vec![
///     Filter::eq("proto", "TCP"),
///     Filter::gte("packet_count", 100),
/// ]);
/// assert!(f.matches(&doc! { "proto" => "TCP", "packet_count" => 150 }));
/// assert!(!f.matches(&doc! { "proto" => "UDP", "packet_count" => 150 }));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Filter {
    /// Matches every document.
    #[default]
    All,
    /// Field equals value.
    Eq(String, Value),
    /// Field differs from value (missing fields match).
    Ne(String, Value),
    /// Field is strictly less than value.
    Lt(String, Value),
    /// Field is at most value.
    Lte(String, Value),
    /// Field is strictly greater than value.
    Gt(String, Value),
    /// Field is at least value.
    Gte(String, Value),
    /// Field equals one of the values.
    In(String, Vec<Value>),
    /// Field exists.
    Exists(String),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Field-equals shorthand.
    pub fn eq(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Eq(field.into(), v.into())
    }

    /// Field-not-equals shorthand.
    pub fn ne(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Ne(field.into(), v.into())
    }

    /// Less-than shorthand.
    pub fn lt(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Lt(field.into(), v.into())
    }

    /// Less-or-equal shorthand.
    pub fn lte(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Lte(field.into(), v.into())
    }

    /// Greater-than shorthand.
    pub fn gt(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Gt(field.into(), v.into())
    }

    /// Greater-or-equal shorthand.
    pub fn gte(field: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Gte(field.into(), v.into())
    }

    /// Set-membership shorthand.
    pub fn is_in(field: impl Into<String>, vs: Vec<Value>) -> Self {
        Filter::In(field.into(), vs)
    }

    /// Conjunction (empty = matches everything).
    pub fn and(fs: Vec<Filter>) -> Self {
        Filter::And(fs)
    }

    /// Disjunction (empty = matches nothing).
    pub fn or(fs: Vec<Filter>) -> Self {
        Filter::Or(fs)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Filter) -> Self {
        Filter::Not(Box::new(f))
    }

    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::All => true,
            Filter::Eq(f, v) => doc.get(f).is_some_and(|dv| values_equal(dv, v)),
            Filter::Ne(f, v) => !doc.get(f).is_some_and(|dv| values_equal(dv, v)),
            Filter::Lt(f, v) => cmp_field(doc, f, v).is_some_and(Ordering::is_lt),
            Filter::Lte(f, v) => cmp_field(doc, f, v).is_some_and(Ordering::is_le),
            Filter::Gt(f, v) => cmp_field(doc, f, v).is_some_and(Ordering::is_gt),
            Filter::Gte(f, v) => cmp_field(doc, f, v).is_some_and(Ordering::is_ge),
            Filter::In(f, vs) => doc
                .get(f)
                .is_some_and(|dv| vs.iter().any(|v| values_equal(dv, v))),
            Filter::Exists(f) => doc.get(f).is_some(),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }

    /// The filter as one flat conjunction: the sub-filters that must all
    /// match, with nested `And`s flattened and `All` dropped (`All`
    /// itself is the empty list). What the shard's planner chooses an
    /// index from.
    pub(crate) fn conjuncts(&self) -> Vec<&Filter> {
        fn flatten<'a>(f: &'a Filter, out: &mut Vec<&'a Filter>) {
            match f {
                Filter::All => {}
                Filter::And(fs) => fs.iter().for_each(|f| flatten(f, out)),
                f => out.push(f),
            }
        }
        let mut out = Vec::new();
        flatten(self, &mut out);
        out
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::All => write!(f, "*"),
            Filter::Eq(k, v) => write!(f, "{k}=={v}"),
            Filter::Ne(k, v) => write!(f, "{k}!={v}"),
            Filter::Lt(k, v) => write!(f, "{k}<{v}"),
            Filter::Lte(k, v) => write!(f, "{k}<={v}"),
            Filter::Gt(k, v) => write!(f, "{k}>{v}"),
            Filter::Gte(k, v) => write!(f, "{k}>={v}"),
            Filter::In(k, vs) => write!(f, "{k} in {vs:?}"),
            Filter::Exists(k) => write!(f, "exists({k})"),
            Filter::And(fs) => {
                let parts: Vec<String> = fs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" and "))
            }
            Filter::Or(fs) => {
                let parts: Vec<String> = fs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" or "))
            }
            Filter::Not(x) => write!(f, "not({x})"),
        }
    }
}

/// Numeric-aware equality: `1` equals `1.0`.
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// Total order across comparable JSON values.
///
/// Numbers compare numerically; strings lexicographically; booleans
/// false-before-true. Cross-type comparisons order by type rank
/// (null < bool < number < string) so sorting is total.
pub fn compare_values(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Number(_) => 2,
            Value::String(_) => 3,
            Value::Array(_) => 4,
            Value::Object(_) => 5,
        }
    }
    match (a, b) {
        (Value::Number(_), Value::Number(_)) => {
            let (x, y) = (
                a.as_f64().unwrap_or(f64::NAN),
                b.as_f64().unwrap_or(f64::NAN),
            );
            x.partial_cmp(&y).unwrap_or(Ordering::Equal)
        }
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn cmp_field(doc: &Document, field: &str, v: &Value) -> Option<Ordering> {
    let dv = doc.get(field)?;
    // Range comparisons only make sense within a type.
    if std::mem::discriminant(dv) != std::mem::discriminant(v) && !(dv.is_number() && v.is_number())
    {
        return None;
    }
    Some(compare_values(dv, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use serde_json::json;

    fn d() -> Document {
        doc! { "n" => 10, "s" => "abc", "b" => true }
    }

    #[test]
    fn comparison_operators() {
        assert!(Filter::eq("n", 10).matches(&d()));
        assert!(Filter::eq("n", 10.0).matches(&d()));
        assert!(Filter::ne("n", 11).matches(&d()));
        assert!(Filter::lt("n", 11).matches(&d()));
        assert!(Filter::lte("n", 10).matches(&d()));
        assert!(Filter::gt("n", 9).matches(&d()));
        assert!(Filter::gte("n", 10).matches(&d()));
        assert!(!Filter::gt("n", 10).matches(&d()));
    }

    #[test]
    fn missing_fields() {
        assert!(!Filter::eq("missing", 1).matches(&d()));
        assert!(Filter::ne("missing", 1).matches(&d())); // vacuous
        assert!(!Filter::gt("missing", 1).matches(&d()));
        assert!(Filter::Exists("n".into()).matches(&d()));
        assert!(!Filter::Exists("missing".into()).matches(&d()));
    }

    #[test]
    fn cross_type_range_comparisons_never_match() {
        assert!(!Filter::gt("s", 5).matches(&d()));
        assert!(!Filter::lt("b", 5).matches(&d()));
    }

    #[test]
    fn boolean_combinators() {
        let f = Filter::or(vec![Filter::eq("n", 99), Filter::eq("s", "abc")]);
        assert!(f.matches(&d()));
        let f = Filter::and(vec![Filter::eq("n", 10), Filter::eq("s", "xyz")]);
        assert!(!f.matches(&d()));
        assert!(Filter::and(vec![]).matches(&d()));
        assert!(!Filter::or(vec![]).matches(&d()));
        assert!(Filter::not(Filter::eq("n", 99)).matches(&d()));
    }

    #[test]
    fn in_operator() {
        assert!(Filter::is_in("n", vec![json!(1), json!(10)]).matches(&d()));
        assert!(!Filter::is_in("n", vec![json!(1), json!(2)]).matches(&d()));
    }

    #[test]
    fn string_comparisons_are_lexicographic() {
        assert!(Filter::lt("s", "abd").matches(&d()));
        assert!(Filter::gt("s", "abb").matches(&d()));
    }

    #[test]
    fn conjuncts_flatten_nested_ands_only() {
        let or = Filter::or(vec![Filter::eq("a", 1), Filter::eq("b", 2)]);
        let f = Filter::and(vec![
            Filter::gt("x", 1),
            Filter::All,
            Filter::and(vec![Filter::eq("k", "v"), or.clone()]),
        ]);
        assert_eq!(
            f.conjuncts(),
            [&Filter::gt("x", 1), &Filter::eq("k", "v"), &or]
        );
        assert_eq!(Filter::eq("k", 1).conjuncts(), [&Filter::eq("k", 1)]);
        assert!(Filter::All.conjuncts().is_empty());
        assert!(Filter::and(vec![]).conjuncts().is_empty());
    }

    #[test]
    fn compare_values_is_total() {
        let vals = [json!(null), json!(true), json!(1), json!("s")];
        for a in &vals {
            for b in &vals {
                // No panic, antisymmetric.
                let ab = compare_values(a, b);
                let ba = compare_values(b, a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let f = Filter::and(vec![Filter::eq("a", 1), Filter::gt("b", 2)]);
        assert_eq!(f.to_string(), "(a==1 and b>2)");
    }
}
