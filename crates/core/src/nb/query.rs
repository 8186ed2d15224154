//! The Athena unified query language (the `Query (q)` parameter of
//! Table III).
//!
//! Queries combine arithmetic comparisons (`> >= == != <= <`) with
//! `and`/`or` (also spelled `&&`/`||`), plus the options of Table IV:
//! sorting, aggregation, and limiting. The string syntax matches the
//! paper's examples (`"TCP_PORT==80 && time==1 day"`), and a typed
//! [`QueryBuilder`] offers the same power programmatically. Both build
//! the store's own [`Filter`] and [`SortSpec`]s: a query is what the
//! store evaluates, with no translation step in between.

use athena_store::{Filter, SortSpec};
use athena_types::{AthenaError, Result};
use serde_json::Value;

/// A comparison operator: one of the store filter's variant constructors
/// (`Filter::Eq`, `Filter::Ne`, …), which serve as the operator table.
type Cmp = fn(String, Value) -> Filter;

/// An Athena query: the store filter plus result-shaping options.
///
/// # Examples
///
/// ```
/// use athena_core::Query;
/// let q = Query::parse("TCP_PORT==80 && FLOW_PACKET_COUNT>100 sort FLOW_BYTE_COUNT desc limit 10")?;
/// assert_eq!(q.limit, Some(10));
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The store filter (`Filter::All` = match everything).
    pub filter: Filter,
    /// Sort keys, applied in order.
    pub sort: Vec<SortSpec>,
    /// Maximum results.
    pub limit: Option<usize>,
    /// Feature fields to retain (empty = all).
    pub features: Vec<String>,
}

impl Query {
    /// The match-everything query.
    pub fn all() -> Self {
        Query::default()
    }

    /// Parses the paper's string syntax.
    ///
    /// Grammar (whitespace-separated):
    /// `comparison ( (&&|and|,|\|\||or) comparison )*`
    /// `[sort FIELD [asc|desc]]* [limit N]`, where a comparison is
    /// `FIELD op VALUE` (spaces around `op` optional). `or` binds the
    /// whole disjunct list (no mixed precedence — parenthesization is not
    /// supported, matching the paper's flat examples).
    ///
    /// Field aliases map the paper's names onto document fields:
    /// `TCP_PORT`/`PORT` → `tp_dst`, `IP_SRC` → `ip_src` (value parsed as
    /// a dotted address), `IP_DST` → `ip_dst`, `DPID`/`SWITCH` →
    /// `switch`, `APP_ID`/`APP` → `app`, `feature`/`type` →
    /// `message_type`, `time` → `timestamp` (value in seconds, `1 day`
    /// style suffixes supported).
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Parse`] on malformed input.
    pub fn parse(text: &str) -> Result<Self> {
        parse_query(text)
    }
}

/// A typed builder for [`Query`]. Field names go through the same alias
/// table as [`Query::parse`], so `.eq("feature", "FLOW_STATS")` selects
/// what `feature==FLOW_STATS` selects.
///
/// # Examples
///
/// ```
/// use athena_core::QueryBuilder;
/// let q = QueryBuilder::new()
///     .eq("message_type", "FLOW_STATS")
///     .gt("FLOW_PACKET_COUNT", 100)
///     .sort_desc("FLOW_BYTE_COUNT")
///     .limit(5)
///     .build();
/// assert_eq!(q.limit, Some(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    conjuncts: Vec<Filter>,
    sort: Vec<SortSpec>,
    limit: Option<usize>,
    features: Vec<String>,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        QueryBuilder::default()
    }

    fn cmp(mut self, op: Cmp, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.conjuncts
            .push(op(canonical_field(field.as_ref()), value.into()));
        self
    }

    /// Adds `field == value`.
    pub fn eq(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Eq, field, value)
    }

    /// Adds `field != value`.
    pub fn ne(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Ne, field, value)
    }

    /// Adds `field > value`.
    pub fn gt(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Gt, field, value)
    }

    /// Adds `field >= value`.
    pub fn gte(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Gte, field, value)
    }

    /// Adds `field < value`.
    pub fn lt(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Lt, field, value)
    }

    /// Adds `field <= value`.
    pub fn lte(self, field: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.cmp(Filter::Lte, field, value)
    }

    /// Adds `field in values` (the paper's `IP_SRC in {suspicious hosts}`).
    pub fn is_in(mut self, field: impl AsRef<str>, values: Vec<Value>) -> Self {
        self.conjuncts
            .push(Filter::In(canonical_field(field.as_ref()), values));
        self
    }

    /// Adds an ascending sort key.
    pub fn sort_asc(mut self, field: impl AsRef<str>) -> Self {
        self.sort
            .push(SortSpec::asc(canonical_field(field.as_ref())));
        self
    }

    /// Adds a descending sort key.
    pub fn sort_desc(mut self, field: impl AsRef<str>) -> Self {
        self.sort
            .push(SortSpec::desc(canonical_field(field.as_ref())));
        self
    }

    /// Caps the result count.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Restricts to the named feature fields.
    pub fn features(mut self, names: &[&str]) -> Self {
        self.features = names.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Builds the query.
    pub fn build(self) -> Query {
        Query {
            filter: combine(self.conjuncts, Filter::And),
            sort: self.sort,
            limit: self.limit,
            features: self.features,
        }
    }
}

/// Joins comparisons: none matches everything, one stands alone, more
/// are combined with `join` (`Filter::And` or `Filter::Or`).
fn combine(mut parts: Vec<Filter>, join: fn(Vec<Filter>) -> Filter) -> Filter {
    match parts.len() {
        0 => Filter::All,
        1 => parts.pop().unwrap_or_default(),
        _ => join(parts),
    }
}

/// Canonicalizes the paper's field aliases.
fn canonical_field(name: &str) -> String {
    match name.to_ascii_uppercase().as_str() {
        "TCP_PORT" | "PORT" | "TP_DST" => "tp_dst".to_owned(),
        "TP_SRC" => "tp_src".to_owned(),
        "IP_SRC" => "ip_src".to_owned(),
        "IP_DST" => "ip_dst".to_owned(),
        "IP_PROTO" | "PROTO" => "ip_proto".to_owned(),
        "DPID" | "SWITCH" => "switch".to_owned(),
        "APP" | "APP_ID" => "app".to_owned(),
        "FEATURE" | "TYPE" | "MESSAGE_TYPE" => "message_type".to_owned(),
        "TIME" | "TIMESTAMP" => "timestamp".to_owned(),
        "CONTROLLER" => "controller".to_owned(),
        _ => name.to_owned(),
    }
}

fn parse_value(field: &str, raw: &str) -> Result<Value> {
    // IP-valued fields accept dotted quads and store the raw u32.
    if field == "ip_src" || field == "ip_dst" {
        if let Ok(ip) = raw.parse::<athena_types::Ipv4Addr>() {
            return Ok(Value::from(ip.raw()));
        }
    }
    if let Ok(n) = raw.parse::<i64>() {
        return Ok(Value::from(n));
    }
    if let Ok(x) = raw.parse::<f64>() {
        return Ok(Value::from(x));
    }
    // Quoted or bare string.
    Ok(Value::from(raw.trim_matches('"').to_owned()))
}

/// Duration-suffixed values for the `time` field: `1 day`, `5 min`, `30 sec`.
fn parse_time_value(amount: &str, unit: Option<&str>) -> Option<i64> {
    let n: f64 = amount.parse().ok()?;
    let mult = match unit.unwrap_or("sec") {
        "day" | "days" | "d" => 86_400.0,
        "hour" | "hours" | "h" => 3_600.0,
        "min" | "mins" | "m" => 60.0,
        "sec" | "secs" | "s" => 1.0,
        _ => return None,
    };
    // Timestamps are stored in microseconds.
    Some((n * mult * 1e6) as i64)
}

fn parse_query(text: &str) -> Result<Query> {
    let bad = |why: &str| AthenaError::parse("query", format!("{text} ({why})"));
    // Normalize operators so everything splits on whitespace.
    let mut norm = text.replace("&&", " and ").replace("||", " or ");
    for op in ["<=", ">=", "==", "!="] {
        norm = norm.replace(op, &format!(" {op} "));
    }
    // Single-char ops last (avoid splitting the two-char ones).
    let norm = norm
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .replace('<', " < ")
        .replace('>', " > ")
        .replace("<  =", "<=")
        .replace(">  =", ">=")
        .replace("<= =", "<==") // never valid; caught below
        .replace("= =", "==");
    let mut tokens: Vec<&str> = norm.split_whitespace().collect();
    // Repair two-char ops that single-char splitting broke apart.
    let mut fixed: Vec<String> = Vec::with_capacity(tokens.len());
    let mut parts = tokens.iter().peekable();
    while let Some(&tok) = parts.next() {
        if (tok == "<" || tok == ">") && parts.peek() == Some(&&"=") {
            parts.next();
            fixed.push(format!("{tok}="));
        } else {
            fixed.push(tok.to_owned());
        }
    }
    tokens = fixed.iter().map(String::as_str).collect();

    let mut query = Query::default();
    let mut comparisons: Vec<Filter> = Vec::new();
    let mut any_or = false;
    let mut i = 0;
    while let Some(tok) = tokens.get(i) {
        match *tok {
            "and" | "," => {
                i += 1;
            }
            "or" => {
                any_or = true;
                i += 1;
            }
            "sort" => {
                let field = tokens.get(i + 1).ok_or_else(|| bad("sort needs a field"))?;
                let (order, step): (fn(String) -> SortSpec, usize) = match tokens.get(i + 2) {
                    Some(&"desc") => (SortSpec::desc, 3),
                    Some(&"asc") => (SortSpec::asc, 3),
                    _ => (SortSpec::asc, 2),
                };
                query.sort.push(order(canonical_field(field)));
                i += step;
            }
            "limit" => {
                let n = tokens
                    .get(i + 1)
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| bad("limit needs a number"))?;
                query.limit = Some(n);
                i += 2;
            }
            field_tok => {
                let op_tok = tokens.get(i + 1).ok_or_else(|| bad("missing operator"))?;
                let op: Cmp = match *op_tok {
                    "==" => Filter::Eq,
                    "!=" => Filter::Ne,
                    "<" => Filter::Lt,
                    "<=" => Filter::Lte,
                    ">" => Filter::Gt,
                    ">=" => Filter::Gte,
                    other => return Err(bad(&format!("unknown operator {other:?}"))),
                };
                let value_tok = tokens.get(i + 2).ok_or_else(|| bad("missing value"))?;
                let field = canonical_field(field_tok);
                let mut consumed = 3;
                let value = if field == "timestamp" {
                    let unit = tokens.get(i + 3).copied();
                    let unit_valid = unit.is_some_and(|u| parse_time_value("1", Some(u)).is_some());
                    if unit_valid {
                        consumed = 4;
                    }
                    match parse_time_value(value_tok, if unit_valid { unit } else { None }) {
                        Some(us) => Value::from(us),
                        None => parse_value(&field, value_tok)?,
                    }
                } else {
                    parse_value(&field, value_tok)?
                };
                comparisons.push(op(field, value));
                i += consumed;
            }
        }
    }
    query.filter = combine(comparisons, if any_or { Filter::Or } else { Filter::And });
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_store::doc;

    #[test]
    fn parses_the_papers_example() {
        let q = Query::parse("TCP_PORT==80 && time==1 day").unwrap();
        assert_eq!(
            q.filter,
            Filter::And(vec![
                Filter::eq("tp_dst", 80),
                Filter::eq("timestamp", 86_400_000_000i64),
            ])
        );
    }

    #[test]
    fn parses_all_six_operators() {
        let cases: [(&str, Cmp); 6] = [
            ("x == 1", Filter::Eq),
            ("x != 1", Filter::Ne),
            ("x < 1", Filter::Lt),
            ("x <= 1", Filter::Lte),
            ("x > 1", Filter::Gt),
            ("x >= 1", Filter::Gte),
        ];
        for (text, op) in cases {
            let q = Query::parse(text).unwrap();
            assert_eq!(q.filter, op("x".into(), Value::from(1)), "{text}");
        }
    }

    #[test]
    fn parses_or_and_options() {
        let q = Query::parse("switch==6 or switch==3 sort timestamp asc limit 100").unwrap();
        assert!(matches!(q.filter, Filter::Or(_)));
        assert_eq!(q.sort, vec![SortSpec::asc("timestamp")]);
        assert_eq!(q.limit, Some(100));
    }

    #[test]
    fn ip_values_become_raw_u32() {
        let q = Query::parse("IP_DST==10.0.0.5").unwrap();
        assert_eq!(
            q.filter,
            Filter::eq("ip_dst", athena_types::Ipv4Addr::new(10, 0, 0, 5).raw())
        );
    }

    #[test]
    fn filter_translation_matches_documents() {
        let f = Query::parse("message_type==FLOW_STATS && FLOW_PACKET_COUNT>10")
            .unwrap()
            .filter;
        assert!(f.matches(&doc! {
            "message_type" => "FLOW_STATS",
            "FLOW_PACKET_COUNT" => 50,
        }));
        assert!(!f.matches(&doc! {
            "message_type" => "PORT_STATS",
            "FLOW_PACKET_COUNT" => 50,
        }));
        assert!(!f.matches(&doc! {
            "message_type" => "FLOW_STATS",
            "FLOW_PACKET_COUNT" => 5,
        }));
    }

    #[test]
    fn builder_and_parser_agree() {
        let parsed = Query::parse("tp_dst==80 && FLOW_BYTE_COUNT>=1000 limit 3").unwrap();
        let built = QueryBuilder::new()
            .eq("tp_dst", 80)
            .gte("FLOW_BYTE_COUNT", 1000)
            .limit(3)
            .build();
        assert_eq!(parsed, built);
    }

    #[test]
    fn builder_resolves_the_alias_table() {
        let built = QueryBuilder::new()
            .eq("feature", "FLOW_STATS")
            .eq("TCP_PORT", 80)
            .is_in("DPID", vec![Value::from(1)])
            .sort_desc("time")
            .build();
        assert_eq!(
            built.filter,
            Filter::And(vec![
                Filter::eq("message_type", "FLOW_STATS"),
                Filter::eq("tp_dst", 80),
                Filter::is_in("switch", vec![Value::from(1)]),
            ])
        );
        assert_eq!(built.sort, vec![SortSpec::desc("timestamp")]);
        assert!(built.filter.matches(&doc! {
            "message_type" => "FLOW_STATS",
            "tp_dst" => 80,
            "switch" => 1,
        }));
    }

    #[test]
    fn in_predicate_for_suspicious_hosts() {
        let f = QueryBuilder::new()
            .is_in("ip_src", vec![Value::from(1u32), Value::from(2u32)])
            .build()
            .filter;
        assert!(f.matches(&doc! { "ip_src" => 2 }));
        assert!(!f.matches(&doc! { "ip_src" => 3 }));
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(Query::parse("x ==").is_err());
        assert!(Query::parse("x ?? 3").is_err());
        assert!(Query::parse("limit abc").is_err());
        assert!(Query::parse("sort").is_err());
    }

    #[test]
    fn empty_query_matches_everything() {
        let q = Query::parse("").unwrap();
        assert_eq!(q, Query::all());
        assert_eq!(q.filter, Filter::All);
        assert!(q.filter.matches(&doc! { "anything" => 1 }));
    }

    #[test]
    fn time_units() {
        for (text, us) in [
            ("time>=1 day", 86_400_000_000i64),
            ("time>=2 hour", 7_200_000_000),
            ("time>=5 min", 300_000_000),
            ("time>=30 sec", 30_000_000),
            ("time>=7", 7_000_000),
        ] {
            let q = Query::parse(text).unwrap();
            assert_eq!(q.filter, Filter::gte("timestamp", us), "{text}");
        }
    }
}
