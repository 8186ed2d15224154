//! Property-based tests for the Athena query language: parser totality,
//! parser/builder agreement, and filter-semantics invariants.

use athena_core::{FeatureManager, Query, QueryBuilder};
use athena_store::{doc, StoreCluster};
use proptest::prelude::*;
use serde_json::Value;

/// A feature manager holding one document `{x: v}` per value.
fn stored_x(values: &[i64]) -> FeatureManager {
    let mut fm = FeatureManager::new(&StoreCluster::new(1, 1));
    for v in values {
        fm.ingest_document(doc! { "x" => *v }).unwrap();
    }
    fm
}

/// The field `x` of every record `q` returns, in order.
fn request_x(fm: &FeatureManager, q: &Query) -> Vec<f64> {
    fm.request_features(q)
        .iter()
        .filter_map(|r| r.field("x"))
        .collect()
}

/// One spelling of a document field: the canonical name, or an alias the
/// parser's table maps onto it (any letter case).
fn arb_spelling() -> impl Strategy<Value = (&'static str, &'static str)> {
    prop_oneof![
        Just(("switch", "switch")),
        Just(("switch", "SWITCH")),
        Just(("switch", "DPID")),
        Just(("switch", "dpid")),
        Just(("tp_dst", "tp_dst")),
        Just(("tp_dst", "TCP_PORT")),
        Just(("tp_dst", "port")),
        Just(("message_type", "message_type")),
        Just(("message_type", "feature")),
        Just(("message_type", "TYPE")),
        Just(("app", "APP_ID")),
        Just(("ip_proto", "PROTO")),
        Just(("controller", "CONTROLLER")),
        Just(("FLOW_PACKET_COUNT", "FLOW_PACKET_COUNT")),
        Just(("PAIR_FLOW", "PAIR_FLOW")),
    ]
}

fn arb_field() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("switch".to_owned()),
        Just("tp_dst".to_owned()),
        Just("FLOW_PACKET_COUNT".to_owned()),
        Just("FLOW_BYTE_COUNT".to_owned()),
        Just("PAIR_FLOW".to_owned()),
    ]
}

fn arb_op() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("=="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
    ]
}

proptest! {
    /// Any well-formed comparison chain parses, and its filter never
    /// panics when evaluated against arbitrary documents.
    #[test]
    fn parser_is_total_on_wellformed_input(
        parts in proptest::collection::vec((arb_field(), arb_op(), -1000i64..1000), 1..5),
        doc_values in proptest::collection::vec((arb_field(), -1000i64..1000), 0..5),
        use_or in any::<bool>(),
    ) {
        let glue = if use_or { " or " } else { " && " };
        let text = parts
            .iter()
            .map(|(f, op, v)| format!("{f} {op} {v}"))
            .collect::<Vec<_>>()
            .join(glue);
        let q = Query::parse(&text).unwrap();
        let mut d = doc!{ "seed" => 0 };
        for (f, v) in doc_values {
            d.set(f, v);
        }
        let _ = q.filter.matches(&d); // must not panic
    }

    /// The string parser and the typed builder build the same query — the
    /// same filter tree, structurally — for any field spelling of the
    /// alias table, any of the six operators, and a sort key; and so they
    /// match the same documents.
    #[test]
    fn parser_and_builder_agree(
        parts in proptest::collection::vec((arb_spelling(), arb_op(), -100i64..100), 1..4),
        sort in arb_spelling(),
        desc in any::<bool>(),
        probe in proptest::collection::vec(-100i64..100, 4),
    ) {
        let mut text = parts
            .iter()
            .map(|((_, spelled), op, v)| format!("{spelled} {op} {v}"))
            .collect::<Vec<_>>()
            .join(" && ");
        text += &format!(" sort {} {}", sort.1, if desc { "desc" } else { "asc" });
        let parsed = Query::parse(&text).unwrap();
        let mut builder = QueryBuilder::new();
        for ((_, spelled), op, v) in &parts {
            builder = match *op {
                "==" => builder.eq(spelled, *v),
                "!=" => builder.ne(spelled, *v),
                "<" => builder.lt(spelled, *v),
                "<=" => builder.lte(spelled, *v),
                ">" => builder.gt(spelled, *v),
                _ => builder.gte(spelled, *v),
            };
        }
        builder = if desc { builder.sort_desc(sort.1) } else { builder.sort_asc(sort.1) };
        let built = builder.build();
        prop_assert_eq!(&parsed.filter, &built.filter);
        prop_assert_eq!(&parsed, &built);
        prop_assert_eq!(&built.sort[0].field, sort.0);
        let mut d = doc!{ "seed" => 0 };
        for (((field, _), _, _), v) in parts.iter().zip(probe) {
            d.set(*field, Value::from(v));
        }
        prop_assert_eq!(parsed.filter.matches(&d), built.filter.matches(&d));
    }

    /// A comparison and its negation partition the documents that carry
    /// the field.
    #[test]
    fn eq_and_ne_partition(v in -100i64..100, probe in -100i64..100) {
        let eq = Query::parse(&format!("x == {v}")).unwrap();
        let ne = Query::parse(&format!("x != {v}")).unwrap();
        let d = doc!{ "x" => probe };
        prop_assert_ne!(eq.filter.matches(&d), ne.filter.matches(&d));
    }

    /// `<` and `>=` partition documents carrying the field; `<=` and `>`
    /// likewise.
    #[test]
    fn range_operators_partition(v in -100i64..100, probe in -100i64..100) {
        let d = doc!{ "x" => probe };
        let lt = Query::parse(&format!("x < {v}")).unwrap().filter.matches(&d);
        let gte = Query::parse(&format!("x >= {v}")).unwrap().filter.matches(&d);
        prop_assert_ne!(lt, gte);
        let lte = Query::parse(&format!("x <= {v}")).unwrap().filter.matches(&d);
        let gt = Query::parse(&format!("x > {v}")).unwrap().filter.matches(&d);
        prop_assert_ne!(lte, gt);
    }

    /// Limit is always honored by the store read.
    #[test]
    fn limit_truncates(n in 1usize..50, limit in 1usize..50) {
        let fm = stored_x(&(0..n as i64).collect::<Vec<_>>());
        let q = Query::parse(&format!("limit {limit}")).unwrap();
        prop_assert_eq!(fm.request_features(&q).len(), n.min(limit));
    }

    /// Sorting by a field always yields a monotone sequence.
    #[test]
    fn sort_is_monotone(values in proptest::collection::vec(-1000i64..1000, 0..40)) {
        let fm = stored_x(&values);
        let sorted = request_x(&fm, &Query::parse("sort x asc").unwrap());
        prop_assert_eq!(sorted.len(), values.len());
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }
}
