//! Property-based tests for the Athena query language: parser totality,
//! parser/builder agreement, and filter-semantics invariants.

use athena_core::{Query, QueryBuilder};
use athena_store::doc;
use proptest::prelude::*;
use std::sync::Arc;

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
        let _ = q.to_filter().matches(&d); // must not panic
    }

    /// The string parser and the typed builder agree on matching
    /// semantics for conjunctions of equalities and comparisons.
    #[test]
    fn parser_and_builder_agree(
        a in -100i64..100,
        b in -100i64..100,
        probe_a in -100i64..100,
        probe_b in -100i64..100,
    ) {
        let text = format!("switch == {a} && FLOW_PACKET_COUNT >= {b}");
        let parsed = Query::parse(&text).unwrap();
        let built = QueryBuilder::new()
            .eq("switch", a)
            .gte("FLOW_PACKET_COUNT", b)
            .build();
        let d = doc!{ "switch" => probe_a, "FLOW_PACKET_COUNT" => probe_b };
        prop_assert_eq!(
            parsed.to_filter().matches(&d),
            built.to_filter().matches(&d)
        );
    }

    /// A comparison and its negation partition the documents that carry
    /// the field.
    #[test]
    fn eq_and_ne_partition(v in -100i64..100, probe in -100i64..100) {
        let eq = Query::parse(&format!("x == {v}")).unwrap();
        let ne = Query::parse(&format!("x != {v}")).unwrap();
        let d = doc!{ "x" => probe };
        prop_assert_ne!(
            eq.to_filter().matches(&d),
            ne.to_filter().matches(&d)
        );
    }

    /// `<` and `>=` partition documents carrying the field; `<=` and `>`
    /// likewise.
    #[test]
    fn range_operators_partition(v in -100i64..100, probe in -100i64..100) {
        let d = doc!{ "x" => probe };
        let lt = Query::parse(&format!("x < {v}")).unwrap().to_filter().matches(&d);
        let gte = Query::parse(&format!("x >= {v}")).unwrap().to_filter().matches(&d);
        prop_assert_ne!(lt, gte);
        let lte = Query::parse(&format!("x <= {v}")).unwrap().to_filter().matches(&d);
        let gt = Query::parse(&format!("x > {v}")).unwrap().to_filter().matches(&d);
        prop_assert_ne!(lte, gt);
    }

    /// Limit is always honored by find-options application.
    #[test]
    fn limit_truncates(n in 1usize..50, limit in 1usize..50) {
        let q = Query::parse(&format!("limit {limit}")).unwrap();
        let docs: Vec<Arc<athena_store::Document>> =
            (0..n).map(|i| Arc::new(doc!{ "i" => i as i64 })).collect();
        let out = q.to_find_options().apply(docs);
        prop_assert_eq!(out.len(), n.min(limit));
    }

    /// Sorting by a field always yields a monotone sequence.
    #[test]
    fn sort_is_monotone(values in proptest::collection::vec(-1000i64..1000, 0..40)) {
        let q = Query::parse("sort x asc").unwrap();
        let docs: Vec<Arc<athena_store::Document>> =
            values.iter().map(|v| Arc::new(doc!{ "x" => *v })).collect();
        let out = q.to_find_options().apply(docs);
        let sorted: Vec<i64> = out.iter().filter_map(|d| d.get_i64("x")).collect();
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }
}
