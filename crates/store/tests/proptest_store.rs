//! Property-based tests for the distributed store: shard routing stability,
//! insert-then-find, filter/sort/limit contracts, and index/scan agreement.

use athena_store::{doc, Document, Filter, FindOptions, SortSpec, StoreCluster};
use proptest::prelude::*;

fn arb_docs() -> impl Strategy<Value = Vec<Document>> {
    proptest::collection::vec((0i64..100, 0i64..10), 1..120).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(v, k)| doc! { "v" => v, "k" => k })
            .collect()
    })
}

proptest! {
    #[test]
    fn insert_then_find_all(docs in arb_docs(), nodes in 1usize..6, repl in 1usize..4) {
        let cluster = StoreCluster::new(nodes, repl);
        let coll = cluster.collection("c");
        let n = docs.len();
        coll.insert_many(docs).unwrap();
        prop_assert_eq!(coll.count(&Filter::All), n);
        prop_assert_eq!(coll.all().len(), n);
    }

    #[test]
    fn filters_partition_the_collection(docs in arb_docs(), pivot in 0i64..100) {
        let cluster = StoreCluster::new(3, 2);
        let coll = cluster.collection("c");
        let n = docs.len();
        coll.insert_many(docs).unwrap();
        let below = coll.count(&Filter::lt("v", pivot));
        let at_or_above = coll.count(&Filter::gte("v", pivot));
        prop_assert_eq!(below + at_or_above, n);
    }

    #[test]
    fn sort_orders_and_limit_truncates(docs in arb_docs(), limit in 1usize..50) {
        let cluster = StoreCluster::new(2, 1);
        let coll = cluster.collection("c");
        let n = docs.len();
        coll.insert_many(docs).unwrap();
        let out = coll.find(
            &Filter::All,
            &FindOptions::default().sort(SortSpec::asc("v")).limit(limit),
        );
        prop_assert_eq!(out.len(), limit.min(n));
        let vs: Vec<i64> = out.iter().filter_map(|d| d.get_i64("v")).collect();
        prop_assert!(vs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn index_and_scan_agree(docs in arb_docs(), key in 0i64..10) {
        let plain = StoreCluster::new(3, 1);
        let indexed = StoreCluster::new(3, 1);
        let pc = plain.collection("c");
        let ic = indexed.collection("c");
        ic.create_index("k");
        pc.insert_many(docs.clone()).unwrap();
        ic.insert_many(docs).unwrap();
        let f = Filter::eq("k", key);
        prop_assert_eq!(pc.count(&f), ic.count(&f));
    }

    #[test]
    fn delete_removes_exactly_matches(docs in arb_docs(), key in 0i64..10) {
        let cluster = StoreCluster::new(4, 3);
        let coll = cluster.collection("c");
        let n = docs.len();
        coll.insert_many(docs).unwrap();
        let matching = coll.count(&Filter::eq("k", key));
        let deleted = coll.delete(&Filter::eq("k", key));
        prop_assert_eq!(deleted, matching);
        prop_assert_eq!(coll.count(&Filter::All), n - matching);
        prop_assert_eq!(coll.count(&Filter::eq("k", key)), 0);
    }

    #[test]
    fn replica_writes_scale_with_replication(
        docs in arb_docs(),
        nodes in 1usize..6,
        repl in 1usize..6,
    ) {
        let cluster = StoreCluster::new(nodes, repl);
        let effective = repl.min(nodes);
        let coll = cluster.collection("c");
        let n = docs.len() as u64;
        coll.insert_many(docs).unwrap();
        prop_assert_eq!(cluster.metrics().replica_writes, n * effective as u64);
    }
}

// Aggregation correctness: grouped sums/counts computed by the store's
// pipeline equal a straightforward serial computation.
proptest! {
    #[test]
    fn group_sum_matches_serial(pairs in proptest::collection::vec((0i64..5, -100i64..100), 1..80)) {
        use athena_store::{Accumulator, Aggregation, GroupSpec};
        use std::collections::HashMap;
        let cluster = StoreCluster::new(3, 2);
        let coll = cluster.collection("agg");
        for (k, v) in &pairs {
            coll.insert(doc! { "k" => *k, "v" => *v }).unwrap();
        }
        let out = coll.aggregate(
            &Aggregation::new().group(
                GroupSpec::by(&["k"])
                    .with("total", Accumulator::Sum("v".into()))
                    .with("n", Accumulator::Count),
            ),
        );
        let mut expect: HashMap<i64, (f64, i64)> = HashMap::new();
        for (k, v) in &pairs {
            let e = expect.entry(*k).or_default();
            e.0 += *v as f64;
            e.1 += 1;
        }
        prop_assert_eq!(out.len(), expect.len());
        for d in &out {
            let k = d.get_i64("k").unwrap();
            let (total, n) = expect[&k];
            prop_assert_eq!(d.get_f64("total").unwrap(), total);
            prop_assert_eq!(d.get_i64("n").unwrap(), n);
        }
    }

    /// Updates are idempotent in count and visible to subsequent finds.
    #[test]
    fn update_then_find_consistency(n in 1usize..60, pivot in 0i64..60) {
        let cluster = StoreCluster::new(2, 2);
        let coll = cluster.collection("u");
        for i in 0..n as i64 {
            coll.insert(doc! { "i" => i, "flag" => 0 }).unwrap();
        }
        // Update every replica consistently via delete+insert semantics is
        // already covered; here we check a filtered find after inserts.
        let below = coll.count(&Filter::lt("i", pivot));
        prop_assert_eq!(below, n.min(pivot.max(0) as usize));
    }
}

// The journal sizes a document without serializing it; the number must
// be the serializer's, for every value shape the store accepts.

/// Characters covering every escape class of the JSON writer: the two
/// quoted specials, the five named controls, `\u00XX` controls, plain
/// ASCII (DEL included) and 2-, 3- and 4-byte UTF-8.
const CHARS: [char; 18] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{01}',
    '\u{1f}', '\u{7f}', 'é', '∑', '😀',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_value(depth: u32) -> BoxedStrategy<serde_json::Value> {
    use proptest::strategy::boxed;
    use serde_json::Value;
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<u64>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        (-1000i64..1000).prop_map(Value::from),
        // Every finite bit pattern: subnormals, exponent notation, -0.0.
        any::<u64>().prop_map(|bits| Value::from(f64::from_bits(bits))),
        // Integer-valued and short-fraction floats, the common field shape.
        (any::<i32>(), 0i32..4)
            .prop_map(|(m, scale)| Value::from(f64::from(m) / 10f64.powi(scale))),
        (any::<u64>(), 0i32..4).prop_map(|(m, scale)| Value::from(m as f64 / 10f64.powi(scale))),
        arb_string().prop_map(Value::from),
    ];
    if depth == 0 {
        return boxed(leaf);
    }
    boxed(prop_oneof![
        leaf,
        proptest::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::from),
        proptest::collection::vec((arb_string(), arb_value(depth - 1)), 0..4)
            .prop_map(|members| Value::Object(members.into_iter().collect())),
    ])
}

proptest! {
    #[test]
    fn encoded_len_is_the_serialized_length(
        members in proptest::collection::vec((arb_string(), arb_value(3)), 0..8),
    ) {
        let doc = Document {
            fields: members.into_iter().collect(),
            ..Document::default()
        };
        let bytes = serde_json::to_vec(&doc.fields).unwrap();
        prop_assert_eq!(doc.encoded_len(), bytes.len());
    }
}

/// A few names that share prefixes, so edits collide and neighbours in
/// name order are one character apart.
const KEYS: [&str; 8] = ["a", "ab", "abc", "b", "B", "_", "k0", "k1"];

#[derive(Debug, Clone)]
enum DocOp {
    Set(usize, serde_json::Value),
    With(usize, serde_json::Value),
    /// Rebuild from the JSON object.
    FromValue,
    /// Store in a shard and edit there (copy-on-write, index upkeep).
    UpdateById(Vec<(usize, serde_json::Value)>),
    /// Through JSON text and back.
    Deserialise,
}

fn arb_member() -> impl Strategy<Value = serde_json::Value> {
    use serde_json::Value;
    prop_oneof![
        (-1000i64..1000).prop_map(Value::from),
        (any::<i32>(), 0i32..4)
            .prop_map(|(m, scale)| Value::from(f64::from(m) / 10f64.powi(scale))),
        arb_string().prop_map(Value::from),
        // One level of nesting, for the dotted paths.
        proptest::collection::vec((0usize..KEYS.len(), -9i64..9), 0..3).prop_map(|members| {
            Value::Object(
                members
                    .into_iter()
                    .map(|(k, v)| (KEYS[k].to_owned(), Value::from(v)))
                    .collect(),
            )
        }),
    ]
}

fn arb_doc_op() -> impl Strategy<Value = DocOp> {
    prop_oneof![
        (0usize..KEYS.len(), arb_member()).prop_map(|(k, v)| DocOp::Set(k, v)),
        (0usize..KEYS.len(), arb_member()).prop_map(|(k, v)| DocOp::With(k, v)),
        Just(DocOp::FromValue),
        proptest::collection::vec((0usize..KEYS.len(), arb_member()), 0..4)
            .prop_map(DocOp::UpdateById),
        Just(DocOp::Deserialise),
    ]
}

proptest! {
    #[test]
    fn document_keys_stay_sorted_and_lookups_agree_with_a_map(
        ops in proptest::collection::vec(arb_doc_op(), 1..24),
    ) {
        use athena_store::collection::Collection;
        use athena_store::DocId;
        use serde_json::Value;
        use std::collections::BTreeMap;

        let mut doc = Document::new();
        let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            match op {
                DocOp::Set(k, v) => {
                    doc.set(KEYS[k], v.clone());
                    oracle.insert(KEYS[k].to_owned(), v);
                }
                DocOp::With(k, v) => {
                    // Run-time names take the shared-string form of a key.
                    doc = doc.with(KEYS[k].to_owned(), v.clone());
                    oracle.insert(KEYS[k].to_owned(), v);
                }
                DocOp::FromValue => {
                    doc = Document::from_value(Value::Object(oracle.clone().into_iter().collect()));
                }
                DocOp::UpdateById(changes) => {
                    let changes: Vec<(String, Value)> = changes
                        .into_iter()
                        .map(|(k, v)| (KEYS[k].to_owned(), v))
                        .collect();
                    let mut shard = Collection::new("c");
                    shard.create_index("a");
                    shard.insert_with_id(DocId(7), doc);
                    prop_assert!(shard.update_by_id(DocId(7), &changes));
                    doc = shard.get(DocId(7)).cloned().unwrap();
                    doc.id = DocId(0);
                    oracle.extend(changes);
                }
                DocOp::Deserialise => {
                    let text = serde_json::to_string(&doc).unwrap();
                    doc = serde_json::from_str(&text).unwrap();
                }
            }
            let keys: Vec<&str> = doc.fields.iter().map(|(k, _)| k.as_str()).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
            prop_assert_eq!(keys, oracle.keys().map(String::as_str).collect::<Vec<_>>());
            for name in KEYS {
                prop_assert_eq!(doc.get(name), oracle.get(name), "{}", name);
                for inner in KEYS {
                    let nested = oracle
                        .get(name)
                        .and_then(Value::as_object)
                        .and_then(|m| m.get(inner));
                    prop_assert_eq!(doc.get(&format!("{name}.{inner}")), nested);
                }
            }
            // Same members, same order, same bytes as the map would print.
            prop_assert_eq!(
                serde_json::to_string(&doc.fields).unwrap(),
                serde_json::to_string(&oracle).unwrap()
            );
        }
    }
}
