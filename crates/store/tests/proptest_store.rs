//! Property-based tests for the distributed store: shard routing stability,
//! insert-then-find, filter/sort/limit contracts, and index/scan agreement.

use athena_store::{doc, Document, Filter, FindOptions, Placement, SortSpec, StoreCluster};
use proptest::prelude::*;

mod bson;

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

// The journal charges a copy its BSON length without encoding it; the
// number must be the encoder's, for every value shape the store accepts.

/// Characters of one, two, three and four UTF-8 bytes, and the controls
/// and quotes a JSON writer would escape (BSON writes them as is).
const CHARS: [char; 18] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{01}',
    '\u{1f}', '\u{7f}', 'é', '∑', '😀',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Integers at the edges of BSON's int32 / int64 split: the last of each
/// width and the first past it, from both sides, and `u64`s above
/// `i64::MAX`.
const EDGES: [i128; 12] = [
    0,
    -1,
    i32::MAX as i128,
    i32::MAX as i128 + 1,
    i32::MIN as i128,
    i32::MIN as i128 - 1,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MAX as i128 + 1,
    u64::MAX as i128,
    u32::MAX as i128,
    -(u32::MAX as i128),
];

fn edge_integer(i: i128) -> serde_json::Value {
    match i64::try_from(i) {
        Ok(i) => i.into(),
        Err(_) => u64::try_from(i).expect("in u64 range").into(),
    }
}

fn arb_value(depth: u32) -> BoxedStrategy<serde_json::Value> {
    use proptest::strategy::boxed;
    use serde_json::Value;
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<u64>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        any::<i32>().prop_map(Value::from),
        (-1000i64..1000).prop_map(Value::from),
        (0..EDGES.len()).prop_map(|i| edge_integer(EDGES[i])),
        // Every finite bit pattern: subnormals, exponent notation, -0.0.
        any::<u64>().prop_map(|bits| Value::from(f64::from_bits(bits))),
        // Integer-valued floats stay doubles.
        any::<i32>().prop_map(|m| Value::from(f64::from(m))),
        arb_string().prop_map(Value::from),
    ];
    if depth == 0 {
        return boxed(leaf);
    }
    boxed(prop_oneof![
        leaf,
        proptest::collection::vec(arb_value(depth - 1), 0..12).prop_map(Value::from),
        proptest::collection::vec((arb_string(), arb_value(depth - 1)), 0..4)
            .prop_map(|members| Value::Object(members.into_iter().collect())),
    ])
}

proptest! {
    #[test]
    fn bson_len_is_the_encoded_length(
        members in proptest::collection::vec((arb_string(), arb_value(3)), 0..8),
    ) {
        let doc = Document {
            fields: members.into_iter().collect(),
            ..Document::default()
        };
        prop_assert_eq!(doc.bson_len(), bson::encode(&doc).len());
    }
}

#[test]
fn bson_len_is_exact_at_the_integer_edges() {
    for i in EDGES {
        let doc = doc! { "n" => edge_integer(i), "é😀" => vec![edge_integer(i); 11] };
        assert_eq!(doc.bson_len(), bson::encode(&doc).len(), "{i}");
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
                    shard.create_index(&["a"]);
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

// The read path: whatever the documents, indexes, filter and ownership
// test, a shard lends exactly the documents the naive walk would — its
// own handles — and the cluster reads agree with one another healthy,
// degraded, after a rejoin and after journal recovery.

/// Fields a generated document may carry. `n.k` reaches into an object.
const QUERY_FIELDS: [&str; 4] = ["a", "b", "n", "n.k"];

/// Values that collide often: ints and the floats equal to them, a few
/// strings, null, booleans, and the two unindexable shapes.
fn arb_field_value() -> impl Strategy<Value = serde_json::Value> {
    use serde_json::{json, Value};
    prop_oneof![
        (0i64..4).prop_map(Value::from),
        (0i64..4).prop_map(|i| Value::from(i as f64)),
        (0usize..3).prop_map(|i| Value::from(["x", "y", ""][i])),
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        Just(json!([1, 2])),
        Just(json!([])),
        (0i64..3).prop_map(|k| json!({ "k": k })),
        Just(json!({ "k": [1, 2] })),
    ]
}

fn arb_query_doc() -> impl Strategy<Value = Document> {
    (
        proptest::option::of(arb_field_value()),
        proptest::option::of(arb_field_value()),
        proptest::option::of(arb_field_value()),
    )
        .prop_map(|(a, b, n)| {
            let mut d = Document::new();
            for (name, value) in [("a", a), ("b", b), ("n", n)] {
                if let Some(v) = value {
                    d.set(name, v);
                }
            }
            d
        })
}

fn arb_leaf() -> impl Strategy<Value = Filter> {
    let field = || (0usize..QUERY_FIELDS.len()).prop_map(|i| QUERY_FIELDS[i].to_owned());
    prop_oneof![
        // Equality three times over: it is what the planner serves.
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Eq(f, v)),
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Eq(f, v)),
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Eq(f, v)),
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Ne(f, v)),
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Gt(f, v)),
        (field(), arb_field_value()).prop_map(|(f, v)| Filter::Lte(f, v)),
        (field(), proptest::collection::vec(arb_field_value(), 0..3))
            .prop_map(|(f, vs)| Filter::In(f, vs)),
        field().prop_map(Filter::Exists),
        Just(Filter::All),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let group = || proptest::collection::vec(arb_leaf(), 0..4);
    let eq = || {
        let field = (0usize..QUERY_FIELDS.len()).prop_map(|i| QUERY_FIELDS[i].to_owned());
        (field, arb_field_value()).prop_map(|(f, v)| Filter::Eq(f, v))
    };
    prop_oneof![
        arb_leaf(),
        // Two equalities: a compound index's whole key, or its prefix.
        (eq(), eq()).prop_map(|(a, b)| Filter::And(vec![a, b])),
        group().prop_map(Filter::And),
        group().prop_map(Filter::And),
        group().prop_map(Filter::Or),
        arb_leaf().prop_map(Filter::not),
        // A conjunction holding an `Or`, a `Not` and a nested `And`.
        (group(), group(), arb_leaf(), group()).prop_map(|(mut fs, or, not, inner)| {
            fs.push(Filter::Or(or));
            fs.push(Filter::not(not));
            fs.push(Filter::And(inner));
            Filter::And(fs)
        }),
    ]
}

/// `filter`, and — for a conjunction — its members the other way round.
fn both_orders(filter: Filter) -> Vec<Filter> {
    match &filter {
        Filter::And(fs) => {
            let reversed = Filter::And(fs.iter().rev().cloned().collect());
            vec![filter, reversed]
        }
        _ => vec![filter],
    }
}

#[derive(Debug, Clone)]
enum ShardOp {
    Insert(Document),
    /// Set one field on the i-th live document (modulo how many live).
    Update(usize, usize, serde_json::Value),
    /// Delete the listed live documents (by position) as one batch.
    Delete(Vec<usize>),
    CreateIndex(Vec<&'static str>),
}

/// An index over one field or an ordered pair of them (either order,
/// the dotted `n.k` included, a field twice too): documents that lack a
/// later field or hold an array or an object there key under its
/// missing and unindexable markers.
fn arb_index() -> impl Strategy<Value = Vec<&'static str>> {
    let field = || (0usize..QUERY_FIELDS.len()).prop_map(|i| QUERY_FIELDS[i]);
    prop_oneof![
        field().prop_map(|f| vec![f]),
        (field(), field()).prop_map(|(f, g)| vec![f, g]),
        (field(), field()).prop_map(|(f, g)| vec![f, g]),
    ]
}

fn arb_shard_op() -> impl Strategy<Value = ShardOp> {
    prop_oneof![
        arb_query_doc().prop_map(ShardOp::Insert),
        arb_query_doc().prop_map(ShardOp::Insert),
        arb_query_doc().prop_map(ShardOp::Insert),
        (any::<usize>(), 0usize..3, arb_field_value())
            .prop_map(|(i, f, v)| ShardOp::Update(i, f, v)),
        proptest::collection::vec(any::<usize>(), 0..4).prop_map(ShardOp::Delete),
        arb_index().prop_map(ShardOp::CreateIndex),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matching_is_the_naive_walk_then_the_ownership_test(
        ops in proptest::collection::vec(arb_shard_op(), 1..60),
        filters in proptest::collection::vec(arb_filter(), 1..6),
        modulus in 1u64..4,
        residue in 0u64..3,
    ) {
        use athena_store::collection::Collection;
        use athena_store::DocId;
        use std::collections::BTreeMap;

        let mut shard = Collection::new("c");
        let mut model: BTreeMap<DocId, Document> = BTreeMap::new();
        let mut next = 1u64;
        for op in ops {
            match op {
                ShardOp::Insert(mut doc) => {
                    doc.id = DocId(next);
                    next += 1;
                    shard.insert_with_id(doc.id, doc.clone());
                    model.insert(doc.id, doc);
                }
                ShardOp::Update(i, f, v) if !model.is_empty() => {
                    let id = *model.keys().nth(i % model.len()).unwrap();
                    let name = QUERY_FIELDS[f];
                    prop_assert!(shard.update_by_id(id, &[(name.to_owned(), v.clone())]));
                    model.get_mut(&id).unwrap().set(name, v);
                }
                ShardOp::Delete(picks) if !model.is_empty() => {
                    let live: Vec<DocId> = model.keys().copied().collect();
                    let mut victims: Vec<DocId> =
                        picks.iter().map(|i| live[i % live.len()]).collect();
                    // One id the shard does not hold rides along.
                    victims.push(DocId(next + 7));
                    let distinct: std::collections::BTreeSet<DocId> =
                        victims.iter().copied().filter(|id| model.contains_key(id)).collect();
                    prop_assert_eq!(shard.delete_ids(&victims), distinct.len());
                    model.retain(|id, _| !distinct.contains(id));
                }
                ShardOp::CreateIndex(fields) => {
                    shard.create_index(&fields);
                }
                ShardOp::Update(..) | ShardOp::Delete(..) => {}
            }
        }
        prop_assert_eq!(shard.len(), model.len());

        let owns = |id: DocId| id.0 % modulus == residue % modulus;
        for filter in filters.into_iter().flat_map(both_orders) {
            let want: Vec<DocId> = model
                .values()
                .filter(|d| filter.matches(d))
                .map(|d| d.id)
                .filter(|id| owns(*id))
                .collect();
            let hits = shard.matching(&filter, owns);
            let mut got: Vec<DocId> = hits.iter().map(|d| d.id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{} over indexes {:?}", filter, shard.index_fields());
            for d in hits {
                // The shard's own body, and an equal of the model's.
                prop_assert!(std::ptr::eq(&**d, shard.get(d.id).unwrap()));
                prop_assert_eq!(&**d, &model[&d.id]);
            }
            let everyone = model.values().filter(|d| filter.matches(d)).count();
            prop_assert_eq!(shard.count(&filter), everyone, "{}", filter);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One index alone, so the planner serves every filter that pins its
    /// leading field from it — never from a rival index that happens to
    /// hold fewer postings.
    #[test]
    fn a_lone_index_serves_exactly_the_naive_walk(
        before in proptest::collection::vec(arb_query_doc(), 0..30),
        after in proptest::collection::vec(arb_query_doc(), 0..30),
        fields in arb_index(),
        pins in proptest::collection::vec(arb_field_value(), 2..3),
        filters in proptest::collection::vec(arb_filter(), 1..8),
    ) {
        use athena_store::collection::Collection;
        use athena_store::DocId;

        // Besides the drawn filters: an equality on each of the index's
        // fields (its whole key), and on its leading field alone.
        let pinned: Vec<Filter> = fields
            .iter()
            .zip(&pins)
            .map(|(f, v)| Filter::Eq((*f).to_owned(), v.clone()))
            .collect();
        let leading = pinned.iter().take(1).cloned().collect();
        let filters = filters
            .into_iter()
            .chain([Filter::And(pinned), Filter::And(leading)]);

        let mut shard = Collection::new("c");
        let mut model: Vec<Document> = Vec::new();
        for (i, mut doc) in before.into_iter().chain(after).enumerate() {
            if i == 15 {
                shard.create_index(&fields);
            }
            doc.id = DocId(i as u64 + 1);
            shard.insert_with_id(doc.id, doc.clone());
            model.push(doc);
        }
        shard.create_index(&fields);
        for filter in filters.flat_map(both_orders) {
            let want: Vec<DocId> = model.iter().filter(|d| filter.matches(d)).map(|d| d.id).collect();
            let mut got: Vec<DocId> = shard.matching(&filter, |_| true).iter().map(|d| d.id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{} over {:?}", filter, fields);
        }
    }
}

/// Ids of a cluster read, checked to be strictly increasing (canonical
/// order, no duplicate) on the way.
fn ids_in_order(docs: &[std::sync::Arc<Document>]) -> Vec<u64> {
    let ids: Vec<u64> = docs.iter().map(|d| d.id.0).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    ids
}

/// `find`, `all` and `count` against the model, for every filter.
fn assert_reads_agree(
    coll: &athena_store::cluster::CollectionHandle,
    model: &[Document],
    filters: &[Filter],
    state: &str,
) {
    let everything: Vec<u64> = model.iter().map(|d| d.id.0).collect();
    assert_eq!(ids_in_order(&coll.all()), everything, "{state}: all");
    assert_eq!(coll.count(&Filter::All), everything.len(), "{state}");
    for filter in filters {
        let want: Vec<u64> = model
            .iter()
            .filter(|d| filter.matches(d))
            .map(|d| d.id.0)
            .collect();
        let found = coll.find(filter, &FindOptions::default());
        assert_eq!(ids_in_order(&found), want, "{state}: find {filter}");
        assert_eq!(coll.count(filter), want.len(), "{state}: count {filter}");
        for (d, m) in found.iter().zip(model.iter().filter(|d| filter.matches(d))) {
            assert_eq!(&**d, m, "{state}: body of {}", d.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cluster_reads_agree_healthy_degraded_rejoined_and_recovered(
        before in proptest::collection::vec(arb_query_doc(), 1..40),
        during in proptest::collection::vec(arb_query_doc(), 0..40),
        filters in proptest::collection::vec(arb_filter(), 1..5),
        indexes in proptest::collection::vec(arb_index(), 0..3),
        nodes in 2usize..6,
        replication in 2usize..4,
        down in 0usize..6,
        purge in arb_leaf(),
    ) {
        use athena_persist::PersistConfig;
        use athena_telemetry::Telemetry;
        use athena_types::VirtualClock;

        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "athena-store-reads-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let filters: Vec<Filter> = filters.into_iter().flat_map(both_orders).collect();

        let cluster = StoreCluster::new(nodes, replication);
        cluster
            .attach_persistence(PersistConfig::new(&dir), VirtualClock::new(), &Telemetry::off())
            .unwrap();
        let coll = cluster.collection("c");
        for fields in &indexes {
            coll.create_index(fields.as_slice());
        }
        let mut model: Vec<Document> = Vec::new();
        let insert = |doc: Document, model: &mut Vec<Document>| {
            // Below the write quorum (two nodes, one down) nothing lands.
            if let Ok(stored) = coll.insert_shared(doc) {
                model.push(Document::clone(&stored));
            }
        };
        for doc in before {
            insert(doc, &mut model);
        }
        assert_reads_agree(&coll, &model, &filters, "healthy");

        // With two copies of everything, one node down hides nothing.
        cluster.set_node_up(down % nodes, false);
        for doc in during {
            insert(doc, &mut model);
        }
        assert_reads_agree(&coll, &model, &filters, "degraded");
        // A purge while degraded reaches the handed-off copies too.
        let purged = model.iter().filter(|d| purge.matches(d)).count();
        prop_assert_eq!(coll.delete(&purge), purged);
        model.retain(|d| !purge.matches(d));
        assert_reads_agree(&coll, &model, &filters, "degraded, purged");

        cluster.set_node_up(down % nodes, true);
        prop_assert!(cluster.metrics().degraded_reads > 0);
        assert_reads_agree(&coll, &model, &filters, "rejoined");

        let recovered = StoreCluster::new(nodes, replication);
        recovered
            .attach_persistence(PersistConfig::new(&dir), VirtualClock::new(), &Telemetry::off())
            .unwrap();
        assert_reads_agree(&recovered.collection("c"), &model, &filters, "recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// The write path: a batch insert is its documents inserted one call at a
// time, whatever the batches and the node outages between them. No
// second insert routine is the oracle — the same cluster API, called
// once per document.

#[derive(Debug, Clone)]
enum WriteStep {
    Batch(Vec<Document>),
    /// Flip node `i` (modulo the node count) down or back up.
    Toggle(usize),
}

fn arb_write_step() -> impl Strategy<Value = WriteStep> {
    let batch = || proptest::collection::vec(arb_query_doc(), 0..12).prop_map(WriteStep::Batch);
    // Three batches to a toggle.
    prop_oneof![
        batch(),
        batch(),
        batch(),
        (0usize..6).prop_map(WriteStep::Toggle),
    ]
}

/// Per node: up or not, journal records, and of its shard of `c` the ids
/// held and each index with its entry count.
type NodeState = (bool, u64, Vec<u64>, Vec<(Vec<String>, Option<usize>)>);

fn node_states(cluster: &StoreCluster) -> Vec<NodeState> {
    let coll = cluster.collection("c");
    (0..cluster.node_count())
        .map(|i| {
            let node = cluster.node(i);
            let (ids, indexes) = coll.read_shard(i, |c| {
                let mut ids: Vec<u64> = c
                    .matching(&Filter::All, |_| true)
                    .iter()
                    .map(|d| d.id.0)
                    .collect();
                ids.sort_unstable();
                let fields = c.index_fields();
                let entries = fields
                    .iter()
                    .map(|f| (f.clone(), c.index_entries(f)))
                    .collect();
                (ids, entries)
            });
            (node.is_up(), node.journal_records(), ids, indexes)
        })
        .collect()
}

/// Every file of a journal directory, by name, with its bytes.
fn journal_files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The `collections` member of a cluster's `contents()`: everything but
/// the id allocator.
fn collections_of(contents: &str) -> Option<serde_json::Value> {
    let v: serde_json::Value = serde_json::from_str(contents).unwrap();
    v.as_object().unwrap().get("collections").cloned()
}

/// Runs `steps` into two journaled clusters, one batch per call and one
/// document per call, and asserts they agree at every step, after every
/// node rejoins and after recovery from each one's WAL. Returns the
/// batched cluster's metrics.
fn assert_batches_are_singletons(
    nodes: usize,
    replication: usize,
    indexes: &[Vec<&'static str>],
    steps: Vec<WriteStep>,
) -> athena_store::ClusterMetrics {
    use athena_persist::PersistConfig;
    use athena_telemetry::Telemetry;
    use athena_types::VirtualClock;

    static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = |side: &str| {
        let d = std::env::temp_dir().join(format!(
            "athena-store-batch-{}-{case}-{side}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let (batched_dir, single_dir) = (dir("batched"), dir("single"));
    let open = |dir: &std::path::Path| {
        let cluster = StoreCluster::new(nodes, replication);
        cluster
            .attach_persistence(
                PersistConfig::new(dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        cluster
    };
    let (batched, single) = (open(&batched_dir), open(&single_dir));
    let (bc, sc) = (batched.collection("c"), single.collection("c"));
    for fields in indexes {
        bc.create_index(fields.as_slice());
        sc.create_index(fields.as_slice());
    }
    for step in steps {
        match step {
            WriteStep::Batch(docs) => {
                let mut got: Vec<Placement> =
                    docs.iter().cloned().map(Placement::pending).collect();
                bc.insert_batch(&mut got);
                for (given, inserted) in docs.into_iter().zip(got) {
                    let want = sc.insert_shared(given.clone());
                    assert_eq!(inserted.outcome.is_ok(), want.is_ok());
                    match want {
                        Ok(stored) => assert_eq!(*inserted.doc, *stored),
                        // A refused document comes back as it was given.
                        Err(e) => {
                            assert_eq!(*inserted.doc, given);
                            assert_eq!(inserted.outcome.unwrap_err().to_string(), e.to_string());
                        }
                    }
                }
            }
            WriteStep::Toggle(i) => {
                let i = i % nodes;
                let up = !batched.node_is_up(i);
                batched.set_node_up(i, up);
                single.set_node_up(i, up);
            }
        }
        assert_eq!(node_states(&batched), node_states(&single));
        assert_eq!(batched.metrics(), single.metrics());
    }
    let metrics = batched.metrics();
    for i in 0..nodes {
        batched.set_node_up(i, true);
        single.set_node_up(i, true);
    }
    assert_eq!(node_states(&batched), node_states(&single), "rejoined");
    assert_eq!(batched.contents(), single.contents(), "rejoined");
    // One WAL insert per stored document, in id order: the same bytes.
    assert_eq!(journal_files(&batched_dir), journal_files(&single_dir));
    // Recovery replays through the same placement step; only the id
    // allocator may differ from the live cluster (refused ids leave no
    // record).
    let live = collections_of(&batched.contents());
    drop((bc, sc, batched, single));
    let recovered = open(&batched_dir).contents();
    assert_eq!(recovered, open(&single_dir).contents(), "recovered");
    assert_eq!(collections_of(&recovered), live, "recovered");
    for dir in [&batched_dir, &single_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    metrics
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_batch_insert_is_its_documents_inserted_one_by_one(
        steps in proptest::collection::vec(arb_write_step(), 1..16),
        nodes in 2usize..6,
        replication in 1usize..4,
        indexes in proptest::collection::vec(arb_index(), 0..3),
    ) {
        assert_batches_are_singletons(nodes, replication, &indexes, steps);
    }
}

#[test]
fn batches_that_hand_off_and_lose_quorum_are_singletons_too() {
    // Three copies on four nodes, write quorum 2: one node down hands
    // copies off; three down leaves one placeable copy, so the batch
    // between is refused — and consumes its ids — while the one after
    // the nodes return is stored.
    let docs = |n: i64| {
        (0..n)
            .map(|i| doc! { "a" => i % 3, "b" => i })
            .collect::<Vec<_>>()
    };
    let steps = vec![
        WriteStep::Batch(docs(9)),
        WriteStep::Toggle(1),
        WriteStep::Batch(docs(7)),
        WriteStep::Toggle(2),
        WriteStep::Toggle(3),
        WriteStep::Batch(docs(5)),
        WriteStep::Toggle(2),
        WriteStep::Batch(docs(6)),
        WriteStep::Toggle(3),
        WriteStep::Toggle(1),
        WriteStep::Batch(docs(4)),
    ];
    let m = assert_batches_are_singletons(4, 3, &[vec!["a"], vec!["b", "a"]], steps);
    assert!(m.write_handoffs > 0, "{m:?}");
    assert_eq!(m.quorum_failures, 5, "{m:?}");
    assert_eq!(m.inserts, 9 + 7 + 6 + 4, "{m:?}");
}

#[test]
fn a_handle_alone_creates_no_collection() {
    use athena_persist::PersistConfig;
    use athena_telemetry::Telemetry;
    use athena_types::VirtualClock;

    let dir = std::env::temp_dir().join(format!("athena-store-handle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let cluster = StoreCluster::new(3, 3);
        cluster
            .attach_persistence(
                PersistConfig::new(&dir),
                VirtualClock::new(),
                &Telemetry::off(),
            )
            .unwrap();
        cluster
    };
    let cluster = open();
    let kept = cluster.collection("kept");
    kept.create_index("k");
    kept.insert(doc! { "k" => 1 }).unwrap();
    let before = cluster.contents();

    // Reads, filtered writes that match nothing, an empty index, an
    // empty batch and a batch refused whole for want of a quorum.
    let ghost = cluster.collection("ghost");
    assert!(ghost.all().is_empty());
    assert_eq!(ghost.count(&Filter::All), 0);
    assert!(ghost
        .find(&Filter::eq("k", 1), &FindOptions::default())
        .is_empty());
    assert_eq!(ghost.delete(&Filter::All), 0);
    assert_eq!(ghost.update(&Filter::All, &[("k".into(), 2.into())]), 0);
    assert_eq!(ghost.read_shard(0, |c| c.len()), 0);
    ghost.create_index(Vec::<String>::new());
    ghost.insert_batch(&mut []);
    cluster.set_node_up(0, false);
    cluster.set_node_up(1, false);
    assert!(ghost.insert(doc! { "k" => 1 }).is_err());
    cluster.set_node_up(0, true);
    cluster.set_node_up(1, true);
    // Only the id allocator moved: the refused document consumed an id.
    assert_eq!(collections_of(&cluster.contents()), collections_of(&before));

    // The checkpoint holds the same: a recovered cluster reads the same.
    cluster.checkpoint().unwrap();
    drop((kept, ghost, cluster));
    assert_eq!(collections_of(&open().contents()), collections_of(&before));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_read_is_a_snapshot_of_the_shards_own_bodies() {
    use std::sync::Arc;
    let cluster = StoreCluster::new(3, 2);
    let coll = cluster.collection("c");
    coll.create_index("k");
    let mut stored = Vec::new();
    for i in 0..30i64 {
        stored.push(coll.insert_shared(doc! { "k" => i % 3, "v" => i }).unwrap());
    }
    // Indexed, scanned and unfiltered reads all lend the stored bodies.
    for filter in [Filter::eq("k", 1), Filter::gte("v", 10), Filter::All] {
        let found = coll.find(&filter, &FindOptions::default());
        assert!(!found.is_empty());
        for d in &found {
            assert!(Arc::ptr_eq(d, &stored[d.id.0 as usize - 1]), "{}", filter);
        }
    }
    for (d, s) in coll.all().iter().zip(&stored) {
        assert!(Arc::ptr_eq(d, s));
    }
    // Sorting and limiting move handles; a projection builds.
    let top = coll.find(
        &Filter::eq("k", 1),
        &FindOptions::default().sort(SortSpec::desc("v")).limit(2),
    );
    assert_eq!(
        ids_in_order(&[top[1].clone(), top[0].clone()]),
        vec![26, 29]
    );
    assert!(top
        .iter()
        .all(|d| Arc::ptr_eq(d, &stored[d.id.0 as usize - 1])));
    let projected = coll.find(&Filter::eq("k", 1), &FindOptions::default().project("v"));
    assert!(projected
        .iter()
        .all(|d| d.fields.len() == 1 && d.id.0 % 3 == 2));
    assert_eq!(stored[1].fields.len(), 2);

    // An update copies the body it changes: the reader keeps the old
    // value, the next reader sees the new one, and neither aliases.
    let reader = coll.find(&Filter::eq("k", 1), &FindOptions::default());
    assert_eq!(
        coll.update(&Filter::eq("k", 1), &[("k".into(), 9.into())]),
        10
    );
    assert!(reader.iter().all(|d| d.get_i64("k") == Some(1)));
    assert!(stored.iter().all(|d| d.get_i64("k") != Some(9)));
    let fresh = coll.find(&Filter::eq("k", 9), &FindOptions::default());
    assert_eq!(ids_in_order(&fresh), ids_in_order(&reader));
    for (new, old) in fresh.iter().zip(&reader) {
        assert!(!Arc::ptr_eq(new, old));
        assert_eq!(new.get_i64("v"), old.get_i64("v"));
    }
    assert!(coll
        .find(&Filter::eq("k", 1), &FindOptions::default())
        .is_empty());
    // A delete drops the shards' handles, not the reader's documents.
    assert_eq!(coll.delete(&Filter::eq("k", 9)), 10);
    assert_eq!(reader.len(), 10);
    assert_eq!(coll.count(&Filter::All), 20);
}

#[test]
fn an_unindexable_equality_finds_its_document_with_or_without_the_index() {
    let cluster = StoreCluster::new(3, 2);
    let coll = cluster.collection("c");
    let pair = Filter::eq("k", serde_json::json!([1, 2]));
    let id = coll
        .insert(doc! { "k" => serde_json::json!([1, 2]) })
        .unwrap();
    coll.insert(doc! { "k" => 1 }).unwrap();
    assert_eq!(coll.count(&pair), 1);
    coll.create_index("k");
    assert_eq!(coll.count(&pair), 1);
    let found = coll.find(&pair, &FindOptions::default());
    assert_eq!(found.iter().map(|d| d.id).collect::<Vec<_>>(), vec![id]);
    assert_eq!(coll.delete(&pair), 1);
    assert_eq!(coll.count(&Filter::All), 1);
}

// Shared name lists: a body under a list other bodies share is the same
// body its members make on their own, and an index keys it the same.

proptest! {
    #[test]
    fn a_body_under_a_shared_list_is_its_members_collected(
        members in proptest::collection::vec((arb_string(), arb_member()), 0..8),
        edits in proptest::collection::vec((0usize..KEYS.len(), -9i64..9), 0..4),
    ) {
        use athena_store::{Fields, Key};
        use std::collections::BTreeMap;
        use std::sync::Arc;

        let members: BTreeMap<String, serde_json::Value> = members.into_iter().collect();
        let names: Arc<[Key]> = members.keys().map(Key::from).collect();
        let values: Vec<serde_json::Value> = members.values().cloned().collect();
        let shared = Fields::with_names(Arc::clone(&names), values.clone());
        let collected: Fields = members.clone().into_iter().collect();
        prop_assert_eq!(&shared, &collected);
        prop_assert_eq!(
            serde_json::to_string(&shared).unwrap(),
            serde_json::to_string(&collected).unwrap()
        );
        prop_assert_eq!(format!("{shared:?}"), format!("{collected:?}"));
        let (a, b) = (
            Document { fields: shared.clone(), ..Document::new() },
            Document { fields: collected, ..Document::new() },
        );
        prop_assert_eq!(a.bson_len(), b.bson_len());
        // `set` on one of two documents that share a list takes its
        // edits and leaves the other as it was; a new name gives the
        // edited one a list of its own.
        let mut edited = a.clone();
        let mut want = members.clone();
        for (k, v) in edits {
            edited.set(KEYS[k], v);
            want.insert(KEYS[k].to_owned(), v.into());
        }
        prop_assert_eq!(
            Arc::ptr_eq(edited.fields.names(), &names),
            want.len() == members.len()
        );
        prop_assert_eq!(&edited.fields, &want.into_iter().collect::<Fields>());
        prop_assert!(Arc::ptr_eq(a.fields.names(), &names));
        prop_assert!(names.iter().map(Key::as_str).eq(members.keys().map(String::as_str)));
        prop_assert_eq!(&a.fields, &shared);
        prop_assert_eq!(a.fields.values(), &values[..]);
    }

    #[test]
    fn one_batch_of_two_layouts_indexes_as_documents_one_at_a_time(
        kinds in proptest::collection::vec((0u8..2, 0i64..3, 0i64..3), 1..24),
    ) {
        use athena_store::index::SecondaryIndex;
        use athena_store::{DocId, Fields, Key};
        use serde_json::{json, Value};
        use std::sync::Arc;

        // Two layouts, each one shared list; "n.k" reaches into an object.
        let lists: [Arc<[Key]>; 2] = [
            vec![Key::from("a"), Key::from("n")].into(),
            vec![Key::from("a"), Key::from("b"), Key::from("n")].into(),
        ];
        let docs: Vec<Document> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, k))| {
                let mut values: Vec<Value> = vec![json!(a), json!({ "k": k })];
                if kind == 1 {
                    values.insert(1, json!(k));
                }
                let fields = Fields::with_names(Arc::clone(&lists[usize::from(kind)]), values);
                Document { id: DocId(i as u64 + 1), fields }
            })
            .collect();
        let indexes: [&[&str]; 3] = [&["a", "n.k"], &["n.k"], &["b", "a"]];
        // One batch against one call per document, on one node.
        let (batched, single) = (StoreCluster::new(1, 1), StoreCluster::new(1, 1));
        let (bc, sc) = (batched.collection("c"), single.collection("c"));
        for fields in indexes {
            bc.create_index(fields);
            sc.create_index(fields);
        }
        bc.insert_many(docs.iter().cloned()).unwrap();
        for d in &docs {
            sc.insert(d.clone()).unwrap();
        }
        for fields in indexes {
            prop_assert_eq!(
                bc.read_shard(0, |c| c.index_entries(fields)),
                sc.read_shard(0, |c| c.index_entries(fields))
            );
            // The index itself: one `insert_all` over the mixed batch
            // holds the posting lists, in order, that one insert per
            // document builds.
            let (mut batch, mut single) = (SecondaryIndex::new(fields), SecondaryIndex::new(fields));
            batch.insert_all(&docs);
            for d in &docs {
                single.insert(d);
            }
            for v in 0i64..3 {
                let v = json!(v);
                let lists = |i: &SecondaryIndex| -> Option<Vec<Vec<DocId>>> {
                    Some(i.lookup([&v])?.map(<[DocId]>::to_vec).collect())
                };
                prop_assert_eq!(lists(&batch), lists(&single));
            }
        }
        for (a, k) in [(0i64, 0i64), (1, 2), (2, 1)] {
            for filter in [
                Filter::and(vec![Filter::eq("a", a), Filter::eq("n.k", k)]),
                Filter::eq("n.k", k),
                Filter::and(vec![Filter::eq("b", k), Filter::eq("a", a)]),
            ] {
                let ids = |c: &athena_store::cluster::CollectionHandle| -> Vec<u64> {
                    c.read_shard(0, |c| c.matching(&filter, |_| true).iter().map(|d| d.id.0).collect())
                };
                let want: Vec<u64> = docs.iter().filter(|d| filter.matches(d)).map(|d| d.id.0).collect();
                prop_assert_eq!(ids(&bc), want.clone());
                prop_assert_eq!(ids(&sc), want);
            }
        }
    }
}
