//! The journal record codec. Every record type of the store's and the
//! controller's journals goes through `to_payload` and `from_payload`
//! and comes back equal; the same record with any one member removed,
//! or with a member of the wrong JSON type, is refused with
//! `AthenaError::Persist` — never a panic, never a default value. And a
//! journal holds one owner's records: the store refuses the controller's
//! and the controller the store's.

use athena::controller::cluster::ClusterCounters;
use athena::controller::persist::{ControllerSnapshot, MastershipEvent, RuleEvent};
use athena::controller::services::FlowRuleRecord;
use athena::controller::{ControllerCluster, FailoverCounters};
use athena::dataplane::Topology;
use athena::persist::{from_payload, to_payload, PersistConfig};
use athena::store::persist::{CollectionSnapshot, StoreOp, StoreSnapshot};
use athena::store::{doc, DocId, Document, StoreCluster};
use athena::telemetry::Telemetry;
use athena::types::{AppId, AthenaError, ControllerId, Dpid, SimTime, VirtualClock};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;

/// Characters that stress JSON string escaping.
const CHARS: [char; 8] = ['a', 'k', '_', '"', '\\', '\n', 'é', '😀'];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..5)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::from),
        any::<u64>().prop_map(Value::from),
        (any::<i32>(), 1u32..9).prop_map(|(m, k)| Value::from(f64::from(m) / f64::from(1 << k))),
        arb_string().prop_map(Value::String),
        proptest::collection::vec(any::<i16>(), 0..3).prop_map(Value::from),
    ]
}

fn arb_doc() -> impl Strategy<Value = Arc<Document>> {
    (
        any::<u64>(),
        proptest::collection::vec((arb_string(), arb_value()), 0..4),
    )
        .prop_map(|(id, members)| {
            Arc::new(Document {
                id: DocId(id),
                fields: members.into_iter().collect(),
            })
        })
}

fn arb_ids() -> impl Strategy<Value = Vec<DocId>> {
    proptest::collection::vec(any::<u64>().prop_map(DocId), 0..4)
}

fn arb_fields() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_string(), 0..3)
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (arb_string(), arb_doc()).prop_map(|(coll, doc)| StoreOp::Insert { coll, doc }),
        (
            arb_string(),
            arb_ids(),
            proptest::collection::vec((arb_string(), arb_value()), 0..3),
        )
            .prop_map(|(coll, ids, changes)| StoreOp::Update { coll, ids, changes }),
        (arb_string(), arb_ids()).prop_map(|(coll, ids)| StoreOp::Delete { coll, ids }),
        (arb_string(), arb_fields()).prop_map(|(coll, fields)| StoreOp::Index { coll, fields }),
    ]
}

fn arb_store_snapshot() -> impl Strategy<Value = StoreSnapshot> {
    let collection = (
        arb_string(),
        proptest::collection::vec(arb_fields(), 0..3),
        proptest::collection::vec(arb_doc(), 0..3),
    )
        .prop_map(|(name, indexes, docs)| CollectionSnapshot {
            name,
            indexes,
            docs,
        });
    (any::<u64>(), proptest::collection::vec(collection, 0..3)).prop_map(
        |(next_id, collections)| StoreSnapshot {
            next_id,
            collections,
        },
    )
}

fn arb_mastership_event() -> impl Strategy<Value = MastershipEvent> {
    prop_oneof![
        any::<u32>().prop_map(|c| MastershipEvent::Crash(ControllerId::new(c))),
        any::<u32>().prop_map(|c| MastershipEvent::Rejoin(ControllerId::new(c))),
        (any::<u64>(), any::<u32>()).prop_map(|(d, c)| MastershipEvent::Reassign {
            dpid: Dpid::new(d),
            to: ControllerId::new(c),
        }),
    ]
}

fn arb_rule_event() -> impl Strategy<Value = RuleEvent> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(dpid, app, cookie, us)| RuleEvent::Install {
                dpid: Dpid::new(dpid),
                app: AppId::new(app),
                cookie,
                installed_at: SimTime::from_micros(us),
            }
        ),
        any::<u64>().prop_map(|cookie| RuleEvent::Remove { cookie }),
    ]
}

fn arb_controller_snapshot() -> impl Strategy<Value = ControllerSnapshot> {
    let rule = any::<[u64; 5]>().prop_map(|[dpid, app, cookie, us, bytes]| FlowRuleRecord {
        dpid: Dpid::new(dpid),
        app: AppId::new(app as u32),
        cookie,
        installed_at: SimTime::from_micros(us),
        packet_count: bytes / 64,
        byte_count: bytes,
    });
    (
        proptest::collection::vec(
            (any::<u64>(), any::<u32>()).prop_map(|(d, c)| (Dpid::new(d), ControllerId::new(c))),
            0..4,
        ),
        proptest::collection::vec(any::<u32>().prop_map(ControllerId::new), 0..3),
        proptest::collection::vec(rule, 0..3),
        any::<[u64; 9]>(),
    )
        .prop_map(|(masters, down, rules, n)| ControllerSnapshot {
            masters,
            down,
            rules,
            installs: n[0],
            removals: n[1],
            next_seq: n[2],
            counters: ClusterCounters {
                packet_ins: n[3],
                flow_mods: n[4],
                stats_replies: n[5],
                flow_removeds: n[6],
            },
            failover: FailoverCounters {
                elections: n[7],
                switches_moved: n[8],
            },
        })
}

/// A value of another JSON type than `v`, which no member accepts in
/// place of `v`.
fn retyped(v: &Value) -> Value {
    match v {
        Value::Number(_) => Value::from("7"),
        Value::Array(_) => Value::Object(Map::new()),
        Value::Object(_) => Value::Array(Vec::new()),
        Value::Null | Value::Bool(_) | Value::String(_) => Value::from(7),
    }
}

/// Every tree that differs from `v` in one member: an object member
/// removed or retyped, or an array element retyped, at any depth. A
/// document's `fields` and an update's `changes` are free-form JSON, so
/// the walk replaces them whole but does not enter them.
fn mangled(v: &Value) -> Vec<Value> {
    let mut out = Vec::new();
    match v {
        Value::Object(m) => {
            for (k, child) in m {
                let mut removed = m.clone();
                removed.remove(k);
                out.push(Value::Object(removed));
                let mut with = |new: Value| {
                    let mut m = m.clone();
                    m.insert(k.clone(), new);
                    out.push(Value::Object(m));
                };
                with(retyped(child));
                if k != "fields" && k != "changes" {
                    mangled(child).into_iter().for_each(with);
                }
            }
        }
        Value::Array(a) => {
            for (i, child) in a.iter().enumerate() {
                for new in std::iter::once(retyped(child)).chain(mangled(child)) {
                    let mut a = a.clone();
                    a[i] = new;
                    out.push(Value::Array(a));
                }
            }
        }
        _ => {}
    }
    out
}

/// `record` round-trips, and every one-member mangling of it is refused.
fn check<T: Serialize + Deserialize + PartialEq + Debug>(record: &T) {
    let payload = to_payload(record).unwrap();
    assert_eq!(from_payload::<T>(&payload).unwrap(), *record);
    let tree: Value = serde_json::from_slice(&payload).unwrap();
    let variants = mangled(&tree);
    assert!(!variants.is_empty(), "{tree}");
    for bad in variants {
        match from_payload::<T>(&serde_json::to_vec(&bad).unwrap()) {
            Err(AthenaError::Persist(_)) => {}
            other => panic!("{bad} decoded as {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_record_round_trips_and_refuses_a_mangled_member(
        op in arb_store_op(),
        store in arb_store_snapshot(),
        mastership in arb_mastership_event(),
        rule in arb_rule_event(),
        controller in arb_controller_snapshot(),
    ) {
        check(&op);
        check(&store);
        check(&mastership);
        check(&rule);
        check(&controller);
    }
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("athena-records-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn a_journal_refuses_the_records_of_another_owner() {
    let topo = Topology::enterprise();
    let controller_dir = test_dir("controller");
    let mut controllers = ControllerCluster::new(&topo);
    controllers
        .attach_persistence(PersistConfig::new(&controller_dir), &Telemetry::off())
        .unwrap();
    controllers.crash_instance(ControllerId::new(1));
    drop(controllers);
    let store = StoreCluster::new(3, 2);
    let err = store
        .attach_persistence(
            PersistConfig::new(&controller_dir),
            VirtualClock::new(),
            &Telemetry::off(),
        )
        .unwrap_err();
    assert!(matches!(err, AthenaError::Persist(_)), "{err}");
    assert!(!store.persistence_attached());

    let store_dir = test_dir("store");
    let store = StoreCluster::new(3, 2);
    store
        .attach_persistence(
            PersistConfig::new(&store_dir),
            VirtualClock::new(),
            &Telemetry::off(),
        )
        .unwrap();
    store.collection("c").insert(doc! { "k" => 1 }).unwrap();
    drop(store);
    let err = ControllerCluster::new(&topo)
        .attach_persistence(PersistConfig::new(&store_dir), &Telemetry::off())
        .unwrap_err();
    assert!(matches!(err, AthenaError::Persist(_)), "{err}");

    std::fs::remove_dir_all(&controller_dir).unwrap();
    std::fs::remove_dir_all(&store_dir).unwrap();
}
