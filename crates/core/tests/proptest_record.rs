//! Property-based tests for the one form of a feature record, its
//! document: whatever mix of catalog and ad-hoc names a record is built
//! with, the document is strictly name-sorted, charged its journal
//! bytes, and reads back the index, metadata and last value per name it
//! was built from — and whatever a stored document holds, the record
//! reads what plain key lookups read, and a [`FieldReader`] reads what
//! the record's own `values` reads.

use athena_core::{catalog, FeatureIndex, FeatureRecord, FieldName, FieldReader, MetaData};
use athena_store::Document;
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, IpProto, Ipv4Addr, PortNo, SimTime};
use proptest::prelude::*;
use serde_json::Value;

#[path = "../../store/tests/bson/mod.rs"]
mod bson;

/// Ad-hoc names that sort before, between and after the catalog's
/// upper-case names and the lower-case index keys.
const ADHOC: [&str; 8] = [
    "0_first",
    "Alpha",
    "FLOW_CUSTOM_COLUMN",
    "ZZ_LAST_UPPER",
    "_under",
    "phase",
    "truth",
    "zeta",
];

fn arb_name() -> impl Strategy<Value = FieldName> {
    prop_oneof![
        (0usize..catalog::COUNT)
            .prop_map(|i| catalog::FeatureId::from_index(i).map(FieldName::from)),
        (0usize..ADHOC.len()).prop_map(|i| Some(FieldName::from(ADHOC[i]))),
    ]
    .prop_filter_map("in range", |name| name)
}

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        (any::<i32>(), 0i32..6).prop_map(|(m, scale)| f64::from(m) / 10f64.powi(scale)),
    ]
}

fn arb_index() -> impl Strategy<Value = FeatureIndex> {
    (
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of((
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            any::<bool>(),
        )),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
    )
        .prop_map(|(switch, port, ft, host, app)| FeatureIndex {
            switch: Dpid::new(u64::from(switch)),
            port: port.map(PortNo::new),
            five_tuple: ft.map(|(src, sp, dst, dp, tcp)| {
                let (src, dst) = (Ipv4Addr::from_raw(src), Ipv4Addr::from_raw(dst));
                if tcp {
                    FiveTuple::tcp(src, sp, dst, dp)
                } else {
                    FiveTuple::udp(src, sp, dst, dp)
                }
            }),
            host: host.map(Ipv4Addr::from_raw),
            app: app.map(AppId::new),
        })
}

fn arb_meta() -> impl Strategy<Value = MetaData> {
    const KINDS: [&str; 5] = ["", "FLOW_STATS", "PACKET_IN", "HOST_STATE", "REPLAYED"];
    (
        0u64..(1 << 53),
        any::<u32>(),
        0usize..KINDS.len(),
        any::<bool>(),
    )
        .prop_map(|(us, controller, kind, athena_polled)| MetaData {
            timestamp: SimTime::from_micros(us),
            controller: ControllerId::new(controller),
            message_type: KINDS[kind].into(),
            athena_polled,
        })
}

proptest! {
    #[test]
    fn a_built_record_is_a_sorted_document_that_reads_back_what_was_built(
        index in arb_index(),
        meta in arb_meta(),
        fields in proptest::collection::vec((arb_name(), arb_value()), 0..40),
    ) {
        let mut r = FeatureRecord::new(index).with_meta(meta.clone());
        for (name, value) in &fields {
            r.push_field(name.clone(), *value);
        }
        let doc = r.document();
        // Strictly sorted, hence unique, keys — however the names mixed.
        let keys: Vec<&str> = doc.fields.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
        // The bytes the journal would hold are the bytes it is charged for.
        prop_assert_eq!(doc.bson_len(), bson::encode(doc).len());

        prop_assert_eq!(r.index(), index);
        prop_assert_eq!(r.meta(), meta);
        // A repeated name reads as its last value, as a field and in
        // the document.
        let mut last: Vec<(&str, f64)> = Vec::new();
        for (name, value) in &fields {
            last.retain(|(n, _)| *n != name.as_str());
            last.push((name.as_str(), *value));
        }
        for &(name, value) in &last {
            prop_assert_eq!(r.field(name), Some(value), "{}", name);
            prop_assert_eq!(r.value(&FieldName::from(name)), Some(value), "{}", name);
            prop_assert_eq!(doc.get_f64(name), Some(value), "{}", name);
        }
        last.sort_by(|a, b| a.0.cmp(b.0));
        prop_assert_eq!(r.fields().collect::<Vec<_>>(), last);
        // Its document, stored elsewhere, is the same record.
        prop_assert_eq!(&FeatureRecord::from(r.to_document()), &r);
    }
}

/// The index and metadata keys of a feature document.
const META_KEYS: [&str; 13] = [
    "app",
    "athena_polled",
    "controller",
    "host",
    "ip_dst",
    "ip_proto",
    "ip_src",
    "message_type",
    "port",
    "switch",
    "timestamp",
    "tp_dst",
    "tp_src",
];

/// What a feature document says, read one path lookup per key and then
/// a walk for the fields — the oracle for the record's own reads.
fn from_document_by_lookups(d: &Document) -> (FeatureIndex, MetaData, Vec<(&str, f64)>) {
    let mut index = FeatureIndex::switch(Dpid::new(d.get_i64("switch").unwrap_or(0) as u64));
    if let Some(p) = d.get_i64("port") {
        index.port = Some(PortNo::new(p as u32));
    }
    if let (Some(src), Some(dst)) = (d.get_i64("ip_src"), d.get_i64("ip_dst")) {
        index.five_tuple = Some(FiveTuple {
            src: Ipv4Addr::from_raw(src as u32),
            dst: Ipv4Addr::from_raw(dst as u32),
            src_port: d.get_i64("tp_src").unwrap_or(0) as u16,
            dst_port: d.get_i64("tp_dst").unwrap_or(0) as u16,
            proto: IpProto::from_number(d.get_i64("ip_proto").unwrap_or(0) as u8),
        });
    }
    if let Some(host) = d.get_i64("host") {
        index.host = Some(Ipv4Addr::from_raw(host as u32));
    }
    if let Some(app) = d.get_i64("app") {
        index.app = Some(AppId::new(app as u32));
    }
    let meta = MetaData {
        timestamp: SimTime::from_micros(d.get_i64("timestamp").unwrap_or(0) as u64),
        controller: ControllerId::new(d.get_i64("controller").unwrap_or(0) as u32),
        message_type: d.get_str("message_type").unwrap_or("").into(),
        athena_polled: d
            .get("athena_polled")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    };
    let fields = d
        .fields
        .iter()
        .filter(|(k, _)| !META_KEYS.contains(&k.as_str()))
        .filter_map(|(k, v)| Some((k.as_str(), v.as_f64()?)))
        .collect();
    (index, meta, fields)
}

/// A value of some other type than the key's own, or a number the
/// integer keys cannot hold.
fn arb_misfit() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-5i64..5).prop_map(Value::from),
        Just(Value::from(1.5)),
        Just(Value::from("10.0.0.1")),
        Just(Value::from("FLOW_STATS")),
        Just(serde_json::json!([1])),
        Just(serde_json::json!({ "switch": 1 })),
    ]
}

proptest! {
    #[test]
    fn a_record_reads_what_the_lookups_read_whatever_the_keys_hold(
        index in arb_index(),
        meta in arb_meta(),
        fields in proptest::collection::vec((arb_name(), arb_value()), 0..20),
        misfits in proptest::collection::vec((0usize..META_KEYS.len(), arb_misfit()), 0..6),
        strays in proptest::collection::vec((0usize..ADHOC.len(), arb_misfit()), 0..4),
        through_json in any::<bool>(),
    ) {
        let mut r = FeatureRecord::new(index).with_meta(meta);
        for (name, value) in &fields {
            r.push_field(name.clone(), *value);
        }
        let mut doc = r.to_document();
        // Keys holding the wrong type read as their defaults; ad-hoc
        // members holding no number are dropped, lower-case or not.
        for (key, value) in misfits {
            doc.set(META_KEYS[key], value);
        }
        for (name, value) in strays {
            doc.set(ADHOC[name], value);
        }
        // A document read back from JSON text holds run-time keys, not
        // the program's own strings.
        if through_json {
            doc = json_round_trip(&doc);
        }
        let (index, meta, fields) = from_document_by_lookups(&doc);
        let back = FeatureRecord::from(doc.clone());
        prop_assert_eq!(back.index(), index);
        prop_assert_eq!(back.meta(), meta);
        prop_assert_eq!(back.fields().collect::<Vec<_>>(), fields);
        // No key is ever a field, and every numeric ad-hoc member is one.
        for key in META_KEYS {
            prop_assert_eq!(back.field(key), None, "{}", key);
        }
        for name in ADHOC {
            prop_assert_eq!(back.field(name), doc.get_f64(name), "{}", name);
        }
    }
}

/// `doc` written as JSON text and parsed back: every key is then a
/// [`athena_store::Key::Shared`] string of its own.
fn json_round_trip(doc: &Document) -> Document {
    let text = serde_json::to_string(doc).expect("a document serializes");
    serde_json::from_str(&text).expect("its own text parses")
}

/// How one record of a reader's run is laid out: each requested name is
/// present or not (`mask`; `full` keeps them all), among any mix of
/// other catalog and ad-hoc fields (`phase`, `truth` and `zeta` sort
/// among the index keys) and ad-hoc members holding no number; the
/// document is read back from JSON text or not.
#[derive(Debug, Clone)]
struct Layout {
    index: FeatureIndex,
    meta: MetaData,
    full: bool,
    mask: Vec<(u8, f64)>,
    others: Vec<(FieldName, f64)>,
    strays: Vec<(usize, Value)>,
    through_json: bool,
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    (
        (arb_index(), arb_meta(), any::<bool>(), any::<bool>()),
        proptest::collection::vec((0u8..6, arb_value()), 16),
        proptest::collection::vec((arb_name(), arb_value()), 0..24),
        proptest::collection::vec((0usize..ADHOC.len(), arb_misfit()), 0..3),
    )
        .prop_map(
            |((index, meta, full, through_json), mask, others, strays)| Layout {
                index,
                meta,
                full,
                mask,
                others,
                strays,
                through_json,
            },
        )
}

impl Layout {
    fn record(&self, names: &[FieldName]) -> FeatureRecord {
        let mut r = FeatureRecord::new(self.index).with_meta(self.meta.clone());
        for (name, &(keep, value)) in names.iter().zip(self.mask.iter().cycle()) {
            if self.full || keep != 0 {
                r.push_field(name.clone(), value);
            }
        }
        for (name, value) in &self.others {
            r.push_field(name.clone(), *value);
        }
        let mut doc = r.to_document();
        for (name, value) in &self.strays {
            doc.set(ADHOC[*name], value.clone());
        }
        if self.through_json {
            doc = json_round_trip(&doc);
        }
        FeatureRecord::from(doc)
    }
}

/// The names a model asks for: catalog and ad-hoc names, sometimes one
/// of them twice, sometimes an index key among them.
fn arb_request() -> impl Strategy<Value = Vec<FieldName>> {
    (
        proptest::collection::vec(arb_name(), 0..12),
        any::<bool>(),
        0usize..4 * META_KEYS.len(),
    )
        .prop_map(|(mut names, repeat, key)| {
            if let (true, Some(first)) = (repeat, names.first().cloned()) {
                names.push(first);
            }
            if let Some(key) = META_KEYS.get(key) {
                names.insert(names.len() / 2, FieldName::from(*key));
            }
            names
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_reader_reads_what_values_reads_whatever_layout_comes_next(
        names in arb_request(),
        layouts in proptest::collection::vec(arb_layout(), 1..8),
        order in proptest::collection::vec(0usize..64, 1..40),
    ) {
        // A run that keeps one layout for a while and switches, back and
        // forth: the positions the reader remembers are right, stale or
        // out of range for the next record.
        let records: Vec<FeatureRecord> = layouts.iter().map(|l| l.record(&names)).collect();
        let mut reader = FieldReader::new(&names);
        for (step, pick) in order.iter().enumerate() {
            let r = &records[pick % records.len()];
            prop_assert_eq!(reader.values(r), r.values(&names), "step {}", step);
        }
    }
}
