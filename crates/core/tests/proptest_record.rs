//! Property-based tests for the record ⇄ document conversion: whatever
//! mix of catalog and ad-hoc names a record carries, its document is
//! strictly name-sorted and reads back as the same record.

use athena_core::{catalog, FeatureIndex, FeatureRecord, FieldName, MetaData};
use athena_store::Document;
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, IpProto, Ipv4Addr, PortNo, SimTime};
use proptest::prelude::*;
use serde_json::Value;

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
    fn document_round_trip_preserves_index_meta_and_every_field(
        index in arb_index(),
        meta in arb_meta(),
        fields in proptest::collection::vec((arb_name(), arb_value()), 0..40),
    ) {
        let mut r = FeatureRecord::new(index).with_meta(meta);
        for (name, value) in &fields {
            r.push_field(name.clone(), *value);
        }
        let doc = r.to_document();
        // Strictly sorted, hence unique, keys — however the names mixed.
        let keys: Vec<&str> = doc.fields.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
        // The bytes the journal would hold are the bytes it is charged for.
        prop_assert_eq!(
            doc.encoded_len(),
            serde_json::to_vec(&doc.fields).unwrap().len()
        );

        let back = FeatureRecord::from_document(&doc);
        prop_assert_eq!(back.index, r.index);
        prop_assert_eq!(&back.meta, &r.meta);
        for (name, _) in &fields {
            // A repeated name reads as its last value on both sides.
            prop_assert_eq!(back.value(name), r.value(name), "{}", name);
            prop_assert_eq!(doc.get_f64(name.as_str()), r.value(name), "{}", name);
        }
        let mut distinct: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(back.fields.len(), distinct.len());
        // Catalog names come back as catalog handles, not as look-alikes.
        for (name, _) in &back.fields {
            prop_assert_eq!(
                name.feature().is_some(),
                catalog::FeatureId::named(name.as_str()).is_some()
            );
        }
        // A second trip is a fixed point.
        prop_assert_eq!(&FeatureRecord::from_document(&back.to_document()), &back);
        prop_assert_eq!(back.to_document(), doc);
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

/// The conversion as it was first written — one path lookup per key,
/// then a walk for the fields — kept as the oracle for the one-pass
/// `FeatureRecord::from_document`.
fn from_document_by_lookups(d: &Document) -> FeatureRecord {
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
    let mut record = FeatureRecord::new(index).with_meta(meta);
    for (k, v) in &d.fields {
        if let (false, Some(x)) = (META_KEYS.contains(&k.as_str()), v.as_f64()) {
            record.push_field(k.as_str(), x);
        }
    }
    record
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
    fn one_pass_reads_what_the_lookups_read_whatever_the_keys_hold(
        index in arb_index(),
        meta in arb_meta(),
        fields in proptest::collection::vec((arb_name(), arb_value()), 0..20),
        misfits in proptest::collection::vec((0usize..META_KEYS.len(), arb_misfit()), 0..6),
        strays in proptest::collection::vec((0usize..ADHOC.len(), arb_misfit()), 0..4),
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
        let back = FeatureRecord::from_document(&doc);
        prop_assert_eq!(&back, &from_document_by_lookups(&doc));
        // No key is ever a field, and every numeric ad-hoc member is one.
        for (name, _) in &back.fields {
            prop_assert!(!META_KEYS.contains(&name.as_str()), "{}", name);
        }
        for name in ADHOC {
            prop_assert_eq!(back.field(name), doc.get_f64(name), "{}", name);
        }
    }
}
