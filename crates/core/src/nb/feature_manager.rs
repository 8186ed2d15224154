//! The Feature Management Manager (paper §III-A 2A).
//!
//! Provides the unified mechanism applications use to retrieve and receive
//! network features: translates [`Query`]s into store queries, maintains
//! the *event delivery table* matching live features against registered
//! constraints, and converts feature sets into ML training data.

use crate::feature::catalog::FieldName;
use crate::feature::format::{FeatureRecord, RawDocument};
use crate::nb::query::Query;
use athena_ml::LabeledPoint;
use athena_store::cluster::CollectionHandle;
use athena_store::{Filter, StoreCluster};
use athena_types::Result;
use std::sync::Arc;

/// A live-feature handler registered through `AddEventHandler`.
pub type EventHandler = Box<dyn FnMut(&FeatureRecord) + Send>;

struct Registration {
    filter: Filter,
    handler: EventHandler,
    delivered: u64,
}

/// The feature manager: store access plus the event-delivery table.
pub struct FeatureManager {
    collection: CollectionHandle,
    registrations: Vec<Registration>,
    publish_to_store: bool,
    published: u64,
    dispatched: u64,
}

impl FeatureManager {
    /// The store collection features are published to.
    pub const COLLECTION: &'static str = "features";

    /// Creates a manager publishing into the given store cluster.
    pub fn new(store: &StoreCluster) -> Self {
        let collection = store.collection(Self::COLLECTION);
        collection.create_index("message_type");
        FeatureManager {
            collection,
            registrations: Vec::new(),
            publish_to_store: true,
            published: 0,
            dispatched: 0,
        }
    }

    /// Enables/disables store publication (the paper's Table IX measures
    /// a "no DB" configuration).
    pub fn set_store_enabled(&mut self, enabled: bool) {
        self.publish_to_store = enabled;
    }

    /// Whether store publication is enabled.
    pub fn store_enabled(&self) -> bool {
        self.publish_to_store
    }

    /// `(published, dispatched-to-handlers)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.published, self.dispatched)
    }

    /// Ingests one live feature record: publishes it to the distributed
    /// store and forwards it to every registration whose query matches.
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Store`] if publication fails.
    pub fn ingest(&mut self, record: &FeatureRecord) -> Result<()> {
        // The document form is only materialized when someone needs it:
        // the store, or a registered handler's filter.
        if !self.publish_to_store && self.registrations.is_empty() {
            return Ok(());
        }
        self.ingest_with_document(record, record.to_document())
            .map(drop)
    }

    /// [`FeatureManager::ingest`] for a caller that already built the
    /// record's document form. The document is moved into the store,
    /// never copied; the returned handle lends it on (the SB interface
    /// evaluates validator queries against it).
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Store`] if publication fails.
    pub fn ingest_with_document(
        &mut self,
        record: &FeatureRecord,
        doc: RawDocument,
    ) -> Result<Arc<RawDocument>> {
        let doc = self.stored(doc)?;
        self.deliver(record, &doc);
        Ok(doc)
    }

    /// Ingests a pre-built feature document (used when replaying stored
    /// feature sets carrying extra fields such as phase tags or ground
    /// truth). Handlers receive the reconstructed record.
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Store`] if publication fails.
    pub fn ingest_document(&mut self, doc: RawDocument) -> Result<()> {
        let doc = self.stored(doc)?;
        if !self.registrations.is_empty() {
            self.deliver(&FeatureRecord::from_document(&doc), &doc);
        }
        Ok(())
    }

    /// Moves `doc` into the store (when publication is on) and hands
    /// back the stored body.
    fn stored(&mut self, doc: RawDocument) -> Result<Arc<RawDocument>> {
        if !self.publish_to_store {
            return Ok(Arc::new(doc));
        }
        let stored = self.collection.insert_shared(doc)?;
        self.published += 1;
        Ok(stored)
    }

    /// Forwards `record` to every registration whose query matches its
    /// document form.
    fn deliver(&mut self, record: &FeatureRecord, doc: &RawDocument) {
        for reg in &mut self.registrations {
            if reg.filter.matches(doc) {
                (reg.handler)(record);
                reg.delivered += 1;
                self.dispatched += 1;
            }
        }
    }

    /// Registers an event handler with a query constraint; returns its
    /// registration index.
    pub fn register_handler(&mut self, query: &Query, handler: EventHandler) -> usize {
        self.registrations.push(Registration {
            filter: query.to_filter(),
            handler,
            delivered: 0,
        });
        self.registrations.len() - 1
    }

    /// How many events a registration has received.
    pub fn delivered_count(&self, registration: usize) -> Option<u64> {
        self.registrations.get(registration).map(|r| r.delivered)
    }

    /// Retrieves stored features matching a query (the `RequestFeatures`
    /// API), applying the query's projection to the feature fields. The
    /// records are converted straight from the bodies the shards hold:
    /// no document is copied on the way.
    pub fn request_features(&self, query: &Query) -> Vec<FeatureRecord> {
        let docs = self
            .collection
            .find(&query.to_filter(), &query.to_find_options());
        let wanted: Vec<FieldName> = query.features.iter().map(FieldName::from).collect();
        let keep = |name: &FieldName| wanted.is_empty() || wanted.contains(name);
        docs.iter()
            .map(|d| FeatureRecord::from_document_keeping(d, keep))
            .collect()
    }

    /// Number of stored feature documents matching a query.
    pub fn count_features(&self, query: &Query) -> usize {
        self.collection.count(&query.to_filter())
    }

    /// Deletes stored features matching a query (used by tests and
    /// benchmarks between phases).
    pub fn purge(&self, query: &Query) -> usize {
        self.collection.delete(&query.to_filter())
    }

    /// Converts records to ML training data: extracts the named feature
    /// fields and labels each record with `truth` (ground truth or the
    /// Marking preprocessor's output). Records missing any named field
    /// are skipped (they are of a different kind).
    pub fn to_labeled_points(
        records: &[FeatureRecord],
        features: &[impl AsRef<str>],
        truth: impl Fn(&FeatureRecord) -> bool,
    ) -> Vec<LabeledPoint> {
        let features: Vec<FieldName> = features
            .iter()
            .map(|name| FieldName::from(name.as_ref()))
            .collect();
        records
            .iter()
            .filter_map(|r| {
                let v = r.values(&features)?;
                Some(LabeledPoint::new(v, f64::from(u8::from(truth(r)))))
            })
            .collect()
    }
}

impl std::fmt::Debug for FeatureManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureManager")
            .field("registrations", &self.registrations.len())
            .field("published", &self.published)
            .field("dispatched", &self.dispatched)
            .field("publish_to_store", &self.publish_to_store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::format::FeatureIndex;
    use athena_types::Dpid;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn record(switch: u64, packets: f64) -> FeatureRecord {
        let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(switch)));
        r.meta.message_type = "FLOW_STATS".into();
        r.push_field("FLOW_PACKET_COUNT", packets);
        r
    }

    fn manager() -> FeatureManager {
        FeatureManager::new(&StoreCluster::new(3, 2))
    }

    #[test]
    fn ingest_then_request_roundtrip() {
        let mut fm = manager();
        for i in 0..10 {
            fm.ingest(&record(i % 3, i as f64 * 10.0)).unwrap();
        }
        let all = fm.request_features(&Query::all());
        assert_eq!(all.len(), 10);
        let hot = fm.request_features(&Query::parse("FLOW_PACKET_COUNT>50").unwrap());
        assert_eq!(hot.len(), 4);
        assert_eq!(fm.count_features(&Query::parse("switch==0").unwrap()), 4);
    }

    #[test]
    fn event_delivery_table_matches_constraints() {
        let mut fm = manager();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        let reg = fm.register_handler(
            &Query::parse("FLOW_PACKET_COUNT>=100").unwrap(),
            Box::new(move |_| {
                hits2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for i in 0..15 {
            fm.ingest(&record(1, i as f64 * 10.0)).unwrap();
        }
        // Packets 100, 110, 120, 130, 140 match.
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(fm.delivered_count(reg), Some(5));
        assert_eq!(fm.counters(), (15, 5));
    }

    #[test]
    fn no_db_mode_skips_publication_but_still_dispatches() {
        let mut fm = manager();
        fm.set_store_enabled(false);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        fm.register_handler(
            &Query::all(),
            Box::new(move |_| {
                hits2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        fm.ingest(&record(1, 5.0)).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(fm.count_features(&Query::all()), 0);
        assert_eq!(fm.counters(), (0, 1));
    }

    #[test]
    fn projection_restricts_fields() {
        let mut fm = manager();
        let mut r = record(1, 7.0);
        r.push_field("FLOW_BYTE_COUNT", 700.0);
        fm.ingest(&r).unwrap();
        let mut q = Query::all();
        q.features = vec!["FLOW_BYTE_COUNT".into()];
        let out = fm.request_features(&q);
        assert_eq!(out[0].fields.len(), 1);
        assert_eq!(out[0].field("FLOW_BYTE_COUNT"), Some(700.0));
    }

    #[test]
    fn labeled_point_conversion_skips_foreign_records() {
        let mut with_fields = record(1, 10.0);
        with_fields.push_field("FLOW_BYTE_COUNT", 1000.0);
        let without = FeatureRecord::new(FeatureIndex::switch(Dpid::new(2)));
        let points = FeatureManager::to_labeled_points(
            &[with_fields, without],
            &["FLOW_PACKET_COUNT", "FLOW_BYTE_COUNT"],
            |r| r.field("FLOW_PACKET_COUNT").unwrap_or(0.0) > 5.0,
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].features, vec![10.0, 1000.0]);
        assert!(points[0].is_malicious());
    }

    #[test]
    fn purge_deletes_matching() {
        let mut fm = manager();
        for i in 0..6 {
            fm.ingest(&record(i % 2, 1.0)).unwrap();
        }
        assert_eq!(fm.purge(&Query::parse("switch==0").unwrap()), 3);
        assert_eq!(fm.count_features(&Query::all()), 3);
    }
}
