//! The Feature Management Manager (paper §III-A 2A).
//!
//! Provides the unified mechanism applications use to retrieve and receive
//! network features: reads the store under each [`Query`]'s filter, maintains
//! the *event delivery table* matching live features against registered
//! constraints, and converts feature sets into ML training data.

use crate::feature::catalog::FieldName;
use crate::feature::format::FeatureRecord;
use crate::nb::query::Query;
use athena_ml::LabeledPoint;
use athena_store::cluster::CollectionHandle;
use athena_store::{Document, Filter, FindOptions, Placement, StoreCluster};
use athena_types::Result;

/// A live-feature handler registered through `AddEventHandler`.
pub type EventHandler = Box<dyn FnMut(&FeatureRecord) + Send>;

/// What [`FeatureManager::ingest_batch`] hands each record of a batch,
/// with its document, once the batch is stored (the SB interface's online
/// validators).
pub type Examine<'a> = &'a mut dyn FnMut(&FeatureRecord, &Document);

struct Registration {
    filter: Filter,
    handler: EventHandler,
}

/// The feature manager: store access plus the event-delivery table.
pub struct FeatureManager {
    collection: CollectionHandle,
    registrations: Vec<Registration>,
    publish_to_store: bool,
    published: u64,
    dispatched: u64,
    // Kept between batches (emptied, never shrunk), so a message's store
    // batch allocates nothing but its documents.
    batch: Vec<Placement>,
}

impl FeatureManager {
    /// The store collection features are published to.
    pub const COLLECTION: &'static str = "features";

    /// Creates a manager publishing into the given store cluster.
    pub fn new(store: &StoreCluster) -> Self {
        let collection = store.collection(Self::COLLECTION);
        collection.create_index(["message_type", "switch"]);
        FeatureManager {
            collection,
            registrations: Vec::new(),
            publish_to_store: true,
            published: 0,
            dispatched: 0,
            batch: Vec::new(),
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
        self.ingest_batch(std::slice::from_ref(record), None)
    }

    /// Ingests one message's live records: publishes their documents to
    /// the store as one batch, then, record by record in order, forwards
    /// each published one to the matching handlers and hands every one —
    /// a refused write included — with its document to `examine` (the
    /// SB interface's online validators). The whole batch is stored
    /// before the first handler runs. Each document is built once, and
    /// only when the store, a handler or `examine` reads it; it is moved
    /// into the store, never copied.
    ///
    /// # Errors
    ///
    /// Returns the first [`athena_types::AthenaError::Store`] error if
    /// publication failed for any record, after every record has been
    /// delivered.
    pub fn ingest_batch(
        &mut self,
        records: &[FeatureRecord],
        examine: Option<Examine<'_>>,
    ) -> Result<()> {
        if !self.publish_to_store && self.registrations.is_empty() && examine.is_none() {
            return Ok(());
        }
        let docs = records.iter().map(FeatureRecord::to_document);
        self.store_and_deliver(records, docs, examine)
    }

    /// Ingests a pre-built feature document (used when replaying stored
    /// feature sets carrying extra fields such as phase tags or ground
    /// truth): a batch of one, stored as given. Handlers receive the
    /// record read back from it.
    ///
    /// # Errors
    ///
    /// Returns [`athena_types::AthenaError::Store`] if publication fails.
    pub fn ingest_document(&mut self, doc: Document) -> Result<()> {
        let record = FeatureRecord::from_document(&doc);
        self.store_and_deliver(std::slice::from_ref(&record), [doc], None)
    }

    /// The one ingest path: stores `docs` (one per record, in order) as
    /// one batch, then delivers record by record.
    fn store_and_deliver(
        &mut self,
        records: &[FeatureRecord],
        docs: impl IntoIterator<Item = Document>,
        mut examine: Option<Examine<'_>>,
    ) -> Result<()> {
        let mut batch = std::mem::take(&mut self.batch);
        batch.extend(docs.into_iter().map(Placement::pending));
        if self.publish_to_store {
            self.collection.insert_batch(&mut batch);
        }
        let mut first_error = Ok(());
        for (record, Placement { doc, outcome, .. }) in records.iter().zip(batch.drain(..)) {
            match outcome {
                Ok(()) => {
                    self.published += u64::from(self.publish_to_store);
                    self.deliver(record, &doc);
                }
                Err(e) => first_error = first_error.and(Err(e)),
            }
            if let Some(examine) = examine.as_mut() {
                examine(record, &doc);
            }
        }
        self.batch = batch;
        first_error
    }

    /// Forwards `record` to every registration whose query matches its
    /// document form.
    fn deliver(&mut self, record: &FeatureRecord, doc: &Document) {
        for reg in &mut self.registrations {
            if reg.filter.matches(doc) {
                (reg.handler)(record);
                self.dispatched += 1;
            }
        }
    }

    /// Registers an event handler with a query constraint; returns its
    /// registration index.
    pub fn register_handler(&mut self, query: &Query, handler: EventHandler) -> usize {
        self.registrations.push(Registration {
            filter: query.filter.clone(),
            handler,
        });
        self.registrations.len() - 1
    }

    /// Retrieves stored features matching a query (the `RequestFeatures`
    /// API), applying the query's projection to the feature fields. The
    /// records are converted straight from the bodies the shards hold:
    /// no document is copied on the way.
    pub fn request_features(&self, query: &Query) -> Vec<FeatureRecord> {
        let options = FindOptions {
            sort: query.sort.clone(),
            limit: query.limit,
            ..FindOptions::default()
        };
        let docs = self.collection.find(&query.filter, &options);
        let wanted: Vec<FieldName> = query.features.iter().map(FieldName::from).collect();
        let keep = |name: &FieldName| wanted.is_empty() || wanted.contains(name);
        docs.iter()
            .map(|d| FeatureRecord::from_document_keeping(d, keep))
            .collect()
    }

    /// Number of stored feature documents matching a query.
    pub fn count_features(&self, query: &Query) -> usize {
        self.collection.count(&query.filter)
    }

    /// Deletes stored features matching a query (used by tests and
    /// benchmarks between phases).
    pub fn purge(&self, query: &Query) -> usize {
        self.collection.delete(&query.filter)
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
    fn the_feature_collection_declares_one_compound_index() {
        let store = StoreCluster::new(3, 2);
        let mut fm = FeatureManager::new(&store);
        fm.ingest(&record(2, 1.0)).unwrap();
        let features = store.collection(FeatureManager::COLLECTION);
        for i in 0..store.node_count() {
            let indexes = features.read_shard(i, |c| c.index_fields());
            assert_eq!(indexes, [["message_type", "switch"]]);
        }
        let per_switch = Query::parse("switch==2 && feature==FLOW_STATS").unwrap();
        assert_eq!(fm.request_features(&per_switch).len(), 1);
    }

    #[test]
    fn event_delivery_table_matches_constraints() {
        let mut fm = manager();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        fm.register_handler(
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
