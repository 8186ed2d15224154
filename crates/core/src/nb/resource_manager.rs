//! The Resource Manager (paper §III-A 2D): monitoring fidelity.
//!
//! "Dynamically adjusts the number of monitored network entities and
//! generated network features, according to requests from Athena
//! applications."

use crate::feature::catalog::MessageType;
use crate::feature::format::FeatureRecord;
use athena_types::Dpid;
use std::collections::HashSet;

/// Controls which entities are monitored and which feature kinds are
/// generated.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    /// Master switch: `false` silences all feature generation.
    pub monitoring_enabled: bool,
    disabled_switches: HashSet<Dpid>,
    disabled_kinds: HashSet<MessageType>,
}

impl Default for ResourceManager {
    fn default() -> Self {
        ResourceManager {
            monitoring_enabled: true,
            disabled_switches: HashSet::new(),
            disabled_kinds: HashSet::new(),
        }
    }
}

impl ResourceManager {
    /// Creates a manager with everything enabled.
    pub fn new() -> Self {
        ResourceManager::default()
    }

    /// Enables/disables monitoring of a switch.
    pub fn set_switch_enabled(&mut self, dpid: Dpid, enabled: bool) {
        if enabled {
            self.disabled_switches.remove(&dpid);
        } else {
            self.disabled_switches.insert(dpid);
        }
    }

    /// Enables/disables a feature kind (message type, e.g. `PORT_STATS`).
    pub fn set_kind_enabled(&mut self, kind: impl Into<MessageType>, enabled: bool) {
        let kind = kind.into();
        if enabled {
            self.disabled_kinds.remove(&kind);
        } else {
            self.disabled_kinds.insert(kind);
        }
    }

    /// Whether Athena should poll this switch at all.
    pub fn allows_polling(&self, dpid: Dpid) -> bool {
        self.monitoring_enabled && !self.disabled_switches.contains(&dpid)
    }

    /// Whether a generated record passes the current fidelity settings.
    /// Runs per generated record, so it reads a key only when something
    /// of its kind is disabled.
    pub fn allows(&self, record: &FeatureRecord) -> bool {
        self.monitoring_enabled
            && (self.disabled_switches.is_empty()
                || !self.disabled_switches.contains(&record.switch()))
            && (self.disabled_kinds.is_empty()
                || !self.disabled_kinds.contains(&record.message_type()))
    }

    /// Number of explicitly disabled entities (switches + kinds).
    pub fn disabled_count(&self) -> usize {
        self.disabled_switches.len() + self.disabled_kinds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::format::{FeatureIndex, MetaData};

    fn record(switch: u64, kind: &str) -> FeatureRecord {
        FeatureRecord::new(FeatureIndex::switch(Dpid::new(switch))).with_meta(MetaData {
            message_type: kind.into(),
            ..MetaData::default()
        })
    }

    #[test]
    fn default_allows_everything() {
        let rm = ResourceManager::new();
        assert!(rm.allows(&record(1, "FLOW_STATS")));
        assert!(rm.allows_polling(Dpid::new(1)));
        assert_eq!(rm.disabled_count(), 0);
    }

    #[test]
    fn master_switch_silences_all() {
        let mut rm = ResourceManager::new();
        rm.monitoring_enabled = false;
        assert!(!rm.allows(&record(1, "FLOW_STATS")));
        assert!(!rm.allows_polling(Dpid::new(1)));
    }

    #[test]
    fn per_switch_and_per_kind_toggles() {
        let mut rm = ResourceManager::new();
        rm.set_switch_enabled(Dpid::new(2), false);
        rm.set_kind_enabled("PORT_STATS", false);
        assert!(!rm.allows(&record(2, "FLOW_STATS")));
        assert!(!rm.allows(&record(1, "PORT_STATS")));
        assert!(rm.allows(&record(1, "FLOW_STATS")));
        assert!(!rm.allows_polling(Dpid::new(2)));
        assert_eq!(rm.disabled_count(), 2);
        // Re-enable.
        rm.set_switch_enabled(Dpid::new(2), true);
        rm.set_kind_enabled("PORT_STATS", true);
        assert!(rm.allows(&record(2, "PORT_STATS")));
        assert_eq!(rm.disabled_count(), 0);
    }
}
