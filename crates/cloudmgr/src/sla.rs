//! Service-level agreements.
//!
//! §2: "The optimization of operations at the EOP in UniServer is guided
//! by the system requirements of the end-user for each VM, which are
//! typically communicated to the Cloud provider through Service Level
//! Agreements (SLAs)."

/// Coarse service classes, each mapping to concrete requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlaClass {
    /// Latency-sensitive, user-facing, high-value.
    Gold,
    /// Standard production service.
    Silver,
    /// Batch / best-effort.
    Bronze,
}

impl SlaClass {
    /// Minimum node availability required to host this class.
    #[must_use]
    pub(crate) fn min_availability(self) -> f64 {
        match self {
            SlaClass::Gold => 0.9995,
            SlaClass::Silver => 0.995,
            SlaClass::Bronze => 0.95,
        }
    }

    /// Minimum node reliability score (predicted absence of imminent
    /// failure) required to host this class.
    #[must_use]
    pub(crate) fn min_reliability(self) -> f64 {
        match self {
            SlaClass::Gold => 0.9,
            SlaClass::Silver => 0.7,
            SlaClass::Bronze => 0.3,
        }
    }

    /// Whether workloads of this class should be proactively migrated
    /// off nodes with predicted failures (§5.B: "critical to sustain
    /// high-availability especially for high value and user-facing
    /// workloads").
    #[must_use]
    pub(crate) fn proactive_migration(self) -> bool {
        !matches!(self, SlaClass::Bronze)
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SlaClass::Gold => "gold",
            SlaClass::Silver => "silver",
            SlaClass::Bronze => "bronze",
        }
    }
}

impl std::fmt::Display for SlaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirements_are_ordered_by_class() {
        assert!(SlaClass::Gold.min_availability() > SlaClass::Silver.min_availability());
        assert!(SlaClass::Silver.min_availability() > SlaClass::Bronze.min_availability());
        assert!(SlaClass::Gold.min_reliability() > SlaClass::Bronze.min_reliability());
    }

    #[test]
    fn only_batch_skips_proactive_migration() {
        assert!(SlaClass::Gold.proactive_migration());
        assert!(SlaClass::Silver.proactive_migration());
        assert!(!SlaClass::Bronze.proactive_migration());
    }

    #[test]
    fn labels() {
        assert_eq!(SlaClass::Gold.to_string(), "gold");
    }
}
