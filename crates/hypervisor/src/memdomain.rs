//! Reliable vs relaxed memory placement and page retirement.
//!
//! §6.B: "we have separated the main memory into domains … This allowed
//! us to isolate critical kernel code and stack data by placing them on
//! a reliable memory domain (using nominal refresh-rate)". The placement
//! map assigns the hypervisor's own footprint to the reliable domain and
//! guest memory to the relaxed domain; pages that produce uncorrectable
//! errors are retired (never allocated again).

use std::collections::BTreeSet;

use uniserver_units::Bytes;

use uniserver_platform::msr::DomainId;

/// 4 KiB pages, the retirement granularity.
pub const PAGE_BYTES: u64 = 4_096;

/// Placement decision for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Reliable domain: nominal refresh, hypervisor-critical state.
    Reliable,
    /// Relaxed domain: extended refresh interval, guest pages.
    Relaxed,
}

/// Error for placement requests that cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementError {
    /// What was requested.
    pub requested: Bytes,
    /// What remains available in the target domain.
    pub available: Bytes,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "placement of {} failed: only {} available", self.requested, self.available)
    }
}

impl std::error::Error for PlacementError {}

/// The memory placement map of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryMap {
    /// Capacity of the reliable domain.
    pub reliable_capacity: Bytes,
    /// Capacity of the relaxed domain.
    pub relaxed_capacity: Bytes,
    reliable_used: Bytes,
    relaxed_used: Bytes,
    retired_pages: BTreeSet<u64>,
    /// Platform refresh-domain id backing the reliable region.
    pub reliable_domain: DomainId,
    /// Platform refresh-domain id backing the relaxed region.
    pub relaxed_domain: DomainId,
}

impl MemoryMap {
    /// Creates a map over two capacities, bound to platform refresh
    /// domains (by convention domain 0 = reliable, domain 1 = relaxed,
    /// matching [`uniserver_platform::dram::MemorySystem::commodity_server`]).
    #[must_use]
    pub fn new(reliable_capacity: Bytes, relaxed_capacity: Bytes) -> Self {
        MemoryMap {
            reliable_capacity,
            relaxed_capacity,
            reliable_used: Bytes::ZERO,
            relaxed_used: Bytes::ZERO,
            retired_pages: BTreeSet::new(),
            reliable_domain: DomainId(0),
            relaxed_domain: DomainId(1),
        }
    }

    /// Bytes allocated in a domain.
    #[must_use]
    pub fn used(&self, placement: Placement) -> Bytes {
        match placement {
            Placement::Reliable => self.reliable_used,
            Placement::Relaxed => self.relaxed_used,
        }
    }

    /// Bytes still available in a domain (accounting for retired pages in
    /// the relaxed domain).
    #[must_use]
    pub fn available(&self, placement: Placement) -> Bytes {
        match placement {
            Placement::Reliable => self.reliable_capacity.saturating_sub(self.reliable_used),
            Placement::Relaxed => self
                .relaxed_capacity
                .saturating_sub(self.relaxed_used)
                .saturating_sub(self.retired_bytes()),
        }
    }

    /// Allocates in the given domain.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the domain cannot fit the request.
    pub fn allocate(&mut self, placement: Placement, size: Bytes) -> Result<(), PlacementError> {
        let available = self.available(placement);
        if size > available {
            return Err(PlacementError { requested: size, available });
        }
        match placement {
            Placement::Reliable => self.reliable_used = self.reliable_used + size,
            Placement::Relaxed => self.relaxed_used = self.relaxed_used + size,
        }
        Ok(())
    }

    /// Frees from the given domain.
    ///
    /// # Panics
    ///
    /// Panics if freeing more than is allocated (accounting corruption).
    pub fn free(&mut self, placement: Placement, size: Bytes) {
        match placement {
            Placement::Reliable => {
                assert!(size <= self.reliable_used, "freeing more reliable memory than allocated");
                self.reliable_used = self.reliable_used - size;
            }
            Placement::Relaxed => {
                assert!(size <= self.relaxed_used, "freeing more relaxed memory than allocated");
                self.relaxed_used = self.relaxed_used - size;
            }
        }
    }

    /// Retires the (relaxed-domain) page containing `word_index`.
    /// Returns whether the page was newly retired.
    pub fn retire_page_of_word(&mut self, word_index: u64) -> bool {
        self.retired_pages.insert(word_index * 8 / PAGE_BYTES)
    }

    /// Number of retired pages.
    #[must_use]
    pub fn retired_page_count(&self) -> usize {
        self.retired_pages.len()
    }

    /// Capacity lost to retirement.
    #[must_use]
    pub fn retired_bytes(&self) -> Bytes {
        Bytes::new(self.retired_pages.len() as u64 * PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MemoryMap {
        MemoryMap::new(Bytes::gib(16), Bytes::gib(16))
    }

    #[test]
    fn allocate_and_free_round_trip() {
        let mut m = map();
        m.allocate(Placement::Reliable, Bytes::mib(700)).unwrap();
        m.allocate(Placement::Relaxed, Bytes::gib(4)).unwrap();
        assert_eq!(m.used(Placement::Reliable), Bytes::mib(700));
        assert_eq!(m.used(Placement::Relaxed), Bytes::gib(4));
        m.free(Placement::Relaxed, Bytes::gib(4));
        assert_eq!(m.used(Placement::Relaxed), Bytes::ZERO);
    }

    #[test]
    fn over_allocation_is_rejected_without_state_change() {
        let mut m = MemoryMap::new(Bytes::gib(1), Bytes::gib(1));
        let err = m.allocate(Placement::Reliable, Bytes::gib(2)).unwrap_err();
        assert_eq!(err.requested, Bytes::gib(2));
        assert_eq!(err.available, Bytes::gib(1));
        assert_eq!(m.used(Placement::Reliable), Bytes::ZERO);
        assert!(err.to_string().contains("placement of"));
    }

    #[test]
    fn retirement_shrinks_relaxed_availability() {
        let mut m = map();
        let before = m.available(Placement::Relaxed);
        // Words 0 and 1 share a page; word 1024 is the next page.
        assert!(m.retire_page_of_word(0));
        assert!(!m.retire_page_of_word(1), "same page retires once");
        assert!(m.retire_page_of_word(1024));
        assert_eq!(m.retired_page_count(), 2);
        assert_eq!(before - m.available(Placement::Relaxed), Bytes::new(2 * PAGE_BYTES));
    }

    #[test]
    #[should_panic(expected = "freeing more")]
    fn double_free_panics() {
        let mut m = map();
        m.free(Placement::Reliable, Bytes::mib(1));
    }
}
