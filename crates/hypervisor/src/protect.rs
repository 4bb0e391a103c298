//! Selective protection of critical hypervisor structures.
//!
//! §4.A: "The UniServer Hypervisor seeks resilience through a careful
//! characterization of the criticality and sensitivity of Hypervisor
//! data structures and code, and educated checking and selective
//! checkpointing mechanisms, driven by this analysis." The fault
//! injection of §6.C supplies the analysis (fs/kernel/net are the
//! sensitive clusters); this module implements the mechanism: shadow
//! copies plus periodic scrubbing for the categories worth the cost.

use std::collections::BTreeSet;

use uniserver_units::Bytes;

use crate::objects::{ObjectCategory, ObjectInventory};

/// Which categories to protect.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProtectionPolicy {
    /// The protected categories.
    pub categories: BTreeSet<ObjectCategory>,
}

impl ProtectionPolicy {
    /// Protect nothing (baseline).
    #[must_use]
    pub fn none() -> Self {
        ProtectionPolicy::default()
    }

    /// Protect the `k` most critical categories — the "educated" policy
    /// the fault-injection study justifies.
    #[must_use]
    pub fn top_categories(k: usize) -> Self {
        let mut cats: Vec<ObjectCategory> = ObjectCategory::ALL.to_vec();
        cats.sort_by(|a, b| {
            b.criticality()
                .partial_cmp(&a.criticality())
                .expect("criticalities are finite")
                .then(a.cmp(b))
        });
        ProtectionPolicy { categories: cats.into_iter().take(k).collect() }
    }

    /// Whether a category is protected.
    #[must_use]
    pub fn covers(&self, cat: ObjectCategory) -> bool {
        self.categories.contains(&cat)
    }

    /// Number of objects the policy protects: every statically
    /// allocated object of each covered category.
    #[must_use]
    pub(crate) fn protected_objects(&self) -> usize {
        self.categories.iter().map(|c| c.object_count()).sum()
    }

    /// Modelled memory overhead of the shadow copies: 8 bytes (the
    /// state word the model tracks) per protected object. This is the
    /// protection term of the Figure 3 footprint, not host memory.
    #[must_use]
    pub(crate) fn overhead(&self) -> Bytes {
        Bytes::new(self.protected_objects() as u64 * 8)
    }
}

/// The runtime protector: shadow copies + scrub statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Protector {
    policy: ProtectionPolicy,
    /// Shadow copies as an id-sorted vector: every scrub pass walks it
    /// linearly, so contiguity (and a deterministic order) beats a hash
    /// map here.
    shadows: Vec<(u32, u64)>,
    /// Corruptions repaired over the protector's lifetime.
    pub recoveries: u64,
    /// Scrub passes performed.
    pub scrubs: u64,
}

impl Protector {
    /// Creates a protector and snapshots shadow copies of every object
    /// in a protected category.
    #[must_use]
    pub fn new(policy: ProtectionPolicy, inventory: &ObjectInventory) -> Self {
        // Inventory iteration is already id-ascending, so the collected
        // shadow list is sorted by construction.
        let shadows = inventory
            .iter()
            .filter(|o| policy.covers(o.category))
            .map(|o| (o.id, o.pristine))
            .collect();
        Protector { policy, shadows, recoveries: 0, scrubs: 0 }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &ProtectionPolicy {
        &self.policy
    }

    /// One scrub pass: compares protected objects against their shadow
    /// copies and repairs mismatches. Returns the number of repairs.
    pub fn scrub(&mut self, inventory: &mut ObjectInventory) -> u64 {
        self.scrubs += 1;
        let mut repaired = 0;
        for &(id, shadow) in &self.shadows {
            if let Some(obj) = inventory.get_mut(id) {
                if obj.value != shadow {
                    obj.value = shadow;
                    repaired += 1;
                }
            }
        }
        self.recoveries += repaired;
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_silicon::BitFlip;

    #[test]
    fn top_categories_pick_the_figure4_clusters() {
        let p = ProtectionPolicy::top_categories(3);
        assert!(p.covers(ObjectCategory::Fs));
        assert!(p.covers(ObjectCategory::Kernel));
        assert!(p.covers(ObjectCategory::Net));
        assert!(!p.covers(ObjectCategory::Vdso));
    }

    #[test]
    fn scrub_repairs_protected_corruption() {
        let mut inv = ObjectInventory::build(4);
        let mut protector = Protector::new(ProtectionPolicy::top_categories(3), &inv);
        // Corrupt one fs object (protected) and one vdso object (not).
        let first = |cat| inv.iter().find(|o| o.category == cat).unwrap().id;
        let (fs_id, vdso_id) = (first(ObjectCategory::Fs), first(ObjectCategory::Vdso));
        for id in [fs_id, vdso_id] {
            let obj = inv.get_mut(id).unwrap();
            obj.value = BitFlip::new(5).apply(obj.value);
        }
        let repaired = protector.scrub(&mut inv);
        assert_eq!(repaired, 1, "only the protected object is repaired");
        assert!(!inv.get(fs_id).unwrap().is_corrupted());
        assert!(inv.get(vdso_id).unwrap().is_corrupted());
        assert_eq!(protector.recoveries, 1);
    }

    #[test]
    fn policy_counts_every_object_of_its_categories() {
        let inv = ObjectInventory::build(4);
        for k in 0..=ObjectCategory::ALL.len() {
            let policy = ProtectionPolicy::top_categories(k);
            let covered = inv.iter().filter(|o| policy.covers(o.category)).count();
            assert_eq!(policy.protected_objects(), covered, "top {k} categories");
            assert_eq!(policy.overhead(), Bytes::new(covered as u64 * 8), "top {k} categories");
        }
        assert_eq!(ProtectionPolicy::none().overhead(), Bytes::ZERO);
        assert_eq!(ProtectionPolicy::top_categories(11).protected_objects(), inv.len());
        // Selective protection is cheap: fs + kernel + net = 7 300
        // objects = 58 400 B (~57 KiB) of shadows.
        let default = ProtectionPolicy::top_categories(3);
        assert_eq!(default.protected_objects(), 7_300);
        assert_eq!(default.overhead(), Bytes::new(58_400));
    }

    #[test]
    fn clean_scrub_repairs_nothing() {
        let mut inv = ObjectInventory::build(4);
        let mut protector = Protector::new(ProtectionPolicy::top_categories(11), &inv);
        assert_eq!(protector.scrub(&mut inv), 0);
        assert_eq!(protector.scrubs, 1);
    }
}
