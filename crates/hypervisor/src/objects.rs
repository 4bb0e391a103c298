//! The hypervisor's statically allocated object inventory.
//!
//! §6.C: "for each statically allocated object of the Hypervisor (total
//! 16820 objects), we introduced, in independent executions (total 5
//! executions), Silent Data Corruptions" — and Figure 4 groups the
//! resulting fatal failures by the object's subsystem (block, drivers,
//! fs, init, kernel, mm, net, pci, power, security, vdso).
//!
//! Each object carries a *criticality* (probability that corrupting it
//! while it is being exercised takes the hypervisor down) and an
//! *exercise rate* under loaded/unloaded conditions. The calibration
//! reproduces the paper's two headline observations: (1) roughly an
//! order of magnitude more crashes under VM load, and (2) fs/kernel/net
//! structures are the most sensitive, in the same ranking with and
//! without load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniserver_units::Bytes;

/// Linux-subsystem categories of hypervisor objects (Figure 4's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectCategory {
    /// Block-layer structures (request queues, elevators).
    Block,
    /// Device-driver state.
    Drivers,
    /// Filesystem structures (dentries, superblocks).
    Fs,
    /// Boot/init remnants.
    Init,
    /// Core kernel (scheduler, locking, time).
    Kernel,
    /// Memory management (page tables, slab caches).
    Mm,
    /// Networking stack.
    Net,
    /// PCI enumeration state.
    Pci,
    /// Power management.
    Power,
    /// LSM/security hooks.
    Security,
    /// The vDSO image.
    Vdso,
}

impl ObjectCategory {
    /// All categories in x-axis order.
    pub const ALL: [ObjectCategory; 11] = [
        ObjectCategory::Block,
        ObjectCategory::Drivers,
        ObjectCategory::Fs,
        ObjectCategory::Init,
        ObjectCategory::Kernel,
        ObjectCategory::Mm,
        ObjectCategory::Net,
        ObjectCategory::Pci,
        ObjectCategory::Power,
        ObjectCategory::Security,
        ObjectCategory::Vdso,
    ];

    /// Display label (matches the paper's figure).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ObjectCategory::Block => "block",
            ObjectCategory::Drivers => "drivers",
            ObjectCategory::Fs => "fs",
            ObjectCategory::Init => "init",
            ObjectCategory::Kernel => "kernel",
            ObjectCategory::Mm => "mm",
            ObjectCategory::Net => "net",
            ObjectCategory::Pci => "pci",
            ObjectCategory::Power => "power",
            ObjectCategory::Security => "security",
            ObjectCategory::Vdso => "vdso",
        }
    }

    /// Number of statically allocated objects in the category (sums to
    /// the paper's 16 820).
    #[must_use]
    pub(crate) fn object_count(self) -> usize {
        match self {
            ObjectCategory::Drivers => 4_200,
            ObjectCategory::Fs => 2_800,
            ObjectCategory::Kernel => 2_600,
            ObjectCategory::Net => 1_900,
            ObjectCategory::Mm => 1_600,
            ObjectCategory::Block => 1_200,
            ObjectCategory::Pci => 900,
            ObjectCategory::Power => 600,
            ObjectCategory::Security => 500,
            ObjectCategory::Init => 300,
            ObjectCategory::Vdso => 220,
        }
    }

    /// Probability that an SDC in an *exercised* object of this category
    /// is fatal. Calibrated so the Figure 4 ranking (fs/kernel/net most
    /// sensitive) and magnitudes (≤ ~3 500 with load over 5 executions)
    /// come out of the campaign.
    #[must_use]
    pub fn criticality(self) -> f64 {
        match self {
            ObjectCategory::Fs => 0.25,
            ObjectCategory::Kernel => 0.25,
            ObjectCategory::Net => 0.22,
            ObjectCategory::Mm => 0.18,
            ObjectCategory::Block => 0.12,
            ObjectCategory::Drivers => 0.08,
            ObjectCategory::Pci => 0.05,
            ObjectCategory::Security => 0.05,
            ObjectCategory::Power => 0.04,
            ObjectCategory::Init => 0.03,
            ObjectCategory::Vdso => 0.02,
        }
    }

    /// Fraction of executions in which an object of this category is
    /// actually exercised while VMs are running on top.
    #[must_use]
    pub fn exercise_rate_loaded(self) -> f64 {
        1.0
    }

    /// Exercise rate on an unloaded (no VM) hypervisor: an order of
    /// magnitude lower activity, uniformly — which is why Figure 4 shows
    /// "the same fault injection rate lead\[ing\] to an order of magnitude
    /// more Hypervisor crashes in the presence of active VMs" while the
    /// sensitivity *ranking* is load-invariant.
    #[must_use]
    pub fn exercise_rate_unloaded(self) -> f64 {
        0.07
    }
}

impl std::fmt::Display for ObjectCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One statically allocated hypervisor object.
#[derive(Debug, Clone, PartialEq)]
pub struct HvObject {
    /// Stable object identifier (index into the inventory).
    pub id: u32,
    /// Subsystem the object belongs to.
    pub category: ObjectCategory,
    /// Object size.
    pub size: Bytes,
    /// The object's (modeled) current 64-bit state word — the thing the
    /// fault injector actually flips bits in.
    pub value: u64,
    /// Pristine value for corruption detection.
    pub pristine: u64,
}

impl HvObject {
    /// Whether the object is currently corrupted.
    #[must_use]
    pub fn is_corrupted(&self) -> bool {
        self.value != self.pristine
    }

    /// Restores the pristine value.
    pub fn repair(&mut self) {
        self.value = self.pristine;
    }
}

/// The full inventory: the paper's 16 820 objects.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInventory {
    objects: Vec<HvObject>,
}

impl ObjectInventory {
    /// Total number of statically allocated objects (the paper's count).
    pub(crate) const TOTAL_OBJECTS: usize = 16_820;

    /// Seed of the standard (hypervisor-default) inventory.
    pub(crate) const STANDARD_SEED: u64 = 0xB00F;

    /// The standard inventory every hypervisor boots with, shared
    /// read-only. Built once per process: rack simulations stand up
    /// thousands of hypervisors, and re-sampling (or even deep-copying)
    /// the same 16 820 deterministic objects each time dominated
    /// construction cost. Nothing on the serving path writes it; the SDC
    /// campaign corrupts a private inventory from [`ObjectInventory::build`].
    #[must_use]
    pub(crate) fn standard_shared() -> std::sync::Arc<Self> {
        static PROTOTYPE: std::sync::OnceLock<std::sync::Arc<ObjectInventory>> =
            std::sync::OnceLock::new();
        std::sync::Arc::clone(
            PROTOTYPE.get_or_init(|| std::sync::Arc::new(ObjectInventory::build(Self::STANDARD_SEED))),
        )
    }

    /// Builds the inventory deterministically from a seed (sizes and
    /// state words are sampled; counts and criticalities are fixed per
    /// category).
    #[must_use]
    pub fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut objects = Vec::with_capacity(Self::TOTAL_OBJECTS);
        let mut id = 0u32;
        for cat in ObjectCategory::ALL {
            for _ in 0..cat.object_count() {
                let value: u64 = rng.gen();
                objects.push(HvObject {
                    id,
                    category: cat,
                    // Object sizes: a few words up to a few KiB, log-ish.
                    size: Bytes::new(8u64 << rng.gen_range(0..8u32)),
                    value,
                    pristine: value,
                });
                id += 1;
            }
        }
        ObjectInventory { objects }
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the inventory is empty (never, after `build`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Immutable object access.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<&HvObject> {
        self.objects.get(id as usize)
    }

    /// Mutable object access (for injection and repair).
    pub fn get_mut(&mut self, id: u32) -> Option<&mut HvObject> {
        self.objects.get_mut(id as usize)
    }

    /// Iterates over all objects.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &HvObject> {
        self.objects.iter()
    }

    /// Total static footprint of the inventory.
    #[must_use]
    pub(crate) fn total_size(&self) -> Bytes {
        self.objects.iter().map(|o| o.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_paper_total() {
        let total: usize = ObjectCategory::ALL.iter().map(|c| c.object_count()).sum();
        assert_eq!(total, ObjectInventory::TOTAL_OBJECTS);
        let inv = ObjectInventory::build(1);
        assert_eq!(inv.len(), 16_820);
        assert!(!inv.is_empty());
    }

    #[test]
    fn fs_kernel_net_are_most_critical() {
        let mut by_crit: Vec<ObjectCategory> = ObjectCategory::ALL.to_vec();
        by_crit.sort_by(|a, b| b.criticality().partial_cmp(&a.criticality()).unwrap());
        let top3: Vec<&str> = by_crit[..3].iter().map(|c| c.label()).collect();
        assert!(top3.contains(&"fs"));
        assert!(top3.contains(&"kernel"));
        assert!(top3.contains(&"net"));
    }

    #[test]
    fn expected_fatalities_match_figure4_axes() {
        // With load, 5 executions: the worst category approaches 3 500
        // fatal failures; without load everything fits under ~250.
        for cat in ObjectCategory::ALL {
            let loaded = cat.object_count() as f64
                * 5.0
                * cat.criticality()
                * cat.exercise_rate_loaded();
            let unloaded = cat.object_count() as f64
                * 5.0
                * cat.criticality()
                * cat.exercise_rate_unloaded();
            assert!(loaded <= 3_500.0 + 1.0, "{cat}: loaded expectation {loaded}");
            assert!(unloaded <= 250.0 + 1.0, "{cat}: unloaded expectation {unloaded}");
        }
        let fs_loaded = ObjectCategory::Fs.object_count() as f64 * 5.0 * 0.25;
        assert!((fs_loaded - 3_500.0).abs() < 1.0, "fs anchors the left axis");
    }

    #[test]
    fn load_gap_is_an_order_of_magnitude() {
        for cat in ObjectCategory::ALL {
            let ratio = cat.exercise_rate_loaded() / cat.exercise_rate_unloaded();
            assert!((10.0..20.0).contains(&ratio), "{cat}: load ratio {ratio}");
        }
    }

    #[test]
    fn objects_start_pristine_and_repair_works() {
        let mut inv = ObjectInventory::build(2);
        assert!(inv.iter().all(|o| !o.is_corrupted()));
        let obj = inv.get_mut(7).expect("object 7 exists");
        obj.value ^= 1;
        assert!(obj.is_corrupted());
        obj.repair();
        assert!(!obj.is_corrupted());
    }

    #[test]
    fn build_is_deterministic() {
        assert_eq!(ObjectInventory::build(9), ObjectInventory::build(9));
    }

    #[test]
    fn category_filter_counts() {
        let inv = ObjectInventory::build(3);
        let count = |cat| inv.iter().filter(|o| o.category == cat).count();
        assert_eq!(count(ObjectCategory::Vdso), 220);
        assert_eq!(count(ObjectCategory::Drivers), 4_200);
    }
}
