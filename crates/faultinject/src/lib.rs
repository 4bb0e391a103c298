//! QEMU-style SDC fault injection into hypervisor objects (paper §6.C).
//!
//! "For each statically allocated object of the Hypervisor (total 16820
//! objects), we introduced, in independent executions (total 5
//! executions), Silent Data Corruptions. Afterwards, for each execution
//! we checked whether the data corruption resulted to a non-responsive
//! Hypervisor … In addition, we experimented both with and without VMs
//! running on top of the victim Hypervisor."
//!
//! The campaign flips a real bit in the object's state word, then
//! simulates one hypervisor execution window: the corrupted object may
//! be *exercised* (far more likely under VM load), and an exercised
//! corruption is fatal with the category's criticality. Objects covered
//! by the selective-protection policy are usually repaired by the scrub
//! before the corruption propagates — the ablation knob that §4.A's
//! "educated … selective checkpointing" argument needs.
//!
//! # Examples
//!
//! ```
//! use uniserver_faultinject::{Figure4, SdcCampaign};
//! use uniserver_hypervisor::protect::ProtectionPolicy;
//!
//! let fig4 = SdcCampaign::paper_campaign().run(&ProtectionPolicy::none());
//! // An order of magnitude more crashes with VMs on top.
//! assert!(fig4.total_with_load() > 8 * fig4.total_without_load());
//! ```

pub mod chaos;

pub use chaos::ChaosPlan;

use rand::rngs::StdRng;
use rand::SeedableRng;

use uniserver_hypervisor::objects::{ObjectCategory, ObjectInventory};
use uniserver_hypervisor::protect::{ProtectionPolicy, Protector};
use uniserver_silicon::rng::bernoulli;
use uniserver_silicon::BitFlip;

/// Outcome of a single injection execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum InjectionOutcome {
    /// The corrupted object was never exercised; the SDC stayed latent.
    Latent,
    /// The object was exercised but the corruption was benign.
    Masked,
    /// The protection scrub repaired the object before use.
    Recovered,
    /// The hypervisor became non-responsive (the paper's "crucial"
    /// marking).
    Fatal,
}

/// Load condition of an injection execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LoadCondition {
    /// VMs actively running on the victim hypervisor.
    WithVms,
    /// Unloaded hypervisor.
    WithoutVms,
}

impl LoadCondition {
    fn exercise_rate(self, cat: ObjectCategory) -> f64 {
        match self {
            LoadCondition::WithVms => cat.exercise_rate_loaded(),
            LoadCondition::WithoutVms => cat.exercise_rate_unloaded(),
        }
    }
}

/// Per-category aggregate of a campaign (one Figure 4 bar pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryResult {
    /// Object category.
    pub category: ObjectCategory,
    /// Injections performed per load condition.
    pub injections: u64,
    /// Fatal failures with VMs running (left axis of Figure 4).
    pub fatal_with_load: u64,
    /// Fatal failures without load (right axis of Figure 4).
    pub fatal_without_load: u64,
    /// Corruptions repaired by selective protection (with load).
    pub recovered_with_load: u64,
}

/// The regenerated Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4 {
    /// One row per category, in the figure's x-axis order.
    pub rows: Vec<CategoryResult>,
}

impl Figure4 {
    /// Total fatal failures with VM load.
    #[must_use]
    pub fn total_with_load(&self) -> u64 {
        self.rows.iter().map(|r| r.fatal_with_load).sum()
    }

    /// Total fatal failures without load.
    #[must_use]
    pub fn total_without_load(&self) -> u64 {
        self.rows.iter().map(|r| r.fatal_without_load).sum()
    }

    /// Categories ordered by descending loaded fatality — the
    /// sensitivity ranking the paper highlights.
    #[must_use]
    pub fn sensitivity_ranking(&self) -> Vec<ObjectCategory> {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.fatal_with_load));
        rows.into_iter().map(|r| r.category).collect()
    }

    /// Row lookup by category.
    ///
    /// # Panics
    ///
    /// Panics if the category is missing (cannot happen for campaign
    /// outputs).
    #[must_use]
    pub fn row(&self, cat: ObjectCategory) -> &CategoryResult {
        self.rows.iter().find(|r| r.category == cat).expect("all categories present")
    }
}

/// The SDC campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcCampaign {
    /// Independent executions per object (the paper's 5).
    pub executions_per_object: usize,
    /// Probability that the scrub fires between corruption and exercise
    /// for a protected object.
    pub scrub_coverage_pct: u8,
    /// RNG seed.
    pub seed: u64,
}

impl SdcCampaign {
    /// The paper's campaign: 16 820 objects × 5 executions × 2 load
    /// conditions.
    #[must_use]
    pub fn paper_campaign() -> Self {
        SdcCampaign { executions_per_object: 5, scrub_coverage_pct: 95, seed: 0x51DC }
    }

    /// Runs the campaign under both load conditions.
    ///
    /// # Panics
    ///
    /// Panics if `executions_per_object` is zero.
    #[must_use]
    pub fn run(&self, protection: &ProtectionPolicy) -> Figure4 {
        assert!(self.executions_per_object > 0, "need at least one execution per object");
        let mut inventory = ObjectInventory::build(self.seed);
        let mut protector = Protector::new(protection.clone(), &inventory);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut rows: Vec<CategoryResult> = ObjectCategory::ALL
            .iter()
            .map(|&category| CategoryResult {
                category,
                injections: 0,
                fatal_with_load: 0,
                fatal_without_load: 0,
                recovered_with_load: 0,
            })
            .collect();

        for condition in [LoadCondition::WithVms, LoadCondition::WithoutVms] {
            for id in 0..inventory.len() as u32 {
                for _ in 0..self.executions_per_object {
                    let outcome =
                        self.inject_once(&mut inventory, &mut protector, id, condition, &mut rng);
                    let cat = inventory.get(id).expect("id in range").category;
                    let row = rows
                        .iter_mut()
                        .find(|r| r.category == cat)
                        .expect("all categories present");
                    if condition == LoadCondition::WithVms {
                        row.injections += 1;
                    }
                    match (outcome, condition) {
                        (InjectionOutcome::Fatal, LoadCondition::WithVms) => {
                            row.fatal_with_load += 1;
                        }
                        (InjectionOutcome::Fatal, LoadCondition::WithoutVms) => {
                            row.fatal_without_load += 1;
                        }
                        (InjectionOutcome::Recovered, LoadCondition::WithVms) => {
                            row.recovered_with_load += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        Figure4 { rows }
    }

    /// One injection execution: corrupt, maybe scrub, maybe exercise,
    /// classify, repair.
    fn inject_once(
        &self,
        inventory: &mut ObjectInventory,
        protector: &mut Protector,
        id: u32,
        condition: LoadCondition,
        rng: &mut StdRng,
    ) -> InjectionOutcome {
        let (category, protected) = {
            let obj = inventory.get(id).expect("id in range");
            (obj.category, protector.policy().covers(obj.category))
        };

        // The SDC: a real bit flip in the object's state word.
        let flip = BitFlip::random(rng);
        {
            let obj = inventory.get_mut(id).expect("id in range");
            obj.value = flip.apply(obj.value);
            debug_assert!(obj.is_corrupted());
        }

        // Selective protection: the periodic scrub usually runs before
        // the corrupted object is next exercised.
        if protected && bernoulli(rng, f64::from(self.scrub_coverage_pct) / 100.0) {
            protector.scrub(inventory);
            return InjectionOutcome::Recovered;
        }

        let exercised = bernoulli(rng, condition.exercise_rate(category));
        let outcome = if !exercised {
            InjectionOutcome::Latent
        } else if bernoulli(rng, category.criticality()) {
            InjectionOutcome::Fatal
        } else {
            InjectionOutcome::Masked
        };

        // Independent executions: restore the pristine image.
        inventory.get_mut(id).expect("id in range").repair();
        outcome
    }
}

impl Default for SdcCampaign {
    fn default() -> Self {
        SdcCampaign::paper_campaign()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_unprotected() -> Figure4 {
        SdcCampaign::paper_campaign().run(&ProtectionPolicy::none())
    }

    #[test]
    fn injection_counts_match_the_paper() {
        let fig4 = fig4_unprotected();
        let total: u64 = fig4.rows.iter().map(|r| r.injections).sum();
        assert_eq!(total, 16_820 * 5, "16 820 objects x 5 executions per condition");
    }

    #[test]
    fn load_gap_is_an_order_of_magnitude() {
        let fig4 = fig4_unprotected();
        let ratio = fig4.total_with_load() as f64 / fig4.total_without_load().max(1) as f64;
        assert!((8.0..25.0).contains(&ratio), "load ratio {ratio}");
    }

    #[test]
    fn figure4_axis_magnitudes() {
        let fig4 = fig4_unprotected();
        let fs = fig4.row(ObjectCategory::Fs);
        // Left axis: the worst category reaches ~3 500 with load.
        assert!(
            (3_100..3_900).contains(&(fs.fatal_with_load as i64)),
            "fs loaded fatalities {}",
            fs.fatal_with_load
        );
        // Right axis: everything fits under ~250 plus sampling noise
        // without load.
        for r in &fig4.rows {
            assert!(r.fatal_without_load <= 320, "{}: {}", r.category, r.fatal_without_load);
        }
    }

    #[test]
    fn sensitive_clusters_are_fs_kernel_net_under_both_loads() {
        let fig4 = fig4_unprotected();
        let loaded = fig4.sensitivity_ranking();
        let mut unloaded = fig4.rows.clone();
        unloaded.sort_by_key(|r| std::cmp::Reverse(r.fatal_without_load));
        let top3_loaded: Vec<&str> = loaded[..3].iter().map(|c| c.label()).collect();
        let top3_unloaded: Vec<&str> =
            unloaded[..3].iter().map(|r| r.category.label()).collect();
        for name in ["fs", "kernel", "net"] {
            assert!(top3_loaded.contains(&name), "{name} missing from loaded top-3");
            assert!(top3_unloaded.contains(&name), "{name} missing from unloaded top-3");
        }
    }

    #[test]
    fn selective_protection_suppresses_protected_categories() {
        let unprotected = fig4_unprotected();
        let protected = SdcCampaign::paper_campaign().run(&ProtectionPolicy::top_categories(3));
        for cat in [ObjectCategory::Fs, ObjectCategory::Kernel, ObjectCategory::Net] {
            let before = unprotected.row(cat).fatal_with_load;
            let after = protected.row(cat).fatal_with_load;
            assert!(
                (after as f64) < 0.15 * before as f64,
                "{cat}: protection left {after} of {before} fatalities"
            );
            assert!(protected.row(cat).recovered_with_load > 0);
        }
        // Unprotected categories are untouched in expectation.
        let before = unprotected.row(ObjectCategory::Drivers).fatal_with_load as f64;
        let after = protected.row(ObjectCategory::Drivers).fatal_with_load as f64;
        assert!((after - before).abs() < 0.25 * before, "drivers moved {before} -> {after}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = SdcCampaign::paper_campaign().run(&ProtectionPolicy::none());
        let b = SdcCampaign::paper_campaign().run(&ProtectionPolicy::none());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one execution")]
    fn zero_executions_panics() {
        let c = SdcCampaign { executions_per_object: 0, ..SdcCampaign::paper_campaign() };
        let _ = c.run(&ProtectionPolicy::none());
    }
}
