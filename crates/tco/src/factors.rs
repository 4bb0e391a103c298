//! The Table 3 energy-efficiency factor stack.
//!
//! The paper's sources of improvement for 2019-era UniServer over an
//! ARM-based server platform: "(i) technology scaling and leakage
//! reduction due to finfet adoption, (ii) software maturity for ARM
//! based servers, (iii) improved efficiency from running in the Edge,
//! and (iv) operating at EOP using the UniServer approach."
//!
//! Extraction note (see `DESIGN.md`): the PDF's table row reads
//! `1.15 | 4 | 2 | 3 | 1.5 | 36`. The body text fixes two anchors — the
//! energy-only TCO improvement is **1.15×** and the overall EE product
//! is **36×** (= 4 × 2 × 3 × 1.5) — so 1.15 is the TCO column and the
//! four EE factors are {4, 2, 3, 1.5} with `margins = 1.5` (the EOP
//! factor, consistent with reclaiming the Table 1 guard-bands). The
//! assignment between `sw_maturity` and `fog` of {2, 3} is ambiguous in
//! the extraction; the product — the table's headline — is invariant.

/// The four multiplicative energy-efficiency factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EeFactors {
    /// Technology scaling + FinFET leakage reduction.
    pub scaling: f64,
    /// ARM server software maturity.
    pub sw_maturity: f64,
    /// Running at the Edge ("fog").
    pub fog: f64,
    /// Operating at EOP — the UniServer margin reclamation.
    pub margins: f64,
}

impl EeFactors {
    /// Table 3's factors under the primary reading.
    #[must_use]
    pub fn table3() -> Self {
        EeFactors { scaling: 4.0, sw_maturity: 2.0, fog: 3.0, margins: 1.5 }
    }

    /// Overall energy-efficiency improvement (the product).
    #[must_use]
    pub fn overall(self) -> f64 {
        self.scaling * self.sw_maturity * self.fog * self.margins
    }
}

/// The paper's quoted energy-only TCO improvement.
pub const PAPER_TCO_IMPROVEMENT: f64 = 1.15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_is_36x() {
        assert_eq!(EeFactors::table3().overall(), 36.0);
    }

    #[test]
    fn uniserver_contributes_its_margin_factor() {
        let with = EeFactors::table3();
        let without = EeFactors { margins: 1.0, ..with };
        assert_eq!(with.overall() / without.overall(), 1.5);
    }
}
