//! Model-specific registers: the software-visible control plane.
//!
//! The paper's undervolting experiments drive Intel's voltage-offset MSRs;
//! its DRAM experiments drive a per-channel refresh-interval control. This
//! module models that register file: bounded, validated writes with the
//! same semantics (offsets are *subtracted* from the nominal VID; refresh
//! intervals are set per memory domain).

use uniserver_units::{Seconds, Volts};

/// Identifier of a DRAM refresh domain (one per channel in the paper's
/// setup, §6.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub usize);

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "domain{}", self.0)
    }
}

/// Error returned for invalid register writes.
#[derive(Debug, Clone, PartialEq)]
pub enum MsrWriteError {
    /// The requested voltage offset exceeds the hardware limit.
    OffsetOutOfRange {
        /// Requested offset in millivolts.
        requested_mv: f64,
        /// Hardware maximum in millivolts.
        limit_mv: f64,
    },
    /// The requested refresh interval lies outside the controller's range.
    RefreshOutOfRange {
        /// Requested interval.
        requested: Seconds,
        /// Controller minimum.
        min: Seconds,
        /// Controller maximum.
        max: Seconds,
    },
    /// The addressed core does not exist.
    NoSuchCore(usize),
    /// The addressed refresh domain does not exist.
    NoSuchDomain(DomainId),
}

impl std::fmt::Display for MsrWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrWriteError::OffsetOutOfRange { requested_mv, limit_mv } => {
                write!(f, "voltage offset {requested_mv} mV exceeds the {limit_mv} mV hardware limit")
            }
            MsrWriteError::RefreshOutOfRange { requested, min, max } => {
                write!(f, "refresh interval {requested} outside controller range [{min}, {max}]")
            }
            MsrWriteError::NoSuchCore(c) => write!(f, "no such core: {c}"),
            MsrWriteError::NoSuchDomain(d) => write!(f, "no such refresh domain: {d}"),
        }
    }
}

impl std::error::Error for MsrWriteError {}

/// The modeled register file.
#[derive(Debug, Clone, PartialEq)]
pub struct MsrFile {
    nominal_voltage: Volts,
    /// Per-core undervolt offsets in millivolts (subtracted from nominal).
    core_offsets_mv: Vec<f64>,
    /// Hardware limit on the offset magnitude.
    offset_limit_mv: f64,
    /// Per-domain refresh intervals.
    refresh: Vec<Seconds>,
    refresh_min: Seconds,
    refresh_max: Seconds,
}

impl MsrFile {
    /// Creates a register file for `cores` cores and `domains` refresh
    /// domains, all at nominal settings.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `domains` is zero.
    #[must_use]
    pub fn new(nominal_voltage: Volts, cores: usize, domains: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(domains > 0, "need at least one refresh domain");
        MsrFile {
            nominal_voltage,
            core_offsets_mv: vec![0.0; cores],
            // Intel's FIVR offset field covers roughly ±250 mV.
            offset_limit_mv: 250.0,
            refresh: vec![Seconds::from_millis(64.0); domains],
            refresh_min: Seconds::from_millis(1.0),
            refresh_max: Seconds::new(10.0),
        }
    }

    /// Number of cores addressed by this register file.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.core_offsets_mv.len()
    }

    /// Number of refresh domains.
    #[must_use]
    pub fn domains(&self) -> usize {
        self.refresh.len()
    }

    /// Hardware limit on the undervolt offset magnitude, in millivolts.
    /// Campaigns must clamp their sweeps to this; writes beyond it fail.
    #[must_use]
    pub fn offset_limit_mv(&self) -> f64 {
        self.offset_limit_mv
    }

    /// Writes an undervolt offset (millivolts below nominal) for a core.
    ///
    /// # Errors
    ///
    /// Returns [`MsrWriteError::NoSuchCore`] or
    /// [`MsrWriteError::OffsetOutOfRange`] on invalid input; negative
    /// offsets (overvolting) are rejected the same way.
    pub fn set_voltage_offset(&mut self, core: usize, offset_mv: f64) -> Result<(), MsrWriteError> {
        if core >= self.core_offsets_mv.len() {
            return Err(MsrWriteError::NoSuchCore(core));
        }
        if !(0.0..=self.offset_limit_mv).contains(&offset_mv) {
            return Err(MsrWriteError::OffsetOutOfRange {
                requested_mv: offset_mv,
                limit_mv: self.offset_limit_mv,
            });
        }
        self.core_offsets_mv[core] = offset_mv;
        Ok(())
    }

    /// Writes the same undervolt offset to every core.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MsrFile::set_voltage_offset`].
    pub fn set_voltage_offset_all(&mut self, offset_mv: f64) -> Result<(), MsrWriteError> {
        for core in 0..self.cores() {
            self.set_voltage_offset(core, offset_mv)?;
        }
        Ok(())
    }

    /// The undervolt offset currently applied to a core, in millivolts.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (reads of unmapped MSRs fault).
    #[must_use]
    pub fn voltage_offset_mv(&self, core: usize) -> f64 {
        self.core_offsets_mv[core]
    }

    /// The effective supply voltage of a core (nominal minus offset).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn effective_voltage(&self, core: usize) -> Volts {
        self.nominal_voltage
            .saturating_sub(Volts::from_millivolts(self.core_offsets_mv[core]))
    }

    /// The nominal voltage the offsets are relative to.
    #[must_use]
    pub fn nominal_voltage(&self) -> Volts {
        self.nominal_voltage
    }

    /// Sets the refresh interval of one memory domain.
    ///
    /// # Errors
    ///
    /// Returns [`MsrWriteError::NoSuchDomain`] or
    /// [`MsrWriteError::RefreshOutOfRange`] on invalid input.
    pub fn set_refresh_interval(
        &mut self,
        domain: DomainId,
        interval: Seconds,
    ) -> Result<(), MsrWriteError> {
        let Some(slot) = self.refresh.get_mut(domain.0) else {
            return Err(MsrWriteError::NoSuchDomain(domain));
        };
        if interval < self.refresh_min || interval > self.refresh_max {
            return Err(MsrWriteError::RefreshOutOfRange {
                requested: interval,
                min: self.refresh_min,
                max: self.refresh_max,
            });
        }
        *slot = interval;
        Ok(())
    }

    /// The refresh interval of one memory domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain does not exist.
    #[must_use]
    pub fn refresh_interval(&self, domain: DomainId) -> Seconds {
        self.refresh[domain.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msr() -> MsrFile {
        MsrFile::new(Volts::new(0.844), 2, 2)
    }

    #[test]
    fn defaults_are_nominal() {
        let m = msr();
        assert_eq!(m.effective_voltage(0), Volts::new(0.844));
        assert_eq!(m.refresh_interval(DomainId(0)), Seconds::from_millis(64.0));
        assert_eq!(m.cores(), 2);
        assert_eq!(m.domains(), 2);
    }

    #[test]
    fn offset_lowers_effective_voltage() {
        let mut m = msr();
        m.set_voltage_offset(1, 84.4).unwrap();
        assert!((m.effective_voltage(1).as_millivolts() - 759.6).abs() < 1e-9);
        // Core 0 is unaffected: per-core domains.
        assert_eq!(m.effective_voltage(0), Volts::new(0.844));
    }

    #[test]
    fn offset_all_hits_every_core() {
        let mut m = msr();
        m.set_voltage_offset_all(50.0).unwrap();
        assert_eq!(m.voltage_offset_mv(0), 50.0);
        assert_eq!(m.voltage_offset_mv(1), 50.0);
    }

    #[test]
    fn excessive_offset_is_rejected() {
        let mut m = msr();
        let err = m.set_voltage_offset(0, 400.0).unwrap_err();
        assert!(matches!(err, MsrWriteError::OffsetOutOfRange { .. }));
        assert_eq!(m.voltage_offset_mv(0), 0.0, "failed writes must not change state");
    }

    #[test]
    fn overvolting_is_rejected() {
        let mut m = msr();
        assert!(m.set_voltage_offset(0, -10.0).is_err());
    }

    #[test]
    fn unknown_core_is_rejected() {
        let mut m = msr();
        assert_eq!(m.set_voltage_offset(7, 10.0), Err(MsrWriteError::NoSuchCore(7)));
    }

    #[test]
    fn refresh_domains_are_independent() {
        let mut m = msr();
        m.set_refresh_interval(DomainId(1), Seconds::new(1.5)).unwrap();
        assert_eq!(m.refresh_interval(DomainId(0)), Seconds::from_millis(64.0));
        assert_eq!(m.refresh_interval(DomainId(1)), Seconds::new(1.5));
    }

    #[test]
    fn refresh_bounds_are_enforced() {
        let mut m = msr();
        assert!(m.set_refresh_interval(DomainId(0), Seconds::new(60.0)).is_err());
        assert!(m.set_refresh_interval(DomainId(0), Seconds::from_micros(10.0)).is_err());
        assert!(m.set_refresh_interval(DomainId(9), Seconds::new(1.0)).is_err());
    }

    #[test]
    fn errors_render_useful_messages() {
        let mut m = msr();
        let e = m.set_voltage_offset(0, 400.0).unwrap_err();
        assert!(e.to_string().contains("exceeds"));
        let e = m.set_refresh_interval(DomainId(0), Seconds::new(60.0)).unwrap_err();
        assert!(e.to_string().contains("outside controller range"));
    }
}
