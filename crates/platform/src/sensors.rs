//! On-board sensors: temperature, voltage and power telemetry.
//!
//! The paper's HealthLog information vectors include "sensor readings"
//! (§3.C); this module produces them on demand. An interval only steps
//! the node's RNG past its sweep (`SensorBlock::skip`); the
//! Predictor's training harness, which reads the temperature feature,
//! replays the sweep through `ServerNode::last_sensors`. Real sensors
//! quantize and jitter, so readings carry configurable noise around the
//! modeled truth — which is exactly what makes the Predictor's job
//! non-trivial.

use rand::Rng;
use uniserver_units::{Celsius, Volts, Watts};

use uniserver_silicon::rng::{normal, skip_normal};

/// A single point-in-time sensor sweep of the node.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSnapshot {
    /// Per-core junction temperatures.
    pub core_temps: Vec<Celsius>,
    /// Package power draw.
    pub package_power: Watts,
    /// Measured (post-droop) supply voltage per core.
    pub core_voltages: Vec<Volts>,
    /// DIMM temperature.
    pub dimm_temp: Celsius,
}

impl SensorSnapshot {
    /// The hottest core temperature in the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has no cores.
    #[must_use]
    pub fn max_core_temp(&self) -> Celsius {
        assert!(!self.core_temps.is_empty(), "snapshot must contain cores");
        self.core_temps
            .iter()
            .copied()
            .fold(Celsius::MIN, |a, b| if b > a { b } else { a })
    }
}

/// The sensor block: thermal model plus measurement noise.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SensorBlock {
    /// Ambient (inlet) temperature.
    pub ambient: Celsius,
    /// Junction heat-up per watt of core power (°C/W).
    pub thermal_resistance: f64,
    /// DIMM heat-up per watt of package power (°C/W).
    pub dimm_coupling: f64,
    /// Temperature sensor noise sigma in °C.
    pub temp_noise: f64,
    /// Voltage sensor noise sigma in millivolts.
    pub volt_noise_mv: f64,
    /// Power meter relative noise (fraction).
    pub power_noise_rel: f64,
}

impl SensorBlock {
    /// Sensors for a machine in an air-conditioned server room (the
    /// paper's DRAM testbed environment).
    #[must_use]
    pub(crate) fn server_room() -> Self {
        SensorBlock {
            ambient: Celsius::new(22.0),
            thermal_resistance: 0.9,
            dimm_coupling: 0.35,
            temp_noise: 0.5,
            volt_noise_mv: 2.0,
            power_noise_rel: 0.02,
        }
    }

    /// True (noise-free) junction temperature for a core dissipating
    /// `core_power`.
    #[must_use]
    pub(crate) fn true_core_temp(&self, core_power: Watts) -> Celsius {
        self.ambient + Celsius::new(self.thermal_resistance * core_power.as_watts())
    }

    /// True DIMM temperature given the package power.
    #[must_use]
    pub(crate) fn true_dimm_temp(&self, package_power: Watts) -> Celsius {
        self.ambient + Celsius::new(self.dimm_coupling * package_power.as_watts())
    }

    /// Takes a noisy sensor sweep.
    ///
    /// `core_powers` and `core_voltages` are the modeled truths; the
    /// returned snapshot contains what the sensors *report*.
    ///
    /// # Panics
    ///
    /// Panics if `core_powers` and `core_voltages` differ in length or
    /// are empty.
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        core_powers: &[Watts],
        core_voltages: &[Volts],
        rng: &mut R,
    ) -> SensorSnapshot {
        assert_eq!(core_powers.len(), core_voltages.len(), "power/voltage lists must align");
        assert!(!core_powers.is_empty(), "need at least one core");

        let package_true: f64 = core_powers.iter().map(|p| p.as_watts()).sum();
        let core_temps = core_powers
            .iter()
            .map(|p| {
                let t = self.true_core_temp(*p);
                Celsius::new(normal(rng, t.as_celsius(), self.temp_noise))
            })
            .collect();
        let core_voltages = core_voltages
            .iter()
            .map(|v| {
                let mv = normal(rng, v.as_millivolts(), self.volt_noise_mv);
                Volts::from_millivolts(mv.max(0.0))
            })
            .collect();
        let package_power =
            Watts::new(normal(rng, package_true, package_true * self.power_noise_rel).max(0.0));
        let dimm_temp = {
            let t = self.true_dimm_temp(Watts::new(package_true));
            Celsius::new(normal(rng, t.as_celsius(), self.temp_noise))
        };
        SensorSnapshot { core_temps, package_power, core_voltages, dimm_temp }
    }

    /// Advances `rng` exactly as [`SensorBlock::sample`] would over
    /// `cores` cores whose powers sum to `core_power`, draw for draw,
    /// without producing readings.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub(crate) fn skip<R: Rng + ?Sized>(&self, cores: usize, core_power: Watts, rng: &mut R) {
        assert!(cores > 0, "need at least one core");

        for _ in 0..cores {
            skip_normal(rng, self.temp_noise);
        }
        for _ in 0..cores {
            skip_normal(rng, self.volt_noise_mv);
        }
        skip_normal(rng, core_power.as_watts() * self.power_noise_rel);
        skip_normal(rng, self.temp_noise);
    }
}

impl Default for SensorBlock {
    fn default() -> Self {
        SensorBlock::server_room()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    #[test]
    fn hotter_cores_read_hotter() {
        let s = SensorBlock::server_room();
        let cold = s.true_core_temp(Watts::new(2.0));
        let hot = s.true_core_temp(Watts::new(25.0));
        assert!(hot.as_celsius() > cold.as_celsius() + 15.0);
    }

    #[test]
    fn snapshot_structure_matches_inputs() {
        let s = SensorBlock::server_room();
        let snap = s.sample(
            &[Watts::new(10.0), Watts::new(12.0)],
            &[Volts::new(0.84), Volts::new(0.84)],
            &mut rng(),
        );
        assert_eq!(snap.core_temps.len(), 2);
        assert_eq!(snap.core_voltages.len(), 2);
        assert!(snap.package_power.as_watts() > 15.0);
    }

    #[test]
    fn noise_averages_out() {
        let s = SensorBlock::server_room();
        let mut r = rng();
        let n = 3_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let snap = s.sample(&[Watts::new(10.0)], &[Volts::new(0.80)], &mut r);
            sum += snap.core_voltages[0].as_millivolts();
        }
        let mean = sum / n as f64;
        assert!((mean - 800.0).abs() < 0.5, "mean voltage reading {mean}");
    }

    #[test]
    fn max_core_temp_finds_hottest() {
        let snap = SensorSnapshot {
            core_temps: vec![Celsius::new(50.0), Celsius::new(72.0), Celsius::new(61.0)],
            package_power: Watts::new(40.0),
            core_voltages: vec![Volts::new(1.0); 3],
            dimm_temp: Celsius::new(40.0),
        };
        assert_eq!(snap.max_core_temp(), Celsius::new(72.0));
    }

    #[test]
    fn edge_deployment_is_hotter() {
        let dc = SensorBlock::server_room();
        let edge = SensorBlock { ambient: Celsius::new(32.0), ..SensorBlock::server_room() };
        assert!(edge.ambient > dc.ambient);
        assert!(edge.true_dimm_temp(Watts::new(30.0)) > dc.true_dimm_temp(Watts::new(30.0)));
    }

    #[test]
    fn skip_mirrors_sample_draw_for_draw() {
        let volts = [Volts::new(0.84), Volts::new(0.83)];
        let quiet = SensorBlock { temp_noise: 0.0, power_noise_rel: 0.0, ..SensorBlock::server_room() };
        for s in [SensorBlock::server_room(), quiet] {
            // An idle package has zero power noise, hence no power draw.
            for powers in [[Watts::new(10.0), Watts::new(12.0)], [Watts::ZERO; 2]] {
                let mut sampled = rng();
                let mut skipped = rng();
                let _ = s.sample(&powers, &volts, &mut sampled);
                s.skip(powers.len(), powers.iter().fold(Watts::ZERO, |a, p| a + *p), &mut skipped);
                assert_eq!(sampled, skipped);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_inputs_panic() {
        let s = SensorBlock::server_room();
        let _ = s.sample(&[Watts::new(1.0)], &[], &mut rng());
    }
}
