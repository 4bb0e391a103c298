//! Characterize a fleet of 16 micro-servers and see the paper's core
//! premise in numbers: "each manufactured processor and each memory
//! module is inherently different and lies on a distinct performance
//! bin" (Figure 1) — so a *per-node* EOP beats any fleet-wide setting.
//!
//! ```text
//! cargo run --release --example fleet_characterization
//! ```

use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;

fn main() {
    let spec = PartSpec::arm_microserver();

    println!("characterizing a fleet of 16 '{}' nodes:\n", spec.name);
    println!("node | safe undervolt (node-wide, mV) | safe refresh");
    println!("-----+-------------------------------+-------------");

    let mut offsets = Vec::new();
    for i in 0..16u64 {
        let mut node = ServerNode::new(spec.clone(), 1000 + i);
        let margins = uniserver_stresslog::characterize(&mut node);
        let off = margins.node_safe_offset_mv();
        println!(
            "  {i:>2} | {off:>29.0} | {}",
            margins.safe_refresh
        );
        offsets.push(off);
    }

    let min = offsets.iter().cloned().fold(f64::MAX, f64::min);
    let max = offsets.iter().cloned().fold(f64::MIN, f64::max);
    let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;

    println!("\nfleet spread: {min:.0}..{max:.0} mV (mean {mean:.0} mV)");
    println!("a fleet-wide setting must use the weakest node's {min:.0} mV;");
    let nominal_mv = spec.nominal_voltage.as_millivolts();
    println!(
        "per-node EOPs reclaim {:.0} mV more on average — {:.1} % of nominal voltage —",
        mean - min,
        (mean - min) / nominal_mv * 100.0
    );
    println!("which is exactly the headroom binning throws away in Figure 1.");

    assert!(max - min > 20.0, "manufactured spread should exceed 20 mV");
}
