//! The error-resilient hypervisor (paper §4.A).
//!
//! UniServer's KVM-based hypervisor has "additional roles": it sets the
//! node at a just-right V-F-R configuration, transparently masks errors
//! from upper software layers, isolates problematic processing and
//! memory resources, and protects the whole system from catastrophic
//! failures — all while its own footprint stays small enough (<7 % of
//! utilized memory, Figure 3) to live entirely in a *reliable* memory
//! domain refreshed at nominal rate.
//!
//! * [`objects`] — the statically allocated object inventory (16 820
//!   objects across Linux-subsystem categories) whose criticality the
//!   fault-injection study of §6.C / Figure 4 measures;
//! * [`vm`] — virtual machines with LDBC-style footprint dynamics
//!   (Figure 3's drivers);
//! * [`memdomain`] — reliable vs relaxed placement and page retirement;
//! * [`protect`] — selective shadow protection of critical structures
//!   ("educated checking and selective checkpointing"): the policy,
//!   whose modelled 8 B/object overhead the hypervisor charges to its
//!   footprint, and the shadow-and-scrub protector the SDC campaign of
//!   Figure 4 exercises;
//! * [`hypervisor`] — the hypervisor proper: VM lifecycle, error
//!   masking, isolation, the V-F-R governor and availability accounting.
//!
//! # Examples
//!
//! ```
//! use uniserver_hypervisor::hypervisor::Hypervisor;
//! use uniserver_hypervisor::vm::VmConfig;
//! use uniserver_platform::{PartSpec, ServerNode};
//! use uniserver_units::Seconds;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let node = ServerNode::new(PartSpec::arm_microserver(), 42);
//! let mut hv = Hypervisor::new(node);
//! let vm = hv.launch_vm(VmConfig::ldbc_benchmark())?;
//! hv.tick(Seconds::new(1.0));
//! assert!(hv.vm(vm).is_some());
//! # Ok(())
//! # }
//! ```

pub mod hypervisor;
pub mod memdomain;
pub mod objects;
pub mod protect;
pub mod vm;

pub use hypervisor::{Hypervisor, TickOutcome};
pub use objects::{HvObject, ObjectCategory, ObjectInventory};
pub use vm::{Vm, VmConfig, VmId};
