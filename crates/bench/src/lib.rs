//! Reproduction harness: everything needed to regenerate the paper's
//! tables and figures from the workspace's models.
//!
//! The [`experiments`] module contains one entry point per artefact
//! (Table 1–3, Figure 1–4, the §6.B DRAM study and the §6.D Edge
//! analysis), each returning a printable report whose rows mirror the
//! paper's. The `repro` binary dispatches to them; the Criterion
//! benches exercise the same code paths at reduced sizes.

pub mod cluster;
pub mod experiments;
pub mod render;
