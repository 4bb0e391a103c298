//! Total-cost-of-ownership tool (paper §2.vii, §6.D, Table 3; after
//! Hardy et al.'s analytical TCO framework \[31\]).
//!
//! * [`factors`] — the energy-efficiency improvement stack of Table 3
//!   (scaling × software maturity × fog × margins = 36×) and the 1.15×
//!   energy-only TCO improvement;
//! * [`model`] — the capex/opex TCO model itself;
//! * [`yield_model`] — chip-cost effects of reclaiming binned-out parts
//!   ("the actual TCO improvement will be even more because of lower
//!   chip cost due to higher yield");
//! * [`explore`] — design-space sweeps over deployment parameters.
//!
//! # Examples
//!
//! ```
//! use uniserver_tco::factors::EeFactors;
//!
//! let table3 = EeFactors::table3();
//! assert_eq!(table3.overall(), 36.0);
//! ```

pub mod explore;
pub mod factors;
pub mod model;
pub mod yield_model;

pub use factors::EeFactors;
pub use model::{TcoBreakdown, TcoParams};
