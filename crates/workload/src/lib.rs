//! # digest-workload
//!
//! Synthetic reproductions of the paper's two evaluation datasets
//! (Table II). The originals — a JPL/NASA weather-station trace and a
//! SETI@home resource trace — are not publicly available, so this crate
//! generates statistical stand-ins calibrated to everything the Digest
//! algorithms actually consume:
//!
//! * the cross-sectional value dispersion `σ` (drives CLT sample sizes),
//! * the unit-level occasion-to-occasion correlation `ρ` (drives repeated
//!   sampling's gains and the optimal replacement policy),
//! * the smoothness of the aggregate `X[t]` (drives `PRED-k` skip rates),
//! * the churn regime (drives forced sample replacement).
//!
//! [`temperature`] models ~8 000 sensor units on a 530-node mesh over 18
//! months at two updates per day (`ρ ≈ 0.89`, `σ ≈ 8`); [`memory`] models
//! 1 000 computing units on an 820-node power-law overlay over one hour of
//! continuous updates with heavy node churn (`ρ ≈ 0.68`, `σ ≈ 10`).
//! [`calibrate`] measures the realised statistics so Table II can be
//! *verified* rather than assumed. Both worlds draw every normal through
//! [`normal`]'s one ziggurat kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod calibrate;
pub mod memory;
pub mod normal;
pub mod scenario;
pub mod temperature;
pub mod traffic;

pub use calibrate::{measure_table2, Table2Stats};
pub use memory::{MemoryConfig, MemoryWorkload};
pub use scenario::Workload;
pub use temperature::{TemperatureConfig, TemperatureWorkload};
pub use traffic::{
    PrecisionTier, PredicateClass, QuerySpec, TrafficConfig, TrafficEvent, TrafficGenerator,
};
