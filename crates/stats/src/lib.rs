//! # digest-stats
//!
//! Statistical substrate for the Digest query-answering system.
//!
//! This crate implements, from scratch, every piece of numerical machinery
//! the two tiers of Digest rely on:
//!
//! * [`moments`] — numerically stable running moments (Welford) and paired
//!   moments (covariance / correlation) for streaming data.
//! * [`normal`] — the standard normal distribution: `Φ`, `φ`, and a
//!   high-accuracy inverse CDF used to turn a confidence level `p` into a
//!   quantile `z_p`.
//! * [`clt`] — central-limit-theorem sample sizing: how many i.i.d. samples
//!   are needed so that the sample mean lands within `±ε` of the population
//!   mean with probability `p` (paper Eq. 6).
//! * [`linalg`] — small dense matrices (products, power-iteration spectral
//!   radius) for explicit transition matrices in the mixing diagnostics.
//! * [`taylor`] — polynomial extrapolation with a prediction bound:
//!   predicts the earliest time the running aggregate can have drifted by
//!   the resolution threshold `δ` (paper §IV-A, Eqs. 1–4) from a
//!   least-squares fit over the recent snapshots, whose bound carries the
//!   snapshots' own variance `(ε / z_p)²` (one on-stack QR per decision).
//! * [`quantile`] — the interpolated sample quantile the exact oracle
//!   and TAG finalise `PERCENTILE` / `MEDIAN` with.
//! * [`repeated`] — the repeated-sampling estimator algebra of paper
//!   §IV-B2: optimal panel partitioning `g_opt`, the combined
//!   regression+mean estimator, and its variance (Eqs. 7–11).
//! * [`tvd`] — discrete probability distributions and total-variation
//!   distance, used to certify the mixing of the MCMC sampling operator.
//!
//! All algorithms are deterministic and allocation-conscious; no external
//! numerical crates are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod clt;
pub mod error;

/// Converts a non-negative finite `f64` to `usize`, saturating at the
/// type bounds. The single place sample-size arithmetic (always small,
/// always non-negative) is allowed to leave floating point.
#[must_use]
pub(crate) fn f64_to_usize_saturating(x: f64) -> usize {
    if x.is_nan() || x < 0.0 {
        return 0;
    }
    if x >= usize::MAX as f64 {
        return usize::MAX;
    }
    // In-range by the guards above.
    #[allow(clippy::cast_possible_truncation)]
    let out = x as usize;
    out
}
pub mod linalg;
pub mod moments;
pub mod normal;
pub mod quantile;
pub mod repeated;
pub mod taylor;
pub mod tvd;

pub use clt::{required_sample_size, required_sample_size_for_variance};
pub use error::StatsError;
pub use linalg::Matrix;
pub use moments::{PairedMoments, RunningMoments};
pub use normal::{inverse_phi, phi, phi_pdf, z_for_confidence};
pub use quantile::sample_quantile;
pub use repeated::{combined_estimate, optimal_partition, CombinedEstimate, PanelPartition};
pub use taylor::{Bound, Extrapolator, ExtrapolatorConfig, Prediction};
pub use tvd::{total_variation_distance, DiscreteDistribution};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
