//! Ground-truth guarantee auditing (paper §II, Eq. 8–11).
//!
//! The fixed-precision contract says each reported estimate satisfies
//! `|X̂[t_u] − X[t_u]| ≤ ε` with probability at least `p`. The auditor
//! turns that from a promise into a measurement: at every reporting
//! occasion it takes the oracle's exact aggregate alongside the engine's
//! estimate, classifies the occasion as an ε-violation or not, and folds
//! the pair into two end-of-run statistics:
//!
//! * the **empirical violation rate**, compared against the promised
//!   `1 − p` plus three-σ binomial sampling slack (the rate over `n`
//!   occasions is itself a binomial estimate);
//! * a **confidence-calibration table**: for a grid of nominal levels
//!   `q`, the fraction of occasions with `|err| ≤ ε · z_q / z_p` — under
//!   the CLT normality assumption the estimator actually relies on, that
//!   observed coverage should track `q` across the whole grid, not just
//!   at the advertised `p`.

use crate::{AuditError, Result};
use digest_stats::z_for_confidence;
use digest_telemetry::Field;
use serde_json::{json, Value};

/// Nominal confidence levels probed by the calibration table.
pub const NOMINAL_LEVELS: [f64; 5] = [0.5, 0.8, 0.9, 0.95, 0.99];

/// Standard deviations of binomial slack granted on top of the promised
/// violation rate before the gate trips.
const BINOMIAL_SLACK_SIGMAS: f64 = 3.0;

/// What the auditor needs to know about the query under audit.
#[derive(Debug, Clone, Copy)]
pub struct AuditorConfig {
    /// Resolution threshold `δ` of the query.
    pub delta: f64,
    /// CI half-width `ε` the engine promised.
    pub epsilon: f64,
    /// Confidence level `p` the engine promised.
    pub confidence: f64,
    /// Index of the query within the run (stamped on events).
    pub query_index: u64,
    /// Whether `ε` is *relative* to the exact value (the `COUNT
    /// DISTINCT` contract of DESIGN.md §17: an occasion violates when
    /// `|err| > ε · max(|exact|, 1)`), rather than the paper's absolute
    /// §II half-width.
    pub relative_epsilon: bool,
}

/// One row of the confidence-calibration table.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationRow {
    /// Nominal coverage level `q`.
    pub nominal: f64,
    /// Half-width `ε · z_q / z_p` probed for this row.
    pub half_width: f64,
    /// Occasions with `|err| ≤ half_width`.
    pub covered: u64,
    /// `covered / occasions` (0 when no occasions ran).
    pub coverage: f64,
}

/// Per-occasion guarantee auditor for one continuous query.
#[derive(Debug)]
pub struct Auditor {
    config: AuditorConfig,
    half_widths: [f64; NOMINAL_LEVELS.len()],
    covered: [u64; NOMINAL_LEVELS.len()],
    occasions: u64,
    violations: u64,
    /// Occasions whose error is a number (not NaN): what the error
    /// summary averages over.
    measured: u64,
    abs_error_sum: f64,
    max_abs_error: f64,
    last_occasion_tick: Option<u64>,
    staleness_sum: u64,
    max_staleness: u64,
}

impl Auditor {
    /// Builds an auditor for a query promising `(δ, ε, p)`.
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] on non-positive `ε` or `p` outside
    /// `(0, 1)`; [`AuditError::Stats`] if a calibration quantile is out
    /// of the normal table's domain (unreachable for the fixed grid).
    pub fn new(config: AuditorConfig) -> Result<Self> {
        if !(config.epsilon.is_finite() && config.epsilon > 0.0) {
            return Err(AuditError::InvalidConfig {
                reason: "epsilon must be positive and finite",
            });
        }
        if !(config.confidence > 0.0 && config.confidence < 1.0) {
            return Err(AuditError::InvalidConfig {
                reason: "confidence must be in (0, 1)",
            });
        }
        let z_p = z_for_confidence(config.confidence)?;
        let mut half_widths = [0.0; NOMINAL_LEVELS.len()];
        for (hw, q) in half_widths.iter_mut().zip(NOMINAL_LEVELS) {
            *hw = config.epsilon * z_for_confidence(q)? / z_p;
        }
        Ok(Self {
            config,
            half_widths,
            covered: [0; NOMINAL_LEVELS.len()],
            occasions: 0,
            violations: 0,
            measured: 0,
            abs_error_sum: 0.0,
            max_abs_error: 0.0,
            last_occasion_tick: None,
            staleness_sum: 0,
            max_staleness: 0,
        })
    }

    /// Folds one reporting occasion into the audit and emits its
    /// `audit.occasion` telemetry event. `panel` is the occasion's sample
    /// count, `messages` its message spend.
    pub fn observe_occasion(
        &mut self,
        tick: u64,
        estimate: f64,
        exact: f64,
        panel: u64,
        messages: u64,
    ) {
        self.observe_occasion_in_round(tick, estimate, exact, panel, messages, None);
    }

    /// Like [`Auditor::observe_occasion`], for occasions served from a
    /// coalesced multi-query sampling round: the round's trace id is
    /// stamped on the `audit.occasion` event as a `round` field, so each
    /// member query of the round gets its *own* occasion event (its own
    /// ε-violation accounting against its own contract) while remaining
    /// causally parented to the shared round that paid for the panel.
    ///
    /// A NaN error (a NaN estimate or truth) is an ε-violation and is
    /// uncovered in every calibration row, but both error summaries leave
    /// it out: `mean_abs_error` averages the occasions whose error is a
    /// number and `max_abs_error` is the largest of those, so both
    /// summarise the same occasions.
    pub fn observe_occasion_in_round(
        &mut self,
        tick: u64,
        estimate: f64,
        exact: f64,
        panel: u64,
        messages: u64,
        round: Option<u64>,
    ) {
        let error = estimate - exact;
        let abs_error = error.abs();
        // Kind-specific ε-semantics (DESIGN.md §17): a relative contract
        // scales the probed half-widths by the occasion's exact value
        // (floored at 1 so an empty relation cannot zero the band).
        let scale = if self.config.relative_epsilon {
            exact.abs().max(1.0)
        } else {
            1.0
        };
        // A NaN error (a NaN estimate against a finite truth) is a miss,
        // as it is for every calibration row below.
        let violation = abs_error > self.config.epsilon * scale || abs_error.is_nan();
        let staleness = tick - self.last_occasion_tick.unwrap_or(tick);
        self.last_occasion_tick = Some(tick);

        self.occasions += 1;
        if violation {
            self.violations += 1;
        }
        if !abs_error.is_nan() {
            self.measured += 1;
            self.abs_error_sum += abs_error;
            self.max_abs_error = self.max_abs_error.max(abs_error);
        }
        self.staleness_sum += staleness;
        self.max_staleness = self.max_staleness.max(staleness);
        for (covered, hw) in self.covered.iter_mut().zip(self.half_widths) {
            if abs_error <= hw * scale {
                *covered += 1;
            }
        }

        if digest_telemetry::events_enabled() {
            let fields = [
                ("estimate", Field::F64(estimate)),
                ("exact", Field::F64(exact)),
                ("error", Field::F64(error)),
                ("violation", Field::Bool(violation)),
                ("staleness", Field::U64(staleness)),
                ("panel", Field::U64(panel)),
                ("messages", Field::U64(messages)),
                ("query", Field::U64(self.config.query_index)),
                ("round", Field::U64(round.unwrap_or(0))),
            ];
            let used = fields.len() - usize::from(round.is_none());
            digest_telemetry::emit("audit.occasion", &fields[..used]);
        }
    }

    /// Occasions folded so far.
    #[must_use]
    pub fn occasions(&self) -> u64 {
        self.occasions
    }

    /// ε-violations observed so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Freezes the audit into a report. The caller supplies the context
    /// the auditor cannot see: the query's display string, tick count,
    /// the digest engine's actual message total, and the ledger's
    /// baseline totals.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn report(
        &self,
        query: String,
        ticks: u64,
        digest_messages: u64,
        all_messages: u64,
        filter_messages: u64,
        resolution_violations: u64,
    ) -> AuditReport {
        let n = self.occasions.max(1) as f64;
        let calibration = NOMINAL_LEVELS
            .iter()
            .zip(self.half_widths)
            .zip(self.covered)
            .map(|((&nominal, half_width), covered)| CalibrationRow {
                nominal,
                half_width,
                covered,
                coverage: if self.occasions == 0 {
                    0.0
                } else {
                    covered as f64 / n
                },
            })
            .collect();
        AuditReport {
            query,
            delta: self.config.delta,
            epsilon: self.config.epsilon,
            relative_epsilon: self.config.relative_epsilon,
            confidence: self.config.confidence,
            occasions: self.occasions,
            violations: self.violations,
            violation_rate: if self.occasions == 0 {
                0.0
            } else {
                self.violations as f64 / n
            },
            mean_abs_error: if self.measured == 0 {
                0.0
            } else {
                self.abs_error_sum / self.measured as f64
            },
            max_abs_error: self.max_abs_error,
            mean_staleness: if self.occasions == 0 {
                0.0
            } else {
                self.staleness_sum as f64 / n
            },
            max_staleness: self.max_staleness,
            calibration,
            ticks,
            resolution_violations,
            digest_messages,
            all_messages,
            filter_messages,
        }
    }
}

/// The end-of-run guarantee report for one query.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Display form of the audited query.
    pub query: String,
    /// Promised resolution `δ`.
    pub delta: f64,
    /// Promised CI half-width `ε`.
    pub epsilon: f64,
    /// Whether `ε` was audited relative to the exact value (DESIGN.md
    /// §17 `COUNT DISTINCT` semantics) or as an absolute §II half-width.
    pub relative_epsilon: bool,
    /// Promised confidence `p`.
    pub confidence: f64,
    /// Reporting occasions audited.
    pub occasions: u64,
    /// Occasions with `|err| > ε`.
    pub violations: u64,
    /// `violations / occasions`.
    pub violation_rate: f64,
    /// Mean `|err|` over the occasions whose error is a number (0 when
    /// none is); a NaN error counts only as a violation.
    pub mean_abs_error: f64,
    /// Max `|err|` over the same occasions.
    pub max_abs_error: f64,
    /// Mean ticks between consecutive occasions.
    pub mean_staleness: f64,
    /// Max ticks between consecutive occasions.
    pub max_staleness: u64,
    /// The confidence-calibration table over [`NOMINAL_LEVELS`].
    pub calibration: Vec<CalibrationRow>,
    /// Ticks the run covered.
    pub ticks: u64,
    /// Ticks on which the *reported* result was off by more than `δ + ε`
    /// (the paper's resolution-violation notion applied pointwise).
    pub resolution_violations: u64,
    /// Messages the digest engine actually spent.
    pub digest_messages: u64,
    /// Messages the `ALL` push baseline would have spent on the same data.
    pub all_messages: u64,
    /// Messages the `ALL+FILTER` baseline (a fixed `±ε` filter per
    /// tuple) would have spent.
    pub filter_messages: u64,
}

impl AuditReport {
    /// The promised violation rate `1 − p`.
    #[must_use]
    pub fn promised_violation_rate(&self) -> f64 {
        1.0 - self.confidence
    }

    /// Three-σ binomial sampling slack for the observed rate over
    /// `occasions` trials: `3 · sqrt(p(1−p)/n)`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn binomial_slack(&self) -> f64 {
        let n = self.occasions.max(1) as f64;
        BINOMIAL_SLACK_SIGMAS * (self.confidence * (1.0 - self.confidence) / n).sqrt()
    }

    /// The gate bound: promised rate plus binomial slack.
    #[must_use]
    pub fn violation_bound(&self) -> f64 {
        self.promised_violation_rate() + self.binomial_slack()
    }

    /// Worst absolute calibration miss: `max_q |coverage(q) − q|`.
    #[must_use]
    pub fn calibration_drift(&self) -> f64 {
        self.calibration
            .iter()
            .map(|row| (row.coverage - row.nominal).abs())
            .fold(0.0, f64::max)
    }

    /// Applies the audit gate: the violation rate must stay within the
    /// binomial bound and the calibration drift within `drift_tolerance`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first failed check.
    pub fn gate(&self, drift_tolerance: f64) -> std::result::Result<(), String> {
        if self.occasions == 0 {
            return Err("audit gate: no reporting occasions observed".to_string());
        }
        if self.violation_rate > self.violation_bound() {
            return Err(format!(
                "audit gate: violation rate {:.4} exceeds promised {:.4} + slack {:.4}",
                self.violation_rate,
                self.promised_violation_rate(),
                self.binomial_slack()
            ));
        }
        let drift = self.calibration_drift();
        if drift > drift_tolerance {
            return Err(format!(
                "audit gate: calibration drift {drift:.4} exceeds tolerance {drift_tolerance:.4}"
            ));
        }
        Ok(())
    }

    /// Renders the report as an aligned human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("guarantee audit — {}\n", self.query));
        out.push_str(&format!(
            "  occasions {:>6}   ticks {:>6}   mean staleness {:.2}   max {}\n",
            self.occasions, self.ticks, self.mean_staleness, self.max_staleness
        ));
        if self.relative_epsilon {
            out.push_str("  ε-semantics: relative (±ε · max(|exact|, 1))\n");
        }
        out.push_str(&format!(
            "  ε-violations {:>3}   rate {:.4}   promised ≤ {:.4}   gate ≤ {:.4}\n",
            self.violations,
            self.violation_rate,
            self.promised_violation_rate(),
            self.violation_bound()
        ));
        out.push_str(&format!(
            "  |error| mean {:.4}   max {:.4}   resolution misses {}/{}\n",
            self.mean_abs_error, self.max_abs_error, self.resolution_violations, self.ticks
        ));
        out.push_str("  calibration (nominal → observed coverage):\n");
        for row in &self.calibration {
            out.push_str(&format!(
                "    {:.2} → {:.4}   (half-width {:.4}, {}/{})\n",
                row.nominal, row.coverage, row.half_width, row.covered, self.occasions
            ));
        }
        out.push_str(&format!(
            "  calibration drift {:.4}\n",
            self.calibration_drift()
        ));
        out.push_str(&format!(
            "  messages: digest {}   ALL {}   ALL+FILTER {}\n",
            self.digest_messages, self.all_messages, self.filter_messages
        ));
        out
    }

    /// Canonical JSON rendering of the report (sorted keys; byte-stable
    /// across replays).
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let calibration: Vec<Value> = self
            .calibration
            .iter()
            .map(|row| {
                json!({
                    "nominal": row.nominal,
                    "half_width": row.half_width,
                    "covered": row.covered,
                    "coverage": row.coverage,
                })
            })
            .collect();
        json!({
            "query": self.query.clone(),
            "delta": self.delta,
            "epsilon": self.epsilon,
            "relative_epsilon": self.relative_epsilon,
            "confidence": self.confidence,
            "occasions": self.occasions,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "promised_violation_rate": self.promised_violation_rate(),
            "binomial_slack": self.binomial_slack(),
            "violation_bound": self.violation_bound(),
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "mean_staleness": self.mean_staleness,
            "max_staleness": self.max_staleness,
            "calibration": Value::Array(calibration),
            "calibration_drift": self.calibration_drift(),
            "ticks": self.ticks,
            "resolution_violations": self.resolution_violations,
            "messages": json!({
                "digest": self.digest_messages,
                "all": self.all_messages,
                "all_filter": self.filter_messages,
            }),
        })
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    fn auditor(epsilon: f64, p: f64) -> Auditor {
        Auditor::new(AuditorConfig {
            delta: 2.0 * epsilon,
            epsilon,
            confidence: p,
            query_index: 0,
            relative_epsilon: false,
        })
        .unwrap()
    }

    #[test]
    fn relative_epsilon_scales_the_violation_band() {
        let mut a = Auditor::new(AuditorConfig {
            delta: 1.0,
            epsilon: 0.1,
            confidence: 0.95,
            query_index: 0,
            relative_epsilon: true,
        })
        .unwrap();
        a.observe_occasion(0, 105.0, 100.0, 8, 10); // |err| 5 ≤ 0.1·100
        a.observe_occasion(1, 120.0, 100.0, 8, 10); // |err| 20 > 0.1·100
        a.observe_occasion(2, 0.05, 0.0, 8, 10); // band floored at ε·1
        assert_eq!(a.violations(), 1);
        let r = a.report("q".to_string(), 3, 30, 0, 0, 0);
        assert!(r.relative_epsilon);
    }

    #[test]
    fn config_is_validated() {
        assert!(Auditor::new(AuditorConfig {
            delta: 1.0,
            epsilon: 0.0,
            confidence: 0.95,
            query_index: 0,
            relative_epsilon: false,
        })
        .is_err());
        assert!(Auditor::new(AuditorConfig {
            delta: 1.0,
            epsilon: 1.0,
            confidence: 1.0,
            query_index: 0,
            relative_epsilon: false,
        })
        .is_err());
    }

    #[test]
    fn violations_are_counted_at_epsilon() {
        let mut a = auditor(2.0, 0.95);
        a.observe_occasion(0, 10.0, 10.5, 8, 100); // |err| 0.5 ≤ ε
        a.observe_occasion(1, 10.0, 13.0, 8, 100); // |err| 3.0 > ε
        a.observe_occasion(2, 10.0, 12.0, 8, 100); // |err| 2.0 = ε (ok)
        assert_eq!(a.occasions(), 3);
        assert_eq!(a.violations(), 1);
        let r = a.report("q".to_string(), 3, 300, 0, 0, 0);
        assert!((r.violation_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_abs_error - (0.5 + 3.0 + 2.0) / 3.0).abs() < 1e-12);
        assert_eq!(r.max_abs_error, 3.0);
    }

    #[test]
    fn staleness_tracks_occasion_gaps() {
        let mut a = auditor(1.0, 0.9);
        a.observe_occasion(5, 1.0, 1.0, 4, 10);
        a.observe_occasion(8, 1.0, 1.0, 4, 10);
        a.observe_occasion(9, 1.0, 1.0, 4, 10);
        let r = a.report("q".to_string(), 10, 30, 0, 0, 0);
        // Gaps: 0 (first), 3, 1.
        assert!((r.mean_staleness - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_staleness, 3);
    }

    #[test]
    fn calibration_half_widths_scale_by_z_ratio() {
        let a = auditor(2.0, 0.95);
        // The p-level row must probe exactly ε.
        let row_p = NOMINAL_LEVELS.iter().position(|&q| q == 0.95).unwrap();
        assert!((a.half_widths[row_p] - 2.0).abs() < 1e-12);
        // Rows are monotone in the nominal level.
        for pair in a.half_widths.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // The 0.5 row probes ε·z(.5)/z(.95) ≈ 2·0.6745/1.95996.
        assert!((a.half_widths[0] - 2.0 * 0.674_49 / 1.959_96).abs() < 1e-3);
    }

    #[test]
    fn perfectly_calibrated_errors_pass_the_gate() {
        let mut a = auditor(1.0, 0.95);
        // 20 occasions, all well inside ε.
        for t in 0..20 {
            a.observe_occasion(t, 5.0, 5.0 + 0.01 * (t as f64 % 3.0), 8, 50);
        }
        let r = a.report("q".to_string(), 20, 1000, 2000, 1500, 0);
        assert_eq!(r.violations, 0);
        // Tiny errors cover every level: drift is max_q (1 − q) = 0.5.
        assert!(r.gate(0.55).is_ok());
        assert!(r.gate(0.4).is_err());
    }

    #[test]
    fn gate_rejects_excess_violations() {
        let mut a = auditor(1.0, 0.95);
        for t in 0..20 {
            // Half the occasions violate ε.
            let exact = if t % 2 == 0 { 5.0 } else { 8.0 };
            a.observe_occasion(t, 5.0, exact, 8, 50);
        }
        let r = a.report("q".to_string(), 20, 1000, 0, 0, 0);
        assert!(r.violation_rate > r.violation_bound());
        assert!(r.gate(1.0).is_err());
    }

    #[test]
    fn empty_audit_fails_the_gate_but_reports_zeros() {
        let a = auditor(1.0, 0.95);
        let r = a.report("q".to_string(), 0, 0, 0, 0, 0);
        assert_eq!(r.violation_rate, 0.0);
        assert_eq!(r.mean_abs_error, 0.0);
        assert!(r.gate(1.0).is_err());
    }

    #[test]
    fn json_report_round_trips_key_fields() {
        let mut a = auditor(2.0, 0.95);
        a.observe_occasion(0, 10.0, 11.0, 8, 100);
        let r = a.report("SELECT AVG(x) FROM R".to_string(), 5, 100, 250, 80, 0);
        let v = r.to_json_value();
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("occasions").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            back.get("messages")
                .and_then(|m| m.get("all"))
                .and_then(|x| x.as_u64()),
            Some(250)
        );
        assert_eq!(
            back.get("calibration")
                .and_then(|c| c.as_array())
                .map(Vec::len),
            Some(NOMINAL_LEVELS.len())
        );
    }
}
