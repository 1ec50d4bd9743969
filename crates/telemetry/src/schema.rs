//! The JSONL trace schema and its validator.
//!
//! Every event kind emitted by the workspace is declared here with its
//! full field list; [`validate_line`] checks one JSONL line strictly —
//! unknown kinds, unknown fields, missing required fields, and
//! type-mismatched values are all errors. `cargo xtask telemetry-schema`
//! runs this validator over a real trace, so the table below *is* the
//! wire format contract documented in the README.
//!
//! Shared envelope (present on every event):
//!
//! * `kind` — string, the schema name;
//! * `tick` — unsigned integer, the simulation tick of emission.

use serde_json::Value;

/// Field value types the schema can require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Non-negative integral number.
    U64,
    /// Any number.
    F64,
    /// Boolean.
    Bool,
    /// String.
    Str,
}

impl FieldType {
    fn matches(self, value: &Value) -> bool {
        match self {
            FieldType::U64 => value.as_u64().is_some(),
            FieldType::F64 => value.as_f64().is_some(),
            FieldType::Bool => value.as_bool().is_some(),
            FieldType::Str => value.as_str().is_some(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FieldType::U64 => "u64",
            FieldType::F64 => "f64",
            FieldType::Bool => "bool",
            FieldType::Str => "string",
        }
    }
}

/// One field slot of an event schema.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// Field name as it appears on the wire.
    pub name: &'static str,
    /// Required value type.
    pub ty: FieldType,
    /// Whether the field may be omitted.
    pub required: bool,
}

const fn req(name: &'static str, ty: FieldType) -> FieldSpec {
    FieldSpec {
        name,
        ty,
        required: true,
    }
}

const fn opt(name: &'static str, ty: FieldType) -> FieldSpec {
    FieldSpec {
        name,
        ty,
        required: false,
    }
}

/// Schema of one event kind.
#[derive(Debug, Clone, Copy)]
pub struct EventSchema {
    /// The `kind` discriminator value.
    pub kind: &'static str,
    /// All fields beyond the `kind`/`tick` envelope.
    pub fields: &'static [FieldSpec],
}

use FieldType::{Bool, Str, F64, U64};

/// Every event kind the workspace emits, with its full field list.
pub const EVENT_SCHEMAS: &[EventSchema] = &[
    // One sampling-operator walk: fresh (burn-in) or continued (reset).
    EventSchema {
        kind: "sampling.walk",
        fields: &[req("fresh", Bool), req("steps", U64), req("hops", U64)],
    },
    // One occasion walk batch run through the deterministic parallel
    // executor (emitted after workers join, alongside the per-slot
    // `sampling.walk` rollups). Deliberately carries no worker count:
    // the stream must be byte-identical for every `workers` setting,
    // and thread count is configuration, not behaviour.
    EventSchema {
        kind: "sampling.batch",
        fields: &[
            req("slots", U64),
            req("fresh", U64),
            req("continued", U64),
            req("messages", U64),
        ],
    },
    // One scheduler next_delay decision. PRED-k adds whether it is still
    // bootstrapping and, once it is not, its prediction bound's parts at
    // the chosen horizon: the fitted `drift`, the `spread` around it, and
    // the fit's residual mean square `noise_var`. ALL omits all four.
    EventSchema {
        kind: "scheduler.decision",
        fields: &[
            req("scheduler", Str),
            req("delay", U64),
            opt("bootstrapping", Bool),
            opt("drift", F64),
            opt("spread", F64),
            opt("noise_var", F64),
        ],
    },
    // One estimator snapshot evaluation (RPT adds the panel split), with
    // its messages by cause: walk hops and sample reports of fresh draws,
    // one request and reply per live peer holding retained tuples, one
    // probe per departed one — and `peers`, the live peers revisited (a
    // count, no part of the sum).
    EventSchema {
        kind: "estimator.snapshot",
        fields: &[
            req("estimator", Str),
            req("estimate", F64),
            req("fresh", U64),
            req("retained", U64),
            req("walk", U64),
            req("report", U64),
            req("revisit", U64),
            req("lost", U64),
            req("peers", U64),
            opt("retained_fraction", F64),
            opt("rho", F64),
        ],
    },
    // One engine on_tick that executed a snapshot query.
    EventSchema {
        kind: "engine.snapshot",
        fields: &[
            req("system", Str),
            req("estimate", F64),
            req("messages", U64),
            req("samples", U64),
        ],
    },
    // Churn applied to the overlay in one tick (only emitted when
    // something actually changed).
    EventSchema {
        kind: "net.churn",
        fields: &[req("joins", U64), req("leaves", U64)],
    },
    // Per-tick rollup from the simulation driver (one per engine per
    // tick; `query` disambiguates multi-query runs).
    EventSchema {
        kind: "tick",
        fields: &[
            req("estimate", F64),
            req("exact", F64),
            req("snapshot", Bool),
            req("samples", U64),
            req("fresh", U64),
            req("messages", U64),
            req("updated", U64),
            opt("query", U64),
        ],
    },
    // Per-replication rollup from the parallel harness (emitted after
    // joins, in seed order).
    EventSchema {
        kind: "replication",
        fields: &[
            req("seed", U64),
            req("ticks", U64),
            req("snapshots", U64),
            req("samples", U64),
            req("messages", U64),
        ],
    },
    // One occasion-snapshot cache resolution (cold build, zero-write
    // reuse, or incremental patch) at the start of a walk batch.
    EventSchema {
        kind: "sampling.snapshot",
        fields: &[req("refresh", Str), req("nodes", U64)],
    },
    // One closed deterministic-clock pipeline span (`dur` in simulation
    // ticks). Only emitted when span events are enabled (trace export);
    // a walk batch's spans are emitted post-join in slot order so the
    // stream is identical for every worker count.
    EventSchema {
        kind: "span",
        fields: &[req("stage", Str), req("dur", U64)],
    },
    // One audited reporting occasion: the ground-truth oracle's exact
    // aggregate next to the reported estimate, with the ε-violation
    // verdict, staleness since the previous occasion, panel size, and
    // message spend. `query` disambiguates multi-query runs; `round` is
    // the trace id of the coalesced multi-query sampling round that
    // served this occasion (mux runs only).
    EventSchema {
        kind: "audit.occasion",
        fields: &[
            req("estimate", F64),
            req("exact", F64),
            req("error", F64),
            req("violation", Bool),
            req("staleness", U64),
            req("panel", U64),
            req("messages", U64),
            opt("query", U64),
            opt("round", U64),
        ],
    },
    // One coalesced multi-query sampling round executed by the query
    // multiplexer: how many member queries consumed the shared panel, how
    // many of them were at their deadline (the rest rode along), the panel
    // size read (revisited + fresh) and its fresh part (so `panel − fresh`
    // entries were revisited), and the round's total message spend,
    // then that spend by cause — `estimator.snapshot`'s four plus the
    // relation-size refresh — summing to `messages`, and the live peers
    // the revisit exchanged with.
    // The event's `trace` envelope is the round id that member
    // `audit.occasion` events reference via their `round` field.
    EventSchema {
        kind: "mux.round",
        fields: &[
            req("members", U64),
            req("due", U64),
            req("panel", U64),
            req("fresh", U64),
            req("messages", U64),
            req("walk", U64),
            req("report", U64),
            req("revisit", U64),
            req("lost", U64),
            req("size", U64),
            req("peers", U64),
        ],
    },
];

/// Looks up the schema for a kind.
#[must_use]
pub fn schema_for(kind: &str) -> Option<&'static EventSchema> {
    EVENT_SCHEMAS.iter().find(|s| s.kind == kind)
}

/// Validates one JSONL trace line strictly.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found:
/// parse failure, non-object line, missing/mistyped envelope, unknown
/// `kind`, missing required field, unknown field, or type mismatch.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = serde_json::from_str(line).map_err(|_| format!("not valid JSON: {line}"))?;
    let object = value
        .as_object()
        .ok_or_else(|| format!("not a JSON object: {line}"))?;

    let kind = object
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string `kind`: {line}"))?;
    if object.get("tick").and_then(Value::as_u64).is_none() {
        return Err(format!("missing u64 `tick`: {line}"));
    }
    // The optional `trace` envelope field (causal occasion id) may appear
    // on any kind; 0 is never serialised (it means "no trace").
    if let Some(trace) = object.get("trace") {
        if trace.as_u64().is_none() {
            return Err(format!("envelope field `trace` is not u64: {line}"));
        }
    }

    let schema = schema_for(kind).ok_or_else(|| format!("unknown event kind `{kind}`"))?;

    for spec in schema.fields {
        match object.get(spec.name) {
            Some(value) if spec.ty.matches(value) => {}
            Some(_) => {
                return Err(format!(
                    "`{kind}` field `{}` is not {}: {line}",
                    spec.name,
                    spec.ty.name()
                ));
            }
            None if spec.required => {
                return Err(format!("`{kind}` missing required field `{}`", spec.name));
            }
            None => {}
        }
    }

    for (key, _) in object.iter() {
        let envelope = key == "kind" || key == "tick" || key == "trace";
        if !envelope && !schema.fields.iter().any(|spec| spec.name == key) {
            return Err(format!("`{kind}` has unknown field `{key}`"));
        }
    }

    Ok(())
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
    use crate::event::{render_json_line, Field};

    #[test]
    fn kinds_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for schema in EVENT_SCHEMAS {
            assert!(seen.insert(schema.kind), "{} duplicated", schema.kind);
        }
    }

    #[test]
    fn rendered_events_validate() {
        let line = render_json_line(
            "sampling.walk",
            4,
            &[
                ("fresh", Field::Bool(true)),
                ("steps", Field::U64(50)),
                ("hops", Field::U64(31)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));

        let line = render_json_line(
            "scheduler.decision",
            9,
            &[
                ("scheduler", Field::Str("pred3")),
                ("delay", Field::U64(7)),
                ("bootstrapping", Field::Bool(false)),
                ("drift", Field::F64(-1.5)),
                ("spread", Field::F64(4.25)),
                ("noise_var", Field::F64(1.04)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));
    }

    #[test]
    fn a_decision_carries_the_bound_not_a_derivative_bound() {
        let valid = r#"{"bootstrapping":false,"delay":7,"drift":-1.5,"kind":"scheduler.decision","noise_var":1.04,"scheduler":"PRED3","spread":4.25,"tick":9}"#;
        assert_eq!(validate_line(valid), Ok(()));
        // The remainder heuristic's field is gone from the wire format.
        let old = valid.replace("\"drift\":-1.5", "\"derivative_bound\":0.25");
        assert!(validate_line(&old).is_err());
        // Each part of the bound is a number.
        for part in ["drift", "spread", "noise_var"] {
            let quoted =
                valid.replace(&format!("\"{part}\":"), &format!("\"{part}\":\"x\",\"y\":"));
            assert!(validate_line(&quoted).is_err(), "{part}");
        }
    }

    #[test]
    fn optional_fields_may_be_omitted() {
        let line = render_json_line(
            "scheduler.decision",
            0,
            &[("scheduler", Field::Str("all")), ("delay", Field::U64(1))],
        );
        assert_eq!(validate_line(&line), Ok(()));
    }

    #[test]
    fn audit_and_trace_kinds_validate() {
        let line = render_json_line(
            "audit.occasion",
            12,
            &[
                ("estimate", Field::F64(50.2)),
                ("exact", Field::F64(50.0)),
                ("error", Field::F64(0.2)),
                ("violation", Field::Bool(false)),
                ("staleness", Field::U64(3)),
                ("panel", Field::U64(128)),
                ("messages", Field::U64(4096)),
                ("query", Field::U64(0)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));

        let line = render_json_line(
            "span",
            4,
            &[
                ("stage", Field::Str("sampling_walk")),
                ("dur", Field::U64(0)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));

        let line = render_json_line(
            "sampling.snapshot",
            9,
            &[
                ("refresh", Field::Str("patched")),
                ("nodes", Field::U64(1500)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));
    }

    #[test]
    fn mux_round_kind_validates() {
        let line = render_json_line(
            "mux.round",
            17,
            &[
                ("members", Field::U64(5)),
                ("due", Field::U64(2)),
                ("panel", Field::U64(256)),
                ("fresh", Field::U64(100)),
                ("messages", Field::U64(9000)),
                ("walk", Field::U64(6000)),
                ("report", Field::U64(2000)),
                ("revisit", Field::U64(600)),
                ("lost", Field::U64(4)),
                ("size", Field::U64(396)),
                ("peers", Field::U64(300)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));
        // A member occasion referencing its round validates too.
        let line = render_json_line(
            "audit.occasion",
            17,
            &[
                ("estimate", Field::F64(50.2)),
                ("exact", Field::F64(50.0)),
                ("error", Field::F64(0.2)),
                ("violation", Field::Bool(false)),
                ("staleness", Field::U64(3)),
                ("panel", Field::U64(256)),
                ("messages", Field::U64(1800)),
                ("query", Field::U64(3)),
                ("round", Field::U64(41)),
            ],
        );
        assert_eq!(validate_line(&line), Ok(()));
    }

    #[test]
    fn rejects_malformed_mux_round_events() {
        let valid = r#"{"due":1,"fresh":3,"kind":"mux.round","lost":0,"members":3,"messages":10,"panel":8,"peers":2,"report":2,"revisit":4,"size":0,"tick":0,"walk":4}"#;
        assert_eq!(validate_line(valid), Ok(()));
        // Missing required field (`panel`, its `fresh` part, a cause of the
        // split, or the peers the revisit priced).
        for missing in [
            "\"panel\":8,",
            "\"fresh\":3,",
            "\"revisit\":4,",
            "\"peers\":2,",
        ] {
            assert!(
                validate_line(&valid.replace(missing, "")).is_err(),
                "{missing}"
            );
        }
        // Type mismatch (`members` must be u64).
        assert!(validate_line(&valid.replace("\"members\":3", "\"members\":\"x\"")).is_err());
        // `round` on audit.occasion must be u64.
        assert!(validate_line(
            r#"{"error":0.1,"estimate":1.0,"exact":0.9,"kind":"audit.occasion","messages":1,"panel":2,"round":-3,"staleness":0,"tick":0,"violation":false}"#
        )
        .is_err());
    }

    #[test]
    fn trace_envelope_is_accepted_on_every_kind() {
        let line = r#"{"dur":0,"kind":"span","stage":"engine_tick","tick":3,"trace":7}"#;
        assert_eq!(validate_line(line), Ok(()));
        let line = r#"{"joins":1,"kind":"net.churn","leaves":0,"tick":0,"trace":2}"#;
        assert_eq!(validate_line(line), Ok(()));
        // Mistyped trace envelope is rejected.
        let line = r#"{"joins":1,"kind":"net.churn","leaves":0,"tick":0,"trace":"x"}"#;
        assert!(validate_line(line).is_err());
    }

    #[test]
    fn rejects_malformed_audit_events() {
        // Missing required field (`exact`).
        assert!(validate_line(
            r#"{"error":0.1,"estimate":1.0,"kind":"audit.occasion","messages":1,"panel":2,"staleness":0,"tick":0,"violation":false}"#
        )
        .is_err());
        // Type mismatch (`violation` must be bool).
        assert!(validate_line(
            r#"{"error":0.1,"estimate":1.0,"exact":0.9,"kind":"audit.occasion","messages":1,"panel":2,"staleness":0,"tick":0,"violation":1}"#
        )
        .is_err());
        // Unknown field.
        assert!(validate_line(
            r#"{"dur":0,"extra":1,"kind":"span","stage":"engine_tick","tick":0}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[1,2]").is_err());
        assert!(validate_line(r#"{"tick":0}"#).is_err());
        assert!(validate_line(r#"{"kind":"tick"}"#).is_err());
        assert!(validate_line(r#"{"kind":"nope","tick":0}"#).is_err());
        // Missing required field.
        assert!(validate_line(r#"{"kind":"net.churn","tick":0,"joins":1}"#).is_err());
        // Unknown field.
        assert!(
            validate_line(r#"{"joins":1,"kind":"net.churn","leaves":0,"tick":0,"x":1}"#).is_err()
        );
        // Type mismatch.
        assert!(validate_line(r#"{"joins":true,"kind":"net.churn","leaves":0,"tick":0}"#).is_err());
        // Negative tick.
        assert!(validate_line(r#"{"joins":1,"kind":"net.churn","leaves":0,"tick":-1}"#).is_err());
    }
}
