//! Structured events and sinks.
//!
//! An event is a `kind` (a `&'static str` naming its schema, see
//! [`crate::schema`]), the current simulation tick, and a small slice of
//! typed key/value fields. Emission goes through a process-wide sink
//! installed with [`crate::install_sink`]; when no sink is installed the
//! emit path is a single relaxed atomic load and an early return, so
//! instrumented library code pays near-zero cost by default.
//!
//! Events carry **no wall-clock values** in any mode — every field is a
//! pure function of the (seeded) simulation state — which is what makes
//! same-seed runs produce byte-identical JSONL streams and lets
//! `cargo xtask determinism` run with telemetry enabled.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// One typed event field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'a> {
    /// An unsigned integer (counts, ticks, sizes).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (estimates, fractions, bounds).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A short string label (system/scheduler names).
    Str(&'a str),
}

impl Field<'_> {
    /// Appends the field's JSON scalar. Every number goes through `f64`
    /// and the vendored serialiser's own writer, so integers and floats
    /// render exactly as a `serde_json::Value::Number` would.
    fn write_json(self, out: &mut String) {
        match self {
            Field::U64(v) => serde_json::write_number(out, v as f64),
            Field::I64(v) => serde_json::write_number(out, v as f64),
            Field::F64(v) => serde_json::write_number(out, v),
            Field::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            Field::Str(v) => serde_json::write_escaped(out, v),
        }
    }
}

/// One `(key, value)` pair of an event.
type Entry<'a> = (&'static str, Field<'a>);

/// Entries a [`FieldBuf`] holds on the stack: the widest schema
/// (`estimator.snapshot`, 11 fields) plus the `kind` / `tick` / `trace`
/// envelope, with headroom.
const INLINE_FIELDS: usize = 16;

/// An event's entries, gathered without touching the heap: up to
/// [`INLINE_FIELDS`] live in a stack array, a longer list (no in-tree
/// caller has one) moves to a `Vec`.
pub(crate) struct FieldBuf<'a> {
    inline: [Entry<'a>; INLINE_FIELDS],
    len: usize,
    spill: Vec<Entry<'a>>,
}

impl<'a> FieldBuf<'a> {
    pub(crate) fn new() -> Self {
        Self {
            inline: [("", Field::Bool(false)); INLINE_FIELDS],
            len: 0,
            spill: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, entry: Entry<'a>) {
        if self.spill.is_empty() {
            if let Some(slot) = self.inline.get_mut(self.len) {
                *slot = entry;
                self.len += 1;
                return;
            }
            self.spill.extend_from_slice(&self.inline);
        }
        self.spill.push(entry);
    }

    pub(crate) fn extend(&mut self, entries: &[Entry<'a>]) {
        for &entry in entries {
            self.push(entry);
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [Entry<'a>] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// Where emitted events go.
///
/// Implementations must be internally synchronised (`emit` takes `&self`)
/// and must not panic: telemetry is an observer, never a failure source.
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    fn emit(&self, kind: &'static str, tick: u64, fields: &[(&'static str, Field<'_>)]);

    /// Flushes any buffering (end of run).
    fn flush(&self);
}

/// Renders an event as one canonical JSON line (no trailing newline).
///
/// Keys serialise in sorted order and a repeated key keeps its last
/// value — what inserting `kind`, `tick` and then the fields into the
/// vendored `serde_json` object (a `BTreeMap`) and serialising it yields,
/// byte for byte — so the rendering of a given event is a pure function
/// of its fields: the byte-level determinism the JSONL trace format
/// relies on. The line is written straight into one `String`; nothing
/// else is allocated.
#[must_use]
pub fn render_json_line(
    kind: &'static str,
    tick: u64,
    fields: &[(&'static str, Field<'_>)],
) -> String {
    let mut entries = FieldBuf::new();
    entries.push(("kind", Field::Str(kind)));
    entries.push(("tick", Field::U64(tick)));
    entries.extend(fields);
    let entries = entries.as_mut_slice();
    // Stable: equal keys stay in call order, the last one wins below.
    entries.sort_by_key(|&(key, _)| key);

    let mut line = String::with_capacity(24 * entries.len());
    line.push('{');
    for (i, &(key, field)) in entries.iter().enumerate() {
        if entries.get(i + 1).is_some_and(|&(next, _)| next == key) {
            continue;
        }
        // Not the first entry after the opening brace.
        if line.len() > 1 {
            line.push(',');
        }
        serde_json::write_escaped(&mut line, key);
        line.push(':');
        field.write_json(&mut line);
    }
    line.push('}');
    line
}

/// A sink that appends one JSON line per event to an `io::Write` stream
/// (typically a buffered file — see [`JsonlSink::create`]).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, kind: &'static str, tick: u64, fields: &[(&'static str, Field<'_>)]) {
        let line = render_json_line(kind, tick, fields);
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Telemetry IO failures are swallowed by design: losing trace
        // lines must never abort a simulation.
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.flush();
    }
}

/// Forwards every event to two child sinks — e.g. a [`JsonlSink`]
/// writing the `--telemetry` stream and a [`MemorySink`] collecting
/// lines for `--trace-out` export. Adds no synchronisation of its own;
/// each child serialises internally.
#[derive(Debug)]
pub struct TeeSink<A: EventSink, B: EventSink> {
    first: A,
    second: B,
}

impl<A: EventSink, B: EventSink> TeeSink<A, B> {
    /// Pairs two sinks.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    fn emit(&self, kind: &'static str, tick: u64, fields: &[(&'static str, Field<'_>)]) {
        self.first.emit(kind, tick, fields);
        self.second.emit(kind, tick, fields);
    }

    fn flush(&self) {
        self.first.flush();
        self.second.flush();
    }
}

/// An in-memory sink for tests: collects rendered JSON lines.
///
/// Clones share the same buffer, so a test can keep one handle and
/// install the other.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the collected lines.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of collected lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, kind: &'static str, tick: u64, fields: &[(&'static str, Field<'_>)]) {
        let line = render_json_line(kind, tick, fields);
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
    }

    fn flush(&self) {}
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
    use crate::schema::{FieldType, EVENT_SCHEMAS};
    use serde_json::{Map, Value};

    /// The `serde_json::Map` rendering [`render_json_line`] replaced: the
    /// reference its bytes are held to.
    fn render_via_map(kind: &'static str, tick: u64, fields: &[Entry<'_>]) -> String {
        let to_value = |field: Field<'_>| match field {
            Field::U64(v) => Value::Number(v as f64),
            Field::I64(v) => Value::Number(v as f64),
            Field::F64(v) => Value::Number(v),
            Field::Bool(v) => Value::Bool(v),
            Field::Str(v) => Value::String(v.to_owned()),
        };
        let mut map = Map::new();
        map.insert("kind".to_owned(), Value::String(kind.to_owned()));
        map.insert("tick".to_owned(), Value::Number(tick as f64));
        for &(name, field) in fields {
            map.insert(name.to_owned(), to_value(field));
        }
        serde_json::to_string(&Value::Object(map)).unwrap()
    }

    fn assert_same_bytes(kind: &'static str, tick: u64, fields: &[Entry<'_>]) {
        assert_eq!(
            render_json_line(kind, tick, fields),
            render_via_map(kind, tick, fields),
            "{kind} {fields:?}"
        );
    }

    #[test]
    fn rendering_matches_the_map_reference_on_every_schema_kind() {
        for schema in EVENT_SCHEMAS {
            for (round, tick) in [0, 7, u64::MAX].into_iter().enumerate() {
                let all: Vec<Entry<'_>> = schema
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let n = (i + round) as u64;
                        let field = match spec.ty {
                            FieldType::U64 => Field::U64(n * 1_000_003),
                            FieldType::F64 => Field::F64(61.25 - n as f64 / 3.0),
                            FieldType::Bool => Field::Bool(n & 1 == 0),
                            FieldType::Str => Field::Str(["pred3", "rpt", "patched"][i % 3]),
                        };
                        (spec.name, field)
                    })
                    .collect();
                assert_same_bytes(schema.kind, tick, &all);
                let required: Vec<Entry<'_>> = schema
                    .fields
                    .iter()
                    .zip(&all)
                    .filter_map(|(spec, &entry)| spec.required.then_some(entry))
                    .collect();
                assert_same_bytes(schema.kind, tick, &required);
                // The `trace` envelope `emit` stamps on, in call order.
                let mut stamped = all;
                stamped.push(("trace", Field::U64(3 + tick / 2)));
                assert_same_bytes(schema.kind, tick, &stamped);
            }
        }
    }

    #[test]
    fn rendering_matches_the_map_reference_on_awkward_values() {
        const TWO_53: u64 = 1 << 53;
        assert_same_bytes("tick", 0, &[]);
        assert_same_bytes(
            "span",
            TWO_53 + 1,
            &[
                ("nan", Field::F64(f64::NAN)),
                ("inf", Field::F64(f64::INFINITY)),
                ("ninf", Field::F64(f64::NEG_INFINITY)),
                ("nzero", Field::F64(-0.0)),
                ("tiny", Field::F64(5e-324)),
                ("huge", Field::F64(1.797_693_134_862_315_7e308)),
                ("edge", Field::F64(9_007_199_254_740_992.0)),
                ("below", Field::U64(TWO_53 - 1)),
                ("at", Field::U64(TWO_53)),
                ("above", Field::U64(TWO_53 + 1)),
                ("max", Field::U64(u64::MAX)),
                ("imin", Field::I64(i64::MIN)),
                ("neg", Field::I64(-(1 << 53))),
            ],
        );
        assert_same_bytes(
            "tick",
            1,
            &[
                ("quote", Field::Str("say \"hi\"")),
                ("slash", Field::Str("a\\b")),
                ("ctl", Field::Str("line\nbreak\ttab\r\u{1}\u{1f}")),
                ("uni", Field::Str("δ ≤ ε — ✓")),
                ("needs \"escaping\"\n", Field::Bool(true)),
                ("", Field::Str("")),
            ],
        );
        // A repeated key keeps its last value, the envelope's included.
        assert_same_bytes(
            "tick",
            2,
            &[
                ("dup", Field::U64(1)),
                ("other", Field::Bool(false)),
                ("dup", Field::Str("second")),
                ("kind", Field::Str("override")),
                ("dup", Field::F64(3.5)),
                ("tick", Field::U64(99)),
            ],
        );
        let line = render_json_line("tick", 2, &[("dup", Field::U64(1)), ("dup", Field::U64(2))]);
        assert_eq!(line, r#"{"dup":2,"kind":"tick","tick":2}"#);
    }

    #[test]
    fn long_field_lists_spill_without_changing_the_bytes() {
        const NAMES: [&str; 40] = [
            "f00", "f39", "f01", "f38", "f02", "f37", "f03", "f36", "f04", "f35", "f05", "f34",
            "f06", "f33", "f07", "f32", "f08", "f31", "f09", "f30", "f10", "f29", "f11", "f28",
            "f12", "f27", "f13", "f26", "f14", "f25", "f15", "f24", "f16", "f23", "f17", "f22",
            "f18", "f21", "f19", "f20",
        ];
        for len in [INLINE_FIELDS - 3, INLINE_FIELDS - 2, INLINE_FIELDS - 1, 40] {
            let mut fields: Vec<Entry<'_>> = NAMES[..len]
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, Field::U64(i as u64)))
                .collect();
            fields.push((NAMES[0], Field::Str("again")));
            assert_same_bytes("tick", 5, &fields);
        }
    }

    #[test]
    fn rendering_is_canonical_and_sorted() {
        let line = render_json_line(
            "tick",
            7,
            &[
                ("zeta", Field::Bool(true)),
                ("alpha", Field::U64(3)),
                ("mid", Field::Str("x")),
            ],
        );
        // BTreeMap ordering: alpha < kind < mid < tick < zeta.
        assert_eq!(
            line,
            r#"{"alpha":3,"kind":"tick","mid":"x","tick":7,"zeta":true}"#
        );
        // Same inputs, same bytes.
        let again = render_json_line(
            "tick",
            7,
            &[
                ("zeta", Field::Bool(true)),
                ("alpha", Field::U64(3)),
                ("mid", Field::Str("x")),
            ],
        );
        assert_eq!(line, again);
    }

    #[test]
    fn memory_sink_collects() {
        let sink = MemorySink::new();
        let handle = sink.clone();
        sink.emit("tick", 0, &[("estimate", Field::F64(1.5))]);
        assert_eq!(handle.len(), 1);
        assert!(handle.lines()[0].contains("\"estimate\":1.5"));
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit("tick", 1, &[]);
        sink.emit("tick", 2, &[]);
        sink.flush();
        let buffer = sink.writer.lock().unwrap().clone();
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
