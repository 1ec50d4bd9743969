//! Tuples, schemas, and stable tuple handles.
//!
//! The relation is single-table with numeric attributes (the paper's
//! datasets carry one attribute — temperature or available memory — but
//! the query model allows arbitrary arithmetic over several, e.g.
//! `SUM(memory + storage)`), so attribute values are `f64`.
//!
//! A [`TupleHandle`] names a tuple by `(node, slot, generation)`. Slots are
//! reused after deletion, but the generation counter increments, so a
//! retained sample can detect that "its" tuple was deleted — the trigger
//! for forced replacement in repeated sampling (paper §IV-B2a).

use crate::error::DbError;
use crate::Result;
use digest_net::NodeId;
use std::fmt;
use std::sync::Arc;

/// The attribute schema of the relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    names: Arc<[String]>,
}

impl Schema {
    /// Creates a schema from attribute names.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        Self {
            names: names.into(),
        }
    }

    /// A single-attribute schema (the shape of both paper datasets).
    #[must_use]
    pub fn single(name: &str) -> Self {
        Self::new([name])
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Index of an attribute by name.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownAttribute`] if absent.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DbError::UnknownAttribute(name.to_owned()))
    }

    /// Attribute name at `index`, if in range.
    #[must_use]
    pub fn name(&self, index: usize) -> Option<&str> {
        self.names.get(index).map(String::as_str)
    }

    /// All attribute names.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// A tuple: one `f64` per schema attribute. This is the *owned* row — the
/// argument of an insert and the copy a sample carries away; reads of the
/// stored relation hand out a borrowed [`RowView`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<f64>,
}

impl Tuple {
    /// Creates a tuple from attribute values.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// A single-attribute tuple.
    #[must_use]
    pub fn single(value: f64) -> Self {
        Self {
            values: vec![value],
        }
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value of attribute `index`.
    ///
    /// # Errors
    ///
    /// [`DbError::AttributeIndexOutOfRange`] if out of range.
    pub fn value(&self, index: usize) -> Result<f64> {
        RowView::from(self).value(index)
    }

    /// All attribute values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to attribute values (local autonomous updates).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

impl From<f64> for Tuple {
    fn from(v: f64) -> Self {
        Tuple::single(v)
    }
}

/// A borrowed row of the stored relation: the attribute values of one
/// tuple, read in place from its fragment's column store. `Copy`, so it
/// passes by value; [`RowView::to_tuple`] takes the owned copy a sample
/// ships back to the querying node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowView<'a> {
    values: &'a [f64],
}

impl<'a> RowView<'a> {
    /// Views a slice of attribute values as a row.
    #[must_use]
    pub fn new(values: &'a [f64]) -> Self {
        Self { values }
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(self) -> usize {
        self.values.len()
    }

    /// Value of attribute `index`.
    ///
    /// # Errors
    ///
    /// [`DbError::AttributeIndexOutOfRange`] if out of range.
    pub fn value(self, index: usize) -> Result<f64> {
        self.values
            .get(index)
            .copied()
            .ok_or(DbError::AttributeIndexOutOfRange {
                index,
                arity: self.values.len(),
            })
    }

    /// All attribute values.
    #[must_use]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// An owned copy of the row.
    #[must_use]
    pub fn to_tuple(self) -> Tuple {
        Tuple::new(self.values.to_vec())
    }
}

impl<'a> From<&'a Tuple> for RowView<'a> {
    fn from(tuple: &'a Tuple) -> Self {
        RowView::new(&tuple.values)
    }
}

/// Stable reference to a tuple: node, local slot, and the slot's
/// generation at the time the handle was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleHandle {
    /// The node storing the tuple.
    pub node: NodeId,
    /// Slot index within the node's local store.
    pub slot: u32,
    /// Generation of the slot when the handle was created; a mismatch on
    /// revisit means the tuple was deleted (and the slot possibly reused).
    pub generation: u32,
}

impl fmt::Display for TupleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}@g{}", self.node, self.slot, self.generation)
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

    #[test]
    fn schema_lookup() {
        let s = Schema::new(["cpu", "memory", "storage", "bandwidth"]);
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("memory").unwrap(), 1);
        assert_eq!(s.name(2), Some("storage"));
        assert_eq!(s.name(9), None);
        assert_eq!(
            s.index_of("disk").unwrap_err(),
            DbError::UnknownAttribute("disk".into())
        );
    }

    #[test]
    fn single_schema() {
        let s = Schema::single("temperature");
        assert_eq!(s.arity(), 1);
        assert_eq!(s.index_of("temperature").unwrap(), 0);
    }

    #[test]
    fn tuple_access() {
        let t = Tuple::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(1).unwrap(), 2.0);
        assert_eq!(
            t.value(3).unwrap_err(),
            DbError::AttributeIndexOutOfRange { index: 3, arity: 3 }
        );
    }

    #[test]
    fn row_view_reads_like_its_tuple() {
        let t = Tuple::new(vec![1.0, 2.0, 3.0]);
        let row = RowView::from(&t);
        assert_eq!(row.arity(), 3);
        assert_eq!(row.values(), t.values());
        assert_eq!(row.value(1).unwrap(), 2.0);
        assert_eq!(row.value(3).unwrap_err(), t.value(3).unwrap_err());
        assert_eq!(row.to_tuple(), t);
    }

    #[test]
    fn tuple_from_f64() {
        let t: Tuple = 7.5.into();
        assert_eq!(t.values(), &[7.5]);
    }

    #[test]
    fn tuple_mutation() {
        let mut t = Tuple::single(1.0);
        t.values_mut()[0] = 2.0;
        assert_eq!(t.value(0).unwrap(), 2.0);
    }

    #[test]
    fn handle_display() {
        let h = TupleHandle {
            node: NodeId(4),
            slot: 17,
            generation: 2,
        };
        assert_eq!(h.to_string(), "n4#17@g2");
    }

    #[test]
    fn schema_clone_is_cheap_and_equal() {
        let s = Schema::new(["a", "b"]);
        let s2 = s.clone();
        assert_eq!(s, s2);
    }
}
