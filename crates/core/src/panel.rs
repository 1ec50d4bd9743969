//! The sample panel of repeated sampling.
//!
//! Between consecutive sampling occasions the engine keeps handles to the
//! tuples it sampled, together with the value each produced under the
//! query expression. At the next occasion the retained part of the panel
//! is *revisited*: the owning node is contacted directly (it is already
//! located, so this costs a constant couple of messages rather than a
//! random walk) and the tuple re-evaluated. Tuples that were deleted — or
//! whose node left — are detected through the handle's generation check
//! and dropped, forcing replacement by fresh samples exactly as §IV-B2a
//! prescribes.
//!
//! A revisit writes into a [`RevisitReport`] its caller keeps from one
//! occasion to the next, so a steady-state occasion revisits its panel
//! without touching the heap.

use digest_db::{Expr, P2PDatabase, Predicate, TupleHandle};

/// One panel member: where the tuple lives and what it evaluated to at the
/// previous sampling occasion.
#[derive(Debug, Clone, Copy)]
pub struct PanelEntry {
    /// Handle to the sampled tuple.
    pub handle: TupleHandle,
    /// The expression value observed at the previous occasion.
    pub prev_value: f64,
}

/// The result of revisiting the retained portion of a panel. Kept by the
/// caller across occasions: [`SamplePanel::revisit`] overwrites it, its
/// buffers stay.
#[derive(Debug, Clone, Default)]
pub struct RevisitReport {
    /// Parallel previous/current values of the retained samples that
    /// survived (still resolvable).
    pub prev_values: Vec<f64>,
    /// Current values, parallel to `prev_values`.
    pub cur_values: Vec<f64>,
    /// Surviving entries, updated so `prev_value` is the *current* value
    /// (ready to become the next occasion's panel).
    pub survivors: Vec<PanelEntry>,
    /// How many retained samples were lost to deletion or node departure.
    pub lost: usize,
}

/// The panel: an ordered multiset of retained samples.
#[derive(Debug, Clone, Default)]
pub struct SamplePanel {
    entries: Vec<PanelEntry>,
}

impl SamplePanel {
    /// Creates an empty panel.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the panel is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the panel's contents.
    pub fn replace(&mut self, entries: Vec<PanelEntry>) {
        self.entries = entries;
    }

    /// Exchanges the panel's contents with `entries` — `replace` for a
    /// caller that recycles the outgoing buffer.
    pub(crate) fn swap_entries(&mut self, entries: &mut Vec<PanelEntry>) {
        std::mem::swap(&mut self.entries, entries);
    }

    /// Adds one entry.
    pub fn push(&mut self, entry: PanelEntry) {
        self.entries.push(entry);
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries.
    #[must_use]
    pub fn entries(&self) -> &[PanelEntry] {
        &self.entries
    }

    /// Revisits the first `keep` entries of the panel (the retained
    /// portion under the current replacement policy): re-evaluates each
    /// surviving tuple under `expr` and overwrites `report` with the
    /// outcome. Entries beyond `keep` are not visited (they are the
    /// replaced portion).
    ///
    /// Values that fail to evaluate (e.g. schema drift) count as lost.
    ///
    /// xtask: no-alloc
    pub fn revisit(
        &self,
        db: &P2PDatabase,
        expr: &Expr,
        predicate: &Predicate,
        keep: usize,
        report: &mut RevisitReport,
    ) {
        report.prev_values.clear();
        report.cur_values.clear();
        report.survivors.clear();
        report.lost = 0;
        let take = keep.min(self.entries.len());
        for entry in &self.entries[..take] {
            // A retained sample survives only if it still resolves, still
            // satisfies the query predicate (it may have left the
            // aggregated sub-population), and still evaluates finitely.
            let current = db
                .read(entry.handle)
                .ok()
                .and_then(|t| match predicate.eval(t) {
                    Ok(true) => expr.eval(t).ok(),
                    _ => None,
                });
            match current {
                Some(cur) if cur.is_finite() => {
                    report.prev_values.push(entry.prev_value);
                    report.cur_values.push(cur);
                    report.survivors.push(PanelEntry {
                        handle: entry.handle,
                        prev_value: cur,
                    });
                }
                _ => report.lost += 1,
            }
        }
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
    use digest_db::{Schema, Tuple};
    use digest_net::NodeId;

    fn setup() -> (P2PDatabase, Vec<TupleHandle>, Expr) {
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        db.register_node(NodeId(1));
        let handles = vec![
            db.insert(NodeId(0), Tuple::single(1.0)).unwrap(),
            db.insert(NodeId(0), Tuple::single(2.0)).unwrap(),
            db.insert(NodeId(1), Tuple::single(3.0)).unwrap(),
        ];
        let expr = Expr::first_attr(db.schema());
        (db, handles, expr)
    }

    fn revisit(panel: &SamplePanel, db: &P2PDatabase, expr: &Expr, keep: usize) -> RevisitReport {
        let mut report = RevisitReport::default();
        panel.revisit(db, expr, &Predicate::True, keep, &mut report);
        report
    }

    fn panel_from(handles: &[TupleHandle], values: &[f64]) -> SamplePanel {
        let mut p = SamplePanel::new();
        for (&h, &v) in handles.iter().zip(values) {
            p.push(PanelEntry {
                handle: h,
                prev_value: v,
            });
        }
        p
    }

    #[test]
    fn revisit_reads_current_values() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        // Values drift before the next occasion.
        db.update(handles[0], &[1.5]).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 0);
        assert_eq!(r.prev_values, vec![1.0, 2.0, 3.0]);
        assert_eq!(r.cur_values, vec![1.5, 2.0, 3.0]);
        // Survivors carry the refreshed value forward.
        assert_eq!(r.survivors[0].prev_value, 1.5);
    }

    #[test]
    fn revisit_detects_deleted_tuples() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        db.delete(handles[1]).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 1);
        assert_eq!(r.cur_values, vec![1.0, 3.0]);
    }

    #[test]
    fn revisit_detects_departed_nodes() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        db.remove_node(NodeId(0)).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 2);
        assert_eq!(r.cur_values, vec![3.0]);
    }

    #[test]
    fn revisit_detects_slot_reuse() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        // Delete and refill the slot: generation bump must make the old
        // handle stale even though the slot is occupied again.
        db.delete(handles[0]).unwrap();
        db.insert(NodeId(0), Tuple::single(99.0)).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 1);
        assert!(!r.cur_values.contains(&99.0));
    }

    #[test]
    fn revisit_respects_keep_bound() {
        let (db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        let r = revisit(&panel, &db, &expr, 2);
        assert_eq!(r.cur_values.len(), 2);
        let r = revisit(&panel, &db, &expr, 0);
        assert!(r.cur_values.is_empty());
        let r = revisit(&panel, &db, &expr, 10);
        assert_eq!(r.cur_values.len(), 3, "keep beyond panel size is clamped");
    }

    #[test]
    fn revisit_overwrites_a_kept_report() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        let mut report = revisit(&panel, &db, &expr, 3);
        db.delete(handles[1]).unwrap();
        panel.revisit(&db, &expr, &Predicate::True, 3, &mut report);
        assert_eq!(report.lost, 1);
        assert_eq!(report.prev_values, vec![1.0, 3.0]);
        assert_eq!(report.cur_values, vec![1.0, 3.0]);
        assert_eq!(report.survivors.len(), 2);
        // Nothing of the previous revisit — its loss included — stays.
        panel.revisit(&db, &expr, &Predicate::True, 1, &mut report);
        assert_eq!(report.lost, 0);
        assert_eq!(report.cur_values, vec![1.0]);
        assert_eq!(report.survivors.len(), 1);
    }

    #[test]
    fn panel_mutators() {
        let (_, handles, _) = setup();
        let mut p = panel_from(&handles, &[1.0, 2.0, 3.0]);
        assert_eq!(p.len(), 3);
        p.replace(vec![PanelEntry {
            handle: handles[0],
            prev_value: 9.0,
        }]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries()[0].prev_value, 9.0);
        p.clear();
        assert!(p.is_empty());
    }
}
