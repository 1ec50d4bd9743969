//! The sample panel of repeated sampling.
//!
//! Between consecutive sampling occasions the estimator keeps handles to
//! the tuples it sampled, together with the value each produced under
//! every *question* it answers — an expression aggregated over the tuples
//! that satisfy a predicate. The panel itself is expression-agnostic (the
//! two-stage operator samples tuples uniformly whatever is asked of them,
//! §V), so one panel serves every question class of a shared mux round; a
//! lone engine is the case of one question.
//!
//! At the next occasion the retained part of the panel is *revisited*:
//! each node owning retained entries is contacted directly, once (it is
//! already located, so this costs one request listing its handles and one
//! reply with every row rather than a random walk; a node that left costs
//! one timed-out probe), and each tuple re-evaluated under every question.
//! Tuples that were deleted — or whose node left — are detected through
//! the handle's generation check and dropped, forcing replacement by fresh
//! samples exactly as §IV-B2a prescribes; so is a tuple that no longer
//! answers any question.
//!
//! A revisit writes into a [`RevisitReport`] its caller keeps from one
//! occasion to the next, so a steady-state occasion revisits its panel
//! without touching the heap.

use crate::Result;
use digest_db::{Expr, P2PDatabase, Predicate, RowView, TupleHandle};
use digest_net::NodeId;

/// One question a panel answers: an expression, aggregated over the
/// tuples satisfying a predicate.
pub type Question<'a> = (&'a Expr, &'a Predicate);

/// What `row` contributes to `question`: its value, if the row satisfies
/// the predicate and the value is finite.
///
/// # Errors
///
/// The expression fails to evaluate on a qualifying row.
///
/// xtask: no-alloc
pub(crate) fn answer((expr, predicate): Question<'_>, row: RowView<'_>) -> Result<Option<f64>> {
    if !predicate.is_trivial() && !predicate.eval(row).unwrap_or(false) {
        return Ok(None);
    }
    let value = expr.eval(row)?;
    Ok(value.is_finite().then_some(value))
}

/// One question's sample at an occasion: what the revisit found, then
/// the occasion's fresh draws.
#[derive(Debug, Clone, Default)]
pub struct Answers {
    /// Previous-occasion values of the revisited entries that answered
    /// the question then and answer it now.
    pub prev: Vec<f64>,
    /// Their current values, parallel to `prev`.
    pub cur: Vec<f64>,
    /// Current values with no previous one to regress on: revisited
    /// entries answering the question for the first time (the first
    /// `unpaired`), then the occasion's fresh draws.
    pub fresh: Vec<f64>,
    /// How many of `fresh` are revisited entries.
    pub unpaired: usize,
}

/// The result of revisiting the retained portion of a panel. Kept by the
/// caller across occasions: [`SamplePanel::revisit`] overwrites it, its
/// buffers stay.
#[derive(Debug, Clone, Default)]
pub struct RevisitReport {
    /// Per question, in the order asked.
    pub answers: Vec<Answers>,
    /// The revisited entries that answer at least one question, carrying
    /// their current values: the retained part of the next panel, which
    /// the occasion's fresh entries join behind them.
    pub survivors: SamplePanel,
    /// How many retained samples were lost: deleted, on a departed node,
    /// or answering no question any more.
    pub lost: usize,
    /// Live nodes contacted: each was asked once for all of its retained
    /// entries and replied once, whatever had become of them.
    pub peers: usize,
    /// Departed nodes probed: one unanswered request each, however many
    /// retained entries they held.
    pub departed: usize,
    /// One bit per node id: the owners this revisit has reached. All zero
    /// between calls.
    contacted: Vec<u64>,
}

impl RevisitReport {
    /// Counts `node` as a peer or a departed node, unless this revisit has
    /// reached it already. (An id beyond the bits is one the database never
    /// held, so no node to reach.)
    ///
    /// xtask: no-alloc
    fn contact(&mut self, db: &P2PDatabase, node: NodeId) {
        let id = node.0 as usize;
        let bit = 1u64 << (id % 64);
        if let Some(word) = self.contacted.get_mut(id / 64) {
            if *word & bit != 0 {
                return;
            }
            *word |= bit;
        }
        if db.has_node(node) {
            self.peers += 1;
        } else {
            self.departed += 1;
        }
    }
}

/// The panel: an ordered multiset of sampled tuples, oldest first, with
/// each one's value under every question at the previous occasion.
#[derive(Debug, Clone, Default)]
pub struct SamplePanel {
    handles: Vec<TupleHandle>,
    /// Entry-major: entry `i`'s value under question `q` is
    /// `values[i * questions + q]`, `NaN` where it did not answer.
    values: Vec<f64>,
    questions: usize,
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
        self.handles.len()
    }

    /// Whether the panel is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.handles.clear();
        self.values.clear();
    }

    /// Drops all entries and makes room for `questions` values per entry;
    /// the buffers stay.
    pub(crate) fn reset(&mut self, questions: usize) {
        self.clear();
        self.questions = questions;
    }

    /// Makes room for `entries` more entries without reallocating.
    pub(crate) fn reserve(&mut self, entries: usize) {
        self.handles.reserve(entries);
        self.values.reserve(entries * self.questions);
    }

    /// The sampled tuples, oldest first.
    #[must_use]
    pub fn handles(&self) -> &[TupleHandle] {
        &self.handles
    }

    /// Every entry's value under every question, entry-major (`NaN`: the
    /// entry did not answer that question).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Records the entry being built's answer to the next question, in
    /// question order; [`SamplePanel::commit`] ends the entry.
    pub(crate) fn stage(&mut self, value: Option<f64>) {
        self.values.push(value.unwrap_or(f64::NAN));
    }

    /// Ends the entry being built: keeps it under `handle` if it answers at
    /// least one question, drops it otherwise. Returns whether it was kept.
    pub(crate) fn commit(&mut self, handle: TupleHandle) -> bool {
        let start = self.handles.len() * self.questions;
        let kept = self
            .values
            .get(start..)
            .is_some_and(|staged| staged.iter().any(|v| !v.is_nan()));
        if kept {
            self.handles.push(handle);
        } else {
            self.values.truncate(start);
        }
        kept
    }

    /// Lays the panel out for a new list of questions: question `q` takes
    /// the values of the old question `from[q]`, or none (`None`).
    pub(crate) fn remap(&mut self, from: &[Option<usize>]) {
        let mut values = Vec::with_capacity(self.handles.len() * from.len());
        for row in self.values.chunks_exact(self.questions.max(1)) {
            values.extend(
                from.iter()
                    .map(|&old| old.and_then(|q| row.get(q)).copied().unwrap_or(f64::NAN)),
            );
        }
        self.values = values;
        self.questions = from.len();
    }

    /// Revisits the newest `keep` entries of the panel (the retained
    /// portion): re-evaluates each surviving tuple under every question
    /// and overwrites `report` with the outcome. The older entries are not
    /// visited — they are the replaced portion. A panel is laid out oldest
    /// first (survivors, then the occasion's fresh draws), so an entry
    /// rotates out after about `n / f` occasions instead of the first
    /// occasion's draws becoming a permanent core.
    ///
    /// `questions` are the panel's, in its order. An entry survives if it
    /// still resolves and answers at least one of them (values that fail
    /// to evaluate, e.g. after schema drift, answer nothing).
    ///
    /// The owners are counted, not the entries: a node holding several
    /// retained entries — or one entry twice — is one peer, or one
    /// departed node. Counting reorders nothing.
    ///
    /// xtask: no-alloc
    pub fn revisit(
        &self,
        db: &P2PDatabase,
        questions: &[Question<'_>],
        keep: usize,
        report: &mut RevisitReport,
    ) {
        report
            .answers
            .resize_with(questions.len(), Answers::default);
        let kept = keep.min(self.handles.len());
        for answers in &mut report.answers {
            answers.prev.clear();
            answers.cur.clear();
            answers.fresh.clear();
            answers.unpaired = 0;
            answers.prev.reserve(kept);
            answers.cur.reserve(kept);
        }
        report.survivors.reset(questions.len());
        report.survivors.reserve(kept);
        report.lost = 0;
        report.peers = 0;
        report.departed = 0;
        // A bit for every node id the database has held, sized once: the
        // power of two leaves room for the ids of joining nodes.
        let words = db.id_upper_bound().div_ceil(64);
        if report.contacted.len() < words {
            report.contacted.resize(words.next_power_of_two(), 0);
        }
        let skip = self.handles.len() - kept;
        let entries = self
            .handles
            .iter()
            .zip(self.values.chunks_exact(self.questions.max(1)));
        for (&handle, previous) in entries.skip(skip) {
            report.contact(db, handle.node);
            let row = db.read(handle).ok();
            for ((&question, &prev), answers) in
                questions.iter().zip(previous).zip(&mut report.answers)
            {
                let cur = row.and_then(|row| answer(question, row).ok().flatten());
                report.survivors.stage(cur);
                let Some(cur) = cur else { continue };
                if prev.is_nan() {
                    answers.fresh.push(cur);
                    answers.unpaired += 1;
                } else {
                    answers.prev.push(prev);
                    answers.cur.push(cur);
                }
            }
            if !report.survivors.commit(handle) {
                report.lost += 1;
            }
        }
        // Every bit set above is an owner of one of these entries.
        for handle in self.handles.iter().skip(skip) {
            if let Some(word) = report.contacted.get_mut(handle.node.0 as usize / 64) {
                *word = 0;
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
        panel.revisit(db, &[(expr, &Predicate::True)], keep, &mut report);
        report
    }

    fn panel_from(handles: &[TupleHandle], values: &[f64]) -> SamplePanel {
        let mut p = SamplePanel::new();
        p.reset(1);
        for (&h, &v) in handles.iter().zip(values) {
            p.stage(Some(v));
            assert!(p.commit(h));
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
        assert_eq!(r.answers[0].prev, vec![1.0, 2.0, 3.0]);
        assert_eq!(r.answers[0].cur, vec![1.5, 2.0, 3.0]);
        // Survivors carry the refreshed value forward.
        assert_eq!(r.survivors.values(), [1.5, 2.0, 3.0]);
    }

    #[test]
    fn revisit_detects_deleted_tuples() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        db.delete(handles[1]).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 1);
        assert_eq!(r.answers[0].cur, vec![1.0, 3.0]);
        // Node 0 still answers — one of its two tuples as gone.
        assert_eq!((r.peers, r.departed), (2, 0));
    }

    #[test]
    fn revisit_detects_departed_nodes() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        db.remove_node(NodeId(0)).unwrap();
        let r = revisit(&panel, &db, &expr, 3);
        assert_eq!(r.lost, 2);
        assert_eq!(r.answers[0].cur, vec![3.0]);
        // Two entries lost, one node probed.
        assert_eq!((r.peers, r.departed), (1, 1));
    }

    /// Owners are counted once per revisit, however many entries — or
    /// copies of one entry — they hold.
    #[test]
    fn revisit_counts_owners_not_entries() {
        let (db, handles, expr) = setup();
        let twice = [handles[0], handles[1], handles[2], handles[2]];
        let panel = panel_from(&twice, &[1.0, 2.0, 3.0, 3.0]);
        let r = revisit(&panel, &db, &expr, 4);
        assert_eq!(r.answers[0].cur, vec![1.0, 2.0, 3.0, 3.0]);
        assert_eq!((r.lost, r.peers, r.departed), (0, 2, 0));
        let r = revisit(&panel, &db, &expr, 2);
        assert_eq!((r.peers, r.departed), (1, 0));
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
        assert!(!r.answers[0].cur.contains(&99.0));
    }

    #[test]
    fn revisit_respects_keep_bound() {
        let (db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        let r = revisit(&panel, &db, &expr, 2);
        assert_eq!(r.answers[0].cur, vec![2.0, 3.0], "the newest two");
        let r = revisit(&panel, &db, &expr, 0);
        assert!(r.answers[0].cur.is_empty());
        let r = revisit(&panel, &db, &expr, 10);
        assert_eq!(
            r.answers[0].cur.len(),
            3,
            "keep beyond panel size is clamped"
        );
    }

    #[test]
    fn revisit_overwrites_a_kept_report() {
        let (mut db, handles, expr) = setup();
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0]);
        let question = [(&expr, &Predicate::True)];
        let mut report = revisit(&panel, &db, &expr, 3);
        db.delete(handles[1]).unwrap();
        panel.revisit(&db, &question, 3, &mut report);
        assert_eq!(report.lost, 1);
        assert_eq!(report.answers[0].prev, vec![1.0, 3.0]);
        assert_eq!(report.answers[0].cur, vec![1.0, 3.0]);
        assert_eq!(report.survivors.len(), 2);
        assert_eq!(
            report.peers, 2,
            "the first revisit's owners are not remembered"
        );
        // Nothing of the previous revisit — its loss included — stays. The
        // newest entry is the one kept.
        panel.revisit(&db, &question, 1, &mut report);
        assert_eq!(report.lost, 0);
        assert_eq!(report.answers[0].cur, vec![3.0]);
        assert_eq!(report.survivors.len(), 1);
        assert_eq!((report.peers, report.departed), (1, 0));
    }

    /// The retained part is the newest `keep` entries, in panel order:
    /// the oldest are the ones replaced.
    #[test]
    fn revisit_keeps_the_newest_entries() {
        let (mut db, mut handles, expr) = setup();
        for v in 4..=6 {
            handles.push(db.insert(NodeId(1), Tuple::single(f64::from(v))).unwrap());
        }
        let panel = panel_from(&handles, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = revisit(&panel, &db, &expr, 4);
        assert_eq!(r.answers[0].cur, vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(r.survivors.handles(), &handles[2..]);
        // A lost entry among the newest is not made up for by an older one.
        db.delete(handles[4]).unwrap();
        let r = revisit(&panel, &db, &expr, 4);
        assert_eq!((r.lost, r.answers[0].cur.clone()), (1, vec![3.0, 4.0, 6.0]));
    }

    /// One panel, two questions: an entry stays while it answers either,
    /// pairs where it answered the question both times, and counts as
    /// fresh for a question it answers for the first time.
    #[test]
    fn an_entry_serves_every_question_it_answers() {
        let (mut db, handles, expr) = setup();
        let high = Predicate::parse("a > 1.5", db.schema()).unwrap();
        let questions = [(&expr, &high), (&expr, &Predicate::True)];
        let mut panel = SamplePanel::new();
        panel.reset(2);
        for &h in &handles {
            let row = db.read(h).unwrap();
            for &q in &questions {
                panel.stage(answer(q, row).unwrap());
            }
            assert!(panel.commit(h));
        }
        // 1.0 rises into the predicate, 3.0 leaves the whole relation.
        db.update(handles[0], &[1.75]).unwrap();
        db.delete(handles[2]).unwrap();
        let mut r = RevisitReport::default();
        panel.revisit(&db, &questions, 3, &mut r);
        assert_eq!(r.lost, 1);
        assert_eq!(
            (&r.answers[0].prev, &r.answers[0].cur, &r.answers[0].fresh),
            (&vec![2.0], &vec![2.0], &vec![1.75])
        );
        assert_eq!(r.answers[0].unpaired, 1);
        assert_eq!(r.answers[1].cur, vec![1.75, 2.0]);
        assert_eq!(r.survivors.handles(), &handles[..2]);
        // A row answering nothing is not kept.
        r.survivors.stage(None);
        r.survivors.stage(None);
        assert!(!r.survivors.commit(handles[2]));
        assert_eq!(r.survivors.values(), [1.75, 1.75, 2.0, 2.0]);
    }

    #[test]
    fn remap_follows_the_questions() {
        let (_, handles, _) = setup();
        let mut p = SamplePanel::new();
        p.reset(2);
        for (&h, v) in handles.iter().zip([1.0, 2.0, 3.0]) {
            p.stage(Some(v));
            p.stage(Some(-v));
            p.commit(h);
        }
        p.remap(&[Some(1), None, Some(1)]);
        assert_eq!(p.len(), 3);
        let got: Vec<String> = p.values().iter().map(|v| format!("{v}")).collect();
        assert_eq!(
            got,
            ["-1", "NaN", "-1", "-2", "NaN", "-2", "-3", "NaN", "-3"]
        );
        p.clear();
        assert!(p.is_empty());
    }
}
