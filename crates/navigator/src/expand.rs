//! Course-selection enumeration — the edges out of a learning-graph node.
//!
//! Algorithm 1 (§4.1) iterates "each course combination `W_{i,i+1}` from
//! `Y_i`" with `|W| ≤ m`. Per node that is `Σ_{k=1..m} C(|Y_i|, k)`
//! combinations (the count the paper gives in §4.3). [`SelectionIter`]
//! enumerates them without allocating per item, in a deterministic order
//! (ascending size, then lexicographic by course id).
//!
//! The paper's Figure 3 additionally advances a node *with an empty
//! selection* when it has no options but untaken courses remain offered in
//! later pre-deadline semesters (edge `W₄,₇ = {}`), while a node with
//! options never elects the empty set and a node with no conceivable future
//! option stops. [`WaitPolicy`] captures that default and two variants.

use coursenav_catalog::{CourseId, CourseSet};
use serde::{Deserialize, Serialize};

use crate::cursor::SelectionIterState;

/// When an exploration may advance a semester without taking any course.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum WaitPolicy {
    /// The paper's Figure 3 semantics: wait only when the node has no
    /// eligible options but some untaken course is still offered in a later
    /// semester before the deadline.
    #[default]
    WhenNoOptions,
    /// Never wait: a node with no options is a leaf.
    Never,
    /// Always offer the empty selection alongside real ones (models students
    /// free to skip any semester; inflates the path count accordingly).
    Always,
}

/// Iterator over the subsets of an options set with size `1..=max_size`
/// (plus optionally the empty set first, per the caller's wait decision).
///
/// Yields `CourseSet`s; internally walks k-combinations of the option list
/// in lexicographic order.
pub struct SelectionIter {
    options: Vec<CourseId>,
    /// Current combination as indices into `options`; `indices.len()` is the
    /// current size k. Empty means "yield empty set next" if `emit_empty`.
    indices: Vec<usize>,
    max_size: usize,
    emit_empty: bool,
    done: bool,
}

impl SelectionIter {
    /// Enumerates nonempty selections from `options` of size ≤ `max_size`.
    pub fn new(options: &CourseSet, max_size: usize) -> SelectionIter {
        SelectionIter {
            options: options.iter().collect(),
            indices: Vec::new(),
            max_size,
            emit_empty: false,
            done: false,
        }
    }

    /// Like [`SelectionIter::new`], but yields the empty selection first.
    pub fn with_empty(options: &CourseSet, max_size: usize) -> SelectionIter {
        SelectionIter {
            options: options.iter().collect(),
            indices: Vec::new(),
            max_size,
            emit_empty: true,
            done: false,
        }
    }

    /// Number of selections this iterator will yield in total:
    /// `Σ_{k=1..min(m,|Y|)} C(|Y|, k)` (+1 when the empty set is included).
    pub fn total_count(options_len: usize, max_size: usize, with_empty: bool) -> u128 {
        let mut total: u128 = u128::from(with_empty);
        let mut binom: u128 = 1;
        for k in 1..=max_size.min(options_len) {
            binom = binom * (options_len - k + 1) as u128 / k as u128;
            total += binom;
        }
        total
    }

    /// Snapshots the iterator's position for a resumable cursor.
    pub(crate) fn state(&self) -> SelectionIterState {
        SelectionIterState {
            indices: self.indices.iter().map(|&i| i as u32).collect(),
            emit_empty: self.emit_empty,
            done: self.done,
        }
    }

    /// Rebuilds an iterator from a snapshot taken by [`SelectionIter::state`]
    /// over the same option set. Returns `None` when the snapshot is
    /// inconsistent with `options` (indices out of bounds, not strictly
    /// increasing, or more of them than `max_size` allows) — the caller
    /// treats that as an invalid cursor, never a panic.
    pub(crate) fn resume(
        options: &CourseSet,
        max_size: usize,
        state: &SelectionIterState,
    ) -> Option<SelectionIter> {
        let options: Vec<CourseId> = options.iter().collect();
        let indices: Vec<usize> = state.indices.iter().map(|&i| i as usize).collect();
        if indices.len() > max_size || indices.len() > options.len() {
            return None;
        }
        for (pos, &idx) in indices.iter().enumerate() {
            if idx >= options.len() {
                return None;
            }
            if pos > 0 && indices[pos - 1] >= idx {
                return None;
            }
        }
        Some(SelectionIter {
            options,
            indices,
            max_size,
            emit_empty: state.emit_empty,
            done: state.done,
        })
    }

    /// The options being enumerated, in ascending course order.
    pub(crate) fn options(&self) -> &[CourseId] {
        &self.options
    }

    /// The option positions of the selection [`Iterator::next`] last
    /// yielded, ascending (none for the empty selection).
    pub(crate) fn positions(&self) -> &[usize] {
        &self.indices
    }

    fn current_set(&self) -> CourseSet {
        self.indices.iter().map(|&i| self.options[i]).collect()
    }

    /// Advances `indices` to the next combination; grows k when the current
    /// size is exhausted. Returns false when enumeration is complete.
    fn advance(&mut self) -> bool {
        let n = self.options.len();
        let k = self.indices.len();
        if k == 0 {
            // Start with size 1 if possible.
            if n == 0 || self.max_size == 0 {
                return false;
            }
            self.indices.push(0);
            return true;
        }
        // Standard lexicographic successor of a k-combination.
        let mut i = k;
        while i > 0 {
            i -= 1;
            if self.indices[i] < n - (k - i) {
                self.indices[i] += 1;
                for j in i + 1..k {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                return true;
            }
        }
        // Exhausted size k; move to k+1.
        let k = k + 1;
        if k > self.max_size || k > n {
            return false;
        }
        self.indices.clear();
        self.indices.extend(0..k);
        true
    }
}

impl Iterator for SelectionIter {
    type Item = CourseSet;

    fn next(&mut self) -> Option<CourseSet> {
        if self.done {
            return None;
        }
        if self.emit_empty {
            self.emit_empty = false;
            return Some(CourseSet::EMPTY);
        }
        if self.advance() {
            Some(self.current_set())
        } else {
            self.done = true;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ns: &[u16]) -> CourseSet {
        ns.iter().map(|&n| CourseId::new(n)).collect()
    }

    fn collect_sorted(iter: SelectionIter) -> Vec<Vec<u16>> {
        iter.map(|s| s.iter().map(|c| c.as_u16()).collect())
            .collect()
    }

    #[test]
    fn enumerates_sizes_one_through_m() {
        let sels = collect_sorted(SelectionIter::new(&ids(&[1, 2, 3]), 2));
        assert_eq!(
            sels,
            vec![
                vec![1],
                vec![2],
                vec![3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn m_at_least_n_enumerates_all_nonempty_subsets() {
        let sels = collect_sorted(SelectionIter::new(&ids(&[1, 2]), 5));
        assert_eq!(sels, vec![vec![1], vec![2], vec![1, 2]]);
    }

    #[test]
    fn empty_options_yield_nothing() {
        assert_eq!(SelectionIter::new(&CourseSet::EMPTY, 3).count(), 0);
    }

    #[test]
    fn with_empty_yields_empty_first() {
        let sels = collect_sorted(SelectionIter::with_empty(&ids(&[7]), 1));
        assert_eq!(sels, vec![vec![], vec![7]]);
    }

    #[test]
    fn zero_max_size_yields_nothing_nonempty() {
        assert_eq!(SelectionIter::new(&ids(&[1, 2]), 0).count(), 0);
        assert_eq!(SelectionIter::with_empty(&ids(&[1, 2]), 0).count(), 1);
    }

    #[test]
    fn count_matches_formula() {
        for n in 0..8usize {
            let options = ids(&(0..n as u16).collect::<Vec<_>>());
            for m in 0..5usize {
                let counted = SelectionIter::new(&options, m).count() as u128;
                assert_eq!(
                    counted,
                    SelectionIter::total_count(n, m, false),
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn paper_fig3_root_has_three_selections() {
        // |Y1| = 2, m unbounded (>=2): {11A}, {29A}, {11A,29A}.
        assert_eq!(SelectionIter::new(&ids(&[0, 1]), 3).count(), 3);
    }

    #[test]
    fn selections_are_subsets_of_options() {
        let options = ids(&[3, 5, 9, 200]);
        for sel in SelectionIter::new(&options, 3) {
            assert!(sel.is_subset(&options));
            assert!(!sel.is_empty());
            assert!(sel.len() <= 3);
        }
    }

    #[test]
    fn snapshot_resume_continues_exactly() {
        let options = ids(&[1, 2, 3, 4]);
        let total = SelectionIter::total_count(4, 3, true) as usize;
        for pause_after in 0..=total {
            let mut iter = SelectionIter::with_empty(&options, 3);
            for _ in 0..pause_after {
                if iter.next().is_none() {
                    break;
                }
            }
            let resumed =
                SelectionIter::resume(&options, 3, &iter.state()).expect("snapshot is valid");
            let suffix: Vec<_> = resumed.collect();
            let rest: Vec<_> = iter.collect();
            assert_eq!(suffix, rest, "pause_after={pause_after}");
        }
    }

    #[test]
    fn resume_rejects_inconsistent_snapshots() {
        let options = ids(&[1, 2, 3]);
        let out_of_bounds = SelectionIterState {
            indices: vec![0, 9],
            ..SelectionIterState::default()
        };
        assert!(SelectionIter::resume(&options, 3, &out_of_bounds).is_none());
        let not_increasing = SelectionIterState {
            indices: vec![1, 1],
            ..SelectionIterState::default()
        };
        assert!(SelectionIter::resume(&options, 3, &not_increasing).is_none());
        let too_large = SelectionIterState {
            indices: vec![0, 1, 2],
            ..SelectionIterState::default()
        };
        assert!(SelectionIter::resume(&options, 2, &too_large).is_none());
    }

    #[test]
    fn binomial_count_is_exact_for_paper_scale() {
        // |Y| = 38 courses all eligible, m = 3: 38 + 703 + 8436 = 9177.
        assert_eq!(SelectionIter::total_count(38, 3, false), 9177);
    }
}
