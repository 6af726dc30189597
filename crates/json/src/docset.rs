//! Shared, read-only document sets.
//!
//! An exploration session filters the previous result again and again
//! (paper §III): every intermediate is a subset of the corpus it was
//! derived from. A [`DocSet`] represents such a subset without copying a
//! single document: it is a shared base vector plus an optional ascending
//! list of the base rows that belong to the set. Cloning one is two
//! reference-count bumps, filtering one yields a new row selection over
//! the *same* base, and only code that changes documents (transforms)
//! or reads them from somewhere else (parsing, paging) allocates new
//! ones.

use crate::Value;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A cheap-to-clone, read-only set of documents: a shared base vector,
/// optionally restricted to an ascending selection of its rows.
///
/// Iteration order is base order. Equality compares the member
/// documents in order, so a selection equals the `Vec` holding the same
/// documents — and two sets are equal whatever their bases.
#[derive(Clone, Default)]
pub struct DocSet {
    base: Arc<Vec<Value>>,
    /// Strictly ascending indices into `base`; `None` selects every row.
    rows: Option<Arc<[u32]>>,
}

impl DocSet {
    /// The whole of `base`.
    pub fn new(base: Arc<Vec<Value>>) -> DocSet {
        DocSet { base, rows: None }
    }

    /// The rows `rows` of `base`.
    ///
    /// # Panics
    ///
    /// If `rows` is not strictly ascending or names a row past the end
    /// of `base`.
    pub fn with_rows(base: Arc<Vec<Value>>, rows: impl Into<Arc<[u32]>>) -> DocSet {
        let rows = rows.into();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "selected rows must be strictly ascending"
        );
        assert!(
            rows.last().is_none_or(|&r| (r as usize) < base.len()),
            "selected row out of bounds of a {}-document base",
            base.len()
        );
        DocSet {
            base,
            rows: Some(rows),
        }
    }

    /// The shared base every member belongs to.
    pub fn base(&self) -> &Arc<Vec<Value>> {
        &self.base
    }

    /// The selected base rows, or `None` when the set is the whole base.
    pub fn rows(&self) -> Option<&[u32]> {
        self.rows.as_deref()
    }

    /// The members' base rows, ascending — borrowed for a selection,
    /// `0..len` for a whole base.
    pub fn row_ids(&self) -> Cow<'_, [u32]> {
        match &self.rows {
            Some(rows) => Cow::Borrowed(rows),
            None => Cow::Owned((0..self.base.len() as u32).collect()),
        }
    }

    /// Number of member documents.
    pub fn len(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(self.base.len(), |rows| rows.len())
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `index`-th member, in base order.
    pub fn get(&self, index: usize) -> Option<&Value> {
        match &self.rows {
            Some(rows) => rows.get(index).map(|&r| &self.base[r as usize]),
            None => self.base.get(index),
        }
    }

    /// The first member.
    pub fn first(&self) -> Option<&Value> {
        self.get(0)
    }

    /// The members in base order.
    pub fn iter(&self) -> DocSetIter<'_> {
        DocSetIter(match &self.rows {
            Some(rows) => IterKind::Rows {
                base: &self.base,
                rows: rows.iter(),
            },
            None => IterKind::All(self.base.iter()),
        })
    }

    /// Deep copies of the members, for callers that need to own or
    /// change them.
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().cloned().collect()
    }

    /// The members for which `keep` holds, as a selection over the same
    /// base (no document is copied).
    pub fn filter(&self, mut keep: impl FnMut(&Value) -> bool) -> DocSet {
        let rows: Vec<u32> = match &self.rows {
            Some(rows) => rows
                .iter()
                .copied()
                .filter(|&r| keep(&self.base[r as usize]))
                .collect(),
            None => (0..self.base.len() as u32)
                .filter(|&r| keep(&self.base[r as usize]))
                .collect(),
        };
        self.reselect(rows)
    }

    /// The first `n` members (all of them when `n ≥ len`), over the same
    /// base.
    pub fn head(&self, n: usize) -> DocSet {
        if n >= self.len() {
            return self.clone();
        }
        self.reselect(self.row_ids()[..n].to_vec())
    }

    /// A selection of `rows` — base rows, strictly ascending — over this
    /// set's base. Callers derive `rows` from this set's own members, so
    /// the result is a subset of it.
    pub fn reselect(&self, rows: impl Into<Arc<[u32]>>) -> DocSet {
        DocSet::with_rows(Arc::clone(&self.base), rows)
    }
}

impl From<Arc<Vec<Value>>> for DocSet {
    fn from(base: Arc<Vec<Value>>) -> DocSet {
        DocSet::new(base)
    }
}

impl From<Vec<Value>> for DocSet {
    fn from(docs: Vec<Value>) -> DocSet {
        DocSet::new(Arc::new(docs))
    }
}

impl fmt::Debug for DocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for DocSet {
    fn eq(&self, other: &DocSet) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Value]> for DocSet {
    fn eq(&self, other: &[Value]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<Value>> for DocSet {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<DocSet> for Vec<Value> {
    fn eq(&self, other: &DocSet) -> bool {
        *other == self[..]
    }
}

impl<'a> IntoIterator for &'a DocSet {
    type Item = &'a Value;
    type IntoIter = DocSetIter<'a>;

    fn into_iter(self) -> DocSetIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`DocSet`]'s members, in base order.
#[derive(Debug, Clone)]
pub struct DocSetIter<'a>(IterKind<'a>);

#[derive(Debug, Clone)]
enum IterKind<'a> {
    /// Every row of the base.
    All(std::slice::Iter<'a, Value>),
    /// The remaining selected rows of `base`.
    Rows {
        base: &'a [Value],
        rows: std::slice::Iter<'a, u32>,
    },
}

impl<'a> Iterator for DocSetIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match &mut self.0 {
            IterKind::All(docs) => docs.next(),
            IterKind::Rows { base, rows } => rows.next().map(|&r| &base[r as usize]),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterKind::All(docs) => docs.size_hint(),
            IterKind::Rows { rows, .. } => rows.size_hint(),
        }
    }
}

impl ExactSizeIterator for DocSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn numbers(n: i64) -> Arc<Vec<Value>> {
        Arc::new((0..n).map(|i| json!({ "n": i })).collect())
    }

    fn n_of(doc: &Value) -> i64 {
        doc.get("n").and_then(Value::as_i64).unwrap()
    }

    #[test]
    fn whole_base_iterates_in_order() {
        let set = DocSet::new(numbers(5));
        assert_eq!(set.len(), 5);
        assert!(set.rows().is_none());
        assert_eq!(set.iter().map(n_of).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(&*set.row_ids(), &[0, 1, 2, 3, 4]);
        assert_eq!(set.first(), Some(&json!({ "n": 0 })));
        assert_eq!(set.get(5), None);
    }

    #[test]
    fn nested_selections_stay_on_the_base() {
        let base = numbers(20);
        let set = DocSet::new(Arc::clone(&base));
        let even = set.filter(|d| n_of(d) % 2 == 0);
        let small_even = even.filter(|d| n_of(d) < 10);
        assert!(Arc::ptr_eq(small_even.base(), &base));
        assert_eq!(small_even.rows(), Some(&[0, 2, 4, 6, 8][..]));
        assert_eq!(small_even.iter().len(), 5);
        assert_eq!(small_even.get(2), Some(&json!({ "n": 4 })));
        let expected: Vec<Value> = base
            .iter()
            .filter(|d| n_of(d) % 2 == 0 && n_of(d) < 10)
            .cloned()
            .collect();
        assert_eq!(small_even, expected);
        assert_eq!(small_even.head(2).rows(), Some(&[0, 2][..]));
        assert_eq!(small_even.head(99), small_even);
        assert_eq!(set.head(3).rows(), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn equality_is_by_members_not_representation() {
        let base = numbers(6);
        let selected = DocSet::with_rows(Arc::clone(&base), vec![1, 3]);
        let copied = DocSet::from(vec![json!({ "n": 1 }), json!({ "n": 3 })]);
        assert_eq!(selected, copied);
        assert_eq!(selected, copied.to_vec());
        assert_eq!(copied.to_vec(), selected);
        assert_ne!(selected, DocSet::with_rows(Arc::clone(&base), vec![1, 4]));
        assert_ne!(selected, DocSet::with_rows(base, vec![1]));
        assert_eq!(DocSet::default(), Vec::<Value>::new());
        assert_eq!(format!("{selected:?}"), format!("{:?}", copied.to_vec()));
    }

    #[test]
    fn to_vec_copies_members_in_order() {
        let base = numbers(4);
        let set = DocSet::with_rows(Arc::clone(&base), vec![0, 3]);
        let owned = set.to_vec();
        assert_eq!(owned, vec![json!({ "n": 0 }), json!({ "n": 3 })]);
        assert_eq!(DocSet::new(Arc::clone(&base)).to_vec(), *base);
        assert!(DocSet::with_rows(base, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_rows_are_refused() {
        DocSet::with_rows(numbers(4), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_past_the_base_are_refused() {
        DocSet::with_rows(numbers(4), vec![4]);
    }
}
