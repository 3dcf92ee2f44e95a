//! Inline small-vector storage for gate pins and fanout lists.
//!
//! Almost every word-level primitive has at most three inputs (the mux), and
//! most nets feed only a few gates, so storing either list in a `Vec` pays
//! one heap allocation per gate or net — which shows up as per-bound setup
//! cost when a bounded checker expands thousands of gates per time-frame,
//! and as resident memory for every netlist kept alive. [`InlineIds`] keeps
//! up to [`InlineIds::INLINE`] ids inline and only spills longer lists (e.g.
//! `and_many` monitors, high-fanout select lines) to the heap. It
//! dereferences to `[T]`, so all slice-style consumers (indexing, iteration,
//! `len`) are unaffected.

use crate::ids::{GateId, NetId};
use std::fmt;
use std::ops::{Deref, DerefMut};

#[derive(Clone)]
enum Repr<T> {
    Inline { len: u8, buf: [T; INLINE] },
    Spilled(Vec<T>),
}

const INLINE: usize = 4;

/// A list of ids: inline up to [`InlineIds::INLINE`] entries,
/// heap-allocated beyond that.
#[derive(Clone)]
pub struct InlineIds<T> {
    repr: Repr<T>,
}

/// The input pins of a gate.
pub type GateInputs = InlineIds<NetId>;

/// The gates reading a net.
pub(crate) type Fanouts = InlineIds<GateId>;

impl<T: Copy + Default> InlineIds<T> {
    /// Number of ids stored without a heap allocation. Three covers every
    /// fixed-arity primitive (mux); the fourth slot absorbs small n-ary
    /// Boolean gates and typical fanouts.
    pub const INLINE: usize = INLINE;

    /// Creates an empty list (e.g. the pins of a constant driver).
    pub fn new() -> Self {
        InlineIds {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); INLINE],
            },
        }
    }

    /// Appends one id, spilling to the heap when the inline capacity is
    /// exceeded.
    pub fn push(&mut self, id: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if (*len as usize) < INLINE {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(INLINE * 2);
                    spilled.extend_from_slice(&buf[..]);
                    spilled.push(id);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(v) => v.push(id),
        }
    }

    /// Keeps only the ids for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(v) => v.retain(keep),
        }
    }

    /// Releases spare heap capacity of a spilled list.
    pub fn shrink_to_fit(&mut self) {
        if let Repr::Spilled(v) = &mut self.repr {
            v.shrink_to_fit();
        }
    }

    /// `true` when the ids live inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl<T> InlineIds<T> {
    /// The ids as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: Copy + Default> Default for InlineIds<T> {
    fn default() -> Self {
        InlineIds::new()
    }
}

impl<T> Deref for InlineIds<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for InlineIds<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: PartialEq> PartialEq for InlineIds<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for InlineIds<T> {}

impl<T: fmt::Debug> fmt::Debug for InlineIds<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default> FromIterator<T> for InlineIds<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut ids = InlineIds::new();
        for id in iter {
            ids.push(id);
        }
        ids
    }
}

impl<T: Copy + Default> From<Vec<T>> for InlineIds<T> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= INLINE {
            v.into_iter().collect()
        } else {
            InlineIds {
                repr: Repr::Spilled(v),
            }
        }
    }
}

impl<T: Copy + Default> From<&[T]> for InlineIds<T> {
    fn from(s: &[T]) -> Self {
        s.iter().copied().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for InlineIds<T> {
    fn from(a: [T; N]) -> Self {
        a.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a InlineIds<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NetId {
        NetId::from_index(i)
    }

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut pins = GateInputs::new();
        assert!(pins.is_inline());
        assert!(pins.is_empty());
        for i in 0..GateInputs::INLINE {
            pins.push(n(i));
            assert!(pins.is_inline(), "{i} pins must stay inline");
        }
        pins.push(n(99));
        assert!(!pins.is_inline());
        assert_eq!(pins.len(), GateInputs::INLINE + 1);
        assert_eq!(pins[GateInputs::INLINE], n(99));
    }

    #[test]
    fn slice_views_and_equality() {
        let a: GateInputs = vec![n(1), n(2), n(3)].into();
        let b: GateInputs = [n(1), n(2), n(3)].into();
        assert!(a.is_inline());
        assert_eq!(a, b);
        assert_eq!(a.as_slice(), &[n(1), n(2), n(3)]);
        assert_eq!(a.iter().count(), 3);
        // Mutation through DerefMut (used by `connect_dff_data`).
        let mut c = a.clone();
        c[0] = n(7);
        assert_ne!(c, a);
        assert_eq!(c[0], n(7));
        assert_eq!(format!("{c:?}"), format!("{:?}", c.as_slice()));
    }

    #[test]
    fn retain_keeps_order_inline_and_spilled() {
        let mut inline: Fanouts = (0..4).map(GateId::from_index).collect();
        inline.retain(|g| g.index() != 1);
        assert!(inline.is_inline());
        assert_eq!(
            inline.as_slice(),
            &[0, 2, 3].map(GateId::from_index),
            "inline retain compacts in order"
        );
        let mut spilled: Fanouts = (0..9).map(GateId::from_index).collect();
        spilled.retain(|g| g.index() % 2 == 0);
        spilled.shrink_to_fit();
        assert_eq!(spilled.as_slice(), &[0, 2, 4, 6, 8].map(GateId::from_index));
    }

    #[test]
    fn conversions_preserve_order_across_the_spill_boundary() {
        let wide: Vec<NetId> = (0..9).map(n).collect();
        let from_vec: GateInputs = wide.clone().into();
        let from_slice: GateInputs = wide.as_slice().into();
        let collected: GateInputs = wide.iter().copied().collect();
        assert!(!from_vec.is_inline());
        assert_eq!(from_vec, from_slice);
        assert_eq!(from_vec, collected);
        assert_eq!(from_vec.as_slice(), wide.as_slice());
    }
}
