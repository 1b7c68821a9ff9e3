//! String interning.
//!
//! All string values stored in a [`crate::Database`] are interned in a
//! [`StringPool`], so a [`crate::Value`] stays `Copy` and hash-joins never
//! compare string bytes. Interning also matches how the audited hospital
//! data looks in practice: low-cardinality coded strings (department codes,
//! action codes) repeated across millions of rows.
//!
//! The pool is stored segmented, like every other append-only structure
//! that crosses an epoch boundary: symbol → string resolution lives in a
//! [`SegVec`] (sealed segments `Arc`-shared between [`crate::Database`]
//! clones), string → symbol lookup in an LSM-style [`LayeredMap`]. Before
//! this, every epoch publication deep-copied the whole pool — the one
//! remaining `O(database)` clone after the PR 5 segmentation pass.

use crate::segment::{LayeredMap, SegVec, DEFAULT_SEGMENT_ROWS};
use std::collections::HashMap;
use std::sync::Arc;

/// An interned string handle.
///
/// Symbols are only meaningful relative to the [`StringPool`] (and therefore
/// the [`crate::Database`]) that produced them. Equality of symbols from the
/// same pool is equality of the underlying strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// An append-only string interner with epoch-shareable storage: cloning
/// shares every sealed segment and lookup layer, copying only the small
/// mutable tails (metered by the segment copy meter like all segmented
/// state).
#[derive(Debug, Clone)]
pub struct StringPool {
    strings: SegVec<Box<str>>,
    lookup: LayeredMap<Box<str>, Symbol>,
}

impl Default for StringPool {
    fn default() -> Self {
        Self::with_granularity(DEFAULT_SEGMENT_ROWS)
    }
}

impl StringPool {
    /// Creates an empty pool with the default segment granularity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool sealing its segments (and lookup layers) every
    /// `granularity` strings — tests use tiny granularities so sharing
    /// kicks in on small data.
    pub fn with_granularity(granularity: usize) -> Self {
        let granularity = granularity.max(1);
        StringPool {
            strings: SegVec::new(granularity),
            lookup: LayeredMap::with_tail_cap(granularity),
        }
    }

    /// Interns `s`, returning its symbol. Re-interning an existing string
    /// returns the same symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("more than u32::MAX strings"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Looks up a symbol for `s` without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol did not come from this pool.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.strings.get(sym.0 as usize)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Seals the mutable tails into shared segments/layers, so clones made
    /// afterwards share everything interned so far. Symbols are unchanged.
    pub fn seal(&mut self) {
        self.strings.seal();
        self.lookup.seal();
    }

    /// The sealed string segments, oldest first — exposed (like
    /// [`crate::Table::sealed_row_segments`]) so the cross-epoch sharing
    /// suite can assert clones share them by pointer.
    pub fn sealed_segments(&self) -> &[Arc<[Box<str>]>] {
        self.strings.sealed_segments()
    }

    /// The sealed lookup layers, oldest first (same sharing assertion,
    /// reverse direction).
    pub fn lookup_layers(&self) -> &[Arc<HashMap<Box<str>, Symbol>>] {
        self.lookup.layers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips() {
        let mut pool = StringPool::new();
        let a = pool.intern("Pediatrics");
        let b = pool.intern("Nursing-Pediatrics");
        assert_ne!(a, b);
        assert_eq!(pool.resolve(a), "Pediatrics");
        assert_eq!(pool.resolve(b), "Nursing-Pediatrics");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut pool = StringPool::new();
        let a = pool.intern("Radiology");
        let b = pool.intern("Radiology");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let mut pool = StringPool::new();
        assert!(pool.get("x").is_none());
        assert!(pool.is_empty());
        pool.intern("x");
        assert_eq!(pool.get("x"), Some(Symbol(0)));
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut pool = StringPool::new();
        let e = pool.intern("");
        assert_eq!(pool.resolve(e), "");
    }

    #[test]
    fn clones_share_sealed_segments_and_layers() {
        let mut pool = StringPool::with_granularity(4);
        for i in 0..10 {
            pool.intern(&format!("s{i}"));
        }
        let clone = pool.clone();
        assert!(!pool.sealed_segments().is_empty());
        for (a, b) in pool.sealed_segments().iter().zip(clone.sealed_segments()) {
            assert!(Arc::ptr_eq(a, b), "sealed strings copied instead of shared");
        }
        assert!(!pool.lookup_layers().is_empty());
        for (a, b) in pool.lookup_layers().iter().zip(clone.lookup_layers()) {
            assert!(Arc::ptr_eq(a, b), "lookup layers copied instead of shared");
        }
        // Symbols stay aligned across the divergence point.
        let mut diverged = pool.clone();
        let new_in_clone = diverged.intern("only-in-clone");
        assert_eq!(pool.len() as u32, new_in_clone.0);
        for i in 0..10 {
            let s = format!("s{i}");
            assert_eq!(pool.get(&s), diverged.get(&s));
        }
    }

    #[test]
    fn pool_layered_map_is_one_layer_until_cloned() {
        let mut pool = StringPool::with_granularity(16);
        for i in 0..500 {
            pool.intern(&format!("s{i}"));
        }
        assert_eq!(pool.lookup_layers().len(), 1);
        assert_eq!(pool.lookup_layers()[0].len(), 500);
        // A clone interns into its own tail; the shared layer stays as is.
        let mut clone = pool.clone();
        assert_eq!(clone.intern("only-in-clone"), Symbol(500));
        assert_eq!(pool.intern("only-in-pool"), Symbol(500));
        assert!(Arc::ptr_eq(
            &pool.lookup_layers()[0],
            &clone.lookup_layers()[0]
        ));
        assert_eq!(pool.lookup_layers()[0].len(), 500);
        assert_eq!(pool.get("only-in-clone"), None);
        assert_eq!(clone.get("only-in-pool"), None);
    }

    #[test]
    fn seal_freezes_partial_tails_without_renumbering() {
        let mut pool = StringPool::with_granularity(100);
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert!(pool.sealed_segments().is_empty());
        pool.seal();
        assert_eq!(pool.sealed_segments().len(), 1);
        assert_eq!(pool.lookup_layers().len(), 1);
        assert_eq!(pool.resolve(a), "a");
        assert_eq!(pool.get("b"), Some(b));
        let c = pool.intern("c");
        assert_eq!(c, Symbol(2));
        pool.seal();
        pool.seal(); // idempotent on an empty tail
        assert_eq!(pool.sealed_segments().len(), 2);
    }
}
