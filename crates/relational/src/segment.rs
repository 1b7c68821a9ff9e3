//! Segmented append-only storage: the substrate that makes epoch
//! publication `O(batch)` instead of `O(database)`.
//!
//! The auditing workload is append-only by design — the access log only
//! grows — yet every published [`EpochVec`](crate::engine::EpochVec) used to pay
//! a full copy of every column (database clone + engine fork). A
//! [`SegVec`] removes that coupling: values accumulate in a small mutable
//! *tail* and are *sealed* into immutable, `Arc`-shared *segments* once
//! the tail reaches the segment capacity. Cloning a `SegVec` shares every
//! sealed segment by pointer and copies only the tail, so two epochs of an
//! append-only table share all but the most recent rows.
//!
//! [`LayeredMap`] is the companion structure for append-only *lookup*
//! state (the engine's value interner and the database's string pool,
//! whose lookup maps would otherwise be an `O(distinct values)` clone per
//! epoch): an LSM-style stack of `Arc`-shared layers plus a small mutable
//! tail. Inserts follow one rule: while the tail is empty and no clone
//! shares the newest layer, they go straight into that layer; otherwise
//! they go to the tail, which is sealed at capacity and merged
//! geometrically. A build that is never cloned (a cold engine, a string
//! pool filled at generation or replay) therefore ends as one layer, and
//! each lookup hashes the key once. A map written across published epochs
//! keeps `O(log n)` layers with a constant amortized merge cost.
//!
//! # Copy meter
//!
//! Publication cost claims need evidence, so both structures meter the
//! bytes their `Clone` impls actually copy into a thread-local counter
//! ([`copied_bytes`] / [`reset_copied_bytes`]). The storage-equivalence
//! suite and `eba_benchmark` read it to show copied bytes scale with the
//! ingested batch, not the database. (The meter counts element slots at
//! `size_of::<T>()` granularity — for indirect payloads such as boxed
//! rows it measures the copied handles, which scale identically.)

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Default number of rows per sealed segment. Small enough that the
/// mutable tail (the only part an epoch publication copies) stays a
/// bounded constant; large enough that segment lookup stays cheap and the
/// per-segment `Arc` overhead is noise.
pub const DEFAULT_SEGMENT_ROWS: usize = 1024;

std::thread_local! {
    static COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes copied by segmented-storage `Clone`s on this thread since the
/// last [`reset_copied_bytes`]. Epoch publication runs on the writer
/// thread, so metering an ingest is `reset → ingest → copied_bytes()`.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.with(|c| c.get())
}

/// Resets this thread's copy meter, returning the previous reading.
pub fn reset_copied_bytes() -> u64 {
    COPIED_BYTES.with(|c| c.replace(0))
}

fn note_copied(bytes: usize) {
    COPIED_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// An append-only vector stored as immutable `Arc`-shared segments plus a
/// small mutable tail. See the module docs.
///
/// Random access is `O(1)` in the common case (all sealed segments full):
/// the segment holding row `i` is found by guessing `i / segment_rows`
/// and scanning forward — segments never exceed the capacity, so the
/// guess never overshoots. Explicitly [`seal`](SegVec::seal)ed partial
/// segments (a test/ops affordance) lengthen that scan; the append path
/// only ever seals full segments.
#[derive(Debug)]
pub struct SegVec<T> {
    sealed: Vec<Arc<[T]>>,
    /// Cumulative end offset of each sealed segment (`ends.last()` is the
    /// total sealed length).
    ends: Vec<usize>,
    tail: Vec<T>,
    seg_rows: usize,
}

impl<T: Clone> Clone for SegVec<T> {
    fn clone(&self) -> Self {
        note_copied(self.tail.len() * std::mem::size_of::<T>());
        SegVec {
            sealed: self.sealed.clone(),
            ends: self.ends.clone(),
            tail: self.tail.clone(),
            seg_rows: self.seg_rows,
        }
    }
}

impl<T> SegVec<T> {
    /// An empty vector sealing segments at `seg_rows` elements.
    ///
    /// # Panics
    /// Panics when `seg_rows` is zero.
    pub fn new(seg_rows: usize) -> Self {
        assert!(seg_rows > 0, "segment capacity must be positive");
        SegVec {
            sealed: Vec::new(),
            ends: Vec::new(),
            tail: Vec::new(),
            seg_rows,
        }
    }

    /// The segment capacity this vector seals at.
    pub fn segment_rows(&self) -> usize {
        self.seg_rows
    }

    /// Total number of elements (sealed + tail).
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements living in sealed (shared) segments.
    pub fn sealed_len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The sealed segments, oldest first. Exposed so callers can assert
    /// `Arc::ptr_eq` sharing across clones (the storage-equivalence
    /// suite) and key caches per segment.
    pub fn sealed_segments(&self) -> &[Arc<[T]>] {
        &self.sealed
    }

    /// The row range `[start, end)` covered by sealed segment `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn segment_bounds(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (start, self.ends[i])
    }

    /// The mutable tail: elements appended since the last seal.
    pub fn tail(&self) -> &[T] {
        &self.tail
    }

    /// Appends an element, sealing the tail when it reaches capacity.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() >= self.seg_rows {
            self.seal_tail();
        }
    }

    /// Seals the current tail (if non-empty) into an immutable shared
    /// segment, even when it is below capacity. Appends continue into a
    /// fresh tail. Sealing never changes contents or indexes — it only
    /// moves the share boundary.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.seal_tail();
        }
    }

    fn seal_tail(&mut self) {
        let seg: Arc<[T]> = std::mem::take(&mut self.tail).into();
        let end = self.sealed_len() + seg.len();
        self.ends.push(end);
        self.sealed.push(seg);
    }

    /// Borrows the element at `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> &T {
        let sealed_len = self.sealed_len();
        if i >= sealed_len {
            return &self.tail[i - sealed_len];
        }
        // Segments never exceed `seg_rows`, so the true segment index is
        // at least `i / seg_rows`: scan forward only.
        let mut s = (i / self.seg_rows).min(self.ends.len() - 1);
        while self.ends[s] <= i {
            s += 1;
        }
        let start = if s == 0 { 0 } else { self.ends[s - 1] };
        &self.sealed[s][i - start]
    }

    /// Iterates over the storage as contiguous slices: every sealed
    /// segment, then the tail. The fast path for full scans — no
    /// per-element segment lookup.
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.sealed
            .iter()
            .map(|s| &s[..])
            .chain(std::iter::once(&self.tail[..]))
            .filter(|c| !c.is_empty())
    }

    /// Iterates over all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flatten()
    }

    /// Iterates `(index, &value)` over `[from, to)` chunk-wise — the fast
    /// path for range scans (no per-element segment resolution).
    pub fn iter_range(&self, from: usize, to: usize) -> impl Iterator<Item = (usize, &T)> {
        let mut start = 0usize;
        self.chunks()
            .filter_map(move |chunk| {
                let chunk_start = start;
                start += chunk.len();
                let lo = from.max(chunk_start);
                let hi = to.min(chunk_start + chunk.len());
                (lo < hi).then(|| {
                    chunk[lo - chunk_start..hi - chunk_start]
                        .iter()
                        .enumerate()
                        .map(move |(i, v)| (lo + i, v))
                })
            })
            .flatten()
    }
}

impl<T> std::ops::Index<usize> for SegVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i)
    }
}

/// Default tail capacity of a [`LayeredMap`] (entries buffered before a
/// layer is sealed and merged).
const LAYER_TAIL_CAP: usize = 1024;

/// An append-only map stored as `Arc`-shared layers plus a small mutable
/// tail, LSM-style: sealing pushes the tail as a new layer and merges
/// adjacent layers of similar size, so the stack stays `O(log n)` deep and
/// the amortized merge cost per insert is constant.
///
/// Cloning shares every layer and copies only the tail — the property
/// epoch publication needs from the engine's value interner, whose
/// reverse map would otherwise cost `O(distinct values)` per fork.
///
/// An insert goes straight into the newest layer when the tail is empty
/// and that layer is uniquely owned (`Arc::get_mut` succeeds); otherwise
/// it takes the tail path above. This is safe because uniqueness is
/// checked at each write: a layer that a clone (a fork, a published
/// epoch) also holds is never written, so every clone keeps seeing
/// exactly the entries it had, and the writer falls back to its own tail.
/// A map that is never cloned fills one tail, seals it once and then
/// grows that one layer, so a lookup costs one hash instead of one per
/// layer, and no merge rehashes what it already holds. Compaction follows
/// both kinds of write, so a layer grown past the one beneath it merges
/// as a sealed tail would, and a map forked every epoch stays `O(log n)`
/// deep.
///
/// Keys are expected to be inserted at most once (the interner checks
/// [`get`](LayeredMap::get) first); a re-inserted key shadows the layered
/// entry while in the tail but may resurface after a merge.
#[derive(Debug)]
pub struct LayeredMap<K, V> {
    /// Older (larger) layers first.
    layers: Vec<Arc<HashMap<K, V>>>,
    tail: HashMap<K, V>,
    total: usize,
    tail_cap: usize,
}

impl<K: Clone, V: Clone> Clone for LayeredMap<K, V> {
    fn clone(&self) -> Self {
        note_copied(self.tail.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>()));
        LayeredMap {
            layers: self.layers.clone(),
            tail: self.tail.clone(),
            total: self.total,
            tail_cap: self.tail_cap,
        }
    }
}

impl<K, V> Default for LayeredMap<K, V> {
    fn default() -> Self {
        LayeredMap {
            layers: Vec::new(),
            tail: HashMap::new(),
            total: 0,
            tail_cap: LAYER_TAIL_CAP,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LayeredMap<K, V> {
    /// An empty map with the default tail capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map sealing its tail into a layer every `tail_cap`
    /// entries (tests use tiny capacities so sharing kicks in on small
    /// data).
    pub fn with_tail_cap(tail_cap: usize) -> Self {
        LayeredMap {
            tail_cap: tail_cap.max(1),
            ..Self::default()
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no entry has been inserted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Looks a key up: the tail first, then layers newest-first. Accepts
    /// any borrowed form of the key (`&str` for `Box<str>` keys), like
    /// `HashMap::get`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if let Some(v) = self.tail.get(key) {
            return Some(v);
        }
        self.layers.iter().rev().find_map(|layer| layer.get(key))
    }

    /// Inserts a (fresh) key: into the newest layer while the tail is
    /// empty and no clone shares that layer, else into the tail, sealing
    /// and merging layers when the tail reaches capacity.
    pub fn insert(&mut self, key: K, value: V) {
        debug_assert!(
            self.get(&key).is_none(),
            "LayeredMap keys are insert-once (a re-insert shadows the \
             layered entry only until the next merge)"
        );
        // While no clone shares the newest layer, it is this map's alone:
        // writing into it keeps a build that is never forked at one layer,
        // so a lookup hashes the key once. A shared layer is never written.
        if self.tail.is_empty() {
            if let Some(top) = self.layers.last_mut().and_then(Arc::get_mut) {
                if top.insert(key, value).is_none() {
                    self.total += 1;
                }
                self.compact();
                return;
            }
        }
        if self.tail.insert(key, value).is_none() {
            self.total += 1;
        }
        if self.tail.len() >= self.tail_cap {
            self.layers.push(Arc::new(std::mem::take(&mut self.tail)));
            self.compact();
        }
    }

    /// Geometric compaction: merges while the next-older layer is no
    /// larger than the newest one, whether a freshly sealed tail or an
    /// unshared layer that inserts grew. Without the second case a map
    /// forked every epoch would stack one layer per seal, since each
    /// fork grows the layer it sealed past the next seal's size.
    fn compact(&mut self) {
        while self.layers.len() >= 2 {
            let n = self.layers.len();
            if self.layers[n - 2].len() > self.layers[n - 1].len() {
                break;
            }
            let newer = self.layers.pop().expect("len >= 2");
            let older = self.layers.pop().expect("len >= 2");
            let mut merged = Arc::unwrap_or_clone(older);
            merged.extend(newer.iter().map(|(k, v)| (k.clone(), v.clone())));
            self.layers.push(Arc::new(merged));
        }
    }

    /// Number of immutable layers currently stacked (diagnostics).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The immutable layers themselves, oldest first. Exposed so the
    /// cross-epoch sharing suite can assert `Arc::ptr_eq` between clones
    /// — the same invariant [`SegVec::sealed_segments`] exposes for rows.
    pub fn layers(&self) -> &[Arc<HashMap<K, V>>] {
        &self.layers
    }

    /// Seals the current tail into a layer (without the geometric merge),
    /// so clones made afterwards share everything inserted so far. The
    /// explicit form for snapshot/ops flows and sharing tests; the insert
    /// path seals and merges automatically at the tail capacity.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.layers.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_and_iterate_across_segments() {
        let mut v: SegVec<u32> = SegVec::new(4);
        for i in 0..11 {
            v.push(i);
        }
        assert_eq!(v.len(), 11);
        assert_eq!(v.sealed_len(), 8);
        assert_eq!(v.sealed_segments().len(), 2);
        assert_eq!(v.tail(), &[8, 9, 10]);
        for i in 0..11 {
            assert_eq!(*v.get(i as usize), i);
            assert_eq!(v[i as usize], i);
        }
        let all: Vec<u32> = v.iter().copied().collect();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
        let chunk_lens: Vec<usize> = v.chunks().map(<[u32]>::len).collect();
        assert_eq!(chunk_lens, vec![4, 4, 3]);
    }

    #[test]
    fn clone_shares_sealed_segments_and_copies_the_tail() {
        let mut v: SegVec<u32> = SegVec::new(4);
        for i in 0..10 {
            v.push(i);
        }
        reset_copied_bytes();
        let c = v.clone();
        // Two tail elements were copied; the two sealed segments were
        // shared by pointer.
        assert_eq!(copied_bytes(), 2 * 4);
        for (a, b) in v.sealed_segments().iter().zip(c.sealed_segments()) {
            assert!(Arc::ptr_eq(a, b));
        }
        // Diverging appends never touch shared segments.
        v.push(77);
        assert_eq!(*c.get(9), 9);
        assert_eq!(c.len(), 10);
        assert_eq!(v.len(), 11);
    }

    #[test]
    fn iter_range_walks_chunk_boundaries_exactly() {
        let mut v: SegVec<u32> = SegVec::new(4);
        for i in 0..11 {
            v.push(i);
        }
        for (from, to) in [(0, 11), (3, 9), (4, 8), (5, 5), (10, 11), (0, 1)] {
            let got: Vec<(usize, u32)> = v.iter_range(from, to).map(|(i, &x)| (i, x)).collect();
            let want: Vec<(usize, u32)> = (from..to).map(|i| (i, i as u32)).collect();
            assert_eq!(got, want, "range [{from}, {to})");
        }
        assert_eq!(v.iter_range(11, 11).count(), 0);
    }

    #[test]
    fn explicit_seal_freezes_a_partial_segment() {
        let mut v: SegVec<u32> = SegVec::new(100);
        v.push(1);
        v.push(2);
        v.seal();
        v.seal(); // idempotent on an empty tail
        v.push(3);
        assert_eq!(v.sealed_segments().len(), 1);
        assert_eq!(v.segment_bounds(0), (0, 2));
        assert_eq!(*v.get(0), 1);
        assert_eq!(*v.get(1), 2);
        assert_eq!(*v.get(2), 3);
        // Irregular (short) segments still resolve via the forward scan.
        for i in 0..200 {
            v.push(100 + i);
        }
        assert_eq!(*v.get(2), 3);
        assert_eq!(*v.get(202), 299);
    }

    #[test]
    fn layered_map_round_trips_and_shares_layers() {
        let mut m: LayeredMap<u64, u32> = LayeredMap::new();
        let n = (LAYER_TAIL_CAP * 3 + 17) as u64;
        for i in 0..n {
            assert!(m.get(&i).is_none());
            m.insert(i, i as u32 * 2);
        }
        assert_eq!(m.len(), n as usize);
        for i in 0..n {
            assert_eq!(m.get(&i), Some(&(i as u32 * 2)));
        }
        assert!(m.get(&(n + 1)).is_none());
        // Geometric compaction keeps the stack logarithmic.
        assert!(m.layer_count() <= 2 + (n as f64).log2() as usize);
        reset_copied_bytes();
        let c = m.clone();
        // Only the tail was copied: far less than the whole map.
        assert!(copied_bytes() < n * 12 / 2);
        for i in 0..n {
            assert_eq!(c.get(&i), Some(&(i as u32 * 2)));
        }
    }

    #[test]
    fn layered_map_built_without_a_clone_is_one_layer() {
        let cap = 8;
        let mut m: LayeredMap<u64, u32> = LayeredMap::with_tail_cap(cap);
        for i in 0..(cap as u64 * 50) {
            m.insert(i, i as u32);
        }
        assert_eq!(m.layer_count(), 1, "one seal, then the layer grows");
        assert!(m.tail.is_empty());
        for i in 0..(cap as u64 * 50) {
            assert_eq!(m.get(&i), Some(&(i as u32)));
        }
        // A clone shares that layer, so neither side writes it again.
        let mut c = m.clone();
        c.insert(1_000, 7);
        m.insert(2_000, 9);
        assert!(Arc::ptr_eq(&m.layers()[0], &c.layers()[0]));
        assert_eq!(m.layers()[0].len(), cap * 50);
        assert_eq!((m.get(&1_000), c.get(&2_000)), (None, None));
        assert_eq!((m.get(&2_000), c.get(&1_000)), (Some(&9), Some(&7)));
    }

    /// The writer's pattern: every epoch forks the published map, inserts
    /// a batch into the fork and publishes it in place of the old one.
    /// Layers the fork creates are its own until the next fork, so the
    /// rule writes into them; the stack must still stay logarithmic.
    #[test]
    fn layered_map_forked_every_epoch_keeps_few_layers() {
        let cap = 16u64;
        let mut published: LayeredMap<u64, u32> = LayeredMap::with_tail_cap(cap as usize);
        let mut next = 0u64;
        for _ in 0..cap * 40 {
            published.insert(next, next as u32);
            next += 1;
        }
        for batch in [7, 23, 31] {
            for _ in 0..300 {
                let mut fork = published.clone();
                for _ in 0..batch {
                    fork.insert(next, next as u32);
                    next += 1;
                }
                published = fork;
            }
        }
        let bound = 2 + (next as f64 / cap as f64).log2() as usize;
        assert!(
            published.layer_count() <= bound,
            "{} layers over {next} keys (bound {bound})",
            published.layer_count()
        );
        for k in (0..next).step_by(97) {
            assert_eq!(published.get(&k), Some(&(k as u32)));
        }
    }

    /// One side of a [`layered_map_writes_only_unshared_layers`] run: the
    /// map, the keys it was given in order, and the value each key got
    /// (its position, as the interner numbers ids).
    struct Side {
        map: LayeredMap<u64, u32>,
        keys: Vec<u64>,
    }

    impl Side {
        fn insert(&mut self, key: u64) {
            self.map.insert(key, self.keys.len() as u32);
            self.keys.push(key);
        }
    }

    /// The layers two sides shared at a clone point: their addresses and
    /// sizes (not the `Arc`s, which would make every layer look shared),
    /// the tail both sides copied, and how many keys each side held.
    struct ClonePoint {
        sides: [usize; 2],
        layers: Vec<(*const HashMap<u64, u32>, usize)>,
        tail: usize,
        held: [usize; 2],
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The insert rule against clones: every side answers exactly its
        /// own keys with the ids a never-cloned build gives them, and the
        /// layers a clone point shared stay shared by pointer, as a
        /// prefix, on both sides.
        #[test]
        fn layered_map_writes_only_unshared_layers(
            tail_cap in 1usize..10,
            n in 0usize..240,
            points in proptest::collection::vec(0usize..240, 0..4),
            per_clone in 0usize..48,
        ) {
            let mut points: Vec<usize> = points.into_iter().map(|p| p.min(n)).collect();
            points.sort_unstable();
            let mut sides = vec![Side {
                map: LayeredMap::with_tail_cap(tail_cap),
                keys: Vec::new(),
            }];
            let mut clone_points: Vec<ClonePoint> = Vec::new();
            let mut next = points.iter().peekable();
            for key in 0..=n as u64 {
                while next.next_if(|&&p| p as u64 == key).is_some() {
                    let clone = Side {
                        map: sides[0].map.clone(),
                        keys: sides[0].keys.clone(),
                    };
                    sides.push(clone);
                    let c = sides.len() - 1;
                    clone_points.push(ClonePoint {
                        sides: [0, c],
                        layers: sides[0]
                            .map
                            .layers()
                            .iter()
                            .map(|l| (Arc::as_ptr(l), l.len()))
                            .collect(),
                        tail: sides[0].map.tail.len(),
                        held: [sides[0].keys.len(); 2],
                    });
                    // After each clone point every clone gains keys of its own.
                    for (s, side) in sides.iter_mut().enumerate().skip(1) {
                        for _ in 0..per_clone {
                            side.insert(((s as u64) << 32) | side.keys.len() as u64);
                        }
                    }
                }
                if key < n as u64 {
                    sides[0].insert(key);
                }
            }
            let all: Vec<u64> = sides.iter().flat_map(|s| s.keys.iter().copied()).collect();
            for (s, side) in sides.iter().enumerate() {
                let mut never_cloned = LayeredMap::with_tail_cap(tail_cap);
                for (id, &k) in side.keys.iter().enumerate() {
                    never_cloned.insert(k, id as u32);
                }
                prop_assert_eq!(side.map.len(), side.keys.len());
                for &k in &all {
                    prop_assert_eq!(side.map.get(&k), never_cloned.get(&k), "side {} key {:#x}", s, k);
                }
                if side.keys.len() >= tail_cap {
                    prop_assert_eq!(never_cloned.layer_count(), 1);
                }
            }
            for point in &clone_points {
                for (i, &s) in point.sides.iter().enumerate() {
                    // A shared layer leaves a side only through a merge, and
                    // a merge takes layer j only when the layer above it holds
                    // at least as many keys: the tail both sides copied, this
                    // side's keys since the clone, and the shared layers above
                    // j. So every layer larger than all of that stays.
                    let since = point.tail + sides[s].keys.len() - point.held[i];
                    let mut above = 0;
                    let mut kept = 0;
                    for (j, &(_, len)) in point.layers.iter().enumerate().rev() {
                        if len > since + above {
                            kept = j + 1;
                            break;
                        }
                        above += len;
                    }
                    let now = sides[s].map.layers();
                    prop_assert!(now.len() >= kept, "side {} lost shared layers", s);
                    for (j, &(ptr, _)) in point.layers[..kept].iter().enumerate() {
                        prop_assert!(
                            std::ptr::eq(Arc::as_ptr(&now[j]), ptr),
                            "side {} copied shared layer {} instead of sharing it",
                            s,
                            j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn copy_meter_is_per_thread_and_resets() {
        reset_copied_bytes();
        let mut v: SegVec<u64> = SegVec::new(8);
        v.push(1);
        let _ = v.clone();
        assert_eq!(copied_bytes(), 8);
        assert_eq!(reset_copied_bytes(), 8);
        assert_eq!(copied_bytes(), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = v.clone();
                assert_eq!(copied_bytes(), 8, "child thread has its own meter");
            });
        });
        assert_eq!(copied_bytes(), 0, "parent meter unaffected");
    }
}
