//! Compressed row-id sets: a Roaring-style chunked bitmap over `u32` row
//! ids.
//!
//! The audit layer's central artifacts are *sets of log rows* — the rows a
//! template suite explains, the anchor rows under audit, their difference
//! (the unexplained residue). Historically those flowed around as sorted
//! `Vec<u32>`s and `HashSet<u32>`s, re-sorted and re-hashed at every
//! layer. A [`RowSet`] stores the same sets in the two-level layout
//! popularized by Roaring bitmaps:
//!
//! * rows are partitioned by their **high 16 bits** (`row >> 16`) into
//!   containers of up to 65 536 consecutive ids;
//! * a sparse container is a sorted `Vec<u16>` of the low bits (an
//!   **array** container); once it would exceed [`ARRAY_MAX`] entries it
//!   is promoted to a 1024-word **bitmap** container (8 KiB, one bit per
//!   possible low value). A bitmap container whose population falls back
//!   to [`ARRAY_MAX`] or below demotes on the next mutation that shrinks
//!   it.
//!
//! The break-even point is the classic one: an array of N `u16`s costs
//! `2N` bytes, the bitmap costs 8192 bytes, so arrays win below ~4096
//! elements and bitmaps win above.
//!
//! Set algebra ([`union_with`](RowSet::union_with),
//! [`intersect`](RowSet::intersect), [`difference`](RowSet::difference))
//! works container-by-container — word-wise `|`/`&`/`&!` when both sides
//! are bitmaps — and union is **associative and commutative**, which is
//! what makes a `RowSet` the natural fan-in payload: each slice of the
//! engine's anchor-range split returns its explained rows as a bitmap and
//! the driver folds them together in any order ([`RowSet::union_all`]).
//!
//! Iteration ([`iter`](RowSet::iter)) yields rows in ascending order, so
//! converting to the legacy sorted-`Vec<u32>` form
//! ([`to_vec`](RowSet::to_vec)) needs no sort, and a set built from rows
//! inserted in *any* order still reads out sorted — the fused suite
//! evaluator exploits this by emitting rows in group-iteration order.
//! [`rank`](RowSet::rank) (how many set rows are `< row`) is a popcount
//! walk, giving day-bucketing and pagination a counting primitive that
//! never materializes the set.

/// Array containers hold at most this many entries; the 4096-element
/// break-even point of `2 bytes/entry` array vs fixed 8 KiB bitmap.
pub const ARRAY_MAX: usize = 4096;

/// Words in a bitmap container: 65 536 bits.
const BITMAP_WORDS: usize = 1024;

/// One container: the low 16 bits of every row sharing a high half.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated low halves; `len <= ARRAY_MAX`.
    Array(Vec<u16>),
    /// One bit per possible low half, plus the cached population count.
    Bitmap {
        words: Box<[u64; BITMAP_WORDS]>,
        len: u32,
    },
}

impl Container {
    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { len, .. } => *len as usize,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bitmap { words, .. } => words[low as usize / 64] & (1u64 << (low % 64)) != 0,
        }
    }

    /// Inserts `low`; returns true when it was new. Promotes to a bitmap
    /// when the array form would exceed [`ARRAY_MAX`].
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() == ARRAY_MAX {
                        let mut words = Box::new([0u64; BITMAP_WORDS]);
                        for &x in v.iter() {
                            words[x as usize / 64] |= 1u64 << (x % 64);
                        }
                        words[low as usize / 64] |= 1u64 << (low % 64);
                        *self = Container::Bitmap {
                            words,
                            len: ARRAY_MAX as u32 + 1,
                        };
                        true
                    } else {
                        v.insert(pos, low);
                        true
                    }
                }
            },
            Container::Bitmap { words, len } => {
                let (w, bit) = (low as usize / 64, 1u64 << (low % 64));
                if words[w] & bit != 0 {
                    false
                } else {
                    words[w] |= bit;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// Number of entries strictly below `low`.
    fn rank_below(&self, low: u16) -> usize {
        match self {
            Container::Array(v) => v.partition_point(|&x| x < low),
            Container::Bitmap { words, .. } => {
                let (w, b) = (low as usize / 64, low as usize % 64);
                let mut count = words[..w].iter().map(|x| x.count_ones() as usize).sum();
                if b > 0 {
                    count += (words[w] & ((1u64 << b) - 1)).count_ones() as usize;
                }
                count
            }
        }
    }

    fn to_bitmap_words(&self) -> Box<[u64; BITMAP_WORDS]> {
        match self {
            Container::Array(v) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                for &x in v.iter() {
                    words[x as usize / 64] |= 1u64 << (x % 64);
                }
                words
            }
            Container::Bitmap { words, .. } => words.clone(),
        }
    }

    /// Demotes a bitmap back to an array when it fits, so `difference`
    /// and `intersect` results use the compact form the population
    /// calls for.
    fn normalize(self) -> Container {
        match self {
            Container::Bitmap { ref words, len } if (len as usize) <= ARRAY_MAX => {
                let mut v = Vec::with_capacity(len as usize);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        v.push((w * 64 + b as usize) as u16);
                        bits &= bits - 1;
                    }
                }
                Container::Array(v)
            }
            other => other,
        }
    }

    /// In-place union with `other`.
    fn union_with(&mut self, other: &Container) {
        match (&mut *self, other) {
            (Container::Bitmap { words, len }, Container::Bitmap { words: ow, .. }) => {
                let mut n = 0u32;
                for (a, b) in words.iter_mut().zip(ow.iter()) {
                    *a |= *b;
                    n += a.count_ones();
                }
                *len = n;
            }
            (Container::Bitmap { words, len }, Container::Array(ov)) => {
                for &x in ov.iter() {
                    let (w, bit) = (x as usize / 64, 1u64 << (x % 64));
                    if words[w] & bit == 0 {
                        words[w] |= bit;
                        *len += 1;
                    }
                }
            }
            (Container::Array(v), Container::Array(ov)) => {
                if v.len() + ov.len() <= ARRAY_MAX {
                    // Merge two sorted arrays; stays an array.
                    let mut merged = Vec::with_capacity(v.len() + ov.len());
                    let (mut i, mut j) = (0, 0);
                    while i < v.len() && j < ov.len() {
                        match v[i].cmp(&ov[j]) {
                            std::cmp::Ordering::Less => {
                                merged.push(v[i]);
                                i += 1;
                            }
                            std::cmp::Ordering::Greater => {
                                merged.push(ov[j]);
                                j += 1;
                            }
                            std::cmp::Ordering::Equal => {
                                merged.push(v[i]);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    merged.extend_from_slice(&v[i..]);
                    merged.extend_from_slice(&ov[j..]);
                    *v = merged;
                } else {
                    // Could exceed ARRAY_MAX: go through the bitmap form
                    // (normalize demotes if the merge stayed small).
                    let mut words = Box::new([0u64; BITMAP_WORDS]);
                    for &x in v.iter() {
                        words[x as usize / 64] |= 1u64 << (x % 64);
                    }
                    let mut len = v.len() as u32;
                    for &x in ov.iter() {
                        let (w, bit) = (x as usize / 64, 1u64 << (x % 64));
                        if words[w] & bit == 0 {
                            words[w] |= bit;
                            len += 1;
                        }
                    }
                    *self = Container::Bitmap { words, len }.normalize();
                }
            }
            (a @ Container::Array(_), Container::Bitmap { .. }) => {
                let arr = std::mem::replace(a, Container::Array(Vec::new()));
                let mut merged = Container::Bitmap {
                    words: other.to_bitmap_words(),
                    len: other.len() as u32,
                };
                merged.union_with(&arr);
                *a = merged;
            }
        }
    }

    /// `self ∩ other` (normalized).
    fn intersect(&self, other: &Container) -> Option<Container> {
        let out = match (self, other) {
            (Container::Bitmap { words: a, .. }, Container::Bitmap { words: b, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut len = 0u32;
                for (o, (&x, &y)) in words.iter_mut().zip(a.iter().zip(b.iter())) {
                    *o = x & y;
                    len += o.count_ones();
                }
                Container::Bitmap { words, len }.normalize()
            }
            (Container::Array(v), b) => {
                Container::Array(v.iter().copied().filter(|&x| b.contains(x)).collect())
            }
            (a @ Container::Bitmap { .. }, Container::Array(v)) => {
                Container::Array(v.iter().copied().filter(|&x| a.contains(x)).collect())
            }
        };
        (out.len() > 0).then_some(out)
    }

    /// `self \ other` (normalized).
    fn difference(&self, other: &Container) -> Option<Container> {
        let out = match (self, other) {
            (Container::Bitmap { words: a, .. }, Container::Bitmap { words: b, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut len = 0u32;
                for (o, (&x, &y)) in words.iter_mut().zip(a.iter().zip(b.iter())) {
                    *o = x & !y;
                    len += o.count_ones();
                }
                Container::Bitmap { words, len }.normalize()
            }
            (Container::Array(v), b) => {
                Container::Array(v.iter().copied().filter(|&x| !b.contains(x)).collect())
            }
            (a @ Container::Bitmap { .. }, Container::Array(v)) => {
                let mut words = a.to_bitmap_words();
                let mut len = a.len() as u32;
                for &x in v.iter() {
                    let (w, bit) = (x as usize / 64, 1u64 << (x % 64));
                    if words[w] & bit != 0 {
                        words[w] &= !bit;
                        len -= 1;
                    }
                }
                Container::Bitmap { words, len }.normalize()
            }
        };
        (out.len() > 0).then_some(out)
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bitmap { words, .. } => ContainerIter::Bitmap {
                words,
                word_idx: 0,
                bits: words[0],
            },
        }
    }

    /// Ascending iteration over the entries `>= low`.
    fn iter_from(&self, low: u16) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => {
                ContainerIter::Array(v[v.partition_point(|&x| x < low)..].iter())
            }
            Container::Bitmap { words, .. } => {
                let (w, b) = (low as usize / 64, low as usize % 64);
                ContainerIter::Bitmap {
                    words,
                    word_idx: w,
                    bits: words[w] & (u64::MAX << b),
                }
            }
        }
    }

    /// `|self ∩ other|` without materializing the intersection.
    fn intersect_len(&self, other: &Container) -> usize {
        match (self, other) {
            (Container::Bitmap { words: a, .. }, Container::Bitmap { words: b, .. }) => a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| (x & y).count_ones() as usize)
                .sum(),
            (Container::Array(v), b) => v.iter().filter(|&&x| b.contains(x)).count(),
            (a @ Container::Bitmap { .. }, Container::Array(v)) => {
                v.iter().filter(|&&x| a.contains(x)).count()
            }
        }
    }
}

enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitmap {
        words: &'a [u64; BITMAP_WORDS],
        word_idx: usize,
        bits: u64,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitmap {
                words,
                word_idx,
                bits,
            } => loop {
                if *bits != 0 {
                    let b = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some((*word_idx * 64 + b as usize) as u16);
                }
                if *word_idx + 1 >= BITMAP_WORDS {
                    return None;
                }
                *word_idx += 1;
                *bits = words[*word_idx];
            },
        }
    }
}

/// A compressed set of `u32` row ids. See the module docs for the
/// container layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    /// `(high half, container)`, sorted by high half, no empty containers.
    containers: Vec<(u16, Container)>,
}

impl RowSet {
    /// The empty set.
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.containers.iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Index of the container for `high`, or where to insert one.
    #[inline]
    fn find(&self, high: u16) -> std::result::Result<usize, usize> {
        self.containers.binary_search_by_key(&high, |(h, _)| *h)
    }

    /// Inserts `row`; returns true when it was not already present.
    pub fn insert(&mut self, row: u32) -> bool {
        let (high, low) = ((row >> 16) as u16, row as u16);
        match self.find(high) {
            Ok(i) => self.containers[i].1.insert(low),
            Err(i) => {
                self.containers
                    .insert(i, (high, Container::Array(vec![low])));
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, row: u32) -> bool {
        match self.find((row >> 16) as u16) {
            Ok(i) => self.containers[i].1.contains(row as u16),
            Err(_) => false,
        }
    }

    /// Number of set rows strictly less than `row` — the set's sorted
    /// position of `row`. `rank(u32::MAX)` plus membership of `u32::MAX`
    /// recovers `len()`.
    pub fn rank(&self, row: u32) -> usize {
        let (high, low) = ((row >> 16) as u16, row as u16);
        match self.find(high) {
            Ok(i) => {
                let below: usize = self.containers[..i].iter().map(|(_, c)| c.len()).sum();
                below + self.containers[i].1.rank_below(low)
            }
            Err(i) => self.containers[..i].iter().map(|(_, c)| c.len()).sum(),
        }
    }

    /// In-place union: `self ∪= other`. Associative and commutative
    /// across any fold order, which is what makes per-slice row sets
    /// safely mergeable at the fan-in.
    pub fn union_with(&mut self, other: &RowSet) {
        for (high, oc) in &other.containers {
            match self.find(*high) {
                Ok(i) => self.containers[i].1.union_with(oc),
                Err(i) => self.containers.insert(i, (*high, oc.clone())),
            }
        }
    }

    /// Folds any number of sets into one (associative merge).
    pub fn union_all<I: IntoIterator<Item = RowSet>>(sets: I) -> RowSet {
        let mut iter = sets.into_iter();
        let mut acc = iter.next().unwrap_or_default();
        for s in iter {
            // Merge the smaller into the larger.
            if s.len() > acc.len() {
                let mut s = s;
                s.union_with(&acc);
                acc = s;
            } else {
                acc.union_with(&s);
            }
        }
        acc
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::new();
        for (high, c) in &self.containers {
            if let Ok(j) = other.find(*high) {
                if let Some(r) = c.intersect(&other.containers[j].1) {
                    out.push((*high, r));
                }
            }
        }
        RowSet { containers: out }
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::new();
        for (high, c) in &self.containers {
            match other.find(*high) {
                Ok(j) => {
                    if let Some(r) = c.difference(&other.containers[j].1) {
                        out.push((*high, r));
                    }
                }
                Err(_) => out.push((*high, c.clone())),
            }
        }
        RowSet { containers: out }
    }

    /// Ascending iteration over the rows.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.containers.iter().flat_map(|(high, c)| {
            let base = (*high as u32) << 16;
            c.iter().map(move |low| base | low as u32)
        })
    }

    /// Ascending iteration over the rows `>= row` (inclusive). This is
    /// the pagination primitive: a listing that resumes "after cursor
    /// `c`" is `iter_from(c + 1)` — containers wholly below the cursor
    /// are skipped by binary search, never walked, so emitting a page
    /// costs the page, not the prefix.
    pub fn iter_from(&self, row: u32) -> impl Iterator<Item = u32> + '_ {
        let (high, low) = ((row >> 16) as u16, row as u16);
        let start = match self.find(high) {
            Ok(i) | Err(i) => i,
        };
        self.containers[start..].iter().flat_map(move |(h, c)| {
            let base = (*h as u32) << 16;
            let it = if *h == high {
                c.iter_from(low)
            } else {
                c.iter()
            };
            it.map(move |l| base | l as u32)
        })
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// timeline's counting primitive (a day bucket's explained count is
    /// an intersection cardinality, not a set), word-wise popcounts when
    /// both sides hold bitmap containers.
    pub fn intersect_len(&self, other: &RowSet) -> usize {
        let mut n = 0;
        for (high, c) in &self.containers {
            if let Ok(j) = other.find(*high) {
                n += c.intersect_len(&other.containers[j].1);
            }
        }
        n
    }

    /// Builds from an ascending sorted, deduplicated `Vec<u32>` (the
    /// legacy row-list form) without per-element binary searches.
    pub fn from_sorted_vec(rows: &[u32]) -> RowSet {
        let mut containers: Vec<(u16, Container)> = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let high = (rows[i] >> 16) as u16;
            let end = rows[i..].partition_point(|&r| (r >> 16) as u16 == high) + i;
            let lows: Vec<u16> = rows[i..end].iter().map(|&r| r as u16).collect();
            let container = if lows.len() > ARRAY_MAX {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                for &x in &lows {
                    words[x as usize / 64] |= 1u64 << (x % 64);
                }
                Container::Bitmap {
                    words,
                    len: lows.len() as u32,
                }
            } else {
                Container::Array(lows)
            };
            containers.push((high, container));
            i = end;
        }
        RowSet { containers }
    }

    /// The set as the legacy ascending `Vec<u32>` (no sort needed —
    /// iteration is already ordered).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// How many containers currently use the bitmap form (diagnostics
    /// and tests).
    pub fn bitmap_containers(&self) -> usize {
        self.containers
            .iter()
            .filter(|(_, c)| matches!(c, Container::Bitmap { .. }))
            .count()
    }
}

impl FromIterator<u32> for RowSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> RowSet {
        let mut set = RowSet::new();
        for row in iter {
            set.insert(row);
        }
        set
    }
}

impl Extend<u32> for RowSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for row in iter {
            self.insert(row);
        }
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = u32;
    type IntoIter = Box<dyn Iterator<Item = u32> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random rows (xorshift).
    fn pseudo_rows(seed: u64, n: usize, span: u32) -> Vec<u32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % span as u64) as u32
            })
            .collect()
    }

    fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn insert_contains_len_roundtrip() {
        let rows = pseudo_rows(7, 10_000, 1 << 20);
        let set: RowSet = rows.iter().copied().collect();
        let expect = sorted_dedup(rows.clone());
        assert_eq!(set.len(), expect.len());
        assert_eq!(set.to_vec(), expect);
        for &r in expect.iter().take(100) {
            assert!(set.contains(r));
        }
        assert!(!set.contains((1 << 20) + 5));
    }

    #[test]
    fn arrays_promote_to_bitmaps_past_the_threshold() {
        // Dense rows in one 64K chunk: must promote exactly once past
        // ARRAY_MAX entries.
        let mut set = RowSet::new();
        for r in 0..ARRAY_MAX as u32 {
            set.insert(r * 2); // spread within the first chunk
        }
        assert_eq!(set.bitmap_containers(), 0, "at the threshold: still array");
        set.insert(1); // odd, not yet present
        assert_eq!(set.bitmap_containers(), 1, "past the threshold: bitmap");
        assert_eq!(set.len(), ARRAY_MAX + 1);
        // Round-trips unchanged.
        assert_eq!(set.to_vec().len(), set.len());
        assert!(set.contains(1) && set.contains(0) && !set.contains(3));
    }

    #[test]
    fn from_sorted_vec_matches_insertion_and_picks_bitmaps() {
        let dense: Vec<u32> = (0..30_000).map(|i| i * 2).collect();
        let set = RowSet::from_sorted_vec(&dense);
        let inserted: RowSet = dense.iter().copied().collect();
        assert_eq!(set.to_vec(), dense);
        assert_eq!(set, inserted);
        assert!(set.bitmap_containers() > 0);
    }

    #[test]
    fn union_matches_reference_and_is_associative() {
        let a = pseudo_rows(3, 6000, 1 << 18);
        let b = pseudo_rows(11, 6000, 1 << 18);
        let c = pseudo_rows(19, 600, 1 << 22);
        let sets: Vec<RowSet> = [&a, &b, &c]
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let mut expect = a.clone();
        expect.extend(&b);
        expect.extend(&c);
        let expect = sorted_dedup(expect);

        // Every fold order gives the same result.
        let left = RowSet::union_all(sets.clone());
        let right = RowSet::union_all(sets.iter().rev().cloned());
        let mut pair = sets[2].clone();
        pair.union_with(&sets[0]);
        pair.union_with(&sets[1]);
        assert_eq!(left.to_vec(), expect);
        assert_eq!(right.to_vec(), expect);
        assert_eq!(pair.to_vec(), expect);
    }

    #[test]
    fn intersect_and_difference_match_reference() {
        let a = sorted_dedup(pseudo_rows(5, 8000, 1 << 17));
        let b = sorted_dedup(pseudo_rows(9, 8000, 1 << 17));
        let sa: RowSet = a.iter().copied().collect();
        let sb: RowSet = b.iter().copied().collect();
        let bset: std::collections::HashSet<u32> = b.iter().copied().collect();
        let inter: Vec<u32> = a.iter().copied().filter(|r| bset.contains(r)).collect();
        let diff: Vec<u32> = a.iter().copied().filter(|r| !bset.contains(r)).collect();
        assert_eq!(sa.intersect(&sb).to_vec(), inter);
        assert_eq!(sa.difference(&sb).to_vec(), diff);
        // Difference against self is empty; intersect with self is identity.
        assert!(sa.difference(&sa).is_empty());
        assert_eq!(sa.intersect(&sa).to_vec(), a);
    }

    #[test]
    fn dense_difference_demotes_back_to_arrays() {
        let dense: Vec<u32> = (0..10_000).collect();
        let most: Vec<u32> = (0..9_000).collect();
        let sd = RowSet::from_sorted_vec(&dense);
        let sm = RowSet::from_sorted_vec(&most);
        let diff = sd.difference(&sm);
        assert_eq!(diff.to_vec(), (9_000..10_000).collect::<Vec<u32>>());
        assert_eq!(diff.bitmap_containers(), 0, "1000 rows fit an array");
    }

    #[test]
    fn rank_counts_rows_below() {
        let rows = sorted_dedup(pseudo_rows(13, 5000, 1 << 19));
        let set: RowSet = rows.iter().copied().collect();
        assert_eq!(set.rank(0), 0);
        for &probe in &[1u32, 100, 65_535, 65_536, 70_000, 1 << 18, u32::MAX] {
            let expect = rows.partition_point(|&r| r < probe);
            assert_eq!(set.rank(probe), expect, "rank({probe})");
        }
        // rank of a present element equals its index.
        for (i, &r) in rows.iter().enumerate().step_by(997) {
            assert_eq!(set.rank(r), i);
        }
    }

    #[test]
    fn iter_from_resumes_anywhere() {
        // Mixed forms: a dense (bitmap) chunk and sparse (array) chunks.
        let mut rows = sorted_dedup(pseudo_rows(21, 9000, 1 << 17));
        rows.extend(200_000..201_000);
        let rows = sorted_dedup(rows);
        let set = RowSet::from_sorted_vec(&rows);
        for &probe in &[
            0u32,
            1,
            63,
            64,
            65_535,
            65_536,
            70_000,
            199_999,
            200_500,
            1 << 21,
        ] {
            let expect: Vec<u32> = rows.iter().copied().filter(|&r| r >= probe).collect();
            assert_eq!(
                set.iter_from(probe).collect::<Vec<u32>>(),
                expect,
                "iter_from({probe})"
            );
        }
        // Resuming after a present element yields exactly the suffix —
        // the pagination cursor contract.
        for (i, &r) in rows.iter().enumerate().step_by(1231) {
            assert_eq!(set.iter_from(r + 1).collect::<Vec<u32>>(), rows[i + 1..]);
        }
        assert_eq!(set.iter_from(0).collect::<Vec<u32>>(), rows);
    }

    #[test]
    fn intersect_len_matches_materialized_intersection() {
        let a = sorted_dedup(pseudo_rows(5, 8000, 1 << 17));
        let b = sorted_dedup(pseudo_rows(9, 8000, 1 << 17));
        let dense: Vec<u32> = (0..20_000).collect();
        for (x, y) in [(&a, &b), (&a, &dense), (&dense, &a), (&dense, &dense)] {
            let sx = RowSet::from_sorted_vec(x);
            let sy = RowSet::from_sorted_vec(y);
            assert_eq!(sx.intersect_len(&sy), sx.intersect(&sy).len());
            assert_eq!(sy.intersect_len(&sx), sx.intersect_len(&sy));
        }
        assert_eq!(RowSet::new().intersect_len(&RowSet::from_sorted_vec(&a)), 0);
    }

    #[test]
    fn empty_set_behaves() {
        let empty = RowSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.to_vec(), Vec::<u32>::new());
        assert_eq!(empty.rank(123), 0);
        assert!(!empty.contains(0));
        assert!(empty.difference(&empty).is_empty());
        assert!(empty.intersect(&empty).is_empty());
        assert_eq!(RowSet::union_all(Vec::new()), empty);
        let full: RowSet = (0..10u32).collect();
        assert_eq!(full.difference(&empty).to_vec(), full.to_vec());
        assert!(empty.difference(&full).is_empty());
    }

    #[test]
    fn cross_form_unions_mix_arrays_and_bitmaps() {
        // One side dense (bitmap), one sparse (array), in the same chunk.
        let dense: Vec<u32> = (0..20_000).map(|i| i * 3).collect();
        let sparse: Vec<u32> = (0..50).map(|i| i * 1000 + 1).collect();
        let sd = RowSet::from_sorted_vec(&dense);
        let ss = RowSet::from_sorted_vec(&sparse);
        let mut expect = dense.clone();
        expect.extend(&sparse);
        let expect = sorted_dedup(expect);
        let mut u1 = sd.clone();
        u1.union_with(&ss);
        let mut u2 = ss.clone();
        u2.union_with(&sd);
        assert_eq!(u1.to_vec(), expect);
        assert_eq!(u2.to_vec(), expect);
    }
}
