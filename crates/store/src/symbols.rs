//! Symbol interning and packed index keys — the compact key layout of the
//! composite indexes.
//!
//! The hot path of every lineage query is a B-tree descent over composite
//! keys. With string-typed keys each comparison chases two `Arc<str>`
//! pointers and each probe *allocates* (`Arc::from(port)`); with
//! heap-spilling element indices a deep index adds a third indirection.
//! This module replaces all of that with value types:
//!
//! * [`Sym`] — a `u32` ticket for an interned processor or port name. The
//!   store owns one [`SymbolTable`]; names are interned on the write path
//!   and looked up (never created) on the read path, so probing for a name
//!   the store has never seen degenerates to a comparison against
//!   [`Sym::MISSING`] and finds nothing — exactly like the string key it
//!   replaces, with the same stats accounting.
//! * [`IndexKey`] — an element index packed into a single `u128` (eight
//!   16-bit groups, big-endian) whenever it fits, spilling to a boxed slice
//!   only for pathological indices. The packing is order-preserving:
//!   comparing two packed keys is one integer compare, and all extensions
//!   of a prefix stay contiguous — the property the prefix scans rely on.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use prov_model::Index;

/// An interned name (processor or port). Plain `u32` newtype: `Copy`,
/// 4 bytes, one-instruction comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// Sentinel returned by read-path lookups for names the store has never
    /// interned. No real symbol ever takes this value (interning is dense
    /// from 0), so probing an index with it finds nothing — mirroring the
    /// behaviour of probing with an unknown string.
    pub const MISSING: Sym = Sym(u32::MAX);
}

/// Bidirectional name ⇄ symbol table. Owned by the store's `Inner`, so it
/// shares the store's write lock; reads only need `&self`.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    by_name: HashMap<Arc<str>, Sym>,
    names: Vec<Arc<str>>,
}

impl SymbolTable {
    /// Interns `name`, returning its (possibly pre-existing) symbol. The
    /// `Arc` is cloned only on first sight.
    pub fn intern(&mut self, name: &Arc<str>) -> Sym {
        if let Some(&sym) = self.by_name.get(&**name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(Arc::clone(name));
        self.by_name.insert(Arc::clone(name), sym);
        sym
    }

    /// Read-path lookup: the symbol for `name`, or [`Sym::MISSING`] if it
    /// was never interned. Never allocates.
    pub fn lookup(&self, name: &str) -> Sym {
        self.by_name.get(name).copied().unwrap_or(Sym::MISSING)
    }

    /// Resolves a symbol back to its name. Symbols stored in rows are valid
    /// by construction; an out-of-range symbol resolves to the empty name
    /// rather than panicking.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.names.get(sym.0 as usize).cloned().unwrap_or_else(|| Arc::from(""))
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }
}

/// Number of 16-bit component groups in a packed key.
const GROUPS: usize = 8;
/// Largest component value that still packs (stored biased by +1).
const MAX_PACKED_COMPONENT: u32 = 0xFFFE;

/// An element index in key form.
///
/// The packed representation stores component `c` as the 16-bit group
/// `c + 1` (0 is reserved for "no component"), groups ordered from the most
/// significant bits down. Two consequences, both load-bearing:
///
/// * numeric `u128` comparison equals lexicographic comparison of the
///   component sequences (`[] < [0] < [0,0] < [1]`), and
/// * the first `k` groups of a key are a bit-mask away, so prefix tests
///   need no decoding.
///
/// Indices deeper than [`GROUPS`] components or with components above
/// [`MAX_PACKED_COMPONENT`] spill to a boxed slice. The representation is
/// canonical — a sequence is `Packed` iff it fits — so derived equality is
/// correct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// Up to eight small components, bit-packed.
    Packed {
        /// Number of valid component groups.
        len: u8,
        /// The biased, big-endian component groups.
        bits: u128,
    },
    /// The rare index that does not fit the packed form.
    Spilled(Box<[u32]>),
}

/// The bit-mask covering the first `k` component groups.
fn group_mask(k: usize) -> u128 {
    if k == 0 {
        0
    } else {
        !0u128 << (128 - 16 * k.min(GROUPS))
    }
}

impl IndexKey {
    /// The empty index `[]` — also the minimum key, used as a range start.
    pub const fn empty() -> Self {
        IndexKey::Packed { len: 0, bits: 0 }
    }

    /// Builds the canonical key for a component sequence.
    pub fn from_components(components: &[u32]) -> Self {
        if components.len() <= GROUPS && components.iter().all(|&c| c <= MAX_PACKED_COMPONENT) {
            let mut bits = 0u128;
            for (g, &c) in components.iter().enumerate() {
                bits |= u128::from(c + 1) << (128 - 16 * (g + 1));
            }
            IndexKey::Packed { len: components.len() as u8, bits }
        } else {
            IndexKey::Spilled(components.into())
        }
    }

    /// Builds the key for an [`Index`].
    pub fn from_index(index: &Index) -> Self {
        Self::from_components(index.as_slice())
    }

    /// Converts back to an [`Index`].
    #[cfg(test)]
    pub fn to_index(&self) -> Index {
        match self {
            IndexKey::Packed { .. } => {
                let mut buf = [0u32; GROUPS];
                let n = self.decode_into(&mut buf);
                Index::from_slice(&buf[..n])
            }
            IndexKey::Spilled(v) => Index::from_slice(v),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        match self {
            IndexKey::Packed { len, .. } => *len as usize,
            IndexKey::Spilled(v) => v.len(),
        }
    }

    /// Whether this is the empty index.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a packed key's components into `buf`, returning the count.
    /// (Only meaningful for the packed variant.)
    fn decode_into(&self, buf: &mut [u32; GROUPS]) -> usize {
        match self {
            IndexKey::Packed { len, bits } => {
                for (g, slot) in buf.iter_mut().enumerate().take(*len as usize) {
                    let group = (bits >> (128 - 16 * (g + 1))) as u32 & 0xFFFF;
                    *slot = group - 1;
                }
                *len as usize
            }
            IndexKey::Spilled(_) => 0,
        }
    }

    /// The first `n` components (the whole key if shorter) — a mask for
    /// packed keys, a repack for spilled ones.
    pub fn prefix(&self, n: usize) -> Self {
        match self {
            IndexKey::Packed { len, bits } => {
                if n >= *len as usize {
                    self.clone()
                } else {
                    IndexKey::Packed { len: n as u8, bits: bits & group_mask(n) }
                }
            }
            IndexKey::Spilled(v) => Self::from_components(&v[..n.min(v.len())]),
        }
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &IndexKey) -> bool {
        match (self, other) {
            (IndexKey::Packed { len: a, bits: pa }, IndexKey::Packed { len: b, bits: pb }) => {
                a <= b && (pb & group_mask(*a as usize)) == *pa
            }
            (IndexKey::Packed { .. }, IndexKey::Spilled(o)) => {
                let mut buf = [0u32; GROUPS];
                let n = self.decode_into(&mut buf);
                o.starts_with(&buf[..n])
            }
            // A spilled key never prefixes a packed one unless it equals it
            // component-wise, which canonicality rules out for len ≤ 8 —
            // but a spilled key CAN be short (one huge component), so check
            // properly.
            (IndexKey::Spilled(s), IndexKey::Packed { .. }) => {
                let mut buf = [0u32; GROUPS];
                let n = other.decode_into(&mut buf);
                buf[..n].starts_with(s)
            }
            (IndexKey::Spilled(s), IndexKey::Spilled(o)) => o.starts_with(s),
        }
    }
}

impl Ord for IndexKey {
    /// Lexicographic on components; one integer compare when both sides are
    /// packed (the overwhelmingly common case).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (IndexKey::Packed { bits: a, .. }, IndexKey::Packed { bits: b, .. }) => a.cmp(b),
            _ => {
                let mut ab = [0u32; GROUPS];
                let mut bb = [0u32; GROUPS];
                let a: &[u32] = match self {
                    IndexKey::Packed { .. } => {
                        let n = self.decode_into(&mut ab);
                        &ab[..n]
                    }
                    IndexKey::Spilled(v) => v,
                };
                let b: &[u32] = match other {
                    IndexKey::Packed { .. } => {
                        let n = other.decode_into(&mut bb);
                        &bb[..n]
                    }
                    IndexKey::Spilled(v) => v,
                };
                a.cmp(b)
            }
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&Index> for IndexKey {
    fn from(index: &Index) -> Self {
        Self::from_index(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut t = SymbolTable::default();
        let a = t.intern(&Arc::from("P"));
        let b = t.intern(&Arc::from("Q"));
        let a2 = t.intern(&Arc::from("P"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(&*t.resolve(a), "P");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_of_unknown_name_is_missing() {
        let mut t = SymbolTable::default();
        t.intern(&Arc::from("P"));
        assert_eq!(t.lookup("P"), Sym(0));
        assert_eq!(t.lookup("nope"), Sym::MISSING);
        assert_eq!(&*t.resolve(Sym::MISSING), "");
    }

    #[test]
    fn packing_round_trips() {
        for comps in [
            &[][..],
            &[0],
            &[1, 2, 3],
            &[0xFFFE; 8],
            &[0xFFFF],                    // component too large → spill
            &[0, 1, 2, 3, 4, 5, 6, 7, 8], // too long → spill
        ] {
            let key = IndexKey::from_components(comps);
            assert_eq!(key.to_index().as_slice(), comps, "{comps:?}");
            assert_eq!(key.len(), comps.len());
        }
        assert!(matches!(IndexKey::from_components(&[0xFFFE; 8]), IndexKey::Packed { .. }));
        assert!(matches!(IndexKey::from_components(&[0xFFFF]), IndexKey::Spilled(_)));
    }

    #[test]
    fn packed_order_is_lexicographic() {
        let seqs: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![0, 1],
            vec![1],
            vec![1, 0],
            vec![2],
            vec![0xFFFE],
            vec![0xFFFF],                    // spilled
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8], // spilled
        ];
        let mut keys: Vec<IndexKey> = seqs.iter().map(|s| IndexKey::from_components(s)).collect();
        keys.sort();
        let mut expect = seqs.clone();
        expect.sort();
        let decoded: Vec<Vec<u32>> =
            keys.iter().map(|k| k.to_index().as_slice().to_vec()).collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn prefix_and_is_prefix_agree_with_index_semantics() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2]),
            (vec![1], vec![1, 2]),
            (vec![1, 2], vec![1, 2]),
            (vec![2], vec![1, 2]),
            (vec![1, 2, 3], vec![1, 2]),
            (vec![0xFFFF], vec![0xFFFF, 5]),
            (vec![1], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]),
            (vec![0], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        for (a, b) in cases {
            let ka = IndexKey::from_components(&a);
            let kb = IndexKey::from_components(&b);
            let ia = Index::from_slice(&a);
            let ib = Index::from_slice(&b);
            assert_eq!(ka.is_prefix_of(&kb), ia.is_prefix_of(&ib), "{a:?} vs {b:?}");
        }
        let k = IndexKey::from_components(&[3, 4, 5]);
        assert_eq!(k.prefix(2), IndexKey::from_components(&[3, 4]));
        assert_eq!(k.prefix(0), IndexKey::empty());
        assert_eq!(k.prefix(9), k);
        let spilled = IndexKey::from_components(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // A prefix of a spilled key repacks canonically.
        assert!(matches!(spilled.prefix(3), IndexKey::Packed { .. }));
        assert_eq!(spilled.prefix(3), IndexKey::from_components(&[0, 1, 2]));
    }

    #[test]
    fn empty_key_is_minimum() {
        let e = IndexKey::empty();
        for comps in [&[0u32][..], &[5], &[0xFFFF], &[0, 0, 0, 0, 0, 0, 0, 0, 0]] {
            assert!(e < IndexKey::from_components(comps));
            assert!(e.is_prefix_of(&IndexKey::from_components(comps)));
        }
        assert!(e.is_empty());
    }
}
