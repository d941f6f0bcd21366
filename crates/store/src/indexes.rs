//! Composite ordered secondary indexes over one run's trace tables.
//!
//! Each index lives inside one run's shard, so its keys are
//! `(processor, port, index)` — all interned: processor and port are
//! [`Sym`]s, the element index a packed [`IndexKey`] — and a key is a small
//! value type whose B-tree comparison costs a handful of integer compares
//! with no pointer chasing.
//!
//! The one access path is [`CompositeIndex::get_overlapping`]: every row
//! whose element index overlaps the probe index `p`, in either direction.
//!
//! * **Ancestors** ("rows whose index is a prefix of `p`", for coarse rows
//!   such as whole-value transfers) are point lookups, one per prefix of
//!   `p` no longer than the longest stored key — each a bit-mask on a
//!   packed key.
//! * **Descendants** ("rows whose index extends `p`", for a query that
//!   addresses a sub-collection) are one range scan: the extensions of a
//!   prefix are contiguous in lexicographic order, and the packed encoding
//!   preserves that order.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::catalog::PortCardinality;
use crate::stats::ProbeStats;
use crate::symbols::{IndexKey, Sym};

/// Composite key: `(processor, port, element index)`, fully interned. The
/// derived order is lexicographic over the fields, so one port's keys are
/// contiguous.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SymKey {
    /// Interned processor name.
    pub processor: Sym,
    /// Interned port name.
    pub port: Sym,
    /// Packed element index.
    pub index: IndexKey,
}

/// A secondary index mapping composite keys to row ids. Multiple rows may
/// share one key (e.g. several invocations consuming the same whole-value
/// input), hence the `Vec<u64>` payload.
#[derive(Debug, Default, Clone)]
pub struct CompositeIndex {
    map: BTreeMap<SymKey, Vec<u64>>,
    /// Length of the longest element index ever inserted: no longer
    /// prefix can be a key, so probes never build one.
    max_len: usize,
}

impl CompositeIndex {
    /// Inserts a row id under the key.
    pub fn insert(&mut self, key: SymKey, row: u64) {
        self.max_len = self.max_len.max(key.index.len());
        self.map.entry(key).or_default().push(row);
    }

    /// Rows related to `index` in either direction: ancestors (coarser
    /// rows covering it, the exact key included) plus strict descendants
    /// (finer rows inside it). This is the general element-addressing
    /// lookup of the provenance graph: a binding `P:X[p]` is connected to
    /// stored rows at any granularity that overlaps `p`.
    ///
    /// Counts `|index| + 2` index lookups — one per prefix of `index`,
    /// plus one descendant scan — and one record read per row found. Only
    /// prefixes no longer than the longest stored key are built and looked
    /// up, and the descendant scan runs only if `index` itself is no longer
    /// than that: the skipped lookups cannot hit, so the rows and the
    /// counts are those of the full walk, at a cost bounded by the stored
    /// keys rather than by `|index|`.
    pub fn get_overlapping(
        &self,
        processor: Sym,
        port: Sym,
        index: &IndexKey,
        stats: &mut ProbeStats,
    ) -> Vec<u64> {
        stats.index_lookups += index.len() as u64 + 2;
        let mut out = Vec::new();
        let mut exact: &[u64] = &[];
        for k in 0..=index.len().min(self.max_len) {
            let key = SymKey { processor, port, index: index.prefix(k) };
            if let Some(rows) = self.map.get(&key) {
                stats.count_records(rows.len());
                out.extend_from_slice(rows);
                if k == index.len() {
                    exact = rows;
                }
            }
        }
        if index.len() > self.max_len {
            return out;
        }
        // Descendants, excluding the exact matches already collected.
        let start = SymKey { processor, port, index: index.clone() };
        let mut scanned = 0;
        for (k, rows) in self.map.range((Bound::Included(start), Bound::Unbounded)) {
            if k.processor != processor || k.port != port || !index.is_prefix_of(&k.index) {
                break;
            }
            scanned += rows.len();
            out.extend(rows.iter().filter(|r| !exact.contains(r)));
        }
        stats.count_records(scanned);
        out
    }

    /// Total number of keys (distinct composite keys) in the index.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Cardinality of one `(processor, port)` slice: distinct keys, total
    /// rows, and the longest stored element index. The slice is contiguous
    /// in key order, so this is one descent plus a bounded walk — cheap
    /// enough for `explain`, and never on a query hot path.
    pub fn port_stats(&self, processor: Sym, port: Sym) -> PortCardinality {
        let start = SymKey { processor, port, index: IndexKey::empty() };
        let mut out = PortCardinality::default();
        for (k, rows) in self.map.range((Bound::Included(start), Bound::Unbounded)) {
            if k.processor != processor || k.port != port {
                break;
            }
            out.keys += 1;
            out.rows += rows.len() as u64;
            out.max_depth = out.max_depth.max(k.index.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(proc: u32, port: u32, idx: &[u32]) -> SymKey {
        SymKey { processor: Sym(proc), port: Sym(port), index: IndexKey::from_components(idx) }
    }

    fn ik(idx: &[u32]) -> IndexKey {
        IndexKey::from_components(idx)
    }

    fn overlapping(ix: &CompositeIndex, proc: Sym, port: Sym, idx: &[u32]) -> Vec<u64> {
        let mut rows = ix.get_overlapping(proc, port, &ik(idx), &mut ProbeStats::new());
        rows.sort_unstable();
        rows
    }

    // Symbol layout used by the samples: P=0, Q=1; ports y=0, z=1.
    fn sample() -> CompositeIndex {
        let mut ix = CompositeIndex::default();
        ix.insert(key(0, 0, &[]), 1);
        ix.insert(key(0, 0, &[0]), 2);
        ix.insert(key(0, 0, &[0, 0]), 3);
        ix.insert(key(0, 0, &[0, 1]), 4);
        ix.insert(key(0, 0, &[1]), 5);
        ix.insert(key(0, 1, &[0]), 6); // other port
        ix.insert(key(1, 0, &[0]), 7); // other processor
        ix
    }

    #[test]
    fn overlapping_walks_ancestors_and_descendants() {
        let ix = sample();
        let (p, y) = (Sym(0), Sym(0));
        // Ancestors [] and [0], the exact key, and the extensions of [0].
        assert_eq!(overlapping(&ix, p, y, &[0]), vec![1, 2, 3, 4]);
        // A leaf: its prefix chain only.
        assert_eq!(overlapping(&ix, p, y, &[0, 1]), vec![1, 2, 4]);
        // The empty index overlaps everything on that port.
        assert_eq!(overlapping(&ix, p, y, &[]), vec![1, 2, 3, 4, 5]);
        // An unstored index still meets its stored ancestors.
        assert_eq!(overlapping(&ix, p, y, &[9]), vec![1]);
        // A MISSING symbol probes and finds nothing.
        assert!(overlapping(&ix, Sym::MISSING, y, &[0]).is_empty());
    }

    #[test]
    fn overlapping_respects_processor_and_port_boundaries() {
        let ix = sample();
        assert_eq!(overlapping(&ix, Sym(1), Sym(0), &[]), vec![7]);
        assert_eq!(overlapping(&ix, Sym(0), Sym(1), &[]), vec![6]);
        assert_eq!(overlapping(&ix, Sym(0), Sym(1), &[0, 3]), vec![6]);
    }

    #[test]
    fn overlapping_returns_the_exact_rows_once() {
        // The exact key is both the last ancestor and the first key of the
        // descendant scan; its rows must come back once.
        let mut ix = sample();
        ix.insert(key(0, 0, &[0]), 8);
        let rows = ix.get_overlapping(Sym(0), Sym(0), &ik(&[0]), &mut ProbeStats::new());
        let mut unique = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(rows.len(), unique.len(), "{rows:?}");
        assert_eq!(unique, vec![1, 2, 3, 4, 8]);
    }

    #[test]
    fn stats_count_lookups_and_records() {
        let ix = sample();
        let mut stats = ProbeStats::new();
        ix.get_overlapping(Sym(0), Sym(0), &ik(&[0]), &mut stats);
        // |p|+2 lookups; ancestors [] and [0], then the scan over [0],
        // [0,0] and [0,1] (the exact rows are read on both paths).
        assert_eq!((stats.index_lookups, stats.records_read), (3, 2 + 3));
        let mut stats = ProbeStats::new();
        ix.get_overlapping(Sym(0), Sym(0), &ik(&[]), &mut stats);
        assert_eq!((stats.index_lookups, stats.records_read), (2, 1 + 5));
    }

    #[test]
    fn spilled_indices_keep_prefix_contiguity() {
        // Deep (spilled) element indices must interleave correctly with
        // packed ones under one (processor, port).
        let mut ix = CompositeIndex::default();
        ix.insert(key(0, 0, &[1]), 1);
        ix.insert(key(0, 0, &[1, 0, 0, 0, 0, 0, 0, 0, 0]), 2); // spilled
        ix.insert(key(0, 0, &[2]), 3);
        assert_eq!(overlapping(&ix, Sym(0), Sym(0), &[1]), vec![1, 2]);
        assert_eq!(overlapping(&ix, Sym(0), Sym(0), &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]), vec![1, 2]);
    }

    #[test]
    fn a_million_component_probe_counts_every_prefix_but_builds_few() {
        // Probing with an index far longer than any stored key must return
        // the stored ancestors and count |p|+2 lookups, without building
        // all |p|+1 prefixes (each a fresh allocation once spilled).
        let mut ix = sample();
        ix.insert(key(0, 0, &[0; 9]), 9); // spilled: the longest key
        let p = vec![0u32; 1 << 20];
        let mut stats = ProbeStats::new();
        let mut rows = ix.get_overlapping(Sym(0), Sym(0), &ik(&p), &mut stats);
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3, 9]);
        assert_eq!(stats.index_lookups, p.len() as u64 + 2);
        assert_eq!(stats.records_read, 4);
    }
}
