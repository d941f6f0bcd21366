//! The index catalog: which access paths the store can serve, and how big
//! the indexed tables are.
//!
//! The paper's claim that "all of the queries on the traces involve the
//! use of indexes, with none requiring full table scans" is a property of
//! a *pair* — a compiled `LineagePlan` and the physical indexes present.
//! The catalog is the store's side of that contract: a small, copyable
//! description of the four composite indexes (§3.3's access paths) that a
//! static plan verifier can check a plan against without touching any
//! trace data. [`IndexCatalog::without`] drops an index from the catalog,
//! which is how tests (and `tprov explain --without-index`) model a store
//! that cannot serve a lookup — the verifier must then report the step as
//! a full scan rather than silently assuming coverage.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The four composite `(processor, port, index)` indexes of each run's
/// shard, named after the binding side they cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexId {
    /// `(processor, output port, q)` → xform rows.
    XformOut,
    /// `(processor, input port, p_i)` → xform rows.
    XformIn,
    /// `(dst processor, dst port, p')` → xfer rows.
    XferDst,
    /// `(src processor, src port, p)` → xfer rows.
    XferSrc,
}

impl IndexId {
    /// All four indexes, in the store's canonical order.
    pub const ALL: [IndexId; 4] =
        [IndexId::XformOut, IndexId::XformIn, IndexId::XferDst, IndexId::XferSrc];

    /// Stable name used in CLI flags and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            IndexId::XformOut => "xform_out",
            IndexId::XformIn => "xform_in",
            IndexId::XferDst => "xfer_dst",
            IndexId::XferSrc => "xfer_src",
        }
    }

    /// Parses a stable name back into an id.
    pub fn parse(name: &str) -> Option<IndexId> {
        IndexId::ALL.into_iter().find(|id| id.name() == name)
    }

    fn pos(self) -> usize {
        match self {
            IndexId::XformOut => 0,
            IndexId::XformIn => 1,
            IndexId::XferDst => 2,
            IndexId::XferSrc => 3,
        }
    }
}

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Manual serde: the ids serialize as their stable snake_case names (the
// vendored serde derive has no `rename_all = "snake_case"`).
impl Serialize for IndexId {
    fn to_json_value(&self) -> serde::json::Json {
        serde::json::Json::Str(self.name().to_string())
    }
}

impl Deserialize for IndexId {
    fn from_json_value(v: &serde::json::Json) -> Result<Self, serde::json::Error> {
        match v {
            serde::json::Json::Str(s) => IndexId::parse(s)
                .ok_or_else(|| serde::json::Error::custom(format!("unknown index id {s:?}"))),
            other => Err(serde::json::Error::expected("index id string", other)),
        }
    }
}

/// Cardinality of one `(run, processor, port)` slice of a composite
/// index — the statistics the static cost model feeds on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCardinality {
    /// Distinct element indexes stored for the port.
    pub keys: u64,
    /// Row ids stored under those keys (≥ `keys`; several rows may share
    /// one key).
    pub rows: u64,
    /// Length of the longest stored element index.
    pub max_depth: usize,
}

/// What the store can serve: availability plus whole-index key counts for
/// each of the four composite indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexCatalog {
    available: [bool; 4],
    key_counts: [u64; 4],
}

impl IndexCatalog {
    /// A catalog advertising all four indexes with the given key counts
    /// (ordered as [`IndexId::ALL`]).
    pub fn new(key_counts: [u64; 4]) -> Self {
        IndexCatalog { available: [true; 4], key_counts }
    }

    /// A catalog with every index available and no statistics — what a
    /// spec-only analysis (no store at hand) assumes.
    pub fn assume_full() -> Self {
        IndexCatalog::new([0; 4])
    }

    /// Drops one index from the catalog (modelling a store that cannot
    /// serve it); the verifier must then classify the affected plan steps
    /// as full scans.
    pub fn without(mut self, id: IndexId) -> Self {
        self.available[id.pos()] = false;
        self
    }

    /// Whether the store can serve lookups on this index.
    pub fn serves(self, id: IndexId) -> bool {
        self.available[id.pos()]
    }

    /// Number of keys in the index (0 when unknown or empty).
    pub fn key_count(self, id: IndexId) -> u64 {
        self.key_counts[id.pos()]
    }

    /// The ids currently served, in canonical order.
    pub fn available(self) -> Vec<IndexId> {
        IndexId::ALL.into_iter().filter(|id| self.serves(*id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in IndexId::ALL {
            assert_eq!(IndexId::parse(id.name()), Some(id));
            assert_eq!(format!("{id}"), id.name());
        }
        assert_eq!(IndexId::parse("nope"), None);
    }

    #[test]
    fn without_removes_exactly_one_index() {
        let cat = IndexCatalog::new([10, 20, 30, 40]).without(IndexId::XformIn);
        assert!(cat.serves(IndexId::XformOut));
        assert!(!cat.serves(IndexId::XformIn));
        assert_eq!(cat.key_count(IndexId::XferSrc), 40);
        assert_eq!(cat.available(), vec![IndexId::XformOut, IndexId::XferDst, IndexId::XferSrc]);
    }

    #[test]
    fn serde_uses_stable_snake_case_names() {
        let j = serde_json::to_string(&IndexId::XferSrc).unwrap();
        assert_eq!(j, "\"xfer_src\"");
        let cat = IndexCatalog::assume_full();
        assert!(cat.serves(IndexId::XformIn));
        let j = serde_json::to_string(&cat).unwrap();
        let back: IndexCatalog = serde_json::from_str(&j).unwrap();
        assert_eq!(back, cat);
    }
}
