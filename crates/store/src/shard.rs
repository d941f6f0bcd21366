//! Per-run shards and lock-free read snapshots.
//!
//! Every run's rows and composite indexes live in an independent
//! [`RunShard`]. The store holds each shard behind an `Arc` and mutates it
//! with `Arc::make_mut`: while nobody else holds the `Arc`, writes happen
//! in place (the common, contention-free case); when a query has pinned the
//! shard, the first subsequent write clones it — copy-on-write — so the
//! pinned [`ReadView`] keeps observing the exact state it was pinned
//! against (snapshot isolation, for free).
//!
//! A [`ReadView`] is the query-side handle: it clones the shard's `Arc`
//! (plus the shared symbol/value tables) **once**, under one brief read
//! lock, and every probe afterwards runs on plain owned data — zero lock
//! acquisitions for the remainder of plan execution. This is what lets
//! concurrent queries (one daemon session each) run without serialising
//! on the store's `RwLock` (the contention wall the pre-shard layout hit).
//!
//! Stats discipline: every `ReadView` read takes a caller-owned
//! `probe: &mut ProbeStats` and counts its index and record work into it;
//! no read touches the shared [`QueryStats`] atomics itself. The query layer
//! passes one accumulator per plan step or traversal, which attributes
//! exact costs to each query even while other queries probe the same
//! store. A one-off caller passes `&mut view.probe_guard()`: the
//! [`ProbeGuard`] flushes its totals into the shared counters once, on drop
//! — including on early returns and panics.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use prov_model::{Binding, Index, PortRef, ProcessorName, RunId, Value, ValueId};

use crate::catalog::{IndexId, PortCardinality};
use crate::indexes::{CompositeIndex, SymKey};
use crate::rows::{
    PortDirection, StoredBinding, XferRecord, XferRow, XformPortRecord, XformPortRow, XformRecord,
    XformRow,
};
use crate::stats::{ProbeGuard, ProbeStats, QueryStats};
use crate::store::StoreError;
use crate::symbols::{IndexKey, Sym, SymbolTable};
use crate::values::ValueTable;

use prov_engine::{XferEvent, XformEvent};

/// A reference into one of a shard's two row heaps (shard-local position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowRef {
    Xform(u64),
    Xfer(u64),
}

/// All trace state of one run: row heaps plus the four composite indexes
/// and the reverse value index, all keyed by shard-local row *positions*
/// (rows additionally carry their global ids for the public records).
#[derive(Debug, Default, Clone)]
pub(crate) struct RunShard {
    pub(crate) xforms: Vec<XformRow>,
    pub(crate) xfers: Vec<XferRow>,
    /// (processor, output port, q) → xform positions.
    pub(crate) idx_xform_out: CompositeIndex,
    /// (processor, input port, p_i) → xform positions.
    pub(crate) idx_xform_in: CompositeIndex,
    /// (dst processor, dst port, p') → xfer positions.
    pub(crate) idx_xfer_dst: CompositeIndex,
    /// (src processor, src port, p) → xfer positions.
    pub(crate) idx_xfer_src: CompositeIndex,
    /// Reverse value index: every row position whose binding carries the
    /// value — the access path for *value-predicated* queries (§1.1).
    pub(crate) idx_by_value: HashMap<ValueId, Vec<RowRef>>,
}

impl RunShard {
    fn index_value(&mut self, value: ValueId, row: RowRef) {
        let rows = self.idx_by_value.entry(value).or_default();
        if rows.last() != Some(&row) {
            rows.push(row);
        }
    }

    /// Appends an xform row (global id `id`), interning names and values
    /// through the shared tables.
    pub(crate) fn insert_xform(
        &mut self,
        id: u64,
        run: RunId,
        event: &XformEvent,
        symbols: &mut SymbolTable,
        values: &mut ValueTable,
    ) {
        let pos = self.xforms.len() as u64;
        let processor = symbols.intern(&event.processor.0);
        let mut ports = Vec::with_capacity(event.inputs.len() + event.outputs.len());
        for b in &event.inputs {
            let value = values.intern(&b.value);
            self.index_value(value, RowRef::Xform(pos));
            let port = symbols.intern(&b.port);
            let index = IndexKey::from(&b.index);
            ports.push(XformPortRow {
                direction: PortDirection::In,
                port,
                index: b.index.clone(),
                value,
            });
            self.idx_xform_in.insert(SymKey { processor, port, index }, pos);
        }
        for b in &event.outputs {
            let value = values.intern(&b.value);
            self.index_value(value, RowRef::Xform(pos));
            let port = symbols.intern(&b.port);
            let index = IndexKey::from(&b.index);
            ports.push(XformPortRow {
                direction: PortDirection::Out,
                port,
                index: b.index.clone(),
                value,
            });
            self.idx_xform_out.insert(SymKey { processor, port, index }, pos);
        }
        self.xforms.push(XformRow { id, run, processor, invocation: event.invocation, ports });
    }

    /// Appends an xfer row (global id `id`).
    pub(crate) fn insert_xfer(
        &mut self,
        id: u64,
        run: RunId,
        event: &XferEvent,
        symbols: &mut SymbolTable,
        values: &mut ValueTable,
    ) {
        let pos = self.xfers.len() as u64;
        let value = values.intern(&event.value);
        self.index_value(value, RowRef::Xfer(pos));
        let src_processor = symbols.intern(&event.src.processor.0);
        let src_port = symbols.intern(&event.src.port);
        let dst_processor = symbols.intern(&event.dst.processor.0);
        let dst_port = symbols.intern(&event.dst.port);
        self.idx_xfer_dst.insert(
            SymKey {
                processor: dst_processor,
                port: dst_port,
                index: IndexKey::from(&event.dst_index),
            },
            pos,
        );
        self.idx_xfer_src.insert(
            SymKey {
                processor: src_processor,
                port: src_port,
                index: IndexKey::from(&event.src_index),
            },
            pos,
        );
        self.xfers.push(XferRow {
            id,
            run,
            src_processor,
            src_port,
            src_index: event.src_index.clone(),
            dst_processor,
            dst_port,
            dst_index: event.dst_index.clone(),
            value,
        });
    }

    /// The composite index `id` names.
    fn index(&self, id: IndexId) -> &CompositeIndex {
        match id {
            IndexId::XformOut => &self.idx_xform_out,
            IndexId::XformIn => &self.idx_xform_in,
            IndexId::XferDst => &self.idx_xfer_dst,
            IndexId::XferSrc => &self.idx_xfer_src,
        }
    }
}

/// The shared empty shard: views of unknown (or dropped, or not yet
/// recorded) runs probe it so that their stats accounting is identical to a
/// probe of a populated shard that happens to find nothing.
fn empty_shard() -> &'static Arc<RunShard> {
    static EMPTY: OnceLock<Arc<RunShard>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(RunShard::default()))
}

/// An immutable snapshot of one run's trace, pinned with one brief read
/// lock ([`crate::TraceStore::pin`]) and queried with **zero** further lock
/// acquisitions: the view owns `Arc`s of the run's shard and the shared
/// symbol/value tables, and recording after the pin copy-on-writes new
/// shard state rather than mutating what the view holds.
///
/// The view is the only way to read a run's trace. It has one method per
/// access path, and each counts its work into a caller-owned
/// [`ProbeStats`] (see the module doc).
#[derive(Debug, Clone)]
pub struct ReadView {
    run: RunId,
    shard: Arc<RunShard>,
    symbols: Arc<SymbolTable>,
    values: Arc<ValueTable>,
    /// Shares atomics with the store's counters (see [`QueryStats`]).
    stats: QueryStats,
}

impl ReadView {
    pub(crate) fn new(
        run: RunId,
        shard: Option<Arc<RunShard>>,
        symbols: Arc<SymbolTable>,
        values: Arc<ValueTable>,
        stats: QueryStats,
    ) -> Self {
        ReadView {
            run,
            shard: shard.unwrap_or_else(|| Arc::clone(empty_shard())),
            symbols,
            values,
            stats,
        }
    }

    /// The run this view is pinned to.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// Cardinality statistics of one `(processor, port)` slice of the
    /// chosen index in the pinned run — what the static cost model uses to
    /// size its predictions. Returns zeros for names the store has never
    /// seen.
    pub fn port_cardinality(
        &self,
        id: IndexId,
        processor: &ProcessorName,
        port: &str,
    ) -> PortCardinality {
        let p = self.symbols.lookup(processor.as_str());
        let x = self.symbols.lookup(port);
        self.shard.index(id).port_stats(p, x)
    }

    /// The positions of the rows of index `id` whose `processor:port` key
    /// overlaps `index`, sorted and deduplicated, with the port's symbol.
    /// Unknown names map to `Sym::MISSING`, which probes the index and
    /// finds nothing — same answers, same stats.
    fn overlapping(
        &self,
        id: IndexId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> (Sym, Vec<u64>) {
        let p = self.symbols.lookup(processor.as_str());
        let x = self.symbols.lookup(port);
        let mut ids = self.shard.index(id).get_overlapping(p, x, &IndexKey::from(index), probe);
        ids.sort_unstable();
        ids.dedup();
        (x, ids)
    }

    /// Materialises a public record from an interned xform row.
    fn xform_record(&self, row: &XformRow) -> XformRecord {
        XformRecord {
            id: row.id,
            run: row.run,
            processor: ProcessorName(self.symbols.resolve(row.processor)),
            invocation: row.invocation,
            ports: row
                .ports
                .iter()
                .map(|p| XformPortRecord {
                    direction: p.direction,
                    port: self.symbols.resolve(p.port),
                    index: p.index.clone(),
                    value: p.value,
                })
                .collect(),
        }
    }

    /// Materialises a public record from an interned xfer row.
    fn xfer_record(&self, row: &XferRow) -> XferRecord {
        XferRecord {
            id: row.id,
            run: row.run,
            src_processor: ProcessorName(self.symbols.resolve(row.src_processor)),
            src_port: self.symbols.resolve(row.src_port),
            src_index: row.src_index.clone(),
            dst_processor: ProcessorName(self.symbols.resolve(row.dst_processor)),
            dst_port: self.symbols.resolve(row.dst_port),
            dst_index: row.dst_index.clone(),
            value: row.value,
        }
    }

    /// A drop-flushed accumulator bound to this view's shared counters:
    /// pass `&mut view.probe_guard()` to a one-off read, or hold one
    /// guard across several reads to flush them together.
    pub fn probe_guard(&self) -> ProbeGuard<'_> {
        self.stats.probe_guard()
    }

    /// The xform events whose **output** binding on `processor:port`
    /// overlaps `index` (stored `q` is a prefix of `index`, or extends it).
    /// This is the inversion lookup of the naïve algorithm: "finding a
    /// matching xform event in the provenance trace".
    pub fn xforms_producing(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<XformRecord> {
        let (_, ids) = self.overlapping(IndexId::XformOut, processor, port, index, probe);
        ids.into_iter().map(|pos| self.xform_record(&self.shard.xforms[pos as usize])).collect()
    }

    /// The xform events whose **input** binding on `processor:port`
    /// overlaps `index` — the forward (impact) counterpart of
    /// [`ReadView::xforms_producing`].
    pub fn xforms_consuming(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<XformRecord> {
        let (_, ids) = self.overlapping(IndexId::XformIn, processor, port, index, probe);
        ids.into_iter().map(|pos| self.xform_record(&self.shard.xforms[pos as usize])).collect()
    }

    /// The xfer events whose **destination** binding on `processor:port`
    /// overlaps `index` — the arc-traversal step of the naïve algorithm.
    pub fn xfers_into(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<XferRecord> {
        let (_, ids) = self.overlapping(IndexId::XferDst, processor, port, index, probe);
        ids.into_iter().map(|pos| self.xfer_record(&self.shard.xfers[pos as usize])).collect()
    }

    /// The xfer events leaving `processor:port` at an index overlapping
    /// `index` (forward navigation; used by impact/downstream queries).
    pub fn xfers_from(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<XferRecord> {
        let (_, ids) = self.overlapping(IndexId::XferSrc, processor, port, index, probe);
        ids.into_iter().map(|pos| self.xfer_record(&self.shard.xfers[pos as usize])).collect()
    }

    /// `Q(P, X_i, p_i)` of Algorithm 2: the stored **input** bindings of
    /// `processor:port` whose index overlaps `p_i`.
    ///
    /// The overlap handles both directions of granularity mismatch: a
    /// projected fragment shorter than the stored indices (coarse query →
    /// prefix scan over the finer rows) and coarse stored rows (`[]` on
    /// non-iterated ports) under a fine query.
    pub fn input_bindings(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<StoredBinding> {
        let (x, ids) = self.overlapping(IndexId::XformIn, processor, port, index, probe);
        let mut out = Vec::new();
        let mut seen: Vec<(u64, Index)> = Vec::new();
        for pos in ids {
            let row = &self.shard.xforms[pos as usize];
            for pr in row.inputs().filter(|pr| pr.port == x) {
                if !(pr.index.is_prefix_of(index) || index.is_prefix_of(&pr.index)) {
                    continue;
                }
                let k = (pr.value.0, pr.index.clone());
                if seen.contains(&k) {
                    continue; // many invocations share whole-value inputs
                }
                seen.push(k);
                out.push(StoredBinding {
                    run: self.run,
                    processor: processor.clone(),
                    port: self.symbols.resolve(pr.port),
                    index: pr.index.clone(),
                    value: pr.value,
                });
            }
        }
        out
    }

    /// The stored **source-side** bindings of xfer rows leaving
    /// `processor:port` at indices overlapping `index` — how lineage
    /// queries materialise bindings for ports that never appear in xform
    /// rows (top-level workflow inputs exist in the trace only as xfer
    /// sources).
    pub fn xfer_src_bindings(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
        probe: &mut ProbeStats,
    ) -> Vec<StoredBinding> {
        let (_, ids) = self.overlapping(IndexId::XferSrc, processor, port, index, probe);
        let mut out: Vec<StoredBinding> = Vec::new();
        for pos in ids {
            let row = &self.shard.xfers[pos as usize];
            if out.iter().any(|b| b.index == row.src_index && b.value == row.value) {
                continue; // the same element fans out along several arcs
            }
            out.push(StoredBinding {
                run: self.run,
                processor: processor.clone(),
                port: self.symbols.resolve(row.src_port),
                index: row.src_index.clone(),
                value: row.value,
            });
        }
        out
    }

    /// All xform rows of the run, in insertion order. The shard stores
    /// exactly this run's rows contiguously, so only those rows are
    /// touched (a run co-resident with a much larger one never pays for
    /// its neighbour); they are charged as both records read and rows
    /// scanned.
    pub fn xforms_of_run(&self, probe: &mut ProbeStats) -> Vec<XformRecord> {
        let rows: Vec<XformRecord> =
            self.shard.xforms.iter().map(|row| self.xform_record(row)).collect();
        probe.count_rows_scanned(rows.len());
        probe.count_records(rows.len());
        rows
    }

    /// All xfer rows of the run, in insertion order (see
    /// [`ReadView::xforms_of_run`]).
    pub fn xfers_of_run(&self, probe: &mut ProbeStats) -> Vec<XferRecord> {
        let rows: Vec<XferRecord> =
            self.shard.xfers.iter().map(|row| self.xfer_record(row)).collect();
        probe.count_rows_scanned(rows.len());
        probe.count_records(rows.len());
        rows
    }

    /// All bindings (across every port role) of the run that carry exactly
    /// the given value — the access path for *value-predicated* queries,
    /// which the paper notes fall outside INDEXPROJ ("a query that
    /// explicitly predicates on the presence of a specific value … can
    /// still be answered using a standard graph traversal"). Combine with
    /// `NaiveLineage`/`NaiveImpact` from the returned bindings.
    pub fn bindings_with_value(&self, value: &Value, probe: &mut ProbeStats) -> Vec<StoredBinding> {
        let Some(&vid) = self.values.lookup(value) else { return Vec::new() };
        let Some(rows) = self.shard.idx_by_value.get(&vid) else { return Vec::new() };
        probe.count_index_lookup();
        let mut out: Vec<StoredBinding> = Vec::new();
        let mut push = |b: StoredBinding| {
            if !out.contains(&b) {
                out.push(b);
            }
        };
        for row in rows {
            match row {
                RowRef::Xform(pos) => {
                    let rec = &self.shard.xforms[*pos as usize];
                    probe.count_records(1);
                    for p in &rec.ports {
                        if p.value == vid {
                            push(StoredBinding {
                                run: self.run,
                                processor: ProcessorName(self.symbols.resolve(rec.processor)),
                                port: self.symbols.resolve(p.port),
                                index: p.index.clone(),
                                value: vid,
                            });
                        }
                    }
                }
                RowRef::Xfer(pos) => {
                    let rec = &self.shard.xfers[*pos as usize];
                    probe.count_records(1);
                    push(StoredBinding {
                        run: self.run,
                        processor: ProcessorName(self.symbols.resolve(rec.src_processor)),
                        port: self.symbols.resolve(rec.src_port),
                        index: rec.src_index.clone(),
                        value: vid,
                    });
                    push(StoredBinding {
                        run: self.run,
                        processor: ProcessorName(self.symbols.resolve(rec.dst_processor)),
                        port: self.symbols.resolve(rec.dst_port),
                        index: rec.dst_index.clone(),
                        value: vid,
                    });
                }
            }
        }
        out
    }

    /// Resolves a value id against the pinned value table.
    pub fn value(&self, id: ValueId) -> Option<Value> {
        self.values.get(id).cloned()
    }

    /// Resolves a stored binding into a user-facing [`Binding`].
    pub fn resolve(&self, b: &StoredBinding) -> crate::Result<Binding> {
        let value = self.value(b.value).ok_or(StoreError::DanglingValue(b.value))?;
        Ok(Binding {
            port: PortRef { processor: b.processor.clone(), port: b.port.clone() },
            index: b.index.clone(),
            value,
        })
    }

    /// Total number of trace records visible in this view (xform rows +
    /// xfer rows of the pinned run).
    pub fn trace_record_count(&self) -> u64 {
        (self.shard.xforms.len() + self.shard.xfers.len()) as u64
    }

    /// The access counters this view reports into. Clones of
    /// [`QueryStats`] share their atomic cells, so these are the *store's*
    /// counters: probes through every view land in one set of totals.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }
}
