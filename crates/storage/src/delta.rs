//! Appendable files: a sealed immutable base plus in-memory delta blocks.
//!
//! [`AppendableFile`] turns any static [`RawFile`] into a streaming-ingest
//! target. The wrapped *base* stays byte-for-byte untouched (its locators,
//! zone maps, and caches keep working); appended rows accumulate in an open
//! tail block that is **sealed** every `block_rows` rows, deriving a zone map
//! ([`BlockStats`]) and an answer-bearing synopsis ([`BlockSynopsis`]) at
//! seal time — exactly the metadata a statically-written PaiZone block
//! carries, just born online.
//!
//! ## Locators and row identity
//!
//! A row's **global row id** is its permanent identity: base rows keep their
//! ids, appended row `d` is id `base_rows + d`, and nothing — including
//! compaction — ever renumbers. Locators encode where a row *is*:
//!
//! ```text
//! bit 63        bits 62..0
//! ┌────┬─────────────────────────────────────────────┐
//! │ 0  │ the base file's own raw locator, verbatim   │  base row
//! │ 1  │ append index d (global row id − base_rows)  │  delta row
//! └────┴─────────────────────────────────────────────┘
//! ```
//!
//! Delta locators name the row, not its physical slot, so they survive
//! compaction unchanged: the index never needs a locator-remap pass, and a
//! reader planned before a generation swap redeems the same locators after
//! it (compaction permutes layout, never content).
//!
//! ## Compaction
//!
//! [`AppendableFile::compact_once`] (also reachable through the
//! [`RawFile::compact_once`] seam) snapshots the sealed delta blocks — the
//! *cold run*; the open tail is by construction the hot end — re-sorts their
//! rows by the same Morton key [`crate::gen::morton_key`] the static
//! `RowOrder::ZOrder` layout uses, rebuilds blocks + zone maps + synopses
//! outside any lock, and installs them behind one short write lock guarded
//! by an epoch check (a racing compactor loses cleanly). The generation
//! counter bumps on every install; after the swap the file conservatively
//! invalidates its cached spans so no transport cache can serve a retired
//! generation.
//!
//! Because sealed blocks always hold exactly `block_rows` rows, compacting
//! `k` blocks yields exactly `k` blocks and later blocks never shift.
//!
//! ## What the wrapper deliberately does *not* expose
//!
//! `block_stats()`/`block_synopses()` return `None`: those trait methods
//! lend slices for the file's lifetime, which a mutating file cannot do —
//! and half-coverage (base-only blocks) would silently drop appended rows
//! from synopsis-built answers. Pruning still happens *inside* windowed
//! `scan_batches`/`read_rows_into` (metered as `blocks_read`/
//! `blocks_skipped`), which is the only pruning the engine's window-only
//! read policy needs. Owned snapshots for tests and tooling come from
//! [`AppendableFile::delta_synopses`]/[`AppendableFile::delta_block_stats`].

use std::sync::{Arc, RwLock};

use pai_common::geometry::{Point2, Rect};
use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};

use crate::batch::RowBatch;
use crate::gen::morton_key;
use crate::raw::{
    build_block_synopses, check_attrs, distinct_columns, AppendReceipt, BatchHandler,
    BatchLocators, BlockStats, BlockSynopsis, CompactionReport, RawFile, ScanBatch, ScanPartition,
    ScanRequest, SynopsisSpec,
};
use crate::schema::Schema;

/// Locator bit marking a delta row (low bits = append index).
const DELTA_FLAG: u64 = 1 << 63;

/// Sentinel block index for rows still in the open (unsealed) tail.
const OPEN_BLOCK: u32 = u32::MAX;

/// Rows per sealed delta block by default — matches the PaiZone block size
/// so delta-block meters are comparable with static backends.
pub const DELTA_BLOCK_ROWS: u32 = 4096;

/// A locator batch split by origin, each entry tagged with its output slot:
/// base locators kept verbatim, delta append indices with the flag cleared.
type SplitLocators = (Vec<(usize, RowLocator)>, Vec<(usize, u64)>);

/// Physical position of one delta row: which block, which offset inside it.
#[derive(Debug, Clone, Copy)]
struct RowPos {
    block: u32,
    offset: u32,
}

/// One sealed, immutable delta block: column-major values, the append index
/// of every row, and the metadata derived at seal time.
#[derive(Debug)]
struct SealedBlock {
    /// Append index (`global row id − base_rows`) per row. Contiguous for
    /// blocks sealed off the tail, permuted after compaction.
    dids: Vec<u64>,
    /// Column-major values, `[n_cols][rows]`.
    cols: Vec<Vec<f64>>,
    /// Zone map over every column (row range in global row ids).
    stats: BlockStats,
    /// Answer-bearing synopsis, same derivation as a PaiZone block.
    synopsis: BlockSynopsis,
}

impl SealedBlock {
    fn rows(&self) -> usize {
        self.dids.len()
    }

    /// Builds a sealed block from owned columns + their append indices,
    /// deriving the zone map and synopsis in one pass.
    fn seal(dids: Vec<u64>, cols: Vec<Vec<f64>>, base_rows: u64, spec: &SynopsisSpec) -> Self {
        let rows = dids.len();
        let mut synopses = build_block_synopses(&cols, rows.max(1) as u32, spec);
        let mut synopsis = synopses.pop().expect("non-empty block synopsis");
        let d_lo = dids.iter().copied().min().unwrap_or(0);
        let d_hi = dids.iter().copied().max().unwrap_or(0);
        synopsis.row_start = base_rows + d_lo;
        synopsis.row_end = base_rows + d_hi + 1;
        let stats = BlockStats {
            row_start: base_rows + d_lo,
            row_end: base_rows + d_hi + 1,
            min: synopsis.cols.iter().map(|c| c.min).collect(),
            max: synopsis.cols.iter().map(|c| c.max).collect(),
        };
        SealedBlock {
            dids,
            cols,
            stats,
            synopsis,
        }
    }
}

/// The mutable half of an [`AppendableFile`], behind one `RwLock`.
struct DeltaState {
    /// Sealed blocks, oldest first. `Arc` so readers snapshot cheaply and
    /// never hold the lock while running user handlers.
    sealed: Vec<Arc<SealedBlock>>,
    /// Open tail: append indices + column-major values of unsealed rows.
    open_dids: Vec<u64>,
    open_cols: Vec<Vec<f64>>,
    /// `row_pos[d]` = current physical slot of append index `d`.
    row_pos: Vec<RowPos>,
    /// Bumped by every compaction install (the public generation tag).
    generation: u64,
    /// Bumped with `generation`; snapshot/install pairs compare it so a
    /// racing compactor detects it lost and drops its work.
    epoch: u64,
    /// Leading sealed blocks already in Z-order from the last compaction.
    /// `sealed.len() - compacted` is the cold run: only when it reaches the
    /// caller's `min_run` does a pass rewrite (everything, so the cluster
    /// stays globally Z-ordered), keeping repeat passes on a quiet file
    /// free instead of churning the same bytes.
    compacted: usize,
}

impl DeltaState {
    fn delta_rows(&self) -> u64 {
        self.row_pos.len() as u64
    }

    /// Delta blocks alive: sealed plus the open tail when non-empty.
    fn block_count(&self) -> u64 {
        self.sealed.len() as u64 + u64::from(!self.open_dids.is_empty())
    }
}

/// Streaming-ingest wrapper: a sealed immutable base file plus append-order
/// delta blocks with zone maps and synopses derived at seal time. See the
/// [module docs](self) for the locator layout and compaction protocol.
///
/// All-numeric schemas only (appends carry `f64` rows). Clone-free sharing:
/// wrap it in an `Arc` like any other backend.
pub struct AppendableFile<F: RawFile> {
    base: F,
    schema: Schema,
    /// Arc-clone of the base's counters: base-internal metering and the
    /// wrapper's delta metering land on the same numbers.
    counters: IoCounters,
    base_rows: u64,
    block_rows: u32,
    spec: SynopsisSpec,
    state: RwLock<DeltaState>,
}

impl<F: RawFile> AppendableFile<F> {
    /// Wraps `base`, counting its rows with one metered scan. Prefer
    /// [`AppendableFile::with_base_rows`] when the count is already known
    /// (e.g. from the generator) — especially over remote backends, where
    /// the counting scan downloads the file.
    pub fn new(base: F) -> Result<Self> {
        let mut rows = 0u64;
        base.scan_batches(&ScanRequest::whole(&[]), &mut |batch| {
            rows += batch.len() as u64;
            Ok(())
        })?;
        Self::with_base_rows(base, rows)
    }

    /// Wraps `base` trusting `base_rows` as its row count, with the default
    /// block size ([`DELTA_BLOCK_ROWS`]) and synopsis spec.
    pub fn with_base_rows(base: F, base_rows: u64) -> Result<Self> {
        Self::with_layout(base, base_rows, DELTA_BLOCK_ROWS, SynopsisSpec::default())
    }

    /// Full-control constructor: block size and synopsis spec.
    pub fn with_layout(
        base: F,
        base_rows: u64,
        block_rows: u32,
        spec: SynopsisSpec,
    ) -> Result<Self> {
        if block_rows == 0 {
            return Err(PaiError::config("delta block_rows must be positive"));
        }
        let schema = base.schema().clone();
        if let Some(col) = schema.columns().iter().find(|c| !c.ty.is_numeric()) {
            return Err(PaiError::config(format!(
                "appendable files require an all-numeric schema; column '{}' is not",
                col.name
            )));
        }
        let n_cols = schema.len();
        let counters = base.counters().clone();
        Ok(AppendableFile {
            base,
            schema,
            counters,
            base_rows,
            block_rows,
            spec,
            state: RwLock::new(DeltaState {
                sealed: Vec::new(),
                open_dids: Vec::new(),
                open_cols: vec![Vec::new(); n_cols],
                row_pos: Vec::new(),
                generation: 0,
                epoch: 0,
                compacted: 0,
            }),
        })
    }

    /// The wrapped base file.
    pub fn base(&self) -> &F {
        &self.base
    }

    /// Rows in the sealed base.
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Rows appended so far.
    pub fn delta_rows(&self) -> u64 {
        self.state.read().unwrap().delta_rows()
    }

    /// Sealed delta blocks currently alive (excludes the open tail).
    pub fn sealed_blocks(&self) -> usize {
        self.state.read().unwrap().sealed.len()
    }

    /// Current generation tag (0 until the first compaction installs).
    pub fn generation(&self) -> u64 {
        self.state.read().unwrap().generation
    }

    /// Owned snapshot of every sealed delta block's zone map, oldest block
    /// first (inspection/testing; the trait-level `block_stats` stays `None`
    /// on purpose — see the module docs).
    pub fn delta_block_stats(&self) -> Vec<BlockStats> {
        let st = self.state.read().unwrap();
        st.sealed.iter().map(|b| b.stats.clone()).collect()
    }

    /// Owned snapshot of every sealed delta block's synopsis.
    pub fn delta_synopses(&self) -> Vec<BlockSynopsis> {
        let st = self.state.read().unwrap();
        st.sealed.iter().map(|b| b.synopsis.clone()).collect()
    }

    /// Seals the open tail into a new block (caller holds the write lock and
    /// has checked the tail is exactly `block_rows` rows).
    fn seal_open(&self, st: &mut DeltaState) {
        let n_cols = self.schema.len();
        let dids = std::mem::take(&mut st.open_dids);
        let cols = std::mem::replace(&mut st.open_cols, vec![Vec::new(); n_cols]);
        let block = st.sealed.len() as u32;
        for (offset, &d) in dids.iter().enumerate() {
            st.row_pos[d as usize] = RowPos {
                block,
                offset: offset as u32,
            };
        }
        st.sealed.push(Arc::new(SealedBlock::seal(
            dids,
            cols,
            self.base_rows,
            &self.spec,
        )));
    }

    /// Snapshot of the delta store for lock-free iteration: sealed block
    /// handles plus a copy of the open tail.
    fn snapshot_blocks(&self) -> (Vec<Arc<SealedBlock>>, Vec<u64>, Vec<Vec<f64>>) {
        let st = self.state.read().unwrap();
        (
            st.sealed.clone(),
            st.open_dids.clone(),
            st.open_cols.clone(),
        )
    }

    /// Lends the rows of one column-major delta block to `handler` as one
    /// batch of `attrs`, charging 8 bytes a value of each distinct column.
    /// `locators` is scratch for the rows' locators.
    fn lend_block(
        &self,
        dids: &[u64],
        cols: &[Vec<f64>],
        attrs: &[AttrId],
        locators: &mut Vec<RowLocator>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        if dids.is_empty() {
            return Ok(());
        }
        locators.clear();
        locators.extend(dids.iter().map(|&d| RowLocator::new(DELTA_FLAG | d)));
        let values = distinct_columns(attrs).len() * dids.len();
        self.counters.add_objects(dids.len() as u64);
        self.counters.add_bytes(8 * values as u64);
        handler(&ScanBatch::new(
            BatchLocators::List(locators),
            cols,
            attrs,
            0..dids.len(),
        ))
    }

    /// Splits `locators` into base locators (kept verbatim) and delta append
    /// indices, remembering each request's output slot.
    fn split_locators(&self, locators: &[RowLocator]) -> SplitLocators {
        let mut base = Vec::new();
        let mut delta = Vec::new();
        for (slot, loc) in locators.iter().enumerate() {
            let raw = loc.raw();
            if raw & DELTA_FLAG != 0 {
                delta.push((slot, raw & !DELTA_FLAG));
            } else {
                base.push((slot, *loc));
            }
        }
        (base, delta)
    }

    /// Reads delta rows by append index into row `slot` of `out`
    /// (`attrs.len()` values a row), optionally pruning whole blocks a window
    /// proves disjoint (skipped rows come back as NaN without touching the
    /// store, mirroring the zone backend's contract).
    fn read_delta_rows(
        &self,
        requests: &[(usize, u64)],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut [f64],
    ) -> Result<()> {
        if requests.is_empty() {
            return Ok(());
        }
        let width = attrs.len();
        let gather = |cols: &[Vec<f64>], i: usize, row: &mut [f64]| -> Result<()> {
            for (v, &a) in row.iter_mut().zip(attrs) {
                *v = cols
                    .get(a)
                    .map(|c| c[i])
                    .ok_or_else(|| PaiError::internal(format!("no column {a} in delta store")))?;
            }
            Ok(())
        };
        // Resolve positions under the read lock; copy open-tail values
        // immediately (the tail may seal right after we release), keep
        // sealed blocks as Arc handles.
        let mut sealed: Vec<(usize, Arc<SealedBlock>, u32)> = Vec::new();
        let mut rows_out = 0u64;
        {
            let st = self.state.read().unwrap();
            for &(slot, d) in requests {
                let pos = st.row_pos.get(d as usize).copied().ok_or_else(|| {
                    PaiError::internal(format!("delta locator {d} was never appended"))
                })?;
                if pos.block == OPEN_BLOCK {
                    let row = &mut out[slot * width..][..width];
                    gather(&st.open_cols, pos.offset as usize, row)?;
                    rows_out += 1;
                } else {
                    sealed.push((slot, st.sealed[pos.block as usize].clone(), pos.offset));
                }
            }
        }
        let (x_axis, y_axis) = (self.schema.x_axis(), self.schema.y_axis());
        // Per distinct sealed block, decide read-vs-skip once and meter once.
        let mut touched: Vec<(*const SealedBlock, bool)> = Vec::new();
        for (slot, block, offset) in sealed {
            let key = Arc::as_ptr(&block);
            let keep = match touched.iter().find(|(p, _)| *p == key) {
                Some(&(_, keep)) => keep,
                None => {
                    let keep =
                        window.is_none_or(|w| block.stats.may_intersect_window(x_axis, y_axis, w));
                    if keep {
                        self.counters.add_blocks_read(1);
                    } else {
                        self.counters.add_blocks_skipped(1);
                    }
                    touched.push((key, keep));
                    keep
                }
            };
            let row = &mut out[slot * width..][..width];
            if keep {
                gather(&block.cols, offset as usize, row)?;
                rows_out += 1;
            } else {
                row.fill(f64::NAN);
            }
        }
        self.counters.add_read_call();
        self.counters.add_objects(rows_out);
        self.counters.add_bytes(8 * width as u64 * rows_out);
        Ok(())
    }
}

impl<F: RawFile> RawFile for AppendableFile<F> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn counters(&self) -> &IoCounters {
        &self.counters
    }

    fn size_bytes(&self) -> u64 {
        let delta_rows = self.delta_rows();
        self.base.size_bytes() + 8 * self.schema.len() as u64 * delta_rows
    }

    /// The base's rows first (locators pass through verbatim), then — for
    /// [`ScanPartition::WHOLE`] — the delta rows in current physical order,
    /// a delta block per batch. A window prunes sealed delta blocks by their
    /// zone maps (metered as `blocks_read`/`blocks_skipped`); the open tail
    /// has no sealed stats yet and is always lent. Another partition is one
    /// of the base's, which [`RawFile::partitions`] hands out only while
    /// nothing is appended.
    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        check_attrs(request.attrs, self.schema.len())?;
        self.base.scan_batches(request, &mut |batch| {
            let collides = match batch.locators() {
                BatchLocators::Run(first) => first + batch.len() as u64 > DELTA_FLAG,
                BatchLocators::List(locs) => locs.iter().any(|l| l.raw() & DELTA_FLAG != 0),
            };
            if collides {
                return Err(PaiError::internal(
                    "base locator collides with the delta-flag bit",
                ));
            }
            handler(batch)
        })?;
        if request.partition != ScanPartition::WHOLE {
            return Ok(());
        }
        let (x_axis, y_axis) = (self.schema.x_axis(), self.schema.y_axis());
        let (sealed, open_dids, open_cols) = self.snapshot_blocks();
        let mut locators = Vec::new();
        for block in &sealed {
            if let Some(window) = request.window {
                if !block.stats.may_intersect_window(x_axis, y_axis, window) {
                    self.counters.add_blocks_skipped(1);
                    continue;
                }
                self.counters.add_blocks_read(1);
            }
            self.lend_block(
                &block.dids,
                &block.cols,
                request.attrs,
                &mut locators,
                handler,
            )?;
        }
        self.lend_block(
            &open_dids,
            &open_cols,
            request.attrs,
            &mut locators,
            handler,
        )
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        let (base_reqs, delta_reqs) = self.split_locators(locators);
        if delta_reqs.is_empty() && !base_reqs.is_empty() {
            // Base locators pass through verbatim, in request order.
            return self.base.read_rows_into(locators, attrs, window, out);
        }
        let mut base_vals = RowBatch::default();
        if !base_reqs.is_empty() {
            let locs: Vec<RowLocator> = base_reqs.iter().map(|&(_, l)| l).collect();
            self.base
                .read_rows_into(&locs, attrs, window, &mut base_vals)?;
        }
        let width = attrs.len();
        let values = out.reset(width, locators.len());
        for (&(slot, _), row) in base_reqs.iter().zip(base_vals.iter()) {
            values[slot * width..][..width].copy_from_slice(row);
        }
        self.read_delta_rows(&delta_reqs, attrs, window, values)
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        // Base partitions stop covering the file once rows are appended;
        // degrade to the serial WHOLE partition rather than lose rows.
        if self.delta_rows() == 0 {
            self.base.partitions(n)
        } else {
            Ok(vec![ScanPartition::WHOLE])
        }
    }

    // block_stats / block_synopses intentionally stay `None` (trait
    // defaults): lending slices from mutable state is unsound to fake, and
    // base-only coverage would silently drop appended rows from
    // synopsis-built answers. Pruning happens inside the scan/read paths.

    fn value_bytes_hint(&self) -> Option<f64> {
        self.base.value_bytes_hint()
    }

    fn attach_cache(&self, cache: std::sync::Arc<crate::cache::BlockCache>) -> bool {
        self.base.attach_cache(cache)
    }

    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let n_cols = self.schema.len();
        for row in rows {
            if row.len() != n_cols {
                return Err(PaiError::config(format!(
                    "appended row has {} values, schema has {n_cols} columns",
                    row.len()
                )));
            }
        }
        let mut st = self.state.write().unwrap();
        let first = st.delta_rows();
        let mut locators = Vec::with_capacity(rows.len());
        for row in rows {
            let d = st.row_pos.len() as u64;
            if d & DELTA_FLAG != 0 {
                return Err(PaiError::internal("append index overflows the locator"));
            }
            let offset = st.open_dids.len() as u32;
            st.open_dids.push(d);
            for (col, &v) in st.open_cols.iter_mut().zip(row) {
                col.push(v);
            }
            st.row_pos.push(RowPos {
                block: OPEN_BLOCK,
                offset,
            });
            locators.push(RowLocator::new(DELTA_FLAG | d));
            if st.open_dids.len() as u32 == self.block_rows {
                self.seal_open(&mut st);
            }
        }
        let delta_blocks = st.block_count();
        let generation = st.generation;
        drop(st);
        self.counters.add_rows_ingested(rows.len() as u64);
        self.counters.set_delta_blocks(delta_blocks);
        Ok(AppendReceipt {
            start_row: self.base_rows + first,
            locators,
            generation,
            delta_blocks,
        })
    }

    fn invalidate_cache(&self) -> u64 {
        self.base.invalidate_cache()
    }

    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        // Snapshot the cold run (all currently-sealed blocks) under a read
        // lock; the expensive re-sort and rebuild happen with no lock held.
        let (epoch, run) = {
            let st = self.state.read().unwrap();
            // Gate on the *cold* run — sealed blocks appended since the
            // last install — but rewrite the whole sealed set so the
            // cluster stays globally Z-ordered, not Z-ordered per pass.
            if st.sealed.len() - st.compacted < min_run.max(1) {
                return Ok(None);
            }
            (st.epoch, st.sealed.clone())
        };
        let k = run.len();
        let n_cols = self.schema.len();
        let (x_axis, y_axis) = (self.schema.x_axis(), self.schema.y_axis());
        let total: usize = run.iter().map(|b| b.rows()).sum();

        // Gather (did, morton) for every row, then sort stably by the same
        // key the static Z-order layout uses.
        let mut order: Vec<(u32, u32, u32)> = Vec::with_capacity(total); // (key, block, offset)
        for (bi, block) in run.iter().enumerate() {
            let xs = &block.cols[x_axis];
            let ys = &block.cols[y_axis];
            for i in 0..block.rows() {
                let key = morton_key(Point2::new(xs[i], ys[i]), domain);
                order.push((key, bi as u32, i as u32));
            }
        }
        order.sort_by_key(|&(key, bi, i)| (key, bi, i));

        // Rebuild into the same number of full blocks (sealed blocks hold
        // exactly block_rows rows, so k in → k out and later blocks never
        // shift index).
        let rows_per = self.block_rows as usize;
        let mut new_blocks: Vec<Arc<SealedBlock>> = Vec::with_capacity(k);
        for chunk in order.chunks(rows_per) {
            let mut dids = Vec::with_capacity(chunk.len());
            let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(chunk.len()); n_cols];
            for &(_, bi, i) in chunk {
                let src = &run[bi as usize];
                dids.push(src.dids[i as usize]);
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(src.cols[c][i as usize]);
                }
            }
            new_blocks.push(Arc::new(SealedBlock::seal(
                dids,
                cols,
                self.base_rows,
                &self.spec,
            )));
        }

        // Install behind one short write lock, guarded by the epoch: if
        // another compactor installed meanwhile, our snapshot is stale and
        // we drop the work (the prefix we rebuilt no longer exists).
        let generation = {
            let mut st = self.state.write().unwrap();
            if st.epoch != epoch {
                return Ok(None);
            }
            for (bi, block) in new_blocks.iter().enumerate() {
                for (offset, &d) in block.dids.iter().enumerate() {
                    st.row_pos[d as usize] = RowPos {
                        block: bi as u32,
                        offset: offset as u32,
                    };
                }
            }
            st.sealed.splice(0..k, new_blocks);
            st.compacted = k;
            st.generation += 1;
            st.epoch += 1;
            st.generation
        };
        // A generation swap retires every span a transport cache may hold
        // for this object; drop them so a reader can never see gen-stale
        // bytes (the base is immutable today, but the tag discipline is the
        // contract — see docs/FORMATS.md).
        let invalidated = self.invalidate_cache();
        self.counters.add_compactions(1);
        self.counters.add_blocks_rewritten(k as u64);
        self.counters.add_cache_invalidations(invalidated);
        Ok(Some(CompactionReport {
            generation,
            blocks_rewritten: k as u64,
            rows: total as u64,
            cache_invalidations: invalidated,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvFormat;
    use crate::raw::{scanned_rows, MemFile};
    use crate::schema::Schema;

    fn base_file() -> MemFile {
        MemFile::from_text(
            "col0,col1,col2\n1,10,100\n2,20,200\n3,30,300\n",
            Schema::synthetic(3),
            CsvFormat::default(),
        )
    }

    fn appendable(block_rows: u32) -> AppendableFile<MemFile> {
        AppendableFile::with_layout(base_file(), 3, block_rows, SynopsisSpec::default()).unwrap()
    }

    fn row(x: f64, y: f64, v: f64) -> Vec<f64> {
        vec![x, y, v]
    }

    #[test]
    fn new_counts_base_rows_by_scanning() {
        let f = AppendableFile::new(base_file()).unwrap();
        assert_eq!(f.base_rows(), 3);
        assert_eq!(f.delta_rows(), 0);
    }

    #[test]
    fn sealed_backends_refuse_appends() {
        let err = base_file().append_rows(&[row(1.0, 2.0, 3.0)]).unwrap_err();
        assert!(err.to_string().contains("sealed"), "{err}");
    }

    #[test]
    fn text_schemas_are_rejected() {
        let schema = Schema::new(
            vec![
                crate::schema::Column::float("x"),
                crate::schema::Column::float("y"),
                crate::schema::Column::text("name"),
            ],
            0,
            1,
        )
        .unwrap();
        let base = MemFile::from_text("1,2,a\n", schema, CsvFormat::headerless());
        assert!(AppendableFile::new(base).is_err());
    }

    #[test]
    fn append_receipt_names_rows_and_blocks() {
        let f = appendable(2);
        let r = f
            .append_rows(&[
                row(4.0, 40.0, 400.0),
                row(5.0, 50.0, 500.0),
                row(6.0, 60.0, 600.0),
            ])
            .unwrap();
        assert_eq!(r.start_row, 3);
        assert_eq!(r.locators.len(), 3);
        assert_eq!(r.generation, 0);
        // Two rows sealed one block, one row sits in the open tail.
        assert_eq!(r.delta_blocks, 2);
        assert_eq!(f.sealed_blocks(), 1);
        assert_eq!(f.counters().rows_ingested(), 3);
        assert_eq!(f.counters().delta_blocks(), 2);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let f = appendable(4);
        assert!(f.append_rows(&[vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn scan_covers_base_then_deltas() {
        let f = appendable(2);
        f.append_rows(&[row(4.0, 40.0, 400.0), row(5.0, 50.0, 500.0)])
            .unwrap();
        let mut seen = Vec::new();
        f.scan(&mut |rid, loc, rec| {
            seen.push((rid, loc, rec.f64(0).unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[3].0, 3, "delta row ids continue after the base");
        assert_eq!(seen[3].2, 4.0);
        assert_eq!(seen[4].2, 5.0);
        assert!(seen[3].1.raw() & DELTA_FLAG != 0);
        assert!(seen[0].1.raw() & DELTA_FLAG == 0);
    }

    #[test]
    fn read_rows_redeems_base_and_delta_locators_mixed() {
        let f = appendable(2);
        let receipt = f
            .append_rows(&[
                row(4.0, 40.0, 400.0),
                row(5.0, 50.0, 500.0),
                row(6.0, 60.0, 600.0),
            ])
            .unwrap();
        let mut base_locs = Vec::new();
        f.base()
            .scan(&mut |_, loc, _| {
                base_locs.push(loc);
                Ok(())
            })
            .unwrap();
        // Interleave: delta (sealed), base, delta (open), base.
        let req = vec![
            receipt.locators[1],
            base_locs[0],
            receipt.locators[2],
            base_locs[2],
        ];
        let vals = f.read_rows(&req, &[2, 0]).unwrap();
        assert_eq!(vals.width(), 2);
        assert_eq!(
            vals.values(),
            [500.0, 5.0, 100.0, 1.0, 600.0, 6.0, 300.0, 3.0]
        );
    }

    #[test]
    fn window_reads_skip_disjoint_sealed_blocks() {
        let f = appendable(2);
        // Block 0: x in {4, 5}. Block 1: x in {40, 50}. Open: x = 90.
        let r = f
            .append_rows(&[
                row(4.0, 1.0, 400.0),
                row(5.0, 1.0, 500.0),
                row(40.0, 1.0, 4000.0),
                row(50.0, 1.0, 5000.0),
                row(90.0, 1.0, 9000.0),
            ])
            .unwrap();
        f.counters().reset();
        let w = Rect::new(3.5, 6.0, 0.0, 2.0); // selects only block 0
        let vals = crate::batch::read_window(&f, &r.locators, &[2], Some(&w));
        assert_eq!(vals.values()[..2], [400.0, 500.0]);
        assert!(vals.row(2)[0].is_nan(), "disjoint block answers NaN");
        assert!(vals.row(3)[0].is_nan());
        assert_eq!(vals.row(4), [9000.0], "open tail is never pruned");
        assert_eq!(f.counters().blocks_read(), 1);
        assert_eq!(f.counters().blocks_skipped(), 1);
    }

    #[test]
    fn filtered_scans_skip_disjoint_sealed_blocks() {
        let f = appendable(2);
        f.append_rows(&[
            row(4.0, 1.0, 400.0),
            row(5.0, 1.0, 500.0),
            row(40.0, 1.0, 4000.0),
            row(50.0, 1.0, 5000.0),
            row(90.0, 1.0, 9000.0),
        ])
        .unwrap();
        f.counters().reset();
        let w = Rect::new(3.5, 6.0, 0.0, 2.0);
        let request = ScanRequest {
            window: Some(&w),
            ..ScanRequest::whole(&[0, 2])
        };
        let rows = scanned_rows(&f, &request).unwrap();
        let xs: Vec<f64> = rows.iter().map(|(_, v)| v[0]).collect();
        // Base rows always stream (CSV base has no blocks); delta block 1 is
        // pruned, the open tail streams.
        assert_eq!(xs, [1.0, 2.0, 3.0, 4.0, 5.0, 90.0]);
        assert_eq!(rows[3], (DELTA_FLAG, vec![4.0, 400.0]));
        assert_eq!(f.counters().blocks_skipped(), 1);
        assert_eq!(f.counters().blocks_read(), 1);
        // Delta rows charge 8 bytes a requested column.
        let base_bytes = f.base().size_bytes();
        assert_eq!(f.counters().bytes_read(), base_bytes + 3 * 2 * 8);
    }

    #[test]
    fn sealed_blocks_carry_sound_stats_and_synopses() {
        let f = appendable(2);
        f.append_rows(&[row(4.0, 40.0, f64::NAN), row(5.0, 50.0, 500.0)])
            .unwrap();
        let stats = f.delta_block_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].row_start, 3);
        assert_eq!(stats[0].row_end, 5);
        assert_eq!(stats[0].min[0], 4.0);
        assert_eq!(stats[0].max[0], 5.0);
        let syn = f.delta_synopses();
        assert_eq!(syn[0].cols[2].count, 1, "NaN excluded from moments");
        assert_eq!(syn[0].cols[2].sum, 500.0);
    }

    #[test]
    fn compaction_zorders_preserves_answers_and_bumps_generation() {
        let f = appendable(2);
        let domain = Rect::new(0.0, 100.0, 0.0, 100.0);
        // Interleave far-apart points so append order is badly clustered.
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                let x = if i % 2 == 0 {
                    1.0 + i as f64
                } else {
                    90.0 + i as f64
                };
                row(x, x, i as f64)
            })
            .collect();
        let receipt = f.append_rows(&rows).unwrap();
        let before = f.read_rows(&receipt.locators, &[0, 2]).unwrap();

        let report = f.compact_once(&domain, 1).unwrap().expect("work to do");
        assert_eq!(report.blocks_rewritten, 4);
        assert_eq!(report.rows, 8);
        assert_eq!(report.generation, 1);
        assert_eq!(f.generation(), 1);
        assert_eq!(f.counters().compactions(), 1);
        assert_eq!(f.counters().blocks_rewritten(), 4);

        // Same locators, same values: compaction permutes layout only.
        let after = f.read_rows(&receipt.locators, &[0, 2]).unwrap();
        assert_eq!(before, after);

        // Post-compaction the low-x and high-x points live in different
        // blocks, so a low-x window prunes at least one block.
        f.counters().reset();
        let w = Rect::new(0.0, 20.0, 0.0, 20.0);
        crate::batch::read_window(&f, &receipt.locators, &[2], Some(&w));
        assert!(
            f.counters().blocks_skipped() >= 1,
            "z-order re-clustering must restore pruning"
        );
    }

    #[test]
    fn compaction_without_enough_sealed_blocks_is_a_no_op() {
        let f = appendable(4);
        f.append_rows(&[row(1.0, 1.0, 1.0)]).unwrap();
        let domain = Rect::new(0.0, 10.0, 0.0, 10.0);
        assert!(f.compact_once(&domain, 1).unwrap().is_none());
        // And the defaulted trait hook on a plain file is inert too.
        assert!(base_file().compact_once(&domain, 1).unwrap().is_none());
    }

    #[test]
    fn compaction_is_idempotent_on_a_quiet_file() {
        let f = appendable(2);
        let domain = Rect::new(0.0, 100.0, 0.0, 100.0);
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| row((i * 13 % 97) as f64, (i * 7 % 89) as f64, i as f64))
            .collect();
        f.append_rows(&rows).unwrap();
        f.compact_once(&domain, 1).unwrap().unwrap();
        let first = f.delta_block_stats();
        // With no cold blocks since the install, a repeat pass is free —
        // it neither rewrites nor bumps the generation.
        assert!(
            f.compact_once(&domain, 1).unwrap().is_none(),
            "quiet file: nothing cold to rewrite"
        );
        let second = f.delta_block_stats();
        assert_eq!(first, second, "compact ∘ compact ≡ compact");
        assert_eq!(f.generation(), 1);

        // New sealed blocks make the run cold again; the pass rewrites the
        // whole sealed set so clustering stays global.
        let more: Vec<Vec<f64>> = (0..4)
            .map(|i| row((i * 31 % 97) as f64, (i * 17 % 89) as f64, i as f64))
            .collect();
        f.append_rows(&more).unwrap();
        let report = f.compact_once(&domain, 1).unwrap().expect("cold again");
        assert_eq!(report.blocks_rewritten, 6, "4 old + 2 new sealed blocks");
        assert_eq!(f.generation(), 2);
    }

    #[test]
    fn appends_during_nothing_still_share_base_counters() {
        let f = appendable(4);
        let before = f.base().counters().rows_ingested();
        f.append_rows(&[row(1.0, 2.0, 3.0)]).unwrap();
        assert_eq!(
            f.base().counters().rows_ingested(),
            before + 1,
            "wrapper and base meter through one shared handle"
        );
    }
}
