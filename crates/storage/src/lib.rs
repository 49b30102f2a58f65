//! Raw-file storage substrate for in-situ exploration.
//!
//! This crate is the "raw data file" half of the paper's setting: data lives
//! in a raw file that is **never loaded into a DBMS**. The index above it
//! (see `pai-index`) keeps only axis values and opaque row locators;
//! whenever a query needs non-axis attribute values, it comes back here and
//! pays real I/O, which the [`pai_common::IoCounters`] meter.
//!
//! Everything above this crate speaks the backend-agnostic [`RawFile`]
//! trait: batch scans ([`RawFile::scan_batches`], which lend decoded
//! columns a storage block at a time), positional reads, block-level
//! statistics ([`BlockStats`] zone maps) and predicate pushdown (the window
//! of a [`ScanRequest`] and of `read_rows_into`), which degrade gracefully on
//! backends without block structure. The production
//! backends:
//!
//! * **CSV** ([`CsvFile`] on disk, [`MemFile`] in memory) — text records
//!   accessed in situ, locators are byte offsets, every positional read
//!   re-parses the wanted fields of a line, in place in a block read;
//! * **PaiZone** ([`ZoneFile`], [`mod@zone`]) — the one binary format:
//!   zone-mapped compressed columnar, frame-of-reference + bit-packed
//!   blocks with per-block min/max in the header, so scans and fetches
//!   carrying a query window skip blocks the zone maps prove irrelevant;
//!   locators are row ids, values are lossless `f64` (NaN is NULL), and it
//!   opens from disk, memory, a zero-copy mapping
//!   ([`ZoneFile::open_mapped`]) or a remote object;
//! * **Latency** ([`LatencyFile`]) — any backend behind a simulated remote
//!   link (per-call + per-seek delay), the object-store *cost model*;
//! * **HTTP** ([`HttpFile`], [`mod@remote`]) — a PaiZone image served from
//!   a real object store over HTTP/1.1 range requests, the object-store
//!   *transport*: coalesced ranged GETs, connection reuse,
//!   bounded retry with backoff, and `http_requests`/`http_bytes`/`retries`
//!   transport meters. The bundled test server lives in [`mod@objstore`];
//! * **Cached** ([`CachedFile`], [`mod@cache`]) — any backend (primarily
//!   `HttpFile`) behind a bounded page cache in memory,
//!   adaptation-aware admission, hits subtracted from span batches
//!   *before* GETs are coalesced and issued. Transport-only: answers and
//!   logical meters are byte-identical to the unwrapped file.
//!
//! Modules:
//! * [`schema`] — column definitions and the axis-attribute pair;
//! * [`csv`] — CSV format config, line splitting/escaping, streaming writer;
//! * [`raw`] — the [`RawFile`] abstraction: batch scans of a partition,
//!   batched locator-based random access, block stats + pushdown, with the
//!   CSV implementations;
//! * [`mod@delta`] — streaming ingest: [`AppendableFile`] wraps any sealed
//!   backend with append-order delta blocks (zone maps + synopses derived at
//!   seal time) and an online Z-order compaction pass behind a generation
//!   swap;
//! * [`mod@zone`] — the compressed zone-mapped backend and its converter
//!   ([`zone::convert_to_zone`] / [`zone::write_zone`]);
//! * [`mapped`] — read-only memory mapping with a portable fallback;
//! * [`latency`] — the latency-injecting wrapper backend;
//! * [`mod@cache`] — the block cache ([`BlockCache`]) and its
//!   [`CachedFile`] wrapper;
//! * [`mod@remote`] — the HTTP range-request client ([`HttpBlob`]) and the
//!   [`HttpFile`] backend over it;
//! * [`mod@objstore`] — the in-process object-store test server (`GET` +
//!   `Range`, keep-alive, chunk latency, fault injection);
//! * [`batch`] — the flat [`RowBatch`] positional reads fill, and
//!   cross-tile batched reads into it: many locator groups, one coalesced,
//!   window-aware call;
//! * [`scan`] — the CSV scanner and reader: line-aligned partitions, the
//!   block-buffered pass over them that both CSV backends' full and
//!   partitioned scans share, and the span-coalescing positional read, cut
//!   into parts parsed at once when it is long;
//! * [`gen`] — synthetic dataset generation (the paper's 10-numeric-column
//!   dataset family: uniform, Gaussian-cluster "dense areas", skewed),
//!   writable to any backend;
//! * [`ground_truth`] — exact evaluation used to validate engines and to
//!   measure true (not just bounded) approximation error; scans with the
//!   window pushed down, so zone-mapped backends answer it without reading
//!   provably-dead blocks.

#![deny(missing_docs)]

pub mod batch;
pub mod cache;
pub mod csv;
pub mod delta;
mod fetch;
pub mod gen;
pub mod ground_truth;
pub mod latency;
pub mod mapped;
pub mod netio;
pub mod objstore;
pub mod raw;
pub mod remote;
pub mod scan;
pub mod schema;
pub mod zone;

pub use batch::{read_row_groups, RowBatch};
pub use cache::{BlockCache, CacheConfig, CacheMode, CachedFile};
pub use csv::{CsvFormat, CsvWriter};
pub use delta::{AppendableFile, DELTA_BLOCK_ROWS};
pub use gen::{morton_key, DatasetSpec, PointDistribution, RowOrder, ValueModel};
pub use latency::LatencyFile;
pub use mapped::Mapping;
pub use netio::{write_frame, ConnBuf, MAX_FRAME_BYTES};
pub use objstore::{Fault, FaultPlan, ObjectStore};
pub use raw::{
    build_block_synopses, AppendReceipt, BatchHandler, BatchLocators, BlockStats, BlockSynopsis,
    ColumnSynopsis, CompactionReport, CsvFile, MemFile, RawFile, Record, ScanBatch, ScanPartition,
    ScanRequest, SynopsisSpec,
};
pub use remote::{HttpBlob, HttpFile, HttpOptions, SpanBatch};
pub use schema::{Column, ColumnType, Schema};
pub use zone::{convert_to_zone, convert_to_zone_spec, write_zone, ZoneFile};
