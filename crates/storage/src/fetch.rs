//! Crate-internal span fetching: the seam through which the binary
//! backend ([`crate::zone::ZoneFile`]) pulls byte spans from wherever its
//! bytes live.
//!
//! Where they live is one [`Source`]: a file on disk, a buffer, a mapping
//! or a remote object. The backend opens through it (its size and a header
//! reader), takes its meters from it and asks it for a [`SpanFetcher`] per
//! logical access, so it does not know the four places apart.
//!
//! A source already in memory (a buffer, a mapping) lends each span as a
//! slice of itself; a file on disk serves each span with a seek + an exact
//! read into a buffer the caller keeps across batches. The remote source
//! hands the whole batch to
//! [`crate::remote::HttpBlob::lend_spans`], which coalesces adjacent spans
//! into as few ranged GETs as possible — which is why the backend collects
//! spans into batches before decoding instead of reading one span at a
//! time — and lends each span out of the response (or the cached page) it
//! arrived in. Logical metering (bytes, seeks) is identical either way: one
//! seek and `len` bytes per span, so a remote file reports the same logical
//! I/O as its local twin while the transport meters (`http_requests`,
//! `http_bytes`, `retries`) tell the remote story.
//!
//! Every batch carries a [`CacheMode`]: positional reads (the adaptation
//! layer's chosen tiles) pass [`CacheMode::Admit`], streaming scans pass
//! [`CacheMode::Stream`]. A remote source sizes its requests by it (a scan's
//! contiguous runs are wanted whole) and, with a bound block cache, serves
//! hits locally and admits misses under that rule; the per-span logical
//! metering here is deliberately cache-blind, which is what keeps the cache
//! transport-only.

use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pai_common::{IoCounters, PaiError, Result};

use crate::cache::CacheMode;
use crate::mapped::Mapping;
use crate::remote::{BlobReader, HttpBlob, SpanBatch};

/// Where a binary backend's bytes live.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    Disk(PathBuf),
    Mem(Arc<Vec<u8>>),
    Mapped(Arc<Mapping>),
    Remote(Arc<HttpBlob>),
}

impl Source {
    /// The source's size in bytes and a reader positioned at byte 0, for
    /// decoding the header at open time.
    pub fn open(&self) -> Result<(u64, Box<dyn Read + '_>)> {
        Ok(match self {
            Source::Disk(path) => {
                let size = std::fs::metadata(path)?.len();
                (size, Box::new(BufReader::new(File::open(path)?)))
            }
            Source::Mem(bytes) => (bytes.len() as u64, Box::new(Cursor::new(&bytes[..]))),
            Source::Mapped(map) => (map.len() as u64, Box::new(Cursor::new(&map[..]))),
            Source::Remote(blob) => (blob.len(), Box::new(BlobReader::new(blob))),
        })
    }

    /// The meters a file over this source reports into: the blob's for a
    /// remote source, so logical and transport meters land together; fresh
    /// ones otherwise.
    pub fn counters(&self) -> IoCounters {
        match self {
            Source::Remote(blob) => blob.counters().clone(),
            _ => IoCounters::new(),
        }
    }

    /// Location on disk, when file-backed. Mappings do not advertise a path.
    pub fn path(&self) -> Option<&Path> {
        match self {
            Source::Disk(path) => Some(path),
            _ => None,
        }
    }

    /// The span reader for one logical access: a fresh local handle, the
    /// bytes themselves, or the shared remote blob (whose client coalesces
    /// span batches into ranged GETs and retries transient faults).
    pub fn fetcher(&self) -> Result<SpanFetcher<'_>> {
        Ok(match self {
            Source::Disk(path) => SpanFetcher::File(File::open(path)?),
            Source::Mem(bytes) => SpanFetcher::Bytes(bytes),
            Source::Mapped(map) => SpanFetcher::Bytes(map),
            Source::Remote(blob) => SpanFetcher::Remote(blob, SpanBatch::default()),
        })
    }
}

/// Byte/seek accumulators for one logical access (flushed to the shared
/// counters once per call by the owning backend).
#[derive(Default)]
pub(crate) struct SpanMeters {
    pub bytes: u64,
    pub seeks: u64,
}

/// One logical access's byte-span reader over a local or remote source.
pub(crate) enum SpanFetcher<'a> {
    /// Bytes already in memory (a buffer, a mapping): spans are lent.
    Bytes(&'a [u8]),
    /// Seek + exact read per span against an open file.
    File(File),
    /// Batched, coalescing ranged GETs against a remote object, and the
    /// last batch fetched (whose buffers the spans are lent from).
    Remote(&'a HttpBlob, SpanBatch),
}

/// The spans of one batch, in input order: slices of the source itself, of
/// the buffers they were read into, or of the responses they arrived in.
pub(crate) enum Spans<'s> {
    Lent(&'s [u8], &'s [(u64, u64)]),
    Read(&'s [Vec<u8>]),
    Fetched(&'s SpanBatch),
}

impl<'s> Spans<'s> {
    /// The bytes of the batch's `i`-th span.
    pub fn get(&self, i: usize) -> &'s [u8] {
        match *self {
            Spans::Lent(bytes, spans) => {
                let (off, len) = spans[i];
                &bytes[off as usize..][..len as usize]
            }
            Spans::Read(bufs) => &bufs[i],
            Spans::Fetched(batch) => batch.get(i),
        }
    }

    /// Every span of the batch, in input order.
    pub fn iter(&self) -> impl Iterator<Item = &'s [u8]> + '_ {
        let n = match *self {
            Spans::Lent(_, spans) => spans.len(),
            Spans::Read(bufs) => bufs.len(),
            Spans::Fetched(batch) => batch.len(),
        };
        (0..n).map(|i| self.get(i))
    }
}

fn short() -> PaiError {
    PaiError::internal("data region shorter than header claims")
}

impl SpanFetcher<'_> {
    /// Fetches a batch of `(offset, len)` spans. Metering is per span — one
    /// seek plus `len` bytes each, identical to reading the spans one at a
    /// time — but a remote source coalesces adjacent spans of the batch
    /// into shared ranged GETs. Callers keep one `bufs` alive across batches
    /// so file reads reuse its buffers instead of allocating per span;
    /// `mode` says whether the batch is a scan or a positional read, which a
    /// remote source sizes its requests and admits to its cache by (ignored
    /// locally).
    pub fn read_spans<'s>(
        &'s mut self,
        spans: &'s [(u64, u64)],
        bufs: &'s mut Vec<Vec<u8>>,
        m: &mut SpanMeters,
        mode: CacheMode,
    ) -> Result<Spans<'s>> {
        let got = match self {
            SpanFetcher::Bytes(bytes) => {
                let size = bytes.len() as u64;
                if spans
                    .iter()
                    .any(|&(off, len)| off.checked_add(len).is_none_or(|end| end > size))
                {
                    return Err(short());
                }
                Spans::Lent(bytes, spans)
            }
            SpanFetcher::File(file) => {
                bufs.resize_with(spans.len(), Vec::new);
                for (buf, &(off, len)) in bufs.iter_mut().zip(spans) {
                    // `read_to_end` fills spare capacity as it is — no
                    // zeroing pass over bytes about to be overwritten — and
                    // doubles a buffer it outgrows: size it first.
                    buf.clear();
                    buf.reserve_exact(len as usize);
                    file.seek(SeekFrom::Start(off))?;
                    let got = (&mut *file).take(len).read_to_end(buf)?;
                    if (got as u64) < len {
                        return Err(short());
                    }
                }
                Spans::Read(bufs)
            }
            SpanFetcher::Remote(blob, batch) => {
                *batch = blob.lend_spans(spans, mode)?;
                Spans::Fetched(batch)
            }
        };
        for &(_, len) in spans {
            m.bytes += len;
            m.seeks += 1;
        }
        Ok(got)
    }
}
