//! Tiered block cache behind the [`RawFile`] seam.
//!
//! Exploration workloads re-visit the same regions: analysts pan and zoom
//! over hot areas, so the same bytes are fetched from the object store again
//! and again. The remote transport (see [`crate::remote`]) makes each fetch
//! cheap; this module makes the *second* fetch free. A [`BlockCache`] sits
//! **below the span-batch fetcher** and its unit is the **page**: a fixed,
//! aligned [`PAGE_BYTES`] slice of the remote object (the last page short).
//! A cached span batch is mapped to its covering pages, resident pages are
//! subtracted *before* coalescing and GET issue, and the caller's spans are
//! sliced out of pages — so a window jittered by one row hits everything it
//! touched before, a fully-cached batch does zero HTTP work, and a partial
//! hit issues ranged GETs only for the missing pages.
//!
//! Two tiers, both bounded, each one LRU list behind **one lock** with O(1)
//! touch, insert and eviction; no file or network I/O ever runs under it:
//!
//! * **Memory** — pages served as shared buffers (a hit clones an `Arc`,
//!   never the bytes); the coldest page leaves when a new one needs room;
//! * **Disk spill** — memory-tier victims demote to one file per page under
//!   a spill directory (written to a temp name and atomically renamed, so a
//!   concurrent reader never observes a torn page), at most
//!   `disk_bytes / PAGE_BYTES` of them; the coldest spilled page is deleted
//!   to make room. A spill file that disappears underneath the cache simply
//!   degrades to a miss.
//!
//! **Admission is adaptation-aware and scan-resistant.** The adaptation
//! layer's chosen tiles arrive here as positional reads
//! ([`CacheMode::Admit`]) — those are the rows the tile-selection policy
//! scored highest, so their pages are always admitted, at the hot end.
//! Streaming scans ([`CacheMode::Stream`]) are one-touch by default: a
//! scanned-and-missed page is recorded in a ghost set, and only a *second*
//! touch admits it — at the **cold end**, where it is the next victim
//! unless a hit promotes it. A re-scanned file therefore cycles through one
//! slot instead of flushing the hot set.
//!
//! **The cache is transport-only.** Logical meters (`objects_read`,
//! `bytes_read`, `seeks`, `blocks_read`, …) tick identically with and
//! without a cache — the span fetcher meters per span regardless of which
//! tier served it — so answers, CIs, trajectories, and every logical meter
//! are byte-identical to the uncached run. Only the transport meters
//! (`http_requests`, `http_bytes`) move, and the cache meters
//! (`cache_hits`/`cache_misses` per page lookup, `cache_evictions`,
//! `cache_spill_bytes`, `cache_mem_bytes`) tell the story.
//!
//! [`CachedFile`] is the seam-level entry point: it wraps any inner
//! backend, binds a (possibly shared) [`BlockCache`] to the inner
//! transport via [`RawFile::attach_cache`], and delegates every access.
//! Backends without a cache-capable transport delegate inertly — wrapping
//! a local file is harmless. A private cache is [`CachedFile::with_config`];
//! below the file level, [`crate::HttpBlob::attach_cache`] binds one to a
//! bare blob.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, Result, RowLocator};

use crate::batch::RowBatch;
use crate::raw::{BatchHandler, RawFile, ScanRequest};
use crate::schema::Schema;

/// The cache unit: page `p` of an object is its bytes
/// `[p * PAGE_BYTES, (p + 1) * PAGE_BYTES)`, cut short at the object's end.
/// A constant, not a knob: on the repo benchmark's `remote-reexplore`
/// workload 4 / 16 / 64 KiB pages measured 350 / 380 / 352 queries per
/// second — smaller pages pay more GETs, larger ones more wasted bytes and
/// fewer residents per budget, and the optimum is flat.
pub const PAGE_BYTES: u64 = 16 * 1024;

/// Cap on the ghost (touched-once) set; exceeding it clears the ghosts,
/// which only delays admission by one extra touch.
const GHOST_CAP: usize = 1 << 16;

/// Distinguishes cache instances in spill-file names so two caches sharing
/// a spill directory never collide.
static CACHE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Size and placement of a [`BlockCache`]'s tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of the in-memory tier (`0` disables it).
    pub mem_bytes: u64,
    /// Byte budget of the disk-spill tier (`0` disables spilling).
    pub disk_bytes: u64,
    /// Directory for spill files. `None` with a nonzero `disk_bytes` spills
    /// under the system temp directory (cleaned up on drop).
    pub spill_dir: Option<PathBuf>,
}

impl CacheConfig {
    /// A config with the given tier budgets and default spill placement.
    pub fn new(mem_bytes: u64, disk_bytes: u64) -> Self {
        CacheConfig {
            mem_bytes,
            disk_bytes,
            spill_dir: None,
        }
    }

    /// This config spilling under `dir` instead of the system temp dir.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// How a span batch wants its missing pages treated by the admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Positional reads chosen by the adaptation layer: always admit, at
    /// the hot end — these are the rows the tile scores ranked hottest.
    Admit,
    /// One-touch streaming scans: serve hits, but admit a missing page only
    /// if it was touched before (ghost-set promotion), and then at the cold
    /// end. A scan never displaces more than one slot of hot data.
    Stream,
}

/// One page's bytes, shared between the cache and every reader it served.
pub type Page = Arc<Vec<u8>>;

/// Cache key: one page of one registered object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    object: u64,
    page: u64,
}

/// One cached page, linked into the recency ring of the tier it lives in.
#[derive(Default)]
struct Slot {
    key: Key,
    len: u64,
    /// The bytes while memory-resident; `None` once demoted to spill file
    /// number `file` (0 until then).
    data: Option<Page>,
    file: u64,
    prev: usize,
    next: usize,
}

/// Everything the one lock guards: an index-linked slab, so touch, insert
/// and evict are a hash probe plus a few link writes. Slots `MEM` and
/// `DISK` are the sentinels of the two tiers' rings: a sentinel's `next`
/// is the tier's hottest page, its `prev` the next victim (itself when the
/// tier is empty).
struct Lru {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Bytes held per tier, `[MEM, DISK]`.
    bytes: [u64; 2],
    /// Pages a `Stream`-mode batch missed once; a second miss admits.
    ghosts: HashSet<Key>,
    /// Bumped by every invalidation, so a spill that raced one is dropped
    /// instead of resurrecting a retired generation.
    epoch: u64,
    /// Spill files of removed pages, deleted by [`BlockCache::release`]
    /// once the lock is dropped.
    dead: Vec<u64>,
}

const MEM: usize = 0;
const DISK: usize = 1;

impl Lru {
    fn tier_of(&self, i: usize) -> usize {
        usize::from(self.slots[i].data.is_none())
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
        self.bytes[self.tier_of(i)] -= self.slots[i].len;
    }

    /// Links slot `i` into its tier's ring, at the hot or the cold end.
    fn link(&mut self, i: usize, hot: bool) {
        let tier = self.tier_of(i);
        let (prev, next) = if hot {
            (tier, self.slots[tier].next)
        } else {
            (self.slots[tier].prev, tier)
        };
        (self.slots[i].prev, self.slots[i].next) = (prev, next);
        self.slots[prev].next = i;
        self.slots[next].prev = i;
        self.bytes[tier] += self.slots[i].len;
    }

    /// Inserts a page into the tier its `data` selects.
    fn insert(&mut self, key: Key, data: Option<Page>, len: u64, file: u64, hot: bool) {
        let i = self.free.pop().unwrap_or(self.slots.len());
        if i == self.slots.len() {
            self.slots.push(Slot::default());
        }
        let slot = &mut self.slots[i];
        (slot.key, slot.data, slot.len, slot.file) = (key, data, len, file);
        self.map.insert(key, i);
        self.link(i, hot);
    }

    /// Removes slot `i`, handing back its bytes (memory tier) or queueing
    /// its spill file for deletion.
    fn remove(&mut self, i: usize) -> (Key, Option<Page>) {
        self.unlink(i);
        let key = self.slots[i].key;
        self.map.remove(&key);
        self.free.push(i);
        let data = self.slots[i].data.take();
        if data.is_none() {
            self.dead.push(self.slots[i].file);
        }
        (key, data)
    }
}

/// A bounded, two-tier, page-granular block cache keyed by `(object, page)`.
///
/// Thread-safe and cheap to share ([`Arc`]); one cache can back many files
/// (and many sessions) at once. See the module docs for the policy.
pub struct BlockCache {
    cfg: CacheConfig,
    lru: Mutex<Lru>,
    /// Spill files are numbered from 1 and never reused, so a late delete
    /// of an old file cannot hit a newer spill of the same page.
    next_file: AtomicU64,
    /// Object-name → id registry, so files opening the same remote object
    /// share entries.
    objects: Mutex<HashMap<String, u64>>,
    /// Resolved spill directory (created lazily on first spill).
    spill_dir: PathBuf,
    /// Whether we own (and should remove) the spill directory.
    dir_owned: bool,
    /// Unique prefix for this cache's spill files.
    file_tag: String,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("cfg", &self.cfg)
            .field("mem_used", &self.mem_used())
            .field("disk_used", &self.disk_used())
            .finish()
    }
}

impl BlockCache {
    /// Builds an empty cache with the given tier budgets.
    pub fn new(cfg: CacheConfig) -> Self {
        let seq = CACHE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tag = format!("pai-cache-{}-{seq}", std::process::id());
        let (spill_dir, dir_owned) = match &cfg.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => (std::env::temp_dir().join(&tag), true),
        };
        // The two ring sentinels: empty tiers point at themselves.
        let sentinel = |i| Slot {
            prev: i,
            next: i,
            ..Slot::default()
        };
        BlockCache {
            cfg,
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                slots: vec![sentinel(MEM), sentinel(DISK)],
                free: Vec::new(),
                bytes: [0; 2],
                ghosts: HashSet::new(),
                epoch: 0,
                dead: Vec::new(),
            }),
            next_file: AtomicU64::new(1),
            objects: Mutex::new(HashMap::new()),
            spill_dir,
            dir_owned,
            file_tag: tag,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("cache lru")
    }

    /// Drops the lock, then deletes the spill files its holders retired:
    /// no file I/O ever runs under the lock.
    fn release(&self, mut lru: MutexGuard<'_, Lru>) {
        let dead = std::mem::take(&mut lru.dead);
        drop(lru);
        for file in dead {
            let _ = std::fs::remove_file(self.spill_path(file));
        }
    }

    fn spill_path(&self, file: u64) -> PathBuf {
        self.spill_dir.join(format!("{}-{file}.blk", self.file_tag))
    }

    /// The configured budgets and spill placement.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Registers (or looks up) an object name, returning its stable id.
    /// Two files opening the same object share cache entries.
    pub fn object_id(&self, name: &str) -> u64 {
        let mut objects = self.objects.lock().expect("cache objects");
        let next = objects.len() as u64;
        *objects.entry(name.to_string()).or_insert(next)
    }

    /// Bytes currently resident in the memory tier.
    pub fn mem_used(&self) -> u64 {
        self.lock().bytes[MEM]
    }

    /// Bytes currently resident in the disk-spill tier.
    pub fn disk_used(&self) -> u64 {
        self.lock().bytes[DISK]
    }

    /// Number of cached pages across both tiers.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Drops every cached page of `object` from both tiers (including its
    /// spill files and ghost-set entries), returning how many pages were
    /// removed. Called when an object's generation changes — a delta
    /// compaction rewrote its blocks, or a remote ETag revealed the object
    /// was replaced — so the cache can never serve bytes from a retired
    /// generation. Stale pages become misses, never lies.
    pub fn invalidate_object(&self, object: u64) -> u64 {
        let mut lru = self.lock();
        let of_object = lru.map.iter().filter(|(k, _)| k.object == object);
        let victims: Vec<usize> = of_object.map(|(_, &i)| i).collect();
        for &i in &victims {
            lru.remove(i);
        }
        lru.ghosts.retain(|k| k.object != object);
        lru.epoch += 1;
        self.release(lru);
        victims.len() as u64
    }

    /// Looks one page up, moving it to its tier's hot end. Returns the
    /// bytes on a hit (either tier); a spill file that fails to read back
    /// degrades to a miss. The caller meters the hit/miss.
    pub fn lookup(&self, object: u64, page: u64) -> Option<Page> {
        let key = Key { object, page };
        let mut lru = self.lock();
        let i = *lru.map.get(&key)?;
        lru.unlink(i);
        lru.link(i, true);
        if let Some(data) = &lru.slots[i].data {
            return Some(Arc::clone(data));
        }
        let (file, len) = (lru.slots[i].file, lru.slots[i].len);
        drop(lru);
        let bytes = std::fs::read(self.spill_path(file)).ok();
        let bytes = bytes.filter(|b| b.len() as u64 == len);
        if bytes.is_none() {
            // Torn, truncated, or vanished spill file: drop the entry (if
            // it is still that file's) and report a miss — correctness
            // never depends on the spill tier.
            let mut lru = self.lock();
            let stale = lru.map.get(&key).copied();
            if let Some(i) = stale.filter(|&i| lru.slots[i].file == file) {
                lru.remove(i);
            }
            self.release(lru);
        }
        bytes.map(Arc::new)
    }

    /// Offers a fetched page to the cache under `mode`'s admission rule:
    /// room is made first — the coldest memory pages demote to the disk
    /// tier (or drop) — so neither budget is ever exceeded, then the page
    /// enters at the hot (`Admit`) or cold (`Stream`) end. Evictions and
    /// spill bytes are charged to `c` (the calling file's meters), and the
    /// memory-tier gauge is republished.
    pub fn admit(&self, object: u64, page: u64, data: Page, mode: CacheMode, c: &IoCounters) {
        self.admit_with(object, page, data.len() as u64, mode, c, || data)
    }

    /// [`BlockCache::admit`] for a page of `len` bytes that still lie inside
    /// a larger buffer (a ranged-GET body): `copy` is called only once the
    /// admission rule has accepted the page, so a page the cache refuses —
    /// a streaming scan's first touch, a page over the budget — is never
    /// copied out.
    pub fn admit_with(
        &self,
        object: u64,
        page: u64,
        len: u64,
        mode: CacheMode,
        c: &IoCounters,
        copy: impl FnOnce() -> Page,
    ) {
        let key = Key { object, page };
        let mut lru = self.lock();
        if mode == CacheMode::Stream {
            if lru.ghosts.len() >= GHOST_CAP {
                lru.ghosts.clear();
            }
            if lru.ghosts.insert(key) {
                // First touch from a streaming scan: remember, don't admit.
                return;
            }
        }
        if len == 0 || len > self.cfg.mem_bytes {
            return;
        }
        if let Some(&i) = lru.map.get(&key) {
            lru.remove(i);
        }
        let mut victims = Vec::new();
        while lru.bytes[MEM] + len > self.cfg.mem_bytes {
            let coldest = lru.slots[MEM].prev;
            victims.push(lru.remove(coldest));
        }
        let data = copy();
        debug_assert_eq!(data.len() as u64, len, "the page `copy` was sized for");
        lru.insert(key, Some(data), len, 0, mode == CacheMode::Admit);
        c.set_cache_mem_bytes(lru.bytes[MEM]);
        c.add_cache_evictions(victims.len() as u64);
        let epoch = lru.epoch;
        self.release(lru);
        for (key, data) in victims {
            self.demote(key, &data.expect("memory-tier victim"), epoch, c);
        }
    }

    /// Moves one memory-tier victim to the disk tier: the spill file is
    /// written with no lock held (temp name + atomic rename, so a reader
    /// sees either nothing or the complete page), then linked in under the
    /// lock after the coldest spilled pages made room. Any I/O failure just
    /// drops the page: spilling is an optimization, never a dependency.
    fn demote(&self, key: Key, data: &[u8], epoch: u64, c: &IoCounters) {
        let len = data.len() as u64;
        if len > self.cfg.disk_bytes {
            return;
        }
        let file = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = self.spill_path(file);
        let tmp = path.with_extension("tmp");
        let written = std::fs::create_dir_all(&self.spill_dir)
            .and_then(|()| std::fs::write(&tmp, data))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        c.add_cache_spill_bytes(len);
        let mut lru = self.lock();
        if lru.epoch != epoch || lru.map.contains_key(&key) {
            // Invalidated or re-admitted while the file was being written.
            lru.dead.push(file);
        } else {
            while lru.bytes[DISK] + len > self.cfg.disk_bytes {
                let coldest = lru.slots[DISK].prev;
                lru.remove(coldest);
                c.add_cache_evictions(1);
            }
            lru.insert(key, None, len, file, true);
        }
        self.release(lru);
    }
}

impl Drop for BlockCache {
    fn drop(&mut self) {
        if let Ok(lru) = self.lru.get_mut() {
            while lru.slots[DISK].prev != DISK {
                lru.remove(lru.slots[DISK].prev);
            }
            for file in std::mem::take(&mut lru.dead) {
                let _ = std::fs::remove_file(self.spill_path(file));
            }
        }
        if self.dir_owned {
            let _ = std::fs::remove_dir(&self.spill_dir);
        }
    }
}

/// A [`RawFile`] whose transport reads through a (possibly shared)
/// [`BlockCache`]. Construction binds the cache to the inner backend via
/// [`RawFile::attach_cache`]; every access then delegates unchanged — the
/// cache lives below the span-batch fetcher, so logical meters, answers,
/// and trajectories are byte-identical to the unwrapped file.
pub struct CachedFile {
    inner: Box<dyn RawFile>,
    cache: Arc<BlockCache>,
    attached: bool,
}

impl CachedFile {
    /// Wraps `inner`, binding `cache` to its transport. Inert (but
    /// harmless) when the inner backend has no cache-capable transport.
    pub fn new(inner: Box<dyn RawFile>, cache: Arc<BlockCache>) -> Self {
        let attached = inner.attach_cache(Arc::clone(&cache));
        CachedFile {
            inner,
            cache,
            attached,
        }
    }

    /// Wraps `inner` with a fresh private cache built from `cfg`.
    pub fn with_config(inner: Box<dyn RawFile>, cfg: CacheConfig) -> Self {
        CachedFile::new(inner, Arc::new(BlockCache::new(cfg)))
    }

    /// The cache backing this file (shared handle).
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Whether the inner backend actually bound the cache (false for
    /// local backends or one that already had a cache attached).
    pub fn is_attached(&self) -> bool {
        self.attached
    }
}

impl RawFile for CachedFile {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn counters(&self) -> &IoCounters {
        self.inner.counters()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        self.inner.scan_batches(request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        self.inner.read_rows_into(locators, attrs, window, out)
    }

    fn inner(&self) -> Option<&dyn RawFile> {
        Some(&*self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 100-byte stand-in page (the cache never inspects page sizes; only
    /// the span → page mapping in `remote.rs` knows `PAGE_BYTES`).
    fn page(fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; 100])
    }

    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pai-cache-{tag}-{}", std::process::id()))
    }

    /// Whether a page is cached, without touching its LRU position.
    fn resident(cache: &BlockCache, object: u64, page: u64) -> bool {
        cache.lock().map.contains_key(&Key { object, page })
    }

    fn spill_files(dir: &PathBuf) -> usize {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    }

    #[test]
    fn admit_then_lookup_round_trips_without_copying() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(1 << 20, 0));
        let obj = cache.object_id("a");
        assert!(cache.lookup(obj, 0).is_none());
        let data = page(7);
        cache.admit(obj, 0, Arc::clone(&data), CacheMode::Admit, &c);
        let hit = cache.lookup(obj, 0).expect("admitted");
        assert!(Arc::ptr_eq(&hit, &data), "a hit shares the buffer");
        // Page keying: the neighbour page and another object's page 0 miss.
        assert!(cache.lookup(obj, 1).is_none());
        assert!(cache.lookup(cache.object_id("b"), 0).is_none());
        assert_eq!(cache.mem_used(), 100);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn object_ids_stable_and_shared() {
        let cache = BlockCache::new(CacheConfig::new(1024, 0));
        let a = cache.object_id("x");
        let b = cache.object_id("y");
        assert_ne!(a, b);
        assert_eq!(cache.object_id("x"), a, "same name, same id");
    }

    #[test]
    fn stream_mode_is_one_touch_then_admits() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(1 << 20, 0));
        let obj = cache.object_id("a");
        cache.admit(obj, 3, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 3).is_none(), "first touch bypasses");
        cache.admit(obj, 3, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 3).is_some(), "second touch admits");
        // The ghost set is keyed by page: page 4 starts from scratch.
        cache.admit(obj, 4, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 4).is_none());
    }

    #[test]
    fn victims_leave_in_touch_order() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(400, 0));
        let obj = cache.object_id("a");
        for p in 0..4 {
            cache.admit(obj, p, page(p as u8), CacheMode::Admit, &c);
        }
        // Touch order, coldest first: 1, 3, 0, 2.
        for p in [1, 3, 0, 2] {
            assert!(cache.lookup(obj, p).is_some());
        }
        let resident = |p| resident(&cache, obj, p);
        for (n, victim) in [1u64, 3, 0, 2].into_iter().enumerate() {
            cache.admit(obj, 10 + n as u64, page(9), CacheMode::Admit, &c);
            assert!(!resident(victim), "admission {n} evicts page {victim}");
            assert_eq!(c.cache_evictions(), n as u64 + 1, "one victim each");
        }
        assert_eq!(cache.mem_used(), 400);
        assert_eq!(c.cache_mem_bytes(), 400, "gauge published");
    }

    #[test]
    fn stream_admission_is_the_next_victim_until_a_hit_promotes_it() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(300, 0));
        let obj = cache.object_id("a");
        let stream_in = |p| {
            cache.admit(obj, p, page(5), CacheMode::Stream, &c);
            cache.admit(obj, p, page(5), CacheMode::Stream, &c);
        };
        cache.admit(obj, 0, page(0), CacheMode::Admit, &c);
        cache.admit(obj, 1, page(1), CacheMode::Admit, &c);
        stream_in(7);
        // Cold end: the scanned page leaves first, older residents stay.
        cache.admit(obj, 2, page(2), CacheMode::Admit, &c);
        let resident = |p| resident(&cache, obj, p);
        assert!(!resident(7) && resident(0) && resident(1) && resident(2));
        // A hit promotes it: now the oldest `Admit` page is the victim.
        cache.lookup(obj, 0);
        stream_in(8);
        assert!(!resident(1), "room for 8 came from the cold end");
        cache.lookup(obj, 8).expect("resident");
        cache.admit(obj, 3, page(3), CacheMode::Admit, &c);
        assert!(resident(8) && !resident(2), "the promoted page outlives 2");
    }

    #[test]
    fn a_rescan_cycles_through_one_slot_and_spares_the_hot_set() {
        let c = IoCounters::new();
        // Room for five pages: four `Admit` residents and one free slot.
        let cache = BlockCache::new(CacheConfig::new(500, 0));
        let obj = cache.object_id("a");
        for p in 0..4 {
            cache.admit(obj, p, page(p as u8), CacheMode::Admit, &c);
        }
        for round in 0..2 {
            for p in 100..140 {
                cache.admit(obj, p, page(9), CacheMode::Stream, &c);
            }
            if round == 0 {
                assert_eq!(cache.entries(), 4, "first touches only leave ghosts");
            }
        }
        for p in 0..4 {
            assert!(cache.lookup(obj, p).is_some(), "hot page {p} survived");
        }
        assert_eq!(cache.entries(), 5, "the scan holds exactly one slot");
        assert_eq!(
            c.cache_evictions(),
            39,
            "each scanned page evicted the last"
        );
        // With no free slot a scan costs the coldest resident, and only it.
        cache.admit(obj, 4, page(4), CacheMode::Admit, &c);
        for p in 100..140 {
            cache.admit(obj, p, page(9), CacheMode::Stream, &c);
        }
        assert!(cache.lookup(obj, 0).is_none(), "page 0 was the coldest");
        let survivors = (1..5).filter(|&p| cache.lookup(obj, p).is_some()).count();
        assert_eq!(survivors, 4);
    }

    #[test]
    fn eviction_spills_to_disk_and_serves_from_it() {
        let dir = spill_dir("spill");
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(250, 1 << 20).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        for p in 0..4 {
            cache.admit(obj, p, page(p as u8), CacheMode::Admit, &c);
        }
        assert_eq!(cache.mem_used(), 200);
        assert_eq!(cache.disk_used(), 200, "victims spilled, not dropped");
        assert_eq!(c.cache_spill_bytes(), 200);
        assert_eq!(spill_files(&dir), 2, "one file per spilled page");
        // A spilled page still hits, with the right bytes.
        let hit = cache.lookup(obj, 0).expect("served from spill tier");
        assert_eq!(hit.as_slice(), page(0).as_slice());
        drop(cache);
        assert_eq!(spill_files(&dir), 0, "spill files removed on drop");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn vanished_spill_file_degrades_to_miss() {
        let dir = spill_dir("gone");
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(128, 1 << 20).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        cache.admit(obj, 0, page(3), CacheMode::Admit, &c);
        cache.admit(obj, 1, page(4), CacheMode::Admit, &c);
        assert_eq!(cache.disk_used(), 100);
        for f in std::fs::read_dir(&dir).unwrap() {
            let _ = std::fs::remove_file(f.unwrap().path());
        }
        // Page 0 is on the (now empty) disk tier: lookups still answer,
        // the vanished page just misses and is uncharged.
        assert!(cache.lookup(obj, 0).is_none());
        assert!(cache.lookup(obj, 1).is_some());
        assert_eq!(cache.disk_used(), 0, "vanished entry uncharged");
        assert_eq!(cache.entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_the_coldest_spilled_pages() {
        let dir = spill_dir("disk");
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(100, 250).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        for p in 0..6 {
            cache.admit(obj, p, page(p as u8), CacheMode::Admit, &c);
            assert!(cache.mem_used() <= 100 && cache.disk_used() <= 250);
        }
        assert_eq!(spill_files(&dir), 2, "disk_bytes / page size files at most");
        assert!(cache.lookup(obj, 0).is_none() && cache.lookup(obj, 2).is_none());
        assert!(cache.lookup(obj, 3).is_some() && cache.lookup(obj, 4).is_some());
        // Five memory victims, three of them then dropped from the disk tier.
        assert_eq!(c.cache_evictions(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_object_drops_pages_ghosts_and_spill_files_of_one_object_only() {
        let dir = spill_dir("inv");
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(300, 1 << 20).with_spill_dir(&dir));
        let keep = cache.object_id("keep");
        let gone = cache.object_id("gone");
        for p in 0..3 {
            cache.admit(gone, p, page(p as u8), CacheMode::Admit, &c);
        }
        // Two more pages push two of `gone`'s to disk; `keep` owns one
        // page in each tier and one ghost.
        cache.admit(keep, 0, page(8), CacheMode::Admit, &c);
        cache.admit(gone, 3, page(3), CacheMode::Admit, &c);
        cache.lookup(gone, 2);
        cache.admit(keep, 1, page(9), CacheMode::Admit, &c);
        cache.admit(gone, 99, page(1), CacheMode::Stream, &c);
        cache.admit(keep, 99, page(1), CacheMode::Stream, &c);
        assert_eq!((cache.mem_used(), cache.disk_used()), (300, 300));
        assert_eq!(spill_files(&dir), 3);

        assert_eq!(cache.invalidate_object(gone), 4, "every page, both tiers");
        for p in 0..4 {
            assert!(cache.lookup(gone, p).is_none(), "page {p} stale");
        }
        // Ghost cleared too: a Stream re-touch starts from scratch.
        cache.admit(gone, 99, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(gone, 99).is_none(), "ghost was cleared");
        // The other object keeps its pages, its spill file and its ghost.
        assert_eq!(spill_files(&dir), 1);
        assert_eq!(
            cache.lookup(keep, 0).unwrap().as_slice(),
            page(8).as_slice()
        );
        assert!(cache.lookup(keep, 1).is_some());
        cache.admit(keep, 99, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(keep, 99).is_some(), "keep's ghost survived");
        assert_eq!(cache.mem_used() + cache.disk_used(), 300);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_file_over_local_backend_is_inert() {
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 0.0, 1.0]).collect();
        let inner = crate::ZoneFile::from_rows_with_block(&Schema::synthetic(3), rows, 4).unwrap();
        let f = CachedFile::with_config(Box::new(inner), CacheConfig::new(1 << 20, 0));
        assert!(!f.is_attached(), "local backends have no cache seam");
        let mut n = 0;
        f.scan(&mut |_, _, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 16);
        assert_eq!(f.cache().entries(), 0);
    }

    #[test]
    fn concurrent_admit_lookup_is_torn_free_and_within_budget() {
        let dir = spill_dir("race");
        let c = IoCounters::new();
        let cfg = CacheConfig::new(2048, 1024).with_spill_dir(&dir);
        let cache = Arc::new(BlockCache::new(cfg));
        let obj = cache.object_id("a");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, c, start) = (Arc::clone(&cache), c.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200u64 {
                        let p = (t * 7 + i) % 32;
                        let mode = if i % 3 == 0 {
                            CacheMode::Stream
                        } else {
                            CacheMode::Admit
                        };
                        cache.admit(obj, p, Arc::new(vec![p as u8; 64]), mode, &c);
                        assert!(cache.mem_used() <= 2048 && cache.disk_used() <= 1024);
                        if let Some(hit) = cache.lookup(obj, (p + t) % 32) {
                            let want = ((p + t) % 32) as u8;
                            assert!(
                                hit.len() == 64 && hit.iter().all(|&b| b == want),
                                "torn page {want}"
                            );
                        }
                    }
                });
            }
        });
        assert!(cache.entries() <= 48, "32 + 16 pages fit the two budgets");
        assert!(spill_files(&dir) <= 16);
        drop(cache);
        assert_eq!(spill_files(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
