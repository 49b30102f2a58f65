//! Page cache behind the [`RawFile`] seam.
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
//! One bounded memory tier: one LRU list behind **one lock** with O(1)
//! touch, insert and eviction, and no file or network I/O ever under it.
//! Pages are served as shared buffers (a hit clones an `Arc`, never the
//! bytes); the coldest page leaves when a new one needs room.
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
//! without a cache — the span fetcher meters per span whether the cache or
//! the transport served it — so answers, CIs, trajectories, and every
//! logical meter are byte-identical to the uncached run. Only the transport
//! meters (`http_requests`, `http_bytes`) move, and the cache meters
//! (`cache_hits`/`cache_misses` per page lookup, `cache_evictions`,
//! `cache_mem_bytes`) tell the story.
//!
//! [`CachedFile`] is the seam-level entry point: it wraps any inner
//! backend, binds a (possibly shared) [`BlockCache`] to the inner
//! transport via [`RawFile::attach_cache`], and delegates every access.
//! Backends without a cache-capable transport delegate inertly — wrapping
//! a local file is harmless. A private cache is [`CachedFile::with_config`];
//! below the file level, [`crate::HttpBlob::attach_cache`] binds one to a
//! bare blob.

use std::collections::{HashMap, HashSet};
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

/// Size of a [`BlockCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of the memory tier (`0` disables caching).
    pub mem_bytes: u64,
}

impl CacheConfig {
    /// A config with a `mem_bytes` budget. `_disk_budget` is the retired
    /// disk-spill budget and is ignored; every caller passes 0.
    pub fn new(mem_bytes: u64, _disk_budget: u64) -> Self {
        CacheConfig { mem_bytes }
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

/// One cached page, linked into the recency ring.
#[derive(Default)]
struct Slot {
    key: Key,
    len: u64,
    /// The bytes; `None` only in the sentinel and in free slots.
    data: Option<Page>,
    prev: usize,
    next: usize,
}

/// Everything the one lock guards: an index-linked slab, so touch, insert
/// and evict are a hash probe plus a few link writes. Slot `HEAD` is the
/// ring's sentinel: its `next` is the hottest page, its `prev` the next
/// victim (itself when the cache is empty).
struct Lru {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Bytes of every resident page.
    bytes: u64,
    /// Pages a `Stream`-mode batch missed once; a second miss admits.
    ghosts: HashSet<Key>,
}

const HEAD: usize = 0;

impl Lru {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
        self.bytes -= self.slots[i].len;
    }

    /// Links slot `i` into the ring, at the hot or the cold end.
    fn link(&mut self, i: usize, hot: bool) {
        let (prev, next) = if hot {
            (HEAD, self.slots[HEAD].next)
        } else {
            (self.slots[HEAD].prev, HEAD)
        };
        (self.slots[i].prev, self.slots[i].next) = (prev, next);
        self.slots[prev].next = i;
        self.slots[next].prev = i;
        self.bytes += self.slots[i].len;
    }

    fn insert(&mut self, key: Key, data: Page, hot: bool) {
        let i = self.free.pop().unwrap_or(self.slots.len());
        if i == self.slots.len() {
            self.slots.push(Slot::default());
        }
        let slot = &mut self.slots[i];
        (slot.key, slot.len, slot.data) = (key, data.len() as u64, Some(data));
        self.map.insert(key, i);
        self.link(i, hot);
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        self.slots[i].data = None;
        self.free.push(i);
    }
}

/// A bounded, page-granular memory cache keyed by `(object, page)`.
///
/// Thread-safe and cheap to share ([`Arc`]); one cache can back many files
/// (and many sessions) at once. See the module docs for the policy.
pub struct BlockCache {
    cfg: CacheConfig,
    lru: Mutex<Lru>,
    /// Object-name → id registry, so files opening the same remote object
    /// share entries.
    objects: Mutex<HashMap<String, u64>>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("cfg", &self.cfg)
            .field("mem_used", &self.mem_used())
            .finish()
    }
}

impl BlockCache {
    /// Builds an empty cache with the given budget.
    pub fn new(cfg: CacheConfig) -> Self {
        // The ring sentinel: an empty cache points at itself.
        let head = Slot {
            prev: HEAD,
            next: HEAD,
            ..Slot::default()
        };
        BlockCache {
            cfg,
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                slots: vec![head],
                free: Vec::new(),
                bytes: 0,
                ghosts: HashSet::new(),
            }),
            objects: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("cache lru")
    }

    /// Registers (or looks up) an object name, returning its stable id.
    /// Two files opening the same object share cache entries.
    pub fn object_id(&self, name: &str) -> u64 {
        let mut objects = self.objects.lock().expect("cache objects");
        let next = objects.len() as u64;
        *objects.entry(name.to_string()).or_insert(next)
    }

    /// Bytes currently resident.
    pub fn mem_used(&self) -> u64 {
        self.lock().bytes
    }

    /// Number of cached pages.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Drops every cached page and ghost-set entry of `object`, returning
    /// how many pages were removed. Called when an object's generation
    /// changes — a delta compaction rewrote its blocks, or a remote ETag
    /// revealed the object was replaced — so the cache can never serve
    /// bytes from a retired generation. Stale pages become misses, never
    /// lies.
    pub fn invalidate_object(&self, object: u64) -> u64 {
        let mut lru = self.lock();
        let of_object = lru.map.iter().filter(|(k, _)| k.object == object);
        let victims: Vec<usize> = of_object.map(|(_, &i)| i).collect();
        for &i in &victims {
            lru.remove(i);
        }
        lru.ghosts.retain(|k| k.object != object);
        victims.len() as u64
    }

    /// Looks one page up, moving it to the hot end. Returns the bytes on a
    /// hit. The caller meters the hit/miss.
    pub fn lookup(&self, object: u64, page: u64) -> Option<Page> {
        let mut lru = self.lock();
        let i = *lru.map.get(&Key { object, page })?;
        lru.unlink(i);
        lru.link(i, true);
        lru.slots[i].data.clone()
    }

    /// Offers a fetched page to the cache under `mode`'s admission rule:
    /// the coldest pages are evicted first, so the budget is never
    /// exceeded, then the page enters at the hot (`Admit`) or cold
    /// (`Stream`) end. Evictions are charged to `c` (the calling file's
    /// meters), and the memory gauge is republished.
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
        let mut evicted = 0;
        while lru.bytes + len > self.cfg.mem_bytes {
            let coldest = lru.slots[HEAD].prev;
            lru.remove(coldest);
            evicted += 1;
        }
        let data = copy();
        debug_assert_eq!(data.len() as u64, len, "the page `copy` was sized for");
        lru.insert(key, data, mode == CacheMode::Admit);
        c.set_cache_mem_bytes(lru.bytes);
        c.add_cache_evictions(evicted);
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

    /// Whether a page is cached, without touching its LRU position.
    fn resident(cache: &BlockCache, object: u64, page: u64) -> bool {
        cache.lock().map.contains_key(&Key { object, page })
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
    fn invalidate_object_drops_pages_and_ghosts_of_one_object_only() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(500, 0));
        let keep = cache.object_id("keep");
        let gone = cache.object_id("gone");
        for p in 0..3 {
            cache.admit(gone, p, page(p as u8), CacheMode::Admit, &c);
        }
        cache.admit(keep, 0, page(8), CacheMode::Admit, &c);
        cache.admit(keep, 1, page(9), CacheMode::Admit, &c);
        // Each object leaves one ghost.
        cache.admit(gone, 99, page(1), CacheMode::Stream, &c);
        cache.admit(keep, 99, page(1), CacheMode::Stream, &c);
        assert_eq!(cache.mem_used(), 500);

        assert_eq!(cache.invalidate_object(gone), 3, "every page of it");
        for p in 0..3 {
            assert!(cache.lookup(gone, p).is_none(), "page {p} stale");
        }
        // Ghost cleared too: a Stream re-touch starts from scratch.
        cache.admit(gone, 99, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(gone, 99).is_none(), "ghost was cleared");
        // The other object keeps its pages and its ghost.
        assert_eq!(
            cache.lookup(keep, 0).unwrap().as_slice(),
            page(8).as_slice()
        );
        assert!(cache.lookup(keep, 1).is_some());
        cache.admit(keep, 99, page(1), CacheMode::Stream, &c);
        assert!(cache.lookup(keep, 99).is_some(), "keep's ghost survived");
        assert_eq!(cache.mem_used(), 300);
        assert_eq!(c.cache_evictions(), 0, "invalidation is not eviction");
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
        let c = IoCounters::new();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(1024, 0)));
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
                        assert!(cache.mem_used() <= 1024);
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
        assert!(cache.entries() <= 16, "16 pages fit the budget");
        assert!(c.cache_evictions() > 0, "32 pages raced a 16-page budget");
        assert_eq!(cache.mem_used(), 64 * cache.entries() as u64);
    }
}
