//! Read-only memory mapping with a portable fallback.
//!
//! The binary backend ([`crate::ZoneFile`]) can serve
//! reads straight out of a page-cache-backed mapping instead of
//! seek+`read(2)` pairs: positional access becomes pointer arithmetic into
//! [`Mapping`]'s byte slice and hot pages are shared between every clone and
//! thread. On Unix this is a real `mmap(2)` (declared directly against the
//! C runtime — no external crate); elsewhere it degrades to buffering the
//! file in memory behind the same API, which keeps the backend portable.
//!
//! I/O metering note: mapped access still ticks the same [`pai_common::
//! IoCounters`] the streaming readers do (bytes/seeks describe the *logical*
//! access pattern), so a mapped file remains comparable in reports.

use std::fs::File;
use std::ops::Deref;
use std::path::Path;

use pai_common::Result;

/// An immutable byte view of a whole file: `mmap(2)` where available, an
/// owned in-memory copy elsewhere. Dereferences to `[u8]`.
#[derive(Debug)]
pub struct Mapping {
    inner: MappingInner,
}

#[derive(Debug)]
enum MappingInner {
    #[cfg(unix)]
    Mmap(sys::MmapRegion),
    Buffered(Vec<u8>),
}

impl Mapping {
    /// Maps `path` read-only. Empty files map to an empty slice without
    /// touching the OS mapping machinery (zero-length mappings are an error
    /// on most systems).
    pub fn map(path: impl AsRef<Path>) -> Result<Mapping> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Mapping {
                inner: MappingInner::Buffered(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            if let Some(region) = sys::MmapRegion::new(&file, len as usize) {
                return Ok(Mapping {
                    inner: MappingInner::Mmap(region),
                });
            }
        }
        // Fallback (non-Unix, or the kernel refused the mapping): buffer.
        let mut buf = Vec::with_capacity(len as usize);
        use std::io::Read;
        let mut file = file;
        file.read_to_end(&mut buf)?;
        Ok(Mapping {
            inner: MappingInner::Buffered(buf),
        })
    }

    /// Whether this mapping is a true OS-level `mmap` (false = buffered
    /// fallback). Diagnostic only; behavior is identical either way.
    pub fn is_os_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            MappingInner::Mmap(_) => true,
            MappingInner::Buffered(_) => false,
        }
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            MappingInner::Mmap(region) => region.as_slice(),
            MappingInner::Buffered(buf) => buf,
        }
    }
}

#[cfg(unix)]
mod sys {
    //! Minimal read-only `mmap` binding, declared straight against libc
    //! (which every Rust binary on Unix already links).

    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned, read-only mapped region; unmapped on drop.
    #[derive(Debug)]
    pub(super) struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // The region is immutable shared memory: safe to read from any thread.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only; `None` when the kernel
        /// refuses (caller falls back to buffered reads).
        pub(super) fn new(file: &File, len: usize) -> Option<MmapRegion> {
            debug_assert!(len > 0);
            // SAFETY: NULL addr + PROT_READ + MAP_PRIVATE over a file we
            // hold open is the canonical read-only mapping; we check the
            // MAP_FAILED sentinel before using the pointer.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(MmapRegion {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the region stays mapped for the lifetime of self and
            // was created with exactly this length.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: ptr/len came from a successful mmap of this length.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join("pai_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let m = Mapping::map(&path).unwrap();
        assert_eq!(&m[..], &payload[..]);
        assert_eq!(m.len(), 10_000);
        #[cfg(unix)]
        assert!(m.is_os_mapped(), "unix should get a real mmap");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = std::env::temp_dir().join("pai_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let m = Mapping::map(&path).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_os_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let dir = std::env::temp_dir().join("pai_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.bin");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let m = std::sync::Arc::new(Mapping::map(&path).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || assert!(m.iter().all(|&b| b == 7)));
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Mapping::map("/definitely/not/a/real/path.bin").is_err());
    }
}
