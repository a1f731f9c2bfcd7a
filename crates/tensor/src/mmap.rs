//! Read-only memory-mapped file regions, hand-rolled over raw `mmap(2)`.
//!
//! The `.uaem` v3 artifact stores its parameter arena as a 16-byte-aligned
//! tail of raw little-endian `f32`s so a serving process can point
//! [`crate::Matrix`] values straight at the page cache instead of copying
//! the weights onto the heap. [`MmapRegion`] is the whole-file mapping that
//! backs those matrices: it is immutable, `Send + Sync`, page-aligned (so
//! any 16-byte-aligned file offset is also 16-byte-aligned in memory), and
//! unmapped when the last [`std::sync::Arc`] handle drops.
//!
//! The workspace is zero-dependency, so the two syscalls are declared as
//! `extern "C"` against the platform libc that every Rust binary on a
//! `*-gnu`/`*-musl`/apple target already links. On non-unix targets (and on
//! a failed `mmap`) the region falls back to an ordinary read into a
//! 16-byte-aligned heap buffer — same API, same alignment guarantee, no
//! page-cache sharing. That heap form is also public ([`MmapRegion::read`],
//! [`MmapRegion::heap`]), so copied and freshly built arenas share one type
//! with mapped ones.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

enum Backing {
    /// A live `mmap(2)` mapping (unix only); unmapped on drop.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// 16-byte-aligned heap copy (non-unix targets or mmap failure). The
    /// `u128` element type is what guarantees the alignment.
    Heap(Vec<u128>, usize),
}

/// An immutable, 16-byte-aligned view of a whole file.
pub struct MmapRegion {
    backing: Backing,
}

// The mapping is PROT_READ and never mutated after construction; sharing
// the raw pointer across threads is as safe as sharing an `Arc<[u8]>`.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps `path` read-only. Falls back to a heap read when mapping is
    /// unavailable, so callers get the same bytes (without the page-cache
    /// sharing) on every platform.
    pub fn map(path: &Path) -> io::Result<MmapRegion> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        {
            if let Some(region) = Self::map_unix(&file, len) {
                return Ok(region);
            }
        }
        Self::read_fallback(file, len)
    }

    #[cfg(unix)]
    fn map_unix(file: &File, len: usize) -> Option<MmapRegion> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // A zero-length mmap is EINVAL; an empty region needs no map.
            return Some(MmapRegion {
                backing: Backing::Heap(Vec::new(), 0),
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return None;
        }
        Some(MmapRegion {
            backing: Backing::Mapped {
                ptr: ptr as *const u8,
                len,
            },
        })
    }

    /// Reads `path` into a 16-byte-aligned heap region without mapping it —
    /// the copy transport, for files that may be replaced while in use.
    pub fn read(path: &Path) -> io::Result<MmapRegion> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        Self::read_fallback(file, len)
    }

    fn read_fallback(mut file: File, len: usize) -> io::Result<MmapRegion> {
        use std::io::Read as _;
        let mut read = Ok(());
        let region = Self::heap(len, |bytes| read = file.read_exact(bytes));
        read.map(|()| region)
    }

    /// A zeroed 16-byte-aligned heap region of `len` bytes, written in
    /// place by `fill` before it becomes immutable.
    pub fn heap(len: usize, fill: impl FnOnce(&mut [u8])) -> MmapRegion {
        let words = len.div_ceil(16);
        let mut buf = vec![0u128; words];
        // SAFETY: `buf` owns `words * 16` initialised (zeroed) bytes, any
        // byte pattern is a valid `u128`, and this view is the only borrow
        // of `buf` until `fill` returns.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, words * 16) };
        fill(&mut bytes[..len]);
        MmapRegion {
            backing: Backing::Heap(buf, len),
        }
    }

    /// The mapped file contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(buf, len) => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    /// File length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { len, .. } => *len,
            Backing::Heap(_, len) => *len,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the region rides a real `mmap` (vs. the heap fallback) — the
    /// bit the `.uaem` load tests assert so a "zero-copy" claim is checkable.
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self.backing, Backing::Mapped { .. })
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("uae_mmap_{}_{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn maps_exact_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let path = tmp("contents", &data);
        let region = MmapRegion::map(&path).unwrap();
        assert_eq!(region.len(), 5000);
        assert_eq!(region.bytes(), &data[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn base_is_16_byte_aligned() {
        let path = tmp("align", &[7u8; 64]);
        let region = MmapRegion::map(&path).unwrap();
        assert_eq!(region.bytes().as_ptr() as usize % 16, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_region() {
        let path = tmp("empty", &[]);
        let region = MmapRegion::map(&path).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(MmapRegion::map(Path::new("/nonexistent/uae.bin")).is_err());
    }

    #[test]
    fn heap_fallback_matches_mapping() {
        let data = vec![42u8; 100];
        let path = tmp("fallback", &data);
        let file = File::open(&path).unwrap();
        let region = MmapRegion::read_fallback(file, 100).unwrap();
        assert!(!region.is_mapped());
        assert_eq!(region.bytes(), &data[..]);
        assert_eq!(region.bytes().as_ptr() as usize % 16, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
