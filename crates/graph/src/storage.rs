//! Borrowed-or-owned section storage backing [`CsrGraph`](crate::CsrGraph).
//!
//! Every CSR section (offsets, targets, probabilities — forward and reverse)
//! is a [`Section<T>`]: either an owned `Vec<T>` built in memory, or a typed
//! window into a memory-mapped `.oscg` file (see [`crate::shard`]). Both
//! deref to `&[T]`, so every algorithm in the workspace runs unchanged over
//! mapped graphs — the map is the zero-copy path that lets multi-million-edge
//! graphs load without an O(E) parse.
//!
//! Mapped sections are only constructed on little-endian Unix targets (the
//! file format is little-endian and the map comes from `mmap(2)`); everywhere
//! else the binary reader falls back to explicit reads into owned sections.

use std::fmt;
use std::sync::Arc;

/// Marker for element types that may be reinterpreted from raw mapped bytes:
/// fixed layout, no padding, and every bit pattern is a valid value.
///
/// # Safety
///
/// Implementors must be `#[repr(transparent)]` over (or literally be) one of
/// the primitive little-endian section scalars (`u8`, `u32`, `u64`, `f64`)
/// so that `&[u8]` of suitable length and alignment can be cast to `&[Self]`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}
// NodeId is #[repr(transparent)] over u32 (see ids.rs).
unsafe impl Pod for crate::ids::NodeId {}

/// A read-only memory-mapped file.
///
/// Obtained via [`MappedFile::map`]; unmapped on drop. The mapping is
/// `PROT_READ`/`MAP_PRIVATE`, so the kernel pages data in lazily and the
/// bytes can never be written through this handle.
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
}

// Safety: the mapping is read-only for its entire lifetime and `munmap` only
// runs in `Drop`, after every `Section` holding an `Arc<MappedFile>` is gone.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

// The hand-rolled FFI declares `offset: i64`, which matches the C `off_t`
// ABI only on 64-bit Unix targets — on 32-bit targets (where `off_t` may be
// 32-bit) the call would be undefined behavior, so those targets take the
// explicit-read fallback instead.
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

impl MappedFile {
    /// Map `file` read-only in its entirety. Returns `None` when the
    /// platform cannot provide a map (non-Unix or 32-bit target, empty
    /// file, or a failed `mmap` call) — callers fall back to explicit
    /// reads.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &std::fs::File) -> std::io::Result<Option<MappedFile>> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return Ok(None);
        }
        let len = len as usize;
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
        if ptr as usize == usize::MAX {
            // MAP_FAILED: treat as "maps unavailable here", not a hard error.
            return Ok(None);
        }
        Ok(Some(MappedFile {
            ptr: ptr as *const u8,
            len,
        }))
    }

    /// Targets without a sound `mmap` binding never map; the binary reader
    /// uses explicit reads.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(_file: &std::fs::File) -> std::io::Result<Option<MappedFile>> {
        Ok(None)
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Tell the kernel the byte window `offset..offset + len` will not be
    /// needed soon (`madvise(MADV_DONTNEED)`), dropping its resident pages.
    ///
    /// Best-effort residency control for the shard LRU: the mapping is a
    /// clean read-only file map, so dropped pages simply refault from the
    /// file on the next access — contents are never affected. The window is
    /// rounded inward to page boundaries; a failed or unsupported call is a
    /// no-op.
    pub fn advise_dont_need(&self, offset: usize, len: usize) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            const PAGE: usize = 4096;
            let start = offset.next_multiple_of(PAGE);
            let end = offset.saturating_add(len).min(self.len) & !(PAGE - 1);
            if end > start {
                unsafe {
                    sys::madvise(
                        self.ptr.add(start) as *mut std::os::raw::c_void,
                        end - start,
                        sys::MADV_DONTNEED,
                    );
                }
            }
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            let _ = (offset, len);
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MappedFile({} bytes)", self.len)
    }
}

/// One CSR section: owned values or a typed window into a mapped file.
///
/// Derefs to `&[T]`; cloning a mapped section only bumps the map's
/// refcount, so mapped graphs stay cheap to clone.
pub enum Section<T: Pod> {
    /// Heap-allocated values (built in memory or read explicitly).
    Owned(Vec<T>),
    /// `len` elements starting `offset` bytes into a mapped file.
    Mapped {
        file: Arc<MappedFile>,
        offset: usize,
        len: usize,
    },
}

impl<T: Pod> Section<T> {
    /// Wrap a window of `file` as a typed section.
    ///
    /// Returns `None` when the window is out of bounds or misaligned for
    /// `T` — the caller treats that as a corrupt file, never as UB.
    pub fn mapped(file: Arc<MappedFile>, offset: usize, len: usize) -> Option<Self> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = offset.checked_add(bytes)?;
        if end > file.bytes().len() {
            return None;
        }
        let addr = file.bytes().as_ptr() as usize + offset;
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Section::Mapped { file, offset, len })
    }

    /// True when backed by a memory map rather than owned storage.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Section::Mapped { .. })
    }

    /// Wrap a window of `file` as the typed section `section`, validating
    /// bounds **and alignment** of the mapped offset for `T`.
    ///
    /// This is the checked entry point every binary reader goes through: a
    /// hand-edited or foreign file whose section offset is not a multiple of
    /// `align_of::<T>()` yields a typed
    /// [`GraphError::CorruptSection`](crate::error::GraphError) instead of a
    /// misaligned deref.
    pub fn map(
        file: Arc<MappedFile>,
        offset: usize,
        len: usize,
        section: &'static str,
    ) -> Result<Self, crate::error::GraphError> {
        Self::mapped(file, offset, len).ok_or(crate::error::GraphError::CorruptSection {
            section,
            detail: format!(
                "mapped window (offset {offset}, {len} x {}B) is out of bounds or \
                 misaligned for the element type",
                std::mem::size_of::<T>()
            ),
        })
    }
}

impl<T: Pod> std::ops::Deref for Section<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Section::Owned(v) => v,
            Section::Mapped { file, offset, len } => unsafe {
                // Safety: bounds and alignment were checked in `mapped`;
                // `T: Pod` admits every bit pattern; the map outlives `self`
                // via the `Arc`.
                std::slice::from_raw_parts(file.bytes().as_ptr().add(*offset) as *const T, *len)
            },
        }
    }
}

impl<T: Pod> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Section::Owned(v)
    }
}

impl<T: Pod> Clone for Section<T> {
    fn clone(&self) -> Self {
        match self {
            Section::Owned(v) => Section::Owned(v.clone()),
            Section::Mapped { file, offset, len } => Section::Mapped {
                file: Arc::clone(file),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_mapped() { "mapped" } else { "owned" };
        write!(f, "Section<{kind}>{:?}", &self[..])
    }
}

impl<T: Pod + PartialEq> PartialEq for Section<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_section_derefs() {
        let s: Section<u64> = vec![1u64, 2, 3].into();
        assert_eq!(&s[..], &[1, 2, 3]);
        assert!(!s.is_mapped());
        assert_eq!(s.clone(), s);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mapped_section_reads_file_bytes() {
        let path = std::env::temp_dir().join(format!("osn-storage-{}.bin", std::process::id()));
        let payload: Vec<u64> = vec![7, 8, 9];
        {
            let mut f = std::fs::File::create(&path).unwrap();
            for v in &payload {
                f.write_all(&v.to_le_bytes()).unwrap();
            }
        }
        let file = std::fs::File::open(&path).unwrap();
        let map = MappedFile::map(&file).unwrap().expect("mmap available");
        let map = Arc::new(map);
        let s = Section::<u64>::mapped(Arc::clone(&map), 0, 3).unwrap();
        assert!(s.is_mapped());
        assert_eq!(&s[..], &payload[..]);
        // Cloning shares the map.
        let c = s.clone();
        assert_eq!(c, s);
        // Out-of-bounds and misaligned windows are rejected, not UB.
        assert!(Section::<u64>::mapped(Arc::clone(&map), 0, 4).is_none());
        assert!(Section::<u64>::mapped(Arc::clone(&map), 4, 1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn equality_is_by_contents() {
        let a: Section<f64> = vec![0.25, 0.5].into();
        let b: Section<f64> = vec![0.25, 0.5].into();
        let c: Section<f64> = vec![0.25].into();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
