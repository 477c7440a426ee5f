//! Shared byte memory backing exported SCI segments.
//!
//! Real SCI segments are physical memory mapped into multiple address
//! spaces. Here all simulated ranks live in one process, so a segment is a
//! heap buffer that several rank threads may touch. Access is bounds-checked
//! and goes through [`core::cell::UnsafeCell`]; the simulation's MPI layer
//! enforces the same access discipline the MPI standard demands of user
//! programs (no conflicting concurrent access within an epoch), and every
//! cross-thread hand-off in the runtime happens through synchronising
//! channels/locks, which establish the necessary happens-before edges.
//! Conflicting unsynchronised access is a caller bug and produces torn data
//! — exactly as on the real interconnect.

use core::cell::UnsafeCell;
use core::fmt;

/// Error type for out-of-bounds segment access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfBounds {
    /// Requested offset.
    pub offset: usize,
    /// Requested length.
    pub len: usize,
    /// Capacity of the memory region.
    pub capacity: usize,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access [{}, {}) exceeds segment of {} bytes",
            self.offset,
            self.offset + self.len,
            self.capacity
        )
    }
}

impl std::error::Error for OutOfBounds {}

/// A fixed-size shared byte buffer.
pub struct SharedMem {
    buf: Box<[UnsafeCell<u8>]>,
}

// SAFETY: all access goes through raw-pointer copies below; the runtime
// guarantees conflicting accesses are separated by synchronisation. See the
// module documentation.
unsafe impl Send for SharedMem {}
unsafe impl Sync for SharedMem {}

impl SharedMem {
    /// Allocate a zero-initialised buffer of `len` bytes.
    pub fn new(len: usize) -> Self {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || UnsafeCell::new(0u8));
        SharedMem {
            buf: v.into_boxed_slice(),
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the buffer has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Validate that `[offset, offset+len)` lies inside the buffer without
    /// touching any bytes. The fault-aware transfer paths use this to
    /// surface out-of-bounds accesses *before* rolling fault dice or
    /// charging virtual time.
    #[inline]
    pub fn check_range(&self, offset: usize, len: usize) -> Result<(), OutOfBounds> {
        self.check(offset, len)
    }

    #[inline]
    fn check(&self, offset: usize, len: usize) -> Result<(), OutOfBounds> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.buf.len())
        {
            return Err(OutOfBounds {
                offset,
                len,
                capacity: self.buf.len(),
            });
        }
        Ok(())
    }

    /// Copy `src` into the buffer at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<(), OutOfBounds> {
        self.check(offset, src.len())?;
        // SAFETY: bounds checked above; synchronisation discipline per
        // module docs.
        unsafe {
            let dst = self.buf.as_ptr().add(offset) as *mut u8;
            core::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
        Ok(())
    }

    /// Copy `dst.len()` bytes from the buffer at `offset` into `dst`.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<(), OutOfBounds> {
        self.check(offset, dst.len())?;
        // SAFETY: bounds checked above; synchronisation discipline per
        // module docs.
        unsafe {
            let src = self.buf.as_ptr().add(offset) as *const u8;
            core::ptr::copy_nonoverlapping(src, dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Run `f` over a borrowed view of `[offset, offset+len)`: what
    /// [`Self::read`] would copy out, without the copy. The range must
    /// not be written while `f` runs — the same discipline every other
    /// access here relies on (a receiver looks at a ring slot only
    /// between the sender's notification and its own release).
    pub fn with_bytes<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, OutOfBounds> {
        self.check(offset, len)?;
        // SAFETY: bounds checked above, and `UnsafeCell<u8>` has the
        // layout of `u8`; no write to the range overlaps the borrow, per
        // the synchronisation discipline of the module docs.
        let view =
            unsafe { core::slice::from_raw_parts(self.buf.as_ptr().add(offset) as *const u8, len) };
        Ok(f(view))
    }

    /// Run `f` over a mutable view of `[offset, offset+len)`: what
    /// [`Self::write`] would copy in, produced in place. Nothing else may
    /// touch the range while `f` runs — the discipline of
    /// [`Self::with_bytes`], from the writer's side.
    pub fn with_bytes_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OutOfBounds> {
        self.check(offset, len)?;
        // SAFETY: bounds checked above, `UnsafeCell<u8>` has the layout of
        // `u8` and makes the bytes writable through `&self`; no other
        // access to the range overlaps the borrow, per the synchronisation
        // discipline of the module docs.
        let view = unsafe {
            core::slice::from_raw_parts_mut(self.buf.as_ptr().add(offset) as *mut u8, len)
        };
        Ok(f(view))
    }

    /// Fill `[offset, offset+len)` with `value`.
    pub fn fill(&self, offset: usize, len: usize, value: u8) -> Result<(), OutOfBounds> {
        self.check(offset, len)?;
        // SAFETY: bounds checked above.
        unsafe {
            let dst = self.buf.as_ptr().add(offset) as *mut u8;
            core::ptr::write_bytes(dst, value, len);
        }
        Ok(())
    }

    /// Copy `len` bytes within the buffer (regions may not overlap in any
    /// sane MPI program; overlap is handled correctly anyway).
    pub fn copy_within(&self, src: usize, dst: usize, len: usize) -> Result<(), OutOfBounds> {
        self.check(src, len)?;
        self.check(dst, len)?;
        // SAFETY: bounds checked above; copy handles overlap.
        unsafe {
            let base = self.buf.as_ptr() as *mut u8;
            core::ptr::copy(base.add(src), base.add(dst), len);
        }
        Ok(())
    }

    /// Read a copy of the whole buffer (test/diagnostic helper).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len()];
        // Cannot fail: exact length.
        let _ = self.read(0, &mut v);
        v
    }

    /// FNV-1a checksum of a range, used by integrity tests to verify that
    /// modelled transfers really moved the right bytes.
    pub fn checksum(&self, offset: usize, len: usize) -> Result<u64, OutOfBounds> {
        self.with_bytes(offset, len, fnv1a)
    }
}

impl fmt::Debug for SharedMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedMem({} bytes)", self.len())
    }
}

/// FNV-1a over a byte slice. Re-exported from [`crate::hash`], where it
/// moved so protocol framing and tests share one implementation.
pub use crate::hash::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips() {
        let m = SharedMem::new(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn with_bytes_views_what_read_copies() {
        let m = SharedMem::new(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.with_bytes(8, 4, |b| b.to_vec()).unwrap(), [1, 2, 3, 4]);
        assert_eq!(m.with_bytes(64, 0, |b| b.len()).unwrap(), 0);
        assert!(m.with_bytes(61, 4, |_| ()).is_err());
        assert!(m.with_bytes(usize::MAX, 2, |_| ()).is_err());
    }

    #[test]
    fn new_memory_is_zeroed() {
        let m = SharedMem::new(16);
        assert_eq!(m.snapshot(), vec![0u8; 16]);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = SharedMem::new(10);
        assert!(m.write(8, &[0; 4]).is_err());
        let mut buf = [0u8; 4];
        assert!(m.read(9, &mut buf).is_err());
        assert!(m.fill(10, 1, 0xff).is_err());
        // Exactly at the end is fine.
        assert!(m.write(6, &[0; 4]).is_ok());
        // Zero-length at the end is fine.
        assert!(m.write(10, &[]).is_ok());
    }

    #[test]
    fn overflowing_offset_is_rejected() {
        let m = SharedMem::new(10);
        assert!(m.write(usize::MAX, &[1]).is_err());
        let err = m.write(usize::MAX - 2, &[0; 8]).unwrap_err();
        assert_eq!(err.capacity, 10);
    }

    #[test]
    fn fill_and_copy_within() {
        let m = SharedMem::new(32);
        m.fill(0, 8, 0xAB).unwrap();
        m.copy_within(0, 16, 8).unwrap();
        let mut out = [0u8; 8];
        m.read(16, &mut out).unwrap();
        assert_eq!(out, [0xAB; 8]);
    }

    #[test]
    fn overlapping_copy_within_is_correct() {
        let m = SharedMem::new(8);
        m.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy_within(0, 2, 6).unwrap();
        assert_eq!(m.snapshot(), vec![1, 2, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn checksum_detects_changes() {
        let m = SharedMem::new(128);
        let before = m.checksum(0, 128).unwrap();
        m.write(64, &[9]).unwrap();
        let after = m.checksum(0, 128).unwrap();
        assert_ne!(before, after);
        assert_eq!(
            m.checksum(0, 64).unwrap(),
            SharedMem::new(64).checksum(0, 64).unwrap()
        );
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let m = Arc::new(SharedMem::new(4096));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let chunk = vec![t + 1; 1024];
                m.write(t as usize * 1024, &chunk).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        for t in 0..4usize {
            assert!(snap[t * 1024..(t + 1) * 1024]
                .iter()
                .all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
