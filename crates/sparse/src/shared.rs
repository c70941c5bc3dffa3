//! Raw shared-mutable slice view for provably disjoint parallel writes.
//!
//! Several motif kernels update a vector at a set of pairwise-distinct
//! indices (the rows a tile of color-block ordered ELL positions holds,
//! rows of a level in a triangular solve, the injection points of
//! restriction). Safe Rust cannot
//! express "these `&mut` borrows are disjoint because the index list
//! has no duplicates", so the kernels share one erased pointer and
//! uphold the invariant themselves.
//!
//! Every use site documents its disjointness argument next to the
//! `unsafe` block.

/// An erased `&mut [S]` that may be shared across the threads of one
/// parallel kernel invocation.
pub struct SharedMut<S> {
    ptr: *mut S,
    len: usize,
}

// SAFETY: the pointee outlives the kernel call (it is borrowed from a
// `&mut [S]` argument), and callers guarantee data-race freedom: each
// task writes only indices no other concurrent task reads or writes.
unsafe impl<S: Send> Send for SharedMut<S> {}
unsafe impl<S: Send> Sync for SharedMut<S> {}

impl<S> SharedMut<S> {
    /// Capture a mutable slice for the duration of one parallel kernel.
    pub fn new(x: &mut [S]) -> Self {
        SharedMut { ptr: x.as_mut_ptr(), len: x.len() }
    }

    /// The whole vector as a shared slice.
    ///
    /// # Safety
    /// The caller must ensure no element read through this slice is
    /// concurrently written through [`SharedMut::get_mut`].
    #[inline(always)]
    pub unsafe fn slice(&self) -> &[S] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }

    /// Length of the captured slice (for callers' bounds assertions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the captured slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to element `i`.
    ///
    /// # Safety
    /// The caller must ensure `i < len` and that no other thread
    /// concurrently accesses element `i`.
    #[inline(always)]
    pub unsafe fn get_mut(&self, i: usize) -> *mut S {
        debug_assert!(i < self.len);
        self.ptr.add(i)
    }
}
