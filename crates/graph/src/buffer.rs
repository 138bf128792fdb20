//! Refilling long-lived buffers without copying what they held.
//!
//! A stream session rewrites the same large arrays every window: the next
//! graph, the next view, the engine's per-worker rows. Growing such a buffer
//! with `clear` + `reserve` reallocates it, and `realloc` copies the whole
//! old block (it cannot know that the contents are dead), so every page of
//! it becomes resident again in the new block. [`refit`] instead frees a
//! buffer that is too small before allocating its replacement, with
//! headroom, so a slowly growing input refits the same block for many
//! rounds. Headroom costs address space, not memory, until it is written:
//! a page nobody touches is never made resident.

/// Empties `buf` and gives it room for `len` items. A buffer with room keeps
/// its block. One without is freed first and replaced by a fresh block of
/// `len + len / 4` items, so the stale contents are never copied. A quarter
/// is about 30 windows of a stream whose graph gains 0.7 % of its
/// adjacency per window, the churn of `benchmark/`'s `stream_churn`.
pub fn refit<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        *buf = Vec::new();
        buf.reserve_exact(len + len / 4);
    }
}

/// How a writer sizes the arrays it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fit {
    /// At exactly the final length: a result allocated for the caller.
    Exact,
    /// By [`refit`]: a recycled buffer the caller fills again next round.
    Recycled,
}

impl Fit {
    /// Empties `buf` and gives it room for `len` items.
    pub(crate) fn size<T>(self, buf: &mut Vec<T>, len: usize) {
        match self {
            Self::Exact => {
                *buf = Vec::new();
                buf.reserve_exact(len);
            }
            Self::Recycled => refit(buf, len),
        }
    }

    /// Gives up the room `buf` was sized with beyond its length, when it is
    /// a result allocated for the caller: a writer that sized it by an
    /// upper bound leaves it at exactly its final length.
    pub(crate) fn trim<T>(self, buf: &mut Vec<T>) {
        if self == Self::Exact {
            buf.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_keeps_a_block_with_room_and_replaces_one_without() {
        let mut buf: Vec<u32> = Vec::with_capacity(100);
        buf.extend(0..50);
        let block = buf.as_ptr();
        refit(&mut buf, 100);
        assert!(buf.is_empty());
        assert_eq!((buf.as_ptr(), buf.capacity()), (block, 100));
        refit(&mut buf, 160);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 200);
    }

    #[test]
    fn exact_fit_allocates_the_final_length() {
        let mut buf = vec![7u64; 3];
        Fit::Exact.size(&mut buf, 10);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 10);
        buf.extend(0..4);
        Fit::Recycled.trim(&mut buf);
        assert_eq!(buf.capacity(), 10);
        Fit::Exact.trim(&mut buf);
        assert_eq!(buf.capacity(), 4);
    }
}
