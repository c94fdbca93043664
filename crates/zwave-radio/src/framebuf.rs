//! Shared, copy-on-write frame buffers for the zero-copy delivery path.
//!
//! `Medium::transmit` used to clone the raw frame bytes once per receiver;
//! with [`FrameBuf`] an uncorrupted broadcast to N receivers is one
//! allocation plus N reference-count bumps, and link-layer retransmissions
//! of byte-identical frames are pure ref-count bumps. The impairment and
//! noise layers call [`FrameBuf::make_mut`] or [`FrameBuf::truncate`] only
//! when they actually flip or cut bytes, so the copy happens exactly on the
//! (rare) mutating paths and every other holder keeps the pristine frame.

use std::rc::Rc;

/// A cheaply-cloneable, copy-on-write frame buffer: one `Rc<[u8]>`
/// allocation holding the bytes and both reference counts.
///
/// Dereferences to `[u8]`, so read paths treat it exactly like a byte
/// slice; equality is over the bytes, not the allocation. Cloning bumps a
/// reference count; [`FrameBuf::make_mut`] gives `&mut [u8]` access,
/// copying the bytes first only if another clone is still alive. A frame
/// never grows once built: it is encoded whole and then only flipped or
/// cut short by the channel.
///
/// A home runs on one thread, so the count is not atomic and a frame is
/// `!Send`, like the medium that carries it.
#[derive(Clone)]
pub struct FrameBuf {
    inner: Rc<[u8]>,
}

impl FrameBuf {
    /// Copies `bytes` into a fresh buffer (one allocation).
    pub fn from_slice(bytes: &[u8]) -> Self {
        FrameBuf { inner: Rc::from(bytes) }
    }

    /// The frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner
    }

    /// Mutable access to the bytes, copy-on-write: if other clones share
    /// the allocation the bytes are copied first, otherwise this is free.
    /// Sharers keep the pre-mutation bytes either way.
    pub fn make_mut(&mut self) -> &mut [u8] {
        Rc::make_mut(&mut self.inner)
    }

    /// Cuts the frame to its first `keep` bytes (no-op when it is no
    /// longer than that). A shorter frame needs a new allocation, so this
    /// copies the prefix; sharers keep the whole frame.
    pub fn truncate(&mut self, keep: usize) {
        if keep < self.inner.len() {
            self.inner = Rc::from(&self.inner[..keep]);
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<Vec<u8>> for FrameBuf {
    /// Moves the bytes into a shared allocation (one allocation; the
    /// vector's own buffer is freed).
    fn from(bytes: Vec<u8>) -> Self {
        FrameBuf { inner: Rc::from(bytes) }
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::from_slice(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for FrameBuf {
    fn from(bytes: [u8; N]) -> Self {
        FrameBuf::from_slice(&bytes)
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl std::hash::Hash for FrameBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<FrameBuf> for [u8; N] {
    fn eq(&self, other: &FrameBuf) -> bool {
        self == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a FrameBuf {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = FrameBuf::from_slice(&[1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
        assert_eq!(Rc::strong_count(&a.inner), 2);
        drop(b);
        assert_eq!(Rc::strong_count(&a.inner), 1);
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut a = FrameBuf::from_slice(&[1, 2, 3]);
        let before = a.as_slice().as_ptr();
        a.make_mut()[0] = 9;
        assert_eq!(a.as_slice().as_ptr(), before, "unique buffer mutates in place");

        let b = a.clone();
        a.make_mut()[1] = 8;
        assert_eq!(a, vec![9, 8, 3]);
        assert_eq!(b, vec![9, 2, 3], "sharer keeps the pre-mutation bytes");
    }

    #[test]
    fn truncate_cuts_only_this_handle() {
        let mut a = FrameBuf::from_slice(&[1, 2, 3, 4]);
        let b = a.clone();
        a.truncate(9);
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()), "no cut, no copy");
        a.truncate(2);
        assert_eq!(a, [1, 2]);
        assert_eq!(b, [1, 2, 3, 4], "sharer keeps the whole frame");
        a.truncate(0);
        assert!(a.is_empty());
    }

    #[test]
    fn equality_is_over_bytes_not_allocations() {
        let a = FrameBuf::from_slice(&[0xDE, 0xAD]);
        let b = FrameBuf::from_slice(&[0xDE, 0xAD]);
        assert_eq!(a, b);
        assert_eq!(a, vec![0xDE, 0xAD]);
        assert_eq!(vec![0xDE, 0xAD], a);
        assert_eq!(a, [0xDE, 0xAD]);
        assert_eq!(a, &[0xDE, 0xAD][..]);
        assert_ne!(a, FrameBuf::from_slice(&[0xDE]));
    }

    #[test]
    fn deref_gives_slice_ops() {
        let buf = FrameBuf::from_slice(&[5, 6, 7, 8]);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
        assert_eq!(buf[1], 6);
        assert_eq!(&buf[..2], &[5, 6]);
        assert_eq!(buf.iter().copied().sum::<u8>(), 26);
    }
}
