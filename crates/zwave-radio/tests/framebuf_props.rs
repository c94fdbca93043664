//! Property tests for the copy-on-write frame buffer, plus an
//! impairment-isolation check: one receiver's corruption must never leak
//! into another receiver's copy of a shared broadcast buffer.

use proptest::prelude::*;

use zwave_radio::{FrameBuf, Medium, NoiseModel, SimClock};

/// Operations driving both the real `FrameBuf` clone graph and a naive
/// `Vec<u8>`-per-handle model that copies eagerly on clone. Decoded from
/// a raw byte tuple `(tag, handle, idx, val)` so the generator needs no
/// strategy combinators beyond tuples. A frame never grows once built, so
/// there is no append: the channel only flips bytes or cuts the frame.
#[derive(Debug, Clone)]
enum Op {
    /// Clone handle `src` onto the end of the handle list.
    Clone { src: usize },
    /// XOR a byte through `make_mut` on one handle.
    Flip { handle: usize, idx: usize, mask: u8 },
    /// Cut one handle to a prefix through `truncate`.
    Truncate { handle: usize, keep: usize },
    /// Drop a handle (frees a model copy; decrements the real refcount).
    Drop { handle: usize },
}

fn decode_op((tag, handle, idx, val): (u8, u8, u8, u8)) -> Op {
    let handle = usize::from(handle);
    let idx = usize::from(idx);
    match tag % 4 {
        0 => Op::Clone { src: handle },
        1 => Op::Flip { handle, idx, mask: val.max(1) },
        2 => Op::Truncate { handle, keep: idx },
        _ => Op::Drop { handle },
    }
}

proptest! {
    /// Any interleaving of clones, flips, cuts and drops leaves every
    /// live handle holding exactly the bytes the eager-copy model holds:
    /// mutating one handle is never visible through any other.
    #[test]
    fn cow_matches_eager_copy_model(
        seed in proptest::collection::vec(any::<u8>(), 0..48),
        raw_ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..40,
        ),
    ) {
        let mut real: Vec<FrameBuf> = vec![FrameBuf::from(seed.clone())];
        let mut model: Vec<Vec<u8>> = vec![seed];

        for op in raw_ops.into_iter().map(decode_op) {
            match op {
                Op::Clone { src } => {
                    let src = src % real.len();
                    real.push(real[src].clone());
                    model.push(model[src].clone());
                }
                Op::Flip { handle, idx, mask } => {
                    let h = handle % real.len();
                    if !model[h].is_empty() {
                        let i = idx % model[h].len();
                        real[h].make_mut()[i] ^= mask;
                        model[h][i] ^= mask;
                    }
                }
                Op::Truncate { handle, keep } => {
                    // Past the end is a no-op, as on the model.
                    let h = handle % real.len();
                    let keep = keep % (model[h].len() + 2);
                    real[h].truncate(keep);
                    model[h].truncate(keep);
                }
                Op::Drop { handle } => {
                    if real.len() > 1 {
                        let h = handle % real.len();
                        real.swap_remove(h);
                        model.swap_remove(h);
                    }
                }
            }
            for (r, m) in real.iter().zip(&model) {
                prop_assert_eq!(r.as_slice(), m.as_slice());
            }
        }
    }

    /// Clones share one allocation until the first mutation.
    #[test]
    fn clones_share_until_mutated(bytes in proptest::collection::vec(any::<u8>(), 1..48)) {
        let a = FrameBuf::from(bytes);
        let mut b = a.clone();
        prop_assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        b.make_mut()[0] ^= 0xFF;
        prop_assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        prop_assert_ne!(a.as_slice()[0], b.as_slice()[0]);
        prop_assert_eq!(&a.as_slice()[1..], &b.as_slice()[1..]);
    }

    /// A cut copies only the kept prefix into this handle; sharers keep
    /// the whole frame at its old address.
    #[test]
    fn truncate_leaves_sharers_whole(
        bytes in proptest::collection::vec(any::<u8>(), 1..48),
        keep in any::<u8>(),
    ) {
        let a = FrameBuf::from(bytes.clone());
        let mut b = a.clone();
        let keep = usize::from(keep) % bytes.len();
        b.truncate(keep);
        prop_assert_eq!(b.as_slice(), &bytes[..keep]);
        prop_assert_eq!(a.as_slice(), bytes.as_slice());
        prop_assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }
}

/// With a clean channel every receiver's delivery is a ref-count bump on
/// the transmitted buffer: one allocation serves the whole fan-out.
#[test]
fn clean_broadcast_shares_one_allocation() {
    let medium = Medium::new(SimClock::new(), 1);
    let a = medium.attach(0.0);
    let receivers: Vec<_> = (1..=4).map(|i| medium.attach(f64::from(i))).collect();
    a.transmit(&[0xAB, 0xCD, 0xEF, 0x01, 0x02]);
    let frames: Vec<_> = receivers.iter().map(|r| r.drain().remove(0)).collect();
    let first_ptr = frames[0].bytes.as_slice().as_ptr();
    for f in &frames {
        assert_eq!(f.bytes.as_slice(), &[0xAB, 0xCD, 0xEF, 0x01, 0x02]);
        assert_eq!(f.bytes.as_slice().as_ptr(), first_ptr, "clean fan-out must share");
    }
}

/// Corruption lands per receiver: a receiver whose roll corrupts the frame
/// gets a private copy, and the bytes every other receiver sees — and the
/// next transmission of the same buffer — stay pristine.
#[test]
fn corruption_never_leaks_across_receivers() {
    let original = [0x11u8, 0x22, 0x33, 0x44, 0x55, 0x66];
    let mut saw_mixed_outcome = false;
    for seed in 0..32u64 {
        let medium = Medium::new(SimClock::new(), seed);
        medium.set_noise(NoiseModel { corruption: 0.5, ..NoiseModel::clean() });
        let tx = medium.attach(0.0);
        let receivers: Vec<_> = (1..=4).map(|i| medium.attach(f64::from(i))).collect();
        tx.transmit(&original);
        let frames: Vec<_> = receivers.iter().map(|r| r.drain().remove(0)).collect();

        let (corrupted, pristine): (Vec<_>, Vec<_>) =
            frames.iter().partition(|f| f.bytes.as_slice() != original);
        if !corrupted.is_empty() && !pristine.is_empty() {
            saw_mixed_outcome = true;
        }
        for f in &pristine {
            assert_eq!(f.bytes.as_slice(), original, "seed {seed}: clean copy was dirtied");
        }
        for f in &corrupted {
            // Exactly one XOR-flipped byte, confined to this receiver.
            let diffs = f.bytes.iter().zip(original.iter()).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1, "seed {seed}: corruption is a single byte flip");
        }
    }
    assert!(saw_mixed_outcome, "sweep never produced corrupt+clean mix; weak test");
}
