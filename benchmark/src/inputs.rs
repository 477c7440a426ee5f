//! Seed-derived inputs: payload bytes, the noncontig datatype family, the
//! irregular indexed type, and the checksum every received buffer is
//! compared against. The runtime under test only ever sees what is
//! generated here; the same seed gives the same inputs.

use mpi_datatype::Datatype;
use simclock::SplitMix64;

/// Payload of one noncontig message and size of the sparse window
/// (the paper's 256 KiB). Cache-resident on any host this runs on, so
/// the GB/s figures are cache bandwidths, not DRAM bandwidths.
pub const PAYLOAD: usize = 256 * 1024;

/// `len` seed-derived bytes; `stream` separates independent buffers of
/// one seed.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed).fork(stream);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Four-lane multiply-rotate checksum over little-endian words. Not
/// cryptographic: it has to detect a dropped, shifted or stale block
/// at a fraction of the cost of the transfer it checks.
pub fn checksum(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [1u64, 2, 3, 4];
    let mut chunks = data.chunks_exact(32);
    for c in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (lane.rotate_left(7) ^ w).wrapping_mul(K);
        }
    }
    let mut h = lanes.iter().fold(data.len() as u64, |h, l| {
        (h.rotate_left(13) ^ l).wrapping_mul(K)
    });
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(K);
    }
    h
}

/// A non-contiguous layout as the benchmark sees it: the datatype handed
/// to the runtime plus the `(byte offset, length)` block list the hand
/// loop and the expected-buffer construction walk.
pub struct Layout {
    pub label: String,
    pub datatype: Datatype,
    pub blocks: Vec<(usize, usize)>,
    pub extent: usize,
}

impl Layout {
    /// The paper's noncontig type: blocks of `block` bytes of doubles,
    /// stride twice the block, `PAYLOAD` bytes in total.
    pub fn vector(block: usize, total: usize) -> Layout {
        assert!(block.is_multiple_of(8) && total.is_multiple_of(block));
        let count = total / block;
        let datatype = Datatype::vector(
            count,
            block / 8,
            2 * (block / 8) as isize,
            &Datatype::double(),
        );
        let blocks = (0..count).map(|i| (i * 2 * block, block)).collect();
        Layout {
            label: label_for(block),
            extent: datatype.extent(),
            datatype,
            blocks,
        }
    }

    /// Seeded irregular indexed type: blocks of 8–512 B separated by
    /// gaps of 8–512 B (all multiples of 8), `total` payload bytes.
    pub fn irregular(seed: u64, total: usize) -> Layout {
        let mut rng = SplitMix64::new(seed).fork(0x1447);
        let mut blocks = Vec::new();
        let (mut at, mut left) = (0usize, total);
        while left > 0 {
            let len = (8 * rng.next_range(1, 64) as usize).min(left);
            blocks.push((at, len));
            at += len + 8 * rng.next_range(1, 64) as usize;
            left -= len;
        }
        let hblocks: Vec<(usize, i64)> =
            blocks.iter().map(|&(off, len)| (len, off as i64)).collect();
        let datatype = Datatype::hindexed(&hblocks, &Datatype::byte());
        Layout {
            label: "irregular".into(),
            extent: datatype.extent(),
            datatype,
            blocks,
        }
    }

    /// A contiguous run of `total` bytes (the reference transfer).
    pub fn contiguous(total: usize) -> Layout {
        let datatype = Datatype::contiguous(total / 8, &Datatype::double());
        Layout {
            label: "contig".into(),
            extent: total,
            datatype,
            blocks: vec![(0, total)],
        }
    }

    /// The hand-written copy loop every datatype path is judged against:
    /// gather the blocks of `src` into `dst`.
    pub fn hand_pack(&self, src: &[u8], dst: &mut [u8]) {
        let mut at = 0;
        for &(off, len) in &self.blocks {
            dst[at..at + len].copy_from_slice(&src[off..off + len]);
            at += len;
        }
    }

    /// What a zeroed receive buffer must hold after one instance of
    /// `src` arrived through this layout: blocks copied, gaps untouched.
    pub fn expected_receive(&self, src: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.extent];
        for &(off, len) in &self.blocks {
            out[off..off + len].copy_from_slice(&src[off..off + len]);
        }
        out
    }
}

/// `b8`, `b128`, `b16k`, `b64k` — the suffix the metric names use.
pub fn label_for(block: usize) -> String {
    if block >= 1024 && block.is_multiple_of(1024) {
        format!("b{}k", block / 1024)
    } else {
        format!("b{block}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(bytes(7, 1, 100), bytes(7, 1, 100));
        assert_ne!(bytes(7, 1, 100), bytes(8, 1, 100));
        assert_ne!(bytes(7, 1, 100), bytes(7, 2, 100));
        let (a, b) = (Layout::irregular(7, PAYLOAD), Layout::irregular(7, PAYLOAD));
        assert_eq!(a.blocks, b.blocks);
        assert_ne!(a.blocks, Layout::irregular(8, PAYLOAD).blocks);
    }

    #[test]
    fn layouts_carry_the_full_payload() {
        for l in [
            Layout::vector(8, PAYLOAD),
            Layout::vector(16 * 1024, PAYLOAD),
            Layout::irregular(3, PAYLOAD),
        ] {
            assert_eq!(l.blocks.iter().map(|b| b.1).sum::<usize>(), PAYLOAD);
            assert_eq!(l.datatype.size(), PAYLOAD);
            assert_eq!(l.datatype.extent(), l.extent);
            assert!(l
                .blocks
                .iter()
                .all(|&(_, len)| (8..=16 * 1024).contains(&len)));
        }
    }

    #[test]
    fn checksum_sees_moved_and_stale_bytes() {
        let a = bytes(1, 1, 4096 + 5);
        let mut b = a.clone();
        b.swap(10, 2000);
        assert_ne!(checksum(&a), checksum(&b));
        let mut c = a.clone();
        c[4098] ^= 1;
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(checksum(&a[..4096]), checksum(&a));
    }

    #[test]
    fn hand_pack_gathers_the_blocks_in_order() {
        let l = Layout::vector(8, 32);
        let src: Vec<u8> = (0..l.extent as u8).collect();
        let mut packed = vec![0u8; 32];
        l.hand_pack(&src, &mut packed);
        assert_eq!(packed[..10], [0, 1, 2, 3, 4, 5, 6, 7, 16, 17]);
        let expected = l.expected_receive(&src);
        assert_eq!(expected[..10], [0, 1, 2, 3, 4, 5, 6, 7, 0, 0]);
    }

    #[test]
    fn labels_match_the_metric_suffixes() {
        assert_eq!(label_for(8), "b8");
        assert_eq!(label_for(128), "b128");
        assert_eq!(label_for(16 * 1024), "b16k");
    }
}
