//! Block arithmetic of the scatter + ring-allgather broadcast
//! (`bcast_ext::ScatterAllgather`): framing placement and the
//! identity-based forwarding decision.
//!
//! The ring moves `[total, offset, data]`-framed blocks and each rank
//! must withhold exactly one received block from the successor — the
//! block the successor itself started with. Its subtle parts, kept apart
//! with their own test: the offset is the block's identity (receive
//! order is *not*, because a NACK-repaired block completes after blocks
//! that arrived intact), and offset ties only occur between empty
//! trailing blocks, where the *last* matching claim is the one withheld
//! (skipping the first would starve the ring when every block is empty).

/// The little-endian `u32` at `at` of a frame header, as a length or an
/// index.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize
}

/// Place one framed block (`[total u32, offset u32, data]`) into the
/// assembled output buffer; returns the block's offset.
pub(crate) fn place_block(out: &mut [u8], block: &[u8]) -> u32 {
    let lo = le_u32(block, 4);
    let data = &block[8..];
    out[lo..lo + data.len()].copy_from_slice(data);
    lo as u32
}

/// The withhold-from-successor decision for one rank of the ring: feed
/// it every received block's offset; exactly one returns `true` over
/// the n-1 receives.
pub(crate) struct SuccessorSkip {
    next_lo: u32,
    matches_left: usize,
}

impl SuccessorSkip {
    /// For the rank whose successor is `next`, in an `n`-rank ring
    /// rooted at `root` carrying a `total`-byte message.
    pub(crate) fn new(n: usize, root: usize, next: usize, total: usize) -> Self {
        let per = total.div_ceil(n).max(1);
        let lo_of = |idx: usize| ((idx * per).min(total)) as u32;
        let next_idx = (next + n - root) % n;
        let own_idx = (next_idx + n - 1) % n;
        let next_lo = lo_of(next_idx);
        SuccessorSkip {
            next_lo,
            // How many of the blocks this rank will receive (all but
            // its own) share the successor's offset — >1 only between
            // interchangeable empty trailing blocks.
            matches_left: (0..n)
                .filter(|&i| i != own_idx && lo_of(i) == next_lo)
                .count(),
        }
    }

    /// Whether the received block with offset `lo` is the one to
    /// withhold (the last expected offset match).
    pub(crate) fn should_skip(&mut self, lo: u32) -> bool {
        lo == self.next_lo && {
            self.matches_left -= 1;
            self.matches_left == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exactly one skip over the n-1 received offsets, for every
    /// (n, root, total) shape — including all-empty and trailing-empty
    /// block layouts — regardless of receive order.
    #[test]
    fn exactly_one_skip_in_any_order() {
        for n in 2..=9usize {
            for root in [0, n / 2, n - 1] {
                for total in [0usize, 1, n - 1, 100, 97] {
                    let per = total.div_ceil(n).max(1);
                    for rank in 0..n {
                        let next = (rank + 1) % n;
                        let own_idx = (rank + n - root) % n;
                        // The offsets this rank receives, in two orders.
                        let mut los: Vec<u32> = (0..n)
                            .filter(|&i| i != own_idx)
                            .map(|i| ((i * per).min(total)) as u32)
                            .collect();
                        for reversed in [false, true] {
                            if reversed {
                                los.reverse();
                            }
                            let mut skip = SuccessorSkip::new(n, root, next, total);
                            let skips = los.iter().filter(|&&lo| skip.should_skip(lo)).count();
                            assert_eq!(
                                skips, 1,
                                "n={n} root={root} total={total} rank={rank} rev={reversed}"
                            );
                        }
                    }
                }
            }
        }
    }
}
