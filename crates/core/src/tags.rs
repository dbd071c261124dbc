//! Tag-space layout for collective operations.
//!
//! Every collective invocation gets a fresh operation sequence number from
//! its communicator; combined with an operation code and a phase id it
//! yields the wire tags for that invocation. Because MPI requires all
//! ranks of a communicator to issue collectives in the same order (the
//! "safe program" requirement the paper leans on in its §4), sequence
//! numbers — and therefore tags — agree across ranks without negotiation.
//!
//! Layout of a 32-bit tag:
//!
//! ```text
//!  31..8   operation sequence number (wraps)
//!   7..4   operation code
//!   3..0   phase within the operation
//! ```

use mmpi_transport::Tag;

/// Operation codes. Each keeps its value, so no wire tag moves when one
/// goes; 4, 7 and 8 (scatter, all-to-all and scan) are retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Broadcast.
    Bcast = 1,
    /// Barrier synchronization.
    Barrier = 2,
    /// Gather to root.
    Gather = 3,
    /// Reduce to root.
    Reduce = 5,
    /// All-gather.
    Allgather = 6,
    /// Reduce + broadcast (allreduce).
    Allreduce = 9,
}

/// Phase ids within an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Payload-carrying message.
    Data = 0,
    /// Readiness scout (the paper's synchronization message).
    Scout = 1,
    /// Acknowledgement (PVM-style reliable multicast).
    Ack = 2,
    /// Barrier / broadcast release.
    Release = 3,
    /// Pairwise exchange (recursive doubling) and ring steps.
    Exchange = 4,
}

/// Tags for one collective invocation.
#[derive(Clone, Copy, Debug)]
pub struct OpTags {
    base: u32,
}

impl OpTags {
    /// Tags for invocation `op_seq` of operation `op`.
    pub fn new(op: OpCode, op_seq: u32) -> Self {
        OpTags {
            base: (op_seq << 8) | ((op as u32) << 4),
        }
    }

    /// The tag for `phase` of this invocation.
    pub fn tag(&self, phase: Phase) -> Tag {
        self.base | phase as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_of_one_op_are_distinct() {
        let t = OpTags::new(OpCode::Bcast, 7);
        let tags = [
            t.tag(Phase::Data),
            t.tag(Phase::Scout),
            t.tag(Phase::Ack),
            t.tag(Phase::Release),
            t.tag(Phase::Exchange),
        ];
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j]);
            }
        }
    }

    #[test]
    fn successive_invocations_do_not_collide() {
        let a = OpTags::new(OpCode::Bcast, 1).tag(Phase::Data);
        let b = OpTags::new(OpCode::Bcast, 2).tag(Phase::Data);
        assert_ne!(a, b);
    }

    #[test]
    fn different_ops_same_seq_do_not_collide() {
        let a = OpTags::new(OpCode::Bcast, 5).tag(Phase::Scout);
        let b = OpTags::new(OpCode::Barrier, 5).tag(Phase::Scout);
        assert_ne!(a, b);
    }

    #[test]
    fn seq_wraps_into_high_bits() {
        let t = OpTags::new(OpCode::Allreduce, 0x00FF_FFFF);
        // Wrapping shift must not panic and phase bits stay intact.
        assert_eq!(t.tag(Phase::Data) & 0xF, 0);
    }
}
