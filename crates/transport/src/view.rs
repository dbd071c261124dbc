//! Sub-communicators as views inside the endpoint.
//!
//! MPI runs collectives on sub-communicators as well as on the world: a
//! group split off it (`MPI_Comm_split`, [`GroupComm`]) and the survivors
//! of a failure (ULFM's shrink, `mmpi-core`'s `Communicator::shrink`).
//! Neither is a second implementation of [`Comm`]: each is the world
//! endpoint under a `View` — its members as world ranks, this rank among
//! them, and a tag shift that keeps its traffic apart from every other
//! communicator's (the MPI context idea, realised with tags because the
//! wire context id is fixed per transport). The one glue
//! (`endpoint.rs`) applies the view where receives are posted, sends go
//! out, and completions, errors and peer lists are claimed. The view lives
//! in [`EndpointCore`], so the simulator's round closer, which runs a
//! parked rank's collective over that core, translates exactly as the
//! rank's own thread does.

use std::mem;

use mmpi_wire::Message;

use crate::api::{ClaimStep, Comm, RecvError, Tag};
use crate::endpoint::{Backend, Endpoint};
use crate::engine::EndpointCore;
use crate::pump::{Nanos, WaitKind};

/// How a communicator sees the world endpoint under it: the world itself
/// (the default, and one predictable branch on every call), or a member
/// subset.
#[derive(Clone, Debug, Default)]
pub(crate) struct View(Option<Box<Members>>);

#[derive(Clone, Debug)]
struct Members {
    /// World ranks of the members, sorted; position = rank.
    world: Vec<usize>,
    /// This endpoint's rank among them.
    rank: usize,
    /// Added (wrapping) to every tag going out, taken off every tag
    /// coming in. Nested views add their shifts.
    tag_shift: Tag,
    /// A group borrowed from a live communicator: its group send is a
    /// unicast to each other member in rank order (a fabric multicast
    /// would reach live non-members, whose inboxes would grow without
    /// bound), and it neither leaves nor rebases the endpoint it borrows.
    group: bool,
    /// The liveness epoch a shrink formed this view in; the communicator's
    /// epoch never reads lower.
    formed_epoch: u32,
}

impl View {
    pub(crate) fn rank(&self, world_rank: usize) -> usize {
        self.0.as_ref().map_or(world_rank, |m| m.rank)
    }

    pub(crate) fn size(&self, world_size: usize) -> usize {
        self.0.as_ref().map_or(world_size, |m| m.world.len())
    }

    /// World rank of this view's `rank`.
    pub(crate) fn world(&self, rank: usize) -> usize {
        self.0.as_ref().map_or(rank, |m| m.world[rank])
    }

    /// `tag` as it goes on the wire.
    pub(crate) fn tag(&self, tag: Tag) -> Tag {
        self.0
            .as_ref()
            .map_or(tag, |m| tag.wrapping_add(m.tag_shift))
    }

    /// Whether this is a borrowed group: its group send fans out, and it
    /// keeps `leave` and `rebase_epoch` no-ops.
    pub(crate) fn is_group(&self) -> bool {
        self.0.as_ref().is_some_and(|m| m.group)
    }

    /// The communicator's epoch over the endpoint's: never below the
    /// epoch a shrink formed the view in.
    pub(crate) fn epoch(&self, endpoint_epoch: u32) -> u32 {
        self.0
            .as_ref()
            .map_or(endpoint_epoch, |m| endpoint_epoch.max(m.formed_epoch))
    }

    /// A claimed completion in this view's ranks and tags.
    pub(crate) fn local(&self, r: Result<Message, RecvError>) -> Result<Message, RecvError> {
        let Some(m) = &self.0 else {
            return r;
        };
        let untag = |t: Tag| t.wrapping_sub(m.tag_shift);
        // Only members' traffic completes a receive under a view: a
        // directed receive names a member, its errors name that member,
        // and the tag shift keeps every other communicator's traffic off an
        // any-source receive's tags.
        let local = |w: u32| m.world.partition_point(|&x| x < w as usize) as u32;
        match r {
            Ok(mut msg) => {
                msg.tag = untag(msg.tag);
                msg.src_rank = local(msg.src_rank);
                Ok(msg)
            }
            Err(RecvError::Unavailable {
                src,
                tag,
                tag_floor,
            }) => Err(RecvError::Unavailable {
                src: local(src),
                tag: untag(tag),
                // The floor is in wire tags too: compare like with like.
                tag_floor: untag(tag_floor),
            }),
            Err(RecvError::PeerFailed { rank, epoch }) => Err(RecvError::PeerFailed {
                rank: local(rank),
                epoch,
            }),
            // Raised above the transport, in the caller's ranks already,
            // or naming no rank.
            Err(e @ (RecvError::Unreachable { .. } | RecvError::TimedOut)) => Err(e),
        }
    }

    /// The members among `world_ranks` (failed or departed peers), in
    /// this view's ranks: only members matter.
    pub(crate) fn local_peers(&self, world_ranks: Vec<usize>) -> Vec<usize> {
        match &self.0 {
            None => world_ranks,
            Some(m) => world_ranks
                .into_iter()
                .filter_map(|w| m.world.binary_search(&w).ok())
                .collect(),
        }
    }

    /// Narrow this view to `members` — ranks of this view, sorted, unique
    /// and holding this endpoint's — with `tag_shift` added to its own, and
    /// return the view it replaces. `shrunk_in` is the epoch a shrink
    /// formed the survivors in; `None` makes a borrowed group.
    fn narrow(
        &mut self,
        world_rank: usize,
        members: &[usize],
        tag_shift: Tag,
        shrunk_in: Option<u32>,
    ) -> View {
        let me = self.rank(world_rank);
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and unique"
        );
        assert!(
            members.binary_search(&me).is_ok(),
            "calling process must be a member of the group"
        );
        let narrowed = View(Some(Box::new(Members {
            world: members.iter().map(|&r| self.world(r)).collect(),
            rank: members.partition_point(|&r| r < me),
            tag_shift: self.tag(tag_shift),
            group: shrunk_in.is_none() || self.is_group(),
            formed_epoch: self.epoch(shrunk_in.unwrap_or(0)),
        })));
        mem::replace(self, narrowed)
    }
}

/// A sub-communicator over a subset of a parent communicator's ranks
/// (`MPI_Comm_split`): the parent endpoint under a group view, borrowed
/// for the group's life.
///
/// Borrowing the parent mutably means collectives on the parent and the
/// group cannot interleave, which also enforces the MPI rule that a
/// process takes part in one collective at a time. When the group drops,
/// the parent's view comes back; the parent is neither drained nor
/// retired, and the group's `leave` and `rebase_epoch` are no-ops.
///
/// A group send is a unicast fan-out: IP-level multicast would reach the
/// live non-members too, so — like many MPI implementations on
/// sub-communicators — the group falls back to point-to-point for
/// one-to-all sends. Every collective stays correct; only the multicast
/// acceleration is limited to the world and its shrunk successors.
pub type GroupComm<'a, B> = Endpoint<Borrowed<'a, B>>;

impl<'a, B: Backend> GroupComm<'a, B> {
    /// Build a group over `members` (ranks of `parent`, sorted, unique and
    /// including the calling process, so never empty). `group_id` separates the tag spaces
    /// of simultaneously existing groups — every member must pass the same
    /// value.
    pub fn new(parent: &'a mut Endpoint<B>, members: &[usize], group_id: u16) -> Self {
        assert!(
            members.iter().all(|&m| m < Comm::size(parent)),
            "member rank out of range"
        );
        // High bits far above the communicator's op-sequence space.
        let tag_shift = 0x4000_0000u32.wrapping_add(u32::from(group_id) << 16);
        let parent = &mut parent.0;
        let view = parent.with(|core, _| core.view.narrow(core.rank(), members, tag_shift, None));
        Endpoint(Borrowed { parent, view })
    }

    /// Split helper mirroring `MPI_Comm_split` with an externally agreed
    /// color map: `colors[rank]` assigns each process of `parent` a color;
    /// the returned group holds every rank sharing this process's color.
    pub fn split(parent: &'a mut Endpoint<B>, colors: &[u32], group_id: u16) -> Self {
        assert_eq!(colors.len(), Comm::size(parent), "one color per rank");
        let mine = colors[Comm::rank(parent)];
        let members: Vec<usize> = (0..colors.len()).filter(|&r| colors[r] == mine).collect();
        GroupComm::new(parent, &members, group_id)
    }
}

impl<B: Backend> Endpoint<B> {
    /// This communicator's members as world ranks, in rank order —
    /// `0..size` on the world itself.
    pub fn members(&self) -> Vec<usize> {
        self.0.peek(|core| {
            (0..core.view.size(core.size()))
                .map(|r| core.view.world(r))
                .collect()
        })
    }

    /// World rank of this communicator's rank `rank`.
    pub fn world_rank_of(&self, rank: usize) -> usize {
        self.0.peek(|core| core.view.world(rank))
    }

    /// The liveness epoch a shrink formed this communicator in; 0 for the
    /// world and a group split off it.
    pub fn formed_epoch(&self) -> u32 {
        self.0.peek(|core| core.view.epoch(0))
    }

    /// Narrow this communicator to the survivors of a shrink: `members`
    /// (ranks of this communicator, sorted, including the caller), formed
    /// in liveness `epoch`, with `tag_shift` added to every tag. Unlike a
    /// group it keeps real multicast — every non-member is dead or
    /// departed, so a fabric multicast reaches exactly the members — and
    /// owns its lifecycle: a survivor may leave, and a further failure is
    /// survived by shrinking again.
    pub fn shrink_to(&mut self, members: &[usize], tag_shift: Tag, epoch: u32) {
        self.0.with(|core, _| {
            core.view
                .narrow(core.rank(), members, tag_shift, Some(epoch))
        });
    }
}

/// The backend of a [`GroupComm`]: the parent's, borrowed, with the view
/// to give back when the group ends. Every call goes to the parent's
/// backend; closing it restores the parent's view and nothing else.
pub struct Borrowed<'a, B: Backend> {
    parent: &'a mut B,
    view: View,
}

impl<B: Backend> Backend for Borrowed<'_, B> {
    type Pump = B::Pump;

    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut Self::Pump) -> R) -> R {
        self.parent.with(f)
    }

    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
        self.parent.peek(f)
    }

    fn block(&mut self, kind: WaitKind<'_>) {
        self.parent.block(kind);
    }

    fn block_op(&mut self, op: &mut dyn ClaimStep) -> Result<bool, RecvError> {
        self.parent.block_op(op)
    }

    fn multicast_capable(&self) -> bool {
        self.parent.multicast_capable()
    }

    fn pass_time(&mut self, nanos: Nanos) -> Nanos {
        self.parent.pass_time(nanos)
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.parent.tcp_ack_model(dst, count);
    }

    fn close(&mut self) {
        let view = mem::take(&mut self.view);
        self.parent.with(|core, _| core.view = view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nested views compose as stacked sub-communicators do: members map
    /// through to world ranks, tag shifts add (wrapping), and a shrink of
    /// a group stays a group.
    #[test]
    fn nested_views_compose_members_and_add_tag_shifts() {
        // World rank 5 of 8 splits off the odd ranks…
        let mut v = View::default();
        v.narrow(5, &[1, 3, 5, 7], 0x4000_0000, None);
        assert_eq!((v.rank(5), v.size(8), v.world(1)), (2, 4, 3));
        // …and that group shrinks to its ranks 0, 2 and 3 in epoch 1.
        v.narrow(5, &[0, 2, 3], 0xF000_0000, Some(1));
        assert_eq!((v.rank(5), v.size(8)), (1, 3));
        assert_eq!((0..3).map(|r| v.world(r)).collect::<Vec<_>>(), [1, 5, 7]);
        assert_eq!(v.tag(7), 0x3000_0007);
        assert!(v.is_group());
        assert_eq!((v.epoch(0), v.epoch(4)), (1, 4));
        assert_eq!(v.local_peers(vec![0, 3, 5, 7]), [1, 2]);
    }
}
