//! Binomial-tree arithmetic of MPICH's broadcast (paper Fig. 2) and of
//! the reductions up the same tree, as pure functions of
//! `(rank, n, root)`: with `relrank = (rank - root) mod N`, a rank
//! receives from the subtree root that owns it (the lowest set bit of
//! `relrank` below) and fans out to `relrank + mask` for descending
//! `mask`; a reduction runs the edges the other way, ascending `mask`.

/// The parent `rank` receives from in the binomial tree rooted at `root`
/// (`None` for the root itself): the rank at distance `lowest set bit
/// of relrank` below.
pub(crate) fn binomial_parent(rank: usize, n: usize, root: usize) -> Option<usize> {
    let relrank = (rank + n - root) % n;
    if relrank == 0 {
        return None;
    }
    let mask = relrank & relrank.wrapping_neg();
    Some((rank + n - mask) % n)
}

/// The children `rank` sends to in the binomial tree rooted at `root`,
/// in descending-mask order (the fan-out order).
pub(crate) fn binomial_children(rank: usize, n: usize, root: usize) -> impl Iterator<Item = usize> {
    let relrank = (rank + n - root) % n;
    let mut mask = 1usize;
    while mask < n && relrank & mask == 0 {
        mask <<= 1;
    }
    std::iter::successors(Some(mask >> 1), |m| Some(m >> 1))
        .take_while(|&m| m > 0)
        .filter(move |&m| relrank + m < n)
        .map(move |m| (rank + m) % n)
}

/// Where a binomial reduction towards `root` goes next.
pub(crate) enum Reduction {
    /// Receive this child's contribution.
    Child(usize),
    /// Send the subtree's to this parent; the rank's last step.
    Parent(usize),
    /// Every child is in, and this rank is the root.
    Root,
}

/// The reduction's next step from round `mask` on (1 to start), advancing
/// `mask` past it: children in ascending-mask order, then the parent —
/// `N-1` messages in `ceil(log2 N)` rounds.
pub(crate) fn binomial_reduction(
    rank: usize,
    n: usize,
    root: usize,
    mask: &mut usize,
) -> Reduction {
    let relrank = (rank + n - root) % n;
    while *mask < n {
        let m = *mask;
        *mask <<= 1;
        if relrank & m != 0 {
            return Reduction::Parent((rank + n - m) % n);
        }
        if relrank + m < n {
            return Reduction::Child((rank + m) % n);
        }
    }
    Reduction::Root
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parent/child must be mutually consistent for every (rank, n,
    /// root), and the edges must form a tree (n-1 edges, root has no
    /// parent).
    #[test]
    fn parent_and_children_are_consistent() {
        for n in 1..=17usize {
            for root in [0, n / 2, n - 1] {
                let mut edges = 0;
                for rank in 0..n {
                    match binomial_parent(rank, n, root) {
                        None => assert_eq!(rank, root, "only the root lacks a parent"),
                        Some(p) => {
                            assert!(
                                binomial_children(p, n, root).any(|c| c == rank),
                                "n={n} root={root}: {p} must list {rank} as child"
                            );
                            edges += 1;
                        }
                    }
                }
                assert_eq!(edges, n - 1, "n={n} root={root}: tree edge count");
            }
        }
    }
}
