//! Reduced-size regeneration of every paper figure, asserting the shape
//! criteria from DESIGN.md §6. The full-resolution sweep is
//! `cargo run -p mmpi-cluster --release --bin figures`.

use mcast_mpi::cluster::figures::{
    crossover_point, fig07, fig08, fig09, fig10, fig11, fig12, fig13, run_figure, FigureData,
    FigureSpec, XAxis,
};

const TRIALS: usize = 7;

fn reduced_sizes(spec: FigureSpec) -> FigureSpec {
    FigureSpec {
        xaxis: XAxis::MessageSize(vec![0, 500, 1000, 2500, 5000]),
        ..spec
    }
}

fn med(d: &FigureData, s: usize, i: usize) -> f64 {
    d.series[s].points[i].median
}

/// Common assertions for figures 7-10 (series order: mpich, linear, binary).
fn assert_bcast_figure_shape(d: &FigureData) {
    let id = d.spec.id;
    let last = d.spec.xaxis.values().len() - 1;
    assert!(
        med(d, 0, 0) < med(d, 1, 0) && med(d, 0, 0) < med(d, 2, 0),
        "{id}: mpich must win at 0 bytes"
    );
    assert!(
        med(d, 1, last) < med(d, 0, last) && med(d, 2, last) < med(d, 0, last),
        "{id}: both multicast variants must win at 5000 bytes"
    );
    let cx = crossover_point(d, 2, 0).expect("crossover must exist");
    assert!(
        (500..=2500).contains(&cx),
        "{id}: crossover at {cx}, expected 500..=2500"
    );
}

#[test]
fn fig07_hub_4p_shape() {
    assert_bcast_figure_shape(&run_figure(&reduced_sizes(fig07()), TRIALS));
}

#[test]
fn fig08_switch_4p_shape() {
    assert_bcast_figure_shape(&run_figure(&reduced_sizes(fig08()), TRIALS));
}

#[test]
fn fig09_switch_6p_shape() {
    assert_bcast_figure_shape(&run_figure(&reduced_sizes(fig09()), TRIALS));
}

#[test]
fn fig10_switch_9p_shape() {
    assert_bcast_figure_shape(&run_figure(&reduced_sizes(fig10()), TRIALS));
}

#[test]
fn fig11_hub_vs_switch_shape() {
    // Series: 0 mpich/hub, 1 mpich/switch, 2 binary/switch, 3 binary/hub.
    let d = run_figure(&reduced_sizes(fig11()), TRIALS);
    let last = d.spec.xaxis.values().len() - 1;
    for i in 0..=last {
        assert!(
            med(&d, 3, i) <= med(&d, 2, i),
            "multicast on the hub must never lose to multicast on the switch (point {i})"
        );
    }
    assert!(
        med(&d, 0, last) > med(&d, 1, last),
        "MPICH on the hub must fall behind the switch for large messages \
         (hub {} vs switch {})",
        med(&d, 0, last),
        med(&d, 1, last)
    );
    assert!(
        med(&d, 0, 0) < med(&d, 1, 0),
        "MPICH on the hub wins for tiny messages (no switch latency)"
    );
}

#[test]
fn fig12_scaling_shape() {
    // Series: 0/1/2 = mpich 9/6/3 procs, 3/4/5 = linear 9/6/3 procs.
    let d = run_figure(&reduced_sizes(fig12()), TRIALS);
    let last = d.spec.xaxis.values().len() - 1;
    let lin_gap_small = med(&d, 3, 1) - med(&d, 5, 1);
    let lin_gap_large = med(&d, 3, last) - med(&d, 5, last);
    let mpich_gap_small = med(&d, 0, 1) - med(&d, 2, 1);
    let mpich_gap_large = med(&d, 0, last) - med(&d, 2, last);
    assert!(
        lin_gap_large < lin_gap_small * 2.0 + 50.0,
        "linear extra-process cost must stay ~constant with size \
         ({lin_gap_small:.0} -> {lin_gap_large:.0})"
    );
    assert!(
        mpich_gap_large > mpich_gap_small * 2.0,
        "mpich extra-process cost must grow with size \
         ({mpich_gap_small:.0} -> {mpich_gap_large:.0})"
    );
    assert!(
        med(&d, 3, last) < med(&d, 0, last),
        "linear multicast must beat mpich at 9 processes for 5000 bytes"
    );
}

#[test]
fn fig13_barrier_shape() {
    let d = run_figure(&fig13(), TRIALS);
    let xs = d.spec.xaxis.values();
    // Multicast wins for the majority of N (the paper's "better on the
    // average"), certainly for large non-power-of-two N.
    let wins = (0..xs.len())
        .filter(|&i| med(&d, 0, i) < med(&d, 1, i))
        .count();
    assert!(
        wins * 2 > xs.len(),
        "multicast won only {wins}/{}",
        xs.len()
    );
    for (i, &n) in xs.iter().enumerate() {
        if n >= 5 {
            assert!(
                med(&d, 0, i) < med(&d, 1, i),
                "multicast barrier must win at N={n}"
            );
        }
    }
    let gap_at_4 = med(&d, 1, 2) - med(&d, 0, 2);
    let gap_at_9 = med(&d, 1, xs.len() - 1) - med(&d, 0, xs.len() - 1);
    assert!(
        gap_at_9 > gap_at_4,
        "barrier advantage must grow with N ({gap_at_4:.0} -> {gap_at_9:.0})"
    );
}
