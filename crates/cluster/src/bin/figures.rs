//! Regenerate every figure of the paper.
//!
//! ```text
//! cargo run -p mmpi-cluster --release --bin figures             # all figures
//! cargo run -p mmpi-cluster --release --bin figures -- --fig 7  # one figure
//! cargo run -p mmpi-cluster --release --bin figures -- --trials 5
//! cargo run -p mmpi-cluster --release --bin figures -- --out target/figures
//! ```
//!
//! Prints the median latency per point (the line the paper draws) as a
//! table, writes per-figure CSVs (medians + every raw sample for the
//! scatter), and finishes with a shape-check summary comparing the
//! qualitative claims of the paper against the regenerated data.

use std::path::PathBuf;

use mmpi_cluster::experiment::{loss_sweep, render_loss_table, render_scale_table, scale_sweep};
use mmpi_cluster::figures::{
    all_figures, crossover_point, loss_figure_base, loss_figure_rates, render_table, run_figure,
    write_csv, write_loss_csv, FigureData,
};
use mmpi_core::{expect_coll, AllgatherAlgorithm, BcastAlgorithm, Communicator};
use mmpi_netsim::cluster::ClusterConfig;
use mmpi_netsim::params::NetParams;
use mmpi_transport::{run_sim_world, SimCommConfig};

struct Args {
    figs: Option<Vec<u32>>,
    trials: usize,
    out: PathBuf,
    ext: bool,
    loss: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: None,
        trials: 25,
        out: PathBuf::from("target/figures"),
        ext: false,
        loss: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                let v = it.next().expect("--fig needs a number (7-13)");
                args.figs
                    .get_or_insert_with(Vec::new)
                    .push(v.parse().expect("figure number"));
            }
            "--trials" => {
                args.trials = it
                    .next()
                    .expect("--trials needs a count")
                    .parse()
                    .expect("trial count");
            }
            "--out" => {
                args.out = PathBuf::from(it.next().expect("--out needs a path"));
            }
            "--ext" => args.ext = true,
            "--no-loss" => args.loss = false,
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--fig N]... [--trials T] [--out DIR] [--ext] [--no-loss]\n\
                     --ext adds the beyond-the-paper extension experiments\n\
                     (multicast allgather scaling, VIA-like fabric);\n\
                     --no-loss skips the figloss lossy-recovery sweep"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The paper's qualitative claims, checked against regenerated data.
fn shape_checks(datas: &[FigureData]) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    let by_id = |id: &str| datas.iter().find(|d| d.spec.id == id);
    let med = |d: &FigureData, s: usize, i: usize| d.series[s].points[i].median;
    let last = |d: &FigureData| d.spec.xaxis.values().len() - 1;

    for id in ["fig07", "fig08", "fig09", "fig10"] {
        if let Some(d) = by_id(id) {
            // Series order: 0 = mpich, 1 = linear, 2 = binary.
            checks.push((
                format!("{id}: mpich wins at 0 bytes"),
                med(d, 0, 0) < med(d, 1, 0) && med(d, 0, 0) < med(d, 2, 0),
            ));
            let l = last(d);
            checks.push((
                format!("{id}: both mcast variants win at 5000 bytes"),
                med(d, 1, l) < med(d, 0, l) && med(d, 2, l) < med(d, 0, l),
            ));
            let cx = crossover_point(d, 2, 0);
            checks.push((
                format!("{id}: binary/mpich crossover within 500..=2500 bytes (at {cx:?})"),
                cx.map(|x| (500..=2500).contains(&x)).unwrap_or(false),
            ));
        }
    }
    if let Some(d) = by_id("fig11") {
        // Series: 0 mpich/hub, 1 mpich/switch, 2 binary/switch, 3 binary/hub.
        let l = last(d);
        checks.push((
            "fig11: mcast(hub) <= mcast(switch) at every size".into(),
            (0..=l).all(|i| med(d, 3, i) <= med(d, 2, i)),
        ));
        checks.push((
            "fig11: mpich(hub) > mpich(switch) for large messages".into(),
            med(d, 0, l) > med(d, 1, l),
        ));
    }
    if let Some(d) = by_id("fig12") {
        // Series: 0/1/2 = mpich 9/6/3, 3/4/5 = linear 9/6/3.
        let l = last(d);
        let lin_gap_small = med(d, 3, 1) - med(d, 5, 1);
        let lin_gap_large = med(d, 3, l) - med(d, 5, l);
        let mpich_gap_small = med(d, 0, 1) - med(d, 2, 1);
        let mpich_gap_large = med(d, 0, l) - med(d, 2, l);
        checks.push((
            "fig12: linear 3->9 process gap ~constant in size".into(),
            lin_gap_large < lin_gap_small * 2.0 + 50.0,
        ));
        checks.push((
            "fig12: mpich 3->9 process gap grows with size".into(),
            mpich_gap_large > mpich_gap_small * 2.0,
        ));
        checks.push((
            "fig12: linear beats mpich at 9 procs for large messages".into(),
            med(d, 3, l) < med(d, 0, l),
        ));
    }
    if let Some(d) = by_id("fig13") {
        // Series: 0 = multicast, 1 = MPICH; x = 2..9 processes.
        let xs = d.spec.xaxis.values();
        let wins = xs
            .iter()
            .enumerate()
            .filter(|&(i, _)| med(d, 0, i) < med(d, 1, i))
            .count();
        checks.push((
            format!(
                "fig13: multicast barrier wins for most N ({wins}/{} points)",
                xs.len()
            ),
            wins * 2 > xs.len(),
        ));
        let gap_first = med(d, 1, 2) - med(d, 0, 2); // N = 4
        let gap_last = med(d, 1, xs.len() - 1) - med(d, 0, xs.len() - 1); // N = 9
        checks.push((
            "fig13: barrier gap grows with N".into(),
            gap_last > gap_first,
        ));
    }
    checks
}

fn main() {
    let args = parse_args();
    let figs = all_figures();
    let selected: Vec<_> = figs
        .into_iter()
        .filter(|f| {
            args.figs
                .as_ref()
                .map(|want| want.iter().any(|n| f.id == format!("fig{n:02}").as_str()))
                .unwrap_or(true)
        })
        .collect();
    if selected.is_empty() {
        eprintln!("no matching figures (valid: 7..13)");
        std::process::exit(2);
    }

    let mut datas = Vec::new();
    for spec in &selected {
        eprintln!(
            "running {} ({} series x {} points x {} trials)...",
            spec.id,
            spec.series.len(),
            spec.xaxis.values().len(),
            args.trials
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "bench harness: wall time is the measurement"
        )]
        let t0 = std::time::Instant::now();
        let data = run_figure(spec, args.trials);
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
        println!("{}", render_table(&data));
        write_csv(&data, &args.out).expect("write CSV");
        datas.push(data);
    }

    println!("shape checks (paper's qualitative claims):");
    let checks = shape_checks(&datas);
    let mut failed = 0;
    for (desc, ok) in &checks {
        println!("  [{}] {desc}", if *ok { "PASS" } else { "FAIL" });
        if !ok {
            failed += 1;
        }
    }
    if checks.is_empty() {
        println!("  (run more figures for shape checks)");
    }
    if args.loss && args.figs.is_none() {
        loss_figure(&args);
    }
    println!(
        "\nCSV written to {} ({} figures)",
        args.out.display(),
        datas.len()
    );
    if args.ext {
        extension_experiments();
    }
    if failed > 0 {
        eprintln!("{failed} shape check(s) FAILED");
        std::process::exit(1);
    }
}

/// The figloss lossy-recovery figure (ROADMAP "loss figures"): re-run
/// the paper's binary multicast broadcast under injected per-link loss,
/// with the NACK/retransmit repair loop armed, and tabulate latency
/// against recovery effort. Lossy trials are slower to simulate, so the
/// sweep caps its trial count.
fn loss_figure(args: &Args) {
    let n = 8;
    let bytes = 3000;
    let trials = args.trials.min(10);
    eprintln!(
        "running figloss ({} rates x {trials} trials, n={n}, {bytes} B)...",
        loss_figure_rates().len()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "bench harness: wall time is the measurement"
    )]
    let t0 = std::time::Instant::now();
    let base = loss_figure_base(n, bytes).with_trials(trials);
    let rows = loss_sweep(&base, &loss_figure_rates());
    eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
    println!(
        "{}",
        render_loss_table(
            &format!("figloss — mcast-binary bcast, {n} procs, {bytes} B, switch"),
            &rows
        )
    );
    write_loss_csv(&rows, &args.out).expect("write figloss CSV");
    let lossless = rows.first().expect("rates are non-empty");
    assert_eq!(lossless.counters.drops, 0, "0% loss must drop nothing");
    for r in &rows[1..] {
        // Low rates over few trials may legitimately drop nothing; once
        // the fabric did drop frames, the repair loop must have resent.
        assert!(
            r.counters.drops == 0 || r.counters.retransmits > 0,
            "loss rate {} dropped {} frames but sent no retransmissions",
            r.loss,
            r.counters.drops
        );
    }

    // The repair scale axis: the same lossy broadcast across growing
    // process counts, showing the SRM suppression keeping solicit
    // traffic sub-linear in N.
    let scale_ns = [4usize, 8, 16, 32];
    eprintln!("running repair scale sweep (n in {scale_ns:?}, 10% loss)...");
    #[expect(
        clippy::disallowed_methods,
        reason = "bench harness: wall time is the measurement"
    )]
    let t0 = std::time::Instant::now();
    let scale_rows = scale_sweep(
        &loss_figure_base(n, bytes)
            .with_trials(trials.min(3))
            .with_loss(0.10),
        &scale_ns,
    );
    eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
    println!(
        "{}",
        render_scale_table(
            &format!("mcast-binary bcast, {bytes} B, 10% loss, switch"),
            &scale_rows
        )
    );
}

/// Beyond-the-paper experiments (DESIGN.md §7): many-to-many collectives
/// over multicast and the VIA-like low-latency fabric of the paper's
/// future-work section.
fn extension_experiments() {
    println!("\n== extension: allgather algorithms (switch, 1 kB blocks) ==");
    println!(
        "{:>4}  {:>16}  {:>12}  {:>16}",
        "N", "gather+bcast us", "ring us", "multicast us"
    );
    for n in [3usize, 6, 9, 12] {
        let run = |algo: AllgatherAlgorithm| {
            let cluster = ClusterConfig::new(n, NetParams::fast_ethernet_switch(), 11);
            run_sim_world(&cluster, &SimCommConfig::default(), move |c| {
                let mut comm = Communicator::new(c).with_allgather(algo);
                let mine = vec![comm.rank() as u8; 1000];
                let parts = expect_coll(comm.allgather(&mine));
                assert_eq!(parts.len(), n);
            })
            .unwrap()
            .makespan
            .as_micros_f64()
        };
        println!(
            "{n:>4}  {:>16.1}  {:>12.1}  {:>16.1}",
            run(AllgatherAlgorithm::GatherBcast),
            run(AllgatherAlgorithm::Ring),
            run(AllgatherAlgorithm::Multicast),
        );
    }

    println!("\n== extension: VIA-like low-latency fabric (8 procs, strict posted-recv) ==");
    println!(
        "{:>8}  {:>12}  {:>14}",
        "bytes", "mpich us", "mcast-binary us"
    );
    for bytes in [0usize, 1000, 4000] {
        let run = |algo: BcastAlgorithm| {
            let cluster = ClusterConfig::new(8, NetParams::via_like(), 13);
            run_sim_world(&cluster, &SimCommConfig::default(), move |c| {
                let mut comm = Communicator::new(c).with_bcast(algo);
                let mut buf = if comm.rank() == 0 {
                    vec![1; bytes]
                } else {
                    vec![0; bytes]
                };
                expect_coll(comm.bcast(0, &mut buf));
            })
            .unwrap()
            .makespan
            .as_micros_f64()
        };
        println!(
            "{bytes:>8}  {:>12.1}  {:>14.1}",
            run(BcastAlgorithm::MpichBinomial),
            run(BcastAlgorithm::McastBinary),
        );
    }
}
