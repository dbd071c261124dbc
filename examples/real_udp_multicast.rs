//! The paper's data path on a *real* network: UDP + IP multicast sockets.
//!
//! ```text
//! cargo run --release --example real_udp_multicast
//! ```
//!
//! Runs five ranks as threads on the loopback interface, broadcasting with
//! the scouted multicast algorithm and with the MPICH binomial tree, and
//! reports wall-clock medians. Skips gracefully where the kernel or
//! container forbids multicast.

use std::time::{Duration, Instant};

use mcast_mpi::core::{expect_coll, BcastAlgorithm, Communicator};
use mcast_mpi::transport::{multicast_available, run_udp_world, Comm, UdpConfig};

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn bench(algo: BcastAlgorithm, base_port: u16, bytes: usize, reps: usize) -> f64 {
    let cfg = UdpConfig::loopback(base_port);
    let times = run_udp_world(5, &cfg, move |c| {
        let mut comm = Communicator::new(c).with_bcast(algo);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut buf = if comm.rank() == 0 {
                vec![0xC3; bytes]
            } else {
                vec![0; bytes]
            };
            #[expect(clippy::disallowed_methods, reason = "live-network demo: wall time")]
            let t0 = Instant::now();
            expect_coll(comm.bcast(0, &mut buf));
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(buf.iter().all(|&b| b == 0xC3));
            // Settle between reps so runs do not overlap.
            comm.transport_mut().compute(Duration::from_millis(1));
        }
        median(samples)
    })
    .expect("UDP world failed");
    // The paper's metric: the slowest process.
    times.into_iter().fold(f64::MIN, f64::max)
}

fn main() {
    if !multicast_available(47_000) {
        eprintln!(
            "IP multicast is not available in this environment; \
             nothing to demonstrate. (UDP unicast still works — see the \
             simulator examples.)"
        );
        return;
    }
    println!("5 ranks as threads, loopback interface, real sockets\n");
    println!(
        "{:>8}  {:>16}  {:>16}",
        "bytes", "mcast-binary(us)", "mpich-tree(us)"
    );
    let mut port = 47_100;
    for bytes in [100usize, 1000, 10_000, 60_000] {
        let mcast = bench(BcastAlgorithm::McastBinary, port, bytes, 21);
        let mpich = bench(BcastAlgorithm::MpichBinomial, port + 40, bytes, 21);
        println!("{bytes:>8}  {mcast:>16.1}  {mpich:>16.1}");
        port += 100;
    }
    println!(
        "\nNote: on loopback the kernel copies multicast datagrams to every\n\
         subscribed socket, so the bandwidth saving of real multicast shows\n\
         up as fewer syscalls rather than fewer wire crossings."
    );
}
