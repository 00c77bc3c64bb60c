//! A fixed handful of `routes_agree` draws (`mrmc_testkit::agree`):
//! greedy and hierarchical, dense and banded, k = 5 and 15, each with a
//! Pig run, so `cargo test` at the root holds every route to one
//! clustering without the property sweep.

use mrmc::Mode;
use mrmc_minh_suite::cluster::Linkage;
use mrmc_testkit::agree::Case;
use mrmc_testkit::community::community;
use mrmc_testkit::routes::with_kmer;

#[test]
fn routes_agree_on_fixed_draws() {
    let draws = [
        (Mode::Greedy, false, 5, Linkage::Average, 0.8),
        (Mode::Greedy, true, 15, Linkage::Single, 0.55),
        (Mode::Hierarchical, false, 15, Linkage::Complete, 0.95),
        (Mode::Hierarchical, true, 5, Linkage::Average, 0.8),
    ];
    for (i, (mode, banded, kmer, linkage, theta)) in draws.into_iter().enumerate() {
        let case = Case {
            seed: 46 + i as u64,
            n: 40,
            kmer,
            num_hashes: 64,
            theta,
            mode,
            linkage,
            banded,
            map_tasks: 4,
        };
        println!("{case:?}");
        let reads = community(case.n, kmer, case.seed);
        assert!(!with_kmer(&reads, kmer).is_empty(), "the draw runs Pig");
        case.check();
    }
}
