//! Dereplication groups reads by exact sequence bytes and numbers the
//! groups by first occurrence (DESIGN.md §5d). That it is invisible on
//! every route is `routes_agree`'s P1, on fixed edge reads its
//! `edge_cases` (`crates/testkit`).

use mrmc::stages::dereplicate;
use mrmc_testkit::community::edge_reads;

#[test]
fn groups_number_reads_by_first_occurrence() {
    let derep = dereplicate(&edge_reads()).expect("ids fit");
    assert_eq!(derep.of(), [0, 1, 2, 0, 3, 2, 1, 0, 3]);
    assert_eq!(derep.first(), [0, 1, 2, 4]);
    assert_eq!(derep.sizes(), [3, 2, 2, 2]);
}
