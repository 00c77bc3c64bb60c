//! Seeded mutation fuzzing of the text the library parses: the
//! Algorithm 3 script through `parse_script`, and FASTA and FASTQ
//! records through `read_fasta_bytes` and `read_fastq_bytes`. Each
//! mutant is the valid text with a few random byte-level insertions,
//! deletions and replacements, or a truncation. A parser must answer
//! every mutant with `Ok` or its typed error; a panic fails the test.
//! These are guards: they hold the parsers to that contract, they do
//! not exercise any fixed fault.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mrmc::algorithm3_script;
use mrmc_pig::parse_script;
use mrmc_seqio::{read_fasta_bytes, read_fastq_bytes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an insertion or a replacement writes: the script's
/// punctuation, a parameter sigil, both quotes, a comment opener,
/// newlines, the sequence formats' markers and bases, and one
/// multi-byte character.
const ALPHABET: &[&str] = &[
    "=", "(", ")", ",", ";", ":", ".", "$", "'", "\"", "--", "\n", "\r\n", " ", ">", "@", "+", "A",
    "C", "G", "T", "N", "a", "0", "9", "é",
];

/// One mutant of `units`, the text cut into the pieces an edit moves:
/// `char`s for a script, so it stays valid UTF-8; bytes for FASTA and
/// FASTQ, so a deletion can split a multi-byte character. Between one
/// and four edits, one in eight a truncation.
fn mutate(rng: &mut StdRng, units: &[Vec<u8>]) -> Vec<u8> {
    let mut units = units.to_vec();
    for _ in 0..rng.random_range(1..=4) {
        let at = rng.random_range(0..=units.len());
        let unit = ALPHABET[rng.random_range(0..ALPHABET.len())]
            .as_bytes()
            .to_vec();
        match rng.random_range(0..8) {
            0 => units.truncate(at),
            1..=3 => units.insert(at, unit),
            4 | 5 if at < units.len() => {
                units.remove(at);
            }
            _ if at < units.len() => units[at] = unit,
            _ => units.push(unit),
        }
    }
    units.concat()
}

/// Run `check` on `count` mutants of `units`, naming the first mutant
/// that panics.
fn fuzz(seed: u64, units: &[Vec<u8>], count: usize, check: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let mutant = mutate(&mut rng, units);
        if catch_unwind(AssertUnwindSafe(|| check(&mutant))).is_err() {
            let text = String::from_utf8_lossy(&mutant);
            panic!("mutant {i} of seed {seed} panicked:\n{text}");
        }
    }
}

fn bytes(text: &str) -> Vec<Vec<u8>> {
    text.bytes().map(|b| vec![b]).collect()
}

#[test]
fn algorithm3_script_mutants_parse_or_error_on_a_line() {
    let params: HashMap<String, String> = [
        ("INPUT", "/in/reads.fa"),
        ("KMER", "15"),
        ("NUMHASH", "50"),
        ("DIV", "1048583"),
        ("LINK", "average"),
        ("CUTOFF", "0.95"),
        ("OUTPUT1", "/out/hier"),
        ("OUTPUT2", "/out/greedy"),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    parse_script(algorithm3_script(), &params).expect("the unmutated script parses");
    let chars: Vec<Vec<u8>> = algorithm3_script()
        .chars()
        .map(|c| c.to_string().into_bytes())
        .collect();
    fuzz(43, &chars, 3_000, |mutant| {
        let mutant = std::str::from_utf8(mutant).expect("char edits keep UTF-8");
        let lines = mutant.lines().count();
        if let Err(e) = parse_script(mutant, &params) {
            assert!(
                (1..=lines + 1).contains(&e.line),
                "{e} outside 1..={}",
                lines + 1
            );
        }
    });
}

#[test]
fn fasta_and_fastq_mutants_read_or_error() {
    let fasta = ">r1 first réad\nACGTACGTAC\nGTTGCA\n>r2\nacgtnNACGT\n\n>r3 empty\n>r4\nTTTT";
    let fastq = "@q1 oné\nACGTAC\n+\nIIIIII\n@q2\nGGTTN\n+q2\n#####\n@q3\nA\n+\nI";
    read_fasta_bytes(fasta.as_bytes()).expect("the unmutated FASTA reads");
    read_fastq_bytes(fastq.as_bytes()).expect("the unmutated FASTQ reads");
    fuzz(44, &bytes(fasta), 4_000, |mutant| {
        let _ = read_fasta_bytes(mutant);
    });
    fuzz(45, &bytes(fastq), 4_000, |mutant| {
        let _ = read_fastq_bytes(mutant);
    });
}
