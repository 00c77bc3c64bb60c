//! Integration: the FASTQ ingestion path — parse, quality-trim,
//! cluster — covering the "second/third-generation data" claim of the
//! paper's conclusion.

use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_minh_suite::metrics::weighted_accuracy;
use mrmc_minh_suite::seqio::{read_fastq_bytes, write_fastq, FastqRecord, SeqRecord};
use mrmc_testkit::community::two_species;

/// Wrap simulated reads as FASTQ with high-quality bodies and a
/// low-quality 3' tail of `tail` bases.
fn to_fastq(reads: &[SeqRecord], tail: usize) -> Vec<FastqRecord> {
    reads
        .iter()
        .map(|r| {
            let n = r.seq.len();
            let good = n.saturating_sub(tail);
            let mut qual = vec![b'I'; good]; // Q40
            qual.extend(vec![b'!'; n - good]); // Q0 tail
            FastqRecord {
                record: r.clone(),
                qual,
            }
        })
        .collect()
}

#[test]
fn fastq_round_trip_trim_and_cluster() {
    let (reads, truth) = two_species(60, 820, 50_000, 17);

    // Serialize as FASTQ with 20 junk bases of Q0 tail, round-trip,
    // then trim the tails back off.
    let fastq = to_fastq(&reads, 20);
    let mut bytes = Vec::new();
    write_fastq(&mut bytes, &fastq).expect("serialize");
    let parsed = read_fastq_bytes(&bytes).expect("parse");
    assert_eq!(parsed.len(), reads.len());

    let trimmed: Vec<SeqRecord> = parsed
        .iter()
        .map(|r| r.quality_trim(10, 20.0).record)
        .collect();
    // Tails are gone, bodies intact.
    for (t, orig) in trimmed.iter().zip(&reads) {
        assert!(
            t.len() >= orig.len() - 30,
            "over-trimmed: {} vs {}",
            t.len(),
            orig.len()
        );
        assert!(
            t.len() <= orig.len() - 11,
            "under-trimmed: {} vs {}",
            t.len(),
            orig.len()
        );
        assert_eq!(&t.seq[..], &orig.seq[..t.len()]);
    }

    // The trimmed reads cluster as well as the originals.
    let theta = mrmc::suggest_theta(&trimmed, &MrMcConfig::whole_metagenome(), 50);
    let result = MrMcMinH::new(MrMcConfig {
        theta,
        num_hashes: 64,
        ..MrMcConfig::whole_metagenome()
    })
    .run(&trimmed)
    .expect("run");
    let acc = weighted_accuracy(&result.assignment, &truth, 2).expect("clusters");
    assert!(acc > 90.0, "accuracy {acc}");
}

#[test]
fn diversity_metrics_on_pipeline_output() {
    use mrmc_minh_suite::metrics::{diversity, rarefaction};
    use mrmc_minh_suite::simulate::environmental_samples;

    let cfg = environmental_samples()[4]; // sample "137"
    let dataset = cfg.generate(0.02, 23);
    let result = MrMcMinH::new(MrMcConfig {
        theta: 0.95,
        ..MrMcConfig::sixteen_s()
    })
    .run(&dataset.reads)
    .expect("run");

    let d = diversity(&result.assignment);
    let true_richness = dataset
        .labels
        .as_ref()
        .map(|l| {
            let mut v = l.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        })
        .expect("labeled");
    // Observed OTUs bracket the truth loosely (singleton errors add,
    // rare species missing from the sample subtract) and Chao1 is at
    // least the observed count.
    assert!(d.observed > 0);
    assert!(d.chao1 >= d.observed as f64);
    assert!(
        (d.observed as f64) < 3.0 * true_richness as f64,
        "observed {} vs truth {true_richness}",
        d.observed
    );
    // Rarefaction sanity on real output.
    let half = rarefaction(&result.assignment, dataset.len() / 2);
    let full = rarefaction(&result.assignment, dataset.len());
    assert!(half < full);
    assert!((full - d.observed as f64).abs() < 1e-6);
    // Shannon/Simpson defined and bounded.
    assert!(d.shannon >= 0.0);
    assert!((0.0..=1.0).contains(&d.simpson));
}
