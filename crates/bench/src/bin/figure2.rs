//! Regenerates **Figure 2** — runtime (minutes) of the hierarchical
//! pipeline vs. number of nodes (2–12) and input size (10³–10⁷ reads).
//!
//! Kernel costs are *measured* on this machine (a real scaled run),
//! then list-scheduled onto the virtual EMR cluster — the documented
//! substitution for the paper's testbed (DESIGN.md §2).
//!
//! A second section re-runs the *real* (scaled) pipeline with
//! engine-injected stragglers and speculative execution enabled, then
//! re-schedules the measured tasks — including the recovery work the
//! engine actually performed — onto the same virtual cluster, showing
//! what Figure 2 looks like on a flaky cluster. The straggler run's
//! `engine.*` metrics snapshot prints alongside its counter dump.
//!
//! `--json <path>` emits the full grid machine-readably; `--trace
//! <path>` additionally writes a Chrome trace of the straggler run's
//! simulated 6-node schedule (open in `chrome://tracing` / Perfetto).
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin figure2
//! ```

use std::sync::Arc;

use mrmc::stages::dereplicate;
use mrmc::{CostCalibration, Mode, MrMcConfig, MrMcMinH};
use mrmc_bench::HarnessArgs;
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::{chrome_trace, ClusterSpec, JobCostModel, Pipeline, Tracer};
use mrmc_obs::json::{write_file, Json};
use mrmc_simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};

fn main() {
    let args = HarnessArgs::parse(1.0);
    let config = MrMcConfig::whole_metagenome();
    eprintln!("calibrating kernels on this machine...");
    let calibration = CostCalibration::measure(&config, 1000);
    eprintln!(
        "  sketch {:.1} µs/read, similarity {:.3} µs/pair",
        calibration.sketch_per_read * 1e6,
        calibration.sim_per_pair * 1e6
    );

    let model = JobCostModel::default();
    let nodes: Vec<usize> = (2..=12).step_by(2).collect();
    let read_counts = [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000];

    println!("Figure 2 — runtime (minutes) vs nodes and reads (simulated EMR cluster)\n");
    print!("{:>12}", "reads\\nodes");
    for n in &nodes {
        print!("{n:>10}");
    }
    println!();
    let mut grid = Vec::new();
    for reads in read_counts {
        print!("{reads:>12}");
        for &n in &nodes {
            let minutes = calibration.simulate(reads, n, &model) / 60.0;
            print!("{minutes:>10.2}");
            grid.push(Json::obj([
                ("reads", Json::from(reads)),
                ("nodes", n.into()),
                ("minutes", Json::fixed(minutes, 4)),
            ]));
        }
        println!();
    }

    // The two headline properties of the figure, checked numerically.
    let flat_small = {
        let t2 = calibration.simulate(1_000, 2, &model);
        let t12 = calibration.simulate(1_000, 12, &model);
        (t2 - t12).abs() / t2
    };
    let speedup_large =
        calibration.simulate(10_000_000, 2, &model) / calibration.simulate(10_000_000, 12, &model);
    println!(
        "\nchecks: 1k-read flatness (rel. spread) = {:.1}% (paper: flat);\n\
         10M-read speedup 2→12 nodes = {:.1}× (paper: keeps improving with nodes)",
        flat_small * 100.0,
        speedup_large
    );

    let banded = banded_section(&calibration, &nodes, &model, args.seed);
    let chaos = chaos_section(&nodes, &model, &args);

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("seed", Json::from(args.seed)),
            ("flat_small_rel_spread", Json::fixed(flat_small, 4)),
            ("speedup_10m_2_to_12", Json::fixed(speedup_large, 3)),
            ("grid", Json::Arr(grid)),
            ("banded", banded),
            ("chaos", chaos),
        ]);
        write_file(path, &doc);
        eprintln!("wrote Figure 2 grid to {path}");
    }
}

/// Figure 2 with banded-LSH candidate pruning: a real banded run at
/// feasible size measures the surviving-candidate density, then both
/// pipelines are re-scheduled at the paper's sizes. The run bands
/// distinct sequences only (DESIGN.md §5d), so its candidates are
/// pairs of distinct sequences; both counts are printed beside the
/// reads.
fn banded_section(
    calibration: &CostCalibration,
    nodes: &[usize],
    model: &JobCostModel,
    seed: u64,
) -> Json {
    // Hierarchical: a greedy run stops after the sketch stage and never
    // enters the banded stages, so it would count no candidates.
    let config = MrMcConfig {
        theta: 0.95,
        mode: Mode::Hierarchical,
        map_tasks: 8,
        ..MrMcConfig::sixteen_s()
    }
    .banded();
    let bands = config.banding_scheme().bands;
    let reads = mrmc_simulate::huse_16s(0.03, 2_000.0 / 345_000.0, seed).reads;
    let run = MrMcMinH::new(config).run(&reads).expect("banded run");
    let distinct = dereplicate(&reads).expect("ids fit").num_groups();
    let candidates = run.pipeline.counter_total("CANDIDATES_EMITTED");
    let cand_per_read = candidates as f64 / reads.len() as f64;
    eprintln!(
        "\nbanded calibration: {} reads, {distinct} distinct sequences → \
         {candidates} candidates between distinct sequences \
         ({cand_per_read:.2}/read), {} pairs verified, {} B shuffled \
         across {} sorted runs",
        reads.len(),
        run.pipeline.counter_total("PAIRS_COMPUTED"),
        run.pipeline.total_shuffle().bytes,
        run.pipeline.total_shuffle().runs,
    );

    println!(
        "\nFigure 2 addendum — banded-LSH pruning ({bands} bands; \
         {candidates} candidates between the {distinct} distinct sequences \
         of a real {}-read run, scaled per read)\n",
        reads.len()
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>9}",
        "reads", "nodes", "dense (min)", "banded (min)", "speedup"
    );
    let mut rows = Vec::new();
    for reads_n in [100_000u64, 1_000_000, 10_000_000] {
        for &n in nodes {
            let dense = calibration.simulate(reads_n, n, model);
            let banded = calibration.simulate_banded(
                reads_n,
                bands,
                (reads_n as f64 * cand_per_read) as u64,
                n,
                model,
            );
            println!(
                "{:>12} {:>12} {:>14.2} {:>14.2} {:>8.1}x",
                reads_n,
                n,
                dense / 60.0,
                banded / 60.0,
                dense / banded
            );
            rows.push(Json::obj([
                ("reads", Json::from(reads_n)),
                ("nodes", n.into()),
                ("dense_minutes", Json::fixed(dense / 60.0, 4)),
                ("banded_minutes", Json::fixed(banded / 60.0, 4)),
                ("speedup", Json::fixed(dense / banded, 3)),
            ]));
        }
    }
    println!(
        "\ncheck: the banded pipeline turns the quadratic similarity job into\n\
         near-linear shuffle work; the dense column is the paper's Figure 2."
    );
    Json::Arr(rows)
}

/// Figure 2 on a flaky cluster: the real engine runs the hierarchical
/// pipeline twice at small scale — clean, then with injected
/// stragglers rescued by speculative execution — and both runs'
/// measured tasks (plus the engine's actual recovery work) are
/// re-scheduled onto the virtual cluster.
fn chaos_section(nodes: &[usize], model: &JobCostModel, args: &HarnessArgs) -> Json {
    let spec = CommunitySpec {
        species: vec![
            SpeciesSpec {
                name: "a".into(),
                gc: 0.40,
                abundance: 1.0,
            },
            SpeciesSpec {
                name: "b".into(),
                gc: 0.60,
                abundance: 1.0,
            },
        ],
        rank: TaxRank::Phylum,
        genome_len: 50_000,
    };
    let sim = ReadSimulator::new(800, ErrorModel::with_total_rate(0.002));
    let reads = spec.generate("f2", 120, &sim, args.seed).reads;

    let runner = MrMcMinH::new(MrMcConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.55,
        mode: Mode::Hierarchical,
        map_tasks: 8,
        ..Default::default()
    });
    eprintln!("\nre-running the real pipeline with injected stragglers...");
    let clean = runner.run(&reads).expect("clean run");
    // One straggler per stage, slowed well past the speculation bar.
    let inj = FaultPlan::new()
        .task_slowdown(0, Phase::Map, 2, 40)
        .task_slowdown(1, Phase::Map, 5, 40)
        .injector();
    let chaotic = runner
        .run_on(
            &reads,
            Pipeline::new("stragglers").with_faults(Arc::new(inj)),
        )
        .expect("chaotic run");
    assert_eq!(
        chaotic.assignment, clean.assignment,
        "stragglers must not change the clustering"
    );
    let rec = chaotic.recovery();

    println!(
        "\nFigure 2 addendum — same pipeline, engine-injected stragglers\n\
         (1 × 40 ms straggler per stage; speculation on; {} backup wins,\n\
         {} tasks' recovery work charged to the schedule)\n",
        rec.speculative_wins,
        rec.total_events()
    );
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "nodes", "clean (s)", "faulty (s)", "overhead"
    );
    let mut rows = Vec::new();
    for &n in nodes {
        let cluster = ClusterSpec::m1_large(n);
        let t_clean = clean.pipeline.simulated_total(&cluster, model);
        let t_faulty = chaotic.pipeline.simulated_total(&cluster, model);
        println!(
            "{:>12} {:>14.2} {:>14.2} {:>9.1}%",
            n,
            t_clean,
            t_faulty,
            (t_faulty / t_clean - 1.0) * 100.0
        );
        rows.push(Json::obj([
            ("nodes", Json::from(n)),
            ("clean_seconds", Json::fixed(t_clean, 4)),
            ("faulty_seconds", Json::fixed(t_faulty, 4)),
            ("overhead", Json::fixed(t_faulty / t_clean - 1.0, 4)),
        ]));
    }
    let shuffle = clean.pipeline.total_shuffle();
    println!(
        "\ncounters (clean run): PAIRS_COMPUTED = {}, shuffled pairs = {}, \
         shuffled bytes = {}, shuffle runs = {}",
        clean.pipeline.counter_total("PAIRS_COMPUTED"),
        shuffle.records,
        shuffle.bytes,
        shuffle.runs,
    );
    println!(
        "\ncheck: output bit-identical under stragglers; overhead shrinks as\n\
         nodes absorb the speculative re-work (recovery rides the same\n\
         list schedule as real tasks)."
    );

    // The same counters through the metrics plane: the straggler run's
    // pipeline exported as an `engine.*` snapshot (recovery events
    // included), printed alongside the raw counter dump and carried in
    // the `--json` artifact.
    let registry = mrmc_obs::MetricsRegistry::new();
    chaotic.pipeline.export_metrics(&registry);
    let snapshot = registry.snapshot();
    println!(
        "\nmetrics snapshot (straggler run):\n{}",
        snapshot.render_text()
    );

    // With `--trace`, dump the straggler run's simulated 6-node
    // schedule (the recovery work visible as Recovery-category spans).
    if let Some(path) = &args.trace {
        let tracer = Tracer::new();
        chaotic
            .pipeline
            .simulate_on(&ClusterSpec::m1_large(6), model, Some(&tracer));
        std::fs::write(path, chrome_trace(&tracer.ledger()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote simulated 6-node Chrome trace of the straggler run to {path}");
    }
    Json::obj([("rows", Json::Arr(rows)), ("metrics", snapshot.to_json())])
}
