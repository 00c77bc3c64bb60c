//! `job_trace` — the structured-tracing demonstrator and validator.
//!
//! Runs the MrMC-MinH pipeline with a [`Tracer`] attached, three ways:
//!
//! * **real, dense** — the hierarchical pipeline on the thread-pool
//!   engine, fault-free and under a combined chaos plan (panic +
//!   straggler + node death). Checks that tracing is passive (output
//!   bit-identical to an untraced run) and that the span ledger is
//!   deterministic (identical signature across repeated runs of the
//!   same seed and fault plan);
//! * **real, banded** — the banded-LSH hierarchical pipeline (four MR
//!   stages, with reduce phases and shuffle barriers on the trace; a
//!   greedy run has only the map-only sketch stage);
//! * **simulated** — the dense run's measured tasks list-scheduled
//!   onto virtual EMR clusters of 2–12 nodes
//!   ([`Pipeline::simulate_on_traced`]), where the critical-path
//!   analyzer must attribute ≥ 95 % of the simulated makespan and
//!   agree with the untraced simulator's total.
//!
//! Artifacts land under `results/`: Chrome `trace_event` JSON for
//! every run (open in `chrome://tracing` / Perfetto), an ASCII Gantt
//! of the 6-node simulated schedule, and a machine-readable summary.
//! Any violated check makes the process exit non-zero — this is the
//! CI `trace-smoke` step.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin job_trace -- --scale 0.5 --seed 7
//! ```

use std::sync::Arc;

use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_bench::json::{write_file, Json};
use mrmc_bench::HarnessArgs;
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::{
    chrome_trace, critical_path, render_gantt, ClusterSpec, JobCostModel, Pipeline, Tracer,
};
use mrmc_simulate::{CommunitySpec, ErrorModel, ReadSimulator, SpeciesSpec, TaxRank};

const GANTT_WIDTH: usize = 96;

fn two_species(n: usize, seed: u64) -> Vec<mrmc_seqio::SeqRecord> {
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
    spec.generate("trace", n, &sim, seed).reads
}

fn dense_config() -> MrMcConfig {
    MrMcConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.55,
        mode: Mode::Hierarchical,
        map_tasks: 8,
        ..Default::default()
    }
}

/// Category durations of a critical path as a JSON object (seconds).
fn categories_json(cp: &mrmc_mapreduce::CriticalPath) -> Json {
    Json::obj(
        mrmc_mapreduce::obs::trace::CATEGORIES
            .iter()
            .map(|&c| (c.name(), Json::fixed(cp.category_ns(c) as f64 / 1e9, 6))),
    )
}

fn main() {
    // Injected task panics are caught and retried by the engine; keep
    // their backtraces out of the report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("chaos: injected panic"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let args = HarnessArgs::parse(1.0);
    let num_reads = ((120.0 * args.scale).round() as usize).max(24);
    let reads = two_species(num_reads, args.seed);
    std::fs::create_dir_all("results").expect("creating results/");
    let mut failures: Vec<String> = Vec::new();

    eprintln!("job_trace: {num_reads} reads, seed {}", args.seed);

    // ---- Real run, dense hierarchical pipeline. ----
    let runner = MrMcMinH::new(dense_config());
    let baseline = runner.run(&reads).expect("untraced dense run");

    let tracer = Arc::new(Tracer::new());
    let traced = runner
        .run_on(&reads, Pipeline::new("dense").traced(tracer.clone()))
        .expect("traced dense run");
    if traced.assignment != baseline.assignment || traced.dendrogram != baseline.dendrogram {
        failures.push("tracing changed the dense clustering output".into());
    }
    let repeat = Arc::new(Tracer::new());
    runner
        .run_on(&reads, Pipeline::new("dense").traced(repeat.clone()))
        .expect("repeat traced dense run");
    if tracer.ledger().signature() != repeat.ledger().signature() {
        failures.push("dense span ledger differs across identical runs".into());
    }
    let dense_ledger = tracer.ledger();
    std::fs::write("results/TRACE_real_dense.json", chrome_trace(&dense_ledger))
        .expect("writing results/TRACE_real_dense.json");
    eprintln!(
        "real dense: {} spans, {} events, {:.1} ms makespan → results/TRACE_real_dense.json",
        dense_ledger.spans.len(),
        dense_ledger.events.len(),
        dense_ledger.makespan_ns() as f64 / 1e6
    );

    // ---- Real run under a combined fault plan (job 0 = sketch,
    // job 1 = similarity), traced twice with the same plan. ----
    let plan = FaultPlan::new()
        .task_panic(0, Phase::Map, 1, 2)
        .task_slowdown(1, Phase::Map, 0, 15)
        .node_death_after_map(0, 2);
    let chaos_tracers = [Arc::new(Tracer::new()), Arc::new(Tracer::new())];
    for t in &chaos_tracers {
        let run = runner
            .run_on(
                &reads,
                Pipeline::new("chaos")
                    .traced(t.clone())
                    .with_faults(Arc::new(plan.clone().injector())),
            )
            .expect("traced chaotic run");
        if run.assignment != baseline.assignment {
            failures.push("chaotic traced run not bit-identical to clean output".into());
        }
    }
    let chaos_ledger = chaos_tracers[0].ledger();
    if chaos_ledger.signature() != chaos_tracers[1].ledger().signature() {
        failures.push("chaotic span ledger differs across identical fault plans".into());
    }
    let recovery_spans = chaos_ledger
        .spans
        .iter()
        .filter(|s| s.category == mrmc_mapreduce::obs::trace::Category::Recovery)
        .count();
    if recovery_spans == 0 {
        failures.push("chaotic trace recorded no recovery spans".into());
    }
    std::fs::write("results/TRACE_real_chaos.json", chrome_trace(&chaos_ledger))
        .expect("writing results/TRACE_real_chaos.json");
    eprintln!(
        "real chaos: {} spans ({recovery_spans} recovery), {} events → results/TRACE_real_chaos.json",
        chaos_ledger.spans.len(),
        chaos_ledger.events.len(),
    );

    // ---- Real run, banded pipeline (reduce-bearing stages). ----
    let banded_runner = MrMcMinH::new(dense_config().banded());
    let banded_baseline = banded_runner.run(&reads).expect("untraced banded run");
    let banded_tracer = Arc::new(Tracer::new());
    let banded = banded_runner
        .run_on(
            &reads,
            Pipeline::new("banded").traced(banded_tracer.clone()),
        )
        .expect("traced banded run");
    if banded.assignment != banded_baseline.assignment
        || banded.dendrogram != banded_baseline.dendrogram
    {
        failures.push("tracing changed the banded clustering output".into());
    }
    let banded_ledger = banded_tracer.ledger();
    if banded_ledger.jobs.len() < 4 {
        failures.push(format!(
            "banded trace has {} jobs, expected the 4 MR stages",
            banded_ledger.jobs.len()
        ));
    }
    if !banded_ledger.spans.iter().any(|s| s.name == "shuffle") {
        failures.push("banded trace has no shuffle barrier span".into());
    }
    std::fs::write(
        "results/TRACE_real_banded.json",
        chrome_trace(&banded_ledger),
    )
    .expect("writing results/TRACE_real_banded.json");
    eprintln!(
        "real banded: {} jobs, {} spans → results/TRACE_real_banded.json",
        banded_ledger.jobs.len(),
        banded_ledger.spans.len()
    );

    // ---- Simulated 2–12-node sweep over the dense run's pipeline. ----
    let model = JobCostModel::default();
    let mut sweep_rows = Vec::new();
    for n in (2..=12).step_by(2) {
        let sim_tracer = Tracer::new();
        let reports =
            traced
                .pipeline
                .simulate_on_traced(&ClusterSpec::m1_large(n), &model, &sim_tracer);
        let sim_total: f64 = reports.iter().map(|r| r.total()).sum();
        let ledger = sim_tracer.ledger();
        let cp = critical_path(&ledger);

        let makespan_s = cp.makespan_ns as f64 / 1e9;
        let agreement = (makespan_s - sim_total).abs() / sim_total.max(1e-12);
        if agreement > 1e-6 {
            failures.push(format!(
                "{n}-node trace makespan {makespan_s:.6}s disagrees with \
                 simulate_on total {sim_total:.6}s"
            ));
        }
        if cp.coverage() < 0.95 {
            failures.push(format!(
                "{n}-node critical path attributes only {:.1}% of the makespan",
                cp.coverage() * 100.0
            ));
        }
        std::fs::write(
            format!("results/TRACE_sim_{n}nodes.json"),
            chrome_trace(&ledger),
        )
        .unwrap_or_else(|e| panic!("writing results/TRACE_sim_{n}nodes.json: {e}"));

        eprintln!(
            "simulated {n:>2} nodes: makespan {:>8.2}s, critical path covers {:>5.1}%",
            makespan_s,
            cp.coverage() * 100.0
        );
        if n == 6 {
            println!("critical path, 6-node simulated cluster:\n{}", cp.report());
            let gantt = render_gantt(&ledger, GANTT_WIDTH);
            println!("6-node simulated schedule (#=compute ==shuffle .=overhead !=recovery):");
            println!("{gantt}");
            std::fs::write("results/TRACE_gantt.txt", &gantt)
                .expect("writing results/TRACE_gantt.txt");
        }
        sweep_rows.push(Json::obj([
            ("nodes", Json::from(n)),
            ("makespan_seconds", Json::fixed(makespan_s, 6)),
            ("coverage", Json::fixed(cp.coverage(), 6)),
            ("critical_path_steps", cp.steps.len().into()),
            ("categories_seconds", categories_json(&cp)),
        ]));
    }

    // ---- Summary artifact. ----
    let summary = Json::obj([
        ("seed", Json::from(args.seed)),
        ("reads", num_reads.into()),
        (
            "failures",
            Json::arr(failures.iter().map(|f| f.as_str().into())),
        ),
        (
            "real",
            Json::obj([
                ("dense_spans", Json::from(dense_ledger.spans.len())),
                ("dense_events", dense_ledger.events.len().into()),
                ("chaos_spans", chaos_ledger.spans.len().into()),
                ("chaos_recovery_spans", recovery_spans.into()),
                ("banded_jobs", banded_ledger.jobs.len().into()),
                ("banded_spans", banded_ledger.spans.len().into()),
            ]),
        ),
        ("simulated", Json::Arr(sweep_rows)),
    ]);
    let summary_path = args
        .json
        .clone()
        .unwrap_or_else(|| "results/TRACE_summary.json".to_string());
    write_file(&summary_path, &summary);
    eprintln!("wrote trace summary to {summary_path}");

    if !failures.is_empty() {
        eprintln!("job_trace: FAILURE");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "job_trace: all checks passed (passive tracing, deterministic ledgers, \
         ≥95% critical-path attribution)"
    );
}
