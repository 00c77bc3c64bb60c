//! Property-based tests for the Map-Reduce substrate.

use proptest::prelude::*;

use bytes::Bytes;
use mrmc_mapreduce::dfs::{Dfs, DfsConfig, FastaSplitReader};
use mrmc_mapreduce::job::{Combiner, JobConfig, Mapper, Reducer, TaskContext};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::simcluster::{lpt_makespan, ClusterSpec, JobCostModel, ShuffleVolume};
use mrmc_mapreduce::{RecoveryCounters, Tracer};
use std::collections::HashMap;

/// A shuffle of `n` records priced on the record axis only.
fn records(n: u64) -> ShuffleVolume {
    ShuffleVolume {
        records: n,
        ..Default::default()
    }
}

struct WcMapper;
impl Mapper for WcMapper {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: usize, line: String, ctx: &mut TaskContext<String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

struct SumCombiner;
impl Combiner for SumCombiner {
    type Key = String;
    type Value = u64;
    fn combine(&self, _k: &String, vs: Vec<u64>) -> Vec<u64> {
        vec![vs.iter().sum()]
    }
}

fn word() -> impl Strategy<Value = String> {
    "[a-e]{1,3}"
}

proptest! {
    /// The distributed word count equals the sequential one, for any
    /// input, task count, reducer count and worker count — and the
    /// combiner never changes the answer.
    #[test]
    fn wordcount_equals_sequential(
        lines in proptest::collection::vec(
            proptest::collection::vec(word(), 0..8).prop_map(|ws| ws.join(" ")),
            0..20
        ),
        map_tasks in 1usize..6,
        reducers in 1usize..5,
        workers in 1usize..5,
    ) {
        let mut expected: HashMap<String, u64> = HashMap::new();
        for line in &lines {
            for w in line.split_whitespace() {
                *expected.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        let input: Vec<(usize, String)> = lines.into_iter().enumerate().collect();
        let cfg = JobConfig::named("wc").reducers(reducers).workers(workers);

        let mut pipeline = Pipeline::new("wc");
        let plain = pipeline
            .run_stage(input.clone(), map_tasks, &WcMapper, &SumReducer, &cfg)
            .unwrap();
        let got: HashMap<String, u64> = plain.into_iter().collect();
        prop_assert_eq!(&got, &expected);

        let combined = pipeline
            .run_stage_with_combiner(input, map_tasks, &WcMapper, &SumCombiner, &SumReducer, &cfg)
            .unwrap();
        let got2: HashMap<String, u64> = combined.into_iter().collect();
        prop_assert_eq!(&got2, &expected);
        let [plain, combined] = pipeline.stages() else {
            panic!("two stages")
        };
        prop_assert!(combined.shuffled_pairs <= plain.shuffled_pairs);
    }

    /// DFS round-trips arbitrary content through any block size, and
    /// split ranges tile the file exactly.
    #[test]
    fn dfs_round_trip_and_splits(
        content in proptest::collection::vec(any::<u8>(), 0..2000),
        block in 1usize..257,
    ) {
        let dfs = Dfs::new(DfsConfig { block_size: block, replication: 1, nodes: 2 }).unwrap();
        dfs.put("/f", content.clone(), false).unwrap();
        let read_back = dfs.read("/f").unwrap();
        prop_assert_eq!(read_back.as_ref(), &content[..]);
        let splits = dfs.splits("/f").unwrap();
        let mut cursor = 0usize;
        for s in &splits {
            prop_assert_eq!(s.range.start, cursor);
            cursor = s.range.end;
        }
        prop_assert_eq!(cursor, content.len());
    }

    /// Every FASTA record is owned by exactly one split, for any
    /// record set and block size.
    #[test]
    fn fasta_records_partitioned_once(
        seqs in proptest::collection::vec("[ACGT]{1,30}", 1..12),
        block in 4usize..64,
    ) {
        let mut fasta = String::new();
        for (i, s) in seqs.iter().enumerate() {
            fasta.push_str(&format!(">r{i}\n{s}\n"));
        }
        let bytes = Bytes::from(fasta.into_bytes());
        let mut owned = 0usize;
        let mut cursor = 0usize;
        while cursor < bytes.len() {
            let end = (cursor + block).min(bytes.len());
            owned += FastaSplitReader::records_in(&bytes, cursor..end).len();
            cursor = end;
        }
        prop_assert_eq!(owned, seqs.len());
    }

    /// LPT makespan bounds: max(cost) ≤ makespan ≤ total(cost), and
    /// makespan ≥ total/slots.
    #[test]
    fn lpt_bounds(
        costs in proptest::collection::vec(0.01f64..10.0, 1..40),
        slots in 1usize..16,
    ) {
        let mk = lpt_makespan(&costs, slots);
        let total: f64 = costs.iter().sum();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(mk >= max - 1e-9);
        prop_assert!(mk <= total + 1e-9);
        prop_assert!(mk >= total / slots as f64 - 1e-9);
    }

    /// Makespan never increases with more slots.
    #[test]
    fn lpt_monotone_in_slots(costs in proptest::collection::vec(0.01f64..10.0, 1..30)) {
        let mut prev = f64::INFINITY;
        for slots in 1..8 {
            let mk = lpt_makespan(&costs, slots);
            prop_assert!(mk <= prev + 1e-9);
            prev = mk;
        }
    }

    /// Simulated job phases respect the classic scheduling lower
    /// bounds: no phase beats its longest task (plus launch overhead),
    /// nor the total work spread over the available slots.
    #[test]
    fn sim_job_lower_bounds(
        map_costs in proptest::collection::vec(0.01f64..20.0, 1..30),
        reduce_costs in proptest::collection::vec(0.01f64..20.0, 0..12),
        shuffled in 0u64..2_000_000,
        nodes in 1usize..13,
    ) {
        let model = JobCostModel::default();
        let cluster = ClusterSpec::m1_large(nodes);
        let report = cluster.simulate_job(
            &model, &map_costs, records(shuffled), &reduce_costs, RecoveryCounters::new(), None,
        );

        let max_map = map_costs.iter().cloned().fold(0.0, f64::max);
        let map_work: f64 =
            map_costs.iter().sum::<f64>() + map_costs.len() as f64 * model.task_overhead;
        prop_assert!(report.map_time >= max_map + model.task_overhead - 1e-9);
        prop_assert!(report.map_time >= map_work / cluster.map_slots() as f64 - 1e-9);

        if !reduce_costs.is_empty() {
            let max_red = reduce_costs.iter().cloned().fold(0.0, f64::max);
            let red_work: f64 =
                reduce_costs.iter().sum::<f64>() + reduce_costs.len() as f64 * model.task_overhead;
            prop_assert!(report.reduce_time >= max_red + model.task_overhead - 1e-9);
            prop_assert!(report.reduce_time >= red_work / cluster.reduce_slots() as f64 - 1e-9);
        }
        prop_assert!(report.total() >= model.job_overhead - 1e-9);
    }

    /// Adding nodes never makes a simulated job slower (every term —
    /// map makespan, reduce makespan, shuffle bandwidth — improves or
    /// stays put).
    #[test]
    fn sim_job_total_non_increasing_in_nodes(
        map_costs in proptest::collection::vec(0.01f64..20.0, 1..30),
        reduce_costs in proptest::collection::vec(0.01f64..20.0, 0..12),
        shuffled in 0u64..2_000_000,
    ) {
        let model = JobCostModel::default();
        let mut prev = f64::INFINITY;
        for nodes in 1..=12 {
            let total = ClusterSpec::m1_large(nodes)
                .simulate_job(
                    &model, &map_costs, records(shuffled), &reduce_costs, RecoveryCounters::new(), None,
                )
                .total();
            prop_assert!(total <= prev + 1e-9, "{nodes} nodes: {total} > {prev}");
            prev = total;
        }
    }

    /// Nothing the cost model prices is free: adding recovery work,
    /// shuffle bytes or shuffle runs to a job never makes it cheaper.
    #[test]
    fn sim_job_monotone_in_recovery_bytes_and_runs(
        map_costs in proptest::collection::vec(0.01f64..20.0, 1..30),
        nodes in 1usize..13,
        retried in 0u64..6,
        reexecuted in 0u64..6,
        bytes in 0u64..50_000_000,
        runs in 0u64..500,
    ) {
        let model = JobCostModel::default();
        let cluster = ClusterSpec::m1_large(nodes);
        let base = cluster.simulate_job(
            &model, &map_costs, records(1_000), &[], RecoveryCounters::new(), None,
        );
        let ledger = RecoveryCounters {
            tasks_retried: retried,
            maps_reexecuted_node_loss: reexecuted,
            ..RecoveryCounters::new()
        };
        let recovered = cluster.simulate_job(&model, &map_costs, records(1_000), &[], ledger, None);
        prop_assert!(recovered.total() >= base.total() - 1e-9);

        let wide = ShuffleVolume { bytes, ..records(1_000) };
        let widened = cluster.simulate_job(&model, &map_costs, wide, &[], ledger, None);
        prop_assert!(widened.total() >= recovered.total() - 1e-9);
        let fetched = ShuffleVolume { runs, ..wide };
        let full = cluster.simulate_job(&model, &map_costs, fetched, &[], ledger, None);
        prop_assert!(full.total() >= widened.total() - 1e-9);
    }

    /// With a clean ledger and no straggler, each simulated phase lasts
    /// exactly the LPT makespan of its task costs plus the per-task
    /// launch overhead, traced or not — an oracle that does not share
    /// the simulator's body.
    #[test]
    fn sim_job_phases_are_lpt_makespans(
        map_costs in proptest::collection::vec(0.01f64..20.0, 0..30),
        reduce_costs in proptest::collection::vec(0.01f64..20.0, 0..12),
        nodes in 1usize..13,
        traced in any::<bool>(),
    ) {
        let model = JobCostModel::default();
        let cluster = ClusterSpec::m1_large(nodes);
        let tracer = Tracer::new();
        let report = cluster.simulate_job(
            &model,
            &map_costs,
            records(1_000),
            &reduce_costs,
            RecoveryCounters::new(),
            traced.then_some((&tracer, "prop", 0.0)),
        );
        let launched =
            |costs: &[f64]| -> Vec<f64> { costs.iter().map(|c| c + model.task_overhead).collect() };
        prop_assert_eq!(report.map_time, lpt_makespan(&launched(&map_costs), cluster.map_slots()));
        prop_assert_eq!(
            report.reduce_time,
            lpt_makespan(&launched(&reduce_costs), cluster.reduce_slots())
        );
        prop_assert_eq!(tracer.ledger().spans.is_empty(), !traced);
    }
}
