//! End-to-end tests of the MapReduce engine: jobs over DFS text files
//! of numeric points, combiners, counters, heap failures, and timing.

use std::sync::Arc;

use gmr_mapreduce::prelude::*;
use gmr_mapreduce::Result;

/// Word-count over one-coordinate points: `line = "<id>"`. A negative
/// id is a mapper error.
struct CountJob {
    combiner: bool,
}

struct CountMapper;
impl Mapper for CountMapper {
    type Key = i64;
    type Value = u64;
    type Row = i64;
    fn dim(&self) -> usize {
        1
    }
    fn prepare_block(
        &mut self,
        points: &[f64],
        _norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<i64>> {
        Ok(points.iter().map(|&x| x as i64).collect())
    }
    fn map_point(
        &mut self,
        _point: &[f64],
        id: i64,
        out: &mut MapOutput<'_, i64, u64>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if id < 0 {
            return Err(gmr_mapreduce::Error::Task(format!("negative id {id}")));
        }
        out.emit(id, &1);
        Ok(())
    }
}

struct CountReducer;
impl Reducer for CountReducer {
    type Key = i64;
    type Value = u64;
    type Output = (i64, u64);
    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, u64>,
        out: &mut Vec<(i64, u64)>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.push((key, values.sum()));
        Ok(())
    }
}

impl Job for CountJob {
    type Key = i64;
    type Value = u64;
    type Output = (i64, u64);
    type Mapper = CountMapper;
    type Reducer = CountReducer;
    fn name(&self) -> &str {
        "count"
    }
    fn create_mapper(&self) -> CountMapper {
        CountMapper
    }
    fn create_reducer(&self) -> CountReducer {
        CountReducer
    }
    fn has_combiner(&self) -> bool {
        self.combiner
    }
    fn combine(&self, _key: &i64, acc: &mut Vec<u64>, value: &u64) {
        match acc.first_mut() {
            Some(count) => *count += value,
            None => acc.push(*value),
        }
    }
}

fn setup(block_size: usize, lines: usize) -> (Arc<Dfs>, JobRunner) {
    let dfs = Arc::new(Dfs::new(block_size));
    // ids cycle 0..10; each id appears lines/10 times.
    dfs.put_lines("in", (0..lines).map(|i| format!("{}", i % 10)))
        .unwrap();
    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    (dfs, runner)
}

#[test]
fn count_job_is_correct_across_many_splits() {
    let (_dfs, runner) = setup(64, 1000); // tiny blocks → many map tasks
    let job = CountJob { combiner: false };
    let mut r = runner
        .run(&job, "in", &JobConfig::with_reducers(4))
        .unwrap();
    r.output.sort();
    let expected: Vec<(i64, u64)> = (0..10).map(|i| (i as i64, 100u64)).collect();
    assert_eq!(r.output, expected);
    assert_eq!(r.counters.get(Counter::MapInputRecords), 1000);
    assert_eq!(r.counters.get(Counter::MapOutputRecords), 1000);
    assert_eq!(r.counters.get(Counter::ReduceInputRecords), 1000);
    assert_eq!(r.counters.get(Counter::ReduceInputGroups), 10);
    assert_eq!(r.counters.get(Counter::ReduceOutputRecords), 10);
}

#[test]
fn combiner_reduces_shuffle_volume_but_not_results() {
    // Blocks sized so the file lands in a couple of splits: per-split
    // combining then collapses ~1000 records into ≤10 per split.
    let (_d1, runner_nc) = setup(2048, 2000);
    let (_d2, runner_c) = setup(2048, 2000);
    let config = JobConfig::with_reducers(4);

    let mut plain = runner_nc
        .run(&CountJob { combiner: false }, "in", &config)
        .unwrap();
    let mut combined = runner_c
        .run(&CountJob { combiner: true }, "in", &config)
        .unwrap();
    plain.output.sort();
    combined.output.sort();
    assert_eq!(plain.output, combined.output);

    let sb_plain = plain.counters.get(Counter::ShuffleBytes);
    let sb_combined = combined.counters.get(Counter::ShuffleBytes);
    assert!(
        sb_combined < sb_plain / 10,
        "combiner should collapse shuffle: {sb_combined} vs {sb_plain}"
    );
    // Reduce side sees far fewer records with the combiner.
    assert!(
        combined.counters.get(Counter::ReduceInputRecords)
            < plain.counters.get(Counter::ReduceInputRecords) / 10
    );
}

#[test]
fn results_are_deterministic_across_runs() {
    let (_dfs, runner) = setup(128, 500);
    let job = CountJob { combiner: true };
    let config = JobConfig::with_reducers(3);
    let mut a = runner.run(&job, "in", &config).unwrap();
    let mut b = runner.run(&job, "in", &config).unwrap();
    a.output.sort();
    b.output.sort();
    assert_eq!(a.output, b.output);
}

#[test]
fn dataset_read_accounting_per_job() {
    let (dfs, runner) = setup(256, 100);
    assert_eq!(dfs.stats().dataset_reads, 0);
    let job = CountJob { combiner: true };
    runner.run(&job, "in", &JobConfig::default()).unwrap();
    runner.run(&job, "in", &JobConfig::default()).unwrap();
    let stats = dfs.stats();
    assert_eq!(stats.dataset_reads, 2);
    assert_eq!(stats.bytes_read, 2 * stats.bytes_written);
}

#[test]
fn missing_input_fails() {
    let dfs = Arc::new(Dfs::default());
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let err = runner
        .run(
            &CountJob { combiner: false },
            "absent",
            &JobConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, gmr_mapreduce::Error::FileNotFound(_)));
}

#[test]
fn zero_reducers_is_config_error() {
    let (_dfs, runner) = setup(256, 10);
    let err = runner
        .run(
            &CountJob { combiner: false },
            "in",
            &JobConfig::with_reducers(0),
        )
        .unwrap_err();
    assert!(matches!(err, gmr_mapreduce::Error::Config(_)));
}

#[test]
fn mapper_error_fails_job() {
    let dfs = Arc::new(Dfs::default());
    dfs.put_lines("in", ["1", "-2", "3"]).unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let err = runner
        .run(&CountJob { combiner: false }, "in", &JobConfig::default())
        .unwrap_err();
    assert!(matches!(err, gmr_mapreduce::Error::Task(_)), "{err:?}");
}

#[test]
fn timing_has_setup_and_tasks() {
    let (_dfs, runner) = setup(64, 500);
    let r = runner
        .run(
            &CountJob { combiner: true },
            "in",
            &JobConfig::with_reducers(2),
        )
        .unwrap();
    let model = runner.cluster().cost_model;
    assert!(r.timing.simulated_secs >= model.job_setup_secs);
    assert!(!r.timing.map_durations.is_empty());
    assert_eq!(r.timing.reduce_durations.len(), 2);
    assert!(r.timing.wall_secs > 0.0);
}

/// A reducer that buffers all its values on the simulated heap — the
/// shape of the paper's TestClusters reducer.
struct BufferingJob {
    bytes_per_value: u64,
}
struct EmitAllMapper;
impl Mapper for EmitAllMapper {
    type Key = i64;
    type Value = f64;
    type Row = ();
    fn dim(&self) -> usize {
        1
    }
    fn prepare_block(
        &mut self,
        _points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<()>> {
        Ok(vec![(); norms.len()])
    }
    fn map_point(
        &mut self,
        point: &[f64],
        _row: (),
        out: &mut MapOutput<'_, i64, f64>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.emit(0, &point[0]);
        Ok(())
    }
}
struct BufferingReducer {
    bytes_per_value: u64,
}
impl Reducer for BufferingReducer {
    type Key = i64;
    type Value = f64;
    type Output = u64;
    fn reduce(
        &mut self,
        _key: i64,
        values: Values<'_, f64>,
        out: &mut Vec<u64>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut buffered = 0u64;
        for _v in values {
            ctx.heap.charge(self.bytes_per_value)?;
            buffered += 1;
        }
        out.push(buffered);
        Ok(())
    }
}
impl Job for BufferingJob {
    type Key = i64;
    type Value = f64;
    type Output = u64;
    type Mapper = EmitAllMapper;
    type Reducer = BufferingReducer;
    fn name(&self) -> &str {
        "buffering"
    }
    fn create_mapper(&self) -> EmitAllMapper {
        EmitAllMapper
    }
    fn create_reducer(&self) -> BufferingReducer {
        BufferingReducer {
            bytes_per_value: self.bytes_per_value,
        }
    }
}

#[test]
fn heap_exhaustion_fails_job_with_java_heap_space() {
    let dfs = Arc::new(Dfs::new(1024));
    dfs.put_lines("in", (0..1000).map(|i| format!("{i}")))
        .unwrap();
    let cluster = ClusterConfig {
        heap_per_task: 8 * 1024, // tiny heap: 1000 × 64 B overflows
        ..ClusterConfig::default()
    };
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let err = runner
        .run(
            &BufferingJob {
                bytes_per_value: 64,
            },
            "in",
            &JobConfig::with_reducers(1),
        )
        .unwrap_err();
    match err {
        gmr_mapreduce::Error::HeapSpace { limit, .. } => assert_eq!(limit, 8 * 1024),
        other => panic!("expected HeapSpace, got {other:?}"),
    }
    // With enough heap the same job succeeds and reports its peak.
    let cluster = ClusterConfig {
        heap_per_task: 128 * 1024,
        ..ClusterConfig::default()
    };
    let runner = JobRunner::new(dfs, cluster).unwrap();
    let r = runner
        .run(
            &BufferingJob {
                bytes_per_value: 64,
            },
            "in",
            &JobConfig::with_reducers(1),
        )
        .unwrap();
    assert_eq!(r.output, vec![1000]);
    assert_eq!(r.counters.get(Counter::HeapPeakBytes), 64 * 1000);
}

/// A mapper that emits from `close` — the Algorithm 5 pattern.
struct CloseEmitJob;
struct CloseEmitMapper {
    seen: u64,
}
impl Mapper for CloseEmitMapper {
    type Key = i64;
    type Value = u64;
    type Row = ();
    fn dim(&self) -> usize {
        1
    }
    fn prepare_block(
        &mut self,
        _points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<()>> {
        Ok(vec![(); norms.len()])
    }
    fn map_point(
        &mut self,
        _point: &[f64],
        _row: (),
        _out: &mut MapOutput<'_, i64, u64>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        self.seen += 1;
        Ok(())
    }
    fn close(&mut self, out: &mut MapOutput<'_, i64, u64>, _ctx: &mut TaskContext) -> Result<()> {
        out.emit(0, &self.seen);
        Ok(())
    }
}
struct SumReducer2;
impl Reducer for SumReducer2 {
    type Key = i64;
    type Value = u64;
    type Output = u64;
    fn reduce(
        &mut self,
        _key: i64,
        values: Values<'_, u64>,
        out: &mut Vec<u64>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.push(values.sum());
        Ok(())
    }
}
impl Job for CloseEmitJob {
    type Key = i64;
    type Value = u64;
    type Output = u64;
    type Mapper = CloseEmitMapper;
    type Reducer = SumReducer2;
    fn name(&self) -> &str {
        "close-emit"
    }
    fn create_mapper(&self) -> CloseEmitMapper {
        CloseEmitMapper { seen: 0 }
    }
    fn create_reducer(&self) -> SumReducer2 {
        SumReducer2
    }
}

#[test]
fn mapper_close_emissions_are_shuffled() {
    let dfs = Arc::new(Dfs::new(64)); // several splits
    dfs.put_lines("in", (0..300).map(|i| format!("{i}")))
        .unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = runner
        .run(&CloseEmitJob, "in", &JobConfig::with_reducers(1))
        .unwrap();
    assert_eq!(r.output, vec![300]);
}

#[test]
fn spills_happen_under_small_threshold() {
    let (_dfs, runner) = setup(1 << 20, 5000); // single split
    let config = JobConfig {
        num_reduce_tasks: 2,
        spill_threshold_records: 100,
    };
    let r = runner
        .run(&CountJob { combiner: true }, "in", &config)
        .unwrap();
    assert!(r.counters.get(Counter::Spills) >= 40);
    let mut out = r.output;
    out.sort();
    assert_eq!(out, (0..10).map(|i| (i as i64, 500u64)).collect::<Vec<_>>());
}

#[test]
fn empty_input_file_runs_reducers_only() {
    let dfs = Arc::new(Dfs::default());
    let w = dfs.create("empty", false).unwrap();
    w.close();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = runner
        .run(
            &CountJob { combiner: true },
            "empty",
            &JobConfig::with_reducers(3),
        )
        .unwrap();
    assert!(r.output.is_empty());
    assert_eq!(r.counters.get(Counter::MapInputRecords), 0);
}

/// A reducer that reads only the FIRST value of each group: the runtime
/// must drain the rest so the next group starts at the right key.
struct FirstOnlyJob;
/// Emits each two-coordinate point `"<key> <value>"` as that pair.
struct TokenMapper;
impl Mapper for TokenMapper {
    type Key = i64;
    type Value = u64;
    type Row = ();
    fn dim(&self) -> usize {
        2
    }
    fn prepare_block(
        &mut self,
        _points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<()>> {
        Ok(vec![(); norms.len()])
    }
    fn map_point(
        &mut self,
        point: &[f64],
        _row: (),
        out: &mut MapOutput<'_, i64, u64>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.emit(point[0] as i64, &(point[1] as u64));
        Ok(())
    }
}
struct FirstOnlyReducer;
impl Reducer for FirstOnlyReducer {
    type Key = i64;
    type Value = u64;
    type Output = (i64, u64);
    fn reduce(
        &mut self,
        key: i64,
        mut values: Values<'_, u64>,
        out: &mut Vec<(i64, u64)>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.push((key, values.next().expect("at least one value")));
        // Deliberately leave the remaining values unconsumed.
        Ok(())
    }
}
impl Job for FirstOnlyJob {
    type Key = i64;
    type Value = u64;
    type Output = (i64, u64);
    type Mapper = TokenMapper;
    type Reducer = FirstOnlyReducer;
    fn name(&self) -> &str {
        "first-only"
    }
    fn create_mapper(&self) -> TokenMapper {
        TokenMapper
    }
    fn create_reducer(&self) -> FirstOnlyReducer {
        FirstOnlyReducer
    }
}

#[test]
fn partially_consumed_groups_do_not_leak_into_neighbours() {
    let dfs = Arc::new(Dfs::new(1 << 20));
    // Keys 0..50, five values each; values sorted within key by the
    // shuffle (single segment → emission order preserved per key).
    let lines: Vec<String> = (0..50)
        .flat_map(|k| (0..5).map(move |v| format!("{k} {}", k * 100 + v)))
        .collect();
    dfs.put_lines("in", &lines).unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let mut r = runner
        .run(&FirstOnlyJob, "in", &JobConfig::with_reducers(4))
        .unwrap();
    r.output.sort();
    assert_eq!(r.output.len(), 50, "one output per group, no key skipped");
    for (k, v) in r.output {
        assert_eq!(v, k as u64 * 100, "group {k} must see its own first value");
    }
}

/// A job with a custom partitioner: every key to one partition. All
/// groups then run in a single reduce task, in sorted key order.
struct SinglePartitionJob;
impl Job for SinglePartitionJob {
    type Key = i64;
    type Value = u64;
    type Output = (i64, u64);
    type Mapper = TokenMapper;
    type Reducer = CountReducer;
    fn name(&self) -> &str {
        "single-partition"
    }
    fn create_mapper(&self) -> TokenMapper {
        TokenMapper
    }
    fn create_reducer(&self) -> CountReducer {
        CountReducer
    }
    fn partition(&self, _key: &i64, _partitions: usize) -> usize {
        0
    }
}

#[test]
fn custom_partitioner_routes_everything_to_one_reducer() {
    let dfs = Arc::new(Dfs::new(512));
    dfs.put_lines("in", (0..100).map(|i| format!("{} {}", i % 7, i)))
        .unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = runner
        .run(&SinglePartitionJob, "in", &JobConfig::with_reducers(5))
        .unwrap();
    // All output comes from partition 0, already in ascending key order.
    let keys: Vec<i64> = r.output.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "single reducer sees keys in sorted order");
    assert_eq!(keys.len(), 7);
}
