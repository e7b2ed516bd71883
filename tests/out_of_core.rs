//! Out-of-core execution: spilling map tasks, compressed spill runs and
//! bounded-fan-in merges must be an *implementation detail* — every
//! algorithm's answer, and every data-path counter, stays bit-identical
//! to fully buffered execution. These tests pin that equivalence for
//! all four algorithms, then exercise the degradation paths the spill
//! machinery adds: capped heaps, injected heap faults rescued by
//! spilling, and torn spill runs caught by run checksums and retried.

use std::sync::Arc;

use gmeans::mr::find_new_centers::{FindNewCentersJob, FindNewOutput};
use gmeans::mr::{CenterSet, CenterUpdate, KMeansJob};
use gmeans::prelude::*;
use gmr_datagen::{format_point, GaussianMixture};
use gmr_mapreduce::counters::{Counter, Counters};
use gmr_mapreduce::job::JobConfig;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, FaultPlan, JobRunner, OutOfCoreConfig};

/// The dataset of the driver-engine goldens (1200 × 10d, 3 clusters).
fn staged_dfs() -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    GaussianMixture::paper_r10(1200, 3, 77)
        .generate_to_dfs(&dfs, "pts")
        .expect("write dataset");
    dfs
}

/// A spill-hungry out-of-core config: a sort buffer far below one map
/// task's output, a tiny compressed block, and a small merge fan-in so
/// multi-pass merges actually happen.
fn tiny_ooc() -> OutOfCoreConfig {
    OutOfCoreConfig::enabled()
        .with_sort_buffer(4096)
        .with_merge_fan_in(4)
        .with_block_bytes(1024)
}

fn buffered_cluster() -> ClusterConfig {
    ClusterConfig::default()
}

fn spilling_cluster() -> ClusterConfig {
    ClusterConfig::default().with_out_of_core(tiny_ooc())
}

fn runner(dfs: &Arc<Dfs>, cluster: ClusterConfig) -> JobRunner {
    JobRunner::new(Arc::clone(dfs), cluster).expect("valid cluster")
}

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn hash_rows<'a>(rows: impl Iterator<Item = &'a [f64]>) -> u64 {
    fnv(rows.flat_map(|r| r.iter().map(|v| v.to_bits())))
}

/// Counters that legitimately differ between spilling and buffered
/// execution: the spill bookkeeping itself, and the heap peak (the
/// spilling path charges its sort and merge buffers to the ledger).
const MODE_DEPENDENT: &[Counter] = &[
    Counter::ShuffleSpills,
    Counter::ShuffleSpillBytes,
    Counter::ShuffleMergePasses,
    Counter::BytesCompressed,
    Counter::BytesDecompressed,
    Counter::HeapSpillRescues,
    Counter::HeapPeakBytes,
];

/// Every counter except the mode-dependent ones, as comparable pairs.
fn data_path_counters(c: &Counters) -> Vec<(&'static str, u64)> {
    Counter::all()
        .iter()
        .filter(|k| !MODE_DEPENDENT.contains(k))
        .map(|&k| (k.name(), c.get(k)))
        .collect()
}

/// The answer and data-path counters of one algorithm run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    centers: u64,
    counts: u64,
    jobs: u64,
    counters: Vec<(&'static str, u64)>,
    spills: u64,
    merge_passes: u64,
    compressed: u64,
}

fn gmeans_outcome(dfs: &Arc<Dfs>, cluster: ClusterConfig) -> Outcome {
    let r = MRGMeans::new(runner(dfs, cluster), GMeansConfig::default())
        .run("pts")
        .expect("gmeans run");
    Outcome {
        centers: hash_rows(r.centers.rows()),
        counts: fnv(r.counts.iter().copied()),
        jobs: r.jobs as u64,
        counters: data_path_counters(&r.counters),
        spills: r.counters.get(Counter::ShuffleSpills),
        merge_passes: r.counters.get(Counter::ShuffleMergePasses),
        compressed: r.counters.get(Counter::BytesCompressed),
    }
}

fn kmeans_outcome(dfs: &Arc<Dfs>, cluster: ClusterConfig) -> Outcome {
    let r = MRKMeans::new(runner(dfs, cluster), 3, 6, 5)
        .run("pts")
        .expect("kmeans run");
    Outcome {
        centers: hash_rows(r.centers.rows()),
        counts: fnv(r.counts.iter().copied()),
        jobs: r.iteration_timings.len() as u64,
        counters: data_path_counters(&r.counters),
        spills: r.counters.get(Counter::ShuffleSpills),
        merge_passes: r.counters.get(Counter::ShuffleMergePasses),
        compressed: r.counters.get(Counter::BytesCompressed),
    }
}

fn multik_outcome(dfs: &Arc<Dfs>, cluster: ClusterConfig) -> Outcome {
    let r = MultiKMeans::new(runner(dfs, cluster), 1, 4, 1, 5, 9)
        .run("pts")
        .expect("multi-k run");
    Outcome {
        centers: fnv(r
            .models
            .iter()
            .flat_map(|m| m.centers.rows())
            .flat_map(|row| row.iter().map(|v| v.to_bits()))),
        counts: fnv(r.models.iter().flat_map(|m| m.counts.iter().copied())),
        jobs: r.iteration_timings.len() as u64,
        counters: data_path_counters(&r.counters),
        spills: r.counters.get(Counter::ShuffleSpills),
        merge_passes: r.counters.get(Counter::ShuffleMergePasses),
        compressed: r.counters.get(Counter::BytesCompressed),
    }
}

fn parinit_outcome(dfs: &Arc<Dfs>, cluster: ClusterConfig) -> Outcome {
    let c = KMeansParallelInit::new(runner(dfs, cluster), 3, 13)
        .run("pts")
        .expect("par-init run");
    Outcome {
        centers: hash_rows((0..c.len()).map(|i| c.coords(i))),
        counts: fnv((0..c.len()).map(|i| c.id(i) as u64)),
        jobs: 0,
        counters: Vec::new(),
        spills: 0,
        merge_passes: 0,
        compressed: 0,
    }
}

/// The tentpole equivalence: with a sort buffer far smaller than any
/// map task's output, every algorithm spills, multi-pass merges and
/// decompresses its way to the *same bits* — centers, counts, job
/// count, and every data-path counter — as fully buffered execution.
#[test]
fn spilling_is_bit_identical_to_buffered_for_every_algorithm() {
    type Case = (&'static str, fn(&Arc<Dfs>, ClusterConfig) -> Outcome, bool);
    let cases: &[Case] = &[
        ("MRGMeans", gmeans_outcome, true),
        ("MRKMeans", kmeans_outcome, true),
        ("MultiKMeans", multik_outcome, true),
        ("KMeansParallelInit", parinit_outcome, false),
    ];
    for &(name, run, observes_counters) in cases {
        let buffered = run(&staged_dfs(), buffered_cluster());
        let spilled = run(&staged_dfs(), spilling_cluster());
        assert_eq!(
            buffered.centers, spilled.centers,
            "{name}: centers diverged under spilling"
        );
        assert_eq!(buffered.counts, spilled.counts, "{name}: counts diverged");
        assert_eq!(buffered.jobs, spilled.jobs, "{name}: job count diverged");
        assert_eq!(
            buffered.counters, spilled.counters,
            "{name}: a data-path counter diverged under spilling"
        );
        if observes_counters {
            assert_eq!(buffered.spills, 0, "{name}: buffered run must not spill");
            assert!(spilled.spills > 0, "{name}: tiny sort buffer must spill");
            assert!(
                spilled.merge_passes > 0,
                "{name}: fan-in 4 must force multi-pass merges"
            );
            assert!(
                spilled.compressed > 0,
                "{name}: compressed spill runs must be exercised"
            );
        }
    }
}

/// The acceptance scenario: a G-means run whose per-task heap cap is
/// smaller than the dataset completes via spill-merge — and lands on
/// the exact bits of an uncapped, fully in-memory run.
#[test]
fn capped_heap_gmeans_spills_and_matches_uncapped_run() {
    let dfs = staged_dfs();
    let dataset_bytes = dfs.len("pts").expect("dataset present");
    // Big enough that the AD-test strategy choice and the split-test
    // reducer's per-projection charges are untouched; smaller than the
    // dataset, so buffering it whole is off the table.
    let cap = 160 * 1024;
    assert!(
        (cap as u64) < dataset_bytes,
        "cap {cap} must be smaller than the dataset ({dataset_bytes} B)"
    );
    let uncapped = gmeans_outcome(&staged_dfs(), buffered_cluster());
    let capped = gmeans_outcome(
        &dfs,
        ClusterConfig {
            heap_per_task: cap as u64,
            ..ClusterConfig::default().with_out_of_core(tiny_ooc())
        },
    );
    assert!(capped.spills > 0, "capped run must have spilled");
    assert_eq!(
        uncapped.centers, capped.centers,
        "centers must be bit-identical"
    );
    assert_eq!(uncapped.counts, capped.counts);
    assert_eq!(uncapped.jobs, capped.jobs, "same k, same jobs");
    assert_eq!(uncapped.counters, capped.counters);
}

/// Injected heap faults, which kill attempts outright under buffered
/// execution, degrade to aggressive spilling when out-of-core execution
/// is on: no attempt is burned and the answer is unchanged.
#[test]
fn heap_faults_are_rescued_by_spilling() {
    let faults = FaultPlan::none().with_seed(21).with_heap_failures(0.3);
    let clean = gmeans_outcome(&staged_dfs(), spilling_cluster());
    let r = MRGMeans::new(
        runner(
            &staged_dfs(),
            ClusterConfig::default()
                .with_out_of_core(tiny_ooc())
                .with_faults(faults),
        ),
        GMeansConfig::default(),
    )
    .run("pts")
    .expect("heap faults must not kill a spilling run");
    assert!(
        r.counters.get(Counter::HeapSpillRescues) > 0,
        "p=0.3 heap faults must hit some attempts"
    );
    assert_eq!(
        r.counters.get(Counter::AttemptsFailed),
        0,
        "a rescued heap fault burns no attempt"
    );
    assert_eq!(hash_rows(r.centers.rows()), clean.centers);
    assert_eq!(fnv(r.counts.iter().copied()), clean.counts);
    assert_eq!(r.jobs as u64, clean.jobs);
}

/// Torn spill runs (a simulated crash mid-spill-write) are caught by
/// the per-block checksums when the task merges its runs; the attempt
/// fails and the bounded retry budget re-executes it to the same bits.
#[test]
fn torn_spills_are_detected_and_retried() {
    let clean = gmeans_outcome(&staged_dfs(), spilling_cluster());
    let faults = FaultPlan::none()
        .with_seed(11)
        .with_torn_spills(0.08)
        .with_max_attempts(8);
    let r = MRGMeans::new(
        runner(
            &staged_dfs(),
            ClusterConfig::default()
                .with_out_of_core(tiny_ooc())
                .with_faults(faults),
        ),
        GMeansConfig::default(),
    )
    .run("pts")
    .expect("torn spills must be absorbed by the attempt budget");
    assert!(
        r.counters.get(Counter::AttemptsFailed) > 0,
        "p=0.08 over many spill events must tear something"
    );
    assert_eq!(hash_rows(r.centers.rows()), clean.centers);
    assert_eq!(fnv(r.counts.iter().copied()), clean.counts);
    assert_eq!(r.jobs as u64, clean.jobs);
}

/// The streaming candidate selector: `KMeansAndFindNewCenters` now
/// feeds its reducer values straight off the merge (no collected Vec).
/// Tie-heavy input — many bit-identical points, hence equal selection
/// priorities — makes the value *order* observable, so this pins the
/// streaming path to the collected predecessor's bits, buffered and
/// spilled, one split and many.
#[test]
fn streaming_candidate_selection_is_order_stable_on_ties() {
    // 300 copies of one point (all priorities equal: pure tie-break),
    // plus a spread of distinct points in a second cluster.
    let mut lines: Vec<String> = (0..300).map(|_| format_point(&[1.0, 2.0])).collect();
    lines.extend((0..100).map(|i| format_point(&[100.0 + i as f64, -3.0])));
    let mut centers = CenterSet::new(2);
    centers.push(0, &[1.0, 2.0]);
    centers.push(7, &[150.0, -3.0]);

    let run = |cluster: ClusterConfig, block: usize| -> Vec<FindNewOutput> {
        let dfs = Arc::new(Dfs::new(block));
        dfs.put_lines("pts", &lines).unwrap();
        let rnr = JobRunner::new(dfs, cluster).unwrap();
        let job = FindNewCentersJob::new(Arc::new(centers.clone()), 41);
        rnr.run(&job, "pts", &JobConfig::with_reducers(3))
            .expect("job runs")
            .output
    };

    let reference = run(buffered_cluster(), 1 << 20);
    // Same bits whether the input is one split or many, buffered or
    // spilled through tiny runs.
    assert_eq!(
        run(buffered_cluster(), 512),
        reference,
        "many splits, buffered"
    );
    assert_eq!(
        run(spilling_cluster(), 1 << 20),
        reference,
        "one split, spilled"
    );
    assert_eq!(
        run(spilling_cluster(), 512),
        reference,
        "many splits, spilled"
    );
    // Sanity: the tie-heavy cluster kept exactly two candidates, both
    // the duplicated point.
    let cands: Vec<_> = reference
        .iter()
        .filter_map(|o| match o {
            FindNewOutput::Candidates { id: 0, points } => Some(points.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0], vec![vec![1.0, 2.0], vec![1.0, 2.0]]);
}

/// Single-key skew: every point lands on one reducer key. The merged
/// stream for that key spans every map task's runs; streaming reduction
/// over it must equal buffered reduction bit for bit.
#[test]
fn single_key_skew_streams_identically() {
    let spec = GaussianMixture::paper_r10(4000, 1, 123);
    let run = |cluster: ClusterConfig| {
        let dfs = Arc::new(Dfs::new(8 * 1024));
        spec.generate_to_dfs(&dfs, "pts").unwrap();
        let rnr = JobRunner::new(dfs, cluster).unwrap();
        let mut centers = CenterSet::new(10);
        centers.push(0, &[0.0; 10]);
        let job = FindNewCentersJob::new(Arc::new(centers), 5);
        let result = rnr
            .run(&job, "pts", &JobConfig::with_reducers(4))
            .expect("job runs");
        (result.output, result.counters.get(Counter::ShuffleSpills))
    };
    let (buffered, b_spills) = run(buffered_cluster());
    let (spilled, s_spills) = run(spilling_cluster());
    assert_eq!(b_spills, 0);
    assert!(s_spills > 0, "4000 doubled emissions must overflow 4 KiB");
    assert_eq!(buffered, spilled, "skewed single-key output diverged");
}

/// Output bits and window/combine counters of one job run.
#[derive(Debug, PartialEq, Eq)]
struct WindowPin {
    output: u64,
    spills: u64,
    shuffle_spills: u64,
    map_output: u64,
    combine_in: u64,
    combine_out: u64,
}

fn window_pin<O>(r: &gmr_mapreduce::runtime::JobResult<O>, output: u64) -> WindowPin {
    let c = |k| r.counters.get(k);
    WindowPin {
        output,
        spills: c(Counter::Spills),
        shuffle_spills: c(Counter::ShuffleSpills),
        map_output: c(Counter::MapOutputRecords),
        combine_in: c(Counter::CombineInputRecords),
        combine_out: c(Counter::CombineOutputRecords),
    }
}

fn update_words(u: &CenterUpdate) -> impl Iterator<Item = u64> + '_ {
    [u.id as u64, u.count]
        .into_iter()
        .chain(u.coords.iter().map(|v| v.to_bits()))
}

/// The map-side combine under spill windows that cut key groups — a
/// buffered window of 100 records and one of 257 — and on a spilling
/// cluster: each run's output bits, spill counts and combine counters,
/// pinned. Every run folds each key's values once per map attempt, in
/// emission order, so all three answers equal the unwindowed one bit
/// for bit.
#[test]
fn combine_counters_and_output_bits_are_pinned_under_spill_windows() {
    let dfs = Arc::new(Dfs::new(64 * 1024));
    let data = GaussianMixture::paper_r10(20_000, 8, 2024)
        .generate_to_dfs(&dfs, "pts")
        .expect("write dataset");
    let mut centers = CenterSet::new(10);
    for (id, row) in data.rows().take(12).enumerate() {
        centers.push(id as i64, row);
    }
    let centers = Arc::new(centers);
    let kmeans = KMeansJob::new(Arc::clone(&centers));
    let find_new = FindNewCentersJob::new(Arc::clone(&centers), 17);

    let window = |records| JobConfig {
        num_reduce_tasks: 3,
        spill_threshold_records: records,
    };
    let runs = [
        ("window 100", buffered_cluster(), window(100)),
        ("window 257", buffered_cluster(), window(257)),
        ("spilling", spilling_cluster(), JobConfig::with_reducers(3)),
    ];
    let unwindowed = JobConfig::with_reducers(3);
    let kmeans_pin = |cluster: ClusterConfig, config: &JobConfig| {
        let r = runner(&dfs, cluster)
            .run(&kmeans, "pts", config)
            .expect("kmeans");
        window_pin(&r, fnv(r.output.iter().flat_map(update_words)))
    };
    let find_new_pin = |cluster: ClusterConfig, config: &JobConfig| {
        let r = runner(&dfs, cluster)
            .run(&find_new, "pts", config)
            .expect("find-new");
        let words = r.output.iter().flat_map(|o| -> Vec<u64> {
            match o {
                FindNewOutput::Update(u) => update_words(u).collect(),
                FindNewOutput::Candidates { id, points } => std::iter::once(*id as u64)
                    .chain(points.iter().flatten().map(|v| v.to_bits()))
                    .collect(),
            }
        });
        window_pin(&r, fnv(words))
    };
    // Captured before the combine streamed: the answer of an unwindowed
    // buffered run, then each run's pins.
    const KMEANS_BITS: u64 = 16_488_374_587_314_442_215;
    const FIND_NEW_BITS: u64 = 7_824_712_890_652_824_187;
    let pin = |output, spills, shuffle_spills, map_output, combine_in, combine_out| WindowPin {
        output,
        spills,
        shuffle_spills,
        map_output,
        combine_in,
        combine_out,
    };
    assert_eq!(
        kmeans_pin(buffered_cluster(), &unwindowed),
        pin(KMEANS_BITS, 0, 0, 20_000, 20_000, 448)
    );
    assert_eq!(
        find_new_pin(buffered_cluster(), &unwindowed),
        pin(FIND_NEW_BITS, 0, 0, 40_000, 40_000, 1_344)
    );
    let expected = [
        (
            pin(KMEANS_BITS, 167, 0, 20_000, 21_336, 1_784),
            pin(FIND_NEW_BITS, 389, 0, 40_000, 49_336, 10_680),
        ),
        (
            pin(KMEANS_BITS, 55, 0, 20_000, 20_440, 888),
            pin(FIND_NEW_BITS, 111, 0, 40_000, 42_664, 4_008),
        ),
        (
            pin(KMEANS_BITS, 0, 444, 20_000, 20_000, 448),
            pin(FIND_NEW_BITS, 0, 944, 40_000, 40_000, 1_344),
        ),
    ];
    for ((name, cluster, config), (kmeans_want, find_new_want)) in runs.into_iter().zip(expected) {
        assert_eq!(kmeans_pin(cluster, &config), kmeans_want, "{name}: KMeans");
        assert_eq!(
            find_new_pin(cluster, &config),
            find_new_want,
            "{name}: FindNewCenters"
        );
    }
}
