//! Block-at-a-time text ingestion: a point job's map task parses its
//! text split into blocks of `MAP_BLOCK_POINTS` lines, quarantining the
//! lines it rejects, and runs the blocked nearest-center kernel on each
//! block. On a dirty file the job's output and counters must equal what
//! this test computes line by line with `parse_point_dim` and the scalar
//! `nearest_center_flat` scan — buffered and spilling, for k-means and
//! for the split test. Every other point job must give the same output
//! bits and distance count from the text file as from a point cache of
//! it, whose blocks count points instead of lines.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use gmeans::mr::parallel_init::ParallelInitRound;
use gmeans::mr::{
    CenterSet, CenterUpdate, FindNewCentersJob, KMeansJob, MultiKMeansJob, SplitTestSpec,
    TestClustersJob, TestDecision, TestFewClustersJob, TestOutcome,
};
use gmr_datagen::parse_point_dim;
use gmr_linalg::{nearest_center_flat, SegmentProjector};
use gmr_mapreduce::cache::PointCache;
use gmr_mapreduce::counters::{Counter, Counters};
use gmr_mapreduce::job::{Job, JobConfig};
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner, OutOfCoreConfig};
use gmr_mapreduce::runtime::MAP_BLOCK_POINTS;
use gmr_stats::AndersonDarling;

const DIM: usize = 3;

/// Buffered map tasks close a spill window every this many emissions,
/// so `Spills` and the windowed combine counters count something.
const SPILL_THRESHOLD: usize = 100;

const CENTERS: [[f64; DIM]; 4] = [
    [0.0, 0.0, 0.0],
    [10.0, 0.0, 0.0],
    [0.0, 10.0, 0.0],
    [0.0, 0.0, 10.0],
];

/// Two split-test parents, each tested along the axis between its own
/// two children; the first parent's children straddle center 0 and 1.
const PARENTS: [[f64; DIM]; 2] = [[5.0, 0.0, 0.0], [0.0, 5.0, 5.0]];
const CHILDREN: [([f64; DIM], [f64; DIM]); 2] = [
    ([0.0, 0.0, 0.0], [10.0, 0.0, 0.0]),
    ([0.0, 10.0, 0.0], [0.0, 0.0, 10.0]),
];

/// A center set with ids `0..` over `rows`.
fn center_set(rows: &[[f64; DIM]]) -> CenterSet {
    let mut set = CenterSet::new(DIM);
    for (i, row) in rows.iter().enumerate() {
        set.push(i as i64, row);
    }
    set
}

/// Lines no point mapper of dimension 3 accepts: non-finite values,
/// wrong dimensions, empty and blank lines, garbage, and a CRLF ending.
const DIRTY: [&str; 10] = [
    "NaN 1 2",
    "1 inf 2",
    "-infinity 0 0",
    "1 2",
    "1 2 3 4",
    "",
    " \t ",
    "x 1 2",
    "1\u{a0}2",
    "4 5\r",
];

/// The `i`-th good point's line, spelled in varied but valid ways: tab,
/// double-space, no-break-space and vertical-tab separators, CRLF
/// endings, `-0.0`, `1e-300`, and exact ties between two centers.
fn good_line(i: usize) -> String {
    let center = CENTERS[i % CENTERS.len()];
    let mut coords: Vec<String> = (0..DIM)
        .map(|d| {
            let jitter = ((i * (2 * d + 7) * 2_654_435_761) % 1000) as f64 / 250.0 - 2.0;
            format!("{}", center[d] + jitter)
        })
        .collect();
    if i % 19 == 0 {
        coords[0] = "-0.0".into();
    }
    if i % 23 == 0 {
        coords[1] = "1e-300".into();
    }
    if i % 29 == 0 {
        // Equidistant from the first two centers: first-wins decides.
        coords = vec!["5".into(), "0".into(), "0".into()];
    }
    let sep = match i {
        _ if i % 7 == 0 => "\t",
        _ if i % 11 == 0 => "\u{a0}",
        _ if i % 13 == 0 => "\u{b}",
        _ if i % 5 == 0 => "  ",
        _ => " ",
    };
    let mut line = coords.join(sep);
    if i % 17 == 0 {
        line.push('\r');
    }
    line
}

/// Runs of `MAP_BLOCK_POINTS - 1`, `MAP_BLOCK_POINTS` and
/// `MAP_BLOCK_POINTS + 1` good points, separated by dirty lines, so
/// block boundaries fall inside runs and next to dirty lines; one gap
/// holds more dirty lines than a block, so some block has no point.
fn dirty_file() -> Vec<String> {
    let b = MAP_BLOCK_POINTS;
    let mut lines = vec![DIRTY[0].to_string()];
    let mut good = 0;
    for (r, run) in [b - 1, b, b + 1, b, b - 1].into_iter().enumerate() {
        lines.extend((good..good + run).map(good_line));
        good += run;
        lines.extend(DIRTY.iter().skip(r * 2 + 1).take(2).map(|l| l.to_string()));
        if r == 2 {
            lines.extend(DIRTY.iter().cycle().take(2 * b).map(|l| l.to_string()));
        }
    }
    lines.push(DIRTY[DIRTY.len() - 1].to_string());
    lines
}

/// The record a text split hands a mapper: the line without its
/// terminator.
fn record(line: &str) -> &str {
    line.trim_end_matches(['\n', '\r'])
}

/// What the test derives line by line: the expected value of every
/// counter it can compute, and the accepted points in file order.
struct Reference {
    counters: Vec<(Counter, u64)>,
    points: Vec<Vec<f64>>,
}

/// `k` centers; every accepted point emits one record.
fn reference(lines: &[String], k: usize) -> Reference {
    let mut points = Vec::new();
    let (mut bad, mut bad_bytes) = (0u64, 0u64);
    for line in lines {
        match parse_point_dim(record(line), DIM) {
            Ok(p) => points.push(p),
            Err(_) => {
                bad += 1;
                bad_bytes += record(line).len() as u64 + 1;
            }
        }
    }
    let input: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
    Reference {
        counters: vec![
            (Counter::MapInputRecords, lines.len() as u64),
            (Counter::BadRecordsSkipped, bad),
            (Counter::BadRecordBytes, bad_bytes),
            (Counter::DistanceComputations, (points.len() * k) as u64),
            (Counter::MapOutputRecords, points.len() as u64),
            (Counter::InputBytes, input),
        ],
        points,
    }
}

/// Nearest of `centers` (a flat row-major buffer) by the scalar scan.
fn nearest(point: &[f64], centers: &[f64]) -> usize {
    nearest_center_flat(point, centers, DIM)
        .expect("non-empty centers")
        .0
}

fn clusters() -> [(&'static str, ClusterConfig); 2] {
    let spilling = OutOfCoreConfig::enabled()
        .with_sort_buffer(4096)
        .with_merge_fan_in(4)
        .with_block_bytes(1024);
    [
        ("buffered", ClusterConfig::default()),
        (
            "spilling",
            ClusterConfig::default().with_out_of_core(spilling),
        ),
    ]
}

/// One split holding the whole file, so the map side's fold order is
/// the file's line order.
fn staged(lines: &[String], cluster: ClusterConfig) -> JobRunner {
    let dfs = Arc::new(Dfs::new(1 << 22));
    dfs.put_lines("pts", lines).expect("stage dirty file");
    JobRunner::new(dfs, cluster).expect("valid cluster")
}

fn job_config() -> JobConfig {
    JobConfig {
        num_reduce_tasks: 2,
        spill_threshold_records: SPILL_THRESHOLD,
    }
}

/// Checks the derived counters, and that buffered tasks spill every
/// `SPILL_THRESHOLD` emissions while spilling tasks write runs instead.
fn check_counters(what: &str, counters: &Counters, want: &Reference, spilling: bool) {
    for &(counter, value) in &want.counters {
        assert_eq!(counters.get(counter), value, "{what}: {counter:?}");
    }
    let emitted = counters.get(Counter::MapOutputRecords);
    let buffered_spills = if spilling {
        0
    } else {
        emitted / SPILL_THRESHOLD as u64
    };
    assert_eq!(
        counters.get(Counter::Spills),
        buffered_spills,
        "{what}: Spills"
    );
    assert_eq!(
        counters.get(Counter::ShuffleSpills) > 0,
        spilling,
        "{what}: ShuffleSpills"
    );
}

#[test]
fn kmeans_on_dirty_text_matches_a_per_line_reference() {
    let lines = dirty_file();
    let flat: Vec<f64> = CENTERS.concat();
    let want = reference(&lines, CENTERS.len());
    assert!(
        want.counters[1].1 >= DIRTY.len() as u64,
        "dirty lines staged"
    );

    // Each center's new position: the points it wins, summed in file
    // order (the combiner's and reducer's fold order on one split).
    let mut sums: BTreeMap<i64, (Vec<f64>, u64)> = BTreeMap::new();
    for p in &want.points {
        let id = nearest(p, &flat) as i64;
        match sums.get_mut(&id) {
            None => {
                sums.insert(id, (p.clone(), 1));
            }
            Some((sum, count)) => {
                sum.iter_mut().zip(p).for_each(|(s, c)| *s += c);
                *count += 1;
            }
        }
    }
    let expected: Vec<CenterUpdate> = sums
        .into_iter()
        .map(|(id, (sum, count))| {
            let inv = 1.0 / count as f64;
            CenterUpdate {
                id,
                coords: sum.iter().map(|s| s * inv).collect(),
                count,
            }
        })
        .collect();

    let centers = Arc::new(center_set(&CENTERS));
    for (what, cluster) in clusters() {
        let spilling = cluster.out_of_core.spill_enabled;
        let runner = staged(&lines, cluster);
        let result = runner
            .run(&KMeansJob::new(Arc::clone(&centers)), "pts", &job_config())
            .expect("k-means job runs");
        let mut got = result.output;
        got.sort_by_key(|u| u.id);
        assert_eq!(got.len(), expected.len(), "{what}");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!((g.id, g.count), (e.id, e.count), "{what}");
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.coords), bits(&e.coords), "{what}: center {}", g.id);
        }
        check_counters(what, &result.counters, &want, spilling);
    }
}

#[test]
fn split_test_on_dirty_text_matches_a_per_line_reference() {
    let lines = dirty_file();
    let projectors: Vec<SegmentProjector> = CHILDREN
        .iter()
        .map(|(a, b)| SegmentProjector::new(a, b))
        .collect();
    let flat: Vec<f64> = PARENTS.concat();
    let ad = AndersonDarling::default();

    let want = reference(&lines, PARENTS.len());
    let mut samples: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for p in &want.points {
        let idx = nearest(p, &flat);
        samples
            .entry(idx as i64)
            .or_default()
            .push(projectors[idx].project(p));
    }
    let expected: Vec<TestOutcome> = samples
        .into_iter()
        .map(|(parent_id, mut sample)| {
            let n = sample.len() as u64;
            let (a2_star, decision) = match ad.test_in_place(&mut sample) {
                Ok(o) if o.is_normal(ad.alpha()) => (Some(o.a2_star), TestDecision::Normal),
                Ok(o) => (Some(o.a2_star), TestDecision::Split),
                Err(_) => (None, TestDecision::Normal),
            };
            TestOutcome {
                parent_id,
                n,
                a2_star,
                decision,
            }
        })
        .collect();
    assert_eq!(expected.len(), 2, "both parents receive points");

    let spec = SplitTestSpec::new(
        Arc::new(center_set(&PARENTS)),
        Arc::new(projectors.iter().cloned().map(Some).collect()),
        ad,
    );
    for (what, cluster) in clusters() {
        let spilling = cluster.out_of_core.spill_enabled;
        let runner = staged(&lines, cluster);
        let result = runner
            .run(&TestClustersJob::new(spec.clone()), "pts", &job_config())
            .expect("split test job runs");
        let mut got = result.output;
        got.sort_by_key(|o| o.parent_id);
        assert_eq!(got.len(), expected.len(), "{what}");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(
                (g.parent_id, g.n, g.decision),
                (e.parent_id, e.n, e.decision)
            );
            assert_eq!(
                g.a2_star.map(f64::to_bits),
                e.a2_star.map(f64::to_bits),
                "{what}: parent {}",
                g.parent_id
            );
        }
        check_counters(what, &result.counters, &want, spilling);
        assert_eq!(
            result.counters.get(Counter::Projections),
            want.points.len() as u64,
            "{what}"
        );
    }
}

/// Runs `job` over the dirty file twice on each cluster of
/// `clusters()`: as text, and through `run_cached` on a point cache of
/// the same file. Text blocks count lines while cached blocks count
/// points, so the two runs cut their blocks at different places; they
/// must still give the same output bits (compared through `Debug`,
/// which spells every distinct finite `f64` differently) and the same
/// distance count, and each must quarantine exactly the reference's
/// bad lines.
fn text_and_cache_agree<J>(job: &J)
where
    J: Job,
    J::Output: Debug,
{
    let lines = dirty_file();
    let want = reference(&lines, 0);
    let bad = &want.counters[1..3];
    for (what, cluster) in clusters() {
        let runner = staged(&lines, cluster);
        let text = runner.run(job, "pts", &job_config()).expect("text run");
        let cache = PointCache::build(runner.dfs(), "pts", DIM, gmr_mapreduce::text::parse_point)
            .expect("cache builds");
        assert_eq!(cache.len(), want.points.len(), "{what}: cached points");
        let cached = runner
            .run_cached(job, &cache, &job_config())
            .expect("cached run");
        let name = job.name();
        assert!(!text.output.is_empty(), "{what} {name}: no output");
        assert_eq!(
            format!("{:?}", text.output),
            format!("{:?}", cached.output),
            "{what} {name}: output bits"
        );
        let distances = |c: &Counters| c.get(Counter::DistanceComputations);
        assert!(distances(&text.counters) > 0, "{what} {name}");
        assert_eq!(
            distances(&text.counters),
            distances(&cached.counters),
            "{what} {name}: DistanceComputations"
        );
        for &(counter, value) in bad {
            assert_eq!(
                text.counters.get(counter),
                value,
                "{what} {name}: {counter:?}"
            );
        }
        assert_eq!(
            [cache.bad_records(), cache.bad_record_bytes()],
            [bad[0].1, bad[1].1],
            "{what} {name}: cached bad records"
        );
    }
}

#[test]
fn find_new_centers_reads_dirty_text_as_the_cache_does() {
    let centers = Arc::new(center_set(&CENTERS));
    text_and_cache_agree(&FindNewCentersJob::new(centers, 17));
}

#[test]
fn multi_kmeans_reads_dirty_text_as_the_cache_does() {
    let sets = (1..=CENTERS.len())
        .map(|k| center_set(&CENTERS[..k]))
        .collect();
    text_and_cache_agree(&MultiKMeansJob::new(Arc::new(sets)));
}

#[test]
fn mapper_side_split_test_reads_dirty_text_as_the_cache_does() {
    let projectors = CHILDREN
        .iter()
        .map(|(a, b)| Some(SegmentProjector::new(a, b)))
        .collect();
    let spec = SplitTestSpec::new(
        Arc::new(center_set(&PARENTS)),
        Arc::new(projectors),
        AndersonDarling::default(),
    );
    text_and_cache_agree(&TestFewClustersJob::new(spec));
}

#[test]
fn parallel_init_round_reads_dirty_text_as_the_cache_does() {
    let candidates = Arc::new(center_set(&CENTERS));
    text_and_cache_agree(&ParallelInitRound::new(candidates, Some(0.02), 23));
}
