//! Crash-recoverable drivers: a run killed by an injected driver crash
//! at *any* job boundary must, after [`MRGMeans::resume`], end in a
//! result bit-identical to the uninterrupted run — same centers (to the
//! bit), same counters, same simulated makespan — with the checkpoint
//! I/O itself visible in both.

use std::sync::Arc;

use gmeans::mr::driver::GMeansAlgo;
use gmeans::mr::kmeans_driver::KMeansAlgo;
use gmeans::mr::multi_kmeans::MultiKAlgo;
use gmeans::mr::parallel_init::ParInitAlgo;
use gmeans::mr::OFFSET;
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, Error, FaultPlan, JobRunner, RunJournal};
use gmr_mapreduce::writable::Writable;

const CKPT: &str = "ckpt/run";

/// A fresh DFS holding the same deterministic dataset every time.
fn staged_dfs() -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    GaussianMixture::paper_r10(1200, 3, 77)
        .generate_to_dfs(&dfs, "pts")
        .expect("write dataset");
    dfs
}

fn gmeans_on(dfs: &Arc<Dfs>, faults: FaultPlan) -> MRGMeans {
    let cluster = ClusterConfig::default().with_faults(faults);
    let runner = JobRunner::new(Arc::clone(dfs), cluster).expect("valid cluster");
    MRGMeans::new(runner, GMeansConfig::default()).with_checkpoints(CKPT)
}

/// A stormy-but-survivable fault plan (transients, stragglers) so the
/// bit-identity claim covers the retry machinery too.
fn stormy() -> FaultPlan {
    FaultPlan::hadoop_defaults(11)
        .with_transient_failures(0.05)
        .with_stragglers(0.05, 4.0)
}

/// Bitwise comparison of two result structs, wall-clock excluded.
fn assert_bit_identical(a: &MRGMeansResult, b: &MRGMeansResult, ctx: &str) {
    assert_eq!(a.k(), b.k(), "{ctx}: k");
    assert_eq!(a.iterations, b.iterations, "{ctx}: iterations");
    assert_eq!(a.jobs, b.jobs, "{ctx}: jobs");
    assert_eq!(a.dataset_reads, b.dataset_reads, "{ctx}: dataset reads");
    assert_eq!(a.counts, b.counts, "{ctx}: counts");
    assert!(a.failure.is_none() && b.failure.is_none(), "{ctx}: failure");
    assert_eq!(
        a.simulated_secs.to_bits(),
        b.simulated_secs.to_bits(),
        "{ctx}: simulated makespan ({} vs {})",
        a.simulated_secs,
        b.simulated_secs
    );
    for (ra, rb) in a.centers.rows().zip(b.centers.rows()) {
        let bits_a: Vec<u64> = ra.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = rb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{ctx}: center {ra:?} vs {rb:?}");
    }
    for &c in Counter::all() {
        assert_eq!(a.counters.get(c), b.counters.get(c), "{ctx}: counter {c:?}");
    }
    assert_eq!(a.reports.len(), b.reports.len(), "{ctx}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.iteration, rb.iteration, "{ctx}: report iteration");
        assert_eq!(ra.clusters_before, rb.clusters_before, "{ctx}");
        assert_eq!(ra.clusters_tested, rb.clusters_tested, "{ctx}");
        assert_eq!(ra.splits, rb.splits, "{ctx}");
        assert_eq!(ra.found_after, rb.found_after, "{ctx}");
        assert_eq!(ra.clusters_after, rb.clusters_after, "{ctx}");
        assert_eq!(ra.strategy, rb.strategy, "{ctx}");
        assert_eq!(ra.jobs, rb.jobs, "{ctx}");
        assert_eq!(ra.error, rb.error, "{ctx}");
        assert_eq!(
            ra.simulated_secs.to_bits(),
            rb.simulated_secs.to_bits(),
            "{ctx}: report simulated"
        );
        for (ca, cb) in ra.centers_after.rows().zip(rb.centers_after.rows()) {
            let bits_a: Vec<u64> = ca.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = cb.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "{ctx}: trajectory centers");
        }
    }
}

#[test]
fn gmeans_resumes_bit_identical_at_every_job_boundary() {
    // Uninterrupted, checkpointed reference: its makespan and counters
    // already include every checkpoint commit, so the resumed runs must
    // reproduce them exactly.
    let reference = gmeans_on(&staged_dfs(), stormy())
        .run("pts")
        .expect("reference run");
    assert!(
        reference.counters.get(Counter::CheckpointsCommitted) > 0,
        "checkpointed run must record its commits"
    );
    assert!(reference.counters.get(Counter::CheckpointBytes) > 0);
    assert!(reference.jobs >= 4, "need several boundaries to crash at");

    for boundary in 1..=reference.jobs as u64 {
        let dfs = staged_dfs();
        let err = gmeans_on(&dfs, stormy().with_driver_crash_after(boundary))
            .run("pts")
            .expect_err("driver must crash at the injected boundary");
        match err {
            Error::DriverCrash { boundary: b } => assert_eq!(b, boundary),
            other => panic!("expected DriverCrash, got {other:?}"),
        }
        // Resume on the same DFS (journal survives the crash), crashes
        // disabled, every other fault identical.
        let resumed = gmeans_on(&dfs, stormy().without_driver_crashes())
            .resume("pts")
            .expect("resume completes");
        assert_bit_identical(&reference, &resumed, &format!("boundary {boundary}"));
    }
}

#[test]
fn cached_mode_resume_rebuilds_the_point_cache() {
    // Spark-style execution pins the parsed dataset in memory; a
    // resumed driver must rebuild that cache (a physical re-read) while
    // the *logical* dataset-read count stays identical to the
    // uninterrupted run.
    let reference = gmeans_on(&staged_dfs(), FaultPlan::none())
        .with_execution_mode(ExecutionMode::Cached)
        .run("pts")
        .expect("reference run");

    let dfs = staged_dfs();
    let err = gmeans_on(&dfs, FaultPlan::none().with_driver_crash_after(3))
        .with_execution_mode(ExecutionMode::Cached)
        .run("pts")
        .expect_err("crash");
    assert!(matches!(err, Error::DriverCrash { boundary: 3 }));

    let resumed = gmeans_on(&dfs, FaultPlan::none())
        .with_execution_mode(ExecutionMode::Cached)
        .resume("pts")
        .expect("resume rebuilds the cache");
    assert_bit_identical(&reference, &resumed, "cached mode");
}

#[test]
fn resume_survives_a_torn_newest_checkpoint() {
    let reference = gmeans_on(&staged_dfs(), FaultPlan::none())
        .run("pts")
        .expect("reference run");

    let dfs = staged_dfs();
    let err = gmeans_on(&dfs, FaultPlan::none().with_driver_crash_after(4))
        .run("pts")
        .expect_err("crash");
    assert!(matches!(err, Error::DriverCrash { .. }));

    // Tear the newest committed checkpoint: recovery must fall back to
    // the next-newest intact snapshot and still converge bit-identical.
    let newest = dfs
        .list()
        .into_iter()
        .filter(|p| p.starts_with("ckpt/run/ckpt-"))
        .max()
        .expect("at least one checkpoint");
    let mut w = dfs.create(&newest, true).expect("overwrite checkpoint");
    w.write_line("GMRCKPT1 seq=999 len=64 crc=0000000000000000");
    w.write_line("deadbeef");
    w.close();

    let resumed = gmeans_on(&dfs, FaultPlan::none())
        .resume("pts")
        .expect("resume from older snapshot");
    assert_bit_identical(&reference, &resumed, "torn newest checkpoint");
}

#[test]
fn resume_with_empty_journal_is_a_fresh_run() {
    let reference = gmeans_on(&staged_dfs(), FaultPlan::none())
        .run("pts")
        .expect("reference");
    let resumed = gmeans_on(&staged_dfs(), FaultPlan::none())
        .resume("pts")
        .expect("resume with nothing journaled");
    assert_bit_identical(&reference, &resumed, "empty journal");
}

#[test]
fn resume_without_checkpoints_is_a_config_error() {
    let runner = JobRunner::new(staged_dfs(), ClusterConfig::default()).unwrap();
    let err = MRGMeans::new(runner, GMeansConfig::default())
        .resume("pts")
        .expect_err("no journal configured");
    assert!(matches!(err, Error::Config(_)), "{err:?}");
}

#[test]
fn kmeans_driver_resumes_bit_identical() {
    let reference = {
        let runner = JobRunner::new(staged_dfs(), ClusterConfig::default()).unwrap();
        MRKMeans::new(runner, 3, 6, 5)
            .with_checkpoints(CKPT)
            .run("pts")
            .expect("reference")
    };

    let dfs = staged_dfs();
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_driver_crash_after(3));
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let err = MRKMeans::new(runner, 3, 6, 5)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect_err("crash mid-sweep");
    assert!(matches!(err, Error::DriverCrash { boundary: 3 }));

    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let resumed = MRKMeans::new(runner, 3, 6, 5)
        .with_checkpoints(CKPT)
        .resume("pts")
        .expect("resume");

    assert_eq!(reference.counts, resumed.counts);
    assert_eq!(
        reference.simulated_secs.to_bits(),
        resumed.simulated_secs.to_bits()
    );
    for (a, b) in reference.centers.rows().zip(resumed.centers.rows()) {
        let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }
    for &c in Counter::all() {
        assert_eq!(reference.counters.get(c), resumed.counters.get(c), "{c:?}");
    }
}

#[test]
fn multi_kmeans_resumes_bit_identical() {
    let reference = {
        let runner = JobRunner::new(staged_dfs(), ClusterConfig::default()).unwrap();
        MultiKMeans::new(runner, 1, 4, 1, 5, 9)
            .with_checkpoints(CKPT)
            .run("pts")
            .expect("reference")
    };

    let dfs = staged_dfs();
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_driver_crash_after(2));
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let err = MultiKMeans::new(runner, 1, 4, 1, 5, 9)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect_err("crash mid-sweep");
    assert!(matches!(err, Error::DriverCrash { boundary: 2 }));

    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let resumed = MultiKMeans::new(runner, 1, 4, 1, 5, 9)
        .with_checkpoints(CKPT)
        .resume("pts")
        .expect("resume");

    assert_eq!(reference.models.len(), resumed.models.len());
    for (ma, mb) in reference.models.iter().zip(&resumed.models) {
        assert_eq!(ma.k, mb.k);
        assert_eq!(ma.counts, mb.counts);
        for (a, b) in ma.centers.rows().zip(mb.centers.rows()) {
            let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }
    assert_eq!(
        reference.simulated_secs.to_bits(),
        resumed.simulated_secs.to_bits()
    );
    for &c in Counter::all() {
        assert_eq!(reference.counters.get(c), resumed.counters.get(c), "{c:?}");
    }
}

#[test]
fn parallel_init_resumes_bit_identical() {
    let reference = {
        let runner = JobRunner::new(staged_dfs(), ClusterConfig::default()).unwrap();
        KMeansParallelInit::new(runner, 3, 13)
            .with_checkpoints(CKPT)
            .run("pts")
            .expect("reference")
    };

    let dfs = staged_dfs();
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_driver_crash_after(2));
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let err = KMeansParallelInit::new(runner, 3, 13)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect_err("crash mid-init");
    assert!(matches!(err, Error::DriverCrash { boundary: 2 }));

    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let resumed = KMeansParallelInit::new(runner, 3, 13)
        .with_checkpoints(CKPT)
        .resume("pts")
        .expect("resume");
    assert_eq!(reference, resumed, "k-means|| init must replay exactly");
}

#[test]
fn bad_records_are_quarantined_end_to_end() {
    // A dataset salted with everything a mapper might choke on: garbage
    // text, NaN/infinite coordinates, a wrong-dimension row, blanks.
    let dfs = Arc::new(Dfs::new(4 * 1024));
    let mut lines: Vec<String> = Vec::new();
    for i in 0..300 {
        let (x, y) = if i % 2 == 0 { (0.0, 0.0) } else { (40.0, 40.0) };
        lines.push(format!("{} {}", x + (i % 7) as f64 * 0.1, y));
        match i % 60 {
            0 => lines.push("definitely not a point".into()),
            1 => lines.push("nan 3.0".into()),
            2 => lines.push("1.0 inf".into()),
            3 => lines.push("1.0 2.0 3.0".into()),
            4 => lines.push(String::new()),
            _ => {}
        }
    }
    dfs.put_lines("dirty", lines).unwrap();
    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();

    // check_input reports a summary instead of dying on the first bad
    // line.
    let report = check_input(&runner, "dirty").expect("summary, not failure");
    assert_eq!(report.points, 300);
    assert_eq!(report.bad_records, 25);
    assert_eq!(report.lines, 325);
    assert_eq!(report.dim, 2);

    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("dirty")
        .expect("bad records must not kill the run");
    assert_eq!(r.counts.iter().sum::<u64>(), 300, "only real points count");
    assert!(r.counters.get(Counter::BadRecordsSkipped) > 0);
    assert!(r.counters.get(Counter::BadRecordBytes) > 0);
    for c in r.centers.rows() {
        assert!(c.iter().all(|v| v.is_finite()), "non-finite center {c:?}");
    }
}

// ---------------------------------------------------------------------
// The journal wire format: every payload byte the drivers commit is
// pinned, and resume answers state it could not run with a typed
// `Error::Corrupt` instead of a panic.
// ---------------------------------------------------------------------

fn runner_on(dfs: &Arc<Dfs>) -> JobRunner {
    JobRunner::new(Arc::clone(dfs), ClusterConfig::default()).expect("valid cluster")
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Every payload the journal at [`CKPT`] holds, by ascending sequence
/// number.
fn committed_payloads(dfs: &Arc<Dfs>) -> Vec<Vec<u8>> {
    let journal = RunJournal::new(Arc::clone(dfs), CKPT);
    journal
        .committed_seqs()
        .into_iter()
        .map(|seq| journal.load(seq).expect("load").expect("intact").payload)
        .collect()
}

#[test]
fn committed_payload_bytes_are_pinned() {
    // G-means and k-means‖ journal simulated quantities only: every
    // byte is reproducible, so every payload's hash is pinned.
    let dfs = staged_dfs();
    gmeans_on(&dfs, FaultPlan::none()).run("pts").expect("run");
    let hashes: Vec<u64> = committed_payloads(&dfs).iter().map(|p| fnv1a(p)).collect();
    assert_eq!(
        hashes,
        [0x8ebf79b55277654e, 0x81d80d36578152cd, 0x15d9ebcb556c6dbd],
        "G-means payloads"
    );

    let dfs = staged_dfs();
    KMeansParallelInit::new(runner_on(&dfs), 3, 13)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect("run");
    let hashes: Vec<u64> = committed_payloads(&dfs).iter().map(|p| fnv1a(p)).collect();
    assert_eq!(
        hashes,
        [
            0xcf59e2e65ca8758f,
            0x601912da0d051731,
            0x2d1e6dfb173cafbd,
            0xfa4fd6ba77ce37f0,
            0x098cb7d2adb7b0c8,
            0x1165502d55123045,
            0x61ecda771581a107,
        ],
        "k-means|| payloads"
    );

    // k-means and multi-k-means journal each job's real wall-clock
    // seconds, so only their payload lengths are reproducible.
    let dfs = staged_dfs();
    MRKMeans::new(runner_on(&dfs), 3, 6, 5)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect("run");
    let lens: Vec<usize> = committed_payloads(&dfs).iter().map(Vec::len).collect();
    assert_eq!(
        lens,
        [724, 884, 1044, 1204, 1364, 1524, 1684],
        "k-means payloads"
    );

    let dfs = staged_dfs();
    MultiKMeans::new(runner_on(&dfs), 1, 4, 1, 5, 9)
        .with_checkpoints(CKPT)
        .run("pts")
        .expect("run");
    let lens: Vec<usize> = committed_payloads(&dfs).iter().map(Vec::len).collect();
    assert_eq!(
        lens,
        [1452, 1668, 1884, 2100, 2316, 2532],
        "multi-k-means payloads"
    );
}

/// A checkpoint frame: the driver magic, zeroed run totals over a
/// counter bank of `counters` entries, then the driver state.
fn frame(magic: u32, counters: usize, state: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    magic.write(&mut buf);
    0u64.write(&mut buf); // jobs
    0u64.write(&mut buf); // dataset reads
    0f64.write(&mut buf); // simulated seconds
    vec![0u64; counters].write(&mut buf);
    buf.extend_from_slice(state);
    buf
}

/// A center set in R^`dim` with the given ids.
fn center_set(buf: &mut Vec<u8>, dim: u32, ids: &[i64]) {
    dim.write(buf);
    ids.to_vec().write(buf);
    vec![0.5f64; ids.len() * dim as usize].write(buf);
}

/// A k-means state at iteration 0 over 10-d centers with these ids.
fn kmeans_state(ids: &[i64]) -> Vec<u8> {
    let mut buf = Vec::new();
    0u64.write(&mut buf); // iteration
    center_set(&mut buf, 10, ids);
    vec![0u64; ids.len()].write(&mut buf); // counts
    0u32.write(&mut buf); // no job timings yet
    buf
}

/// A 10-d G-means state at iteration 0 with one unsplit parent (id 0)
/// whose children are given as `(id, coordinates)`, and this next id.
fn gmeans_state(children: &[(i64, usize)], next_id: i64) -> Vec<u8> {
    let mut buf = Vec::new();
    10u32.write(&mut buf); // dim
    next_id.write(&mut buf);
    0u64.write(&mut buf); // iteration
    1u32.write(&mut buf); // one parent:
    0i64.write(&mut buf); //   id
    vec![0.5f64; 10].write(&mut buf); //   center
    false.write(&mut buf); //   found
    0u64.write(&mut buf); //   count
    0u8.write(&mut buf); //   normal streak
    (children.len() as u32).write(&mut buf);
    for &(id, dim) in children {
        id.write(&mut buf);
        vec![0.5f64; dim].write(&mut buf);
    }
    0u32.write(&mut buf); // no iteration reports
    buf
}

/// A multi-k state at iteration 0: one 10-d center set per entry of
/// `sizes`, holding that many centers, and `rows` count rows.
fn multik_state(sizes: &[i64], rows: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    0u64.write(&mut buf); // iteration
    (sizes.len() as u32).write(&mut buf);
    for &k in sizes {
        center_set(&mut buf, 10, &(0..k).collect::<Vec<_>>());
    }
    let counts: Vec<Vec<u64>> = sizes.iter().map(|&k| vec![0; k as usize]).collect();
    counts[..rows].to_vec().write(&mut buf);
    0u32.write(&mut buf); // no job timings yet
    buf
}

/// A k-means‖ state after its cost-only round 0, about to sample, with
/// these candidate ids and this next id.
fn parinit_state(ids: &[i64], next_id: i64) -> Vec<u8> {
    let mut buf = Vec::new();
    1u64.write(&mut buf); // next round
    center_set(&mut buf, 10, ids);
    next_id.write(&mut buf);
    Some(5.0f64).write(&mut buf); // psi
    false.write(&mut buf); // done sampling
    buf
}

type Resume = fn(JobRunner) -> gmr_mapreduce::Result<()>;

fn resume_gmeans(runner: JobRunner) -> gmr_mapreduce::Result<()> {
    MRGMeans::new(runner, GMeansConfig::default())
        .with_checkpoints(CKPT)
        .resume("pts")
        .map(drop)
}

fn resume_kmeans(runner: JobRunner) -> gmr_mapreduce::Result<()> {
    MRKMeans::new(runner, 3, 6, 5)
        .with_checkpoints(CKPT)
        .resume("pts")
        .map(drop)
}

fn resume_multik(runner: JobRunner) -> gmr_mapreduce::Result<()> {
    MultiKMeans::new(runner, 1, 4, 1, 5, 9)
        .with_checkpoints(CKPT)
        .resume("pts")
        .map(drop)
}

fn resume_parinit(runner: JobRunner) -> gmr_mapreduce::Result<()> {
    KMeansParallelInit::new(runner, 3, 13)
        .with_checkpoints(CKPT)
        .resume("pts")
        .map(drop)
}

/// Commits `payload` (with a valid checksum) as the journal's only
/// checkpoint and resumes from it.
fn resume_from(payload: &[u8], resume: Resume) -> gmr_mapreduce::Result<()> {
    let dfs = staged_dfs();
    RunJournal::new(Arc::clone(&dfs), CKPT)
        .commit(0, payload)
        .expect("commit");
    resume(runner_on(&dfs))
}

#[test]
fn resume_rejects_unrunnable_state_as_corrupt() {
    let counters = Counter::all().len();
    let gm = GMeansAlgo::MAGIC;
    let km = KMeansAlgo::MAGIC;
    let mk = MultiKAlgo::MAGIC;
    let pi = ParInitAlgo::MAGIC;

    // Controls: the hand-built frames are well-formed, so every
    // rejection below is the state's fault, not the framing's.
    let valid: [(&str, Vec<u8>, Resume); 4] = [
        (
            "G-means",
            frame(gm, counters, &gmeans_state(&[(1, 10), (2, 10)], 3)),
            resume_gmeans,
        ),
        (
            "k-means",
            frame(km, counters, &kmeans_state(&[0, 1, 2])),
            resume_kmeans,
        ),
        (
            "multi-k",
            frame(mk, counters, &multik_state(&[1, 2, 3, 4], 4)),
            resume_multik,
        ),
        (
            "k-means||",
            frame(pi, counters, &parinit_state(&[0], 1)),
            resume_parinit,
        ),
    ];
    for (case, payload, resume) in valid {
        if let Err(e) = resume_from(&payload, resume) {
            panic!("{case}: a valid state must resume, got {e:?}");
        }
    }

    let corrupt: [(&str, Vec<u8>, Resume); 10] = [
        (
            "k-means: duplicate center id",
            frame(km, counters, &kmeans_state(&[0, 1, 1])),
            resume_kmeans,
        ),
        (
            "k-means: center id at OFFSET",
            frame(km, counters, &kmeans_state(&[0, 1, OFFSET])),
            resume_kmeans,
        ),
        (
            "G-means: a 3-d child in a 10-d state",
            frame(gm, counters, &gmeans_state(&[(1, 10), (2, 3)], 3)),
            resume_gmeans,
        ),
        (
            "G-means: an unsplit parent with one child",
            frame(gm, counters, &gmeans_state(&[(1, 10)], 3)),
            resume_gmeans,
        ),
        (
            "multi-k: an empty center set",
            frame(mk, counters, &multik_state(&[1, 0, 3, 4], 4)),
            resume_multik,
        ),
        (
            "k-means||: no candidates mid-sampling",
            frame(pi, counters, &parinit_state(&[], 0)),
            resume_parinit,
        ),
        (
            "G-means: a counter bank one entry short",
            frame(gm, counters - 1, &gmeans_state(&[(1, 10), (2, 10)], 3)),
            resume_gmeans,
        ),
        (
            "G-means: a next id that is already a child's",
            frame(gm, counters, &gmeans_state(&[(1, 10), (2, 10)], 2)),
            resume_gmeans,
        ),
        (
            "multi-k: three count rows for four sets",
            frame(mk, counters, &multik_state(&[1, 2, 3, 4], 3)),
            resume_multik,
        ),
        (
            "k-means||: a next id that is already a candidate's",
            frame(pi, counters, &parinit_state(&[0], 0)),
            resume_parinit,
        ),
    ];
    for (case, payload, resume) in corrupt {
        match resume_from(&payload, resume) {
            Err(Error::Corrupt(_)) => {}
            other => panic!("{case}: expected Error::Corrupt, got {other:?}"),
        }
    }
}
