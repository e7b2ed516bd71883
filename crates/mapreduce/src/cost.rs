//! Simulated cost model and wave scheduler.
//!
//! The paper reports wall-clock times from a 4-node Hadoop cluster. This
//! reproduction cannot match those absolute numbers (different hardware,
//! different engine), so "Time" columns are regenerated from a
//! *simulated makespan*: every task accumulates a cost (bytes read,
//! bytes shuffled, generic compute units charged by the application),
//! the model converts the cost into simulated seconds, and a greedy
//! scheduler packs the tasks onto the cluster's slots, exactly as
//! Hadoop's scheduler would run them in waves.
//!
//! The constants below are order-of-magnitude calibrations for one
//! commodity-Xeon core (the paper's nodes): ~50 MB/s of input scan,
//! ~25 MB/s of shuffle, ~2·10⁸ fused multiply-adds per second, and a
//! fixed per-job overhead for JVM/job setup — the term that makes
//! G-means' `O(log₂ k)` chained jobs visible in the totals, as in the
//! paper. Every experiment asserts *relations* between simulated times
//! (linearity, speedup shape, crossovers), never absolute values.

use crate::error::Result;
use crate::writable::Writable;

/// Converts task work into simulated seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed overhead per MapReduce job (job setup, scheduling, commit).
    pub job_setup_secs: f64,
    /// Fixed overhead per task attempt (process/JVM reuse cost).
    pub task_setup_secs: f64,
    /// Seconds per byte of DFS input scanned and parsed by a mapper.
    pub secs_per_input_byte: f64,
    /// Seconds per serialized shuffle byte (written by the map side and
    /// read by the reduce side; charged once on each side).
    pub secs_per_shuffle_byte: f64,
    /// Seconds per generic compute unit. Applications charge units
    /// through [`crate::job::TaskContext::charge_compute`]; one unit is
    /// roughly one fused multiply-add (a distance computation over `d`
    /// dimensions charges `d` units).
    pub secs_per_compute_unit: f64,
    /// Seconds per point scanned from an in-memory
    /// [`crate::cache::PointCache`] (Spark-style cached execution): the
    /// memory-bandwidth analogue of `secs_per_input_byte`, roughly 20M
    /// decoded points per second per slot.
    pub secs_per_cached_point: f64,
    /// Seconds per byte of checkpoint state written to the run journal
    /// by the driver (serialized, replicated DFS write — same rate as
    /// the shuffle path).
    pub secs_per_checkpoint_byte: f64,
    /// Seconds before the JobTracker declares a silent node dead and
    /// reschedules its work. Hadoop 1.x defaults to 600 s
    /// (`mapred.tasktracker.expiry.interval`); the simulation uses 30 s
    /// so node loss is visible but does not dwarf the scaled-down job
    /// times (see DESIGN.md §14).
    pub heartbeat_timeout_secs: f64,
    /// Seconds per byte of spill-file disk traffic (sorted run writes
    /// plus merge-pass reads — local sequential disk, ~100 MB/s).
    pub secs_per_spill_byte: f64,
    /// Seconds per raw byte fed through the spill/DFS block compressor
    /// (~400 MB/s, the LZ-family compression rate).
    pub secs_per_compress_byte: f64,
    /// Seconds per raw byte produced by the decompressor (~800 MB/s —
    /// decompression is roughly twice as fast as compression).
    pub secs_per_decompress_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            job_setup_secs: 6.0,
            task_setup_secs: 0.5,
            secs_per_input_byte: 1.0 / 50e6,
            secs_per_shuffle_byte: 1.0 / 25e6,
            secs_per_compute_unit: 1.0 / 2e8,
            secs_per_cached_point: 1.0 / 20e6,
            secs_per_checkpoint_byte: 1.0 / 25e6,
            heartbeat_timeout_secs: 30.0,
            secs_per_spill_byte: 1.0 / 100e6,
            secs_per_compress_byte: 1.0 / 400e6,
            secs_per_decompress_byte: 1.0 / 800e6,
        }
    }
}

impl CostModel {
    /// Simulated driver-side cost of committing one checkpoint of
    /// `bytes` serialized state to the journal.
    pub fn checkpoint_secs(&self, bytes: u64) -> f64 {
        bytes as f64 * self.secs_per_checkpoint_byte
    }
}

/// Work accumulated by one task attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskCost {
    /// Bytes of DFS input consumed (map tasks).
    pub input_bytes: u64,
    /// Points scanned from an in-memory cache (cached map tasks).
    pub cached_points: u64,
    /// Serialized shuffle bytes produced (map side, post-combine).
    pub shuffle_bytes_out: u64,
    /// Serialized shuffle bytes consumed (reduce side).
    pub shuffle_bytes_in: u64,
    /// Application compute units charged.
    pub compute_units: f64,
    /// Spill-file bytes moved to or from local disk (stored, i.e.
    /// post-compression, sizes — what actually hits the platters).
    pub spill_io_bytes: u64,
    /// Raw bytes fed through the block compressor.
    pub compressed_bytes: u64,
    /// Raw bytes produced by the block decompressor.
    pub decompressed_bytes: u64,
}

impl TaskCost {
    /// Simulated duration of this task under `model`.
    pub fn duration(&self, model: &CostModel) -> f64 {
        model.task_setup_secs
            + self.input_bytes as f64 * model.secs_per_input_byte
            + self.cached_points as f64 * model.secs_per_cached_point
            + (self.shuffle_bytes_out + self.shuffle_bytes_in) as f64 * model.secs_per_shuffle_byte
            + self.compute_units * model.secs_per_compute_unit
            + self.spill_io_bytes as f64 * model.secs_per_spill_byte
            + self.compressed_bytes as f64 * model.secs_per_compress_byte
            + self.decompressed_bytes as f64 * model.secs_per_decompress_byte
    }

    /// Folds another task's cost in (used for run-level aggregation).
    pub fn merge(&mut self, other: &TaskCost) {
        self.input_bytes += other.input_bytes;
        self.cached_points += other.cached_points;
        self.shuffle_bytes_out += other.shuffle_bytes_out;
        self.shuffle_bytes_in += other.shuffle_bytes_in;
        self.compute_units += other.compute_units;
        self.spill_io_bytes += other.spill_io_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.decompressed_bytes += other.decompressed_bytes;
    }
}

/// Packs task durations onto `slots` parallel slots with the greedy
/// longest-processing-time heuristic and returns the makespan.
///
/// Returns `0.0` for no tasks. With one slot this degenerates to the
/// sum; with at least as many slots as tasks, to the maximum.
pub fn makespan(durations: &[f64], slots: usize) -> f64 {
    assert!(slots > 0, "need at least one slot");
    if durations.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = durations.to_vec();
    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite durations"));
    let mut loads = vec![0.0f64; slots.min(sorted.len())];
    for d in sorted {
        // Assign to the least-loaded slot.
        let min = loads
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite load"))
            .expect("nonempty loads");
        *min += d;
    }
    loads.into_iter().fold(0.0, f64::max)
}

/// Deterministic exponential backoff for shuffle-fetch retries: flaked
/// try `try_no` waits `base · 2^min(try_no, 16) · (1 + jitter01)`
/// simulated seconds. The exponent is capped so a pathological retry
/// budget cannot blow up the double; `jitter01` in `[0, 1)`
/// decorrelates reducers hammering the same map output (the fault
/// plan's salt-15 draw).
pub fn fetch_backoff_secs(base: f64, try_no: u32, jitter01: f64) -> f64 {
    base * (1u64 << try_no.min(16)) as f64 * (1.0 + jitter01)
}

/// Simulated timing of one executed job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobTiming {
    /// Simulated duration of each map task.
    pub map_durations: Vec<f64>,
    /// Simulated duration of each reduce task.
    pub reduce_durations: Vec<f64>,
    /// Total simulated job time: setup + map wave(s) + reduce wave(s).
    pub simulated_secs: f64,
    /// Real wall-clock the threaded runtime took.
    pub wall_secs: f64,
}

impl JobTiming {
    /// Computes the simulated job time from task durations and cluster
    /// capacity. The reduce phase starts after the last map task (no
    /// early shuffle overlap — conservative, like a barrier).
    pub fn compute(
        model: &CostModel,
        map_durations: Vec<f64>,
        reduce_durations: Vec<f64>,
        map_slots: usize,
        reduce_slots: usize,
        wall_secs: f64,
    ) -> Self {
        let simulated_secs = model.job_setup_secs
            + makespan(&map_durations, map_slots)
            + makespan(&reduce_durations, reduce_slots);
        Self {
            map_durations,
            reduce_durations,
            simulated_secs,
            wall_secs,
        }
    }
}

/// Journal wire form: the map and reduce durations, then the simulated
/// and wall-clock seconds.
impl Writable for JobTiming {
    fn write(&self, buf: &mut Vec<u8>) {
        self.map_durations.write(buf);
        self.reduce_durations.write(buf);
        self.simulated_secs.write(buf);
        self.wall_secs.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            map_durations: Vec::read(buf)?,
            reduce_durations: Vec::read(buf)?,
            simulated_secs: f64::read(buf)?,
            wall_secs: f64::read(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn makespan_single_slot_is_sum() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_empty_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn fetch_backoff_doubles_per_try_and_caps_the_exponent() {
        assert_eq!(fetch_backoff_secs(1.0, 0, 0.0), 1.0);
        assert_eq!(fetch_backoff_secs(1.0, 3, 0.0), 8.0);
        assert_eq!(fetch_backoff_secs(0.5, 2, 1.0), 4.0);
        // Exponent cap: absurd try numbers stay finite.
        assert_eq!(fetch_backoff_secs(1.0, 999, 0.0), 65536.0);
        assert_eq!(fetch_backoff_secs(0.0, 5, 0.5), 0.0);
    }

    #[test]
    fn makespan_packs_waves() {
        // 4 equal tasks on 2 slots: two waves.
        let d = [1.0; 4];
        assert!((makespan(&d, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn task_cost_duration_components() {
        let model = CostModel {
            job_setup_secs: 0.0,
            task_setup_secs: 1.0,
            secs_per_input_byte: 0.1,
            secs_per_shuffle_byte: 0.01,
            secs_per_compute_unit: 0.001,
            secs_per_cached_point: 0.5,
            secs_per_checkpoint_byte: 0.0,
            heartbeat_timeout_secs: 30.0,
            secs_per_spill_byte: 0.002,
            secs_per_compress_byte: 0.0001,
            secs_per_decompress_byte: 0.00005,
        };
        let cost = TaskCost {
            input_bytes: 10,
            cached_points: 2,
            shuffle_bytes_out: 100,
            shuffle_bytes_in: 100,
            compute_units: 1000.0,
            spill_io_bytes: 500,
            compressed_bytes: 10_000,
            decompressed_bytes: 20_000,
        };
        // 1 + 1 + 1 + 2 + 1 + 1 + 1 + 1
        assert!((cost.duration(&model) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn job_timing_adds_setup_and_phases() {
        let model = CostModel {
            job_setup_secs: 5.0,
            ..CostModel::default()
        };
        let t = JobTiming::compute(&model, vec![2.0, 2.0], vec![1.0], 1, 1, 0.1);
        assert!((t.simulated_secs - (5.0 + 4.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TaskCost {
            input_bytes: 1,
            cached_points: 5,
            shuffle_bytes_out: 2,
            shuffle_bytes_in: 3,
            compute_units: 4.0,
            spill_io_bytes: 6,
            compressed_bytes: 7,
            decompressed_bytes: 8,
        };
        a.merge(&TaskCost {
            input_bytes: 10,
            cached_points: 50,
            shuffle_bytes_out: 20,
            shuffle_bytes_in: 30,
            compute_units: 40.0,
            spill_io_bytes: 60,
            compressed_bytes: 70,
            decompressed_bytes: 80,
        });
        assert_eq!(a.input_bytes, 11);
        assert_eq!(a.cached_points, 55);
        assert_eq!(a.shuffle_bytes_out, 22);
        assert_eq!(a.shuffle_bytes_in, 33);
        assert!((a.compute_units - 44.0).abs() < 1e-12);
        assert_eq!(a.spill_io_bytes, 66);
        assert_eq!(a.compressed_bytes, 77);
        assert_eq!(a.decompressed_bytes, 88);
    }

    proptest! {
        /// Lower bounds of any schedule: max task and total/slots.
        #[test]
        fn makespan_respects_lower_bounds(
            d in proptest::collection::vec(0.0..100.0f64, 1..50),
            slots in 1usize..16,
        ) {
            let m = makespan(&d, slots);
            let total: f64 = d.iter().sum();
            let max = d.iter().fold(0.0f64, |a, &b| a.max(b));
            prop_assert!(m >= max - 1e-9);
            prop_assert!(m >= total / slots as f64 - 1e-9);
            // LPT is within 4/3 of optimal, and optimal ≤ total.
            prop_assert!(m <= total + 1e-9);
        }

        /// More slots never increase the makespan.
        #[test]
        fn makespan_monotone_in_slots(
            d in proptest::collection::vec(0.0..100.0f64, 1..40),
            slots in 1usize..8,
        ) {
            prop_assert!(makespan(&d, slots + 1) <= makespan(&d, slots) + 1e-9);
        }
    }
}
