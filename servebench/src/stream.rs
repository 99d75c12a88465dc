//! The seeded job streams: every request the daemon receives is built
//! here from the workload seed, with the public `Sweep` / `AdaptiveSweep`
//! builders. The client and the replay both put it on the wire with
//! `Request::render`.

use dva_memory::MemoryModelKind;
use dva_serve::proto::Request;
use dva_sim_api::{AdaptiveSweep, Machine, Sweep};
use dva_workloads::{Benchmark, Scale};

/// SplitMix64: a small, well-mixed generator, so the same seed gives the
/// same job stream on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FD0_A5E7_E5A5)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `items`, kept in their original order.
    fn choose<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut positions: Vec<usize> = (0..items.len()).collect();
        self.shuffle(&mut positions);
        positions.truncate(k);
        positions.sort_unstable();
        positions.into_iter().map(|i| items[i]).collect()
    }
}

/// The benchmark's workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    WarmRestart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_sweep" => Some(Workload::ColdSweep),
            "warm_restart" => Some(Workload::WarmRestart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmRestart => "warm_restart",
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::ColdSweep => Scale::Default,
            Workload::WarmRestart => Scale::Quick,
        }
    }

    /// Stream jobs (after the set-up job) over which the deterministic
    /// counts are taken. A fixed prefix of the stream, not the jobs that
    /// happened to fit in the timed window, so the counts repeat exactly
    /// for a fixed seed. Each prefix is a small share of what one window
    /// completes.
    pub fn counted_jobs(self) -> usize {
        match self {
            Workload::ColdSweep => 12,
            Workload::WarmRestart => 60,
        }
    }
}

/// One request of the stream.
#[derive(Clone)]
pub enum JobSpec {
    Sweep(Sweep),
    Adaptive(AdaptiveSweep),
}

#[derive(Clone)]
pub struct Job {
    /// 0 is the workload's set-up job; the stream proper starts at 1.
    pub id: usize,
    pub spec: JobSpec,
    /// The programs the job names, in its program-axis order.
    pub benchmarks: Vec<Benchmark>,
}

impl Job {
    fn new(id: usize, spec: JobSpec, benchmarks: Vec<Benchmark>) -> Job {
        Job {
            id,
            spec,
            benchmarks,
        }
    }

    /// The job as a request, without a deadline.
    pub fn request(&self) -> Request {
        match &self.spec {
            JobSpec::Sweep(sweep) => Request::Sweep {
                spec: Box::new(sweep.clone()),
                deadline_ms: None,
            },
            JobSpec::Adaptive(adaptive) => Request::Adaptive {
                spec: Box::new(adaptive.clone()),
                deadline_ms: None,
            },
        }
    }
}

/// Latency of the cold-sweep warm-up job; the stream's latencies start
/// above it, so the warm-up shares no point with the stream.
const WARMUP_LATENCY: u64 = 1;
/// Distinct stream latencies drawn (shuffled) before falling back to
/// fresh values above the pool.
const COLD_LATENCY_POOL: u64 = 2000;
/// The warm-restart fill grid's latency axis: `1..=FILL_LATENCIES`.
const FILL_LATENCIES: u64 = 84;
/// Every `ADAPTIVE_EVERY`-th `warm_restart` job is adaptive. A fixed
/// pattern keeps the mix of the two job kinds, and with it the job-time
/// distribution, the same for every seed and every stretch of the window.
pub const ADAPTIVE_EVERY: usize = 4;
/// Each adaptive job refines a seeded 32-point slice of the fill grid's
/// latency axis.
const ADAPTIVE_SLICE: usize = 32;

fn banked(banks: u32, bank_busy: u64) -> MemoryModelKind {
    MemoryModelKind::Banked { banks, bank_busy }
}

fn multiport(ports: u32) -> MemoryModelKind {
    MemoryModelKind::MultiPort { ports }
}

fn sweep_over(
    machines: &[Machine],
    benchmarks: &[Benchmark],
    latencies: &[u64],
    memories: &[MemoryModelKind],
    scale: Scale,
) -> Sweep {
    Sweep::new()
        .machines(machines.iter().copied())
        .benchmarks(benchmarks.iter().copied())
        .latencies(latencies.iter().copied())
        .memory_models(memories.iter().copied())
        .scale(scale)
        .threads(1)
}

/// The fill grid of `warm_restart`: every machine family, every program,
/// three backends, 84 latencies. 4542 distinct cache keys (IDEAL ignores
/// latency and memory), more than the 4096-entry memory tier.
fn fill_sweep() -> (Sweep, Vec<Benchmark>) {
    let latencies: Vec<u64> = (1..=FILL_LATENCIES).collect();
    let sweep = sweep_over(
        &fill_machines(),
        &Benchmark::ALL,
        &latencies,
        &fill_memories(),
        Scale::Quick,
    );
    (sweep, Benchmark::ALL.to_vec())
}

fn fill_machines() -> [Machine; 4] {
    [
        Machine::reference(1),
        Machine::dva(1),
        Machine::byp(1, 4, 8),
        Machine::ideal(),
    ]
}

fn fill_memories() -> [MemoryModelKind; 3] {
    [MemoryModelKind::Flat, banked(8, 8), multiport(2)]
}

/// The job stream of one workload and seed. Job `n` depends only on the
/// seed and on jobs `1..n`, never on timing, so every run with the same
/// seed sends the same requests in the same order.
pub struct JobStream {
    workload: Workload,
    rng: Rng,
    next_id: usize,
    cold_latencies: Vec<u64>,
}

impl JobStream {
    pub fn new(workload: Workload, seed: u64) -> JobStream {
        let mut rng = Rng::new(seed);
        let mut cold_latencies: Vec<u64> = (WARMUP_LATENCY + 1..=COLD_LATENCY_POOL).collect();
        rng.shuffle(&mut cold_latencies);
        JobStream {
            workload,
            rng,
            next_id: 1,
            cold_latencies,
        }
    }

    /// The set-up job (id 0): the cold-sweep warm-up the daemon runs
    /// before the timed window, or the warm-restart fill the benchmark
    /// runs in-process.
    pub fn setup_job(&self) -> Job {
        match self.workload {
            Workload::ColdSweep => {
                let sweep = sweep_over(
                    &fill_machines(),
                    &Benchmark::ALL,
                    &[WARMUP_LATENCY],
                    &[MemoryModelKind::Flat],
                    Scale::Default,
                );
                Job::new(0, JobSpec::Sweep(sweep), Benchmark::ALL.to_vec())
            }
            Workload::WarmRestart => {
                let (sweep, benchmarks) = fill_sweep();
                Job::new(0, JobSpec::Sweep(sweep), benchmarks)
            }
        }
    }

    pub fn next_job(&mut self) -> Job {
        let id = self.next_id;
        self.next_id += 1;
        match self.workload {
            Workload::ColdSweep => self.cold_job(id),
            Workload::WarmRestart if id.is_multiple_of(ADAPTIVE_EVERY) => self.adaptive_job(id),
            Workload::WarmRestart => self.warm_job(id),
        }
    }

    /// REF, DVA and a seeded BYP over all six programs, three seeded
    /// backends and one latency no other job of the run uses: 54 misses.
    fn cold_job(&mut self, id: usize) -> Job {
        let latency = self
            .cold_latencies
            .get(id - 1)
            .copied()
            .unwrap_or(COLD_LATENCY_POOL + id as u64);
        let rng = &mut self.rng;
        let machines = [
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, rng.pick(&[2, 4, 8, 16, 32]), rng.pick(&[4, 8, 16])),
        ];
        let memories = [
            MemoryModelKind::Flat,
            banked(rng.pick(&[4, 8, 16]), rng.pick(&[2, 4, 8])),
            multiport(rng.pick(&[2, 3, 4])),
        ];
        let sweep = sweep_over(
            &machines,
            &Benchmark::ALL,
            &[latency],
            &memories,
            Scale::Default,
        );
        Job::new(id, JobSpec::Sweep(sweep), Benchmark::ALL.to_vec())
    }

    /// A fixed-shape sub-grid of the fill grid (3 machines × 4 programs ×
    /// 10 latencies × 2 backends = 240 points): all hits. Jobs this size
    /// keep a window to hundreds of jobs, so `job_ms_tail` is not a
    /// handful of scheduling stalls.
    fn warm_job(&mut self, id: usize) -> Job {
        let rng = &mut self.rng;
        let latencies: Vec<u64> = (1..=FILL_LATENCIES).collect();
        let machines = rng.choose(&fill_machines(), 3);
        let benchmarks = rng.choose(&Benchmark::ALL, 4);
        let latencies = rng.choose(&latencies, 10);
        let memories = rng.choose(&fill_memories(), 2);
        let sweep = sweep_over(&machines, &benchmarks, &latencies, &memories, Scale::Quick);
        Job::new(id, JobSpec::Sweep(sweep), benchmarks)
    }

    /// An adaptive job in the style of `fig5_adaptive` over the fill
    /// grid: its four machines × three seeded programs × one seeded
    /// backend, refining a seeded 32-point slice of latencies 1–84, with
    /// seeded seeds, tolerance and pruning targets. Every point it samples
    /// is in the filled cache, so it is all hits and the planner, key,
    /// cache, JSON and socket are its whole cost.
    fn adaptive_job(&mut self, id: usize) -> Job {
        let rng = &mut self.rng;
        let start = 1 + rng.below(FILL_LATENCIES as usize - ADAPTIVE_SLICE + 1) as u64;
        let machines = fill_machines();
        let benchmarks = rng.choose(&Benchmark::ALL, 3);
        let memory = rng.pick(&fill_memories());
        let template = sweep_over(&machines, &benchmarks, &[], &[memory], Scale::Quick);
        let axis = start..start + ADAPTIVE_SLICE as u64;
        let mut adaptive = AdaptiveSweep::over(template, axis)
            .seeds(rng.pick(&[3, 4, 5]))
            .tolerance(rng.pick(&[0.005, 0.01, 0.02]));
        match rng.below(3) {
            0 => {}
            1 => {
                adaptive = adaptive
                    .prune_against("DVA", [machines[2].label()])
                    .margin(rng.pick(&[0.0, 0.02]));
            }
            _ => {
                adaptive = adaptive
                    .prune_against("REF", ["DVA".to_string(), machines[2].label()])
                    .margin(rng.pick(&[0.0, 0.02]));
            }
        }
        Job::new(id, JobSpec::Adaptive(adaptive), benchmarks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_serve::{PointKey, DEFAULT_MEMORY_CAPACITY};
    use dva_sim_api::PointSpec;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in [Workload::ColdSweep, Workload::WarmRestart] {
            let lines = |seed| {
                let mut stream = JobStream::new(workload, seed);
                (0..20)
                    .map(|_| stream.next_job().request().render().unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(lines(7), lines(7));
            assert_ne!(lines(7), lines(8));
        }
    }

    fn fill_keys() -> HashSet<String> {
        let (sweep, _) = fill_sweep();
        sweep.grid().iter().map(key).collect()
    }

    fn key(spec: &PointSpec) -> String {
        PointKey::of(spec, true).unwrap().as_str().to_string()
    }

    #[test]
    fn fill_grid_outgrows_the_memory_tier() {
        let keys = fill_keys();
        assert_eq!(keys.len(), 4542);
        assert!(keys.len() > DEFAULT_MEMORY_CAPACITY);
    }

    #[test]
    fn warm_jobs_of_both_kinds_stay_inside_the_fill_grid() {
        let keys = fill_keys();
        let mut stream = JobStream::new(Workload::WarmRestart, 3);
        for _ in 0..2 * ADAPTIVE_EVERY {
            let grid = match stream.next_job().spec {
                JobSpec::Sweep(sweep) => sweep.grid(),
                JobSpec::Adaptive(adaptive) => adaptive.dense().grid(),
            };
            assert!(grid.iter().all(|spec| keys.contains(&key(spec))));
        }
    }
}
