//! The in-process replay: the same seeded jobs, pushed through each
//! layer's public functions in the order the daemon calls them, with a
//! span around every call. Its results are the reference the streamed
//! points are checked against, and its counts repeat exactly for a
//! fixed seed.

use crate::daemon::{JobRecord, Observed, Outcome};
use crate::stream::{Job, Workload};
use crate::trace::Tracer;
use dva_memory::MemoryModelKind;
use dva_serve::proto::{Request, Response};
use dva_serve::{AdaptiveSummary, JobSummary, PointKey, ResultCache, DEFAULT_MEMORY_CAPACITY};
use dva_sim_api::{Machine, PointSpec, PreparedProgram, Runners, SimResult, SweepPoint};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Which tier answered a lookup.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Miss,
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Memory => "memory",
            Tier::Disk => "disk",
            Tier::Miss => "miss",
        }
    }
}

/// A key-only copy of the result cache's LRU bookkeeping, so a lookup can
/// be attributed to the tier that answered it. It follows the cache's
/// documented policy: every `get` and `store` ticks one clock, a hit
/// refreshes the entry's stamp, a disk hit is promoted into the memory
/// tier, and the oldest stamp is evicted past capacity.
struct Shadow {
    stamps: HashMap<PointKey, u64>,
    order: BTreeMap<u64, PointKey>,
    clock: u64,
    capacity: usize,
}

impl Shadow {
    fn new(capacity: usize) -> Shadow {
        Shadow {
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            capacity: capacity.max(1),
        }
    }

    fn get(&mut self, key: &PointKey, hit: bool) -> Tier {
        self.clock += 1;
        if self.stamps.contains_key(key) {
            assert!(hit, "the result cache missed a key its LRU should hold");
            self.touch(key.clone());
            Tier::Memory
        } else if hit {
            self.touch(key.clone());
            Tier::Disk
        } else {
            Tier::Miss
        }
    }

    /// Panics if the copy and the cache hold different numbers of
    /// results in memory: the cache's policy has changed, and the tier
    /// labels would be wrong.
    fn agrees_with(&self, cache: &ResultCache) {
        assert_eq!(
            self.stamps.len(),
            cache.memory_len(),
            "the replay's copy of the LRU policy no longer matches ResultCache"
        );
    }

    fn store(&mut self, key: PointKey) {
        self.clock += 1;
        self.touch(key);
    }

    fn touch(&mut self, key: PointKey) {
        if let Some(old) = self.stamps.insert(key.clone(), self.clock) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key);
        while self.stamps.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("non-empty past capacity");
            self.stamps.remove(&oldest);
        }
    }
}

/// Work counts that depend only on the seed: taken over a fixed prefix
/// of the stream (see [`Workload::counted_jobs`]).
#[derive(Default)]
pub struct Counts {
    /// Engine ticks per machine family, over every simulation of the
    /// set-up job and the counted stream jobs.
    pub ticks: BTreeMap<&'static str, u64>,
    /// Simulated cycles of the timed machines (for ticks per cycle).
    pub cycles: u64,
    /// The rest cover the counted stream jobs only.
    pub jobs: u64,
    pub simulations: u64,
    pub lookups: u64,
    pub hits: u64,
    pub point_lines: u64,
    pub point_bytes: u64,
    pub adaptive_jobs: u64,
    pub rounds: u64,
    pub sampled: u64,
    pub dense: u64,
    /// Entries the replay's cache held when it was opened.
    pub cache_entries: u64,
}

/// What the daemon should have sent for one job.
pub enum Expected {
    Sweep(JobSummary),
    Adaptive(AdaptiveSummary),
}

pub struct Replayed {
    /// (index on the wire, point) in stream order.
    pub points: Vec<(usize, SweepPoint)>,
    pub expected: Expected,
    /// Points whose `point` line did not decode to the point encoded.
    pub round_trip_failures: u64,
    pub simulation_failures: Vec<String>,
    /// Instructions of the points this job simulated.
    pub simulated_insts: u64,
    pub job_ns: u64,
}

/// The machine family and backend an engine span is labelled with.
fn engine_label(machine: &Machine, memory: MemoryModelKind) -> &'static str {
    const LABELS: [[&str; 3]; 3] = [
        ["ref/flat", "ref/banked", "ref/multiport"],
        ["dva/flat", "dva/banked", "dva/multiport"],
        ["byp/flat", "byp/banked", "byp/multiport"],
    ];
    let family = match machine {
        Machine::Ref(_) => 0,
        Machine::Dva(config) if config.bypass => 2,
        Machine::Dva(_) => 1,
        Machine::Ideal | Machine::Custom(_) => return "ideal",
    };
    let backend = match memory {
        MemoryModelKind::Flat => 0,
        MemoryModelKind::Banked { .. } => 1,
        MemoryModelKind::MultiPort { .. } => 2,
    };
    LABELS[family][backend]
}

fn point_of(spec: &PointSpec, result: SimResult) -> SweepPoint {
    SweepPoint {
        machine: spec.machine,
        label: spec.machine.label(),
        benchmark: spec.benchmark,
        program: spec.program.name().to_string(),
        latency: spec.latency,
        memory: spec.memory,
        result,
    }
}

pub struct Replay {
    pub tracer: Tracer,
    workload: Workload,
    cache: ResultCache,
    shadow: Shadow,
    pub counts: Counts,
}

impl Replay {
    /// A replay over a cache opened the way the daemon opens it:
    /// persistent on `dir`.
    pub fn new(workload: Workload, tracing: bool, dir: &Path) -> io::Result<Replay> {
        let mut replay = Replay {
            tracer: Tracer::new(tracing),
            workload,
            cache: ResultCache::in_memory(DEFAULT_MEMORY_CAPACITY),
            shadow: Shadow::new(DEFAULT_MEMORY_CAPACITY),
            counts: Counts::default(),
        };
        replay.open_cache(dir)?;
        Ok(replay)
    }

    /// Replaces the cache, as a restarted daemon would open it.
    pub fn open_cache(&mut self, dir: &Path) -> io::Result<()> {
        let span = self.tracer.open("serve.cache_load");
        self.cache = ResultCache::persistent(dir, DEFAULT_MEMORY_CAPACITY)?;
        self.tracer.close(span);
        self.shadow = Shadow::new(DEFAULT_MEMORY_CAPACITY);
        self.counts.cache_entries = self.cache.disk_len() as u64;
        Ok(())
    }

    /// Replays one job. `counted` says whether its work joins the
    /// deterministic counts.
    pub fn run(&mut self, job: &Job, counted: bool) -> Replayed {
        self.tracer.set_job(job.id);
        let start = Instant::now();
        let root = self.tracer.open("job");
        let request = self.tracer.open("proto.request");
        let line = job
            .request()
            .render()
            .expect("built-in machines always serialize");
        let parsed = Request::parse(&line).expect("a rendered request parses");
        self.tracer.close(request);
        let mut replayed = Replayed {
            points: Vec::new(),
            expected: Expected::Sweep(JobSummary {
                total: 0,
                cache_hits: 0,
                simulated: 0,
                errors: 0,
            }),
            round_trip_failures: 0,
            simulation_failures: Vec::new(),
            simulated_insts: 0,
            job_ns: 0,
        };
        let stream_job = counted && job.id > 0;
        match parsed {
            Request::Sweep { spec, .. } => {
                let resolve = self.tracer.open("serve.resolve");
                self.generate(job);
                let specs = spec.grid();
                let round = self.resolve(specs, spec.fast_forward_enabled());
                self.tracer.close(resolve);
                let summary = self.serve(round, counted, stream_job, &mut replayed, |_, _| {});
                replayed.expected = Expected::Sweep(summary);
                if stream_job {
                    self.counts.simulations += summary.simulated as u64;
                }
            }
            Request::Adaptive { spec, .. } => {
                let plan = self.tracer.open("adaptive.plan");
                self.generate(job);
                let mut planner = spec.planner();
                let fast_forward = spec.dense().fast_forward_enabled();
                self.tracer.close(plan);
                let mut total = JobSummary {
                    total: 0,
                    cache_hits: 0,
                    simulated: 0,
                    errors: 0,
                };
                loop {
                    let plan = self.tracer.open("adaptive.plan");
                    let specs = planner.next_round();
                    self.tracer.close(plan);
                    if specs.is_empty() {
                        break;
                    }
                    let resolve = self.tracer.open("serve.resolve");
                    let round = self.resolve(specs, fast_forward);
                    self.tracer.close(resolve);
                    let summary = self.serve(
                        round,
                        counted,
                        stream_job,
                        &mut replayed,
                        |tracer, (index, point)| {
                            let plan = tracer.open("adaptive.plan");
                            planner.record(index, point);
                            tracer.close(plan);
                        },
                    );
                    total.total += summary.total;
                    total.cache_hits += summary.cache_hits;
                    total.simulated += summary.simulated;
                }
                let plan = self.tracer.open("adaptive.plan");
                let outcome = planner.finish();
                self.tracer.close(plan);
                let summary = AdaptiveSummary::of(&outcome.report, total);
                if stream_job {
                    self.counts.adaptive_jobs += 1;
                    self.counts.rounds += summary.rounds as u64;
                    self.counts.sampled += summary.sampled as u64;
                    self.counts.dense += summary.dense as u64;
                    self.counts.simulations += summary.simulated as u64;
                }
                replayed.expected = Expected::Adaptive(summary);
            }
            Request::Ping | Request::Shutdown => unreachable!("jobs are sweeps"),
        }
        self.tracer.close(root);
        replayed.job_ns = start.elapsed().as_nanos() as u64;
        if stream_job {
            self.counts.jobs += 1;
        }
        replayed
    }

    /// `Benchmark::program` for each program the job names, as the
    /// daemon's grid expansion calls it (generated once per process).
    fn generate(&mut self, job: &Job) {
        let scale = self.workload.scale();
        for benchmark in &job.benchmarks {
            let span = self.tracer.open("workloads.program");
            std::hint::black_box(benchmark.program(scale));
            self.tracer.close(span);
        }
    }

    /// `PointKey::of` and `ResultCache::get` for every spec, the way
    /// `SweepService::submit_specs` resolves a job before streaming.
    fn resolve(&mut self, specs: Vec<PointSpec>, fast_forward: bool) -> Round {
        let mut round = Round {
            fast_forward,
            entries: Vec::with_capacity(specs.len()),
        };
        for spec in specs {
            let span = self.tracer.open("serve.key");
            let key = PointKey::of(&spec, fast_forward).expect("built-in machines have keys");
            self.tracer.close(span);
            let span = self.tracer.open("serve.cache_get");
            let cached = self.cache.get(&key);
            let tier = self.shadow.get(&key, cached.is_some());
            self.tracer.close_as(span, tier.label());
            self.shadow.agrees_with(&self.cache);
            round.entries.push((spec, key, cached));
        }
        round
    }

    /// Simulates a round's misses and streams every point in order:
    /// prepare, `Machine::simulate_prepared`, `ResultCache::store`, then
    /// the `point` line's `Response::render` and the client's
    /// `Response::parse`.
    fn serve(
        &mut self,
        round: Round,
        counted: bool,
        stream_job: bool,
        replayed: &mut Replayed,
        mut on_point: impl FnMut(&mut Tracer, (usize, SweepPoint)),
    ) -> JobSummary {
        let mut summary = JobSummary {
            total: round.entries.len(),
            cache_hits: 0,
            simulated: 0,
            errors: 0,
        };
        let prepared = self.prepare(&round);
        let mut runners = Runners::new();
        for (spec, key, cached) in round.entries {
            let result = match cached {
                Some(result) => {
                    summary.cache_hits += 1;
                    result
                }
                None => {
                    summary.simulated += 1;
                    let program = &prepared[spec.program.name()];
                    let span = self.tracer.open("engine.simulate");
                    let simulated = spec.machine.try_simulate_prepared(
                        program,
                        round.fast_forward,
                        &mut runners,
                    );
                    self.tracer
                        .close_as(span, engine_label(&spec.machine, spec.memory));
                    let result = match simulated {
                        Ok(result) => result,
                        Err(e) => {
                            replayed.simulation_failures.push(format!(
                                "{} on {}: {e}",
                                spec.machine.label(),
                                spec.program.name()
                            ));
                            continue;
                        }
                    };
                    replayed.simulated_insts += result.insts;
                    if counted && !matches!(spec.machine, Machine::Ideal) {
                        let family = &engine_label(&spec.machine, spec.memory)[..3];
                        *self.counts.ticks.entry(family).or_default() +=
                            result.ticks_executed.get();
                        self.counts.cycles += result.cycles;
                    }
                    let span = self.tracer.open("serve.cache_store");
                    self.cache.store(key.clone(), result.clone());
                    self.tracer.close(span);
                    self.shadow.store(key);
                    self.shadow.agrees_with(&self.cache);
                    result
                }
            };
            let index = spec.index;
            let mut point = point_of(&spec, result);
            // The `point` line's round trip, where it is timed or counted.
            // Elsewhere the output check compares the client's decoded
            // point with this one directly, which covers the round trip.
            if self.tracer.enabled() || stream_job {
                let span = self.tracer.open("proto.encode");
                let line = Response::Point {
                    index,
                    point: Box::new(point),
                }
                .render()
                .expect("built-in machines always serialize");
                self.tracer.close(span);
                let span = self.tracer.open("proto.decode");
                let decoded = Response::parse(&line);
                self.tracer.close(span);
                point = match decoded {
                    Ok(Response::Point { point, .. }) => *point,
                    _ => {
                        replayed.round_trip_failures += 1;
                        continue;
                    }
                };
                if stream_job {
                    self.counts.point_lines += 1;
                    self.counts.point_bytes += line.len() as u64 + 1;
                }
            }
            replayed.points.push((index, point.clone()));
            on_point(&mut self.tracer, (index, point));
        }
        if stream_job {
            self.counts.lookups += summary.total as u64;
            self.counts.hits += summary.cache_hits as u64;
        }
        summary
    }

    /// One `PreparedProgram` per program with misses, compiled for the
    /// machine families that miss on it, as the daemon's executor
    /// prepares a job.
    fn prepare(&mut self, round: &Round) -> HashMap<String, PreparedProgram> {
        let mut prepared: HashMap<String, PreparedProgram> = HashMap::new();
        for (spec, _, cached) in &round.entries {
            if cached.is_some() {
                continue;
            }
            let name = spec.program.name();
            let span = self.tracer.open("sim-api.prepare");
            let program = prepared
                .entry(name.to_string())
                .or_insert_with(|| PreparedProgram::new(&spec.program));
            match spec.machine {
                Machine::Ref(_) => {
                    std::hint::black_box(program.reference());
                }
                Machine::Dva(_) => {
                    std::hint::black_box(program.dva());
                }
                Machine::Ideal | Machine::Custom(_) => {}
            }
            self.tracer.close(span);
        }
        prepared
    }
}

struct Round {
    fast_forward: bool,
    entries: Vec<(PointSpec, PointKey, Option<SimResult>)>,
}

/// Checks one job of the end-to-end run against its replay. Returns
/// (attempted, failed) operations — every point plus the job's summary
/// line — and a note for each failure.
pub fn check(
    workload: Workload,
    record: &JobRecord,
    replayed: &Replayed,
    observed: &Observed,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let attempted = replayed.points.len() as u64 + 1;
    let mut failed = replayed.round_trip_failures + replayed.simulation_failures.len() as u64;
    for failure in &replayed.simulation_failures {
        notes.push(format!("job {}: replay failed: {failure}", record.id));
    }
    failed += record.point_errors;
    let mut bad_points = 0u64;
    for (k, (index, expected)) in replayed.points.iter().enumerate() {
        let ok = record.points.get(k).is_some_and(|&(got_index, id)| {
            got_index == *index && observed.points[id as usize] == *expected
        });
        if !ok {
            bad_points += 1;
        }
    }
    bad_points += record.points.len().saturating_sub(replayed.points.len()) as u64;
    if bad_points > 0 {
        notes.push(format!(
            "job {}: {bad_points} streamed points differ from the in-process results",
            record.id
        ));
    }
    failed += bad_points;
    let summary_ok = match (&record.outcome, &replayed.expected) {
        (Outcome::Sweep(got), Expected::Sweep(want)) => {
            got == want
                && got.total == got.cache_hits + got.simulated
                && (workload != Workload::WarmRestart || got.simulated == 0)
        }
        (Outcome::Adaptive(got), Expected::Adaptive(want)) => {
            got == want && (workload != Workload::WarmRestart || got.simulated == 0)
        }
        (Outcome::Failed(message), _) => {
            notes.push(format!("job {}: {message}", record.id));
            false
        }
        _ => false,
    };
    if !summary_ok {
        notes.push(format!(
            "job {}: summary differs from the replay's",
            record.id
        ));
        failed += 1;
    }
    (attempted, failed.min(attempted))
}
