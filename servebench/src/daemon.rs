//! The end-to-end side: the real `dva-serve` binary as a child process
//! on a Unix socket, and a closed-loop load generator holding one
//! `Client` connection.

use crate::stream::{Job, JobSpec, JobStream};
use dva_memory::MemoryModelKind;
use dva_serve::{AdaptiveSummary, Client, JobSummary};
use dva_sim_api::SweepPoint;
use std::collections::HashMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub type Conn = Client<UnixStream, UnixStream>;

/// How long a daemon may take to bind its socket before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it, so
/// no exit path of the benchmark leaves one behind.
pub struct Daemon {
    child: Child,
    exited: bool,
}

impl Daemon {
    /// Spawns `dva-serve --socket SOCKET --cache-dir DIR`, connects as
    /// soon as the socket accepts, and returns once the first `pong`
    /// arrives.
    pub fn start(binary: &Path, socket: &Path, cache_dir: &Path) -> io::Result<(Daemon, Conn)> {
        let child = Command::new(binary)
            .arg("--socket")
            .arg(socket)
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            exited: false,
        };
        let started = Instant::now();
        let mut client = loop {
            match Client::connect(socket) {
                Ok(client) => break client,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                    ) =>
                {
                    if let Some(status) = daemon.child.try_wait()? {
                        daemon.exited = true;
                        return Err(io::Error::other(format!(
                            "dva-serve exited early: {status}"
                        )));
                    }
                    if started.elapsed() > START_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "dva-serve never bound its socket",
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(e),
            }
        };
        client.ping()?;
        Ok((daemon, client))
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc/<pid>/status"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the daemon to exit and waits until it has.
    pub fn stop(mut self, client: &mut Conn) -> io::Result<()> {
        client.shutdown()?;
        let status = self.child.wait()?;
        self.exited = true;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("dva-serve exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What identifies a grid point in the workloads here: every machine
/// configuration they use has a distinct label.
type Identity = (String, String, u64, MemoryModelKind);

/// Every distinct point the daemon streamed, stored once. A repeat of a
/// point is compared with the first copy as it arrives, so a run that
/// streams hundreds of thousands of hits keeps only the distinct ones;
/// the first copies are checked against the in-process replay later.
#[derive(Default)]
pub struct Observed {
    ids: HashMap<Identity, u32>,
    pub points: Vec<SweepPoint>,
    /// Repeats that differed from the first copy of their point.
    pub inconsistent: u64,
}

impl Observed {
    fn intern(&mut self, point: SweepPoint) -> u32 {
        let SweepPoint {
            machine,
            label,
            benchmark,
            program,
            latency,
            memory,
            result,
        } = point;
        let identity = (program, label, latency, memory);
        if let Some(&id) = self.ids.get(&identity) {
            let first = &self.points[id as usize];
            if first.result != result || first.machine != machine || first.benchmark != benchmark {
                self.inconsistent += 1;
            }
            return id;
        }
        let id = self.points.len() as u32;
        self.points.push(SweepPoint {
            machine,
            label: identity.1.clone(),
            benchmark,
            program: identity.0.clone(),
            latency,
            memory,
            result,
        });
        self.ids.insert(identity, id);
        id
    }
}

pub enum Outcome {
    Sweep(JobSummary),
    Adaptive(AdaptiveSummary),
    /// An `error` line or a transport failure.
    Failed(String),
}

pub struct JobRecord {
    pub id: usize,
    /// When the job was submitted and when its summary line arrived.
    pub start: Instant,
    pub end: Instant,
    pub job_ms: f64,
    pub first_point_ms: Option<f64>,
    /// (index on the wire, id in [`Observed`]) per streamed point.
    pub points: Vec<(usize, u32)>,
    pub point_errors: u64,
    pub outcome: Outcome,
}

/// Submits one job and waits for its summary line.
pub fn submit(client: &mut Conn, job: &Job, observed: &mut Observed) -> JobRecord {
    let mut points = Vec::new();
    let mut first_point = None;
    let mut point_errors = 0;
    let start = Instant::now();
    let outcome = match &job.spec {
        JobSpec::Sweep(sweep) => client
            .submit_outcomes(sweep, None, |index, outcome| {
                first_point.get_or_insert_with(|| start.elapsed());
                match outcome {
                    Ok(point) => points.push((index, observed.intern(point))),
                    Err(_) => point_errors += 1,
                }
            })
            .map(Outcome::Sweep),
        JobSpec::Adaptive(adaptive) => client
            .submit_adaptive_outcomes(adaptive, None, |index, point| {
                first_point.get_or_insert_with(|| start.elapsed());
                points.push((index, observed.intern(point)));
            })
            .map(Outcome::Adaptive),
    };
    let end = Instant::now();
    JobRecord {
        id: job.id,
        start,
        end,
        job_ms: ms(end - start),
        first_point_ms: first_point.map(ms),
        points,
        point_errors,
        outcome: outcome.unwrap_or_else(|e| Outcome::Failed(e.to_string())),
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The timed window: a closed loop that sends the next job of the
/// stream only once the previous summary has arrived, until `seconds`
/// have passed. Stops early if the connection breaks. `after_job` sees
/// the number of jobs completed so far after each one.
pub fn closed_loop(
    client: &mut Conn,
    stream: &mut JobStream,
    seconds: f64,
    observed: &mut Observed,
    mut after_job: impl FnMut(usize),
) -> (Vec<Job>, Vec<JobRecord>, Duration) {
    let budget = Duration::from_secs_f64(seconds);
    let mut jobs = Vec::new();
    let mut records = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let job = stream.next_job();
        let record = submit(client, &job, observed);
        let broken = matches!(&record.outcome, Outcome::Failed(_)) && client.ping().is_err();
        jobs.push(job);
        records.push(record);
        after_job(records.len());
        if broken {
            break;
        }
    }
    (jobs, records, start.elapsed())
}

/// Round trips of `n` pings on a live connection, in µs.
pub fn ping_rtt_us(client: &mut Conn, n: usize) -> io::Result<Vec<f64>> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        client.ping()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(samples)
}
