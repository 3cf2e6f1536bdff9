//! The `serve_mixed` workload: a `dagchkpt-serve` daemon started and
//! stopped by this process, driven with the traffic of the repository's
//! own load generator, and the byte-for-byte check of every answer
//! against the in-process engine.
//!
//! One burst is one run of `dagchkpt-serve --loadgen ADDR --campaign
//! replication_aware --quick` with its default `--rounds 3 --connections
//! 4`, at a campaign seed never used before: the correctness replay asks
//! every cell of the campaign once over one connection (each a miss:
//! compute plus a cache insert), then the load pass replays the cells
//! once per round and loadgen connection (each a hit). So 12 of every 13
//! requests are cache reads, as in the loadgen's defaults; the load
//! pass's 12 replays are spread over the connections the benchmark opens
//! (at most `nproc`). The daemon's cache holds `CACHE_CAPACITY` answers
//! and evicts the oldest first, so every burst inserts under eviction
//! pressure, yet never evicts a key of its own burst: hits, misses and
//! inserts per burst are a function of the seed alone.

use crate::out::Report;
use crate::trace::{median, quantile, Recorder, ROOT};
use dagchkpt_bench::{
    builtin, cell_csv_rows, run_cell_full, stage_header, CellExecution, OutputFormat, Scale,
    ScenarioSpec, Stage,
};
use dagchkpt_serve::protocol::TailSummary;
use dagchkpt_serve::{CellAnswer, Client, Request, Response, ResponseCache};
use dagchkpt_sim::trialplan::plan_compile_count;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The campaign the repository's README and CI drive through `--loadgen`.
pub const CAMPAIGN: &str = "replication_aware";
/// `dagchkpt-serve --loadgen` defaults: every cell is replayed once per
/// round on each connection after the correctness replay.
const LOADGEN_ROUNDS: usize = 3;
const LOADGEN_CONNECTIONS: usize = 4;
/// A response slower than this counts as failed and ends the connection.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// A daemon that does not answer `Ping` this long after spawn fails the run.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// A daemon still running this long after `Bye` is killed and fails the run.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
const POLL: Duration = Duration::from_micros(100);
/// The daemon's accept loop polls every 5 ms. A `Ping` sent as soon as the
/// address is published races the loop's first `accept` and lands 5 ms
/// apart depending on who wins, so the probe connects this long after the
/// address appears, when the loop is always in its first sleep.
const CONNECT_AFTER_ADDR: Duration = Duration::from_millis(1);
/// Answers the daemon's cache holds: more than one burst's keys, so a
/// burst's load pass only reads, and few enough that the cache is full
/// after a few bursts and the daemon's peak memory stops depending on how
/// many bursts fit in the run.
const CACHE_CAPACITY: usize = 8;
/// Bursts a measured stream makes however long they take, and the
/// traced stream makes exactly.
const MIN_BURSTS: usize = 3;

/// Separates the campaign seeds of the measured and the traced stream.
const MEASURED_SALT: u64 = 0x5EED_0000_0000_0001;
const TRACED_SALT: u64 = 0x5EED_0000_0000_0002;

fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cell query: a stage's spec, the cell index and the stage's format.
pub struct Query {
    pub spec: ScenarioSpec,
    pub cell: usize,
    pub format: OutputFormat,
}

impl Query {
    pub fn request(&self) -> Request {
        Request::Cell {
            spec: self.spec.clone(),
            cell: self.cell,
            format: self.format,
        }
    }
}

/// Every cell of the loadgen campaign at `seed`, in replay order.
pub fn campaign_queries(seed: u64) -> Result<Vec<Query>, String> {
    let campaign = builtin(CAMPAIGN, Scale::Quick, seed)
        .ok_or_else(|| format!("no built-in campaign `{CAMPAIGN}`"))?;
    let mut out = Vec::new();
    for stage in campaign.stages {
        let Stage::Scenario { scenario, output } = stage else {
            continue;
        };
        let cells = scenario.expand().map_err(|e| e.to_string())?.len();
        for cell in 0..cells {
            out.push(Query {
                spec: scenario.clone(),
                cell,
                format: output.format,
            });
        }
    }
    Ok(out)
}

/// The distinct queries of a stream and, per burst, their keys (indices
/// into `queries`) in replay order.
struct Stream {
    seed: u64,
    queries: Vec<Query>,
    bursts: Vec<Vec<usize>>,
}

impl Stream {
    fn new(seed: u64, salt: u64) -> Stream {
        Stream {
            seed: seed ^ salt,
            queries: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// Appends the next burst and returns its keys.
    fn push_burst(&mut self) -> Result<Vec<usize>, String> {
        // Spec seeds stay below 2^63 so every JSON reader takes them.
        let qs = campaign_queries(splitmix(self.seed, self.bursts.len() as u64) >> 1)?;
        if qs.len() > CACHE_CAPACITY {
            return Err(format!(
                "a burst asks {} cells, more than the cache's {CACHE_CAPACITY}",
                qs.len()
            ));
        }
        let first = self.queries.len();
        let keys: Vec<usize> = (first..first + qs.len()).collect();
        self.bursts.push(keys.clone());
        self.queries.extend(qs);
        Ok(keys)
    }
}

/// A daemon this process started; dropping it kills and reaps it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns a daemon on port 0 and waits for its first `Pong`; returns
    /// it with the seconds from spawn to that `Pong`.
    fn start(
        bin: &Path,
        tag: usize,
        workers: usize,
        capacity: usize,
    ) -> Result<(Daemon, f64), String> {
        let addr_file = PathBuf::from(format!("daemon{tag}.addr"));
        let log = std::fs::File::create(format!("daemon{tag}.log")).map_err(|e| e.to_string())?;
        let log2 = log.try_clone().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--workers", &workers.to_string()])
            .args(["--cache-capacity", &capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Some(status) = d.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("the daemon exited at start-up with {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("the daemon did not answer Ping".to_string());
            }
            let addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if !addr.is_empty() {
                std::thread::sleep(CONNECT_AFTER_ADDR);
                let pong = Client::connect_with_timeout(&addr, Some(READ_TIMEOUT))
                    .ok()
                    .and_then(|mut c| c.call(&Request::Ping).ok());
                if matches!(pong, Some(Response::Pong)) {
                    let secs = started.elapsed().as_secs_f64();
                    d.addr = addr;
                    return Ok((d, secs));
                }
            }
            std::thread::sleep(POLL);
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// User + system CPU seconds so far (Linux `/proc`).
    fn cpu_seconds(&self, clk_tck: f64) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // utime and stime are the 12th and 13th fields after the
        // parenthesized command name.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("/proc/<pid>/stat: no field {}", i + 3))
        };
        Ok((ticks(11)? + ticks(12)?) / clk_tck)
    }

    /// Peak resident set so far, in MB (`VmHWM`).
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "/proc/<pid>/status: no VmHWM".to_string())
    }

    fn call(&self, req: &Request) -> Result<Response, String> {
        Client::connect_with_timeout(&self.addr, Some(READ_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", self.addr))?
            .call(req)
            .map_err(|e| e.to_string())
    }

    /// Graceful `Shutdown`, then the exit status.
    fn stop(mut self) -> Result<(), String> {
        match self.call(&Request::Shutdown) {
            Ok(Response::Bye) => {}
            other => return Err(format!("the daemon answered Shutdown with {other:?}")),
        }
        let asked = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("the daemon exited with {status}")),
                None if asked.elapsed() > EXIT_TIMEOUT => {
                    return Err("the daemon did not exit after Shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Sample {
    key: usize,
    ms: f64,
    cached: bool,
}

/// One connection and its outcome so far: latencies, failures, and the
/// first answer seen per key (later answers for the key must equal it).
struct Lane {
    client: Option<Client>,
    samples: Vec<Sample>,
    failed: u64,
    mismatched: u64,
    answers: HashMap<usize, (Vec<String>, Vec<Vec<String>>)>,
}

impl Lane {
    fn connect(addr: &str) -> Lane {
        Lane {
            client: Client::connect_with_timeout(addr, Some(READ_TIMEOUT)).ok(),
            samples: Vec::new(),
            failed: 0,
            mismatched: 0,
            answers: HashMap::new(),
        }
    }

    /// Sends `keys` in order, each once the previous answer arrived.
    fn run(&mut self, queries: &[Query], keys: &[usize]) {
        for (i, &key) in keys.iter().enumerate() {
            // A stalled or vanished daemon fails everything still queued.
            let Some(client) = self.client.as_mut() else {
                self.failed += (keys.len() - i) as u64;
                return;
            };
            let t = Instant::now();
            let resp = client.call(&queries[key].request());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match resp {
                Ok(Response::Cell {
                    header,
                    rows,
                    cached,
                    ..
                }) => {
                    self.samples.push(Sample { key, ms, cached });
                    match self.answers.get(&key) {
                        Some(first) if first.0 != header || first.1 != rows => self.mismatched += 1,
                        Some(_) => {}
                        None => {
                            self.answers.insert(key, (header, rows));
                        }
                    }
                }
                // An error frame fails this request; the connection lives on.
                Ok(_) => self.failed += 1,
                Err(_) => {
                    self.failed += 1;
                    self.client = None;
                }
            }
        }
    }
}

/// The body the daemon sends for a freshly computed cell: the engine's
/// rows plus the tail summaries of its Monte-Carlo rows (the loadgen
/// campaign has no arrival stream, so no tenant rows).
pub fn cell_answer(q: &Query, exec: CellExecution) -> CellAnswer {
    let tails = exec
        .rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.mc_p50.is_finite())
        .map(|(row, r)| TailSummary {
            row,
            p50: r.mc_p50,
            p95: r.mc_p95,
            p99: r.mc_p99,
        })
        .collect();
    CellAnswer {
        header: stage_header(q.format, &q.spec.simulators),
        rows: cell_csv_rows(q.format, &exec.rows),
        schedules: exec.schedules,
        tails,
        tenants: Vec::new(),
    }
}

/// The engine's answer for one query, computed in this process.
fn expected_answer(q: &Query) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let plans = q.spec.expand().map_err(|e| e.to_string())?;
    let plan = plans.get(q.cell).ok_or("the spec has no such cell")?;
    let exec = run_cell_full(&q.spec, plan).map_err(|e| e.to_string())?;
    Ok((
        stage_header(q.format, &q.spec.simulators),
        cell_csv_rows(q.format, &exec.rows),
    ))
}

/// What one stream did.
struct Pass {
    requests: u64,
    distinct: u64,
    failed: u64,
    mismatched: u64,
    burst_wall: Vec<f64>,
    burst_cpu: Vec<f64>,
    /// Summed wall time of the correctness replays (the misses).
    replay_s: f64,
    samples: Vec<Sample>,
    /// In-process `run_cell_full` milliseconds per key (traced only).
    exec_ms: HashMap<usize, f64>,
}

/// Sends bursts of the stream over `conns` connections, then checks every
/// answer; with `rec`, also times each server-side layer on every distinct
/// query in this process. It makes at most `max_bursts` bursts, and after
/// `MIN_BURSTS` starts no burst that, judged by the median burst so far,
/// would end past `seconds`.
#[allow(clippy::too_many_arguments)]
fn drive(
    daemon: &Daemon,
    s: &mut Stream,
    seconds: f64,
    max_bursts: usize,
    conns: usize,
    clk_tck: f64,
    rec: Option<&Recorder>,
    r: &mut Report,
) -> Result<Pass, String> {
    let conns = conns.max(1);
    let mut lanes: Vec<Lane> = (0..conns).map(|_| Lane::connect(&daemon.addr)).collect();
    let mut pass = Pass {
        requests: 0,
        distinct: 0,
        failed: 0,
        mismatched: 0,
        burst_wall: Vec::new(),
        burst_cpu: Vec::new(),
        replay_s: 0.0,
        samples: Vec::new(),
        exec_ms: HashMap::new(),
    };
    let begun = Instant::now();
    while s.bursts.len() < max_bursts
        && (s.bursts.len() < MIN_BURSTS
            || begun.elapsed().as_secs_f64() + median(&pass.burst_wall) <= seconds)
    {
        let keys = s.push_burst()?;
        let keys = &keys;
        let cpu0 = daemon.cpu_seconds(clk_tck)?;
        let started = Instant::now();
        lanes[0].run(&s.queries, keys);
        pass.replay_s += started.elapsed().as_secs_f64();
        std::thread::scope(|scope| {
            for (c, lane) in lanes.iter_mut().enumerate() {
                let replays = (0..LOADGEN_ROUNDS * LOADGEN_CONNECTIONS)
                    .filter(|p| p % conns == c)
                    .count();
                let keys = keys.repeat(replays);
                let queries = &s.queries;
                scope.spawn(move || lane.run(queries, &keys));
            }
        });
        pass.burst_wall.push(started.elapsed().as_secs_f64());
        pass.burst_cpu.push(daemon.cpu_seconds(clk_tck)? - cpu0);
        pass.requests += (keys.len() * (1 + LOADGEN_ROUNDS * LOADGEN_CONNECTIONS)) as u64;
    }
    pass.distinct = s.queries.len() as u64;
    // Close the load connections so no daemon worker holds an idle one.
    for lane in &mut lanes {
        lane.client = None;
    }

    // Merge the lanes' answers; two lanes answering one key differently
    // is a mismatch too.
    let mut answers: HashMap<usize, (Vec<String>, Vec<Vec<String>>)> = HashMap::new();
    for lane in &mut lanes {
        pass.failed += lane.failed;
        pass.mismatched += lane.mismatched;
        pass.samples.append(&mut lane.samples);
        for (key, ans) in lane.answers.drain() {
            match answers.get(&key) {
                Some(first) if *first != ans => pass.mismatched += 1,
                Some(_) => {}
                None => {
                    answers.insert(key, ans);
                }
            }
        }
    }
    let mut uses: HashMap<usize, (u64, u64)> = HashMap::new();
    for smp in &pass.samples {
        let u = uses.entry(smp.key).or_default();
        if smp.cached {
            u.0 += 1;
        } else {
            u.1 += 1;
        }
    }

    let mut keys: Vec<usize> = answers.keys().copied().collect();
    keys.sort_unstable();
    let bad_keys: Vec<usize> = match rec {
        Some(rec) => {
            let compiles_before = plan_compile_count();
            let mut bytes_in = 0u64;
            let mut bytes_out = 0u64;
            let mut bad = Vec::new();
            for &key in &keys {
                let q = &s.queries[key];
                let (hits, misses) = uses[&key];
                let frame = serde_json::to_string(&q.request()).expect("a request serializes");
                bytes_in += (hits + misses) * (4 + frame.len() as u64);
                let ok = rec.span(ROOT, "serve.answer", |parent| {
                    let req: Request = rec
                        .span(parent, "protocol.decode", |_| serde_json::from_str(&frame))
                        .map_err(|e| e.to_string())?;
                    let Request::Cell { spec, cell, format } = req else {
                        return Err("decoded a non-cell request".to_string());
                    };
                    let plans = rec
                        .span(parent, "scenario.expand", |_| spec.expand())
                        .map_err(|e| e.to_string())?;
                    let json = rec.span(parent, "scenario.to_json", |_| spec.to_json());
                    rec.span(parent, "cache.key", |_| {
                        ResponseCache::key(&json, cell, format)
                    });
                    let plan = plans.get(cell).ok_or("the spec has no such cell")?;
                    let t = Instant::now();
                    let exec = rec
                        .span(parent, "exec.cell", |_| run_cell_full(&spec, plan))
                        .map_err(|e| e.to_string())?;
                    pass.exec_ms.insert(key, t.elapsed().as_secs_f64() * 1e3);
                    let answer = cell_answer(q, exec);
                    let miss = rec.span(parent, "protocol.encode", |_| {
                        serde_json::to_string(&answer.to_response(false))
                            .expect("a response serializes")
                    });
                    let hit = serde_json::to_string(&answer.to_response(true))
                        .expect("a response serializes");
                    bytes_out += hits * (4 + hit.len() as u64) + misses * (4 + miss.len() as u64);
                    Ok(answers.get(&key) == Some(&(answer.header, answer.rows)))
                });
                if !matches!(ok, Ok(true)) {
                    bad.push(key);
                }
            }
            let cell_ms: Vec<f64> = pass.exec_ms.values().copied().collect();
            r.int("protocol.bytes_in", bytes_in)
                .int("protocol.bytes_out", bytes_out)
                .int("exec.cells", cell_ms.len() as u64)
                .int("trialplan.compiles", plan_compile_count() - compiles_before)
                .num("exec.cell_ms.p50", median(&cell_ms))
                .num("exec.cell_ms.p99", quantile(&cell_ms, 0.99));
            bad
        }
        None => {
            // Untraced: check on every core; only the verdict matters.
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let check = |key: usize| {
                expected_answer(&s.queries[key]).is_ok_and(|e| answers.get(&key) == Some(&e))
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (keys, check) = (&keys, &check);
                        scope.spawn(move || {
                            keys.iter()
                                .skip(w)
                                .step_by(workers)
                                .copied()
                                .filter(|&k| !check(k))
                                .collect::<Vec<usize>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("a check worker panicked"))
                    .collect()
            })
        }
    };
    for key in &bad_keys {
        let (hits, misses) = uses[key];
        pass.mismatched += hits + misses;
    }
    // A request whose answer was wrong failed, whatever the transport said.
    pass.failed = (pass.failed + pass.mismatched).min(pass.requests);
    Ok(pass)
}

/// How a `serve_mixed` run is set up.
pub struct Options {
    pub serve_bin: PathBuf,
    pub seed: u64,
    /// Seconds the measured stream's bursts may take (see `drive`).
    pub seconds: f64,
    pub conns: usize,
    pub workers: usize,
    /// Daemon starts timed for `setup_s`; the last one serves the load.
    pub setup_reps: usize,
    pub clk_tck: f64,
    pub traced: bool,
}

/// The whole `serve_mixed` run: timed daemon starts, the measured stream,
/// the traced stream if asked, the daemon's counters and its shutdown.
/// Failed checks are listed under `failures`; an error means the run
/// could not be made at all.
pub fn run(o: &Options) -> Result<Report, String> {
    let mut measured = Stream::new(o.seed, MEASURED_SALT);
    let mut failures: Vec<String> = Vec::new();
    let mut setups = Vec::new();
    let mut daemon = None;
    for tag in 0..o.setup_reps.max(1) {
        if let Some(d) = daemon.take() {
            Daemon::stop(d).unwrap_or_else(|e| failures.push(e));
        }
        let (d, secs) = Daemon::start(&o.serve_bin, tag, o.workers, CACHE_CAPACITY)?;
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one daemon start");

    let mut r = Report::new();
    let d = drive(
        &daemon,
        &mut measured,
        o.seconds,
        usize::MAX,
        o.conns,
        o.clk_tck,
        None,
        &mut r,
    )?;
    let bursts = measured.bursts.len();
    let rec = Recorder::new();
    // The traced stream makes a fixed number of bursts, so its counts
    // repeat exactly whatever the host's speed.
    let t = if o.traced {
        let mut traced = Stream::new(o.seed, TRACED_SALT);
        Some(drive(
            &daemon,
            &mut traced,
            f64::INFINITY,
            MIN_BURSTS,
            o.conns,
            o.clk_tck,
            Some(&rec),
            &mut r,
        )?)
    } else {
        None
    };
    let (hits, misses, entries) = match daemon.call(&Request::Stats)? {
        Response::Stats {
            hits,
            misses,
            entries,
            ..
        } => (hits, misses, entries as u64),
        other => return Err(format!("Stats answered with {other:?}")),
    };
    let rss = daemon.peak_rss_mb()?;
    daemon.stop().unwrap_or_else(|e| failures.push(e));

    let passes: Vec<&Pass> = std::iter::once(&d).chain(t.as_ref()).collect();
    let requests: u64 = passes.iter().map(|p| p.requests).sum();
    let distinct: u64 = passes.iter().map(|p| p.distinct).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mismatched: u64 = passes.iter().map(|p| p.mismatched).sum();
    if failed > 0 {
        failures.push(format!(
            "{failed} of {requests} requests failed ({mismatched} answers differed from the engine)"
        ));
    }
    // Each correctness replay inserts its burst's cells; the load pass
    // after it only reads them.
    if misses != distinct || hits != requests - distinct {
        failures.push(format!(
            "the daemon counted {hits} hits / {misses} misses, expected {} / {distinct}",
            requests - distinct
        ));
    }

    let wall_s: f64 = d.burst_wall.iter().sum();
    let lat: Vec<f64> = d.samples.iter().map(|x| x.ms).collect();
    r.nums("setup_s", &setups)
        .nums("burst_wall_s", &d.burst_wall)
        .nums("burst_cpu_s", &d.burst_cpu)
        .num("peak_rss_mb", rss)
        .int("bursts", bursts as u64)
        .int("requests", d.requests)
        .int("distinct_keys", d.distinct)
        .int("succeeded", d.requests - d.failed)
        .int("attempted", requests)
        .int("failed", failed)
        .list("failures", &failures)
        .num("rps", d.samples.len() as f64 / wall_s)
        .int("latency_samples", lat.len() as u64)
        .num("p50_ms", median(&lat))
        .num("p25_ms", quantile(&lat, 0.25))
        .num("p75_ms", quantile(&lat, 0.75))
        .num("p99_ms", quantile(&lat, 0.99))
        .int("cache.hits", hits)
        .int("cache.misses", misses)
        .int("cache.entries", entries)
        .num(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    // Share of burst time the correctness replays (the misses) took: the
    // layer that sets `wall_s` on this workload.
    let hit_ms: Vec<f64> = d
        .samples
        .iter()
        .filter(|x| x.cached)
        .map(|x| x.ms)
        .collect();
    let miss_ms: Vec<f64> = d
        .samples
        .iter()
        .filter(|x| !x.cached)
        .map(|x| x.ms)
        .collect();
    r.num("server.hit_ms.p50", median(&hit_ms))
        .num("server.miss_ms.p50", median(&miss_ms))
        .num("server.miss_ms.p99", quantile(&miss_ms, 0.99))
        .num("server.miss_time_share", d.replay_s / wall_s);
    if let Some(t) = &t {
        let overhead: Vec<f64> = t
            .samples
            .iter()
            .filter(|x| !x.cached)
            .filter_map(|x| t.exec_ms.get(&x.key).map(|e| x.ms - e))
            .collect();
        r.num("server.overhead_ms", median(&overhead))
            .num("traced_wall_s", median(&t.burst_wall));
        for (name, tot) in &rec.totals() {
            r.num(&format!("{name}.self_ms"), tot.self_ns as f64 / 1e6)
                .int(&format!("{name}.count"), tot.count);
        }
    }
    Ok(r)
}
