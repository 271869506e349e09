//! The `serve-orbit` and `serve-cold` workloads: a `star-rings serve`
//! child process driven over two connections by seeded open-loop and
//! closed-loop request schedules, every ring stream verified.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use star_bench::jsonv::Json;
use star_serve::client::{
    embed_request, plain_request, with_proto_v2, with_return_ring, with_trace_id, Received,
};
use star_serve::proto::ServerTiming;
use star_serve::{Client, StreamVerifier};

use crate::inputs::{self, ColdStream, OrbitStream, Rng, Scenario};
use crate::stats::{ms, percentile, setup_median, Report};
use crate::sys;

/// Connections (one client thread each); `nproc` is 2.
pub const CONNS: usize = 2;
/// Server worker threads.
const SERVER_THREADS: &str = "2";
/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` given to the open-loop phase; the closed-loop
/// saturation phase gets the rest.
const OPEN_SHARE: f64 = 0.72;
/// The two phases alternate in this many slices each, so both sample the
/// whole run: a burst of host contention a few seconds long then touches
/// a share of each phase's samples, not most of a short closed loop.
const CYCLES: u64 = 4;
/// Open-loop offered rate (requests/s over all connections) on the 2-CPU
/// reference host: about half of the closed-loop goodput for
/// `serve-orbit` (~200/s), and about 29% of it for `serve-cold` (~125/s),
/// where half of goodput let per-connection queueing double the
/// run-to-run spread of the miss latencies.
pub const ORBIT_RATE: f64 = 100.0;
pub const COLD_RATE: f64 = 36.0;
/// How long a request may take before it counts as failed.
const PATIENCE: Duration = Duration::from_secs(30);
/// Scheduled requests still unsent this long after the open-loop phase
/// ends are abandoned and counted as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Orbit,
    Cold,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Orbit => "serve-orbit",
            Kind::Cold => "serve-cold",
        }
    }

    fn rate(self) -> f64 {
        match self {
            Kind::Orbit => ORBIT_RATE,
            Kind::Cold => COLD_RATE,
        }
    }

    fn stream(self, seed: u64, conn: u64) -> Box<dyn Iterator<Item = Scenario> + Send> {
        match self {
            Kind::Orbit => Box::new(OrbitStream::new(seed, conn)),
            Kind::Cold => Box::new(ColdStream::new(seed, conn)),
        }
    }
}

/// A running `star-rings serve` child process.
pub struct Server {
    child: Child,
    /// Drains the server's stdout until it exits, so the server never
    /// writes to a full or closed pipe.
    reader: Option<JoinHandle<()>>,
    pub addr: String,
}

/// How long a server may take to start listening.
const START_TIMEOUT: Duration = Duration::from_secs(60);

impl Server {
    /// Starts the server on a free local port and waits until it listens
    /// (after it has warmed its Lemma-4 oracle and opened its store).
    pub fn start(bin: &Path, extra: &[&str], log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                SERVER_THREADS,
            ])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.trim().strip_prefix("star-serve listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut server = Server {
            child,
            reader: Some(reader),
            addr: String::new(),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err("server did not start listening".to_string()),
        }
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        sys::peak_rss_mib(&self.child.id().to_string())
    }

    /// Graceful stop: SIGINT, which drains the queue and flushes the
    /// store's write-behind, then waits for the exit.
    pub fn stop(mut self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-INT", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("kill -INT: {e}"))?;
        if !status.success() {
            return Err("kill -INT failed".to_string());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("server exited with {st}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        Err("server did not drain within 30 s".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What one verified request produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub cached: bool,
    /// Scheduled send to verified last chunk.
    pub latency_ms: f64,
    /// Scheduled send to first chunk.
    pub ttfc_ms: f64,
    /// Actual send to verified last chunk.
    pub from_send_ms: f64,
    /// Client `StreamVerifier::feed` + `finish`.
    pub verify_ms: f64,
    pub vertices: u64,
    pub timing: Option<ServerTiming>,
    /// Waiting for this connection's previous stream to end.
    pub conn_wait_ms: f64,
    /// How late the generator woke after the scheduled send.
    pub late_ms: f64,
    /// Whether the request carried a trace id.
    pub traced: bool,
}

/// The v2 `return_ring` embed request for `s`, with a trace id when
/// `trace` is set.
pub fn request_for(s: &Scenario, id: u64, trace: bool) -> Json {
    let request = with_proto_v2(
        with_return_ring(embed_request(
            &id.to_string(),
            s.n,
            &s.fault_strings(),
            None,
        )),
        0,
        None,
    );
    if trace {
        with_trace_id(request, u128::from(id) << 64 | 0xBE4C)
    } else {
        request
    }
}

/// One connection that reconnects after a broken stream (chunk frames
/// carry no correlation id, so a stream cut midway leaves the
/// connection unusable).
struct Conn {
    addr: String,
    client: Option<Client>,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            client: None,
        }
    }

    /// Sends one v2 `return_ring` embed and verifies the stream.
    fn fetch(
        &mut self,
        s: &Scenario,
        id: u64,
        trace: bool,
        sched: Instant,
    ) -> Result<Outcome, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr, Duration::from_secs(5))?);
        }
        let result = self.fetch_on(s, id, trace, sched);
        if result.is_err() {
            self.client = None;
        }
        result
    }

    fn fetch_on(
        &mut self,
        s: &Scenario,
        id: u64,
        trace: bool,
        sched: Instant,
    ) -> Result<Outcome, String> {
        let client = self.client.as_mut().expect("connected above");
        let request = request_for(s, id, trace);
        let sent = Instant::now();
        client.send(&request)?;
        let header = match client.recv_any(PATIENCE)? {
            Received::Doc(doc) => doc,
            Received::Chunk(_) => return Err("chunk before the stream header".to_string()),
        };
        if header.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("server error: {header}"));
        }
        if header.get("encoding").and_then(Json::as_str) != Some("delta-v2") {
            return Err("response is not a v2 stream".to_string());
        }
        let ring_len = header.get("ring_len").and_then(Json::as_u64).unwrap_or(0);
        if ring_len != s.ring_len() {
            return Err(format!(
                "ring_len {ring_len}, n! - 2|F_v| = {}",
                s.ring_len()
            ));
        }
        let mut out = Outcome {
            cached: header.get("cached") == Some(&Json::Bool(true)),
            timing: header
                .get("server_timing")
                .and_then(ServerTiming::from_json),
            ..Outcome::default()
        };
        let mut verifier = StreamVerifier::new(s.n, ring_len, &s.faults)?;
        if let Some(hex) = header.get("cert_checksum").and_then(Json::as_str) {
            verifier.expect_checksum(hex)?;
        }
        let mut verify = Duration::ZERO;
        let mut first = true;
        loop {
            let chunk = match client.recv_any(PATIENCE)? {
                Received::Chunk(c) => c,
                Received::Doc(_) => return Err("JSON frame inside a chunk stream".to_string()),
            };
            if first {
                out.ttfc_ms = ms(sched.elapsed());
                first = false;
            }
            let t = Instant::now();
            verifier.feed(&chunk)?;
            verify += t.elapsed();
            if chunk.last {
                break;
            }
        }
        let t = Instant::now();
        let summary = verifier.finish()?;
        verify += t.elapsed();
        if !summary.at_guarantee {
            return Err("stream shorter than n! - 2|F_v|".to_string());
        }
        out.latency_ms = ms(sched.elapsed());
        out.from_send_ms = ms(sent.elapsed());
        out.verify_ms = ms(verify);
        out.vertices = summary.ring_len;
        Ok(out)
    }

    fn stats(&mut self) -> Result<Json, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr, Duration::from_secs(5))?);
        }
        self.client
            .as_mut()
            .expect("connected above")
            .call(&plain_request("stats", "stats"))
    }
}

/// Everything the connection threads of one phase observed.
#[derive(Default)]
struct Phase {
    outcomes: Vec<Outcome>,
    attempted: u64,
    failed: u64,
    elapsed: f64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.outcomes.extend(other.outcomes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Appends a later slice of the same phase.
    fn append(&mut self, later: Phase) {
        self.outcomes.extend(later.outcomes);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.elapsed += later.elapsed;
    }

    fn record(&mut self, result: Result<Outcome, String>, what: &str) {
        self.attempted += 1;
        match result {
            Ok(o) => self.outcomes.push(o),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what}: request failed: {e}");
            }
        }
    }

    fn pick(&self, f: impl Fn(&Outcome) -> Option<f64>) -> Vec<f64> {
        self.outcomes.iter().filter_map(f).collect()
    }
}

/// Request ids are unique per connection and phase.
fn request_id(conn: usize, phase: u64, i: u64) -> u64 {
    (phase << 40) | ((conn as u64) << 32) | i
}

/// A seeded Poisson arrival schedule over `seconds` at `rate`, given its
/// count: `rate * seconds` arrival times drawn uniformly and sorted (a
/// Poisson process conditioned on its count), so every run of a workload
/// holds the same number of samples.
fn arrivals(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::stream(seed, stream);
    let mut times: Vec<f64> = (0..(rate * seconds).round() as usize)
        .map(|_| rng.unit() * seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Open loop: each connection follows its own seeded Poisson schedule at
/// its share of the offered rate. Latency counts from the scheduled send,
/// so a stall is charged to every request it delays.
fn open_loop<I>(
    addr: &str,
    streams: &mut [I],
    kind: Kind,
    seconds: f64,
    seed: u64,
    trace_share: f64,
    phase_no: u64,
) -> Phase
where
    I: Iterator<Item = Scenario> + Send,
{
    let what = kind.name();
    let per_conn = kind.rate() / streams.len() as f64;
    let start = Instant::now();
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut conn = Conn::new(addr);
                    let schedule =
                        arrivals(seed, 300 + 10 * phase_no + c as u64, per_conn, seconds);
                    let mut coin = Rng::stream(seed, 500 + 10 * phase_no + c as u64);
                    let mut i = 0;
                    for at in schedule {
                        let sched = start + Duration::from_secs_f64(at);
                        let s = stream.next().expect("request streams are endless");
                        let now = Instant::now();
                        if now > start + Duration::from_secs_f64(seconds) + DRAIN_GRACE {
                            phase.record(Err("abandoned: backlog past the phase end".into()), what);
                            continue;
                        }
                        let (mut conn_wait, mut late) = (0.0, 0.0);
                        if now < sched {
                            std::thread::sleep(sched - now);
                            late = ms(sched.elapsed());
                        } else {
                            conn_wait = ms(now - sched);
                        }
                        i += 1;
                        let trace = coin.unit() < trace_share;
                        let result = conn.fetch(&s, request_id(c, phase_no, i), trace, sched);
                        phase.record(
                            result.map(|mut o| {
                                o.traced = trace;
                                o.conn_wait_ms = conn_wait;
                                o.late_ms = late;
                                o
                            }),
                            what,
                        );
                    }
                    phase.elapsed = start.elapsed().as_secs_f64();
                    phase
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("connection thread panicked"));
        }
    });
    total
}

/// Closed loop at saturation: each connection sends its next request as
/// soon as the previous stream is verified.
fn closed_loop<I>(addr: &str, streams: &mut [I], kind: Kind, seconds: f64, phase_no: u64) -> Phase
where
    I: Iterator<Item = Scenario> + Send,
{
    let what = kind.name();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut conn = Conn::new(addr);
                    let mut i = 0;
                    while Instant::now() < end {
                        let s = stream.next().expect("request streams are endless");
                        i += 1;
                        let sched = Instant::now();
                        phase.record(
                            conn.fetch(&s, request_id(c, phase_no, i), false, sched),
                            what,
                        );
                    }
                    phase.elapsed = start.elapsed().as_secs_f64();
                    phase
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("connection thread panicked"));
        }
    });
    total
}

/// Sends `scenarios` once each over the connections (set-up fills).
fn fill(addr: &str, scenarios: &[Scenario], what: &str) -> Phase {
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut conn = Conn::new(addr);
                    for (i, s) in scenarios.iter().enumerate().skip(c).step_by(CONNS) {
                        let r = conn.fetch(s, request_id(c, 0, i as u64), false, Instant::now());
                        phase.record(r, what);
                    }
                    phase
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("fill thread panicked"));
        }
    });
    total
}

/// Files a run writes: server logs and the oracle store.
pub struct Paths {
    pub bin: PathBuf,
    pub work: PathBuf,
}

/// One set-up: start the server and fill what the workload needs.
/// `serve-orbit` fills the LRU with the base pool. `serve-cold` fills a
/// fresh store through a first server, drains it with SIGINT so the
/// write-behind flushes, and starts the measured server on that store
/// with the LRU sized to zero, so every request reaches the store or the
/// embed core.
fn set_up(
    kind: Kind,
    seed: u64,
    paths: &Paths,
    rep: usize,
) -> Result<(Server, f64, Phase), String> {
    let log = |name: &str| paths.work.join(format!("{name}-{rep}.log"));
    let t = Instant::now();
    match kind {
        Kind::Orbit => {
            let server = Server::start(&paths.bin, &[], &log("server"))?;
            let filled = fill(&server.addr, &inputs::orbit_base(seed), "setup");
            Ok((server, t.elapsed().as_secs_f64(), filled))
        }
        Kind::Cold => {
            let store = paths.work.join(format!("store-{rep}"));
            let _ = std::fs::remove_dir_all(&store);
            let store_arg = store.to_str().ok_or("work path is not UTF-8")?;
            let first = Server::start(&paths.bin, &["--oracle-path", store_arg], &log("fill"))?;
            let filled = fill(&first.addr, &inputs::cold_stored(seed), "setup");
            first.stop()?;
            let server = Server::start(
                &paths.bin,
                &["--oracle-path", store_arg, "--cache-mb", "0"],
                &log("server"),
            )?;
            Ok((server, t.elapsed().as_secs_f64(), filled))
        }
    }
}

fn set_up_reps(
    kind: Kind,
    seed: u64,
    paths: &Paths,
    reps: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..reps {
        let (server, secs, filled) = set_up(kind, seed, paths, rep)?;
        if filled.failed > 0 {
            return Err(format!(
                "{} set-up: {} fill requests failed",
                kind.name(),
                filled.failed
            ));
        }
        times.push(secs);
        if rep + 1 == reps {
            return Ok((server, times));
        }
        server.stop()?;
        let _ = std::fs::remove_dir_all(paths.work.join(format!("store-{rep}")));
    }
    unreachable!("reps >= 1")
}

fn streams(kind: Kind, seed: u64) -> Vec<Box<dyn Iterator<Item = Scenario> + Send>> {
    (0..CONNS as u64).map(|c| kind.stream(seed, c)).collect()
}

fn hits(p: &Phase) -> Vec<f64> {
    p.pick(|o| o.cached.then_some(o.latency_ms))
}

fn misses(p: &Phase) -> Vec<f64> {
    p.pick(|o| (!o.cached).then_some(o.latency_ms))
}

/// Runs `serve-orbit` or `serve-cold` untraced and reports its
/// end-to-end metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, paths: &Paths) -> Result<Report, String> {
    let (server, setups) = set_up_reps(kind, seed, paths, SETUP_REPS)?;
    let mut streams = streams(kind, seed);
    let (mut open, mut closed) = (Phase::default(), Phase::default());
    for cycle in 0..CYCLES {
        open.append(open_loop(
            &server.addr,
            &mut streams,
            kind,
            seconds * OPEN_SHARE / CYCLES as f64,
            seed,
            0.0,
            1 + 2 * cycle,
        ));
        closed.append(closed_loop(
            &server.addr,
            &mut streams,
            kind,
            seconds * (1.0 - OPEN_SHARE) / CYCLES as f64,
            2 + 2 * cycle,
        ));
    }
    let peak = server.peak_rss_mib()?;
    server.stop()?;
    let _ = std::fs::remove_dir_all(paths.work.join(format!("store-{}", SETUP_REPS - 1)));

    let mut r = Report {
        attempted: open.attempted + closed.attempted,
        failed: open.failed + closed.failed,
        ..Report::default()
    };
    r.add("setup_s", "s", setup_median(&setups), setups.len());
    r.add("peak_rss_mib", "MiB", peak, 1);
    r.add(
        "fail_frac",
        "ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.attempted as usize,
    );
    let goodput = closed.outcomes.len() as f64 / closed.elapsed;
    let vertices: u64 = closed.outcomes.iter().map(|o| o.vertices).sum();
    match kind {
        Kind::Orbit => {
            let h = hits(&open);
            r.add_percentile("hit_ms_p50", "ms", &h, 0.5)?;
            r.add_percentile("hit_ms_p99", "ms", &h, 0.99)?;
            r.add_percentile("ttfc_ms_p50", "ms", &open.pick(|o| Some(o.ttfc_ms)), 0.5)?;
            let unexpected = open.outcomes.len() - h.len();
            if unexpected > 0 {
                r.note(format!("{unexpected} open-loop requests missed the cache"));
            }
        }
        Kind::Cold => {
            r.add_percentile("hit_ms_p50", "ms", &hits(&open), 0.5)?;
            let m = misses(&open);
            r.add_percentile("miss_ms_p50", "ms", &m, 0.5)?;
            r.add_percentile("miss_ms_p95", "ms", &m, 0.95)?;
            r.add_percentile(
                "ttfc_ms_p50",
                "ms",
                &open.pick(|o| (!o.cached).then_some(o.ttfc_ms)),
                0.5,
            )?;
        }
    }
    // The gated latency is the median of the workload's primary class.
    // serve-orbit takes it from the saturated phase: with no idle CPUs it
    // does not pick up the host's vCPU wake-up delays, which moved the
    // ~7 ms open-loop hits by up to 40% between runs. serve-cold takes it
    // from the open loop: at saturation its misses share two CPUs with
    // store reads and the client's verify, and host contention moved their
    // median about twice as far as the open loop's.
    let (closed_median, gated) = match kind {
        Kind::Orbit => ("closed.hit_ms_p50", "closed.hit_ms_p50"),
        Kind::Cold => ("closed.miss_ms_p50", "miss_ms_p50"),
    };
    let primary_cached = kind == Kind::Orbit;
    r.add_percentile(
        closed_median,
        "ms",
        &closed.pick(|o| (o.cached == primary_cached).then_some(o.latency_ms)),
        0.5,
    )?;
    r.add("goodput_rps", "1/s", goodput, closed.outcomes.len());
    r.add(
        "vertices_per_s",
        "1/s",
        vertices as f64 / closed.elapsed,
        closed.outcomes.len(),
    );
    generator_notes(&mut r, &open, kind.rate(), seconds * OPEN_SHARE);
    r.export("setup_s", "setup_s");
    r.export("peak_rss_mib", "peak_rss_mib");
    r.export(gated, "latency_ms_p50");
    r.export("vertices_per_s", "vertices_per_s");
    Ok(r)
}

/// How far the generator fell behind its schedule. Both must stay near
/// zero, or the latencies measure the generator.
fn generator_notes(r: &mut Report, open: &Phase, rate: f64, seconds: f64) {
    let late = open.pick(|o| Some(o.late_ms));
    let wait = open.pick(|o| Some(o.conn_wait_ms));
    r.note(format!(
        "open loop: {rate} req/s offered for {seconds:.1} s over {CONNS} connections; \
         bench.gen.sent {} ok {} failed {}; bench.gen.late_ms {}; bench.gen.conn_wait_ms {}",
        open.attempted,
        open.outcomes.len(),
        open.failed,
        tail_text(&late),
        tail_text(&wait),
    ));
}

/// The highest of p99, p95 and p50 that has enough samples beyond it.
fn tail_text(v: &[f64]) -> String {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.5, "p50")] {
        if let Ok(x) = percentile(label, v, q) {
            return format!("{label} {x:.3} ms");
        }
    }
    format!("too few samples ({})", v.len())
}

/// Adds a percentile to the report lines, or a note when too few samples
/// exist for it (per-layer figures the JSON line does not carry).
fn add_or_note(r: &mut Report, name: &str, unit: &'static str, v: &[f64], q: f64) {
    if let Err(e) = r.add_percentile(name, unit, v, q) {
        r.note(e);
    }
}

/// Share of the traced run's requests that carry a trace id; the rest,
/// drawn by a seeded coin from the same schedule, are the untraced
/// comparison for the tracing overhead.
const TRACE_SHARE: f64 = 2.0 / 3.0;

/// Traced run of a serve workload. One set-up, then the open loop for
/// the whole time with a trace id on about two requests in three, so the
/// server echoes `server_timing` (queue, embed, verify, encode) for them;
/// the medians of traced and untraced requests give the tracing
/// ratio. The server's `stats` counters follow, then the in-process
/// replay of each layer's public calls.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, paths: &Paths) -> Result<Report, String> {
    let t = Instant::now();
    star_ring::oracle::warm();
    let warm_ms = ms(t.elapsed());
    let (server, _) = set_up_reps(kind, seed, paths, 1)?;
    let mut streams = streams(kind, seed);
    let open = open_loop(
        &server.addr,
        &mut streams,
        kind,
        seconds,
        seed,
        TRACE_SHARE,
        1,
    );
    let stats = Conn::new(&server.addr).stats()?;
    server.stop()?;
    let _ = std::fs::remove_dir_all(paths.work.join("store-0"));

    let mut r = Report {
        attempted: open.attempted,
        failed: open.failed,
        ..Report::default()
    };
    r.add("core.oracle.warm_ms", "ms", warm_ms, 1);
    r.export("core.oracle.warm_ms", "core.oracle.warm_ms");
    let (class, primary_cached) = match kind {
        Kind::Orbit => ("hit", true),
        Kind::Cold => ("miss", false),
    };
    let latencies = |traced: bool| {
        open.pick(|o| (o.traced == traced && o.cached == primary_cached).then_some(o.latency_ms))
    };
    let (plain, traced) = (latencies(false), latencies(true));
    let p_plain = r.add_percentile(&format!("untraced.{class}_ms_p50"), "ms", &plain, 0.5)?;
    let p_traced = r.add_percentile(&format!("traced.{class}_ms_p50"), "ms", &traced, 0.5)?;
    crate::embed::trace_ratio(&mut r, p_traced, p_plain, traced.len());

    // Additivity: server phases + client verify + residual = latency from
    // the actual send, for the workload's primary class.
    let primary: Vec<&Outcome> = open
        .outcomes
        .iter()
        .filter(|o| o.cached == primary_cached && o.timing.is_some())
        .collect();
    let phase = |f: fn(&ServerTiming) -> u64| -> Vec<f64> {
        primary
            .iter()
            .map(|o| f(o.timing.as_ref().expect("filtered")) as f64 / 1e3)
            .collect()
    };
    let queue = phase(|t| t.queue_us);
    add_or_note(&mut r, "serve.queue.wait_ms_p50", "ms", &queue, 0.5);
    add_or_note(&mut r, "serve.queue.wait_ms_p99", "ms", &queue, 0.99);
    add_or_note(
        &mut r,
        "serve.server.embed_ms_p50",
        "ms",
        &phase(|t| t.embed_us),
        0.5,
    );
    add_or_note(
        &mut r,
        "serve.server.verify_ms_p50",
        "ms",
        &phase(|t| t.verify_us),
        0.5,
    );
    add_or_note(
        &mut r,
        "serve.server.encode_ms_p50",
        "ms",
        &phase(|t| t.encode_us),
        0.5,
    );
    let client_verify: Vec<f64> = primary.iter().map(|o| o.verify_ms).collect();
    add_or_note(
        &mut r,
        "serve.client.verify_ms_p50",
        "ms",
        &client_verify,
        0.5,
    );
    let residual: Vec<f64> = primary
        .iter()
        .map(|o| {
            let t = o.timing.as_ref().expect("filtered");
            let server_ms = (t.queue_us + t.embed_us + t.verify_us + t.encode_us) as f64 / 1e3;
            o.from_send_ms - server_ms - o.verify_ms
        })
        .collect();
    add_or_note(
        &mut r,
        "serve.server.unattributed_ms_p50",
        "ms",
        &residual,
        0.5,
    );
    add_or_note(
        &mut r,
        "serve.request.from_send_ms_p50",
        "ms",
        &primary.iter().map(|o| o.from_send_ms).collect::<Vec<_>>(),
        0.5,
    );
    generator_notes(&mut r, &open, kind.rate(), seconds);
    stats_report(&mut r, &stats);

    let stream_ms = open.pick(|o| Some(o.verify_ms));
    let stream_vertices: u64 = open.outcomes.iter().map(|o| o.vertices).sum();
    crate::replay::serve_layers(kind, seed, &mut r, &paths.work)?;
    crate::embed::stream_report(&mut r, &stream_ms, stream_vertices)?;
    Ok(r)
}

/// Counters from the server's `stats` reply.
fn stats_report(r: &mut Report, stats: &Json) {
    let num = |path: &[&str]| -> f64 {
        let mut v = stats;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_u64().map_or(0.0, |x| x as f64)
    };
    let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    r.add(
        "serve.cache.hit_rate",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    r.add(
        "serve.cache.resident_mib",
        "MiB",
        num(&["cache", "bytes"]) / (1 << 20) as f64,
        1,
    );
    r.add(
        "serve.cache.evictions",
        "count",
        num(&["cache", "evictions"]),
        1,
    );
    r.note(format!(
        "server stats: oracle literal_hits {} canonical_hits {} misses {}; store hits {} misses {} corrupt {} records {}",
        num(&["oracle", "literal_hits"]),
        num(&["oracle", "canonical_hits"]),
        num(&["oracle", "misses"]),
        num(&["oracle", "store", "hits"]),
        num(&["oracle", "store", "misses"]),
        num(&["oracle", "store", "corrupt"]),
        num(&["oracle", "store", "records"]),
    ));
}
