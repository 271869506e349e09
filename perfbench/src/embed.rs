//! The `embed-fresh` workload, the independent ring check, and the
//! traced replay of the embed core's layers.

use std::time::{Duration, Instant};

use star_perm::Perm;
use star_ring::{embed_longest_ring, expand, hierarchy, oracle, positions};
use star_serve::proto::{ChunkFrame, RingDelta};
use star_serve::StreamVerifier;

use crate::inputs::{self, Scenario};
use crate::stats::{ms, setup_median, Report};
use crate::sys;

/// Checks a ring with a checker other than the core's own self-verify:
/// delta encoding proves every step is a star edge, and the serve
/// layer's [`StreamVerifier`] checks faults, uniqueness, the closing
/// edge and the exact length `n! - 2|F_v|`. Returns the time spent in
/// the encode and in the verifier.
pub fn check_ring(s: &Scenario, ring: &[Perm]) -> Result<(Duration, Duration), String> {
    if ring.len() as u64 != s.ring_len() {
        return Err(format!(
            "ring of {} vertices, n! - 2|F_v| = {}",
            ring.len(),
            s.ring_len()
        ));
    }
    let t = Instant::now();
    let delta = RingDelta::encode(ring)?;
    let encode = t.elapsed();
    let t = Instant::now();
    let mut verifier = StreamVerifier::new(s.n, s.ring_len(), &s.faults)?;
    verifier.feed(&ChunkFrame {
        n: s.n as u8,
        last: true,
        seq: 0,
        cursor: 0,
        segment: delta,
    })?;
    let summary = verifier.finish()?;
    let verify = t.elapsed();
    if !summary.at_guarantee {
        return Err("stream verifier reports a ring short of n! - 2|F_v|".to_string());
    }
    Ok((encode, verify))
}

/// Set-up of `embed-fresh`: the Lemma-4 oracle table and the first
/// inputs. Returns the seconds it took.
pub fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    oracle::warm();
    std::hint::black_box(inputs::embed_fresh(seed, 1));
    t.elapsed().as_secs_f64()
}

/// Set-up runs this many times per run (one in this process, the rest
/// in fresh child processes, since the oracle table is built once per
/// process); `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn setup_seconds(seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = vec![setup(seed)];
    for _ in 1..SETUP_REPS {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", "--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("setup probe printed {text:?}"))?;
        times.push(secs);
    }
    Ok(times)
}

/// One timed embed followed by its untimed check.
struct Embedded {
    dur: Duration,
    vertices: u64,
    check: Result<(Duration, Duration), String>,
}

fn embed_checked(s: &Scenario) -> Embedded {
    let t = Instant::now();
    let result = embed_longest_ring(s.n, &s.faults);
    let dur = t.elapsed();
    match result {
        Ok(ring) => Embedded {
            dur,
            vertices: ring.len() as u64,
            check: check_ring(s, ring.vertices()),
        },
        Err(e) => Embedded {
            dur,
            vertices: 0,
            check: Err(format!("embed failed: {e}")),
        },
    }
}

/// Share of `--seconds` spent embedding `n = 9` scenarios; checking each
/// ring takes about as long again, outside the timed calls.
const EMBED_SHARE: f64 = 0.8;

/// Runs `embed-fresh`: distinct `n = 9` scenarios in a closed loop on
/// this thread until `EMBED_SHARE * seconds` of embed time have
/// accumulated, then the fixed `n = 10` tail. Every ring is checked
/// outside the timed call.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let setups = setup_seconds(seed)?;
    let mut r = Report::default();
    let mut embed9 = Vec::new();
    let (mut busy, mut vertices) = (Duration::ZERO, 0u64);
    let mut tail = inputs::embed_fresh_tail(seed).into_iter();
    let mut i = 0;
    loop {
        let s = if busy.as_secs_f64() < seconds * EMBED_SHARE {
            i += 1;
            inputs::embed_fresh(seed, i - 1)
        } else {
            match tail.next() {
                Some(s) => s,
                None => break,
            }
        };
        let e = embed_checked(&s);
        r.attempted += 1;
        busy += e.dur;
        if let Err(msg) = &e.check {
            r.failed += 1;
            eprintln!(
                "embed-fresh: n={} |F_v|={}: {msg}",
                s.n,
                s.faults.vertex_fault_count()
            );
            continue;
        }
        vertices += e.vertices;
        if s.n == 9 {
            embed9.push(ms(e.dur));
        }
    }
    r.add("setup_s", "s", setup_median(&setups), setups.len());
    r.add("peak_rss_mib", "MiB", sys::peak_rss_mib("self")?, 1);
    r.add(
        "fail_frac",
        "ratio",
        r.failed as f64 / r.attempted as f64,
        r.attempted as usize,
    );
    r.add_percentile("embed_ms_p50", "ms", &embed9, 0.5)?;
    r.add_percentile("embed_ms_p95", "ms", &embed9, 0.95)?;
    r.add(
        "vertices_per_s",
        "1/s",
        vertices as f64 / busy.as_secs_f64(),
        r.attempted as usize,
    );
    r.export("setup_s", "setup_s");
    r.export("peak_rss_mib", "peak_rss_mib");
    r.export("embed_ms_p50", "latency_ms_p50");
    r.export("vertices_per_s", "vertices_per_s");
    Ok(r)
}

/// Per-layer timings of the embed core on a list of scenarios.
#[derive(Default)]
pub struct CoreLayers {
    pub hierarchy_ms: Vec<f64>,
    pub expand_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub embed_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub stream_verify_ms: Vec<f64>,
    pub stream_vertices: u64,
    pub hierarchy_peak_mib: f64,
    pub expand_peak_mib: f64,
    pub failed: u64,
}

/// Replays `scenarios` through the core's public calls, timing each:
/// `positions::select_positions` then `hierarchy::build_r4` and
/// `expand::expand_with_salt` as the embedder calls them, and a full
/// `embed_longest_ring` whose `embed.verify` span gives the self-verify
/// time. The peak-memory figures come from [`probe_layer_peaks`].
pub fn core_replay(scenarios: &[Scenario]) -> CoreLayers {
    let mut c = CoreLayers::default();
    for s in scenarios {
        let Ok(plan) = positions::select_positions(s.n, &s.faults) else {
            c.failed += 1;
            continue;
        };
        let t = Instant::now();
        let r4 = hierarchy::build_r4(s.n, &s.faults, &plan);
        c.hierarchy_ms.push(ms(t.elapsed()));
        let Ok(r4) = r4 else {
            c.failed += 1;
            continue;
        };
        let t = Instant::now();
        let ring = expand::expand_with_salt(&r4, &s.faults, plan.spare[0], 0);
        c.expand_ms.push(ms(t.elapsed()));
        drop((r4, ring));

        let capture = star_obs::capture();
        let t = Instant::now();
        let ring = embed_longest_ring(s.n, &s.faults);
        let total = t.elapsed();
        let spans = capture.finish();
        let Ok(ring) = ring else {
            c.failed += 1;
            continue;
        };
        c.embed_ms.push(ms(total));
        let verify_ns: u64 = spans
            .iter()
            .filter(|sp| sp.name == "embed.verify")
            .map(|sp| sp.dur_ns)
            .sum();
        c.verify_ms.push(verify_ns as f64 / 1e6);
        match check_ring(s, ring.vertices()) {
            Ok((encode, verify)) => {
                c.encode_ms.push(ms(encode));
                c.stream_verify_ms.push(ms(verify));
                c.stream_vertices += ring.len() as u64;
            }
            Err(_) => c.failed += 1,
        }
    }
    c
}

/// Peak RSS growth (MiB) across `hierarchy::build_r4` and then across
/// `expand::expand_with_salt` on `s`, each measured after resetting the
/// peak. Meant for a fresh process: one that has already freed large
/// blocks reuses them and shows no growth.
pub fn layer_peaks(s: &Scenario) -> Result<(f64, f64), String> {
    oracle::warm();
    let plan = positions::select_positions(s.n, &s.faults).map_err(|e| e.to_string())?;
    sys::reset_peak()?;
    let before = sys::rss_mib();
    let r4 = hierarchy::build_r4(s.n, &s.faults, &plan).map_err(|e| e.to_string())?;
    let hierarchy = sys::peak_rss_mib("self")? - before;
    sys::reset_peak()?;
    let before = sys::rss_mib();
    let ring =
        expand::expand_with_salt(&r4, &s.faults, plan.spare[0], 0).map_err(|e| e.to_string())?;
    let expand = sys::peak_rss_mib("self")? - before;
    drop(ring);
    Ok((hierarchy, expand))
}

/// Runs [`layer_peaks`] on the workload's largest scenario in a fresh
/// child process.
pub fn probe_layer_peaks(workload: &str, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--layer-peak",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("layer peak probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), it.next(), it.next()) {
        (true, Some(Ok(h)), Some(Ok(e))) => Ok((h, e)),
        _ => Err(format!(
            "layer peak probe failed: {text:?} {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

impl CoreLayers {
    /// Adds the core's per-layer figures to `r`; the ones every workload
    /// measures are exported under the `BENCHMARK.json` per-layer names.
    pub fn report(&self, r: &mut Report) -> Result<(), String> {
        r.add_percentile("core.hierarchy.ms_p50", "ms", &self.hierarchy_ms, 0.5)?;
        r.add("core.hierarchy.peak_mib", "MiB", self.hierarchy_peak_mib, 1);
        r.add_percentile("core.expand.ms_p50", "ms", &self.expand_ms, 0.5)?;
        r.add("core.expand.peak_mib", "MiB", self.expand_peak_mib, 1);
        r.add_percentile("core.verify.ms_p50", "ms", &self.verify_ms, 0.5)?;
        let share = self.verify_ms.iter().sum::<f64>() / self.embed_ms.iter().sum::<f64>();
        r.add("core.verify.share", "ratio", share, self.verify_ms.len());
        r.add_percentile(
            "serve.proto.delta_encode_ms_p50",
            "ms",
            &self.encode_ms,
            0.5,
        )?;
        let stats = oracle::cache_stats();
        let lookups = stats.hits + stats.misses;
        r.add(
            "core.oracle.hit_rate",
            "ratio",
            if lookups == 0 {
                1.0
            } else {
                stats.hits as f64 / lookups as f64
            },
            lookups as usize,
        );
        for name in [
            "core.hierarchy.ms_p50",
            "core.hierarchy.peak_mib",
            "core.expand.ms_p50",
            "core.expand.peak_mib",
            "core.verify.ms_p50",
            "core.verify.share",
            "core.oracle.hit_rate",
            "serve.proto.delta_encode_ms_p50",
        ] {
            r.export(name, name);
        }
        Ok(())
    }
}

/// Scenarios the traced replay of `embed-fresh` runs through the core.
const REPLAY_SCENARIOS: u64 = 24;

/// Traced run of `embed-fresh`. Each scenario is embedded twice, once
/// plain and once with span capture on (the tracing whose cost is
/// reported), in alternating order, for the same embed time as an
/// untraced run; then
/// the core's layers are replayed one public call at a time.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let t = Instant::now();
    oracle::warm();
    let warm_ms = ms(t.elapsed());
    let mut r = Report::default();
    r.add("core.oracle.warm_ms", "ms", warm_ms, 1);
    r.export("core.oracle.warm_ms", "core.oracle.warm_ms");
    let (hierarchy_peak, expand_peak) = probe_layer_peaks("embed-fresh", seed)?;

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut busy, mut i) = (Duration::ZERO, 0);
    while busy.as_secs_f64() < seconds * EMBED_SHARE {
        let s = inputs::embed_fresh(seed, i);
        for with_spans in [i % 2 == 0, i % 2 == 1] {
            let capture = with_spans.then(star_obs::capture);
            let e = embed_checked(&s);
            drop(capture.map(star_obs::Capture::finish));
            busy += e.dur;
            r.attempted += 1;
            match (e.check, with_spans) {
                (Ok(_), true) => traced.push(ms(e.dur)),
                (Ok(_), false) => plain.push(ms(e.dur)),
                (Err(_), _) => r.failed += 1,
            }
        }
        i += 1;
    }
    let p_plain = r.add_percentile("untraced.embed_ms_p50", "ms", &plain, 0.5)?;
    let p_traced = r.add_percentile("traced.embed_ms_p50", "ms", &traced, 0.5)?;
    trace_ratio(&mut r, p_traced, p_plain, traced.len());

    let scenarios: Vec<Scenario> = (0..REPLAY_SCENARIOS)
        .map(|j| inputs::embed_fresh(seed, j))
        .collect();
    let mut core = core_replay(&scenarios);
    core.hierarchy_peak_mib = hierarchy_peak;
    core.expand_peak_mib = expand_peak;
    r.failed += core.failed;
    core.report(&mut r)?;
    stream_report(&mut r, &core.stream_verify_ms, core.stream_vertices)?;
    let big = inputs::largest("embed-fresh", seed);
    r.note(format!(
        "replay: {} n=9 scenarios; peak_mib for n={} |F_v|={}; stream verify here is the \
         benchmark's own ring check",
        scenarios.len(),
        big.n,
        big.faults.vertex_fault_count()
    ));
    Ok(r)
}

/// `bench.trace.ratio`: traced p50 ÷ untraced p50, about 1 and always
/// positive, so a relative comparison between runs means something; the
/// overhead (ratio − 1) is printed beside it but not exported.
pub fn trace_ratio(r: &mut Report, traced_p50: f64, plain_p50: f64, samples: usize) {
    let ratio = traced_p50 / plain_p50;
    r.add("bench.trace.ratio", "ratio", ratio, samples);
    r.export("bench.trace.ratio", "bench.trace.ratio");
    r.note(format!(
        "tracing overhead: {:+.1}% of the untraced p50",
        100.0 * (ratio - 1.0)
    ));
}

/// `serve.stream.*`: the client-side stream verifier's time per ring and
/// per vertex.
pub fn stream_report(r: &mut Report, verify_ms: &[f64], vertices: u64) -> Result<(), String> {
    r.add_percentile("serve.stream.verify_ms_p50", "ms", verify_ms, 0.5)?;
    let total_ns = verify_ms.iter().sum::<f64>() * 1e6;
    r.add(
        "serve.stream.ns_per_vertex",
        "ns",
        total_ns / vertices.max(1) as f64,
        verify_ms.len(),
    );
    r.export("serve.stream.verify_ms_p50", "serve.stream.verify_ms_p50");
    r.export("serve.stream.ns_per_vertex", "serve.stream.ns_per_vertex");
    Ok(())
}
