//! In-process replay of a serve workload's seeded inputs through the
//! public calls of each serve-path layer, one call timed at a time:
//! `Request::parse`, `Canonicalizer::canonicalize`, `ResultCache::get`,
//! `Store::get` / `Store::append_batch`, `RingDelta::encode` /
//! `map_through`, and `chunk_stream` + `ChunkFrame::encode`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use star_oracle::{pack_ring, Canon, Canonicalizer, Store};
use star_ring::{embed_longest_ring, EmbedOptions};
use star_serve::cache::{key_for, CacheKey, ResultCache};
use star_serve::proto::{chunk_stream, ChunkFrame, Request, RingDelta, DEFAULT_CHUNK_VERTICES};

use crate::embed::{core_replay, probe_layer_peaks};
use crate::inputs::{self, ColdStream, OrbitStream, Scenario};
use crate::serve::{request_for, Kind, CONNS};
use crate::stats::{ms, Report};

/// Requests replayed per connection stream.
const REPLAY_REQUESTS: usize = 200;
/// Scenarios replayed through the embed core.
const CORE_SCENARIOS: usize = 24;
/// Stored records per `append_batch` call.
const STORE_BATCH: usize = 2;
/// The server's default LRU budget.
const CACHE_BYTES: usize = 256 << 20;

/// The request sample: the first requests of every connection stream,
/// interleaved as the connections would send them.
fn requests(kind: Kind, seed: u64) -> Vec<Scenario> {
    let per_conn: Vec<Vec<Scenario>> = (0..CONNS as u64)
        .map(|c| match kind {
            Kind::Orbit => OrbitStream::new(seed, c).take(REPLAY_REQUESTS).collect(),
            Kind::Cold => ColdStream::new(seed, c).take(REPLAY_REQUESTS).collect(),
        })
        .collect();
    (0..REPLAY_REQUESTS)
        .flat_map(|i| per_conn.iter().map(move |v| v[i].clone()))
        .collect()
}

/// A scenario's ring as the server caches and stores it: delta encoded,
/// in the canonical frame of its orbit.
fn canonical_delta(s: &Scenario, canon: &Canon) -> Result<RingDelta, String> {
    let ring = embed_longest_ring(s.n, &s.faults).map_err(|e| e.to_string())?;
    let delta = RingDelta::encode(ring.vertices())?;
    Ok(if canon.witness().is_identity() {
        delta
    } else {
        delta.map_through(canon.witness())
    })
}

fn key(canon: &Canon) -> CacheKey {
    key_for(canon, &EmbedOptions::default())
}

/// Replays the serve layers of `kind` on its seeded inputs and adds the
/// per-layer figures to `r`.
pub fn serve_layers(kind: Kind, seed: u64, r: &mut Report, work: &Path) -> Result<(), String> {
    // What the server embeds: the base pool (serve-orbit set-up) or the
    // never-seen scenarios (serve-cold misses).
    let reqs = requests(kind, seed);
    let embedded: Vec<Scenario> = match kind {
        Kind::Orbit => inputs::orbit_base(seed),
        Kind::Cold => ColdStream::new(seed, 0)
            .step_by(2)
            .take(CORE_SCENARIOS)
            .collect(),
    };
    let mut core = core_replay(&embedded);
    (core.hierarchy_peak_mib, core.expand_peak_mib) = probe_layer_peaks(kind.name(), seed)?;
    r.failed += core.failed;
    core.report(r)?;

    // What the server holds before the measured requests.
    let canonicalizer = Canonicalizer::default();
    let held: Vec<Scenario> = match kind {
        Kind::Orbit => inputs::orbit_base(seed),
        Kind::Cold => inputs::cold_stored(seed),
    };
    let mut held_deltas = Vec::new();
    for s in &held {
        let (canon, _) = canonicalizer.canonicalize(s.n, &s.ranks());
        held_deltas.push((key(&canon), canonical_delta(s, &canon)?));
    }

    let cache = ResultCache::with_budget(CACHE_BYTES);
    let store_dir = work.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir).map_err(|e| format!("replay store: {e}"))?;
    let mut append_ms = Vec::new();
    match kind {
        Kind::Orbit => {
            for (k, d) in &held_deltas {
                cache.insert(k.clone(), Arc::new(d.clone()));
            }
        }
        Kind::Cold => {
            for batch in held_deltas.chunks(STORE_BATCH) {
                let records: Vec<_> = batch
                    .iter()
                    .map(|(k, d)| (k.clone(), pack_ring(&d.decode())))
                    .collect();
                let t = Instant::now();
                store
                    .append_batch(&records)
                    .map_err(|e| format!("append_batch: {e}"))?;
                append_ms.push(ms(t.elapsed()));
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    let stored_vertices: u64 = held_deltas
        .iter()
        .filter(|(k, _)| seen.insert(k))
        .map(|(_, d)| u64::from(d.len()))
        .sum();

    let (mut parse_us, mut search_ms, mut get_us, mut store_ms) = (vec![], vec![], vec![], vec![]);
    let (mut encode_ms, mut map_ms, mut chunk_ms) = (vec![], vec![], vec![]);
    let (mut repeats, mut wire_bytes, mut wire_vertices) = (0usize, 0u64, 0u64);
    for (i, s) in reqs.iter().enumerate() {
        let body = request_for(s, i as u64, false).to_string();
        let t = Instant::now();
        let parsed = Request::parse(body.as_bytes());
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        parsed?;

        let t = Instant::now();
        let (canon, repeat) = canonicalizer.canonicalize(s.n, &s.ranks());
        if repeat {
            repeats += 1;
        } else {
            search_ms.push(ms(t.elapsed()));
        }
        let k = key(&canon);
        let t = Instant::now();
        let cached = cache.get(&k);
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        let delta_c = match (kind, cached) {
            (Kind::Orbit, Some(d)) => d,
            (Kind::Orbit, None) => continue,
            (Kind::Cold, _) => {
                let t = Instant::now();
                let Some(ring) = store.get(&k) else { continue };
                store_ms.push(ms(t.elapsed()));
                let t = Instant::now();
                let d = RingDelta::encode(&ring)?;
                encode_ms.push(ms(t.elapsed()));
                Arc::new(d)
            }
        };
        let delta = if canon.witness().is_identity() {
            delta_c
        } else {
            let t = Instant::now();
            let d = delta_c.map_through(&canon.witness().inverse());
            map_ms.push(ms(t.elapsed()));
            Arc::new(d)
        };
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = chunk_stream(&delta, 0, DEFAULT_CHUNK_VERTICES)?
            .iter()
            .map(ChunkFrame::encode)
            .collect();
        chunk_ms.push(ms(t.elapsed()));
        wire_bytes += frames.iter().map(|f| f.len() as u64 + 4).sum::<u64>();
        wire_vertices += u64::from(delta.len());
    }

    let pct = |r: &mut Report, name: &str, unit: &'static str, v: &[f64]| {
        if let Err(e) = r.add_percentile(name, unit, v, 0.5) {
            r.note(e);
        }
    };
    pct(r, "serve.proto.parse_us_p50", "us", &parse_us);
    pct(r, "oracle.canon.search_ms_p50", "ms", &search_ms);
    r.add(
        "oracle.canon.memo_hit_rate",
        "ratio",
        repeats as f64 / reqs.len() as f64,
        reqs.len(),
    );
    pct(r, "serve.proto.map_through_ms_p50", "ms", &map_ms);
    pct(r, "serve.proto.chunk_ms_p50", "ms", &chunk_ms);
    r.add(
        "serve.proto.wire_bytes_per_vertex",
        "B",
        wire_bytes as f64 / wire_vertices.max(1) as f64,
        chunk_ms.len(),
    );
    match kind {
        Kind::Orbit => pct(r, "serve.cache.get_us_p50", "us", &get_us),
        Kind::Cold => {
            pct(r, "oracle.store.get_ms_p50", "ms", &store_ms);
            pct(r, "oracle.store.append_ms_p50", "ms", &append_ms);
            pct(r, "serve.proto.reencode_ms_p50", "ms", &encode_ms);
            let st = store.stats();
            r.add(
                "oracle.store.bytes_per_vertex",
                "B",
                st.bytes as f64 / stored_vertices.max(1) as f64,
                st.records as usize,
            );
            r.add("oracle.store.hits", "count", st.hits as f64, 1);
            r.add("oracle.store.misses", "count", st.misses as f64, 1);
            r.add("oracle.store.corrupt", "count", st.corrupt as f64, 1);
        }
    }
    let big = inputs::largest(kind.name(), seed);
    r.note(format!(
        "replay: {} requests, core replay of {} scenarios (peak_mib for n={} |F_v|={})",
        reqs.len(),
        embedded.len(),
        big.n,
        big.faults.vertex_fault_count()
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
