//! The `serve_mix` workload: `castg serve` spawned in-process (2-worker
//! pool, 1 thread per campaign) and driven open-loop at a fixed offered
//! rate by a seeded mix of three request classes over small decks:
//!
//! * **repeat** — a request answered before: a result-cache hit;
//! * **new options** — `ladder_param.sp` with a new `bridge_ohms` or
//!   `skip_faults`: a result-cache miss on a plan-cache hit;
//! * **new deck** — `ladder_param.sp` with a new `rser` parameter:
//!   both caches miss. It comes in two sizes: a tenth of all requests
//!   are **heavy**, with twice the faults, and make the mix's tail.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use castg_netlist::{canonical_deck_bytes, parse_deck};
use castg_serve::server::{spawn, ServerConfig, ServerHandle};
use castg_serve::{request_digest, DigestOptions};

use crate::json::{self, Json};
use crate::loadgen::{self, Conn, Job};
use crate::util::{median, quantile, Metrics, Rng};
use crate::{Outcome, RunArgs};

const DIVIDER_DECK: &str = include_str!("../../tests/fixtures/divider.sp");
const DIVIDER_CFG_DC: &str = include_str!("../../tests/fixtures/divider_configs/1_dc_out.cfg");
const DIVIDER_CFG_STEP: &str = include_str!("../../tests/fixtures/divider_configs/2_step_dev.cfg");
const LADDER_DECK: &str = include_str!("../../tests/fixtures/ladder_param.sp");

const LADDER_CFG: &str = "\
macro type: RC ladder
test configuration: DC output
control V1: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.2
variable box_floor: 1e-3
seed lev: 5
";

/// Client connections.
const CONNECTIONS: usize = 2;
/// Daemon set-ups timed for `setup_s`.
const SETUP_REPS: usize = 15;
/// Class shares of the schedule: repeats, new options, new decks,
/// heavy. An assumption, not a measured traffic mix. Hits are under a
/// third, so the median request is a miss (engine work): a hit majority
/// would put the median on a sub-millisecond loopback round trip, which
/// drifts with the host by more than any bound on it could allow. The
/// heavy tenth is the tail: the 95th percentile falls in the middle of
/// the heavy requests, not on the edge of the ordinary misses, where it
/// would swing with how many of them a host stall happened to stretch.
const SHARES: [f64; 4] = [0.3, 0.3, 0.3, 0.1];
/// Offered load, requests per second. A utilisation target: an
/// ordinary miss takes about 0.1 s and a heavy one about 0.2 s on 2
/// vCPUs, so the misses keep the 2-worker pool about 20 % busy and
/// latency is service time rather than queueing, which would amplify
/// host drift. A 50 s run then has 200 requests, 10 of them beyond the
/// 95th percentile.
const RATE: f64 = 4.0;
/// Faults per ladder campaign. A host that stalls a process for a few
/// tens of milliseconds stretches a short miss by a larger share than a
/// long one, so `p95_ms` steadies as misses grow: its run-to-run spread
/// roughly halved from 4 to 16 faults in interleaved runs, and 32 keeps
/// a miss several times longer than such a stall.
const LADDER_FAULTS: usize = 32;
/// Faults per heavy campaign.
const HEAVY_FAULTS: usize = 2 * LADDER_FAULTS;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn campaign(name: &str, deck: &str, configs: &[&str], extra: &str) -> Vec<u8> {
    let configs: Vec<String> = configs.iter().map(|c| format!("\"{}\"", esc(c))).collect();
    format!(
        "{{\"name\": \"{name}\", \"deck\": \"{}\", \"configs\": [{}]{extra}}}",
        esc(deck),
        configs.join(", ")
    )
    .into_bytes()
}

fn divider(extra: &str) -> Vec<u8> {
    campaign(
        "divider",
        DIVIDER_DECK,
        &[DIVIDER_CFG_DC, DIVIDER_CFG_STEP],
        extra,
    )
}

fn ladder(extra: &str) -> Vec<u8> {
    ladder_faults(LADDER_FAULTS, extra)
}

fn ladder_faults(faults: usize, extra: &str) -> Vec<u8> {
    let extra = format!(", \"faults\": \"adjacent\", \"max_faults\": {faults}{extra}");
    campaign("ladder", LADDER_DECK, &[LADDER_CFG], &extra)
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Repeat,
    NewOptions,
    NewDeck,
    Heavy,
}

/// The seeded schedule: fixed class shares in seeded order, one
/// request every `1 / RATE` seconds, every miss-class key unique and
/// never equal to a warm-up key (the offsets keep new `bridge_ohms`
/// off 10 k and 20 k, and new `rser` off the deck's 1 k).
fn schedule(seed: u64, seconds: f64, warm: &[Vec<u8>]) -> Vec<(Class, Job)> {
    let mut rng = Rng::derive(seed, 3);
    let n = (seconds * RATE).round().max(1.0) as usize;
    let mut classes: Vec<Class> = Vec::with_capacity(n);
    for (class, share) in [Class::Repeat, Class::NewOptions, Class::NewDeck]
        .into_iter()
        .zip(SHARES)
    {
        let count = (n as f64 * share).round() as usize;
        classes.extend(std::iter::repeat_n(class, count.min(n - classes.len())));
    }
    classes.resize(n, Class::Heavy);
    rng.shuffle(&mut classes);
    // Unique keys: each miss-class request draws a distinct integer;
    // skips count up instead, to stay inside the ladder's dictionary.
    // New options alternate between the two, so they split evenly.
    let mut keys: Vec<usize> = (1..=n).collect();
    rng.shuffle(&mut keys);
    let (mut new_options, mut skips) = (0, 0);
    classes
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let key = keys[i];
            let body = match class {
                Class::Repeat => warm[rng.below(warm.len())].clone(),
                Class::NewOptions => {
                    new_options += 1;
                    if new_options % 2 == 1 {
                        ladder(&format!(
                            ", \"bridge_ohms\": {}",
                            5005.0 + key as f64 * 10.0
                        ))
                    } else {
                        skips += 1;
                        ladder(&format!(", \"skip_faults\": {skips}"))
                    }
                }
                Class::NewDeck | Class::Heavy => {
                    let faults = if class == Class::Heavy {
                        HEAVY_FAULTS
                    } else {
                        LADDER_FAULTS
                    };
                    ladder_faults(
                        faults,
                        &format!(", \"params\": {{\"rser\": {}}}", 900.25 + key as f64 * 0.5),
                    )
                }
            };
            let due = Duration::from_secs_f64(i as f64 / RATE);
            (class, Job { due, body })
        })
        .collect()
}

fn start(workers: usize) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        workers,
        threads_per_campaign: 1,
        ..ServerConfig::default()
    };
    spawn(config).map_err(|e| format!("cannot start daemon: {e}"))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn get_json(conn: &mut Conn, path: &str) -> Result<Json, String> {
    let r = conn
        .request("GET", path, b"")
        .map_err(|e| format!("GET {path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    json::parse(&r.body).map_err(|e| format!("GET {path}: {e}"))
}

/// A daemon ready to play the schedule.
struct Daemon {
    handle: ServerHandle,
    /// The connection that warmed it; it also reads `/v1/stats`.
    control: Conn,
    /// The miss body of each warm-up request, which every repeat of it
    /// must replay byte for byte.
    miss_bodies: HashMap<Vec<u8>, Vec<u8>>,
    /// Spawn → first 200 from `/v1/health` → every warm-up answered.
    setup_s: f64,
}

/// Spawns a daemon, waits for its first 200 from `/v1/health` and warms
/// its caches with `warm`.
fn warm_daemon(workers: usize, warm: &[Vec<u8>]) -> Result<Daemon, String> {
    let t = Instant::now();
    let handle = start(workers)?;
    let ready = (|| {
        let mut control = Conn::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
        get_json(&mut control, "/v1/health")?;
        let mut miss_bodies = HashMap::new();
        for body in warm {
            let r = control
                .request("POST", "/v1/campaign", body)
                .map_err(|e| format!("warm-up: {e}"))?;
            if r.status != 200 {
                return Err(format!(
                    "warm-up: status {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                ));
            }
            miss_bodies.entry(body.clone()).or_insert(r.body);
        }
        Ok((control, miss_bodies))
    })();
    let setup_s = t.elapsed().as_secs_f64();
    match ready {
        Ok((control, miss_bodies)) => Ok(Daemon {
            handle,
            control,
            miss_bodies,
            setup_s,
        }),
        Err(e) => {
            stop(handle);
            Err(e)
        }
    }
}

/// `[result hits, result misses, plan hits, plan misses]` from a
/// `/v1/stats` body.
fn cache_counters(stats: &Json) -> Result<[f64; 4], String> {
    let n = |cache: &str, key: &str| match stats.path(&[cache, key]) {
        Some(Json::Num(x)) => Ok(*x),
        _ => Err(format!("/v1/stats has no {cache}.{key}")),
    };
    Ok([
        n("result_cache", "hits")?,
        n("result_cache", "misses")?,
        n("plan_cache", "hits")?,
        n("plan_cache", "misses")?,
    ])
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let warm = vec![divider(""), ladder(""), divider(", \"bridge_ohms\": 20000")];
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        let daemon = warm_daemon(args.workers, &warm)?;
        setups.push(daemon.setup_s);
        drop(daemon.control);
        stop(daemon.handle);
    }
    // The last set-up's daemon plays the schedule.
    let mut daemon = warm_daemon(args.workers, &warm)?;
    setups.push(daemon.setup_s);
    m.set("setup_s", median(&setups));
    eprintln!(
        "serve_mix: set-up median of {SETUP_REPS} = {:.6} s",
        median(&setups)
    );

    let addr = daemon.handle.addr;
    let mut result = drive(&mut daemon, &warm, args, &mut m);
    if args.trace && result.is_ok() {
        if let Err(e) = keepalive_probe(addr, &mut m) {
            result = Err(e);
        }
    }
    drop(daemon.control);
    stop(daemon.handle);
    let (attempted, failed, errors) = result?;
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    if args.trace {
        digest_probe(&mut m)?;
    }
    Ok(Outcome {
        metrics: m,
        correct: errors.is_empty(),
        attempted,
        failed,
    })
}

/// Plays the schedule against a warmed daemon and checks every answer.
/// Returns `(attempted, failed, failed checks)`.
fn drive(
    daemon: &mut Daemon,
    warm: &[Vec<u8>],
    args: &RunArgs,
    m: &mut Metrics,
) -> Result<(usize, usize, Vec<String>), String> {
    let mut errors = Vec::new();
    let (addr, control, miss_bodies) =
        (daemon.handle.addr, &mut daemon.control, &daemon.miss_bodies);
    let jobs = schedule(args.seed, args.seconds, warm);
    let before = cache_counters(&get_json(control, "/v1/stats")?)?;
    let (classes, jobs): (Vec<Class>, Vec<Job>) = jobs.into_iter().unzip();
    let (samples, t0) = loadgen::play(addr, &jobs, CONNECTIONS);
    let span = t0.elapsed().as_secs_f64();
    let after = cache_counters(&get_json(control, "/v1/stats")?)?;

    let limit = args.goodput_limit_ms;
    let (mut ok, mut good, mut hits, mut failed) = (0usize, 0usize, 0usize, 0usize);
    let (mut hit_rtt, mut miss_rtt, mut pipeline_ms, mut latencies, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Faults and client-timed round trips over the miss responses.
    let (mut faults, mut detected, mut miss_s, mut tests) = (0.0, 0.0, 0.0, Vec::new());
    let mut class_latencies: [Vec<f64>; 4] = Default::default();
    for ((sample, job), class) in samples.iter().zip(&jobs).zip(&classes) {
        latencies.push(sample.latency_ms);
        class_latencies[*class as usize].push(sample.latency_ms);
        late.push(sample.late_ms);
        let Some(r) = &sample.response else {
            failed += 1;
            continue;
        };
        if r.status != 200 {
            failed += 1;
            eprintln!("status {}: {}", r.status, String::from_utf8_lossy(&r.body));
            continue;
        }
        ok += 1;
        if sample.latency_ms <= limit {
            good += 1;
        }
        let report = match json::parse(&r.body) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("response body is not strict JSON: {e}"));
                continue;
            }
        };
        match r.header("x-castg-cache") {
            Some("hit") => {
                hits += 1;
                hit_rtt.push(sample.rtt_ms);
                if miss_bodies.get(&job.body) != Some(&r.body) {
                    errors.push("a cache hit differs from the miss it replays".to_string());
                }
            }
            Some("miss") => {
                miss_rtt.push(sample.rtt_ms);
                let field = |k: &str| report.num(k);
                match [
                    "generate_s",
                    "compact_s",
                    "evaluate_s",
                    "faults",
                    "detected",
                    "tests",
                ]
                .map(field)
                {
                    [Some(g), Some(c), Some(e), Some(f), Some(d), Some(t)] => {
                        pipeline_ms.push((g + c + e) * 1e3);
                        miss_s += sample.rtt_ms / 1e3;
                        faults += f;
                        detected += d;
                        tests.push(t);
                    }
                    _ => errors.push("a miss report lacks a stage time or count".to_string()),
                }
            }
            other => errors.push(format!("unexpected x-castg-cache header {other:?}")),
        }
        let expected = if *class == Class::Repeat {
            "hit"
        } else {
            "miss"
        };
        if r.header("x-castg-cache") != Some(expected) {
            errors.push(format!(
                "expected a {expected}, got {:?}",
                r.header("x-castg-cache")
            ));
        }
    }
    let delta: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    if delta[0] != hits as f64 {
        errors.push(format!(
            "/v1/stats counts {} hits, responses carried {hits}",
            delta[0]
        ));
    }

    let attempted = samples.len();
    m.set("faults_per_s", faults / miss_s);
    m.set("coverage_pct", 100.0 * detected / faults);
    m.set(
        "test_set_size",
        tests.iter().sum::<f64>() / tests.len().max(1) as f64,
    );
    m.set("p50_ms", quantile(&latencies, 0.5));
    m.set("p95_ms", quantile(&latencies, 0.95));
    m.set("goodput_rps", good as f64 / span);
    m.set("ok_pct", 100.0 * ok as f64 / attempted as f64);
    m.set("serve.hit_rtt_p50_ms", median(&hit_rtt));
    m.set("serve.miss_rtt_p50_ms", median(&miss_rtt));
    m.set("serve.miss_pipeline_ms", median(&pipeline_ms));
    m.set("serve.result_hits", delta[0]);
    m.set("serve.result_misses", delta[1]);
    m.set("serve.plan_hits", delta[2]);
    m.set("serve.plan_misses", delta[3]);
    m.set("loadgen.late_p95_ms", quantile(&late, 0.95));
    m.set("loadgen.sent", attempted as f64);
    m.set("run.rounds", 1.0);
    eprintln!(
        "serve_mix: {attempted} requests at {RATE}/s over {span:.2} s: {ok} ok, {hits} hits \
         (median RTT {:.3} ms), {} misses (median RTT {:.3} ms); latency p50 {:.3} ms, \
         p95 {:.3} ms, {good} within {limit} ms; median latency by class: repeat {:.3} ms, \
         new options {:.3} ms, new deck {:.3} ms, heavy {:.3} ms",
        median(&hit_rtt),
        miss_rtt.len(),
        median(&miss_rtt),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.95),
        median(&class_latencies[0]),
        median(&class_latencies[1]),
        median(&class_latencies[2]),
        median(&class_latencies[3]),
    );
    Ok((attempted, failed, errors))
}

/// Back-to-back requests on one kept-alive connection, each sent as
/// soon as the previous answer is read — the pattern of a client
/// replaying a job list — alternating repeats (hits) and new-option
/// misses. Unlike the open loop's idle gaps, this keeps the client's
/// TCP stack in delayed-ACK mode, which exposes any stall in how the
/// daemon writes a response.
fn keepalive_probe(addr: SocketAddr, m: &mut Metrics) -> Result<(), String> {
    const PAIRS: usize = 12;
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let repeat = divider("");
    conn.request("POST", "/v1/campaign", &repeat)
        .map_err(|e| format!("keep-alive probe: {e}"))?;
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for j in 0..PAIRS {
        // Far above any schedule key's bridge value, so every one is new.
        let miss = divider(&format!(", \"bridge_ohms\": {}", 1e6 + j as f64));
        for (body, into) in [(&repeat, &mut hits), (&miss, &mut misses)] {
            let t = Instant::now();
            let r = conn
                .request("POST", "/v1/campaign", body)
                .map_err(|e| format!("keep-alive probe: {e}"))?;
            if r.status != 200 {
                return Err(format!("keep-alive probe: status {}", r.status));
            }
            into.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.set("serve.keepalive_hit_rtt_p50_ms", median(&hits));
    m.set("serve.keepalive_miss_rtt_p50_ms", median(&misses));
    Ok(())
}

/// Times `request_digest` over the canonical ladder deck (the largest
/// key the mix hashes).
fn digest_probe(m: &mut Metrics) -> Result<(), String> {
    let deck = parse_deck(LADDER_DECK).map_err(|e| format!("ladder deck: {e}"))?;
    let canonical = canonical_deck_bytes(&deck).map_err(|e| format!("ladder deck: {e}"))?;
    let configs = vec![LADDER_CFG.to_string()];
    let options = DigestOptions::default();
    let times: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(request_digest(
                "ladder",
                &canonical,
                &configs,
                &deck.params,
                &options,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("serve.digest_us", median(&times));
    Ok(())
}
