//! The editor session, untraced: a resident `cquald` server in this
//! process, two closed-loop clients on the library client `cqual
//! --connect` uses.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qual_constinfer::Mode;
use qual_incr::proto::{AnalyzeReq, PROTO_VERSION};
use qual_incr::serve::{self, Connect, ServeConfig, ServerHandle};
use qual_lattice::QualSpace;

use crate::inputs::{Edits, Program};
use crate::oracle::{self, Answer};
use crate::report::{Metrics, Tally};
use rand::Rng;

use crate::util::{beyond, median, ms_since, process_cpu_ms, quantile, stream};

/// Set-ups timed per run; `setup_s` reports their median and the last
/// one serves the session.
const SETUPS: usize = 3;
/// Hover think time between the hover client's requests.
const THINK: Duration = Duration::from_millis(10);

pub fn request(src: &str) -> AnalyzeReq {
    AnalyzeReq {
        version: PROTO_VERSION,
        src: src.to_owned(),
        mode: Mode::Polymorphic,
        quals: "const".to_owned(),
        verify: false,
        deadline_ms: None,
    }
}

/// Starts a server with `cquald`'s defaults on a fresh cache directory
/// and primes it with one Analyze of `src`, which fills the cache cold.
/// Returns the handle, the socket, and the prime's report answer.
pub fn start_and_prime(
    run_dir: &Path,
    tag: &str,
    src: &str,
) -> Result<(ServerHandle, PathBuf, Answer), String> {
    let socket = run_dir.join(format!("{tag}.sock"));
    let mut cfg = ServeConfig::for_socket(socket.clone());
    cfg.incr.cache_dir = Some(run_dir.join(format!("{tag}.cache")));
    let handle = serve::serve(cfg)?;
    let rep = serve::request_analyze(&Connect::new(socket.clone()), &request(src))
        .map_err(|e| format!("prime: {e}"))?;
    Ok((handle, socket, oracle::served(&rep)?))
}

pub fn stop(handle: ServerHandle, run_dir: &Path, tag: &str) {
    let _ = handle.stop();
    let _ = std::fs::remove_dir_all(run_dir.join(format!("{tag}.cache")));
}

/// Which share of saves edit a hub, and of hover requests re-open.
const ONE_IN: u64 = 5;

pub fn run(
    prog: &Program,
    seconds: f64,
    seed: u64,
    run_dir: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let space = QualSpace::const_only();
    let reference = oracle::plain(&crate::cold::plain(&prog.src, &space), &space)
        .expect("the generated program analyses cleanly");
    let edits = Edits::new(&prog.src);
    let lines = prog.lines + 1;

    // Set-up is counted in CPU time, like throughput: the cold fill's
    // thousands of fsync'd stores made its wall time swing between 5 s
    // and 13 s on one machine within an hour. The wall time is printed.
    let mut setups = Vec::new();
    let mut setups_wall = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let tag = format!("setup{k}");
        let t = Instant::now();
        let c = process_cpu_ms();
        let started = start_and_prime(run_dir, &tag, &prog.src);
        setups.push((process_cpu_ms() - c) / 1e3);
        setups_wall.push(t.elapsed().as_secs_f64());
        match started {
            Ok((h, socket, answer)) => {
                tally.check(answer == reference, || {
                    "prime report differs from the reference".into()
                });
                if k + 1 == SETUPS {
                    live = Some((h, socket));
                } else {
                    stop(h, run_dir, &tag);
                }
            }
            Err(e) => tally.check(false, || e),
        }
    }
    m.set("setup_s", "s", median(&setups));
    m.note("setup_s (wall)", format!("{:.3} s", median(&setups_wall)));
    let Some((handle, socket)) = live else {
        return;
    };

    // The buffer the save client last got a report for: the hover
    // client re-opens it, which the report memo answers.
    let last_saved = Mutex::new(Arc::new(prog.src.clone()));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let conn = Connect::new(socket);
    let (saves, hovers) = std::thread::scope(|s| {
        let save = s.spawn(|| {
            let mut rng = stream(seed, 201);
            let mut t = Tally::default();
            let mut leaf = Vec::new();
            let mut leaf_cpu = Vec::new();
            let mut hub = Vec::new();
            let mut stamp = 0u64;
            while Instant::now() < deadline {
                stamp += 1;
                let is_hub = rng.next_u64().is_multiple_of(ONE_IN);
                let pool = if is_hub { &edits.hubs } else { &edits.leaves };
                let body = pool[rng.gen_range(0..pool.len())];
                let buf = Arc::new(edits.apply(body, stamp));
                let req = request(&buf);
                let t0 = Instant::now();
                let c0 = process_cpu_ms();
                let rep = serve::request_analyze(&conn, &req);
                let cpu = process_cpu_ms() - c0;
                let ms = ms_since(t0);
                let ok = rep
                    .as_ref()
                    .map_err(ToString::to_string)
                    .and_then(oracle::served);
                let good = ok.as_ref().is_ok_and(|a| *a == reference);
                t.check(good, || {
                    format!("save editing {}: {:?}", edits.name(body), ok.err())
                });
                if good {
                    if is_hub {
                        hub.push(ms);
                    } else {
                        leaf.push(ms);
                        leaf_cpu.push(cpu);
                    }
                    *last_saved
                        .lock()
                        .expect("save client holds no lock while panicking") = buf;
                }
            }
            (leaf, leaf_cpu, hub, t)
        });
        let hover = s.spawn(|| {
            let mut rng = stream(seed, 202);
            let mut t = Tally::default();
            let mut queries = Vec::new();
            let mut reopens = Vec::new();
            while Instant::now() < deadline {
                if rng.next_u64().is_multiple_of(ONE_IN) {
                    let buf = Arc::clone(&last_saved.lock().expect("no panicking holder"));
                    let t0 = Instant::now();
                    let rep = serve::request_analyze(&conn, &request(&buf));
                    let ms = ms_since(t0);
                    let warm = rep.as_ref().is_ok_and(|r| r.warm);
                    let ok = rep
                        .map_err(|e| e.to_string())
                        .and_then(|r| oracle::served(&r));
                    let good = warm && ok.as_ref().is_ok_and(|a| *a == reference);
                    t.check(good, || format!("re-open: warm={warm} {:?}", ok.err()));
                    if good {
                        reopens.push(ms);
                    }
                } else {
                    let want = &reference.positions[rng.gen_range(0..reference.positions.len())];
                    let t0 = Instant::now();
                    let ans = serve::request_query(&conn, &want.0, want.1, want.2);
                    let ms = ms_since(t0);
                    let good = ans.as_ref().is_ok_and(|a| {
                        a.found && serve::class_to_tag(a.class) == want.4 && a.declared == want.3
                    });
                    t.check(good, || format!("query {}: {ans:?}", want.0));
                    if good {
                        queries.push(ms);
                    }
                }
                std::thread::sleep(THINK);
            }
            (queries, reopens, t)
        });
        (
            save.join().expect("save client panicked"),
            hover.join().expect("hover client panicked"),
        )
    });
    stop(handle, run_dir, &format!("setup{}", SETUPS - 1));

    let (leaf, leaf_cpu, hub, save_tally) = saves;
    let (queries, reopens, hover_tally) = hovers;
    tally.absorb(save_tally);
    tally.absorb(hover_tally);
    // A leaf save re-checks the whole buffer; throughput is its lines
    // over the median CPU time the process spent while the save was in
    // flight (the analysis on a server worker, plus the light hover
    // traffic running alongside). Wall times are printed below.
    m.set(
        "lines_per_s",
        "lines/s",
        lines as f64 / (median(&leaf_cpu) / 1e3),
    );
    m.note(
        "lines_per_s (wall)",
        format!("{:.3} lines/s", lines as f64 / (median(&leaf) / 1e3)),
    );
    m.set("query_p50_ms", "ms", median(&queries));

    // Per-kind percentiles of the session, each with its sample count and
    // how many samples lie beyond it (a tail is only trusted with ten).
    let all_saves: Vec<f64> = leaf.iter().chain(&hub).copied().collect();
    for (name, xs, q) in [
        ("edit_p50_ms", &all_saves, 0.5),
        ("edit_p90_ms", &all_saves, 0.9),
        ("edit_leaf_p50_ms", &leaf, 0.5),
        ("edit_hub_p50_ms", &hub, 0.5),
        ("query_p50_ms", &queries, 0.5),
        ("query_p99_ms", &queries, 0.99),
        ("reopen_p50_ms", &reopens, 0.5),
        ("reopen_p95_ms", &reopens, 0.95),
    ] {
        m.note(
            name,
            format!(
                "{:.3} ms (n={}, {} beyond)",
                quantile(xs, q),
                xs.len(),
                beyond(xs, q)
            ),
        );
    }
}
