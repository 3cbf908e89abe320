//! Sharding invariants, end to end over real TCP: the consistent-hash
//! ring is an implementation detail that must never show through the
//! wire.
//!
//! * **Byte-identical responses at any shard count** — the same
//!   sequential session answered by 1-, 2-, and 8-shard daemons yields
//!   byte-for-byte equal response lines, because routing by the
//!   *structural* fingerprint keeps every warm-start family on one
//!   shard regardless of the fleet size.
//! * **Shard-count-invariant aggregate `cache_stats`** — hits, misses,
//!   warm starts, entries, and evictions summed over the fleet equal
//!   the single-shard numbers for the same session.
//! * **`batch_solve` equals request-at-a-time** — each sub-response of
//!   a batch is byte-identical to the answer the same item gets when
//!   issued as a standalone `solve` against a fresh daemon.
//! * **Snapshots restore across shard counts** — a 4-shard daemon's
//!   snapshot warm-starts a 2-shard daemon: every previously solved
//!   problem answers as an exact cache hit with the identical document.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use netdag_core::modes::{ModeSpec, ModesSpec};
use netdag_core::spec::{AppSpec, EdgeSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec};
use netdag_serve::protocol::{BatchItem, CacheStatsBody, Request, Response, STATUS_OK};
use netdag_serve::{serve, ServeConfig, ServeReport};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends a request and returns the raw response line — the bytes on
    /// the wire, which is what the shard-invariance property pins.
    fn send_raw(&mut self, req: &Request) -> String {
        let line = serde_json::to_string(req).expect("serialize");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        out
    }

    fn send(&mut self, req: &Request) -> Response {
        serde_json::from_str(&self.send_raw(req)).expect("response JSON")
    }
}

fn start_server(cfg: ServeConfig) -> (std::net::SocketAddr, mpsc::Receiver<ServeReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report = serve(listener, &cfg).expect("serve");
        let _ = tx.send(report);
    });
    (addr, rx)
}

fn sharded(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A random DAG spec (edges low→high index, so any order is a DAG) with
/// a weakly hard constraint on the last task.
fn random_spec(rng: &mut ChaCha8Rng) -> (AppSpec, WeaklyHardSpec) {
    let n_tasks = rng.gen_range(2usize..5);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|i| TaskSpec {
            name: format!("t{i}"),
            node: rng.gen_range(0u32..3),
            wcet_us: rng.gen_range(100u64..1_500),
        })
        .collect();
    let mut edges = Vec::new();
    for from in 0..n_tasks - 1 {
        let width = rng.gen_range(1u32..24);
        for to in from + 1..n_tasks {
            if to == from + 1 || rng.gen_range(0u32..3) == 0 {
                edges.push(EdgeSpec {
                    from: format!("t{from}"),
                    to: format!("t{to}"),
                    width,
                });
            }
        }
    }
    let k = rng.gen_range(20u32..60);
    let wh = WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: format!("t{}", n_tasks - 1),
            m: rng.gen_range(1..k / 2),
            k,
        }],
    };
    (AppSpec { tasks, edges }, wh)
}

fn solve_request(id: u64, app: AppSpec, wh: WeaklyHardSpec) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app);
    req.weakly_hard = Some(wh);
    req
}

/// A fixed session over two structural families plus a mode set:
/// cold, exact repeat, perturbed bound (warm), an independent second
/// family, a mode solve and its exact repeat.
fn session_requests(rng: &mut ChaCha8Rng) -> Vec<Request> {
    let (app_a, wh_a) = random_spec(rng);
    let (app_b, wh_b) = random_spec(rng);
    let mut wh_a2 = wh_a.clone();
    wh_a2.constraints[0].k += 1;
    let modes = ModesSpec {
        app: app_a.clone(),
        shared_prefix_rounds: Some(1),
        modes: vec![ModeSpec {
            name: "only".into(),
            tasks: None,
            soft: None,
            weakly_hard: Some(wh_a.clone()),
            loss: None,
        }],
    };
    let mut mode_req = Request::op("mode_solve");
    mode_req.id = Some(5);
    mode_req.modes = Some(modes);
    let mut mode_repeat = mode_req.clone();
    mode_repeat.id = Some(6);
    vec![
        solve_request(1, app_a.clone(), wh_a.clone()),
        solve_request(2, app_a.clone(), wh_a),
        solve_request(3, app_a, wh_a2),
        solve_request(4, app_b, wh_b),
        mode_req,
        mode_repeat,
    ]
}

/// Runs the session against a fresh daemon with the given shard count;
/// returns the raw response lines plus the closing aggregate stats.
fn run_session(shards: usize, requests: &[Request]) -> (Vec<String>, CacheStatsBody) {
    let (addr, report_rx) = start_server(sharded(shards));
    let mut c = Client::connect(addr);
    let lines: Vec<String> = requests.iter().map(|r| c.send_raw(r)).collect();
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));
    (lines, body)
}

/// Strips the per-shard breakdown, leaving only the fields the
/// shard-invariance property pins (the rows legitimately differ — they
/// show where the ring placed the families).
fn aggregate_only(mut body: CacheStatsBody) -> CacheStatsBody {
    body.shards = Vec::new();
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism property: the same session is answered
    /// byte-identically by 1-, 2-, and 8-shard daemons, and the
    /// aggregate cache statistics agree exactly.
    #[test]
    fn responses_byte_identical_across_shard_counts(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let requests = session_requests(&mut rng);
        let (lines1, stats1) = run_session(1, &requests);
        let (lines2, stats2) = run_session(2, &requests);
        let (lines8, stats8) = run_session(8, &requests);
        prop_assert_eq!(&lines1, &lines2, "1 vs 2 shards");
        prop_assert_eq!(&lines1, &lines8, "1 vs 8 shards");
        prop_assert_eq!(
            aggregate_only(stats1.clone()),
            aggregate_only(stats2),
            "aggregate stats, 1 vs 2 shards"
        );
        prop_assert_eq!(
            aggregate_only(stats1.clone()),
            aggregate_only(stats8),
            "aggregate stats, 1 vs 8 shards"
        );
        // When the first family is feasible the session pins one exact
        // hit (request 2) and one warm start (request 3); an infeasible
        // draw still must agree byte-for-byte above, it just caches
        // nothing.
        let first: Response = serde_json::from_str(&lines1[0]).expect("response");
        if first.status == STATUS_OK && first.complete == Some(true) {
            prop_assert_eq!(stats1.hits, 1);
            prop_assert_eq!(stats1.warm_starts, 1);
        }
        let mode: Response = serde_json::from_str(&lines1[4]).expect("response");
        if mode.status == STATUS_OK {
            prop_assert_eq!(stats1.mode_entries, 1);
        }
    }
}

/// `batch_solve` answers each item exactly as a standalone `solve`
/// would, in request order, including intra-batch cache interplay: a
/// duplicated item is an exact hit against its sibling solved earlier
/// in the same batch.
#[test]
fn batch_solve_matches_request_at_a_time() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let (app_a, wh_a) = random_spec(&mut rng);
    let (app_b, wh_b) = random_spec(&mut rng);
    let mut wh_a2 = wh_a.clone();
    wh_a2.constraints[0].k += 1;
    let items = [
        (app_a.clone(), wh_a.clone()),
        (app_a.clone(), wh_a.clone()), // exact duplicate: in-batch hit
        (app_a, wh_a2),                // perturbed bound: in-batch warm
        (app_b, wh_b),
    ];

    // Reference run: the same items as sequential solves (same id as
    // the batch envelope, so the responses compare byte-for-byte).
    let (addr, report_rx) = start_server(sharded(4));
    let mut c = Client::connect(addr);
    let reference: Vec<String> = items
        .iter()
        .map(|(app, wh)| c.send_raw(&solve_request(42, app.clone(), wh.clone())))
        .collect();
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));

    // Batch run on a fresh daemon.
    let (addr, report_rx) = start_server(sharded(4));
    let mut c = Client::connect(addr);
    let mut batch = Request::op("batch_solve");
    batch.id = Some(42);
    batch.batch = Some(
        items
            .iter()
            .map(|(app, wh)| BatchItem {
                app: Some(app.clone()),
                soft: None,
                weakly_hard: Some(wh.clone()),
                stat: None,
            })
            .collect(),
    );
    let envelope = c.send(&batch);
    assert_eq!(envelope.status, STATUS_OK, "{:?}", envelope.reason);
    let subs = envelope.batch.expect("batch responses");
    assert_eq!(subs.len(), items.len());
    for (i, (sub, want)) in subs.iter().zip(&reference).enumerate() {
        let sub_line = serde_json::to_string(sub).expect("serialize sub");
        assert_eq!(
            format!("{sub_line}\n"),
            *want,
            "batch item {i} differs from its standalone solve"
        );
    }
    // The in-batch duplicate hit and warm start landed in the stats.
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    assert_eq!(body.hits, 1);
    assert_eq!(body.warm_starts, 1);
    assert_eq!(body.misses, 2);

    // Structured errors stay structured: a missing batch array and a
    // mid-batch item without an app are answered inline.
    let no_array = c.send(&Request::op("batch_solve"));
    assert_eq!(no_array.status, "error");
    let mut holed = Request::op("batch_solve");
    holed.batch = Some(vec![BatchItem {
        app: None,
        soft: None,
        weakly_hard: None,
        stat: None,
    }]);
    let holed_resp = c.send(&holed);
    assert_eq!(holed_resp.status, STATUS_OK);
    assert_eq!(holed_resp.batch.expect("items")[0].status, "error");

    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));
}

/// A two-mode set over `app`: `wh` with its window stretched by
/// `stretch`, and by one more.
fn mode_request(id: u64, app: AppSpec, wh: &WeaklyHardSpec, stretch: u32) -> Request {
    let mode = |name: &str, extra| {
        let mut wh = wh.clone();
        wh.constraints[0].k += stretch + extra;
        ModeSpec {
            name: name.into(),
            tasks: None,
            soft: None,
            weakly_hard: Some(wh),
            loss: None,
        }
    };
    let mut req = Request::op("mode_solve");
    req.id = Some(id);
    req.modes = Some(ModesSpec {
        app,
        shared_prefix_rounds: Some(1),
        modes: vec![mode("nominal", 0), mode("relaxed", 1)],
    });
    req
}

/// A 4-shard daemon's graceful-drain snapshot restores into a 2-shard
/// daemon: every entry is re-routed through the smaller ring, the
/// restored count is reported, and each previously solved problem and
/// mode set answers as an exact cache hit with the identical document.
/// Restored into a 1-entry cache, the snapshot keeps the newest entry
/// of each kind.
#[test]
fn snapshot_restores_across_shard_counts() {
    let snap_path =
        std::env::temp_dir().join(format!("netdag_shard_snapshot_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut problems = Vec::new();
    while problems.len() < 4 {
        problems.push(random_spec(&mut rng));
    }

    // First life: 4 shards, solve everything, drain.
    let cfg_a = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        ..sharded(4)
    };
    let (addr, report_rx) = start_server(cfg_a);
    let mut c = Client::connect(addr);
    let mut first: Vec<Response> = Vec::new();
    for (i, (app, wh)) in problems.iter().enumerate() {
        first.push(c.send(&solve_request(i as u64, app.clone(), wh.clone())));
    }
    // Two mode sets over the first feasible problem, differing in K.
    let ok = first
        .iter()
        .position(|r| r.status == STATUS_OK && r.complete == Some(true))
        .expect("a feasible problem");
    let (app, wh) = &problems[ok];
    let mode_reqs: Vec<Request> = (0..2)
        .map(|s| mode_request(10 + u64::from(s), app.clone(), wh, s))
        .collect();
    let mode_first: Vec<Response> = mode_reqs.iter().map(|r| c.send(r)).collect();
    for r in &mode_first {
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    }
    c.send(&Request::op("shutdown"));
    let report_a = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("first daemon exits");
    assert_eq!(report_a.restored, 0);

    // The snapshot is a well-formed, schema-tagged document.
    let text = std::fs::read_to_string(&snap_path).expect("snapshot written on drain");
    let snap: netdag_serve::CacheSnapshot = serde_json::from_str(&text).expect("snapshot parses");
    assert_eq!(snap.schema, netdag_serve::SNAPSHOT_SCHEMA);
    let solved = first
        .iter()
        .filter(|r| r.status == STATUS_OK && r.complete == Some(true))
        .count();
    assert_eq!(snap.entries.len(), solved);
    assert_eq!(snap.mode_entries.len(), mode_reqs.len());
    let restored = (solved + mode_reqs.len()) as u64;

    // Second life: 2 shards, same snapshot. Every solved problem is an
    // exact hit with the identical document and zero new solver work.
    let cfg_b = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        ..sharded(2)
    };
    let (addr, report_rx) = start_server(cfg_b);
    let mut c = Client::connect(addr);
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    assert_eq!(body.restored, restored);
    assert_eq!(body.entries, solved as u64);
    assert_eq!(body.mode_entries, mode_reqs.len() as u64);
    for (i, (app, wh)) in problems.iter().enumerate() {
        let again = c.send(&solve_request(i as u64, app.clone(), wh.clone()));
        assert_eq!(again.status, first[i].status);
        if first[i].complete == Some(true) {
            assert_eq!(again.cached, Some(true), "problem {i} must hit the cache");
            assert_eq!(
                again.result, first[i].result,
                "problem {i} document drifted"
            );
            assert_eq!(again.fingerprint, first[i].fingerprint);
        }
    }
    for (req, want) in mode_reqs.iter().zip(&mode_first) {
        let again = c.send(req);
        assert_eq!(again.cached, Some(true), "mode set {:?} must hit", req.id);
        assert_eq!(again.mode_result, want.mode_result);
    }
    c.send(&Request::op("shutdown"));
    let report_b = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("second daemon exits");
    assert_eq!(report_b.restored, restored);
    assert_eq!(report_b.cache_hits, solved as u64);

    // Third life: one shard holding one entry of each kind. The restore
    // keeps the newest line of each kind in the second life's snapshot
    // — and the newest only.
    let text = std::fs::read_to_string(&snap_path).expect("snapshot rewritten on drain");
    let snap: netdag_serve::CacheSnapshot = serde_json::from_str(&text).expect("snapshot parses");
    let newest = format!("{:016x}", snap.entries.last().expect("solutions").full);
    let newest_mode = format!("{:016x}", snap.mode_entries.last().expect("modes").key);
    let cfg_c = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        cache_capacity: 1,
        ..sharded(1)
    };
    let (addr, report_rx) = start_server(cfg_c);
    let mut c = Client::connect(addr);
    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache stats body");
    assert_eq!((body.entries, body.mode_entries, body.restored), (1, 1, 2));
    let i = first
        .iter()
        .position(|r| r.fingerprint.as_deref() == Some(newest.as_str()))
        .expect("newest solution was solved in the first life");
    let (app, wh) = problems[i].clone();
    let again = c.send(&solve_request(i as u64, app, wh));
    assert_eq!(again.cached, Some(true), "newest solution must hit");
    // Newest mode set first: the miss that follows evicts it.
    let mut by_age: Vec<(&Request, &Response)> = mode_reqs.iter().zip(&mode_first).collect();
    by_age.sort_by_key(|(_, r)| r.fingerprint.as_deref() != Some(newest_mode.as_str()));
    for (j, (req, _)) in by_age.into_iter().enumerate() {
        assert_eq!(c.send(req).cached, Some(j == 0), "only the newest survives");
    }
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));
    let _ = std::fs::remove_file(&snap_path);
}

/// A present-but-stale snapshot refuses the start instead of silently
/// serving cold.
#[test]
fn stale_snapshot_refuses_start() {
    let snap_path =
        std::env::temp_dir().join(format!("netdag_stale_snapshot_{}.json", std::process::id()));
    std::fs::write(
        &snap_path,
        r#"{"schema":"netdag-cache-snapshot/0","entries":[],"mode_entries":[]}"#,
    )
    .expect("write stale snapshot");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        ..ServeConfig::default()
    };
    let err = serve(listener, &cfg).expect_err("stale schema must refuse start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_file(&snap_path);
}
