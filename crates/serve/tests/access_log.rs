//! Request-id propagation: the structured access log and the trace
//! collector observe the *same* server-assigned `rid` for every
//! worker-handled request, so a log line can be joined against its
//! `serve.request` span in `--trace` output.
//!
//! This test owns the process-global trace collector, so it lives in
//! its own integration binary — sharing one with other daemon tests
//! would interleave their spans into the drained trace. Its sibling in
//! this binary also runs a daemon, so both serialize on a local mutex,
//! mirroring the CLI test files.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use netdag_core::spec::{AppSpec, EdgeSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec};
use netdag_serve::protocol::{Request, Response, STATUS_OK};
use netdag_serve::{serve, ServeConfig, ServeReport};
use netdag_trace::EventKind;
use serde::Value;

static SERIAL: Mutex<()> = Mutex::new(());

fn pipeline_app() -> AppSpec {
    AppSpec {
        tasks: vec![
            TaskSpec {
                name: "sense".into(),
                node: 0,
                wcet_us: 500,
            },
            TaskSpec {
                name: "act".into(),
                node: 1,
                wcet_us: 300,
            },
        ],
        edges: vec![EdgeSpec {
            from: "sense".into(),
            to: "act".into(),
            width: 8,
        }],
    }
}

fn solve_request(id: u64, app: AppSpec) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app);
    req.weakly_hard = Some(WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: "act".into(),
            m: 10,
            k: 40,
        }],
    });
    req
}

fn send(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &Request) -> Response {
    let line = serde_json::to_string(req).expect("serialize");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read");
    serde_json::from_str(&resp).expect("response JSON")
}

/// Starts a daemon on a loopback port and connects to it: the
/// connection's reader and writer, and the channel its report arrives
/// on after `shutdown`.
fn start_daemon(
    cfg: ServeConfig,
) -> (BufReader<TcpStream>, TcpStream, mpsc::Receiver<ServeReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel::<ServeReport>();
    std::thread::spawn(move || {
        let report = serve(listener, &cfg).expect("serve");
        let _ = tx.send(report);
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream, rx)
}

fn field<'v>(obj: &'v Value, key: &str) -> &'v Value {
    match obj {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?} in {obj:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// Replays a three-request session (cold solve, exact repeat, permuted
/// repeat) against a daemon with an access log and live tracing, then
/// checks the log's `rid` column against the `rid` span argument of the
/// drained `serve.request` trace spans.
#[test]
fn access_log_rid_matches_trace_span_rid() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let log_path = std::env::temp_dir().join(format!(
        "netdag_access_log_test_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);

    netdag_trace::reset();
    netdag_trace::set_clock(netdag_trace::ClockMode::Logical);
    netdag_trace::set_enabled(true);

    let (mut reader, mut writer, rx) = start_daemon(ServeConfig {
        workers: 1,
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    });

    // Cold solve, exact repeat (hit), permuted declarations (warm).
    let r1 = send(
        &mut reader,
        &mut writer,
        &solve_request(101, pipeline_app()),
    );
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    assert_eq!(r1.cached, Some(false));
    let r2 = send(
        &mut reader,
        &mut writer,
        &solve_request(102, pipeline_app()),
    );
    assert_eq!(r2.cached, Some(true));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let r3 = send(&mut reader, &mut writer, &solve_request(103, permuted));
    assert_eq!(r3.warm_started, Some(true));

    send(&mut reader, &mut writer, &Request::op("shutdown"));
    rx.recv_timeout(Duration::from_secs(30)).expect("report");
    netdag_trace::set_enabled(false);

    // One structured line per worker-handled request, in completion
    // order, with the documented cache classes and node counts.
    let text = std::fs::read_to_string(&log_path).expect("access log");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str_value(l).expect("log line JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "{text}");

    let mut log_rids: BTreeMap<u64, u64> = BTreeMap::new();
    for (line, (id, cache)) in lines
        .iter()
        .zip([(101, "cold"), (102, "hit"), (103, "warm")])
    {
        assert_eq!(field(line, "id").as_u64(), Some(id));
        assert_eq!(as_str(field(line, "op")), "solve");
        assert_eq!(as_str(field(line, "status")), "ok");
        assert_eq!(as_str(field(line, "cache")), cache);
        assert_eq!(as_str(field(line, "fp")).len(), 8);
        let nodes = field(line, "nodes").as_u64().expect("nodes");
        if cache == "hit" {
            assert_eq!(nodes, 0, "exact hits run zero solver nodes");
        } else {
            assert!(nodes > 0, "{cache} solve explores the tree: {line:?}");
        }
        let rid = field(line, "rid").as_u64().expect("rid");
        log_rids.insert(id, rid);
    }
    // The first admitted request gets rid 1; the session is sequential.
    assert_eq!(
        log_rids.values().copied().collect::<Vec<_>>(),
        vec![1, 2, 3]
    );

    // The same rids, attached to the matching ids, on the span side.
    let trace = netdag_trace::drain();
    let mut span_rids: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "serve.request")
    {
        let arg = |key: &str| {
            ev.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("span missing arg {key:?}: {ev:?}"))
        };
        let (netdag_trace::ArgValue::U64(id), netdag_trace::ArgValue::U64(rid)) =
            (arg("id"), arg("rid"))
        else {
            panic!("id/rid span args must be u64: {ev:?}");
        };
        span_rids.insert(id, rid);
    }
    assert_eq!(span_rids, log_rids, "log and trace disagree on rids");

    let _ = std::fs::remove_file(&log_path);
}

/// A traced daemon solve records the whole causal chain: each cold or
/// warm-started solve's `serve.request` span holds one `core.solve`
/// span, which holds one `solver.search` span — the steered engine opens
/// the same search span as a batch solve. An exact hit runs no solve.
#[test]
fn traced_solves_nest_search_under_core_solve_under_request() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    netdag_trace::reset();
    netdag_trace::set_clock(netdag_trace::ClockMode::Logical);
    netdag_trace::set_enabled(true);

    let (mut reader, mut writer, rx) = start_daemon(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let cold = send(
        &mut reader,
        &mut writer,
        &solve_request(301, pipeline_app()),
    );
    assert_eq!(cold.cached, Some(false), "{:?}", cold.reason);
    let hit = send(
        &mut reader,
        &mut writer,
        &solve_request(302, pipeline_app()),
    );
    assert_eq!(hit.cached, Some(true));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let warm = send(&mut reader, &mut writer, &solve_request(303, permuted));
    assert_eq!(warm.warm_started, Some(true));
    send(&mut reader, &mut writer, &Request::op("shutdown"));
    rx.recv_timeout(Duration::from_secs(30)).expect("report");
    netdag_trace::set_enabled(false);

    let trace = netdag_trace::drain();
    let begins: Vec<&netdag_trace::Event> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .collect();
    let children = |parent: u64, name: &str| -> Vec<u64> {
        begins
            .iter()
            .filter(|e| e.parent == parent && e.name == name)
            .map(|e| e.id)
            .collect()
    };
    let mut chains = BTreeMap::new();
    for request in begins.iter().filter(|e| e.name == "serve.request") {
        let Some((_, netdag_trace::ArgValue::U64(id))) =
            request.args.iter().find(|(k, _)| *k == "id")
        else {
            panic!("serve.request span without a u64 id: {request:?}");
        };
        let solves = children(request.id, "core.solve");
        let searches: Vec<u64> = solves
            .iter()
            .flat_map(|&s| children(s, "solver.search"))
            .collect();
        chains.insert(*id, (solves.len(), searches.len()));
    }
    assert_eq!(
        chains,
        BTreeMap::from([(301, (1, 1)), (302, (0, 0)), (303, (1, 1))]),
        "(core.solve, solver.search) spans under each request"
    );
}

/// Telemetry must never fail a request — but it must not vanish
/// silently either. With the access log pointed at `/dev/full` (opens
/// fine, every write fails with ENOSPC) all three requests are still
/// answered normally, and each lost line increments the
/// `serve.access_log.dropped` counter exactly once.
#[test]
fn failed_access_log_writes_are_counted_not_fatal() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    let dropped = || {
        netdag_obs::global()
            .counter(netdag_obs::keys::SERVE_ACCESS_LOG_DROPPED)
            .get()
    };
    let before = dropped();

    let (mut reader, mut writer, rx) = start_daemon(ServeConfig {
        workers: 1,
        access_log: Some(std::path::PathBuf::from("/dev/full")),
        ..ServeConfig::default()
    });

    // Cold solve, exact repeat, permuted repeat — the same session as
    // above, all answered despite the log sink being unwritable.
    let r1 = send(
        &mut reader,
        &mut writer,
        &solve_request(201, pipeline_app()),
    );
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    let r2 = send(
        &mut reader,
        &mut writer,
        &solve_request(202, pipeline_app()),
    );
    assert_eq!(r2.cached, Some(true));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let r3 = send(&mut reader, &mut writer, &solve_request(203, permuted));
    assert_eq!(r3.warm_started, Some(true));

    send(&mut reader, &mut writer, &Request::op("shutdown"));
    rx.recv_timeout(Duration::from_secs(30)).expect("report");

    assert_eq!(
        dropped() - before,
        3,
        "one dropped-line count per lost access-log record"
    );
}
