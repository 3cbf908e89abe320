//! A bad `validate` request must cost one error answer, never a worker.
//!
//! Kept in its own test binary: `health` reports the process-global
//! `serve.workers_live` gauge, so this daemon must be the only one in
//! the process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use netdag_core::spec::{
    AppSpec, EdgeSpec, SoftEntry, SoftSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec,
};
use netdag_serve::protocol::{Request, Response, StatSpec, STATUS_ERROR, STATUS_OK};
use netdag_serve::{serve, ServeConfig};

/// Sends one request and reads its answer. Reads give up after five
/// seconds, so a request the daemon never answers fails the test
/// instead of hanging it.
fn call(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &Request) -> Response {
    let line = serde_json::to_string(req).expect("serialize");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    writer.flush().expect("flush");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("answer within 5 s");
    serde_json::from_str(&answer).expect("response JSON")
}

fn solve_request(id: u64, app: &AppSpec, m: u32) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app.clone());
    req.weakly_hard = Some(WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: "act".into(),
            m,
            k: 40,
        }],
    });
    req
}

/// `kappa: 0` leaves no run to sample. The daemon answers with an
/// error, keeps its only worker alive, and serves a solve afterwards.
#[test]
fn zero_kappa_validate_is_an_error_and_keeps_the_worker() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(listener, &cfg));
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let app = AppSpec {
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
    };
    let solved = call(&mut reader, &mut writer, &solve_request(1, &app, 10));
    assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);

    let mut val = Request::op("validate");
    val.id = Some(2);
    val.app = Some(app.clone());
    val.soft = Some(SoftSpec {
        constraints: vec![SoftEntry {
            task: "act".into(),
            probability: 0.9,
        }],
    });
    val.stat = Some(StatSpec {
        kind: "eq15".into(),
        fss: Some(1.0),
    });
    val.schedule = solved.result;
    val.kappa = Some(0);
    let answer = call(&mut reader, &mut writer, &val);
    assert_eq!(answer.status, STATUS_ERROR);
    assert!(
        answer
            .reason
            .as_deref()
            .is_some_and(|r| r.contains("kappa")),
        "{:?}",
        answer.reason
    );

    let health = call(&mut reader, &mut writer, &Request::op("health"))
        .health
        .expect("health body");
    assert_eq!(health.workers_live, health.workers);

    let after = call(&mut reader, &mut writer, &solve_request(3, &app, 11));
    assert_eq!(after.status, STATUS_OK, "{:?}", after.reason);

    call(&mut reader, &mut writer, &Request::op("shutdown"));
    server.join().expect("server thread").expect("serve exits");
}
