//! A bad `validate` request must cost one error answer, never a worker,
//! and `health` must count each daemon's own live workers.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use netdag_core::spec::{
    AppSpec, EdgeSpec, SoftEntry, SoftSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec,
};
use netdag_serve::protocol::{
    Request, Response, StatSpec, MAX_VALIDATE_KAPPA, MAX_VALIDATE_TRIALS, STATUS_ERROR, STATUS_OK,
};
use netdag_serve::{serve, ServeConfig, ServeReport};

/// One client connection to an in-process daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request and reads its answer. Reads give up after five
    /// seconds, so a request the daemon never answers fails the test
    /// instead of hanging it.
    fn call(&mut self, req: &Request) -> Response {
        let line = serde_json::to_string(req).expect("serialize");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut answer = String::new();
        self.reader
            .read_line(&mut answer)
            .expect("answer within 5 s");
        serde_json::from_str(&answer).expect("response JSON")
    }

    /// Stops the daemon and waits for it to exit.
    fn shutdown(mut self, server: JoinHandle<std::io::Result<ServeReport>>) {
        self.call(&Request::op("shutdown"));
        server.join().expect("server thread").expect("serve exits");
    }
}

/// Starts a daemon with `workers` workers on one shard and connects.
fn start(workers: usize) -> (Conn, JoinHandle<std::io::Result<ServeReport>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(listener, &cfg));
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let writer = stream.try_clone().expect("clone");
    let conn = Conn {
        reader: BufReader::new(stream),
        writer,
    };
    (conn, server)
}

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

fn wh_spec(m: u32) -> WeaklyHardSpec {
    WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: "act".into(),
            m,
            k: 40,
        }],
    }
}

fn solve_request(id: u64, m: u32) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(pipeline_app());
    req.weakly_hard = Some(wh_spec(m));
    req
}

/// A soft and weakly hard validation of the schedule a solve returned.
fn validate_request(id: u64, solved: &Response) -> Request {
    let mut val = Request::op("validate");
    val.id = Some(id);
    val.app = Some(pipeline_app());
    val.soft = Some(SoftSpec {
        constraints: vec![SoftEntry {
            task: "act".into(),
            probability: 0.3,
        }],
    });
    val.weakly_hard = Some(wh_spec(10));
    val.stat = Some(StatSpec {
        kind: "eq15".into(),
        fss: Some(1.0),
    });
    val.schedule = solved.result.clone();
    val
}

/// Asserts an error answer whose reason names `what`.
fn assert_refused(answer: &Response, what: &str) {
    assert_eq!(answer.status, STATUS_ERROR, "{answer:?}");
    assert!(
        answer.reason.as_deref().is_some_and(|r| r.contains(what)),
        "{:?}",
        answer.reason
    );
}

/// `kappa: 0` leaves no run to sample. The daemon answers with an
/// error, keeps its only worker alive, and serves a solve afterwards.
#[test]
fn zero_kappa_validate_is_an_error_and_keeps_the_worker() {
    let (mut conn, server) = start(1);
    let solved = conn.call(&solve_request(1, 10));
    assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);

    let mut val = validate_request(2, &solved);
    val.weakly_hard = None;
    val.kappa = Some(0);
    assert_refused(&conn.call(&val), "kappa");

    let health = conn.call(&Request::op("health")).health.expect("health");
    assert_eq!(health.workers_live, health.workers);

    let after = conn.call(&solve_request(3, 11));
    assert_eq!(after.status, STATUS_OK, "{:?}", after.reason);
    conn.shutdown(server);
}

/// A `validate` asking for more than `MAX_VALIDATE_KAPPA` samples or
/// `MAX_VALIDATE_TRIALS` trials is refused before any simulation (the
/// answer is immediate, well inside the read timeout), and the same
/// connection's next, normal validation passes on the same worker.
#[test]
fn over_cap_validate_is_refused_and_keeps_the_worker() {
    let (mut conn, server) = start(1);
    let solved = conn.call(&solve_request(1, 10));
    assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);

    let mut val = validate_request(2, &solved);
    val.kappa = Some(MAX_VALIDATE_KAPPA + 1);
    assert_refused(&conn.call(&val), "kappa");
    let mut val = validate_request(3, &solved);
    val.trials = Some(MAX_VALIDATE_TRIALS + 1);
    assert_refused(&conn.call(&val), "trials");

    let mut val = validate_request(4, &solved);
    val.kappa = Some(300);
    val.trials = Some(8);
    let answer = conn.call(&val);
    assert_eq!(answer.status, STATUS_OK, "{:?}", answer.reason);
    let report = answer.validation.expect("validation report");
    assert!(report.passed, "{}", report.report);
    conn.shutdown(server);
}

/// Two daemons alive in one process each report their own live
/// workers. Each has one worker, which is live once it has answered a
/// solve; a process-wide count would read 2 on both.
#[test]
fn health_counts_each_daemons_own_workers() {
    let (mut a, server_a) = start(1);
    let (mut b, server_b) = start(1);
    for (conn, id) in [(&mut a, 1), (&mut b, 2)] {
        let solved = conn.call(&solve_request(id, 10));
        assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);
    }
    for conn in [&mut a, &mut b] {
        let health = conn.call(&Request::op("health")).health.expect("health");
        assert_eq!(health.workers, 1);
        assert_eq!(health.workers_live, health.workers, "{health:?}");
    }
    a.shutdown(server_a);
    b.shutdown(server_b);
}
