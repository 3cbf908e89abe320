//! Closed-loop load from a fixed number of client connections, each
//! sending its next request only after the previous answer arrived.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use netdag_serve::protocol::{Request, Response, STATUS_INFEASIBLE, STATUS_OK};
use netdag_serve::Client;

use crate::trace::{Span, Tracer};

/// Client connections: one per core of the reference two-core machine.
pub const CONNECTIONS: usize = 2;

/// A run stops here even if its minimum work is not done (and then fails
/// its checks), so it exits within its 180-s limit. A traced `soak` run
/// needs about 95 s for its one-block minimum on the reference machine.
pub const HARD_CAP: Duration = Duration::from_secs(150);

/// One answered request.
pub struct Exchange {
    pub reply: String,
    pub resp: Response,
    pub rtt_us: f64,
}

impl Exchange {
    /// Refused, failed or incomplete answers count as failed requests.
    pub fn failed(&self) -> bool {
        self.resp.status != STATUS_OK && self.resp.status != STATUS_INFEASIBLE
    }
}

/// Encodes `req`, sends it with the public client and decodes the
/// answer. Traced runs also time the daemon side of the codec: parsing
/// the request line and encoding the response.
pub fn exchange(
    tr: &mut Tracer,
    id: u64,
    client: &mut Client,
    req: &Request,
) -> io::Result<Exchange> {
    let line = tr
        .span("serve.codec", id, |_| serde_json::to_string(req))
        .map_err(io::Error::other)?;
    let sent = Instant::now();
    let reply = tr.span("serve.send_line", id, |_| client.send_line(&line))?;
    let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
    let resp: Response = tr
        .span("serve.codec", id, |_| serde_json::from_str(&reply))
        .map_err(io::Error::other)?;
    if tr.on() {
        tr.span("serve.codec", id, |_| {
            let parsed: Result<Request, _> = serde_json::from_str(&line);
            std::hint::black_box((parsed.ok(), serde_json::to_string(&resp).ok()));
        });
    }
    Ok(Exchange {
        reply,
        resp,
        rtt_us,
    })
}

/// What one connection did.
pub struct Conn<T> {
    pub records: Vec<T>,
    pub spans: Vec<Span>,
    pub from_ns: u64,
    pub to_ns: u64,
}

/// Runs `step(conn, k, client, tracer)` on [`CONNECTIONS`] connections
/// until `seconds` have passed and each connection made at least
/// `min_steps` steps. Returns each connection's records and spans and
/// the wall seconds until the last connection finished.
pub fn closed_loop<T, F>(
    addr: SocketAddr,
    trace: bool,
    seconds: f64,
    min_steps: u64,
    step: F,
) -> io::Result<(Vec<Conn<T>>, f64)>
where
    T: Send,
    F: Fn(usize, u64, &mut Client, &mut Tracer) -> io::Result<T> + Sync,
{
    let epoch = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let step = &step;
                scope.spawn(move || -> io::Result<Conn<T>> {
                    let mut client = Client::connect(addr)?;
                    let mut tr = Tracer::new(trace, epoch);
                    let from_ns = epoch.elapsed().as_nanos() as u64;
                    let mut records = Vec::new();
                    let mut k = 0u64;
                    while (epoch.elapsed() < window || k < min_steps) && epoch.elapsed() < HARD_CAP
                    {
                        records.push(step(c, k, &mut client, &mut tr)?);
                        k += 1;
                    }
                    Ok(Conn {
                        records,
                        to_ns: epoch.elapsed().as_nanos() as u64,
                        from_ns,
                        spans: tr.into_spans(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("client thread panicked"))?
            })
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((conns, epoch.elapsed().as_secs_f64()))
}
