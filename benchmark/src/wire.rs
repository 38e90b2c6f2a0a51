//! One lap of the wire workload: the server behind `FrontEnd` on loopback
//! TCP, and a well-behaved client — `TCP_NODELAY`, one `write_all` per
//! request line — holding two connections.
//!
//! End-to-end laps run `FrontEnd::run` on a server thread and block on
//! reads here (two runnable threads). Probed laps keep the server on this
//! thread and call `FrontEnd::turn` themselves whenever a read would
//! block, so every turn is a span and the client's reads never overlap
//! the server's work.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bondlab::BondPricer;
use va_persist::json::Json;
use va_persist::record::parse_output;
use va_server::proto::{self, Request, WireQuery};
use va_server::{Answer, FrontEnd, FrontEndStats, Server};
use va_stream::Query;
use vao::Bounds;

use crate::calibrate::Around;
use crate::check::{relation_of, Fnv};
use crate::drive::{Lap, LapCtx, ScriptMeter, Seen, TickSample};
use crate::spans::Trace;
use crate::spec::Spec;

type Failure = Box<dyn std::error::Error>;

/// The request-side twin of a registered query (SUM weights ride along).
pub fn wire_query(q: &Query) -> WireQuery {
    match q.clone() {
        Query::Selection { op, constant } => WireQuery::Selection { op, constant },
        Query::Count {
            op,
            constant,
            slack,
        } => WireQuery::Count {
            op,
            constant,
            slack,
        },
        Query::Sum { weights, epsilon } => WireQuery::Sum {
            weights: Some(weights),
            epsilon,
        },
        Query::Ave { epsilon } => WireQuery::Ave { epsilon },
        Query::Max { epsilon } => WireQuery::Max { epsilon },
        Query::Min { epsilon } => WireQuery::Min { epsilon },
        Query::TopK { k, epsilon } => WireQuery::TopK { k, epsilon },
        Query::Median { epsilon } => WireQuery::Median { epsilon },
        Query::Percentile { phi, epsilon } => WireQuery::Percentile { phi, epsilon },
        Query::HeavyHitters { k, epsilon } => WireQuery::HeavyHitters { k, epsilon },
    }
}

/// The server half of an inline (probed) lap.
struct Inline<'t> {
    server: Server,
    front: FrontEnd,
    listener: TcpListener,
    trace: &'t mut Trace,
    keep_spans: bool,
    /// The open tick span turns are recorded under, and its id.
    parent: Option<(usize, u32)>,
    turns: u32,
    turn_ns: u64,
}

impl Inline<'_> {
    fn turn(&mut self) -> std::io::Result<()> {
        let start = self.trace.now_ns();
        self.front.turn(Some(&self.listener), &mut self.server)?;
        let end = self.trace.now_ns();
        self.turns += 1;
        self.turn_ns += end - start;
        if let (true, Some((parent, tick))) = (self.keep_spans, self.parent) {
            self.trace
                .record("net.turn", start, end, Some(parent), tick);
        }
        Ok(())
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    consumed: usize,
    /// Live sessions subscribed on this connection: (id, shape index).
    sessions: Vec<(u64, usize)>,
    bytes_in: u64,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr, nonblocking: bool) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nonblocking(nonblocking)?;
        Ok(Self {
            stream,
            rbuf: Vec::with_capacity(1 << 17),
            consumed: 0,
            sessions: Vec::new(),
            bytes_in: 0,
        })
    }

    /// Request lines in one buffer, one `write_all` (a single line for a
    /// lone request; a pipelined burst leaves in one segment too).
    fn send(&mut self, requests: &[Request], pump: &mut Option<Inline<'_>>) -> Result<(), Failure> {
        let mut lines = String::new();
        for request in requests {
            lines.push_str(&proto::render_request(request));
            lines.push('\n');
        }
        let mut rest = lines.as_bytes();
        // A blocking socket takes the buffer in one call; a nonblocking
        // one may need the server to drain first.
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => match pump {
                    Some(inline) => inline.turn()?,
                    None => return Err(e.into()),
                },
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn read_line(&mut self, pump: &mut Option<Inline<'_>>) -> Result<String, Failure> {
        loop {
            if let Some(at) = self.rbuf[self.consumed..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8(self.rbuf[self.consumed..self.consumed + at].to_vec())?;
                self.consumed += at + 1;
                if self.consumed == self.rbuf.len() {
                    self.rbuf.clear();
                    self.consumed = 0;
                }
                return Ok(line);
            }
            let mut buf = [0u8; 1 << 16];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    self.bytes_in += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => match pump {
                    Some(inline) => inline.turn()?,
                    None => return Err("read timed out".into()),
                },
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn expect(&mut self, kind: &str, pump: &mut Option<Inline<'_>>) -> Result<String, Failure> {
        let line = self.read_line(pump)?;
        if line.starts_with(&format!("{{\"type\":\"{kind}\"")) {
            Ok(line)
        } else {
            Err(format!("expected {kind}, got {line}").into())
        }
    }

    fn subscribe(
        &mut self,
        query: &Query,
        priority: u32,
        shape: usize,
        pump: &mut Option<Inline<'_>>,
    ) -> Result<(), Failure> {
        self.send(
            &[Request::Subscribe {
                relation: None,
                query: wire_query(query),
                priority,
            }],
            pump,
        )?;
        self.subscribed(shape, pump)
    }

    /// Reads the SUBSCRIBED reply and files the new session under `shape`.
    fn subscribed(&mut self, shape: usize, pump: &mut Option<Inline<'_>>) -> Result<(), Failure> {
        let ack = Json::parse(&self.expect("SUBSCRIBED", pump)?)?;
        let id = ack
            .get("session")
            .and_then(Json::as_u64)
            .ok_or("SUBSCRIBED without a session")?;
        self.sessions.push((id, shape));
        Ok(())
    }
}

/// The lines one position put in the client's hands, per connection.
struct Received {
    results: [Vec<String>; 2],
    done: String,
}

fn answer_of(line: &str) -> Result<(u64, Answer), Failure> {
    let doc = Json::parse(line)?;
    let session = doc
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("RESULT without a session")?;
    let answer = match doc.get("status").and_then(Json::as_str) {
        Some("final") => Answer::Final(parse_output(doc.get("output").ok_or("no output")?)?),
        Some("partial") => {
            let b = doc.get("bounds").ok_or("no bounds")?;
            let field = |k| b.get(k).and_then(Json::as_f64).ok_or("bad bounds");
            Answer::Partial {
                bounds: Bounds::try_new(field("lo")?, field("hi")?).map_err(|e| e.to_string())?,
            }
        }
        _ => return Err("RESULT without a status".into()),
    };
    Ok((session, answer))
}

struct Client {
    conns: [Conn; 2],
    churns: usize,
}

impl Client {
    /// One position: TICK on the driving connection (0), then every
    /// RESULT on both and the TICK_DONE trailer. At a churn position the
    /// driving connection first pipelines UNSUBSCRIBE + SUBSCRIBE + STATS
    /// and reads the three replies; connection 1 stays passive throughout.
    ///
    /// (Control traffic on the *passive* connection would park its next
    /// RESULT burst ~40 ms behind the small reply it has not acknowledged
    /// yet: accepted sockets have no `TCP_NODELAY`. See the README; a
    /// kernel timer has no place in a gated metric.)
    fn position(
        &mut self,
        spec: &Spec,
        rate: f64,
        churn: bool,
        pump: &mut Option<Inline<'_>>,
    ) -> Result<Received, Failure> {
        let [driver, passive] = &mut self.conns;
        if churn {
            let conn = &mut *driver;
            let tenant = &spec.tenants[0];
            let shape = self.churns % tenant.sessions.len();
            self.churns += 1;
            let at = conn
                .sessions
                .iter()
                .position(|&(_, s)| s == shape)
                .ok_or("shape not subscribed")?;
            let (old, _) = conn.sessions.remove(at);
            let (query, priority) = &tenant.sessions[shape];
            conn.send(
                &[
                    Request::Unsubscribe {
                        relation: None,
                        session: old,
                    },
                    Request::Subscribe {
                        relation: None,
                        query: wire_query(query),
                        priority: *priority,
                    },
                    Request::Stats { relation: None },
                ],
                pump,
            )?;
            conn.expect("UNSUBSCRIBED", pump)?;
            conn.subscribed(shape, pump)?;
            conn.expect("STATS", pump)?;
        }
        driver.send(
            &[Request::Tick {
                relation: None,
                rate,
            }],
            pump,
        )?;
        let mut got = Received {
            results: [Vec::new(), Vec::new()],
            done: String::new(),
        };
        loop {
            let line = driver.read_line(pump)?;
            if line.starts_with("{\"type\":\"RESULT\"") {
                got.results[0].push(line);
            } else if line.starts_with("{\"type\":\"TICK_DONE\"") {
                got.done = line;
                break;
            } else {
                return Err(format!("unexpected reply to TICK: {line}").into());
            }
        }
        for _ in 0..passive.sessions.len() {
            got.results[1].push(passive.expect("RESULT", pump)?);
        }
        if got.results[0].len() != driver.sessions.len() {
            return Err("driving connection missed RESULT lines".into());
        }
        Ok(got)
    }

    fn seen(&self, got: &Received) -> Result<Vec<Seen>, Failure> {
        let mut seen = Vec::new();
        for (conn, lines) in self.conns.iter().zip(&got.results) {
            for line in lines {
                let (session, answer) = answer_of(line)?;
                let &(_, shape) = conn
                    .sessions
                    .iter()
                    .find(|&&(id, _)| id == session)
                    .ok_or("RESULT for a session this connection does not hold")?;
                seen.push(Seen {
                    tenant: 0,
                    query: shape,
                    answer,
                });
            }
        }
        Ok(seen)
    }
}

fn sample_of(secs: f64, attempted: u32, got: &Received) -> Result<TickSample, Failure> {
    let mut h = Fnv::new();
    let mut finals = 0;
    for line in got.results.iter().flatten() {
        h.write(line.as_bytes());
        h.write(b"\n");
        finals += u32::from(line.contains("\"status\":\"final\""));
    }
    let done = Json::parse(&got.done)?;
    let work = done
        .get("work_units")
        .and_then(Json::as_u64)
        .ok_or("TICK_DONE without work_units")?;
    h.write(format!("{work}").as_bytes());
    Ok(TickSample {
        secs,
        work,
        digest: h.0,
        finals,
        answers: got.results.iter().map(Vec::len).sum::<usize>() as u32,
        attempted,
        failed: 0,
    })
}

fn run_lap(
    spec: &Spec,
    rates: &[f64],
    ctx: &mut LapCtx<'_>,
    out: &mut Lap,
) -> Result<FrontEndStats, Failure> {
    let tenant = &spec.tenants[0];
    let around = Around::start();
    let started = Instant::now();
    let server = Server::new(BondPricer::default(), relation_of(tenant), spec.config);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let mut threaded = None;
    let mut pump = match ctx.probe.as_mut() {
        Some(probe) => {
            listener.set_nonblocking(true)?;
            Some(Inline {
                server,
                front: FrontEnd::default(),
                listener,
                trace: probe.trace,
                keep_spans: probe.keep_spans,
                parent: None,
                turns: 0,
                turn_ns: 0,
            })
        }
        None => {
            let flag = Arc::clone(&stop);
            let mut server = server;
            threaded = Some(std::thread::spawn(move || {
                let mut front = FrontEnd::default();
                front
                    .run(&listener, &mut server, &flag)
                    .map(|()| front.stats())
            }));
            None
        }
    };

    let mut around = Some(around);
    let body = (|| -> Result<(), Failure> {
        let nonblocking = pump.is_some();
        let mut client = Client {
            conns: [
                Conn::connect(addr, nonblocking)?,
                Conn::connect(addr, nonblocking)?,
            ],
            churns: 0,
        };
        for conn in &mut client.conns {
            for (shape, (query, priority)) in tenant.sessions.iter().enumerate() {
                conn.subscribe(query, *priority, shape, &mut pump)?;
            }
        }
        client.position(spec, spec.shape.warmup_rate(), false, &mut pump)?;
        out.setup_s = started.elapsed().as_secs_f64();
        out.setup_speed = around.take().map_or(1.0, Around::finish);

        let meter = ScriptMeter::start();
        for (k, &rate) in rates.iter().enumerate() {
            out.cal.push(crate::calibrate::kernel());
            let churn = spec.churn_every.is_some_and(|n| (k + 1) % n == 0);
            if let Some(inline) = pump.as_mut() {
                let id = inline.trace.open("tick", None, k as u32);
                inline.parent = Some((id, k as u32));
                (inline.turns, inline.turn_ns) = (0, 0);
            }
            let issued = Instant::now();
            let got = client.position(spec, rate, churn, &mut pump);
            let secs = issued.elapsed().as_secs_f64();
            if let Some(inline) = pump.as_mut() {
                if let Some((id, _)) = inline.parent.take() {
                    inline.trace.close(id);
                }
                out.extras.turns.push((inline.turns, inline.turn_ns));
            }
            let got = got?;
            if ctx.collect {
                out.seen.push(client.seen(&got)?);
            }
            out.ticks
                .push(sample_of(secs, if churn { 4 } else { 1 }, &got)?);
        }
        out.cal.push(crate::calibrate::kernel());
        meter.finish(&mut out.extras);
        out.extras.bytes_in = client.conns.iter().map(|c| c.bytes_in).sum();
        Ok(())
    })();

    // Stop the server whatever happened: the flag first, then the hang-up
    // of both connections (dropped with `body`) wakes its poll.
    stop.store(true, Ordering::SeqCst);
    let stats = match (threaded, pump) {
        (Some(handle), _) => handle.join().map_err(|_| "front-end thread panicked")??,
        (None, Some(inline)) => inline.front.stats(),
        (None, None) => unreachable!("a lap is threaded or inline"),
    };
    body.map(|()| stats)
}

/// Runs one wire lap; any failure fails the positions it did not reach.
pub fn lap(spec: &Spec, rates: &[f64], mut ctx: LapCtx<'_>) -> Lap {
    let mut out = Lap::default();
    match run_lap(spec, rates, &mut ctx, &mut out) {
        Ok(stats) => {
            out.extras.results_delivered = stats.results_delivered;
            out.extras.payloads_serialized = stats.payloads_serialized;
        }
        Err(e) => eprintln!("benchmark: wire lap failed: {e}"),
    }
    out.fail_unreached(rates.len());
    out
}
