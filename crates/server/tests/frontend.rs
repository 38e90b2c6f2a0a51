//! Multi-client integration tests for the nonblocking front-end: many
//! concurrent subscribers over real loopback sockets against one
//! deterministic server, compared byte-for-byte to a serial golden run.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bondlab::{BondPricer, BondUniverse, RateSeries};
use va_server::{
    net::FrontEnd, proto, FrontEndStats, Server, ServerConfig, SessionId, Tenant, DEFAULT_RELATION,
};
use va_stream::{BondRelation, Query};
use vao::ops::selection::CmpOp;

const BONDS: usize = 12;
const SEED: u64 = 1994;

/// The tenant of the one relation these servers host.
fn default_tenant(server: &Server) -> &Tenant {
    server
        .catalog()
        .by_name(DEFAULT_RELATION)
        .expect("the default relation")
}

fn fresh_server() -> Server {
    let universe = BondUniverse::generate(BONDS, SEED);
    let relation = BondRelation::from_universe(&universe);
    Server::new(BondPricer::default(), relation, ServerConfig::default())
}

/// A front-end serving a fresh server on an ephemeral port, on its own
/// thread, until [`Harness::stop`].
struct Harness {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Server, FrontEndStats)>,
}

impl Harness {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut server = fresh_server();
            let mut front = FrontEnd::default();
            front
                .run(&listener, &mut server, &flag)
                .expect("readiness loop");
            (server, front.stats())
        });
        Self { addr, stop, handle }
    }

    fn stop(self) -> (Server, FrontEndStats) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("front-end thread")
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Self {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn subscribe_max(&mut self) -> u64 {
        self.send(r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.05}}"#);
        let reply = self.recv();
        assert!(reply.contains("\"type\":\"SUBSCRIBED\""), "{reply}");
        let tail = reply.split("\"session\":").nth(1).expect("session field");
        tail.trim_end_matches('}').parse().expect("session id")
    }
}

/// The serial golden run: the same subscription/tick sequence as the wire
/// test, driven in-process, rendered to protocol lines with the same
/// serializers the front-end composes from.
struct Golden {
    server: Server,
}

impl Golden {
    fn new() -> Self {
        Self {
            server: fresh_server(),
        }
    }

    fn subscribe_max(&mut self) -> SessionId {
        self.server
            .subscribe(Query::Max { epsilon: 0.05 }, 1)
            .expect("golden subscribe")
    }

    /// Ticks once and returns (per-session RESULT lines, TICK_DONE line).
    fn tick(&mut self, rate: f64) -> (Vec<(SessionId, String)>, String) {
        let res = self.server.tick(rate).expect("golden tick");
        let lines = res
            .answers
            .iter()
            .map(|(id, a)| {
                let line = proto::result(va_server::DEFAULT_RELATION, res.tick, res.rate, *id, a);
                (*id, line)
            })
            .collect();
        let done = proto::tick_done(
            va_server::DEFAULT_RELATION,
            &res,
            default_tenant(&self.server).shed(),
        );
        (lines, done)
    }
}

#[test]
fn many_subscribers_get_bit_identical_broadcasts() {
    let harness = Harness::spawn();
    let rates: Vec<f64> = RateSeries::january_1994().daily_opens()[..8].to_vec();

    // Five clients subscribe the same query shape, in a fixed order so the
    // golden run can mirror the session ids.
    let mut clients: Vec<Client> = Vec::new();
    let mut sessions: Vec<u64> = Vec::new();
    for _ in 0..5 {
        let mut c = Client::connect(harness.addr);
        sessions.push(c.subscribe_max());
        clients.push(c);
    }
    assert_eq!(sessions, vec![1, 2, 3, 4, 5]);

    let mut golden = Golden::new();
    for _ in 0..5 {
        golden.subscribe_max();
    }

    // First half of the stream: client 0 drives, everyone receives.
    for &rate in &rates[..4] {
        let (expected, expected_done) = golden.tick(rate);
        clients[0].send(&format!("{{\"type\":\"TICK\",\"rate\":{rate}}}"));
        for (ci, client) in clients.iter_mut().enumerate() {
            let line = client.recv();
            let want = &expected[ci].1;
            assert_eq!(&line, want, "client {ci} diverged from the golden run");
        }
        assert_eq!(clients[0].recv(), expected_done, "driver's trailer");
    }

    // One client hangs up mid-stream (no QUIT — the rude way), and a new
    // one connects between ticks and subscribes the same shape.
    let dropped = clients.remove(2);
    drop(dropped);
    let mut late = Client::connect(harness.addr);
    assert_eq!(late.subscribe_max(), 6);
    golden.subscribe_max();
    clients.push(late);

    for &rate in &rates[4..] {
        let (expected, expected_done) = golden.tick(rate);
        clients[0].send(&format!("{{\"type\":\"TICK\",\"rate\":{rate}}}"));
        // Clients 0,1 hold sessions 1,2; the survivors after the removal
        // hold 4,5; the late joiner holds 6. Session 3's answers still
        // exist in the golden run but have no attached connection.
        let held = [0usize, 1, 3, 4, 5];
        for (client, &gi) in clients.iter_mut().zip(&held) {
            let line = client.recv();
            let want = &expected[gi].1;
            assert_eq!(&line, want, "post-churn divergence (golden row {gi})");
        }
        assert_eq!(clients[0].recv(), expected_done);
    }

    let (server, stats) = harness.stop();
    assert_eq!(default_tenant(&server).ticks(), rates.len() as u64);
    assert_eq!(
        default_tenant(&server).sessions().len(),
        6,
        "sessions survive disconnects"
    );
    // The whole point of grouped fan-out: one serialized payload per tick
    // served every subscriber with the same answer.
    assert!(
        stats.payloads_serialized < stats.results_delivered,
        "expected payload sharing: {stats:?}"
    );
    assert_eq!(stats.accepted, 6);
}

#[test]
fn dead_client_mid_tick_keeps_the_listener_serving() {
    let harness = Harness::spawn();
    let mut driver = Client::connect(harness.addr);
    driver.subscribe_max();

    // A second subscriber vanishes without ceremony.
    let mut doomed = Client::connect(harness.addr);
    doomed.subscribe_max();
    drop(doomed);

    // The tick still completes for the surviving client...
    driver.send(r#"{"type":"TICK","rate":0.0583}"#);
    let result = driver.recv();
    assert!(result.contains("\"type\":\"RESULT\""), "{result}");
    assert!(driver.recv().contains("\"type\":\"TICK_DONE\""));

    // ...and the accept loop is still alive for new clients.
    let mut fresh = Client::connect(harness.addr);
    assert_eq!(fresh.subscribe_max(), 3);

    let (server, stats) = harness.stop();
    assert_eq!(default_tenant(&server).ticks(), 1);
    assert_eq!(stats.accepted, 3);
}

#[test]
fn wedged_client_neither_stalls_ticks_nor_kills_accepts() {
    let harness = Harness::spawn();
    let mut driver = Client::connect(harness.addr);
    driver.subscribe_max();

    // The wedge: subscribed to the same shape, sends half a request line,
    // then never reads and never finishes writing.
    let mut wedge = Client::connect(harness.addr);
    wedge.subscribe_max();
    wedge
        .writer
        .write_all(b"{\"type\":\"TICK\",")
        .expect("partial write");

    // The driver's ticks keep flowing while the wedge sits there.
    for i in 1..=3u64 {
        driver.send(r#"{"type":"TICK","rate":0.0583}"#);
        assert!(driver.recv().contains("\"type\":\"RESULT\""));
        let done = driver.recv();
        assert!(done.contains(&format!("\"tick\":{i}")), "{done}");
    }

    // And new clients still get in past it.
    let mut fresh = Client::connect(harness.addr);
    assert_eq!(fresh.subscribe_max(), 3);

    let (server, _) = harness.stop();
    assert_eq!(default_tenant(&server).ticks(), 3);
}

#[test]
fn quit_is_scoped_to_the_issuing_connection() {
    let harness = Harness::spawn();
    let mut stayer = Client::connect(harness.addr);
    stayer.subscribe_max();

    let mut quitter = Client::connect(harness.addr);
    let quit_session = quitter.subscribe_max();
    quitter.send(r#"{"type":"QUIT"}"#);
    assert!(quitter.recv().contains("\"type\":\"BYE\""));

    // The server — and the other client — are unaffected.
    stayer.send(r#"{"type":"TICK","rate":0.0583}"#);
    assert!(stayer.recv().contains("\"type\":\"RESULT\""));
    assert!(stayer.recv().contains("\"type\":\"TICK_DONE\""));

    // The quitter's session outlives its connection and can be resumed
    // elsewhere (the reconnect story QUIT used to break by flushing and
    // shutting down shared durable state).
    stayer.send(&format!(
        "{{\"type\":\"RESUME\",\"session\":{quit_session}}}"
    ));
    let resumed = stayer.recv();
    assert!(resumed.contains("\"type\":\"RESUMED\""), "{resumed}");
    assert!(resumed.contains("\"status\":\"final\""), "{resumed}");

    let (server, stats) = harness.stop();
    assert_eq!(default_tenant(&server).ticks(), 1);
    assert_eq!(default_tenant(&server).sessions().len(), 2);
    assert!(stats.closed >= 1);
}

#[test]
fn hostile_nesting_gets_an_error_and_the_server_keeps_serving() {
    let harness = Harness::spawn();

    // Just under the 1 MiB line cap: 900 KB of '[' used to recurse the
    // JSON parser off the end of the stack and abort the whole process.
    let mut hostile = Client::connect(harness.addr);
    hostile.send(&"[".repeat(900 * 1024));
    let reply = hostile.recv();
    assert!(reply.contains("\"type\":\"ERROR\""), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");

    // The same connection is still usable after the error...
    hostile.send(&format!("{}1{}", "{\"a\":".repeat(100), "}".repeat(100)));
    assert!(hostile.recv().contains("\"type\":\"ERROR\""));
    assert_eq!(hostile.subscribe_max(), 1);

    // ...and a second client subscribes and ticks as if nothing happened.
    let mut second = Client::connect(harness.addr);
    assert_eq!(second.subscribe_max(), 2);
    second.send(r#"{"type":"TICK","rate":0.0583}"#);
    assert!(second.recv().contains("\"type\":\"RESULT\""));
    assert!(second.recv().contains("\"type\":\"TICK_DONE\""));

    let (server, stats) = harness.stop();
    assert_eq!(default_tenant(&server).ticks(), 1);
    assert_eq!(stats.accepted, 2);
}

/// Sends each request line on one connection, expecting an `ERROR` naming
/// `needle` for every one, then has a second connection subscribe and tick:
/// a refused request costs its sender a reply, never anyone else the server.
fn refused_and_still_serving(lines: &[&str], needle: &str) {
    let harness = Harness::spawn();
    let mut hostile = Client::connect(harness.addr);
    for line in lines {
        hostile.send(line);
        let reply = hostile.recv();
        assert!(reply.contains("\"type\":\"ERROR\""), "{line}: {reply}");
        assert!(reply.contains(needle), "{line}: {reply}");
    }

    let mut second = Client::connect(harness.addr);
    assert_eq!(second.subscribe_max(), 1);
    second.send(r#"{"type":"TICK","rate":0.0583}"#);
    assert!(second.recv().contains("\"type\":\"RESULT\""));
    assert!(second.recv().contains("\"type\":\"TICK_DONE\""));

    let (server, _) = harness.stop();
    assert_eq!(
        default_tenant(&server).ticks(),
        1,
        "no refused tick executed"
    );
    assert_eq!(
        default_tenant(&server).sessions().len(),
        1,
        "no refused query registered"
    );
    assert_eq!(server.catalog().len(), 1, "no refused relation created");
}

#[test]
fn a_rate_off_the_pricer_grid_gets_an_error_on_every_tick_request() {
    // Used to reach `BondPde::new`'s assertion on the serving thread.
    refused_and_still_serving(
        &[
            r#"{"type":"TICK","rate":7}"#,
            r#"{"type":"TICKS","rates":[0.0583,7]}"#,
            r#"{"type":"TICK_MULTI","ticks":[{"relation":"default","rate":-0.5}]}"#,
        ],
        "outside the pricer grid [0, 0.3]",
    );
}

#[test]
fn a_seeded_relation_of_a_trillion_bonds_gets_an_error() {
    // Used to abort the process allocating the universe.
    refused_and_still_serving(
        &[r#"{"type":"CREATE_RELATION","name":"x","seed":1,"count":1000000000000}"#],
        "exceeds the 65536 bonds a seeded relation may hold",
    );
}

#[test]
fn a_heavyhitters_k_beyond_the_relation_gets_an_error() {
    // Used to be SUBSCRIBED (and journaled), then abort the next tick
    // allocating a summary of 4k counters.
    refused_and_still_serving(
        &[
            r#"{"type":"SUBSCRIBE","query":{"kind":"heavyhitters","k":1000000000000,"epsilon":1.0}}"#,
        ],
        "operator requires at least one result object",
    );
}

#[test]
fn a_bond_the_pricer_cannot_price_gets_an_error() {
    // Each used to be BOND_ADDED (and journaled), then panic the next tick
    // in `Bounds::new` on the NaN bounds of its coarse trio.
    refused_and_still_serving(
        &[
            r#"{"type":"ADD_BOND","bond":{"coupon":1e-300,"maturity":10,"face":100}}"#,
            r#"{"type":"ADD_BOND","bond":{"coupon":0.05,"maturity":1e-300,"face":100}}"#,
            r#"{"type":"ADD_BOND","bond":{"coupon":0.05,"maturity":10,"face":1e308}}"#,
        ],
        "invalid bond",
    );
}

#[test]
fn sum_weights_that_overflow_get_an_error() {
    // Each weight is finite, their sum is not. Used to be SUBSCRIBED (and
    // journaled), then panic in `Bounds::new` on the next tick's first
    // weighted interval.
    let weights = ["1e308"; BONDS].join(",");
    let line = format!(
        r#"{{"type":"SUBSCRIBE","query":{{"kind":"sum","epsilon":1e307,"weights":[{weights}]}}}}"#
    );
    refused_and_still_serving(&[&line], "SUM weights must add up to a finite number");
}

/// Threshold SELECTs that all select every bond: four distinct constants,
/// a duplicate of the first, and `-0.0` beside `0.0` — queries apart only
/// in a bit. Every answer is the same id list.
fn select_every_bond() -> Vec<Query> {
    [20.0, 25.0, 30.0, 0.0, 20.0, -0.0]
        .into_iter()
        .map(|constant| Query::Selection {
            op: CmpOp::Gt,
            constant,
        })
        .collect()
}

#[test]
fn equal_answers_share_one_payload_per_tick_across_connections() {
    let harness = Harness::spawn();
    let rates: Vec<f64> = RateSeries::january_1994().daily_opens()[..4].to_vec();
    let queries = select_every_bond();

    // Two connections subscribe the same queries; sessions 1-6 are the
    // first's, 7-12 the second's.
    let mut clients = [Client::connect(harness.addr), Client::connect(harness.addr)];
    let mut golden = Golden::new();
    for client in &mut clients {
        for q in &queries {
            let Query::Selection { constant, .. } = q else {
                unreachable!()
            };
            client.send(&format!(
                r#"{{"type":"SUBSCRIBE","query":{{"kind":"selection","op":">","constant":{constant}}}}}"#
            ));
            assert!(client.recv().contains("\"type\":\"SUBSCRIBED\""));
            golden
                .server
                .subscribe(q.clone(), 1)
                .expect("golden subscribe");
        }
    }

    for &rate in &rates {
        let (expected, expected_done) = golden.tick(rate);
        let every_bond: Vec<String> = (0..BONDS).map(|i| i.to_string()).collect();
        let every_bond = format!("\"ids\":[{}]", every_bond.join(","));
        assert!(
            expected.iter().all(|(_, line)| line.contains(&every_bond)),
            "every SELECT picks every bond: {expected:?}"
        );
        clients[0].send(&format!("{{\"type\":\"TICK\",\"rate\":{rate}}}"));
        for (ci, client) in clients.iter_mut().enumerate() {
            for (_, want) in &expected[ci * queries.len()..(ci + 1) * queries.len()] {
                assert_eq!(&client.recv(), want, "client {ci}");
            }
        }
        assert_eq!(clients[0].recv(), expected_done);
    }

    let (_, stats) = harness.stop();
    let ticks = rates.len() as u64;
    assert_eq!(
        stats.payloads_serialized, ticks,
        "one payload per tick: {stats:?}"
    );
    assert_eq!(stats.results_delivered, ticks * 2 * queries.len() as u64);
}

#[test]
fn sessions_sharing_an_answer_answer_as_each_would_alone() {
    let mut queries = select_every_bond();
    queries.extend([
        Query::Max { epsilon: 0.05 },
        Query::Count {
            op: CmpOp::Gt,
            constant: 20.0,
            slack: 0,
        },
        Query::Max { epsilon: 0.05 },
    ]);
    let rates: Vec<f64> = RateSeries::january_1994().daily_opens()[..4].to_vec();
    let mut shared = fresh_server();
    for q in &queries {
        shared.subscribe(q.clone(), 1).expect("subscribe");
    }
    let mut alone: Vec<Server> = queries
        .iter()
        .map(|q| {
            let mut server = fresh_server();
            server.subscribe(q.clone(), 1).expect("subscribe");
            server
        })
        .collect();
    for &rate in &rates {
        let res = shared.tick(rate).expect("shared tick");
        for ((id, answer), server) in res.answers.iter().zip(&mut alone) {
            let own = server.tick(rate).expect("lone tick");
            let (_, want) = &own.answers[0];
            // Bytes, not `==`: the payload tells `-0` from `0`.
            assert_eq!(
                proto::result_payload(DEFAULT_RELATION, res.tick, rate, answer),
                proto::result_payload(DEFAULT_RELATION, own.tick, rate, want),
                "session {id} at rate {rate}"
            );
        }
    }
}
