//! In-process loopback TCP integration test: the full line protocol over a
//! real `std::net` socket, server on a background thread, client here.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use bondlab::{BondPricer, BondUniverse};
use va_persist::json::Json;
use va_server::{net, Server, ServerConfig, Tenant, DEFAULT_RELATION};
use va_stream::BondRelation;

/// The tenant of the one relation these servers host.
fn default_tenant(server: &Server) -> &Tenant {
    server
        .catalog()
        .by_name(DEFAULT_RELATION)
        .expect("the default relation")
}

fn spawn_server(
    bonds: usize,
    config: ServerConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<Server>) {
    let universe = BondUniverse::generate(bonds, 1994);
    let relation = BondRelation::from_universe(&universe);
    let mut server = Server::new(BondPricer::default(), relation, config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        net::serve_connection(stream, &mut server).expect("serve");
        server
    });
    (addr, handle)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Self {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn recv_type(&mut self, expected: &str) -> Json {
        let doc = self.recv();
        assert_eq!(
            doc.get("type").and_then(Json::as_str),
            Some(expected),
            "{doc:?}"
        );
        doc
    }
}

#[test]
fn full_protocol_exchange_over_loopback() {
    let (addr, handle) = spawn_server(12, ServerConfig::default());
    let mut c = Client::connect(addr);

    // Subscribe three queries; ids are monotone.
    c.send(r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.05},"priority":2}"#);
    let s1 = c.recv_type("SUBSCRIBED");
    assert_eq!(s1.get("session").and_then(Json::as_u64), Some(1));
    c.send(r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":2.0}}"#);
    assert_eq!(
        c.recv_type("SUBSCRIBED")
            .get("session")
            .and_then(Json::as_u64),
        Some(2)
    );
    c.send(r#"{"type":"SUBSCRIBE","query":{"kind":"selection","op":">","constant":95.0}}"#);
    assert_eq!(
        c.recv_type("SUBSCRIBED")
            .get("session")
            .and_then(Json::as_u64),
        Some(3)
    );

    // A malformed request errors without killing the connection.
    c.send(r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":-2}}"#);
    let err = c.recv_type("ERROR");
    assert!(err
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("precision"));

    // One tick: three RESULT lines (session order) then TICK_DONE.
    c.send(r#"{"type":"TICK","rate":0.0583}"#);
    for want in 1..=3u64 {
        let res = c.recv_type("RESULT");
        assert_eq!(res.get("session").and_then(Json::as_u64), Some(want));
        assert_eq!(res.get("tick").and_then(Json::as_u64), Some(1));
        assert_eq!(
            res.get("status").and_then(Json::as_str),
            Some("final"),
            "unbudgeted ticks converge: {res:?}"
        );
        let output = res.get("output").expect("final answers carry output");
        assert!(output.get("shape").is_some());
    }
    let done = c.recv_type("TICK_DONE");
    assert_eq!(done.get("tick").and_then(Json::as_u64), Some(1));
    assert_eq!(
        done.get("budget_exhausted").and_then(Json::as_bool),
        Some(false)
    );
    assert!(done.get("work_units").and_then(Json::as_u64).unwrap() > 0);

    // Unsubscribe the selection; the next tick answers two sessions.
    c.send(r#"{"type":"UNSUBSCRIBE","session":3}"#);
    c.recv_type("UNSUBSCRIBED");
    c.send(r#"{"type":"UNSUBSCRIBE","session":3}"#);
    c.recv_type("ERROR");
    c.send(r#"{"type":"TICK","rate":0.0585}"#);
    assert_eq!(
        c.recv_type("RESULT").get("session").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        c.recv_type("RESULT").get("session").and_then(Json::as_u64),
        Some(2)
    );
    c.recv_type("TICK_DONE");

    // STATS reflects both ticks and the per-session rows.
    c.send(r#"{"type":"STATS"}"#);
    let stats = c.recv_type("STATS");
    assert_eq!(stats.get("ticks").and_then(Json::as_u64), Some(2));
    let sessions = stats.get("sessions").and_then(Json::as_array).unwrap();
    assert_eq!(sessions.len(), 2);
    assert_eq!(
        sessions[0].get("operator").and_then(Json::as_str),
        Some("max")
    );
    assert_eq!(sessions[0].get("finals").and_then(Json::as_u64), Some(2));

    c.send(r#"{"type":"QUIT"}"#);
    c.recv_type("BYE");

    let server = handle.join().expect("server thread");
    assert_eq!(default_tenant(&server).ticks(), 2);
    assert_eq!(default_tenant(&server).sessions().len(), 2);
}

#[test]
fn budgeted_server_reports_partial_results_on_the_wire() {
    // A budget of one work unit is spent by the model invocations alone,
    // so no refinement runs: the tick must degrade rather than error,
    // tagging results partial with sound bounds.
    let (addr, handle) = spawn_server(12, ServerConfig::budgeted(1));
    let mut c = Client::connect(addr);
    c.send(r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.02}}"#);
    c.recv_type("SUBSCRIBED");
    c.send(r#"{"type":"TICK","rate":0.0583}"#);
    let res = c.recv_type("RESULT");
    assert_eq!(res.get("status").and_then(Json::as_str), Some("partial"));
    let bounds = res.get("bounds").expect("partial answers carry bounds");
    let lo = bounds.get("lo").and_then(Json::as_f64).unwrap();
    let hi = bounds.get("hi").and_then(Json::as_f64).unwrap();
    assert!(lo <= hi);
    let done = c.recv_type("TICK_DONE");
    assert_eq!(
        done.get("budget_exhausted").and_then(Json::as_bool),
        Some(true)
    );
    c.send(r#"{"type":"QUIT"}"#);
    c.recv_type("BYE");
    handle.join().expect("server thread");
}
