//! The `va-server` binary: the line-protocol server over TCP.
//!
//! ```text
//! va-server [--addr HOST:PORT] [--bonds N] [--seed S] [--budget W]
//!           [--workers N] [--data-dir PATH] [--snapshot-every N]
//!           [--catalog] [--smoke] [--client HOST:PORT]
//! ```
//!
//! `--budget` sets the per-tick work budget in deterministic work units
//! (omit for unbudgeted ticks). `--workers` sets the scheduler's worker
//! thread count *and* its per-round batch size (batched rounds recompute
//! cross-query demand once per batch; `--workers 1` is the serial
//! schedule). `--data-dir` makes the server durable: control-plane events
//! are journaled (fsync'd) to the dir, snapshots are written periodically,
//! and a restart with the same dir recovers sessions, counters and
//! warm-start state (without the flag the server is bit-identical to the
//! in-memory one). `--snapshot-every` sets how many journaled ticks elapse
//! between snapshots (default 64); smaller values bound recovery replay —
//! and, with segmented journal compaction, on-disk journal size — more
//! tightly at the cost of more frequent snapshot writes.
//!
//! A data dir is self-describing: every relation definition is replayed
//! from the journal, and `--bonds`/`--seed` are ignored on reopen. They
//! matter once, when the dir comes back fresh (nothing recovered): it is
//! then given the flag-built `"default"` relation — unless `--catalog`
//! asks for it to start empty, with relations created over the protocol
//! (`CREATE_RELATION`) instead. A dir in a layout this build does not
//! read (a single-file `journal.jsonl`, a `meta.json` that is not
//! `"version":4`) is refused with a layout error and left untouched.
//! `--smoke` runs a self-contained loopback exchange —
//! subscribe, tick, stats, the catalog requests, three requests that must
//! be refused with an `ERROR`, quit, against an ephemeral port — and exits
//! nonzero on any protocol failure; CI uses it as a two-second end-to-end
//! check. `--client` flips the binary into a line-pipe client: stdin lines
//! go to the server, reply lines to stdout — which is how the CI
//! kill-and-recover smoke drives a server across a SIGKILL.
//!
//! The server multiplexes any number of concurrent clients through one
//! nonblocking readiness loop (`va_server::net::FrontEnd`); `QUIT` closes
//! only the issuing connection. SIGTERM/SIGINT stop the loop cleanly and
//! write the final snapshot, so a signal-terminated durable server
//! restarts with zero journal replay.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

use bondlab::{BondPricer, BondUniverse};
use va_server::{net, poll, Server, ServerConfig};
use va_stream::BondRelation;

struct Args {
    addr: String,
    bonds: usize,
    seed: u64,
    budget: Option<u64>,
    workers: usize,
    data_dir: Option<String>,
    snapshot_every: u64,
    catalog: bool,
    smoke: bool,
    client: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:5083".to_string(),
        bonds: 500,
        seed: 42,
        budget: None,
        workers: 1,
        data_dir: None,
        snapshot_every: va_server::DEFAULT_SNAPSHOT_EVERY,
        catalog: false,
        smoke: false,
        client: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--bonds" => {
                args.bonds = value("--bonds")?
                    .parse()
                    .map_err(|e| format!("--bonds: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--snapshot-every" => {
                args.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                if args.snapshot_every == 0 {
                    return Err("--snapshot-every must be at least 1".to_string());
                }
            }
            "--catalog" => args.catalog = true,
            "--smoke" => args.smoke = true,
            "--client" => args.client = Some(value("--client")?),
            "--help" | "-h" => {
                println!(
                    "usage: va-server [--addr HOST:PORT] [--bonds N] [--seed S] [--budget W] [--workers N] [--data-dir PATH] [--snapshot-every N] [--catalog] [--smoke] [--client HOST:PORT]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn build_server(args: &Args) -> Result<Server, String> {
    let config = ServerConfig {
        budget: args.budget,
        workers: args.workers,
        snapshot_every: args.snapshot_every,
        ..ServerConfig::default()
    };
    let Some(dir) = &args.data_dir else {
        if args.catalog {
            return Err("--catalog requires --data-dir (the catalog lives in the journal)".into());
        }
        let universe = BondUniverse::generate(args.bonds, args.seed);
        let relation = BondRelation::from_universe(&universe);
        return Ok(Server::new(BondPricer::default(), relation, config));
    };
    let mut srv = Server::open_durable_catalog(BondPricer::default(), config, Path::new(dir))
        .map_err(|e| format!("open {dir}: {e}"))?;
    // The data dir describes itself; only one that came back fresh is given
    // the flag-built "default" relation, and `--catalog` leaves even that
    // one empty.
    if !args.catalog {
        let universe = BondUniverse::generate(args.bonds, args.seed);
        srv.create_default_if_fresh(BondRelation::from_universe(&universe))
            .map_err(|e| format!("bootstrap {dir}: {e}"))?;
    }
    if let Some(rec) = srv.last_recovery() {
        eprintln!(
            "va-server: recovered from {dir} ({} relations, snapshot {:?}, {} events replayed, {} torn bytes truncated, {} corrupt snapshots skipped, {} tmp files swept)",
            srv.catalog().len(),
            rec.snapshot_seq,
            rec.replayed_events,
            rec.truncated_bytes,
            rec.skipped_snapshots,
            rec.swept_tmp_files
        );
    }
    Ok(srv)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("va-server: {e}");
            std::process::exit(2);
        }
    };
    if let Some(addr) = &args.client {
        client(addr);
        return;
    }
    let mut server = match build_server(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("va-server: {e}");
            std::process::exit(1);
        }
    };
    if args.smoke {
        smoke(&mut server);
        return;
    }
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("va-server: bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    // The resolved address matters with `--addr 127.0.0.1:0` (scripted
    // callers parse the chosen port from this line).
    let bound = listener
        .local_addr()
        .map_or_else(|_| args.addr.clone(), |a| a.to_string());
    // What is hosted, not what the flags asked for: `--bonds` only ever
    // shapes a fresh non-catalog dir.
    let tenants = server.catalog().tenants();
    println!(
        "va-server listening on {bound} ({} relations, {} bonds, budget {:?}, workers {}, data dir {})",
        tenants.len(),
        tenants.iter().map(|t| t.relation().len()).sum::<usize>(),
        args.budget,
        args.workers,
        args.data_dir.as_deref().unwrap_or("none")
    );
    // SIGTERM/SIGINT arm the stop flag; the readiness loop notices and
    // returns so the final snapshot below runs as part of a clean exit.
    let stop = poll::stop_on_terminate();
    let mut front = net::FrontEnd::default();
    if let Err(e) = front.run(&listener, &mut server, stop) {
        eprintln!("va-server: {e}");
        std::process::exit(1);
    }
    // Listener shutdown owns the zero-replay final snapshot (client QUITs
    // are connection-scoped and never flush shared durable state).
    if let Err(e) = server.shutdown() {
        eprintln!("va-server: shutdown flush: {e}");
        std::process::exit(1);
    }
    let stats = front.stats();
    // Over every hosted relation: a catalog server need not have a "default".
    let ticks: u64 = server.catalog().tenants().iter().map(|t| t.ticks()).sum();
    eprintln!(
        "va-server: stopped after {ticks} ticks ({} connections served, {} slow evictions, {} io drops)",
        stats.accepted,
        stats.evicted_slow,
        stats.dropped_io
    );
}

/// Sends one request line as a single `write`: a separate `"\n"` segment
/// would park behind Nagle until the server's delayed ACK (~40 ms).
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// Line-pipe client mode: forwards stdin lines to the server at `addr` and
/// prints every reply line. The reader thread drains replies until the
/// server closes the connection or goes quiet, so scripted callers can
/// `printf ... | va-server --client ADDR` without a protocol-aware tool.
fn client(addr: &str) {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("va-server: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF, server death, or quiet
                Ok(_) => print!("{line}"),
            }
        }
    });
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("read stdin");
        if send_line(&mut writer, &line).is_err() {
            break; // server gone mid-script (e.g. the kill-recover smoke)
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = reader.join();
}

/// Self-contained loopback exchange: a client thread drives the full
/// protocol against this process and every expectation is asserted.
fn smoke(server: &mut Server) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let addr = listener.local_addr().expect("local addr");

    let client = std::thread::spawn(move || -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        let mut ask = |line: &str, expect_lines: usize| {
            send_line(&mut writer, line).expect("write");
            for _ in 0..expect_lines {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("read");
                replies.push(reply.trim_end().to_string());
            }
        };
        ask(
            r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.05},"priority":2}"#,
            1,
        );
        ask(
            r#"{"type":"SUBSCRIBE","query":{"kind":"ave","epsilon":0.1}}"#,
            1,
        );
        // One tick: a RESULT per session plus the TICK_DONE trailer.
        ask(r#"{"type":"TICK","rate":0.0583}"#, 3);
        // A burst coalesces to the newest rate.
        ask(r#"{"type":"TICKS","rates":[0.0584,0.0585,0.0586]}"#, 3);
        ask(r#"{"type":"STATS"}"#, 1);
        // Catalog control plane: create a second relation, subscribe to
        // it, then tick both tenants in one request.
        ask(
            r#"{"type":"CREATE_RELATION","name":"alt","seed":7,"count":16}"#,
            1,
        );
        ask(
            r#"{"type":"SUBSCRIBE","relation":"alt","query":{"kind":"min","epsilon":0.1}}"#,
            1,
        );
        // Two RESULTs + TICK_DONE for "default", one RESULT + TICK_DONE
        // for "alt", in caller order.
        ask(
            r#"{"type":"TICK_MULTI","ticks":[{"relation":"default","rate":0.0587},{"relation":"alt","rate":0.05}]}"#,
            5,
        );
        ask(r#"{"type":"RELATIONS"}"#, 1);
        // Three requests that each used to abort the process: a rate off
        // the pricer grid, a relation and a summary sized by the client.
        // One ERROR apiece, and the server ticks on.
        ask(r#"{"type":"TICK","rate":7}"#, 1);
        ask(
            r#"{"type":"CREATE_RELATION","name":"x","seed":1,"count":1000000000000}"#,
            1,
        );
        ask(
            r#"{"type":"SUBSCRIBE","query":{"kind":"heavyhitters","k":1000000000000,"epsilon":1.0}}"#,
            1,
        );
        ask(r#"{"type":"TICK","rate":0.0588}"#, 3);
        ask(r#"{"type":"QUIT"}"#, 1);
        replies
    });

    let (stream, _) = listener.accept().expect("accept");
    net::serve_connection(stream, server).expect("serve");
    let replies = client.join().expect("client thread");

    let expect = |i: usize, needle: &str| {
        assert!(
            replies[i].contains(needle),
            "reply {i} missing {needle:?}: {}",
            replies[i]
        );
    };
    expect(0, "\"type\":\"SUBSCRIBED\"");
    expect(1, "\"type\":\"SUBSCRIBED\"");
    expect(2, "\"type\":\"RESULT\"");
    expect(3, "\"type\":\"RESULT\"");
    expect(4, "\"type\":\"TICK_DONE\"");
    expect(5, "\"type\":\"RESULT\"");
    expect(6, "\"type\":\"RESULT\"");
    expect(7, "\"type\":\"TICK_DONE\"");
    expect(7, "\"shed\":2");
    expect(8, "\"type\":\"STATS\"");
    expect(8, "\"ticks\":2");
    expect(9, "\"type\":\"CREATED\"");
    expect(9, "\"relation\":\"alt\"");
    expect(10, "\"type\":\"SUBSCRIBED\"");
    expect(10, "\"relation\":\"alt\"");
    expect(11, "\"type\":\"RESULT\"");
    expect(11, "\"relation\":\"default\"");
    expect(12, "\"type\":\"RESULT\"");
    expect(13, "\"type\":\"TICK_DONE\"");
    expect(13, "\"relation\":\"default\"");
    expect(14, "\"type\":\"RESULT\"");
    expect(14, "\"relation\":\"alt\"");
    expect(15, "\"type\":\"TICK_DONE\"");
    expect(15, "\"relation\":\"alt\"");
    expect(16, "\"type\":\"RELATIONS\"");
    expect(16, "\"name\":\"alt\"");
    for refused in 17..20 {
        expect(refused, "\"type\":\"ERROR\"");
    }
    expect(20, "\"type\":\"RESULT\"");
    expect(21, "\"type\":\"RESULT\"");
    expect(22, "\"type\":\"TICK_DONE\"");
    expect(23, "\"type\":\"BYE\"");
    let default = server.catalog().by_name(va_server::DEFAULT_RELATION);
    assert_eq!(default.map(|t| t.ticks()), Some(4));
    println!("va-server smoke: {} replies ok over {addr}", replies.len());
}
