//! The TCP front-end: a nonblocking multi-client readiness loop over the
//! newline-JSON protocol.
//!
//! One [`FrontEnd`] serves any number of concurrent connections against
//! the single deterministic [`Server`]: every socket is nonblocking, a
//! [`PollSet`] wait picks the ready ones each turn,
//! and per-connection read/write buffers reassemble lines and absorb
//! backpressure. The scheduler itself stays single-threaded — concurrency
//! lives entirely at the socket layer, so answers are bit-identical to a
//! serial run.
//!
//! Three properties the loop guarantees:
//!
//! * **Connection errors are connection-local.** A client that dies
//!   mid-write (or mid-read) is logged, dropped and forgotten; the accept
//!   loop and every other connection keep going.
//! * **Slow clients never stall the tick loop.** Results are queued to a
//!   bounded per-connection write buffer and flushed as the socket
//!   drains; a connection whose buffer overflows
//!   ([`FrontEndConfig::max_write_buffer`]) is evicted, not waited on.
//! * **Fan-out is one payload per distinct answer per tick.** A tick's
//!   answers are grouped by [`broadcast_groups`] on their bits: sessions
//!   whose answers are bit-equal — whatever their queries — share one
//!   serialized payload, and the per-session `RESULT` line is a cheap
//!   prefix wrap around it.
//!
//! `QUIT` is connection-scoped: it closes that connection (after its
//! replies flush) and leaves the server — and every other client —
//! running. The durable final snapshot now belongs to listener shutdown
//! (see [`Server::shutdown`] and the `va-server` binary's SIGTERM
//! handling), not to whichever client happens to hang up first.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use bondlab::{Bond, BondUniverse};
use va_stream::BondRelation;

use crate::catalog::{Tenant, DEFAULT_RELATION};
use crate::error::ServerError;
use crate::poll::{self, PollSet};
use crate::proto::{self, RelationSpec, Request};
use crate::server::{Server, TickResult};
use crate::session::{broadcast_groups, SessionId};

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrontEndConfig {
    /// Eviction threshold for a connection's pending write bytes. A
    /// client that stops reading while results accumulate past this is
    /// dropped rather than allowed to wedge the loop or grow the heap.
    /// Bytes the socket already took are dropped before the buffer grows
    /// past it, so a connection's buffer holds at most about this many
    /// bytes, sent or not.
    pub max_write_buffer: usize,
    /// Maximum bytes of one request line; a connection exceeding it gets
    /// an `ERROR` and is closed (a stream that never sends `\n` would
    /// otherwise grow the read buffer forever).
    pub max_line_bytes: usize,
    /// Poll timeout per loop turn. Bounds how stale the stop-flag check
    /// can get when no socket is active.
    pub poll_timeout_ms: i32,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self {
            max_write_buffer: 1 << 20,
            max_line_bytes: 1 << 20,
            poll_timeout_ms: 50,
        }
    }
}

/// Lifetime counters for one front-end, exposed for tests and the
/// `frontend-scaling` harness target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Connections accepted (or adopted).
    pub accepted: u64,
    /// Connections fully closed and reaped, for any reason.
    pub closed: u64,
    /// Connections evicted because their write buffer overflowed.
    pub evicted_slow: u64,
    /// Connections dropped on a read/write IO error.
    pub dropped_io: u64,
    /// `RESULT` lines queued to connections.
    pub results_delivered: u64,
    /// Result payloads serialized: one payload per distinct answer per
    /// tick, however many sessions and connections received it.
    pub payloads_serialized: u64,
}

/// One live client connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Unparsed request bytes (a partial trailing line between turns).
    rbuf: Vec<u8>,
    /// Reply lines, written in place by the `proto::write_*` writers; the
    /// socket has accepted the first `sent` bytes.
    wbuf: String,
    /// Bytes of `wbuf` already written to the socket.
    sent: usize,
    /// The relation selected by `USE`, applied to data-plane requests that
    /// omit an explicit `"relation"` field (`None` → `"default"`).
    use_relation: Option<String>,
    /// Sessions attached to this connection (subscribed or resumed here),
    /// keyed `(relation id, session id)` — session id spaces are
    /// per-relation, so the pair is the global identity. Front-end state
    /// only — sessions themselves outlive the connection (a client that
    /// hangs up and later `RESUME`s is the recovery story ci.sh
    /// exercises).
    sessions: Vec<(u64, SessionId)>,
    /// No more requests will arrive (EOF, `QUIT`, or an oversize line);
    /// the connection closes once `wbuf` drains.
    read_closed: bool,
    /// Drop without further IO at the next reap.
    dead: bool,
}

impl Conn {
    /// Reply bytes the socket has not accepted yet.
    fn pending(&self) -> usize {
        self.wbuf.len() - self.sent
    }

    /// Drops the sent prefix of `wbuf` once everything is sent or it is
    /// half the buffer, so moving the unsent rest costs at most as much as
    /// sending the prefix did.
    fn reclaim(&mut self) {
        if self.pending() == 0 {
            self.wbuf.clear();
            self.sent = 0;
        } else if self.sent >= self.wbuf.len() / 2 {
            self.drop_sent();
        }
    }

    /// Drops the sent prefix of `wbuf`, back to a character boundary: a
    /// partial write can stop inside a multi-byte character.
    fn drop_sent(&mut self) {
        let mut cut = self.sent;
        while !self.wbuf.is_char_boundary(cut) {
            cut -= 1;
        }
        self.wbuf.drain(..cut);
        self.sent -= cut;
    }
}

/// What a `write_*` writer's result means here: a `String` accepts every
/// write.
const STRING_WRITE: &str = "writing to a String cannot fail";

/// The nonblocking multi-client readiness loop.
#[derive(Debug, Default)]
pub struct FrontEnd {
    config: FrontEndConfig,
    conns: Vec<Conn>,
    stats: FrontEndStats,
    /// The `RESULT` payload buffer [`FrontEnd::broadcast`] reuses.
    payload: String,
}

impl FrontEnd {
    /// A front-end with explicit tuning knobs.
    #[must_use]
    pub fn new(config: FrontEndConfig) -> Self {
        Self {
            config,
            conns: Vec::new(),
            stats: FrontEndStats::default(),
            payload: String::new(),
        }
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> FrontEndStats {
        self.stats
    }

    /// Live connections right now.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Serves `listener` until `stop` is set, multiplexing every accepted
    /// connection through the readiness loop. Returns only on a fatal
    /// poll-layer error or a set stop flag — per-connection IO errors are
    /// handled connection-locally and never propagate here. The caller
    /// owns the clean-shutdown snapshot ([`Server::shutdown`]) after this
    /// returns.
    pub fn run(
        &mut self,
        listener: &TcpListener,
        server: &mut Server,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        while !stop.load(Ordering::SeqCst) {
            self.turn(Some(listener), server)?;
        }
        Ok(())
    }

    /// Takes ownership of an already-connected stream, as if it had been
    /// accepted from the listener.
    pub fn adopt(&mut self, stream: TcpStream) -> std::io::Result<()> {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        self.adopt_from(stream, peer)
    }

    fn adopt_from(&mut self, stream: TcpStream, peer: String) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        // Replies go out as soon as a turn flushes them; Nagle would hold a
        // tick's last partial segment back until the client's delayed ACK.
        stream.set_nodelay(true)?;
        self.stats.accepted += 1;
        self.conns.push(Conn {
            stream,
            peer,
            rbuf: Vec::new(),
            wbuf: String::new(),
            sent: 0,
            use_relation: None,
            sessions: Vec::new(),
            read_closed: false,
            dead: false,
        });
        Ok(())
    }

    /// One readiness turn: wait for socket events, accept, read and
    /// dispatch ready requests, flush pending replies, reap finished
    /// connections. Public so embedders (the bench harness, the compat
    /// wrappers below) can drive the loop under their own control flow.
    pub fn turn(
        &mut self,
        listener: Option<&TcpListener>,
        server: &mut Server,
    ) -> std::io::Result<()> {
        let mut set = PollSet::new();
        let listener_slot = listener.map(|l| set.push(l, poll::READABLE));
        let conn_slots: Vec<usize> = self
            .conns
            .iter()
            .map(|c| {
                let mut interest = 0;
                if !c.read_closed {
                    interest |= poll::READABLE;
                }
                if c.pending() > 0 {
                    interest |= poll::WRITABLE;
                }
                set.push(&c.stream, interest)
            })
            .collect();
        set.wait(self.config.poll_timeout_ms)?;

        if let (Some(l), Some(slot)) = (listener, listener_slot) {
            if set.readable(slot) {
                self.accept_ready(l);
            }
        }
        // `accept_ready` only appends, so slot i still maps to conn i.
        for (i, &slot) in conn_slots.iter().enumerate() {
            if set.readable(slot) && !self.conns[i].dead && !self.conns[i].read_closed {
                self.read_ready(i, server);
            }
        }
        // Flush everything with pending output, not just conns whose slot
        // reported writable: replies queued by this turn's dispatches
        // postdate the poll, and a spurious write attempt is a cheap
        // `WouldBlock`.
        for i in 0..self.conns.len() {
            if !self.conns[i].dead && self.conns[i].pending() > 0 {
                self.flush(i);
            }
        }
        self.reap();
        Ok(())
    }

    /// Drains the accept queue. Transient accept errors (a connection
    /// aborted between poll and accept, fd pressure) are logged and
    /// skipped — the listener must survive any client's behavior.
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if let Err(e) = self.adopt_from(stream, peer.to_string()) {
                        eprintln!("va-server: setup {peer}: {e}");
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("va-server: accept: {e}");
                    break;
                }
            }
        }
    }

    /// Reads everything the socket has, then dispatches each complete
    /// line. IO errors kill only this connection.
    fn read_ready(&mut self, i: usize, server: &mut Server) {
        let mut buf = [0u8; 8192];
        loop {
            match self.conns[i].stream.read(&mut buf) {
                Ok(0) => {
                    // Half-close: lines already buffered still dispatch
                    // below and their replies still flush — the `--client`
                    // driver shuts down its write side and reads to EOF.
                    self.conns[i].read_closed = true;
                    break;
                }
                Ok(n) => self.conns[i].rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("va-server: read {}: {e}", self.conns[i].peer);
                    self.conns[i].dead = true;
                    self.stats.dropped_io += 1;
                    return;
                }
            }
        }
        // Lines are consumed through a cursor and the buffer is compacted
        // once, after the last: cutting each line off the front would copy
        // the rest of a pipelined burst once per line.
        let mut start = 0;
        while let Some(len) = self.conns[i].rbuf[start..].iter().position(|&b| b == b'\n') {
            let raw = &self.conns[i].rbuf[start..start + len];
            let line = String::from_utf8_lossy(raw.strip_suffix(b"\r").unwrap_or(raw)).into_owned();
            start += len + 1;
            if line.trim().is_empty() {
                continue;
            }
            if self.conns[i].dead || !self.dispatch(i, &line, server) {
                // `QUIT` (or an eviction mid-dispatch): pipelined input
                // after it is discarded, matching the old front-end.
                start = self.conns[i].rbuf.len();
                break;
            }
        }
        self.conns[i].rbuf.drain(..start);
        if !self.conns[i].read_closed && self.conns[i].rbuf.len() > self.config.max_line_bytes {
            let msg = format!("request line exceeds {} bytes", self.config.max_line_bytes);
            self.queue(i, |out| proto::write_error(out, &msg));
            self.conns[i].rbuf.clear();
            self.conns[i].read_closed = true;
        }
    }

    /// Handles one parsed request on connection `i`. Returns `false` when
    /// the connection accepts no further input (`QUIT`).
    fn dispatch(&mut self, i: usize, line: &str, server: &mut Server) -> bool {
        let req = match proto::parse_request(line) {
            Ok(req) => req,
            Err(msg) => {
                self.queue(i, |out| proto::write_error(out, &msg));
                return true;
            }
        };
        match req {
            Request::Quit => {
                // Connection-scoped: say goodbye and stop reading. The
                // server — and every other client — keeps running; the
                // durable final snapshot belongs to listener shutdown.
                self.queue(i, proto::write_bye);
                self.conns[i].read_closed = true;
                return false;
            }
            Request::Subscribe {
                relation,
                query,
                priority,
            } => {
                let Some((name, tenant)) = self.tenant(i, server, relation) else {
                    return true;
                };
                let (rel_id, n) = (tenant.id().0, tenant.relation().len());
                let query = query.into_query(n);
                match server.subscribe_to(&name, query, priority) {
                    Ok(id) => {
                        self.conns[i].sessions.push((rel_id, id));
                        self.queue(i, |out| proto::write_subscribed(out, &name, id));
                    }
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Unsubscribe { relation, session } => {
                let Some((name, tenant)) = self.tenant(i, server, relation) else {
                    return true;
                };
                let key = (tenant.id().0, SessionId(session));
                match server.unsubscribe_in(&name, key.1) {
                    Ok(()) => {
                        for conn in &mut self.conns {
                            conn.sessions.retain(|&s| s != key);
                        }
                        self.queue(i, |out| proto::write_unsubscribed(out, &name, session));
                    }
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Resume { relation, session } => {
                let Some((name, tenant)) = self.tenant(i, server, relation) else {
                    return true;
                };
                let key = (tenant.id().0, SessionId(session));
                match server.resume_in(&name, key.1) {
                    Ok((sess, answer)) => {
                        // Re-attach: future RESULTs for the session are
                        // delivered here.
                        if !self.conns[i].sessions.contains(&key) {
                            self.conns[i].sessions.push(key);
                        }
                        let tick = tenant.ticks();
                        self.queue(i, |out| {
                            proto::write_resumed(out, &name, sess, tick, answer)
                        });
                    }
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Tick { relation, rate } => {
                let name = self.resolve(i, relation);
                match server.tick_relation(&name, rate) {
                    Ok(res) => self.broadcast(server, &name, &res, i),
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Ticks { relation, rates } => {
                let name = self.resolve(i, relation);
                // The parser rejects an empty rates array, so the queue is
                // guaranteed nonempty here.
                for &rate in &rates {
                    if let Err(e) = server.offer_tick_in(&name, rate) {
                        self.queue(i, |out| proto::write_error(out, &e.to_string()));
                        return true;
                    }
                }
                match server.run_queued_in(&name) {
                    Some(Ok(res)) => self.broadcast(server, &name, &res, i),
                    Some(Err(e)) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                    None => self.queue(i, |out| proto::write_error(out, "no ticks offered")),
                }
            }
            Request::TickMulti { ticks } => {
                let pairs: Vec<(&str, f64)> = ticks.iter().map(|(n, r)| (n.as_str(), *r)).collect();
                match server.tick_multi(&pairs) {
                    Ok(results) => {
                        for (res, (name, _)) in results.iter().zip(&ticks) {
                            self.broadcast(server, name, res, i);
                        }
                    }
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Stats { relation } => {
                if let Some((_, tenant)) = self.tenant(i, server, relation) {
                    self.queue(i, |out| proto::write_stats(out, tenant));
                }
            }
            Request::CreateRelation { name, spec } => {
                let (relation, seed) = match build_relation(&spec) {
                    Ok(pair) => pair,
                    Err(msg) => {
                        self.queue(i, |out| proto::write_error(out, &msg));
                        return true;
                    }
                };
                let bonds = relation.len();
                match server.create_relation(&name, relation, seed) {
                    Ok(id) => self.queue(i, |out| proto::write_created(out, &name, id.0, bonds)),
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::DropRelation { name } => match server.drop_relation(&name) {
                Ok(id) => {
                    // Sessions under the dropped relation are gone; stop
                    // tracking them on every connection.
                    for conn in &mut self.conns {
                        conn.sessions.retain(|&(rel, _)| rel != id.0);
                    }
                    self.queue(i, |out| proto::write_dropped(out, &name, id.0));
                }
                Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
            },
            Request::AddBond { relation, bond } => {
                let name = self.resolve(i, relation);
                match server.add_bond(&name, bond.coupon, bond.maturity, bond.face) {
                    // Bond ids are positions: the new one is the last.
                    Ok(bond_id) => {
                        self.queue(i, |out| {
                            proto::write_bond_added(out, &name, bond_id, bond_id as usize + 1)
                        });
                    }
                    Err(e) => self.queue(i, |out| proto::write_error(out, &e.to_string())),
                }
            }
            Request::Use { name } => {
                if let Some((name, _)) = self.tenant(i, server, Some(name)) {
                    self.queue(i, |out| proto::write_using(out, &name));
                    self.conns[i].use_relation = Some(name);
                }
            }
            Request::Relations => {
                self.queue(i, |out| proto::write_relations(out, server.catalog()));
            }
        }
        true
    }

    /// Resolves the relation a data-plane request addresses: its explicit
    /// `"relation"` field, else the connection's `USE` selection, else
    /// `"default"`.
    fn resolve(&self, i: usize, explicit: Option<String>) -> String {
        explicit.unwrap_or_else(|| {
            self.conns[i]
                .use_relation
                .clone()
                .unwrap_or_else(|| DEFAULT_RELATION.to_string())
        })
    }

    /// Looks up the tenant a request addresses, under the name
    /// [`FrontEnd::resolve`] gives it, and on a miss answers the request
    /// with the typed unknown-relation `ERROR` line. The front end's one
    /// lookup per request: the name-addressed [`Server`] method the arm
    /// then calls resolves the name once more, as every such method does.
    fn tenant<'s>(
        &mut self,
        i: usize,
        server: &'s Server,
        explicit: Option<String>,
    ) -> Option<(String, &'s Tenant)> {
        let name = self.resolve(i, explicit);
        let tenant = server.catalog().by_name(&name);
        if tenant.is_none() {
            let e = ServerError::UnknownRelation(name.clone());
            self.queue(i, |out| proto::write_error(out, &e.to_string()));
        }
        tenant.map(|t| (name, t))
    }

    /// Fans one relation's tick answers out to every attached connection,
    /// and the `TICK_DONE` trailer to the connection that drove the tick.
    /// Each distinct answer's payload (see [`broadcast_groups`]) is encoded
    /// once, into a buffer reused across ticks, and every receiver's
    /// `RESULT` line is written around it straight into that receiver's
    /// write buffer.
    fn broadcast(&mut self, server: &Server, name: &str, res: &TickResult, origin: usize) {
        let rel_id = res.relation.0;
        let mut payload = std::mem::take(&mut self.payload);
        for group in broadcast_groups(&res.answers) {
            payload.clear();
            proto::write_result_payload(&mut payload, name, res.tick, res.rate, group.answer)
                .expect(STRING_WRITE);
            self.stats.payloads_serialized += 1;
            for &sid in &group.sessions {
                for ci in 0..self.conns.len() {
                    let conn = &self.conns[ci];
                    if !conn.dead && conn.sessions.contains(&(rel_id, sid)) {
                        self.queue(ci, |out| proto::write_result_line(out, sid, &payload));
                        self.stats.results_delivered += 1;
                    }
                }
            }
        }
        self.payload = payload;
        let shed = server.catalog().get(res.relation).map_or(0, Tenant::shed);
        self.queue(origin, |out| proto::write_tick_done(out, name, res, shed));
    }

    /// Appends one reply line to connection `i`'s write buffer, `write`
    /// encoding it in place, and evicts the connection instead of letting
    /// its pending bytes grow past the configured bound. A buffer past the
    /// bound first drops what the socket already took.
    fn queue(&mut self, i: usize, write: impl FnOnce(&mut String) -> fmt::Result) {
        let conn = &mut self.conns[i];
        if conn.dead {
            return;
        }
        write(&mut conn.wbuf).expect(STRING_WRITE);
        conn.wbuf.push('\n');
        if conn.wbuf.len() > self.config.max_write_buffer {
            conn.drop_sent();
        }
        if conn.pending() > self.config.max_write_buffer {
            eprintln!(
                "va-server: evicting slow client {} ({} bytes pending)",
                conn.peer,
                conn.pending()
            );
            conn.dead = true;
            self.stats.evicted_slow += 1;
        }
    }

    /// Writes as much pending output as the socket accepts right now.
    fn flush(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        while conn.pending() > 0 {
            match conn.stream.write(&conn.wbuf.as_bytes()[conn.sent..]) {
                Ok(0) => {
                    conn.dead = true;
                    self.stats.dropped_io += 1;
                    return;
                }
                Ok(n) => conn.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("va-server: write {}: {e}", conn.peer);
                    conn.dead = true;
                    self.stats.dropped_io += 1;
                    return;
                }
            }
        }
        conn.reclaim();
    }

    /// Drops finished connections: dead ones immediately, half-closed
    /// ones once their replies have flushed.
    fn reap(&mut self) {
        let before = self.conns.len();
        self.conns
            .retain(|c| !(c.dead || (c.read_closed && c.pending() == 0)));
        self.stats.closed += (before - self.conns.len()) as u64;
    }
}

/// The most bonds a seeded `CREATE_RELATION` may ask the generator for.
/// Bond ids are `u32` and the `create_relation` journal line carries every
/// bond: this keeps that line near 4 MB and the request from allocating
/// whatever a client names.
const MAX_SEEDED_BONDS: u64 = 1 << 16;

/// Materializes a `CREATE_RELATION` spec into a relation, validating
/// wire bonds so a malformed bond is a protocol `ERROR`, never a panic
/// inside `Bond::new`. Returns the provenance seed for seeded specs.
fn build_relation(spec: &RelationSpec) -> Result<(BondRelation, Option<u64>), String> {
    match spec {
        RelationSpec::Seeded { seed, count } => {
            if *count > MAX_SEEDED_BONDS {
                return Err(format!(
                    "\"count\" {count} exceeds the {MAX_SEEDED_BONDS} bonds a seeded relation may hold"
                ));
            }
            let count = usize::try_from(*count).map_err(|_| "\"count\" out of range")?;
            Ok((
                BondRelation::from_universe(&BondUniverse::generate(count, *seed)),
                Some(*seed),
            ))
        }
        RelationSpec::Bonds(bonds) => {
            let mut out = Vec::with_capacity(bonds.len());
            for (idx, b) in bonds.iter().enumerate() {
                let id = u32::try_from(idx).map_err(|_| "too many bonds".to_string())?;
                out.push(
                    Bond::try_new(id, b.coupon, b.maturity, b.face)
                        .map_err(|detail| format!("invalid bond: {detail}"))?,
                );
            }
            Ok((BondRelation::from_bonds(out), None))
        }
    }
}

/// Serves one already-accepted connection to completion (`QUIT` or EOF,
/// plus reply flush) — the single-client entry the loopback tests and the
/// `--smoke` exchange use.
pub fn serve_connection(stream: TcpStream, server: &mut Server) -> std::io::Result<()> {
    let mut front = FrontEnd::default();
    front.adopt(stream)?;
    while front.connections() > 0 {
        front.turn(None, server)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::{BondPricer, BondUniverse};
    use va_stream::BondRelation;

    fn tiny_server() -> Server {
        let universe = BondUniverse::generate(4, 7);
        let relation = BondRelation::from_universe(&universe);
        Server::new(
            BondPricer::default(),
            relation,
            crate::ServerConfig::default(),
        )
    }

    /// A loopback pair with the server side adopted by a front-end.
    fn adopted(front: &mut FrontEnd) -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        front.adopt(server_side).expect("adopt");
        client
    }

    #[test]
    fn overflowing_the_write_buffer_evicts_the_connection() {
        let mut front = FrontEnd::new(FrontEndConfig {
            max_write_buffer: 64,
            ..FrontEndConfig::default()
        });
        let _client = adopted(&mut front);
        front.queue(0, |out| fmt::Write::write_str(out, &"x".repeat(100)));
        assert_eq!(front.stats().evicted_slow, 1);
        assert!(front.conns[0].dead);
        // Queueing to an evicted connection is a no-op, not a panic.
        front.queue(0, |out| fmt::Write::write_str(out, "more"));
        front.reap();
        assert_eq!(front.connections(), 0);
        assert_eq!(front.stats().closed, 1);
    }

    #[test]
    fn adopted_streams_send_without_nagle_delay() {
        let mut front = FrontEnd::default();
        let _client = adopted(&mut front);
        assert!(front.conns[0].stream.nodelay().expect("nodelay"));
    }

    #[test]
    fn a_partly_sent_buffer_keeps_its_unsent_bytes() {
        let mut front = FrontEnd::default();
        let _client = adopted(&mut front);
        front.queue(0, |out| fmt::Write::write_str(out, "ab\u{e9}cd"));
        let conn = &mut front.conns[0];
        // The socket took the first three bytes: 'a', 'b' and the first
        // byte of the two-byte 'é'.
        conn.sent = 3;
        conn.reclaim();
        assert_eq!(conn.wbuf, "\u{e9}cd\n", "cut back to the char boundary");
        assert_eq!(conn.sent, 1);
        assert_eq!(conn.pending(), 4);
        conn.sent = conn.wbuf.len();
        conn.reclaim();
        assert!(conn.wbuf.is_empty());
        assert_eq!(conn.pending(), 0);
    }

    #[test]
    fn a_buffer_past_the_bound_drops_its_sent_bytes_instead_of_evicting() {
        let mut front = FrontEnd::new(FrontEndConfig {
            max_write_buffer: 64,
            ..FrontEndConfig::default()
        });
        let _client = adopted(&mut front);
        front.queue(0, |out| fmt::Write::write_str(out, &"a".repeat(59)));
        // The socket took 20 bytes: too few to reclaim after the flush.
        front.conns[0].sent = 20;
        front.conns[0].reclaim();
        assert_eq!(front.conns[0].wbuf.len(), 60);
        // The next line takes the buffer past the bound, but not its
        // pending bytes: the sent prefix goes and the client stays.
        front.queue(0, |out| fmt::Write::write_str(out, "bbbbbbbbbbbbbbbbbbb"));
        let conn = &front.conns[0];
        assert!(!conn.dead);
        assert_eq!((conn.sent, conn.pending(), conn.wbuf.len()), (0, 60, 60));
        assert!(conn.wbuf.starts_with('a') && conn.wbuf.ends_with("b\n"));
        assert_eq!(front.stats().evicted_slow, 0);
    }

    #[test]
    fn oversize_request_line_errors_and_closes() {
        let mut front = FrontEnd::new(FrontEndConfig {
            max_line_bytes: 32,
            ..FrontEndConfig::default()
        });
        let mut client = adopted(&mut front);
        let mut server = tiny_server();
        client
            .write_all(&[b'a'; 100])
            .expect("write oversize prefix");
        // The guard closes the connection once the replies flush, so the
        // loop drains on its own.
        for _ in 0..200 {
            if front.connections() == 0 {
                break;
            }
            front.turn(None, &mut server).expect("turn");
        }
        assert_eq!(front.connections(), 0, "oversize line closes the conn");
        let mut reply = String::new();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        std::io::BufRead::read_line(
            &mut std::io::BufReader::new(client.try_clone().expect("clone")),
            &mut reply,
        )
        .expect("read error line");
        assert!(reply.contains("\"type\":\"ERROR\""), "{reply}");
        assert!(reply.contains("exceeds 32 bytes"), "{reply}");
    }

    #[test]
    fn catalog_commands_round_trip_over_loopback() {
        let mut front = FrontEnd::default();
        let mut client = adopted(&mut front);
        let mut server = tiny_server();
        client
            .write_all(
                concat!(
                    "{\"type\":\"CREATE_RELATION\",\"name\":\"energy\",\"seed\":7,\"count\":4}\n",
                    "{\"type\":\"USE\",\"name\":\"energy\"}\n",
                    "{\"type\":\"SUBSCRIBE\",\"query\":{\"kind\":\"max\",\"epsilon\":0.5}}\n",
                    "{\"type\":\"TICK\",\"rate\":0.0583}\n",
                    "{\"type\":\"RELATIONS\"}\n",
                    "{\"type\":\"SUBSCRIBE\",\"relation\":\"nope\",\"query\":{\"kind\":\"max\",\"epsilon\":0.5}}\n",
                    "{\"type\":\"ADD_BOND\",\"bond\":{\"coupon\":1.5,\"maturity\":10,\"face\":100}}\n",
                    "{\"type\":\"DROP_RELATION\",\"name\":\"energy\"}\n",
                    "{\"type\":\"STATS\"}\n",
                )
                .as_bytes(),
            )
            .expect("write");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        for _ in 0..400 {
            if front.connections() == 0 {
                break;
            }
            front.turn(None, &mut server).expect("turn");
        }
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = std::io::BufReader::new(client);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if std::io::BufRead::read_line(&mut reader, &mut line).expect("read") == 0 {
                break;
            }
            lines.push(line);
        }
        assert!(
            lines[0].contains("\"type\":\"CREATED\"") && lines[0].contains("\"bonds\":4"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"type\":\"USING\""), "{}", lines[1]);
        assert!(
            lines[2].contains("\"type\":\"SUBSCRIBED\"")
                && lines[2].contains("\"relation\":\"energy\""),
            "{}",
            lines[2]
        );
        // The USE-selected tick answers against "energy", not "default".
        assert!(
            lines[3].contains("\"type\":\"RESULT\"")
                && lines[3].contains("\"relation\":\"energy\""),
            "{}",
            lines[3]
        );
        assert!(lines[4].contains("\"type\":\"TICK_DONE\""), "{}", lines[4]);
        assert!(
            lines[5].contains("\"type\":\"RELATIONS\"")
                && lines[5].contains("\"name\":\"default\"")
                && lines[5].contains("\"name\":\"energy\""),
            "{}",
            lines[5]
        );
        assert!(
            lines[6].contains("\"type\":\"ERROR\"")
                && lines[6].contains("unknown relation \\\"nope\\\""),
            "{}",
            lines[6]
        );
        assert!(
            lines[7].contains("\"type\":\"ERROR\"") && lines[7].contains("invalid bond"),
            "{}",
            lines[7]
        );
        assert!(lines[8].contains("\"type\":\"DROPPED\""), "{}", lines[8]);
        // STATS falls back to "default" once the USE'd relation is gone?
        // No — the USE selection still names "energy", which is now
        // unknown: a typed ERROR, never a panic or a silent fallback.
        assert!(
            lines[9].contains("\"type\":\"ERROR\"")
                && lines[9].contains("unknown relation \\\"energy\\\""),
            "{}",
            lines[9]
        );
        assert_eq!(lines.len(), 10, "{lines:?}");
    }

    #[test]
    fn a_pipelined_burst_of_100k_requests_gets_every_reply_in_order() {
        const REQUESTS: usize = 100_000;
        let mut front = FrontEnd::new(FrontEndConfig {
            // Every reply may queue before the first flush.
            max_write_buffer: 1 << 26,
            ..FrontEndConfig::default()
        });
        let client = adopted(&mut front);
        let mut server = tiny_server();
        // Each request names a different relation, so each reply says
        // which request it answers.
        let burst: String = (0..REQUESTS)
            .map(|k| format!("{{\"type\":\"USE\",\"name\":\"r{k}\"}}\n"))
            .collect();
        let mut writer = client.try_clone().expect("clone");
        let sender = std::thread::spawn(move || {
            writer.write_all(burst.as_bytes()).expect("write the burst");
            writer
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        });
        let receiver = std::thread::spawn(move || {
            let reader = std::io::BufReader::new(client);
            std::io::BufRead::lines(reader)
                .map(|l| l.expect("read reply"))
                .collect::<Vec<_>>()
        });
        while front.connections() > 0 {
            front.turn(None, &mut server).expect("turn");
        }
        sender.join().expect("sender");
        let replies = receiver.join().expect("receiver");
        assert_eq!(replies.len(), REQUESTS);
        for (k, reply) in replies.iter().enumerate() {
            let e = ServerError::UnknownRelation(format!("r{k}"));
            let want = va_persist::json::render(|out| proto::write_error(out, &e.to_string()));
            assert_eq!(reply, &want);
        }
        assert_eq!(front.stats().evicted_slow, 0);
    }

    #[test]
    fn crlf_and_blank_lines_are_tolerated() {
        let mut front = FrontEnd::default();
        let mut client = adopted(&mut front);
        let mut server = tiny_server();
        client
            .write_all(b"\r\n{\"type\":\"STATS\"}\r\n\n")
            .expect("write");
        // Half-close like the `--client` driver: the front-end must still
        // dispatch the buffered line and flush its reply before closing.
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        for _ in 0..200 {
            if front.connections() == 0 {
                break;
            }
            front.turn(None, &mut server).expect("turn");
        }
        assert_eq!(front.connections(), 0);
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        let mut reply = String::new();
        std::io::BufRead::read_line(
            &mut std::io::BufReader::new(client.try_clone().expect("clone")),
            &mut reply,
        )
        .expect("read stats line");
        assert!(reply.contains("\"type\":\"STATS\""), "{reply}");
    }
}
