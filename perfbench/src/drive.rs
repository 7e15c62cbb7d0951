//! The closed-loop client: each connection sends its next request only
//! after the previous reply arrived.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dbgpt_server::tcp::send_request;
use dbgpt_server::{decode_frame, encode_frame, Request, Response, Server};

use crate::gen::{Class, Op, Plan, CONNS, TURNS};
use crate::oracle::{check, Verdict};
use crate::stats::{Layers, Tally};

/// One way to serve a request.
pub trait Exchange {
    /// Serve one request: the oracle's verdict (`None` if the transport
    /// refused it) and the latency in microseconds.
    fn exchange(&mut self, op: &Op, req: &Request) -> (Option<Verdict>, f64);

    /// Called once when the warm-up ends.
    fn warm_done(&mut self) {}

    /// Per-layer numbers gathered after the warm-up (traced pass only).
    fn finish(self) -> Layers
    where
        Self: Sized,
    {
        Layers::default()
    }
}

/// Time a round trip from sending the request to its decoded reply.
fn round_trip(op: &Op, send: impl FnOnce() -> Option<Response>) -> (Option<Verdict>, f64) {
    let t0 = Instant::now();
    let reply = send();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    (reply.map(|r| check(&op.expect, &r)), us)
}

/// A kept-alive loopback TCP connection.
pub struct Tcp {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Tcp {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Tcp {
        Tcp { addr, stream: None }
    }

    fn send(&mut self, req: &Request) -> Option<Response> {
        if self.stream.is_none() {
            self.stream = Some(TcpStream::connect(self.addr).ok()?);
        }
        let reply = send_request(self.stream.as_mut()?, req).ok();
        if reply.is_none() {
            // The stream may be mid-frame; reconnect for the next request.
            self.stream = None;
        }
        reply
    }
}

impl Exchange for Tcp {
    fn exchange(&mut self, op: &Op, req: &Request) -> (Option<Verdict>, f64) {
        round_trip(op, || self.send(req))
    }
}

/// In-process framing: `Server::handle_frame` without a socket.
pub struct InProcess<'s>(pub &'s Server);

impl Exchange for InProcess<'_> {
    fn exchange(&mut self, op: &Op, req: &Request) -> (Option<Verdict>, f64) {
        round_trip(op, || {
            let reply = self.0.handle_frame(&encode_frame(req));
            decode_frame::<Response>(&reply).ok().map(|(r, _)| r)
        })
    }
}

/// A timed request: which one, its class and latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Connection and position in its stream: the same request in every
    /// pass over the same plan.
    pub key: (usize, usize),
    /// Request class.
    pub class: Class,
    /// Latency in microseconds.
    pub us: f64,
    /// Sent after the warm-up.
    pub timed: bool,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Outcomes of the warm-up requests.
    pub warmup: Tally,
    /// Outcomes of the timed requests.
    pub timed: Tally,
    /// Every request, warm-up included.
    pub samples: Vec<Sample>,
    /// Seconds from the end of the warm-up to the last timed reply.
    pub seconds: f64,
    /// Per-layer numbers (traced pass only).
    pub layers: Layers,
}

/// Phase boundaries shared by the connections of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// End of the warm-up.
    pub warm_end: Instant,
    /// No request starts after this.
    pub end: Instant,
}

impl Clock {
    /// A warm-up of `warmup` followed by `timed`, starting now.
    pub fn start(warmup: Duration, timed: Duration) -> Clock {
        let warm_end = Instant::now() + warmup;
        Clock {
            warm_end,
            end: warm_end + timed,
        }
    }
}

/// Opens and closes a connection's conversation sessions around the turns
/// of `demo_mix` (the wire protocol has no session-open request).
pub struct Sessions<'s> {
    server: &'s Server,
    /// The open session id, or empty.
    pub id: String,
}

impl<'s> Sessions<'s> {
    /// No session open.
    pub fn new(server: &'s Server) -> Self {
        Sessions {
            server,
            id: String::new(),
        }
    }

    /// Open a session before a conversation's first turn.
    pub fn before(&mut self, op: &Op) {
        if op.turn == Some(0) {
            self.id = self.server.open_session(op.app);
        }
    }

    /// Close the session after a conversation's last turn.
    pub fn after(&mut self, op: &Op) {
        if op.turn == Some(TURNS - 1) {
            self.server
                .sessions()
                .close(&self.id)
                .expect("the conversation's session is open");
            self.id.clear();
        }
    }
}

/// Run every connection's stream through its own `Exchange` until the
/// clock ends. `server` holds the sessions.
pub fn run<E: Exchange>(
    plan: &Plan,
    server: &Server,
    connect: impl Fn() -> E + Sync,
    clock: Clock,
) -> Pass {
    let per_conn: Vec<(Pass, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let connect = &connect;
                s.spawn(move || {
                    let mut ex = connect();
                    let mut sessions = Sessions::new(server);
                    let mut pass = Pass::default();
                    let mut last = clock.warm_end;
                    let mut warm = true;
                    for (seq, op) in plan.stream(conn).enumerate() {
                        let start = Instant::now();
                        if start >= clock.end {
                            break;
                        }
                        if warm && start >= clock.warm_end {
                            warm = false;
                            ex.warm_done();
                        }
                        sessions.before(&op);
                        let req = op.request(seq as u64, &sessions.id);
                        let (verdict, us) = ex.exchange(&op, &req);
                        sessions.after(&op);
                        pass.samples.push(Sample {
                            key: (conn, seq),
                            class: op.class,
                            us,
                            timed: !warm,
                        });
                        if warm {
                            pass.warmup.add(verdict);
                        } else {
                            pass.timed.add(verdict);
                            last = Instant::now();
                        }
                    }
                    pass.layers = ex.finish();
                    (pass, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Pass::default();
    let mut last = clock.warm_end;
    for (p, l) in per_conn {
        out.warmup.merge(&p.warmup);
        out.timed.merge(&p.timed);
        out.samples.extend(p.samples);
        out.layers.merge(p.layers);
        last = last.max(l);
    }
    out.seconds = (last - clock.warm_end).as_secs_f64();
    out
}
