//! Load generators for the served path, speaking the server's real wire
//! protocol.
//!
//! * [`open_loop`] sends on a fixed schedule from one thread and reads
//!   replies on another, so a slow reply never delays a later send. Every
//!   latency is taken from the request's scheduled send instant, which
//!   charges a stall to every request that fell due during it (no
//!   coordinated omission), and the generator reports how late it sent.
//! * [`window`] keeps a fixed number of requests in flight on one
//!   connection: the saturating, closed-loop phase.
//!
//! Any reply other than the expected answers (an `Overloaded` or other
//! error frame, a wrong answer, a timeout or a closed connection) counts
//! the request as failed, and a failed request misses every latency
//! limit.

use emg_server::protocol::{read_frame, write_frame, PROTOCOL_VERSION};
use emg_server::{QueryKind, Request, Response};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// One planned request and the answers it must get back.
pub struct Planned {
    pub graph: &'static str,
    pub kind: QueryKind,
    pub pairs: Vec<(u32, u32)>,
    pub expect: Vec<u32>,
}

impl Planned {
    /// The request's frame payload.
    pub fn encode(&self) -> Vec<u8> {
        Request::Query {
            graph: self.graph.to_string(),
            epoch: 0,
            kind: self.kind,
            pairs: self.pairs.clone(),
        }
        .encode()
    }

    /// Classifies a reply to this request.
    fn judge(&self, payload: &[u8]) -> Reply {
        match Response::decode(payload) {
            Ok(Response::Answers { kind, answers, .. }) => {
                if kind == self.kind && answers == self.expect {
                    Reply::Right
                } else {
                    Reply::Wrong
                }
            }
            _ => Reply::Refused,
        }
    }
}

/// How a reply answered its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The expected answers.
    Right,
    /// Answers that differ from the one-shot path's: a correctness fault.
    Wrong,
    /// An error frame (`Overloaded` among them) or an undecodable reply.
    Refused,
}

/// Opens a protocol session on a connected stream.
pub fn handshake(stream: &mut (impl Read + Write)) -> Result<(), String> {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    write_frame(stream, &hello.encode()).map_err(|e| format!("hello: {e}"))?;
    let reply = read_frame(stream).map_err(|e| format!("hello reply: {e:?}"))?;
    match Response::decode(&reply) {
        Ok(Response::HelloOk { .. }) => Ok(()),
        other => Err(format!("handshake refused: {other:?}")),
    }
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was actually written; `None` if it never was.
    pub sent: Option<Instant>,
    /// When its reply arrived and what it said; `None` if none did.
    pub done: Option<(Instant, Reply)>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        matches!(self.done, Some((_, Reply::Right)))
    }

    pub fn wrong(&self) -> bool {
        matches!(self.done, Some((_, Reply::Wrong)))
    }

    /// Latency from the scheduled send instant; infinite when failed.
    pub fn latency_ms(&self) -> f64 {
        match self.done {
            Some((done, Reply::Right)) => ms(done - self.due),
            _ => f64::INFINITY,
        }
    }

    /// How late the generator wrote it.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent.map(|s| ms(s.saturating_duration_since(self.due)))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `count` requests at `rate` per second from `start`, cycling
/// through `plan`, with the writes on a thread of their own. `reader`
/// must time out rather than block forever on a silent peer.
pub fn open_loop<W, R>(
    mut writer: W,
    mut reader: R,
    plan: &[Planned],
    count: usize,
    rate: f64,
    start: Instant,
) -> Vec<Outcome>
where
    W: Write + Send,
    R: Read,
{
    let frames: Vec<Vec<u8>> = plan.iter().map(Planned::encode).collect();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(count);
            for i in 0..count {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let when = Instant::now();
                if write_frame(&mut writer, &frames[i % frames.len()]).is_err() {
                    break;
                }
                sent.push(when);
            }
            sent
        });
        let mut done: Vec<(Instant, Reply)> = Vec::with_capacity(count);
        for i in 0..count {
            match read_frame(&mut reader) {
                Ok(payload) => done.push((Instant::now(), plan[i % plan.len()].judge(&payload))),
                Err(_) => break,
            }
        }
        let sent = sender.join().expect("open-loop sender panicked");
        (0..count)
            .map(|i| Outcome {
                due: due(i),
                sent: sent.get(i).copied(),
                done: done.get(i).copied(),
            })
            .collect()
    })
}

/// Result of a window phase on one connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowReport {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Failed requests whose answers were wrong (a subset of `failed`).
    pub wrong: u64,
    /// When the last right answer arrived.
    pub last_done: Option<Instant>,
}

/// Keeps `depth` requests in flight on `stream`, cycling through `plan`
/// from `offset`, and stops sending new ones at `until`; then drains.
pub fn window<S: Read + Write>(
    stream: &mut S,
    plan: &[Planned],
    offset: usize,
    depth: usize,
    until: Instant,
) -> WindowReport {
    let frames: Vec<Vec<u8>> = plan.iter().map(Planned::encode).collect();
    let mut report = WindowReport::default();
    let mut next = offset;
    let mut in_flight = std::collections::VecDeque::new();
    for _ in 0..depth {
        send_next(stream, &frames, &mut next, &mut in_flight, &mut report);
    }
    while let Some(i) = in_flight.pop_front() {
        match read_frame(stream).map(|payload| plan[i].judge(&payload)) {
            Ok(Reply::Right) => {
                report.completed += 1;
                report.last_done = Some(Instant::now());
            }
            Ok(Reply::Wrong) => {
                report.failed += 1;
                report.wrong += 1;
            }
            Ok(Reply::Refused) => report.failed += 1,
            Err(_) => {
                report.failed += 1 + in_flight.len() as u64;
                break;
            }
        }
        if Instant::now() < until {
            send_next(stream, &frames, &mut next, &mut in_flight, &mut report);
        }
    }
    report
}

fn send_next(
    stream: &mut impl Write,
    frames: &[Vec<u8>],
    next: &mut usize,
    in_flight: &mut std::collections::VecDeque<usize>,
    report: &mut WindowReport,
) {
    let i = *next % frames.len();
    *next += 1;
    report.attempted += 1;
    if write_frame(stream, &frames[i]).is_ok() {
        in_flight.push_back(i);
    } else {
        report.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const STALL: Duration = Duration::from_millis(150);

    fn plan() -> Vec<Planned> {
        (0..4u32)
            .map(|i| Planned {
                graph: "g",
                kind: QueryKind::Lca,
                pairs: vec![(i, i + 1)],
                expect: vec![2 * i + 1],
            })
            .collect()
    }

    /// A stand-in server that answers `u + v` per pair, in order, and
    /// stalls once, before answering request `stall_at`.
    fn stub_peer(stall_at: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &Response::HelloOk { version: 1 }.encode()).unwrap();
            let mut served = 0;
            while let Ok(payload) = read_frame(&mut conn) {
                let Ok(Request::Query { kind, pairs, .. }) = Request::decode(&payload) else {
                    return;
                };
                if served == stall_at {
                    std::thread::sleep(STALL);
                }
                served += 1;
                let answers = pairs.iter().map(|&(u, v)| u + v).collect();
                let reply = Response::Answers {
                    kind,
                    epoch: 1,
                    answers,
                };
                if write_frame(&mut conn, &reply.encode()).is_err() {
                    return;
                }
            }
        });
        (addr, peer)
    }

    fn connect(addr: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        handshake(&mut s).unwrap();
        s
    }

    #[test]
    fn a_peer_stall_is_charged_to_every_request_due_during_it() {
        let (addr, peer) = stub_peer(10);
        let stream = connect(&addr);
        let rate = 500.0; // one request every 2 ms: ~75 fall due in the stall
        let start = Instant::now() + Duration::from_millis(5);
        let out = open_loop(
            stream.try_clone().unwrap(),
            stream,
            &plan(),
            200,
            rate,
            start,
        );
        if let Some(o) = out.iter().find(|o| !o.ok()) {
            panic!("request failed: {o:?}");
        }
        // The stall began when request 10's reply was held back, no earlier
        // than its due time; it ended no earlier than STALL later.
        let stall_end = out[10].due + STALL;
        let mut during = 0;
        for o in &out[10..] {
            if o.due < stall_end {
                during += 1;
                let owed = ms(stall_end - o.due);
                assert!(
                    o.latency_ms() >= owed,
                    "request due {owed:.1} ms before the stall ended reports {:.2} ms",
                    o.latency_ms()
                );
            }
        }
        assert!(during > 50, "only {during} requests fell due in the stall");
        // The sender never waited on the stalled replies.
        let worst_late = out.iter().filter_map(Outcome::late_ms).fold(0.0, f64::max);
        assert!(
            worst_late < ms(STALL) / 2.0,
            "sender was held back {worst_late} ms"
        );
        peer.join().unwrap();
    }

    /// A writer that blocks once, as a send into a full socket buffer does.
    struct StallingWriter {
        inner: TcpStream,
        frames: usize,
        stall_at: usize,
    }

    impl Write for StallingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            // write_frame writes the length prefix then the payload; stall
            // on the prefix of frame `stall_at`.
            if buf.len() == 4 {
                if self.frames == self.stall_at {
                    std::thread::sleep(STALL);
                }
                self.frames += 1;
            }
            self.inner.write_all(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_blocked_sender_is_reported_late_and_its_delay_is_still_charged() {
        let (addr, peer) = stub_peer(usize::MAX);
        let stream = connect(&addr);
        let writer = StallingWriter {
            inner: stream.try_clone().unwrap(),
            frames: 0,
            stall_at: 20,
        };
        let start = Instant::now() + Duration::from_millis(5);
        let out = open_loop(writer, stream, &plan(), 200, 500.0, start);
        assert!(out.iter().all(Outcome::ok));
        let late = out[21].late_ms().unwrap();
        assert!(
            late >= ms(STALL) - 2.0 - 2.0,
            "lateness not reported: {late}"
        );
        assert!(out[21].latency_ms() >= late);
        peer.join().unwrap();
    }

    #[test]
    fn wrong_answers_and_silence_count_as_failures() {
        let (addr, peer) = stub_peer(usize::MAX);
        let mut stream = connect(&addr);
        let mut bad = plan();
        bad[1].expect = vec![99];
        let until = Instant::now() + Duration::from_millis(20);
        let report = window(&mut stream, &bad, 0, 4, until);
        assert_eq!(report.attempted, report.completed + report.failed);
        assert!(report.wrong >= 1 && report.completed >= 3);
        drop(stream);
        peer.join().unwrap();

        // A peer that never answers: every request fails, none hangs.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let silent = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &Response::HelloOk { version: 1 }.encode()).unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let stream = connect(&addr);
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let out = open_loop(
            stream.try_clone().unwrap(),
            stream,
            &plan(),
            5,
            1000.0,
            Instant::now(),
        );
        assert!(out.iter().all(|o| !o.ok() && o.latency_ms().is_infinite()));
        silent.join().unwrap();
    }
}
