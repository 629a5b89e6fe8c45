//! Load generators that drive a running daemon over HOPQ from this
//! process: a closed loop, a pipelined loop over two connections from
//! one thread, and an open loop at a fixed rate.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use hopdb_server::client::{Session, Ticket};
use hopdb_server::proto::{read_response, Request, RequestBody, ResponseBody};
use hopdb_server::{serve, Client, ServerConfig, ServerHandle};
use sfgraph::{Dist, VertexId};

use crate::trace;

/// One pipelined connection: its session, the frames in flight (ticket,
/// frame index, send time), and whether it is still usable.
type Lane = (Session, VecDeque<(Ticket, usize, Instant)>, bool);

/// A query frame.
pub type Frame = Vec<(VertexId, VertexId)>;

/// Checks one reply: `(frame index, answers)`.
pub type Verify<'a> = dyn Fn(usize, &[Dist]) -> Result<(), String> + Sync + 'a;

/// What one load phase saw.
#[derive(Default)]
pub struct Outcome {
    /// Latency of each answered request (µs).
    pub lat_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no answer (transport or server error).
    pub failed: u64,
    /// Pairs answered.
    pub pairs: u64,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
    /// The first reply that failed its check.
    pub wrong: Option<String>,
    /// The first answer to each of the first frames, for oracle checks.
    pub kept: Vec<(usize, Vec<Dist>)>,
}

impl Outcome {
    fn answered(&mut self, fi: usize, lat: Duration, answers: Vec<Dist>, verify: &Verify) {
        self.lat_us.push(lat.as_secs_f64() * 1e6);
        self.pairs += answers.len() as u64;
        if self.wrong.is_none() {
            if let Err(why) = verify(fi, &answers) {
                self.wrong = Some(format!("frame {fi}: {why}"));
            }
        }
        if self.kept.len() < 4 && self.kept.iter().all(|(k, _)| *k != fi) {
            self.kept.push((fi, answers));
        }
    }

    /// Replies slower than `limit`.
    pub fn slower_than(&self, limit: Duration) -> u64 {
        let limit = limit.as_secs_f64() * 1e6;
        self.lat_us.iter().filter(|&&l| l > limit).count() as u64
    }
}

/// Boot a daemon on `index`, in a span that ends at its first answer.
pub fn boot(index: &Path, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let _span = trace::span("server.boot");
    let handle = serve("127.0.0.1:0", index, config)?;
    first_answer(handle.local_addr())?;
    Ok(handle)
}

/// Connect and ask `d(0, 0)`, which must be 0.
pub fn first_answer(addr: SocketAddr) -> std::io::Result<()> {
    let got = Client::connect(addr)?.query(&[(0, 0)])?;
    if got == [0] {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("first answer d(0, 0) = {got:?}")))
    }
}

/// One connection, `count` requests, one at a time. A request that gets
/// no answer counts as failed and the loop reconnects; if it cannot,
/// the requests left count as failed too.
pub fn closed_loop(addr: SocketAddr, frames: &[Frame], verify: &Verify, count: usize) -> Outcome {
    let phase = trace::span("load.closed");
    let mut out = Outcome { attempted: count as u64, ..Outcome::default() };
    let Ok(mut client) = Client::connect(addr) else {
        out.failed = count as u64;
        return out;
    };
    let started = Instant::now();
    for i in 0..count {
        let fi = i % frames.len();
        let t0 = Instant::now();
        let reply = client.query(&frames[fi]);
        let t1 = Instant::now();
        trace::record("client.request", phase.id(), i as u64 + 1, t0, t1);
        match reply {
            Ok(answers) => out.answered(fi, t1 - t0, answers, verify),
            Err(_) => {
                out.failed += 1;
                match Client::connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => {
                        out.failed += (count - i - 1) as u64;
                        break;
                    }
                }
            }
        }
    }
    out.elapsed = started.elapsed();
    out
}

/// `conns` connections with `depth` frames in flight on each, all
/// driven from this thread, until `count` frames have been sent and
/// answered. Frames a broken connection could not send count as failed.
pub fn pipelined(
    addr: SocketAddr,
    frames: &[Frame],
    verify: &Verify,
    conns: usize,
    depth: usize,
    count: usize,
) -> Outcome {
    let phase = trace::span("load.pipelined");
    let mut out = Outcome { attempted: count as u64, ..Outcome::default() };
    let mut next = 0usize;
    let mut submit = |session: &mut Session,
                      window: &mut VecDeque<(Ticket, usize, Instant)>,
                      out: &mut Outcome| {
        if next == count {
            return true;
        }
        let fi = next % frames.len();
        next += 1;
        match session.submit(&frames[fi]) {
            Ok(ticket) => {
                window.push_back((ticket, fi, Instant::now()));
                true
            }
            Err(_) => {
                out.failed += 1;
                false
            }
        }
    };
    let started = Instant::now();
    let mut lanes: Vec<Lane> = Vec::new();
    for _ in 0..conns {
        if let Ok(session) = Session::connect(addr) {
            lanes.push((session, VecDeque::new(), true));
        }
    }
    for (session, window, alive) in &mut lanes {
        for _ in 0..depth {
            *alive = *alive && submit(session, window, &mut out);
        }
    }
    while lanes.iter().any(|(_, window, _)| !window.is_empty()) {
        for (session, window, alive) in &mut lanes {
            let Some((ticket, fi, t0)) = window.pop_front() else { continue };
            let reply = session.wait(ticket);
            let t1 = Instant::now();
            trace::record("client.request", phase.id(), ticket.id(), t0, t1);
            match reply {
                Ok(answers) => out.answered(fi, t1 - t0, answers, verify),
                Err(_) => {
                    // The stream is unusable after a failed wait: the
                    // rest of this window is lost with it.
                    out.failed += 1 + window.len() as u64;
                    window.clear();
                    *alive = false;
                }
            }
            if *alive {
                *alive = submit(session, window, &mut out);
            }
        }
    }
    // Frames no live connection was left to send.
    out.failed += (count - next) as u64;
    out.elapsed = started.elapsed();
    out
}

/// One connection; a sender thread writes frame `i` at
/// `start + i / rate` whatever the replies do, and a receiver thread
/// times each reply from its due time. Also returns how late (µs) the
/// sender was at each send.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Frame],
    verify: &Verify,
    rate: f64,
    duration: Duration,
) -> (Outcome, Vec<f64>) {
    let phase = trace::span("load.open");
    let phase_id = phase.id();
    let total = (duration.as_secs_f64() * rate).round().max(1.0) as usize;
    let mut out = Outcome { attempted: total as u64, ..Outcome::default() };
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        Ok((s.try_clone()?, s))
    });
    let Ok((read_half, write_half)) = connected else {
        out.failed = total as u64;
        return (out, Vec::new());
    };
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut late_us = Vec::with_capacity(total);
    let received = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut reader = BufReader::new(read_half);
            let mut got = Vec::with_capacity(total);
            for _ in 0..total {
                let Ok(response) = read_response(&mut reader) else { break };
                let t1 = Instant::now();
                got.push((response.id, response.body, t1));
            }
            got
        });
        let mut writer = BufWriter::new(write_half);
        for i in 0..total {
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let sent = Instant::now();
            late_us.push(sent.saturating_duration_since(at).as_secs_f64() * 1e6);
            let request = Request {
                id: i as u64 + 1,
                body: RequestBody::Query(frames[i % frames.len()].clone()),
            };
            if writer.write_all(&request.encode()).and_then(|()| writer.flush()).is_err() {
                break;
            }
        }
        receiver.join().expect("open-loop receiver panicked")
    });
    for (id, body, t1) in received {
        let i = (id as usize).wrapping_sub(1);
        match body {
            ResponseBody::Distances(answers) if i < total => {
                let at = due(i);
                trace::record("client.request", phase_id, id, at, t1);
                out.answered(i % frames.len(), t1.saturating_duration_since(at), answers, verify);
            }
            _ => {}
        }
    }
    out.failed = out.attempted - out.lat_us.len() as u64;
    out.elapsed = start.elapsed();
    (out, late_us)
}
