//! Fault-injection proxy for exercising the service layer's resilience.
//!
//! [`FlakyProxy`] sits between a [`crate::RemoteExecutor`] and a
//! [`crate::NetServer`], forwarding frames verbatim — until it severs the
//! connection. The cut is **frame-aware**: the proxy parses the length
//! prefix of every frame in both directions, relays each frame whole,
//! and (when the configured countdown fires on a request frame)
//! kills both sockets *after* the request reached the server but *before*
//! its response can travel back. That is exactly the window where an
//! acknowledged-but-unobserved commit lives, so driving a client through
//! this proxy proves the reconnect + idempotent-replay path end to end: a
//! retry after the cut must return the original outcome, not execute the
//! commit twice.
//!
//! Only request frames arm the cut — handshake frames pass freely so a
//! reconnect can always complete. The countdown is global across
//! connections: with `drop_every = n`, every `n`-th request frame through
//! the proxy (across all connections and reconnects) severs its
//! connection, producing a steady storm of cuts under sustained load.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use orpheus_core::{CoreError, Result};
use parking_lot::Mutex;

use crate::proto::{is_request, MAX_FRAME};

/// How often the accept loop polls between connection attempts.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Shared proxy state: the countdown, counters, and the sockets to slam
/// on shutdown.
struct ProxyState {
    /// Sever the connection after every `drop_every`-th request frame;
    /// zero disables cutting (a transparent proxy).
    drop_every: u64,
    /// Request frames forwarded so far (all connections).
    requests: AtomicU64,
    /// Connections severed so far.
    cuts: AtomicU64,
    stop: AtomicBool,
    /// Live socket clones, shut down on stop so forwarding threads
    /// blocked in reads exit promptly.
    live: Mutex<Vec<TcpStream>>,
}

impl ProxyState {
    /// Count one forwarded request frame; whether it is the one that
    /// kills the connection.
    // `u64::is_multiple_of` postdates the pinned MSRV (1.78).
    #[allow(clippy::manual_is_multiple_of)]
    fn fires(&self) -> bool {
        let n = self.requests.fetch_add(1, Ordering::SeqCst) + 1;
        self.drop_every != 0 && n % self.drop_every == 0
    }
}

/// A TCP proxy that drops connections at frame boundaries — between a
/// forwarded request and its response. See the module docs.
#[derive(Debug)]
pub struct FlakyProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept: Option<JoinHandle<()>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ProxyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyState")
            .field("drop_every", &self.drop_every)
            .field("requests", &self.requests.load(Ordering::SeqCst))
            .field("cuts", &self.cuts.load(Ordering::SeqCst))
            .finish()
    }
}

impl FlakyProxy {
    /// Listen on an ephemeral local port and forward every connection to
    /// `upstream`, severing one connection per `drop_every` request
    /// frames (0 = never sever).
    pub fn start(upstream: impl ToSocketAddrs, drop_every: u64) -> Result<FlakyProxy> {
        let upstream = upstream
            .to_socket_addrs()
            .map_err(|e| CoreError::Network(format!("resolve failed: {e}")))?
            .next()
            .ok_or_else(|| CoreError::Network("upstream resolved to no address".to_string()))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CoreError::Network(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::Network(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CoreError::Network(format!("set_nonblocking failed: {e}")))?;
        let state = Arc::new(ProxyState {
            drop_every,
            requests: AtomicU64::new(0),
            cuts: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
        });
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let threads = Arc::clone(&threads);
            std::thread::spawn(move || accept_loop(listener, upstream, state, threads))
        };
        Ok(FlakyProxy {
            addr,
            state,
            accept: Some(accept),
            threads,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections severed so far.
    pub fn cuts(&self) -> u64 {
        self.state.cuts.load(Ordering::SeqCst)
    }

    /// Request frames forwarded so far.
    pub fn forwarded_requests(&self) -> u64 {
        self.state.requests.load(Ordering::SeqCst)
    }

    /// Stop proxying: slam every live connection and join all threads.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        for stream in self.state.live.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for thread in std::mem::take(&mut *self.threads.lock()) {
            let _ = thread.join();
        }
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    state: Arc<ProxyState>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                {
                    let mut live = state.live.lock();
                    if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                        live.push(c);
                        live.push(s);
                    }
                }
                let forward = {
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || forward_frames(client_r, server, state))
                };
                let backward = std::thread::spawn(move || copy_frames(server_r, client));
                let mut ts = threads.lock();
                ts.push(forward);
                ts.push(backward);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Client → server direction: forward whole frames, and after forwarding
/// the request frame the countdown lands on, sever both sockets — the
/// request reached the server; its response never reaches the client.
fn forward_frames(mut client: TcpStream, mut server: TcpStream, state: Arc<ProxyState>) {
    loop {
        let mut len_buf = [0u8; 4];
        if read_exact_or_close(&mut client, &mut len_buf).is_err() {
            break;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        if read_exact_or_close(&mut client, &mut payload).is_err() {
            break;
        }
        if server.write_all(&len_buf).is_err() || server.write_all(&payload).is_err() {
            break;
        }
        let _ = server.flush();
        if is_request(&payload) && state.fires() {
            state.cuts.fetch_add(1, Ordering::SeqCst);
            break;
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

/// Server → client direction: relay whole frames, each in one write, so
/// a cut lands between responses and never delivers half of one.
fn copy_frames(mut server: TcpStream, mut client: TcpStream) {
    loop {
        let mut frame = vec![0u8; 4];
        if read_exact_or_close(&mut server, &mut frame).is_err() {
            break;
        }
        let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        if len > MAX_FRAME {
            break;
        }
        frame.resize(4 + len, 0);
        if read_exact_or_close(&mut server, &mut frame[4..]).is_err()
            || client.write_all(&frame).is_err()
        {
            break;
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

fn read_exact_or_close(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    stream.read_exact(buf)
}
