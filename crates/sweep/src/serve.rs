//! The long-lived campaign service behind `sweep serve`.
//!
//! A [`CampaignServer`] listens on a [`std::net::TcpListener`] and speaks a
//! line-delimited JSON protocol: one request object per line in, one
//! response object (or a stream of campaign-event objects) per line out.
//! Clients `submit` registry-validated campaigns (the same
//! [`Campaign`] parameter schemas the CLI generates
//! its flags from), `attach` to a session's typed
//! [`CampaignEvent`] stream, poll `status`,
//! `cancel` a session, or `shutdown` the daemon. `REPRODUCING.md`
//! ("Campaign service") documents the wire grammar.
//!
//! Three properties turn the per-process executor into a shared, queued
//! resource:
//!
//! * **One shared packed cache.** Every session runs against a single
//!   [`ResultCache`] *instance* ([`ExecutorOptions::shared_cache`]), so a
//!   point stored by one session is immediately visible to the others.
//! * **Single-flight dedup on a bounded worker pool.** [`SingleFlight`]
//!   implements [`PointCoordinator`]: identical in-flight points (same
//!   content-addressed digest) are computed once by a leader and fanned out
//!   to every waiting session as `point_coalesced` events, and leaders
//!   serialize on a fixed number of worker permits so total compute
//!   concurrency is bounded no matter how many sessions are running.
//! * **Disconnect-tolerant sessions.** A session is owned by the server,
//!   not by any connection: every event line it emits (the `--progress
//!   json` schema plus `session_id` and `seq` fields) is retained in a
//!   bounded replay buffer, so a client that disconnects mid-campaign can
//!   re-attach by session id with the last `seq` it acked and catch up to a
//!   byte-identical event log.
//!
//! The daemon needs no signal handling for crash safety: the packed cache's
//! flush-before-index store ordering and the per-line-flushed checkpoint
//! journal mean an abrupt `SIGTERM`/`SIGKILL` degrades to (at most) one
//! recomputed point per session, never to a corrupt cache.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use serde::Value;

use crate::api::{registry, Campaign, CampaignParams};
use crate::cache::ResultCache;
use crate::executor::{
    CampaignEvent, CampaignSession, CampaignTotals, ExecutorOptions, PointClaim, PointCoordinator,
    PointOutcome,
};
use crate::pool::default_threads;
use crate::report;
use crate::spec::SweepSpec;
use crate::stream::StreamingCsvWriter;

/// The longest request line the server will buffer; longer lines are
/// drained and answered with a typed error (the connection keeps serving).
pub const MAX_REQUEST_BYTES: usize = 256 * 1024;

/// Default bound on each session's event replay buffer. Re-attaching past
/// an evicted event is a typed `replay gap` error, so the default is sized
/// well above any paper campaign's event count (~2 events per point).
pub const DEFAULT_REPLAY_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Everything a [`CampaignServer`] is parameterized on — the `sweep serve`
/// flags deserialize into this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks a free port — read it back
    /// from [`CampaignServer::local_addr`]).
    pub addr: String,
    /// Report directory; each session writes its CSV/JSON reports (and its
    /// checkpoint journal while running) under `<out>/<session-id>/`.
    pub out_dir: PathBuf,
    /// The shared result-cache directory; `None` disables caching (and with
    /// it cross-session sharing — single-flight dedup still applies to
    /// points simultaneously in flight).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool permits: the bound on concurrently *evaluating* points
    /// across all sessions.
    pub pool: usize,
    /// Threads per session claiming points (each blocks on the shared pool
    /// before evaluating, so this bounds claim parallelism, not compute).
    pub session_threads: usize,
    /// Per-session replay buffer capacity, in events.
    pub replay_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = default_threads();
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            out_dir: PathBuf::from("serve-out"),
            cache_dir: Some(PathBuf::from(".sweep-cache")),
            pool: cores,
            session_threads: cores,
            replay_capacity: DEFAULT_REPLAY_CAPACITY,
        }
    }
}

// ---------------------------------------------------------------------------
// Single-flight dedup over a bounded worker pool
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct FlightEntry {
    outcome: Mutex<Option<PointOutcome>>,
    ready: Condvar,
}

/// The service's [`PointCoordinator`]: single-flight dedup of identical
/// in-flight digests plus a counting-semaphore worker pool.
///
/// `claim` first consults the in-flight table: if another session is
/// already computing the digest, the caller blocks until that leader
/// publishes and receives the outcome as [`PointClaim::Coalesced`].
/// Otherwise the caller registers the digest, blocks until a worker permit
/// is free, and leads. `publish` removes the digest, wakes every waiting
/// follower, and returns the permit. Registering *before* acquiring the
/// permit is what makes the dedup window cover queueing time: a point
/// waiting for a permit already coalesces followers.
#[derive(Debug)]
pub struct SingleFlight {
    permits: Mutex<usize>,
    permit_ready: Condvar,
    inflight: Mutex<HashMap<String, Arc<FlightEntry>>>,
    coalesced_total: AtomicU64,
}

impl SingleFlight {
    /// Creates a coordinator with `pool` worker permits (clamped to ≥ 1).
    #[must_use]
    pub fn new(pool: usize) -> Self {
        SingleFlight {
            permits: Mutex::new(pool.max(1)),
            permit_ready: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            coalesced_total: AtomicU64::new(0),
        }
    }

    /// Service-wide count of coalesced claims since startup (the `status`
    /// response reports it).
    #[must_use]
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced_total.load(Ordering::Relaxed)
    }
}

impl PointCoordinator for SingleFlight {
    fn claim(&self, digest: &str) -> PointClaim {
        let existing = {
            let mut inflight = self.inflight.lock().expect("inflight table poisoned");
            match inflight.get(digest) {
                Some(entry) => Some(Arc::clone(entry)),
                None => {
                    inflight.insert(digest.to_string(), Arc::new(FlightEntry::default()));
                    None
                }
            }
        };
        if let Some(entry) = existing {
            let mut slot = entry.outcome.lock().expect("flight entry poisoned");
            while slot.is_none() {
                slot = entry.ready.wait(slot).expect("flight entry poisoned");
            }
            self.coalesced_total.fetch_add(1, Ordering::Relaxed);
            return PointClaim::Coalesced(Box::new(slot.clone().expect("just waited for Some")));
        }
        let mut permits = self.permits.lock().expect("permit count poisoned");
        while *permits == 0 {
            permits = self
                .permit_ready
                .wait(permits)
                .expect("permit count poisoned");
        }
        *permits -= 1;
        PointClaim::Lead
    }

    fn publish(&self, digest: &str, outcome: &PointOutcome) {
        let entry = self
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(digest);
        if let Some(entry) = entry {
            *entry.outcome.lock().expect("flight entry poisoned") = Some(outcome.clone());
            entry.ready.notify_all();
        }
        *self.permits.lock().expect("permit count poisoned") += 1;
        self.permit_ready.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Sessions and their replay buffers
// ---------------------------------------------------------------------------

/// Where a session is in its lifecycle (the `status` response's `state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepted, not yet running.
    Queued,
    /// Executing its campaign specs.
    Running,
    /// Every spec completed (failed points included — see the totals).
    Finished,
    /// Cancelled by request; remaining points drained as failures.
    Cancelled,
    /// Infrastructure failure (unwritable report directory, …).
    Failed,
}

impl SessionState {
    /// The wire label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed => "failed",
        }
    }
}

/// The bounded, sequence-numbered event log a session retains for
/// (re-)attaching clients.
#[derive(Debug)]
struct Replay {
    /// Sequence number the next event will receive.
    next_seq: u64,
    /// Sequence number of `buffer.front()` (== `next_seq` when empty).
    first_seq: u64,
    /// Fully rendered event lines, oldest first.
    buffer: VecDeque<String>,
    capacity: usize,
    /// No further events will arrive.
    done: bool,
}

/// One submitted campaign: server-owned state that outlives any client
/// connection.
#[derive(Debug)]
struct Session {
    id: String,
    campaign: &'static str,
    specs: Vec<SweepSpec>,
    points: usize,
    state: Mutex<SessionState>,
    cancel: Arc<AtomicBool>,
    replay: Mutex<Replay>,
    /// Signalled on every pushed event and on completion; paired with
    /// `replay`.
    delivered: Condvar,
    /// Per-spec provenance totals, filled in as specs complete.
    totals: Mutex<Vec<CampaignTotals>>,
}

impl Session {
    fn new(id: String, campaign: &'static str, specs: Vec<SweepSpec>, capacity: usize) -> Self {
        let points = specs.iter().map(|s| s.points.len()).sum();
        Session {
            id,
            campaign,
            specs,
            points,
            state: Mutex::new(SessionState::Queued),
            cancel: Arc::new(AtomicBool::new(false)),
            replay: Mutex::new(Replay {
                next_seq: 0,
                first_seq: 0,
                buffer: VecDeque::new(),
                capacity: capacity.max(1),
                done: false,
            }),
            delivered: Condvar::new(),
            totals: Mutex::new(Vec::new()),
        }
    }

    fn state(&self) -> SessionState {
        *self.state.lock().expect("session state poisoned")
    }

    fn set_state(&self, state: SessionState) {
        *self.state.lock().expect("session state poisoned") = state;
    }

    /// Renders, sequences, and retains one event line, waking attachers.
    fn push_event(&self, event: &CampaignEvent) {
        let mut replay = self.replay.lock().expect("replay buffer poisoned");
        let seq = replay.next_seq;
        replay.next_seq += 1;
        let line = service_event_line(event, &self.id, seq);
        if replay.buffer.len() == replay.capacity {
            replay.buffer.pop_front();
            replay.first_seq += 1;
        }
        replay.buffer.push_back(line);
        self.delivered.notify_all();
    }

    /// Marks the event stream complete and wakes attachers one last time.
    fn finish_events(&self) {
        self.replay.lock().expect("replay buffer poisoned").done = true;
        self.delivered.notify_all();
    }

    /// Blocks until the session reaches a terminal state.
    fn wait_done(&self) {
        let mut replay = self.replay.lock().expect("replay buffer poisoned");
        while !replay.done {
            replay = self.delivered.wait(replay).expect("replay buffer poisoned");
        }
    }

    /// The session's `status` entry.
    fn describe(&self) -> Value {
        let totals = self.totals.lock().expect("session totals poisoned");
        let sum =
            |f: fn(&CampaignTotals) -> usize| -> u64 { totals.iter().map(|t| f(t) as u64).sum() };
        Value::Object(vec![
            ("session_id".to_string(), Value::Str(self.id.clone())),
            (
                "campaign".to_string(),
                Value::Str(self.campaign.to_string()),
            ),
            (
                "state".to_string(),
                Value::Str(self.state().as_str().to_string()),
            ),
            ("points".to_string(), Value::UInt(self.points as u64)),
            ("computed".to_string(), Value::UInt(sum(|t| t.computed))),
            ("cached".to_string(), Value::UInt(sum(|t| t.cached))),
            ("restored".to_string(), Value::UInt(sum(|t| t.restored))),
            ("coalesced".to_string(), Value::UInt(sum(|t| t.coalesced))),
            ("failed".to_string(), Value::UInt(sum(|t| t.failed))),
        ])
    }
}

/// One line of a session's wire event stream: the `--progress json` schema
/// with `session_id` and `seq` appended. Rendered exactly once and retained
/// verbatim in the replay buffer, so every (re-)attach observes
/// byte-identical lines.
fn service_event_line(event: &CampaignEvent, session_id: &str, seq: u64) -> String {
    let base = event.to_json_line();
    let mut fields = match Value::parse_json(&base) {
        Ok(Value::Object(fields)) => fields,
        // to_json_line always emits an object; keep a defensive fallback.
        _ => vec![("event".to_string(), Value::Str("unknown".to_string()))],
    };
    fields.push(("session_id".to_string(), Value::Str(session_id.to_string())));
    fields.push(("seq".to_string(), Value::UInt(seq)));
    Value::Object(fields).to_json()
}

// ---------------------------------------------------------------------------
// The wire protocol
// ---------------------------------------------------------------------------

/// A parsed client request — one JSON object per line, dispatched on its
/// `cmd` field.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a registered campaign: `{"cmd":"submit","campaign":"table2",
    /// "params":{"quick":true}}`. Parameter keys are the registry flags
    /// (with or without the leading `--`); value-less flags take `true`.
    Submit {
        /// Campaign name or alias.
        campaign: String,
        /// Raw parameter pairs, validated against the registry at dispatch.
        params: Vec<(String, Value)>,
    },
    /// Stream a session's events: `{"cmd":"attach","session_id":"s-1",
    /// "after":41}` replays everything after acked seq 41 (omit `after`
    /// for the full log) and then follows live until the session ends.
    Attach {
        /// The session to stream.
        session_id: String,
        /// Last acked sequence number; replay starts after it.
        after: Option<u64>,
    },
    /// List every session with its state and provenance totals.
    Status,
    /// Cancel a session: remaining points drain as failures.
    Cancel {
        /// The session to cancel.
        session_id: String,
    },
    /// Stop accepting work, wait for running sessions, exit.
    Shutdown,
}

/// Parses one request line. Pure and total: any input — truncated JSON,
/// binary garbage, wrong shapes — yields a typed error string, never a
/// panic (the protocol-robustness proptests pin this).
///
/// # Errors
///
/// Returns a human-readable description of what is malformed; the server
/// forwards it verbatim as the `error` field of an `{"ok":false}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Value::parse_json(line.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Object(ref fields) = value else {
        return Err("request must be a JSON object".to_string());
    };
    let text_field = |name: &str| -> Result<String, String> {
        match value.get(name) {
            Some(Value::Str(s)) if !s.is_empty() => Ok(s.clone()),
            Some(_) => Err(format!("`{name}` must be a non-empty string")),
            None => Err(format!("`{name}` is required")),
        }
    };
    let cmd = text_field("cmd")
        .map_err(|_| "`cmd` is required (submit|attach|status|cancel|shutdown)".to_string())?;
    match cmd.as_str() {
        "submit" => {
            let campaign = text_field("campaign")?;
            let params = match value.get("params") {
                None | Some(Value::Null) => Vec::new(),
                Some(Value::Object(pairs)) => pairs.clone(),
                Some(_) => return Err("`params` must be a JSON object".to_string()),
            };
            // Reject unknown top-level keys so typos fail loudly.
            for (key, _) in fields {
                if !matches!(key.as_str(), "cmd" | "campaign" | "params") {
                    return Err(format!("unknown submit field `{key}`"));
                }
            }
            Ok(Request::Submit { campaign, params })
        }
        "attach" => {
            let session_id = text_field("session_id")?;
            let after = match value.get("after") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| "`after` must be a non-negative integer".to_string())?,
                ),
            };
            Ok(Request::Attach { session_id, after })
        }
        "status" => Ok(Request::Status),
        "cancel" => Ok(Request::Cancel {
            session_id: text_field("session_id")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd `{other}` (submit|attach|status|cancel|shutdown)"
        )),
    }
}

/// Validates a submit request against the campaign registry: resolves the
/// campaign (with a nearest-name suggestion on miss), then applies each
/// parameter through the same [`ParamSpec`](crate::api::ParamSpec) schema
/// the CLI flags go through — out-of-scope flags get the registry's scope
/// error, values are type-checked by the spec's own parser.
///
/// # Errors
///
/// Returns the registry's error text for unknown campaigns/parameters,
/// scope violations, and unparsable values.
pub fn validate_submit(
    campaign: &str,
    params: &[(String, Value)],
) -> Result<(&'static Campaign, CampaignParams), String> {
    let registry = registry();
    let Some(campaign) = registry.find(campaign) else {
        let suggestion = registry
            .suggest(campaign)
            .map(|c| format!(" (did you mean `{}`?)", c.name))
            .unwrap_or_default();
        return Err(format!("unknown campaign `{campaign}`{suggestion}"));
    };
    let mut parsed = CampaignParams::default();
    for (key, value) in params {
        let flag = if key.starts_with("--") {
            key.clone()
        } else {
            format!("--{key}")
        };
        let Some(spec) = registry.param(&flag) else {
            return Err(format!("unknown parameter `{key}`"));
        };
        if !campaign.accepts(spec) {
            return Err(registry.scope_error(campaign, spec));
        }
        if spec.takes_value() {
            let text = match value {
                Value::Str(s) => s.clone(),
                Value::UInt(u) => u.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) => format!("{f}"),
                Value::Bool(_) | Value::Null | Value::Array(_) | Value::Object(_) => {
                    return Err(format!("`{key}` needs a scalar value"));
                }
            };
            spec.apply(&mut parsed, Some(&text))?;
        } else {
            match value {
                Value::Bool(true) | Value::Null => spec.apply(&mut parsed, None)?,
                Value::Bool(false) => {}
                _ => return Err(format!("`{key}` is a flag; pass true or false")),
            }
        }
    }
    Ok((campaign, parsed))
}

/// Builds a validated submit's specs. An analytical campaign (one whose
/// `build` returns no specs, such as `table1`) has nothing for a session to
/// run, so the submit is rejected with a pointer to the CLI command that
/// prints it.
fn submit_specs(campaign: &Campaign, params: &CampaignParams) -> Result<Vec<SweepSpec>, String> {
    let specs = campaign.specs(params)?;
    if specs.is_empty() {
        return Err(format!(
            "campaign `{}` is analytical and runs no simulation points; \
             print it with `sweep {}`",
            campaign.name, campaign.name
        ));
    }
    Ok(specs)
}

fn response(ok: bool, fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("ok".to_string(), Value::Bool(ok))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(pairs).to_json()
}

fn error_response(message: &str) -> String {
    response(false, vec![("error", Value::Str(message.to_string()))])
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ServerState {
    config: ServeConfig,
    local_addr: SocketAddr,
    cache: Option<Arc<ResultCache>>,
    flight: Arc<SingleFlight>,
    sessions: Mutex<Vec<Arc<Session>>>,
    next_session: AtomicU64,
    shutting_down: AtomicBool,
}

impl ServerState {
    fn find_session(&self, id: &str) -> Option<Arc<Session>> {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .iter()
            .find(|s| s.id == id)
            .map(Arc::clone)
    }
}

/// A bound (not yet running) campaign service.
#[derive(Debug)]
pub struct CampaignServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A server running on a background thread (the test harness's and
/// `spawn`'s handle).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (send a `shutdown` request first).
    ///
    /// # Errors
    ///
    /// Returns the accept-loop's I/O error, if it died on one.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

impl CampaignServer {
    /// Binds the listener and opens the shared cache.
    ///
    /// # Errors
    ///
    /// Returns the bind or cache-open error.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = match &config.cache_dir {
            Some(dir) => Some(Arc::new(ResultCache::open(dir)?)),
            None => None,
        };
        let flight = Arc::new(SingleFlight::new(config.pool));
        let state = Arc::new(ServerState {
            local_addr,
            cache,
            flight,
            sessions: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            config,
        });
        Ok(CampaignServer { listener, state })
    }

    /// The bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request: accepts connections, one handler
    /// thread each, then waits for every session to reach a terminal state.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's fatal I/O error, if any.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            thread::spawn(move || handle_connection(&state, stream));
        }
        // Drain: let every accepted session finish (cancelled ones drain
        // fast) so reports and journals are consistent on exit.
        let sessions: Vec<Arc<Session>> = self
            .state
            .sessions
            .lock()
            .expect("session table poisoned")
            .clone();
        for session in sessions {
            session.wait_done();
        }
        Ok(())
    }

    /// Binds and runs on a background thread — the embedded/test entry
    /// point.
    ///
    /// # Errors
    ///
    /// Returns the bind or cache-open error.
    pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
        let server = CampaignServer::bind(config)?;
        let addr = server.local_addr()?;
        let thread = thread::Builder::new()
            .name("sweep-serve".to_string())
            .spawn(move || server.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// Reads one request line, bounding memory: a line longer than
/// [`MAX_REQUEST_BYTES`] is drained (without buffering) and reported.
fn read_request_line(reader: &mut impl BufRead) -> io::Result<Option<Result<String, ()>>> {
    let mut line = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a non-empty unterminated tail still counts as a line.
            if line.is_empty() {
                return Ok(None);
            }
            break;
        }
        let (consume, found_newline) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if !oversized {
            let take = consume.min(MAX_REQUEST_BYTES.saturating_sub(line.len()) + 1);
            line.extend_from_slice(&chunk[..take.min(consume)]);
            if line.len() > MAX_REQUEST_BYTES {
                oversized = true;
            }
        }
        reader.consume(consume);
        if found_newline {
            break;
        }
    }
    if oversized {
        return Ok(Some(Err(())));
    }
    let text = String::from_utf8_lossy(&line).trim().to_string();
    Ok(Some(Ok(text)))
}

fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_request_line(&mut reader) {
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(()))) => {
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                if write_line(&mut writer, &error_response(&message)).is_err() {
                    return;
                }
                continue;
            }
            // Client went away (EOF or I/O error): sessions keep running.
            Ok(None) | Err(_) => return,
        };
        if line.is_empty() {
            continue;
        }
        let done = match parse_request(&line) {
            Err(message) => write_line(&mut writer, &error_response(&message)).is_err(),
            Ok(request) => match dispatch_request(state, request, &mut writer) {
                Ok(keep_serving) => !keep_serving,
                Err(_) => true, // client write failed; drop the connection
            },
        };
        if done {
            return;
        }
    }
}

/// Handles one parsed request. `Ok(true)` keeps the connection in command
/// mode; `Ok(false)` ends it (shutdown); `Err` means the client is gone.
fn dispatch_request(
    state: &Arc<ServerState>,
    request: Request,
    writer: &mut impl Write,
) -> io::Result<bool> {
    match request {
        Request::Submit { campaign, params } => {
            if state.shutting_down.load(Ordering::SeqCst) {
                write_line(writer, &error_response("server is shutting down"))?;
                return Ok(true);
            }
            match submit(state, &campaign, &params) {
                Ok(session) => write_line(
                    writer,
                    &response(
                        true,
                        vec![
                            ("reply", Value::Str("submitted".to_string())),
                            ("session_id", Value::Str(session.id.clone())),
                            ("campaign", Value::Str(session.campaign.to_string())),
                            ("points", Value::UInt(session.points as u64)),
                        ],
                    ),
                )?,
                Err(message) => write_line(writer, &error_response(&message))?,
            }
            Ok(true)
        }
        Request::Attach { session_id, after } => {
            stream_session(state, &session_id, after, writer)?;
            Ok(true)
        }
        Request::Status => {
            let sessions: Vec<Value> = state
                .sessions
                .lock()
                .expect("session table poisoned")
                .iter()
                .map(|s| s.describe())
                .collect();
            write_line(
                writer,
                &response(
                    true,
                    vec![
                        ("reply", Value::Str("status".to_string())),
                        ("sessions", Value::Array(sessions)),
                        (
                            "coalesced_total",
                            Value::UInt(state.flight.coalesced_total()),
                        ),
                    ],
                ),
            )?;
            Ok(true)
        }
        Request::Cancel { session_id } => {
            match state.find_session(&session_id) {
                Some(session) => {
                    session.cancel.store(true, Ordering::SeqCst);
                    write_line(
                        writer,
                        &response(
                            true,
                            vec![
                                ("reply", Value::Str("cancelling".to_string())),
                                ("session_id", Value::Str(session_id)),
                                ("state", Value::Str(session.state().as_str().to_string())),
                            ],
                        ),
                    )?;
                }
                None => write_line(
                    writer,
                    &error_response(&format!("no such session `{session_id}`")),
                )?,
            }
            Ok(true)
        }
        Request::Shutdown => {
            state.shutting_down.store(true, Ordering::SeqCst);
            write_line(
                writer,
                &response(
                    true,
                    vec![("reply", Value::Str("shutting_down".to_string()))],
                ),
            )?;
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.local_addr);
            Ok(false)
        }
    }
}

/// Validates and enqueues a submit, spawning the session-runner thread.
fn submit(
    state: &Arc<ServerState>,
    campaign: &str,
    params: &[(String, Value)],
) -> Result<Arc<Session>, String> {
    let (campaign, parsed) = validate_submit(campaign, params)?;
    let specs = submit_specs(campaign, &parsed)?;
    let id = format!("s-{}", state.next_session.fetch_add(1, Ordering::SeqCst));
    let session = Arc::new(Session::new(
        id,
        campaign.name,
        specs,
        state.config.replay_capacity,
    ));
    state
        .sessions
        .lock()
        .expect("session table poisoned")
        .push(Arc::clone(&session));
    let state = Arc::clone(state);
    let runner = Arc::clone(&session);
    thread::Builder::new()
        .name(format!("sweep-serve-{}", runner.id))
        .spawn(move || run_session(&state, &runner))
        .map_err(|e| format!("cannot spawn session thread: {e}"))?;
    Ok(session)
}

/// Executes a session's specs against the shared cache under the
/// single-flight coordinator, mirroring the CLI's streaming execution
/// (streaming CSV + JSON report + checkpoint journal, journal deleted per
/// completed spec).
fn run_session(state: &Arc<ServerState>, session: &Arc<Session>) {
    session.set_state(SessionState::Running);
    let dir = state.config.out_dir.join(&session.id);
    let mut infrastructure_error: Option<String> = None;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        infrastructure_error = Some(format!("cannot create {}: {e}", dir.display()));
    }
    if infrastructure_error.is_none() {
        let observer = |event: &CampaignEvent| session.push_event(event);
        for spec in &session.specs {
            let journal_path = dir.join(format!("{}.journal", spec.name));
            let options = ExecutorOptions {
                threads: Some(state.config.session_threads),
                cache_dir: None,
                shared_cache: state.cache.clone(),
                force_recompute: false,
                journal_path: Some(journal_path.clone()),
                resume: false,
                coordinator: Some(Arc::clone(&state.flight) as Arc<dyn PointCoordinator>),
                cancel: Some(Arc::clone(&session.cancel)),
            };
            let csv_path = dir.join(format!("{}.csv", spec.name));
            let schema = report::CsvSchema::for_spec(spec);
            let csv = match StreamingCsvWriter::create_with_schema(&csv_path, schema) {
                Ok(csv) => csv,
                Err(e) => {
                    infrastructure_error =
                        Some(format!("cannot create {}: {e}", csv_path.display()));
                    break;
                }
            };
            let (results, totals) =
                CampaignSession::new(spec, &options).run_with_sink(&observer, &csv);
            if let Err(e) = csv.finish() {
                infrastructure_error = Some(format!("writing {}: {e}", csv_path.display()));
                break;
            }
            let json_path = dir.join(format!("{}.json", spec.name));
            if let Err(e) = report::write_json(&results, &json_path) {
                infrastructure_error = Some(format!("writing {}: {e}", json_path.display()));
                break;
            }
            let _ = std::fs::remove_file(&journal_path);
            session
                .totals
                .lock()
                .expect("session totals poisoned")
                .push(totals);
        }
    }
    let final_state = if let Some(message) = infrastructure_error {
        eprintln!("sweep serve: session {} failed: {message}", session.id);
        SessionState::Failed
    } else if session.cancel.load(Ordering::SeqCst) {
        SessionState::Cancelled
    } else {
        SessionState::Finished
    };
    session.set_state(final_state);
    session.finish_events();
}

/// Streams a session's event lines to an attached client: replay from the
/// cursor, then follow live, then a `detached` response. A write failure
/// (client disconnect) leaves the session untouched.
fn stream_session(
    state: &Arc<ServerState>,
    session_id: &str,
    after: Option<u64>,
    writer: &mut impl Write,
) -> io::Result<()> {
    let Some(session) = state.find_session(session_id) else {
        return write_line(
            writer,
            &error_response(&format!("no such session `{session_id}`")),
        );
    };
    let mut cursor = after.map_or(0, |acked| acked.saturating_add(1));
    write_line(
        writer,
        &response(
            true,
            vec![
                ("reply", Value::Str("attached".to_string())),
                ("session_id", Value::Str(session.id.clone())),
                ("next_seq", Value::UInt(cursor)),
            ],
        ),
    )?;
    loop {
        let (batch, done) = {
            let mut replay = session.replay.lock().expect("replay buffer poisoned");
            while cursor >= replay.next_seq && !replay.done {
                replay = session
                    .delivered
                    .wait(replay)
                    .expect("replay buffer poisoned");
            }
            if cursor < replay.first_seq {
                drop(replay);
                return write_line(
                    writer,
                    &error_response(&format!(
                        "replay gap: events before seq {} were evicted from the bounded \
                         replay buffer (re-submit or attach with a later `after`)",
                        // first_seq read again outside the borrow below
                        session
                            .replay
                            .lock()
                            .expect("replay buffer poisoned")
                            .first_seq
                    )),
                );
            }
            let skip = usize::try_from(cursor - replay.first_seq).unwrap_or(usize::MAX);
            let batch: Vec<String> = replay.buffer.iter().skip(skip).cloned().collect();
            cursor = replay.next_seq;
            (batch, replay.done)
        };
        for line in &batch {
            write_line(writer, line)?;
        }
        if done && batch.is_empty() {
            return write_line(
                writer,
                &response(
                    true,
                    vec![
                        ("reply", Value::Str("detached".to_string())),
                        ("session_id", Value::Str(session.id.clone())),
                        ("state", Value::Str(session.state().as_str().to_string())),
                        ("last_seq", Value::UInt(cursor.saturating_sub(1))),
                    ],
                ),
            );
        }
        if done {
            // Deliver the already-collected tail, then detach on the next
            // iteration (batch will be empty).
            continue;
        }
    }
}

// ---------------------------------------------------------------------------
// Client helpers (the `sweep client` subcommand and the tests ride these)
// ---------------------------------------------------------------------------

/// Sends one request and returns the first response line, parsed.
///
/// # Errors
///
/// Returns a description of the connection, encoding, or protocol error.
pub fn client_request(addr: &str, request: &Value) -> Result<Value, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_line(&mut stream, &request.to_json()).map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read failed: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection without responding".to_string());
    }
    Value::parse_json(line.trim()).map_err(|e| format!("malformed response: {e}"))
}

/// Sends one request on a fresh connection and streams every subsequent
/// line to `on_line` until a `detached` (or error) response arrives, which
/// is returned. Used by `attach` (and `submit --watch`).
///
/// # Errors
///
/// Returns a description of the connection error, or the server's `error`
/// field if the stream ends in a protocol error.
pub fn client_stream(
    addr: &str,
    request: &Value,
    mut on_line: impl FnMut(&str),
) -> Result<Value, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_line(&mut stream, &request.to_json()).map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-stream".to_string());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value =
            Value::parse_json(trimmed).map_err(|e| format!("malformed stream line: {e}"))?;
        match value.get("ok") {
            // A response line ends the stream: `attached` acks continue it.
            Some(Value::Bool(true))
                if value.get("reply").and_then(Value::as_str) == Some("attached") =>
            {
                on_line(trimmed);
            }
            Some(Value::Bool(true)) => return Ok(value),
            Some(Value::Bool(false)) => {
                let message = value
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown server error");
                return Err(message.to_string());
            }
            _ => on_line(trimmed), // an event line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- single-flight ----------------------------------------------------

    fn ok_outcome() -> PointOutcome {
        PointOutcome::Error("stand-in outcome".to_string())
    }

    #[test]
    fn single_flight_leads_then_coalesces_then_leads_again() {
        let flight = Arc::new(SingleFlight::new(2));
        assert_eq!(flight.claim("d1"), PointClaim::Lead);

        // A concurrent claim on the same digest blocks until publish, then
        // receives the published outcome.
        let follower = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || flight.claim("d1"))
        };
        // Give the follower a moment to park (not required for
        // correctness — publish-after also works — but exercises the
        // waiting path deterministically enough).
        thread::sleep(std::time::Duration::from_millis(20));
        flight.publish("d1", &ok_outcome());
        assert_eq!(
            follower.join().unwrap(),
            PointClaim::Coalesced(Box::new(ok_outcome()))
        );
        assert_eq!(flight.coalesced_total(), 1);

        // After publish the digest is free again: a later claim leads.
        assert_eq!(flight.claim("d1"), PointClaim::Lead);
        flight.publish("d1", &ok_outcome());
    }

    #[test]
    fn single_flight_pool_bounds_concurrent_leaders() {
        let flight = Arc::new(SingleFlight::new(1));
        assert_eq!(flight.claim("a"), PointClaim::Lead);
        // A second *distinct* digest must wait for the permit.
        let second = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || {
                let claim = flight.claim("b");
                flight.publish("b", &ok_outcome());
                claim
            })
        };
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!second.is_finished(), "one permit, so `b` must queue");
        flight.publish("a", &ok_outcome());
        assert_eq!(second.join().unwrap(), PointClaim::Lead);
    }

    // -- replay buffer -----------------------------------------------------

    fn event(index: usize) -> CampaignEvent {
        CampaignEvent::PointFinished {
            index,
            cache_hit: false,
        }
    }

    #[test]
    fn replay_buffer_sequences_and_evicts_oldest() {
        let session = Session::new("s-9".to_string(), "table2", Vec::new(), 2);
        for i in 0..3 {
            session.push_event(&event(i));
        }
        let replay = session.replay.lock().unwrap();
        assert_eq!(replay.next_seq, 3);
        assert_eq!(replay.first_seq, 1, "capacity 2 evicted seq 0");
        assert_eq!(replay.buffer.len(), 2);
        for (offset, line) in replay.buffer.iter().enumerate() {
            let value = Value::parse_json(line).unwrap();
            assert_eq!(
                value.get("seq").and_then(Value::as_u64),
                Some(1 + offset as u64)
            );
            assert_eq!(value.get("session_id").and_then(Value::as_str), Some("s-9"));
            assert_eq!(
                value.get("event").and_then(Value::as_str),
                Some("point_finished")
            );
        }
    }

    #[test]
    fn service_event_lines_keep_the_base_schema_leading() {
        let line = service_event_line(
            &CampaignEvent::CampaignStarted {
                campaign: "fig9".to_string(),
                points: 48,
            },
            "s-1",
            0,
        );
        let Value::Object(fields) = Value::parse_json(&line).unwrap() else {
            panic!("not an object: {line}");
        };
        assert_eq!(fields[0].0, "event", "the kind still leads: {line}");
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(&keys[keys.len() - 2..], ["session_id", "seq"]);
    }

    // -- request parsing ---------------------------------------------------

    #[test]
    fn parse_request_accepts_the_documented_shapes() {
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"cmd":"attach","session_id":"s-1","after":41}"#).unwrap(),
            Request::Attach {
                session_id: "s-1".to_string(),
                after: Some(41)
            }
        );
        let submit =
            parse_request(r#"{"cmd":"submit","campaign":"table2","params":{"quick":true}}"#)
                .unwrap();
        assert_eq!(
            submit,
            Request::Submit {
                campaign: "table2".to_string(),
                params: vec![("quick".to_string(), Value::Bool(true))],
            }
        );
    }

    #[test]
    fn parse_request_rejects_malformed_lines_with_typed_errors() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","campaign":""}"#,
            r#"{"cmd":"submit","campaign":"fig9","params":[1]}"#,
            r#"{"cmd":"submit","campaign":"fig9","typo":1}"#,
            r#"{"cmd":"attach"}"#,
            r#"{"cmd":"attach","session_id":"s-1","after":-3}"#,
            r#"{"cmd":"cancel"}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(!err.is_empty(), "error text for {bad:?}");
        }
    }

    #[test]
    fn validate_submit_reuses_the_registry_schemas() {
        // Happy path: a value-less flag and a valued one.
        let (campaign, params) =
            validate_submit("table2", &[("quick".to_string(), Value::Bool(true))]).unwrap();
        assert_eq!(campaign.name, "table2");
        assert!(params.quick);

        let (_, params) = validate_submit(
            "gen-campaign",
            &[
                ("population".to_string(), Value::UInt(8)),
                ("--seed".to_string(), Value::Str("41".to_string())),
            ],
        )
        .unwrap();
        assert_eq!(params.population, Some(8));
        assert_eq!(params.population_seed, Some(41));

        // Unknown campaign: nearest-name suggestion, like the CLI.
        let err = validate_submit("fig12x", &[]).unwrap_err();
        assert!(err.contains("did you mean `fig12`?"), "{err}");

        // Out-of-scope flag: the registry's scope error, like the CLI.
        let err = validate_submit(
            "fig9",
            &[("sm-counts".to_string(), Value::Str("1,2".to_string()))],
        )
        .unwrap_err();
        assert!(err.contains("gpu-scale"), "{err}");

        // Type errors surface the spec's own parser message.
        let err = validate_submit(
            "gen-campaign",
            &[("population".to_string(), Value::Str("lots".to_string()))],
        )
        .unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn analytical_submits_are_rejected_with_the_cli_command() {
        for name in ["table1", "fig2", "table3", "table4", "overheads"] {
            let (campaign, params) = validate_submit(name, &[]).unwrap();
            let err = submit_specs(campaign, &params).unwrap_err();
            assert!(err.contains(&format!("`sweep {name}`")), "{err}");
        }
        // `--quick` is in scope for the suite-reading tables, but the
        // submit is still refused: there is nothing to run.
        let (campaign, params) =
            validate_submit("table4", &[("quick".to_string(), Value::Bool(true))]).unwrap();
        assert!(submit_specs(campaign, &params).is_err());
        // Simulation-backed campaigns build their specs as before.
        let (campaign, params) =
            validate_submit("fig3", &[("quick".to_string(), Value::Bool(true))]).unwrap();
        assert_eq!(submit_specs(campaign, &params).unwrap().len(), 1);
    }

    // -- bounded request reader --------------------------------------------

    #[test]
    fn read_request_line_bounds_memory_and_recovers() {
        let oversized = "x".repeat(MAX_REQUEST_BYTES + 10);
        let input = format!("{oversized}\n{{\"cmd\":\"status\"}}\n");
        let mut reader = BufReader::new(input.as_bytes());
        assert_eq!(read_request_line(&mut reader).unwrap(), Some(Err(())));
        assert_eq!(
            read_request_line(&mut reader).unwrap(),
            Some(Ok("{\"cmd\":\"status\"}".to_string()))
        );
        assert_eq!(read_request_line(&mut reader).unwrap(), None);
    }

    #[test]
    fn read_request_line_handles_unterminated_tails() {
        let mut reader = BufReader::new(&b"{\"cmd\":\"status\"}"[..]);
        assert_eq!(
            read_request_line(&mut reader).unwrap(),
            Some(Ok("{\"cmd\":\"status\"}".to_string()))
        );
        assert_eq!(read_request_line(&mut reader).unwrap(), None);
    }
}
