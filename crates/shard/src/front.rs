//! The coordinator's network front end.
//!
//! The same connection core as `mammoth-server`
//! ([`mammoth_server::Listener`]), so every existing client (including
//! [`mammoth_server::Client`]) talks to a shard cluster unchanged — the
//! coordinator *is* just another server from the outside, with the same
//! handshake, admission control (the server's default worker pool and
//! backlog) and drain. What differs is its [`Handler`]:
//!
//! * statements go to [`Coordinator::execute_stmt`], and their failures carry
//!   the coordinator's typed codes — `SHARD_UNAVAILABLE` for a dead or
//!   deadline-blown shard, shard error frames passed through verbatim;
//! * `Fragment` and `Subscribe` keep the core's refusals: the coordinator
//!   is the top of the tree, not a scatter target or a replication
//!   primary.

use std::net::SocketAddr;
use std::sync::Arc;

use mammoth_server::{ErrorCode, Handler, Listener, ServerConfig, ServerMsg};
use mammoth_sql::Statement;
use mammoth_types::Result;

use crate::coordinator::{CoordError, Coordinator};

/// What the coordinator's listener advertises in its `Hello`.
pub const COORDINATOR_NAME: &str = "mammoth-shard";

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Require this token at login when set.
    pub auth_token: Option<String>,
    /// Honor [`mammoth_server::ClientMsg::Shutdown`] from clients (daemon
    /// mode).
    pub allow_remote_shutdown: bool,
}

impl FrontConfig {
    pub fn new(addr: impl Into<String>) -> FrontConfig {
        FrontConfig {
            addr: addr.into(),
            auth_token: None,
            allow_remote_shutdown: false,
        }
    }
}

struct Front(Arc<Coordinator>);

impl Handler for Front {
    fn name(&self) -> &str {
        COORDINATOR_NAME
    }

    /// Map a coordinator outcome onto a protocol frame.
    fn statement(&self, stmt: Statement) -> ServerMsg {
        let (code, message) = match self.0.execute_stmt(stmt) {
            Ok(out) => return ServerMsg::from_output(out),
            Err(CoordError::Unavailable(m)) => (ErrorCode::ShardUnavailable, m),
            Err(CoordError::Remote { code, message }) => (code, message),
            Err(CoordError::Sql(e)) => (ErrorCode::Sql, e.to_string()),
        };
        ServerMsg::err(code, message)
    }
}

/// A running coordinator front end. Call [`FrontEnd::shutdown`] (or
/// [`FrontEnd::wait`]) to drain and join; dropping it leaks the listener
/// thread until process exit, like `Server`.
pub struct FrontEnd {
    listener: Listener<Front>,
}

impl FrontEnd {
    /// Bind, start the acceptor, return immediately.
    pub fn start(cfg: FrontConfig, coordinator: Arc<Coordinator>) -> Result<FrontEnd> {
        let cfg = ServerConfig {
            addr: cfg.addr,
            auth_token: cfg.auth_token,
            allow_remote_shutdown: cfg.allow_remote_shutdown,
            ..ServerConfig::default()
        };
        let listener = Listener::start(&cfg, || Ok(Front(coordinator)))?;
        Ok(FrontEnd { listener })
    }

    /// The bound address (port 0 resolved to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Flip the drain flag; returns immediately. Idempotent.
    pub fn request_shutdown(&self) {
        self.listener.request_shutdown();
    }

    /// Block until a client requests shutdown (or a local
    /// [`FrontEnd::request_shutdown`]), then drain and finish.
    pub fn wait(self) -> Result<()> {
        self.listener.wait_shutdown_requested();
        self.shutdown()
    }

    /// Stop accepting, let in-flight statements finish, join every
    /// thread, and flush the coordinator's and the listener's traces.
    pub fn shutdown(mut self) -> Result<()> {
        self.listener.drain()?;
        let coordinator = &self.listener.handler().0;
        coordinator.stop_health_monitor();
        coordinator.flush_trace()?;
        self.listener.flush_trace()
    }
}
