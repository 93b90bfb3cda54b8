//! Transport counters: one set per [`Server`](crate::Server), so two servers
//! fronting one engine each count only their own connections and frames.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters a server's acceptor and connection threads stamp as they work.
#[derive(Default)]
pub(crate) struct NetCounters {
    pub(crate) connections_opened: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) frames_received: AtomicU64,
    pub(crate) frames_sent: AtomicU64,
    pub(crate) frame_errors: AtomicU64,
    pub(crate) deadline_disconnects: AtomicU64,
    pub(crate) goaways_sent: AtomicU64,
    pub(crate) conn_panics: AtomicU64,
    pub(crate) acceptor_restarts: AtomicU64,
}

/// Count one event.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl NetCounters {
    pub(crate) fn snapshot(&self) -> ServerMetrics {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerMetrics {
            connections_opened: load(&self.connections_opened),
            connections_closed: load(&self.connections_closed),
            frames_received: load(&self.frames_received),
            frames_sent: load(&self.frames_sent),
            frame_errors: load(&self.frame_errors),
            deadline_disconnects: load(&self.deadline_disconnects),
            goaways_sent: load(&self.goaways_sent),
            conn_panics: load(&self.conn_panics),
            acceptor_restarts: load(&self.acceptor_restarts),
        }
    }
}

/// A point-in-time copy of one server's transport counters, from
/// [`Server::metrics`](crate::Server::metrics). Engine-side counters (jobs,
/// caches, latencies) live in [`Engine::metrics`](tagdm_engine::Engine::metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections closed, whatever the reason (client EOF, protocol fault,
    /// deadline cut, draining shutdown).
    pub connections_closed: u64,
    /// Request frames decoded successfully.
    pub frames_received: u64,
    /// Response frames written successfully.
    pub frames_sent: u64,
    /// Frames rejected as protocol faults (bad magic, version, kind, length or JSON).
    pub frame_errors: u64,
    /// Connections cut because a read or write deadline fired (slow or stalled peer).
    pub deadline_disconnects: u64,
    /// `GoAway` frames sent while draining for shutdown.
    pub goaways_sent: u64,
    /// Connection handlers that panicked; each panic was isolated to its connection.
    pub conn_panics: u64,
    /// Acceptor threads respawned by the supervision guard.
    pub acceptor_restarts: u64,
}

impl ServerMetrics {
    /// Connections open right now (opened minus closed).
    ///
    /// ```
    /// let metrics = tagdm_net::ServerMetrics {
    ///     connections_opened: 3,
    ///     connections_closed: 1,
    ///     ..Default::default()
    /// };
    /// assert_eq!(metrics.connections_open(), 2);
    /// ```
    pub fn connections_open(&self) -> u64 {
        self.connections_opened
            .saturating_sub(self.connections_closed)
    }
}
