//! Typed communication failures — the vocabulary of the fault layer.
//!
//! Every detectable transport fault (peer process death, a wedged
//! connection that stopped heartbeating, a corrupt frame, a receive
//! that outlived its deadline) surfaces as a [`CommError`] carrying
//! the peer rank, the tag being waited on, and how long the operation
//! ran before failing — enough for a rank to exit with a diagnostic
//! that names the culprit instead of hanging until an external
//! watchdog kills the job.
//!
//! Every operation of [`crate::Comm`] returns [`CommResult`]. The
//! error's `Display` form names the peer (e.g. "connection to rank 1
//! closed"); the one panicking method left, `Comm::allreduce`, panics
//! with it.

use std::time::Duration;

/// What kind of transport fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// The peer closed its side of the connection (clean EOF) — the
    /// signature of a rank that exited, cleanly or not.
    PeerClosed,
    /// The connection to the peer is gone or silent: an I/O error on
    /// the stream, or no heartbeat within the peer-timeout window.
    PeerLost,
    /// A frame failed validation (bad magic, CRC mismatch, oversized
    /// length) — the payload cannot be trusted.
    Corrupt,
    /// A receive ran past its deadline with the peer still apparently
    /// alive — the signature of a hung (but not dead) rank.
    Timeout,
    /// The transport protocol was violated (unexpected message shape,
    /// length skew in a collective).
    Protocol,
}

impl CommErrorKind {
    /// Stable lowercase name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            CommErrorKind::PeerClosed => "peer-closed",
            CommErrorKind::PeerLost => "peer-lost",
            CommErrorKind::Corrupt => "corrupt",
            CommErrorKind::Timeout => "timeout",
            CommErrorKind::Protocol => "protocol",
        }
    }
}

/// A detected communication fault, attributed to a peer when one is
/// known and stamped with the time the failing operation had been
/// blocked.
#[derive(Debug, Clone, PartialEq)]
pub struct CommError {
    /// The failure class.
    pub kind: CommErrorKind,
    /// The rank this failure is attributed to, when attributable.
    pub peer: Option<usize>,
    /// The tag the failing operation was posted on, when it had one.
    pub tag: Option<u64>,
    /// How long the operation ran before the fault was detected.
    pub elapsed: Duration,
    /// Human-readable cause (e.g. "connection to rank 2 closed").
    pub detail: String,
}

impl CommError {
    /// A fault with no timing information yet (elapsed zero).
    pub fn new(kind: CommErrorKind, peer: Option<usize>, detail: impl Into<String>) -> Self {
        CommError { kind, peer, tag: None, elapsed: Duration::ZERO, detail: detail.into() }
    }

    /// Attach the tag of the operation that observed the fault.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Attach how long the operation ran before failing.
    pub fn with_elapsed(mut self, elapsed: Duration) -> Self {
        self.elapsed = elapsed;
        self
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "comm fault [{}]", self.kind.name())?;
        if let Some(peer) = self.peer {
            write!(f, " from rank {peer}")?;
        }
        if let Some(tag) = self.tag {
            write!(f, " (tag {tag})")?;
        }
        if !self.elapsed.is_zero() {
            write!(f, " after {:.3}s", self.elapsed.as_secs_f64())?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for CommError {}

/// Result alias used by every fallible comm operation.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_peer_tag_and_elapsed() {
        let e = CommError::new(CommErrorKind::PeerClosed, Some(1), "connection to rank 1 closed")
            .with_tag(5)
            .with_elapsed(Duration::from_millis(1500));
        let s = e.to_string();
        assert!(s.contains("from rank 1"), "{s}");
        assert!(s.contains("(tag 5)"), "{s}");
        assert!(s.contains("1.500s"), "{s}");
        assert!(s.contains("connection to rank 1 closed"), "{s}");
        assert!(s.contains("peer-closed"), "{s}");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CommErrorKind::Timeout.name(), "timeout");
        assert_eq!(CommErrorKind::Corrupt.name(), "corrupt");
        assert_eq!(CommErrorKind::PeerLost.name(), "peer-lost");
        assert_eq!(CommErrorKind::Protocol.name(), "protocol");
    }
}
