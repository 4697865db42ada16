//! Backbone failure taxonomy.

use std::error::Error;
use std::fmt;

/// A communication backbone failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The address already has a bound listener.
    AddressInUse {
        /// The contested address.
        addr: String,
    },
    /// No listener is bound at the target address.
    ConnectionRefused {
        /// The address dialed.
        addr: String,
    },
    /// The peer closed the connection (or its thread exited).
    Disconnected,
    /// A frame arrived malformed (bad length prefix or truncated body).
    BadFrame {
        /// Details of the corruption.
        reason: String,
    },
    /// A blocking receive timed out.
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddressInUse { addr } => write!(f, "address {addr} already in use"),
            NetError::ConnectionRefused { addr } => {
                write!(f, "connection refused: no listener at {addr}")
            }
            NetError::Disconnected => f.write_str("peer disconnected"),
            NetError::BadFrame { reason } => write!(f, "malformed frame: {reason}"),
            NetError::Timeout => f.write_str("receive timed out"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(NetError::AddressInUse {
            addr: "10.0.0.1:7000".into()
        }
        .to_string()
        .contains("10.0.0.1:7000"));
        assert!(NetError::Disconnected.to_string().contains("disconnected"));
    }
}
