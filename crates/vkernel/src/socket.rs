//! Loopback sockets: `AF_UNIX` and `AF_INET` streams and datagrams.
//!
//! Everything terminates inside the kernel model (there is no real
//! network), which is exactly what the paper's edge workloads need:
//! memcached-style servers and MQTT-style clients talk over loopback.

use std::collections::VecDeque;

use wali_abi::layout::WaliSockaddr;

/// Per-direction stream buffer size.
pub const SOCK_BUF_SIZE: usize = 208 * 1024;

/// Connection state of a socket.
#[derive(Clone, Debug, PartialEq)]
pub enum SockState {
    /// Fresh socket.
    Unbound,
    /// Bound to an address.
    Bound,
    /// Listening with a backlog of pending peer socket ids.
    Listening {
        /// Maximum queued connections.
        backlog: usize,
        /// Connected-but-unaccepted peer sockets.
        pending: VecDeque<usize>,
    },
    /// Connected to a peer socket id.
    Connected {
        /// The other end's socket id.
        peer: usize,
    },
    /// Peer closed or connection torn down.
    Closed,
}

/// A socket object.
#[derive(Clone, Debug)]
pub struct Socket {
    /// `AF_UNIX` or `AF_INET`.
    pub domain: i32,
    /// `SOCK_STREAM` or `SOCK_DGRAM`.
    pub ty: i32,
    /// Connection state.
    pub state: SockState,
    /// Local address, once bound.
    pub local: Option<WaliSockaddr>,
    /// Remote address, once connected.
    pub remote: Option<WaliSockaddr>,
    /// Inbound bytes (stream) — our end's receive queue.
    pub recv: VecDeque<u8>,
    /// Inbound datagrams with source address.
    pub dgrams: VecDeque<(WaliSockaddr, Vec<u8>)>,
    /// `SO_*` options that have been set, as (level, name, value).
    pub options: Vec<(i32, i32, i32)>,
    /// Receive direction shut down.
    pub shut_rd: bool,
    /// Send direction shut down.
    pub shut_wr: bool,
    /// Non-blocking mode.
    pub nonblock: bool,
    /// Reference count (descriptors pointing here).
    pub refs: u32,
}

impl Socket {
    /// Creates a fresh socket.
    pub fn new(domain: i32, ty: i32) -> Socket {
        Socket {
            domain,
            ty,
            state: SockState::Unbound,
            local: None,
            remote: None,
            recv: VecDeque::new(),
            dgrams: VecDeque::new(),
            options: Vec::new(),
            shut_rd: false,
            shut_wr: false,
            nonblock: false,
            refs: 1,
        }
    }

    /// Space left in the receive buffer.
    pub fn recv_space(&self) -> usize {
        SOCK_BUF_SIZE - self.recv.len()
    }

    /// True when a reader would not block.
    pub fn readable(&self) -> bool {
        !self.recv.is_empty()
            || !self.dgrams.is_empty()
            || self.shut_rd
            || matches!(self.state, SockState::Closed)
            || matches!(&self.state, SockState::Listening { pending, .. } if !pending.is_empty())
    }

    /// Records a `setsockopt`.
    pub fn set_option(&mut self, level: i32, name: i32, value: i32) {
        if let Some(slot) = self
            .options
            .iter_mut()
            .find(|(l, n, _)| *l == level && *n == name)
        {
            slot.2 = value;
        } else {
            self.options.push((level, name, value));
        }
    }

    /// Reads back a `getsockopt` (0 when never set).
    pub fn get_option(&self, level: i32, name: i32) -> i32 {
        self.options
            .iter()
            .find(|(l, n, _)| *l == level && *n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or(0)
    }
}

/// An address as the bound-address registry keys it: typed, so a lookup
/// on every `connect` and every socket close formats no string.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AddrKey {
    /// `AF_INET`: address octets and port.
    Inet([u8; 4], u16),
    /// `AF_UNIX`: the path.
    Unix(String),
}

impl AddrKey {
    /// The registry key of `addr`.
    pub fn of(addr: &WaliSockaddr) -> AddrKey {
        match addr {
            WaliSockaddr::Inet { addr, port } => AddrKey::Inet(*addr, *port),
            WaliSockaddr::Unix { path } => AddrKey::Unix(path.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali_abi::flags::{AF_INET, SOCK_STREAM, SOL_SOCKET, SO_REUSEADDR};

    #[test]
    fn options_round_trip() {
        let mut s = Socket::new(AF_INET, SOCK_STREAM);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 0);
        s.set_option(SOL_SOCKET, SO_REUSEADDR, 1);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 1);
        s.set_option(SOL_SOCKET, SO_REUSEADDR, 0);
        assert_eq!(s.get_option(SOL_SOCKET, SO_REUSEADDR), 0);
        assert_eq!(s.options.len(), 1, "updated in place");
    }

    #[test]
    fn readable_states() {
        let mut s = Socket::new(AF_INET, SOCK_STREAM);
        assert!(!s.readable());
        s.recv.extend(b"x");
        assert!(s.readable());
        s.recv.clear();
        s.shut_rd = true;
        assert!(s.readable(), "shutdown read returns EOF, hence readable");
    }

    #[test]
    fn addr_keys_are_canonical() {
        let a = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 80,
        };
        assert_eq!(AddrKey::of(&a), AddrKey::Inet([127, 0, 0, 1], 80));
        let u = WaliSockaddr::Unix {
            path: "/tmp/s".into(),
        };
        assert_eq!(AddrKey::of(&u), AddrKey::Unix("/tmp/s".into()));
        // Families never collide, even on look-alike contents.
        assert_ne!(AddrKey::of(&a), AddrKey::Unix("127.0.0.1:80".into()));
    }
}
