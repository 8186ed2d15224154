//! Network addressing primitives: IPv4 and MAC addresses, protocol numbers,
//! EtherTypes, and the canonical [`FiveTuple`] flow key.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::error::AthenaError;

/// An IPv4 address.
///
/// A minimal, `Copy`, fully-serializable IPv4 wrapper (we avoid
/// `std::net::Ipv4Addr` so the wire codec and the store can treat addresses
/// as plain `u32`s).
///
/// # Examples
///
/// ```
/// use athena_types::Ipv4Addr;
/// let a: Ipv4Addr = "10.0.1.2".parse()?;
/// assert_eq!(a, Ipv4Addr::new(10, 0, 1, 2));
/// assert!(a.in_subnet(Ipv4Addr::new(10, 0, 0, 0), 8));
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);
    /// The limited-broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr(u32::MAX);

    /// Creates an address from its four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Creates an address from a raw big-endian `u32`.
    pub const fn from_raw(raw: u32) -> Self {
        Ipv4Addr(raw)
    }

    /// Returns the raw big-endian `u32` representation.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the four octets of the address.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Returns `true` if the address falls inside `net/prefix_len`.
    ///
    /// A `prefix_len` of 0 matches every address.
    pub const fn in_subnet(self, net: Ipv4Addr, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - prefix_len as u32);
        (self.0 & mask) == (net.0 & mask)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for Ipv4Addr {
    type Err = AthenaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in s.split('.') {
            if n >= 4 {
                return Err(AthenaError::parse("ipv4", s));
            }
            octets[n] = part
                .parse::<u8>()
                .map_err(|_| AthenaError::parse("ipv4", s))?;
            n += 1;
        }
        if n != 4 {
            return Err(AthenaError::parse("ipv4", s));
        }
        Ok(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

impl From<u32> for Ipv4Addr {
    fn from(raw: u32) -> Self {
        Ipv4Addr(raw)
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }
}

/// An Ethernet MAC address.
///
/// # Examples
///
/// ```
/// use athena_types::MacAddr;
/// let m = MacAddr::new([0x02, 0, 0, 0, 0, 0x03]);
/// assert_eq!(m.to_string(), "02:00:00:00:00:03");
/// assert!(!m.is_broadcast());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast MAC address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Creates a MAC address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(o: [u8; 6]) -> Self {
        MacAddr(o)
    }
}

/// An IP protocol number (the subset the simulator generates).
///
/// # Examples
///
/// ```
/// use athena_types::IpProto;
/// assert_eq!(IpProto::Tcp.number(), 6);
/// assert_eq!(IpProto::from_number(17), IpProto::Udp);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum IpProto {
    /// ICMP (protocol 1).
    Icmp,
    /// TCP (protocol 6).
    #[default]
    Tcp,
    /// UDP (protocol 17).
    Udp,
    /// Any other protocol, carried verbatim.
    Other(u8),
}

impl IpProto {
    /// Returns the IANA protocol number.
    pub const fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(n) => n,
        }
    }

    /// Creates a protocol from its IANA number.
    pub const fn from_number(n: u8) -> Self {
        match n {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Icmp => write!(f, "ICMP"),
            IpProto::Tcp => write!(f, "TCP"),
            IpProto::Udp => write!(f, "UDP"),
            IpProto::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// An Ethernet frame type.
///
/// # Examples
///
/// ```
/// use athena_types::EtherType;
/// assert_eq!(EtherType::Ipv4.number(), 0x0800);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum EtherType {
    /// IPv4 (0x0800).
    #[default]
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// LLDP (0x88cc) — used by link discovery.
    Lldp,
    /// Any other EtherType, carried verbatim.
    Other(u16),
}

impl EtherType {
    /// Returns the 16-bit EtherType value.
    pub const fn number(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Lldp => 0x88cc,
            EtherType::Other(n) => n,
        }
    }

    /// Creates an EtherType from its 16-bit value.
    pub const fn from_number(n: u16) -> Self {
        match n {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x88cc => EtherType::Lldp,
            other => EtherType::Other(other),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Lldp => write!(f, "LLDP"),
            EtherType::Other(n) => write!(f, "ethertype-{n:#06x}"),
        }
    }
}

/// The canonical 5-tuple identifying a transport flow.
///
/// Athena's stateful features (pair-flow tracking) need the notion of a
/// flow's *reverse*: [`FiveTuple::reversed`] swaps the endpoints, and a flow
/// together with its live reverse constitutes a *pair flow*.
///
/// # Examples
///
/// ```
/// use athena_types::{FiveTuple, IpProto, Ipv4Addr};
/// let ft = FiveTuple::tcp(
///     Ipv4Addr::new(10, 0, 0, 1), 40000,
///     Ipv4Addr::new(10, 0, 0, 2), 80,
/// );
/// assert_eq!(ft.reversed().src_port, 80);
/// assert_eq!(ft.reversed().reversed(), ft);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: IpProto,
}

impl FiveTuple {
    /// Creates a TCP 5-tuple.
    pub const fn tcp(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src,
            dst,
            src_port,
            dst_port,
            proto: IpProto::Tcp,
        }
    }

    /// Creates a UDP 5-tuple.
    pub const fn udp(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src,
            dst,
            src_port,
            dst_port,
            proto: IpProto::Udp,
        }
    }

    /// Returns the flow in the opposite direction.
    pub const fn reversed(self) -> Self {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_parse_and_display_roundtrip() {
        let a: Ipv4Addr = "192.168.10.254".parse().unwrap();
        assert_eq!(a.to_string(), "192.168.10.254");
        assert_eq!(a.octets(), [192, 168, 10, 254]);
    }

    #[test]
    fn ipv4_parse_rejects_garbage() {
        assert!("10.0.0".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.0.0".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.300".parse::<Ipv4Addr>().is_err());
        assert!("ten.0.0.1".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn subnet_membership() {
        let a = Ipv4Addr::new(10, 0, 3, 7);
        assert!(a.in_subnet(Ipv4Addr::new(10, 0, 0, 0), 8));
        assert!(a.in_subnet(Ipv4Addr::new(10, 0, 3, 0), 24));
        assert!(!a.in_subnet(Ipv4Addr::new(10, 0, 4, 0), 24));
        assert!(a.in_subnet(Ipv4Addr::UNSPECIFIED, 0));
    }

    #[test]
    fn proto_numbers_roundtrip() {
        for p in [
            IpProto::Icmp,
            IpProto::Tcp,
            IpProto::Udp,
            IpProto::Other(89),
        ] {
            assert_eq!(IpProto::from_number(p.number()), p);
        }
    }

    #[test]
    fn ethertype_numbers_roundtrip() {
        for e in [
            EtherType::Ipv4,
            EtherType::Arp,
            EtherType::Lldp,
            EtherType::Other(0x86dd),
        ] {
            assert_eq!(EtherType::from_number(e.number()), e);
        }
    }

    #[test]
    fn five_tuple_reverse_swaps_endpoints() {
        let ft = FiveTuple::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            53,
            Ipv4Addr::new(2, 2, 2, 2),
            5353,
        );
        let r = ft.reversed();
        assert_eq!(r.src, ft.dst);
        assert_eq!(r.dst_port, ft.src_port);
        assert_eq!(r.proto, ft.proto);
    }
}
