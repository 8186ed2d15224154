//! Parsed packet header summaries.
//!
//! The simulator is flow-level: instead of carrying raw frames, switches and
//! controllers exchange a [`PacketHeader`] — the parsed L2–L4 header fields
//! a real switch would extract for table lookup, plus the frame length.
//! This is exactly the information an OpenFlow 1.0 match operates on.

use athena_types::{EtherType, FiveTuple, IpProto, Ipv4Addr, MacAddr, PortNo};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The parsed header of a simulated packet.
///
/// # Examples
///
/// ```
/// use athena_openflow::PacketHeader;
/// use athena_types::{Ipv4Addr, PortNo};
///
/// let h = PacketHeader::tcp_syn(
///     PortNo::new(1),
///     Ipv4Addr::new(10, 0, 0, 1), 12345,
///     Ipv4Addr::new(10, 0, 0, 9), 80,
/// );
/// assert_eq!(h.five_tuple().unwrap().dst_port, 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketHeader {
    /// The switch port the packet arrived on.
    pub in_port: PortNo,
    /// Source MAC address.
    pub eth_src: MacAddr,
    /// Destination MAC address.
    pub eth_dst: MacAddr,
    /// Ethernet frame type.
    pub eth_type: EtherType,
    /// VLAN id, if tagged.
    pub vlan_id: Option<u16>,
    /// Source IPv4 address (IPv4 frames only).
    pub ip_src: Option<Ipv4Addr>,
    /// Destination IPv4 address (IPv4 frames only).
    pub ip_dst: Option<Ipv4Addr>,
    /// IP protocol (IPv4 frames only).
    pub ip_proto: Option<IpProto>,
    /// Transport source port (TCP/UDP only).
    pub tp_src: Option<u16>,
    /// Transport destination port (TCP/UDP only).
    pub tp_dst: Option<u16>,
    /// Total frame length in bytes.
    pub byte_len: u32,
}

impl PacketHeader {
    /// Creates a TCP packet header (e.g. the first SYN of a flow).
    pub fn tcp_syn(
        in_port: PortNo,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
    ) -> Self {
        Self::from_five_tuple(in_port, FiveTuple::tcp(src, src_port, dst, dst_port), 64)
    }

    /// Creates a header for a flow's 5-tuple with the given frame length.
    ///
    /// MAC addresses are derived deterministically from the IP endpoints so
    /// that L2 learning in the controller behaves consistently.
    pub fn from_five_tuple(in_port: PortNo, ft: FiveTuple, byte_len: u32) -> Self {
        PacketHeader {
            in_port,
            eth_src: mac_for_ip(ft.src),
            eth_dst: mac_for_ip(ft.dst),
            eth_type: EtherType::Ipv4,
            vlan_id: None,
            ip_src: Some(ft.src),
            ip_dst: Some(ft.dst),
            ip_proto: Some(ft.proto),
            tp_src: Some(ft.src_port),
            tp_dst: Some(ft.dst_port),
            byte_len,
        }
    }

    /// Creates an ARP-like L2 broadcast header.
    pub fn arp_request(in_port: PortNo, src: Ipv4Addr) -> Self {
        PacketHeader {
            in_port,
            eth_src: mac_for_ip(src),
            eth_dst: MacAddr::BROADCAST,
            eth_type: EtherType::Arp,
            vlan_id: None,
            ip_src: Some(src),
            ip_dst: None,
            ip_proto: None,
            tp_src: None,
            tp_dst: None,
            byte_len: 42,
        }
    }

    /// Creates an LLDP discovery frame (used by the controller's link
    /// discovery service).
    pub fn lldp(in_port: PortNo) -> Self {
        PacketHeader {
            in_port,
            eth_src: MacAddr::new([0x02, 0xdd, 0, 0, 0, 1]),
            eth_dst: MacAddr::new([0x01, 0x80, 0xc2, 0, 0, 0x0e]),
            eth_type: EtherType::Lldp,
            vlan_id: None,
            ip_src: None,
            ip_dst: None,
            ip_proto: None,
            tp_src: None,
            tp_dst: None,
            byte_len: 60,
        }
    }

    /// Returns the transport 5-tuple if this is a TCP/UDP packet.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        Some(FiveTuple {
            src: self.ip_src?,
            dst: self.ip_dst?,
            src_port: self.tp_src?,
            dst_port: self.tp_dst?,
            proto: self.ip_proto?,
        })
    }

    /// Returns a copy arriving on a different port (used when a packet is
    /// forwarded across a link).
    pub fn with_in_port(mut self, in_port: PortNo) -> Self {
        self.in_port = in_port;
        self
    }
}

/// Derives a stable MAC address from an IPv4 address.
fn mac_for_ip(ip: Ipv4Addr) -> MacAddr {
    let o = ip.octets();
    MacAddr::new([0x02, 0x1a, o[0], o[1], o[2], o[3]])
}

impl fmt::Display for PacketHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.five_tuple() {
            Some(ft) => write!(f, "[port {}] {} ({}B)", self.in_port, ft, self.byte_len),
            None => write!(
                f,
                "[port {}] {} {} -> {} ({}B)",
                self.in_port, self.eth_type, self.eth_src, self.eth_dst, self.byte_len
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_roundtrip() {
        let ft = FiveTuple::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            53,
            Ipv4Addr::new(5, 6, 7, 8),
            999,
        );
        let h = PacketHeader::from_five_tuple(PortNo::new(3), ft, 128);
        assert_eq!(h.five_tuple(), Some(ft));
        assert_eq!(h.byte_len, 128);
    }

    #[test]
    fn arp_has_no_transport_fields() {
        let h = PacketHeader::arp_request(PortNo::new(1), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(h.five_tuple(), None);
        assert!(h.eth_dst.is_broadcast());
        assert_eq!(h.eth_type, EtherType::Arp);
    }

    #[test]
    fn lldp_frame_shape() {
        let h = PacketHeader::lldp(PortNo::new(2));
        assert_eq!(h.eth_type, EtherType::Lldp);
        assert_eq!(h.five_tuple(), None);
    }

    #[test]
    fn mac_derivation_is_stable_and_injective_on_octets() {
        let a = mac_for_ip(Ipv4Addr::new(10, 0, 0, 1));
        let b = mac_for_ip(Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(a, mac_for_ip(Ipv4Addr::new(10, 0, 0, 1)));
        assert_ne!(a, b);
    }

    #[test]
    fn with_in_port_only_changes_port() {
        let h = PacketHeader::tcp_syn(
            PortNo::new(1),
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
        );
        let h2 = h.with_in_port(PortNo::new(9));
        assert_eq!(h2.in_port, PortNo::new(9));
        assert_eq!(h2.five_tuple(), h.five_tuple());
    }
}
