//! OpenFlow match fields with wildcard semantics.
//!
//! [`MatchFields`] models the OpenFlow 1.0 12-tuple (minus the fields the
//! simulator never generates) where `None` means *wildcard*. IP addresses
//! match with a prefix length, as in OF 1.0 `nw_src`/`nw_dst` wildcard bits
//! or OF 1.3 masked OXM fields.

use crate::packet::PacketHeader;
use athena_types::{EtherType, FiveTuple, IpProto, Ipv4Addr, MacAddr, PortNo};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A flow match. `None` fields are wildcards.
///
/// # Examples
///
/// ```
/// use athena_openflow::{MatchFields, PacketHeader};
/// use athena_types::{Ipv4Addr, PortNo};
///
/// let m = MatchFields::new()
///     .with_ip_dst(Ipv4Addr::new(10, 0, 0, 0), 24)
///     .with_tp_dst(80);
/// let pkt = PacketHeader::tcp_syn(
///     PortNo::new(1),
///     Ipv4Addr::new(192, 168, 0, 1), 55555,
///     Ipv4Addr::new(10, 0, 0, 42), 80,
/// );
/// assert!(m.matches(&pkt));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct MatchFields {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Source MAC address.
    pub eth_src: Option<MacAddr>,
    /// Destination MAC address.
    pub eth_dst: Option<MacAddr>,
    /// EtherType.
    pub eth_type: Option<EtherType>,
    /// VLAN id.
    pub vlan_id: Option<u16>,
    /// Source IPv4 prefix `(network, prefix_len)`.
    pub ip_src: Option<(Ipv4Addr, u8)>,
    /// Destination IPv4 prefix `(network, prefix_len)`.
    pub ip_dst: Option<(Ipv4Addr, u8)>,
    /// IP protocol.
    pub ip_proto: Option<IpProto>,
    /// Transport source port.
    pub tp_src: Option<u16>,
    /// Transport destination port.
    pub tp_dst: Option<u16>,
}

impl MatchFields {
    /// Creates the all-wildcard match (matches every packet).
    pub fn new() -> Self {
        MatchFields::default()
    }

    /// Creates an exact match on a transport flow's 5-tuple.
    pub fn exact_five_tuple(ft: FiveTuple) -> Self {
        MatchFields::new()
            .with_eth_type(EtherType::Ipv4)
            .with_ip_src(ft.src, 32)
            .with_ip_dst(ft.dst, 32)
            .with_ip_proto(ft.proto)
            .with_tp_src(ft.src_port)
            .with_tp_dst(ft.dst_port)
    }

    /// Creates an exact match on everything a packet header exposes (the
    /// match a reactive forwarding app installs for a table-miss packet).
    pub fn exact_from_packet(pkt: &PacketHeader) -> Self {
        let mut m = MatchFields::new()
            .with_in_port(pkt.in_port)
            .with_eth_src(pkt.eth_src)
            .with_eth_dst(pkt.eth_dst)
            .with_eth_type(pkt.eth_type);
        m.vlan_id = pkt.vlan_id;
        if let Some(ip) = pkt.ip_src {
            m = m.with_ip_src(ip, 32);
        }
        if let Some(ip) = pkt.ip_dst {
            m = m.with_ip_dst(ip, 32);
        }
        if let Some(p) = pkt.ip_proto {
            m = m.with_ip_proto(p);
        }
        m.tp_src = pkt.tp_src;
        m.tp_dst = pkt.tp_dst;
        m
    }

    /// Sets the ingress port.
    pub fn with_in_port(mut self, p: PortNo) -> Self {
        self.in_port = Some(p);
        self
    }

    /// Sets the source MAC.
    fn with_eth_src(mut self, m: MacAddr) -> Self {
        self.eth_src = Some(m);
        self
    }

    /// Sets the destination MAC.
    fn with_eth_dst(mut self, m: MacAddr) -> Self {
        self.eth_dst = Some(m);
        self
    }

    /// Sets the EtherType.
    pub fn with_eth_type(mut self, t: EtherType) -> Self {
        self.eth_type = Some(t);
        self
    }

    /// Sets the VLAN id.
    pub fn with_vlan(mut self, v: u16) -> Self {
        self.vlan_id = Some(v);
        self
    }

    /// Sets the source IPv4 prefix.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn with_ip_src(mut self, net: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length must be <= 32");
        self.ip_src = Some((net, prefix_len));
        self
    }

    /// Sets the destination IPv4 prefix.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn with_ip_dst(mut self, net: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length must be <= 32");
        self.ip_dst = Some((net, prefix_len));
        self
    }

    /// Sets the IP protocol.
    pub fn with_ip_proto(mut self, p: IpProto) -> Self {
        self.ip_proto = Some(p);
        self
    }

    /// Sets the transport source port.
    fn with_tp_src(mut self, p: u16) -> Self {
        self.tp_src = Some(p);
        self
    }

    /// Sets the transport destination port.
    pub fn with_tp_dst(mut self, p: u16) -> Self {
        self.tp_dst = Some(p);
        self
    }

    /// Returns `true` if the packet satisfies every non-wildcard field.
    pub fn matches(&self, pkt: &PacketHeader) -> bool {
        if let Some(p) = self.in_port {
            if pkt.in_port != p {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if pkt.eth_src != m {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if pkt.eth_dst != m {
                return false;
            }
        }
        if let Some(t) = self.eth_type {
            if pkt.eth_type != t {
                return false;
            }
        }
        if let Some(v) = self.vlan_id {
            if pkt.vlan_id != Some(v) {
                return false;
            }
        }
        if let Some((net, len)) = self.ip_src {
            match pkt.ip_src {
                Some(ip) if ip.in_subnet(net, len) => {}
                _ => return false,
            }
        }
        if let Some((net, len)) = self.ip_dst {
            match pkt.ip_dst {
                Some(ip) if ip.in_subnet(net, len) => {}
                _ => return false,
            }
        }
        if let Some(p) = self.ip_proto {
            if pkt.ip_proto != Some(p) {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if pkt.tp_src != Some(p) {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if pkt.tp_dst != Some(p) {
                return false;
            }
        }
        true
    }

    /// Counts the constrained (non-wildcard) fields, weighting IP prefixes
    /// by their length. Used to order equal-priority entries, most specific
    /// first.
    pub fn specificity(&self) -> u32 {
        let mut s = 0;
        s += u32::from(self.in_port.is_some());
        s += u32::from(self.eth_src.is_some());
        s += u32::from(self.eth_dst.is_some());
        s += u32::from(self.eth_type.is_some());
        s += u32::from(self.vlan_id.is_some());
        s += self.ip_src.map_or(0, |(_, l)| 1 + u32::from(l));
        s += self.ip_dst.map_or(0, |(_, l)| 1 + u32::from(l));
        s += u32::from(self.ip_proto.is_some());
        s += u32::from(self.tp_src.is_some());
        s += u32::from(self.tp_dst.is_some());
        s
    }

    /// Returns `true` if every packet matched by `self` is also matched by
    /// `other` (i.e. `other` is equal or wider on every field).
    ///
    /// Used for OpenFlow non-strict delete semantics, where a delete with
    /// match *M* removes every entry whose match is a subset of *M*.
    pub fn is_subset_of(&self, other: &MatchFields) -> bool {
        fn field_ok<T: PartialEq + Copy>(narrow: Option<T>, wide: Option<T>) -> bool {
            match (narrow, wide) {
                (_, None) => true,
                (Some(a), Some(b)) => a == b,
                (None, Some(_)) => false,
            }
        }
        fn prefix_ok(narrow: Option<(Ipv4Addr, u8)>, wide: Option<(Ipv4Addr, u8)>) -> bool {
            match (narrow, wide) {
                (_, None) => true,
                (Some((na, nl)), Some((wa, wl))) => nl >= wl && na.in_subnet(wa, wl),
                (None, Some(_)) => false,
            }
        }
        field_ok(self.in_port, other.in_port)
            && field_ok(self.eth_src, other.eth_src)
            && field_ok(self.eth_dst, other.eth_dst)
            && field_ok(self.eth_type, other.eth_type)
            && field_ok(self.vlan_id, other.vlan_id)
            && prefix_ok(self.ip_src, other.ip_src)
            && prefix_ok(self.ip_dst, other.ip_dst)
            && field_ok(self.ip_proto, other.ip_proto)
            && field_ok(self.tp_src, other.tp_src)
            && field_ok(self.tp_dst, other.tp_dst)
    }

    /// Returns the exact 5-tuple this match pins down, if it constrains all
    /// five transport fields exactly.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        let (src, 32) = self.ip_src? else { return None };
        let (dst, 32) = self.ip_dst? else { return None };
        Some(FiveTuple {
            src,
            dst,
            src_port: self.tp_src?,
            dst_port: self.tp_dst?,
            proto: self.ip_proto?,
        })
    }
}

impl fmt::Display for MatchFields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in_port={p}"));
        }
        if let Some(m) = self.eth_src {
            parts.push(format!("eth_src={m}"));
        }
        if let Some(m) = self.eth_dst {
            parts.push(format!("eth_dst={m}"));
        }
        if let Some(t) = self.eth_type {
            parts.push(format!("eth_type={t}"));
        }
        if let Some(v) = self.vlan_id {
            parts.push(format!("vlan={v}"));
        }
        if let Some((ip, l)) = self.ip_src {
            parts.push(format!("ip_src={ip}/{l}"));
        }
        if let Some((ip, l)) = self.ip_dst {
            parts.push(format!("ip_dst={ip}/{l}"));
        }
        if let Some(p) = self.ip_proto {
            parts.push(format!("proto={p}"));
        }
        if let Some(p) = self.tp_src {
            parts.push(format!("tp_src={p}"));
        }
        if let Some(p) = self.tp_dst {
            parts.push(format!("tp_dst={p}"));
        }
        if parts.is_empty() {
            write!(f, "match(*)")
        } else {
            write!(f, "match({})", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> PacketHeader {
        PacketHeader::tcp_syn(
            PortNo::new(3),
            Ipv4Addr::new(10, 1, 2, 3),
            40000,
            Ipv4Addr::new(10, 9, 8, 7),
            443,
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(MatchFields::new().matches(&pkt()));
    }

    #[test]
    fn exact_five_tuple_matches_only_that_flow() {
        let ft = pkt().five_tuple().unwrap();
        let m = MatchFields::exact_five_tuple(ft);
        assert!(m.matches(&pkt()));
        let other = PacketHeader::tcp_syn(
            PortNo::new(3),
            Ipv4Addr::new(10, 1, 2, 3),
            40001, // different source port
            Ipv4Addr::new(10, 9, 8, 7),
            443,
        );
        assert!(!m.matches(&other));
    }

    #[test]
    fn prefix_matching() {
        let m = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 9, 0, 0), 16);
        assert!(m.matches(&pkt()));
        let m = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 8, 0, 0), 16);
        assert!(!m.matches(&pkt()));
    }

    #[test]
    fn transport_fields_require_ip_packet() {
        let m = MatchFields::new().with_tp_dst(443);
        let arp = PacketHeader::arp_request(PortNo::new(1), Ipv4Addr::new(10, 0, 0, 1));
        assert!(!m.matches(&arp));
        assert!(m.matches(&pkt()));
    }

    #[test]
    fn specificity_orders_narrower_matches_higher() {
        let wide = MatchFields::new().with_eth_type(EtherType::Ipv4);
        let narrow = MatchFields::exact_five_tuple(pkt().five_tuple().unwrap());
        assert!(narrow.specificity() > wide.specificity());
        let p16 = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 9, 0, 0), 16);
        let p24 = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 9, 8, 0), 24);
        assert!(p24.specificity() > p16.specificity());
    }

    #[test]
    fn subset_relation() {
        let all = MatchFields::new();
        let tcp = MatchFields::new().with_ip_proto(IpProto::Tcp);
        let tcp443 = tcp.with_tp_dst(443);
        assert!(tcp443.is_subset_of(&tcp));
        assert!(tcp.is_subset_of(&all));
        assert!(tcp443.is_subset_of(&all));
        assert!(!tcp.is_subset_of(&tcp443));
        // Prefix subset: /24 inside /16, not vice versa.
        let p16 = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 9, 0, 0), 16);
        let p24 = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 9, 8, 0), 24);
        assert!(p24.is_subset_of(&p16));
        assert!(!p16.is_subset_of(&p24));
        // Every match is a subset of itself.
        assert!(tcp443.is_subset_of(&tcp443));
    }

    #[test]
    fn exact_from_packet_matches_its_packet() {
        let p = pkt();
        let m = MatchFields::exact_from_packet(&p);
        assert!(m.matches(&p));
        assert_eq!(m.five_tuple(), p.five_tuple());
    }

    #[test]
    fn five_tuple_extraction_requires_exact_prefixes() {
        let ft = pkt().five_tuple().unwrap();
        let exact = MatchFields::exact_five_tuple(ft);
        assert_eq!(exact.five_tuple(), Some(ft));
        let coarse = MatchFields::new()
            .with_ip_src(ft.src, 24)
            .with_ip_dst(ft.dst, 32)
            .with_ip_proto(ft.proto)
            .with_tp_src(ft.src_port)
            .with_tp_dst(ft.dst_port);
        assert_eq!(coarse.five_tuple(), None);
    }

    #[test]
    fn display_lists_constrained_fields() {
        let m = MatchFields::new().with_tp_dst(80);
        assert_eq!(m.to_string(), "match(tp_dst=80)");
        assert_eq!(MatchFields::new().to_string(), "match(*)");
    }
}
