//! Binary wire codec for OpenFlow messages.
//!
//! Every message is framed with the standard 8-byte OpenFlow header
//! (`version`, `type`, `length`, `xid`, all big-endian). Two wire versions
//! are supported, mirroring the paper's deployment (ONOS with OpenFlow 1.0
//! and 1.3):
//!
//! - [`OfVersion::V1_0`] (`0x01`) encodes matches as the OF 1.0 fixed
//!   structure with a wildcard bitmap (IP prefixes as wildcarded-bit
//!   counts),
//! - [`OfVersion::V1_3`] (`0x04`) encodes matches as OXM-style TLVs with
//!   optional masks.
//!
//! The payload encodings for the remaining bodies are shared between
//! versions; both ends of the simulated control channel speak this codec.

use crate::action::Action;
use crate::match_fields::MatchFields;
use crate::message::{
    EchoData, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, OfMessage,
    PacketIn, PacketInReason, PacketOut, PortStatus, PortStatusReason, StatsRequest,
};
use crate::packet::PacketHeader;
use crate::stats::{AggregateStats, FlowStatsEntry, PortStatsEntry, StatsReply, TableStatsEntry};
use athena_types::{
    AthenaError, Dpid, EtherType, IpProto, Ipv4Addr, MacAddr, PortNo, Result, SimDuration, Xid,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The OpenFlow wire versions the codec speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OfVersion {
    /// OpenFlow 1.0 (wire version `0x01`).
    V1_0,
    /// OpenFlow 1.3 (wire version `0x04`).
    #[default]
    V1_3,
}

impl OfVersion {
    /// The wire version byte.
    const fn wire_byte(self) -> u8 {
        match self {
            OfVersion::V1_0 => 0x01,
            OfVersion::V1_3 => 0x04,
        }
    }

    /// Decodes a wire version byte.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Codec`] for unsupported versions.
    fn from_wire_byte(b: u8) -> Result<Self> {
        match b {
            0x01 => Ok(OfVersion::V1_0),
            0x04 => Ok(OfVersion::V1_3),
            other => Err(AthenaError::Codec(format!(
                "unsupported openflow version {other:#04x}"
            ))),
        }
    }
}

// Message type codes (OF 1.0 numbering; 1.3 shares them in this codec since
// both ends are ours — the version byte only switches the match encoding).
const T_HELLO: u8 = 0;
const T_ECHO_REQUEST: u8 = 2;
const T_ECHO_REPLY: u8 = 3;
const T_FEATURES_REQUEST: u8 = 5;
const T_FEATURES_REPLY: u8 = 6;
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PORT_STATUS: u8 = 12;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;
const T_STATS_REQUEST: u8 = 16;
const T_STATS_REPLY: u8 = 17;
const T_BARRIER_REQUEST: u8 = 18;
const T_BARRIER_REPLY: u8 = 19;

const NO_BUFFER: u32 = 0xffff_ffff;

/// Encodes a message for the given wire version.
///
/// # Examples
///
/// ```
/// use athena_openflow::{decode_message, encode_message, OfMessage, OfVersion};
/// use athena_types::Xid;
///
/// let msg = OfMessage::BarrierRequest { xid: Xid::new(7) };
/// let wire = encode_message(&msg, OfVersion::V1_3);
/// let (back, version) = decode_message(&wire)?;
/// assert_eq!(back, msg);
/// assert_eq!(version, OfVersion::V1_3);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
pub fn encode_message(msg: &OfMessage, version: OfVersion) -> Bytes {
    let mut body = BytesMut::with_capacity(64);
    let type_code = encode_body(msg, version, &mut body);
    let mut out = BytesMut::with_capacity(8 + body.len());
    out.put_u8(version.wire_byte());
    out.put_u8(type_code);
    out.put_u16((8 + body.len()) as u16);
    out.put_u32(msg.xid().raw());
    out.extend_from_slice(&body);
    out.freeze()
}

/// Decodes a message, returning it with the wire version it used.
///
/// # Errors
///
/// Returns [`AthenaError::Codec`] for truncated buffers, unknown versions,
/// unknown type codes, or malformed bodies.
pub fn decode_message(buf: &[u8]) -> Result<(OfMessage, OfVersion)> {
    if buf.len() < 8 {
        return Err(AthenaError::Codec(format!(
            "buffer too short for openflow header: {} bytes",
            buf.len()
        )));
    }
    let mut cur = buf;
    let version = OfVersion::from_wire_byte(cur.get_u8())?;
    let type_code = cur.get_u8();
    let length = cur.get_u16() as usize;
    if buf.len() < length {
        return Err(AthenaError::Codec(format!(
            "truncated message: header says {length} bytes, got {}",
            buf.len()
        )));
    }
    let xid = Xid::new(cur.get_u32());
    let mut body = buf.get(8..length).ok_or_else(|| {
        AthenaError::Codec(format!(
            "invalid message length {length} (header is 8 bytes)"
        ))
    })?;
    let msg = decode_body(type_code, xid, version, &mut body)?;
    Ok((msg, version))
}

fn encode_body(msg: &OfMessage, version: OfVersion, b: &mut BytesMut) -> u8 {
    match msg {
        OfMessage::Hello { version: v, .. } => {
            b.put_u8(*v);
            T_HELLO
        }
        OfMessage::EchoRequest { data, .. } => {
            put_bytes(b, &data.0);
            T_ECHO_REQUEST
        }
        OfMessage::EchoReply { data, .. } => {
            put_bytes(b, &data.0);
            T_ECHO_REPLY
        }
        OfMessage::FeaturesRequest { .. } => T_FEATURES_REQUEST,
        OfMessage::FeaturesReply { body, .. } => {
            b.put_u64(body.dpid.raw());
            b.put_u8(body.n_tables);
            b.put_u16(body.ports.len() as u16);
            for p in &body.ports {
                b.put_u32(p.raw());
            }
            T_FEATURES_REPLY
        }
        OfMessage::PacketIn { body, .. } => {
            b.put_u32(body.buffer_id.unwrap_or(NO_BUFFER));
            b.put_u8(match body.reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            put_packet_header(b, &body.header);
            T_PACKET_IN
        }
        OfMessage::PacketOut { body, .. } => {
            b.put_u32(body.buffer_id.unwrap_or(NO_BUFFER));
            put_packet_header(b, &body.header);
            put_actions(b, &body.actions);
            T_PACKET_OUT
        }
        OfMessage::FlowMod { body, .. } => {
            b.put_u8(match body.command {
                FlowModCommand::Add => 0,
                FlowModCommand::Modify => 1,
                FlowModCommand::Delete => 3,
                FlowModCommand::DeleteStrict => 4,
            });
            put_match(b, &body.match_fields, version);
            b.put_u16(body.priority);
            b.put_u64(body.idle_timeout.as_micros());
            b.put_u64(body.hard_timeout.as_micros());
            b.put_u64(body.cookie);
            b.put_u8(u8::from(body.send_flow_removed));
            put_actions(b, &body.actions);
            T_FLOW_MOD
        }
        OfMessage::FlowRemoved { body, .. } => {
            put_match(b, &body.match_fields, version);
            b.put_u64(body.cookie);
            b.put_u16(body.priority);
            b.put_u8(match body.reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            b.put_u64(body.duration.as_micros());
            b.put_u64(body.packet_count);
            b.put_u64(body.byte_count);
            T_FLOW_REMOVED
        }
        OfMessage::PortStatus { body, .. } => {
            b.put_u8(match body.reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            b.put_u32(body.port_no.raw());
            b.put_u8(u8::from(body.link_up));
            T_PORT_STATUS
        }
        OfMessage::StatsRequest { body, .. } => {
            match body {
                StatsRequest::Flow { filter } => {
                    b.put_u8(0);
                    put_match(b, filter, version);
                }
                StatsRequest::Aggregate { filter } => {
                    b.put_u8(1);
                    put_match(b, filter, version);
                }
                StatsRequest::Port { port_no } => {
                    b.put_u8(2);
                    b.put_u32(port_no.raw());
                }
                StatsRequest::Table => b.put_u8(3),
            }
            T_STATS_REQUEST
        }
        OfMessage::StatsReply { body, .. } => {
            match body {
                StatsReply::Flow(entries) => {
                    b.put_u8(0);
                    b.put_u32(entries.len() as u32);
                    for e in entries {
                        put_flow_stats(b, e, version);
                    }
                }
                StatsReply::Aggregate(a) => {
                    b.put_u8(1);
                    b.put_u64(a.packet_count);
                    b.put_u64(a.byte_count);
                    b.put_u32(a.flow_count);
                }
                StatsReply::Port(entries) => {
                    b.put_u8(2);
                    b.put_u32(entries.len() as u32);
                    for e in entries {
                        b.put_u32(e.port_no.raw());
                        b.put_u64(e.rx_packets);
                        b.put_u64(e.tx_packets);
                        b.put_u64(e.rx_bytes);
                        b.put_u64(e.tx_bytes);
                        b.put_u64(e.rx_dropped);
                        b.put_u64(e.tx_dropped);
                        b.put_u64(e.rx_errors);
                        b.put_u64(e.tx_errors);
                    }
                }
                StatsReply::Table(entries) => {
                    b.put_u8(3);
                    b.put_u32(entries.len() as u32);
                    for e in entries {
                        b.put_u8(e.table_id);
                        b.put_u32(e.active_count);
                        b.put_u64(e.lookup_count);
                        b.put_u64(e.matched_count);
                    }
                }
            }
            T_STATS_REPLY
        }
        OfMessage::BarrierRequest { .. } => T_BARRIER_REQUEST,
        OfMessage::BarrierReply { .. } => T_BARRIER_REPLY,
    }
}

fn decode_body(type_code: u8, xid: Xid, version: OfVersion, b: &mut &[u8]) -> Result<OfMessage> {
    Ok(match type_code {
        T_HELLO => OfMessage::Hello {
            xid,
            version: get_u8(b)?,
        },
        T_ECHO_REQUEST => OfMessage::EchoRequest {
            xid,
            data: EchoData(get_bytes(b)?),
        },
        T_ECHO_REPLY => OfMessage::EchoReply {
            xid,
            data: EchoData(get_bytes(b)?),
        },
        T_FEATURES_REQUEST => OfMessage::FeaturesRequest { xid },
        T_FEATURES_REPLY => {
            let dpid = Dpid::new(get_u64(b)?);
            let n_tables = get_u8(b)?;
            let n_ports = get_u16(b)? as usize;
            let mut ports = Vec::with_capacity(n_ports);
            for _ in 0..n_ports {
                ports.push(PortNo::new(get_u32(b)?));
            }
            OfMessage::FeaturesReply {
                xid,
                body: FeaturesReply {
                    dpid,
                    n_tables,
                    ports,
                },
            }
        }
        T_PACKET_IN => {
            let buffer = get_u32(b)?;
            let reason = match get_u8(b)? {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                r => return Err(AthenaError::Codec(format!("bad packet-in reason {r}"))),
            };
            let header = get_packet_header(b)?;
            OfMessage::PacketIn {
                xid,
                body: PacketIn {
                    buffer_id: (buffer != NO_BUFFER).then_some(buffer),
                    reason,
                    header,
                },
            }
        }
        T_PACKET_OUT => {
            let buffer = get_u32(b)?;
            let header = get_packet_header(b)?;
            let actions = get_actions(b)?;
            OfMessage::PacketOut {
                xid,
                body: PacketOut {
                    buffer_id: (buffer != NO_BUFFER).then_some(buffer),
                    header,
                    actions,
                },
            }
        }
        T_FLOW_MOD => {
            let command = match get_u8(b)? {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                c => return Err(AthenaError::Codec(format!("bad flow-mod command {c}"))),
            };
            let match_fields = get_match(b, version)?;
            let priority = get_u16(b)?;
            let idle_timeout = SimDuration::from_micros(get_u64(b)?);
            let hard_timeout = SimDuration::from_micros(get_u64(b)?);
            let cookie = get_u64(b)?;
            let send_flow_removed = get_u8(b)? != 0;
            let actions = get_actions(b)?;
            OfMessage::FlowMod {
                xid,
                body: FlowMod {
                    command,
                    match_fields,
                    priority,
                    idle_timeout,
                    hard_timeout,
                    cookie,
                    actions,
                    send_flow_removed,
                },
            }
        }
        T_FLOW_REMOVED => {
            let match_fields = get_match(b, version)?;
            let cookie = get_u64(b)?;
            let priority = get_u16(b)?;
            let reason = match get_u8(b)? {
                0 => FlowRemovedReason::IdleTimeout,
                1 => FlowRemovedReason::HardTimeout,
                2 => FlowRemovedReason::Delete,
                r => return Err(AthenaError::Codec(format!("bad flow-removed reason {r}"))),
            };
            OfMessage::FlowRemoved {
                xid,
                body: FlowRemoved {
                    match_fields,
                    cookie,
                    priority,
                    reason,
                    duration: SimDuration::from_micros(get_u64(b)?),
                    packet_count: get_u64(b)?,
                    byte_count: get_u64(b)?,
                },
            }
        }
        T_PORT_STATUS => {
            let reason = match get_u8(b)? {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                r => return Err(AthenaError::Codec(format!("bad port-status reason {r}"))),
            };
            OfMessage::PortStatus {
                xid,
                body: PortStatus {
                    reason,
                    port_no: PortNo::new(get_u32(b)?),
                    link_up: get_u8(b)? != 0,
                },
            }
        }
        T_STATS_REQUEST => {
            let body = match get_u8(b)? {
                0 => StatsRequest::Flow {
                    filter: get_match(b, version)?,
                },
                1 => StatsRequest::Aggregate {
                    filter: get_match(b, version)?,
                },
                2 => StatsRequest::Port {
                    port_no: PortNo::new(get_u32(b)?),
                },
                3 => StatsRequest::Table,
                k => return Err(AthenaError::Codec(format!("bad stats request kind {k}"))),
            };
            OfMessage::StatsRequest { xid, body }
        }
        T_STATS_REPLY => {
            let body = match get_u8(b)? {
                0 => {
                    let n = get_u32(b)? as usize;
                    let mut entries = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        entries.push(get_flow_stats(b, version)?);
                    }
                    StatsReply::Flow(entries)
                }
                1 => StatsReply::Aggregate(AggregateStats {
                    packet_count: get_u64(b)?,
                    byte_count: get_u64(b)?,
                    flow_count: get_u32(b)?,
                }),
                2 => {
                    let n = get_u32(b)? as usize;
                    let mut entries = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        entries.push(PortStatsEntry {
                            port_no: PortNo::new(get_u32(b)?),
                            rx_packets: get_u64(b)?,
                            tx_packets: get_u64(b)?,
                            rx_bytes: get_u64(b)?,
                            tx_bytes: get_u64(b)?,
                            rx_dropped: get_u64(b)?,
                            tx_dropped: get_u64(b)?,
                            rx_errors: get_u64(b)?,
                            tx_errors: get_u64(b)?,
                        });
                    }
                    StatsReply::Port(entries)
                }
                3 => {
                    let n = get_u32(b)? as usize;
                    let mut entries = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        entries.push(TableStatsEntry {
                            table_id: get_u8(b)?,
                            active_count: get_u32(b)?,
                            lookup_count: get_u64(b)?,
                            matched_count: get_u64(b)?,
                        });
                    }
                    StatsReply::Table(entries)
                }
                k => return Err(AthenaError::Codec(format!("bad stats reply kind {k}"))),
            };
            OfMessage::StatsReply { xid, body }
        }
        T_BARRIER_REQUEST => OfMessage::BarrierRequest { xid },
        T_BARRIER_REPLY => OfMessage::BarrierReply { xid },
        other => {
            return Err(AthenaError::Codec(format!(
                "unknown message type code {other}"
            )))
        }
    })
}

// ---- field helpers -------------------------------------------------------

fn get_u8(b: &mut &[u8]) -> Result<u8> {
    if b.remaining() < 1 {
        return Err(short());
    }
    Ok(b.get_u8())
}

fn get_u16(b: &mut &[u8]) -> Result<u16> {
    if b.remaining() < 2 {
        return Err(short());
    }
    Ok(b.get_u16())
}

fn get_u32(b: &mut &[u8]) -> Result<u32> {
    if b.remaining() < 4 {
        return Err(short());
    }
    Ok(b.get_u32())
}

fn get_u64(b: &mut &[u8]) -> Result<u64> {
    if b.remaining() < 8 {
        return Err(short());
    }
    Ok(b.get_u64())
}

fn short() -> AthenaError {
    AthenaError::Codec("unexpected end of buffer".into())
}

fn put_bytes(b: &mut BytesMut, data: &[u8]) {
    b.put_u16(data.len() as u16);
    b.extend_from_slice(data);
}

fn get_bytes(b: &mut &[u8]) -> Result<Vec<u8>> {
    let len = get_u16(b)? as usize;
    if b.remaining() < len {
        return Err(short());
    }
    let mut out = vec![0u8; len];
    b.copy_to_slice(&mut out);
    Ok(out)
}

fn put_mac(b: &mut BytesMut, m: MacAddr) {
    b.extend_from_slice(&m.octets());
}

fn get_mac(b: &mut &[u8]) -> Result<MacAddr> {
    if b.remaining() < 6 {
        return Err(short());
    }
    let mut o = [0u8; 6];
    b.copy_to_slice(&mut o);
    Ok(MacAddr::new(o))
}

fn put_packet_header(b: &mut BytesMut, h: &PacketHeader) {
    b.put_u32(h.in_port.raw());
    put_mac(b, h.eth_src);
    put_mac(b, h.eth_dst);
    b.put_u16(h.eth_type.number());
    // Presence bitmap: vlan, ip_src, ip_dst, ip_proto, tp_src, tp_dst.
    let mut flags = 0u8;
    flags |= u8::from(h.vlan_id.is_some());
    flags |= u8::from(h.ip_src.is_some()) << 1;
    flags |= u8::from(h.ip_dst.is_some()) << 2;
    flags |= u8::from(h.ip_proto.is_some()) << 3;
    flags |= u8::from(h.tp_src.is_some()) << 4;
    flags |= u8::from(h.tp_dst.is_some()) << 5;
    b.put_u8(flags);
    if let Some(v) = h.vlan_id {
        b.put_u16(v);
    }
    if let Some(ip) = h.ip_src {
        b.put_u32(ip.raw());
    }
    if let Some(ip) = h.ip_dst {
        b.put_u32(ip.raw());
    }
    if let Some(p) = h.ip_proto {
        b.put_u8(p.number());
    }
    if let Some(p) = h.tp_src {
        b.put_u16(p);
    }
    if let Some(p) = h.tp_dst {
        b.put_u16(p);
    }
    b.put_u32(h.byte_len);
}

fn get_packet_header(b: &mut &[u8]) -> Result<PacketHeader> {
    let in_port = PortNo::new(get_u32(b)?);
    let eth_src = get_mac(b)?;
    let eth_dst = get_mac(b)?;
    let eth_type = EtherType::from_number(get_u16(b)?);
    let flags = get_u8(b)?;
    let vlan_id = (flags & 1 != 0).then(|| get_u16(b)).transpose()?;
    let ip_src = (flags & 2 != 0)
        .then(|| get_u32(b).map(Ipv4Addr::from_raw))
        .transpose()?;
    let ip_dst = (flags & 4 != 0)
        .then(|| get_u32(b).map(Ipv4Addr::from_raw))
        .transpose()?;
    let ip_proto = (flags & 8 != 0)
        .then(|| get_u8(b).map(IpProto::from_number))
        .transpose()?;
    let tp_src = (flags & 16 != 0).then(|| get_u16(b)).transpose()?;
    let tp_dst = (flags & 32 != 0).then(|| get_u16(b)).transpose()?;
    let byte_len = get_u32(b)?;
    Ok(PacketHeader {
        in_port,
        eth_src,
        eth_dst,
        eth_type,
        vlan_id,
        ip_src,
        ip_dst,
        ip_proto,
        tp_src,
        tp_dst,
        byte_len,
    })
}

fn put_actions(b: &mut BytesMut, actions: &[Action]) {
    b.put_u16(actions.len() as u16);
    for a in actions {
        match a {
            Action::Output(p) => {
                b.put_u8(0);
                b.put_u32(p.raw());
            }
            Action::SetEthSrc(m) => {
                b.put_u8(1);
                put_mac(b, *m);
            }
            Action::SetEthDst(m) => {
                b.put_u8(2);
                put_mac(b, *m);
            }
            Action::SetIpSrc(ip) => {
                b.put_u8(3);
                b.put_u32(ip.raw());
            }
            Action::SetIpDst(ip) => {
                b.put_u8(4);
                b.put_u32(ip.raw());
            }
            Action::SetTpSrc(p) => {
                b.put_u8(5);
                b.put_u16(*p);
            }
            Action::SetTpDst(p) => {
                b.put_u8(6);
                b.put_u16(*p);
            }
            Action::Enqueue { port, queue_id } => {
                b.put_u8(7);
                b.put_u32(port.raw());
                b.put_u32(*queue_id);
            }
        }
    }
}

fn get_actions(b: &mut &[u8]) -> Result<Vec<Action>> {
    let n = get_u16(b)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match get_u8(b)? {
            0 => Action::Output(PortNo::new(get_u32(b)?)),
            1 => Action::SetEthSrc(get_mac(b)?),
            2 => Action::SetEthDst(get_mac(b)?),
            3 => Action::SetIpSrc(Ipv4Addr::from_raw(get_u32(b)?)),
            4 => Action::SetIpDst(Ipv4Addr::from_raw(get_u32(b)?)),
            5 => Action::SetTpSrc(get_u16(b)?),
            6 => Action::SetTpDst(get_u16(b)?),
            7 => Action::Enqueue {
                port: PortNo::new(get_u32(b)?),
                queue_id: get_u32(b)?,
            },
            t => return Err(AthenaError::Codec(format!("unknown action type {t}"))),
        });
    }
    Ok(out)
}

// OF 1.0 wildcard bits.
const W_IN_PORT: u32 = 1 << 0;
const W_VLAN: u32 = 1 << 1;
const W_ETH_SRC: u32 = 1 << 2;
const W_ETH_DST: u32 = 1 << 3;
const W_ETH_TYPE: u32 = 1 << 4;
const W_IP_PROTO: u32 = 1 << 5;
const W_TP_SRC: u32 = 1 << 6;
const W_TP_DST: u32 = 1 << 7;
const W_IP_SRC_SHIFT: u32 = 8; // 6 bits: count of wildcarded low bits
const W_IP_DST_SHIFT: u32 = 14;

fn put_match(b: &mut BytesMut, m: &MatchFields, version: OfVersion) {
    match version {
        OfVersion::V1_0 => put_match_v10(b, m),
        OfVersion::V1_3 => put_match_v13(b, m),
    }
}

fn get_match(b: &mut &[u8], version: OfVersion) -> Result<MatchFields> {
    match version {
        OfVersion::V1_0 => get_match_v10(b),
        OfVersion::V1_3 => get_match_v13(b),
    }
}

/// OF 1.0 fixed match structure: a wildcard bitmap then every field.
fn put_match_v10(b: &mut BytesMut, m: &MatchFields) {
    let mut wildcards = 0u32;
    if m.in_port.is_none() {
        wildcards |= W_IN_PORT;
    }
    if m.vlan_id.is_none() {
        wildcards |= W_VLAN;
    }
    if m.eth_src.is_none() {
        wildcards |= W_ETH_SRC;
    }
    if m.eth_dst.is_none() {
        wildcards |= W_ETH_DST;
    }
    if m.eth_type.is_none() {
        wildcards |= W_ETH_TYPE;
    }
    if m.ip_proto.is_none() {
        wildcards |= W_IP_PROTO;
    }
    if m.tp_src.is_none() {
        wildcards |= W_TP_SRC;
    }
    if m.tp_dst.is_none() {
        wildcards |= W_TP_DST;
    }
    let src_wild = m.ip_src.map_or(32, |(_, len)| 32 - u32::from(len));
    let dst_wild = m.ip_dst.map_or(32, |(_, len)| 32 - u32::from(len));
    wildcards |= src_wild << W_IP_SRC_SHIFT;
    wildcards |= dst_wild << W_IP_DST_SHIFT;
    b.put_u32(wildcards);
    b.put_u32(m.in_port.map_or(0, PortNo::raw));
    put_mac(b, m.eth_src.unwrap_or_default());
    put_mac(b, m.eth_dst.unwrap_or_default());
    b.put_u16(m.vlan_id.unwrap_or(0xffff));
    b.put_u16(m.eth_type.map_or(0, EtherType::number));
    b.put_u8(m.ip_proto.map_or(0, IpProto::number));
    b.put_u32(m.ip_src.map_or(0, |(ip, _)| ip.raw()));
    b.put_u32(m.ip_dst.map_or(0, |(ip, _)| ip.raw()));
    b.put_u16(m.tp_src.unwrap_or(0));
    b.put_u16(m.tp_dst.unwrap_or(0));
}

fn get_match_v10(b: &mut &[u8]) -> Result<MatchFields> {
    let wildcards = get_u32(b)?;
    let in_port = get_u32(b)?;
    let eth_src = get_mac(b)?;
    let eth_dst = get_mac(b)?;
    let vlan = get_u16(b)?;
    let eth_type = get_u16(b)?;
    let ip_proto = get_u8(b)?;
    let ip_src = get_u32(b)?;
    let ip_dst = get_u32(b)?;
    let tp_src = get_u16(b)?;
    let tp_dst = get_u16(b)?;

    let src_wild = (wildcards >> W_IP_SRC_SHIFT) & 0x3f;
    let dst_wild = (wildcards >> W_IP_DST_SHIFT) & 0x3f;
    let mut m = MatchFields::new();
    if wildcards & W_IN_PORT == 0 {
        m.in_port = Some(PortNo::new(in_port));
    }
    if wildcards & W_VLAN == 0 {
        m.vlan_id = Some(vlan);
    }
    if wildcards & W_ETH_SRC == 0 {
        m.eth_src = Some(eth_src);
    }
    if wildcards & W_ETH_DST == 0 {
        m.eth_dst = Some(eth_dst);
    }
    if wildcards & W_ETH_TYPE == 0 {
        m.eth_type = Some(EtherType::from_number(eth_type));
    }
    if wildcards & W_IP_PROTO == 0 {
        m.ip_proto = Some(IpProto::from_number(ip_proto));
    }
    if wildcards & W_TP_SRC == 0 {
        m.tp_src = Some(tp_src);
    }
    if wildcards & W_TP_DST == 0 {
        m.tp_dst = Some(tp_dst);
    }
    if src_wild < 32 {
        m.ip_src = Some((Ipv4Addr::from_raw(ip_src), (32 - src_wild) as u8));
    }
    if dst_wild < 32 {
        m.ip_dst = Some((Ipv4Addr::from_raw(ip_dst), (32 - dst_wild) as u8));
    }
    Ok(m)
}

// OXM-style field codes for the OF 1.3 TLV match.
const OXM_IN_PORT: u8 = 0;
const OXM_ETH_SRC: u8 = 1;
const OXM_ETH_DST: u8 = 2;
const OXM_ETH_TYPE: u8 = 3;
const OXM_VLAN: u8 = 4;
const OXM_IP_SRC: u8 = 5;
const OXM_IP_DST: u8 = 6;
const OXM_IP_PROTO: u8 = 7;
const OXM_TP_SRC: u8 = 8;
const OXM_TP_DST: u8 = 9;

/// OF 1.3 OXM-style TLV match: only present fields are encoded.
fn put_match_v13(b: &mut BytesMut, m: &MatchFields) {
    let mut count: u8 = 0;
    count += u8::from(m.in_port.is_some());
    count += u8::from(m.eth_src.is_some());
    count += u8::from(m.eth_dst.is_some());
    count += u8::from(m.eth_type.is_some());
    count += u8::from(m.vlan_id.is_some());
    count += u8::from(m.ip_src.is_some());
    count += u8::from(m.ip_dst.is_some());
    count += u8::from(m.ip_proto.is_some());
    count += u8::from(m.tp_src.is_some());
    count += u8::from(m.tp_dst.is_some());
    b.put_u8(count);
    if let Some(p) = m.in_port {
        b.put_u8(OXM_IN_PORT);
        b.put_u32(p.raw());
    }
    if let Some(mac) = m.eth_src {
        b.put_u8(OXM_ETH_SRC);
        put_mac(b, mac);
    }
    if let Some(mac) = m.eth_dst {
        b.put_u8(OXM_ETH_DST);
        put_mac(b, mac);
    }
    if let Some(t) = m.eth_type {
        b.put_u8(OXM_ETH_TYPE);
        b.put_u16(t.number());
    }
    if let Some(v) = m.vlan_id {
        b.put_u8(OXM_VLAN);
        b.put_u16(v);
    }
    if let Some((ip, len)) = m.ip_src {
        b.put_u8(OXM_IP_SRC);
        b.put_u32(ip.raw());
        b.put_u8(len);
    }
    if let Some((ip, len)) = m.ip_dst {
        b.put_u8(OXM_IP_DST);
        b.put_u32(ip.raw());
        b.put_u8(len);
    }
    if let Some(p) = m.ip_proto {
        b.put_u8(OXM_IP_PROTO);
        b.put_u8(p.number());
    }
    if let Some(p) = m.tp_src {
        b.put_u8(OXM_TP_SRC);
        b.put_u16(p);
    }
    if let Some(p) = m.tp_dst {
        b.put_u8(OXM_TP_DST);
        b.put_u16(p);
    }
}

fn get_match_v13(b: &mut &[u8]) -> Result<MatchFields> {
    let count = get_u8(b)?;
    let mut m = MatchFields::new();
    for _ in 0..count {
        match get_u8(b)? {
            OXM_IN_PORT => m.in_port = Some(PortNo::new(get_u32(b)?)),
            OXM_ETH_SRC => m.eth_src = Some(get_mac(b)?),
            OXM_ETH_DST => m.eth_dst = Some(get_mac(b)?),
            OXM_ETH_TYPE => m.eth_type = Some(EtherType::from_number(get_u16(b)?)),
            OXM_VLAN => m.vlan_id = Some(get_u16(b)?),
            OXM_IP_SRC => {
                let ip = Ipv4Addr::from_raw(get_u32(b)?);
                let len = get_u8(b)?;
                if len > 32 {
                    return Err(AthenaError::Codec(format!("bad prefix length {len}")));
                }
                m.ip_src = Some((ip, len));
            }
            OXM_IP_DST => {
                let ip = Ipv4Addr::from_raw(get_u32(b)?);
                let len = get_u8(b)?;
                if len > 32 {
                    return Err(AthenaError::Codec(format!("bad prefix length {len}")));
                }
                m.ip_dst = Some((ip, len));
            }
            OXM_IP_PROTO => m.ip_proto = Some(IpProto::from_number(get_u8(b)?)),
            OXM_TP_SRC => m.tp_src = Some(get_u16(b)?),
            OXM_TP_DST => m.tp_dst = Some(get_u16(b)?),
            f => return Err(AthenaError::Codec(format!("unknown oxm field {f}"))),
        }
    }
    Ok(m)
}

fn put_flow_stats(b: &mut BytesMut, e: &FlowStatsEntry, version: OfVersion) {
    b.put_u8(e.table_id);
    put_match(b, &e.match_fields, version);
    b.put_u16(e.priority);
    b.put_u64(e.duration.as_micros());
    b.put_u64(e.idle_timeout.as_micros());
    b.put_u64(e.hard_timeout.as_micros());
    b.put_u64(e.cookie);
    b.put_u64(e.packet_count);
    b.put_u64(e.byte_count);
    put_actions(b, &e.actions);
}

fn get_flow_stats(b: &mut &[u8], version: OfVersion) -> Result<FlowStatsEntry> {
    Ok(FlowStatsEntry {
        table_id: get_u8(b)?,
        match_fields: get_match(b, version)?,
        priority: get_u16(b)?,
        duration: SimDuration::from_micros(get_u64(b)?),
        idle_timeout: SimDuration::from_micros(get_u64(b)?),
        hard_timeout: SimDuration::from_micros(get_u64(b)?),
        cookie: get_u64(b)?,
        packet_count: get_u64(b)?,
        byte_count: get_u64(b)?,
        actions: get_actions(b)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &OfMessage, version: OfVersion) {
        let wire = encode_message(msg, version);
        let (back, v) = decode_message(&wire).expect("decode");
        assert_eq!(&back, msg, "version {version:?}");
        assert_eq!(v, version);
        // The header length field is accurate.
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]) as usize, wire.len());
    }

    fn sample_header() -> PacketHeader {
        PacketHeader::tcp_syn(
            PortNo::new(4),
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn roundtrip_simple_messages() {
        for v in [OfVersion::V1_0, OfVersion::V1_3] {
            roundtrip(
                &OfMessage::Hello {
                    xid: Xid::new(1),
                    version: v.wire_byte(),
                },
                v,
            );
            roundtrip(&OfMessage::FeaturesRequest { xid: Xid::new(2) }, v);
            roundtrip(&OfMessage::BarrierRequest { xid: Xid::new(3) }, v);
            roundtrip(&OfMessage::BarrierReply { xid: Xid::new(4) }, v);
            roundtrip(
                &OfMessage::EchoRequest {
                    xid: Xid::new(5),
                    data: EchoData(vec![1, 2, 3]),
                },
                v,
            );
        }
    }

    #[test]
    fn roundtrip_packet_in_out() {
        let header = sample_header();
        for v in [OfVersion::V1_0, OfVersion::V1_3] {
            roundtrip(&OfMessage::packet_in(Xid::new(9), header), v);
            roundtrip(
                &OfMessage::PacketOut {
                    xid: Xid::new(10),
                    body: PacketOut {
                        buffer_id: Some(1234),
                        header,
                        actions: vec![Action::Output(PortNo::FLOOD)],
                    },
                },
                v,
            );
        }
    }

    #[test]
    fn roundtrip_flow_mod_with_prefix_match() {
        let m = MatchFields::new()
            .with_in_port(PortNo::new(1))
            .with_eth_type(EtherType::Ipv4)
            .with_ip_src(Ipv4Addr::new(10, 0, 0, 0), 24)
            .with_ip_dst(Ipv4Addr::new(192, 168, 1, 0), 28)
            .with_ip_proto(IpProto::Tcp)
            .with_tp_dst(21);
        let fm = FlowMod::add(
            m,
            1000,
            vec![
                Action::SetEthDst(MacAddr::new([1, 2, 3, 4, 5, 6])),
                Action::Output(PortNo::new(3)),
            ],
        )
        .with_idle_timeout(SimDuration::from_secs(10))
        .with_hard_timeout(SimDuration::from_secs(300))
        .with_app(athena_types::AppId::new(5));
        for v in [OfVersion::V1_0, OfVersion::V1_3] {
            roundtrip(
                &OfMessage::FlowMod {
                    xid: Xid::new(77),
                    body: fm.clone(),
                },
                v,
            );
        }
    }

    #[test]
    fn roundtrip_stats_messages() {
        let flow_entry = FlowStatsEntry {
            table_id: 0,
            match_fields: MatchFields::new().with_tp_dst(80),
            priority: 5,
            duration: SimDuration::from_millis(1234),
            idle_timeout: SimDuration::from_secs(10),
            hard_timeout: SimDuration::ZERO,
            cookie: 0xdead_beef,
            packet_count: 42,
            byte_count: 4200,
            actions: vec![Action::Output(PortNo::new(2))],
        };
        for v in [OfVersion::V1_0, OfVersion::V1_3] {
            roundtrip(
                &OfMessage::StatsRequest {
                    xid: Xid::athena_marked(1),
                    body: StatsRequest::Flow {
                        filter: MatchFields::new(),
                    },
                },
                v,
            );
            roundtrip(
                &OfMessage::StatsRequest {
                    xid: Xid::new(2),
                    body: StatsRequest::Port {
                        port_no: PortNo::ANY,
                    },
                },
                v,
            );
            roundtrip(
                &OfMessage::StatsReply {
                    xid: Xid::new(3),
                    body: StatsReply::Flow(vec![flow_entry.clone(); 3]),
                },
                v,
            );
            roundtrip(
                &OfMessage::StatsReply {
                    xid: Xid::new(4),
                    body: StatsReply::Aggregate(AggregateStats {
                        packet_count: 1,
                        byte_count: 2,
                        flow_count: 3,
                    }),
                },
                v,
            );
            roundtrip(
                &OfMessage::StatsReply {
                    xid: Xid::new(5),
                    body: StatsReply::Port(vec![PortStatsEntry {
                        port_no: PortNo::new(1),
                        rx_packets: 10,
                        tx_packets: 20,
                        rx_bytes: 1000,
                        tx_bytes: 2000,
                        rx_dropped: 1,
                        tx_dropped: 0,
                        rx_errors: 0,
                        tx_errors: 0,
                    }]),
                },
                v,
            );
            roundtrip(
                &OfMessage::StatsReply {
                    xid: Xid::new(6),
                    body: StatsReply::Table(vec![TableStatsEntry {
                        table_id: 0,
                        active_count: 3,
                        lookup_count: 100,
                        matched_count: 90,
                    }]),
                },
                v,
            );
        }
    }

    #[test]
    fn roundtrip_flow_removed_and_port_status() {
        for v in [OfVersion::V1_0, OfVersion::V1_3] {
            roundtrip(
                &OfMessage::FlowRemoved {
                    xid: Xid::new(8),
                    body: FlowRemoved {
                        match_fields: MatchFields::new().with_tp_dst(80),
                        cookie: 7,
                        priority: 9,
                        reason: FlowRemovedReason::IdleTimeout,
                        duration: SimDuration::from_secs(12),
                        packet_count: 100,
                        byte_count: 10_000,
                    },
                },
                v,
            );
            roundtrip(
                &OfMessage::PortStatus {
                    xid: Xid::new(9),
                    body: PortStatus {
                        reason: PortStatusReason::Modify,
                        port_no: PortNo::new(2),
                        link_up: false,
                    },
                },
                v,
            );
            roundtrip(
                &OfMessage::FeaturesReply {
                    xid: Xid::new(10),
                    body: FeaturesReply {
                        dpid: Dpid::new(42),
                        n_tables: 1,
                        ports: vec![PortNo::new(1), PortNo::new(2)],
                    },
                },
                v,
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_message(&[]).is_err());
        assert!(decode_message(&[1, 2, 3]).is_err());
        // Unknown version byte.
        let mut wire = encode_message(
            &OfMessage::BarrierRequest { xid: Xid::new(1) },
            OfVersion::V1_3,
        )
        .to_vec();
        wire[0] = 0x09;
        assert!(decode_message(&wire).is_err());
        // Unknown type code.
        let mut wire = encode_message(
            &OfMessage::BarrierRequest { xid: Xid::new(1) },
            OfVersion::V1_3,
        )
        .to_vec();
        wire[1] = 200;
        assert!(decode_message(&wire).is_err());
        // Truncated body.
        let wire = encode_message(
            &OfMessage::packet_in(Xid::new(1), sample_header()),
            OfVersion::V1_3,
        );
        assert!(decode_message(&wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn version_byte_selects_match_encoding() {
        let m = MatchFields::new().with_ip_dst(Ipv4Addr::new(10, 0, 0, 0), 8);
        let fm = FlowMod::add(m, 1, vec![]);
        let v10 = encode_message(
            &OfMessage::FlowMod {
                xid: Xid::new(1),
                body: fm.clone(),
            },
            OfVersion::V1_0,
        );
        let v13 = encode_message(
            &OfMessage::FlowMod {
                xid: Xid::new(1),
                body: fm,
            },
            OfVersion::V1_3,
        );
        // OF1.0 fixed match is larger than a one-field TLV match.
        assert!(v10.len() > v13.len());
        assert_eq!(v10[0], 0x01);
        assert_eq!(v13[0], 0x04);
    }
}
