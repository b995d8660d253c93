//! Wire formats: Ethernet II, IPv4, TCP — the only ones the stack speaks.
//!
//! Each layer is a header type with one parser and one emitter. `parse`
//! validates in place and returns the header by value plus the payload as
//! a sub-slice of the input; `emit` appends the wire bytes to a caller-owned
//! buffer. Neither allocates, so the [`crate::stack::Interface`] builds a
//! whole frame in one reusable buffer and reads a received one where the
//! device put it. [`TcpSegment`], a header with a `Vec` payload for code
//! that wants to hold a segment, is an adapter over the same parse/emit.

use crate::NetError;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// An IPv4 address (our own newtype to keep the stack self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Constructs from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// Whether both addresses are in the same /24 (the simulation's fixed
    /// subnetting convention).
    pub fn same_subnet(&self, other: &Ipv4Addr) -> bool {
        self.0[..3] == other.0[..3]
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// EtherType values the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// Anything else (carried, not interpreted).
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(e: EtherType) -> u16 {
        match e {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }
}

/// Ethernet header length.
pub const ETH_HDR_LEN: usize = 14;
/// IPv4 header length (no options supported).
pub const IPV4_HDR_LEN: usize = 20;
/// TCP header length (no options beyond MSS on SYN).
pub const TCP_HDR_LEN: usize = 20;

/// The Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
}

impl EthHeader {
    /// Splits a frame into its header and payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] if shorter than the header.
    pub fn parse(data: &[u8]) -> Result<(EthHeader, &[u8]), NetError> {
        if data.len() < ETH_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let hdr = EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([data[12], data[13]]).into(),
        };
        Ok((hdr, &data[ETH_HDR_LEN..]))
    }

    /// Appends the header to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&u16::from(self.ethertype).to_be_bytes());
    }
}

/// Ones-complement sum of `data` read as big-endian 16-bit words (an odd
/// trailing byte is padded with zero), unfolded.
///
/// Eight bytes are added per step as two 32-bit halves: 2^16 ≡ 1 modulo
/// 0xFFFF, so a wide word folds to the same value as its 16-bit words
/// summed one by one, and a `u64` has room for gigabytes of them.
pub fn ones_sum(data: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut wide = data.chunks_exact(8);
    for c in &mut wide {
        let w = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        sum += (w >> 32) + (w & 0xFFFF_FFFF);
    }
    let mut words = wide.remainder().chunks_exact(2);
    for c in &mut words {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds a ones-complement sum to 16 bits and complements it.
pub fn fold_checksum(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// The Internet checksum (RFC 1071).
pub fn inet_checksum(data: &[u8]) -> u16 {
    fold_checksum(ones_sum(data))
}

/// IP protocol numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// Anything else (carried, not interpreted).
    Other(u8),
}

impl From<u8> for IpProto {
    fn from(v: u8) -> Self {
        match v {
            6 => IpProto::Tcp,
            other => IpProto::Other(other),
        }
    }
}

impl From<IpProto> for u8 {
    fn from(p: IpProto) -> u8 {
        match p {
            IpProto::Tcp => 6,
            IpProto::Other(v) => v,
        }
    }
}

/// The IPv4 header fields the stack uses (no options, no fragments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Time to live.
    pub ttl: u8,
}

impl Ipv4Header {
    /// Validates an IPv4 packet (header checksum verified) and splits it
    /// into header and transport payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] on truncation, options or fragments
    /// (unsupported); [`NetError::BadChecksum`] on a bad header checksum.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), NetError> {
        if data.len() < IPV4_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let vihl = data[0];
        if vihl >> 4 != 4 {
            return Err(NetError::Malformed);
        }
        let ihl = usize::from(vihl & 0xF) * 4;
        if ihl != IPV4_HDR_LEN || data.len() < ihl {
            return Err(NetError::Malformed);
        }
        if inet_checksum(&data[..ihl]) != 0 {
            return Err(NetError::BadChecksum);
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || total_len > data.len() {
            return Err(NetError::Malformed);
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        if flags_frag & 0x3FFF != 0 {
            // Fragments unsupported: fixed MTU by design.
            return Err(NetError::Malformed);
        }
        let hdr = Ipv4Header {
            src: Ipv4Addr([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr([data[16], data[17], data[18], data[19]]),
            proto: data[9].into(),
            ttl: data[8],
        };
        Ok((hdr, &data[ihl..total_len]))
    }

    /// Appends the header, with a correct checksum, for a transport
    /// payload of `payload_len` bytes.
    pub fn emit(&self, payload_len: usize, out: &mut Vec<u8>) {
        let mut h = [0u8; IPV4_HDR_LEN];
        h[0] = 0x45;
        h[2..4].copy_from_slice(&((IPV4_HDR_LEN + payload_len) as u16).to_be_bytes());
        h[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF
        h[8] = self.ttl;
        h[9] = self.proto.into();
        h[12..16].copy_from_slice(&self.src.0);
        h[16..20].copy_from_slice(&self.dst.0);
        let csum = inet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&h);
    }
}

/// Computes a transport checksum over the IPv4 pseudo-header + segment.
///
/// The pseudo-header (addresses, protocol, length) is added to the sum
/// arithmetically rather than materialised in front of the segment.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, segment: &[u8]) -> u16 {
    let word = |hi: u8, lo: u8| u64::from(u16::from_be_bytes([hi, lo]));
    let pseudo = word(src.0[0], src.0[1])
        + word(src.0[2], src.0[3])
        + word(dst.0[0], dst.0[1])
        + word(dst.0[2], dst.0[3])
        + u64::from(u8::from(proto))
        + u64::from(segment.len() as u16);
    fold_checksum(pseudo + ones_sum(segment))
}

/// TCP flag bits.
pub mod tcp_flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

/// A byte range of a ring buffer: the (up to) two slices that hold it, in
/// order. Either may be empty.
pub type RingSlices<'a> = (&'a [u8], &'a [u8]);

/// The TCP header fields the stack uses (no options; data offset and
/// checksum are derived on emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits (see [`tcp_flags`]).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Parses a TCP segment, verifying the checksum against the
    /// pseudo-header; returns the header and the payload (options, if
    /// any, are skipped).
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] / [`NetError::BadChecksum`].
    pub fn parse(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        data: &[u8],
    ) -> Result<(TcpHeader, &[u8]), NetError> {
        if data.len() < TCP_HDR_LEN {
            return Err(NetError::Malformed);
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if data_off < TCP_HDR_LEN || data_off > data.len() {
            return Err(NetError::Malformed);
        }
        if transport_checksum(src, dst, IpProto::Tcp, data) != 0 {
            return Err(NetError::BadChecksum);
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: data[13],
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((hdr, &data[data_off..]))
    }

    /// Appends the segment to `out`: the header, then the payload, then
    /// the checksum, computed over the bytes where they now lie.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: RingSlices, out: &mut Vec<u8>) {
        let start = out.len();
        let mut h = [0u8; TCP_HDR_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..8].copy_from_slice(&self.seq.to_be_bytes());
        h[8..12].copy_from_slice(&self.ack.to_be_bytes());
        h[12] = (TCP_HDR_LEN as u8 / 4) << 4;
        h[13] = self.flags;
        h[14..16].copy_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&h);
        out.extend_from_slice(payload.0);
        out.extend_from_slice(payload.1);
        let csum = transport_checksum(src, dst, IpProto::Tcp, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
    }
}

/// An owned TCP segment: what the sans-io [`crate::tcp::Connection`]
/// hands out and takes in when the caller wants a value, not a borrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// The header.
    pub hdr: TcpHeader,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Parses a segment ([`TcpHeader::parse`] plus a copy of the payload).
    ///
    /// # Errors
    ///
    /// As [`TcpHeader::parse`].
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, data: &[u8]) -> Result<TcpSegment, NetError> {
        let (hdr, payload) = TcpHeader::parse(src, dst, data)?;
        Ok(TcpSegment {
            hdr,
            payload: payload.to_vec(),
        })
    }

    /// Serializes with checksum (no options).
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(TCP_HDR_LEN + self.payload.len());
        self.hdr.emit(src, dst, (&self.payload, &[]), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn mac_display_and_broadcast() {
        assert_eq!(
            MacAddr([0xde, 0xad, 0, 0, 0xbe, 0xef]).to_string(),
            "de:ad:00:00:be:ef"
        );
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::default().is_broadcast());
    }

    #[test]
    fn subnet_check() {
        assert!(A.same_subnet(&B));
        assert!(!A.same_subnet(&Ipv4Addr::new(10, 0, 1, 1)));
    }

    #[test]
    fn eth_roundtrip() {
        let h = EthHeader {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            ethertype: EtherType::Ipv4,
        };
        let mut bytes = Vec::new();
        h.emit(&mut bytes);
        bytes.extend_from_slice(b"payload");
        assert_eq!(EthHeader::parse(&bytes).unwrap(), (h, &b"payload"[..]));
        assert_eq!(EthHeader::parse(&bytes[..10]), Err(NetError::Malformed));
    }

    #[test]
    fn checksum_known_vector() {
        // Classic RFC 1071 example data.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(inet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        // An odd-length buffer checksums as if zero-padded to even length.
        assert_eq!(
            inet_checksum(&[0xFF, 0x00, 0xAB]),
            inet_checksum(&[0xFF, 0x00, 0xAB, 0x00])
        );
        // And a buffer with its own checksum appended re-sums to zero.
        let mut buf = vec![0xFFu8, 0x00, 0xAB, 0x00];
        let c = inet_checksum(&buf);
        buf.extend_from_slice(&c.to_be_bytes());
        assert_eq!(inet_checksum(&buf), 0);
    }

    #[test]
    fn ipv4_roundtrip_and_validation() {
        let h = Ipv4Header {
            src: A,
            dst: B,
            proto: IpProto::Other(17),
            ttl: 64,
        };
        let mut bytes = Vec::new();
        h.emit(4, &mut bytes);
        bytes.extend_from_slice(b"data");
        assert_eq!(Ipv4Header::parse(&bytes).unwrap(), (h, &b"data"[..]));

        // Corrupt a header byte: checksum must catch it.
        let mut bad = bytes.clone();
        bad[12] ^= 1;
        assert_eq!(Ipv4Header::parse(&bad), Err(NetError::BadChecksum));

        // Truncated.
        assert_eq!(Ipv4Header::parse(&bytes[..10]), Err(NetError::Malformed));

        // Wrong version.
        let mut bad = bytes.clone();
        bad[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&bad), Err(NetError::Malformed));
    }

    #[test]
    fn ipv4_total_len_cannot_exceed_buffer() {
        let h = Ipv4Header {
            src: A,
            dst: B,
            proto: IpProto::Tcp,
            ttl: 64,
        };
        let mut bytes = Vec::new();
        h.emit(3, &mut bytes);
        bytes.extend_from_slice(&[1, 2, 3]);
        // Forge a larger total_len and fix the checksum.
        bytes[2..4].copy_from_slice(&1000u16.to_be_bytes());
        bytes[10..12].copy_from_slice(&[0, 0]);
        let c = inet_checksum(&bytes[..IPV4_HDR_LEN]);
        bytes[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Ipv4Header::parse(&bytes), Err(NetError::Malformed));
    }

    #[test]
    fn tcp_roundtrip_and_checksum() {
        let s = TcpSegment {
            hdr: TcpHeader {
                src_port: 4000,
                dst_port: 80,
                seq: 0x11223344,
                ack: 0x55667788,
                flags: tcp_flags::ACK | tcp_flags::PSH,
                window: 8192,
            },
            payload: b"GET /".to_vec(),
        };
        let bytes = s.build(A, B);
        assert_eq!(TcpSegment::parse(A, B, &bytes).unwrap(), s);
        let mut bad = bytes.clone();
        bad[4] ^= 0xFF; // corrupt seq
        assert_eq!(TcpSegment::parse(A, B, &bad), Err(NetError::BadChecksum));
    }
}
