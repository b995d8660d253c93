//! Cutting and coalescing at the guest↔host frame limit.
//!
//! A guest whose host runs a frame backend hands its device frames up to
//! a fixed, construction-time frame limit far above the wire's 1 514 B,
//! and takes frames of up to that limit from it: the in-TEE TCP sends one
//! segment per burst instead of one per MSS, and a burst crosses the ring
//! as one record. This module — host software, outside every TCB — is
//! the host's half of that bargain, and both frame backends (cio ring and
//! virtio) and the thread-per-queue workers run it:
//!
//! * [`cut`] puts a guest frame on the wire. A frame that fits the wire
//!   passes unchanged; an oversize TCP segment is cut at the wire MSS,
//!   every piece with its own IPv4 and TCP checksum, sequence numbers
//!   continuous, PSH and FIN on the last piece only.
//! * [`plan`] picks what the head of a queue of wire frames becomes on
//!   the guest side: one flow's in-order, checksum-valid data frames
//!   merged into one segment up to the guest's limit, or the head frame
//!   alone, untouched. [`Merge::write`] writes it.
//!
//! Nothing here is negotiated and nothing here is trusted. The payload is
//! cTLS ciphertext already, and the host sees every wire frame anyway —
//! the backends record each one. The guest parses, checksums and bounds a
//! merged segment like any other, so a dishonest merge (bytes that
//! overlap what it holds, or run past its window) is the guest TCP's to
//! refuse. An honest one never launders a checksum: a frame whose
//! checksum fails travels alone and unchanged, a merged checksum is built
//! from the sums of frames that each verified (RFC 1071 sums add, so no
//! byte is summed twice), and a guest segment whose own checksum fails is
//! dropped rather than cut into good ones.

use cio_netstack::wire::{
    fold_checksum, ones_sum, tcp_flags, ETH_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN,
};

/// Header bytes of a segment this module rewrites: Ethernet, IPv4 without
/// options, TCP without options.
const HDRS: usize = ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN;

/// Offsets of the IPv4 and TCP headers in a frame.
const IP: usize = ETH_HDR_LEN;
const TCP: usize = ETH_HDR_LEN + IPV4_HDR_LEN;

/// Most wire frames one segment is cut into: a 64 KiB IPv4 packet at an
/// MTU of 576, IPv4's minimum.
const MAX_PIECES: usize = 128;

/// A ones-complement sum folded to 16 bits (not complemented).
fn fold(sum: u64) -> u64 {
    u64::from(!fold_checksum(sum))
}

/// The TCP pseudo-header's sum for a `tcp_len`-byte segment in `frame`.
fn pseudo(frame: &[u8], tcp_len: usize) -> u64 {
    ones_sum(&frame[IP + 12..IP + 20]) + 6 + tcp_len as u64
}

/// Writes a TCP checksum into `hdrs` (whose checksum field is ignored)
/// for a `payload_len`-byte payload whose ones-complement sum is
/// `payload_sum`.
fn seal_tcp(hdrs: &mut [u8; HDRS], payload_len: usize, payload_sum: u64) {
    hdrs[TCP + 16..TCP + 18].fill(0);
    let sum = pseudo(&hdrs[..], TCP_HDR_LEN + payload_len) + ones_sum(&hdrs[TCP..]) + payload_sum;
    hdrs[TCP + 16..TCP + 18].copy_from_slice(&fold_checksum(sum).to_be_bytes());
}

/// Writes an IPv4 total length (for `payload_len` TCP payload bytes) and
/// header checksum into `hdrs`.
fn seal_ip(hdrs: &mut [u8; HDRS], payload_len: usize) {
    let total = (IPV4_HDR_LEN + TCP_HDR_LEN + payload_len) as u16;
    hdrs[IP + 2..IP + 4].copy_from_slice(&total.to_be_bytes());
    hdrs[IP + 10..IP + 12].fill(0);
    let csum = fold_checksum(ones_sum(&hdrs[IP..TCP]));
    hdrs[IP + 10..IP + 12].copy_from_slice(&csum.to_be_bytes());
}

/// The payload of `frame` if it is an option-free TCP segment in an
/// option-free, unfragmented IPv4 packet that fills the frame exactly.
fn tcp_payload(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < HDRS {
        return None;
    }
    let ip_len = usize::from(u16::from_be_bytes([frame[IP + 2], frame[IP + 3]]));
    let shaped = frame[12..14] == [0x08, 0x00]
        && frame[IP] == 0x45
        && u16::from_be_bytes([frame[IP + 6], frame[IP + 7]]) & 0x3FFF == 0
        && frame[IP + 9] == 6
        && ip_len == frame.len() - ETH_HDR_LEN
        && frame[TCP + 12] >> 4 == 5;
    shaped.then(|| &frame[HDRS..])
}

/// Whether `frame`'s IPv4 header checksum verifies.
fn ip_valid(frame: &[u8]) -> bool {
    fold_checksum(ones_sum(&frame[IP..TCP])) == 0
}

/// Puts one guest frame on a wire of `mtu` IP bytes per frame: `emit` is
/// called once per wire frame with a builder that appends that frame to
/// an empty buffer. Returns how many wire frames that was.
///
/// A frame that fits the wire passes unchanged. An oversize one is cut at
/// the wire MSS (`mtu` less the IPv4 and TCP headers) only if it is an
/// option-free TCP segment without SYN or RST whose IPv4 and TCP
/// checksums verify; anything else oversize is dropped (0), like an
/// over-MTU frame on a NIC.
pub fn cut(frame: &[u8], mtu: usize, mut emit: impl FnMut(&mut dyn FnMut(&mut Vec<u8>))) -> usize {
    if frame.len() <= ETH_HDR_LEN + mtu {
        emit(&mut |out| out.extend_from_slice(frame));
        return 1;
    }
    let mss = mtu.saturating_sub(IPV4_HDR_LEN + TCP_HDR_LEN).max(2) & !1;
    let Some(payload) = tcp_payload(frame) else {
        return 0;
    };
    let flags = frame[TCP + 13];
    let pieces = payload.chunks(mss);
    let n = pieces.len();
    if flags & (tcp_flags::SYN | tcp_flags::RST) != 0 || n > MAX_PIECES || !ip_valid(frame) {
        return 0;
    }
    // Every piece but the last is `mss` (even) bytes long, so each piece's
    // sum adds into the whole segment's at an even offset.
    let mut sums = [0u64; MAX_PIECES];
    for (sum, piece) in sums.iter_mut().zip(pieces.clone()) {
        *sum = ones_sum(piece);
    }
    let whole = pseudo(frame, frame.len() - TCP) + ones_sum(&frame[TCP..HDRS]);
    if fold_checksum(whole + sums[..n].iter().sum::<u64>()) != 0 {
        return 0;
    }
    let seq = u32::from_be_bytes([
        frame[TCP + 4],
        frame[TCP + 5],
        frame[TCP + 6],
        frame[TCP + 7],
    ]);
    for (i, piece) in pieces.enumerate() {
        let mut hdrs: [u8; HDRS] = frame[..HDRS].try_into().expect("HDRS bytes");
        let piece_seq = seq.wrapping_add((i * mss) as u32);
        hdrs[TCP + 4..TCP + 8].copy_from_slice(&piece_seq.to_be_bytes());
        if i + 1 < n {
            hdrs[TCP + 13] = flags & !(tcp_flags::PSH | tcp_flags::FIN);
        }
        seal_ip(&mut hdrs, piece.len());
        seal_tcp(&mut hdrs, piece.len(), sums[i]);
        emit(&mut |out| {
            out.extend_from_slice(&hdrs);
            out.extend_from_slice(piece);
        });
    }
    n
}

/// A data segment a merge may take: its payload and sequence number.
struct Data<'a> {
    frame: &'a [u8],
    payload: &'a [u8],
    seq: u32,
}

impl Data<'_> {
    /// The payload's ones-complement sum, if the frame's IPv4 and TCP
    /// checksums verify.
    fn verified_sum(&self) -> Option<u64> {
        let frame = self.frame;
        let sum = ones_sum(self.payload);
        let whole = pseudo(frame, frame.len() - TCP) + ones_sum(&frame[TCP..HDRS]) + sum;
        (ip_valid(frame) && fold_checksum(whole) == 0).then_some(sum)
    }
}

/// `frame` as a data segment a merge may take, checksums aside:
/// option-free TCP in option-free IPv4, flags within ACK|PSH with ACK
/// set, and a non-empty payload.
fn data(frame: &[u8]) -> Option<Data<'_>> {
    let payload = tcp_payload(frame)?;
    let flags = frame[TCP + 13];
    if payload.is_empty()
        || flags & tcp_flags::ACK == 0
        || flags & !(tcp_flags::ACK | tcp_flags::PSH) != 0
    {
        return None;
    }
    let seq = u32::from_be_bytes([
        frame[TCP + 4],
        frame[TCP + 5],
        frame[TCP + 6],
        frame[TCP + 7],
    ]);
    Some(Data {
        frame,
        payload,
        seq,
    })
}

/// Whether `b` may follow `a` in one merged segment: same link and IP
/// header (length, id and checksum aside), same ports, same ACK.
fn same_flow(a: &[u8], b: &[u8]) -> bool {
    a[..IP + 2] == b[..IP + 2]
        && a[IP + 6..IP + 10] == b[IP + 6..IP + 10]
        && a[IP + 12..TCP + 4] == b[IP + 12..TCP + 4]
        && a[TCP + 8..TCP + 12] == b[TCP + 8..TCP + 12]
}

/// What the head of a queue of wire frames becomes on the guest side
/// (see [`plan`]).
#[derive(Debug, Clone)]
pub struct Merge {
    frames: usize,
    len: usize,
    /// The merged segment's headers; unused for a lone frame.
    hdrs: [u8; HDRS],
}

impl Merge {
    /// Wire frames this record carries.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Bytes of the frame the guest gets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frame is empty (never, for a planned merge).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the frame into `out` (exactly [`len`](Self::len) bytes)
    /// from the same frames, in the same order, that [`plan`] saw.
    pub fn write<'a>(&self, mut frames: impl Iterator<Item = &'a [u8]>, out: &mut [u8]) {
        if self.frames == 1 {
            out.copy_from_slice(frames.next().expect("planned frame"));
            return;
        }
        out[..HDRS].copy_from_slice(&self.hdrs);
        let mut at = HDRS;
        for frame in frames.take(self.frames) {
            let payload = &frame[HDRS..];
            out[at..at + payload.len()].copy_from_slice(payload);
            at += payload.len();
        }
        debug_assert_eq!(at, self.len);
    }
}

/// Plans the record at the head of `frames` for a guest that takes
/// frames of at most `limit` bytes: the head frame and the data frames
/// that follow it in order on its flow, merged, or the head frame alone
/// when it is no data segment, fails a checksum, or nothing follows it.
/// `None` when `frames` is empty.
///
/// A merge never spans flows or acknowledgements, never takes a frame
/// carrying SYN, FIN or RST or no payload, and never takes a frame whose
/// checksum fails; the merged TCP checksum is built from the frames'
/// payload sums. The merged header is the head's, with the last frame's
/// window and the union of the flags (ACK, PSH).
pub fn plan<'a>(mut frames: impl Iterator<Item = &'a [u8]>, limit: usize) -> Option<Merge> {
    let head = frames.next()?;
    let alone = Merge {
        frames: 1,
        len: head.len(),
        hdrs: [0; HDRS],
    };
    let Some(first) = data(head) else {
        return Some(alone);
    };
    let (mut count, mut len) = (1, head.len());
    let mut next = first.seq.wrapping_add(first.payload.len() as u32);
    let (mut flags, mut window) = (head[TCP + 13], [head[TCP + 14], head[TCP + 15]]);
    // The merged payload's sum, once a second frame joins: checksums are
    // verified only for frames that would merge, so a lone frame travels
    // as it came, unsummed.
    let mut merged: Option<u64> = None;
    for frame in frames {
        let Some(d) = data(frame) else {
            break;
        };
        if d.seq != next || !same_flow(head, d.frame) || len + d.payload.len() > limit {
            break;
        }
        let Some(sum) = merged.or_else(|| first.verified_sum()) else {
            return Some(alone);
        };
        let Some(d_sum) = d.verified_sum() else {
            break;
        };
        // A sum taken at an odd offset into the merged payload adds in
        // byte-swapped (RFC 1071 §2(B)).
        let odd = (len - HDRS) % 2 == 1;
        merged = Some(if odd {
            sum + u64::from((fold(d_sum) as u16).swap_bytes())
        } else {
            sum + d_sum
        });
        len += d.payload.len();
        next = next.wrapping_add(d.payload.len() as u32);
        flags |= d.frame[TCP + 13];
        window = [d.frame[TCP + 14], d.frame[TCP + 15]];
        count += 1;
    }
    let Some(sum) = merged else {
        return Some(alone);
    };
    let mut hdrs: [u8; HDRS] = head[..HDRS].try_into().expect("HDRS bytes");
    hdrs[TCP + 13] = flags;
    hdrs[TCP + 14..TCP + 16].copy_from_slice(&window);
    seal_ip(&mut hdrs, len - HDRS);
    seal_tcp(&mut hdrs, len - HDRS, sum);
    Some(Merge {
        frames: count,
        len,
        hdrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cio_netstack::wire::{EthHeader, EtherType, IpProto, Ipv4Header, TcpHeader};
    use cio_netstack::{Ipv4Addr, MacAddr};

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const WIRE: usize = 1500;
    const MSS: usize = WIRE - IPV4_HDR_LEN - TCP_HDR_LEN;

    /// A TCP segment from `src`'s port `sport` to `dst`, as the stack
    /// builds one.
    fn segment(src: Ipv4Addr, sport: u16, seq: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
        let dst = if src == A { B } else { A };
        let mut out = Vec::new();
        EthHeader {
            dst: MacAddr([2; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut out);
        Ipv4Header {
            src,
            dst,
            proto: IpProto::Tcp,
            ttl: 64,
        }
        .emit(TCP_HDR_LEN + payload.len(), &mut out);
        TcpHeader {
            src_port: sport,
            dst_port: 80,
            seq,
            ack: 7,
            flags,
            window: 4096,
        }
        .emit(src, dst, (payload, &[]), &mut out);
        out
    }

    fn data(seq: u32, payload: &[u8]) -> Vec<u8> {
        segment(A, 40_000, seq, tcp_flags::ACK | tcp_flags::PSH, payload)
    }

    /// The header and payload `frame` parses to, checksums verified the
    /// way the guest stack verifies them.
    fn parse(frame: &[u8]) -> (TcpHeader, Vec<u8>) {
        let (_, l3) = EthHeader::parse(frame).expect("ethernet");
        let (ip, l4) = Ipv4Header::parse(l3).expect("ipv4 checksum");
        let (hdr, payload) = TcpHeader::parse(ip.src, ip.dst, l4).expect("tcp checksum");
        (hdr, payload.to_vec())
    }

    fn cut_all(frame: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let n = cut(frame, WIRE, |build| {
            let mut buf = Vec::new();
            build(&mut buf);
            out.push(buf);
        });
        assert_eq!(n, out.len());
        out
    }

    fn merged(frames: &[Vec<u8>], limit: usize) -> Option<(Merge, Vec<u8>)> {
        let m = plan(frames.iter().map(Vec::as_slice), limit)?;
        let mut out = vec![0; m.len()];
        m.write(frames.iter().map(Vec::as_slice), &mut out);
        Some((m, out))
    }

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn a_wire_size_frame_passes_unchanged() {
        let frame = data(100, &bytes(MSS));
        assert_eq!(cut_all(&frame), [frame]);
        assert_eq!(
            cut_all(b"not even ethernet"),
            [b"not even ethernet".to_vec()]
        );
    }

    #[test]
    fn an_oversize_segment_is_cut_into_valid_continuous_wire_frames() {
        let payload = bytes(16 * 1024 + 21);
        let flags = tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN;
        let pieces = cut_all(&segment(A, 40_000, u32::MAX - 3000, flags, &payload));
        assert_eq!(pieces.len(), payload.len().div_ceil(MSS));
        let mut seq = u32::MAX - 3000;
        let mut joined = Vec::new();
        for (i, frame) in pieces.iter().enumerate() {
            assert!(frame.len() <= ETH_HDR_LEN + WIRE);
            let (hdr, piece) = parse(frame);
            assert_eq!(hdr.seq, seq, "sequence numbers continue across pieces");
            let last = i + 1 == pieces.len();
            let push_fin = tcp_flags::PSH | tcp_flags::FIN;
            assert_eq!(
                hdr.flags & push_fin != 0,
                last,
                "PSH and FIN on the last only"
            );
            assert_eq!(hdr.flags & tcp_flags::ACK, tcp_flags::ACK);
            assert_eq!((hdr.ack, hdr.window), (7, 4096));
            seq = seq.wrapping_add(piece.len() as u32);
            joined.extend_from_slice(&piece);
        }
        assert_eq!(joined, payload);
    }

    #[test]
    fn an_oversize_frame_that_cannot_be_cut_is_dropped() {
        let big = bytes(8 * 1024);
        // A bad guest checksum is never cut into good ones.
        let mut bad = data(1, &big);
        *bad.last_mut().unwrap() ^= 1;
        assert!(cut_all(&bad).is_empty());
        // Neither SYN nor RST is cut, nor anything that is not TCP.
        assert!(cut_all(&segment(A, 1, 1, tcp_flags::SYN, &big)).is_empty());
        assert!(cut_all(&segment(A, 1, 1, tcp_flags::RST, &big)).is_empty());
        let mut udp = data(1, &big);
        udp[ETH_HDR_LEN + 9] = 17;
        assert!(cut_all(&udp).is_empty());
    }

    #[test]
    fn a_flows_in_order_data_frames_coalesce_into_one_valid_segment() {
        let payload = bytes(5 * MSS + 333);
        let frames = cut_all(&data(500, &payload));
        let (m, out) = merged(&frames, 32 * 1024).unwrap();
        assert_eq!(m.frames(), frames.len());
        let (hdr, got) = parse(&out);
        assert_eq!((hdr.seq, hdr.ack, hdr.window), (500, 7, 4096));
        assert_eq!(hdr.flags, tcp_flags::ACK | tcp_flags::PSH);
        assert_eq!(got, payload);
    }

    #[test]
    fn odd_length_frames_coalesce_with_a_valid_checksum() {
        let (a, b, c) = (bytes(333), bytes(77), bytes(1001));
        let frames = [data(10, &a), data(10 + 333, &b), data(10 + 333 + 77, &c)];
        let (m, out) = merged(&frames, 32 * 1024).unwrap();
        assert_eq!(m.frames(), 3);
        assert_eq!(parse(&out).1, [a, b, c].concat());
    }

    #[test]
    fn coalescing_stops_at_the_limit_and_the_flow() {
        let frames = cut_all(&data(0, &bytes(4 * MSS)));
        let limit = HDRS + 2 * MSS + 10;
        assert_eq!(merged(&frames, limit).unwrap().0.frames(), 2);
        // Another flow (here: another source port) is never merged in.
        let mut mixed = frames[..2].to_vec();
        mixed.push(segment(
            A,
            40_001,
            2 * MSS as u32,
            tcp_flags::ACK,
            &bytes(10),
        ));
        assert_eq!(merged(&mixed, 1 << 16).unwrap().0.frames(), 2);
        // Nor is a frame out of order, or one acknowledging other data.
        let mut gap = frames.clone();
        gap.remove(1);
        assert_eq!(merged(&gap, 1 << 16).unwrap().0.frames(), 1);
        let mut acked = frames.clone();
        acked[1][ETH_HDR_LEN + IPV4_HDR_LEN + 11] ^= 1;
        assert_eq!(merged(&acked, 1 << 16).unwrap().0.frames(), 1);
    }

    #[test]
    fn control_frames_and_pure_acks_travel_alone() {
        let next = |seq| data(seq, &bytes(100));
        for flags in [
            tcp_flags::SYN | tcp_flags::ACK,
            tcp_flags::FIN | tcp_flags::ACK,
            tcp_flags::RST,
        ] {
            let frames = [segment(A, 40_000, 0, flags, &bytes(100)), next(100)];
            let (m, out) = merged(&frames, 1 << 16).unwrap();
            assert_eq!(
                (m.frames(), out),
                (1, frames[0].clone()),
                "flags {flags:#x}"
            );
            // ... and are not merged onto a data frame either.
            let frames = [next(0), segment(A, 40_000, 100, flags, &bytes(100))];
            assert_eq!(merged(&frames, 1 << 16).unwrap().0.frames(), 1);
        }
        let pure_ack = segment(A, 40_000, 0, tcp_flags::ACK, &[]);
        let frames = [pure_ack.clone(), pure_ack.clone()];
        assert_eq!(merged(&frames, 1 << 16).unwrap().1, pure_ack);
        assert!(plan(std::iter::empty(), 1 << 16).is_none());
    }

    #[test]
    fn a_bad_checksum_travels_alone_and_stays_bad() {
        let mut frames = cut_all(&data(0, &bytes(3 * MSS)));
        frames[1][HDRS + 5] ^= 0x40;
        let (m, out) = merged(&frames, 1 << 16).unwrap();
        assert_eq!(m.frames(), 1, "the merge stops before the bad frame");
        assert_eq!(out, frames[0]);
        let rest = &frames[1..];
        let (m, out) = merged(rest, 1 << 16).unwrap();
        assert_eq!(
            (m.frames(), &out),
            (1, &frames[1]),
            "forwarded alone, unchanged"
        );
        let (_, l3) = EthHeader::parse(&out).unwrap();
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        assert!(TcpHeader::parse(ip.src, ip.dst, l4).is_err(), "still bad");
        // A bad head never starts a merge.
        assert_eq!(merged(&frames[1..], 1 << 16).unwrap().0.frames(), 1);
    }
}
