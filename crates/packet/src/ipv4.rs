//! IPv4 packets.

use crate::checksum;
use crate::{ParseError, Result};

/// IP protocol numbers the datapath recognizes.
pub mod protocol {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
    pub const GRE: u8 = 47;
}

mod field {
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const TOTAL_LEN: core::ops::Range<usize> = 2..4;
    pub const IDENT: core::ops::Range<usize> = 4..6;
    pub const FLAGS_FRAG: core::ops::Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: core::ops::Range<usize> = 10..12;
    pub const SRC: core::ops::Range<usize> = 12..16;
    pub const DST: core::ops::Range<usize> = 16..20;
}

/// Minimum (and, without options, actual) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// A typed view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer, validating version, header length, and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let packet = Self { buffer };
        if packet.version() != 4 {
            return Err(ParseError::Unsupported);
        }
        let header_len = packet.header_len();
        if header_len < HEADER_LEN || header_len > len {
            return Err(ParseError::BadLength);
        }
        let total = packet.total_len() as usize;
        if total < header_len || total > len {
            return Err(ParseError::BadLength);
        }
        Ok(packet)
    }

    /// Wrap without validation (for buffers produced by this crate).
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL * 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Type-of-service / DSCP+ECN byte.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[field::TOS]
    }

    /// Total packet length (header + payload) from the header field.
    pub fn total_len(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::TOTAL_LEN];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::IDENT];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Don't-fragment flag.
    pub fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG.start] & 0x40 != 0
    }

    /// More-fragments flag.
    pub fn more_frags(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG.start] & 0x20 != 0
    }

    /// Fragment offset in 8-byte units.
    pub fn frag_offset(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::FLAGS_FRAG];
        u16::from_be_bytes([b[0], b[1]]) & 0x1fff
    }

    /// True if this packet is any fragment (offset != 0 or MF set).
    pub fn is_fragment(&self) -> bool {
        self.more_frags() || self.frag_offset() != 0
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Payload protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[field::PROTOCOL]
    }

    /// Source address.
    pub fn src(&self) -> [u8; 4] {
        self.buffer.as_ref()[field::SRC].try_into().unwrap()
    }

    /// Destination address.
    pub fn dst(&self) -> [u8; 4] {
        self.buffer.as_ref()[field::DST].try_into().unwrap()
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..self.header_len()])
    }

    /// Payload bytes (between header and `total_len`).
    pub fn payload(&self) -> &[u8] {
        let start = self.header_len();
        let end = self.total_len() as usize;
        &self.buffer.as_ref()[start..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version to 4 and header length (bytes; must be a multiple of 4).
    pub fn set_ver_ihl(&mut self, header_len: usize) {
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | ((header_len / 4) as u8 & 0x0f);
    }

    /// Set the TOS byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[field::TOS] = tos;
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::TOTAL_LEN].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&id.to_be_bytes());
    }

    /// Set flags and fragment offset: DF, MF, offset in 8-byte units.
    pub fn set_frag(&mut self, dont_frag: bool, more_frags: bool, offset: u16) {
        let mut v = offset & 0x1fff;
        if dont_frag {
            v |= 0x4000;
        }
        if more_frags {
            v |= 0x2000;
        }
        self.buffer.as_mut()[field::FLAGS_FRAG].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Decrement TTL, returning the new value.
    pub fn dec_ttl(&mut self) -> u8 {
        let ttl = self.ttl().saturating_sub(1);
        self.set_ttl(ttl);
        ttl
    }

    /// Set the protocol number.
    pub fn set_protocol(&mut self, proto: u8) {
        self.buffer.as_mut()[field::PROTOCOL] = proto;
    }

    /// Set the source address.
    pub fn set_src(&mut self, a: [u8; 4]) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&a);
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, a: [u8; 4]) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&a);
    }

    /// Write the checksum field explicitly (e.g. 0 for offload).
    pub fn set_header_checksum(&mut self, csum: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&csum.to_be_bytes());
    }

    /// Compute and fill the header checksum.
    pub fn fill_checksum(&mut self) {
        self.set_header_checksum(0);
        let hlen = self.header_len();
        let csum = checksum::checksum(&self.buffer.as_ref()[..hlen]);
        self.set_header_checksum(csum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = self.header_len();
        let end = self.total_len() as usize;
        &mut self.buffer.as_mut()[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload_len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload_len];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.set_ver_ihl(HEADER_LEN);
        p.set_total_len((HEADER_LEN + payload_len) as u16);
        p.set_ttl(64);
        p.set_protocol(protocol::UDP);
        p.set_src([10, 0, 0, 1]);
        p.set_dst([10, 0, 0, 2]);
        p.set_frag(true, false, 0);
        p.fill_checksum();
        buf
    }

    #[test]
    fn roundtrip_and_checksum() {
        let buf = sample(8);
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 28);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.protocol(), protocol::UDP);
        assert_eq!(p.src(), [10, 0, 0, 1]);
        assert_eq!(p.dst(), [10, 0, 0, 2]);
        assert!(p.dont_frag());
        assert!(!p.is_fragment());
        assert!(p.verify_checksum());
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut buf = sample(0);
        buf[8] = 13; // change TTL without refreshing checksum
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = sample(0);
        buf[0] = 0x60;
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            ParseError::Unsupported
        );
    }

    #[test]
    fn rejects_bad_total_len() {
        let mut buf = sample(0);
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            ParseError::BadLength
        );
    }

    #[test]
    fn rejects_short_ihl() {
        let mut buf = sample(0);
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            ParseError::BadLength
        );
    }

    #[test]
    fn fragment_fields() {
        let mut buf = sample(0);
        {
            let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
            p.set_frag(false, true, 185);
        }
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(p.more_frags());
        assert!(!p.dont_frag());
        assert_eq!(p.frag_offset(), 185);
        assert!(p.is_fragment());
    }

    #[test]
    fn dec_ttl() {
        let mut buf = sample(0);
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        assert_eq!(p.dec_ttl(), 63);
        assert_eq!(p.ttl(), 63);
    }

    #[test]
    fn payload_respects_total_len() {
        let mut buf = sample(8);
        buf.extend_from_slice(&[0xff; 4]); // trailing bytes beyond total_len
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload().len(), 8);
    }
}
