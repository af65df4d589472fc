//! TCP segments.

use crate::checksum;
use crate::{ParseError, Result};

/// TCP flag bits, as found in byte 13 of the header.
pub mod flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
    pub const URG: u8 = 0x20;
}

mod field {
    pub const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub const DST_PORT: core::ops::Range<usize> = 2..4;
    pub const SEQ: core::ops::Range<usize> = 4..8;
    pub const ACK: core::ops::Range<usize> = 8..12;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: core::ops::Range<usize> = 14..16;
    pub const CHECKSUM: core::ops::Range<usize> = 16..18;
}

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// A typed view over a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap a buffer, validating lengths.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let s = Self { buffer };
        let hl = s.header_len();
        if hl < HEADER_LEN || hl > len {
            return Err(ParseError::BadLength);
        }
        Ok(s)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::SRC_PORT];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::DST_PORT];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        let b = &self.buffer.as_ref()[field::SEQ];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        let b = &self.buffer.as_ref()[field::ACK];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Header length in bytes (data offset * 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    /// Flag byte (see [`flags`]).
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[field::FLAGS]
    }

    /// True if a given flag bit is set.
    pub fn has_flag(&self, flag: u8) -> bool {
        self.flags() & flag != 0
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::WINDOW];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::CHECKSUM];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Payload bytes after the header (and any options).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the checksum over an IPv4 pseudo-header.
    pub fn verify_checksum_ipv4(&self, src: [u8; 4], dst: [u8; 4]) -> bool {
        let data = self.buffer.as_ref();
        let pseudo =
            checksum::pseudo_header_ipv4(src, dst, crate::ipv4::protocol::TCP, data.len() as u16);
        checksum::combine(&[pseudo, checksum::ones_complement_sum(data)]) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, p: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, v: u32) {
        self.buffer.as_mut()[field::SEQ].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the acknowledgment number.
    pub fn set_ack(&mut self, v: u32) {
        self.buffer.as_mut()[field::ACK].copy_from_slice(&v.to_be_bytes());
    }

    /// Set header length in bytes (multiple of 4).
    pub fn set_header_len(&mut self, bytes: usize) {
        self.buffer.as_mut()[field::DATA_OFF] = ((bytes / 4) as u8) << 4;
    }

    /// Set the flag byte.
    pub fn set_flags(&mut self, f: u8) {
        self.buffer.as_mut()[field::FLAGS] = f;
    }

    /// Set the receive window.
    pub fn set_window(&mut self, w: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&w.to_be_bytes());
    }

    /// Write the checksum field.
    pub fn set_checksum(&mut self, c: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }

    /// Compute and fill the checksum over an IPv4 pseudo-header.
    pub fn fill_checksum_ipv4(&mut self, src: [u8; 4], dst: [u8; 4]) {
        self.set_checksum(0);
        let data = self.buffer.as_ref();
        let pseudo =
            checksum::pseudo_header_ipv4(src, dst, crate::ipv4::protocol::TCP, data.len() as u16);
        let csum = !checksum::combine(&[pseudo, checksum::ones_complement_sum(data)]);
        self.set_checksum(csum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        &mut self.buffer.as_mut()[hl..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + 4];
        let mut s = TcpSegment::new_unchecked(&mut buf[..]);
        s.set_src_port(45000);
        s.set_dst_port(80);
        s.set_seq(0x01020304);
        s.set_ack(0x0a0b0c0d);
        s.set_header_len(HEADER_LEN);
        s.set_flags(flags::SYN | flags::ACK);
        s.set_window(65535);
        s.payload_mut().copy_from_slice(b"data");
        s.fill_checksum_ipv4([192, 168, 1, 1], [192, 168, 1, 2]);
        buf
    }

    #[test]
    fn roundtrip_and_checksum() {
        let buf = sample();
        let s = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(s.src_port(), 45000);
        assert_eq!(s.dst_port(), 80);
        assert_eq!(s.seq(), 0x01020304);
        assert_eq!(s.ack(), 0x0a0b0c0d);
        assert!(s.has_flag(flags::SYN));
        assert!(s.has_flag(flags::ACK));
        assert!(!s.has_flag(flags::FIN));
        assert_eq!(s.window(), 65535);
        assert_eq!(s.payload(), b"data");
        assert!(s.verify_checksum_ipv4([192, 168, 1, 1], [192, 168, 1, 2]));
        assert!(!s.verify_checksum_ipv4([192, 168, 1, 1], [192, 168, 1, 9]));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = sample();
        buf[12] = 2 << 4; // 8-byte header < minimum
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            ParseError::BadLength
        );
    }

    #[test]
    fn truncated() {
        assert_eq!(
            TcpSegment::new_checked(&[0u8; 19][..]).unwrap_err(),
            ParseError::Truncated
        );
    }
}
