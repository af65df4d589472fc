//! Geneve encapsulation headers (RFC 8926).
//!
//! Geneve is the tunnel protocol NSX programs into OVS (§4, Table 3: 291
//! Geneve tunnels). A Geneve packet is UDP (destination port 6081) whose
//! payload is this header followed by an inner Ethernet frame.

use crate::{ParseError, Result};

/// The IANA UDP destination port for Geneve.
pub const UDP_PORT: u16 = 6081;

/// Protocol type for an Ethernet payload (Trans-Ether bridging).
pub const PROTO_ETHERNET: u16 = 0x6558;

/// Fixed Geneve header length (without options).
pub const HEADER_LEN: usize = 8;

mod field {
    pub const VER_OPTLEN: usize = 0;
    pub const FLAGS: usize = 1;
    pub const PROTO: core::ops::Range<usize> = 2..4;
    pub const VNI: core::ops::Range<usize> = 4..7;
    pub const RESERVED: usize = 7;
}

/// A typed view over a Geneve header plus payload.
#[derive(Debug, Clone)]
pub struct GenevePacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> GenevePacket<T> {
    /// Wrap a buffer, validating version and option length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let p = Self { buffer };
        if p.version() != 0 {
            return Err(ParseError::Unsupported);
        }
        if HEADER_LEN + p.options_len() > len {
            return Err(ParseError::BadLength);
        }
        Ok(p)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Geneve version (must be 0).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_OPTLEN] >> 6
    }

    /// Length of the variable options area, bytes.
    pub fn options_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_OPTLEN] & 0x3f) * 4
    }

    /// OAM ("O") bit: control packet.
    pub fn oam(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS] & 0x80 != 0
    }

    /// Critical-options ("C") bit.
    pub fn critical(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS] & 0x40 != 0
    }

    /// Encapsulated protocol type.
    pub fn protocol(&self) -> u16 {
        let b = &self.buffer.as_ref()[field::PROTO];
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Virtual network identifier (24 bits).
    pub fn vni(&self) -> u32 {
        let b = &self.buffer.as_ref()[field::VNI];
        u32::from_be_bytes([0, b[0], b[1], b[2]])
    }

    /// Raw options bytes.
    pub fn options(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + self.options_len()]
    }

    /// Inner payload after the options.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN + self.options_len()..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> GenevePacket<T> {
    /// Initialize version 0 with `options_len` bytes of options (multiple
    /// of 4).
    pub fn init(&mut self, options_len: usize) {
        self.buffer.as_mut()[field::VER_OPTLEN] = ((options_len / 4) as u8) & 0x3f;
        self.buffer.as_mut()[field::FLAGS] = 0;
        self.buffer.as_mut()[field::RESERVED] = 0;
    }

    /// Set the encapsulated protocol type.
    pub fn set_protocol(&mut self, p: u16) {
        self.buffer.as_mut()[field::PROTO].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the VNI (24 bits; the top byte of `vni` must be zero).
    pub fn set_vni(&mut self, vni: u32) {
        debug_assert!(vni <= 0x00ff_ffff);
        let b = vni.to_be_bytes();
        self.buffer.as_mut()[field::VNI].copy_from_slice(&b[1..4]);
    }

    /// Mutable payload after options.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = HEADER_LEN + self.options_len();
        &mut self.buffer.as_mut()[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; HEADER_LEN + 4 + 10];
        let mut p = GenevePacket::new_unchecked(&mut buf[..]);
        p.init(4);
        p.set_protocol(PROTO_ETHERNET);
        p.set_vni(0x00abcdef);
        let p = GenevePacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 0);
        assert_eq!(p.options_len(), 4);
        assert_eq!(p.protocol(), PROTO_ETHERNET);
        assert_eq!(p.vni(), 0x00abcdef);
        assert_eq!(p.payload().len(), 10);
        assert!(!p.oam());
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x40;
        assert_eq!(
            GenevePacket::new_checked(&buf[..]).unwrap_err(),
            ParseError::Unsupported
        );
    }

    #[test]
    fn rejects_options_beyond_buffer() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x02; // 8 bytes of options, none present
        assert_eq!(
            GenevePacket::new_checked(&buf[..]).unwrap_err(),
            ParseError::BadLength
        );
    }

    #[test]
    fn truncated() {
        assert_eq!(
            GenevePacket::new_checked(&[0u8; 7][..]).unwrap_err(),
            ParseError::Truncated
        );
    }
}
