//! RFC 1071 internet checksum, shared by IPv4, TCP, UDP and ICMP.

/// One's-complement sum of a byte slice, folded to 16 bits but **not**
/// complemented. Odd-length slices are zero-padded, per RFC 1071.
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    fold(sum)
}

/// Fold a 32-bit accumulator into a 16-bit one's-complement value.
fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Combine partial one's-complement sums (e.g. pseudo-header + payload).
pub fn combine(sums: &[u16]) -> u16 {
    fold(sums.iter().map(|&s| u32::from(s)).sum())
}

/// The internet checksum of `data`: complement of the folded sum.
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// One's-complement sum of the IPv4 pseudo-header used by TCP/UDP.
pub fn pseudo_header_ipv4(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> u16 {
    combine(&[
        u16::from_be_bytes([src[0], src[1]]),
        u16::from_be_bytes([src[2], src[3]]),
        u16::from_be_bytes([dst[0], dst[1]]),
        u16::from_be_bytes([dst[2], dst[3]]),
        u16::from(proto),
        len,
    ])
}

/// Verify a buffer whose checksum field is already in place: the folded sum
/// over the whole buffer (including the checksum) must be 0xffff.
pub fn verify(data: &[u8]) -> bool {
    ones_complement_sum(data) == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(ones_complement_sum(&[0xab]), 0xab00);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(ones_complement_sum(&[]), 0);
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00, 10, 0, 0, 1,
            10, 0, 0, 2,
        ];
        let csum = checksum(&data);
        data[10..12].copy_from_slice(&csum.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 1;
        assert!(!verify(&data));
    }

    #[test]
    fn combine_matches_full_sum() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            combine(&[ones_complement_sum(&a), ones_complement_sum(&b)]),
            ones_complement_sum(&whole)
        );
    }

    #[test]
    fn pseudo_header_v4_known_value() {
        let s = pseudo_header_ipv4([192, 168, 0, 1], [192, 168, 0, 2], 17, 8);
        // Manually: c0a8 + 0001 + c0a8 + 0002 + 0011 + 0008 = 0x1_816c -> 0x816d
        assert_eq!(s, 0x816d);
    }
}
