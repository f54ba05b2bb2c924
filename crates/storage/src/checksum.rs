//! CRC-32 (IEEE 802.3 polynomial) for page trailers, and CRC-32C
//! (Castagnoli) for segment blocks.
//!
//! Every physical page of an `XKSTORE2` file ends in an 8-byte trailer:
//! a little-endian CRC-32 of the page payload followed by four reserved
//! zero bytes. The tables are built at compile time and the hot loop uses
//! slicing-by-8 — eight independent table lookups per 8 input bytes
//! instead of one serial lookup per byte — because verification sits on
//! every cold-cache page read. The crate stays dependency-free.
//!
//! [`crc32c`] checksums every block of an XKSEG2 segment blob, where a
//! probe's block load is the query's unit of work: on x86-64 with SSE4.2
//! it runs the `crc32` instruction over 8-byte words (~0.6 µs per 4 KiB
//! block against ~3.5 µs for the IEEE table loop), elsewhere the same
//! slicing-by-8 loop over Castagnoli tables.

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const IEEE: u32 = 0xEDB8_8320;
/// Reflected CRC-32C (Castagnoli) polynomial.
const CASTAGNOLI: u32 = 0x82F6_3B78;

const fn build_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[n][b] = CRC of byte b followed by n zero bytes, so the eight
    // lookups of one 8-byte chunk can be combined with plain XOR.
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables(IEEE);
static CRC32C_TABLES: [[u32; 256]; 8] = build_tables(CASTAGNOLI);

/// Bytes of the per-page trailer: a little-endian CRC-32 of the payload
/// followed by four reserved zero bytes. Shared by the `XKSTORE2` data
/// format and the write-ahead log.
pub const TRAILER: usize = 8;

/// Recomputes and stores the CRC trailer of a physical page buffer
/// (`page.len()` must exceed [`TRAILER`]).
// xk-analyze: allow(panic_path, reason = "trailer offsets are derived from the fixed page size")
pub fn stamp_trailer(page: &mut [u8]) {
    let payload_end = page.len() - TRAILER;
    let crc = crc32(&page[..payload_end]);
    page[payload_end..payload_end + 4].copy_from_slice(&crc.to_le_bytes());
    page[payload_end + 4..].fill(0);
}

/// Checks the CRC trailer of a physical page buffer. `Ok(())` on a match
/// or on an all-zero page (the state of a grown-but-never-written page —
/// a real CRC-32 of a zero payload is nonzero, so the exemption cannot
/// mask a corrupted written page); otherwise `Err((stored, computed))`.
// xk-analyze: allow(panic_path, reason = "trailer offsets are derived from the fixed page size")
pub fn verify_trailer(page: &[u8]) -> std::result::Result<(), (u32, u32)> {
    let payload_end = page.len() - TRAILER;
    let stored = u32::from_le_bytes(
        page[payload_end..payload_end + 4].try_into().expect("4-byte slice of the page trailer"),
    );
    let computed = crc32(&page[..payload_end]);
    if stored == computed {
        return Ok(());
    }
    if stored == 0 && page.iter().all(|&b| b == 0) {
        return Ok(());
    }
    Err((stored, computed))
}

/// CRC-32 of `data` (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    !sliced(&CRC_TABLES, !0, data)
}

/// CRC-32C of `data` (Castagnoli polynomial, reflected, init/xorout
/// `!0`): the SSE4.2 instruction when the CPU has it, the table loop
/// otherwise.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` only requires SSE4.2, detected just above.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// The portable CRC-32C: slicing-by-8 over the Castagnoli tables.
fn crc32c_table(data: &[u8]) -> u32 {
    !sliced(&CRC32C_TABLES, !0, data)
}

/// CRC-32C with the SSE4.2 `crc32` instruction, 8 bytes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
// SAFETY: callers must run on a CPU with SSE4.2; `crc32c` checks it first.
unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u64;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().unwrap_or_default()));
    }
    let mut crc = crc as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    !crc
}

/// The raw (un-inverted) slicing-by-8 CRC update of `crc` over `data`.
// xk-analyze: allow(panic_path, reason = "table indices are masked to 8 bits")
fn sliced(tables: &[[u32; 256]; 8], mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = vec![0xA5u8; 512];
        let reference = crc32(&base);
        for byte in [0usize, 17, 255, 511] {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn sliced_loop_matches_bytewise_reference() {
        let bytewise = |data: &[u8]| {
            let mut crc = !0u32;
            for &b in data {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..1029u32).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 65, 511, 512, 1029] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn crc32c_known_vectors() {
        // The standard check value for CRC-32C (iSCSI), on both paths.
        for f in [crc32c, crc32c_table] {
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"123456789"), 0xE306_9283);
            assert_eq!(f(&[0u8; 32]), 0x8A91_36AA);
        }
        assert_ne!(crc32c(b"123456789"), crc32(b"123456789"));
    }

    #[test]
    fn crc32c_hardware_path_equals_the_table_path() {
        // Every length 0..=9000 at start offsets 0..=7, so both the word
        // loop and the byte tail meet every alignment. On a CPU without
        // SSE4.2 both sides are the table path.
        let data: Vec<u8> =
            (0..9_008u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=9_000 {
                let s = &data[start..start + len];
                assert_eq!(crc32c(s), crc32c_table(s), "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn zeros_do_not_hash_to_zero() {
        // The all-zero page exemption in the env relies on this: a real
        // checksum of a zero payload is nonzero, so `stored == 0` plus an
        // all-zero payload can only mean "never written".
        assert_ne!(crc32(&[0u8; 248]), 0);
        assert_ne!(crc32(&[0u8; 4088]), 0);
    }
}
