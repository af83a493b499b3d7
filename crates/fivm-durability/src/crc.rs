//! CRC-32C (Castagnoli) for log frames and checkpoint files.
//!
//! A single-tuple Housing update costs a few hundred ns unlogged, so
//! logging it must stay small beside that: the design budget is under
//! ~90ns per record for *all* of encode + checksum + buffer append
//! (the benchmark reports the logged/plain ratio as
//! `durability.engine.log_over_plain`). The checksum is therefore
//! the Castagnoli polynomial: on x86-64 the SSE4.2 `crc32` instruction
//! computes it at ~3 bytes/cycle (detected at runtime), and the
//! portable fallback is slicing-by-8 — eight table lookups per 8-byte
//! chunk instead of one per byte. Both paths produce identical values
//! (asserted by a test), so files written on one machine validate on
//! any other. Hand-rolled because the build environment is offline.
//!
//! Like the standard CRC-32C, the register is initialized to all-ones
//! and the final value is complemented. Check value:
//! `crc32(b"123456789") == 0xE306_9283`. Detects all single-bit flips
//! and all burst errors up to 32 bits — the corruption classes the
//! fault-injection harness exercises.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` advances byte `b` through `k` additional zero
/// bytes, letting one iteration consume 8 input bytes. Generated at
/// compile time, so there is no runtime initialization.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = make_tables();

fn update_soft(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// # Safety
/// Caller must have verified SSE4.2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut crc64 = u64::from(crc);
    for c in &mut chunks {
        let word = [c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]];
        crc64 = _mm_crc32_u64(crc64, u64::from_le_bytes(word));
    }
    let mut crc = crc64 as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// CRC-32C of `data`.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the runtime detection above proves SSE4.2 is
            // available, which is `update_hw`'s only precondition.
            return !unsafe { update_hw(!0, data) };
        }
    }
    !update_soft(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The standard CRC-32C check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn hardware_and_software_agree() {
        // Both paths must produce identical checksums at every length
        // (covering the 8-byte chunk boundary and remainder handling),
        // or files would fail to validate across machines.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let soft = !update_soft(!0, &data[..len]);
            assert_eq!(crc32(&data[..len]), soft, "mismatch at len {len}");
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data = b"incremental view maintenance with triple lock factorization";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
