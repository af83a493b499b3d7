//! Byte-count formatting for memory reports. Views and stores report
//! approximate resident bytes (`approx_bytes`) from entry counts, key
//! widths, payload sizes and fixed per-entry overheads, a stand-in for
//! the paper’s gperftools profiling; the benchmark's
//! `state_bytes_per_tuple` counts real allocator bytes instead.

/// Human-readable byte count (`1.5 KiB`, `3.2 MiB`, …).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
