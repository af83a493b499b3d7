//! Approximate memory accounting (a stand-in for the paper’s gperftools
//! profiling; the benchmark's `state_bytes_per_tuple` counts real
//! allocator bytes instead).
//!
//! Views report resident bytes from entry counts, key widths, payload
//! sizes and fixed per-entry overheads. Absolute numbers differ from a
//! real allocator profile, but the *ratios between strategies* — which
//! is what Figures 7, 8 and 13 compare — are preserved, since all
//! strategies share the same storage layer.

/// A memory snapshot of a maintenance strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoryReport {
    /// Approximate resident bytes.
    pub bytes: usize,
    /// Number of materialized views.
    pub views: usize,
    /// Total keys across views.
    pub entries: usize,
}

impl MemoryReport {
    /// Megabytes, for display.
    pub fn mb(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }
}

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

    #[test]
    fn report_mb() {
        let r = MemoryReport {
            bytes: 2 * 1024 * 1024,
            views: 3,
            entries: 100,
        };
        assert!((r.mb() - 2.0).abs() < 1e-9);
    }
}
