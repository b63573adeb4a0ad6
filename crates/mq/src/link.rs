//! Network link modelling.
//!
//! The production wire is TLS over the WAN; its cost shows up as per-message
//! latency plus serialization time proportional to payload size. The broker
//! charges that cost on publish (the sender blocks, exactly like a socket
//! write against a congested link), through the component's clock so
//! simulations under virtual time stay deterministic.

use std::time::Duration;

use gcx_core::clock::SharedClock;

/// Latency/bandwidth profile of the link between a client and the broker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Fixed per-message latency in milliseconds (propagation + TLS record
    /// overhead).
    pub latency_ms: u64,
    /// Throughput in bytes per millisecond; `None` = infinite bandwidth.
    pub bytes_per_ms: Option<u64>,
}

impl LinkProfile {
    /// A zero-cost link (the default for unit tests).
    pub const fn instant() -> Self {
        Self {
            latency_ms: 0,
            bytes_per_ms: None,
        }
    }

    /// A WAN-ish link: `latency_ms` each way, `mbps` megabits per second.
    pub fn wan(latency_ms: u64, mbps: u64) -> Self {
        // mbps → bytes per ms: mbps * 1e6 bits/s = mbps*125 bytes/ms.
        Self {
            latency_ms,
            bytes_per_ms: Some(mbps * 125),
        }
    }

    /// Time to move `bytes` across this link.
    pub(crate) fn transfer_time_ms(&self, bytes: usize) -> u64 {
        let bw = match self.bytes_per_ms {
            Some(bpm) if bpm > 0 => (bytes as u64).div_ceil(bpm),
            _ => 0,
        };
        self.latency_ms + bw
    }

    /// Charge the link cost for a message of `bytes` by sleeping on `clock`.
    pub fn charge(&self, clock: &SharedClock, bytes: usize) {
        let ms = self.transfer_time_ms(bytes);
        if ms > 0 {
            clock.sleep(Duration::from_millis(ms));
        }
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        Self::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{Clock, VirtualClock};

    #[test]
    fn instant_link_is_free() {
        assert_eq!(LinkProfile::instant().transfer_time_ms(1 << 30), 0);
    }

    #[test]
    fn wan_link_times() {
        // 20 ms latency, 100 Mbps → 12,500 bytes/ms.
        let link = LinkProfile::wan(20, 100);
        assert_eq!(link.transfer_time_ms(0), 20);
        assert_eq!(link.transfer_time_ms(12_500), 21);
        assert_eq!(link.transfer_time_ms(1_250_000), 120);
    }

    #[test]
    fn charge_advances_virtual_clock() {
        let clock = VirtualClock::new();
        let shared: SharedClock = clock.clone();
        let link = LinkProfile::wan(5, 1000);
        let h = std::thread::spawn(move || link.charge(&shared, 125_000));
        clock.wait_for_sleepers(1);
        // 5 ms + 125000/125000-per-ms = 5 + 1 = 6 ms.
        clock.advance(6);
        h.join().unwrap();
        assert_eq!(clock.now_ms(), 6);
    }

    #[test]
    fn zero_bandwidth_treated_as_infinite() {
        let link = LinkProfile {
            latency_ms: 1,
            bytes_per_ms: Some(0),
        };
        assert_eq!(link.transfer_time_ms(100), 1);
    }
}
