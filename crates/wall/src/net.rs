//! Distribution cost model.
//!
//! On the physical wall, rendered content crosses a network to reach
//! display nodes. The simulator models that link with the two classic
//! parameters — per-message latency and bandwidth — so experiments can
//! report how much interaction cost is pixel *shipping* rather than pixel
//! *painting*, and compare full-frame streaming against damage-limited
//! updates.

use std::time::Duration;

/// A simple latency + bandwidth link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message fixed cost.
    pub latency: Duration,
    /// Payload bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl NetworkModel {
    /// Gigabit Ethernet, the display-wall interconnect of the era
    /// (~1 Gb/s, ~100 µs per message).
    pub fn gigabit() -> Self {
        NetworkModel {
            latency: Duration::from_micros(100),
            bandwidth_bps: 125_000_000.0,
        }
    }

    /// Time to ship one message of `bytes` payload.
    pub fn message_time(&self, bytes: usize) -> Duration {
        let transfer = Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        self.latency + transfer
    }

    /// Time to ship `n_messages` messages totalling `total_bytes`,
    /// assuming the per-tile links run in parallel across `parallel_links`
    /// (display nodes each have their own NIC; the sender serializes onto
    /// `parallel_links` independent paths round-robin).
    pub fn frame_time(
        &self,
        n_messages: usize,
        total_bytes: usize,
        parallel_links: usize,
    ) -> Duration {
        if n_messages == 0 {
            return Duration::ZERO;
        }
        let links = parallel_links.max(1).min(n_messages);
        let msgs_per_link = n_messages.div_ceil(links);
        let bytes_per_link = total_bytes.div_ceil(links);

        self.latency * msgs_per_link as u32
            + Duration::from_secs_f64(bytes_per_link as f64 / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_adds_latency_and_transfer() {
        let net = NetworkModel {
            latency: Duration::from_millis(1),
            bandwidth_bps: 1_000_000.0,
        };
        let t = net.message_time(500_000); // 0.5 s transfer
        assert!((t.as_secs_f64() - 0.501).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let net = NetworkModel::gigabit();
        assert_eq!(net.message_time(0), net.latency);
    }

    #[test]
    fn frame_time_parallel_links_divide_cost() {
        let net = NetworkModel {
            latency: Duration::from_micros(0),
            bandwidth_bps: 1_000_000.0,
        };
        let serial = net.frame_time(4, 4_000_000, 1);
        let quad = net.frame_time(4, 4_000_000, 4);
        assert!((serial.as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((quad.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frame_time_zero_messages_is_zero() {
        assert_eq!(NetworkModel::gigabit().frame_time(0, 0, 8), Duration::ZERO);
    }

    #[test]
    fn more_links_than_messages_clamped() {
        let net = NetworkModel::gigabit();
        let a = net.frame_time(2, 1000, 2);
        let b = net.frame_time(2, 1000, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn gigabit_ships_wall_frame_in_interactive_budget() {
        // 24 XGA tiles × 3 B/px ≈ 56.6 MB; on 24 parallel gigabit links a
        // full-frame ship is ~19 ms — the number E3 reports.
        let net = NetworkModel::gigabit();
        let tile_bytes = 1024 * 768 * 3;
        let t = net.frame_time(24, 24 * tile_bytes, 24);
        assert!(t.as_secs_f64() < 0.025, "frame ship {t:?}");
        assert!(t.as_secs_f64() > 0.015, "frame ship {t:?}");
    }
}
