//! The sampling engine.
//!
//! Polls each channel's signal source at its configured rate across a
//! window of virtual time — the software analogue of the LabVIEW VI that
//! "periodically gathered data deposited by the DAQ". Sources are closures
//! or sensor adapters; in the MOST runner they read the specimen/actuator
//! state captured at each pseudo-dynamic step.

use std::collections::HashMap;

use neesgrid_gridsim::SimTime;

use crate::channel::ChannelConfig;
use crate::timeseries::TimeSeries;

/// A source of truth a channel samples.
pub trait SignalSource: Send {
    /// The physical value at virtual time `t` (pre-calibration raw units).
    fn value(&mut self, t: SimTime) -> f64;
}

impl<F: FnMut(SimTime) -> f64 + Send> SignalSource for F {
    fn value(&mut self, t: SimTime) -> f64 {
        self(t)
    }
}

/// A multi-channel data acquisition system.
pub struct DaqSystem {
    channels: Vec<(ChannelConfig, Box<dyn SignalSource>)>,
    /// Next sample time per channel.
    next_sample: HashMap<String, SimTime>,
}

impl DaqSystem {
    /// An empty DAQ.
    pub fn new() -> Self {
        DaqSystem {
            channels: Vec::new(),
            next_sample: HashMap::new(),
        }
    }

    /// Add a channel backed by a source.
    pub fn add_channel(&mut self, config: ChannelConfig, source: Box<dyn SignalSource>) {
        assert!(
            !self.next_sample.contains_key(&config.name),
            "duplicate channel {}",
            config.name
        );
        self.next_sample.insert(config.name.clone(), SimTime::ZERO);
        self.channels.push((config, source));
    }

    /// Channel count.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Sample every channel across `[from, to)` at its own rate, applying
    /// calibration, and return one series per channel (channel order). A
    /// source with no reading at a sample time returns NaN there, and the
    /// series records nothing for it.
    pub fn acquire(&mut self, from: SimTime, to: SimTime) -> Vec<TimeSeries> {
        let mut out = Vec::with_capacity(self.channels.len());
        for (config, source) in self.channels.iter_mut() {
            let mut ts = TimeSeries::new(config.name.clone(), config.unit.clone());
            let interval = SimTime::from_nanos(config.interval_ns());
            let mut t = *self
                .next_sample
                .get(&config.name)
                .expect("channel registered");
            if t < from {
                t = from;
            }
            while t < to {
                let raw = source.value(t);
                if !raw.is_nan() {
                    ts.push(t, config.calibration.apply(raw));
                }
                t += interval;
            }
            self.next_sample.insert(config.name.clone(), t);
            out.push(ts);
        }
        out
    }
}

impl Default for DaqSystem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_at_configured_rate() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("sine", "m", 100.0),
            Box::new(|t: SimTime| (t.as_secs_f64() * 10.0).sin()),
        );
        let series = daq.acquire(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].len(), 100);
        assert_eq!(series[0].samples[1].t, SimTime::from_millis(10));
    }

    #[test]
    fn successive_windows_do_not_duplicate_samples() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("c", "m", 100.0),
            Box::new(|_t: SimTime| 1.0),
        );
        let a = daq.acquire(SimTime::ZERO, SimTime::from_millis(105));
        let b = daq.acquire(SimTime::from_millis(105), SimTime::from_millis(200));
        // 0..105 ms at 10 ms → 11 samples (0,10,…,100); next starts at 110.
        assert_eq!(a[0].len(), 11);
        assert_eq!(b[0].samples[0].t, SimTime::from_millis(110));
        let total = a[0].len() + b[0].len();
        assert_eq!(total, 20);
    }

    #[test]
    fn a_source_without_a_reading_records_no_sample() {
        let mut daq = DaqSystem::new();
        let reading = |t: SimTime| {
            if t.as_nanos() < 250_000_000 {
                f64::NAN
            } else {
                1.0
            }
        };
        daq.add_channel(ChannelConfig::new("c", "m", 10.0), Box::new(reading));
        let series = daq.acquire(SimTime::ZERO, SimTime::from_millis(500));
        assert_eq!(series[0].len(), 2);
        assert_eq!(series[0].samples[0].t, SimTime::from_millis(300));
    }

    #[test]
    fn calibration_applied() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("c", "N", 10.0).with_calibration(2.0, 1.0),
            Box::new(|_t: SimTime| 5.0),
        );
        let series = daq.acquire(SimTime::ZERO, SimTime::from_millis(100));
        assert_eq!(series[0].samples[0].value, 11.0);
    }

    #[test]
    fn channels_sample_at_independent_rates() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("fast", "m", 1000.0),
            Box::new(|_t: SimTime| 0.0),
        );
        daq.add_channel(
            ChannelConfig::new("slow", "m", 10.0),
            Box::new(|_t: SimTime| 0.0),
        );
        let series = daq.acquire(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(series[0].len(), 1000);
        assert_eq!(series[1].len(), 10);
    }

    #[test]
    #[should_panic(expected = "duplicate channel")]
    fn duplicate_channel_rejected() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("c", "m", 10.0),
            Box::new(|_t: SimTime| 0.0),
        );
        daq.add_channel(
            ChannelConfig::new("c", "m", 20.0),
            Box::new(|_t: SimTime| 0.0),
        );
    }

    #[test]
    fn source_sees_sample_times() {
        let mut daq = DaqSystem::new();
        daq.add_channel(
            ChannelConfig::new("t", "s", 100.0),
            Box::new(|t: SimTime| t.as_secs_f64()),
        );
        let series = daq.acquire(SimTime::from_millis(500), SimTime::from_millis(530));
        assert_eq!(series[0].len(), 3);
        assert!((series[0].samples[0].value - 0.5).abs() < 1e-12);
    }
}
