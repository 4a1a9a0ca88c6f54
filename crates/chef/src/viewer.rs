//! The CHEF Data Viewer (paper Figure 8).
//!
//! "These viewers provided near real-time visualization of the structure
//! response, time series data from a sensor, as well as hysteresis plots.
//! Arrangements of one or more views can be saved or viewed … At the top
//! of the Data Viewer, a set of VCR buttons allows users to play, pause,
//! rewind, and fast-forward the data viewer, while at the bottom a
//! clickable timeline allows users to see the state of the Data Viewer at
//! any given time point."

use std::collections::HashMap;

use neesgrid_daq::timeseries::TimeSeries;
use neesgrid_gridsim::SimTime;

/// VCR playback state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcrState {
    /// Advancing at the live rate.
    Playing,
    /// Frozen at the current position.
    Paused,
    /// Advancing at `speed ×` the live rate (fast-forward).
    FastForward {
        /// Playback speed multiplier.
        speed: u32,
    },
}

/// A single view: one channel, or an (x, y) channel pair for hysteresis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum View {
    /// Time-series plot of one channel.
    Series {
        /// Channel shown.
        channel: String,
    },
    /// Hysteresis plot: x-channel vs y-channel at equal times.
    Hysteresis {
        /// Displacement (x) channel.
        x_channel: String,
        /// Force (y) channel.
        y_channel: String,
    },
}

/// The data viewer: buffered series, arrangements, VCR position.
pub struct DataViewer {
    /// One series per channel, sorted by channel name. A viewer holds a
    /// handful of channels, so a binary search finds a sample's series
    /// without hashing its name.
    series: Vec<TimeSeries>,
    arrangements: HashMap<String, Vec<View>>,
    state: VcrState,
    /// Current playback position (virtual experiment time).
    pub position: SimTime,
    /// Latest data time received (the "live edge").
    pub live_edge: SimTime,
}

impl DataViewer {
    /// An empty viewer, paused at t = 0.
    pub fn new() -> Self {
        DataViewer {
            series: Vec::new(),
            arrangements: HashMap::new(),
            state: VcrState::Paused,
            position: SimTime::ZERO,
            live_edge: SimTime::ZERO,
        }
    }

    /// Feed one sample (from NSDS) into the viewer's buffer. A sample
    /// older than its channel's latest is refused, so every series stays
    /// in time order whatever a feed delivers.
    pub fn ingest(&mut self, channel: &str, t: SimTime, value: f64) -> Result<(), String> {
        let ts = match self.find(channel) {
            Ok(i) => &mut self.series[i],
            Err(i) => {
                self.series.insert(i, TimeSeries::new(channel, ""));
                &mut self.series[i]
            }
        };
        if let Some(last) = ts.samples.last().filter(|last| t < last.t) {
            return Err(format!(
                "sample on {channel} at {t} is older than its latest at {}",
                last.t
            ));
        }
        ts.push(t, value);
        self.live_edge = self.live_edge.max(t);
        Ok(())
    }

    /// Where `channel`'s series is, or would be inserted.
    fn find(&self, channel: &str) -> Result<usize, usize> {
        self.series
            .binary_search_by(|ts| ts.channel.as_str().cmp(channel))
    }

    fn get(&self, channel: &str) -> Option<&TimeSeries> {
        self.find(channel).ok().map(|i| &self.series[i])
    }

    /// Save a named arrangement of views.
    pub fn save_arrangement(&mut self, name: impl Into<String>, views: Vec<View>) {
        self.arrangements.insert(name.into(), views);
    }

    /// A saved arrangement.
    pub fn arrangement(&self, name: &str) -> Option<&[View]> {
        self.arrangements.get(name).map(Vec::as_slice)
    }

    /// Current VCR state.
    pub fn state(&self) -> VcrState {
        self.state
    }

    /// VCR: play.
    pub fn play(&mut self) {
        self.state = VcrState::Playing;
    }

    /// VCR: pause.
    pub fn pause(&mut self) {
        self.state = VcrState::Paused;
    }

    /// VCR: rewind to the beginning (and pause).
    pub fn rewind(&mut self) {
        self.position = SimTime::ZERO;
        self.state = VcrState::Paused;
    }

    /// VCR: fast-forward at `speed`×.
    pub fn fast_forward(&mut self, speed: u32) {
        self.state = VcrState::FastForward {
            speed: speed.max(2),
        };
    }

    /// Clickable timeline: jump to `t` (clamped to the live edge).
    pub fn seek(&mut self, t: SimTime) {
        self.position = if t > self.live_edge {
            self.live_edge
        } else {
            t
        };
    }

    /// Advance playback by `dt` of viewer (wall) time.
    pub fn tick(&mut self, dt: SimTime) {
        let advance = match self.state {
            VcrState::Paused => SimTime::ZERO,
            VcrState::Playing => dt,
            VcrState::FastForward { speed } => dt * speed as u64,
        };
        self.position = (self.position + advance).min(self.live_edge);
    }

    /// The series data visible at the current position (everything up to
    /// `position`) for one channel.
    pub fn visible_series(&self, channel: &str) -> Vec<(SimTime, f64)> {
        self.get(channel)
            .map(|ts| {
                ts.samples
                    .iter()
                    .take_while(|s| s.t <= self.position)
                    .map(|s| (s.t, s.value))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Hysteresis pairs (x(t), y(t)) up to the current position, matching
    /// samples at equal timestamps.
    pub fn hysteresis(&self, x_channel: &str, y_channel: &str) -> Vec<(f64, f64)> {
        let (Some(xs), Some(ys)) = (self.get(x_channel), self.get(y_channel)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut yi = 0;
        for x in xs.samples.iter().take_while(|s| s.t <= self.position) {
            while yi < ys.samples.len() && ys.samples[yi].t < x.t {
                yi += 1;
            }
            if yi < ys.samples.len() && ys.samples[yi].t == x.t {
                out.push((x.value, ys.samples[yi].value));
            }
        }
        out
    }

    /// Channels the viewer currently holds.
    pub fn channels(&self) -> Vec<String> {
        self.series.iter().map(|ts| ts.channel.clone()).collect()
    }
}

impl Default for DataViewer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viewer_with_data() -> DataViewer {
        let mut v = DataViewer::new();
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 10);
            v.ingest("disp", t, (i as f64 * 0.1).sin() * 0.01).unwrap();
            v.ingest("force", t, (i as f64 * 0.1).sin() * 2000.0)
                .unwrap();
        }
        v
    }

    #[test]
    fn out_of_order_sample_is_refused_and_leaves_the_series_alone() {
        let mut v = viewer_with_data();
        let err = v
            .ingest("disp", SimTime::from_millis(500), 1.0)
            .unwrap_err();
        assert!(err.contains("older than its latest"), "{err}");
        assert_eq!(v.get("disp").map(TimeSeries::len), Some(100));
        assert_eq!(v.live_edge, SimTime::from_millis(990));
        // Equal times are in order (hysteresis pairs share a timestamp).
        v.ingest("disp", SimTime::from_millis(990), 1.0).unwrap();
    }

    #[test]
    fn ingest_tracks_live_edge() {
        let v = viewer_with_data();
        assert_eq!(v.live_edge, SimTime::from_millis(990));
        assert_eq!(v.channels(), vec!["disp", "force"]);
    }

    #[test]
    fn vcr_play_pause_tick() {
        let mut v = viewer_with_data();
        v.play();
        v.tick(SimTime::from_millis(100));
        assert_eq!(v.position, SimTime::from_millis(100));
        v.pause();
        v.tick(SimTime::from_millis(100));
        assert_eq!(v.position, SimTime::from_millis(100), "paused holds");
        v.fast_forward(4);
        v.tick(SimTime::from_millis(100));
        assert_eq!(v.position, SimTime::from_millis(500));
    }

    #[test]
    fn playback_clamps_at_live_edge() {
        let mut v = viewer_with_data();
        v.play();
        v.tick(SimTime::from_secs(100));
        assert_eq!(v.position, v.live_edge);
    }

    #[test]
    fn rewind_and_seek() {
        let mut v = viewer_with_data();
        v.seek(SimTime::from_millis(500));
        assert_eq!(v.position, SimTime::from_millis(500));
        v.rewind();
        assert_eq!(v.position, SimTime::ZERO);
        assert_eq!(v.state(), VcrState::Paused);
        // Seeking past the live edge clamps (clicking right of the data).
        v.seek(SimTime::from_secs(999));
        assert_eq!(v.position, v.live_edge);
    }

    #[test]
    fn visible_series_respects_position() {
        let mut v = viewer_with_data();
        v.seek(SimTime::from_millis(200));
        let visible = v.visible_series("disp");
        assert_eq!(visible.len(), 21); // samples at 0..=200 ms
        assert!(visible.iter().all(|(t, _)| *t <= SimTime::from_millis(200)));
        assert!(v.visible_series("nope").is_empty());
    }

    #[test]
    fn hysteresis_pairs_matched_times() {
        let mut v = viewer_with_data();
        v.seek(v.live_edge);
        let h = v.hysteresis("disp", "force");
        assert_eq!(h.len(), 100);
        // Force is 200000× displacement in the synthetic data.
        for (d, f) in h {
            assert!((f - d * 200_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn arrangements_save_and_recall() {
        let mut v = viewer_with_data();
        v.save_arrangement(
            "most-default",
            vec![
                View::Series {
                    channel: "disp".into(),
                },
                View::Hysteresis {
                    x_channel: "disp".into(),
                    y_channel: "force".into(),
                },
            ],
        );
        let a = v.arrangement("most-default").unwrap();
        assert_eq!(a.len(), 2);
        assert!(v.arrangement("other").is_none());
    }
}
