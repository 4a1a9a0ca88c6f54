//! The UCLA field test (§5).
//!
//! "A UCLA team of earthquake engineers plan to perform field testing of a
//! four-story office building in Los Angeles. They intend to apply
//! earthquake-type and harmonic force histories to the building, gathering
//! acceleration, strain, and displacement data using wireless sensor
//! arrays (802.11 wireless telemetry) to evaluate response and behavior.
//! Data and video streams will be recorded and archived at a mobile
//! command center before transmission to the laboratory using satellite
//! telemetry."
//!
//! New substrate pieces this exercises: a lossy wireless hop between the
//! sensors and the command center, and a store-and-forward satellite
//! uplink on the archive's striped transfer engine that survives
//! interruptions by resuming from the laboratory's restart marker.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use neesgrid_apparatus::{Accelerometer, Sensor};
use neesgrid_archive::{ArchiveSite, CasStore, StripeConfig, TransferStatus};
use neesgrid_daq::TimeSeries;
use neesgrid_gridsim::{LatencyModel, NetworkConfig, SimTime, VirtualNetwork};
use neesgrid_repo::VirtualStore;
use neesgrid_structsim::element::{CouplingSpring, GroundSpring};
use neesgrid_structsim::linalg::Vector;
use neesgrid_structsim::material::LinearElastic;
use neesgrid_structsim::model::MdofModel;
use neesgrid_structsim::{GroundMotion, NewmarkBeta};

/// What shakes the building.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Excitation {
    /// Harmonic force at the roof: amplitude (N) and frequency (Hz).
    Harmonic {
        /// Force amplitude, N.
        amplitude_n: f64,
        /// Frequency, Hz.
        frequency_hz: f64,
    },
    /// Earthquake-type force history (seeded synthetic).
    EarthquakeType {
        /// Generator seed.
        seed: u64,
        /// Peak roof force, N.
        peak_n: f64,
    },
}

/// Field-test configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldTestConfig {
    /// Stories (4 for the §5 building).
    pub floors: usize,
    /// Story mass, kg.
    pub floor_mass_kg: f64,
    /// Story lateral stiffness, N/m.
    pub story_stiffness: f64,
    /// Integration step, s.
    pub dt: f64,
    /// Steps to run.
    pub steps: usize,
    /// Forcing.
    pub excitation: Excitation,
    /// 802.11 telemetry loss rate (fraction of samples lost), seeded.
    pub wireless_loss_rate: f64,
    /// Satellite uplink interruptions per floor series (count, spread
    /// over the transfer; at most one fewer than the series' blocks).
    pub satellite_interruptions: u32,
}

impl FieldTestConfig {
    /// The §5 four-story office building, forced harmonically near its
    /// fundamental mode.
    pub fn ucla_office_building() -> Self {
        FieldTestConfig {
            floors: 4,
            floor_mass_kg: 200_000.0,
            story_stiffness: 2.0e8,
            dt: 0.005,
            steps: 2000,
            excitation: Excitation::Harmonic {
                amplitude_n: 50_000.0,
                frequency_hz: 1.6,
            },
            wireless_loss_rate: 0.03,
            satellite_interruptions: 2,
        }
    }

    fn model(&self) -> MdofModel {
        let mut m = MdofModel::new(vec![self.floor_mass_kg; self.floors]);
        // Shear building: ground spring to floor 0, coupling up the height.
        m.add_element(Box::new(GroundSpring::new(
            0,
            Box::new(LinearElastic::new(self.story_stiffness)),
        )));
        for i in 1..self.floors {
            m.add_element(Box::new(CouplingSpring::new(
                i - 1,
                i,
                Box::new(LinearElastic::new(self.story_stiffness)),
            )));
        }
        let w = m.natural_frequencies();
        let (a0, a1) = MdofModel::rayleigh_coefficients(0.02, w[0], w[self.floors - 1]);
        m.set_rayleigh_damping(a0, a1);
        m
    }

    /// The model's fundamental frequency, Hz.
    pub fn fundamental_frequency_hz(&self) -> f64 {
        self.model().natural_frequencies()[0] / std::f64::consts::TAU
    }
}

/// Outcome of a field test.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldTestOutcome {
    /// Peak absolute floor acceleration per floor, m/s².
    pub peak_floor_accel: Vec<f64>,
    /// Samples the wireless array delivered to the command center.
    pub samples_received: u64,
    /// Samples lost to 802.11 telemetry.
    pub samples_lost: u64,
    /// Times the satellite uplink resumed from the laboratory's restart
    /// marker.
    pub uplink_resumes: u32,
    /// Bytes archived at the laboratory.
    pub archived_bytes: u64,
    /// Fundamental frequency estimated from the roof record, Hz.
    pub estimated_fundamental_hz: f64,
}

/// Run the field test: shake, measure wirelessly, archive via satellite.
pub fn run_field_test(config: &FieldTestConfig, store: &VirtualStore) -> FieldTestOutcome {
    let mut model = config.model();
    let n = config.floors;
    let k = model.initial_stiffness();
    let mass = model.mass_matrix();
    let damping = model.damping().clone();
    let mut integrator = NewmarkBeta::average_acceleration(
        mass,
        damping,
        k,
        config.dt,
        Vector::zeros(n),
        Vector::zeros(n),
        &Vector::zeros(n),
        &Vector::zeros(n),
    );

    // Roof forcing history, one value per step. The earthquake-type record
    // is synthesised once.
    let times = (0..config.steps).map(|step| step as f64 * config.dt);
    let forcing: Vec<f64> = match config.excitation {
        Excitation::Harmonic {
            amplitude_n,
            frequency_hz,
        } => times
            .map(|t| amplitude_n * (std::f64::consts::TAU * frequency_hz * t).sin())
            .collect(),
        Excitation::EarthquakeType { seed, peak_n } => {
            let record = GroundMotion::synthetic(seed, config.dt, config.steps, 1.0);
            times.map(|t| record.value_at(t) * peak_n).collect()
        }
    };

    // Wireless accelerometer array: one per floor, lossy telemetry.
    let mut sensors: Vec<Accelerometer> = (0..n)
        .map(|i| Accelerometer::new(format!("ucla/floor-{i}/accel"), 400 + i as u64))
        .collect();
    let mut telemetry_rng = StdRng::seed_from_u64(0x0008_0211);
    let mut received: Vec<TimeSeries> = (0..n)
        .map(|i| TimeSeries::new(format!("ucla/floor-{i}/accel"), "m/s2"))
        .collect();
    let mut lost = 0u64;
    let mut got = 0u64;
    let mut peaks = vec![0.0f64; n];
    let mut roof_record: Vec<f64> = Vec::with_capacity(config.steps);

    for (step, &force) in forcing.iter().enumerate() {
        let mut p = Vector::zeros(n);
        p[n - 1] = force;
        let result = integrator
            .advance(&p, |d| model.restoring(d))
            .expect("linear model converges");
        model.commit();
        for floor in 0..n {
            let true_accel = result.acceleration[floor];
            peaks[floor] = peaks[floor].max(true_accel.abs());
            let reading = sensors[floor].read(true_accel);
            if floor == n - 1 {
                roof_record.push(reading);
            }
            // 802.11 hop: some samples never reach the command center.
            if telemetry_rng.gen_range(0.0..1.0) < config.wireless_loss_rate {
                lost += 1;
            } else {
                received[floor].push(SimTime::from_secs_f64(step as f64 * config.dt), reading);
                got += 1;
            }
        }
    }

    // Mobile command center → laboratory, over interruptible satellite.
    // Each side's transfer store outlives the link sessions; the
    // laboratory files each reassembled series in its archive.
    let command_center = VirtualStore::new();
    let spool = VirtualStore::new();
    let now = SimTime::from_secs_f64(config.dt * config.steps as f64);
    let mut archive_bytes = 0u64;
    let mut resumes = 0u32;
    for ts in &received {
        let name = format!("{}.csv", ts.channel.replace('/', "-"));
        let trip = satellite_uplink(
            &command_center,
            &spool,
            &format!("/ucla-field/{name}"),
            &Bytes::from(ts.to_csv()),
            config.satellite_interruptions,
            now,
        );
        assert_eq!(
            trip.blocks_resent, 0,
            "a resume resent a block the laboratory held"
        );
        resumes += trip.resumes;
        archive_bytes += trip.content.len() as u64;
        store.put(format!("/experiments/ucla-field/{name}"), trip.content, now);
    }

    // Estimate the fundamental frequency from roof zero crossings.
    let mut crossings = 0u32;
    for w in roof_record.windows(2) {
        if w[0].signum() != w[1].signum() {
            crossings += 1;
        }
    }
    let duration = config.dt * config.steps as f64;
    let estimated = crossings as f64 / (2.0 * duration);

    FieldTestOutcome {
        peak_floor_accel: peaks,
        samples_received: got,
        samples_lost: lost,
        uplink_resumes: resumes,
        archived_bytes: archive_bytes,
        estimated_fundamental_hz: estimated,
    }
}

/// One-way delay of the command center's geostationary satellite hop.
const SATELLITE_HOP: SimTime = SimTime::from_millis(270);

/// The command center's and the laboratory's stripe nodes.
const COMMAND_CENTER: &str = "command-center";
const LABORATORY: &str = "laboratory";

/// One series' trip over the satellite uplink.
struct UplinkTrip {
    /// The bytes the laboratory reassembled.
    content: Bytes,
    /// Link sessions that dropped mid-transfer and were resumed.
    resumes: u32,
    /// Blocks that reached the laboratory although it already held them.
    blocks_resent: u64,
}

/// Ship `payload` as `logical` from the command center's store to the
/// laboratory's on the archive's striped transfer engine (4 KiB blocks on
/// two stripes). The link drops `interruptions` times, each once the
/// laboratory holds its share of the blocks: the session dies with
/// whatever was in flight, only the two stores survive, and the next
/// session's push skips every block the laboratory's restart marker (its
/// coverage of the manifest) already holds.
fn satellite_uplink(
    command_center: &VirtualStore,
    laboratory: &VirtualStore,
    logical: &str,
    payload: &Bytes,
    interruptions: u32,
    now: SimTime,
) -> UplinkTrip {
    let config = StripeConfig {
        lanes: 2,
        chunk_size: 4096,
    };
    let manifest =
        CasStore::new(command_center.clone()).ingest(logical, payload, config.chunk_size, now);
    let blocks = manifest.blocks.len();
    // Every session but the last lands at least one block.
    let interruptions = interruptions.min(blocks.saturating_sub(1) as u32);
    let mut blocks_resent = 0;
    for session in 0..=interruptions {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SATELLITE_HOP),
            seed: 0,
        });
        let telemetry = neesgrid_telemetry::Telemetry::disabled();
        let attach = |name, store: &VirtualStore| {
            ArchiveSite::attach(&net, name, store.clone(), config.clone(), &telemetry)
                .expect("a fresh link session has free node names")
        };
        let sender = attach(COMMAND_CENTER, command_center);
        let receiver = attach(LABORATORY, laboratory);
        let id = sender.start_push(LABORATORY, manifest.clone());
        let drop_at = (session < interruptions)
            .then(|| (session as usize + 1) * blocks / (interruptions as usize + 1));
        let held = || {
            manifest
                .blocks
                .iter()
                .filter(|b| receiver.cas().has_block(&b.key))
                .count()
        };
        net.engine().run_until(|| match drop_at {
            Some(at) => held() >= at,
            None => matches!(
                sender.status(id),
                Some(TransferStatus::Completed(_) | TransferStatus::Failed(_))
            ),
        });
        blocks_resent += receiver.cas().stats().blocks_deduped;
    }
    UplinkTrip {
        content: CasStore::new(laboratory.clone())
            .assemble(&manifest)
            .expect("the last session completes the transfer"),
        resumes: interruptions,
        blocks_resent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonant_forcing_amplifies_up_the_height() {
        let config = FieldTestConfig::ucla_office_building();
        let store = VirtualStore::new();
        let out = run_field_test(&config, &store);
        // Shear building under roof forcing: accelerations grow with
        // height.
        assert!(out.peak_floor_accel[3] > out.peak_floor_accel[0]);
        assert!(out.peak_floor_accel[3] > 0.01, "building barely responded");
    }

    #[test]
    fn wireless_loss_is_near_the_configured_rate() {
        let config = FieldTestConfig::ucla_office_building();
        let store = VirtualStore::new();
        let out = run_field_test(&config, &store);
        let total = (out.samples_received + out.samples_lost) as f64;
        let rate = out.samples_lost as f64 / total;
        assert!((rate - 0.03).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn no_resume_resends_a_block_the_laboratory_holds() {
        let payload = Bytes::from(
            (0..41_000u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect::<Vec<u8>>(),
        );
        for interruptions in [1, 3, 10] {
            let trip = satellite_uplink(
                &VirtualStore::new(),
                &VirtualStore::new(),
                "/ucla-field/probe.bin",
                &payload,
                interruptions,
                SimTime::ZERO,
            );
            assert_eq!(trip.content, payload);
            // 11 blocks: at most 10 interruptions.
            assert_eq!(trip.resumes, interruptions.min(10));
            assert_eq!(trip.blocks_resent, 0, "a resume resent a covered block");
        }
    }

    #[test]
    fn satellite_uplink_resumes_and_archives_everything() {
        let config = FieldTestConfig::ucla_office_building();
        let store = VirtualStore::new();
        let out = run_field_test(&config, &store);
        // 2 interruptions per floor series × 4 floors.
        assert_eq!(out.uplink_resumes, 8);
        assert!(out.archived_bytes > 10_000);
        assert_eq!(store.list("/experiments/ucla-field/").len(), 4);
    }

    #[test]
    fn forced_vibration_identifies_the_fundamental_mode() {
        // Drive near resonance; the roof record's dominant frequency must
        // be close to the driving/fundamental frequency.
        let config = FieldTestConfig::ucla_office_building();
        let f1 = config.fundamental_frequency_hz();
        let store = VirtualStore::new();
        let out = run_field_test(&config, &store);
        assert!(
            (out.estimated_fundamental_hz - 1.6).abs() < 0.3,
            "estimated {} Hz (driving 1.6 Hz, modal {f1:.2} Hz)",
            out.estimated_fundamental_hz
        );
    }

    #[test]
    fn earthquake_type_forcing_also_works() {
        let mut config = FieldTestConfig::ucla_office_building();
        config.excitation = Excitation::EarthquakeType {
            seed: 7,
            peak_n: 80_000.0,
        };
        config.steps = 1000;
        let store = VirtualStore::new();
        let out = run_field_test(&config, &store);
        assert!(out.peak_floor_accel[3] > 0.001);
        assert!(out.samples_received > 3500);
    }
}
