//! THP/2 message semantics: typed requests, responses, job
//! specifications and results, with canonical byte encodings.
//!
//! Every value has exactly one encoding (fixed field order, big-endian,
//! f64 as IEEE-754 bits), which gives the service layer two properties at
//! once: golden wire vectors are stable across releases, and the
//! content-addressed result cache can key on the spec's encoded bytes.

use minitester::{MiniTesterDatapath, MiniTesterError, TestPlan};
use pstime::{DataRate, Duration};

use crate::stream::{BATHTUB_SEGMENT_PAIRS, EYE_COLUMN_POINTS, WAFER_STRIPE_RECORDS};
use crate::wire::{self, FrameError, Reader, Writer};

/// Message-type codes. Requests occupy `0x01..=0x7F`, responses have the
/// high bit set.
pub mod msg {
    /// Liveness probe carrying an echo token.
    pub const PING: u8 = 0x01;
    /// Ask the service for its counters.
    pub const GET_STATS: u8 = 0x02;
    /// Submit one job.
    pub const SUBMIT: u8 = 0x03;
    /// Ask the daemon to stop serving.
    pub const SHUTDOWN: u8 = 0x05;
    /// Reply to [`PING`].
    pub const PONG: u8 = 0x81;
    /// Reply to [`GET_STATS`].
    pub const STATS_REPORT: u8 = 0x82;
    /// Admission control shed the request.
    pub const BUSY: u8 = 0x84;
    /// The job was accepted but its execution failed.
    pub const FAILED: u8 = 0x85;
    /// Reply to [`SHUTDOWN`].
    pub const GOODBYE: u8 = 0x87;
    /// One slice of a streamed result (`CHUNK`-flagged frames).
    pub const CHUNK: u8 = 0x88;
    /// Terminal summary of a streamed result: how a [`SUBMIT`] succeeds.
    pub const SUMMARY: u8 = 0x89;
}

/// The reserved protocol-level failure correlation id (and ticket).
///
/// Admission tickets start at 1 and count up, and THP/2 clients may not
/// choose this value as a correlation id, so a `Failed` reply carrying it
/// unambiguously means "the failure happened before any job existed" — a
/// malformed frame, an unknown type code — and can never collide with a
/// real job the way the old `ticket: 0` sentinel could.
pub const FAILURE_ID: u64 = u64::MAX;

/// Admission bounds on work magnitude, enforced by [`JobSpec::validate`]
/// alongside the domain checks.
///
/// The wire format can describe jobs (4 G dies, femtosecond phase steps
/// over megahertz unit intervals, u32::MAX sweep points) that would pin
/// the daemon for hours or exhaust memory — a denial of service from one
/// well-formed frame. These ceilings are far above anything the modeled
/// instrument runs (the paper's workloads use hundreds of dies, hundreds
/// of cells, and ≤ 4 Ki-bit patterns) but finite, so a hostile-but-valid
/// spec is shed with a typed `BadPayload` instead of executed.
pub mod limits {
    /// Minimum data rate any spec may name, 1 Mb/s. Besides keeping specs
    /// in the instrument's plausible range, this caps the unit interval at
    /// 1 µs, which bounds the eye scan at 100 000 strobe steps of the
    /// 10 ps vernier.
    pub const MIN_RATE_BPS: u64 = 1_000_000;
    /// Maximum PRBS stimulus length in bits (shmoo, eye, per-die wafer
    /// test content).
    pub const MAX_BITS: u32 = 1 << 16;
    /// Maximum dies per wafer run, and maximum probe-array sites.
    pub const MAX_DIES: u32 = 16_384;
    /// Maximum (threshold × strobe-phase) cells in one shmoo grid.
    pub const MAX_SHMOO_CELLS: u64 = 1 << 14;
    /// Maximum points in a bathtub sweep.
    pub const MAX_SWEEP_POINTS: u32 = 1 << 16;
}

/// How a result was produced, reported with every completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Executed on the worker pool for this request.
    Computed,
    /// Served byte-identical from the result cache.
    Cache,
    /// Coalesced with an identical spec earlier in the same drain cycle.
    Batched,
}

impl Provenance {
    fn code(self) -> u8 {
        match self {
            Provenance::Computed => 0,
            Provenance::Cache => 1,
            Provenance::Batched => 2,
        }
    }

    fn decode(code: u8) -> Result<Self, FrameError> {
        match code {
            0 => Ok(Provenance::Computed),
            1 => Ok(Provenance::Cache),
            2 => Ok(Provenance::Batched),
            _ => Err(FrameError::BadPayload { context: "provenance code" }),
        }
    }
}

/// A job the test head can run, described entirely by exact integers and
/// IEEE-754 bit patterns: the encoded bytes are the cache key, so two
/// specs are interchangeable exactly when their encodings match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobSpec {
    /// A timing × voltage shmoo plot over a PRBS stimulus.
    Shmoo {
        /// Data rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS pattern length in bits.
        bits: u32,
        /// Seed for the stimulus waveform's jitter draws.
        stim_seed: u64,
        /// Strobe-phase step in femtoseconds.
        phase_step_fs: i64,
        /// Threshold sweep start, millivolts.
        v_start_mv: i32,
        /// Threshold sweep end (inclusive), millivolts.
        v_end_mv: i32,
        /// Threshold step, millivolts.
        v_step_mv: i32,
        /// Master seed for the sweep's capture substreams.
        seed: u64,
    },
    /// A multi-site wafer run with seeded defect injection.
    Wafer {
        /// Dies per wafer-map row.
        columns: u32,
        /// Total dies.
        dies: u32,
        /// Parallel tester sites (nonzero).
        sites: u32,
        /// Fraction of dies with a hard defect, in `[0, 1]`.
        hard_defect_rate: f64,
        /// Fraction of dies with a marginal channel, in `[0, 1]`.
        marginal_rate: f64,
        /// Test rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS bits per die test.
        test_bits: u32,
        /// Run seed.
        seed: u64,
    },
    /// An equivalent-time eye scan over a PRBS stimulus.
    Eye {
        /// Data rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS pattern length in bits.
        bits: u32,
        /// Seed for the stimulus waveform's jitter draws.
        stim_seed: u64,
        /// Master seed for the per-phase capture substreams.
        seed: u64,
    },
    /// A modeled dual-Dirac bathtub sweep.
    Bathtub {
        /// RJ rms in femtoseconds (nonnegative).
        rj_rms_fs: i64,
        /// DJ peak-to-peak in femtoseconds (nonnegative).
        dj_pp_fs: i64,
        /// Data rate in bits per second (nonzero).
        rate_bps: u64,
        /// Transition density, in `(0, 1]`.
        transition_density: f64,
        /// Number of sweep points (at least 2).
        points: u32,
    },
    /// A contiguous band of threshold rows of a [`JobSpec::Shmoo`] — the
    /// shard form the farm coordinator submits. It carries the *full*
    /// sweep definition plus a row range, because every cell seeds from
    /// its global `(row, col)` substream: the head must reconstruct the
    /// whole threshold axis to seed (and render) the band exactly as a
    /// full run would.
    ShmooRows {
        /// Data rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS pattern length in bits.
        bits: u32,
        /// Seed for the stimulus waveform's jitter draws.
        stim_seed: u64,
        /// Strobe-phase step in femtoseconds.
        phase_step_fs: i64,
        /// Threshold sweep start, millivolts.
        v_start_mv: i32,
        /// Threshold sweep end (inclusive), millivolts.
        v_end_mv: i32,
        /// Threshold step, millivolts.
        v_step_mv: i32,
        /// Master seed for the sweep's capture substreams.
        seed: u64,
        /// First threshold row of the band.
        row_start: u32,
        /// Rows in the band (nonzero).
        row_count: u32,
    },
    /// A contiguous die range of a [`JobSpec::Wafer`] — the shard form
    /// the farm coordinator submits. Die substreams key on the global die
    /// index, so the range reproduces exactly the dies a full run would
    /// have produced.
    WaferDies {
        /// Dies per wafer-map row.
        columns: u32,
        /// Total dies on the wafer (not the range).
        dies: u32,
        /// Parallel tester sites (nonzero).
        sites: u32,
        /// Fraction of dies with a hard defect, in `[0, 1]`.
        hard_defect_rate: f64,
        /// Fraction of dies with a marginal channel, in `[0, 1]`.
        marginal_rate: f64,
        /// Test rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS bits per die test.
        test_bits: u32,
        /// Run seed.
        seed: u64,
        /// First die of the range.
        die_start: u32,
        /// Dies in the range (nonzero).
        die_count: u32,
    },
    /// A contiguous strobe-step range of a [`JobSpec::Eye`] — the shard
    /// form the farm coordinator submits. Per-point substreams key on the
    /// global step index.
    EyeRange {
        /// Data rate in bits per second (nonzero).
        rate_bps: u64,
        /// PRBS pattern length in bits.
        bits: u32,
        /// Seed for the stimulus waveform's jitter draws.
        stim_seed: u64,
        /// Master seed for the per-phase capture substreams.
        seed: u64,
        /// First strobe step of the range.
        phase_start: u32,
        /// Strobe steps in the range (nonzero).
        phase_count: u32,
    },
}

const SPEC_SHMOO: u8 = 1;
const SPEC_WAFER: u8 = 2;
const SPEC_EYE: u8 = 3;
const SPEC_BATHTUB: u8 = 4;
const SPEC_SHMOO_ROWS: u8 = 5;
const SPEC_WAFER_DIES: u8 = 6;
const SPEC_EYE_RANGE: u8 = 7;

/// The 10 ps strobe vernier step in femtoseconds — the grid the eye
/// scan's shard extent is measured on. Pinned here (rather than read off
/// a capture head) so spec validation stays allocation-free; a unit test
/// asserts it matches [`minitester::EtCapture`]'s vernier.
const EYE_STEP_FS: i64 = 10_000;

/// Threshold-row count of a shmoo sweep (ascending sweep with positive
/// step — i.e. already validated), in wide arithmetic.
/// The `BadPayload` for a spec the mini-tester would refuse.
fn outside_envelope(e: MiniTesterError) -> FrameError {
    let context = match e {
        MiniTesterError::BadTestPlan { reason } => reason,
        MiniTesterError::Dlc(_) => "data rate above the DLC pins' per-lane limit",
        MiniTesterError::Pecl(_) => "data rate above the PECL chain's limit",
        _ => "spec outside the mini-tester's envelope",
    };
    FrameError::BadPayload { context }
}

fn shmoo_row_count(v_start_mv: i32, v_end_mv: i32, v_step_mv: i32) -> i64 {
    let span = i64::from(v_end_mv) - i64::from(v_start_mv);
    span / i64::from(v_step_mv) + 1
}

/// Strobe-step count of an eye scan at `rate_bps` (nonzero — i.e.
/// already validated): one unit interval on the 10 ps vernier grid,
/// matching `EyeScanJob`'s own ceiling division.
fn eye_step_count(rate_bps: u64) -> i64 {
    let ui_fs = DataRate::from_bps(rate_bps).unit_interval().as_fs();
    ((ui_fs + EYE_STEP_FS - 1) / EYE_STEP_FS).max(1)
}

impl JobSpec {
    /// A shmoo spec from the native configuration types.
    pub fn shmoo(
        rate: DataRate,
        bits: u32,
        stim_seed: u64,
        config: &minitester::ShmooConfig,
        seed: u64,
    ) -> Self {
        JobSpec::Shmoo {
            rate_bps: rate.as_bps(),
            bits,
            stim_seed,
            phase_step_fs: config.phase_step.as_fs(),
            v_start_mv: config.v_start.as_mv(),
            v_end_mv: config.v_end.as_mv(),
            v_step_mv: config.v_step.as_mv(),
            seed,
        }
    }

    /// A wafer-run spec from the native configuration, with counts clamped
    /// into u32 range (a wafer beyond 4 G dies is not a real request).
    pub fn wafer(config: &minitester::WaferRunConfig) -> Self {
        JobSpec::Wafer {
            columns: u32::try_from(config.columns).unwrap_or(u32::MAX),
            dies: u32::try_from(config.dies).unwrap_or(u32::MAX),
            sites: u32::try_from(config.sites).unwrap_or(u32::MAX),
            hard_defect_rate: config.hard_defect_rate,
            marginal_rate: config.marginal_rate,
            rate_bps: config.rate.as_bps(),
            test_bits: u32::try_from(config.test_bits).unwrap_or(u32::MAX),
            seed: config.seed,
        }
    }

    /// An eye-scan spec.
    pub fn eye(rate: DataRate, bits: u32, stim_seed: u64, seed: u64) -> Self {
        JobSpec::Eye { rate_bps: rate.as_bps(), bits, stim_seed, seed }
    }

    /// A bathtub-sweep spec from the native curve parameters.
    pub fn bathtub(
        rj_rms: Duration,
        dj_pp: Duration,
        rate: DataRate,
        transition_density: f64,
        points: u32,
    ) -> Self {
        JobSpec::Bathtub {
            rj_rms_fs: rj_rms.as_fs(),
            dj_pp_fs: dj_pp.as_fs(),
            rate_bps: rate.as_bps(),
            transition_density,
            points,
        }
    }

    /// How many independent slices this spec decomposes into: threshold
    /// rows for a shmoo, dies for a wafer, strobe steps for an eye scan.
    ///
    /// `None` for indivisible specs (bathtub), for shard variants (a
    /// slice does not slice again), and for specs that fail
    /// [`JobSpec::validate`] — so a caller holding `Some(n)` may slice
    /// `[0, n)` without further checks.
    pub fn shard_extent(&self) -> Option<u64> {
        if self.validate().is_err() {
            return None;
        }
        match *self {
            JobSpec::Shmoo { v_start_mv, v_end_mv, v_step_mv, .. } => {
                Some(shmoo_row_count(v_start_mv, v_end_mv, v_step_mv).unsigned_abs())
            }
            JobSpec::Wafer { dies, .. } => Some(u64::from(dies)),
            JobSpec::Eye { rate_bps, .. } => Some(eye_step_count(rate_bps).unsigned_abs()),
            JobSpec::Bathtub { .. }
            | JobSpec::ShmooRows { .. }
            | JobSpec::WaferDies { .. }
            | JobSpec::EyeRange { .. } => None,
        }
    }

    /// The shard sub-spec covering `[start, start + count)` of this
    /// spec's [`JobSpec::shard_extent`].
    ///
    /// `None` if the spec is indivisible or the range is empty, out of
    /// bounds, or beyond u32.
    pub fn slice(&self, start: u64, count: u64) -> Option<JobSpec> {
        let extent = self.shard_extent()?;
        if count == 0 || start.checked_add(count)? > extent {
            return None;
        }
        self.shard(u32::try_from(start).ok()?, u32::try_from(count).ok()?)
    }

    /// The shard variant covering `[start, start + count)` of this spec,
    /// built without any check: [`JobSpec::slice`] checks the range first,
    /// and [`JobSpec::decode`] validates the result. `None` for specs that
    /// have no shard form (bathtub, and the shard variants themselves).
    fn shard(self, start: u32, count: u32) -> Option<JobSpec> {
        match self {
            JobSpec::Shmoo {
                rate_bps,
                bits,
                stim_seed,
                phase_step_fs,
                v_start_mv,
                v_end_mv,
                v_step_mv,
                seed,
            } => Some(JobSpec::ShmooRows {
                rate_bps,
                bits,
                stim_seed,
                phase_step_fs,
                v_start_mv,
                v_end_mv,
                v_step_mv,
                seed,
                row_start: start,
                row_count: count,
            }),
            JobSpec::Wafer {
                columns,
                dies,
                sites,
                hard_defect_rate,
                marginal_rate,
                rate_bps,
                test_bits,
                seed,
            } => Some(JobSpec::WaferDies {
                columns,
                dies,
                sites,
                hard_defect_rate,
                marginal_rate,
                rate_bps,
                test_bits,
                seed,
                die_start: start,
                die_count: count,
            }),
            JobSpec::Eye { rate_bps, bits, stim_seed, seed } => Some(JobSpec::EyeRange {
                rate_bps,
                bits,
                stim_seed,
                seed,
                phase_start: start,
                phase_count: count,
            }),
            _ => None,
        }
    }

    /// The full spec a shard variant was sliced from; `None` for specs
    /// that are not shard variants.
    pub fn parent(&self) -> Option<JobSpec> {
        self.split().map(|(parent, _, _)| parent)
    }

    /// A shard variant as its parent spec and its band `(start, count)`:
    /// the inverse of [`JobSpec::shard`]. `None` for specs that are not
    /// shard variants.
    pub(crate) fn split(&self) -> Option<(JobSpec, u32, u32)> {
        match *self {
            JobSpec::ShmooRows {
                rate_bps,
                bits,
                stim_seed,
                phase_step_fs,
                v_start_mv,
                v_end_mv,
                v_step_mv,
                seed,
                row_start,
                row_count,
            } => Some((
                JobSpec::Shmoo {
                    rate_bps,
                    bits,
                    stim_seed,
                    phase_step_fs,
                    v_start_mv,
                    v_end_mv,
                    v_step_mv,
                    seed,
                },
                row_start,
                row_count,
            )),
            JobSpec::WaferDies {
                columns,
                dies,
                sites,
                hard_defect_rate,
                marginal_rate,
                rate_bps,
                test_bits,
                seed,
                die_start,
                die_count,
            } => Some((
                JobSpec::Wafer {
                    columns,
                    dies,
                    sites,
                    hard_defect_rate,
                    marginal_rate,
                    rate_bps,
                    test_bits,
                    seed,
                },
                die_start,
                die_count,
            )),
            JobSpec::EyeRange { rate_bps, bits, stim_seed, seed, phase_start, phase_count } => {
                Some((JobSpec::Eye { rate_bps, bits, stim_seed, seed }, phase_start, phase_count))
            }
            _ => None,
        }
    }

    /// Checks every field against its domain, every derived work
    /// magnitude against [`limits`], and every stimulus against the
    /// mini-tester's envelope (a positive multiple of its 16 lanes, the DLC
    /// pins' per-lane rate, the PECL chain's rate limit, and a wafer plan's
    /// 64-bit floor) — the gate both decoding and execution pass through, so a malformed spec becomes a typed error rather than
    /// a panic deep inside a workload constructor, and a hostile-but-
    /// well-formed spec is shed instead of pinning the daemon.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] naming the offending field.
    pub fn validate(&self) -> Result<(), FrameError> {
        let bad = |context| Err(FrameError::BadPayload { context });
        let check_rate = |rate_bps: u64| {
            if rate_bps < limits::MIN_RATE_BPS {
                bad("data rate below the 1 Mb/s service minimum")
            } else {
                Ok(())
            }
        };
        // The instrument's envelope is checked by the mini-tester's own
        // predicates, so an admitted spec cannot fail them after a boot.
        let len = |bits: u32| usize::try_from(bits).unwrap_or(usize::MAX);
        match *self {
            JobSpec::Shmoo {
                rate_bps,
                bits,
                phase_step_fs,
                v_start_mv,
                v_end_mv,
                v_step_mv,
                ..
            } => {
                check_rate(rate_bps)?;
                if bits > limits::MAX_BITS {
                    return bad("stimulus length exceeds the bits ceiling");
                }
                MiniTesterDatapath::check_stimulus(DataRate::from_bps(rate_bps), len(bits))
                    .map_err(outside_envelope)?;
                if phase_step_fs <= 0 {
                    return bad("phase step must be positive");
                }
                if v_step_mv <= 0 || v_end_mv < v_start_mv {
                    return bad("voltage sweep must be ascending with positive step");
                }
                // Grid size in wide arithmetic: an i32 span and an i64
                // phase count both fit i128 exactly, so a sweep spanning
                // the whole i32 range (which would overflow the native
                // `v += v_step` walk) is measured, not executed.
                let span = i64::from(v_end_mv) - i64::from(v_start_mv);
                let thresholds = span / i64::from(v_step_mv) + 1;
                let ui_fs = DataRate::from_bps(rate_bps).unit_interval().as_fs();
                let phases = (ui_fs / phase_step_fs + i64::from(ui_fs % phase_step_fs != 0)).max(1);
                let cells = i128::from(thresholds) * i128::from(phases);
                if cells > i128::from(limits::MAX_SHMOO_CELLS) {
                    return bad("shmoo grid exceeds the cell ceiling");
                }
            }
            JobSpec::Eye { rate_bps, bits, .. } => {
                check_rate(rate_bps)?;
                if bits > limits::MAX_BITS {
                    return bad("stimulus length exceeds the bits ceiling");
                }
                MiniTesterDatapath::check_stimulus(DataRate::from_bps(rate_bps), len(bits))
                    .map_err(outside_envelope)?;
            }
            JobSpec::Wafer {
                dies,
                sites,
                hard_defect_rate,
                marginal_rate,
                rate_bps,
                test_bits,
                ..
            } => {
                check_rate(rate_bps)?;
                if sites == 0 {
                    return bad("wafer run needs at least one site");
                }
                if dies > limits::MAX_DIES || sites > limits::MAX_DIES {
                    return bad("wafer run exceeds the die ceiling");
                }
                if test_bits > limits::MAX_BITS {
                    return bad("stimulus length exceeds the bits ceiling");
                }
                // Every die runs the BIST plan first, and the margin plan
                // shares its rate and length.
                TestPlan::prbs_bist(DataRate::from_bps(rate_bps), len(test_bits))
                    .validate()
                    .map_err(outside_envelope)?;
                for rate in [hard_defect_rate, marginal_rate] {
                    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                        return bad("defect rates must be finite fractions in [0, 1]");
                    }
                }
            }
            JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, points } => {
                check_rate(rate_bps)?;
                if rj_rms_fs < 0 || dj_pp_fs < 0 {
                    return bad("jitter terms must be nonnegative");
                }
                if !(transition_density.is_finite()
                    && transition_density > 0.0
                    && transition_density <= 1.0)
                {
                    return bad("transition density must be in (0, 1]");
                }
                if points > limits::MAX_SWEEP_POINTS {
                    return bad("sweep exceeds the point ceiling");
                }
            }
            // Shard variants: the parent spec must pass in full (they
            // carry its every field), and the range must sit inside the
            // parent's shard extent. `shard_extent` returns `Some` exactly
            // when the parent validates, so a `None` here means the
            // embedded parent itself is bad.
            JobSpec::ShmooRows { .. } | JobSpec::WaferDies { .. } | JobSpec::EyeRange { .. } => {
                let Some((parent, start, count)) = self.split() else {
                    return bad("shard variant without a parent spec");
                };
                let Some(extent) = parent.shard_extent() else {
                    return parent.validate();
                };
                if count == 0 {
                    return bad("shard range must be non-empty");
                }
                if u64::from(start).saturating_add(u64::from(count)) > extent {
                    return bad("shard range overruns the parent spec's extent");
                }
            }
        }
        Ok(())
    }

    /// A short human label for logs and load reports.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Shmoo { .. } => "shmoo",
            JobSpec::Wafer { .. } => "wafer",
            JobSpec::Eye { .. } => "eye",
            JobSpec::Bathtub { .. } => "bathtub",
            JobSpec::ShmooRows { .. } => "shmoo-rows",
            JobSpec::WaferDies { .. } => "wafer-dies",
            JobSpec::EyeRange { .. } => "eye-range",
        }
    }

    /// The spec's wire tag.
    fn tag(&self) -> u8 {
        match self {
            JobSpec::Shmoo { .. } => SPEC_SHMOO,
            JobSpec::Wafer { .. } => SPEC_WAFER,
            JobSpec::Eye { .. } => SPEC_EYE,
            JobSpec::Bathtub { .. } => SPEC_BATHTUB,
            JobSpec::ShmooRows { .. } => SPEC_SHMOO_ROWS,
            JobSpec::WaferDies { .. } => SPEC_WAFER_DIES,
            JobSpec::EyeRange { .. } => SPEC_EYE_RANGE,
        }
    }

    /// Canonical encoding — the bytes the result cache keys on. A shard
    /// variant is its own tag, then its parent's body, then its band's
    /// start and count.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(self.tag());
        let (body, band) = match self.split() {
            Some((parent, start, count)) => (parent, Some((start, count))),
            None => (*self, None),
        };
        match body {
            JobSpec::Shmoo {
                rate_bps,
                bits,
                stim_seed,
                phase_step_fs,
                v_start_mv,
                v_end_mv,
                v_step_mv,
                seed,
            } => {
                w.u64(rate_bps);
                w.u32(bits);
                w.u64(stim_seed);
                w.i64(phase_step_fs);
                w.i32(v_start_mv);
                w.i32(v_end_mv);
                w.i32(v_step_mv);
                w.u64(seed);
            }
            JobSpec::Wafer {
                columns,
                dies,
                sites,
                hard_defect_rate,
                marginal_rate,
                rate_bps,
                test_bits,
                seed,
            } => {
                w.u32(columns);
                w.u32(dies);
                w.u32(sites);
                w.f64(hard_defect_rate);
                w.f64(marginal_rate);
                w.u64(rate_bps);
                w.u32(test_bits);
                w.u64(seed);
            }
            JobSpec::Eye { rate_bps, bits, stim_seed, seed } => {
                w.u64(rate_bps);
                w.u32(bits);
                w.u64(stim_seed);
                w.u64(seed);
            }
            JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, points } => {
                w.i64(rj_rms_fs);
                w.i64(dj_pp_fs);
                w.u64(rate_bps);
                w.f64(transition_density);
                w.u32(points);
            }
            // A parent is never itself a shard variant.
            JobSpec::ShmooRows { .. } | JobSpec::WaferDies { .. } | JobSpec::EyeRange { .. } => {}
        }
        if let Some((start, count)) = band {
            w.u32(start);
            w.u32(count);
        }
    }

    /// The spec's canonical bytes on their own — the cache-key material.
    pub fn key_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes and validates one spec.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation, an unknown spec tag, or an
    /// out-of-domain field.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let tag = r.u8()?;
        let body_tag = match tag {
            SPEC_SHMOO_ROWS => SPEC_SHMOO,
            SPEC_WAFER_DIES => SPEC_WAFER,
            SPEC_EYE_RANGE => SPEC_EYE,
            _ => tag,
        };
        let body = match body_tag {
            SPEC_SHMOO => JobSpec::Shmoo {
                rate_bps: r.u64()?,
                bits: r.u32()?,
                stim_seed: r.u64()?,
                phase_step_fs: r.i64()?,
                v_start_mv: r.i32()?,
                v_end_mv: r.i32()?,
                v_step_mv: r.i32()?,
                seed: r.u64()?,
            },
            SPEC_WAFER => JobSpec::Wafer {
                columns: r.u32()?,
                dies: r.u32()?,
                sites: r.u32()?,
                hard_defect_rate: r.f64()?,
                marginal_rate: r.f64()?,
                rate_bps: r.u64()?,
                test_bits: r.u32()?,
                seed: r.u64()?,
            },
            SPEC_EYE => JobSpec::Eye {
                rate_bps: r.u64()?,
                bits: r.u32()?,
                stim_seed: r.u64()?,
                seed: r.u64()?,
            },
            SPEC_BATHTUB => JobSpec::Bathtub {
                rj_rms_fs: r.i64()?,
                dj_pp_fs: r.i64()?,
                rate_bps: r.u64()?,
                transition_density: r.f64()?,
                points: r.u32()?,
            },
            _ => return Err(FrameError::BadPayload { context: "job spec tag" }),
        };
        let spec = if body_tag == tag {
            body
        } else {
            let start = r.u32()?;
            let count = r.u32()?;
            body.shard(start, count).ok_or(FrameError::BadPayload { context: "job spec tag" })?
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// One die's record inside a wafer result (wire mirror of
/// [`minitester::DieRecord`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDieRecord {
    /// Die index on the wafer map.
    pub die: u32,
    /// Bin code: 0 good, 1 BIST fail, 2 margin fail.
    pub bin: u8,
    /// BIST error count.
    pub bist_errors: u32,
    /// Loopback eye opening in UI, when the margin test ran.
    pub eye_ui: Option<f64>,
}

/// A completed job's payload: the full structured outcome plus the
/// workload's rendered text, so clients can assert byte identity against a
/// local run without re-deriving the rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// Outcome of a [`JobSpec::Shmoo`].
    Shmoo {
        /// Threshold rows, millivolts, ascending.
        thresholds_mv: Vec<i32>,
        /// Strobe-phase columns, femtoseconds.
        phases_fs: Vec<i64>,
        /// Row-major pass map.
        pass: Vec<bool>,
        /// The plot's `Display` rendering.
        rendered: String,
    },
    /// Outcome of a [`JobSpec::Wafer`].
    Wafer {
        /// Per-die records in die order.
        records: Vec<WireDieRecord>,
        /// Touchdowns the probe array needed.
        touchdowns: u32,
        /// Hard defects the simulation injected.
        injected_hard: u32,
        /// Marginal channels the simulation injected.
        injected_marginal: u32,
        /// The wafer map's `Display` rendering.
        rendered: String,
    },
    /// Outcome of a [`JobSpec::Eye`].
    Eye {
        /// `(phase fs, compared, errors)` per strobe point.
        points: Vec<(i64, u32, u32)>,
        /// The strobe step in femtoseconds.
        step_fs: i64,
        /// The scan's `Display` rendering.
        rendered: String,
    },
    /// Outcome of a [`JobSpec::Bathtub`].
    Bathtub {
        /// `(phase UI, BER)` pairs.
        pairs: Vec<(f64, f64)>,
        /// A short textual summary.
        rendered: String,
    },
}

const RESULT_SHMOO: u8 = 1;
const RESULT_WAFER: u8 = 2;
const RESULT_EYE: u8 = 3;
const RESULT_BATHTUB: u8 = 4;

/// The highest wafer bin code (`FailMargin`).
const MAX_BIN: u8 = 2;

fn to_u32(n: usize, context: &'static str) -> Result<u32, FrameError> {
    u32::try_from(n).map_err(|_| FrameError::BadPayload { context })
}

impl JobResult {
    /// Builds the wire result from a native shmoo plot.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] if a dimension exceeds u32 (not reachable
    /// from any accepted spec).
    pub fn from_shmoo(plot: &minitester::ShmooPlot) -> Result<Self, FrameError> {
        let thresholds_mv: Vec<i32> = plot.thresholds().iter().map(|v| v.as_mv()).collect();
        let phases_fs: Vec<i64> = plot.phases().iter().map(|p| p.as_fs()).collect();
        let mut pass = Vec::with_capacity(thresholds_mv.len() * phases_fs.len());
        for row in 0..plot.thresholds().len() {
            for col in 0..plot.phases().len() {
                pass.push(plot.passed(row, col));
            }
        }
        Ok(JobResult::Shmoo { thresholds_mv, phases_fs, pass, rendered: plot.to_string() })
    }

    /// Builds the wire result from a native wafer report.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] if a count exceeds u32.
    pub fn from_wafer(report: &minitester::WaferReport) -> Result<Self, FrameError> {
        let mut records = Vec::with_capacity(report.records().len());
        for rec in report.records() {
            let bin = match rec.bin {
                minitester::Bin::Good => 0,
                minitester::Bin::FailBist => 1,
                minitester::Bin::FailMargin => 2,
            };
            records.push(WireDieRecord {
                die: to_u32(rec.die, "die index")?,
                bin,
                bist_errors: to_u32(rec.bist_errors, "bist error count")?,
                eye_ui: rec.eye_ui,
            });
        }
        let (hard, marginal) = report.injected_defects();
        Ok(JobResult::Wafer {
            records,
            touchdowns: to_u32(report.touchdowns(), "touchdown count")?,
            injected_hard: to_u32(hard, "injected hard count")?,
            injected_marginal: to_u32(marginal, "injected marginal count")?,
            rendered: report.to_string(),
        })
    }

    /// Builds the wire result from a native eye scan.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] if a count exceeds u32.
    pub fn from_eye(scan: &minitester::EyeScan) -> Result<Self, FrameError> {
        let mut points = Vec::with_capacity(scan.points().len());
        for p in scan.points() {
            points.push((
                p.phase.as_fs(),
                to_u32(p.compared, "compared count")?,
                to_u32(p.errors, "error count")?,
            ));
        }
        Ok(JobResult::Eye { points, step_fs: scan.step().as_fs(), rendered: scan.to_string() })
    }

    /// Builds the wire result from a native bathtub sweep.
    pub fn from_bathtub(pairs: Vec<(f64, f64)>) -> Self {
        let rendered = format!("bathtub sweep: {} points", pairs.len());
        JobResult::Bathtub { pairs, rendered }
    }

    /// The workload's rendered text (shmoo map, wafer map, eye tub, or
    /// sweep summary).
    pub fn rendered(&self) -> &str {
        match self {
            JobResult::Shmoo { rendered, .. }
            | JobResult::Wafer { rendered, .. }
            | JobResult::Eye { rendered, .. }
            | JobResult::Bathtub { rendered, .. } => rendered,
        }
    }

    /// Canonical encoding.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if a sequence length exceeds u32;
    /// [`FrameError::BadPayload`] for a wafer bin code above 2, which
    /// [`JobResult::decode`] would reject.
    pub fn encode(&self, w: &mut Writer) -> Result<(), FrameError> {
        self.encode_marked(w, |_| {})
    }

    /// [`JobResult::encode`], calling `mark` with the end offset (from the
    /// start of this result) of every stream chunk, in order: the
    /// preamble (tag and dimensions), each bulk slice — one shmoo
    /// pass-map row, one [`WAFER_STRIPE_RECORDS`]-die wafer stripe, one
    /// [`EYE_COLUMN_POINTS`]-strobe eye column, one
    /// [`BATHTUB_SEGMENT_PAIRS`]-pair bathtub segment — and the footer
    /// (trailing scalars and the rendering). The last mark is the
    /// result's length. [`JobResult::decode_marked`] reports the same
    /// offsets.
    pub(crate) fn encode_marked(
        &self,
        w: &mut Writer,
        mut mark: impl FnMut(usize),
    ) -> Result<(), FrameError> {
        let base = w.position();
        let mut cut = |w: &Writer| mark(w.position() - base);
        match self {
            JobResult::Shmoo { thresholds_mv, phases_fs, pass, rendered } => {
                w.u8(RESULT_SHMOO);
                w.count(thresholds_mv.len())?;
                for v in thresholds_mv {
                    w.i32(*v);
                }
                w.count(phases_fs.len())?;
                for p in phases_fs {
                    w.i64(*p);
                }
                w.count(pass.len())?;
                cut(w);
                for row in pass.chunks(shmoo_row(phases_fs.len())) {
                    for b in row {
                        w.bool(*b);
                    }
                    cut(w);
                }
                w.str(rendered)?;
            }
            JobResult::Wafer {
                records,
                touchdowns,
                injected_hard,
                injected_marginal,
                rendered,
            } => {
                w.u8(RESULT_WAFER);
                w.count(records.len())?;
                cut(w);
                for stripe in records.chunks(WAFER_STRIPE_RECORDS) {
                    for rec in stripe {
                        if rec.bin > MAX_BIN {
                            return Err(FrameError::BadPayload { context: "bin code" });
                        }
                        w.u32(rec.die);
                        w.u8(rec.bin);
                        w.u32(rec.bist_errors);
                        match rec.eye_ui {
                            Some(ui) => {
                                w.bool(true);
                                w.f64(ui);
                            }
                            None => w.bool(false),
                        }
                    }
                    cut(w);
                }
                w.u32(*touchdowns);
                w.u32(*injected_hard);
                w.u32(*injected_marginal);
                w.str(rendered)?;
            }
            JobResult::Eye { points, step_fs, rendered } => {
                w.u8(RESULT_EYE);
                w.count(points.len())?;
                cut(w);
                for column in points.chunks(EYE_COLUMN_POINTS) {
                    for (phase, compared, errors) in column {
                        w.i64(*phase);
                        w.u32(*compared);
                        w.u32(*errors);
                    }
                    cut(w);
                }
                w.i64(*step_fs);
                w.str(rendered)?;
            }
            JobResult::Bathtub { pairs, rendered } => {
                w.u8(RESULT_BATHTUB);
                w.count(pairs.len())?;
                cut(w);
                for segment in pairs.chunks(BATHTUB_SEGMENT_PAIRS) {
                    for (phase, ber) in segment {
                        w.f64(*phase);
                        w.f64(*ber);
                    }
                    cut(w);
                }
                w.str(rendered)?;
            }
        }
        cut(w);
        Ok(())
    }

    /// The result's canonical bytes — what cache-identity assertions
    /// compare.
    ///
    /// # Errors
    ///
    /// As [`JobResult::encode`].
    pub fn encoded(&self) -> Result<Vec<u8>, FrameError> {
        let mut w = Writer::new();
        self.encode(&mut w)?;
        Ok(w.finish())
    }

    /// Decodes one result.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation or an unknown result tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        JobResult::decode_marked(r, |_| {})
    }

    /// [`JobResult::decode`], calling `mark` with the end offset of every
    /// stream chunk exactly as [`JobResult::encode_marked`] does for the
    /// decoded result.
    pub(crate) fn decode_marked(
        r: &mut Reader<'_>,
        mut mark: impl FnMut(usize),
    ) -> Result<Self, FrameError> {
        let start = r.remaining();
        let mut cut = |r: &Reader<'_>| mark(start - r.remaining());
        let result = match r.u8()? {
            RESULT_SHMOO => {
                let n = r.count(4)?;
                let mut thresholds_mv = Vec::with_capacity(n);
                for _ in 0..n {
                    thresholds_mv.push(r.i32()?);
                }
                let n = r.count(8)?;
                let mut phases_fs = Vec::with_capacity(n);
                for _ in 0..n {
                    phases_fs.push(r.i64()?);
                }
                let n = r.count(1)?;
                cut(r);
                let mut pass = Vec::with_capacity(n);
                for row in groups(n, shmoo_row(phases_fs.len())) {
                    for _ in 0..row {
                        pass.push(r.bool()?);
                    }
                    cut(r);
                }
                JobResult::Shmoo { thresholds_mv, phases_fs, pass, rendered: r.str()? }
            }
            RESULT_WAFER => {
                let n = r.count(10)?;
                cut(r);
                let mut records = Vec::with_capacity(n);
                for stripe in groups(n, WAFER_STRIPE_RECORDS) {
                    for _ in 0..stripe {
                        let die = r.u32()?;
                        let bin = r.u8()?;
                        if bin > MAX_BIN {
                            return Err(FrameError::BadPayload { context: "bin code" });
                        }
                        let bist_errors = r.u32()?;
                        let eye_ui = if r.bool()? { Some(r.f64()?) } else { None };
                        records.push(WireDieRecord { die, bin, bist_errors, eye_ui });
                    }
                    cut(r);
                }
                JobResult::Wafer {
                    records,
                    touchdowns: r.u32()?,
                    injected_hard: r.u32()?,
                    injected_marginal: r.u32()?,
                    rendered: r.str()?,
                }
            }
            RESULT_EYE => {
                let n = r.count(16)?;
                cut(r);
                let mut points = Vec::with_capacity(n);
                for column in groups(n, EYE_COLUMN_POINTS) {
                    for _ in 0..column {
                        points.push((r.i64()?, r.u32()?, r.u32()?));
                    }
                    cut(r);
                }
                JobResult::Eye { points, step_fs: r.i64()?, rendered: r.str()? }
            }
            RESULT_BATHTUB => {
                let n = r.count(16)?;
                cut(r);
                let mut pairs = Vec::with_capacity(n);
                for segment in groups(n, BATHTUB_SEGMENT_PAIRS) {
                    for _ in 0..segment {
                        pairs.push((r.f64()?, r.f64()?));
                    }
                    cut(r);
                }
                JobResult::Bathtub { pairs, rendered: r.str()? }
            }
            _ => return Err(FrameError::BadPayload { context: "job result tag" }),
        };
        cut(r);
        Ok(result)
    }
}

/// Pass-map cells per shmoo stream chunk: one row, a full strobe sweep
/// at one threshold. A pass map that is not a whole number of rows ends
/// in a short chunk.
fn shmoo_row(phases: usize) -> usize {
    phases.max(1)
}

/// The sizes of the `size`-item groups `n` items split into, the last
/// one short — what `slice.chunks(size)` yields, by length.
fn groups(n: usize, size: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(size).map(move |start| size.min(n - start))
}

/// The service's cumulative counters, reported by
/// [`Response::StatsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs coalesced with an identical spec in the same drain.
    pub batched: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs whose execution failed.
    pub failed: u64,
    /// Connections the daemon has accepted.
    pub connections_opened: u64,
    /// Connections retired for any reason — clean peer close, shutdown,
    /// or a failed drop. `connections_opened - connections_closed` is
    /// the live connection count, so the two balance once every peer is
    /// gone.
    pub connections_closed: u64,
    /// Connections the daemon dropped on an error: an I/O failure, a
    /// peer vanishing mid-frame or mid-pipeline, or a slow-loris
    /// eviction.
    pub connections_failed: u64,
    /// Frames the daemon rejected as malformed (bad magic, unknown type,
    /// undecodable payload, truncated-then-closed).
    pub frames_rejected: u64,
    /// Jobs answered from the persistent store (an LRU miss served off
    /// disk instead of recomputed). Zero when no store is attached.
    pub store_hits: u64,
    /// LRU misses the persistent store also missed on, forcing a
    /// recompute. Zero when no store is attached.
    pub store_misses: u64,
    /// Records the persistent store recovered from disk when it opened —
    /// the warm set a restarted head rehydrates from.
    pub store_recovered: u64,
    /// Configured queue capacity.
    pub queue_capacity: u32,
    /// Configured cache capacity in entries.
    pub cache_capacity: u32,
}

impl ServiceStats {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.submitted);
        w.u64(self.completed);
        w.u64(self.cache_hits);
        w.u64(self.batched);
        w.u64(self.shed);
        w.u64(self.failed);
        w.u64(self.connections_opened);
        w.u64(self.connections_closed);
        w.u64(self.connections_failed);
        w.u64(self.frames_rejected);
        w.u64(self.store_hits);
        w.u64(self.store_misses);
        w.u64(self.store_recovered);
        w.u32(self.queue_capacity);
        w.u32(self.cache_capacity);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(ServiceStats {
            submitted: r.u64()?,
            completed: r.u64()?,
            cache_hits: r.u64()?,
            batched: r.u64()?,
            shed: r.u64()?,
            failed: r.u64()?,
            connections_opened: r.u64()?,
            connections_closed: r.u64()?,
            connections_failed: r.u64()?,
            frames_rejected: r.u64()?,
            store_hits: r.u64()?,
            store_misses: r.u64()?,
            store_recovered: r.u64()?,
            queue_capacity: r.u32()?,
            cache_capacity: r.u32()?,
        })
    }
}

/// A client-to-service message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the token comes back in the [`Response::Pong`].
    Ping {
        /// Echo token.
        token: u64,
    },
    /// Ask for the service counters.
    GetStats,
    /// Submit one job under a session.
    Submit {
        /// Session the job belongs to (fairness unit).
        session: u32,
        /// The job.
        spec: JobSpec,
    },
    /// Ask the daemon to stop serving after replying.
    Shutdown,
}

impl Request {
    fn parts(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let ty = match self {
            Request::Ping { token } => {
                w.u64(*token);
                msg::PING
            }
            Request::GetStats => msg::GET_STATS,
            Request::Submit { session, spec } => {
                w.u32(*session);
                spec.encode(&mut w);
                msg::SUBMIT
            }
            Request::Shutdown => msg::SHUTDOWN,
        };
        (ty, w.finish())
    }

    /// Encodes the request as one frame under `correlation`. Every
    /// request frame is `FINAL` (requests never stream).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the payload exceeds the frame
    /// ceiling, [`FrameError::BadPayload`] if `correlation` is the
    /// reserved [`FAILURE_ID`].
    pub fn to_frame2(&self, correlation: u64) -> Result<Vec<u8>, FrameError> {
        if correlation == FAILURE_ID {
            return Err(FrameError::BadPayload {
                context: "correlation id collides with the reserved failure id",
            });
        }
        let (ty, payload) = self.parts();
        wire::encode_frame2(ty, wire::flag::FINAL, correlation, &payload)
    }

    /// Decodes a request from an already-split `(type, payload)` pair.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; response-type codes arriving here are
    /// [`FrameError::UnknownType`].
    pub fn from_parts(ty: u8, payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(payload);
        let req = match ty {
            msg::PING => Request::Ping { token: r.u64()? },
            msg::GET_STATS => Request::GetStats,
            msg::SUBMIT => Request::Submit { session: r.u32()?, spec: JobSpec::decode(&mut r)? },
            msg::SHUTDOWN => Request::Shutdown,
            code => return Err(FrameError::UnknownType { code }),
        };
        r.expect_end()?;
        Ok(req)
    }
}

/// A service-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The probe's token, returned verbatim.
        token: u64,
    },
    /// The service counters.
    StatsReport(ServiceStats),
    /// Admission control shed the submission; nothing was enqueued.
    Busy {
        /// Jobs currently queued.
        queue_depth: u32,
        /// The queue's capacity.
        queue_capacity: u32,
    },
    /// The job was accepted but failed during execution.
    Failed {
        /// The job's admission ticket.
        ticket: u64,
        /// The failure, rendered.
        message: String,
    },
    /// The daemon acknowledges shutdown.
    Goodbye,
    /// One slice of a streamed result: a contiguous byte range of
    /// the result's canonical encoding. Concatenating a correlation's
    /// chunks in `seq` order reproduces the monolithic
    /// [`JobResult::encoded`] bytes exactly.
    Chunk {
        /// Zero-based position of this slice in the stream.
        seq: u32,
        /// The slice's bytes.
        bytes: Vec<u8>,
    },
    /// Terminal frame of a streamed result; carries everything a
    /// client needs to verify the reassembly before decoding it.
    Summary {
        /// The job's admission ticket.
        ticket: u64,
        /// How the result was produced.
        provenance: Provenance,
        /// How many chunks the stream held.
        chunks: u32,
        /// Total bytes across all chunks.
        total_bytes: u64,
        /// [`crate::stream::StreamDigest`] of the concatenated chunk bytes.
        digest: u64,
    },
}

impl Response {
    fn parts(&self) -> Result<(u8, Vec<u8>), FrameError> {
        let mut w = Writer::new();
        let ty = match self {
            Response::Pong { token } => {
                w.u64(*token);
                msg::PONG
            }
            Response::StatsReport(stats) => {
                stats.encode(&mut w);
                msg::STATS_REPORT
            }
            Response::Busy { queue_depth, queue_capacity } => {
                w.u32(*queue_depth);
                w.u32(*queue_capacity);
                msg::BUSY
            }
            Response::Failed { ticket, message } => {
                w.u64(*ticket);
                w.str(message)?;
                msg::FAILED
            }
            Response::Goodbye => msg::GOODBYE,
            Response::Chunk { seq, bytes } => {
                w.u32(*seq);
                w.bytes(bytes);
                msg::CHUNK
            }
            Response::Summary { ticket, provenance, chunks, total_bytes, digest } => {
                w.u64(*ticket);
                w.u8(provenance.code());
                w.u32(*chunks);
                w.u64(*total_bytes);
                w.u64(*digest);
                msg::SUMMARY
            }
        };
        Ok((ty, w.finish()))
    }

    /// Encodes the response as one frame under `correlation`.
    /// `Chunk` responses get the `CHUNK` flag; everything else is
    /// `FINAL`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the payload exceeds the frame ceiling.
    pub fn to_frame2(&self, correlation: u64) -> Result<Vec<u8>, FrameError> {
        let flags = if matches!(self, Response::Chunk { .. }) {
            wire::flag::CHUNK
        } else {
            wire::flag::FINAL
        };
        let (ty, payload) = self.parts()?;
        wire::encode_frame2(ty, flags, correlation, &payload)
    }

    /// Decodes a response from an already-split `(type, payload)` pair.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; request-type codes arriving here are
    /// [`FrameError::UnknownType`].
    pub fn from_parts(ty: u8, payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(payload);
        let resp = match ty {
            msg::PONG => Response::Pong { token: r.u64()? },
            msg::STATS_REPORT => Response::StatsReport(ServiceStats::decode(&mut r)?),
            msg::BUSY => Response::Busy { queue_depth: r.u32()?, queue_capacity: r.u32()? },
            msg::FAILED => Response::Failed { ticket: r.u64()?, message: r.str()? },
            msg::GOODBYE => Response::Goodbye,
            msg::CHUNK => Response::Chunk { seq: r.u32()?, bytes: r.take_rest().to_vec() },
            msg::SUMMARY => Response::Summary {
                ticket: r.u64()?,
                provenance: Provenance::decode(r.u8()?)?,
                chunks: r.u32()?,
                total_bytes: r.u64()?,
                digest: r.u64()?,
            },
            code => return Err(FrameError::UnknownType { code }),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_specs() -> Vec<JobSpec> {
        vec![
            JobSpec::shmoo(DataRate::from_gbps(2.5), 256, 17, &minitester::ShmooConfig::pecl(), 5),
            JobSpec::wafer(&minitester::WaferRunConfig::default()),
            JobSpec::eye(DataRate::from_gbps(2.5), 512, 21, 9),
            JobSpec::bathtub(
                Duration::from_ps_f64(3.2),
                Duration::from_ps(20),
                DataRate::from_gbps(2.5),
                0.5,
                101,
            ),
        ]
    }

    #[test]
    fn specs_round_trip() {
        for spec in sample_specs() {
            let bytes = spec.key_bytes();
            let mut r = Reader::new(&bytes);
            let back = JobSpec::decode(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, spec);
            assert!(!spec.kind().is_empty());
        }
    }

    #[test]
    fn shard_specs_round_trip() {
        for spec in sample_specs() {
            let Some(extent) = spec.shard_extent() else {
                assert_eq!(spec.kind(), "bathtub");
                assert!(spec.slice(0, 1).is_none());
                continue;
            };
            assert!(extent >= 1, "{spec:?}");
            for (start, count) in [(0, extent), (0, 1), (extent - 1, 1), (extent / 2, 1)] {
                let sub = spec.slice(start, count).expect("in-range slice");
                assert!(sub.validate().is_ok(), "{sub:?}");
                assert_eq!(sub.parent(), Some(spec), "{sub:?}");
                assert!(sub.shard_extent().is_none(), "a slice does not slice again");
                let bytes = sub.key_bytes();
                let mut r = Reader::new(&bytes);
                assert_eq!(JobSpec::decode(&mut r).unwrap(), sub);
                r.expect_end().unwrap();
                assert!(!sub.kind().is_empty());
            }
            // The range grammar: empty, overrunning, and overflowing
            // slices do not exist.
            assert!(spec.slice(0, 0).is_none());
            assert!(spec.slice(extent, 1).is_none());
            assert!(spec.slice(0, extent + 1).is_none());
            assert!(spec.slice(u64::MAX, 2).is_none());
        }
    }

    /// A shmoo, a wafer and an eye spec at `rate_bps` with a `bits`-long
    /// stimulus, each followed by its first-band shard variant.
    fn instrument_specs(rate_bps: u64, bits: u32) -> Vec<JobSpec> {
        let rate = DataRate::from_bps(rate_bps);
        let parents = [
            JobSpec::shmoo(rate, bits, 17, &minitester::ShmooConfig::pecl(), 5),
            JobSpec::wafer(&minitester::WaferRunConfig {
                rate,
                test_bits: usize::try_from(bits).unwrap(),
                ..minitester::WaferRunConfig::default()
            }),
            JobSpec::eye(rate, bits, 21, 9),
        ];
        parents.into_iter().flat_map(|p| [p, p.shard(0, 1).unwrap()]).collect()
    }

    /// `validate` rejects `spec` as `context`, and `execute` returns the
    /// same error. A `Frame` error can only come from the `validate` call
    /// that opens `execute`, so no datapath or tester was booted.
    fn rejected_before_boot(spec: &JobSpec, context: &'static str) {
        let want = FrameError::BadPayload { context };
        assert_eq!(spec.validate(), Err(want.clone()), "{spec:?}");
        match crate::workload::execute(spec, &exec::ExecPool::serial()) {
            Err(crate::AtdError::Frame(got)) => assert_eq!(got, want, "{spec:?}"),
            other => panic!("{spec:?}: expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn rates_above_the_pecl_chains_limit_are_rejected_before_boot() {
        for spec in instrument_specs(6_000_000_000, 256) {
            rejected_before_boot(&spec, "data rate above the PECL chain's limit");
        }
        for spec in instrument_specs(5_000_000_000, 256) {
            assert_eq!(spec.validate(), Ok(()), "5 Gbps is the chain's own limit: {spec:?}");
        }
    }

    #[test]
    fn rates_above_16_lanes_of_dlc_pins_are_rejected_before_boot() {
        for spec in instrument_specs(20_000_000_000, 256) {
            rejected_before_boot(&spec, "data rate above the DLC pins' per-lane limit");
        }
    }

    #[test]
    fn stimulus_lengths_off_the_16_lanes_are_rejected_before_boot() {
        for spec in instrument_specs(GBPS, 100) {
            rejected_before_boot(
                &spec,
                "stimulus length must be a positive multiple of the 16 lanes",
            );
        }
    }

    #[test]
    fn wafer_plans_below_64_bits_are_rejected_before_boot() {
        let specs = instrument_specs(GBPS, 48);
        for spec in specs.iter().filter(|s| matches!(s.kind(), "wafer" | "wafer-dies")) {
            rejected_before_boot(spec, "need at least 64 bits");
        }
        // A 48-bit shmoo or eye stimulus has no such floor.
        for spec in specs.iter().filter(|s| !matches!(s.kind(), "wafer" | "wafer-dies")) {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn out_of_range_shard_specs_rejected_on_decode() {
        let overruns =
            FrameError::BadPayload { context: "shard range overruns the parent spec's extent" };
        let cases = [
            (
                JobSpec::ShmooRows {
                    rate_bps: GBPS,
                    bits: 256,
                    stim_seed: 17,
                    phase_step_fs: 10_000_000,
                    v_start_mv: -1650,
                    v_end_mv: -950,
                    v_step_mv: 50,
                    seed: 5,
                    row_start: 14,
                    row_count: 2, // 15-row sweep: overruns by one
                },
                overruns.clone(),
            ),
            (
                JobSpec::WaferDies {
                    columns: 8,
                    dies: 64,
                    sites: 16,
                    hard_defect_rate: 0.06,
                    marginal_rate: 0.08,
                    rate_bps: GBPS,
                    test_bits: 512,
                    seed: 1,
                    die_start: 0,
                    die_count: 0, // empty range
                },
                FrameError::BadPayload { context: "shard range must be non-empty" },
            ),
            (
                JobSpec::EyeRange {
                    rate_bps: GBPS,
                    bits: 512,
                    stim_seed: 21,
                    seed: 9,
                    phase_start: 40, // 40-step scan: starts past the end
                    phase_count: 1,
                },
                overruns,
            ),
            (
                JobSpec::EyeRange {
                    // Bad parent (zero rate) embedded in a shard variant.
                    rate_bps: 0,
                    bits: 512,
                    stim_seed: 21,
                    seed: 9,
                    phase_start: 0,
                    phase_count: 1,
                },
                FrameError::BadPayload { context: "data rate below the 1 Mb/s service minimum" },
            ),
        ];
        for (spec, err) in cases {
            assert_eq!(spec.validate(), Err(err.clone()), "{spec:?}");
            let bytes = spec.key_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(JobSpec::decode(&mut r), Err(err), "{spec:?}");
        }
    }

    #[test]
    fn eye_step_constant_matches_the_vernier() {
        let capture = minitester::EtCapture::new();
        assert_eq!(capture.vernier().step().as_fs(), EYE_STEP_FS);
    }

    const GBPS: u64 = 2_500_000_000;

    fn pecl_shmoo() -> JobSpec {
        JobSpec::shmoo(DataRate::from_gbps(2.5), 256, 17, &minitester::ShmooConfig::pecl(), 5)
    }

    #[test]
    fn invalid_specs_rejected() {
        let cases = [
            JobSpec::Shmoo {
                rate_bps: 0,
                bits: 1,
                stim_seed: 0,
                phase_step_fs: 1,
                v_start_mv: 0,
                v_end_mv: 0,
                v_step_mv: 1,
                seed: 0,
            },
            JobSpec::Wafer {
                columns: 1,
                dies: 1,
                sites: 0,
                hard_defect_rate: 0.0,
                marginal_rate: 0.0,
                rate_bps: GBPS,
                test_bits: 1,
                seed: 0,
            },
            JobSpec::Wafer {
                columns: 1,
                dies: 1,
                sites: 1,
                hard_defect_rate: f64::NAN,
                marginal_rate: 0.0,
                rate_bps: GBPS,
                test_bits: 1,
                seed: 0,
            },
            JobSpec::Eye { rate_bps: 0, bits: 1, stim_seed: 0, seed: 0 },
            JobSpec::Bathtub {
                rj_rms_fs: -1,
                dj_pp_fs: 0,
                rate_bps: GBPS,
                transition_density: 0.5,
                points: 2,
            },
            JobSpec::Bathtub {
                rj_rms_fs: 0,
                dj_pp_fs: 0,
                rate_bps: GBPS,
                transition_density: 0.0,
                points: 2,
            },
        ];
        for spec in cases {
            assert!(spec.validate().is_err(), "{spec:?}");
            // The same rejection fires on the decode path.
            let bytes = spec.key_bytes();
            let mut r = Reader::new(&bytes);
            assert!(JobSpec::decode(&mut r).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn hostile_magnitude_specs_rejected() {
        // Every case is well-formed on the wire but describes work that
        // would pin the daemon (or overflow a workload constructor);
        // validation must shed each one as a typed BadPayload.
        let cases = [
            // The reviewer repro: a voltage sweep spanning the whole i32
            // range used to pass validation and overflow (or OOM) inside
            // ShmooConfig::voltage_points.
            JobSpec::Shmoo {
                rate_bps: GBPS,
                bits: 256,
                stim_seed: 0,
                phase_step_fs: 400_000,
                v_start_mv: i32::MIN + 1,
                v_end_mv: i32::MAX - 1,
                v_step_mv: 1,
                seed: 0,
            },
            // Femtosecond strobe steps over a full UI: ~4e8 grid columns.
            JobSpec::Shmoo {
                rate_bps: GBPS,
                bits: 256,
                stim_seed: 0,
                phase_step_fs: 1,
                v_start_mv: -1650,
                v_end_mv: -950,
                v_step_mv: 50,
                seed: 0,
            },
            // Inverted and zero-step sweeps, previously only caught deep in
            // the workload.
            JobSpec::Shmoo {
                rate_bps: GBPS,
                bits: 256,
                stim_seed: 0,
                phase_step_fs: 400_000,
                v_start_mv: -950,
                v_end_mv: -1650,
                v_step_mv: 50,
                seed: 0,
            },
            JobSpec::Shmoo {
                rate_bps: GBPS,
                bits: 256,
                stim_seed: 0,
                phase_step_fs: 0,
                v_start_mv: -1650,
                v_end_mv: -950,
                v_step_mv: 50,
                seed: 0,
            },
            // Multi-gigabit pattern memory.
            JobSpec::Shmoo {
                rate_bps: GBPS,
                bits: u32::MAX,
                stim_seed: 0,
                phase_step_fs: 400_000,
                v_start_mv: -1650,
                v_end_mv: -950,
                v_step_mv: 50,
                seed: 0,
            },
            // rate_bps = 1 gives a ~1e8-step eye scan.
            JobSpec::Eye { rate_bps: 1, bits: 256, stim_seed: 0, seed: 0 },
            JobSpec::Eye { rate_bps: GBPS, bits: u32::MAX, stim_seed: 0, seed: 0 },
            // 4 G dies, each booting a full MiniTester.
            JobSpec::Wafer {
                columns: 64,
                dies: u32::MAX,
                sites: 16,
                hard_defect_rate: 0.0,
                marginal_rate: 0.0,
                rate_bps: GBPS,
                test_bits: 256,
                seed: 0,
            },
            JobSpec::Wafer {
                columns: 64,
                dies: 64,
                sites: u32::MAX,
                hard_defect_rate: 0.0,
                marginal_rate: 0.0,
                rate_bps: GBPS,
                test_bits: 256,
                seed: 0,
            },
            JobSpec::Wafer {
                columns: 64,
                dies: 64,
                sites: 16,
                hard_defect_rate: 0.0,
                marginal_rate: 0.0,
                rate_bps: GBPS,
                test_bits: u32::MAX,
                seed: 0,
            },
            JobSpec::Bathtub {
                rj_rms_fs: 3_200,
                dj_pp_fs: 20_000,
                rate_bps: GBPS,
                transition_density: 0.5,
                points: u32::MAX,
            },
        ];
        for spec in cases {
            assert!(matches!(spec.validate(), Err(FrameError::BadPayload { .. })), "{spec:?}");
            // The same rejection fires on the decode path, so a hostile
            // frame never reaches the scheduler.
            let bytes = spec.key_bytes();
            let mut r = Reader::new(&bytes);
            assert!(JobSpec::decode(&mut r).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn magnitude_caps_are_inclusive() {
        // Specs sitting exactly on the ceilings are still valid work.
        let at_cap = [
            pecl_shmoo(),
            JobSpec::Eye {
                rate_bps: limits::MIN_RATE_BPS,
                bits: limits::MAX_BITS,
                stim_seed: 0,
                seed: 0,
            },
            JobSpec::Wafer {
                columns: 128,
                dies: limits::MAX_DIES,
                sites: limits::MAX_DIES,
                hard_defect_rate: 0.02,
                marginal_rate: 0.05,
                rate_bps: limits::MIN_RATE_BPS,
                test_bits: limits::MAX_BITS,
                seed: 0,
            },
            JobSpec::Bathtub {
                rj_rms_fs: 3_200,
                dj_pp_fs: 20_000,
                rate_bps: limits::MIN_RATE_BPS,
                transition_density: 1.0,
                points: limits::MAX_SWEEP_POINTS,
            },
        ];
        for spec in at_cap {
            assert!(spec.validate().is_ok(), "{spec:?}");
        }
    }

    fn request_from_frame(frame: &[u8]) -> Result<Request, FrameError> {
        let (header, payload) = wire::decode_frame2(frame)?;
        Request::from_parts(header.msg_type, payload)
    }

    fn response_from_frame(frame: &[u8]) -> Result<Response, FrameError> {
        let (header, payload) = wire::decode_frame2(frame)?;
        Response::from_parts(header.msg_type, payload)
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping { token: 0xFEED_FACE },
            Request::GetStats,
            Request::Submit { session: 3, spec: sample_specs().remove(0) },
            Request::Shutdown,
        ];
        for req in requests {
            let frame = req.to_frame2(1).unwrap();
            assert_eq!(request_from_frame(&frame).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Pong { token: 7 },
            Response::StatsReport(ServiceStats {
                submitted: 10,
                completed: 8,
                cache_hits: 4,
                batched: 1,
                shed: 1,
                failed: 1,
                connections_opened: 6,
                connections_closed: 4,
                connections_failed: 2,
                frames_rejected: 3,
                store_hits: 5,
                store_misses: 2,
                store_recovered: 9,
                queue_capacity: 256,
                cache_capacity: 64,
            }),
            Response::Busy { queue_depth: 256, queue_capacity: 256 },
            Response::Failed { ticket: 42, message: "eye completely closed".to_string() },
            Response::Goodbye,
        ];
        for resp in responses {
            let frame = resp.to_frame2(FAILURE_ID).unwrap();
            assert_eq!(response_from_frame(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn streaming_responses_round_trip_on_thp2_only() {
        let chunk = Response::Chunk { seq: 3, bytes: vec![0xAB, 0, 0xCD] };
        let summary = Response::Summary {
            ticket: 12,
            provenance: Provenance::Computed,
            chunks: 4,
            total_bytes: 4096,
            digest: 0x1234_5678_9ABC_DEF0,
        };
        for resp in [chunk.clone(), summary.clone()] {
            let frame = resp.to_frame2(77).unwrap();
            let (header, payload) = wire::decode_frame2(&frame).unwrap();
            assert_eq!(header.correlation, 77);
            assert_eq!(Response::from_parts(header.msg_type, payload).unwrap(), resp);
        }
        // Flag assignment: chunks stream, summaries terminate.
        let (h, _) = wire::decode_frame2(&chunk.to_frame2(1).unwrap()).unwrap();
        assert_eq!(h.flags, wire::flag::CHUNK);
        let (h, _) = wire::decode_frame2(&summary.to_frame2(1).unwrap()).unwrap();
        assert_eq!(h.flags, wire::flag::FINAL);
    }

    #[test]
    fn thp2_request_framing_round_trips_and_reserves_the_failure_id() {
        let requests = vec![
            Request::Ping { token: 0xFEED_FACE },
            Request::GetStats,
            Request::Submit { session: 3, spec: sample_specs().remove(0) },
            Request::Shutdown,
        ];
        for req in requests {
            let frame = req.to_frame2(41).unwrap();
            let (header, payload) = wire::decode_frame2(&frame).unwrap();
            assert_eq!(header.correlation, 41);
            assert_eq!(header.flags, wire::flag::FINAL);
            assert_eq!(Request::from_parts(header.msg_type, payload).unwrap(), req);
            assert!(matches!(req.to_frame2(FAILURE_ID), Err(FrameError::BadPayload { .. })));
        }
    }

    #[test]
    fn request_decoder_rejects_response_codes_and_vice_versa() {
        let frame = Response::Goodbye.to_frame2(1).unwrap();
        assert!(matches!(request_from_frame(&frame), Err(FrameError::UnknownType { .. })));
        let frame = Request::GetStats.to_frame2(1).unwrap();
        assert!(matches!(response_from_frame(&frame), Err(FrameError::UnknownType { .. })));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut w = Writer::new();
        w.u64(1);
        w.u8(0xCC); // one byte too many for a Ping
        let frame = wire::encode_frame2(msg::PING, wire::flag::FINAL, 1, &w.finish()).unwrap();
        assert!(matches!(request_from_frame(&frame), Err(FrameError::TrailingBytes { .. })));
    }

    #[test]
    fn all_results_round_trip() {
        let results = vec![
            JobResult::Shmoo {
                thresholds_mv: vec![-1650, -1600],
                phases_fs: vec![0, 10_000_000],
                pass: vec![true, false, false, true],
                rendered: "shmoo".to_string(),
            },
            JobResult::Wafer {
                records: vec![
                    WireDieRecord { die: 0, bin: 0, bist_errors: 0, eye_ui: Some(0.875) },
                    WireDieRecord { die: 1, bin: 1, bist_errors: 120, eye_ui: None },
                ],
                touchdowns: 2,
                injected_hard: 1,
                injected_marginal: 0,
                rendered: ". X\nyield 50.0%".to_string(),
            },
            JobResult::Bathtub {
                pairs: vec![(0.0, 0.25), (0.5, 1e-15), (1.0, 0.25)],
                rendered: "bathtub sweep: 3 points".to_string(),
            },
        ];
        for result in results {
            let bytes = result.encoded().unwrap();
            let mut r = Reader::new(&bytes);
            let back = JobResult::decode(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, result);
            assert!(!result.rendered().is_empty());
        }
    }
}
