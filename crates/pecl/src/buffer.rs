//! Output buffers: SiGe drivers and CMOS I/O buffers.
//!
//! "These fast transition times were produced using silicon germanium
//! (SiGe) buffers in the final output stage" (§3, 70–75 ps measured 20–80 %
//! rise). The mini-tester's final I/O buffers are slower: "the rise time of
//! the I/O buffers, measured at 120 ps for 20 % to 80 %, begins to limit
//! amplitude swing" at 5 Gbps (§4).

use pstime::Duration;
use signal::{EdgeShape, LevelSet};

/// A SiGe differential output buffer: fast edges, very low added jitter,
/// programmable output levels.
///
/// # Examples
///
/// ```
/// use pecl::SiGeOutputBuffer;
/// use pstime::Duration;
///
/// let buf = SiGeOutputBuffer::new();
/// assert_eq!(buf.shape().rise_2080(), Duration::from_ps(72));
/// assert!(buf.added_rj() < Duration::from_ps(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SiGeOutputBuffer {
    shape: EdgeShape,
    added_rj: Duration,
    levels: LevelSet,
}

impl SiGeOutputBuffer {
    /// The paper's output stage: 72 ps rise / 73 ps fall (the measured
    /// "70 to 75 ps" band), 0.5 ps added RJ, standard PECL levels.
    pub fn new() -> Self {
        SiGeOutputBuffer {
            shape: EdgeShape::from_rise_fall_2080_ps(72.0, 73.0),
            added_rj: Duration::from_ps_f64(0.5),
            levels: LevelSet::pecl(),
        }
    }

    /// Customizes the output levels (driven by the tuning DACs).
    #[must_use]
    pub fn with_levels(mut self, levels: LevelSet) -> Self {
        self.levels = levels;
        self
    }

    /// The transition shape.
    pub fn shape(&self) -> &EdgeShape {
        &self.shape
    }

    /// Random jitter the buffer adds.
    pub fn added_rj(&self) -> Duration {
        self.added_rj
    }

    /// The programmed output levels.
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Reprograms the output levels in place (the DAC write path).
    pub fn set_levels(&mut self, levels: LevelSet) {
        self.levels = levels;
    }
}

impl Default for SiGeOutputBuffer {
    fn default() -> Self {
        SiGeOutputBuffer::new()
    }
}

/// The mini-tester's final CMOS-compatible I/O buffer: 120 ps 20–80 %
/// transitions, slightly more added jitter than SiGe.
#[derive(Debug, Clone, PartialEq)]
pub struct CmosIoBuffer {
    shape: EdgeShape,
    added_rj: Duration,
    levels: LevelSet,
}

impl CmosIoBuffer {
    /// The measured mini-tester buffer: 120 ps 20–80 %, 1 ps added RJ.
    pub fn new() -> Self {
        CmosIoBuffer {
            shape: EdgeShape::from_rise_2080_ps(120.0),
            added_rj: Duration::from_ps(1),
            levels: LevelSet::pecl(),
        }
    }

    /// The transition shape.
    pub fn shape(&self) -> &EdgeShape {
        &self.shape
    }

    /// Random jitter the buffer adds.
    pub fn added_rj(&self) -> Duration {
        self.added_rj
    }

    /// The programmed output levels.
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Customizes the output levels.
    #[must_use]
    pub fn with_levels(mut self, levels: LevelSet) -> Self {
        self.levels = levels;
        self
    }
}

impl Default for CmosIoBuffer {
    fn default() -> Self {
        CmosIoBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::Millivolts;

    #[test]
    fn sige_buffer_matches_fig6() {
        let buf = SiGeOutputBuffer::new();
        let rise = buf.shape().rise_2080().as_ps_f64();
        let fall = buf.shape().fall_2080().as_ps_f64();
        assert!((70.0..=75.0).contains(&rise), "rise {rise}");
        assert!((70.0..=75.0).contains(&fall), "fall {fall}");
        assert!(buf.added_rj() <= Duration::from_ps(1));
        assert_eq!(buf.levels().swing(), Millivolts::new(800));
        assert_eq!(SiGeOutputBuffer::default(), SiGeOutputBuffer::new());
    }

    #[test]
    fn cmos_buffer_matches_fig18() {
        let buf = CmosIoBuffer::new();
        assert_eq!(buf.shape().rise_2080(), Duration::from_ps(120));
        assert!(buf.added_rj() >= SiGeOutputBuffer::new().added_rj());
        assert_eq!(CmosIoBuffer::default(), CmosIoBuffer::new());
    }

    #[test]
    fn level_programming() {
        let mut buf = SiGeOutputBuffer::new();
        let reduced = LevelSet::pecl().with_voh(Millivolts::new(-1000));
        buf.set_levels(reduced);
        assert_eq!(buf.levels().voh(), Millivolts::new(-1000));
        let buf2 = SiGeOutputBuffer::new().with_levels(reduced);
        assert_eq!(buf2.levels(), buf.levels());
        let cmos = CmosIoBuffer::new().with_levels(reduced);
        assert_eq!(cmos.levels().voh(), Millivolts::new(-1000));
    }
}
