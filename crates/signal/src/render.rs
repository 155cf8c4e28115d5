//! ASCII rendering of eye diagrams.
//!
//! The paper's figures are oscilloscope photographs; the closest honest
//! equivalent in a terminal is an ASCII persistence plot. Examples and bench
//! reports use these renderers so a human can eyeball "that's an open eye at
//! 2.5 Gbps" the same way the paper's readers do.

use crate::eye::EyeRaster;

/// Density ramp used for persistence plots, dimmest to brightest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders an [`EyeRaster`] as an ASCII persistence plot, one character per
/// cell, brightness proportional to hit density.
///
/// # Examples
///
/// ```
/// use pstime::DataRate;
/// use signal::jitter::NoJitter;
/// use signal::render::render_eye;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, EyeRaster, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let d = DigitalWaveform::from_bits(&BitStream::alternating(64), rate, &NoJitter, 0);
/// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// let txt = render_eye(&EyeRaster::build(&a, rate, 60, 16));
/// assert!(txt.lines().count() >= 16);
/// ```
pub fn render_eye(raster: &EyeRaster) -> String {
    let peak = raster.peak_count().max(1);
    let mut out = String::with_capacity((raster.cols() + 3) * (raster.rows() + 2));
    let (v_lo, v_hi) = raster.voltage_range();
    out.push_str(&format!(
        "eye persistence plot (2 UI = {} wide, {:.0}..{:.0} mV)\n",
        raster.unit_interval() * 2,
        v_lo,
        v_hi
    ));
    for row in 0..raster.rows() {
        out.push('|');
        for col in 0..raster.cols() {
            let c = raster.count(row, col);
            let idx = if c == 0 {
                0
            } else {
                1 + ((c - 1) as usize * (RAMP.len() - 2) / peak as usize).min(RAMP.len() - 2)
            };
            out.push(RAMP[idx] as char);
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::NoJitter;
    use crate::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, EyeRaster, LevelSet};
    use pstime::DataRate;

    fn sample_wave() -> (AnalogWaveform, DataRate) {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::alternating(32), rate, &NoJitter, 0);
        (AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default()), rate)
    }

    #[test]
    fn eye_render_dimensions() {
        let (a, rate) = sample_wave();
        let raster = EyeRaster::build(&a, rate, 40, 12);
        let txt = render_eye(&raster);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 13); // header + 12 rows
        assert!(lines[1].len() >= 42);
        assert!(txt.contains('@') || txt.contains('#') || txt.contains('%'));
    }
}
