//! Reaches `Meter::reading` by method-call syntax only.

/// Reads a meter.
pub(crate) fn read(m: &super::Meter) -> u32 {
    m.reading()
}
