//! FLASH configuration memory and FPGA bitstreams.
//!
//! §2 of the paper: "a FLASH memory \[stores\] the FPGA programming
//! information. The FLASH is programmed from a personal computer through an
//! IEEE 1149.1 (boundary scan) interface. Once programmed, it loads the
//! personalization data to the FPGA upon power-up. The program can be
//! changed by overwriting the FLASH."
//!
//! The [`Bitstream`] here is a simplified but structurally honest Virtex-II
//! style image: sync word, device ID, payload frames, and a CRC — enough to
//! exercise the real failure modes (blank flash, truncated image, bit rot
//! detected by CRC).

use core::fmt;

use crate::{DlcError, Result};

/// Sync word opening a valid bitstream (the Virtex-II value).
const SYNC_WORD: u32 = 0xAA99_5566;

/// Device ID the example DLC expects (stand-in for the XC2V1000 IDCODE).
pub const DEVICE_ID: u32 = 0x0102_8093;

/// An FPGA configuration image: sync word, target device, payload frames,
/// and a CRC-32 over the payload.
///
/// # Examples
///
/// ```
/// use dlc::Bitstream;
///
/// let bs = Bitstream::example_design();
/// assert!(bs.verify().is_ok());
/// assert_eq!(bs.device_id(), dlc::flash::DEVICE_ID);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    device_id: u32,
    frames: Vec<u32>,
    crc: u32,
}

impl Bitstream {
    /// Assembles a bitstream for `device_id` from payload `frames`,
    /// computing the CRC.
    pub fn new(device_id: u32, frames: Vec<u32>) -> Self {
        let crc = crc32(&frames);
        Bitstream { device_id, frames, crc }
    }

    /// The configuration image of the example DLC design used throughout
    /// this reproduction (pattern engines + USB register bridge).
    pub fn example_design() -> Self {
        // A deterministic pseudo-payload standing in for the real frames.
        let frames: Vec<u32> =
            (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A).collect();
        Bitstream::new(DEVICE_ID, frames)
    }

    /// The target device ID.
    pub fn device_id(&self) -> u32 {
        self.device_id
    }

    /// Checks internal consistency (CRC over the frames).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] when the stored CRC does not match.
    pub fn verify(&self) -> Result<()> {
        if self.frames.is_empty() {
            return Err(DlcError::InvalidBitstream { reason: "no payload frames" });
        }
        if crc32(&self.frames) != self.crc {
            return Err(DlcError::InvalidBitstream { reason: "CRC mismatch" });
        }
        Ok(())
    }

    /// Serializes to the word format stored in FLASH:
    /// `[SYNC, device_id, len, frames…, crc]`.
    pub fn to_words(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(self.frames.len() + 4);
        words.push(SYNC_WORD);
        words.push(self.device_id);
        words.push(self.frames.len() as u32);
        words.extend_from_slice(&self.frames);
        words.push(self.crc);
        words
    }

    /// Parses a word image as read back from FLASH.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] on a missing sync word, truncated
    /// image, or CRC failure.
    pub fn from_words(words: &[u32]) -> Result<Self> {
        if words.len() < 4 {
            return Err(DlcError::InvalidBitstream { reason: "image too short" });
        }
        if words[0] != SYNC_WORD {
            return Err(DlcError::InvalidBitstream { reason: "missing sync word" });
        }
        let device_id = words[1];
        let len = words[2] as usize;
        if words.len() != len + 4 {
            return Err(DlcError::InvalidBitstream { reason: "length field mismatch" });
        }
        let frames = words[3..3 + len].to_vec(); // xlint::allow(panic-reachable, the length-field guard above pins words.len() to exactly len + 4)
        let crc = words[3 + len];
        let bs = Bitstream { device_id, frames, crc };
        bs.verify()?;
        Ok(bs)
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bitstream for device {:#010x}: {} frames, crc {:#010x}",
            self.device_id,
            self.frames.len(),
            self.crc
        )
    }
}

/// The DLC's configuration FLASH: sector-erased, word-programmed NOR flash.
///
/// Programming follows real NOR semantics: bits can only be cleared by
/// programming; returning them to 1 requires a sector erase. The JTAG layer
/// drives [`erase_all`](FlashMemory::erase_all) then
/// [`program`](FlashMemory::program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashMemory {
    words: Vec<u32>,
}

/// Erased-state word of NOR flash.
const ERASED: u32 = 0xFFFF_FFFF;

impl FlashMemory {
    /// Creates an erased FLASH with `capacity` 32-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flash capacity must be nonzero");
        FlashMemory { words: vec![ERASED; capacity] }
    }

    /// Device capacity in words.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Erases the whole device back to all-ones.
    pub fn erase_all(&mut self) {
        self.words.fill(ERASED);
    }

    /// Programs `data` starting at word 0 (NOR semantics: can only clear
    /// bits — call [`erase_all`](Self::erase_all) first for a clean image).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the image does not fit.
    pub fn program(&mut self, data: &[u32]) -> Result<()> {
        if data.len() > self.words.len() {
            return Err(DlcError::InvalidBitstream { reason: "image exceeds flash capacity" });
        }
        for (w, d) in self.words.iter_mut().zip(data) {
            *w &= *d; // NOR programming clears bits only
        }
        Ok(())
    }

    /// Reads the stored words (the whole device).
    pub fn read_all(&self) -> &[u32] {
        &self.words
    }

    /// Attempts to parse a valid bitstream from the device contents.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the flash is blank or corrupt.
    pub fn load_bitstream(&self) -> Result<Bitstream> {
        if self.words.first() == Some(&ERASED) {
            return Err(DlcError::InvalidBitstream { reason: "flash is blank" });
        }
        // The image length is discoverable from the header.
        if self.words.len() < 3 {
            return Err(DlcError::InvalidBitstream { reason: "image too short" });
        }
        let len = self.words[2] as usize;
        let total = len
            .checked_add(4)
            .ok_or(DlcError::InvalidBitstream { reason: "length field mismatch" })?;
        if total > self.words.len() {
            return Err(DlcError::InvalidBitstream { reason: "length field mismatch" });
        }
        Bitstream::from_words(&self.words[..total])
    }

    /// Flips one bit — a fault-injection hook for testing CRC detection.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or `bit > 31`.
    pub fn corrupt_bit(&mut self, word: usize, bit: u8) {
        assert!(bit < 32, "bit index out of range");
        self.words[word] ^= 1 << bit;
    }
}

/// Plain CRC-32 (IEEE 802.3, bit-reflected) over a word slice.
fn crc32(words: &[u32]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for w in words {
        for byte in w.to_le_bytes() {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_properties() {
        // Empty input yields the defined initial value.
        assert_eq!(crc32(&[]), 0);
        // Deterministic and sensitive to single-bit changes.
        assert_eq!(crc32(&[1, 2, 3]), crc32(&[1, 2, 3]));
        assert_ne!(crc32(&[1, 2, 3]), crc32(&[1, 2, 4]));
        assert_ne!(crc32(&[1]), crc32(&[1, 0]));
    }

    #[test]
    fn bitstream_round_trip() {
        let bs = Bitstream::example_design();
        let words = bs.to_words();
        let back = Bitstream::from_words(&words).unwrap();
        assert_eq!(back, bs);
        assert!(back.to_string().contains("256 frames"));
    }

    #[test]
    fn bitstream_rejects_corruption() {
        let bs = Bitstream::example_design();
        let mut words = bs.to_words();
        words[10] ^= 0x8000;
        let err = Bitstream::from_words(&words).unwrap_err();
        assert!(matches!(err, DlcError::InvalidBitstream { reason: "CRC mismatch" }));
    }

    #[test]
    fn bitstream_rejects_bad_framing() {
        assert!(matches!(
            Bitstream::from_words(&[1, 2, 3]),
            Err(DlcError::InvalidBitstream { reason: "image too short" })
        ));
        let mut words = Bitstream::example_design().to_words();
        words[0] = 0xDEAD_BEEF;
        assert!(matches!(
            Bitstream::from_words(&words),
            Err(DlcError::InvalidBitstream { reason: "missing sync word" })
        ));
        let mut words = Bitstream::example_design().to_words();
        words[2] += 1;
        assert!(matches!(
            Bitstream::from_words(&words),
            Err(DlcError::InvalidBitstream { reason: "length field mismatch" })
        ));
        let empty = Bitstream::new(DEVICE_ID, vec![]);
        assert!(empty.verify().is_err());
    }

    #[test]
    fn flash_program_and_boot() {
        let mut flash = FlashMemory::new(512);
        assert_eq!(flash.capacity(), 512);
        assert!(flash.load_bitstream().is_err(), "blank flash must not boot");
        let bs = Bitstream::example_design();
        flash.program(&bs.to_words()).unwrap();
        let loaded = flash.load_bitstream().unwrap();
        assert_eq!(loaded, bs);
    }

    #[test]
    fn flash_reprogram_requires_erase() {
        let mut flash = FlashMemory::new(512);
        let bs = Bitstream::example_design();
        flash.program(&bs.to_words()).unwrap();
        // Programming a different image over the old one without erasing
        // ANDs the bits together and breaks the CRC.
        let other = Bitstream::new(DEVICE_ID, (0..256).map(|i| i * 3 + 1).collect());
        flash.program(&other.to_words()).unwrap();
        assert!(flash.load_bitstream().is_err());
        // Erase-then-program recovers.
        flash.erase_all();
        flash.program(&other.to_words()).unwrap();
        assert_eq!(flash.load_bitstream().unwrap(), other);
    }

    #[test]
    fn flash_detects_bit_rot() {
        let mut flash = FlashMemory::new(512);
        flash.program(&Bitstream::example_design().to_words()).unwrap();
        flash.corrupt_bit(20, 7);
        let err = flash.load_bitstream().unwrap_err();
        assert!(matches!(err, DlcError::InvalidBitstream { reason: "CRC mismatch" }));
    }

    #[test]
    fn flash_capacity_guard() {
        let mut flash = FlashMemory::new(4);
        let bs = Bitstream::example_design();
        assert!(flash.program(&bs.to_words()).is_err());
        assert_eq!(flash.read_all().len(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = FlashMemory::new(0);
    }
}
