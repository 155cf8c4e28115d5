//! USB control link between the PC and the DLC.
//!
//! §2: "a specialized microcontroller chip for interfacing to a Universal
//! Serial Bus … A personal computer communicates through a Universal Serial
//! Bus (USB) with the DLC, and provides high-level control of the tests."
//!
//! We model the link at the command-packet level: framed packets with a
//! checksum, a small command set (register read/write, SRAM upload, run
//! control), and the microcontroller-side dispatcher that applies them to
//! the FPGA's register file and SRAM. Electrical USB signaling is out of
//! scope — the paper uses the bus purely as a control pipe.

use crate::fpga::Fpga;
use crate::regs::RegAddr;
use crate::{DlcError, Result};

/// Command opcodes the DLC microcontroller understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Read one 16-bit register. Payload: addr. Response: value.
    ReadReg = 0x01,
    /// Write one 16-bit register. Payload: addr, value.
    WriteReg = 0x02,
    /// Write a block of SRAM words. Payload: addr, words…
    LoadSram = 0x03,
    /// Read back a block of SRAM words. Payload: addr, count.
    ReadSram = 0x04,
    /// Ping: respond with the protocol version.
    Ping = 0x7F,
}

impl Opcode {
    fn decode(v: u8) -> Option<Opcode> {
        match v {
            0x01 => Some(Opcode::ReadReg),
            0x02 => Some(Opcode::WriteReg),
            0x03 => Some(Opcode::LoadSram),
            0x04 => Some(Opcode::ReadSram),
            0x7F => Some(Opcode::Ping),
            _ => None,
        }
    }
}

/// Protocol version reported by [`Opcode::Ping`].
pub const PROTOCOL_VERSION: u16 = 0x0200; // "USB 2.0"

/// A framed command or response packet: `[opcode, len, payload…, checksum]`
/// where all payload items are 16-bit little-endian words and the checksum
/// is the wrapping byte sum of everything before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    bytes: Vec<u8>,
}

impl Packet {
    /// Frames a command with 16-bit payload words.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 127 words (the len field is 8 bits of
    /// words).
    pub fn command(op: Opcode, payload: &[u16]) -> Packet {
        assert!(payload.len() <= 127, "payload exceeds packet capacity");
        let mut bytes = Vec::with_capacity(payload.len() * 2 + 3);
        bytes.push(op as u8);
        bytes.push(payload.len() as u8);
        for w in payload {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.push(checksum(&bytes));
        Packet { bytes }
    }

    /// The raw wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reassembles a packet from wire bytes, validating framing and
    /// checksum.
    ///
    /// # Errors
    ///
    /// [`DlcError::UsbProtocol`] on truncation, length mismatch, or
    /// checksum failure.
    pub fn parse(bytes: &[u8]) -> Result<Packet> {
        if bytes.len() < 3 {
            return Err(DlcError::UsbProtocol { reason: "short packet" });
        }
        let len_words = bytes[1] as usize;
        if bytes.len() != len_words * 2 + 3 {
            return Err(DlcError::UsbProtocol { reason: "length field mismatch" });
        }
        let (body, check) = bytes.split_at(bytes.len() - 1);
        if checksum(body) != check[0] {
            return Err(DlcError::UsbProtocol { reason: "checksum mismatch" });
        }
        Ok(Packet { bytes: bytes.to_vec() })
    }

    /// The packet's opcode.
    ///
    /// # Errors
    ///
    /// [`DlcError::UsbProtocol`] for an unknown opcode byte.
    pub fn opcode(&self) -> Result<Opcode> {
        Opcode::decode(self.bytes[0]).ok_or(DlcError::UsbProtocol { reason: "unknown opcode" })
    }

    /// The 16-bit payload words.
    pub fn payload(&self) -> Vec<u16> {
        let n = self.bytes[1] as usize;
        (0..n).map(|i| u16::from_le_bytes([self.bytes[2 + 2 * i], self.bytes[3 + 2 * i]])).collect()
    }
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0u8, |a, b| a.wrapping_add(*b))
}

/// The microcontroller-side command dispatcher: applies host packets to the
/// FPGA and produces response packets.
///
/// # Examples
///
/// ```
/// use dlc::usb::{Opcode, Packet, UsbController};
/// use dlc::{Bitstream, Fpga};
///
/// let mut fpga = Fpga::new(16);
/// fpga.configure(&Bitstream::example_design())?;
/// let mut usb = UsbController::new();
///
/// // Host pings the device.
/// let resp = usb.handle(&Packet::command(Opcode::Ping, &[]), &mut fpga)?;
/// assert_eq!(resp.payload(), vec![dlc::usb::PROTOCOL_VERSION]);
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct UsbController;

impl UsbController {
    /// Creates a controller.
    pub fn new() -> Self {
        UsbController
    }

    /// Dispatches one host command against the FPGA, returning the
    /// response packet.
    ///
    /// # Errors
    ///
    /// Protocol errors for malformed packets; register/SRAM errors
    /// propagate from the FPGA.
    pub fn handle(&mut self, packet: &Packet, fpga: &mut Fpga) -> Result<Packet> {
        let op = packet.opcode()?;
        let payload = packet.payload();
        let response = match op {
            Opcode::Ping => Packet::command(Opcode::Ping, &[PROTOCOL_VERSION]),
            Opcode::ReadReg => {
                let [addr] = payload[..] else {
                    return Err(DlcError::UsbProtocol { reason: "ReadReg needs 1 word" });
                };
                let value = fpga.regs().read(RegAddr(addr))?;
                Packet::command(Opcode::ReadReg, &[value])
            }
            Opcode::WriteReg => {
                let [addr, value] = payload[..] else {
                    return Err(DlcError::UsbProtocol { reason: "WriteReg needs 2 words" });
                };
                fpga.regs_mut().write(RegAddr(addr), value)?;
                // A CONTROL write is a run-control event: the firmware
                // applies it to the engines immediately.
                if addr == crate::regs::map::CONTROL.0 {
                    crate::runctl::apply_control(fpga)?;
                }
                Packet::command(Opcode::WriteReg, &[])
            }
            Opcode::LoadSram => {
                let Some((addr, words)) = payload.split_first() else {
                    return Err(DlcError::UsbProtocol { reason: "LoadSram needs address" });
                };
                fpga.sram_mut().load(u32::from(*addr), words)?;
                Packet::command(Opcode::LoadSram, &[words.len() as u16])
            }
            Opcode::ReadSram => {
                let [addr, count] = payload[..] else {
                    return Err(DlcError::UsbProtocol { reason: "ReadSram needs 2 words" });
                };
                let mut words = Vec::with_capacity(count as usize);
                for i in 0..count {
                    words.push(fpga.sram().read(u32::from(addr) + u32::from(i))?);
                }
                Packet::command(Opcode::ReadSram, &words)
            }
        };
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::Bitstream;
    use crate::regs::map;

    fn setup() -> (Fpga, UsbController) {
        let mut fpga = Fpga::new(16);
        fpga.configure(&Bitstream::example_design()).unwrap();
        (fpga, UsbController::new())
    }

    #[test]
    fn packet_round_trip() {
        let p = Packet::command(Opcode::WriteReg, &[0x0002, 0xABCD]);
        let parsed = Packet::parse(p.as_bytes()).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.opcode().unwrap(), Opcode::WriteReg);
        assert_eq!(parsed.payload(), vec![0x0002, 0xABCD]);
    }

    #[test]
    fn corrupted_packets_rejected() {
        let p = Packet::command(Opcode::Ping, &[]);
        let mut bytes = p.as_bytes().to_vec();
        bytes[0] ^= 0x80;
        assert!(matches!(
            Packet::parse(&bytes),
            Err(DlcError::UsbProtocol { reason: "checksum mismatch" })
        ));
        assert!(matches!(
            Packet::parse(&bytes[..1]),
            Err(DlcError::UsbProtocol { reason: "short packet" })
        ));
        let p2 = Packet::command(Opcode::ReadReg, &[1, 2]);
        let mut bytes2 = p2.as_bytes().to_vec();
        bytes2[1] = 1; // lie about the length
        assert!(matches!(
            Packet::parse(&bytes2),
            Err(DlcError::UsbProtocol { reason: "length field mismatch" })
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = vec![0x55u8, 0x00];
        bytes.push(bytes.iter().fold(0u8, |a, b| a.wrapping_add(*b)));
        let p = Packet::parse(&bytes).unwrap();
        assert!(matches!(p.opcode(), Err(DlcError::UsbProtocol { reason: "unknown opcode" })));
    }

    #[test]
    fn ping_reports_version() {
        let (mut fpga, mut usb) = setup();
        let resp = usb.handle(&Packet::command(Opcode::Ping, &[]), &mut fpga).unwrap();
        assert_eq!(resp.payload(), vec![PROTOCOL_VERSION]);
    }

    #[test]
    fn register_access_over_usb() {
        let (mut fpga, mut usb) = setup();
        // Read the ID register.
        let resp = usb.handle(&Packet::command(Opcode::ReadReg, &[map::ID.0]), &mut fpga).unwrap();
        assert_eq!(resp.payload(), vec![map::ID_VALUE]);
        // Write then read CONTROL.
        usb.handle(&Packet::command(Opcode::WriteReg, &[map::CONTROL.0, 3]), &mut fpga).unwrap();
        let resp =
            usb.handle(&Packet::command(Opcode::ReadReg, &[map::CONTROL.0]), &mut fpga).unwrap();
        assert_eq!(resp.payload(), vec![3]);
    }

    #[test]
    fn register_errors_propagate() {
        let (mut fpga, mut usb) = setup();
        let err = usb.handle(&Packet::command(Opcode::ReadReg, &[0x7777]), &mut fpga).unwrap_err();
        assert!(matches!(err, DlcError::UnmappedRegister { addr: 0x7777 }));
    }

    #[test]
    fn malformed_payloads_rejected() {
        let (mut fpga, mut usb) = setup();
        for bad in [
            Packet::command(Opcode::ReadReg, &[]),
            Packet::command(Opcode::WriteReg, &[1]),
            Packet::command(Opcode::LoadSram, &[]),
            Packet::command(Opcode::ReadSram, &[1]),
        ] {
            assert!(matches!(usb.handle(&bad, &mut fpga), Err(DlcError::UsbProtocol { .. })));
        }
    }

    #[test]
    fn sram_upload_and_readback() {
        let (mut fpga, mut usb) = setup();
        let data = [0xAAAA, 0x5555, 0x0F0F];
        let mut payload = vec![0x0010u16];
        payload.extend_from_slice(&data);
        let resp = usb.handle(&Packet::command(Opcode::LoadSram, &payload), &mut fpga).unwrap();
        assert_eq!(resp.payload(), vec![3]);
        let resp = usb.handle(&Packet::command(Opcode::ReadSram, &[0x0010, 3]), &mut fpga).unwrap();
        assert_eq!(resp.payload(), data.to_vec());
    }

    #[test]
    #[should_panic(expected = "payload exceeds packet capacity")]
    fn oversized_payload_panics() {
        let _ = Packet::command(Opcode::LoadSram, &[0u16; 128]);
    }
}
