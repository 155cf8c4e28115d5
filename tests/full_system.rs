//! Cross-crate integration tests: flows that span the DLC, PECL, fabric,
//! and application layers end to end.

use ate::calibration::{deskew_channels, paper_accuracy_target};
use ate::{TestProgram, TestSystem};
use pecl::ClockFanout;
use pstime::{DataRate, Duration, Millivolts};
use signal::BitStream;

#[test]
fn usb_controls_a_running_system() {
    // The PC-side control loop: ping over USB, read the design ID, upload
    // a pattern to SRAM, read it back — against a booted TestSystem core.
    use dlc::regs::map;
    use dlc::usb::{Opcode, Packet};

    let mut system = TestSystem::optical_testbed().expect("boots");
    let core = system.core_mut();

    let resp =
        core.usb_transaction(Packet::command(Opcode::Ping, &[]).as_bytes()).expect("ping ok");
    assert_eq!(Packet::parse(&resp).unwrap().payload(), vec![dlc::usb::PROTOCOL_VERSION]);

    let resp = core
        .usb_transaction(Packet::command(Opcode::ReadReg, &[map::ID.0]).as_bytes())
        .expect("read id");
    assert_eq!(Packet::parse(&resp).unwrap().payload(), vec![map::ID_VALUE]);

    let mut payload = vec![0x0040u16];
    payload.extend_from_slice(&[0x1234, 0xABCD]);
    core.usb_transaction(Packet::command(Opcode::LoadSram, &payload).as_bytes())
        .expect("sram load");
    let resp = core
        .usb_transaction(Packet::command(Opcode::ReadSram, &[0x0040, 2]).as_bytes())
        .expect("sram read");
    assert_eq!(Packet::parse(&resp).unwrap().payload(), vec![0x1234, 0xABCD]);
}

#[test]
fn design_update_changes_behaviour_after_power_cycle() {
    // The paper's FLASH-overwrite flow, through the full system facade.
    let mut system = TestSystem::mini_tester().expect("boots");
    let program = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 1_024);
    assert!(system.run(&program, 1).is_ok());

    // Re-flash and power-cycle: configuration survives as a fresh design.
    let core = system.core_mut();
    let v2 = dlc::Bitstream::new(dlc::flash::DEVICE_ID, (0..128).map(|i| i ^ 0x77).collect());
    core.program_flash_via_jtag(&v2).expect("flash ok");
    core.power_up().expect("boot v2");
    // Channels were wiped by reconfiguration; the facade reconfigures them
    // per run, so the program still works.
    assert!(system.run(&program, 2).is_ok());
}

#[test]
fn deskewed_multichannel_transmitter_meets_25ps() {
    let fanout = ClockFanout::new(10, Duration::from_ps(1));
    let result = deskew_channels(&fanout, DataRate::from_gbps(2.5), paper_accuracy_target())
        .expect("calibration converges");
    assert!(result.worst_residual <= Duration::from_ps(8));
    assert_eq!(result.codes.len(), 10);
}

#[test]
fn testbed_slot_survives_the_optical_path_under_level_stress() {
    // Combine level programming (Figs. 10–11) with the framed optical path:
    // reduced swing still decodes cleanly through healthy optics.
    use testbed::frame::{PacketSlot, SlotTiming};
    use testbed::optics::Photodetector;
    use testbed::{Receiver, Transmitter};

    let timing = SlotTiming::paper();
    let mut tx = Transmitter::new(timing).expect("tx boots");
    tx.set_levels(signal::LevelSet::pecl().with_swing(Millivolts::new(400)));
    let rx = Receiver::new(timing);
    let slot =
        PacketSlot::new(timing, [0xA5A5_5A5A, 0x0F0F_F0F0, 0xDEAD_BEEF, 0x1234_5678], 0b1011);
    let sent = tx.transmit_slot(&slot, 99).expect("renders");
    let link = sent.to_optical(500.0, 10.0);
    let got = rx.receive_optical(&sent, &link, &Photodetector::testbed(), 7).expect("decodes");
    assert_eq!(got.payload, slot.payload());
    assert_eq!(got.address, 0b1011);
}

#[test]
fn minitester_catches_every_injected_defect_class() {
    use minitester::{Defect, MiniTester, TestPlan, WlpChannel, WlpDut};
    let rate = DataRate::from_gbps(2.5);
    let defects = [
        Defect::StuckInput { level: true },
        Defect::StuckInput { level: false },
        Defect::ShiftedThreshold { offset: Millivolts::new(500) },
        Defect::LossyLead { extra_attenuation: 0.05 },
    ];
    for defect in defects {
        let mut tester = MiniTester::new().expect("boots");
        tester.insert_dut(WlpDut::good(WlpChannel::interposer()).with_defect(defect));
        let outcome = tester.run(&TestPlan::prbs_bist(rate, 1_024), 3).expect("runs");
        assert!(!outcome.passed(), "defect {defect:?} escaped: {outcome}");
    }
    // And the control: a good die passes the same plan.
    let mut tester = MiniTester::new().expect("boots");
    let outcome = tester.run(&TestPlan::prbs_bist(rate, 1_024), 3).expect("runs");
    assert!(outcome.passed(), "good die failed: {outcome}");
}

#[test]
fn dlc_patterns_flow_through_pecl_to_measurable_waveforms() {
    // Bottom-to-top: SRAM-stored pattern -> DLC engine -> PECL chain ->
    // eye measurement, all through public APIs.
    let mut system = TestSystem::optical_testbed().expect("boots");
    let pattern = BitStream::from_str_bits("11010010").repeat(64);
    let core = system.core_mut();
    core.fpga_mut().sram_mut().load_bits(0, &pattern).expect("pattern fits");
    core.configure_channel(
        0,
        dlc::PatternKind::SramPlayback { addr: 0, n_bits: pattern.len() },
        DataRate::from_mbps(400),
    )
    .expect("channel configured");
    let bits = core.generate(0, pattern.len()).expect("generates");
    assert_eq!(bits, pattern);

    let program = TestProgram::fixed(bits, DataRate::from_gbps(2.5));
    let result = system.run(&program, 5).expect("renders and measures");
    assert!(result.eye.opening_ui().value() > 0.8);
}

#[test]
fn e2e_bit_errors_scale_with_optical_power() {
    // Sweep launch power downward: BER must be monotically worse at the
    // starved end than at the healthy end.
    use testbed::e2e::{run, E2eConfig};
    let healthy =
        run(&E2eConfig { packets: 24, seed: 3, ..E2eConfig::default() }).expect("healthy run");
    let starved = run(&E2eConfig {
        packets: 24,
        seed: 3,
        p_on_uw: 3.0,
        extinction_ratio: 1.3,
        rx_noise_mv: 25.0,
        ..E2eConfig::default()
    })
    .expect("starved run");
    assert_eq!(healthy.bit_errors, 0);
    assert!(starved.bit_errors > 100, "starved link too clean: {starved}");
}

#[test]
fn shmoo_operating_point_decodes_cleanly() {
    // Close the loop: pick the shmoo's best operating point, then capture
    // at exactly that strobe/threshold and expect zero errors.
    use exec::{ExecPool, PoolJob};
    use minitester::{EtCapture, MiniTesterDatapath, ShmooConfig, ShmooJob};
    let rate = DataRate::from_gbps(2.5);
    let mut path = MiniTesterDatapath::new().expect("boots");
    let pattern = path.prbs_pattern(rate, 1_024).expect("pattern");
    let wave = path.render(&pattern, 17).expect("stimulus");
    let expected = pattern.bits();
    let job = ShmooJob { wave: &wave, rate, expected, config: ShmooConfig::pecl(), seed: 4 };
    let plot = job.run_on(&ExecPool::from_env()).expect("shmoo");
    let (threshold, phase) = plot.best_operating_point().expect("open region");
    let mut capture = EtCapture::new();
    capture.sampler_mut().set_threshold(threshold);
    let point = capture.capture_at(&wave, rate, expected, phase, 9).expect("capture");
    assert_eq!(point.errors, 0, "best operating point must be clean");
}
