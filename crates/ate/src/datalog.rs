//! The test datalog: per-measurement records with limits and dispositions.
//!
//! Production test equipment never just says pass/fail — it logs every
//! parametric measurement against its limits (the STDF file of a big-iron
//! tester). The DLC+PECL system needs the same artifact for yield analysis
//! and correlation, so this module provides a light-weight structured
//! datalog: typed records, limit checking, per-device grouping, and a
//! text rendering suitable for diffing.

use core::fmt;

/// Disposition of one measurement against its limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Within limits.
    Pass,
    /// Below the low limit.
    FailLow,
    /// Above the high limit.
    FailHigh,
    /// Recorded without limits (information only).
    Info,
}

/// One parametric test record.
#[derive(Debug, Clone, PartialEq)]
pub struct TestRecord {
    /// Test name (e.g. `eye_opening_ui`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: String,
    /// Low limit, if any.
    pub lo_limit: Option<f64>,
    /// High limit, if any.
    pub hi_limit: Option<f64>,
}

impl TestRecord {
    /// A limited parametric record.
    pub fn parametric(
        name: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        lo_limit: Option<f64>,
        hi_limit: Option<f64>,
    ) -> Self {
        TestRecord { name: name.into(), value, unit: unit.into(), lo_limit, hi_limit }
    }

    /// An unlimited (informational) record.
    pub fn info(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        TestRecord::parametric(name, value, unit, None, None)
    }

    /// The record's disposition.
    pub fn disposition(&self) -> Disposition {
        match (self.lo_limit, self.hi_limit) {
            (None, None) => Disposition::Info,
            (lo, hi) => {
                if let Some(lo) = lo {
                    if self.value < lo {
                        return Disposition::FailLow;
                    }
                }
                if let Some(hi) = hi {
                    if self.value > hi {
                        return Disposition::FailHigh;
                    }
                }
                Disposition::Pass
            }
        }
    }

    /// Whether the record passes (info records pass).
    pub fn passed(&self) -> bool {
        matches!(self.disposition(), Disposition::Pass | Disposition::Info)
    }
}

impl fmt::Display for TestRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limits = match (self.lo_limit, self.hi_limit) {
            (Some(lo), Some(hi)) => format!("[{lo} .. {hi}]"),
            (Some(lo), None) => format!("[{lo} ..]"),
            (None, Some(hi)) => format!("[.. {hi}]"),
            (None, None) => "[info]".to_string(),
        };
        write!(
            f,
            "{:<28} {:>12.4} {:<6} {:<18} {}",
            self.name,
            self.value,
            self.unit,
            limits,
            match self.disposition() {
                Disposition::Pass => "P",
                Disposition::FailLow => "F<",
                Disposition::FailHigh => "F>",
                Disposition::Info => "-",
            }
        )
    }
}

/// A per-device group of records.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLog {
    /// Device identifier (die coordinates, serial, …).
    pub device_id: String,
    records: Vec<TestRecord>,
}

impl DeviceLog {
    /// Starts a log for one device.
    pub fn new(device_id: impl Into<String>) -> Self {
        DeviceLog { device_id: device_id.into(), records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TestRecord) {
        self.records.push(record);
    }

    /// The records.
    pub fn records(&self) -> &[TestRecord] {
        &self.records
    }

    /// The device passes when every record passes.
    pub fn passed(&self) -> bool {
        self.records.iter().all(TestRecord::passed)
    }

    /// The first failing record, if any.
    pub fn first_failure(&self) -> Option<&TestRecord> {
        self.records.iter().find(|r| !r.passed())
    }
}

/// A whole session's datalog: many devices, with summary statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Datalog {
    devices: Vec<DeviceLog>,
}

impl Datalog {
    /// Creates an empty datalog.
    pub fn new() -> Self {
        Datalog::default()
    }

    /// Appends a finished device log.
    pub fn push(&mut self, device: DeviceLog) {
        self.devices.push(device);
    }

    /// The device logs.
    pub fn devices(&self) -> &[DeviceLog] {
        &self.devices
    }

    /// Devices passing all tests.
    pub fn passing(&self) -> usize {
        self.devices.iter().filter(|d| d.passed()).count()
    }

    /// Session yield.
    pub fn yield_ratio(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.passing() as f64 / self.devices.len() as f64
    }

    /// Per-test statistics across devices: `(mean, min, max)` of every
    /// record with the given name.
    pub fn test_statistics(&self, name: &str) -> Option<(f64, f64, f64)> {
        let values: Vec<f64> = self
            .devices
            .iter()
            .flat_map(|d| d.records())
            .filter(|r| r.name == name)
            .map(|r| r.value)
            .collect();
        if values.is_empty() {
            return None;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some((mean, min, max))
    }

    /// Pareto of failures: `(test name, failure count)` sorted worst first.
    pub fn failure_pareto(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for device in &self.devices {
            for r in device.records() {
                if !r.passed() {
                    *counts.entry(r.name.clone()).or_default() += 1;
                }
            }
        }
        let mut pareto: Vec<(String, usize)> = counts.into_iter().collect();
        pareto.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pareto
    }
}

impl fmt::Display for Datalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for device in &self.devices {
            writeln!(
                f,
                "=== {} : {} ===",
                device.device_id,
                if device.passed() { "PASS" } else { "FAIL" }
            )?;
            for r in device.records() {
                writeln!(f, "  {r}")?;
            }
        }
        write!(
            f,
            "{} / {} devices passed ({:.1}% yield)",
            self.passing(),
            self.devices.len(),
            100.0 * self.yield_ratio()
        )
    }
}

/// Builds a session datalog from a wafer run: each die contributes its
/// BIST error count (limit 0) and, when measured, its loopback eye (limit
/// from `min_eye_ui`) — so wafer results flow straight into yield/pareto
/// analysis.
pub fn from_wafer(report: &minitester::WaferReport, min_eye_ui: f64) -> Datalog {
    let mut datalog = Datalog::new();
    for record in report.records() {
        let mut device = DeviceLog::new(format!("die{}", record.die));
        device.push(TestRecord::parametric(
            "bist_errors",
            record.bist_errors as f64,
            "bits",
            None,
            Some(0.0),
        ));
        if let Some(eye) = record.eye_ui {
            device.push(TestRecord::parametric("loopback_eye", eye, "UI", Some(min_eye_ui), None));
        }
        datalog.push(device);
    }
    datalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispositions() {
        let r = TestRecord::parametric("eye", 0.88, "UI", Some(0.7), Some(1.0));
        assert_eq!(r.disposition(), Disposition::Pass);
        assert!(r.passed());
        let low = TestRecord::parametric("eye", 0.5, "UI", Some(0.7), None);
        assert_eq!(low.disposition(), Disposition::FailLow);
        let high = TestRecord::parametric("jitter", 80.0, "ps", None, Some(50.0));
        assert_eq!(high.disposition(), Disposition::FailHigh);
        let info = TestRecord::info("temperature", 24.5, "C");
        assert_eq!(info.disposition(), Disposition::Info);
        assert!(info.passed());
    }

    #[test]
    fn record_rendering() {
        let r = TestRecord::parametric("jitter_pp", 46.7, "ps", None, Some(60.0));
        let text = r.to_string();
        assert!(text.contains("jitter_pp"));
        assert!(text.contains("46.7"));
        assert!(text.ends_with('P'));
        let f = TestRecord::parametric("jitter_pp", 80.0, "ps", None, Some(60.0));
        assert!(f.to_string().ends_with("F>"));
        let lo = TestRecord::parametric("eye", 0.1, "UI", Some(0.7), None);
        assert!(lo.to_string().ends_with("F<"));
        assert!(TestRecord::info("x", 1.0, "u").to_string().contains("[info]"));
    }

    #[test]
    fn device_log_aggregation() {
        let mut log = DeviceLog::new("die(3,4)");
        log.push(TestRecord::parametric("eye", 0.88, "UI", Some(0.7), None));
        log.push(TestRecord::parametric("errors", 0.0, "", None, Some(0.0)));
        assert!(log.passed());
        assert!(log.first_failure().is_none());
        log.push(TestRecord::parametric("jitter", 90.0, "ps", None, Some(60.0)));
        assert!(!log.passed());
        assert_eq!(log.first_failure().unwrap().name, "jitter");
        assert_eq!(log.records().len(), 3);
    }

    #[test]
    fn session_statistics_and_pareto() {
        let mut datalog = Datalog::new();
        for (i, (eye, jitter)) in
            [(0.9, 40.0), (0.85, 45.0), (0.6, 70.0), (0.88, 80.0)].iter().enumerate()
        {
            let mut d = DeviceLog::new(format!("die{i}"));
            d.push(TestRecord::parametric("eye", *eye, "UI", Some(0.7), None));
            d.push(TestRecord::parametric("jitter", *jitter, "ps", None, Some(60.0)));
            datalog.push(d);
        }
        assert_eq!(datalog.devices().len(), 4);
        assert_eq!(datalog.passing(), 2);
        assert!((datalog.yield_ratio() - 0.5).abs() < 1e-12);
        let (mean, min, max) = datalog.test_statistics("eye").unwrap();
        assert!((mean - 0.8075).abs() < 1e-9);
        assert!((min - 0.6).abs() < 1e-12);
        assert!((max - 0.9).abs() < 1e-12);
        assert!(datalog.test_statistics("nonexistent").is_none());
        let pareto = datalog.failure_pareto();
        assert_eq!(pareto.len(), 2);
        assert_eq!(pareto[0].1, 2); // jitter fails twice
        let text = datalog.to_string();
        assert!(text.contains("50.0% yield"));
        assert!(text.contains("die2"));
    }

    #[test]
    fn empty_session() {
        let datalog = Datalog::new();
        assert_eq!(datalog.yield_ratio(), 0.0);
        assert!(datalog.failure_pareto().is_empty());
    }

    #[test]
    fn datalog_from_a_wafer_run() {
        use exec::PoolJob;
        use minitester::WaferRunConfig;
        let config = WaferRunConfig {
            dies: 12,
            columns: 4,
            sites: 4,
            hard_defect_rate: 0.3,
            marginal_rate: 0.0,
            test_bits: 256,
            seed: 11,
            ..WaferRunConfig::default()
        };
        let report = config.run_on(&exec::ExecPool::from_env()).unwrap();
        let datalog = from_wafer(&report, 0.8);
        assert_eq!(datalog.devices().len(), 12);
        // Datalog yield equals the wafer report's.
        assert!((datalog.yield_ratio() - report.yield_ratio()).abs() < 1e-12);
        // Defective dies show up in the pareto.
        let (hard, _) = report.injected_defects();
        if hard > 0 {
            let pareto = datalog.failure_pareto();
            assert_eq!(pareto[0].0, "bist_errors");
            assert_eq!(pareto[0].1, hard);
        }
        // Statistics over the measured eyes exist when any die passed BIST.
        if report.records().iter().any(|r| r.eye_ui.is_some()) {
            assert!(datalog.test_statistics("loopback_eye").is_some());
        }
    }

    #[test]
    fn datalog_from_a_real_run() {
        // Fill a datalog from actual system measurements.
        use crate::{TestProgram, TestSystem};
        use pstime::DataRate;
        let mut system = TestSystem::optical_testbed().unwrap();
        let mut datalog = Datalog::new();
        for device in 0..3u64 {
            let result = system
                .run(&TestProgram::prbs_eye(DataRate::from_gbps(2.5), 2_048), device)
                .unwrap();
            let mut log = DeviceLog::new(format!("unit{device}"));
            log.push(TestRecord::parametric(
                "eye_opening",
                result.eye.opening_ui().value(),
                "UI",
                Some(0.8),
                None,
            ));
            log.push(TestRecord::parametric(
                "jitter_pp",
                result.eye.jitter_pp().as_ps_f64(),
                "ps",
                None,
                Some(60.0),
            ));
            datalog.push(log);
        }
        assert_eq!(datalog.passing(), 3, "{datalog}");
        let (mean, _, _) = datalog.test_statistics("eye_opening").unwrap();
        assert!((mean - 0.88).abs() < 0.05);
    }
}
