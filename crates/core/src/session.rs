//! Measurement archives: record now, analyse later.
//!
//! EvSel's workflow is interactive: "All retrieved values are recorded
//! together with their event identifiers for a single measurement run"
//! (§IV-A-1), and the user later *selects* recorded measurements to
//! compare (Fig. 5: "When selecting 2 measurements, a comparison,
//! including t-test is presented"). A [`Session`] is that recording layer:
//! run sets are saved as JSON files in a directory, listed, reloaded, and
//! fed into the same comparison/correlation analyses — so expensive
//! measurement campaigns and their analysis can be separated, including
//! across machines (ship the archive, not the testee).

use crate::capture::Capture;
use np_counters::measurement::RunSet;
use std::path::{Path, PathBuf};

/// A directory of recorded run sets.
pub struct Session {
    dir: PathBuf,
}

impl Session {
    /// Opens (creating if needed) a session directory.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Session> {
        std::fs::create_dir_all(&dir)?;
        Ok(Session {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.json"))
    }

    /// Validates an archive name (a path component, not a path).
    fn check_name(name: &str) -> std::io::Result<()> {
        if name.is_empty()
            || name.contains(['/', '\\'])
            || name == "."
            || name == ".."
            || name.ends_with(".json")
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid archive name '{name}'"),
            ));
        }
        Ok(())
    }

    /// Saves a run set under `name` (overwrites).
    ///
    /// Crash-safe: the JSON is written to a temporary file in the session
    /// directory and renamed into place, so a crash mid-save leaves either
    /// the old archive or the new one — never a truncated file.
    pub fn save(&self, name: &str, runs: &RunSet) -> std::io::Result<()> {
        Self::check_name(name)?;
        let _span = np_telemetry::span!("session.save", "session");
        let json = serde_json::to_string_pretty(runs)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        np_telemetry::counter!("session.saved_bytes").add(json.len() as u64);
        np_telemetry::counter!("session.saves").inc();
        // Same directory as the target so the rename cannot cross
        // filesystems; pid-qualified so concurrent processes don't collide.
        let tmp = self
            .dir
            .join(format!(".{name}.json.tmp.{}", std::process::id()));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, self.path_of(name)).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Loads the run set recorded under `name`.
    ///
    /// A torn or corrupt archive (unparseable JSON) is *quarantined*: the
    /// file is renamed to `<name>.json.corrupt` so it disappears from
    /// [`Session::list`] and stops poisoning later loads, while the bytes
    /// stay on disk for post-mortems. The returned error names the
    /// quarantine file.
    pub fn load(&self, name: &str) -> std::io::Result<RunSet> {
        Self::check_name(name)?;
        let _span = np_telemetry::span!("session.load", "session");
        let path = self.path_of(name);
        let json = std::fs::read_to_string(&path)?;
        np_telemetry::counter!("session.loaded_bytes").add(json.len() as u64);
        np_telemetry::counter!("session.loads").inc();
        serde_json::from_str(&json).map_err(|e| {
            let quarantine = self.dir.join(format!("{name}.json.corrupt"));
            let moved = std::fs::rename(&path, &quarantine).is_ok();
            np_telemetry::counter!("session.quarantined").inc();
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                if moved {
                    format!(
                        "archive '{name}' is corrupt ({e}); quarantined as {}",
                        quarantine.display()
                    )
                } else {
                    format!("archive '{name}' is corrupt ({e})")
                },
            )
        })
    }

    /// Saves a time-series capture under `name` (as
    /// `<name>.capture.json`, so captures and run-set archives share the
    /// directory without colliding). Same crash-safe tmp-and-rename
    /// discipline as [`Session::save`].
    pub fn save_capture(&self, name: &str, capture: &Capture) -> std::io::Result<()> {
        Self::check_name(name)?;
        let _span = np_telemetry::span!("session.save_capture", "session");
        let json = serde_json::to_string(capture)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        np_telemetry::counter!("session.saved_bytes").add(json.len() as u64);
        np_telemetry::counter!("session.saves").inc();
        let tmp = self
            .dir
            .join(format!(".{name}.capture.json.tmp.{}", std::process::id()));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, self.dir.join(format!("{name}.capture.json"))).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Lists recorded captures, sorted.
    pub fn list_captures(&self) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".capture.json") {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Lists recorded names, sorted. Captures have their own namespace
    /// ([`Session::list_captures`]).
    pub fn list(&self) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".capture.json") {
                continue;
            }
            if let Some(stem) = name.strip_suffix(".json") {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Deletes one recording.
    pub fn delete(&self, name: &str) -> std::io::Result<()> {
        Self::check_name(name)?;
        std::fs::remove_file(self.path_of(name))
    }

    /// Loads two recordings and compares them with EvSel — the Fig. 5
    /// "select 2 measurements" interaction.
    pub fn compare(
        &self,
        evsel: &crate::evsel::EvSel,
        a: &str,
        b: &str,
    ) -> std::io::Result<crate::evsel::ComparisonReport> {
        let ra = self.load(a)?;
        let rb = self.load(b)?;
        Ok(evsel.compare(&ra, &rb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_counters::measurement::Measurement;
    use np_simulator::HwEvent;

    fn runset(label: &str, v: f64) -> RunSet {
        let mut rs = RunSet::new(label);
        for i in 0..3 {
            let mut m = Measurement::new(i);
            m.values.insert(HwEvent::L1dMiss, v + i as f64);
            m.cycles = 1000 + i;
            rs.runs.push(m);
        }
        rs
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("np-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tempdir("roundtrip");
        let s = Session::open(&dir).unwrap();
        let rs = runset("baseline", 100.0);
        s.save("baseline", &rs).unwrap();
        let back = s.load("baseline").unwrap();
        assert_eq!(back.label, "baseline");
        assert_eq!(back.samples(HwEvent::L1dMiss), rs.samples(HwEvent::L1dMiss));
        assert_eq!(back.runs[0].cycles, 1000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_and_delete() {
        let dir = tempdir("list");
        let s = Session::open(&dir).unwrap();
        s.save("v1", &runset("v1", 1.0)).unwrap();
        s.save("v2", &runset("v2", 2.0)).unwrap();
        assert_eq!(s.list().unwrap(), vec!["v1", "v2"]);
        s.delete("v1").unwrap();
        assert_eq!(s.list().unwrap(), vec!["v2"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_recorded_measurements() {
        let dir = tempdir("compare");
        let s = Session::open(&dir).unwrap();
        s.save("before", &runset("before", 100.0)).unwrap();
        s.save("after", &runset("after", 1000.0)).unwrap();
        let evsel = crate::evsel::EvSel {
            bonferroni: false,
            ..Default::default()
        };
        let report = s.compare(&evsel, "before", "after").unwrap();
        let row = report.row(HwEvent::L1dMiss).unwrap();
        assert!(row.relative_change > 8.0);
        assert!(row.significant);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn captures_roundtrip_in_their_own_namespace() {
        let dir = tempdir("captures");
        let s = Session::open(&dir).unwrap();
        let mut sampler = np_telemetry::timeseries::Sampler::new(16);
        sampler.record_with_phase("rep0.node0.qpi", 10, 3, "measure");
        let cap = Capture::from_sampler("two-socket", "row-major", 9, 1, &sampler);
        s.save_capture("trace", &cap).unwrap();
        s.save("runs", &runset("runs", 1.0)).unwrap();
        // Separate namespaces: captures don't show as run-set archives.
        assert_eq!(s.list().unwrap(), vec!["runs"]);
        assert_eq!(s.list_captures().unwrap(), vec!["trace"]);
        let back = Capture::load(dir.join("trace.capture.json")).unwrap();
        assert_eq!(back, cap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_names_rejected() {
        let dir = tempdir("names");
        let s = Session::open(&dir).unwrap();
        for bad in ["", "a/b", "..", "x.json"] {
            assert!(s.save(bad, &runset("x", 1.0)).is_err(), "accepted '{bad}'");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_archives_are_quarantined() {
        let dir = tempdir("quarantine");
        let s = Session::open(&dir).unwrap();
        s.save("good", &runset("good", 5.0)).unwrap();
        // Simulate a torn write: truncate the archive mid-JSON.
        std::fs::write(dir.join("torn.json"), "{\"label\": \"torn\", \"ru").unwrap();
        let err = s.load("torn").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(dir.join("torn.json.corrupt").exists());
        assert!(!dir.join("torn.json").exists());
        // The quarantined file no longer shows up or blocks the name.
        assert_eq!(s.list().unwrap(), vec!["good"]);
        s.save("torn", &runset("torn", 6.0)).unwrap();
        assert_eq!(s.load("torn").unwrap().label, "torn");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_missing_archive_errors() {
        let dir = tempdir("missing");
        let s = Session::open(&dir).unwrap();
        assert!(s.load("nope").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
