//! Declarative matrix configuration for `np bench`.
//!
//! A config is a small TOML subset:
//!
//! ```toml
//! # global axes and sampling discipline
//! machine = "two-socket"
//! warmup  = 1
//! repeats = 3
//! seed    = 1
//! threads = [1, 2, 4]
//!
//! [[cell]]
//! workload = "campaign"      # driver name, see runner::DRIVERS
//! size     = 48              # any numeric key becomes a cell param
//!
//! [[cell]]
//! workload = "loadgen"
//! frames   = 8
//! threads  = [2, 4]          # per-cell override of the global axis
//! ```
//!
//! The reader handles exactly this shape: top-level `key = value`
//! lines, `[[cell]]` sections, integers, floats, quoted strings and flat
//! integer arrays — no nesting, no multi-line values.

use std::collections::{BTreeMap, BTreeSet};

/// The parsed matrix: global sampling parameters plus cell specs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixConfig {
    /// Machine preset name (resolved by the runner).
    pub machine: String,
    /// Unrecorded warmup runs per cell.
    pub warmup: usize,
    /// Recorded samples per cell.
    pub repeats: usize,
    /// Base seed for every driver.
    pub seed: u64,
    /// Global thread axis; each cell expands over it unless overridden.
    pub threads: Vec<usize>,
    /// The declared cells.
    pub cells: Vec<CellSpec>,
}

/// One declared cell (before thread-axis expansion).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Driver name.
    pub workload: String,
    /// Per-cell thread axis override.
    pub threads: Option<Vec<usize>>,
    /// Numeric parameters (`size`, `frames`, `reps`, ...).
    pub params: BTreeMap<String, f64>,
}

impl CellSpec {
    /// A spec with no params, expanding over the global thread axis.
    pub fn named(workload: &str) -> CellSpec {
        CellSpec {
            workload: workload.to_string(),
            threads: None,
            params: BTreeMap::new(),
        }
    }

    /// Reads a numeric param as `usize`.
    pub fn param_usize(&self, key: &str) -> Option<usize> {
        self.params.get(key).map(|&v| v.max(0.0) as usize)
    }
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            machine: "two-socket".to_string(),
            warmup: 1,
            repeats: 3,
            seed: 1,
            threads: vec![1, 2],
            cells: Vec::new(),
        }
    }
}

impl MatrixConfig {
    /// The built-in smoke matrix: every driver, small sizes, the CI gate
    /// shape. Fast enough for tier-1 verify; rich enough that the diff
    /// gate covers every subsystem.
    pub fn smoke() -> MatrixConfig {
        let mut campaign = CellSpec::named("campaign");
        campaign.params.insert("size".to_string(), 48.0);
        campaign.params.insert("reps".to_string(), 6.0);
        let mut ladder = CellSpec::named("memhist-ladder");
        ladder.params.insert("size".to_string(), 65536.0);
        let mut phasen = CellSpec::named("phasen-scan");
        phasen.params.insert("footprint".to_string(), 160.0);
        let correlate = CellSpec::named("correlate-sweep");
        let mut analysis = CellSpec::named("analysis-sweep");
        analysis.params.insert("size".to_string(), 48.0);
        let mut loadgen = CellSpec::named("loadgen");
        loadgen.params.insert("frames".to_string(), 8.0);
        loadgen.threads = Some(vec![2]);
        let mut sim = CellSpec::named("sim-throughput");
        sim.params.insert("size".to_string(), 20000.0);
        sim.threads = Some(vec![1]);
        MatrixConfig {
            cells: vec![campaign, ladder, phasen, correlate, analysis, loadgen, sim],
            ..MatrixConfig::default()
        }
    }

    /// Expands every cell over its thread axis into `(spec, threads, id)`
    /// instances, in declaration order — the matrix the runner executes.
    pub fn expand(&self) -> Vec<(CellSpec, usize, String)> {
        let mut out = Vec::new();
        for cell in &self.cells {
            let axis = cell.threads.as_ref().unwrap_or(&self.threads);
            for &t in axis {
                let t = t.max(1);
                let id = match cell.param_usize("size") {
                    Some(s) => format!("{}/t{}/s{}", cell.workload, t, s),
                    None => format!("{}/t{}", cell.workload, t),
                };
                out.push((cell.clone(), t, id));
            }
        }
        out
    }

    /// Parses a config from TOML-subset text.
    pub fn parse(text: &str) -> Result<MatrixConfig, String> {
        let mut cfg = MatrixConfig::default();
        let mut current: Option<CellSpec> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("bench config line {}: {msg}", ln + 1);
            if line == "[[cell]]" {
                if let Some(done) = current.take() {
                    cfg.push_cell(done).map_err(at)?;
                }
                current = Some(CellSpec::named(""));
                continue;
            }
            if line.starts_with('[') {
                return Err(at(format!(
                    "unsupported section '{line}' (only [[cell]] sections exist)"
                )));
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
            match &mut current {
                None => match key.as_str() {
                    "machine" => cfg.machine = parse_toml_str(&value).map_err(at)?,
                    "warmup" => cfg.warmup = parse_toml_usize(&value).map_err(at)?,
                    "repeats" => cfg.repeats = parse_toml_usize(&value).map_err(at)?,
                    "seed" => cfg.seed = parse_toml_u64(&value).map_err(at)?,
                    "threads" => cfg.threads = parse_toml_array(&value).map_err(at)?,
                    other => return Err(at(format!("unknown global key '{other}'"))),
                },
                Some(cell) => match key.as_str() {
                    "workload" => cell.workload = parse_toml_str(&value).map_err(at)?,
                    "threads" => cell.threads = Some(parse_toml_array(&value).map_err(at)?),
                    other => {
                        let num = value
                            .parse::<f64>()
                            .map_err(|_| at(format!("cell key '{other}' needs a numeric value")))?;
                        cell.params.insert(other.to_string(), num);
                    }
                },
            }
        }
        if let Some(done) = current.take() {
            cfg.push_cell(done)
                .map_err(|m| format!("bench config: {m}"))?;
        }
        cfg.validate()
    }

    fn push_cell(&mut self, cell: CellSpec) -> Result<(), String> {
        if cell.workload.is_empty() {
            return Err("a [[cell]] section has no 'workload' key".to_string());
        }
        self.cells.push(cell);
        Ok(())
    }

    /// Checks the invariants every entry path (file parse or
    /// programmatic construction) must satisfy before running.
    pub fn validate(self) -> Result<MatrixConfig, String> {
        if self.cells.is_empty() {
            return Err("bench config: no cells declared".to_string());
        }
        if self.repeats == 0 {
            return Err("bench config: repeats must be >= 1".to_string());
        }
        if self.threads.is_empty() {
            return Err("bench config: the global 'threads' axis is empty".to_string());
        }
        // `np bench diff` pairs cells by id: a second cell with a taken id
        // would be judged against the first one's samples and digest.
        let mut ids = BTreeSet::new();
        for (_, _, id) in self.expand() {
            if !ids.insert(id.clone()) {
                return Err(format!(
                    "bench config: two cells expand to the id '{id}' (ids carry only the \
                     driver, thread count and size)"
                ));
            }
        }
        Ok(self)
    }
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_str(v: &str) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected a quoted string, got '{v}'"))
    }
}

fn parse_toml_u64(v: &str) -> Result<u64, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("expected an integer, got '{v}'"))
}

fn parse_toml_usize(v: &str) -> Result<usize, String> {
    parse_toml_u64(v).map(|n| n as usize)
}

fn parse_toml_array(v: &str) -> Result<Vec<usize>, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array like [1, 2], got '{v}'"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(
            part.parse()
                .map_err(|_| format!("array element '{part}' is not an integer"))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# the CI matrix
machine = "two-socket"
warmup  = 1
repeats = 4
seed    = 7
threads = [1, 2, 8]

[[cell]]
workload = "phasen-scan"
footprint = 120   # points in the synthetic footprint

[[cell]]
workload = "loadgen"
frames = 6
threads = [2]
"#;

    #[test]
    fn toml_subset_parses() {
        let cfg = MatrixConfig::parse(TOML).unwrap();
        assert_eq!(cfg.machine, "two-socket");
        assert_eq!(cfg.repeats, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, vec![1, 2, 8]);
        assert_eq!(cfg.cells.len(), 2);
        assert_eq!(cfg.cells[0].workload, "phasen-scan");
        assert_eq!(cfg.cells[0].param_usize("footprint"), Some(120));
        assert_eq!(cfg.cells[1].threads, Some(vec![2]));
    }

    #[test]
    fn expansion_crosses_cells_with_the_thread_axis() {
        let cfg = MatrixConfig::parse(TOML).unwrap();
        let cells = cfg.expand();
        let ids: Vec<&str> = cells.iter().map(|(_, _, id)| id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "phasen-scan/t1",
                "phasen-scan/t2",
                "phasen-scan/t8",
                "loadgen/t2"
            ]
        );
    }

    #[test]
    fn ids_carry_the_size_param() {
        let mut cfg = MatrixConfig::default();
        let mut cell = CellSpec::named("campaign");
        cell.params.insert("size".to_string(), 48.0);
        cfg.cells.push(cell);
        let ids: Vec<String> = cfg.expand().into_iter().map(|(_, _, id)| id).collect();
        assert_eq!(ids, ["campaign/t1/s48", "campaign/t2/s48"]);
    }

    #[test]
    fn malformed_configs_are_rejected_with_line_numbers() {
        assert!(MatrixConfig::parse("").is_err());
        let err = MatrixConfig::parse("bogus_key = 3\n[[cell]]\nworkload = \"x\"").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = MatrixConfig::parse("[[cell]]\nfootprint = 9").unwrap_err();
        assert!(err.contains("workload"), "{err}");
        let err = MatrixConfig::parse("[global]\n").unwrap_err();
        assert!(err.contains("[[cell]]"), "{err}");
        assert!(MatrixConfig::parse("{\"cells\": []}").is_err());
    }

    #[test]
    fn cells_whose_ids_collide_are_rejected() {
        // Ids carry no `footprint`, so both cells would be `phasen-scan/t1`.
        let err = MatrixConfig::parse(
            "threads = [1]\n\
             [[cell]]\nworkload = \"phasen-scan\"\nfootprint = 120\n\
             [[cell]]\nworkload = \"phasen-scan\"\nfootprint = 160\n",
        )
        .unwrap_err();
        assert!(err.contains("'phasen-scan/t1'"), "{err}");
        // A repeated thread count collides with itself.
        let err = MatrixConfig::parse("threads = [2, 2]\n[[cell]]\nworkload = \"loadgen\"\n")
            .unwrap_err();
        assert!(err.contains("'loadgen/t2'"), "{err}");
        // Different sizes keep the ids apart.
        assert!(MatrixConfig::parse(
            "threads = [1]\n\
             [[cell]]\nworkload = \"campaign\"\nsize = 48\n\
             [[cell]]\nworkload = \"campaign\"\nsize = 64\n",
        )
        .is_ok());
    }

    #[test]
    fn smoke_matrix_covers_every_driver() {
        let cfg = MatrixConfig::smoke();
        let names: Vec<&str> = cfg.cells.iter().map(|c| c.workload.as_str()).collect();
        for d in crate::harness::runner::DRIVERS {
            assert!(names.contains(&d), "smoke matrix misses driver {d}");
        }
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = \"x # y\" # real"), "a = \"x # y\" ");
        assert_eq!(strip_comment("plain"), "plain");
    }
}
