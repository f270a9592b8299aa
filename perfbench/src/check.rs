//! Correctness checks on a pass's outputs: the committed golden CSVs, and
//! the exact result fingerprints recorded in `perfbench/fingerprints.json`.

use std::path::Path;

use serde::Value;

use crate::campaign::{Delivered, Pass, Workload};

/// The registry's fixed campaign seed: the default workload seed, under
/// which the committed golden CSVs apply.
pub const DEFAULT_SEED: u64 = ltrf_sweep::CAMPAIGN_SEED;

/// Where the exact fingerprints live, relative to the repository root.
pub const FINGERPRINTS: &str = "perfbench/fingerprints.json";

/// A committed golden CSV and the report it must match.
struct Golden {
    file: &'static str,
    /// Whether the report's spec name is the one this golden pins.
    spec: fn(&str) -> bool,
    /// The golden holds a subset of the report's rows rather than all of
    /// them, in order.
    subset: bool,
}

fn goldens(workload: Workload) -> Vec<Golden> {
    let exact = |file: &'static str, spec: fn(&str) -> bool| Golden {
        file,
        spec,
        subset: false,
    };
    match workload {
        Workload::PaperQuick => vec![
            exact("fig9-quick.csv", |s| s == "fig9"),
            exact("fig12-quick.csv", |s| s == "fig12"),
            exact("table2-quick.csv", |s| s == "table2"),
            exact("trace-campaign.csv", |s| s.starts_with("trace-campaign")),
        ],
        Workload::GpuContention => vec![Golden {
            file: "interconnect-crossbar.csv",
            spec: |s| s == "interconnect-crossbar",
            subset: true,
        }],
        Workload::PopulationIncremental => Vec::new(),
    }
}

/// CSV rows with the `from_cache` provenance column removed (it records how
/// a point was resolved, not what it computed).
fn rows_without_provenance(text: &str) -> Vec<String> {
    let mut lines = text.lines().map(str::trim_end).filter(|l| !l.is_empty());
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    let drop = header.split(',').position(|c| c == "from_cache");
    std::iter::once(header)
        .chain(lines)
        .map(|line| {
            line.split(',')
                .enumerate()
                .filter(|(i, _)| Some(*i) != drop)
                .map(|(_, field)| field)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Compares the pass's reports with the committed goldens under
/// `golden_dir`, reading them only. Returns one line per mismatch.
///
/// # Errors
///
/// Returns a message when a golden or a report cannot be read.
pub fn check_goldens(
    workload: Workload,
    pass: &Pass,
    golden_dir: &Path,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for golden in goldens(workload) {
        let path = golden_dir.join(golden.file);
        let want = std::fs::read_to_string(&path)
            .map_err(|e| format!("golden {}: {e}", path.display()))?;
        let Some((name, report)) = pass.csv.iter().find(|(name, _)| (golden.spec)(name)) else {
            problems.push(format!("{}: no report to compare", golden.file));
            continue;
        };
        let got = std::fs::read_to_string(report)
            .map_err(|e| format!("report {}: {e}", report.display()))?;
        let (want, got) = (
            rows_without_provenance(&want),
            rows_without_provenance(&got),
        );
        let missing = if golden.subset {
            want.iter().filter(|row| !got.contains(row)).count()
        } else if want == got {
            0
        } else {
            want.len().max(got.len()) - want.iter().zip(&got).filter(|(a, b)| a == b).count()
        };
        if missing > 0 {
            problems.push(format!(
                "{name}.csv differs from golden {} in {missing} row(s)",
                golden.file
            ));
        }
    }
    Ok(problems)
}

/// Σ warp-instructions and Σ simulated cycles × SM count of `delivered`:
/// the simulated work the end-to-end rates are normalized by.
#[must_use]
pub fn delivered_work(delivered: &[Delivered]) -> (u64, u64) {
    delivered.iter().fold((0, 0), |(insts, cycles), d| {
        (
            insts + d.stats.instructions,
            cycles + d.stats.cycles * d.sm_count,
        )
    })
}

/// The exact work and results of one workload at one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Σ warp-instructions of the delivered results (computed or cached).
    pub delivered_warp_insts: u64,
    /// Σ simulated cycles × SM count of the delivered results.
    pub delivered_sm_cycles: u64,
    /// Points served from the cache in the timed pass.
    pub cache_hits: u64,
    /// Points computed and stored in the timed pass.
    pub cache_stores: u64,
    /// SHA-256 of every delivered point's modelled-hardware statistics, in
    /// plan order.
    pub model_digest: String,
    /// Σ warp-instructions over every simulation run, baselines included
    /// (traced runs only).
    pub sim_warp_insts: Option<u64>,
    /// Σ simulated cycles × SM count over every simulation run (traced runs
    /// only).
    pub sim_sm_cycles: Option<u64>,
    /// Register intervals formed over every compilation (traced runs only).
    pub compiler_intervals: Option<u64>,
}

impl Fingerprint {
    /// The fingerprint of a pass's delivered results.
    #[must_use]
    pub fn of(delivered: &[Delivered]) -> Self {
        let mut material = String::new();
        for d in delivered {
            material.push_str(&serde::to_json_string(&d.stats));
            material.push_str(&serde::to_json_string(&d.gpu));
            material.push('\n');
        }
        let (delivered_warp_insts, delivered_sm_cycles) = delivered_work(delivered);
        Fingerprint {
            delivered_warp_insts,
            delivered_sm_cycles,
            cache_hits: delivered.iter().filter(|d| d.from_cache).count() as u64,
            cache_stores: delivered.iter().filter(|d| !d.from_cache && d.ok).count() as u64,
            model_digest: ltrf_sweep::hash::sha256_hex(material.as_bytes()),
            sim_warp_insts: None,
            sim_sm_cycles: None,
            compiler_intervals: None,
        }
    }

    fn fields(&self) -> Vec<(&'static str, Value)> {
        let mut fields = vec![
            (
                "delivered_warp_insts",
                Value::UInt(self.delivered_warp_insts),
            ),
            ("delivered_sm_cycles", Value::UInt(self.delivered_sm_cycles)),
            ("cache_hits", Value::UInt(self.cache_hits)),
            ("cache_stores", Value::UInt(self.cache_stores)),
            ("model_digest", Value::Str(self.model_digest.clone())),
        ];
        for (name, value) in [
            ("sim_warp_insts", self.sim_warp_insts),
            ("sim_sm_cycles", self.sim_sm_cycles),
            ("compiler_intervals", self.compiler_intervals),
        ] {
            if let Some(value) = value {
                fields.push((name, Value::UInt(value)));
            }
        }
        fields
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compares every field this fingerprint has against `recorded`, which
    /// may hold more (a traced recording checked by an untraced run).
    /// Returns one line per mismatch or missing field.
    #[must_use]
    pub fn mismatches(&self, recorded: &Value) -> Vec<String> {
        self.fields()
            .into_iter()
            .filter_map(|(name, value)| match recorded.get(name) {
                Some(want) if *want == value => None,
                Some(want) => Some(format!(
                    "fingerprint {name}: recorded {}, measured {}",
                    want.to_json(),
                    value.to_json()
                )),
                None => Some(format!("fingerprint {name}: not recorded")),
            })
            .collect()
    }
}

/// The recorded fingerprint of `workload` at `seed`, if any.
///
/// # Errors
///
/// Returns a message when the fingerprint file exists but cannot be read
/// or parsed.
pub fn recorded_fingerprint(
    path: &Path,
    workload: Workload,
    seed: u64,
) -> Result<Option<Value>, String> {
    let all = read_fingerprints(path)?;
    Ok(all
        .get("fingerprints")
        .and_then(|f| f.get(workload.name()))
        .and_then(|w| w.get(&seed.to_string()))
        .cloned())
}

fn read_fingerprints(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Records `fingerprint` as the one of `workload` at `seed`, keeping every
/// other entry of the file.
///
/// # Errors
///
/// Returns a message when the file cannot be read, parsed or written.
pub fn record_fingerprint(
    path: &Path,
    workload: Workload,
    seed: u64,
    fingerprint: &Fingerprint,
) -> Result<(), String> {
    let mut all = read_fingerprints(path)?;
    let Value::Object(top) = &mut all else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    let by_workload = entry(top, "fingerprints");
    let by_seed = entry(object_fields(by_workload)?, workload.name());
    let seeds = object_fields(by_seed)?;
    let seed_key = seed.to_string();
    match seeds.iter_mut().find(|(k, _)| *k == seed_key) {
        Some((_, v)) => *v = fingerprint.to_value(),
        None => seeds.push((seed_key, fingerprint.to_value())),
    }
    std::fs::write(path, format!("{}\n", pretty(&all, 0)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The value under `key`, inserted as an empty object when absent.
fn entry<'v>(fields: &'v mut Vec<(String, Value)>, key: &str) -> &'v mut Value {
    let at = match fields.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            fields.push((key.to_string(), Value::Object(Vec::new())));
            fields.len() - 1
        }
    };
    &mut fields[at].1
}

fn object_fields(value: &mut Value) -> Result<&mut Vec<(String, Value)>, String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err("fingerprint entry is not a JSON object".to_string()),
    }
}

/// Objects indented one key per line, so recorded fingerprints diff well.
fn pretty(value: &Value, depth: usize) -> String {
    match value {
        Value::Object(fields) if !fields.is_empty() => {
            let pad = "  ".repeat(depth + 1);
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Value::Str(k.clone()).to_json(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.to_json(),
    }
}
