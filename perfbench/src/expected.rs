//! The checked-in expected outputs (`expected.txt`): the Table II rows
//! and both geomeans, every `(op, config)` artifact digest, and every
//! tuned operator's default/tuned time and candidate-log digest.
//!
//! Floats are stored as IEEE-754 bit patterns so comparison is exact.
//! Regenerate with `perfbench --regen-expected` (and validate against
//! the interpreter with `perfbench --validate-all`) only for a reviewed
//! behaviour change.

use crate::stats::geomean;
use crate::stream::Population;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The checked-in file, embedded at build time.
pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

/// One operator's simulated times and Table II flags.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpSim {
    /// Simulated ms under isl, tvm, novec and infl.
    pub time_ms: [f64; 4],
    /// Whether the infl compile vectorized a loop.
    pub vec_eligible: bool,
    /// Whether influence changed the generated code.
    pub influenced: bool,
}

/// One Table II row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Network name.
    pub name: String,
    /// total / vec / infl operator counts.
    pub counts: [usize; 3],
    /// Summed simulated ms under isl, tvm, novec and infl.
    pub all_ms: [f64; 4],
}

impl Row {
    /// infl-over-isl speedup of the row.
    pub fn infl_speedup(&self) -> f64 {
        self.all_ms[0] / self.all_ms[3]
    }
}

/// Rebuilds Table II from per-unique-op results.
pub fn table2(pop: &Population, sims: &[OpSim]) -> Vec<Row> {
    pop.nets
        .iter()
        .zip(&pop.op_index)
        .map(|(net, ops)| {
            let mut row = Row {
                name: net.name.to_string(),
                counts: [ops.len(), 0, 0],
                all_ms: [0.0; 4],
            };
            for &i in ops {
                let s = &sims[i];
                for (acc, t) in row.all_ms.iter_mut().zip(&s.time_ms) {
                    *acc += t;
                }
                row.counts[1] += s.vec_eligible as usize;
                row.counts[2] += s.influenced as usize;
            }
            row
        })
        .collect()
}

/// Geomean of the rows' infl-over-isl speedups (Table II's headline).
pub fn table2_geomean(rows: &[Row]) -> f64 {
    geomean(&rows.iter().map(Row::infl_speedup).collect::<Vec<_>>())
}

/// One tuned operator's expected outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneExpect {
    /// Default-point simulated time, as bits.
    pub default_bits: u64,
    /// Winner's simulated time, as bits.
    pub tuned_bits: u64,
    /// Candidate-log digest.
    pub log_digest: u64,
}

/// The parsed expected-output file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    /// Table II rows in network order.
    pub rows: Vec<Row>,
    /// Table II geomean (infl over isl).
    pub sim_geomean: f64,
    /// Tuned-over-default geomean.
    pub tune_geomean: f64,
    /// Artifact digest per `(unique op, config index)`.
    pub artifacts: BTreeMap<(usize, usize), u64>,
    /// Tune outcome per unique op.
    pub tune: BTreeMap<usize, TuneExpect>,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

impl Expected {
    /// Parses the file format written by [`Expected::render`].
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut e = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("expected.txt:{}: malformed line {line:?}", n + 1);
            match f.first().copied() {
                None | Some("#") => {}
                Some("table2") if f.len() == 9 => e.rows.push(Row {
                    name: f[1].to_string(),
                    counts: [num(f[2])?, num(f[3])?, num(f[4])?],
                    all_ms: [
                        f64::from_bits(hex(f[5])?),
                        f64::from_bits(hex(f[6])?),
                        f64::from_bits(hex(f[7])?),
                        f64::from_bits(hex(f[8])?),
                    ],
                }),
                Some("geomean") if f.len() >= 3 && f[1] == "sim_infl" => {
                    e.sim_geomean = f64::from_bits(hex(f[2])?)
                }
                Some("geomean") if f.len() >= 3 && f[1] == "tune" => {
                    e.tune_geomean = f64::from_bits(hex(f[2])?)
                }
                Some("artifact") if f.len() == 4 => {
                    e.artifacts.insert((num(f[1])?, num(f[2])?), hex(f[3])?);
                }
                Some("tune") if f.len() == 5 => {
                    e.tune.insert(
                        num(f[1])?,
                        TuneExpect {
                            default_bits: hex(f[2])?,
                            tuned_bits: hex(f[3])?,
                            log_digest: hex(f[4])?,
                        },
                    );
                }
                _ => return Err(bad()),
            }
        }
        Ok(e)
    }

    /// The checked-in expectations.
    ///
    /// # Errors
    ///
    /// A malformed file.
    pub fn checked_in() -> Result<Expected, String> {
        Expected::parse(EXPECTED_TXT)
    }

    /// Renders the file (values are also given in decimal, after the
    /// bits, for readers).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# perfbench expected outputs (floats as IEEE-754 bits).\n");
        out.push_str("# Regenerate only for a reviewed behaviour change:\n");
        out.push_str("#   perfbench --regen-expected && perfbench --validate-all\n");
        out.push_str(
            "# table2 <network> <total> <vec> <infl> <isl_ms> <tvm_ms> <novec_ms> <infl_ms>\n",
        );
        for r in &self.rows {
            writeln!(
                out,
                "table2 {} {} {} {} {} {} {} {}",
                r.name,
                r.counts[0],
                r.counts[1],
                r.counts[2],
                bits(r.all_ms[0]),
                bits(r.all_ms[1]),
                bits(r.all_ms[2]),
                bits(r.all_ms[3])
            )
            .expect("write to a String");
        }
        writeln!(
            out,
            "geomean sim_infl {} {:.6}",
            bits(self.sim_geomean),
            self.sim_geomean
        )
        .expect("write to a String");
        writeln!(
            out,
            "geomean tune {} {:.6}",
            bits(self.tune_geomean),
            self.tune_geomean
        )
        .expect("write to a String");
        out.push_str("# artifact <unique op> <config: 0 isl, 1 novec, 2 infl> <digest>\n");
        for ((op, cfg), d) in &self.artifacts {
            writeln!(out, "artifact {op} {cfg} {d:016x}").expect("write to a String");
        }
        out.push_str("# tune <unique op> <default time> <tuned time> <log digest>\n");
        for (op, t) in &self.tune {
            writeln!(
                out,
                "tune {op} {:016x} {:016x} {:016x}",
                t.default_bits, t.tuned_bits, t.log_digest
            )
            .expect("write to a String");
        }
        out
    }
}
