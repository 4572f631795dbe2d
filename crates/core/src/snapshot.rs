//! Compact text snapshots of simulation state (checkpoint/resume support).
//!
//! Long sweeps — millions of particles × millions of steps × many (n, λ)
//! cells — need to survive interruption. Every simulator therefore exposes
//! a `snapshot` / `restore` pair over a line-oriented `key=value` text
//! format whose first line is a format header:
//!
//! * The two samplers of chain `M` share one codec,
//!   [`crate::sampler::Sampler::snapshot`] and
//!   [`crate::sampler::Sampler::restore`]. After the header —
//!   `sops-chain-snapshot v1` for [`crate::chain::CompressionChain`],
//!   `sops-kmc-snapshot v1` for [`crate::kmc::KmcChain`] — come, in order:
//!   `lambda=` (IEEE bits in hex), `hamiltonian=` (only for a non-default
//!   Hamiltonian), `steps=`, `counts=`, `hole_free=`, `validate=`,
//!   `crashed=` (ids), `rng=` (ChaCha key + block counter + word index —
//!   three words instead of the whole output buffer), `positions=` (in id
//!   order) and `orientations=` (only for oriented configurations). The
//!   chain's `counts=` holds its six outcome counts.
//! * KMC's `counts=` holds `moved,max_jump` and is followed by `pending=`:
//!   the drawn but not yet realized dwell as `at,skipped`, or `none`. Its
//!   mass table and pair masks are a pure function of the configuration
//!   and crash set, so snapshots omit them and restore rebuilds them.
//!   Restore applies the crash set before `pending=`, because a crash
//!   discards a pending dwell.
//! * Restore rejects the other sampler's header, a `hamiltonian=` the
//!   restore type cannot parse, and `hole_free=1` on a configuration with
//!   holes (`hole_free=0` on a hole-free one is legal: the latch is lazy).
//! * [`crate::local::LocalRunner::snapshot`] captures the configuration and
//!   RNG likewise, plus the expanded heads, per-particle flags, the Poisson
//!   future-event list and the asynchronous round bookkeeping. The
//!   future-event list (`queue=`, one `time:id` per pending event) is
//!   written in particle-id order, and restore accepts its events in any
//!   order.
//!
//! Restoring a snapshot and continuing produces the **bitwise identical**
//! trajectory of the uninterrupted run: floats round-trip through their IEEE
//! bit patterns (hex), never through decimal, and the RNG keystream resumes
//! mid-block. This is what lets `sops-engine` checkpoint a sweep at any
//! point and resume it — on any number of threads — to the same results.
//! The snapshots in `tests/data/snapshots/` pin the format: each must
//! restore, re-encode to the same bytes and continue to a recorded result.

use core::fmt;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use sops_lattice::TriPoint;
use sops_system::ParticleSystem;

use crate::hamiltonian::Hamiltonian;

/// Errors from parsing a snapshot text.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The first line is not the expected format header.
    WrongHeader {
        /// The header the parser was looking for.
        expected: &'static str,
    },
    /// A required `key=value` line is absent.
    MissingField(&'static str),
    /// A field value failed to parse.
    BadField {
        /// Name of the offending field.
        field: &'static str,
        /// The unparseable value.
        value: String,
    },
    /// The fields parsed but describe an invalid state (e.g. a disconnected
    /// configuration or out-of-range particle id).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::WrongHeader { expected } => {
                write!(f, "snapshot header mismatch: expected {expected:?}")
            }
            SnapshotError::MissingField(name) => write!(f, "snapshot field {name:?} is missing"),
            SnapshotError::BadField { field, value } => {
                write!(
                    f,
                    "snapshot field {field:?} has unparseable value {value:?}"
                )
            }
            SnapshotError::Invalid(why) => write!(f, "snapshot describes an invalid state: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes an `f64` as its IEEE-754 bit pattern in hex (exact round trip).
#[must_use]
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes an [`f64_to_hex`] value.
///
/// # Errors
///
/// [`SnapshotError::BadField`] when `value` is not 16 hex digits.
pub fn f64_from_hex(field: &'static str, value: &str) -> Result<f64, SnapshotError> {
    u64::from_str_radix(value, 16)
        .map(f64::from_bits)
        .map_err(|_| SnapshotError::BadField {
            field,
            value: value.to_string(),
        })
}

/// Serializes a sample list as comma-joined [`f64_to_hex`] values.
#[must_use]
pub fn f64s_to_string(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| f64_to_hex(v))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses an [`f64s_to_string`] value (empty string ⇒ empty list).
///
/// # Errors
///
/// [`SnapshotError::BadField`] on any malformed element.
pub fn f64s_from_string(field: &'static str, raw: &str) -> Result<Vec<f64>, SnapshotError> {
    raw.split(',')
        .filter(|item| !item.is_empty())
        .map(|item| f64_from_hex(field, item))
        .collect()
}

/// Serializes an optional count as the number or the sentinel `none`.
#[must_use]
pub fn opt_u64_to_string(value: Option<u64>) -> String {
    value.map_or_else(|| "none".into(), |v| v.to_string())
}

/// Parses an [`opt_u64_to_string`] value.
///
/// # Errors
///
/// [`SnapshotError::BadField`] when neither `none` nor a `u64`.
pub fn opt_u64_from_string(field: &'static str, raw: &str) -> Result<Option<u64>, SnapshotError> {
    if raw == "none" {
        return Ok(None);
    }
    raw.parse().map(Some).map_err(|_| SnapshotError::BadField {
        field,
        value: raw.to_string(),
    })
}

/// Serializes an [`StdRng`] state triple as `key words / counter / index`.
#[must_use]
pub fn rng_to_string(rng: &StdRng) -> String {
    let (key, counter, index) = rng.state();
    let words: Vec<String> = key.iter().map(|w| format!("{w:08x}")).collect();
    format!("{}/{counter}/{index}", words.join(","))
}

/// Parses an [`rng_to_string`] value back into a generator.
///
/// # Errors
///
/// [`SnapshotError::BadField`] on any malformed component, including a word
/// index above 16 (a block has 16 words; 16 means it is used up).
pub fn rng_from_string(field: &'static str, value: &str) -> Result<StdRng, SnapshotError> {
    let bad = || SnapshotError::BadField {
        field,
        value: value.to_string(),
    };
    let mut parts = value.split('/');
    let key_part = parts.next().ok_or_else(bad)?;
    let counter: u64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let index: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    if index > 16 || parts.next().is_some() {
        return Err(bad());
    }
    let mut key = [0u32; 8];
    let mut words = key_part.split(',');
    for slot in &mut key {
        *slot = words
            .next()
            .and_then(|w| u32::from_str_radix(w, 16).ok())
            .ok_or_else(bad)?;
    }
    if words.next().is_some() {
        return Err(bad());
    }
    Ok(StdRng::from_state(key, counter, index))
}

/// Serializes lattice points as `x y` pairs joined with `;`.
#[must_use]
pub fn points_to_string(points: impl IntoIterator<Item = TriPoint>) -> String {
    points
        .into_iter()
        .map(|p| format!("{} {}", p.x, p.y))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses a [`points_to_string`] value.
///
/// # Errors
///
/// [`SnapshotError::BadField`] on malformed coordinates.
pub fn points_from_string(
    field: &'static str,
    value: &str,
) -> Result<Vec<TriPoint>, SnapshotError> {
    let bad = || SnapshotError::BadField {
        field,
        value: value.to_string(),
    };
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(';')
        .map(|pair| {
            let (x, y) = pair.split_once(' ').ok_or_else(bad)?;
            Ok(TriPoint::new(
                x.parse().map_err(|_| bad())?,
                y.parse().map_err(|_| bad())?,
            ))
        })
        .collect()
}

/// Serializes per-particle orientations as a comma-joined list.
#[must_use]
pub fn u8s_to_string(values: &[u8]) -> String {
    values
        .iter()
        .map(u8::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Attaches the optional `orientations` field of a snapshot to a restored
/// configuration (absent field ⇒ configuration unchanged).
///
/// # Errors
///
/// [`SnapshotError`] on malformed values or a length mismatch.
pub fn attach_orientations(
    sys: ParticleSystem,
    fields: &Fields<'_>,
) -> Result<ParticleSystem, SnapshotError> {
    match fields.parse_list::<u8>("orientations") {
        Ok(orientations) => sys
            .with_orientations(orientations)
            .map_err(|e| SnapshotError::Invalid(e.to_string())),
        Err(SnapshotError::MissingField(_)) => Ok(sys),
        Err(e) => Err(e),
    }
}

/// Parses the optional `hamiltonian` field of a snapshot (absent ⇒ the
/// default `"edges"`) into an instance of `H`.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] when the recorded name does not describe `H`
/// — restoring a snapshot under the wrong Hamiltonian type is an error, not
/// a reinterpretation.
pub fn hamiltonian_from_fields<H: Hamiltonian>(fields: &Fields<'_>) -> Result<H, SnapshotError> {
    let name = match fields.get("hamiltonian") {
        Ok(name) => name,
        Err(SnapshotError::MissingField(_)) => "edges",
        Err(e) => return Err(e),
    };
    H::parse(name).ok_or_else(|| {
        SnapshotError::Invalid(format!(
            "snapshot hamiltonian {name:?} does not match the restore type"
        ))
    })
}

/// Serializes a boolean-per-id vector as a `01…` string.
#[must_use]
pub fn bools_to_string(bools: &[bool]) -> String {
    bools.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a [`bools_to_string`] value, checking the expected length.
///
/// # Errors
///
/// [`SnapshotError::BadField`] on a wrong length or a non-`0`/`1` digit.
pub fn bools_from_string(
    field: &'static str,
    value: &str,
    expected_len: usize,
) -> Result<Vec<bool>, SnapshotError> {
    let bad = || SnapshotError::BadField {
        field,
        value: value.to_string(),
    };
    if value.len() != expected_len {
        return Err(bad());
    }
    value
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(bad()),
        })
        .collect()
}

/// A parsed snapshot body: the header line followed by `key=value` lines.
///
/// Blank lines are ignored; unknown keys are preserved (forward
/// compatibility for additive format changes).
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    map: BTreeMap<&'a str, &'a str>,
}

impl<'a> Fields<'a> {
    /// Parses `text`, requiring `header` as the first non-blank line.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WrongHeader`] when the header does not match.
    pub fn parse(text: &'a str, header: &'static str) -> Result<Fields<'a>, SnapshotError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(header) {
            return Err(SnapshotError::WrongHeader { expected: header });
        }
        let mut map = BTreeMap::new();
        for line in lines {
            if let Some((key, value)) = line.split_once('=') {
                map.insert(key.trim(), value);
            }
        }
        Ok(Fields { map })
    }

    /// The raw value of `key`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingField`] when absent.
    pub fn get(&self, key: &'static str) -> Result<&'a str, SnapshotError> {
        self.map
            .get(key)
            .copied()
            .ok_or(SnapshotError::MissingField(key))
    }

    /// A field parsed with `FromStr`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingField`] or [`SnapshotError::BadField`].
    pub fn parse_num<T: core::str::FromStr>(&self, key: &'static str) -> Result<T, SnapshotError> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| SnapshotError::BadField {
            field: key,
            value: raw.to_string(),
        })
    }

    /// An `f64` field stored as hex bits.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingField`] or [`SnapshotError::BadField`].
    pub fn parse_f64_bits(&self, key: &'static str) -> Result<f64, SnapshotError> {
        f64_from_hex(key, self.get(key)?)
    }

    /// A comma-separated list of integers (empty value ⇒ empty list).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingField`] or [`SnapshotError::BadField`].
    pub fn parse_list<T: core::str::FromStr>(
        &self,
        key: &'static str,
    ) -> Result<Vec<T>, SnapshotError> {
        let raw = self.get(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|item| {
                item.parse().map_err(|_| SnapshotError::BadField {
                    field: key,
                    value: raw.to_string(),
                })
            })
            .collect()
    }

    /// A comma-separated list of exactly `N` values.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingField`] or [`SnapshotError::BadField`].
    pub fn parse_array<T: core::str::FromStr, const N: usize>(
        &self,
        key: &'static str,
    ) -> Result<[T; N], SnapshotError> {
        let values: Vec<T> = self.parse_list(key)?;
        values.try_into().map_err(|_| SnapshotError::BadField {
            field: key,
            value: self.map[key].to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn f64_hex_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, -1e300] {
            let back = f64_from_hex("x", &f64_to_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn rng_string_round_trips_mid_block() {
        let mut rng = StdRng::seed_from_u64(9);
        let _: u32 = rng.gen_range(0..7); // desynchronize from a block edge
        let mut resumed = rng_from_string("rng", &rng_to_string(&rng)).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.gen::<u64>(), resumed.gen::<u64>());
        }
    }

    #[test]
    fn rng_string_rejects_an_impossible_word_index() {
        let key = "0,1,2,3,4,5,6,7";
        for index in [0, 15, 16] {
            assert!(rng_from_string("rng", &format!("{key}/9/{index}")).is_ok());
        }
        for index in ["17", "99", "-1", "x"] {
            let value = format!("{key}/9/{index}");
            assert_eq!(
                rng_from_string("rng", &value).unwrap_err(),
                SnapshotError::BadField {
                    field: "rng",
                    value
                }
            );
        }
    }

    #[test]
    fn points_round_trip_including_negatives() {
        let pts = vec![
            TriPoint::new(-3, 7),
            TriPoint::new(0, 0),
            TriPoint::new(5, -1),
        ];
        let s = points_to_string(pts.clone());
        assert_eq!(points_from_string("p", &s).unwrap(), pts);
        assert_eq!(points_from_string("p", "").unwrap(), Vec::new());
    }

    #[test]
    fn bools_round_trip_and_check_length() {
        let bs = vec![true, false, true];
        let s = bools_to_string(&bs);
        assert_eq!(bools_from_string("b", &s, 3).unwrap(), bs);
        assert!(bools_from_string("b", &s, 4).is_err());
        assert!(bools_from_string("b", "01x", 3).is_err());
    }

    #[test]
    fn list_and_option_helpers_round_trip() {
        let values = [1.5, -0.25, 0.1 + 0.2];
        let back = f64s_from_string("s", &f64s_to_string(&values)).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(f64s_from_string("s", "").unwrap(), Vec::<f64>::new());
        assert_eq!(opt_u64_from_string("h", "none").unwrap(), None);
        assert_eq!(opt_u64_from_string("h", "42").unwrap(), Some(42));
        assert_eq!(opt_u64_to_string(Some(7)), "7");
        assert_eq!(opt_u64_to_string(None), "none");
        assert!(opt_u64_from_string("h", "x").is_err());
    }

    #[test]
    fn fields_parser_reports_errors() {
        let err = Fields::parse("wrong header\nk=v", "right header").unwrap_err();
        assert!(matches!(err, SnapshotError::WrongHeader { .. }));
        let fields = Fields::parse("h v1\n\na=3\nlist=1,2,3\n", "h v1").unwrap();
        assert_eq!(fields.parse_num::<u64>("a").unwrap(), 3);
        assert_eq!(fields.parse_list::<usize>("list").unwrap(), vec![1, 2, 3]);
        assert_eq!(fields.get("zzz"), Err(SnapshotError::MissingField("zzz")));
    }
}
