//! WAL delta files: the append-path commit payload.
//!
//! A delta file `delta-<gen>.mob` carries the units appended by one
//! commit, keyed by mapping root name. Its outer framing is the same
//! generation + XXH64 chunk format as a full snapshot
//! ([`crate::durable`]), so torn or scrambled deltas fail checksum
//! verification before any structural decoding runs; this module is
//! only the *payload* codec.
//!
//! Payload layout (all integers little-endian):
//!
//! ```text
//! magic            8  b"MOBDELT1"
//! base_generation  8  generation this delta applies on top of
//! n_appends        4
//! per append:
//!   name_len       4
//!   name           name_len  (UTF-8 root name)
//!   kind           1  (3 = mpoint, the only kind with an append path)
//!   n_units        4
//!   units          n_units × UPointRecord::SIZE
//! ```
//!
//! [`decode_delta_payload`] treats its input as untrusted — it is a
//! `panic_reach` seed (reachable from store open on arbitrary bytes)
//! and must never panic: every length is bounds-checked, every record
//! decoded through the fallible [`FixedRecord`] path.

use crate::mapping_store::UPointRecord;
use crate::record::{get_u32, put_u32, read_all, write_all, FixedRecord};
use mob_base::{DecodeError, DecodeResult};

/// Magic prefix of a delta payload.
pub const DELTA_MAGIC: &[u8; 8] = b"MOBDELT1";

/// Root-kind tag for moving-point mappings (matches the `RootRecord`
/// tag used by full snapshots).
pub const DELTA_KIND_MPOINT: u8 = 3;

/// File name of the delta that produces generation `generation`.
#[must_use]
pub fn delta_name(generation: u64) -> String {
    format!("delta-{generation:016x}.mob")
}

/// Parse a `delta-<gen>.mob` name back to its generation.
#[must_use]
pub fn parse_delta_name(name: &str) -> Option<u64> {
    parse_generation_name(name, "delta-")
}

/// Parse `<prefix><16 hex digits>.mob` back to its generation (`None`
/// for anything else: no sign, no short or long forms).
pub(crate) fn parse_generation_name(name: &str, prefix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(".mob")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A decoded delta payload: the generation it applies on top of and the
/// per-root appended units, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPayload {
    /// Generation this delta applies on top of (the file itself
    /// produces `base_generation + 1`).
    pub base_generation: u64,
    /// Appended units keyed by mapping root name.
    pub appends: Vec<(String, Vec<UPointRecord>)>,
}

/// Encode a delta payload (the inverse of [`decode_delta_payload`]).
///
/// Counts are checked: more than `u32::MAX` appends or units per root
/// is a [`DecodeError::BadStructure`], not a panic.
pub fn encode_delta_payload(
    base_generation: u64,
    appends: &[(String, Vec<UPointRecord>)],
) -> DecodeResult<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&base_generation.to_le_bytes());
    let n = u32::try_from(appends.len()).map_err(|_| DecodeError::BadStructure {
        what: "delta payload",
        detail: format!("too many appends: {}", appends.len()),
    })?;
    put_u32(&mut out, n);
    for (name, units) in appends {
        let name_len = u32::try_from(name.len()).map_err(|_| DecodeError::BadStructure {
            what: "delta payload",
            detail: format!("root name too long: {} bytes", name.len()),
        })?;
        put_u32(&mut out, name_len);
        out.extend_from_slice(name.as_bytes());
        out.push(DELTA_KIND_MPOINT);
        let n_units = u32::try_from(units.len()).map_err(|_| DecodeError::BadStructure {
            what: "delta payload",
            detail: format!("too many units for {name}: {}", units.len()),
        })?;
        put_u32(&mut out, n_units);
        out.extend_from_slice(&write_all(units));
    }
    Ok(out)
}

/// Bounds-checked slice of `bytes` starting at `*pos`, advancing it.
fn take<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &'static str,
) -> DecodeResult<&'a [u8]> {
    let end = pos.checked_add(n).ok_or(DecodeError::Truncated {
        what,
        need: usize::MAX,
        have: bytes.len(),
    })?;
    match bytes.get(*pos..end) {
        Some(s) => {
            *pos = end;
            Ok(s)
        }
        None => Err(DecodeError::Truncated {
            what,
            need: end,
            have: bytes.len(),
        }),
    }
}

/// Decode a delta payload from untrusted bytes.
///
/// Never panics: truncation, ragged unit arrays, bad magic, unknown
/// kinds, and non-UTF-8 names all surface as [`DecodeError`]s. Trailing
/// bytes after the last append are a structural error (a torn tail
/// that survived checksumming would otherwise hide there).
pub fn decode_delta_payload(bytes: &[u8]) -> DecodeResult<DeltaPayload> {
    let mut pos = 0usize;
    let magic = take(bytes, &mut pos, 8, "delta magic")?;
    if magic != DELTA_MAGIC {
        return Err(DecodeError::BadStructure {
            what: "delta payload",
            detail: "bad magic".into(),
        });
    }
    let gen_bytes = take(bytes, &mut pos, 8, "delta base generation")?;
    let mut arr = [0u8; 8];
    for (d, s) in arr.iter_mut().zip(gen_bytes) {
        *d = *s;
    }
    let base_generation = u64::from_le_bytes(arr);
    let n_appends = get_u32(take(bytes, &mut pos, 4, "delta append count")?, 0)?;
    let mut appends = Vec::new();
    for _ in 0..n_appends {
        let name_len = get_u32(take(bytes, &mut pos, 4, "delta name length")?, 0)? as usize;
        let name_bytes = take(bytes, &mut pos, name_len, "delta root name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| DecodeError::BadStructure {
                what: "delta payload",
                detail: "root name is not UTF-8".into(),
            })?
            .to_string();
        let kind = take(bytes, &mut pos, 1, "delta root kind")?[0];
        if kind != DELTA_KIND_MPOINT {
            return Err(DecodeError::BadTag {
                what: "delta root kind",
                tag: u32::from(kind),
            });
        }
        let n_units = get_u32(take(bytes, &mut pos, 4, "delta unit count")?, 0)? as usize;
        let byte_len = n_units
            .checked_mul(UPointRecord::SIZE)
            .ok_or(DecodeError::Truncated {
                what: "delta units",
                need: usize::MAX,
                have: bytes.len(),
            })?;
        let unit_bytes = take(bytes, &mut pos, byte_len, "delta units")?;
        let units: Vec<UPointRecord> = read_all(unit_bytes)?;
        appends.push((name, units));
    }
    if pos != bytes.len() {
        return Err(DecodeError::BadStructure {
            what: "delta payload",
            detail: format!("{} trailing bytes", bytes.len() - pos),
        });
    }
    Ok(DeltaPayload {
        base_generation,
        appends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::{t, TimeInterval};
    use mob_core::UPoint;
    use mob_spatial::pt;

    fn rec(a: f64, b: f64) -> UPointRecord {
        let u = UPoint::between(
            TimeInterval::new(t(a), t(b), true, false),
            pt(a, 0.0),
            pt(b, 0.0),
        );
        UPointRecord {
            interval: *mob_core::Unit::interval(&u),
            motion: *u.motion(),
        }
    }

    #[test]
    fn names_roundtrip() {
        assert_eq!(delta_name(7), "delta-0000000000000007.mob");
        assert_eq!(parse_delta_name(&delta_name(7)), Some(7));
        assert_eq!(parse_delta_name(&delta_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_delta_name("delta-xyz.mob"), None);
        assert_eq!(parse_delta_name("snap-0000000000000007.mob"), None);
        assert_eq!(parse_delta_name("delta-07.mob"), None);
        assert_eq!(parse_delta_name("delta-+000000000000001.mob"), None);
        assert_eq!(
            parse_delta_name("delta-ffffffffffffffff.mob"),
            Some(u64::MAX)
        );
    }

    #[test]
    fn payload_roundtrip() {
        let appends = vec![
            ("car0".to_string(), vec![rec(0.0, 1.0), rec(1.0, 2.0)]),
            ("car1".to_string(), vec![rec(5.0, 6.0)]),
            ("empty".to_string(), vec![]),
        ];
        let bytes = encode_delta_payload(41, &appends).unwrap();
        let decoded = decode_delta_payload(&bytes).unwrap();
        assert_eq!(decoded.base_generation, 41);
        assert_eq!(decoded.appends, appends);
    }

    #[test]
    fn decode_rejects_damage_without_panicking() {
        let appends = vec![("car".to_string(), vec![rec(0.0, 1.0)])];
        let good = encode_delta_payload(3, &appends).unwrap();
        // Every strict prefix is an error, never a panic.
        for cut in 0..good.len() {
            assert!(decode_delta_payload(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is an error.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_delta_payload(&padded).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(decode_delta_payload(&bad).is_err());
        // Unknown kind byte (offset: 8 magic + 8 gen + 4 count + 4 len + 3 name).
        let mut bad = good.clone();
        bad[27] = 9;
        assert!(decode_delta_payload(&bad).is_err());
        // Absurd unit count: truncation error, no huge allocation.
        let mut bad = good;
        let count_off = 28;
        bad[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_delta_payload(&bad).is_err());
    }

    #[test]
    fn decode_rejects_invalid_interval_bytes() {
        // A record whose interval bytes decode to an inverted interval
        // must fail through the fallible FixedRecord path.
        let appends = vec![("car".to_string(), vec![rec(0.0, 1.0)])];
        let mut bytes = encode_delta_payload(0, &appends).unwrap();
        // Unit bytes start after: 8+8+4+4+3+1+4 = 32. First 8 bytes are
        // the interval start instant; overwrite with +inf.
        bytes[32..40].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(decode_delta_payload(&bytes).is_err());
    }
}
