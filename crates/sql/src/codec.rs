//! Encoding of SQL catalog entries and rows into the engine's byte
//! records.
//!
//! Everything the SQL layer persists rides the session engine's
//! ordinary write path, so schemas and rows get WAL framing, group
//! commit, and crash/recover for free. The store maps `u64` keys to
//! byte records; the SQL layer claims the keys whose top bit is set,
//! one key per schema and one key per row:
//!
//! ```text
//! bit 63  SQL_BIT   — set for every SQL-owned key
//! bit 62  ROW_BIT   — clear: catalog entry, set: row
//!
//! catalog key:  SQL_BIT | table_id                  (table_id: 16 bits)
//! row key:      SQL_BIT | ROW_BIT | table_id << 32 | rid   (rid: 32 bits)
//! ```
//!
//! The record under a key is the blob below, encoded once at this
//! boundary and handed to the engine as bytes. A deleted row's record is
//! empty (no row encodes to zero bytes — a table has at least one
//! column), which keeps its rid from ever being reissued.
//!
//! Blob formats (all integers little-endian):
//!
//! * schema: `u16` name length, name bytes, `u16` column count, then
//!   per column `u16` length + name bytes + one type byte
//!   (0 = INT, 1 = FLOAT, 2 = TEXT).
//! * row: per column one tag byte — 0 `NULL`, 1 `INT` + 8 bytes,
//!   2 `FLOAT` + 8 bytes (IEEE bits), 3 `TEXT` + `u32` length + bytes.

use mmdb_types::error::{Error, Result};
use mmdb_types::reader::Reader;
use mmdb_types::schema::{Column, DataType, Schema};
use mmdb_types::tuple::Tuple;
use mmdb_types::value::Value;

/// Top bit: marks a key as owned by the SQL subsystem.
pub const SQL_BIT: u64 = 1 << 63;
/// Second bit: row (set) vs catalog entry (clear).
pub const ROW_BIT: u64 = 1 << 62;

/// Highest table id the key layout can carry (16 bits).
pub const MAX_TABLE_ID: u32 = 0xFFFF;
/// Highest row id the key layout can carry (32 bits).
pub const MAX_RID: u32 = u32::MAX;

/// True when `key` belongs to the SQL subsystem.
pub fn is_sql_key(key: u64) -> bool {
    key & SQL_BIT != 0
}

fn check_table_id(table_id: u32) -> Result<u64> {
    if table_id > MAX_TABLE_ID {
        return Err(Error::Internal(format!("table id {table_id} out of range")));
    }
    Ok(u64::from(table_id))
}

/// The store key of `table_id`'s schema.
pub fn catalog_key(table_id: u32) -> Result<u64> {
    Ok(SQL_BIT | check_table_id(table_id)?)
}

/// The store key of row `rid` of `table_id`.
pub fn row_key(table_id: u32, rid: u32) -> Result<u64> {
    Ok(SQL_BIT | ROW_BIT | (check_table_id(table_id)? << 32) | u64::from(rid))
}

/// A decoded SQL store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlKey {
    /// A table's schema.
    Catalog {
        /// The table.
        table_id: u32,
    },
    /// One row.
    Row {
        /// Owning table.
        table_id: u32,
        /// Row id within the table.
        rid: u32,
    },
}

/// Splits a SQL-owned key into its components — the exact inverse of
/// [`catalog_key`] / [`row_key`]: `None` for a key outside the SQL key
/// space *and* for a SQL-owned key with a bit set that neither layout
/// uses (tell the two apart with [`is_sql_key`]).
pub fn parse_key(key: u64) -> Option<SqlKey> {
    if !is_sql_key(key) {
        return None;
    }
    let table_mask = u64::from(MAX_TABLE_ID);
    let (parsed, rebuilt) = if key & ROW_BIT == 0 {
        let table_id = (key & table_mask) as u32;
        (SqlKey::Catalog { table_id }, catalog_key(table_id))
    } else {
        let table_id = ((key >> 32) & table_mask) as u32;
        let rid = (key & u64::from(MAX_RID)) as u32;
        (SqlKey::Row { table_id, rid }, row_key(table_id, rid))
    };
    // A bit neither layout uses does not survive the round trip.
    (rebuilt.ok() == Some(key)).then_some(parsed)
}

// ---------------------------------------------------------------------
// Schema blobs
// ---------------------------------------------------------------------

/// Longest table/column name the codec accepts.
pub const MAX_NAME_BYTES: usize = 256;
/// Most columns a table may declare.
pub const MAX_COLUMNS: usize = 256;
/// Largest encoded row blob: 128 KiB, far below the engine's own
/// per-record ceiling, so one row stays a small multiple of a log page.
pub const MAX_ROW_BYTES: usize = 128 * 1024;

fn push_name(out: &mut Vec<u8>, name: &str) -> Result<()> {
    if name.len() > MAX_NAME_BYTES {
        return Err(Error::TupleTooLarge(name.len()));
    }
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

/// Encodes a table's name and schema into a catalog blob.
pub fn encode_schema(name: &str, schema: &Schema) -> Result<Vec<u8>> {
    if schema.arity() > MAX_COLUMNS {
        return Err(Error::TupleTooLarge(schema.arity()));
    }
    let mut out = Vec::new();
    push_name(&mut out, name)?;
    out.extend_from_slice(&(schema.arity() as u16).to_le_bytes());
    for col in schema.columns() {
        push_name(&mut out, &col.name)?;
        out.push(match col.ty {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
        });
    }
    Ok(out)
}

/// Decodes a catalog blob back into the table name and schema.
pub fn decode_schema(blob: &[u8]) -> Result<(String, Schema)> {
    let mut r = Reader::new(blob);
    let name_len = r.u16()? as usize;
    let name = r.string(name_len)?;
    let ncols = r.u16()? as usize;
    if ncols > MAX_COLUMNS {
        return Err(r.corrupt("column count out of range"));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = r.u16()? as usize;
        let cname = r.string(len)?;
        let ty = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            other => return Err(r.corrupt(&format!("unknown column type tag {other}"))),
        };
        cols.push(Column::new(cname, ty));
    }
    if !r.done() {
        return Err(r.corrupt("trailing bytes in schema blob"));
    }
    Ok((name, Schema::new(cols)?))
}

// ---------------------------------------------------------------------
// Row blobs and wire values
// ---------------------------------------------------------------------

/// Appends one tagged [`Value`] to `out` (the same encoding the wire
/// protocol uses for result rows).
pub fn encode_value_into(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            if s.len() > u32::MAX as usize {
                return Err(Error::TupleTooLarge(s.len()));
            }
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
    Ok(())
}

/// Reads one tagged [`Value`] — the inverse of [`encode_value_into`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.u64()? as i64)),
        2 => Ok(Value::Float(f64::from_bits(r.u64()?))),
        3 => {
            let len = r.u32()? as usize;
            Ok(Value::Str(r.string(len)?))
        }
        other => Err(r.corrupt(&format!("unknown value tag {other}"))),
    }
}

/// Encodes a row into its blob. The caller has already schema-checked
/// the tuple, so the arity is the schema's.
pub fn encode_row(tuple: &Tuple) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for v in tuple.values() {
        encode_value_into(&mut out, v)?;
    }
    if out.len() > MAX_ROW_BYTES {
        return Err(Error::TupleTooLarge(out.len()));
    }
    Ok(out)
}

/// Decodes a row blob, validating the value count against `arity`.
pub fn decode_row(blob: &[u8], arity: usize) -> Result<Tuple> {
    let mut r = Reader::new(blob);
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(&mut r)?);
    }
    if !r.done() {
        return Err(r.corrupt("trailing bytes in row blob"));
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let k = catalog_key(7).unwrap();
        assert!(is_sql_key(k));
        assert_eq!(parse_key(k), Some(SqlKey::Catalog { table_id: 7 }));
        let k = row_key(MAX_TABLE_ID, MAX_RID).unwrap();
        assert_eq!(
            parse_key(k),
            Some(SqlKey::Row {
                table_id: MAX_TABLE_ID,
                rid: MAX_RID
            })
        );
        assert_eq!(parse_key(42), None);
        assert!(catalog_key(0x10000).is_err());
        assert!(row_key(0x10000, 0).is_err());
    }

    #[test]
    fn keys_outside_the_two_layouts_do_not_parse() {
        let c = catalog_key(1).unwrap();
        let r = row_key(1, 0).unwrap();
        assert_ne!(c, r);
        assert!(c & ROW_BIT == 0 && r & ROW_BIT != 0);
        // A stray bit between the table id and the flag bits.
        for stray in [c | 1 << 16, c | 1 << 40, r | 1 << 48, r | 1 << 61] {
            assert!(is_sql_key(stray));
            assert_eq!(parse_key(stray), None, "{stray:#x}");
        }
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Float),
        ]);
        let blob = encode_schema("emp", &schema).unwrap();
        let (name, back) = decode_schema(&blob).unwrap();
        assert_eq!(name, "emp");
        assert_eq!(back, schema);
    }

    #[test]
    fn schema_decode_rejects_corruption() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let blob = encode_schema("t", &schema).unwrap();
        for cut in 0..blob.len() {
            assert!(decode_schema(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_tag = blob.clone();
        *bad_tag.last_mut().unwrap() = 9;
        assert!(decode_schema(&bad_tag).is_err());
        let mut trailing = blob;
        trailing.push(0);
        assert!(decode_schema(&trailing).is_err());
    }

    #[test]
    fn row_roundtrip() {
        let t = Tuple::new(vec![
            Value::Int(-5),
            Value::Float(2.5),
            Value::Str("héllo".to_string()),
            Value::Null,
        ]);
        let blob = encode_row(&t).unwrap();
        assert_eq!(decode_row(&blob, 4).unwrap(), t);
        assert!(decode_row(&blob, 3).is_err()); // trailing bytes
        assert!(decode_row(&blob, 5).is_err()); // truncated
    }

    #[test]
    fn oversized_names_are_rejected() {
        let long = "x".repeat(MAX_NAME_BYTES + 1);
        let schema = Schema::of(&[("id", DataType::Int)]);
        assert!(encode_schema(&long, &schema).is_err());
    }
}
