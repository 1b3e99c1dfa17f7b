//! Encoding of SQL catalog entries and rows into the engine's
//! `u64 → i64` store.
//!
//! Everything the SQL layer persists rides the session engine's
//! ordinary write path, so schemas and rows get WAL framing, group
//! commit, and crash/recover for free. The store is a flat key space;
//! the SQL layer claims the keys whose top bit is set:
//!
//! ```text
//! bit 63  SQL_BIT   — set for every SQL-owned key
//! bit 62  ROW_BIT   — clear: catalog entry, set: row
//!
//! catalog key:  SQL_BIT | table_id << 16 | chunk          (chunk: 16 bits)
//! row key:      SQL_BIT | ROW_BIT | table_id << 46
//!                       | rid << 14 | chunk               (chunk: 14 bits)
//! ```
//!
//! Chunk 0 is the *header*: its `i64` value is the byte length of the
//! entry's blob, or [`TOMBSTONE`] for a deleted row. Chunks `1..=n`
//! carry the blob eight bytes per value, little-endian, zero-padded.
//! An update may shrink a blob and leave stale high chunks behind; the
//! header length bounds every read, so they are never decoded.
//!
//! Blob formats (all integers little-endian):
//!
//! * schema: `u16` name length, name bytes, `u16` column count, then
//!   per column `u16` length + name bytes + one type byte
//!   (0 = INT, 1 = FLOAT, 2 = TEXT).
//! * row: per column one tag byte — 0 `NULL`, 1 `INT` + 8 bytes,
//!   2 `FLOAT` + 8 bytes (IEEE bits), 3 `TEXT` + `u32` length + bytes.

use mmdb_types::error::{Error, Result};
use mmdb_types::schema::{Column, DataType, Schema};
use mmdb_types::tuple::Tuple;
use mmdb_types::value::Value;

/// Top bit: marks a key as owned by the SQL subsystem.
pub const SQL_BIT: u64 = 1 << 63;
/// Second bit: row (set) vs catalog entry (clear).
pub const ROW_BIT: u64 = 1 << 62;
/// Header value marking a deleted row.
pub const TOMBSTONE: i64 = -1;

/// Highest table id the key layout can carry (16 bits).
pub const MAX_TABLE_ID: u32 = 0xFFFF;
/// Highest row id the key layout can carry (32 bits).
pub const MAX_RID: u32 = u32::MAX;
/// Highest chunk index of a catalog entry (16 bits).
const MAX_CATALOG_CHUNK: u64 = 0xFFFF;
/// Highest chunk index of a row (14 bits).
const MAX_ROW_CHUNK: u64 = 0x3FFF;

/// True when `key` belongs to the SQL subsystem.
pub fn is_sql_key(key: u64) -> bool {
    key & SQL_BIT != 0
}

/// Builds the store key of catalog chunk `chunk` for `table_id`.
pub fn catalog_key(table_id: u32, chunk: u64) -> Result<u64> {
    if table_id > MAX_TABLE_ID {
        return Err(Error::Internal(format!("table id {table_id} out of range")));
    }
    if chunk > MAX_CATALOG_CHUNK {
        return Err(Error::TupleTooLarge(chunk as usize * 8));
    }
    Ok(SQL_BIT | (u64::from(table_id) << 16) | chunk)
}

/// Builds the store key of row chunk `chunk` for `(table_id, rid)`.
pub fn row_key(table_id: u32, rid: u32, chunk: u64) -> Result<u64> {
    if table_id > MAX_TABLE_ID {
        return Err(Error::Internal(format!("table id {table_id} out of range")));
    }
    if chunk > MAX_ROW_CHUNK {
        return Err(Error::TupleTooLarge(chunk as usize * 8));
    }
    Ok(SQL_BIT | ROW_BIT | (u64::from(table_id) << 46) | (u64::from(rid) << 14) | chunk)
}

/// A decoded SQL store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlKey {
    /// A catalog (schema) chunk.
    Catalog {
        /// Owning table.
        table_id: u32,
        /// Chunk index (0 = header).
        chunk: u64,
    },
    /// A row chunk.
    Row {
        /// Owning table.
        table_id: u32,
        /// Row id within the table.
        rid: u32,
        /// Chunk index (0 = header).
        chunk: u64,
    },
}

/// Splits a SQL-owned key into its components; `None` for keys outside
/// the SQL key space.
pub fn parse_key(key: u64) -> Option<SqlKey> {
    if key & SQL_BIT == 0 {
        return None;
    }
    if key & ROW_BIT == 0 {
        Some(SqlKey::Catalog {
            table_id: ((key >> 16) & 0xFFFF) as u32,
            chunk: key & 0xFFFF,
        })
    } else {
        Some(SqlKey::Row {
            table_id: ((key >> 46) & 0xFFFF) as u32,
            rid: ((key >> 14) & 0xFFFF_FFFF) as u32,
            chunk: key & MAX_ROW_CHUNK,
        })
    }
}

/// Packs blob bytes into store words, eight per `i64`, little-endian,
/// zero-padded.
pub fn blob_to_words(blob: &[u8]) -> Vec<i64> {
    blob.chunks(8)
        .map(|chunk| {
            let mut b = [0u8; 8];
            for (dst, src) in b.iter_mut().zip(chunk) {
                *dst = *src;
            }
            i64::from_le_bytes(b)
        })
        .collect()
}

/// Reassembles a blob of `len` bytes from store words.
pub fn words_to_blob(words: &[i64], len: usize) -> Result<Vec<u8>> {
    let need = len.div_ceil(8);
    if words.len() < need {
        return Err(Error::CorruptLog(format!(
            "blob of {len} bytes needs {need} chunks, found {}",
            words.len()
        )));
    }
    let mut out = Vec::with_capacity(len);
    for w in words.iter().take(need) {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    Ok(out)
}

// ---------------------------------------------------------------------
// Byte-level reader (no slicing, so the panic-freedom audit stays clean)
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn corrupt(&self, what: &str) -> Error {
        Error::CorruptLog(format!("{what} at byte {} of SQL blob", self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.corrupt("length overflow"))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.corrupt("truncated field"))?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("truncated byte"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        let mut b = [0u8; 2];
        for (dst, src) in b.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        for (dst, src) in b.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        for (dst, src) in b.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(u64::from_le_bytes(b))
    }

    fn string(&mut self, len: usize) -> Result<String> {
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------
// Schema blobs
// ---------------------------------------------------------------------

/// Longest table/column name the codec accepts.
pub const MAX_NAME_BYTES: usize = 256;
/// Most columns a table may declare.
pub const MAX_COLUMNS: usize = 256;
/// Largest encoded row blob (bounded by the 14-bit chunk space).
pub const MAX_ROW_BYTES: usize = (MAX_ROW_CHUNK as usize) * 8;

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

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
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

/// Reads `count` tagged values starting at `*pos`, advancing `*pos`
/// past them — the wire decoder's incremental entry point.
pub fn decode_values_at(blob: &[u8], pos: &mut usize, count: usize) -> Result<Vec<Value>> {
    let rest = blob
        .get(*pos..)
        .ok_or_else(|| Error::CorruptLog("value offset out of range".to_string()))?;
    let mut r = Reader::new(rest);
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(decode_value(&mut r)?);
    }
    *pos += r.pos;
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let k = catalog_key(7, 3).unwrap();
        assert!(is_sql_key(k));
        assert_eq!(
            parse_key(k),
            Some(SqlKey::Catalog {
                table_id: 7,
                chunk: 3
            })
        );
        let k = row_key(MAX_TABLE_ID, MAX_RID, MAX_ROW_CHUNK).unwrap();
        assert_eq!(
            parse_key(k),
            Some(SqlKey::Row {
                table_id: MAX_TABLE_ID,
                rid: MAX_RID,
                chunk: MAX_ROW_CHUNK
            })
        );
        assert_eq!(parse_key(42), None);
        assert!(catalog_key(0x10000, 0).is_err());
        assert!(row_key(0, 0, MAX_ROW_CHUNK + 1).is_err());
    }

    #[test]
    fn catalog_and_row_keys_do_not_collide() {
        let c = catalog_key(1, 0).unwrap();
        let r = row_key(1, 0, 0).unwrap();
        assert_ne!(c, r);
        assert!(c & ROW_BIT == 0 && r & ROW_BIT != 0);
    }

    #[test]
    fn words_roundtrip() {
        for blob in [
            Vec::new(),
            vec![1u8],
            vec![0xAB; 8],
            (0..=255u8).collect::<Vec<u8>>(),
        ] {
            let words = blob_to_words(&blob);
            assert_eq!(words.len(), blob.len().div_ceil(8));
            assert_eq!(words_to_blob(&words, blob.len()).unwrap(), blob);
        }
        assert!(words_to_blob(&[1], 16).is_err());
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

    #[test]
    fn incremental_value_decode() {
        let mut blob = Vec::new();
        encode_value_into(&mut blob, &Value::Int(1)).unwrap();
        encode_value_into(&mut blob, &Value::Str("ab".to_string())).unwrap();
        let mut pos = 0;
        let first = decode_values_at(&blob, &mut pos, 1).unwrap();
        assert_eq!(first, vec![Value::Int(1)]);
        let second = decode_values_at(&blob, &mut pos, 1).unwrap();
        assert_eq!(second, vec![Value::Str("ab".to_string())]);
        assert_eq!(pos, blob.len());
    }
}
