//! Provenance records: the owned value mutations and the wire carry, the
//! borrowed view lookups hand out, and the columnar table a container
//! keeps its base in — vectors in a container that was built, views into
//! the `.lshe` in one that was loaded, so a loaded base holds no record on
//! the heap. A domain's cardinality is not in the table: the index keeps
//! it once, beside the domain's row, and a [`RecordRef`] is filled from
//! there.

use lshe_core::position_of;
use lshe_minhash::codec::{CodecError, Column, Decoder, Encoder};
use std::collections::HashMap;
use std::io::Write;

/// Provenance of one indexed domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// Dense id (matches the ensemble's ids).
    pub id: u32,
    /// Distinct-value count.
    pub size: u64,
    /// Source table (CSV file stem).
    pub table: String,
    /// Source column.
    pub column: String,
}

impl DomainRecord {
    /// The record, borrowed.
    #[must_use]
    pub fn view(&self) -> RecordRef<'_> {
        RecordRef {
            id: self.id,
            size: self.size,
            table: &self.table,
            column: &self.column,
        }
    }

    /// The record's byte form in the delta log.
    pub(crate) fn encode_into<W: Write>(&self, enc: &mut Encoder<W>) {
        self.view().encode_into(enc);
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        RecordRef::decode(dec).map(RecordRef::to_record)
    }
}

/// A provenance record borrowed from wherever it is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Dense id (matches the ensemble's ids).
    pub id: u32,
    /// Distinct-value count.
    pub size: u64,
    /// Source table (CSV file stem).
    pub table: &'a str,
    /// Source column.
    pub column: &'a str,
}

impl<'a> RecordRef<'a> {
    /// The record as an owned value.
    #[must_use]
    pub fn to_record(self) -> DomainRecord {
        DomainRecord {
            id: self.id,
            size: self.size,
            table: self.table.to_owned(),
            column: self.column.to_owned(),
        }
    }

    /// One record, `id:u32 size:u64 table:str column:str`: a delta-log
    /// insert's, and each of a version-7 container's.
    pub(crate) fn encode_into<W: Write>(self, enc: &mut Encoder<W>) {
        enc.put_u32(self.id);
        enc.put_u64(self.size);
        enc.put_str(self.table);
        enc.put_str(self.column);
    }

    pub(crate) fn decode(dec: &mut Decoder<'a>) -> Result<Self, CodecError> {
        Ok(Self {
            id: dec.get_u32("record id")?,
            size: dec.get_u64("record size")?,
            table: dec.get_str("record table")?,
            column: dec.get_str("record column")?,
        })
    }
}

/// Strings laid end to end in one text column; string `i` stops at
/// `ends[i]` and starts where the one before stopped.
#[derive(Debug, Default)]
struct Arena {
    ends: Column<u32>,
    text: Column<u8>,
}

impl Arena {
    /// Appends `s` and returns its index, or `None` once the text would
    /// pass `limit` bytes (at most `u32::MAX`, what an end can say).
    fn push(&mut self, s: &str, limit: usize) -> Option<u32> {
        let end = self.text.len() + s.len();
        let end = u32::try_from(end)
            .ok()
            .filter(|&end| end as usize <= limit)?;
        self.text.to_mut().extend_from_slice(s.as_bytes());
        self.ends.to_mut().push(end);
        Some(self.ends.len() as u32 - 1)
    }

    fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |before| self.ends[before]);
        let text = &self.text[start as usize..self.ends[i] as usize];
        std::str::from_utf8(text).expect("checked: UTF-8 cut at character boundaries")
    }

    /// The ends ascend, stop at the text's end and fall on its character
    /// boundaries, and the text is UTF-8: every string is one.
    fn check(&self) -> Result<(), &'static str> {
        let text = std::str::from_utf8(&self.text).map_err(|_| "invalid UTF-8 in a name arena")?;
        let mut start = 0;
        for &end in self.ends.iter() {
            let end = end as usize;
            if end < start || end > text.len() {
                return Err("name ends out of order or past their text");
            }
            if !text.is_char_boundary(end) {
                return Err("a name ends inside a character");
            }
            start = end;
        }
        if start != text.len() {
            return Err("name text runs past the last name");
        }
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        self.ends.heap_bytes() + self.text.heap_bytes()
    }

    fn borrows_from(&self, bytes: &[u8]) -> bool {
        self.ends.is_view_into(bytes) && self.text.is_view_into(bytes)
    }

    fn shrink_to_fit(&mut self) {
        self.ends.to_mut().shrink_to_fit();
        self.text.to_mut().shrink_to_fit();
    }
}

/// The provenance of a container's base, one column per field: ascending
/// ids, each record's table name as an index into the distinct table names
/// (many columns share a table), and each record's column name in one
/// arena. Immutable once built or loaded, and shared by every clone of the
/// container.
#[derive(Debug, Default)]
pub struct RecordTable {
    ids: Column<u32>,
    tables: Column<u32>,
    columns: Arena,
    table_names: Arena,
}

impl RecordTable {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the table holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Record `i`'s (id, table, column).
    fn at(&self, i: usize) -> (u32, &str, &str) {
        let table = self.table_names.get(self.tables[i] as usize);
        (self.ids[i], table, self.columns.get(i))
    }

    /// The (table, column) of `id`'s record, found as the index finds an
    /// id's base row: one probe where the ids run dense.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<(&str, &str)> {
        let (_, table, column) = self.at(position_of(&self.ids, id)?);
        Some((table, column))
    }

    /// Every record as (id, table, column), in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str, &str)> {
        (0..self.len()).map(|i| self.at(i))
    }

    /// The ids, ascending.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// One past the largest id (0 when empty) — the floor for a freshly
    /// computed allocator mark.
    pub(crate) fn high_water(&self) -> u32 {
        self.ids.last().map_or(0, |id| id + 1)
    }

    /// Heap bytes held: for a table that was built, 12 per record, 4 per
    /// distinct table name, and the text of every column name and every
    /// distinct table name; for one loaded from a file, nothing.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.ids.heap_bytes()
            + self.tables.heap_bytes()
            + self.columns.heap_bytes()
            + self.table_names.heap_bytes()
    }

    /// True if every column is a view lying inside `bytes`.
    #[must_use]
    pub fn borrows_from(&self, bytes: &[u8]) -> bool {
        self.ids.is_view_into(bytes)
            && self.tables.is_view_into(bytes)
            && self.columns.borrows_from(bytes)
            && self.table_names.borrows_from(bytes)
    }

    /// True if any column is a view into a file.
    pub(crate) fn is_borrowed(&self) -> bool {
        self.ids.is_borrowed()
    }

    /// Writes the table as a container holds it:
    ///
    /// ```text
    /// count:u64 table_count:u64 column_text:u64 table_text:u64
    /// pad (to 4)
    /// ids: u32×count  tables: u32×count  column_ends: u32×count
    /// table_ends: u32×table_count
    /// column names: u8×column_text  table names: u8×table_text
    /// ```
    pub(crate) fn encode_into<W: Write>(&self, enc: &mut Encoder<W>) {
        enc.put_u64(self.ids.len() as u64);
        enc.put_u64(self.table_names.ends.len() as u64);
        enc.put_u64(self.columns.text.len() as u64);
        enc.put_u64(self.table_names.text.len() as u64);
        enc.pad_to(4);
        enc.put_u32s(&self.ids);
        enc.put_u32s(&self.tables);
        enc.put_u32s(&self.columns.ends);
        enc.put_u32s(&self.table_names.ends);
        enc.put_bytes(&self.columns.text);
        enc.put_bytes(&self.table_names.text);
    }

    /// Reads what [`encode_into`](Self::encode_into) wrote — every column a
    /// view, over a shared decoder — and checks it: the ids strictly
    /// ascend, every table index names a table, and each arena is UTF-8
    /// cut at character boundaries by ends that ascend to its last byte.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, a count the input cannot hold, or any
    /// of the above.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut count = |reading, width: usize| {
            usize::try_from(dec.get_u64(reading)?)
                .ok()
                .filter(|&n| n.checked_mul(width).is_some_and(|b| b <= dec.remaining()))
                .ok_or(CodecError::Corrupt("announced length exceeds input"))
        };
        let records = count("record count", 12)?;
        let table_count = count("table count", 4)?;
        let column_text = count("column text length", 1)?;
        let table_text = count("table text length", 1)?;
        dec.get_pad("records pad")?;
        let ids = dec.get_column(records, "record ids")?;
        let tables = dec.get_column(records, "record tables")?;
        let column_ends = dec.get_column(records, "column name ends")?;
        let table_ends = dec.get_column(table_count, "table name ends")?;
        // The texts follow the ends, column names first.
        let table = Self {
            ids,
            tables,
            columns: Arena {
                ends: column_ends,
                text: dec.get_column(column_text, "column names")?,
            },
            table_names: Arena {
                ends: table_ends,
                text: dec.get_column(table_text, "table names")?,
            },
        };
        table.check().map_err(CodecError::Corrupt)?;
        Ok(table)
    }

    fn check(&self) -> Result<(), &'static str> {
        if !self.ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("records are not in ascending id order");
        }
        let names = self.table_names.ends.len();
        if self.tables.iter().any(|&t| t as usize >= names) {
            return Err("record table index out of range");
        }
        self.columns.check()?;
        self.table_names.check()
    }
}

/// Fills a [`RecordTable`] from records arriving in ascending id order.
#[derive(Debug)]
pub(crate) struct RecordTableBuilder {
    table: RecordTable,
    /// Table name → its index in `table.table_names`.
    interned: HashMap<String, u32>,
    /// Most text bytes an arena takes: `u32::MAX`, all its `u32` ends can
    /// address.
    text_limit: usize,
}

impl Default for RecordTableBuilder {
    fn default() -> Self {
        Self {
            table: RecordTable::default(),
            interned: HashMap::new(),
            text_limit: u32::MAX as usize,
        }
    }
}

impl RecordTableBuilder {
    /// A builder with room for `records` records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        let mut builder = Self::default();
        let table = &mut builder.table;
        table.ids.to_mut().reserve_exact(records);
        table.tables.to_mut().reserve_exact(records);
        table.columns.ends.to_mut().reserve_exact(records);
        builder
    }

    /// A builder whose arenas take at most `limit` text bytes — the 4 GiB
    /// refusal, reachable in a test.
    #[cfg(test)]
    pub(crate) fn with_text_limit(limit: usize) -> Self {
        Self {
            text_limit: limit,
            ..Self::default()
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    /// What is wrong with it: an id not above the one before, or names
    /// past what the arenas' `u32` ends address — 4 GiB of column names, or
    /// of distinct table names.
    pub(crate) fn push(&mut self, id: u32, table: &str, column: &str) -> Result<(), &'static str> {
        const TOO_LONG: &str = "record names exceed 4 GiB";
        let records = &mut self.table;
        if records.ids.last().is_some_and(|&last| last >= id) {
            return Err("records are not in ascending id order");
        }
        // Columns of one table mostly arrive together: look no further
        // than the record before when it names the same table.
        let repeated = records.tables.last();
        let repeated = repeated.filter(|&&t| records.table_names.get(t as usize) == table);
        let name = match repeated.or_else(|| self.interned.get(table)) {
            Some(&name) => name,
            None => {
                let name = records.table_names.push(table, self.text_limit);
                let name = name.ok_or(TOO_LONG)?;
                self.interned.insert(table.to_owned(), name);
                name
            }
        };
        records
            .columns
            .push(column, self.text_limit)
            .ok_or(TOO_LONG)?;
        records.ids.to_mut().push(id);
        records.tables.to_mut().push(name);
        Ok(())
    }

    /// The table, trimmed to what it holds.
    pub(crate) fn finish(self) -> RecordTable {
        let mut table = self.table;
        table.ids.to_mut().shrink_to_fit();
        table.tables.to_mut().shrink_to_fit();
        table.columns.shrink_to_fit();
        table.table_names.shrink_to_fit();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::codec::Owner;
    use std::sync::Arc;

    const INPUT: [(u32, &str, &str); 5] = [
        (2, "orders", "id"),
        (3, "orders", "customer"),
        (7, "customers", "id"),
        (9, "orders", "total"),
        (10, "", ""),
    ];

    fn table() -> RecordTable {
        let mut builder = RecordTableBuilder::default();
        for (id, table, column) in INPUT {
            builder.push(id, table, column).expect("ascending");
        }
        builder.finish()
    }

    #[test]
    fn table_returns_what_was_pushed_and_stores_each_table_name_once() {
        // A table name that comes back after another one is still one name.
        let table = table();
        assert_eq!(table.len(), INPUT.len());
        assert!(table.iter().eq(INPUT));
        for (id, t, c) in INPUT {
            assert_eq!(table.get(id), Some((t, c)));
        }
        for absent in [0, 1, 4, 8, 11, u32::MAX] {
            assert_eq!(table.get(absent), None);
        }
        assert_eq!(table.high_water(), 11);
        let columns: usize = INPUT.iter().map(|r| r.2.len()).sum();
        let distinct = "orders".len() + "customers".len();
        assert_eq!(
            table.heap_bytes(),
            12 * INPUT.len() + 4 * 3 + columns + distinct
        );
        assert_eq!(RecordTable::default().high_water(), 0);
    }

    #[test]
    fn ids_that_do_not_ascend_are_refused() {
        for second in [5, 4, 0] {
            let mut builder = RecordTableBuilder::with_capacity(2);
            builder.push(5, "t", "a").expect("first");
            let err = builder.push(second, "t", "b").unwrap_err();
            assert!(err.contains("ascending"), "{err}");
        }
    }

    #[test]
    fn names_past_what_an_arena_addresses_are_refused() {
        let mut builder = RecordTableBuilder::with_text_limit(8);
        builder.push(0, "tbl", "col").expect("6 bytes");
        assert_eq!(
            builder.push(1, "tbl", "column"),
            Err("record names exceed 4 GiB")
        );
        assert_eq!(
            builder.push(1, "others", "c"),
            Err("record names exceed 4 GiB")
        );
        builder.push(1, "tbl", "c2").expect("8 bytes");
        assert_eq!(builder.finish().len(), 2);
    }

    #[test]
    fn record_and_view_share_one_byte_form() {
        let owned = RecordRef {
            id: 4,
            size: 13,
            table: "täble",
            column: "cöl",
        }
        .to_record();
        let bytes = Encoder::exactly(|enc| owned.encode_into(enc));
        assert_eq!(bytes, Encoder::exactly(|enc| owned.view().encode_into(enc)));
        let mut dec = Decoder::new(&bytes);
        assert_eq!(DomainRecord::decode(&mut dec).expect("decode"), owned);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn a_table_round_trips_as_views_of_a_shared_owner() {
        let built = table();
        let bytes = Encoder::exactly(|enc| built.encode_into(enc));
        let owner: Owner = Arc::new(bytes.clone());
        let viewed = RecordTable::decode(&mut Decoder::shared(&owner)).expect("decode");
        assert!(viewed.iter().eq(INPUT));
        assert!(viewed.borrows_from((*owner).as_ref()));
        assert_eq!(viewed.heap_bytes(), 0);
        assert!(!built.borrows_from(&bytes));
        let copied = RecordTable::decode(&mut Decoder::new(&bytes)).expect("decode");
        assert!(copied.iter().eq(INPUT) && !copied.is_borrowed());
        assert_eq!(Encoder::exactly(|enc| viewed.encode_into(enc)), bytes);
    }

    #[test]
    fn each_damaged_column_is_a_typed_error() {
        let bytes = Encoder::exactly(|enc| table().encode_into(enc));
        // 32 bytes of counts, a pad of 1 + 3, then ids (5 × 4), tables
        // (5 × 4), column ends (5 × 4), table ends (3 × 4: "orders",
        // "customers", ""), the column names and the table names.
        let (ids, tables, ends, table_ends, text) = (36, 56, 76, 96, 108);
        let column_text: usize = INPUT.iter().map(|r| r.2.len()).sum();
        let put = |at: usize, v: u32| {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            bad
        };
        let mut short = put(table_ends + 4, 14);
        short[table_ends + 8..table_ends + 12].copy_from_slice(&14u32.to_le_bytes());
        let mut not_utf8 = bytes.clone();
        not_utf8[text] = 0xC3; // "id": a two-byte lead, then 'd'
        let cases = [
            (
                "ids out of order",
                put(ids + 4, 2),
                "records are not in ascending id order",
            ),
            (
                "a table index past the names",
                put(tables, 3),
                "record table index out of range",
            ),
            (
                "column ends out of order",
                put(ends, 11),
                "name ends out of order or past their text",
            ),
            (
                "table ends past the text",
                put(table_ends + 4, 99),
                "name ends out of order or past their text",
            ),
            (
                "a column name not UTF-8",
                not_utf8,
                "invalid UTF-8 in a name arena",
            ),
            (
                "the last name short of the text",
                short,
                "name text runs past the last name",
            ),
        ];
        for (what, bad, detail) in cases {
            let err = RecordTable::decode(&mut Decoder::new(&bad)).unwrap_err();
            assert_eq!(err, CodecError::Corrupt(detail), "{what}");
        }
        assert_eq!(bytes.len(), text + column_text + "orderscustomers".len());
        // Cut anywhere: a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(RecordTable::decode(&mut Decoder::new(&bytes[..cut])).is_err());
        }
        // Valid UTF-8 cut inside a character: "öx" then "y", the first end
        // moved into the 'ö'.
        let mut builder = RecordTableBuilder::default();
        builder.push(0, "t", "öx").expect("first");
        builder.push(1, "t", "y").expect("second");
        let two = builder.finish();
        let mut inside = Encoder::exactly(|enc| two.encode_into(enc));
        // 32 bytes of counts, a pad of 1 + 3, ids and tables (2 × 4 each).
        inside[52..56].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            RecordTable::decode(&mut Decoder::new(&inside)).unwrap_err(),
            CodecError::Corrupt("a name ends inside a character")
        );
    }
}
