//! Provenance records: the owned value mutations and the wire carry, the
//! borrowed view lookups hand out, and the columnar table a container
//! keeps its base in.

use lshe_minhash::codec::{CodecError, Decoder, Encoder};
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

    /// The record's one byte form: container and delta log.
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

/// Strings laid end to end; string `i` stops at `ends[i]`.
#[derive(Debug, Default)]
struct StrArena {
    ends: Vec<u32>,
    text: String,
}

impl StrArena {
    /// Appends `s` and returns its index, or `None` past 4 GiB of text.
    fn push(&mut self, s: &str) -> Option<u32> {
        let end = u32::try_from(self.text.len() + s.len()).ok()?;
        self.text.push_str(s);
        self.ends.push(end);
        Some(self.ends.len() as u32 - 1)
    }

    fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start as usize..self.ends[i] as usize]
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.ends[..]) + self.text.len()
    }
}

/// The provenance of a container's base, one column per field: ascending
/// ids, sizes, each record's column name in one arena, and its table name
/// as an index into the distinct table names (many columns share a table).
/// Immutable once built, and shared by every clone of the container.
#[derive(Debug, Default)]
pub struct RecordTable {
    ids: Vec<u32>,
    sizes: Vec<u64>,
    tables: Vec<u32>,
    table_names: StrArena,
    columns: StrArena,
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

    fn at(&self, i: usize) -> RecordRef<'_> {
        RecordRef {
            id: self.ids[i],
            size: self.sizes[i],
            table: self.table_names.get(self.tables[i] as usize),
            column: self.columns.get(i),
        }
    }

    /// The record of `id`, by binary search.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<RecordRef<'_>> {
        self.ids.binary_search(&id).ok().map(|i| self.at(i))
    }

    /// Every record, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.len()).map(|i| self.at(i))
    }

    /// One past the largest id (0 when empty) — the floor for a freshly
    /// computed allocator mark.
    pub(crate) fn high_water(&self) -> u32 {
        self.ids.last().map_or(0, |id| id + 1)
    }

    /// Heap bytes held: 20 per record, 4 per distinct table name, and the
    /// text of every column name and every distinct table name.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.ids[..])
            + std::mem::size_of_val(&self.sizes[..])
            + std::mem::size_of_val(&self.tables[..])
            + self.table_names.memory_bytes()
            + self.columns.memory_bytes()
    }
}

/// Fills a [`RecordTable`] from records arriving in ascending id order.
#[derive(Debug, Default)]
pub(crate) struct RecordTableBuilder {
    table: RecordTable,
    /// Table name → its index in `table.table_names`.
    interned: HashMap<String, u32>,
}

impl RecordTableBuilder {
    /// A builder with room for `records` records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        let mut builder = Self::default();
        builder.table.ids.reserve_exact(records);
        builder.table.sizes.reserve_exact(records);
        builder.table.tables.reserve_exact(records);
        builder.table.columns.ends.reserve_exact(records);
        builder
    }

    /// Appends one record.
    ///
    /// # Errors
    /// What is wrong with it: an id not above the one before, or names
    /// that no longer fit the arenas' 32-bit offsets.
    pub(crate) fn push(&mut self, record: RecordRef<'_>) -> Result<(), &'static str> {
        const TOO_LONG: &str = "record names exceed 4 GiB";
        let table = &mut self.table;
        if table.ids.last().is_some_and(|&last| last >= record.id) {
            return Err("records are not in ascending id order");
        }
        // Columns of one table mostly arrive together: look no further
        // than the record before when it names the same table.
        let repeated = table.tables.last();
        let repeated = repeated.filter(|&&t| table.table_names.get(t as usize) == record.table);
        let name = match repeated.or_else(|| self.interned.get(record.table)) {
            Some(&name) => name,
            None => {
                let name = table.table_names.push(record.table).ok_or(TOO_LONG)?;
                self.interned.insert(record.table.to_owned(), name);
                name
            }
        };
        table.columns.push(record.column).ok_or(TOO_LONG)?;
        table.ids.push(record.id);
        table.sizes.push(record.size);
        table.tables.push(name);
        Ok(())
    }

    /// The table, trimmed to what it holds.
    pub(crate) fn finish(self) -> RecordTable {
        let mut table = self.table;
        table.ids.shrink_to_fit();
        table.sizes.shrink_to_fit();
        table.tables.shrink_to_fit();
        for arena in [&mut table.table_names, &mut table.columns] {
            arena.ends.shrink_to_fit();
            arena.text.shrink_to_fit();
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec<'a>(id: u32, table: &'a str, column: &'a str) -> RecordRef<'a> {
        let size = u64::from(id) * 3 + 1;
        RecordRef {
            id,
            size,
            table,
            column,
        }
    }

    #[test]
    fn table_returns_what_was_pushed_and_stores_each_table_name_once() {
        // A table name that comes back after another one is still one name.
        let input = [
            rec(2, "orders", "id"),
            rec(3, "orders", "customer"),
            rec(7, "customers", "id"),
            rec(9, "orders", "total"),
            rec(10, "", ""),
        ];
        let mut builder = RecordTableBuilder::default();
        for r in input {
            builder.push(r).expect("ascending");
        }
        let table = builder.finish();
        assert_eq!(table.len(), input.len());
        assert!(table.iter().eq(input));
        for r in input {
            assert_eq!(table.get(r.id), Some(r));
        }
        for absent in [0, 1, 4, 8, 11, u32::MAX] {
            assert_eq!(table.get(absent), None);
        }
        assert_eq!(table.high_water(), 11);
        let columns: usize = input.iter().map(|r| r.column.len()).sum();
        let distinct = "orders".len() + "customers".len();
        assert_eq!(
            table.memory_bytes(),
            20 * input.len() + 4 * 3 + columns + distinct
        );
        assert_eq!(RecordTable::default().high_water(), 0);
    }

    #[test]
    fn ids_that_do_not_ascend_are_refused() {
        for second in [5, 4, 0] {
            let mut builder = RecordTableBuilder::with_capacity(2);
            builder.push(rec(5, "t", "a")).expect("first");
            let err = builder.push(rec(second, "t", "b")).unwrap_err();
            assert!(err.contains("ascending"), "{err}");
        }
    }

    #[test]
    fn record_and_view_share_one_byte_form() {
        let owned = rec(4, "täble", "cöl").to_record();
        assert_eq!(owned.view(), rec(4, "täble", "cöl"));
        let bytes = Encoder::exactly(|enc| owned.encode_into(enc));
        assert_eq!(bytes, Encoder::exactly(|enc| owned.view().encode_into(enc)));
        let mut dec = Decoder::new(&bytes);
        assert_eq!(DomainRecord::decode(&mut dec).expect("decode"), owned);
        assert!(dec.is_exhausted());
    }
}
