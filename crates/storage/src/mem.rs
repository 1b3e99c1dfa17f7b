//! Fully memory-resident relations with a paged view.
//!
//! The §3 join study works in units of *pages* (`|R|`, `|S|`) and *tuples*
//! (`||R||`, `||S||`). [`MemRelation`] keeps tuples in memory grouped into
//! fixed-fanout logical pages so the executable join algorithms can spill
//! and re-read page-sized units, charging each transfer to the
//! [`CostMeter`](crate::CostMeter) at the paper's prices.

use mmdb_types::{Error, Result, Schema, Tuple};

/// A memory-resident relation: a schema plus tuples grouped into logical
/// pages of a fixed number of tuples (Table 2 uses 40 tuples/page).
#[derive(Debug, Clone)]
pub struct MemRelation {
    schema: Schema,
    tuples: Vec<Tuple>,
    tuples_per_page: usize,
}

impl MemRelation {
    /// An empty relation.
    pub fn new(schema: Schema, tuples_per_page: usize) -> Self {
        assert!(tuples_per_page > 0, "need at least one tuple per page");
        MemRelation {
            schema,
            tuples: Vec::new(),
            tuples_per_page,
        }
    }

    /// Builds a relation from tuples, validating each against the schema.
    pub fn from_tuples(schema: Schema, tuples_per_page: usize, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            schema.check(t)?;
        }
        let mut r = MemRelation::new(schema, tuples_per_page);
        r.tuples = tuples;
        Ok(r)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `||R||` — tuple count.
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// `|R|` — page count (ceiling of tuples / tuples-per-page).
    pub fn page_count(&self) -> usize {
        self.tuples.len().div_ceil(self.tuples_per_page)
    }

    /// Tuples per logical page.
    pub fn tuples_per_page(&self) -> usize {
        self.tuples_per_page
    }

    /// All tuples in storage order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Appends a tuple after schema validation.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.check(&tuple)?;
        self.tuples.push(tuple);
        Ok(())
    }

    /// The tuples of logical page `p`.
    pub fn page(&self, p: usize) -> Result<&[Tuple]> {
        let start = p * self.tuples_per_page;
        if start >= self.tuples.len() && !(p == 0 && self.tuples.is_empty()) {
            return Err(Error::PageNotFound(p as u64));
        }
        let end = ((p + 1) * self.tuples_per_page).min(self.tuples.len());
        Ok(&self.tuples[start..end])
    }

    /// Iterates logical pages in order.
    pub fn pages(&self) -> impl Iterator<Item = &[Tuple]> + '_ {
        self.tuples.chunks(self.tuples_per_page)
    }

    /// Consumes the relation, returning its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// A relation with the same schema and page fanout but no tuples.
    pub fn empty_like(&self) -> MemRelation {
        MemRelation::new(self.schema.clone(), self.tuples_per_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn rel(n: usize, per_page: usize) -> MemRelation {
        let tuples = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64), Value::Int(0)]))
            .collect();
        MemRelation::from_tuples(schema(), per_page, tuples).unwrap()
    }

    #[test]
    fn page_arithmetic() {
        let r = rel(100, 40);
        assert_eq!(r.tuple_count(), 100);
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.page(0).unwrap().len(), 40);
        assert_eq!(r.page(2).unwrap().len(), 20);
        assert!(r.page(3).is_err());
    }

    #[test]
    fn empty_relation() {
        let r = rel(0, 40);
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.pages().count(), 0);
        assert_eq!(r.page(0).unwrap().len(), 0);
    }

    #[test]
    fn push_validates_schema() {
        let mut r = rel(0, 4);
        assert!(r
            .push(Tuple::new(vec![Value::Int(1), Value::Int(2)]))
            .is_ok());
        assert!(r
            .push(Tuple::new(vec![Value::Str("no".into()), Value::Int(2)]))
            .is_err());
        assert!(r.push(Tuple::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn from_tuples_validates() {
        let bad = vec![Tuple::new(vec![Value::Int(1)])];
        assert!(MemRelation::from_tuples(schema(), 4, bad).is_err());
    }

    #[test]
    fn pages_iterator_covers_all_tuples() {
        let r = rel(95, 10);
        let total: usize = r.pages().map(|p| p.len()).sum();
        assert_eq!(total, 95);
        assert_eq!(r.pages().count(), 10);
    }

    #[test]
    fn empty_like_preserves_shape() {
        let r = rel(10, 7);
        let e = r.empty_like();
        assert_eq!(e.tuple_count(), 0);
        assert_eq!(e.tuples_per_page(), 7);
        assert_eq!(e.schema(), r.schema());
    }
}
