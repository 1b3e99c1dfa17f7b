//! The execution context: memory grant, fudge factor, and the meter.

use crate::meter::CostMeter;
use mmdb_planner::optimizer::PlanEnv;
use std::sync::Arc;

/// Everything an operator needs to execute and be priced. `M` is the
/// [`crate::Meter`] its operators charge: a shared [`CostMeter`] unless
/// the context was made [`ExecContext::unmetered`].
#[derive(Debug, Clone)]
pub struct ExecContext<M = Arc<CostMeter>> {
    /// The meter all operators charge into.
    pub meter: M,
    /// `|M|` — pages of main memory granted to the operator.
    pub mem_pages: usize,
    /// `F` — the universal fudge factor: a hash/sort structure holding `X`
    /// pages of tuples occupies `X·F` pages.
    pub fudge: f64,
}

impl ExecContext {
    /// A context with a fresh meter.
    pub fn new(mem_pages: usize, fudge: f64) -> Self {
        ExecContext {
            meter: Arc::new(CostMeter::new()),
            mem_pages,
            fudge,
        }
    }
}

impl ExecContext<()> {
    /// The grant `env` priced a plan under — its `|M|` and `F` — with no
    /// meter: how a query nobody prices runs.
    pub fn unmetered(env: &PlanEnv) -> Self {
        ExecContext {
            meter: (),
            mem_pages: env.mem_pages,
            fudge: env.params.fudge,
        }
    }
}

impl<M> ExecContext<M> {
    /// How many tuples fit in this context's memory when each logical page
    /// holds `tuples_per_page` and structures carry the fudge overhead:
    /// `{M} = |M| · tpp / F`.
    pub fn mem_tuple_capacity(&self, tuples_per_page: usize) -> usize {
        ((self.mem_pages as f64 * tuples_per_page as f64 / self.fudge).floor() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic() {
        let ctx = ExecContext::new(1200, 1.2);
        assert_eq!(ctx.mem_tuple_capacity(40), 40_000);
    }

    #[test]
    fn capacity_never_zero() {
        let ctx = ExecContext::new(0, 1.2);
        assert_eq!(ctx.mem_tuple_capacity(40), 1);
    }
}
