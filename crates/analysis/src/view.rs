//! The read side of the aggregation layer: a thin, figure-oriented view
//! over one [`PartialAggregate`].
//!
//! The report generators consume sample *values* (CDF inputs, Fig 10
//! class sequences); the aggregate stores them with their merge keys
//! (priorities, timestamps). [`ReportView`] materializes the value form
//! once, so the ~20 generators in [`crate::report`] stay simple and the
//! aggregate stays canonical. Everything else passes through via
//! `Deref`, so a view reads like the collector always did.

use std::ops::Deref;

use crate::agg::PartialAggregate;

/// Borrowed, figure-oriented view over a [`PartialAggregate`].
pub struct ReportView<'a> {
    agg: &'a PartialAggregate,
    /// IP-ID delta samples per class, in canonical reservoir order.
    pub ipid_samples: Vec<Vec<u32>>,
    /// TTL delta samples per class, in canonical reservoir order.
    pub ttl_samples: Vec<Vec<i16>>,
    /// Per-(ip, domain) Post-PSH class codes in time order, iterated in
    /// key order — the Fig 10 input.
    pub pair_codes: Vec<Vec<u8>>,
}

impl<'a> ReportView<'a> {
    /// Materialize the sample vectors for one aggregate.
    pub(crate) fn new(agg: &'a PartialAggregate) -> ReportView<'a> {
        ReportView {
            agg,
            ipid_samples: agg.ipid_res.iter().map(|r| r.values().collect()).collect(),
            ttl_samples: agg.ttl_res.iter().map(|r| r.values().collect()).collect(),
            pair_codes: agg
                .pair_seqs
                .values()
                .map(|s| s.codes().collect())
                .collect(),
        }
    }
}

impl Deref for ReportView<'_> {
    type Target = PartialAggregate;

    fn deref(&self) -> &PartialAggregate {
        self.agg
    }
}

impl PartialAggregate {
    /// Figure-oriented view over this aggregate.
    pub fn view(&self) -> ReportView<'_> {
        ReportView::new(self)
    }
}
