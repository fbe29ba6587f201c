package live

import (
	"geomob/internal/core"
)

// TierFold is one rollup tier's contribution to a fold: how many
// aligned groups the window fully covered at this factor and how many
// live buckets those groups folded in one cached merge each.
type TierFold struct {
	Factor  int64 `json:"factor"`
	Groups  int   `json:"groups"`
	Buckets int   `json:"buckets"`
}

// FoldCoverage is the bucket-coverage accounting of one fold — the
// EXPLAIN ANALYZE answer to "which buckets served this window, and
// how": buckets absorbed through rollup tiers, fully covered buckets
// folded from their materialised partials, and partially covered edge
// buckets whose in-window records were replayed fresh (DESIGN.md §13).
type FoldCoverage struct {
	// Buckets is the total number of live buckets that contributed.
	Buckets int `json:"buckets"`
	// TierFolds lists per-tier group folds, coarsest tier first (the
	// order the span selection tries them).
	TierFolds []TierFold `json:"tier_folds,omitempty"`
	// FullBuckets were folded whole from materialised bucket partials.
	FullBuckets int `json:"full_buckets"`
	// ResidualBuckets are window-clipped edge buckets; ResidualRecords
	// is the number of their records replayed into fresh partials.
	ResidualBuckets int   `json:"residual_buckets"`
	ResidualRecords int64 `json:"residual_records"`
}

func (c *FoldCoverage) addTier(factor int64, members int) {
	if c == nil {
		return
	}
	c.Buckets += members
	for i := range c.TierFolds {
		if c.TierFolds[i].Factor == factor {
			c.TierFolds[i].Groups++
			c.TierFolds[i].Buckets += members
			return
		}
	}
	c.TierFolds = append(c.TierFolds, TierFold{Factor: factor, Groups: 1, Buckets: members})
}

func (c *FoldCoverage) addFull() {
	if c == nil {
		return
	}
	c.Buckets++
	c.FullBuckets++
}

func (c *FoldCoverage) addResidual(records int64) {
	if c == nil {
		return
	}
	c.Buckets++
	c.ResidualBuckets++
	c.ResidualRecords += records
}

// merge folds another coverage into this one (coordinator-side, across
// user-disjoint shard partials that scanned the same window).
func (c *FoldCoverage) Merge(o FoldCoverage) {
	if c == nil {
		return
	}
	c.Buckets += o.Buckets
	c.FullBuckets += o.FullBuckets
	c.ResidualBuckets += o.ResidualBuckets
	c.ResidualRecords += o.ResidualRecords
	for _, tf := range o.TierFolds {
		found := false
		for i := range c.TierFolds {
			if c.TierFolds[i].Factor == tf.Factor {
				c.TierFolds[i].Groups += tf.Groups
				c.TierFolds[i].Buckets += tf.Buckets
				found = true
				break
			}
		}
		if !found {
			c.TierFolds = append(c.TierFolds, tf)
		}
	}
}

// ExplainCoverage reports the span selection the fold for req uses,
// without folding: the same planning as Query/FoldPartial, then a dry
// run of the span selection that only counts. Because it is called on the explain path of requests whose
// answer may come from the snapshot cache, it must stay observably
// read-only — no partials are built, no rollups merged, no build
// counters moved, no store-only bucket read back; residual records are
// counted from bucket timestamps directly, and a store-only bucket's
// from its restored rows' times.
func (a *Aggregator) ExplainCoverage(req core.Request) (FoldCoverage, error) {
	var cov FoldCoverage
	_, lo, hi, err := plan(req)
	if err != nil {
		return cov, err
	}
	_, err = a.collectCov(lo, hi, allSlots, &cov, true, nil)
	return cov, err
}
