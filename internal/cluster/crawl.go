package cluster

import (
	"fmt"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/sweep"
)

// CrawlSpec configures the background precompute crawler: the
// quick-scale Options lattice it walks, one cell per step. Only cells
// this node owns on the ring are warmed — across the cluster the
// crawlers partition the lattice instead of each computing all of it —
// and a step runs only when the local store has a free compute slot
// and no queued flights, so crawling never competes with live traffic
// for capacity.
type CrawlSpec struct {
	// Experiment is the id evaluated at every cell. Required.
	Experiment string
	// Axes is the lattice (sweep.Axis values in canonical string
	// form). Required, non-empty.
	Axes []sweep.Axis
	// Scale is the lattice's base scale ("" = "quick"; the crawler
	// exists to keep the interactive tier warm, not to run paper-scale
	// jobs in the background).
	Scale string
	// Interval paces steps (0 = 1s).
	Interval time.Duration
}

// StartCrawler launches the background crawler. It validates the spec
// through the sweep lattice canonicalizer (same registry, same axis
// rules as /v1/sweeps) and returns the number of lattice cells this
// node owns. Close stops the crawler.
func (c *Cluster) StartCrawler(spec CrawlSpec) (owned int, err error) {
	if spec.Scale == "" {
		spec.Scale = "quick"
	}
	if spec.Interval <= 0 {
		spec.Interval = time.Second
	}
	canon, err := sweep.Spec{
		Experiment: spec.Experiment,
		Scale:      spec.Scale,
		Axes:       spec.Axes,
	}.Canonicalize()
	if err != nil {
		return 0, err
	}
	exp, ok := c.byID[canon.Experiment]
	if !ok {
		return 0, fmt.Errorf("cluster: crawl experiment %q not in this node's registry", canon.Experiment)
	}
	var cells []sweep.Cell
	for _, cell := range canon.Cells() {
		if owner := c.ring.Owner(cell.Key); owner == c.cfg.Self {
			cells = append(cells, cell)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("cluster: closed")
	}
	if c.crawlOn {
		return 0, fmt.Errorf("cluster: crawler already running")
	}
	c.crawlOn = true
	if len(cells) == 0 {
		return 0, nil
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(spec.Interval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-c.base.Done():
				return
			case <-tick.C:
			}
			c.crawlOne(exp, cells[i%len(cells)])
		}
	}()
	return len(cells), nil
}

// crawlOne takes one crawler step: skip if the cell is already warm or
// the store is busy with real traffic, otherwise warm it (Get revives
// from disk when it can and computes when it must; its singleflight
// coalesces with any concurrent client asking for the same cell).
func (c *Cluster) crawlOne(exp core.Experiment, cell sweep.Cell) {
	if err := fpCrawlStep.Inject(c.base); err != nil {
		c.crawlErrs.Inc()
		return
	}
	c.crawlSteps.Inc()
	if c.cfg.Store.Cached(cell.Key) {
		return
	}
	if inUse, waiting, slots := c.cfg.Store.Load(); waiting > 0 || inUse >= slots {
		return // no idle capacity; live traffic first
	}
	if _, err := c.cfg.Store.Get(c.base, exp, cell.Options); err != nil {
		c.crawlErrs.Inc()
		return
	}
	c.crawlWarmed.Inc()
}
