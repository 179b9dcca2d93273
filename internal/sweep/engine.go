package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/cost"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
	"wsstudy/internal/workingset"
)

// fpCellCompute sits in front of every cell computation (never in
// front of a revival), so chaos runs can fail, delay, or stall exactly
// the compute path resume is supposed to make redundant.
var fpCellCompute = fault.New("sweep.cell.compute")

// Config assembles an Engine.
type Config struct {
	// Store executes cells: singleflight, compute slots and persisted
	// renderings all apply per cell. Required.
	Store *store.Store
	// Dir holds one checkpoint journal per sweep id. "" disables
	// journaling; resume then relies on the store's persistence alone.
	Dir string
	// Recorder receives the sweep.* metrics (nil uses the process
	// recorder).
	Recorder *obs.Recorder
	// Workers bounds concurrent cells per sweep (0 = the store's
	// compute-slot count — fanning out wider would only queue).
	Workers int
	// CellTimeout bounds each cell's computation (0 = no bound).
	CellTimeout time.Duration
}

// Engine runs sweeps. Safe for concurrent use.
type Engine struct {
	cfg    Config
	base   context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	sweeps map[string]*sweepRun
	wg     sync.WaitGroup

	submitted, total, revived, computed, failed *obs.Counter
}

// sweepRun is one sweep's live state.
type sweepRun struct {
	id      string
	spec    Spec // canonical
	exp     core.Experiment
	cells   []Cell
	journal *core.Journal

	mu      sync.Mutex
	status  []CellStatus // parallel to cells
	passing bool         // a pass goroutine is running
}

// NewEngine builds a sweep engine over an existing result store.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("sweep: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Store.Slots()
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: creating journal dir: %w", err)
		}
	}
	rec := cfg.Recorder
	base, cancel := context.WithCancel(obs.With(context.Background(), rec))
	return &Engine{
		cfg: cfg, base: base, cancel: cancel,
		sweeps:    make(map[string]*sweepRun),
		submitted: rec.Counter(obs.SweepSubmitted),
		total:     rec.Counter(obs.SweepCellsTotal),
		revived:   rec.Counter(obs.SweepCellsRevived),
		computed:  rec.Counter(obs.SweepCellsComputed),
		failed:    rec.Counter(obs.SweepCellsFailed),
	}, nil
}

// CellState is a cell's lifecycle position.
type CellState string

const (
	CellPending CellState = "pending"
	CellRunning CellState = "running"
	CellDone    CellState = "done"
	CellFailed  CellState = "failed"
)

// CellSummary condenses a landed cell's report for the incremental
// aggregate: single-point cells carry the measured rate, curve cells
// carry their knees.
type CellSummary struct {
	Points   int               `json:"points"`
	MissRate float64           `json:"miss_rate,omitempty"`
	Knees    []workingset.Knee `json:"knees,omitempty"`
}

// CellStatus is one cell of a sweep's status aggregate.
type CellStatus struct {
	Key       string       `json:"key"`
	Canonical string       `json:"canonical"`
	State     CellState    `json:"state"`
	Revived   bool         `json:"revived,omitempty"`
	Error     string       `json:"error,omitempty"`
	Summary   *CellSummary `json:"summary,omitempty"`
}

// Status is a sweep's incremental aggregate, safe to serve while cells
// are still landing.
type Status struct {
	ID         string       `json:"id"`
	Experiment string       `json:"experiment"`
	Scale      string       `json:"scale"`
	Axes       []Axis       `json:"axes"`
	Total      int          `json:"total"`
	Completed  int          `json:"completed"`
	Failed     int          `json:"failed"`
	Revived    int          `json:"revived"`
	Done       bool         `json:"done"`
	Cells      []CellStatus `json:"cells"`
}

// Submit accepts a spec, returning the sweep's id and current status.
// Submission is idempotent by content: an equivalent spec maps to the
// same id, and re-submitting while the sweep runs — or after it
// finished cleanly — just returns its status. Re-submitting a sweep
// that finished with failures starts a new pass over the failed cells
// only; completed cells are never recomputed (that is the journal /
// content-address contract).
func (e *Engine) Submit(spec Spec) (Status, error) {
	cspec, err := spec.Canonicalize()
	if err != nil {
		return Status{}, err
	}
	id := cspec.ID()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Status{}, fmt.Errorf("sweep: engine closed")
	}
	run, ok := e.sweeps[id]
	if !ok {
		exp, _ := core.Find(cspec.Experiment)
		run = &sweepRun{id: id, spec: cspec, exp: exp, cells: cspec.Cells()}
		run.status = make([]CellStatus, len(run.cells))
		for i, c := range run.cells {
			run.status[i] = CellStatus{
				Key:       c.Key.String(),
				Canonical: c.Options.Canonical(),
				State:     CellPending,
			}
		}
		if e.cfg.Dir != "" {
			j, jerr := core.OpenJournal(filepath.Join(e.cfg.Dir, id+".journal"))
			if jerr != nil {
				e.mu.Unlock()
				return Status{}, fmt.Errorf("sweep: opening journal: %w", jerr)
			}
			run.journal = j
		}
		e.sweeps[id] = run
	}
	e.mu.Unlock()

	if e.startPass(run) {
		e.submitted.Inc()
	}
	return run.snapshot(), nil
}

// startPass launches a pass goroutine if one is needed: the sweep has
// pending or failed cells and no pass is currently running. Failed
// cells are reset to pending so the new pass retries them.
func (e *Engine) startPass(run *sweepRun) bool {
	run.mu.Lock()
	if run.passing {
		run.mu.Unlock()
		return false
	}
	var todo []int
	for i := range run.status {
		if run.status[i].State == CellFailed {
			run.status[i] = CellStatus{
				Key: run.status[i].Key, Canonical: run.status[i].Canonical,
				State: CellPending,
			}
		}
		if run.status[i].State == CellPending {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		run.mu.Unlock()
		return false
	}
	run.passing = true
	run.mu.Unlock()

	e.total.Add(uint64(len(todo)))
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.runPass(run, todo)
		run.mu.Lock()
		run.passing = false
		run.mu.Unlock()
	}()
	return true
}

// runPass drives todo's cells through revive-or-compute with bounded
// workers. Cells are claimed in canonical order, so interrupt points
// are deterministic under fault injection.
func (e *Engine) runPass(run *sweepRun, todo []int) {
	workers := e.cfg.Workers
	if workers > len(todo) {
		workers = len(todo)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				e.runCell(run, i)
			}
		}()
	}
	for _, i := range todo {
		select {
		case idx <- i:
		case <-e.base.Done():
			close(idx)
			wg.Wait()
			return
		}
	}
	close(idx)
	wg.Wait()
}

// runCell lands one cell: journal revival first, then the store's
// memory/disk revival, then — only if neither holds the key — a real
// computation through the store (singleflight and persistence
// included). Every landed cell is checkpointed, so the
// journal converges to the full lattice regardless of which path
// landed each cell.
func (e *Engine) runCell(run *sweepRun, i int) {
	cell := run.cells[i]
	run.setState(i, CellRunning)

	if rep, ok := run.journal.Lookup(run.exp.ID, cell.Options); ok {
		e.revived.Inc()
		run.finishCell(i, rep, true, nil)
		return
	}
	if res, ok := e.cfg.Store.Peek(cell.Key, run.exp.ID); ok {
		e.revived.Inc()
		e.journalCell(run, cell, res.Report)
		run.finishCell(i, res.Report, true, nil)
		return
	}

	opt := cell.Options
	opt.Timeout = e.cfg.CellTimeout
	if err := fpCellCompute.Inject(e.base); err != nil {
		e.failed.Inc()
		run.finishCell(i, nil, false, err)
		return
	}
	res, err := e.cfg.Store.Get(e.base, run.exp, opt)
	if err != nil {
		e.failed.Inc()
		run.finishCell(i, nil, false, err)
		return
	}
	e.computed.Inc()
	e.journalCell(run, cell, res.Report)
	run.finishCell(i, res.Report, false, nil)
}

// journalCell checkpoints a landed cell; a checkpoint failure never
// fails the cell, it only means a future resume re-revives it from the
// store instead.
func (e *Engine) journalCell(run *sweepRun, cell Cell, rep *core.Report) {
	if err := run.journal.Record(run.exp.ID, cell.Options, rep); err != nil {
		e.cfg.Recorder.Counter(obs.SweepJournalErrors).Inc()
	}
}

func (r *sweepRun) setState(i int, s CellState) {
	r.mu.Lock()
	r.status[i].State = s
	r.mu.Unlock()
}

func (r *sweepRun) finishCell(i int, rep *core.Report, revived bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.status[i].State = CellFailed
		r.status[i].Error = err.Error()
		return
	}
	r.status[i].State = CellDone
	r.status[i].Revived = revived
	r.status[i].Summary = summarize(rep)
}

// summarize condenses a cell report: the first figure's first series
// is the cell's measurement by the grid-experiment convention.
func summarize(rep *core.Report) *CellSummary {
	if rep == nil || len(rep.Figures) == 0 || len(rep.Figures[0].Series) == 0 {
		return nil
	}
	pts := rep.Figures[0].Series[0].Points
	s := &CellSummary{Points: len(pts)}
	if len(pts) == 1 {
		s.MissRate = pts[0].MissRate
	} else if len(pts) > 1 {
		curve := workingset.Curve{Label: "cell", Points: pts}
		s.Knees = workingset.FindKnees(&curve, 2, 1e-6)
	}
	return s
}

// snapshot builds an immutable status copy.
func (r *sweepRun) snapshot() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:         r.id,
		Experiment: r.spec.Experiment,
		Scale:      r.spec.Scale,
		Axes:       r.spec.Axes,
		Total:      len(r.cells),
		Cells:      make([]CellStatus, len(r.status)),
	}
	copy(st.Cells, r.status)
	for _, c := range r.status {
		switch c.State {
		case CellDone:
			st.Completed++
			if c.Revived {
				st.Revived++
			}
		case CellFailed:
			st.Failed++
		}
	}
	st.Done = !r.passing && st.Completed+st.Failed == st.Total
	return st
}

// Get returns a sweep's current status by id.
func (e *Engine) Get(id string) (Status, bool) {
	e.mu.Lock()
	run, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return run.snapshot(), true
}

// List returns the ids of every sweep this engine knows, sorted.
func (e *Engine) List() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.sweeps))
	for id := range e.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Grain answers §8 for a finished sweep: every completed single-point
// cell with explicit processor-count and cache axes becomes a measured
// (P, cache, miss rate) candidate design, scored by the cost model at
// the given total problem size. The sweep must be fully done — grain
// advice from a partial lattice would silently prefer whatever landed
// first.
func (e *Engine) Grain(id string, dataBytes uint64) (cost.GrainAdvice, error) {
	e.mu.Lock()
	run, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return cost.GrainAdvice{}, fmt.Errorf("sweep: unknown sweep %q", id)
	}
	st := run.snapshot()
	if !st.Done {
		return cost.GrainAdvice{}, ErrUnfinished
	}
	if st.Failed > 0 {
		return cost.GrainAdvice{}, fmt.Errorf("sweep: %d cells failed; re-submit to retry them", st.Failed)
	}
	// Cells that differ only in non-grain axes (problem size, line
	// size) collapse onto one (P, cache) design; their rates are
	// averaged, i.e. the measured curve is marginalized over the axes
	// the cost model doesn't see.
	type pc struct {
		p int
		c uint64
	}
	sum := make(map[pc]float64)
	n := make(map[pc]int)
	for i, c := range st.Cells {
		o := run.cells[i].Options
		if c.State != CellDone || c.Summary == nil || c.Summary.Points != 1 {
			continue
		}
		if o.PEs <= 0 || o.CacheBytes == 0 {
			continue
		}
		k := pc{o.PEs, o.CacheBytes}
		sum[k] += c.Summary.MissRate
		n[k]++
	}
	var pts []cost.CellPoint
	for k, s := range sum {
		pts = append(pts, cost.CellPoint{
			P: k.p, CacheBytes: k.c, MissRate: s / float64(n[k]),
		})
	}
	if len(pts) == 0 {
		return cost.GrainAdvice{}, fmt.Errorf(
			"sweep: no single-point cells with pes and cache axes; sweep pes × cache to use grain")
	}
	return cost.GrainFromCells(run.exp.ID, dataBytes, pts, cost.Defaults(), cost.DefaultParams())
}

// ErrUnfinished reports a grain query against a sweep that is still
// landing cells; the HTTP layer maps it to 409.
var ErrUnfinished = fmt.Errorf("sweep: not finished")

// Close stops the engine: in-flight passes are cancelled (their cells
// remain checkpointed) and journals are released.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
	var first error
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, run := range e.sweeps {
		if err := run.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
