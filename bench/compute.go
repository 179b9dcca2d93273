package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
)

// The compute workloads are fixed paper configurations; the seed does not
// change them. Each operation mirrors what the wsstudy CLI does for the
// same request: an obs.Recorder rides the context, reports are rendered
// as text, and the suite runs with two workers and a capture store.

// fig6Options is the Figure 6 configuration of the fig6 workloads.
func fig6Options(rate int, toy bool) core.Options {
	o := core.Options{SampleRate: rate}
	if toy {
		o.Scale = core.ScaleQuick
	}
	return o
}

// suiteExperiments is the quick suite: every experiment, or for the toy
// variant a handful of cheap ones.
func suiteExperiments(toy bool) []core.Experiment {
	all := core.Registry()
	if !toy {
		return all
	}
	var out []core.Experiment
	for _, e := range all {
		switch e.ID {
		case "fig2", "table1", "table2", "machines", "gridlu":
			out = append(out, e)
		}
	}
	return out
}

// sweepSpec is the gridbh lattice of the sweep workload: 16 cells at
// quick scale (4 for the toy variant).
func sweepSpec(toy bool) sweep.Spec {
	caches := []string{"4096", "16384", "65536", "262144"}
	pes := []string{"4", "8", "16", "32"}
	if toy {
		caches, pes = caches[:2], pes[:2]
	}
	return sweep.Spec{Experiment: "gridbh", Scale: "quick", Axes: []sweep.Axis{
		{Field: core.AxisCache, Values: caches},
		{Field: core.AxisPEs, Values: pes},
	}}
}

// prepareOp does a compute workload's set-up in the child and returns the
// operation to time.
func prepareOp(workload, dir string, toy bool) (func() childResult, error) {
	ctx := obs.With(context.Background(), obs.New())
	switch workload {
	case "fig6-full", "fig6-full-s16":
		rate := 1
		if workload == "fig6-full-s16" {
			rate = 16
		}
		exp, _ := core.Find("fig6")
		opt := fig6Options(rate, toy)
		return func() childResult {
			start := time.Now()
			rep, err := core.Execute(ctx, exp, opt)
			if err == nil {
				err = rep.Render(&bytes.Buffer{}, core.FormatText)
			}
			res := childResult{WallNS: int64(time.Since(start))}
			if err != nil {
				res.Error = err.Error()
				return res
			}
			res.Hashes = map[string]string{"fig6": reportHash(rep)}
			return res
		}, nil
	case "suite-quick":
		exps := suiteExperiments(toy)
		return func() childResult {
			start := time.Now()
			suite := core.RunSuite(ctx, exps, core.SuiteOptions{
				Options: core.Options{Scale: core.ScaleQuick}, Workers: 2,
			})
			var buf bytes.Buffer
			for _, r := range suite.Reports() {
				if err := r.Render(&buf, core.FormatText); err != nil {
					return childResult{Error: err.Error()}
				}
			}
			res := childResult{WallNS: int64(time.Since(start)), Hashes: map[string]string{}}
			if s := suite.FailureSummary(); s != "" {
				res.Error = s
			}
			for _, r := range suite.Results {
				if r.Err == nil {
					res.Hashes[r.ID] = reportHash(r.Report)
				}
			}
			return res
		}, nil
	case "sweep-gridbh":
		return prepareSweep(dir, toy)
	}
	return nil, fmt.Errorf("no compute workload %q", workload)
}

// prepareSweep opens the store and sweep engine the operation fills: a
// cold lattice, then a second store and engine over the same directories
// that must revive every cell from the journal without computing.
func prepareSweep(dir string, toy bool) (func() childResult, error) {
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	rec := obs.New()
	st, err := store.New(store.Config{Slots: 2, Dir: storeDir, Recorder: rec})
	if err != nil {
		return nil, err
	}
	eng, err := sweep.NewEngine(sweep.Config{Store: st, Dir: journalDir, Recorder: rec})
	if err != nil {
		return nil, err
	}
	spec := sweepSpec(toy)
	return func() childResult {
		start := time.Now()
		status, err := runSweepToDone(eng, spec)
		res := childResult{WallNS: int64(time.Since(start)), Hashes: map[string]string{}}
		if err == nil && status.Failed > 0 {
			err = fmt.Errorf("%d of %d cells failed", status.Failed, status.Total)
		}
		if err != nil {
			res.Error = err.Error()
			return res
		}
		cspec, _ := spec.Canonicalize()
		for _, cell := range cspec.Cells() {
			r, ok := st.Peek(cell.Key, cspec.Experiment)
			if !ok {
				res.Error = "cell missing from the store: " + cell.Options.Canonical()
				return res
			}
			res.Hashes[cellName(cell.Options)] = reportHash(r.Report)
		}
		eng.Close()
		st.Close(context.Background())

		revived, recomputed, reviveWall, err := reviveSweep(storeDir, journalDir, spec)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.Counts = map[string]float64{
			"revive_s": reviveWall.Seconds(), "revived": float64(revived), "recomputed": float64(recomputed),
		}
		return res
	}, nil
}

// reviveSweep resubmits spec to a new store and engine over the
// directories a finished sweep left, and reports how many cells revived,
// how many were computed again, and how long it took.
func reviveSweep(storeDir, journalDir string, spec sweep.Spec) (revived, recomputed int, wall time.Duration, err error) {
	rec := obs.New()
	st, err := store.New(store.Config{Slots: 2, Dir: storeDir, Recorder: rec})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close(context.Background())
	eng, err := sweep.NewEngine(sweep.Config{Store: st, Dir: journalDir, Recorder: rec})
	if err != nil {
		return 0, 0, 0, err
	}
	defer eng.Close()
	start := time.Now()
	status, err := runSweepToDone(eng, spec)
	wall = time.Since(start)
	if err != nil {
		return 0, 0, wall, err
	}
	return status.Revived, int(rec.Snapshot().Counter(obs.SweepCellsComputed)), wall, nil
}

// runSweepToDone submits spec and waits for the pass to finish. The poll
// is fine-grained so it does not quantize the measured wall time.
func runSweepToDone(eng *sweep.Engine, spec sweep.Spec) (sweep.Status, error) {
	status, err := eng.Submit(spec)
	if err != nil {
		return status, err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !status.Done {
		if time.Now().After(deadline) {
			return status, fmt.Errorf("sweep did not finish in 2m")
		}
		time.Sleep(time.Millisecond)
		status, _ = eng.Get(status.ID)
	}
	return status, nil
}

// cellName labels a sweep cell in golden.json by the axes that vary.
func cellName(o core.Options) string {
	return fmt.Sprintf("gridbh cache=%d pes=%d", o.CacheBytes, o.PEs)
}

// reportHash is the SHA-256 of a report's ReportV1 JSON with the run
// metrics stripped: the simulated statistics, and nothing about how long
// the run took.
func reportHash(rep *core.Report) string { return v1Hash(rep.V1()) }

// v1Hash strips v's metrics and hashes its JSON.
func v1Hash(v *core.ReportV1) string {
	v.Metrics = nil
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// computeRunner is the parent side of a compute workload: a few
// set-up-only children for the set-up median, then operations in fresh
// children until the next one would overrun the window (always at least
// one).
func computeRunner(workload string) func(*env, int64, float64) (*outcome, error) {
	return func(e *env, _ int64, seconds float64) (*outcome, error) {
		out := &outcome{}
		for i := 0; i < setupOnlyChildren; i++ {
			dir, err := e.scratch(workload)
			if err != nil {
				return nil, err
			}
			c, err := startChild(e, workload, dir)
			if err != nil {
				return nil, err
			}
			out.setup = append(out.setup, c.setup.Seconds())
			if err := c.quit(); err != nil {
				return nil, fmt.Errorf("set-up child: %w", err)
			}
			os.RemoveAll(dir)
		}

		start := time.Now()
		var per []float64 // seconds per operation, child start to exit
		for len(per) == 0 || time.Since(start).Seconds()+median(per) <= seconds {
			opStart := time.Now()
			if err := computeOp(e, workload, out); err != nil {
				return nil, err
			}
			per = append(per, time.Since(opStart).Seconds())
		}
		return out, nil
	}
}

// setupOnlyChildren is how many children per run only start and quit,
// adding set-up samples beyond the one each operation contributes.
const setupOnlyChildren = 24

// computeOp runs one operation in a fresh child and folds it into out.
func computeOp(e *env, workload string, out *outcome) error {
	dir, err := e.scratch(workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := startChild(e, workload, dir)
	if err != nil {
		return err
	}
	out.setup = append(out.setup, c.setup.Seconds())
	res, err := c.do()
	if err != nil {
		return err
	}
	out.attempted++
	if res.Error != "" {
		out.failed++
		out.problems = append(out.problems, res.Error)
		return nil
	}
	out.ops = append(out.ops, float64(res.WallNS)/1e6)
	out.rss = max(out.rss, res.PeakMB)
	out.addCounts(res.Counts)
	if bad := checkGolden(workload, res.Hashes, e.toy); len(bad) > 0 {
		out.failed++
		out.problems = append(out.problems, bad...)
	}
	if workload == "sweep-gridbh" {
		if res.Counts["recomputed"] != 0 || res.Counts["revived"] != float64(len(res.Hashes)) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf(
				"sweep revival recomputed %v and revived %v of %d cells",
				res.Counts["recomputed"], res.Counts["revived"], len(res.Hashes)))
		}
	}
	return nil
}
