// Command wsstudy regenerates the figures and tables of Rothberg, Singh &
// Gupta (ISCA 1993) from this library's simulators and models.
//
// Usage:
//
//	wsstudy list                 # show available experiments
//	wsstudy verify               # audit every closed-form paper checkpoint
//	wsstudy all [-quick]         # run everything (-resume journal: checkpointed, crash-resumable)
//	wsstudy serve -addr :8080    # serve results over the v1 HTTP API
//	wsstudy sweep -experiment gridlu -axis cache=4096,16384 -axis pes=64,256
//	                             # run a parameter-lattice sweep (-resume dir
//	                             # revives landed cells across crashes)
//	wsstudy <id> [-quick]        # run one experiment, by an id from
//	                             # `wsstudy list`
//
// -quick shrinks the simulated problems so the full suite finishes in
// seconds; without it the simulations run at the largest feasible scale
// (Figure 6 at the paper's exact n=1024 configuration, Figure 7 on the
// full 256x256x113 phantom).
//
// serve puts the content-addressed result store behind
// GET /v1/experiments, GET /v1/experiments/{id}/report?opt.scale=quick|full
// and GET /v1/suite: identical requests never recompute (singleflight +
// LRU cache, optional -store-dir persistence), saturation answers 429,
// and SIGTERM drains in-flight runs. Combine with -listen for pprof and
// the live store/serve counters under /debug/vars.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wsstudy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wsstudy", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink simulated problem sizes")
	csvPath := fs.String("csv", "", "also write figure series as CSV to this file")
	timeout := fs.Duration("timeout", 0, "per-experiment deadline (0 = none)")
	workers := fs.Int("workers", 2, "concurrent experiments for 'all'")
	retries := fs.Int("retries", 0, "retries for transiently failing experiments in 'all'")
	resume := fs.String("resume", "", "all: checkpoint journal path; completed cells revive, new ones append")
	metricsPath := fs.String("metrics", "", "write the run's metrics snapshot as JSON to this file")
	progress := fs.Bool("progress", false, "render live progress to stderr while experiments run")
	listen := fs.String("listen", "", "serve /debug/pprof/ and /debug/vars on this address while running")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: v1 API listen address")
	slots := fs.Int("slots", 2, "serve: concurrent experiment computations")
	storeEntries := fs.Int("store-entries", 0, "serve: result-store LRU entry cap (0 = default 128)")
	storeBytes := fs.Int64("store-bytes", 0, "serve: result-store byte budget (0 = default 64 MiB)")
	storeDir := fs.String("store-dir", "", "serve: persist rendered reports in this directory")
	sweepDir := fs.String("sweep-dir", "", "serve: sweep checkpoint-journal directory (default <store-dir>/sweeps)")
	defaultScale := fs.String("default-scale", "quick", "serve: scale when a request has no ?opt.scale= (quick|full)")
	sweepExp := fs.String("experiment", "gridlu", "sweep: experiment to evaluate at every lattice cell")
	var axes axisList
	fs.Var(&axes, "axis", "sweep: one lattice axis as field=v1,v2,... (repeatable; fields: "+strings.Join(core.AxisFields(), ", ")+")")
	var opts optList
	fs.Var(&opts, "opt", "one Options axis as field=value (repeatable; fields: "+strings.Join(core.AxisFields(), ", ")+"), e.g. -opt sample=16")
	dataBytes := fs.Uint64("data-bytes", 1<<30, "sweep: total problem size for the grain (perf-per-dollar) advice")
	nodeID := fs.String("node-id", "", "serve: this node's id in the -peers map (empty = standalone)")
	peersFlag := fs.String("peers", "", "serve: full cluster membership as id=url,id=url,... (identical on every node, self included)")
	peerFetch := fs.Duration("peer-fetch-budget", 0, "serve: per-attempt peer-fill budget, the owner's hold on a cold key included (0 = 2s; also capped at 10% of the request deadline)")
	peerWait := fs.Duration("peer-wait-budget", 0, "serve: total budget waiting on an owner that is still computing, held attempts and retries included (0 = 15s)")
	peerProbe := fs.Duration("peer-probe", 0, "serve: cooldown before a degraded peer is probed again (0 = 15s)")
	crawl := fs.String("crawl", "", "serve: experiment id for the background precompute crawler over the -axis lattice (requires -node-id)")
	crawlInterval := fs.Duration("crawl-interval", 0, "serve: pacing between crawler steps (0 = 1s)")
	reqTimeout := fs.Duration("request-timeout", 0, "serve: per-request deadline (0 = none)")
	computeLimit := fs.Duration("compute-timeout", 0, "serve: per-computation deadline (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "serve: graceful-shutdown budget for in-flight runs")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: wsstudy [list|all|serve|sweep|<experiment-id>] [-quick] [-csv out.csv] [-timeout 2m] [-resume suite.journal] [-metrics out.json] [-progress] [-listen 127.0.0.1:6060] [-addr 127.0.0.1:8080] [-axis field=v1,v2]")
		fs.PrintDefaults()
	}

	if len(args) == 0 {
		return list()
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	scale := core.ScaleFull
	if *quick {
		scale = core.ScaleQuick
	}
	opt := core.Options{Scale: scale, Timeout: *timeout}
	for _, kv := range opts {
		if err := opt.SetAxis(kv.field, kv.value); err != nil {
			return err
		}
	}
	if *quick && opt.Scale != scale {
		return fmt.Errorf("-quick and -opt scale=%s conflict; pick one", opt.Scale)
	}

	switch cmd {
	case "list", "help", "-h", "--help":
		return list()
	case "verify":
		return verifyCheckpoints()
	}

	// The remaining subcommands run experiments: give them a recorder, and
	// wire up the opt-in surfaces (live progress, a debug HTTP listener,
	// and a JSON metrics dump on exit).
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	// Fault injection: WSS_FAILPOINTS arms named failpoints for chaos
	// and recovery drills (see DESIGN.md §9); fired injections count on
	// the run recorder as fault.triggered.<name>.
	fault.SetRecorder(rec)
	if err := fault.ArmFromEnv(os.Getenv); err != nil {
		return err
	}
	if *listen != "" {
		addr, err := startDebugServer(*listen, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}
	if *progress {
		p := obs.StartProgress(rec, os.Stderr, time.Second)
		defer p.Stop()
	}
	if *metricsPath != "" {
		defer func() {
			if err := writeMetrics(*metricsPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "wsstudy: writing metrics:", err)
			}
		}()
	}

	switch cmd {
	case "all":
		sopt := core.SuiteOptions{Options: opt, Workers: *workers, Retries: *retries}
		if *resume != "" {
			j, err := core.OpenJournal(*resume)
			if err != nil {
				return err
			}
			defer j.Close()
			if n := j.Len(); n > 0 {
				fmt.Fprintf(os.Stderr, "resuming: %d completed cells in %s\n", n, *resume)
			}
			sopt.Journal = j
		}
		return runAll(ctx, sopt, *csvPath)
	case "serve":
		scale, err := core.ParseScale(*defaultScale)
		if err != nil {
			return err
		}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		if (*nodeID == "") != (peers == nil) {
			return fmt.Errorf("-node-id and -peers must be set together")
		}
		return serveFromFlags(ctx, rec, serveParams{
			addr:          *addr,
			slots:         *slots,
			entries:       *storeEntries,
			maxBytes:      *storeBytes,
			dir:           *storeDir,
			sweepDir:      *sweepDir,
			defaultScale:  scale,
			reqTimeout:    *reqTimeout,
			computeLimit:  *computeLimit,
			drain:         *drain,
			nodeID:        *nodeID,
			peers:         peers,
			fetchBudget:   *peerFetch,
			waitBudget:    *peerWait,
			peerProbe:     *peerProbe,
			crawl:         *crawl,
			crawlAxes:     axes,
			crawlInterval: *crawlInterval,
		})
	case "sweep":
		return runSweep(ctx, rec, sweepParams{
			experiment: *sweepExp,
			axes:       axes,
			scale:      scale,
			resumeDir:  *resume,
			slots:      *slots,
			timeout:    *timeout,
			dataBytes:  *dataBytes,
			storeDir:   *storeDir,
		})
	default:
		e, ok := core.Find(cmd)
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid ids: %s)", cmd, strings.Join(validIDs(), ", "))
		}
		return runOne(ctx, e, opt, *csvPath)
	}
}

// writeMetrics dumps the recorder's final snapshot as indented JSON.
func writeMetrics(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	m := rec.Snapshot()
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validIDs lists every registered experiment id.
func validIDs() []string {
	var ids []string
	for _, e := range core.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runAll executes the whole registry through the hardened suite runner:
// successful experiments render even when others time out, panic or fail,
// and the failures come back as a summary plus a nonzero exit.
func runAll(ctx context.Context, sopt core.SuiteOptions, csvPath string) error {
	start := time.Now()
	report := core.RunSuite(ctx, core.Registry(), sopt)
	for _, res := range report.Results {
		if res.Err != nil {
			continue
		}
		if err := renderOne(res.Report, csvPath); err != nil {
			return err
		}
		if res.Revived {
			fmt.Printf("\n[%s revived from checkpoint]\n\n", res.ID)
		} else {
			fmt.Printf("\n[%s completed in %v]\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
		}
	}
	if summary := report.FailureSummary(); summary != "" {
		return fmt.Errorf("%s(suite ran %v)", summary, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("[suite completed in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runOne(ctx context.Context, e core.Experiment, opt core.Options, csvPath string) error {
	start := time.Now()
	rep, err := core.Execute(ctx, e, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	if err := renderOne(rep, csvPath); err != nil {
		return err
	}
	fmt.Printf("\n[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// renderOne writes a report to stdout and appends its series to csvPath if
// one was requested.
func renderOne(rep *core.Report, csvPath string) error {
	if err := rep.Render(os.Stdout, core.FormatText); err != nil {
		return err
	}
	if csvPath != "" && len(rep.Figures) > 0 {
		f, err := os.OpenFile(csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := rep.Render(f, core.FormatCSV); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(series appended to %s)\n", csvPath)
	}
	return nil
}

func list() error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tTITLE")
	for _, e := range core.Registry() {
		fmt.Fprintf(tw, "%s\t%s\n", e.ID, e.Title)
	}
	return tw.Flush()
}
