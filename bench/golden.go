package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// golden.json holds, per GOARCH, the SHA-256 of every metrics-stripped
// ReportV1 the compute workloads produce: both fig6 runs, the 20
// quick-suite reports and the 16 sweep cells. Floating-point results may
// differ between architectures (fused multiply-add), so each architecture
// is recorded separately with `wsbench golden`.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile maps GOARCH -> "<workload>/<report>" -> hash.
type goldenFile map[string]map[string]string

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares one operation's report hashes with the recorded
// ones and returns a problem per mismatch, missing or unexpected report.
// The toy variants have no golden entries and are not checked.
func checkGolden(workload string, hashes map[string]string, toy bool) []string {
	if toy {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return []string{err.Error()}
	}
	want := g[runtime.GOARCH]
	if want == nil {
		return []string{fmt.Sprintf("golden.json has no entries for GOARCH %s; record them with `wsbench golden`", runtime.GOARCH)}
	}
	var problems []string
	prefix := workload + "/"
	for name, h := range hashes {
		w, ok := want[prefix+name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s%s: no golden hash", prefix, name))
		case w != h:
			problems = append(problems, fmt.Sprintf("%s%s: report hash %.12s, golden %.12s", prefix, name, h, w))
		}
	}
	for key := range want {
		if name, ok := strings.CutPrefix(key, prefix); ok {
			if _, got := hashes[name]; !got {
				problems = append(problems, fmt.Sprintf("%s: report missing", key))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// goldenMain runs each compute workload once and writes its report
// hashes for this GOARCH into -out, keeping other architectures' entries.
func goldenMain(e *env, args []string) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	out := fs.String("out", "bench/golden.json", "golden file to update")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	arch := map[string]string{}
	for _, name := range []string{"fig6-full", "fig6-full-s16", "suite-quick", "sweep-gridbh"} {
		dir, err := e.scratch(name)
		if err != nil {
			return err
		}
		c, err := startChild(e, name, dir)
		if err != nil {
			return err
		}
		res, err := c.do()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if res.Error != "" {
			return fmt.Errorf("golden %s: %s", name, res.Error)
		}
		for report, h := range res.Hashes {
			arch[name+"/"+report] = h
		}
		e.logf("golden: %s: %d reports", name, len(res.Hashes))
	}
	g[runtime.GOARCH] = arch
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}
