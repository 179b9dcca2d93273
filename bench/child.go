package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every compute operation runs in a fresh child process, so no two
// operations share a heap, a capture store or a result store, and the
// child's peak RSS belongs to one operation. The child builds what the
// operation needs, prints "ready", waits for "go" (or "quit") on stdin,
// runs, and prints one JSON line.
const childCommand = "run-one"

// childResult is what a child reports for one operation.
type childResult struct {
	WallNS int64              `json:"wall_ns"`
	PeakMB float64            `json:"peak_mb"` // VmHWM after the operation
	Hashes map[string]string  `json:"hashes,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// childMain is the child side: it prepares the named workload's
// operation, then runs it on request.
func childMain(args []string) int {
	fs := flag.NewFlagSet(childCommand, flag.ContinueOnError)
	workload := fs.String("workload", "", "compute workload to run")
	dir := fs.String("dir", "", "scratch directory for the operation")
	toy := fs.Bool("toy", false, "run the toy-size variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	op, err := prepareOp(*workload, *dir, *toy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench child:", err)
		return 1
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "go" {
		return 0 // a set-up-only child: the parent measured its start and is done with it
	}
	res := op()
	if res.PeakMB, err = peakRSS("self"); err != nil {
		res.Error = err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// child is the parent's handle on one child process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	setup time.Duration // process start until the child said ready
}

// startChild launches a child for workload and waits until it is ready.
func startChild(e *env, workload, dir string) (*child, error) {
	args := []string{childCommand, "-workload", workload, "-dir", dir}
	if e.toy {
		args = append(args, "-toy")
	}
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = e.log
	cmd.SysProcAttr = dieWithParent()
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	line, err := c.out.ReadString('\n')
	c.setup = time.Since(start)
	if err != nil || strings.TrimSpace(line) != "ready" {
		c.kill()
		return nil, fmt.Errorf("child for %s did not become ready (%q, %v)", workload, line, err)
	}
	return c, nil
}

// quit releases a set-up-only child and waits for it.
func (c *child) quit() error {
	fmt.Fprintln(c.in, "quit")
	c.in.Close()
	return c.cmd.Wait()
}

// kill stops a child that misbehaved and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	c.in.Close()
	_ = c.cmd.Wait()
}

// dieWithParent asks the kernel to kill a child if this process dies
// first, so an interrupted run leaves no simulator or server behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// do runs the child's operation, waits for it to exit, and returns its
// result.
func (c *child) do() (childResult, error) {
	var res childResult
	if _, err := fmt.Fprintln(c.in, "go"); err != nil {
		c.kill()
		return res, err
	}
	c.in.Close()
	line, rerr := c.out.ReadString('\n')
	if err := c.cmd.Wait(); err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	if rerr != nil {
		return res, fmt.Errorf("child printed no result: %w", rerr)
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return res, fmt.Errorf("child result %q: %w", line, err)
	}
	return res, nil
}

// peakRSS reads a live process's peak resident set (VmHWM) in MB; pid
// may be "self". Unlike the rusage of a waited child, it does not count
// the parent's memory the child shared until it called exec.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
