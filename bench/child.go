package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"detcorr/internal/serve/api"
)

// childProcs is the GOMAXPROCS of every dctl and dcserved child: the
// benchmark is sized for a two-CPU machine.
const childProcs = "2"

// findRoot walks up from dir to the detcorr module root.
func findRoot(dir string) (string, error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module detcorr\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a detcorr checkout (no go.mod declaring module detcorr above the working directory)")
		}
		dir = parent
	}
}

// buildBinaries compiles dctl and dcserved from the checkout into bin.
func buildBinaries(ctx context.Context, root, bin string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/dctl", "./cmd/dcserved")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/dctl ./cmd/dcserved: %v\n%s", err, stderr.String())
	}
	return time.Since(start), nil
}

func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+childProcs)
}

// dctlArgs renders a request as dctl verdict flags for the program file.
func dctlArgs(file string, req api.Request) []string {
	args := []string{"verdict", file, "-check", req.Check}
	flag := func(name, v string) {
		if v != "" {
			args = append(args, "-"+name, v)
		}
	}
	flag("invariant", req.Invariant)
	flag("goal", req.Goal)
	flag("z", req.Z)
	flag("x", req.X)
	flag("from", req.From)
	flag("span", req.Span)
	flag("rank", req.Rank)
	flag("tolerant", req.Tolerant)
	if req.Faults {
		args = append(args, "-faults")
	}
	if req.MaxStates != 0 {
		args = append(args, "-max-states", strconv.Itoa(req.MaxStates))
	}
	return args
}

// dctlRun is one finished dctl process.
type dctlRun struct {
	stdout  []byte
	stderr  []byte
	exit    int
	wall    time.Duration
	maxRSSk int64 // peak resident set, KiB
}

// runDctl runs dctl to completion. A non-zero exit is not an error: it
// encodes the verdict. Only a process that could not run is.
func runDctl(ctx context.Context, dctl string, args []string) (*dctlRun, error) {
	cmd := exec.CommandContext(ctx, dctl, args...)
	cmd.Env = childEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	r := &dctlRun{stdout: stdout.Bytes(), stderr: stderr.Bytes(), exit: cmd.ProcessState.ExitCode(), wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSk = ru.Maxrss
	}
	return r, nil
}

// daemon is a running dcserved child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	done   chan struct{}
	err    error // the process's exit status, set before done closes
	stderr bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts dcserved on a free loopback port and waits until
// /healthz answers.
func startDaemon(ctx context.Context, path string, client *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	d.cmd = exec.Command(path, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-quiet")
	d.cmd.Env = childEnv()
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			d.stop()
			return nil, err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("dcserved exited during start-up: %v\n%s", d.err, d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("dcserved did not become healthy within 15 s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than ten seconds.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; Wait below reports it
		<-d.done
		return fmt.Errorf("dcserved did not drain within 10 s: %v", d.err)
	}
}

// peakRSSMiB reads the daemon's high-water resident set from /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// newClient returns an HTTP client that holds at most two connections to
// the daemon: the benchmark's load comes from one process, over two.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}
