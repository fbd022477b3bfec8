package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// costd is one costd subprocess listening on a loopback port.
type costd struct {
	cmd *exec.Cmd
	url string
	// exited is closed once the process has exited and been reaped.
	exited chan struct{}
}

// stderrWatch collects costd's standard error and reports the URL from its
// "costd: serving on <url>" start-up line.
type stderrWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "costd: serving on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.ready <- strings.TrimSpace(s[i+len(marker) : i+j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startCostd runs the binary on 127.0.0.1:0 with GOMAXPROCS set to the
// machine's CPU count and waits until /healthz answers.
func startCostd(ctx context.Context, bin string, args []string) (*costd, error) {
	w := &stderrWatch{ready: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting costd: %w", err)
	}
	d := &costd{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*costd, error) {
		_ = cmd.Process.Kill()
		<-d.exited
		return nil, fmt.Errorf("%w; costd stderr: %s", err, strings.TrimSpace(w.String()))
	}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	select {
	case d.url = <-w.ready:
	case <-d.exited:
		return fail(fmt.Errorf("costd exited during start-up"))
	case <-deadline.C:
		return fail(fmt.Errorf("costd did not report its address within 10s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for healthz(ctx, d.url) != nil {
		select {
		case <-d.exited:
			return fail(fmt.Errorf("costd exited during start-up"))
		case <-deadline.C:
			return fail(fmt.Errorf("costd /healthz not OK within 10s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return d, nil
}

func healthz(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// stop shuts costd down gracefully (SIGTERM), killing it if the drain takes
// longer than five seconds, and waits until the process has exited.
func (d *costd) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTime is costd's user+system CPU time so far.
func (d *costd) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// fields[0] is the state (stat field 3); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// rss is costd's current resident set size (VmRSS), in bytes.
func (d *costd) rss() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// sampleRSS samples costd's resident set every interval until stop is
// closed and then sends the samples, in MiB, on the returned channel.
func (d *costd) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
				if b, err := d.rss(); err == nil {
					samples = append(samples, float64(b)/(1<<20))
				}
			}
		}
	}()
	return out
}

// scrape reads costd's /metrics and sums the samples of every series whose
// name is in names, labels ignored.
func (d *costd) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
