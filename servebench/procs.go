package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one served process (knnserve or knnshard) started by the
// benchmark. Its stdout is scanned for the "listening on http://ADDR" line
// both binaries print once every dataset is registered, then drained until
// the process exits.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

// startProc launches bin and waits until it listens, or fails when the
// process exits or does not come up within timeout.
func startProc(bin string, timeout time.Duration, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The served processes die with the benchmark even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening: %v", filepath.Base(bin), cmd.ProcessState)
	case <-time.After(timeout):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %s", filepath.Base(bin), timeout)
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after a grace period)
// and waits until it and its stdout reader have ended.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	<-p.drained
}

// cpuTime is the process's user+system CPU so far, from /proc/<pid>/stat
// (clock ticks of 10 ms, the Linux USER_HZ).
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are zero where the file is unreadable.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// deployment is one workload's set of served processes; addr is the
// knnserve address the load goes to.
type deployment struct {
	procs []*proc
	addr  string
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

const startTimeout = 60 * time.Second

// deploy starts w's processes and returns once knnserve answers /healthz,
// with the elapsed set-up time: CSV load, index builds, render tables and,
// for the remote workload, shard start-up and the coordinator's dial.
func deploy(w *workload, binDir, dataDir string) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{}
	args := []string{"-listen", "127.0.0.1:0"}
	for _, name := range sortedKeys(w.files) {
		if w.remote && name == w.sel {
			continue
		}
		args = append(args, "-dataset", name+"=file:"+w.files[name].path(dataDir))
	}
	if w.remote {
		// Both shards load the full CSV and keep their spatial partition;
		// they start together, and the coordinator dials them once both
		// listen.
		type started struct {
			p   *proc
			err error
		}
		const shards = 2
		ch := make([]chan started, shards)
		for i := range ch {
			ch[i] = make(chan started, 1)
			go func(i int) {
				p, err := startProc(filepath.Join(binDir, "knnshard"), startTimeout,
					"-listen", "127.0.0.1:0", "-name", w.sel,
					"-data", "file:"+w.files[w.sel].path(dataDir),
					"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(shards), "-shard-policy", "spatial")
				ch[i] <- started{p, err}
			}(i)
		}
		var urls []string
		var firstErr error
		for i := range ch {
			s := <-ch[i]
			if s.err != nil {
				firstErr = errors.Join(firstErr, s.err)
				continue
			}
			d.procs = append(d.procs, s.p)
			urls = append(urls, "http://"+s.p.addr)
		}
		if firstErr != nil {
			d.stop()
			return nil, 0, firstErr
		}
		args = append(args, "-dataset", w.sel+"=remote:shards="+strings.Join(urls, ";"))
	}
	p, err := startProc(filepath.Join(binDir, "knnserve"), startTimeout, args...)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	d.procs = append(d.procs, p)
	d.addr = p.addr
	res, err := http.Get("http://" + d.addr + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			err = fmt.Errorf("knnserve /healthz status %d", res.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// cpuTime sums the CPU time of every served process.
func (d *deployment) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, p := range d.procs {
		c, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// peakRSS sums the peak resident sets of every served process.
func (d *deployment) peakRSS() (int64, error) {
	var sum int64
	for _, p := range d.procs {
		r, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}
