package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A sender delivers one request and returns its status; the response body
// is left in buf, valid until the next call with the same buffer. A sender
// is used by one goroutine at a time.
type sender interface {
	send(r *request, buf *bytes.Buffer) (status int, err error)
}

// A target hands each load worker its own sender.
type target interface {
	worker(i int) sender
}

// httpConn is one keep-alive HTTP/1.1 connection driven from a single
// goroutine: the request is written and the response read by the caller
// itself, with no transport goroutines handing it over, so the generator
// adds as little CPU and wake-up latency as it can.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func (h *httpConn) send(r *request, buf *bytes.Buffer) (int, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, err
		}
		h.c, h.br = c, bufio.NewReader(c)
	}
	h.wbuf = fmt.Appendf(h.wbuf[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		r.path, h.addr, len(r.body))
	h.wbuf = append(h.wbuf, r.body...)
	if _, err := h.c.Write(h.wbuf); err != nil {
		h.close()
		return 0, err
	}
	res, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil || res.Close {
		h.close()
	}
	if err != nil {
		return res.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	return res.StatusCode, nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c, h.br = nil, nil
	}
}

// conns is a target with one connection per worker to a served knnserve.
type conns struct {
	cs []*httpConn
}

func newConns(addr string, n int) *conns {
	t := &conns{}
	for i := 0; i < n; i++ {
		t.cs = append(t.cs, &httpConn{addr: addr})
	}
	return t
}

func (t *conns) worker(i int) sender { return t.cs[i] }

func (t *conns) close() {
	for _, c := range t.cs {
		c.close()
	}
}

// handlerSender calls an in-process handler with a recorder (the traced
// run's replays).
type handlerSender struct{ h http.Handler }

func (s handlerSender) worker(int) sender { return s }

func (s handlerSender) send(r *request, buf *bytes.Buffer) (int, error) {
	rec := httptest.NewRecorder()
	rec.Body = buf
	buf.Reset()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	return rec.Code, nil
}

// phase is what one timed phase measured.
type phase struct {
	readLat, writeLat []time.Duration
	// readDone is when each read completed, as an offset from the phase
	// start, and readKind its kind (both parallel to readLat).
	readDone []time.Duration
	readKind []string
	// late is how far behind schedule the generator released each request
	// (open loop), or the client's turnaround between a response and its
	// next request (closed loop).
	late      []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
}

func (p *phase) merge(o *phase) {
	p.readLat = append(p.readLat, o.readLat...)
	p.readDone = append(p.readDone, o.readDone...)
	p.readKind = append(p.readKind, o.readKind...)
	p.writeLat = append(p.writeLat, o.writeLat...)
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
}

func (p *phase) completed() int { return len(p.readLat) + len(p.writeLat) }

// record accounts one sent request.
func (p *phase) record(r *request, status int, err error, lat, done time.Duration, body []byte, chk *checker) {
	p.attempted++
	if err != nil || status/100 != 2 || !chk.observe(r, body) {
		p.failed++
		return
	}
	if isWrite(r.kind) {
		p.writeLat = append(p.writeLat, lat)
	} else {
		p.readLat = append(p.readLat, lat)
		p.readDone = append(p.readDone, done)
		p.readKind = append(p.readKind, r.kind)
	}
}

// runOpen sends reqs at their scheduled offsets from nproc workers. Each
// latency runs from the request's scheduled send time, so time spent queued
// behind a slow response counts. A request not sent within grace of the
// last scheduled time counts as failed.
func runOpen(tg target, reqs []*request, workers int, grace time.Duration, chk *checker) *phase {
	start := time.Now()
	due := func(r *request) time.Time { return start.Add(time.Duration(r.at * float64(time.Second))) }
	var last time.Time = start
	if len(reqs) > 0 {
		last = due(reqs[len(reqs)-1])
	}
	deadline := last.Add(grace)

	queue := make(chan *request, len(reqs)) // one slot per scheduled send: the dispatcher never blocks
	lates := make([]time.Duration, 0, len(reqs))
	go func() {
		defer close(queue)
		// Go's timers round sub-millisecond sleeps up to about a millisecond,
		// which would add up to that much to every latency measured from
		// the schedule. The dispatcher sleeps in nanosleep on its own thread
		// instead, which wakes within tens of microseconds, at a real-time
		// priority when the host permits one. The thread gets its normal
		// priority back before it returns to the runtime; it must not exit,
		// because the served processes die with the thread that started them.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer setPolicy(schedFIFO, 1)()
		for _, r := range reqs {
			d := due(r)
			sleepUntil(d)
			lates = append(lates, time.Since(d))
			queue <- r
		}
	}()

	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &phase{}
		wg.Add(1)
		go func(p *phase, snd sender) {
			defer wg.Done()
			var buf bytes.Buffer
			for r := range queue {
				if time.Now().After(deadline) {
					p.attempted++
					p.failed++
					continue
				}
				status, err := snd.send(r, &buf)
				now := time.Now()
				p.record(r, status, err, now.Sub(due(r)), now.Sub(start), buf.Bytes(), chk)
			}
		}(parts[i], tg.worker(i))
	}
	wg.Wait()
	out := &phase{late: lates, elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// runClosed runs nproc clients that each send the stream's next request as
// soon as their previous one completes, for dur.
func runClosed(tg target, st *stream, workers int, dur time.Duration, chk *checker) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &phase{}
		wg.Add(1)
		go func(p *phase, snd sender) {
			defer wg.Done()
			var buf bytes.Buffer
			prev := time.Now()
			for time.Now().Before(deadline) {
				r := st.next()
				t0 := time.Now()
				p.late = append(p.late, t0.Sub(prev))
				status, err := snd.send(r, &buf)
				prev = time.Now()
				p.record(r, status, err, prev.Sub(t0), prev.Sub(start), buf.Bytes(), chk)
			}
		}(parts[i], tg.worker(i))
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// Linux scheduling policies.
const (
	schedOther = 0
	schedFIFO  = 1
)

// setPolicy moves the calling thread to a scheduling policy and priority,
// so a busy server does not delay the dispatcher's wake-ups, and returns
// the call that moves it back to the normal policy. Without the privilege
// both calls leave the thread as it is.
func setPolicy(policy, priority int) (restore func()) {
	set := func(policy, priority int) {
		param := struct{ priority int32 }{int32(priority)}
		_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
	}
	set(policy, priority)
	return func() { set(schedOther, 0) }
}

func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// quantile is the nearest-rank q-quantile of ds in milliseconds (0 when
// empty). ds is sorted in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return float64(ds[i]) / float64(time.Millisecond)
}

// Windowed estimates split a phase into equal time windows and report the
// median of the per-window values, so a burst of interference from outside
// the benchmark moves one window, not the run's figure.
const (
	// minWindowReads keeps at least ten reads beyond the p99 of a window.
	minWindowReads = 1000
	maxWindows     = 7
)

// windows returns the per-window read latencies.
func (p *phase) windows(n int) [][]time.Duration {
	ws := make([][]time.Duration, n)
	width := p.elapsed / time.Duration(n)
	for i, d := range p.readDone {
		w := min(int(d/max(1, width)), n-1)
		ws[w] = append(ws[w], p.readLat[i])
	}
	return ws
}

// readQuantile is the median over windows of the q-quantile of read
// latency, in ms, with as many windows (up to maxWindows) as hold
// minWindowReads reads each.
func (p *phase) readQuantile(q float64) float64 {
	n := min(maxWindows, max(1, len(p.readLat)/minWindowReads))
	var qs []float64
	for _, w := range p.windows(n) {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// readRate is the median over windows of about two seconds of completed
// reads per second.
func (p *phase) readRate() float64 {
	n := min(maxWindows, max(1, int(p.elapsed/(2*time.Second))))
	var rs []float64
	for _, w := range p.windows(n) {
		rs = append(rs, float64(len(w))/(p.elapsed/time.Duration(n)).Seconds())
	}
	return median(rs)
}
