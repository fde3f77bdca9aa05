// Command servebench is the repository's served-query benchmark. It starts
// the real knnserve (and, for the remote workload, two knnshard processes),
// feeds them generated CSV datasets and a generated request stream, checks a
// sample of the answers against direct in-process twoknn calls, and prints
// one JSON result line.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash servebench/run.sh --workload select-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of a served run.
// With --trace 1 it carries the per-layer metrics of an in-process traced
// replay of the same workload (see trace.go). Human-readable progress and
// the run record (host, offered rates, sample counts) go to standard error;
// the run record is also written under the -work directory.
//
// A smoke run, which still emits every metric and checks its answers, is
//
//	bash servebench/run.sh --workload read-write --seed 1 --seconds 1 --trace 0
//
// and `go test .` in this directory runs one per workload, traced and
// untraced, against BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/kernel"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	binDir   string
	workDir  string
	// setupReps is how many times the deployment is started; setup_s is the
	// median.
	setupReps int
	// inject corrupts one sampled response before the answer check (the
	// tests set it to prove a wrong answer is counted).
	inject bool
}

// setupReps is the number of deployment start-ups per run.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxLateMS is the generator lag (p99, ms) past which an open-loop run is
// invalid: its measurements cannot be trusted, so it reports no result.
const maxLateMS = 20

func main() {
	c := config{setupReps: setupReps}
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name: select-mix, join-skewed, remote-scatter or read-write")
	flag.Uint64Var(&c.seed, "seed", 1, "request-stream seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the in-process traced replay and reports per-layer metrics")
	flag.StringVar(&c.binDir, "bin", "", "directory holding the knnserve and knnshard binaries")
	flag.StringVar(&c.workDir, "work", "", "directory for generated datasets, traces and run records")
	flag.Parse()
	c.trace = trace == 1

	res, rec, err := run(c)
	if rec != nil {
		writeRecord(c, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		if res != nil {
			printResult(res)
		}
		os.Exit(1)
	}
	printResult(res)
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// record is the run record: the host, the workload's parameters, and every
// number the run produced, including the ones not in the result line.
type record struct {
	Host     host           `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Loop     string         `json:"loop"`
	Rate     float64        `json:"offered_rps,omitempty"`
	Clients  int            `json:"clients"`
	Info     map[string]any `json:"info"`
	Result   *result        `json:"result,omitempty"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo() host {
	return host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel.Active(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

func writeRecord(c config, rec *record) {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "servebench: run record\n%s\n", b)
	dir := filepath.Join(c.workDir, "runs")
	if os.MkdirAll(dir, 0o755) == nil {
		name := fmt.Sprintf("%s-seed%d-trace%t.json", c.workload, c.seed, c.trace)
		_ = os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
}

func run(c config) (*result, *record, error) {
	w, err := workloadNamed(c.workload)
	if err != nil {
		return nil, nil, err
	}
	if c.binDir == "" || c.workDir == "" {
		return nil, nil, errors.New("-bin and -work are required (run through servebench/run.sh)")
	}
	if c.seconds <= 0 {
		return nil, nil, errors.New("-seconds must be positive")
	}
	dataDir := filepath.Join(c.workDir, "data")
	for _, name := range sortedKeys(w.files) {
		if err := w.files[name].ensure(dataDir); err != nil {
			return nil, nil, err
		}
	}
	rec := &record{
		Host: hostInfo(), Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Loop: "open", Rate: w.rate, Clients: runtime.NumCPU(), Info: map[string]any{},
	}
	if w.closed {
		rec.Loop, rec.Rate = "closed", 0
	}
	var res *result
	if c.trace {
		res, err = runTraced(c, w, dataDir, rec)
	} else {
		res, err = runServed(c, w, dataDir, rec)
	}
	rec.Result = res
	return res, rec, err
}

// Phase split of an open-loop run: the fixed-rate phase, then the
// closed-loop saturation phase.
const openShare = 0.7

// generatorHeap bounds the load generator's heap in served runs.
const generatorHeap = 512 << 20

// runServed is the untraced end-to-end run against the served processes.
func runServed(c config, w *workload, dataDir string, rec *record) (*result, error) {
	nproc := runtime.NumCPU()
	// The generator's own garbage collections would show as latency of the
	// served processes; collect only when the heap nears the limit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(generatorHeap))
	var setups []float64
	var d *deployment
	for i := 0; i < max(1, c.setupReps); i++ {
		dep, took, err := deploy(w, c.binDir, dataDir)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if d != nil {
			d.stop()
		}
		d = dep
	}
	defer d.stop()
	rec.Info["setup_runs_s"] = setups

	base, err := w.baseLen()
	if err != nil {
		return nil, err
	}
	st := newStream(w, c.seed, base)
	snd := newConns(d.addr, nproc)
	defer snd.close()
	chk := newChecker(c.seed, w.name != "read-write", c.inject)

	// Warm-up: connections, page faults, first render and cache fills.
	chk.begin("warm-up")
	warm := runClosed(snd, st, nproc, warmup(c.seconds), chk)
	total := &phase{attempted: warm.attempted, failed: warm.failed}

	var timed, sat *phase
	var cpu time.Duration
	steal0, ticks0 := hostSteal()
	if w.closed {
		if err := checkpoint(w, st, snd, chk, dataDir, total); err != nil {
			return nil, err
		}
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		chk.begin("timed")
		timed = runClosed(snd, st, nproc, seconds(c.seconds), chk)
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		cpu, sat = cpu1-cpu0, timed
	} else {
		reqs := st.schedule(c.seconds * openShare)
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		chk.begin("timed")
		timed = runOpen(snd, reqs, nproc, 2*time.Second, chk)
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		cpu = cpu1 - cpu0
		if err := checkpoint(w, st, snd, chk, dataDir, total); err != nil {
			return nil, err
		}
		chk.begin("saturation")
		sat = runClosed(snd, st, nproc, seconds(c.seconds*(1-openShare)), chk)
		rec.Info["offered_requests"] = len(reqs)
	}
	total.merge(timed)
	if sat != timed {
		total.merge(sat)
	}
	if err := checkpoint(w, st, snd, chk, dataDir, total); err != nil {
		return nil, err
	}
	// Host CPU time stolen from this machine by its hypervisor during the
	// measured phases: the main source of run-to-run noise on shared hosts.
	steal1, ticks1 := hostSteal()
	rec.Info["host_steal_frac"] = float64(steal1-steal0) / float64(max(1, ticks1-ticks0))
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}

	if w.name != "read-write" {
		rels, err := buildRelations(w, dataDir)
		if err != nil {
			return nil, err
		}
		samples, perStage := chk.samples()
		if err := chk.verify(w, rels, samples); err != nil {
			return nil, err
		}
		rec.Info["sampled_per_stage"] = perStage
	}
	rec.Info["checked_samples"] = chk.checked
	wrong := chk.wrong
	total.failed += wrong

	lateP99 := quantile(timed.late, 0.99)
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"p50_ms":         {timed.readQuantile(0.50), "ms"},
		"p99_ms":         {timed.readQuantile(0.99), "ms"},
		"sat_rps":        {sat.readRate(), "1/s"},
		"cpu_ms_per_req": {cpu.Seconds() * 1000 / float64(max(1, timed.completed())), "ms"},
		"rss_mb":         {float64(rss) / (1 << 20), "MB"},
		"write_p50_ms":   {quantile(timed.writeLat, 0.50), "ms"},
	}
	// Figures kept out of the result line: too few samples or too much
	// host noise to gate on (see CHANGES.md), but worth recording.
	rec.Info["reads"] = len(timed.readLat)
	rec.Info["reads_beyond_p99"] = beyond(len(timed.readLat), 0.99)
	rec.Info["p999_ms"] = timed.readQuantile(0.999)
	// select-mix's p99 falls among its 1024-focal batches (2% of reads);
	// this is the tail of the other, interactive reads.
	var interactive []time.Duration
	for i, k := range timed.readKind {
		if k != kBatchLarge {
			interactive = append(interactive, timed.readLat[i])
		}
	}
	rec.Info["interactive_p99_ms"] = quantile(interactive, 0.99)
	rec.Info["writes"] = len(timed.writeLat)
	rec.Info["write_p90_ms"] = quantile(timed.writeLat, 0.90)
	rec.Info["write_p99_ms"] = quantile(timed.writeLat, 0.99)
	rec.Info["loadgen_late_p99_ms"] = lateP99
	rec.Info["failed_frac"] = float64(total.failed) / float64(max(1, total.attempted))
	rec.Info["wrong_answers"] = wrong
	if ms, err := scrapeMetrics("http://" + d.addr); err == nil {
		rec.Info["routes"] = ms.Routes
	}

	res := &result{Correct: wrong == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}
	if wrong > 0 {
		return res, fmt.Errorf("%d sampled answers differ from the in-process engine", wrong)
	}
	if !w.closed && lateP99 > maxLateMS {
		return nil, fmt.Errorf("invalid run: load generator ran %.1f ms late at p99 (limit %d ms)", lateP99, maxLateMS)
	}
	return res, nil
}

// checkpoint is the read-write answer check: with no request in flight, it
// re-issues a deterministic sample of reads and compares them with an
// in-process relation over the acknowledged live set. Other workloads check
// in-flight samples instead and skip it.
// Transport failures and non-2xx answers count into total; wrong answers
// count on chk.
func checkpoint(w *workload, st *stream, tg target, chk *checker, dataDir string, total *phase) error {
	if w.name != "read-write" {
		return nil
	}
	basePts, err := w.files[w.sel].load(dataDir)
	if err != nil {
		return err
	}
	pts, ids := chk.live(basePts)
	r, err := newRelation(w.sel, pts, ids)
	if err != nil {
		return err
	}
	rels := map[string]*relation{w.sel: r}
	var reqs []*request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, st.nextOf(kSelect))
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, st.nextOf(kBatch))
	}
	samples := make([]sample, 0, len(reqs))
	var buf bytes.Buffer
	for _, r := range reqs {
		status, err := tg.worker(0).send(r, &buf)
		total.attempted++
		if err != nil || status != 200 {
			total.failed++
			continue
		}
		samples = append(samples, sample{r, append([]byte(nil), buf.Bytes()...)})
	}
	return chk.verify(w, rels, samples)
}

func buildRelations(w *workload, dataDir string) (map[string]*relation, error) {
	rels := map[string]*relation{}
	for _, name := range sortedKeys(w.files) {
		if name == w.writeTo {
			continue // written during the run; never the read check's target
		}
		pts, err := w.files[name].load(dataDir)
		if err != nil {
			return nil, err
		}
		if rels[name], err = newRelation(name, pts, nil); err != nil {
			return nil, err
		}
	}
	return rels, nil
}

// warmup is the untimed warm-up before the measured phases.
func warmup(secs float64) time.Duration { return seconds(math.Min(1, 0.1*secs)) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
