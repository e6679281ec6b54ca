// Command perfbench is the repository's end-to-end benchmark: a
// single-process load generator that drives a separate tbsd child over
// loopback HTTP through one workload, checks the daemon's answers, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct","attempted","failed","metrics"}.
//
//	bash perfbench/run.sh --workload ingest-wal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the workload runs twice, untraced and then
// traced, and the metrics are the per-layer ones (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tbsd     string
	dir      string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict for one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	checks []string // human-readable check outcomes
	notes  []string // provenance and informational lines
}

func (r *result) check(ok bool, format string, args ...any) {
	verdict := "ok  "
	if !ok {
		verdict = "FAIL"
		r.Correct = false
	}
	r.checks = append(r.checks, verdict+" "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest-wal, serve-model or cold-tier")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "work to do, in seconds of the workload's schedule")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.tbsd, "tbsd", "", "tbsd binary under test")
	flag.StringVar(&cfg.dir, "dir", "", "scratch directory for data directories")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.tbsd == "" || cfg.dir == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -tbsd, -dir, -seconds ≥ 1 and -trace 0|1 (use run.sh)")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, res)
}

func buildSpec(cfg config) (*spec, error) {
	switch cfg.workload {
	case "ingest-wal":
		return ingestWAL(cfg.seed, cfg.seconds), nil
	case "serve-model":
		return serveModel(cfg.seed, cfg.seconds)
	case "cold-tier":
		return coldTier(cfg.seed, cfg.seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest-wal, serve-model or cold-tier)", cfg.workload)
}

// setupRuns is how many times a trace-0 run launches and warms the
// daemon; setup_s is the median.
const setupRuns = 5

func run(cfg config) (*result, error) {
	s, err := buildSpec(cfg)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(cfg.dir, s.name)
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	w := &workloadRun{cfg: cfg, s: s, root: root}
	if s.prepared != nil {
		w.pristine = filepath.Join(root, "prepared")
		if err := s.prepared(cfg.tbsd, w.pristine); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	provenance(res, cfg, w)
	if cfg.trace {
		return res, w.traced(res)
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		took, dd, err := w.launchWarm(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			dd.kill()
			continue
		}
		d = dd
	}
	defer d.kill()
	p, err := w.measureChecked(d, res)
	if err != nil {
		return nil, err
	}
	res.note("setup_s runs: %s", fmtList(setups, "%.4f"))
	endToEnd(res, p, median(setups))
	return res, nil
}

// workloadRun holds one run's per-launch state.
type workloadRun struct {
	cfg      config
	s        *spec
	root     string
	pristine string // prepared directory each launch copies, if any
	launches int
	warmAck  map[string]int64
}

// launchWarm starts a daemon over a fresh data directory and sends the
// warm-up; the returned duration is set-up time (launch → ready → warm).
func (w *workloadRun) launchWarm(traced bool) (time.Duration, *daemon, error) {
	w.launches++
	dir := filepath.Join(w.root, fmt.Sprintf("data-%d", w.launches))
	if w.pristine != "" {
		if err := copyDir(w.pristine, dir); err != nil {
			return 0, nil, err
		}
	}
	// Earlier launches' directories are no longer needed.
	for i := 1; i < w.launches; i++ {
		_ = os.RemoveAll(filepath.Join(w.root, fmt.Sprintf("data-%d", i)))
	}
	args := w.s.daemon.args(dir)
	if !traced {
		args = append(args, "-trace-ring", "0")
	}
	start := time.Now()
	d, err := launch(w.cfg.tbsd, args...)
	if err != nil {
		return 0, nil, err
	}
	ack, err := sendAll(d, w.s.warm, 2)
	if err != nil {
		d.kill()
		return 0, nil, fmt.Errorf("warm-up: %w", err)
	}
	if w.pristine != "" {
		// Let the first hibernation sweep trim the restored streams to
		// -max-resident, so the measured phase starts at its steady state.
		if err := waitResident(d, coldResident, 60*time.Second); err != nil {
			d.kill()
			return 0, nil, err
		}
	}
	took := time.Since(start)
	w.warmAck = ack
	return took, d, nil
}

func waitResident(d *daemon, max int, timeout time.Duration) error {
	c := newConn(d.base)
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		snap, err := d.scrape(c)
		if err != nil {
			return err
		}
		if snap["tbsd_streams_resident"] <= float64(max) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("resident streams still %v after %v", snap["tbsd_streams_resident"], timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// measureChecked runs the measured phase and the output checks that
// follow it: request failures, acknowledged items against /stats, and the
// model read-back.
func (w *workloadRun) measureChecked(d *daemon, res *result) (*phase, error) {
	p, err := measure(d, w.s.lanes)
	if err != nil {
		return nil, err
	}
	res.Attempted += p.attempted
	res.Failed += p.failed
	res.check(p.failed == 0, "%s: %d of %d requests failed %v", w.s.name, p.failed, p.attempted, p.errs)
	want := map[string]int64{}
	for k, n := range w.s.base {
		want[k] += n
	}
	for k, n := range w.warmAck {
		want[k] += n
	}
	for k, n := range p.acked {
		want[k] += n
	}
	bad, detail, err := checkIngested(d, want)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range want {
		total += n
	}
	res.check(bad == 0, "%s: Σ ingested over %d streams' /stats = %d items acknowledged (%d measured); %d streams differ %v",
		w.s.name, len(want), total, p.items, bad, detail)
	if len(w.s.models) > 0 {
		if p.quality, err = modelQuality(d, w.s.models); err != nil {
			res.check(false, "%s: model read-back: %v", w.s.name, err)
		}
	}
	for _, k := range []opKind{opIngest, opBoundary, opPredict, opSample} {
		if sm := summarize(p.lat[k]); sm.N > 0 {
			res.note("%-8s n=%-6d p50 %.4f ms  p99 %s  highest supported p%.2f %.4f ms",
				opNames[k], sm.N, sm.P50, fmtMaybe(sm.P99, "%.4f ms"), 100*sm.TopQ, sm.TopV)
		}
	}
	if len(p.late) > 0 {
		lag := summarize(p.late)
		res.note("gen lag n=%d p50 %.4f ms p99 %s (open-loop send lateness)", lag.N, lag.P50, fmtMaybe(lag.P99, "%.4f ms"))
	}
	res.note("gen cpu %.3f s over %.3f s wall; host steal %.2f s (CPU time the hypervisor gave elsewhere)",
		p.genCPU, p.wall.Seconds(), p.steal)
	return p, nil
}

// endToEnd sets the end-to-end metrics from an untraced phase. Every
// workload issues every request kind these need, so none is left out.
// The bounded tail is the p90 of all samples: p99 of one run's 1000–2000
// samples moved by a third between runs of the same code on a shared
// 2-core host. The report still prints each route's p99, or the highest
// percentile with minTail samples beyond it, with its sample count.
func endToEnd(res *result, p *phase, setup float64) {
	res.set("setup_s", "s", setup)
	res.set("ingest_items_per_s", "1/s", p.segMedian(func(s segment) float64 { return float64(s.items) / s.ingestWall.Seconds() }))
	reads := append(append([]float64(nil), p.lat[opPredict]...), p.lat[opSample]...)
	for _, l := range []struct {
		name string
		v    []float64
		p50  func(segment) float64
	}{
		{"ingest", p.lat[opIngest], func(s segment) float64 { return s.p50[opIngest] }},
		{"boundary", p.lat[opBoundary], func(s segment) float64 { return s.p50[opBoundary] }},
		{"read", reads, func(s segment) float64 { return s.read }},
	} {
		res.check(supports(len(l.v), 0.9), "%s latency: %d samples support a p90", l.name, len(l.v))
		res.set(l.name+"_p50_ms", "ms", p.segMedian(l.p50))
		res.set(l.name+"_p90_ms", "ms", quantile(sortedCopy(l.v), 0.9))
	}
	res.set("server_cpu_s", "s", p.segMedian(func(s segment) float64 { return s.cpu })*float64(len(p.segs)))
	res.set("peak_rss_mb", "MiB", p.peakRSS)
	if v, ok := p.quality["model_error_pct"]; ok {
		res.note("model_error %.4f %% (mean batch misclassification over the classifier streams), retrains %v",
			v, p.quality["retrains"])
	}
}

func fmtMaybe(v float64, format string) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

func fmtList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// report prints the human-readable report and then, as the last line,
// the JSON verdict. A metric that could not be measured is a failed run,
// not a zero.
func report(out io.Writer, cfg config, res *result) {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d: %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, n := range res.notes {
		fmt.Fprintln(out, "  "+n)
	}
	for _, c := range res.checks {
		fmt.Fprintln(out, "  check "+c)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			fmt.Fprintf(out, "  check FAIL metric %s was not measured\n", n)
			res.Metrics[n] = metric{Value: -1, Unit: m.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	fmt.Fprintln(out, string(b))
}

// copyDir clones a data directory for one launch. Checkpoint files are
// hard-linked: tbsd only ever replaces them by rename, so the prepared
// copy stays intact (a daemon that rewrote one in place would fail the
// next launch's ingested-count check). The WAL, which is appended in
// place, is copied.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !de.Type().IsRegular() {
			return errors.New("copyDir: not a regular file: " + path)
		}
		if filepath.Dir(rel) == "." {
			return os.Link(path, target)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
