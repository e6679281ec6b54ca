package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildTBSD compiles the daemon under test into the test's temp dir.
func buildTBSD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tbsd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tbsd").CombinedOutput()
	if err != nil {
		t.Fatalf("build tbsd: %v\n%s", err, out)
	}
	return bin
}

// TestKillNineKeepsAcknowledged runs a short ingest-wal leg, kills the
// daemon with SIGKILL, restarts it over the same directory, and requires
// every acknowledged item to be counted again.
func TestKillNineKeepsAcknowledged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tbsd")
	}
	bin := buildTBSD(t)
	s := ingestWAL(7, 1)
	dir := filepath.Join(t.TempDir(), "data")
	args := append(s.daemon.args(dir), "-trace-ring", "0")
	d, err := launch(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sendAll(d, s.warm[:64], 2)
	if err != nil {
		d.kill()
		t.Fatal(err)
	}
	leg := []lane{{ops: s.lanes[0].ops[:40]}, {ops: s.lanes[1].ops[:40]}}
	p, err := measure(d, leg)
	if err != nil {
		d.kill()
		t.Fatal(err)
	}
	d.kill()
	if p.failed != 0 || p.items == 0 {
		t.Fatalf("leg: %d failed of %d, %d items: %v", p.failed, p.attempted, p.items, p.errs)
	}
	for k, n := range p.acked {
		want[k] += n
	}
	start := time.Now()
	d, err = launch(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	bad, detail, err := checkIngested(d, want)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d streams lost acknowledged items after kill -9 (restart took %v): %v", bad, time.Since(start), detail)
	}
}

// TestModelQualityDeterministic runs a short serve-model twice, untraced
// and traced, and requires identical model error, retrain counts and
// linreg MSE.
func TestModelQualityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tbsd")
	}
	bin := buildTBSD(t)
	w := &workloadRun{cfg: config{seed: 3, seconds: 1, tbsd: bin}, root: t.TempDir()}
	var err error
	if w.s, err = serveModel(3, 1); err != nil {
		t.Fatal(err)
	}
	var q []map[string]float64
	for _, traced := range []bool{false, true} {
		_, d, err := w.launchWarm(traced)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{Correct: true, Metrics: map[string]metric{}}
		p, err := w.measureChecked(d, res)
		d.kill()
		if err != nil || !res.Correct {
			t.Fatalf("traced=%v: %v %v", traced, err, res.checks)
		}
		q = append(q, p.quality)
	}
	if len(q[0]) == 0 || len(q[0]) != len(q[1]) {
		t.Fatalf("quality maps differ in size: %v vs %v", q[0], q[1])
	}
	for k, v := range q[0] {
		if q[1][k] != v {
			t.Errorf("%s: untraced %v, traced %v", k, v, q[1][k])
		}
	}
}
