package main

import (
	"math"
	"os"
	"strconv"
	"testing"
)

const scrape1 = `# HELP ignored
tbsd_ingested_items_total 100
tbsd_trace_duration_seconds_sum{kind="ingest"} 0.5
tbsd_trace_duration_seconds_count{kind="ingest"} 10
tbsd_trace_stage_duration_seconds_bucket{kind="ingest",stage="parse",le="+Inf"} 10
tbsd_trace_stage_duration_seconds_sum{kind="ingest",stage="parse"} 0.01
tbsd_trace_stage_duration_seconds_count{kind="ingest",stage="parse"} 10
odd_label{path="a b}c"} 7
go_gc_heap_allocs_bytes_total 1e+06
`

const scrape2 = `tbsd_ingested_items_total 350
tbsd_trace_duration_seconds_sum{kind="ingest"} 2.5
tbsd_trace_duration_seconds_count{kind="ingest"} 30
tbsd_trace_stage_duration_seconds_sum{kind="ingest",stage="parse"} 0.05
tbsd_trace_stage_duration_seconds_count{kind="ingest",stage="parse"} 50
tbsd_trace_stage_duration_seconds_sum{kind="hydrate",stage="replay"} 0.25
tbsd_trace_stage_duration_seconds_count{kind="hydrate",stage="replay"} 5
go_gc_heap_allocs_bytes_total 3.5e+06
`

func TestPromDeltas(t *testing.T) {
	const stage = "tbsd_trace_stage_duration_seconds"
	a, err := parseProm([]byte(scrape1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm([]byte(scrape2))
	if err != nil {
		t.Fatal(err)
	}
	if got := a[`odd_label{path="a b}c"}`]; got != 7 {
		t.Errorf("label value with a space and brace: %v", got)
	}
	if got := delta(a, b, "tbsd_ingested_items_total"); got != 250 {
		t.Errorf("counter delta %v, want 250", got)
	}
	if got := delta(a, b, "go_gc_heap_allocs_bytes_total"); got != 2.5e6 {
		t.Errorf("exponent-form delta %v", got)
	}
	// 0.04 s over 40 observations = 1000 µs each.
	if us, n := histMean(a, b, stage, `{kind="ingest",stage="parse"}`); n != 40 || math.Abs(us-1000) > 1e-6 {
		t.Errorf("stage mean %v µs over %v, want 1000 over 40", us, n)
	}
	// A histogram absent from the first scrape (no observations yet)
	// counts from zero.
	if us, n := histMean(a, b, stage, `{kind="hydrate",stage="replay"}`); n != 5 || math.Abs(us-50000) > 1e-6 {
		t.Errorf("new stage mean %v µs over %v, want 50000 over 5", us, n)
	}
	if us, n := histMean(a, b, stage, `{kind="boundary",stage="score"}`); us != 0 || n != 0 {
		t.Errorf("unobserved stage: %v over %v, want 0 over 0", us, n)
	}
	p := &phase{before: a, after: b}
	// Per traced request: 0.04 s of parse over 20 ingest traces.
	if got := perTrace(p, "ingest", "parse"); math.Abs(got-2000) > 1e-6 {
		t.Errorf("per-trace parse %v µs, want 2000", got)
	}
	for _, bad := range []string{"novalue\n", "name notanumber\n", "x{a=\"1\"}\n"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcReading(t *testing.T) {
	stat := []byte("4242 (tbs d) (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 567 0 0 20 0 9 0 100 200000 3000 rest")
	cpu, err := parseStatCPU(stat)
	if err != nil || math.Abs(cpu-18.01) > 1e-9 {
		t.Errorf("parseStatCPU = %v, %v; want 18.01 s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat accepted")
	}
	status := []byte("Name:\ttbsd\nVmPeak:\t 999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10240 kB\n")
	if mb, err := parseVmHWM(status); err != nil || mb != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MiB", mb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if st, err := parseSteal([]byte("cpu  3041321 0 465601 5137053 69190 0 177614 158910 0 0\ncpu0 1 2 3\n")); err != nil || st != 1589.10 {
		t.Errorf("parseSteal = %v, %v; want 1589.1 s", st, err)
	}
	if _, err := parseSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("stat without a cpu line accepted")
	}
	// The live readers work on this very process.
	self := strconv.Itoa(os.Getpid())
	burn := 0
	for i := 0; i < 5e7; i++ {
		burn += i
	}
	_ = burn
	if cpu, err := procCPU(self); err != nil || cpu <= 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if mb, err := procPeakRSS(self); err != nil || mb <= 1 {
		t.Errorf("procPeakRSS(self) = %v, %v", mb, err)
	}
}
