package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a Prometheus text endpoint, keyed by the
// series exactly as printed (`name` or `name{label="v",...}`).
type promSnapshot map[string]float64

// parseProm reads the text exposition format. Comment lines are skipped;
// a line whose value does not parse is an error, since a half-read scrape
// would make every delta taken from it wrong.
func parseProm(text []byte) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split after the closing brace.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut:]), 64)
		if err != nil {
			return nil, fmt.Errorf("prom: line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// delta is after−before for one series; a series missing from a scrape
// counts as 0 (tbsd omits histograms that have no observations yet).
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// histMean is the mean observation, in microseconds, that a seconds
// histogram recorded between two scrapes (Δ_sum/Δ_count), with the
// number of observations. The mean is 0 when nothing was observed.
func histMean(before, after promSnapshot, name, labels string) (us, n float64) {
	n = delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum"+labels) / n * 1e6, n
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from /proc/<pid>/stat.
// The command name in field 2 may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields", len(f)+2)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in MiB from
// /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

func procPeakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// parseSteal returns the host's total steal time in seconds from the
// first line of /proc/stat: time the hypervisor ran something else while
// this VM had work, which slows a run without showing in its CPU time.
func parseSteal(stat []byte) (float64, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no aggregate cpu line")
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: steal: %w", err)
	}
	return float64(ticks) / clockTicks, nil
}

// hostSteal is parseSteal of the live /proc/stat; 0 where unavailable.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	s, err := parseSteal(b)
	if err != nil {
		return 0
	}
	return s
}
