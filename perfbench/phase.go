package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// phase is what one measured pass over a workload's lanes observed.
type phase struct {
	lat               [numOpKinds][]float64 // ms, from send (closed loop) or due time (open loop)
	late              []float64             // open-loop send lateness, ms
	acked             map[string]int64      // items acknowledged per key
	attempted, failed int
	errs              []string
	items             int64
	wall              time.Duration
	genCPU            float64
	steal             float64 // host steal time over the phase, seconds
	peakRSS           float64
	before, after     promSnapshot
	quality           map[string]float64
	segs              []segment
}

// addedCount reads the "added" field of an ingest response without a
// full JSON decode.
func addedCount(body []byte) (int64, bool) {
	i := bytes.Index(body, []byte(`"added":`))
	if i < 0 {
		return 0, false
	}
	var n int64
	j := i + len(`"added":`)
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		n = n*10 + int64(body[j]-'0')
	}
	return n, j > i+len(`"added":`)
}

// laneRecorder accumulates one lane's observations without locks; the
// lanes are merged once they have all finished.
type laneRecorder struct {
	lat       [numOpKinds][]float64
	late      []float64
	acked     map[string]int64
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration // start of the slice to the lane's last answer
}

func (r *laneRecorder) observe(o *op, status int, body []byte, err error, lat, late time.Duration, open bool) {
	r.attempted++
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil && o.kind == opIngest {
		n, ok := addedCount(body)
		if !ok || n != int64(o.items) {
			err = fmt.Errorf("acknowledged %d of %d items: %.200s", n, o.items, body)
		} else {
			r.acked[o.key] += n
		}
	}
	if open {
		r.late = append(r.late, ms(late))
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s %s: %v", o.method, o.path, err))
		}
		return
	}
	r.lat[o.kind] = append(r.lat[o.kind], ms(lat))
}

// runLane sends one lane's ops on its own connection.
func runLane(c *conn, l lane, start time.Time) *laneRecorder {
	r := &laneRecorder{acked: map[string]int64{}}
	for k := range r.lat {
		r.lat[k] = make([]float64, 0, len(l.ops))
	}
	var buf bytes.Buffer
	if l.interval == 0 {
		for i := range l.ops {
			o := &l.ops[i]
			t0 := time.Now()
			status, err := c.do(o.method, o.path, o.ctype, o.body, &buf)
			r.observe(o, status, buf.Bytes(), err, time.Since(t0), 0, false)
		}
		r.elapsed = time.Since(start)
		return r
	}
	var status int
	openLoop(wallClock{}, start, l.interval, len(l.ops), l.follows,
		func(i int) (err error) {
			o := &l.ops[i]
			status, err = c.do(o.method, o.path, o.ctype, o.body, &buf)
			return err
		},
		func(i int, latency, late time.Duration, err error) {
			r.observe(&l.ops[i], status, buf.Bytes(), err, latency, late, !l.follows(i))
		})
	r.elapsed = time.Since(start)
	return r
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// segments is how many consecutive slices the measured work is cut into.
// Throughput, medians and CPU are reported as the median over slices, so
// a few seconds of interference from outside the benchmark move one
// slice rather than the run's figure; tails pool every sample.
const segments = 5

// segment is one slice of the measured work.
type segment struct {
	wall  time.Duration
	items int64
	// ingestWall is how long the lanes that carried items took: a
	// closed-loop writer's throughput must not be diluted by an open-loop
	// reader that runs on in the same slice.
	ingestWall time.Duration
	p50        [numOpKinds]float64
	read       float64 // median over predicts and samples together
	cpu        float64
}

// measure runs the lanes concurrently, one connection each, slice by
// slice, between two scrapes of the daemon's counters.
func measure(d *daemon, lanes []lane) (*phase, error) {
	side := newConn(d.base)
	defer side.close()
	p := &phase{acked: map[string]int64{}}
	var err error
	if p.before, err = d.scrape(side); err != nil {
		return nil, err
	}
	conns := make([]*conn, len(lanes))
	for i := range lanes {
		conns[i] = newConn(d.base)
		defer conns[i].close()
	}
	gen0, steal0 := selfCPU(), hostSteal()
	for s := 0; s < segments; s++ {
		cpu0, err := d.cpu()
		if err != nil {
			return nil, err
		}
		recs := make([]*laneRecorder, len(lanes))
		var wg sync.WaitGroup
		start := time.Now()
		for i, l := range lanes {
			n := len(l.ops)
			l.ops = l.ops[s*n/segments : (s+1)*n/segments]
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = runLane(conns[i], l, start)
			}()
		}
		wg.Wait()
		seg := segment{wall: time.Since(start)}
		cpu1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		seg.cpu = cpu1 - cpu0
		var lat [numOpKinds][]float64
		for _, r := range recs {
			for k := range r.lat {
				lat[k] = append(lat[k], r.lat[k]...)
				p.lat[k] = append(p.lat[k], r.lat[k]...)
			}
			p.late = append(p.late, r.late...)
			for k, n := range r.acked {
				p.acked[k] += n
				seg.items += n
			}
			if len(r.acked) > 0 {
				seg.ingestWall = max(seg.ingestWall, r.elapsed)
			}
			p.attempted += r.attempted
			p.failed += r.failed
			p.errs = append(p.errs, r.errs...)
		}
		for k := range lat {
			seg.p50[k] = summarize(lat[k]).P50
		}
		seg.read = summarize(append(lat[opPredict], lat[opSample]...)).P50
		p.items += seg.items
		p.wall += seg.wall
		p.segs = append(p.segs, seg)
	}
	p.genCPU, p.steal = selfCPU()-gen0, hostSteal()-steal0
	if p.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if p.after, err = d.scrape(side); err != nil {
		return nil, err
	}
	return p, nil
}

// segMedian is the median over slices of f.
func (p *phase) segMedian(f func(segment) float64) float64 {
	v := make([]float64, len(p.segs))
	for i, s := range p.segs {
		v[i] = f(s)
	}
	return median(v)
}

// sendAll sends ops closed-loop over up to conns connections, keeping
// every key on one connection so per-key order is the ops' order. It
// returns the items acknowledged per key and fails on the first non-2xx.
func sendAll(d *daemon, ops []op, conns int) (map[string]int64, error) {
	parts := make([][]op, conns)
	for _, o := range ops {
		h := fnv.New32a()
		h.Write([]byte(o.key))
		i := int(h.Sum32() % uint32(conns))
		parts[i] = append(parts[i], o)
	}
	acked := make([]map[string]int64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(d.base)
			defer c.close()
			acked[i] = map[string]int64{}
			var buf bytes.Buffer
			for j := range parts[i] {
				o := &parts[i][j]
				status, err := c.do(o.method, o.path, o.ctype, o.body, &buf)
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", o.method, o.path, err)
					return
				}
				if o.items > 0 {
					n, _ := addedCount(buf.Bytes())
					acked[i][o.key] += n
				}
			}
		}()
	}
	wg.Wait()
	out := map[string]int64{}
	for i := range acked {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k, n := range acked[i] {
			out[k] += n
		}
	}
	return out, nil
}

// getJSON fetches one JSON document from the daemon.
func getJSON(c *conn, path string, v any) error {
	var buf bytes.Buffer
	status, err := c.do("GET", path, "", nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, status, buf.Bytes())
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// checkIngested compares every stream's /stats "ingested" with what the
// benchmark had acknowledged to it (plus what the prepared directory and
// warm-up already held), over two connections. It returns the number of
// mismatching streams and the first few differences.
func checkIngested(d *daemon, want map[string]int64) (bad int, detail []string, err error) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	got := make([]map[string]int64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(d.base)
			defer c.close()
			got[i] = map[string]int64{}
			for j := i; j < len(keys); j += 2 {
				var st struct {
					Ingested int64 `json:"ingested"`
				}
				if err := getJSON(c, "/v1/streams/"+keys[j]+"/stats", &st); err != nil {
					errs[i] = err
					return
				}
				got[i][keys[j]] = st.Ingested
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			return 0, nil, errs[i]
		}
		for k, n := range got[i] {
			if n != want[k] {
				bad++
				if len(detail) < 3 {
					detail = append(detail, fmt.Sprintf("%s: stats say %d, acknowledged %d", k, n, want[k]))
				}
			}
		}
	}
	return bad, detail, nil
}

// modelQuality reads back every model stream's deterministic statistics:
// mean batch error (misclassification rate for classifiers, MSE for
// linreg), retrains and scored batches.
func modelQuality(d *daemon, models []modelStream) (map[string]float64, error) {
	c := newConn(d.base)
	defer c.close()
	q := map[string]float64{}
	var errSum float64
	var classifiers int
	for _, m := range models {
		var st struct {
			Stats struct {
				Retrains      uint64   `json:"retrains"`
				ScoredBatches uint64   `json:"scoredBatches"`
				MeanBatchErr  *float64 `json:"meanBatchErr"`
				TrainFailures uint64   `json:"trainFailures"`
			} `json:"stats"`
		}
		if err := getJSON(c, "/v1/streams/"+m.key+"/model/stats", &st); err != nil {
			return nil, err
		}
		if st.Stats.MeanBatchErr == nil || st.Stats.TrainFailures > 0 {
			return nil, fmt.Errorf("model %s: no scored batches or %d train failures", m.key, st.Stats.TrainFailures)
		}
		q["retrains."+m.key] = float64(st.Stats.Retrains)
		q["scored."+m.key] = float64(st.Stats.ScoredBatches)
		q["err."+m.key] = *st.Stats.MeanBatchErr
		q["retrains"] += float64(st.Stats.Retrains)
		if m.classifier {
			errSum += *st.Stats.MeanBatchErr
			classifiers++
		}
	}
	if classifiers > 0 {
		q["model_error_pct"] = errSum / float64(classifiers) // already in %
	}
	return q, nil
}
