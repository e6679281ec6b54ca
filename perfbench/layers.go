package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xrand"
	"repro/tbs"
)

// reconcileTolerancePct is how far Σ(ingest-trace stage means) +
// transport may sit from the client-observed mean latency of posts and
// boundaries, as a share of it. The in-process replay that transport is
// derived from lacks the socket and the generator's share of the two
// cores, so the two sides are measured under slightly different load;
// probes landed within ±10 %.
const reconcileTolerancePct = 25

// traced is a --trace 1 run: the workload runs untraced and then traced
// on the same seed, and the per-layer metrics come from the traced
// daemon's /metrics and /debug/runtime deltas plus the benchmark's own
// spans around calls into each layer, on the same generated inputs.
func (w *workloadRun) traced(res *result) error {
	_, du, err := w.launchWarm(false)
	if err != nil {
		return err
	}
	pu, err := w.measureChecked(du, res)
	du.kill()
	if err != nil {
		return err
	}
	_, dt, err := w.launchWarm(true)
	if err != nil {
		return err
	}
	pt, err := w.measureChecked(dt, res)
	dt.kill()
	if err != nil {
		return err
	}
	if len(w.s.models) > 0 {
		same := len(pu.quality) == len(pt.quality)
		for k, v := range pu.quality {
			same = same && pt.quality[k] == v
		}
		res.check(same, "model_error %.6f %%, retrains %v and linreg MSE identical untraced vs traced",
			pu.quality["model_error_pct"], pu.quality["retrains"])
	}
	daemonLayers(res, w.s, pu, pt)
	sum, count, err := w.handlerDirect()
	if err != nil {
		return err
	}
	direct := func(kinds ...opKind) float64 {
		var s, n float64
		for _, k := range kinds {
			s, n = s+sum[k], n+count[k]
		}
		return ratioOrZero(s, n)
	}
	res.set("server.handler_ingest_us_mean", "us", direct(opIngest))
	res.set("server.predict_handler_us_mean", "us", direct(opPredict))
	res.set("server.sample_handler_us_mean", "us", direct(opSample))

	// tbsd traces POST …/items and POST …/advance as one kind, "ingest",
	// so the reconciliation covers both request kinds.
	nIng, nBnd, nSmp := len(pt.lat[opIngest]), len(pt.lat[opBoundary]), len(pt.lat[opSample])
	client := 1000 * (summarize(pt.lat[opIngest]).Mean*float64(nIng) +
		summarize(pt.lat[opBoundary]).Mean*float64(nBnd)) / float64(nIng+nBnd)
	transport := client - direct(opIngest, opBoundary)
	res.set("server.transport_us_mean", "us", transport)
	var stages float64
	for _, st := range []string{"parse", "engine_enqueue", "shard_apply", "wal_append", "fsync_wait", "ack"} {
		stages += perTrace(pt, "ingest", st)
	}
	// A cold touch hydrates the stream before the ingest trace starts, in
	// a trace of its own. Posts and /sample reads pick keys from the same
	// uniform distribution, and a boundary follows a post to a resident
	// key, so the posts' share of the hydrate time is their share of
	// posts plus reads.
	if nIng+nSmp > 0 {
		hyd := delta(pt.before, pt.after, `tbsd_trace_duration_seconds_sum{kind="hydrate"}`) * 1e6
		stages += hyd * float64(nIng) / float64(nIng+nSmp) / float64(nIng+nBnd)
	}
	gap := 100 * (stages + transport - client) / client
	res.set("obs.reconcile_gap_pct", "%", gap)
	res.check(math.Abs(gap) <= reconcileTolerancePct,
		"reconciliation: Σ ingest-trace stage means %.1f us + transport %.1f us vs client mean %.1f us over posts and boundaries: gap %.1f %% (tolerance ±%d %%)",
		stages, transport, client, gap, reconcileTolerancePct)
	return microLayers(res, w.cfg.seed, w.root)
}

// perTrace is a stage's mean time per traced request of its kind
// (Δ stage _sum / Δ trace _count): chunked pipelines record a stage once
// per chunk, so dividing by the stage's own count would undercount what
// one request spends in it.
func perTrace(p *phase, kind, stage string) float64 {
	_, n := histMean(p.before, p.after, "tbsd_trace_duration_seconds", `{kind="`+kind+`"}`)
	if n == 0 {
		return 0
	}
	sum := delta(p.before, p.after, `tbsd_trace_stage_duration_seconds_sum{kind="`+kind+`",stage="`+stage+`"}`)
	return sum / n * 1e6
}

// daemonLayers derives the per-layer metrics the traced daemon exports.
func daemonLayers(res *result, s *spec, pu, pt *phase) {
	for _, m := range []struct{ name, kind, stage string }{
		{"wire.parse_us_mean", "ingest", "parse"},
		{"engine.enqueue_us_mean", "ingest", "engine_enqueue"},
		{"engine.shard_apply_us_mean", "ingest", "shard_apply"},
		{"wal.append_us_mean", "ingest", "wal_append"},
		{"wal.fsync_wait_us_mean", "ingest", "fsync_wait"},
		{"server.ack_us_mean", "ingest", "ack"},
		{"server.close_batch_us_mean", "boundary", "close_batch"},
		{"ml.score_us_mean", "boundary", "score"},
		{"manage.policy_us_mean", "boundary", "policy"},
		{"ml.retrain_us_mean", "boundary", "retrain"},
		{"server.swap_us_mean", "boundary", "swap"},
		{"server.read_ckpt_us_mean", "hydrate", "read_ckpt"},
		{"server.hydrate_restore_us_mean", "hydrate", "restore"},
		{"wal.tail_replay_us_mean", "hydrate", "replay"},
		{"server.install_us_mean", "hydrate", "install"},
	} {
		res.set(m.name, "us", perTrace(pt, m.kind, m.stage))
	}
	d := func(series string) float64 { return delta(pt.before, pt.after, series) }
	items := float64(pt.items)
	res.set("server.hydrations", "count", d("tbsd_hydrations_total"))
	res.set("server.hibernations", "count", d("tbsd_hibernations_total"))
	res.set("server.alloc_bytes_per_item", "B", d("go_gc_heap_allocs_bytes_total")/items)
	res.set("server.gc_cycles", "count", d("go_gc_cycles_total"))
	res.set("engine.backpressure", "count", d("tbsd_engine_backpressure_total"))
	recs, fsyncs := d("tbsd_wal_appended_records_total"), d("tbsd_wal_fsyncs_total")
	res.set("wal.records_per_fsync", "ratio", ratioOrZero(recs, fsyncs))
	res.set("wal.bytes_per_item", "B", d("tbsd_wal_appended_bytes_total")/items)
	res.set("ml.retrains", "count", pt.quality["retrains"])
	res.set("ml.model_error_pct", "%", pt.quality["model_error_pct"])

	// Tracing overhead: the traced run against the untraced one of the
	// same seed, on throughput where the writers are closed loop
	// (ingest-wal) and on read latency where the schedule fixes
	// throughput (predicts on serve-model, cold reads on cold-tier).
	if s.lanes[0].interval == 0 {
		rate := func(s segment) float64 { return float64(s.items) / s.ingestWall.Seconds() }
		res.set("obs.trace_overhead_pct", "%", 100*(pu.segMedian(rate)/pt.segMedian(rate)-1))
	} else {
		read := func(s segment) float64 { return s.read }
		res.set("obs.trace_overhead_pct", "%", 100*(pt.segMedian(read)/pu.segMedian(read)-1))
	}
	lag := summarize(pt.late)
	switch {
	case lag.N == 0:
		res.set("gen.lag_p99_ms", "ms", 0) // closed-loop lanes only: never late
	case math.IsNaN(lag.P99):
		res.set("gen.lag_p99_ms", "ms", lag.TopV)
	default:
		res.set("gen.lag_p99_ms", "ms", lag.P99)
	}
	res.set("gen.cpu_s", "s", pt.genCPU)
}

func ratioOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// handlerDirect replays the first quarter of every measured lane
// through an in-process server's handler (same options as the daemon,
// tracing off, no socket), one goroutine per lane on the lane's own
// schedule, after the same warm-up. It returns the handler time (µs) and
// the request count per kind.
func (w *workloadRun) handlerDirect() (sum, count [numOpKinds]float64, err error) {
	w.launches++
	dir := filepath.Join(w.root, fmt.Sprintf("data-%d", w.launches))
	if w.pristine != "" {
		if err := copyDir(w.pristine, dir); err != nil {
			return sum, count, err
		}
	}
	opts, err := serverOptions(w.s.daemon, dir)
	if err != nil {
		return sum, count, err
	}
	srv, err := server.New(opts)
	if err != nil {
		return sum, count, err
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Stop(ctx) // the replay's state is thrown away with its directory
	}()
	h := srv.Handler()
	for i := range w.s.warm {
		if _, err := serve(h, &w.s.warm[i]); err != nil {
			return sum, count, fmt.Errorf("handler-direct warm-up: %w", err)
		}
	}
	if w.s.daemon.maxResident > 0 {
		for srv.ResidentStreams() > w.s.daemon.maxResident {
			if _, err := srv.HibernatePass(); err != nil {
				return sum, count, err
			}
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for _, l := range w.s.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := func(i int) error {
				d, err := serve(h, &l.ops[i])
				mu.Lock()
				defer mu.Unlock()
				if err != nil && first == nil {
					first = err
				}
				sum[l.ops[i].kind] += float64(d) / 1e3
				count[l.ops[i].kind]++
				return err
			}
			n := len(l.ops) / 4
			if l.interval == 0 {
				for i := 0; i < n; i++ {
					_ = send(i) // recorded in first
				}
				return
			}
			openLoop(wallClock{}, start, l.interval, n, l.follows, send, func(int, time.Duration, time.Duration, error) {})
		}()
	}
	wg.Wait()
	if first != nil {
		return sum, count, fmt.Errorf("handler-direct: %w", first)
	}
	return sum, count, nil
}

// serve runs one op through the handler and times it.
func serve(h http.Handler, o *op) (time.Duration, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, "http://tbsd"+o.path, body)
	if err != nil {
		return 0, err
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code/100 != 2 {
		return d, fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, rec.Code, rec.Body.Bytes())
	}
	return d, nil
}

// serverOptions mirrors what tbsd builds from its defaults plus the
// workload's flags.
func serverOptions(c daemonCfg, dir string) (server.Options, error) {
	lambda, n, seed := 0.07, 1000, uint64(1)
	cfg, err := tbs.Config{Lambda: &lambda, MaxSize: &n, Seed: &seed}.RestrictedTo("rtbs")
	if err != nil {
		return server.Options{}, err
	}
	o := server.Options{Sampler: cfg, WALFsync: c.walFsync}
	if c.wal {
		o.CheckpointDir, o.WALDir = dir, filepath.Join(dir, "wal")
		o.MaxResident = c.maxResident
	}
	return o, nil
}

// span times fn over reps repetitions and returns the mean per call.
func span(reps int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(reps), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// microLayers times single layers in-process on inputs generated from the
// seed: the ingest-wal bodies for wire, WAL and core, and serve-model's
// sample sizes for ml.
func microLayers(res *result, seed uint64, root string) error {
	pool := newValuePool(xrand.New(seed), 32, walRows)
	rows := float64(len(pool.ndjson) * walRows)

	lr := wire.NewLineReader(0)
	var items [][]byte
	d, err := span(4, func() error {
		for _, b := range pool.ndjson {
			lr.Reset(bytes.NewReader(b))
			for {
				line, _, err := lr.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				if wire.Validate(line) != wire.Valid {
					return fmt.Errorf("wire: row %q not valid", line)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("wire.ndjson_ns_per_row", "ns", float64(d)/rows)

	br := wire.NewBinReader()
	d, err = span(4, func() error {
		for _, b := range pool.bin {
			br.Reset(bytes.NewReader(b))
			for {
				var err error
				items, _, err = wire.NextFrameItems(br, items[:0])
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("wire.bin_ns_per_row", "ns", float64(d)/rows)

	// One 4096-row chunk as the server journals it: NDJSON row bytes.
	chunk := bytes.Split(bytes.TrimSuffix(pool.ndjson[0], []byte("\n")), []byte("\n"))
	if err := walLayers(res, filepath.Join(root, "wal-micro"), chunk); err != nil {
		return err
	}

	eng, err := engine.New(16, 128)
	if err != nil {
		return err
	}
	d, err = span(2000, func() error {
		if err := eng.Submit("w0000", func() {}); err != nil {
			return err
		}
		eng.Flush("w0000")
		return nil
	})
	eng.Close()
	if err != nil {
		return err
	}
	res.set("engine.submit_flush_us", "us", us(d))

	if err := coreLayers(res, seed, pool); err != nil {
		return err
	}
	return mlLayers(res, seed)
}

func walLayers(res *result, dir string, chunk [][]byte) error {
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer l.Close()
	if err := l.Replay(func(wal.Record) error { return nil }); err != nil {
		return err
	}
	var lsn uint64
	d, err := span(200, func() (err error) {
		lsn, err = wal.AppendItems(l, "w0000", chunk)
		return err
	})
	if err != nil {
		return err
	}
	res.set("wal.append_us_per_chunk", "us", us(d))
	var syncs time.Duration
	for i := 0; i < 40; i++ {
		if lsn, err = wal.AppendItems(l, "w0000", chunk[:64]); err != nil {
			return err
		}
		t0 := time.Now()
		if err := l.Sync(lsn); err != nil {
			return err
		}
		syncs += time.Since(t0)
	}
	res.set("wal.sync_us", "us", us(syncs/40))
	return nil
}

func coreLayers(res *result, seed uint64, pool valuePool) error {
	var batch []server.Item // one ingest-wal batch: 8 posts of 4096 rows
	for _, b := range pool.ndjson[:walAdvanceEach] {
		for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
			batch = append(batch, server.Item(line))
		}
	}
	s, err := core.NewRTBS[server.Item](0.07, 1000, xrand.New(seed))
	if err != nil {
		return err
	}
	t := 1.0
	s.AdvanceAt(t, batch) // saturate
	d, err := span(50, func() error {
		t++
		s.AdvanceAt(t, batch)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("core.advance_us", "us", us(d))
	var dst []server.Item
	d, _ = span(500, func() error {
		dst = s.AppendSample(dst[:0])
		return nil
	})
	res.set("core.append_sample_us", "us", us(d))

	// Checkpoint envelope round trip of a saturated stream.
	ts, err := tbs.New[server.Item]("rtbs", tbs.Lambda(0.07), tbs.MaxSize(1000), tbs.Seed(seed))
	if err != nil {
		return err
	}
	ts.Advance(batch)
	var enc []byte
	d, err = span(50, func() error {
		snap, err := ts.Snapshot()
		if err != nil {
			return err
		}
		enc, err = json.Marshal(snap)
		return err
	})
	if err != nil {
		return err
	}
	res.set("tbs.snapshot_encode_us", "us", us(d))
	d, err = span(50, func() error {
		var snap tbs.Snapshot
		if err := json.Unmarshal(enc, &snap); err != nil {
			return err
		}
		_, err := tbs.Restore[server.Item](snap)
		return err
	})
	if err != nil {
		return err
	}
	res.set("tbs.snapshot_decode_us", "us", us(d))
	return nil
}

// mlLayers fits and queries each learner at serve-model's training-set
// size (the n = 1000 sample) on serve-model's generators.
func mlLayers(res *result, seed uint64) error {
	gens, err := newModelGens(seed)
	if err != nil {
		return err
	}
	train := func(g modelGen) ([][]float64, []float64) {
		var xs [][]float64
		var ys []float64
		for t := 1; len(xs) < 1000; t++ {
			x, y := g.batch(t)
			xs, ys = append(xs, x...), append(ys, y...)
		}
		return xs[:1000], ys[:1000]
	}
	xs, ys := train(gens[0])
	labels := make([]int, len(ys))
	for i, y := range ys {
		labels[i] = int(y)
	}
	knn, err := ml.NewKNN(7)
	if err != nil {
		return err
	}
	d, err := span(50, func() error { return knn.Fit(xs, labels) })
	if err != nil {
		return err
	}
	res.set("ml.knn_fit_us", "us", us(d))
	queries := make([][]float64, 1600)
	for i := range queries {
		queries[i] = gens[0].query()
	}
	d, _ = span(1, func() error {
		for _, q := range queries {
			knn.Predict(q)
		}
		return nil
	})
	res.set("ml.knn_predict_us_per_query", "us", us(d)/float64(len(queries)))

	xs, ys = train(gens[4])
	docs := make([][]int, len(xs))
	classes, vocab := 2, 1
	for i, x := range xs {
		for _, v := range x {
			docs[i] = append(docs[i], int(v))
			vocab = max(vocab, int(v)+1)
		}
		labels[i] = int(ys[i])
		classes = max(classes, labels[i]+1)
	}
	d, err = span(20, func() error {
		_, err := ml.FitNaiveBayes(docs, labels, classes, vocab, 1)
		return err
	})
	if err != nil {
		return err
	}
	res.set("ml.nb_fit_us", "us", us(d))

	xs, ys = train(gens[6])
	d, err = span(50, func() error {
		_, err := ml.FitOLS(xs, ys, true)
		return err
	})
	if err != nil {
		return err
	}
	res.set("ml.linreg_fit_us", "us", us(d))
	return nil
}
