package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// opKind classifies a request by the end-to-end latency it feeds.
type opKind uint8

const (
	opIngest   opKind = iota // POST …/items
	opBoundary               // POST …/advance
	opPredict                // POST …/model/predict
	opSample                 // GET …/sample
	numOpKinds
)

var opNames = [numOpKinds]string{"ingest", "boundary", "predict", "sample"}

// op is one pre-built request. Bodies are shared between ops (a seeded
// pool), so a long run costs no memory per request.
type op struct {
	kind   opKind
	method string
	path   string
	ctype  string
	body   []byte
	key    string
	items  int // rows the body carries (ingest only)
}

// lane is the request sequence one connection sends. interval 0 is a
// closed loop (next request when the previous one answers); otherwise
// the k-th scheduled request is due interval*k after the measured phase
// starts (see openLoop).
type lane struct {
	ops      []op
	interval time.Duration
}

// follows reports whether op i goes out as soon as the op before it
// answers instead of taking a slot of the schedule: a boundary closes
// the batch of the post before it.
func (l lane) follows(i int) bool { return l.ops[i].kind == opBoundary }

// spread sets an open-loop interval that spreads the lane's scheduled
// requests evenly over the given seconds.
func (l *lane) spread(seconds int) {
	n := 0
	for i := range l.ops {
		if !l.follows(i) {
			n++
		}
	}
	l.interval = time.Duration(seconds) * time.Second / time.Duration(n)
}

// spec is one workload, fully generated from the seed before any clock
// starts: the tbsd flags that define it, the warm-up requests that are
// part of set-up, and the measured lanes.
type spec struct {
	name   string
	daemon daemonCfg
	// prepared, when set, builds the data directory every launch starts
	// from (cold-tier); it runs once per benchmark run and is not timed.
	prepared func(bin, dir string) error
	warm     []op
	lanes    []lane
	// base is the per-key ingested count the prepared directory already
	// holds before the warm-up.
	base map[string]int64
	// models names the streams with an attached model, for the quality
	// read-back after the measured phase.
	models []modelStream
}

// daemonCfg is the part of tbsd's configuration that defines a
// workload; everything else stays at the daemon's defaults.
type daemonCfg struct {
	wal         bool   // -wal with -checkpoint-dir
	walFsync    string // -wal-fsync; empty keeps the default, group
	maxResident int
}

// args renders the configuration as tbsd flags for a data directory.
func (c daemonCfg) args(dir string) []string {
	if !c.wal {
		return nil
	}
	a := []string{"-checkpoint-dir", dir, "-wal"}
	if c.walFsync != "" {
		a = append(a, "-wal-fsync", c.walFsync)
	}
	if c.maxResident > 0 {
		a = append(a, "-max-resident", strconv.Itoa(c.maxResident))
	}
	return a
}

type modelStream struct {
	key        string
	classifier bool
}

const (
	ndjsonType = "application/x-ndjson"
	jsonType   = "application/json"
)

func ingestOp(key, ctype string, body []byte, items int) op {
	return op{kind: opIngest, method: "POST", path: "/v1/streams/" + key + "/items",
		ctype: ctype, body: body, key: key, items: items}
}

func advanceOp(key string) op {
	return op{kind: opBoundary, method: "POST", path: "/v1/streams/" + key + "/advance", key: key}
}

func sampleOp(key string) op {
	return op{kind: opSample, method: "GET", path: "/v1/streams/" + key + "/sample", key: key}
}

func predictOp(key string, body []byte) op {
	return op{kind: opPredict, method: "POST", path: "/v1/streams/" + key + "/model/predict",
		ctype: jsonType, body: body, key: key}
}

// valueRows draws rows canonical {"v":N} values with up to three
// decimals, the shape the NDJSON fast path and x-tbs-bin both carry.
func valueRows(rng *xrand.RNG, rows int) []float64 {
	v := make([]float64, rows)
	for i := range v {
		v[i] = float64(rng.Intn(10_000_000)) / 1000
	}
	return v
}

func ndjsonBody(vals []float64) []byte {
	b := make([]byte, 0, len(vals)*16)
	for _, v := range vals {
		b = append(b, `{"v":`...)
		b = wire.AppendFloat(b, v)
		b = append(b, "}\n"...)
	}
	return b
}

func binBody(vals []float64) []byte {
	rows := make([][]float64, len(vals))
	for i := range vals {
		rows[i] = vals[i : i+1]
	}
	return wire.AppendFrame(nil, rows)
}

// valuePool is a seeded pool of ingest bodies, each in both encodings.
type valuePool struct {
	ndjson, bin [][]byte
}

func newValuePool(rng *xrand.RNG, bodies, rows int) valuePool {
	var p valuePool
	for i := 0; i < bodies; i++ {
		v := valueRows(rng, rows)
		p.ndjson = append(p.ndjson, ndjsonBody(v))
		p.bin = append(p.bin, binBody(v))
	}
	return p
}

// shuffled returns a seeded permutation of keys (Fisher–Yates).
func shuffled(rng *xrand.RNG, keys []string) []string {
	out := append([]string(nil), keys...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func keyName(prefix string, i int) string { return fmt.Sprintf("%s%04d", prefix, i) }

// Workload sizes. Every run does a fixed amount of work that depends only
// on --seconds, never on how fast the host is, so two runs of one seed
// send the same requests.
const (
	walKeys        = 256
	walRows        = 4096 // rows per ingest-wal post
	walPostsPerSec = 1500 // ingest-wal posts per --second of work
	walAdvanceEach = 8    // a key closes its batch after every 8th post to it

	modelStepEvery = 80 * time.Millisecond // serve-model write step period
	modelBatchRows = 200
	modelWarmSteps = 20
	modelReadRate  = 200 // serve-model reads per second (9 predict : 1 sample)
	predictQueries = 16

	coldKeys        = 1024
	coldResident    = 128
	coldRows        = 64
	coldPostsPerSec = 24 // cold-tier posts per second
	coldReadRate    = 24 // cold-tier /sample reads per second
	coldPrepRows    = 1500
)

// ingestWAL: two closed-loop connections post 4096-row bodies to uniform
// random keys, alternating NDJSON and x-tbs-bin encodings of the same
// rows; every 8th post to a key closes its batch and reads its sample.
// Keys come in shuffled rounds over all 256 streams, so every seed gives
// each stream the same number of posts and boundaries.
func ingestWAL(seed uint64, seconds int) *spec {
	rng := xrand.New(seed)
	pool := newValuePool(rng, 32, walRows)
	keys := make([]string, walKeys)
	for i := range keys {
		keys[i] = keyName("w", i)
	}
	s := &spec{
		name: "ingest-wal",
		// The default -checkpoint-interval (30s) lets no pass land in the
		// measured phase: a pass every 2s halved throughput and made CPU
		// grow with wall time.
		daemon: daemonCfg{wal: true},
	}
	for i, k := range keys { // saturate every stream (n = 1000) before the clock
		s.warm = append(s.warm, ingestOp(k, ndjsonType, pool.ndjson[i%len(pool.ndjson)], walRows), advanceOp(k))
	}
	s.lanes = make([]lane, 2)
	posts := make(map[string]int, walKeys)
	order := make([]string, 0, walPostsPerSec*seconds+walKeys)
	for len(order) < walPostsPerSec*seconds {
		order = append(order, shuffled(rng, keys)...)
	}
	for j, k := range order[:walPostsPerSec*seconds] {
		l := &s.lanes[j%2]
		b := rng.Intn(len(pool.ndjson))
		if j/2%2 == 0 {
			l.ops = append(l.ops, ingestOp(k, ndjsonType, pool.ndjson[b], walRows))
		} else {
			l.ops = append(l.ops, ingestOp(k, wire.BinContentType, pool.bin[b], walRows))
		}
		if posts[k]++; posts[k]%walAdvanceEach == 0 {
			l.ops = append(l.ops, advanceOp(k), sampleOp(k))
		}
	}
	return s
}

// labeledJSON renders rows as a buffered-JSON array of {"x":[…],"y":N}.
func labeledJSON(xs [][]float64, ys []float64) []byte {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":[`...)
		for j, v := range x {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'f', -1, 64)
		}
		b = append(b, `],"y":`...)
		b = strconv.AppendFloat(b, ys[i], 'f', -1, 64)
		b = append(b, '}')
	}
	return append(b, ']')
}

// queryJSON renders predict queries as a bulk [{"x":[…]},…] body.
func queryJSON(xs [][]float64) []byte {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":[`...)
		for j, v := range x {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'f', -1, 64)
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// modelGen draws one model stream's labeled batches and predict queries.
type modelGen struct {
	stream modelStream
	spec   string // PUT …/model body
	batch  func(t int) ([][]float64, []float64)
	query  func() []float64
}

func newModelGens(seed uint64) ([]modelGen, error) {
	var gens []modelGen
	for i := 0; i < 4; i++ { // kNN over a Periodic(10,10) GMM drift stream
		rng := xrand.New(seed ^ uint64(0x6a09e667+i))
		qrng := xrand.New(seed ^ uint64(0xbb67ae85+i))
		g, err := datagen.NewGMM(datagen.GMMConfig{Schedule: datagen.Periodic{Delta: 10, Eta: 10}}, rng)
		if err != nil {
			return nil, err
		}
		policy := "always"
		if i >= 2 {
			policy = "drift"
		}
		qg, err := datagen.NewGMM(datagen.GMMConfig{}, qrng)
		if err != nil {
			return nil, err
		}
		qg.Centroids = g.Centroids
		gens = append(gens, modelGen{
			stream: modelStream{key: keyName("knn-"+policy+"-", i), classifier: true},
			spec:   `{"learner":"knn","policy":"` + policy + `"}`,
			batch: func(t int) ([][]float64, []float64) {
				pts := g.Batch(t, modelBatchRows)
				xs, ys := make([][]float64, len(pts)), make([]float64, len(pts))
				for j, p := range pts {
					xs[j], ys[j] = []float64{p.X[0], p.X[1]}, float64(p.Class)
				}
				return xs, ys
			},
			query: func() []float64 { p := qg.Batch(1, 1)[0]; return []float64{p.X[0], p.X[1]} },
		})
	}
	for i := 0; i < 2; i++ { // Naive Bayes over the text stream
		g, err := datagen.NewText(datagen.TextConfig{}, xrand.New(seed^uint64(0x3c6ef372+i)))
		if err != nil {
			return nil, err
		}
		qg, err := datagen.NewText(datagen.TextConfig{}, xrand.New(seed^uint64(0xa54ff53a+i)))
		if err != nil {
			return nil, err
		}
		gens = append(gens, modelGen{
			stream: modelStream{key: keyName("nb-", i), classifier: true},
			spec:   `{"learner":"nb","policy":"every:5"}`,
			batch: func(t int) ([][]float64, []float64) {
				docs := g.Batch(t, modelBatchRows)
				xs, ys := make([][]float64, len(docs)), make([]float64, len(docs))
				for j, d := range docs {
					xs[j], ys[j] = words(d.Words), float64(d.Label)
				}
				return xs, ys
			},
			query: func() []float64 { return words(qg.Batch(1, 1)[0].Words) },
		})
	}
	for i := 0; i < 2; i++ { // linear regression with drift
		cfg := datagen.RegressionConfig{Schedule: datagen.Periodic{Delta: 10, Eta: 10}}
		g, err := datagen.NewRegression(cfg, xrand.New(seed^uint64(0x510e527f+i)))
		if err != nil {
			return nil, err
		}
		qrng := xrand.New(seed ^ uint64(0x9b05688c+i))
		gens = append(gens, modelGen{
			stream: modelStream{key: keyName("linreg-", i)},
			spec:   `{"learner":"linreg","policy":"drift"}`,
			batch: func(t int) ([][]float64, []float64) {
				obs := g.Batch(t, modelBatchRows)
				xs, ys := make([][]float64, len(obs)), make([]float64, len(obs))
				for j, o := range obs {
					xs[j], ys[j] = []float64{o.X[0], o.X[1]}, o.Y
				}
				return xs, ys
			},
			query: func() []float64 { return []float64{qrng.Float64(), qrng.Float64()} },
		})
	}
	return gens, nil
}

func words(ids []int) []float64 {
	x := make([]float64, len(ids))
	for i, w := range ids {
		x[i] = float64(w)
	}
	if len(x) == 0 {
		x = append(x, 0) // an empty document still needs one feature
	}
	return x
}

// serveModel: a writer lane steps 8 model streams plus 2 plain streams
// (200-row labeled batch, then /advance) every 80 ms; a reader lane sends
// 16-query predicts and /sample reads 9:1 at 200/s. Sample reads go to
// the plain streams: realizing an R-TBS sample consumes RNG draws, so a
// read on a model stream would make its next training set depend on
// timing and model_error would stop being a function of the seed.
func serveModel(seed uint64, seconds int) (*spec, error) {
	gens, err := newModelGens(seed)
	if err != nil {
		return nil, err
	}
	s := &spec{name: "serve-model"}
	plain := []string{"plain-0000", "plain-0001"}
	for _, g := range gens {
		s.models = append(s.models, g.stream)
		s.warm = append(s.warm, op{method: "PUT", path: "/v1/streams/" + g.stream.key + "/model",
			ctype: jsonType, body: []byte(g.spec), key: g.stream.key})
	}
	step := func(t int) []op {
		var ops []op
		for i, g := range gens {
			xs, ys := g.batch(t)
			body := labeledJSON(xs, ys)
			ops = append(ops, ingestOp(g.stream.key, jsonType, body, len(xs)), advanceOp(g.stream.key))
			if i < len(plain) { // the plain streams carry the kNN rows
				ops = append(ops, ingestOp(plain[i], jsonType, body, len(xs)), advanceOp(plain[i]))
			}
		}
		return ops
	}
	for t := 1; t <= modelWarmSteps; t++ {
		s.warm = append(s.warm, step(t)...)
	}
	steps := int(time.Duration(seconds) * time.Second / modelStepEvery)
	w := lane{}
	for t := modelWarmSteps + 1; t <= modelWarmSteps+steps; t++ {
		w.ops = append(w.ops, step(t)...)
	}
	w.spread(seconds)

	rng := xrand.New(seed ^ 0x1f83d9ab)
	r := lane{interval: time.Second / modelReadRate}
	pool := make([][]byte, 0, 64)
	owner := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		g := gens[i%len(gens)]
		qs := make([][]float64, predictQueries)
		for j := range qs {
			qs[j] = g.query()
		}
		pool, owner = append(pool, queryJSON(qs)), append(owner, g.stream.key)
	}
	for i := 0; i < modelReadRate*seconds; i++ {
		if i%10 == 9 {
			r.ops = append(r.ops, sampleOp(plain[rng.Intn(len(plain))]))
			continue
		}
		q := rng.Intn(len(pool))
		r.ops = append(r.ops, predictOp(owner[q], pool[q]))
	}
	s.lanes = []lane{w, r}
	return s, nil
}

// coldTier: 1024 streams restored from a prepared directory with only
// 128 resident. One connection posts 64-row NDJSON bodies to uniform
// random keys at 24/s (so most posts hydrate one stream and evict
// another, whose checkpoint the eviction writes), each followed by
// /advance of the posted key; the other reads /sample of random keys at
// 24/s. Both are open loop at about a third of what one connection can
// carry: a closed-loop writer saturated the two cores and its throughput
// moved by a sixth between seeds, and at higher rates the eviction
// fsyncs queued the boundaries' WAL fsyncs.
func coldTier(seed uint64, seconds int) *spec {
	rng := xrand.New(seed)
	pool := newValuePool(rng, 64, coldRows)
	prepPool := newValuePool(rng, 8, coldPrepRows)
	keys := make([]string, coldKeys)
	for i := range keys {
		keys[i] = keyName("c", i)
	}
	s := &spec{
		name: "cold-tier",
		// The tier's cost is CPU: checkpoint decode, hydrate and WAL tail
		// replay. -wal-fsync off keeps disk waits out of it (fsync on
		// tmpfs is as free), since the data directory has to live in the
		// checkout; WAL fsync under load is ingest-wal's job. Eviction
		// still fsyncs each checkpoint file it writes.
		daemon: daemonCfg{wal: true, walFsync: "off", maxResident: coldResident},
		base:   make(map[string]int64, coldKeys),
	}
	var prepSnap, prepTail []op
	for i, k := range keys {
		prepSnap = append(prepSnap, ingestOp(k, ndjsonType, prepPool.ndjson[i%len(prepPool.ndjson)], coldPrepRows), advanceOp(k))
		prepTail = append(prepTail, ingestOp(k, ndjsonType, pool.ndjson[i%len(pool.ndjson)], coldRows))
		s.base[k] = coldPrepRows + coldRows
	}
	s.prepared = func(bin, dir string) error { return prepareCold(bin, dir, prepSnap, prepTail) }

	w := lane{}
	for j := 0; j < coldPostsPerSec*seconds; j++ {
		k := keys[rng.Intn(coldKeys)]
		w.ops = append(w.ops, ingestOp(k, ndjsonType, pool.ndjson[rng.Intn(len(pool.ndjson))], coldRows), advanceOp(k))
	}
	r := lane{interval: time.Second / coldReadRate}
	for i := 0; i < coldReadRate*seconds; i++ {
		r.ops = append(r.ops, sampleOp(keys[rng.Intn(coldKeys)]))
	}
	w.spread(seconds)
	s.lanes = []lane{w, r}
	return s
}

// prepareCold builds cold-tier's starting directory with the code under
// test: every stream saturated and checkpointed by a graceful shutdown,
// then a WAL tail of one more post per stream left by a kill -9.
func prepareCold(bin, dir string, snap, tail []op) error {
	d, err := launch(bin, "-checkpoint-dir", dir, "-wal", "-checkpoint-interval", "1h", "-trace-ring", "0")
	if err != nil {
		return err
	}
	if _, err := sendAll(d, snap, 2); err != nil {
		d.kill()
		return fmt.Errorf("cold-tier prepare: %w", err)
	}
	if err := d.stop(60 * time.Second); err != nil {
		return fmt.Errorf("cold-tier prepare: %w", err)
	}
	d, err = launch(bin, "-checkpoint-dir", dir, "-wal", "-checkpoint-interval", "1h", "-trace-ring", "0")
	if err != nil {
		return err
	}
	defer d.kill()
	if _, err := sendAll(d, tail, 2); err != nil {
		return fmt.Errorf("cold-tier prepare tail: %w", err)
	}
	return nil
}
