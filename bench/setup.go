package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tpascd/internal/checkpoint"
	"tpascd/internal/cluster"
	"tpascd/internal/coords"
	"tpascd/internal/datasets"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/obs"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/route"
	"tpascd/internal/serve"
	"tpascd/internal/shard"
	"tpascd/internal/sparse"
)

// env is everything set-up builds and the measured phases use.
type env struct {
	cfg config
	rg  *regime
	tr  *tracer

	// training
	problem *ridge.Problem
	loss    *ridge.Loss
	gap0    float64 // gap of the zero model, the reference of every target
	device  *gpusim.Device

	// distributed training: K=workers ranks over loopback TCP
	views      []*coords.View
	comms      []cluster.Comm
	clusterObs *obs.Registry // transport byte counters; traced runs only

	// serving
	fleet  *fleet
	corpus [][]request // one stream per client

	// how long set-up took: everything training needs (data, problem,
	// rank views and connections), and everything serving needs (a model,
	// its checkpoint and shards, the fleet up and ready, request streams)
	trainSetup, serveSetup time.Duration
	// layer timings taken during set-up (traced runs report them)
	layer map[string]float64
}

// request is one pre-generated /predict body. want holds the reference
// margins for the bodies whose answers are checked bit for bit.
type request struct {
	body []byte
	want []float64
}

// checkedBodies is how many bodies at the head of each client's stream
// have their answers compared with the in-process model.
const checkedBodies = 256

// replica is one serve.Server on a loopback listener.
type replica struct {
	srv  *serve.Server
	http *http.Server
	addr string
}

func (r *replica) close() {
	r.http.Close()
	r.srv.Close()
}

// fleet is the serving side of a workload: replicas, the front tier over
// them, and the whole model in process as the reference for margins.
type fleet struct {
	replicas []*replica
	router   *route.Router     // shards == 0
	agg      *shard.Aggregator // shards > 0
	front    *http.Server
	url      string       // POST target of the front tier
	direct   *replica     // whole-model replica with no front tier; traced runs only
	model    *serve.Model // unsharded reference
	ckpt     string       // whole-model checkpoint path
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.agg != nil {
		f.agg.Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
	if f.direct != nil {
		f.direct.close()
	}
}

func (e *env) close() {
	for _, c := range e.comms {
		c.Close()
	}
	e.fleet.close()
}

// timeLayer runs fn as a call into layer, records its span under parent
// and adds its wall time to the set-up layer timing key.
func (e *env) timeLayer(parent int, layer, name, key string, unit time.Duration, fn func() error) error {
	id := e.tr.start(parent, layer, name)
	t := time.Now()
	err := fn()
	e.layer[key] += float64(time.Since(t)) / float64(unit)
	e.tr.end(id)
	return err
}

// setup builds a workload. The training side: data, problem, and the
// distributed ranks' views and communicators. The serving side: a first
// model, its checkpoint (split when the workload is sharded), the fleet
// with listeners up and readiness probes green, and the request corpus with
// reference margins. setup_s times both; the traced run reports each.
func setup(cfg config, rg *regime, tr *tracer, parent int) (_ *env, err error) {
	e := &env{cfg: cfg, rg: rg, tr: tr, layer: map[string]float64{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	// Training data and problem.
	began := time.Now()
	var a *sparse.CSR
	var y []float32
	err = e.timeLayer(parent, "datasets", "generate", "datasets.gen_s", time.Second, func() error {
		a, y, err = rg.data(cfg.trainSeed("dataset"), cfg.scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.timeLayer(parent, "ridge", "NewProblem", "ridge.problem_build_s", time.Second, func() error {
		e.problem, err = ridge.NewProblem(a, y, regularisation(cfg.scale))
		return err
	})
	if err != nil {
		return nil, err
	}
	e.loss = ridge.NewLoss(e.problem, rg.form)
	e.gap0 = e.loss.Gap(make([]float32, e.loss.NumCoords()))
	e.device = gpusim.NewDevice(perfmodel.GPUM4000)
	if err = e.startRanks(parent); err != nil {
		return nil, err
	}
	e.trainSetup = time.Since(began)

	// A first model to serve: two sequential epochs. Serving cost does not
	// depend on how converged the weights are, only on their count.
	began = time.Now()
	weights, err := e.firstModel(parent)
	if err != nil {
		return nil, err
	}
	if err = e.startFleet(weights, parent); err != nil {
		return nil, err
	}
	if err = e.buildCorpus(parent); err != nil {
		return nil, err
	}
	e.serveSetup = time.Since(began)
	return e, nil
}

func (e *env) firstModel(parent int) ([]float32, error) {
	s, err := engine.NewSolver(e.loss, engine.DriverSpec{Name: engine.DriverSequential, Seed: e.cfg.trainSeed("first-model")})
	if err != nil {
		return nil, err
	}
	id := e.tr.start(parent, "engine", "first-model")
	s.RunEpoch()
	s.RunEpoch()
	e.tr.end(id)
	if e.rg.form == perfmodel.Dual {
		return e.problem.PrimalFromDual(s.SharedVector()), nil
	}
	return append([]float32(nil), s.Model()...), nil
}

// startReplica loads a checkpoint into a fresh registry and serves it on a
// loopback listener.
func (e *env) startReplica(ckpt string, parent int) (*replica, error) {
	reg := serve.NewRegistry()
	err := e.timeLayer(parent, "checkpoint", "LoadFile", "checkpoint.load_ms", time.Millisecond, func() error {
		_, err := reg.LoadFile(ckpt)
		return err
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(reg, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &replica{srv: srv, addr: ln.Addr().String(), http: &http.Server{Handler: e.spanHandler(srv.Handler())}}
	go r.http.Serve(ln)
	return r, nil
}

// spanHandler records one serve-layer span per /predict a replica
// handles, in traced runs. Replica handlers run on net/http's goroutines,
// so the spans hang under the current phase instead of the request that
// caused them.
func (e *env) spanHandler(h http.Handler) http.Handler {
	if e.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		id := e.tr.start(e.tr.currentPhase(), "serve", "handler")
		h.ServeHTTP(w, r)
		e.tr.end(id)
	})
}

func (e *env) startFleet(weights []float32, parent int) error {
	dir := filepath.Join(e.cfg.outDir, e.rg.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := &fleet{ckpt: filepath.Join(dir, "model.ckpt")}
	e.fleet = f
	err := e.timeLayer(parent, "checkpoint", "SaveFile", "checkpoint.save_ms", time.Millisecond, func() error {
		return checkpoint.SaveFile(f.ckpt, checkpoint.Checkpoint{Kind: serve.KindRidge, Dim: len(weights), Vectors: [][]float32{weights}})
	})
	if err != nil {
		return err
	}
	if f.model, err = serve.LoadModelFile(f.ckpt); err != nil {
		return err
	}

	var handler http.Handler
	if e.rg.shards == 0 {
		var addrs []string
		for i := 0; i < workers; i++ {
			r, err := e.startReplica(f.ckpt, parent)
			if err != nil {
				return err
			}
			f.replicas = append(f.replicas, r)
			addrs = append(addrs, r.addr)
		}
		// Defaults throughout, hedging on: the workload measures the
		// router as predrouter ships it.
		f.router, err = route.New(route.Config{Replicas: addrs, Seed: subSeed(e.cfg.seed, "router")})
		if err != nil {
			return err
		}
		handler = f.router.Handler()
	} else {
		var man shard.Manifest
		err := e.timeLayer(parent, "checkpoint", "SplitFile", "checkpoint.split_ms", time.Millisecond, func() error {
			man, err = shard.SplitCheckpoint(f.ckpt, dir, e.rg.shards)
			return err
		})
		if err != nil {
			return err
		}
		groups := make([][]string, e.rg.shards)
		for i := range groups {
			r, err := e.startReplica(filepath.Join(dir, man.Files[i]), parent)
			if err != nil {
				return err
			}
			f.replicas = append(f.replicas, r)
			groups[i] = []string{r.addr}
		}
		f.agg, err = shard.NewAggregator(shard.AggregatorConfig{Manifest: man, Groups: groups, Seed: subSeed(e.cfg.seed, "router")})
		if err != nil {
			return err
		}
		handler = f.agg.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.front = &http.Server{Handler: handler}
	go f.front.Serve(ln)
	f.url = "http://" + ln.Addr().String()

	if e.cfg.trace {
		if f.direct, err = e.startReplica(f.ckpt, parent); err != nil {
			return err
		}
	}

	// Readiness: every replica and the front tier answer /readyz 200.
	targets := []string{f.url}
	for _, r := range f.replicas {
		targets = append(targets, "http://"+r.addr)
	}
	for _, t := range targets {
		if err := waitReady(t + "/readyz"); err != nil {
			return err
		}
	}
	return nil
}

func waitReady(url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// buildCorpus generates each client's request stream from the seed: rows
// with the popularity skew of the training data over the model's feature
// space, encoded as the JSON bodies /predict takes. The streams are longer
// than the front tiers' answer caches (1024 entries), so every request
// takes the cache's insert-and-evict path, as distinct production traffic
// would.
func (e *env) buildCorpus(parent int) error {
	dim := e.fleet.model.Dim()
	shape := datasets.WebspamConfig{M: dim, AvgNNZPerRow: min(rowNNZ, dim), Skew: 1.0}
	n := scaled(e.rg.corpus, e.cfg.scale, checkedBodies)
	e.corpus = make([][]request, workers)
	return e.timeLayer(parent, "datasets", "corpus", "datasets.gen_s", time.Second, func() error {
		for c := range e.corpus {
			sampler, err := datasets.NewRowSampler(shape, subSeed(e.cfg.seed, "corpus-"+strconv.Itoa(c)))
			if err != nil {
				return err
			}
			e.corpus[c] = make([]request, n)
			for i := range e.corpus[c] {
				rows := make([]serve.Instance, e.rg.rowsPerReq)
				for r := range rows {
					idx, val := sampler.Next()
					rows[r] = serve.Instance{Indices: append([]int32(nil), idx...), Values: append([]float32(nil), val...)}
				}
				req := &e.corpus[c][i]
				if req.body, err = encodeRows(rows); err != nil {
					return err
				}
				if i < checkedBodies {
					for _, r := range rows {
						req.want = append(req.want, e.fleet.model.Margin(r.Indices, r.Values))
					}
				}
			}
		}
		return nil
	})
}

// encodeRows renders rows as a /predict JSON body: the bare instance for
// one row, {"instances": [...]} otherwise.
func encodeRows(rows []serve.Instance) ([]byte, error) {
	if len(rows) == 1 {
		return json.Marshal(rows[0])
	}
	return json.Marshal(map[string][]serve.Instance{"instances": rows})
}

// libsvmBody renders the rows of a JSON body as LIBSVM feature lines, the
// other format /predict takes, for the parse-cost comparison.
func libsvmBody(jsonBody []byte) ([]byte, error) {
	rows, err := serve.ParseRows("application/json", bytes.NewReader(jsonBody))
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	for _, r := range rows {
		for k, j := range r.Indices {
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(j) + 1))
			b.WriteByte(':')
			b.WriteString(strconv.FormatFloat(float64(r.Values[k]), 'g', -1, 32))
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// startRanks partitions the coordinates at random across the ranks, cuts
// each rank's view, and connects the ranks over loopback TCP: rank 0
// listens, the others dial.
func (e *env) startRanks(parent int) error {
	id := e.tr.start(parent, "dist", "partition+views")
	parts := dist.PartitionRandom(e.loss.NumCoords(), workers, e.cfg.trainSeed("partition"))
	e.views = make([]*coords.View, workers)
	for r := range e.views {
		e.views[r] = coords.Subset(e.problem, e.rg.form, parts[r])
	}
	e.tr.end(id)

	id = e.tr.start(parent, "cluster", "listen+dial")
	defer e.tr.end(id)
	ccfg := cluster.DefaultConfig()
	if e.cfg.trace {
		e.clusterObs = obs.NewRegistry()
		ccfg.Obs = e.clusterObs
	}
	var err error
	e.comms, err = dialGroup(workers, ccfg)
	return err
}

// dialGroup assembles a k-rank TCP group on loopback.
func dialGroup(k int, ccfg cluster.Config) ([]cluster.Comm, error) {
	master, addr, err := cluster.ListenTCPConfig("127.0.0.1:0", k, ccfg)
	if err != nil {
		return nil, err
	}
	comms := []cluster.Comm{master}
	for r := 1; r < k; r++ {
		c, err := cluster.DialTCPConfig(addr, r, k, ccfg)
		if err != nil {
			for _, c := range comms {
				c.Close()
			}
			return nil, err
		}
		comms = append(comms, c)
	}
	return comms, nil
}
