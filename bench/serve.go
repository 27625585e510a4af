package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"tpascd/internal/obs"
	"tpascd/internal/route"
	"tpascd/internal/serve"
)

const (
	slices = 10 // the kept window is cut into this many
	// tracePeriod is how long a traced serving window records spans, and
	// then does not, in turn: the two kinds of period sample the same
	// minutes of the machine, so their difference is what recording costs.
	tracePeriod = 50 * time.Millisecond
	maxWarmup   = 2 * time.Second // dropped from the head of a serving window
	jsonCT      = "application/json"
	libsvmCT    = "text/plain"
	staleHdr    = "X-Tpascd-Stale"
	predictURL  = "/predict"
)

// loadResult is one closed-loop serving window.
type loadResult struct {
	win      window
	requests int
	waited   time.Duration // summed over clients: time blocked in requests
	elapsed  time.Duration // until the last client finished its last request
}

// load drives url with one closed-loop client per stream for the window:
// each client sends its next request when the previous answer has been
// read — the callers modelled are a front tier awaiting replies, and two
// connections are all a two-core box can keep busy. Every answer must be
// 200 and not served stale; the first checkedBodies answers of each stream
// are compared with the reference margins bit for bit. In a traced run
// every other tracePeriod records a span per request, which is how the
// cost of recording is measured.
func (e *env) load(url string, length time.Duration, layer string, parent int, ck *checks) loadResult {
	warm := min(maxWarmup, length/10)
	perClient := make([][]sample, len(e.corpus))
	waited := make([]time.Duration, len(e.corpus))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range e.corpus {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport}
			var buf bytes.Buffer
			stream := e.corpus[c]
			for i := 0; ; i++ {
				now := time.Since(start)
				if now >= length {
					return
				}
				traced := e.tr != nil && int(now/tracePeriod)%2 == 1
				if e.tr != nil {
					e.tr.on.Store(traced)
				}
				req := &stream[i%len(stream)]
				id := e.tr.start(parent, layer, "request")
				t := time.Now()
				err := post(client, url, req.body, &buf)
				lat := time.Since(t)
				e.tr.end(id)
				waited[c] += lat
				if !ck.ok(err == nil, "request %d of client %d: %v", i, c, err) {
					continue
				}
				if i < checkedBodies {
					err := checkMargins(buf.Bytes(), req.want)
					ck.ok(err == nil, "request %d of client %d: %v", i, c, err)
				}
				perClient[c] = append(perClient[c], sample{done: time.Since(start), lat: lat, rows: e.rg.rowsPerReq, traced: traced})
			}
		}(c)
	}
	wg.Wait()
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	res := loadResult{elapsed: time.Since(start)}
	var all []sample
	for c, s := range perClient {
		all = append(all, s...)
		res.waited += waited[c]
	}
	res.requests = len(all)
	res.win = cutWindow(all, warm, length, slices)
	return res
}

// post sends one request and reads the whole answer into buf. Anything
// but a fresh 200 is an error.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	resp, err := client.Post(url, jsonCT, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", resp.StatusCode, buf.Bytes())
	}
	if resp.Header.Get(staleHdr) != "" {
		return fmt.Errorf("answer served stale")
	}
	return nil
}

// frontLayer names the front tier's module.
func (e *env) frontLayer() string {
	if e.rg.shards > 0 {
		return "shard"
	}
	return "route"
}

// servePhase runs the closed-loop window against the front tier and turns
// it into the serving metrics.
func (e *env) servePhase(length time.Duration, parent int, m metrics, ck *checks) loadResult {
	id := e.tr.start(parent, "bench", "serve-front")
	e.tr.setPhase(id)
	res := e.load(e.fleet.url+predictURL, length, e.frontLayer(), id, ck)
	e.tr.end(id)

	w := res.win
	m["p50_ms"] = percentile(w.all, 0.50)
	m["p99_ms"] = w.slicePercentile(0.99)
	m["rows_per_s"] = w.sliceRowsPerSec()
	// The generator's own share of its clients' time: whatever was not
	// spent waiting for an answer went into picking, checking and
	// recording requests.
	m["gen.busy_frac"] = 1 - res.waited.Seconds()/(res.elapsed.Seconds()*float64(len(e.corpus)))
	if plain := percentile(w.plain, 0.50); e.tr != nil && plain > 0 {
		m["obs.trace_overhead_frac"] = percentile(w.traced, 0.50)/plain - 1
	}
	return res
}

// fleetMetrics reads what the serving layers counted about themselves
// during the front window: existing registries, read and not altered.
func (e *env) fleetMetrics(res loadResult, m metrics) {
	f := e.fleet
	var batches, rows, waitSum, waitN float64
	for _, r := range f.replicas {
		snap := r.srv.Metrics().Snapshot(nil)
		batches += float64(snap.Batches)
		rows += snap.AvgBatch * float64(snap.Batches)
		h := r.srv.Obs().Histogram("serve_queue_wait_seconds", obs.LatencyBuckets())
		waitSum += h.Sum()
		waitN += float64(h.Count())
	}
	if batches > 0 {
		m["serve.batch_fill"] = rows / batches
	}
	if waitN > 0 {
		m["serve.queue_wait_ms"] = waitSum / waitN * 1e3
	}

	// Attempt accounting of the route.Client(s) under the front tier: one
	// for the router, one per shard group for the aggregator.
	var clients []*route.Client
	if f.router != nil {
		clients = append(clients, f.router.Client)
	} else {
		for i := 0; i < e.rg.shards; i++ {
			clients = append(clients, f.agg.Group(i))
		}
	}
	var retries, hedges, sent float64
	var legMean []float64
	for _, c := range clients {
		retries += float64(c.Metrics().Retries())
		hedges += float64(c.Metrics().Hedges())
		sent += float64(c.Metrics().Requests())
		h := c.Obs().Histogram("route_attempt_latency_seconds", obs.LatencyBuckets())
		legMean = append(legMean, h.Sum()/float64(max(h.Count(), 1)))
	}
	// Probes and readiness checks do not pass through Client.Do, so every
	// counted request is one of the window's.
	if n := float64(res.requests); n > 0 {
		m["route.attempts_per_req"] = (sent + retries + hedges) / n
		m["route.hedges_per_req"] = hedges / n
		m["route.retries_per_req"] = retries / n
	}
	if f.agg != nil {
		var bodyBytes float64
		for _, r := range e.corpus[0] {
			bodyBytes += float64(len(r.body))
		}
		m["shard.bytes_out_per_req"] = float64(e.rg.shards) * bodyBytes / float64(len(e.corpus[0]))
		// The slowest of K legs sets the request's time: how much slower
		// than the typical leg is it, by mean attempt latency per group.
		if mid := median(legMean); mid > 0 {
			m["shard.leg_spread"] = sorted(legMean)[len(legMean)-1] / mid
		}
	}
}

// directPhase (traced runs) replays the same streams at one whole-model
// replica with no front tier: the base of the hop and fan-out ratios.
func (e *env) directPhase(length time.Duration, parent int, m metrics, ck *checks) {
	id := e.tr.start(parent, "bench", "serve-direct")
	e.tr.setPhase(id)
	res := e.load("http://"+e.fleet.direct.addr+predictURL, length, "serve", id, ck)
	e.tr.end(id)
	m["serve.direct_p50_ms"] = percentile(res.win.all, 0.50)
	m["serve.direct_rows_per_s"] = res.win.sliceRowsPerSec()
	if d := m["serve.direct_p50_ms"]; d > 0 {
		if e.fleet.router != nil {
			m["route.hop_ratio"] = m["p50_ms"] / d
		} else {
			m["shard.fanout_ratio"] = m["p50_ms"] / d
		}
	}
}

// keep receives results the timing loops compute, so the compiler cannot
// discard the loops.
var keep float64

// timeLoop calls fn over and over for about length and returns the mean
// time of one call. fn gets the iteration number.
func timeLoop(length time.Duration, fn func(i int)) time.Duration {
	start := time.Now()
	n := 0
	for time.Since(start) < length {
		for k := 0; k < 8; k++ {
			fn(n)
			n++
		}
	}
	return time.Since(start) / time.Duration(n)
}

// layerPhase (traced runs) times the serving path's stages one at a time,
// through public functions, on the workload's own request bodies: parse
// (both formats), margin, one batcher hop, the whole handler without a
// socket, and the front tiers' cache put and margin combination.
func (e *env) layerPhase(length time.Duration, parent int, m metrics) error {
	id := e.tr.start(parent, "bench", "serve-layers")
	defer e.tr.end(id)
	const stages = 7
	each := length / stages
	stream := e.corpus[0]
	rowsPer := float64(e.rg.rowsPerReq)
	stage := func(name string, fn func(i int)) time.Duration {
		sp := e.tr.start(id, "serve", name)
		defer e.tr.end(sp)
		return timeLoop(each, fn)
	}

	var failed error
	d := stage("ParseRows.json", func(i int) {
		if _, err := serve.ParseRows(jsonCT, bytes.NewReader(stream[i%len(stream)].body)); err != nil {
			failed = err
		}
	})
	m["serve.parse_json_us_per_row"] = float64(d) / 1e3 / rowsPer

	text := make([][]byte, min(len(stream), 512))
	for i := range text {
		var err error
		if text[i], err = libsvmBody(stream[i].body); err != nil {
			return err
		}
	}
	d = stage("ParseRows.libsvm", func(i int) {
		if _, err := serve.ParseRows(libsvmCT, bytes.NewReader(text[i%len(text)])); err != nil {
			failed = err
		}
	})
	m["serve.parse_libsvm_us_per_row"] = float64(d) / 1e3 / rowsPer

	rows, err := serve.ParseRows(jsonCT, bytes.NewReader(stream[0].body))
	if err != nil {
		return err
	}
	var nnz int
	for _, r := range rows {
		nnz += len(r.Indices)
	}
	model := e.fleet.model
	var sink float64
	d = stage("MarginParts", func(int) {
		for _, r := range rows {
			hi, lo := model.MarginParts(r.Indices, r.Values)
			sink += hi + lo
		}
	})
	m["serve.margin_ns_per_nnz"] = float64(d) / float64(nnz)

	direct := e.fleet.direct.srv
	ctx := context.Background()
	d = stage("Batcher.Predict", func(int) {
		if _, err := direct.Batcher().Predict(ctx, rows[0].Indices, rows[0].Values); err != nil {
			failed = err
		}
	})
	m["serve.batcher_hop_us"] = float64(d) / 1e3

	handler := direct.Handler()
	var answer []byte
	d = stage("Handler.ServeHTTP", func(i int) {
		req := httptest.NewRequest(http.MethodPost, predictURL, bytes.NewReader(stream[i%len(stream)].body))
		req.Header.Set("Content-Type", jsonCT)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			failed = fmt.Errorf("handler answered %d", rec.Code)
		}
		answer = rec.Body.Bytes()
	})
	m["serve.handler_ms"] = ms(d)

	cache := route.NewCache(1024, nil)
	sp := e.tr.start(id, "route", "Cache.Put")
	d = timeLoop(each, func(i int) {
		body := stream[i%len(stream)].body
		cache.Put(route.CacheKey(jsonCT, body), route.ResponseVersion(answer), answer)
	})
	e.tr.end(sp)
	m["route.cache_put_us"] = float64(d) / 1e3

	parts := make([]serve.MarginPart, max(e.rg.shards, 1))
	for i := range parts {
		parts[i] = serve.MarginPart{Hi: float64(i) + 0.25, Lo: 1e-17}
	}
	sp = e.tr.start(id, "shard", "CombineMargins")
	d = timeLoop(each, func(int) { sink += serve.CombineMargins(parts) })
	e.tr.end(sp)
	m["shard.combine_ns"] = float64(d)

	keep = sink
	return failed
}
