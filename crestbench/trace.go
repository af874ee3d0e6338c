package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/server"
	"github.com/crestlab/crest/internal/stats"
)

// The traced run records spans from this package around calls into each
// layer; the program itself carries no tracing. Spans run between timed
// rounds, on the inputs the round just sent, so they never sit inside a
// timed op. NOTES.md lists each metric with the end-to-end metric and
// workload it should move.

// entropyBins is the predictors' buffer-level histogram resolution
// (predictors.ebBins at the default configuration).
const entropyBins = 1024

// probeOps caps the traced ops that also run the costlier standalone
// probes (stream featurizer, probe server/engine, compressor table).
const probeOps = 8

// tracer collects span samples by metric name, in the unit the name's
// suffix gives (_s, _ms or _us). A nil tracer records nothing.
type tracer struct {
	spans map[string][]float64
}

func newTracer() *tracer { return &tracer{spans: map[string][]float64{}} }

// start opens a span; calling the returned func closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.add(name, time.Since(t0)) }
}

func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans[name] = append(t.spans[name], inUnit(name, d))
}

// unitOf is the unit a span metric's name suffix names: _us, _ms or _s.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	default:
		return "s"
	}
}

// inUnit converts a duration to the unit of a span metric.
func inUnit(name string, d time.Duration) float64 {
	switch unitOf(name) {
	case "us":
		return float64(d.Nanoseconds()) / 1e3
	case "ms":
		return msOf(d)
	default:
		return d.Seconds()
	}
}

func (t *tracer) p50(name string) float64 { return percentile(t.spans[name], 0.5) }

// percentile is the nearest-rank percentile (⌈p·n⌉-th smallest).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// probe is a second engine and server over the run's model, used on
// workloads whose own path bypasses a layer (the library workload sends
// no HTTP; the stream path skips the batch engine and feature cache).
// It has its own feature cache and metrics registry, so it leaves the
// measured environment untouched.
type probe struct {
	eng *batch.Engine
	srv *server.Server
	h   http.Handler
}

func newProbe(est *core.Estimator) (*probe, error) {
	eng := batch.New(est, nil, 0)
	srv, err := server.New(server.Config{Engine: eng, Obs: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	return &probe{eng: eng, srv: srv, h: srv.Handler()}, nil
}

// opTracer holds the per-run state of the traced spans.
type opTracer struct {
	tr     *tracer
	wl     *workload
	est    *core.Estimator
	probe  *probe
	k64    kernelScratch[float64]
	k32    kernelScratch[float32]
	traced int // ops traced so far

	compPairs int                      // pairs in the compressor table
	compCPU   map[string]time.Duration // CPU per compressor over compPairs
}

// traceOp records every per-op span for one op of the traced phase.
func (ot *opTracer) traceOp(in *opInput) error {
	tr := ot.tr
	ot.traced++
	wide, _ := in.pair(0)

	// server: strict decode of the op's first buffer as a JSON
	// EstimateRequest, and encode of the matching response.
	body, err := json.Marshal(server.EstimateRequest{Rows: wide.Rows, Cols: wide.Cols, Data: wide.Data, Eps: in.eps[0]})
	if err != nil {
		return err
	}
	var req server.EstimateRequest
	stop := tr.start("server.decode_ms")
	err = strictDecode(body, &req)
	stop()
	if err != nil {
		return err
	}
	var resp any = server.EstimateResponse{CR: 1, Lo: 1, Hi: 1}
	if in.bufs32 != nil {
		sr := server.StreamResponse{}
		for t := range in.bufs32 {
			sr.Slices = append(sr.Slices, server.SliceEstimate{Step: t, CR: 1, Lo: 1, Hi: 1})
		}
		resp = sr
	}
	stop = tr.start("server.encode_us")
	err = json.NewEncoder(io.Discard).Encode(resp)
	stop()
	if err != nil {
		return err
	}

	// grid: build and validate each buffer as the server does.
	if in.bufs32 != nil {
		for _, b := range in.bufs32 {
			stop := tr.start("grid.validate_ms")
			g, err := grid.FromSlice32(b.Rows, b.Cols, b.Data)
			if err == nil {
				err = g.Validate(grid.DefaultValidation)
			}
			stop()
			if err != nil {
				return err
			}
		}
	} else {
		stop := tr.start("grid.validate_ms")
		g, err := grid.FromSlice(req.Rows, req.Cols, req.Data)
		if err == nil {
			err = g.Validate(grid.DefaultValidation)
		}
		stop()
		if err != nil {
			return err
		}
	}

	// grid + predictors: one slice through the chunk reader, then through
	// the stream featurizer of the op's precision.
	stream := in.body
	if in.bufs32 == nil {
		var enc bytes.Buffer
		if err := grid.EncodeBuffer(&enc, in.bufs[0], grid.DTypeF64, chunkRows); err != nil {
			return err
		}
		stream = enc.Bytes()
	}
	if err := ot.traceStream(stream, in.eps[0]); err != nil {
		return err
	}

	// linalg and stats on the op's own block-matrix and buffer shapes.
	k := ot.est.PredictorConfig().K
	if k <= 0 {
		k = 8
	}
	gm, gsd := stats.MeanStd(wide.Data)
	if in.bufs32 != nil {
		ot.k32.run(tr, in.bufs32[0].Data, wide.Rows, wide.Cols, k, gm, gsd)
		seg := [][]float32{in.bufs32[0].Data}
		stop := tr.start("stats.histogram_entropy_ms")
		stats.HistogramEntropySeg(seg, entropyBins)
		stop()
		stop = tr.start("stats.quantized_entropy_ms")
		stats.QuantizedEntropySeg(seg, in.eps[0])
		stop()
	} else {
		ot.k64.run(tr, wide.Data, wide.Rows, wide.Cols, k, gm, gsd)
		stop := tr.start("stats.histogram_entropy_ms")
		stats.HistogramEntropy(wide.Data, entropyBins)
		stop()
		for _, eps := range in.eps {
			stop := tr.start("stats.quantized_entropy_ms")
			stats.QuantizedEntropy(wide.Data, eps)
			stop()
		}
	}

	if ot.traced > probeOps {
		return nil
	}
	if err := ot.traceProbe(in, body); err != nil {
		return err
	}
	return ot.traceCompressors(in)
}

// traceStream times one slice through grid.ChunkReader alone and, on
// probe ops, each slice through the reader feeding the stream featurizer.
func (ot *opTracer) traceStream(stream []byte, eps float64) error {
	cr, err := grid.NewChunkReader(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	hdr := cr.Header()
	stop := ot.tr.start("grid.stream_decode_ms")
	if hdr.DType == grid.DTypeF32 {
		row := make([]float32, hdr.Cols)
		for r := 0; r < hdr.Rows && err == nil; r++ {
			err = cr.ReadRow32(row)
		}
	} else {
		row := make([]float64, hdr.Cols)
		for r := 0; r < hdr.Rows && err == nil; r++ {
			err = cr.ReadRow(row)
		}
	}
	stop()
	if err != nil || ot.traced > probeOps {
		return err
	}

	// predictors.ForEachSlice is the server's stream path; a slice's span
	// runs from the end of the previous slice's callback to its own.
	cr, err = grid.NewChunkReader(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	t0 := time.Now()
	return predictors.ForEachSlice(cr, []float64{eps}, ot.est.PredictorConfig(), func(predictors.SliceFeatures) error {
		ot.tr.add("predictors.stream_slice_ms", time.Since(t0))
		t0 = time.Now()
		return nil
	})
}

// traceProbe records the server and engine spans on workloads whose own
// path bypasses them: an in-process request to the probe server for the
// library workload, an engine request for the stream's first slice.
func (ot *opTracer) traceProbe(in *opInput, body []byte) error {
	switch ot.wl.path {
	case pathLibrary:
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		stop := ot.tr.start("server.request_ms")
		ot.probe.h.ServeHTTP(rec, req)
		stop()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe server: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	case pathStream:
		// A fresh buffer: the feature cache keys on the pointer, and the
		// stream inputs are recycled across rounds.
		b := grid.NewBuffer32(in.bufs32[0].Rows, in.bufs32[0].Cols)
		copy(b.Data, in.bufs32[0].Data)
		if _, err := ot.probe.eng.EstimateAll([]batch.Request{{Buf32: b, Eps: in.eps[0]}}); err != nil {
			return fmt.Errorf("probe engine: %w", err)
		}
	}
	return nil
}

// traceCompressors runs all eight compressors on the op's pairs until
// the table holds at least four pairs, timing each call and summing CPU.
func (ot *opTracer) traceCompressors(in *opInput) error {
	if ot.compPairs >= 4 {
		return nil
	}
	if ot.compCPU == nil {
		ot.compCPU = map[string]time.Duration{}
	}
	for _, name := range compressors.Names() {
		c, err := compressors.New(name)
		if err != nil {
			return err
		}
		for j := 0; j < in.pairs(); j++ {
			buf, eps := in.pair(j)
			c0 := cpuTime()
			stop := ot.tr.start("compressors." + name + "_ms")
			_, err := c.Compress(buf, eps)
			stop()
			ot.compCPU[name] += cpuTime() - c0
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	ot.compPairs += in.pairs()
	return nil
}

// strictDecode mirrors the server's JSON body decoding: unknown fields
// and trailing data are rejected.
func strictDecode(raw []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// kernelScratch holds one op's block matrix and the kernel outputs, kept
// across ops so the spans time the kernels, not allocation.
type kernelScratch[F linalg.Float] struct {
	backing, vt, gram       []F
	v                       [][]F
	mean, sd, norm2, lower  []float64
	sigma, eigVals, eigWork []float64
}

func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// symPanelRows is the predictors' Gram panel height (symPanelRows in
// internal/predictors/predictors.go).
const symPanelRows = 32

// run lays data out as the B×k² block matrix the predictors build and
// times the fused moment pass, the full lower-triangle Gram (transpose,
// symPanelRows-row panels, mirror — the in-budget path of the pairwise
// pass) and the k²×k² eigensolve, each single-threaded. It is a copy of
// the predictors' pass, so a kernel change there (panel height, parallel
// split, mirror) moves these spans only if it is copied here too.
func (ks *kernelScratch[F]) run(tr *tracer, data []F, rows, cols, k int, gm, gsd float64) {
	br, bc := rows/k, cols/k
	b, k2 := br*bc, k*k
	ks.backing = growTo(ks.backing, b*k2)
	ks.v = growTo(ks.v, b)
	for blk := 0; blk < b; blk++ {
		row := ks.backing[blk*k2 : (blk+1)*k2]
		r0, c0 := (blk/bc)*k, (blk%bc)*k
		for r := 0; r < k; r++ {
			copy(row[r*k:(r+1)*k], data[(r0+r)*cols+c0:(r0+r)*cols+c0+k])
		}
		ks.v[blk] = row
	}
	ks.mean, ks.sd, ks.norm2 = growTo(ks.mean, b), growTo(ks.sd, b), growTo(ks.norm2, b)
	ks.lower = growTo(ks.lower, k2*(k2+1)/2)
	if gsd == 0 {
		gsd = 1
	}
	stop := tr.start("linalg.fused_moments_ms")
	linalg.FusedBlockMoments(ks.v, gm, gsd, 1/float64(b), ks.mean, ks.sd, ks.norm2, ks.lower)
	stop()

	ks.vt = growTo(ks.vt, b*k2)
	ks.gram = growTo(ks.gram, b*b)
	stop = tr.start("linalg.gram_ms")
	linalg.TransposeInto(ks.v, ks.vt)
	for lo := 0; lo < b; lo += symPanelRows {
		hi := min(lo+symPanelRows, b)
		linalg.GramBlockT(ks.v, ks.vt, lo, hi, 0, hi, ks.gram[lo*b:], b)
	}
	linalg.MirrorLowerUpper(ks.gram, b)
	stop()

	ks.sigma = growTo(ks.sigma, k2*k2)
	ks.eigVals, ks.eigWork = growTo(ks.eigVals, k2), growTo(ks.eigWork, k2*k2)
	idx := 0
	for i := 0; i < k2; i++ {
		for j := 0; j <= i; j++ {
			ks.sigma[i*k2+j], ks.sigma[j*k2+i] = ks.lower[idx], ks.lower[idx]
			idx++
		}
	}
	sigma := linalg.Matrix{Rows: k2, Cols: k2, Data: ks.sigma}
	stop = tr.start("linalg.eigen_us")
	linalg.SymEigenValuesInto(&sigma, ks.eigVals, ks.eigWork)
	stop()
}

// statsz fetches the server's /statsz counters.
func (e *env) statsz() (server.StatsPayload, error) {
	var p server.StatsPayload
	resp, err := e.clients[0].Get(e.url + "/statsz")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	return p, json.NewDecoder(resp.Body).Decode(&p)
}
