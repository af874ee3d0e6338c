package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/server"
	"github.com/crestlab/crest/snapshot"
)

// env is one built serving environment: the reloaded model, the engine
// over it and, on the HTTP paths, an in-process server on loopback with
// one keep-alive client per caller.
type env struct {
	wl      *workload
	est     *core.Estimator
	eng     *batch.Engine
	srv     *server.Server
	hs      *http.Server
	served  chan error // Serve's return value
	url     string
	clients []*http.Client
}

// setupSpans are the wall times of one set-up's stages.
type setupSpans struct {
	total, collect, train, save, load time.Duration
}

// setupTimes collects the spans of every set-up of a run.
type setupTimes []setupSpans

func (st setupTimes) median(f func(setupSpans) time.Duration) time.Duration {
	d := make([]time.Duration, len(st))
	for i, s := range st {
		d[i] = f(s)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// trainingSet is the set-up's input: training ops (from the training
// seed, disjoint from the estimated inputs) and warm-up ops.
type trainingSet struct {
	train, warm []*opInput
}

func newTrainingSet(wl *workload, clients int) (*trainingSet, error) {
	pool, err := newPool(wl.picks, wl.edge, wl.reals, trainSalt)
	if err != nil {
		return nil, err
	}
	// Training ops use disjoint realization pairs, so the conformal
	// calibration ops never share a realization with the fitted ones and
	// the interval covers realization-to-realization error.
	gen := newInputGen(wl, pool, trainSalt, true)
	ts := &trainingSet{}
	for i := 0; i < wl.trainOps+clients; i++ {
		in, err := gen.op(i)
		if err != nil {
			return nil, err
		}
		if i < wl.trainOps {
			ts.train = append(ts.train, in)
		} else {
			ts.warm = append(ts.warm, in)
		}
	}
	return ts, nil
}

// buildEnv runs one full set-up: collect training samples, fit, write
// and reload the snapshot, build the engine (and server) and warm it
// with one op per caller.
func buildEnv(wl *workload, ts *trainingSet, clients int, dir string) (*env, setupSpans, error) {
	var sp setupSpans
	t0 := time.Now()
	samples, groups, err := collectSamples(ts.train)
	if err != nil {
		return nil, sp, err
	}
	sp.collect = time.Since(t0)

	// Each training op is one exchangeability group (its pairs share a
	// buffer or a temporal series), so conformal calibration holds out
	// whole ops and the interval is honest for unseen inputs.
	t := time.Now()
	est, err := core.TrainGrouped(samples, groups, core.Config{})
	if err != nil {
		return nil, sp, fmt.Errorf("train: %w", err)
	}
	sp.train = time.Since(t)

	path := filepath.Join(dir, "model.crsnap")
	t = time.Now()
	if err := snapshot.Save(path, est); err != nil {
		return nil, sp, err
	}
	sp.save = time.Since(t)
	t = time.Now()
	if est, err = snapshot.Load(path); err != nil {
		return nil, sp, err
	}
	sp.load = time.Since(t)

	e := &env{wl: wl, est: est, eng: batch.New(est, nil, 0)}
	if wl.path != pathLibrary {
		if err := e.listen(clients); err != nil {
			return nil, sp, err
		}
	}
	for i, in := range ts.warm {
		if _, err := e.do(i%max(1, len(e.clients)), in); err != nil {
			e.close()
			return nil, sp, fmt.Errorf("warm-up: %w", err)
		}
	}
	sp.total = time.Since(t0)
	return e, sp, nil
}

// listen starts the server with the default Config on a loopback port
// and gives each caller its own transport, hence its own connection.
func (e *env) listen(clients int) error {
	srv, err := server.New(server.Config{Engine: e.eng})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = srv
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	for i := 0; i < clients; i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return nil
}

// close drains and stops the server and waits for its serve loop.
func (e *env) close() error {
	if e.hs == nil {
		return nil
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := e.srv.Drain(ctx)
	serr := e.hs.Shutdown(ctx)
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	e.hs = nil
	return errors.Join(derr, serr)
}

// collectSamples computes features and the true szinterp ratio of every
// training pair, on one worker per CPU, and labels each sample with the
// index of its op.
func collectSamples(ops []*opInput) ([]core.Sample, []int, error) {
	perOp := make([][]core.Sample, len(ops))
	errs := make([]error, len(ops))
	forEach(len(ops), func(i int) { perOp[i], errs[i] = opSamples(ops[i]) })
	var samples []core.Sample
	var groups []int
	for i, s := range perOp {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("collect samples: %w", errs[i])
		}
		samples = append(samples, s...)
		for range s {
			groups = append(groups, i)
		}
	}
	return samples, groups, nil
}

// opSamples returns one training sample per pair of an op.
func opSamples(in *opInput) ([]core.Sample, error) {
	feats, err := referenceFeatures(in, predictors.Config{}, nil)
	if err != nil {
		return nil, err
	}
	szi := compressors.NewSZInterp()
	out := make([]core.Sample, len(feats))
	for j, f := range feats {
		cr, err := trueRatio(szi, in, j)
		if err != nil {
			return nil, err
		}
		out[j] = core.Sample{Features: f, CR: cr}
	}
	return out, nil
}

// trueRatio compresses pair j and returns original bytes ÷ compressed
// bytes, with the original counted at the program's element width (4
// bytes for the float32 stream).
func trueRatio(c compressors.Compressor, in *opInput, j int) (float64, error) {
	buf, eps := in.pair(j)
	data, err := c.Compress(buf, eps)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.Name(), err)
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("%s: empty output", c.Name())
	}
	width := 8
	if in.bufs32 != nil {
		width = 4
	}
	return float64(width*buf.Len()) / float64(len(data)), nil
}

// scratchDir makes a fresh directory for one run's snapshot under base.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
