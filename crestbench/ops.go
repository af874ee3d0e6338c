package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/server"
)

// do runs one op on the environment as caller c and returns its
// estimates in pair order.
func (e *env) do(c int, in *opInput) ([]core.Estimate, error) {
	switch e.wl.path {
	case pathLibrary:
		return e.eng.EstimateAll(in.reqs)
	default:
		var resp server.StreamResponse
		q := "/v1/estimate?eps=" + strconv.FormatFloat(in.eps[0], 'g', -1, 64)
		if err := e.post(c, q, server.StreamContentType, in.body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Slices) != len(in.bufs32) {
			return nil, fmt.Errorf("stream: %d slice estimates for %d slices", len(resp.Slices), len(in.bufs32))
		}
		out := make([]core.Estimate, len(resp.Slices))
		for i, s := range resp.Slices {
			if s.Step != i {
				return nil, fmt.Errorf("stream: slice %d answered as step %d", i, s.Step)
			}
			out[i] = core.Estimate{CR: s.CR, Lo: s.Lo, Hi: s.Hi}
		}
		return out, nil
	}
}

// post sends one request on caller c's connection and decodes a 200
// response into dst; any other status is an error carrying the body.
func (e *env) post(c int, path, contentType string, body []byte, dst any) error {
	resp, err := e.clients[c].Post(e.url+path, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, dst)
}

// referenceFeatures computes every pair's feature vector in-process with
// the predictors of the op's precision: dataset features once per
// buffer, then the distortion per bound — the split the feature cache
// and the stream featurizer use, so the vectors must match theirs bit
// for bit. tr, when set, records the predictor spans.
func referenceFeatures(in *opInput, cfg predictors.Config, tr *tracer) ([][]float64, error) {
	out := make([][]float64, 0, in.pairs())
	if in.bufs32 != nil {
		for _, b := range in.bufs32 {
			stop := tr.start("predictors.dataset_ms")
			df, err := predictors.ComputeDataset32(b, cfg)
			stop()
			if err != nil {
				return nil, err
			}
			stop = tr.start("predictors.eb_ms")
			d, err := predictors.ComputeEB32(b, in.eps[0], cfg)
			stop()
			if err != nil {
				return nil, err
			}
			out = append(out, predictors.Combine(df, d).Vector())
		}
		return out, nil
	}
	buf := in.bufs[0]
	stop := tr.start("predictors.dataset_ms")
	df, err := predictors.ComputeDataset(buf, cfg)
	stop()
	if err != nil {
		return nil, err
	}
	for _, eps := range in.eps {
		stop := tr.start("predictors.eb_ms")
		d, err := predictors.ComputeEB(buf, eps, cfg)
		stop()
		if err != nil {
			return nil, err
		}
		out = append(out, predictors.Combine(df, d).Vector())
	}
	return out, nil
}

// reference returns the in-process estimates of an op: the model applied
// to the reference features.
func reference(est *core.Estimator, in *opInput, tr *tracer) ([]core.Estimate, error) {
	feats, err := referenceFeatures(in, est.PredictorConfig(), tr)
	if err != nil {
		return nil, err
	}
	out := make([]core.Estimate, len(feats))
	for j, f := range feats {
		stop := tr.start("core.estimate_us")
		out[j], err = est.Estimate(f)
		stop()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkOp compares an op's estimates with the reference: same count,
// every value finite and bit-identical.
func checkOp(got, want []core.Estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, want %d", len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		for _, v := range []float64{g.CR, g.Lo, g.Hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pair %d: non-finite estimate %+v", j, g)
			}
		}
		if g != w {
			return fmt.Errorf("pair %d: got %+v, reference %+v", j, g, w)
		}
	}
	return nil
}
