package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/linalg"
)

// perLayer fills the traced run's metrics from the traced phase p, the
// untraced phase before it (for the tracing overhead and the cost-table
// numerator) and the set-up spans.
func (b *bench) perLayer(rep *report, untraced, p *phase, times setupTimes) error {
	ot := b.ot
	tr := ot.tr
	cpuPerEst := msOf(untraced.cpu) / float64(untraced.estimates)

	// server
	request := percentile(p.lat, 0.5)
	srvStats := ot.probe.srv.Stats()
	if b.env.srv != nil {
		sz, err := b.env.statsz()
		if err != nil {
			return err
		}
		srvStats = sz.Server
	} else {
		request = tr.p50("server.request_ms")
	}
	rep.set("server.request_ms", "ms", request)
	rep.set("server.decode_ms", "ms", tr.p50("server.decode_ms"))
	rep.set("server.encode_us", "us", tr.p50("server.encode_us"))
	rep.set("server.shed", "count", float64(srvStats.Shed))
	rep.set("server.client_errors", "count", float64(srvStats.ClientErrors))
	rep.set("server.server_errors", "count", float64(srvStats.ServerErrors))

	// batch and featcache: the run's own engine where the workload's path
	// goes through it, the probe engine on the stream path.
	e0, e1 := p.eng0, p.eng1
	if b.opt.wl.path == pathStream {
		e0, e1 = batch.Stats{}, ot.probe.eng.Stats()
	}
	featureMs, modelUs := perRequest(e0, e1)
	rep.set("batch.feature_ms", "ms", featureMs)
	rep.set("batch.model_us", "us", modelUs)
	rep.set("batch.peak_inflight", "count", float64(e1.PeakInFlight))
	c0, c1 := e0.Cache, e1.Cache
	hits := float64(c1.Hits() - c0.Hits())
	lookups := hits + float64(c1.Misses()-c0.Misses())
	rep.set("featcache.hit_pct", "%", 100*hits/max(lookups, 1))
	rep.set("featcache.dataset_misses", "count", float64(c1.DatasetMisses-c0.DatasetMisses))
	rep.set("featcache.eb_misses", "count", float64(c1.EBMisses-c0.EBMisses))
	rep.set("featcache.dedup_waits", "count", float64(c1.DedupWaits-c0.DedupWaits))
	if b.opt.wl.path == pathStream {
		rep.set("featcache.resident_entries", "count", float64(ot.probe.eng.Cache().Len()))
	} else {
		rep.set("featcache.resident_entries", "count", float64(b.env.eng.Cache().Len()))
	}

	// The unattributed gap: request time not covered by the stage spans
	// of the request's own path. On the library path the request is the
	// probe server's, so its engine stages come from the probe engine,
	// which served exactly those requests (one bound, dataset miss).
	var stages float64
	if b.opt.wl.path == pathStream {
		slices := float64(b.opt.wl.slices)
		stages = slices*(tr.p50("predictors.stream_slice_ms")+tr.p50("core.estimate_us")/1e3) + tr.p50("server.encode_us")/1e3
	} else {
		pf, pm := perRequest(batch.Stats{}, ot.probe.eng.Stats())
		stages = tr.p50("server.decode_ms") + tr.p50("grid.validate_ms") + pf + pm/1e3 + tr.p50("server.encode_us")/1e3
	}
	rep.set("server.unattributed_ms", "ms", request-stages)

	// grid, predictors, linalg, stats, core: span medians.
	for _, name := range []string{
		"grid.validate_ms", "grid.stream_decode_ms",
		"predictors.dataset_ms", "predictors.eb_ms", "predictors.stream_slice_ms",
		"linalg.fused_moments_ms", "linalg.gram_ms", "linalg.eigen_us",
		"stats.histogram_entropy_ms", "stats.quantized_entropy_ms",
		"core.estimate_us",
	} {
		rep.set(name, unitOf(name), tr.p50(name))
	}
	rep.set("core.collect_samples_s", "s", times.median(func(s setupSpans) time.Duration { return s.collect }).Seconds())
	rep.set("core.train_ms", "ms", msOf(times.median(func(s setupSpans) time.Duration { return s.train })))
	rep.set("snapshot.save_ms", "ms", msOf(times.median(func(s setupSpans) time.Duration { return s.save })))
	rep.set("snapshot.load_ms", "ms", msOf(times.median(func(s setupSpans) time.Duration { return s.load })))

	// compressors: per-call time and the estimate-to-compress cost table.
	for _, name := range compressors.Names() {
		rep.set("compressors."+name+"_ms", "ms", tr.p50("compressors."+name+"_ms"))
		perPair := msOf(ot.compCPU[name]) / float64(ot.compPairs)
		rep.set("cost_ratio."+name, "ratio", cpuPerEst/perPair)
	}

	// runtime: GC share of the traced phase's process CPU.
	rep.set("runtime.gc_cpu_pct", "%", 100*p.gcCPU/max(p.cpu.Seconds(), 1e-9))
	rep.set("runtime.num_gc", "count", float64(p.numGC))

	rep.set("trace.p50_overhead_ms", "ms", percentile(p.lat, 0.5)-percentile(untraced.lat, 0.5))
	return nil
}

// perRequest is the mean feature time (ms) and model time (µs) per
// request between two engine Stats snapshots.
func perRequest(e0, e1 batch.Stats) (featureMs, modelUs float64) {
	reqs := float64(max(e1.Requests-e0.Requests, 1))
	return msOf(e1.FeatureTime-e0.FeatureTime) / reqs, msOf(e1.EstimateTime-e0.EstimateTime) * 1e3 / reqs
}

// operatingPoint names everything a run's numbers depend on, so runs are
// compared only like with like.
func (b *bench) operatingPoint(p *phase) map[string]any {
	wl := b.opt.wl
	k := b.env.est.PredictorConfig().K
	if k <= 0 {
		k = 8
	}
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]any{
		"workload":        wl.name,
		"edge":            wl.edge,
		"k":               k,
		"dtype":           wl.dtype,
		"bounds_rel":      wl.rel,
		"slices_per_op":   wl.slices,
		"clients":         b.clients,
		"seed":            b.opt.seed,
		"held_out_seed":   heldOutSeed,
		"trace":           b.opt.trace,
		"engine_workers":  b.env.eng.Workers(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu_model":       cpuModel(),
		"go_version":      runtime.Version(),
		"goamd64":         goamd64,
		"simd":            linalg.SIMDEnabled(),
		"timed_s":         p.wall.Seconds(),
		"latency_samples": len(p.lat),
		"accuracy_pairs":  len(b.acc.truth),
		"setup_runs":      wl.setups,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
