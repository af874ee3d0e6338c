package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/stats"
)

// options is one benchmark invocation.
type options struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	dir     string    // base directory for the run's snapshot
	log     io.Writer // progress lines
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	point             map[string]any // operating point
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// phase accumulates the timed rounds of one measurement phase. Only the
// op loop of a round is inside the timed span; generation, checking and
// tracing sit between rounds.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	numGC     uint32
	gcCPU     float64 // seconds of GC CPU, from runtime/metrics
	ops       int
	estimates int
	failed    int
	lat       []float64 // ms per op
	rates     []float64 // estimates per second of each round
	allocs    []float64 // KiB allocated per estimate in each round
	eng0      batch.Stats
	eng1      batch.Stats
}

// accuracy holds the accuracy set — the true szinterp ratio and the
// program's estimate of each pair of the leading ops — and the szinterp
// CPU samples behind cost_ratio's denominator.
type accuracy struct {
	truth   []float64
	est     []core.Estimate
	szCPU   time.Duration
	szPairs int
}

// bench is one run in progress.
type bench struct {
	opt     options
	env     *env
	gen     *inputGen
	clients int
	next    int // index of the next op to generate
	accOps  int // leading ops in the accuracy set; 0 in a traced run
	acc     accuracy
	ot      *opTracer
}

// cpuTime is the process's user+sys CPU time. getrusage(RUSAGE_SELF)
// fails only for an invalid argument, so the error is not checked.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// gcCPUSeconds is the runtime's estimate of CPU spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runBench runs one workload end to end and returns its report.
func runBench(opt options) (*report, error) {
	wl := opt.wl
	clients := wl.clients
	logf := func(format string, args ...any) { fmt.Fprintf(opt.log, format+"\n", args...) }

	ts, err := newTrainingSet(wl, clients)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(opt.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var times setupTimes
	var e *env
	for i := 0; i < wl.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var sp setupSpans
		e, sp, err = buildEnv(wl, ts, clients, dir)
		if err != nil {
			return nil, err
		}
		times = append(times, sp)
	}
	ts = nil
	defer e.close()
	logf("setup: median %.3fs over %d runs", times.median(func(s setupSpans) time.Duration { return s.total }).Seconds(), wl.setups)

	pool, err := newPool(wl.picks, wl.edge, wl.reals, corpusSalt)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: opt, env: e, gen: newInputGen(wl, pool, opt.seed, false), clients: clients}
	if !opt.trace {
		b.accOps = wl.accPasses * b.gen.combinations()
	}

	rep := &report{metrics: map[string]metric{}}
	if opt.trace {
		return b.tracedRun(rep, times)
	}
	p, err := b.runPhase(wl.phaseOps(opt.seconds), nil)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = p.ops, p.failed
	if err := b.endToEnd(rep, p, times); err != nil {
		return nil, err
	}
	rep.point = b.operatingPoint(p)
	return rep, nil
}

// tracedRun measures half of the run's ops untraced and half traced, and
// reports the per-layer metrics.
func (b *bench) tracedRun(rep *report, times setupTimes) (*report, error) {
	wl := b.opt.wl
	ops := (wl.phaseOps(b.opt.seconds)/2 + wl.chunk - 1) / wl.chunk * wl.chunk
	untraced, err := b.runPhase(ops, nil)
	if err != nil {
		return nil, err
	}
	pr, err := newProbe(b.env.est)
	if err != nil {
		return nil, err
	}
	b.ot = &opTracer{tr: newTracer(), wl: b.opt.wl, est: b.env.est, probe: pr}
	traced, err := b.runPhase(ops, b.ot)
	if err != nil {
		return nil, err
	}
	rep.attempted = untraced.ops + traced.ops
	rep.failed = untraced.failed + traced.failed
	if err := b.perLayer(rep, untraced, traced, times); err != nil {
		return nil, err
	}
	rep.point = b.operatingPoint(untraced)
	return rep, nil
}

// runPhase runs timed rounds until the phase has run `ops` ops and the
// accuracy set. It ends on the op count, not on wall time, so a slower
// or faster host does not change how much work (and retained heap) a run
// of a given seed makes.
func (b *bench) runPhase(ops int, ot *opTracer) (*phase, error) {
	p := &phase{eng0: b.env.eng.Stats()}
	for p.ops < ops || b.next < b.accOps {
		n := b.opt.wl.chunk
		inputs := make([]*opInput, n)
		for i := range inputs {
			in, err := b.gen.op(b.next)
			if err != nil {
				return nil, err
			}
			inputs[i] = in
			b.next++
		}
		outs, errs := b.round(p, inputs)
		if err := b.check(p, inputs, outs, errs, ot); err != nil {
			return nil, err
		}
		b.gen.release(inputs)
	}
	p.eng1 = b.env.eng.Stats()
	return p, nil
}

// round runs one chunk of ops closed-loop from the run's callers and
// adds the timed span to the phase.
func (b *bench) round(p *phase, inputs []*opInput) ([][]core.Estimate, []error) {
	outs := make([][]core.Estimate, len(inputs))
	errs := make([]error, len(inputs))
	lat := make([]float64, len(inputs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				s := time.Now()
				outs[i], errs[i] = b.env.do(c, inputs[i])
				lat[i] = float64(time.Since(s).Nanoseconds()) / 1e6
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	p.wall += wall
	p.cpu += cpuTime() - cpu0
	p.gcCPU += gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	alloc := ms1.TotalAlloc - ms0.TotalAlloc
	p.numGC += ms1.NumGC - ms0.NumGC
	p.lat = append(p.lat, lat...)
	n := 0
	for i, o := range outs {
		if errs[i] == nil {
			n += len(o)
		}
	}
	p.rates = append(p.rates, float64(n)/wall.Seconds())
	p.allocs = append(p.allocs, float64(alloc)/1024/float64(max(n, 1)))
	return outs, errs
}

// check compares every op of a round with the in-process reference,
// extends the accuracy set and, in the traced phase, records the spans.
func (b *bench) check(p *phase, inputs []*opInput, outs [][]core.Estimate, errs []error, ot *opTracer) error {
	refs := make([][]core.Estimate, len(inputs))
	refErrs := make([]error, len(inputs))
	if ot != nil {
		// Serial, so the spans see no contention from other checks.
		for i, in := range inputs {
			refs[i], refErrs[i] = reference(b.env.est, in, ot.tr)
		}
	} else {
		forEach(len(inputs), func(i int) { refs[i], refErrs[i] = reference(b.env.est, inputs[i], nil) })
	}
	for i, in := range inputs {
		if refErrs[i] != nil {
			return fmt.Errorf("reference of op %d: %w", in.idx, refErrs[i])
		}
		p.ops++
		err := errs[i]
		if err == nil {
			err = checkOp(outs[i], refs[i])
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(b.opt.log, "op %d failed: %v\n", in.idx, err)
			continue
		}
		p.estimates += len(outs[i])
		if ot == nil {
			if err := b.addTruth(in, outs[i]); err != nil {
				return err
			}
		}
		if ot != nil {
			if err := ot.traceOp(in); err != nil {
				return fmt.Errorf("trace op %d: %w", in.idx, err)
			}
		}
	}
	return nil
}

// addTruth compresses every pair of an accuracy-set op with szinterp,
// recording the true ratio. Every later op compresses one pair, so the
// szinterp CPU samples spread over the whole run like the ops they are
// compared with and machine-speed drift cancels in cost_ratio.
func (b *bench) addTruth(in *opInput, got []core.Estimate) error {
	szi := compressors.NewSZInterp()
	pairs := []int{in.idx % len(got)}
	if in.idx < b.accOps {
		pairs = pairs[:0]
		for j := range got {
			pairs = append(pairs, j)
		}
	}
	for _, j := range pairs {
		c0 := cpuTime()
		cr, err := trueRatio(szi, in, j)
		b.acc.szCPU += cpuTime() - c0
		b.acc.szPairs++
		if err != nil {
			return err
		}
		if in.idx < b.accOps {
			b.acc.truth = append(b.acc.truth, math.Min(cr, core.DefaultCRCap))
			b.acc.est = append(b.acc.est, got[j])
		}
	}
	return nil
}

// p90Window is the number of consecutive ops whose p90 windowedP90 takes.
const p90Window = 50

// windowedP90 is the median over consecutive windows of p90Window ops
// (one window when there are fewer) of each window's p90. A stall of the
// shared machine that covers a few windows moves it less than it moves
// the p90 of the whole phase.
func windowedP90(lat []float64) float64 {
	n := max(len(lat)/p90Window, 1)
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = percentile(lat[i*len(lat)/n:(i+1)*len(lat)/n], 0.9)
	}
	return percentile(ps, 0.5)
}

// trimmedMean is the mean of xs without its lowest and highest share.
func trimmedMean(xs []float64, share float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := int(float64(len(s)) * share)
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// forEach runs fn(0..n-1) on one goroutine per CPU and waits.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// endToEnd fills the untraced metrics.
func (b *bench) endToEnd(rep *report, p *phase, times setupTimes) error {
	if p.estimates == 0 {
		return fmt.Errorf("no op succeeded")
	}
	cpuPerEst := msOf(p.cpu) / float64(p.estimates)
	szPerPair := msOf(b.acc.szCPU) / float64(b.acc.szPairs)
	rep.set("setup_s", "s", times.median(func(s setupSpans) time.Duration { return s.total }).Seconds())
	rep.set("p50_ms", "ms", percentile(p.lat, 0.5))
	rep.set("p90_ms", "ms", windowedP90(p.lat))
	// The median round rate: a transient stall of the shared machine
	// moves it less than the run-long mean.
	rep.set("estimates_per_s", "1/s", percentile(p.rates, 0.5))
	rep.set("cpu_ms_per_estimate", "ms", cpuPerEst)
	// A mean over rounds, not a median round: the predictors' scratch
	// pools refill after some GCs and not others, so single rounds
	// alternate between levels that a median snaps to. The top and
	// bottom fifth are dropped, so the few rounds that refill a 64 MiB
	// pool at 512² do not swamp a short phase.
	rep.set("alloc_kib_per_estimate", "KiB", trimmedMean(p.allocs, 0.2))
	rep.set("cost_ratio", "ratio", cpuPerEst/szPerPair)
	rep.set("ok_pct", "%", 100*float64(p.ops-p.failed)/float64(p.ops))

	pred := make([]float64, len(b.acc.est))
	covered := 0
	for i, e := range b.acc.est {
		pred[i] = e.CR
		if e.Contains(b.acc.truth[i]) {
			covered++
		}
	}
	rep.set("medape_pct", "%", stats.MedAPE(b.acc.truth, pred))
	rep.set("coverage_pct", "%", 100*float64(covered)/float64(len(pred)))

	// Drop every input the benchmark holds, then weigh what the program
	// still keeps reachable: the server and engine stay referenced.
	b.gen = nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.set("retained_mib", "MiB", float64(mem.HeapAlloc)/(1<<20))
	return nil
}
