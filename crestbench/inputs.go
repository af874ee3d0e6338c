package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

// Inputs are made outside every timed span. Full spectral synthesis
// costs ~0.7 s per 512² slice, far more than one op, so a run synthesizes
// a small pool of field realizations once and derives every op's input
// from it with an O(n) mix — for streams the AR(1) evolution
// synthdata.Temporal applies between steps. The realizations form two
// fixed corpora, synthesized from the seeds below: one for training, one
// for the estimated inputs, so the two never share a realization. The
// run's seed draws each op from the corpus — field order, realization
// pair, mixing weight, AR(1) coefficient — so every seed sends different
// content, and the continuous weights make every op's content unique
// within a run, so no cache can win on a repeat. A fixed corpus keeps the
// accuracy figures from swinging with which few realizations a seed
// would otherwise have synthesized.
const (
	trainSalt  = int64(1) << 40
	corpusSalt = int64(2) << 40
)

// chunkRows is the row count of one CRBS chunk in stream payloads.
const chunkRows = 32

// opInput is one op's input, generated outside every timed span.
type opInput struct {
	idx    int
	bufs   []*grid.Buffer   // the op's buffers at float64 (stream: its slices, widened exactly)
	bufs32 []*grid.Buffer32 // float32 stream: one buffer per slice
	eps    []float64        // absolute bounds: one per bound, or one for the whole stream
	body   []byte           // HTTP body (CRBS stream)
	reqs   []batch.Request  // library workload
	enc    bytes.Buffer     // backing store of body
}

// pairs is the number of estimates one op yields.
func (in *opInput) pairs() int {
	if in.bufs32 != nil {
		return len(in.bufs32)
	}
	return len(in.eps)
}

// pair returns the float64 view of estimate j's buffer and its bound.
func (in *opInput) pair(j int) (*grid.Buffer, float64) {
	if in.bufs32 != nil {
		return in.bufs[j], in.eps[0]
	}
	return in.bufs[0], in.eps[j]
}

// fieldPool holds, per synthetic field, independent realizations (each
// synthesized from its own seed) that op inputs are mixed from.
type fieldPool struct {
	fields [][]*grid.Buffer
}

// specPick names one field recipe of one synthetic dataset.
type specPick struct {
	dataset string
	spec    synthdata.FieldSpec
}

// allSpecs lists every field of the four synthetic datasets.
func allSpecs() []specPick {
	var out []specPick
	for _, d := range []struct {
		name  string
		specs []synthdata.FieldSpec
	}{
		{"hurricane", synthdata.HurricaneSpecs()},
		{"nyx", synthdata.NYXSpecs()},
		{"miranda", synthdata.MirandaSpecs()},
		{"cesm", synthdata.CESMSpecs()},
	} {
		for _, s := range d.specs {
			out = append(out, specPick{d.name, s})
		}
	}
	return out
}

// newPool synthesizes `reals` independent edge×edge realizations of each
// picked field, one worker per CPU. Fields with an unusable realization
// (e.g. an all-zero sparse field) are left out, so no op is built from
// an input the server would reject.
func newPool(picks []specPick, edge, reals int, seed int64) (*fieldPool, error) {
	all := make([]*grid.Buffer, len(picks)*reals)
	forEach(len(all), func(i int) {
		pk := picks[i/reals]
		all[i] = synthdata.Volume(pk.dataset, pk.spec, 1, edge, edge, seed+int64(i)*7919).Slice(0)
	})
	p := &fieldPool{}
	for f := range picks {
		reals := all[f*reals : (f+1)*reals]
		ok := true
		for _, b := range reals {
			ok = ok && usable(b)
		}
		if ok {
			p.fields = append(p.fields, reals)
		}
	}
	if len(p.fields) == 0 {
		return nil, fmt.Errorf("no usable field in pool (edge %d, seed %d)", edge, seed)
	}
	return p, nil
}

// usable reports whether a buffer is valid and has a value range, so a
// relative bound yields a positive absolute one.
func usable(b *grid.Buffer) bool {
	if b.Validate(grid.DefaultValidation) != nil {
		return false
	}
	lo, hi := b.Range()
	return hi > lo
}

// mixInto sets dst to w·a + (1−w)·b and returns it.
func mixInto(dst, a, b *grid.Buffer, w float64) *grid.Buffer {
	for i := range dst.Data {
		dst.Data[i] = w*a.Data[i] + (1-w)*b.Data[i]
	}
	dst.Dataset, dst.Field = a.Dataset, a.Field
	return dst
}

// drawInto sets dst to a fresh mix of the realization pair pr of one
// pool field. In the rare case a mix is unusable it retries another
// field, so the result always validates.
func (p *fieldPool) drawInto(dst *grid.Buffer, rng *rand.Rand, field int, pr [2]int) *grid.Buffer {
	for {
		f := p.fields[field%len(p.fields)]
		if usable(mixInto(dst, f[pr[0]], f[pr[1]], 0.55+0.4*rng.Float64())) {
			return dst
		}
		field = rng.Intn(len(p.fields))
	}
}

// realizationPairs lists the pairs of n realizations ops mix: every pair,
// or only the disjoint pairs (0,1), (2,3), ….
func realizationPairs(n int, disjoint bool) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !disjoint || (i%2 == 0 && j == i+1) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// temporalInto evolves a draw of one field through the series' steps by
// AR(1) steps whose innovations are fresh draws of the same field,
// mirroring synthdata.Temporal: s_t = ρ·s_{t−1} + (1−ρ)·e_t. tmp holds
// the innovation.
func (p *fieldPool) temporalInto(series []*grid.Buffer, tmp *grid.Buffer, rng *rand.Rand, field int, pr [2]int) {
	p.drawInto(series[0], rng, field, pr)
	rho := 0.8 + 0.15*rng.Float64()
	for t := 1; t < len(series); t++ {
		for {
			if usable(mixInto(series[t], series[t-1], p.drawInto(tmp, rng, field, pr), rho)) {
				break
			}
		}
	}
}

// logSpaced returns n bounds spaced evenly in log10 from lo to hi.
func logSpaced(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(10, math.Log10(lo)+float64(i)*(math.Log10(hi)-math.Log10(lo))/float64(n-1))
	}
	return out
}

// inputGen derives op inputs for one workload from a pool and a seed.
// Inputs whose memory the program does not keep are recycled once
// checked (release), so the benchmark's own garbage does not drive the
// program's GC during timed spans. Library buffers are always fresh: the
// feature cache keys on the buffer pointer and keeps it reachable.
type inputGen struct {
	wl   *workload
	pool *fieldPool
	seed int64
	// Op i mixes field offset+i from the realization pair
	// pairs[pairOffset+i/len(fields)], so each run of len(fields)·
	// len(pairs) ops covers every (field, pair) combination once — the
	// accuracy set is stratified over the corpus whatever the seed.
	offset, pairOffset int
	pairs              [][2]int
	free               []*opInput
	series             []*grid.Buffer // stream scratch: the float64 series before narrowing
	tmp                *grid.Buffer   // stream scratch: one innovation
}

// newInputGen draws ops from the pool; disjoint restricts them to the
// disjoint realization pairs.
func newInputGen(wl *workload, pool *fieldPool, seed int64, disjoint bool) *inputGen {
	rng := rand.New(rand.NewSource(seed))
	g := &inputGen{wl: wl, pool: pool, seed: seed, pairs: realizationPairs(wl.reals, disjoint)}
	g.offset, g.pairOffset = rng.Intn(len(pool.fields)), rng.Intn(len(g.pairs))
	return g
}

// combinations is the number of ops that cover every (field, pair) once.
func (g *inputGen) combinations() int { return len(g.pool.fields) * len(g.pairs) }

// release hands checked inputs back for reuse.
func (g *inputGen) release(inputs []*opInput) {
	if g.wl.path != pathLibrary {
		g.free = append(g.free, inputs...)
	}
}

// slot returns a recycled stream input, or a new one with its buffers
// allocated.
func (g *inputGen) slot() *opInput {
	if n := len(g.free); n > 0 {
		in := g.free[n-1]
		g.free = g.free[:n-1]
		return in
	}
	in := &opInput{}
	for t := 0; t < g.wl.slices; t++ {
		in.bufs = append(in.bufs, grid.NewBuffer(g.wl.edge, g.wl.edge))
		in.bufs32 = append(in.bufs32, grid.NewBuffer32(g.wl.edge, g.wl.edge))
	}
	return in
}

// op builds op i. Ops rotate through the pool's fields, so every run
// covers each field equally; each op draws its mix from its own seeded
// stream, so op i has the same content whatever chunking generates it.
func (g *inputGen) op(i int) (*opInput, error) {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	field := g.offset + i
	pair := g.pairs[(g.pairOffset+i/len(g.pool.fields))%len(g.pairs)]
	switch g.wl.path {
	case pathLibrary:
		b := g.pool.drawInto(grid.NewBuffer(g.wl.edge, g.wl.edge), rng, field, pair)
		b.Step = i
		lo, hi := b.Range()
		in := &opInput{idx: i, bufs: []*grid.Buffer{b}}
		for _, r := range g.wl.rel {
			in.eps = append(in.eps, r*(hi-lo))
			in.reqs = append(in.reqs, batch.Request{Buf: b, Eps: r * (hi - lo)})
		}
		return in, nil
	default:
		in := g.slot()
		in.idx = i
		if g.series == nil {
			for t := 0; t < g.wl.slices; t++ {
				g.series = append(g.series, grid.NewBuffer(g.wl.edge, g.wl.edge))
			}
			g.tmp = grid.NewBuffer(g.wl.edge, g.wl.edge)
		}
		g.pool.temporalInto(g.series, g.tmp, rng, field, pair)
		lo, hi := math.Inf(1), math.Inf(-1)
		for t, s := range g.series {
			b32, b := in.bufs32[t], in.bufs[t]
			for k, v := range s.Data {
				f := float32(v)
				b32.Data[k], b.Data[k] = f, float64(f)
				lo, hi = math.Min(lo, float64(f)), math.Max(hi, float64(f))
			}
			b32.Dataset, b32.Field, b32.Step = s.Dataset, s.Field, t
			b.Dataset, b.Field, b.Step = s.Dataset, s.Field, t
		}
		in.eps = append(in.eps[:0], g.wl.rel[0]*(hi-lo))
		// The widened slices hold exact float32 values, so the dtype-f32
		// encoding carries the float32 buffers bit for bit.
		in.enc.Reset()
		if err := grid.EncodeBuffers(&in.enc, in.bufs, grid.DTypeF32, chunkRows); err != nil {
			return nil, err
		}
		in.body = in.enc.Bytes()
		return in, nil
	}
}
