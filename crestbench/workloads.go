package main

import (
	"fmt"
	"math"

	"github.com/crestlab/crest/internal/synthdata"
)

// Request paths a workload drives.
const (
	pathLibrary = "library"     // batch.Engine.EstimateAll in-process
	pathStream  = "http-stream" // POST /v1/estimate, application/x-crest-stream
)

// workload is one named benchmark scenario. See NOTES.md for why each
// was chosen and which layers it stresses.
type workload struct {
	name    string
	path    string
	edge    int       // slice edge length
	dtype   string    // element type the program receives
	rel     []float64 // value-range-relative error bounds
	slices  int       // slices per op (stream only; 1 otherwise)
	clients int       // closed-loop callers

	// picks are the synthetic fields the estimated inputs and the
	// training data are drawn from; reals is the number of independent
	// realizations of each field in a pool (at least 2).
	picks []specPick
	reals int

	// chunk is how many ops are generated per round; the generation of
	// a round sits between two timed spans.
	chunk int
	// opsPerSecond sizes a timed phase: it runs opsPerSecond × --seconds
	// ops, a count fixed by the arguments, so every run of a seed grows
	// the same heap and sees the same GC schedule however fast the host
	// is. The rates are what the workloads sustained on the reference
	// machine (NOTES.md), so a phase lasts about --seconds there.
	opsPerSecond float64
	// minOps is the least number of ops a timed phase runs, so p90 has
	// at least ten samples beyond it where the budget allows.
	minOps int
	// accPasses is how many passes over every (field, realization pair)
	// combination of the corpus the leading ops that form the accuracy
	// set make; every input × bound pair of those ops is compressed for
	// the true ratio.
	accPasses int
	// trainOps is how many training ops set-up collects samples from.
	trainOps int
	// setups is how many times a run builds its environment; setup_s and
	// the set-up layer spans report the median, and the last build serves
	// the timed phases.
	setups int
}

func workloads() []*workload {
	all := allSpecs()
	// Two fields of each dataset keep the 256² pool affordable.
	var two []specPick
	seen := map[string]int{}
	for _, p := range all {
		if seen[p.dataset] < 2 {
			two = append(two, p)
			seen[p.dataset]++
		}
	}
	// Smooth, dense fields, one per dataset: the regime out-of-core
	// simulation output streams in.
	dense := []specPick{
		{"hurricane", synthdata.HurricaneSpecs()[7]}, // TC
		{"nyx", synthdata.NYXSpecs()[2]},             // velocity_x
		{"miranda", synthdata.MirandaSpecs()[0]},     // density
		{"cesm", synthdata.CESMSpecs()[2]},           // TS
	}
	return []*workload{
		{
			name: "search-256-library", path: pathLibrary, edge: 256, dtype: "f64",
			rel: logSpaced(1e-5, 1e-1, 16), slices: 1, clients: 1, picks: two, reals: 3,
			chunk: 4, opsPerSecond: 20, minOps: 100, accPasses: 2, trainOps: len(two), setups: 7,
		},
		{
			name: "stream-512-f32", path: pathStream, edge: 512, dtype: "f32",
			rel: []float64{1e-3}, slices: 4, clients: 1,
			picks: dense, reals: 4,
			chunk: 2, opsPerSecond: 2.3, minOps: 32, accPasses: 1, trainOps: 8, setups: 3,
		},
	}
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// phaseOps is the op count of a timed phase of `seconds`: the workload's
// rate times the seconds, at least minOps, in whole rounds.
func (w *workload) phaseOps(seconds float64) int {
	n := max(int(math.Ceil(w.opsPerSecond*seconds)), w.minOps, 1)
	return (n + w.chunk - 1) / w.chunk * w.chunk
}
