package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"davinci/internal/fp16"
	"davinci/internal/tensor"
	"davinci/internal/workloads"
)

// distinctTiles is how many different (H, W, C0) tiles each layer's
// tensors hold; C1 slice i repeats tile i mod distinctTiles. The golden
// model is single-threaded and would take longer than a measured run on
// whole Table I tensors, so it runs once per distinct tile and its
// outputs are tiled the same way. The program still computes every slice
// and the checker still compares every slice.
const distinctTiles = 2

// layerRNG seeds one layer's generator from the run seed, so layers can
// be prepared in parallel and still give the same inputs for a seed.
func layerRNG(seed int64, layer int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(layer)))
}

// randomTile is one (1, 1, h, w, C0) tile of uniform values, as the
// layers' own inputs are made.
func randomTile(rng *rand.Rand, h, w int) *tensor.Tensor {
	t := tensor.New(1, 1, h, w, tensor.C0)
	t.FillRandom(rng, 8)
	return t
}

// intTile is one tile of integers scale*[0, n), the integer-valued data
// the repository verifies backward kernels on: fp16 addition is not
// associative, so backward kernels with different band splits may differ
// from the golden model by one ULP on non-integer values (EXPERIMENTS.md,
// "Known deviations"). scale is the pooling window size for avgpool
// gradients, so that what the kernel accumulates is integer-valued too.
func intTile(rng *rand.Rand, h, w, n, scale int) *tensor.Tensor {
	t := tensor.New(1, 1, h, w, tensor.C0)
	for i := 0; i < t.Len(); i++ {
		t.SetFlat(i, fp16.FromFloat64(float64(scale*rng.Intn(n))))
	}
	return t
}

// tiles makes distinctTiles tiles with gen.
func tiles(gen func() *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, distinctTiles)
	for i := range out {
		out[i] = gen()
	}
	return out
}

// refTiles applies a golden-model function to each tile, timing each call.
func refTiles(times *[]time.Duration, f func(i int) *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, distinctTiles)
	for i := range out {
		start := time.Now()
		out[i] = f(i)
		*times = append(*times, time.Since(start))
	}
	return out
}

// tiled builds a tensor of c1 slices whose slice i is ts[i mod len(ts)].
// Tiles are (1, 1, ...) tensors in either the NC1HWC0 layout or the
// six-dimensional im2col mask layout; both keep N and C1 outermost.
func tiled(c1 int, ts []*tensor.Tensor) *tensor.Tensor {
	shape := append([]int{1, c1}, ts[0].Shape[2:]...)
	out := tensor.New(shape...)
	n := len(ts[0].Data)
	for i := 0; i < c1; i++ {
		copy(out.Data[i*n:(i+1)*n], ts[i%len(ts)].Data)
	}
	return out
}

// eachLayer runs prepare for every layer on GOMAXPROCS workers.
func eachLayer(layers []workloads.CNNLayer, prepare func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				prepare(i)
			}
		}()
	}
	for i := range layers {
		next <- i
	}
	close(next)
	wg.Wait()
}
