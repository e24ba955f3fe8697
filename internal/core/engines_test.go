package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pipelayer/internal/arch"
	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

// The references below are the window-by-window datapaths the conv and pool
// engines replaced: one MatVec per window with an At gather, and At/Set
// indexing in the derivative and pooling loops. The engines must stay
// bit-identical to them.

// perWindow reads every column of cols out through q with its own MatVec
// and returns the (q.Cols × windows) result.
func perWindow(q *arch.Quantized, cols *tensor.Tensor) *tensor.Tensor {
	nwin := cols.Dim(1)
	out := tensor.New(q.Cols, nwin)
	vec := tensor.New(cols.Dim(0))
	for w := 0; w < nwin; w++ {
		for i := 0; i < cols.Dim(0); i++ {
			vec.Data()[i] = cols.At(i, w)
		}
		y := q.MatVec(vec)
		for c := 0; c < q.Cols; c++ {
			out.Data()[c*nwin+w] = y.At(c)
		}
	}
	return out
}

func refConvForward(e *convEngine, x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	y := perWindow(e.fwd, tensor.Im2Col(x, e.k, e.k, e.stride, e.pad))
	out := tensor.New(e.outC, oh, ow)
	for c := 0; c < e.outC; c++ {
		for w := 0; w < oh*ow; w++ {
			v := y.At(c, w) + e.bias.At(c)
			if e.relu && v < 0 {
				v = 0
			}
			out.Data()[c*oh*ow+w] = v
		}
	}
	return out
}

func refConvDerivative(dPrev, delta *tensor.Tensor, k, pad int) *tensor.Tensor {
	inC, outC := dPrev.Dim(0), delta.Dim(0)
	oh, ow := delta.Dim(1), delta.Dim(2)
	x := tensor.Pad2D(dPrev, pad)
	dW := tensor.New(outC, inC, k, k)
	for o := 0; o < outC; o++ {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					s := 0.0
					for y := 0; y < oh; y++ {
						for xx := 0; xx < ow; xx++ {
							s += x.At(c, y+ky, xx+kx) * delta.At(o, y, xx)
						}
					}
					dW.Set(s, o, c, ky, kx)
				}
			}
		}
	}
	return dW
}

// refConvErrorBackward returns the upstream error and this image's ∂W, ∂b.
func refConvErrorBackward(e *convEngine, delta, input *tensor.Tensor) (up, gradW, gradB *tensor.Tensor) {
	oh, ow := e.outShape()
	d := delta.Reshape(e.outC, oh, ow)
	gradB = tensor.New(e.outC)
	for c := 0; c < e.outC; c++ {
		s := 0.0
		for _, v := range d.Data()[c*oh*ow : (c+1)*oh*ow] {
			s += v
		}
		gradB.Data()[c] = s
	}
	gradW = refConvDerivative(input.Reshape(e.inC, e.inH, e.inW), d, e.k, e.pad)
	padded := tensor.Pad2D(d, e.k-1)
	full := perWindow(e.bwd, tensor.Im2Col(padded, e.k, e.k, 1, 0)).Reshape(e.inC, padded.Dim(1)-e.k+1, padded.Dim(2)-e.k+1)
	if e.pad > 0 {
		full = tensor.Crop2D(full, e.pad)
	}
	return full, gradW, gradB
}

func refPool(x *tensor.Tensor, k int) *tensor.Tensor {
	c, oh, ow := x.Dim(0), x.Dim(1)/k, x.Dim(2)/k
	out := tensor.New(c, oh, ow)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := x.At(ci, oy*k, ox*k)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if v := x.At(ci, oy*k+ky, ox*k+kx); v > best {
							best = v
						}
					}
				}
				out.Set(best, ci, oy, ox)
			}
		}
	}
	return out
}

func refMaxPoolBackward(delta, dPrev *tensor.Tensor, k int) *tensor.Tensor {
	c, oh, ow := delta.Dim(0), delta.Dim(1), delta.Dim(2)
	out := tensor.New(dPrev.Shape()...)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestY, bestX := oy*k, ox*k
				best := dPrev.At(ci, bestY, bestX)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if v := dPrev.At(ci, oy*k+ky, ox*k+kx); v > best {
							best, bestY, bestX = v, oy*k+ky, ox*k+kx
						}
					}
				}
				out.Set(delta.At(ci, oy, ox), ci, bestY, bestX)
			}
		}
	}
	return out
}

// randTensor fills a tensor with signed values, zeroing about a fifth so
// all-zero windows and exact zero codes occur; coarse steps force ties.
func randTensor(rng *rand.Rand, coarse bool, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		switch {
		case rng.Intn(5) == 0:
		case coarse:
			t.Data()[i] = float64(rng.Intn(5) - 2)
		default:
			t.Data()[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestConvEngineMatchesPerWindowReference checks the plane readout of
// forward and errorBackward, and the flat-indexed gradients, against the
// per-window references with and without padding and ReLU, at several
// worker counts: on ideal arrays, on the golden faulty device (every small
// column degrades to digital emulation), and on a sparser one whose columns
// mix healthy, remapped and corrupt (stuck cells read out, drifted).
func TestConvEngineMatchesPerWindowReference(t *testing.T) {
	geoms := []struct{ inC, h, outC, k, pad int }{
		{1, 12, 4, 5, 0},
		{3, 9, 5, 3, 1},
	}
	devices := map[string]*fault.Config{
		"ideal":   nil,
		"degrade": &goldenFaults,
		"mixed":   {Seed: 7, StuckOff: 0.002, StuckOn: 0.001, Drift: 0.02, Spares: 2},
	}
	for _, workers := range []int{1, 3} {
		for _, device := range []string{"ideal", "degrade", "mixed"} {
			for _, relu := range []bool{false, true} {
				for gi, g := range geoms {
					name := fmt.Sprintf("workers=%d/%s/relu=%v/geom=%d", workers, device, relu, gi)
					t.Run(name, func(t *testing.T) {
						old := parallel.Workers()
						parallel.SetWorkers(workers)
						defer parallel.SetWorkers(old)
						rng := rand.New(rand.NewSource(int64(11 + gi)))
						var inj *fault.Injector
						if cfg := devices[device]; cfg != nil {
							var err error
							if inj, err = fault.New(*cfg); err != nil {
								t.Fatal(err)
							}
						}
						l := nn.NewConv("c", g.inC, g.h, g.h, g.outC, g.k, 1, g.pad, rng)
						e := newConvEngine(l, relu, 16, inj, 0)
						e.tick(40)
						oh, ow := e.outShape()
						for img := 0; img < 3; img++ {
							x := randTensor(rng, false, g.inC, g.h, g.h)
							want := refConvForward(e, x)
							if got := e.forward(x); !tensor.Equal(got, want, 0) {
								t.Fatalf("image %d: forward differs from the per-window reference", img)
							}
							if got := e.forwardBatch([]*tensor.Tensor{x})[0]; !tensor.Equal(got, want, 0) {
								t.Fatalf("image %d: forwardBatch differs from the per-window reference", img)
							}
							delta := randTensor(rng, false, g.outC, oh, ow)
							wantUp, wantW, wantB := refConvErrorBackward(e, delta, x)
							e.gradW.Zero()
							e.gradB.Zero()
							if got := e.errorBackward(delta, x); !tensor.Equal(got, wantUp, 0) {
								t.Fatalf("image %d: errorBackward differs from the per-window reference", img)
							}
							if !tensor.Equal(e.gradW, wantW, 0) || !tensor.Equal(e.gradB, wantB, 0) {
								t.Fatalf("image %d: gradients differ from the At-indexed reference", img)
							}
						}
					})
				}
			}
		}
	}
}

// TestPoolMatchesIndexedReference checks the flat-indexed pool forward and
// MaxPoolBackward against At-indexed references on inputs full of ties, so
// the first-maximum-wins comparison order is exercised.
func TestPoolMatchesIndexedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []struct{ c, h, w, k int }{{3, 8, 8, 2}, {2, 9, 6, 3}} {
		e := &poolEngine{inC: g.c, inH: g.h, inW: g.w, k: g.k}
		for img := 0; img < 4; img++ {
			x := randTensor(rng, true, g.c, g.h, g.w)
			if !tensor.Equal(e.forward(x), refPool(x, g.k), 0) {
				t.Fatalf("%v: pool differs from the indexed reference", g)
			}
			delta := randTensor(rng, false, g.c, g.h/g.k, g.w/g.k)
			if !tensor.Equal(e.errorBackward(delta, x), refMaxPoolBackward(delta, x, g.k), 0) {
				t.Fatalf("%v: MaxPoolBackward differs from the indexed reference", g)
			}
		}
	}
}
