package arch

import (
	"fmt"

	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/reram"
	"pipelayer/internal/tensor"
)

// Machine is a PipeLayer inference machine: the layer engines of Figure 9
// assembled from a trained float network, with weights programmed into
// quantized crossbar models, activation components applying ReLU, max
// registers realizing max pooling, and memory subarrays carrying the
// intermediate d values between layers.
type Machine struct {
	Name    string
	engines []engine
	// Bank holds the inter-layer intermediates, keyed by engine name.
	Bank *reram.MemoryBank
}

// engine is one pipeline stage.
type engine interface {
	name() string
	forward(x *tensor.Tensor) *tensor.Tensor
}

// convEngine maps one convolution layer onto crossbars: the im2col columns
// are the spike-coded input vectors, the kernel matrix is the programmed
// weight array (Figure 4/5 mapping), bias is accumulated digitally, and the
// activation component applies ReLU.
type convEngine struct {
	id                  string
	inC, inH, inW, outC int
	k, stride, pad      int
	arrays              *Quantized // (inC·k·k) × outC
	bias                []float64
	act                 *reram.ActivationUnit
}

func (e *convEngine) name() string { return e.id }

func (e *convEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	oh := tensor.ConvOutDim(e.inH, e.k, e.stride, e.pad)
	ow := tensor.ConvOutDim(e.inW, e.k, e.stride, e.pad)
	nwin := oh * ow
	// Every window is an intra-layer duplicate (Section 3.2.3) read out in
	// the same array cycle: the im2col windows are the columns of one
	// batched readout, each quantized against its own maximum exactly as a
	// per-window MatVec would be.
	out := e.arrays.MatVecCols(tensor.Im2Col(x, e.k, e.k, e.stride, e.pad)).Reshape(e.outC, oh, ow)
	od := out.Data()
	for c, b := range e.bias {
		for i := c * nwin; i < (c+1)*nwin; i++ {
			od[i] = e.act.Process(od[i]+b, 0)
		}
	}
	return out
}

// denseEngine maps an inner-product layer onto one logical weight array.
type denseEngine struct {
	id      string
	in, out int
	arrays  *Quantized // in × out
	bias    []float64
	act     *reram.ActivationUnit
	relu    bool
}

func (e *denseEngine) name() string { return e.id }

func (e *denseEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	y := e.arrays.MatVec(x.Reshape(e.in))
	out := tensor.New(e.out)
	for j := 0; j < e.out; j++ {
		v := y.At(j) + e.bias[j]
		if e.relu {
			v = e.act.Process(v, 0)
		}
		out.Data()[j] = v
	}
	return out
}

// poolEngine realizes max pooling with the activation component's max
// register (Section 4.2.3): the window's values stream through Process and
// MaxAndReset emits the pooled value.
type poolEngine struct {
	id            string
	inC, inH, inW int
	k             int
	act           *reram.ActivationUnit
}

func (e *poolEngine) name() string { return e.id }

func (e *poolEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.inH/e.k, e.inW/e.k
	out := tensor.New(e.inC, oh, ow)
	// Channels pool independently; each chunk streams through its own
	// activation-unit clone so the max registers never interleave.
	parallel.Default().For(e.inC, parallel.Grain(oh*ow*e.k*e.k), func(lo, hi int) {
		act := e.act.Clone()
		for c := lo; c < hi; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					for ky := 0; ky < e.k; ky++ {
						for kx := 0; kx < e.k; kx++ {
							act.Process(x.At(c, oy*e.k+ky, ox*e.k+kx), 0)
						}
					}
					out.Set(act.MaxAndReset(), c, oy, ox)
				}
			}
		}
	})
	return out
}

// BuildMachine programs a trained float network onto the PipeLayer machine.
// Supported layer sequence: Conv (+ReLU), MaxPool, Dense (+ReLU); this
// covers every trainable network in the zoo. spikeBits is the input
// resolution (16 by default, Section 5.1).
func BuildMachine(net *nn.Network, spikeBits int) *Machine {
	return BuildMachineFaults(net, spikeBits, nil)
}

// BuildMachineFaults is BuildMachine with a fault injector wired into every
// weight array: the k-th weighted layer's array gets array id k in the
// injector's deterministic draw space. A nil injector yields the ideal
// machine.
func BuildMachineFaults(net *nn.Network, spikeBits int, inj *fault.Injector) *Machine {
	m := &Machine{Name: net.Name, Bank: reram.NewMemoryBank()}
	arrayID := uint64(0)
	attach := func(q *Quantized) *Quantized {
		if inj != nil {
			q.AttachFaults(inj, arrayID)
			arrayID++
		}
		return q
	}
	layers := net.Layers
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Conv:
			inC, inH, inW, outC, k, stride, pad := l.Geometry()
			wmat := l.Weights().Value.Reshape(outC, inC*k*k)
			// Fuse a directly following ReLU into the activation unit;
			// any other activation gets its own LUT stage, so the conv
			// engine's unit runs in bypass.
			act := reram.NewActivationUnit(nil)
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					act = reram.NewActivationUnit(reram.ReLULUT())
					i++
				}
			}
			// Crossbar layout is (inputs × bit lines): transpose to rows=CKK.
			e := &convEngine{
				id:  l.Name(),
				inC: inC, inH: inH, inW: inW, outC: outC,
				k: k, stride: stride, pad: pad,
				arrays: attach(NewQuantized(tensor.Transpose(wmat), inC*k*k, outC, spikeBits)),
				bias:   append([]float64(nil), l.Bias().Value.Data()...),
				act:    act,
			}
			m.engines = append(m.engines, e)
		case *nn.Dense:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
				}
			}
			e := &denseEngine{
				id: l.Name(), in: l.In(), out: l.Out(),
				arrays: attach(NewQuantized(tensor.Transpose(l.Weights().Value), l.In(), l.Out(), spikeBits)),
				bias:   append([]float64(nil), l.Bias().Value.Data()...),
				act:    reram.NewActivationUnit(reram.ReLULUT()),
				relu:   relu,
			}
			m.engines = append(m.engines, e)
			if relu {
				i++
			}
		case *nn.MaxPool:
			inC, inH, inW, k := l.Geometry()
			m.engines = append(m.engines, &poolEngine{
				id: l.Name(), inC: inC, inH: inH, inW: inW, k: k,
				act: reram.NewActivationUnit(nil),
			})
		case *nn.AvgPool:
			inC, inH, inW, k := l.Geometry()
			m.engines = append(m.engines, newAvgPoolEngine(l.Name(), inC, inH, inW, k))
		case *nn.Sigmoid:
			// The configurable LUT of Section 4.2.3 realizes the sigmoid.
			m.engines = append(m.engines, newLUTEngine(l.Name(), reram.SigmoidLUT(4096)))
		case *nn.ReLU:
			// A ReLU not directly after a weighted layer (should not occur in
			// the zoo) gets its own activation pass.
			id := l.Name()
			m.engines = append(m.engines, &funcEngine{id: id, f: func(x *tensor.Tensor) *tensor.Tensor {
				act := reram.NewActivationUnit(reram.ReLULUT())
				out := tensor.New(x.Shape()...)
				for i, v := range x.Data() {
					out.Data()[i] = act.Process(v, 0)
				}
				return out
			}})
		default:
			panic(fmt.Sprintf("arch: unsupported layer type %T in %s", l, net.Name))
		}
	}
	return m
}

// funcEngine wraps a plain function as a stage.
type funcEngine struct {
	id string
	f  func(*tensor.Tensor) *tensor.Tensor
}

func (e *funcEngine) name() string                            { return e.id }
func (e *funcEngine) forward(x *tensor.Tensor) *tensor.Tensor { return e.f(x) }

// newLUTEngine builds an elementwise activation stage from a LUT — the
// hardware path for non-rectifier activations.
func newLUTEngine(id string, lut *reram.LUT) *funcEngine {
	act := reram.NewActivationUnit(lut)
	return &funcEngine{id: id, f: func(x *tensor.Tensor) *tensor.Tensor {
		out := tensor.New(x.Shape()...)
		for i, v := range x.Data() {
			out.Data()[i] = act.Activate(v)
		}
		return out
	}}
}

// newAvgPoolEngine builds an average-pooling stage (Equation 2): window
// sums divided by K², a shift when K² is a power of two.
func newAvgPoolEngine(id string, inC, inH, inW, k int) *funcEngine {
	return &funcEngine{id: id, f: func(x *tensor.Tensor) *tensor.Tensor {
		oh, ow := inH/k, inW/k
		out := tensor.New(inC, oh, ow)
		inv := 1.0 / float64(k*k)
		for c := 0; c < inC; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							s += x.At(c, oy*k+ky, ox*k+kx)
						}
					}
					out.Set(s*inv, c, oy, ox)
				}
			}
		}
		return out
	}}
}

// Forward runs analog inference, staging every intermediate through the
// memory bank exactly as the connection component does between cycles.
func (m *Machine) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, e := range m.engines {
		x = e.forward(x)
		m.Bank.Write(e.name(), x)
	}
	return x
}

// Predict returns the argmax class of the analog output scores.
func (m *Machine) Predict(x *tensor.Tensor) int {
	y := m.Forward(x)
	_, idx := y.Max()
	return idx
}

// Accuracy evaluates top-1 accuracy over samples.
func (m *Machine) Accuracy(samples []nn.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if m.Predict(s.Input) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Engines returns the stage names in order.
func (m *Machine) Engines() []string {
	var names []string
	for _, e := range m.engines {
		names = append(names, e.name())
	}
	return names
}
