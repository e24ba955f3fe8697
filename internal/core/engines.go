package core

import (
	"fmt"

	"pipelayer/internal/arch"
	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// layerEngine is one analog pipeline stage with full training support:
// forward through the quantized crossbar model, error backward through the
// reordered-kernel arrays, gradient accumulation in buffers, and the
// hardware weight update.
//
// The backward path is split the way the hardware splits it (Section 4.3):
// maskError is the activation component ANDing a raw error with this
// stage's f′ (computed from its buffered output d_l), and errorBackward is
// the error-array pass Wᵀδ that also accumulates this stage's partial
// derivatives from the buffered input d_{l-1}. The sequential executor
// drives both from the buffers forward leaves behind (see
// Accelerator.backwardStage).
type layerEngine interface {
	// forward runs one input through the stage and buffers the stage's
	// input and output for the backward pass.
	forward(x *tensor.Tensor) *tensor.Tensor
	// buffered returns the input and output of the last forward.
	buffered() (in, out *tensor.Tensor)
	// maskError applies this stage's activation derivative to a raw error,
	// using the buffered stage output.
	maskError(raw, output *tensor.Tensor) *tensor.Tensor
	// accumulate adds this stage's partial derivatives for (δ, buffered
	// input) to the gradient buffers — the gradient half of errorBackward.
	accumulate(delta, input *tensor.Tensor)
	// errorBackward accumulates this stage's gradients from (δ, buffered
	// input) and returns the raw upstream error Wᵀδ.
	errorBackward(delta, input *tensor.Tensor) *tensor.Tensor
	applyUpdate(lr float64, batch int, u *arch.UpdateUnit)
	// weights returns the stage's master parameter tensors (empty for
	// weight-free stages), for snapshotting and verification.
	weights() []*tensor.Tensor
	// cloneForInference returns an engine sharing the programmed arrays and
	// master weights but owning private activation buffers (lastIn/lastOut),
	// so independent images can stream through concurrently — the weight
	// replication of Section 3.2.3 applied to Test throughput. Clones must
	// only run forward.
	cloneForInference() layerEngine
	// forwardBatch runs a batch of independent inputs through the stage in
	// one readout pass. Element i of the result is bit-identical to
	// forward(xs[i]); unlike forward it never touches the lastIn/lastOut
	// training buffers, so it is safe on shared clones and needs no
	// per-request buffer copies.
	forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor
	// tick advances the drift age of the stage's arrays by n compute
	// cycles; no-op without an attached fault injector. Serial callers only.
	tick(n int64)
	// reprogram rewrites the stage's arrays from the float masters — the
	// drift-refresh tolerance mechanism.
	reprogram()
	// withFlight returns an engine whose forward crossbar records its
	// readouts as flight spans on the given track (depth-2 tracing). The
	// programmed codes stay shared; weight-free stages return themselves.
	withFlight(rec *flight.Recorder, track uint64) layerEngine
	// forwardCost is the stage's analytic forward work in MAC-equivalents —
	// the balance weight shard planning falls back to when no measured
	// per-stage telemetry is available.
	forwardCost() float64
}

// buildEngines lowers a float network onto analog layer engines. Supported
// sequence: Conv(+ReLU), MaxPool, Dense(+ReLU) — the trainable zoo. A
// non-nil injector wires the fault model into every array: weighted stage s
// owns array ids 2s (forward) and 2s+1 (error-backward).
func buildEngines(net *nn.Network, bits int, inj *fault.Injector) ([]layerEngine, error) {
	var engines []layerEngine
	layers := net.Layers
	stage := uint64(0)
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Dense:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			engines = append(engines, newDenseEngine(l, relu, bits, inj, stage))
			stage++
		case *nn.Conv:
			if _, _, _, _, _, stride, _ := l.Geometry(); stride != 1 {
				// The Figure 11 error-backward-as-convolution identity the
				// analog datapath implements holds for unit stride.
				return nil, fmt.Errorf("core: conv layer %s has stride %d; the analog backward path supports stride 1", l.Name(), stride)
			}
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			engines = append(engines, newConvEngine(l, relu, bits, inj, stage))
			stage++
		case *nn.MaxPool:
			inC, inH, inW, k := l.Geometry()
			engines = append(engines, &poolEngine{inC: inC, inH: inH, inW: inW, k: k})
		default:
			return nil, fmt.Errorf("core: unsupported layer type %T", l)
		}
	}
	return engines, nil
}

// denseEngine is an inner-product stage: a forward array pair (in×out) and
// an error-backward array pair holding Wᵀ (out×in), per Section 4.3.
type denseEngine struct {
	in, out int
	relu    bool
	bits    int

	w    *tensor.Tensor // float master copy (host shadow of the arrays)
	bias *tensor.Tensor
	fwd  *arch.Quantized // rows=in, cols=out
	bwd  *arch.Quantized // rows=out, cols=in

	gradW *tensor.Tensor
	gradB *tensor.Tensor

	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor

	inj          *fault.Injector
	fwdID, bwdID uint64
}

func newDenseEngine(l *nn.Dense, relu bool, bits int, inj *fault.Injector, stage uint64) *denseEngine {
	e := &denseEngine{
		in: l.In(), out: l.Out(), relu: relu, bits: bits,
		w:     l.Weights().Value.Clone(), // (out, in)
		bias:  l.Bias().Value.Clone(),
		gradW: tensor.New(l.Out(), l.In()),
		gradB: tensor.New(l.Out()),
		inj:   inj, fwdID: 2 * stage, bwdID: 2*stage + 1,
	}
	e.program()
	return e
}

// program (re)writes both array pairs from the float master weights. The
// arrays are created once and reprogrammed in place thereafter, so fault
// state (stuck maps, wear counters, remap tables, drift age) persists across
// the per-batch updates exactly as physical silicon would.
func (e *denseEngine) program() {
	if e.fwd == nil {
		e.fwd = arch.NewQuantized(tensor.Transpose(e.w), e.in, e.out, e.bits)
		e.bwd = arch.NewQuantized(e.w, e.out, e.in, e.bits)
		if e.inj != nil {
			e.fwd.AttachFaults(e.inj, e.fwdID)
			e.bwd.AttachFaults(e.inj, e.bwdID)
		}
		return
	}
	e.fwd.Program(tensor.Transpose(e.w))
	e.bwd.Program(e.w)
}

func (e *denseEngine) tick(n int64) {
	if e.inj != nil {
		e.fwd.Tick(n)
		e.bwd.Tick(n)
	}
}

func (e *denseEngine) reprogram() { e.program() }

func (e *denseEngine) weights() []*tensor.Tensor { return []*tensor.Tensor{e.w, e.bias} }

func (e *denseEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *denseEngine) forwardCost() float64 { return float64(e.in) * float64(e.out) }

func (e *denseEngine) withFlight(rec *flight.Recorder, track uint64) layerEngine {
	c := *e
	c.fwd = e.fwd.WithFlight(rec, track)
	return &c
}

func (e *denseEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	flat := x.Reshape(e.in)
	e.lastIn = flat.Clone()
	y := e.fwd.MatVec(flat)
	y.AddInPlace(e.bias)
	if e.relu {
		y.Apply(func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	}
	e.lastOut = y.Clone()
	return y
}

func (e *denseEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, e.lastOut }

func (e *denseEngine) maskError(raw, output *tensor.Tensor) *tensor.Tensor {
	if !e.relu {
		return raw
	}
	return arch.ReluBackward(raw.Reshape(e.out), output.Reshape(e.out))
}

func (e *denseEngine) accumulate(delta, input *tensor.Tensor) {
	d := delta.Reshape(e.out)
	in := input.Reshape(e.in)
	// ∂W = δ·d_{l-1}ᵀ and ∂b = δ accumulate in the gradient buffers.
	e.gradW.AddInPlace(tensor.Outer(d, in))
	e.gradB.AddInPlace(d)
}

func (e *denseEngine) errorBackward(delta, input *tensor.Tensor) *tensor.Tensor {
	e.accumulate(delta, input)
	// δ_{l-1} = Wᵀδ through the error array pair.
	return e.bwd.MatVec(delta.Reshape(e.out))
}

func (e *denseEngine) applyUpdate(lr float64, batch int, u *arch.UpdateUnit) {
	scale := e.w.AbsMax() * 2
	if scale == 0 {
		scale = 1
	}
	u.Apply(e.w, e.gradW, lr, batch, scale)
	// Bias registers update digitally (the paper keeps bias in the extra
	// word line; the averaged gradient applies the same way).
	e.bias.AxpyInPlace(-lr/float64(batch), e.gradB)
	e.gradW.Zero()
	e.gradB.Zero()
	e.program()
}

// convEngine is a convolution stage: a forward array pair holding the kernel
// matrix and an error array pair holding the reordered kernels (W)* of
// Figure 11; derivatives follow Figure 12 on the buffered d and δ.
type convEngine struct {
	inC, inH, inW, outC int
	k, stride, pad      int
	relu                bool
	bits                int

	w    *tensor.Tensor // (outC, inC, k, k) float master
	bias *tensor.Tensor
	fwd  *arch.Quantized // rows=inC·k·k, cols=outC
	bwd  *arch.Quantized // rows=outC·k·k, cols=inC (reordered kernels)

	gradW *tensor.Tensor
	gradB *tensor.Tensor

	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor

	inj          *fault.Injector
	fwdID, bwdID uint64
}

func newConvEngine(l *nn.Conv, relu bool, bits int, inj *fault.Injector, stage uint64) *convEngine {
	inC, inH, inW, outC, k, stride, pad := l.Geometry()
	e := &convEngine{
		inC: inC, inH: inH, inW: inW, outC: outC,
		k: k, stride: stride, pad: pad, relu: relu, bits: bits,
		w:     l.Weights().Value.Clone(),
		bias:  l.Bias().Value.Clone(),
		gradW: tensor.New(outC, inC, k, k),
		gradB: tensor.New(outC),
		inj:   inj, fwdID: 2 * stage, bwdID: 2*stage + 1,
	}
	e.program()
	return e
}

// program (re)writes both array pairs; like denseEngine, the arrays persist
// across reprograms so the fault model sees every write.
func (e *convEngine) program() {
	wmat := e.w.Reshape(e.outC, e.inC*e.k*e.k)
	back := arch.BackwardKernels(e.w) // (inC, outC, k, k)
	bmat := back.Reshape(e.inC, e.outC*e.k*e.k)
	if e.fwd == nil {
		e.fwd = arch.NewQuantized(tensor.Transpose(wmat), e.inC*e.k*e.k, e.outC, e.bits)
		e.bwd = arch.NewQuantized(tensor.Transpose(bmat), e.outC*e.k*e.k, e.inC, e.bits)
		if e.inj != nil {
			e.fwd.AttachFaults(e.inj, e.fwdID)
			e.bwd.AttachFaults(e.inj, e.bwdID)
		}
		return
	}
	e.fwd.Program(tensor.Transpose(wmat))
	e.bwd.Program(tensor.Transpose(bmat))
}

func (e *convEngine) tick(n int64) {
	if e.inj != nil {
		e.fwd.Tick(n)
		e.bwd.Tick(n)
	}
}

func (e *convEngine) reprogram() { e.program() }

func (e *convEngine) weights() []*tensor.Tensor { return []*tensor.Tensor{e.w, e.bias} }

func (e *convEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *convEngine) forwardCost() float64 {
	oh, ow := e.outShape()
	return float64(e.outC) * float64(e.inC) * float64(e.k*e.k) * float64(oh*ow)
}

func (e *convEngine) withFlight(rec *flight.Recorder, track uint64) layerEngine {
	c := *e
	c.fwd = e.fwd.WithFlight(rec, track)
	return &c
}

func (e *convEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	e.lastIn = x.Clone()
	out := e.plane(x)
	e.lastOut = out.Clone()
	return out
}

// plane runs one input through the stage in a single array cycle, the
// intra-layer parallelism of Section 3.2.3: Im2Col lays every window out as
// a column, and MatVecCols quantizes each column against its own absolute
// maximum — exactly as a per-window MatVec would — so one readout covers the
// whole output plane.
func (e *convEngine) plane(x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	nwin := oh * ow
	y := e.fwd.MatVecCols(tensor.Im2Col(x, e.k, e.k, e.stride, e.pad)) // (outC × nwin)
	out := y.Reshape(e.outC, oh, ow)
	od := out.Data()
	for c, b := range e.bias.Data() {
		for i := c * nwin; i < (c+1)*nwin; i++ {
			v := od[i] + b
			if e.relu && v < 0 {
				v = 0
			}
			od[i] = v
		}
	}
	return out
}

func (e *convEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, e.lastOut }

func (e *convEngine) outShape() (int, int) {
	return tensor.ConvOutDim(e.inH, e.k, e.stride, e.pad), tensor.ConvOutDim(e.inW, e.k, e.stride, e.pad)
}

func (e *convEngine) maskError(raw, output *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	r := raw.Reshape(e.outC, oh, ow)
	if !e.relu {
		return r
	}
	return arch.ReluBackward(r, output.Reshape(e.outC, oh, ow))
}

func (e *convEngine) accumulate(delta, input *tensor.Tensor) {
	oh, ow := e.outShape()
	d := delta.Reshape(e.outC, oh, ow)
	in := input.Reshape(e.inC, e.inH, e.inW)
	// ∂b and ∂W accumulate (Figure 12 — the buffered d acts as the kernel).
	for c := 0; c < e.outC; c++ {
		s := 0.0
		plane := d.Data()[c*oh*ow : (c+1)*oh*ow]
		for _, v := range plane {
			s += v
		}
		e.gradB.Data()[c] += s
	}
	e.gradW.AddInPlace(arch.ConvDerivative(in, d, e.k, e.pad))
}

func (e *convEngine) errorBackward(delta, input *tensor.Tensor) *tensor.Tensor {
	e.accumulate(delta, input)
	// δ_{l-1} = conv2(δ, rot180(K), 'full') through the error arrays: the
	// padded error's Im2Col plane drives the reordered-kernel array pair in
	// one readout, whose (inC × windows) result is the full-size error.
	oh, ow := e.outShape()
	padded := tensor.Pad2D(delta.Reshape(e.outC, oh, ow), e.k-1)
	fh := padded.Dim(1) - e.k + 1
	fw := padded.Dim(2) - e.k + 1
	full := e.bwd.MatVecCols(tensor.Im2Col(padded, e.k, e.k, 1, 0)).Reshape(e.inC, fh, fw)
	if e.pad > 0 {
		full = tensor.Crop2D(full, e.pad)
	}
	return full
}

func (e *convEngine) applyUpdate(lr float64, batch int, u *arch.UpdateUnit) {
	scale := e.w.AbsMax() * 2
	if scale == 0 {
		scale = 1
	}
	u.Apply(e.w, e.gradW, lr, batch, scale)
	e.bias.AxpyInPlace(-lr/float64(batch), e.gradB)
	e.gradW.Zero()
	e.gradB.Zero()
	e.program()
}

// poolEngine is a max-pooling stage; backward routes errors to the stored
// window maxima (Figure 10b).
type poolEngine struct {
	inC, inH, inW, k int
	lastIn           *tensor.Tensor
}

func (e *poolEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	e.lastIn = x.Clone()
	return e.pool(x)
}

func (e *poolEngine) pool(x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.inH/e.k, e.inW/e.k
	out := tensor.New(e.inC, oh, ow)
	xd, od := x.Data(), out.Data()
	for c := 0; c < e.inC; c++ {
		plane := xd[c*e.inH*e.inW : (c+1)*e.inH*e.inW]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				corner := oy*e.k*e.inW + ox*e.k
				best := plane[corner]
				for ky := 0; ky < e.k; ky++ {
					for _, v := range plane[corner+ky*e.inW : corner+ky*e.inW+e.k] {
						if v > best {
							best = v
						}
					}
				}
				od[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

func (e *poolEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, nil }

func (e *poolEngine) maskError(raw, _ *tensor.Tensor) *tensor.Tensor {
	return raw.Reshape(e.inC, e.inH/e.k, e.inW/e.k)
}

func (e *poolEngine) errorBackward(delta, input *tensor.Tensor) *tensor.Tensor {
	return arch.MaxPoolBackward(
		delta.Reshape(e.inC, e.inH/e.k, e.inW/e.k),
		input.Reshape(e.inC, e.inH, e.inW), e.k)
}

func (e *poolEngine) accumulate(*tensor.Tensor, *tensor.Tensor) {}

func (e *poolEngine) applyUpdate(float64, int, *arch.UpdateUnit) {}

func (e *poolEngine) tick(int64) {}

func (e *poolEngine) reprogram() {}

func (e *poolEngine) weights() []*tensor.Tensor { return nil }

func (e *poolEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *poolEngine) forwardCost() float64 { return float64(e.inC) * float64(e.inH) * float64(e.inW) }

func (e *poolEngine) withFlight(*flight.Recorder, uint64) layerEngine { return e }
