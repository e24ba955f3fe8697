package arch

import (
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

// Error-backward datapaths of the paper's Section 4.3 (Figure 10/11).

// ReluBackward is the activation error backward of Figure 10(a): with ReLU,
// f'(u) ∈ {0,1} and f'(u_l) = f'(d_l), so the error is ANDed with the sign
// of the stored forward output — no u_l needs to be buffered.
func ReluBackward(delta, d *tensor.Tensor) *tensor.Tensor {
	if delta.Size() != d.Size() {
		panic("arch: ReluBackward operands differ in size")
	}
	out := tensor.New(delta.Shape()...)
	parallel.Default().For(delta.Size(), parallel.Grain(1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d.Data()[i] > 0 {
				out.Data()[i] = delta.Data()[i]
			}
		}
	})
	return out
}

// MaxPoolBackward is the pooling error backward of Figure 10(b): each error
// element is copied to the position of the window maximum of the stored
// d_{l-1} (found with the index logic of the activation component) and the
// other positions get zero.
func MaxPoolBackward(delta, dPrev *tensor.Tensor, k int) *tensor.Tensor {
	c, oh, ow := delta.Dim(0), delta.Dim(1), delta.Dim(2)
	ih, iw := dPrev.Dim(1), dPrev.Dim(2)
	if dPrev.Dim(0) != c || ih != oh*k || iw != ow*k {
		panic("arch: MaxPoolBackward shapes inconsistent")
	}
	out := tensor.New(c, ih, iw)
	dd, pd, od := delta.Data(), dPrev.Data(), out.Data()
	// Channels scatter into disjoint planes of out, so they chunk safely.
	parallel.Default().For(c, parallel.Grain(oh*ow*k*k), func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			plane := pd[ci*ih*iw : (ci+1)*ih*iw]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					corner := oy*k*iw + ox*k
					bestAt := corner
					best := plane[corner]
					for ky := 0; ky < k; ky++ {
						row := corner + ky*iw
						for kx, v := range plane[row : row+k] {
							if v > best {
								best, bestAt = v, row+kx
							}
						}
					}
					od[ci*ih*iw+bestAt] = dd[(ci*oh+oy)*ow+ox]
				}
			}
		}
	})
	return out
}

// BackwardKernels builds the reordered kernel bank (W^l)* of Figure 11: the
// error backward through a convolution is itself a convolution,
// δ_{l-1} = conv2(δ_l, rot180(K), 'full'), whose kernels swap the in/out
// channel roles of K and rotate each plane by 180°. The result can be mapped
// to ReRAM arrays with the ordinary forward mapping scheme.
func BackwardKernels(k *tensor.Tensor) *tensor.Tensor {
	oc, ic, kh, kw := k.Dim(0), k.Dim(1), k.Dim(2), k.Dim(3)
	r := tensor.Rot180(k)
	out := tensor.New(ic, oc, kh, kw)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					out.Set(r.At(o, i, y, x), i, o, y, x)
				}
			}
		}
	}
	return out
}

// ConvErrorBackward computes δ_{l-1} from δ_l exactly as PipeLayer does:
// zero-pad the error by K−1 on each edge (Figure 11) and convolve with the
// reordered kernels using the standard forward datapath. Valid for unit
// stride (the zoo's convolution layers).
func ConvErrorBackward(delta, kernels *tensor.Tensor, pad int) *tensor.Tensor {
	k := kernels.Dim(2)
	back := BackwardKernels(kernels)
	// 'full' correlation with rot180 kernels: pad by K−1; the layer's own
	// forward padding shrinks the result back via cropping.
	full := tensor.Conv2D(delta, back, nil, 1, k-1)
	if pad > 0 {
		full = tensor.Crop2D(full, pad)
	}
	return full
}

// ConvDerivative computes the partial derivative ∂W of one convolution layer
// as the paper's Figure 12 describes: the stored input d_{l-1} acts as the
// convolution data and the error δ_l as the kernel — each (inC, outC) plane
// of ∂W is the valid correlation of the input channel with the error
// channel. Valid for unit stride.
func ConvDerivative(dPrev, delta *tensor.Tensor, k, pad int) *tensor.Tensor {
	inC := dPrev.Dim(0)
	outC := delta.Dim(0)
	oh, ow := delta.Dim(1), delta.Dim(2)
	x := tensor.Pad2D(dPrev, pad)
	xh, xw := x.Dim(1), x.Dim(2)
	xd, dd := x.Data(), delta.Data()
	dW := tensor.New(outC, inC, k, k)
	wd := dW.Data()
	// Each output-channel plane of ∂W is independent (its own error channel
	// correlated against every input channel), so outC is the parallel unit;
	// every (o,c,ky,kx) reduction keeps its serial y/x accumulation order.
	parallel.Default().For(outC, parallel.Grain(inC*k*k*oh*ow), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			errPlane := dd[o*oh*ow : (o+1)*oh*ow]
			for c := 0; c < inC; c++ {
				inPlane := xd[c*xh*xw : (c+1)*xh*xw]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						s := 0.0
						for y := 0; y < oh; y++ {
							in := inPlane[(y+ky)*xw+kx : (y+ky)*xw+kx+ow]
							for xx, d := range errPlane[y*ow : (y+1)*ow] {
								s += in[xx] * d
							}
						}
						wd[((o*inC+c)*k+ky)*k+kx] = s
					}
				}
			}
		}
	})
	return dW
}
