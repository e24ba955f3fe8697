package arch

// vectorReadout reports whether the fault-free batched readout runs on the
// AVX2 multiply-add kernels below; without AVX2 and FMA it stays on the
// scalar readoutExact loop.
var vectorReadout = hasAVX2FMA()

func hasAVX2FMA() bool

// fmaCols16 accumulates acc[0:16] += Σ_{i<k} w[i]·x[i*stride : i*stride+16].
//
//go:noescape
func fmaCols16(w, x *float64, k, stride int, acc *float64)

// fmaCols4 accumulates acc[0:4] += Σ_{i<k} w[i]·x[i*stride : i*stride+4].
//
//go:noescape
func fmaCols4(w, x *float64, k, stride int, acc *float64)

// dotRows returns Σ_{i<k} w[i]·x[i].
//
//go:noescape
func dotRows(w, x *float64, k int) float64
