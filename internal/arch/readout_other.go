//go:build !amd64

package arch

// Off amd64 the fault-free batched readout always runs the scalar
// readoutExact loop; the kernels are never called.
const vectorReadout = false

func fmaCols16(w, x *float64, k, stride int, acc *float64) { panic("arch: no vector readout") }

func fmaCols4(w, x *float64, k, stride int, acc *float64) { panic("arch: no vector readout") }

func dotRows(w, x *float64, k int) float64 { panic("arch: no vector readout") }
