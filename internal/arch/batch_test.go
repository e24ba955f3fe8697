package arch

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

// TestMatVecColsBitIdentical: every column of the batched readout must match
// MatVec on that column alone, bit for bit — this is the contract the serving
// layer's "batched == serial" guarantee rests on. Covers zero columns (the
// serial path short-circuits them) and ragged shapes.
func TestMatVecColsBitIdentical(t *testing.T) {
	cases := []struct{ rows, cols, n int }{
		{1, 1, 1},
		{23, 11, 1},
		{23, 11, 5},
		{64, 17, 16},
		{7, 31, 3},
		{301, 5, 1}, // several row tiles, rows not a multiple of 4
		{301, 5, 11},
		{130, 7, 21}, // vector readout: 16- and 4-column kernels, padded rows
		{25, 20, 37},
	}
	for _, tc := range cases {
		w := randTensor(tc.rows*tc.cols, int64(tc.rows*1000+tc.n))
		q := NewQuantized(w, tc.rows, tc.cols, 16)

		vecs := make([]*tensor.Tensor, tc.n)
		rng := rand.New(rand.NewSource(int64(tc.cols)))
		for c := range vecs {
			if c == 1 {
				vecs[c] = tensor.New(tc.rows) // all-zero input column
				continue
			}
			v := tensor.New(tc.rows)
			for i := range v.Data() {
				x := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					x = 0 // exercise the zero-skip terms too
				}
				v.Data()[i] = x
			}
			vecs[c] = v
		}

		got := q.MatVecCols(PackCols(vecs))
		if got.Dim(0) != tc.cols || got.Dim(1) != tc.n {
			t.Fatalf("%dx%d n=%d: batched shape %v", tc.rows, tc.cols, tc.n, got.Shape())
		}
		for c, v := range vecs {
			want := q.MatVec(v)
			for j := 0; j < tc.cols; j++ {
				if got.At(j, c) != want.At(j) {
					t.Fatalf("%dx%d n=%d: out[%d] of column %d = %v, serial %v",
						tc.rows, tc.cols, tc.n, j, c, got.At(j, c), want.At(j))
				}
			}
		}
	}
}

// TestReadoutVectorMatchesScalar: the AVX2 readout must give the scalar
// readoutExact's bits for every column count the kernels split differently
// (1, the 4-lane padding, the 16-column blocks), for row counts off the
// unroll and tile sizes, and for output-column subranges.
func TestReadoutVectorMatchesScalar(t *testing.T) {
	if !vectorReadout {
		t.Skip("no vector readout on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	code := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return float64(rng.Intn(2*65535+1) - 65535)
	}
	for _, rows := range []int{1, 3, 17, 128, 129, 301, 784} {
		for _, n := range []int{1, 2, 3, 4, 5, 15, 16, 17, 21, 36} {
			const cols = 6
			stride := n
			if n > 1 {
				stride = (n + 3) &^ 3
			}
			codes := make([]float64, rows*cols)
			for i := range codes {
				codes[i] = code()
			}
			xq := make([]float64, rows*n)
			xqPad := make([]float64, rows*stride)
			for i := 0; i < rows; i++ {
				for c := 0; c < n; c++ {
					v := code()
					xq[i*n+c] = v
					xqPad[i*stride+c] = v
				}
			}
			ks := make([]float64, n)
			for c := range ks {
				ks[c] = rng.Float64() * 1e-9
			}
			for _, r := range [][2]int{{0, cols}, {2, 5}} {
				want := make([]float64, cols*n)
				got := make([]float64, cols*n)
				readoutExact(codes, xq, ks, want, rows, n, r[0], r[1])
				readoutVector(codes, xqPad, ks, got, rows, n, stride, r[0], r[1])
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("rows=%d n=%d cols %v: out[%d] = %v, scalar %v", rows, n, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatVecColsFaultyBitIdentical: the batched readout must consume the same
// effective conductances, drift factor and column states as the serial path,
// so batching composes with fault injection without changing a single bit.
func TestMatVecColsFaultyBitIdentical(t *testing.T) {
	const rows, cols, bits, n = 24, 13, 16, 6
	inj := fault.MustNew(fault.Config{
		Seed: 17, StuckOff: 0.002, StuckOn: 0.001,
		Drift: 0.05, Spares: 2, Degrade: true,
	})
	q := NewQuantized(randTensor(rows*cols, 21), rows, cols, bits)
	q.AttachFaults(inj, 1)
	q.Tick(1000) // age the array so drift != 1

	vecs := make([]*tensor.Tensor, n)
	for c := range vecs {
		vecs[c] = randTensor(rows, int64(100+c))
	}
	got := q.MatVecCols(PackCols(vecs))
	for c, v := range vecs {
		want := q.MatVec(v)
		for j := 0; j < cols; j++ {
			if got.At(j, c) != want.At(j) {
				t.Fatalf("faulty column %d out[%d] = %v, serial %v", c, j, got.At(j, c), want.At(j))
			}
		}
	}
}

// TestMatVecColsWorkersDeterministic: the batched readout is bit-identical
// across worker counts, like every other hot path in the repo.
func TestMatVecColsWorkersDeterministic(t *testing.T) {
	const rows, cols, n = 48, 29, 8
	q := NewQuantized(randTensor(rows*cols, 5), rows, cols, 16)
	x := PackCols(func() []*tensor.Tensor {
		vs := make([]*tensor.Tensor, n)
		for c := range vs {
			vs[c] = randTensor(rows, int64(c+1))
		}
		return vs
	}())

	saved := parallel.Workers()
	defer parallel.SetWorkers(saved)

	parallel.SetWorkers(1)
	want := q.MatVecCols(x)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		parallel.SetWorkers(workers)
		if got := q.MatVecCols(x); !tensor.Equal(got, want, 0) {
			t.Fatalf("workers=%d: batched readout diverged from workers=1", workers)
		}
	}
}

// TestMatVecColsShapePanic: a row-count mismatch must fail loudly with the
// array geometry in the message, matching MatVec's contract.
func TestMatVecColsShapePanic(t *testing.T) {
	q := NewQuantized(randTensor(6, 1), 3, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("MatVecCols accepted a mismatched input")
		}
	}()
	q.MatVecCols(tensor.New(4, 2))
}
