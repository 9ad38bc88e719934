package ops

import (
	"math/rand"
	"testing"

	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

func TestConvBackwardDataMatchesReference(t *testing.T) {
	cases := []struct {
		p     isa.ConvParams
		c, co int
	}{
		{isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}, 16, 16},
		{isa.ConvParams{Ih: 10, Iw: 12, Kh: 3, Kw: 3, Sh: 1, Sw: 1}, 16, 8},
		{isa.ConvParams{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1}, 20, 16},
		{isa.ConvParams{Ih: 12, Iw: 7, Kh: 2, Kw: 3, Sh: 2, Sw: 1}, 32, 24},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.c*100 + tc.co)))
		oh, ow := tc.p.OutDims()
		grad := tensor.New(1, tensor.C1Of(tc.co), oh, ow, tensor.C0)
		grad.FillRandom(rng, 1)
		// Zero the padded output channels, as a real upstream layer would.
		for oc := tc.co; oc < tensor.C1Of(tc.co)*tensor.C0; oc++ {
			for h := 0; h < oh; h++ {
				for w := 0; w < ow; w++ {
					grad.Set(0, 0, oc/tensor.C0, h, w, oc%tensor.C0)
				}
			}
		}
		weights := tensor.New(tc.co, tc.c, tc.p.Kh, tc.p.Kw)
		weights.FillRandom(rng, 0.5)

		got, st, err := runConvBwdData(newTestCore(), grad, weights, tc.p, tc.c)
		if err != nil {
			t.Fatalf("%+v: %v", tc.p, err)
		}
		want := ref.Conv2DBackwardData(grad, weights, tc.p, tc.c)
		if d := tensor.MaxAbsDiff(got, want); d > 0.1 {
			t.Errorf("%+v c=%d co=%d: max diff %v", tc.p, tc.c, tc.co, d)
		}
		if st.PipeInstrs[isa.PipeCube] == 0 {
			t.Errorf("%+v: backward did not use the Cube unit", tc.p)
		}
		if st.PipeInstrs[isa.PipeVector] == 0 {
			t.Errorf("%+v: backward did not use Col2Im (vector pipe idle)", tc.p)
		}
	}
}

// Gradient check: for a 1x1 stride-1 convolution, backward-data is exactly
// dX = dY x W^T per position; integer-valued tensors make the comparison
// bit-exact after the known single rounding.
func TestConvBackwardDataOneByOne(t *testing.T) {
	p := isa.ConvParams{Ih: 5, Iw: 5, Kh: 1, Kw: 1, Sh: 1, Sw: 1}
	rng := rand.New(rand.NewSource(7))
	grad := tensor.New(1, 1, 5, 5, tensor.C0)
	weights := tensor.New(16, 16, 1, 1)
	for i := 0; i < grad.Len(); i++ {
		grad.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
	}
	for i := 0; i < weights.Len(); i++ {
		weights.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(3))))
	}
	got, _, err := runConvBwdData(newTestCore(), grad, weights, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		for w := 0; w < 5; w++ {
			for ic := 0; ic < 16; ic++ {
				var want float32
				for oc := 0; oc < 16; oc++ {
					want += grad.At(0, 0, h, w, oc).Float32() * weights.At(oc, ic, 0, 0).Float32()
				}
				if gotV := got.At(0, 0, h, w, ic).Float32(); gotV != want {
					t.Fatalf("(%d,%d,%d) = %v, want %v", h, w, ic, gotV, want)
				}
			}
		}
	}
}

// Forward/backward adjointness: <conv(x), dy> == <x, convBwd(dy)> up to
// fp16/fp32 rounding — the defining property of a correct backward pass.
func TestConvBackwardAdjointness(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	rng := rand.New(rand.NewSource(13))
	x := tensor.New(1, 1, 8, 8, tensor.C0)
	weights := tensor.New(16, 16, 3, 3)
	oh, ow := p.OutDims()
	dy := tensor.New(1, 1, oh, ow, tensor.C0)
	for i := 0; i < x.Len(); i++ {
		x.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(3))))
	}
	for i := 0; i < weights.Len(); i++ {
		weights.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(2))))
	}
	for i := 0; i < dy.Len(); i++ {
		dy.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(3))))
	}
	y, _, err := runConv(newTestCore(), x, weights, p)
	if err != nil {
		t.Fatal(err)
	}
	dx, _, err := runConvBwdData(newTestCore(), dy, weights, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	var lhs, rhs float64
	for i := 0; i < y.Len(); i++ {
		lhs += fp16.ToFloat64(y.AtFlat(i)) * fp16.ToFloat64(dy.AtFlat(i))
	}
	for i := 0; i < x.Len(); i++ {
		rhs += fp16.ToFloat64(x.AtFlat(i)) * fp16.ToFloat64(dx.AtFlat(i))
	}
	diff := lhs - rhs
	if diff < 0 {
		diff = -diff
	}
	rel := diff / (1 + lhs)
	if rel > 0.02 {
		t.Errorf("adjointness violated: <y,dy>=%v, <x,dx>=%v", lhs, rhs)
	}
}

func TestConvBackwardRejectsBadShapes(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	core := newTestCore()
	w := tensor.New(16, 16, 2, 2)
	// Wrong gradient spatial extent.
	if _, _, err := runConvBwdData(core, tensor.New(1, 1, 3, 3, tensor.C0), w, p, 16); err == nil {
		t.Error("bad gradient shape accepted")
	}
	// Co1 mismatch.
	if _, _, err := runConvBwdData(core, tensor.New(1, 2, 4, 4, tensor.C0), w, p, 16); err == nil {
		t.Error("Co1 mismatch accepted")
	}
	// Channel count mismatch.
	if _, _, err := runConvBwdData(core, tensor.New(1, 1, 4, 4, tensor.C0), w, p, 32); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestPackWeightsBackward(t *testing.T) {
	p := isa.ConvParams{Ih: 4, Iw: 4, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	w := tensor.New(18, 17, 2, 2)
	w.FillSeq()
	f := PackWeightsBackward(w, p)
	if f.Shape[0] != 2 || f.Shape[1] != 2*2*2 {
		t.Fatalf("fractal shape %v", f.Shape)
	}
	// weights[oc=17, ic=16, xk=0, yk=1] -> fractal (co1=1, n=(1,0,1)=5),
	// row 17%16=1, col 16%16=0.
	if f.At(1, 5, 1, 0) != w.At(17, 16, 0, 1) {
		t.Error("backward packing misplaced an element")
	}
	// Padding beyond Co/C is zero.
	if f.At(1, 0, 5, 0) != 0 {
		t.Error("Co padding not zero")
	}
}
