package davinci_test

import (
	"testing"

	"davinci"
)

// FuzzConvParams drives MaxPoolForward through the public Device API with
// arbitrary layer parameters. The contract under fuzzing:
//
//   - no parameter combination may panic or hang the chip — malformed
//     layers must be rejected by validation at the chip entry points;
//   - success implies the parameters validate and the output has the
//     analytically expected pooled shape;
//   - parameters that fail ConvParams.Validate must be rejected.
//
// Magnitudes are folded into a small range so each iteration stays cheap
// (large sizes only grow the tensors; the interesting boundaries — zero,
// negative, pad >= kernel, kernel > padded input — survive the fold).
func FuzzConvParams(f *testing.F) {
	f.Add(8, 8, 3, 3, 2, 2, 0, 0, 0, 0)   // clean stride-2 pool
	f.Add(16, 16, 2, 2, 2, 2, 1, 1, 1, 1) // VGG16-style with padding
	f.Add(35, 35, 3, 3, 2, 2, 0, 0, 0, 0) // Table I InceptionV3 pool 3
	f.Add(0, 5, 3, 3, 2, 2, 0, 0, 0, 0)   // zero input height
	f.Add(8, 8, -1, 3, 1, 1, 0, 0, 0, 0)  // negative kernel
	f.Add(8, 8, 3, 3, 0, 2, 0, 0, 0, 0)   // zero stride
	f.Add(8, 8, 3, 3, 1, 1, 3, 3, 3, 3)   // pad >= kernel
	f.Add(2, 2, 8, 8, 1, 1, 0, 0, 0, 0)   // kernel > input
	f.Fuzz(func(t *testing.T, ih, iw, kh, kw, sh, sw, pt, pb, pl, pr int) {
		fold := func(v, lo, hi int) int {
			span := hi - lo + 1
			m := (v-lo)%span + lo
			if m < lo {
				m += span
			}
			return m
		}
		p := davinci.PoolParams{
			Ih: fold(ih, -2, 24), Iw: fold(iw, -2, 24),
			Kh: fold(kh, -2, 6), Kw: fold(kw, -2, 6),
			Sh: fold(sh, -2, 6), Sw: fold(sw, -2, 6),
			Pt: fold(pt, -2, 4), Pb: fold(pb, -2, 4),
			Pl: fold(pl, -2, 4), Pr: fold(pr, -2, 4),
		}
		// The input matches the declared size when that size is sane;
		// otherwise validation must reject p before the shape can matter.
		h, w := p.Ih, p.Iw
		if h < 1 {
			h = 1
		}
		if w < 1 {
			w = 1
		}
		// A fresh device per iteration: the plan cache must not accrete
		// one compiled kernel per fuzz input across the run.
		dev := davinci.NewDevice(davinci.ChipConfig{Cores: 2})
		in := davinci.NewInput(1, 16, h, w)
		out, _, err := dev.MaxPoolForward("im2col", in, p)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("run succeeded for invalid params %+v: %v", p, verr)
		}
		oh, ow := p.OutDims()
		want := []int{1, 1, oh, ow, davinci.C0}
		if len(out.Shape) != 5 {
			t.Fatalf("output shape %v, want %v", out.Shape, want)
		}
		for i, d := range want {
			if out.Shape[i] != d {
				t.Fatalf("output shape %v, want %v", out.Shape, want)
			}
		}
	})
}
