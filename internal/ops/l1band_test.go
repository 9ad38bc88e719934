package ops

import (
	"math/rand"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/ref"
	"davinci/internal/tensor"
)

// tinyL1Core forces the banded-L1 streaming path even on small inputs.
func tinyL1Core() *aicore.Core {
	return aicore.New(buffer.Config{L1Size: 8 << 10, UBSize: 64 << 10}, nil)
}

func TestIm2colKernelsWithBandedL1(t *testing.T) {
	// 40x40x16x2B = 50 KiB input against an 8 KiB L1: several row windows.
	grid := []isa.ConvParams{
		{Ih: 40, Iw: 40, Kh: 3, Kw: 3, Sh: 2, Sw: 2},
		{Ih: 40, Iw: 40, Kh: 3, Kw: 3, Sh: 1, Sw: 1},
		{Ih: 33, Iw: 41, Kh: 2, Kw: 3, Sh: 3, Sw: 2},
		{Ih: 38, Iw: 38, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	}
	for _, p := range grid {
		in := randTile(int64(p.Ih+p.Iw), p)
		wantMax := ref.MaxPoolForward(in, p)

		got, st, err := runKernel(tinyL1Core(), "maxpool_fwd/im2col", p, in)
		if err != nil {
			t.Fatalf("maxpool %+v: %v", p, err)
		}
		if tensor.MaxAbsDiff(got, wantMax) != 0 {
			t.Errorf("maxpool %+v: banded-L1 output diverges", p)
		}
		if st.PipeInstrs[isa.PipeMTE2] < 3 {
			t.Errorf("maxpool %+v: expected multiple banded loads, got %d MTE2 instrs", p, st.PipeInstrs[isa.PipeMTE2])
		}

		gotAvg, _, err := runKernel(tinyL1Core(), "avgpool_fwd/im2col", p, in)
		if err != nil {
			t.Fatalf("avgpool %+v: %v", p, err)
		}
		if tensor.MaxAbsDiff(gotAvg, ref.AvgPoolForward(in, p)) != 0 {
			t.Errorf("avgpool %+v: banded-L1 output diverges", p)
		}

		outs, _, err := runPlan(tinyL1Core(), pooling("maxpool_fwd_argmax/im2col", p), in)
		if err != nil {
			t.Fatalf("argmax %+v: %v", p, err)
		}
		outA, maskA := outs[0], outs[1]
		if tensor.MaxAbsDiff(outA, wantMax) != 0 {
			t.Errorf("argmax %+v: banded-L1 output diverges", p)
		}
		if tensor.MaxAbsDiff(maskA, ref.ArgmaxMask(in, p)) != 0 {
			t.Errorf("argmax %+v: banded-L1 mask diverges", p)
		}
	}
}

// TestVGG224RunsWithDefaultL1 covers the Table I layer whose input
// (224x224x16x2B per tile = 1.5 MiB) exceeds the 1 MiB L1: the banded-L1
// schedule must stream it.
func TestVGG224RunsWithDefaultL1(t *testing.T) {
	if testing.Short() {
		t.Skip("large layer")
	}
	p := isa.ConvParams{Ih: 224, Iw: 224, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	rng := rand.New(rand.NewSource(224))
	in := tensor.New(1, 1, 224, 224, tensor.C0)
	for i := 0; i < in.Len(); i++ {
		in.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(64))))
	}
	got, st, err := runKernel(newTestCore(), "maxpool_fwd/im2col", p, in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got, ref.MaxPoolForward(in, p)) != 0 {
		t.Error("VGG 224 output diverges")
	}
	// The standard kernel also runs; the k=s=(2,2) layer has no overlap, so
	// im2col still wins but by less than the k3s2 layers.
	_, stStd, err := runKernel(newTestCore(), "maxpool_fwd/standard", p, in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles >= stStd.Cycles {
		t.Errorf("VGG 224: im2col (%d) not faster than standard (%d)", st.Cycles, stStd.Cycles)
	}
	t.Logf("VGG16 224x224: standard %d cycles, im2col (banded L1) %d cycles (%.2fx)",
		stStd.Cycles, st.Cycles, float64(stStd.Cycles)/float64(st.Cycles))
}
