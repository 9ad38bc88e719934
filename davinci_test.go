package davinci

import (
	"errors"
	"math/rand"
	"testing"

	"davinci/internal/ref"
	"davinci/internal/tensor"
)

func TestQuickstartFlow(t *testing.T) {
	dev := NewDevice(ChipConfig{Cores: 2})
	rng := rand.New(rand.NewSource(1))
	in := NewRandomInput(rng, 1, 20, 24, 24, 4)
	p := WithInput(Pooling2D(3, 2, 0), 24, 24)

	out, stats, err := dev.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[2] != 11 || out.Shape[3] != 11 {
		t.Fatalf("output shape %v", out.Shape)
	}
	if stats.Cycles <= 0 || stats.Tiles != 2 {
		t.Errorf("stats %+v", stats)
	}
	if tensor.MaxAbsDiff(out, ref.MaxPoolForward(in, p)) != 0 {
		t.Error("facade output diverges from reference")
	}
	// An input that does not fit the layer is an error Device users can
	// match.
	if _, _, err := dev.MaxPoolForward("im2col", in, WithInput(Pooling2D(3, 2, 0), 25, 24)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("mismatched input: err = %v, want ErrInvalidInput", err)
	}
}

func TestLayoutRoundTripThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := NewNCHW(1, 20, 6, 7)
	x.FillRandom(rng, 2)
	back := ToNCHW(FromNCHW(x), 20)
	if tensor.MaxAbsDiff(x, back) != 0 {
		t.Error("NCHW round trip failed")
	}
}

func TestPooling2DBuilders(t *testing.T) {
	p := WithInput(Pooling2D(3, 2, 1), 35, 33)
	if p.Kh != 3 || p.Sw != 2 || p.Pt != 1 || p.Ih != 35 || p.Iw != 33 {
		t.Errorf("builder wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestVariantLists(t *testing.T) {
	if len(ForwardVariants()) != 4 || len(ArgmaxVariants()) != 2 ||
		len(BackwardVariants()) != 2 || len(AvgVariants()) != 3 {
		t.Error("variant lists wrong")
	}
	dev := NewDevice(ChipConfig{Cores: 1})
	rng := rand.New(rand.NewSource(3))
	in := NewRandomInput(rng, 1, 16, 12, 12, 4)
	p := WithInput(Pooling2D(2, 2, 0), 12, 12)
	for _, v := range ForwardVariants() {
		if _, _, err := dev.MaxPoolForward(v, in, p); err != nil {
			t.Errorf("variant %s: %v", v, err)
		}
	}
}

func TestTrainingRoundTripThroughFacade(t *testing.T) {
	dev := NewDevice(ChipConfig{Cores: 1})
	rng := rand.New(rand.NewSource(4))
	in := NewRandomInput(rng, 1, 16, 14, 14, 4)
	p := WithInput(Pooling2D(3, 2, 0), 14, 14)

	out, mask, _, err := dev.MaxPoolForwardArgmax("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	grad := NewInput(1, 16, out.Shape[2], out.Shape[3])
	grad.Fill(0x3c00) // 1.0
	back, _, err := dev.MaxPoolBackward("col2im", mask, grad, p)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.MaxPoolBackward(mask, grad, p, 14, 14)
	if tensor.MaxAbsDiff(back, want) != 0 {
		t.Error("training round trip diverges")
	}
}
