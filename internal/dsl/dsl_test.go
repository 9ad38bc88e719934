package dsl

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

// listing1 defines MaxPool exactly as Listing 1 of the paper.
func listing1(n, c1, ih, iw, kh, kw, sh, sw int) (*Placeholder, *Computation) {
	p := isa.ConvParams{Ih: ih, Iw: iw, Kh: kh, Kw: kw, Sh: sh, Sw: sw}
	oh, ow := p.OutDims()
	input := NewPlaceholder("input", n, c1, ih, iw, tensor.C0)
	redH := ReduceAxis("red_h", kh)
	redW := ReduceAxis("red_w", kw)
	output := Compute("output", []int{n, c1, oh, ow, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Max(input.At(nn, cc, h.Mul(sh).AddAxis(redH), w.Mul(sw).AddAxis(redW), c0), redH, redW)
	})
	return input, output
}

func newCore() *aicore.Core { return aicore.New(buffer.Config{}, nil) }

func TestEvalMatchesReference(t *testing.T) {
	input, output := listing1(1, 2, 12, 10, 3, 3, 2, 2)
	rng := rand.New(rand.NewSource(1))
	in := tensor.New(1, 2, 12, 10, tensor.C0)
	in.FillRandom(rng, 4)
	got, err := Eval(output, map[*Placeholder]*tensor.Tensor{input: in})
	if err != nil {
		t.Fatal(err)
	}
	p := isa.ConvParams{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	want := ref.MaxPoolForward(in, p)
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Error("interpreter diverges from reference model")
	}
}

func TestAnalyzeRecoversParams(t *testing.T) {
	_, output := listing1(1, 1, 35, 33, 3, 2, 2, 3)
	pat, err := analyzePool(output)
	if err != nil {
		t.Fatal(err)
	}
	if pat.p.Kh != 3 || pat.p.Kw != 2 || pat.p.Sh != 2 || pat.p.Sw != 3 {
		t.Errorf("recovered %+v", pat.p)
	}
	if pat.op != ReduceMax || pat.p.Pt != 0 || pat.p.Pl != 0 {
		t.Errorf("recovered %+v op %v", pat.p, pat.op)
	}
}

func TestAnalyzeRecoversPadding(t *testing.T) {
	// SAME-padded maxpool: index h*1 + rh - 1.
	input := NewPlaceholder("input", 1, 1, 8, 8, tensor.C0)
	redH := ReduceAxis("red_h", 3)
	redW := ReduceAxis("red_w", 3)
	output := Compute("output", []int{1, 1, 8, 8, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Max(input.At(nn, cc,
			h.AddAxis(redH).Add(Const(-1)),
			w.AddAxis(redW).Add(Const(-1)), c0), redH, redW)
	})
	pat, err := analyzePool(output)
	if err != nil {
		t.Fatal(err)
	}
	if pat.p.Pt != 1 || pat.p.Pl != 1 || pat.p.Pb != 1 || pat.p.Pr != 1 {
		t.Errorf("recovered padding %+v", pat.p)
	}
}

// The four schedules of the same algorithm must all match the interpreter
// bit for bit: schedules change performance, never results (§IV-A).
func TestAllSchedulesAgreeWithInterpreter(t *testing.T) {
	input, output := listing1(1, 2, 14, 14, 3, 3, 2, 2)
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(1, 2, 14, 14, tensor.C0)
	in.FillRandom(rng, 4)
	binding := map[*Placeholder]*tensor.Tensor{input: in}
	want, err := Eval(output, binding)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]*Schedule{
		"standard":  CreateSchedule(output),
		"im2col":    CreateSchedule(output).TensorizeIm2col(),
		"expansion": CreateSchedule(output).Expand(),
		"xysplit":   CreateSchedule(output).SplitXY(),
	}
	cycles := map[string]int64{}
	for name, s := range schedules {
		got, st, err := Build(newCore(), s, binding)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Errorf("%s: lowered kernel diverges from the algorithm", name)
		}
		cycles[name] = st.Cycles
	}
	if cycles["im2col"] >= cycles["standard"] {
		t.Errorf("im2col schedule (%d) not faster than standard (%d)", cycles["im2col"], cycles["standard"])
	}
}

func TestAvgPoolWithScaleEpilogue(t *testing.T) {
	p := isa.ConvParams{Ih: 12, Iw: 12, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	oh, ow := p.OutDims()
	input := NewPlaceholder("input", 1, 1, 12, 12, tensor.C0)
	redH := ReduceAxis("red_h", 2)
	redW := ReduceAxis("red_w", 2)
	output := Compute("output", []int{1, 1, oh, ow, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Scale{
			Factor: fp16.FromFloat64(0.25),
			Inner:  Sum(input.At(nn, cc, h.Mul(2).AddAxis(redH), w.Mul(2).AddAxis(redW), c0), redH, redW),
		}
	})
	rng := rand.New(rand.NewSource(3))
	in := tensor.New(1, 1, 12, 12, tensor.C0)
	in.FillRandom(rng, 4)
	binding := map[*Placeholder]*tensor.Tensor{input: in}
	want := ref.AvgPoolForward(in, p)
	for _, s := range []*Schedule{CreateSchedule(output), CreateSchedule(output).TensorizeIm2col()} {
		got, _, err := Build(newCore(), s, binding)
		if err != nil {
			t.Fatalf("%v: %v", s.Strategy(), err)
		}
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Errorf("%v: avg schedule diverges", s.Strategy())
		}
		evaled, err := Eval(output, binding)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(got, evaled) != 0 {
			t.Errorf("%v: avg schedule diverges from interpreter", s.Strategy())
		}
	}
}

func TestElementwiseLowering(t *testing.T) {
	shape := []int{3, 40, tensor.C0}
	a := NewPlaceholder("a", shape...)
	b := NewPlaceholder("b", shape...)
	for _, kind := range []BinKind{BinAdd, BinMul, BinMax} {
		output := Compute("out", shape, func(ix ...Index) Expr {
			return Bin{Kind: kind, A: a.At(ix...), B: b.At(ix...)}
		})
		rng := rand.New(rand.NewSource(int64(kind)))
		at := tensor.New(shape...)
		bt := tensor.New(shape...)
		at.FillRandom(rng, 4)
		bt.FillRandom(rng, 4)
		binding := map[*Placeholder]*tensor.Tensor{a: at, b: bt}
		want, err := Eval(output, binding)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Build(newCore(), CreateSchedule(output), binding)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Errorf("kind %d: elementwise lowering diverges", kind)
		}
		if st.PipeInstrs[isa.PipeVector] == 0 {
			t.Error("no vector instructions emitted")
		}
	}
}

func TestRejectsUnsupportedPatterns(t *testing.T) {
	input := NewPlaceholder("input", 1, 1, 8, 8, tensor.C0)
	// Transposed access (h index uses the w axis): not a pooling window.
	redH := ReduceAxis("red_h", 2)
	redW := ReduceAxis("red_w", 2)
	bad := Compute("bad", []int{1, 1, 4, 4, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Max(input.At(nn, cc, w.Mul(2).AddAxis(redH), h.Mul(2).AddAxis(redW), c0), redH, redW)
	})
	if _, err := analyzePool(bad); err == nil {
		t.Error("transposed access accepted")
	}
	// Missing input binding.
	_, output := listing1(1, 1, 8, 8, 2, 2, 2, 2)
	if _, _, err := Build(newCore(), CreateSchedule(output), nil); err == nil {
		t.Error("missing binding accepted")
	}
	// Sum pooling without the epilogue is rejected by the lowering.
	sum := Compute("sum", []int{1, 1, 4, 4, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Sum(input.At(nn, cc, h.Mul(2).AddAxis(redH), w.Mul(2).AddAxis(redW), c0), redH, redW)
	})
	in := tensor.New(1, 1, 8, 8, tensor.C0)
	if _, _, err := Build(newCore(), CreateSchedule(sum), map[*Placeholder]*tensor.Tensor{input: in}); err == nil {
		t.Error("sum pooling without epilogue accepted")
	}
	// Wrong scale factor.
	badScale := Compute("bads", []int{1, 1, 4, 4, tensor.C0}, func(ix ...Index) Expr {
		nn, cc, h, w, c0 := ix[0], ix[1], ix[2], ix[3], ix[4]
		return Scale{Factor: fp16.One, Inner: Sum(input.At(nn, cc, h.Mul(2).AddAxis(redH), w.Mul(2).AddAxis(redW), c0), redH, redW)}
	})
	if _, err := analyzePool(badScale); err == nil {
		t.Error("wrong scale factor accepted")
	}
}

func TestIndexAlgebra(t *testing.T) {
	a := &Axis{Name: "a", Extent: 4}
	b := &Axis{Name: "b", Extent: 4}
	ix := IdxOf(a).Mul(3).AddAxis(b).Add(Const(-2))
	if ix.Coeff(a) != 3 || ix.Coeff(b) != 1 || ix.ConstTerm() != -2 {
		t.Errorf("index algebra wrong: %+v", ix)
	}
	env := map[*Axis]int{a: 2, b: 5}
	if got := ix.eval(env); got != 3*2+5-2 {
		t.Errorf("eval = %d", got)
	}
	if len(ix.axes()) != 2 {
		t.Error("axes()")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyStandard: "standard", StrategyIm2col: "im2col",
		StrategyExpansion: "expansion", StrategyXYSplit: "xysplit",
	} {
		if s.String() != want {
			t.Errorf("Strategy %d = %q", s, s.String())
		}
	}
}

// TestScheduleDirectives checks the explicit-schedule path: Tile/Buffers
// steer the lowering without changing results, and the schedule point is
// recorded on the Schedule builder.
func TestScheduleDirectives(t *testing.T) {
	input, output := listing1(1, 2, 12, 10, 3, 3, 2, 2)
	rng := rand.New(rand.NewSource(5))
	in := tensor.New(1, 2, 12, 10, tensor.C0)
	in.FillRandom(rng, 4)
	p := isa.ConvParams{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	want := ref.MaxPoolForward(in, p)

	s := CreateSchedule(output).TensorizeIm2col().Tile(1).Buffers(1)
	if s.Params().Band != 1 || s.Params().Buffers != 1 {
		t.Fatalf("schedule params = %+v", s.Params())
	}
	got, _, err := Build(newCore(), s, map[*Placeholder]*tensor.Tensor{input: in})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Error("tiled schedule diverges from reference model")
	}

	// A band the Unified Buffer cannot hold is an invalid schedule, not a
	// silent clamp.
	_, _, err = Build(newCore(), CreateSchedule(output).Tile(1<<20), map[*Placeholder]*tensor.Tensor{input: in})
	if err == nil {
		t.Fatal("oversized tile accepted")
	}
}

// TestScheduleAuto checks the autoschedule path end to end: the search
// adopts a validated schedule (or the default) and results stay exact.
func TestScheduleAuto(t *testing.T) {
	input, output := listing1(1, 2, 12, 10, 3, 3, 2, 2)
	rng := rand.New(rand.NewSource(6))
	in := tensor.New(1, 2, 12, 10, tensor.C0)
	in.FillRandom(rng, 4)
	p := isa.ConvParams{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	want := ref.MaxPoolForward(in, p)

	s := CreateSchedule(output).AutoSchedule()
	if !s.Auto() {
		t.Fatal("AutoSchedule not recorded")
	}
	got, _, err := Build(newCore(), s, map[*Placeholder]*tensor.Tensor{input: in})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Error("autoscheduled build diverges from reference model")
	}
}
