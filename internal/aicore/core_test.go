package aicore

import (
	"bytes"
	"math/rand"
	"testing"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
	"davinci/internal/tensor"
)

func newCore() *Core { return New(buffer.Config{}, nil) }

func placeUB(t *testing.T, c *Core, x *tensor.Tensor) int {
	t.Helper()
	addr, err := c.Mem.PlaceTensor(isa.UB, x)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestElementwiseAdd(t *testing.T) {
	c := newCore()
	rng := rand.New(rand.NewSource(1))
	n := 1000 * 16 // block aligned, exercises full repeats + tail
	a := tensor.New(n)
	b := tensor.New(n)
	a.FillRandom(rng, 4)
	b.FillRandom(rng, 4)
	aAddr := placeUB(t, c, a)
	bAddr := placeUB(t, c, b)
	dAddr := c.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)

	p := cce.New("add")
	p.EmitElementwise(isa.VAdd, isa.UB, dAddr, aAddr, bAddr, n)
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	got := c.Mem.ReadTensor(isa.UB, dAddr, n)
	for i := 0; i < n; i++ {
		want := fp16.Add(a.AtFlat(i), b.AtFlat(i))
		if got.AtFlat(i) != want {
			t.Fatalf("elem %d = %#04x, want %#04x", i, got.AtFlat(i), want)
		}
	}
}

func TestVecOpsSemantics(t *testing.T) {
	ops := []struct {
		op   isa.VecOp
		want func(a, b fp16.Float16) fp16.Float16
	}{
		{isa.VAdd, fp16.Add},
		{isa.VSub, fp16.Sub},
		{isa.VMul, fp16.Mul},
		{isa.VMax, fp16.Max},
		{isa.VMin, fp16.Min},
		{isa.VCmpEq, func(a, b fp16.Float16) fp16.Float16 {
			if fp16.Equal(a, b) {
				return fp16.One
			}
			return fp16.Zero
		}},
	}
	rng := rand.New(rand.NewSource(2))
	for _, tc := range ops {
		c := newCore()
		a, b := tensor.New(128), tensor.New(128)
		for i := 0; i < 128; i++ { // small ints so VCmpEq hits equality
			a.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
			b.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
		}
		aAddr := placeUB(t, c, a)
		bAddr := placeUB(t, c, b)
		dAddr := c.Mem.Space(isa.UB).MustAlloc(256)
		p := cce.New("op")
		p.EmitVec(tc.op, isa.Contig(isa.UB, dAddr), isa.Contig(isa.UB, aAddr), isa.Contig(isa.UB, bAddr), 0, isa.FullMask(), 1)
		if _, err := c.Run(p); err != nil {
			t.Fatal(err)
		}
		got := c.Mem.ReadTensor(isa.UB, dAddr, 128)
		for i := 0; i < 128; i++ {
			if want := tc.want(a.AtFlat(i), b.AtFlat(i)); got.AtFlat(i) != want {
				t.Fatalf("%v elem %d = %#04x, want %#04x", tc.op, i, got.AtFlat(i), want)
			}
		}
	}
}

func TestScalarOpsAndDup(t *testing.T) {
	c := newCore()
	a := tensor.New(128)
	a.FillSeq()
	aAddr := placeUB(t, c, a)
	d1 := c.Mem.Space(isa.UB).MustAlloc(256)
	d2 := c.Mem.Space(isa.UB).MustAlloc(256)
	d3 := c.Mem.Space(isa.UB).MustAlloc(256)
	p := cce.New("scalar")
	p.EmitElementwiseScalar(isa.VAdds, isa.UB, d1, aAddr, 0, 128, fp16.FromFloat32(10))
	p.EmitElementwiseScalar(isa.VMuls, isa.UB, d2, aAddr, 0, 128, fp16.FromFloat32(0.5))
	p.EmitDup(isa.UB, d3, 128, fp16.FromFloat32(-3))
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got := c.Mem.ReadTensor(isa.UB, d1, 128).AtFlat(i).Float32(); got != float32(i+10) {
			t.Fatalf("vadds[%d] = %v", i, got)
		}
		if got := c.Mem.ReadTensor(isa.UB, d2, 128).AtFlat(i).Float32(); got != float32(i)/2 {
			t.Fatalf("vmuls[%d] = %v", i, got)
		}
		if got := c.Mem.ReadTensor(isa.UB, d3, 128).AtFlat(i).Float32(); got != -3 {
			t.Fatalf("dup[%d] = %v", i, got)
		}
	}
}

func TestMaskedLanesUntouched(t *testing.T) {
	c := newCore()
	a := tensor.New(128)
	a.Fill(fp16.One)
	aAddr := placeUB(t, c, a)
	d := c.Mem.Space(isa.UB).MustAlloc(256)
	c.Mem.FillRange(isa.UB, d, 128, fp16.FromFloat32(7))
	p := cce.New("mask")
	p.EmitVec(isa.VCopy, isa.Contig(isa.UB, d), isa.Contig(isa.UB, aAddr), isa.Operand{}, 0, isa.MaskFirstN(16), 1)
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	out := c.Mem.ReadTensor(isa.UB, d, 128)
	for i := 0; i < 128; i++ {
		want := float32(7)
		if i < 16 {
			want = 1
		}
		if got := out.AtFlat(i).Float32(); got != want {
			t.Fatalf("lane %d = %v, want %v", i, got, want)
		}
	}
}

// Reduction-style addressing: destination repeat stride 0 accumulates
// sequentially across repeats (the standard maxpool lowering relies on it).
func TestRepeatStrideZeroReduction(t *testing.T) {
	c := newCore()
	a := tensor.New(4 * 128)
	a.FillSeq()
	aAddr := placeUB(t, c, a)
	d := c.Mem.Space(isa.UB).MustAlloc(256)
	c.Mem.FillRange(isa.UB, d, 128, fp16.NegativeInfinity)
	p := cce.New("reduce")
	dst := isa.Operand{Buf: isa.UB, Addr: d, BlkStride: 1, RepStride: 0}
	p.EmitVec(isa.VMax, dst, isa.Contig(isa.UB, aAddr), dst, 0, isa.FullMask(), 4)
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	out := c.Mem.ReadTensor(isa.UB, d, 128)
	for i := 0; i < 128; i++ {
		want := float32(3*128 + i) // max over the 4 repeats
		if got := out.AtFlat(i).Float32(); got != want {
			t.Fatalf("lane %d = %v, want %v", i, got, want)
		}
	}
}

// EmitVec must split repeats beyond the cap and still compute the same
// result as one logical long instruction.
func TestEmitVecSplitEquivalence(t *testing.T) {
	c := newCore()
	n := 300 * 128 // 300 repeats > MaxRepeat
	a := tensor.New(n)
	rng := rand.New(rand.NewSource(5))
	a.FillRandom(rng, 2)
	aAddr := placeUB(t, c, a)
	d := c.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	p := cce.New("split")
	p.EmitVec(isa.VMuls, isa.Contig(isa.UB, d), isa.Contig(isa.UB, aAddr), isa.Operand{}, fp16.FromFloat32(2), isa.FullMask(), 300)
	if got := p.Len(); got != 2 {
		t.Fatalf("expected 2 instructions after split, got %d", got)
	}
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	out := c.Mem.ReadTensor(isa.UB, d, n)
	for i := 0; i < n; i++ {
		if want := fp16.Mul(a.AtFlat(i), fp16.FromFloat32(2)); out.AtFlat(i) != want {
			t.Fatalf("elem %d mismatch", i)
		}
	}
}

func TestCopyBursts(t *testing.T) {
	c := newCore()
	src := tensor.New(64)
	src.FillSeq()
	gmAddr, _ := c.Mem.PlaceTensor(isa.GM, src)
	ubAddr := c.Mem.Space(isa.UB).MustAlloc(128)
	p := cce.New("copy")
	// Copy rows 0 and 2 (16 elems each) of a 4x16 tensor, skipping rows.
	p.Emit(&isa.CopyInstr{SrcBuf: isa.GM, SrcAddr: gmAddr, DstBuf: isa.UB, DstAddr: ubAddr,
		NBurst: 2, BurstBytes: 32, SrcGap: 32})
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	out := c.Mem.ReadTensor(isa.UB, ubAddr, 32)
	for i := 0; i < 16; i++ {
		if got := out.AtFlat(i).Float32(); got != float32(i) {
			t.Fatalf("burst0[%d] = %v", i, got)
		}
		if got := out.AtFlat(16 + i).Float32(); got != float32(32+i) {
			t.Fatalf("burst1[%d] = %v", i, got)
		}
	}

	// Multi-instruction programs: the coalesced trace merges adjacent
	// copies into one move, but must not merge an in-buffer pair whose
	// second move reads what the first one wrote. Run and Replay must both
	// match copying burst by burst in program order.
	for _, tc := range []struct {
		name   string
		instrs []*isa.CopyInstr
		ops    int // moves in the coalesced trace
	}{
		{"adjacent copies", []*isa.CopyInstr{
			{SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: 0, NBurst: 2, BurstBytes: 32},
			{SrcBuf: isa.GM, SrcAddr: 64, DstBuf: isa.UB, DstAddr: 64, NBurst: 1, BurstBytes: 64},
			{SrcBuf: isa.GM, SrcAddr: 128, DstBuf: isa.UB, DstAddr: 128, NBurst: 3, BurstBytes: 32},
		}, 1},
		{"overlapping move pair", []*isa.CopyInstr{
			{SrcBuf: isa.UB, SrcAddr: 32, DstBuf: isa.UB, DstAddr: 64, NBurst: 1, BurstBytes: 32},
			{SrcBuf: isa.UB, SrcAddr: 64, DstBuf: isa.UB, DstAddr: 96, NBurst: 1, BurstBytes: 32},
		}, 2},
	} {
		p := cce.New(tc.name)
		for _, in := range tc.instrs {
			p.Emit(in)
		}
		if n := len(flatten(p).ops); n != tc.ops {
			t.Errorf("%s: coalesced trace has %d moves, want %d", tc.name, n, tc.ops)
		}
		const span = 256
		gm, ub := make([]byte, span), make([]byte, span)
		for i := range gm {
			gm[i], ub[i] = byte(i), byte(255-i)
		}
		model := map[isa.BufID][]byte{isa.GM: bytes.Clone(gm), isa.UB: bytes.Clone(ub)}
		for _, in := range tc.instrs {
			for b := 0; b < in.NBurst; b++ {
				s := in.SrcAddr + b*(in.BurstBytes+in.SrcGap)
				d := in.DstAddr + b*(in.BurstBytes+in.DstGap)
				for i := 0; i < in.BurstBytes; i++ {
					model[in.DstBuf][d+i] = model[in.SrcBuf][s+i]
				}
			}
		}
		for _, replay := range []bool{false, true} {
			c := newCore()
			copy(c.Mem.Mem(isa.GM), gm)
			copy(c.Mem.Mem(isa.UB), ub)
			if err := runOrReplay(c, p, replay); err != nil {
				t.Fatalf("%s replay=%v: %v", tc.name, replay, err)
			}
			if got := c.Mem.Mem(isa.UB)[:span]; !bytes.Equal(got, model[isa.UB]) {
				t.Errorf("%s replay=%v: UB = %v, want %v", tc.name, replay, got, model[isa.UB])
			}
		}
	}
}

// The instruction-level Im2Col must agree with the whole-tensor transform
// specification in internal/scu across strides, kernels and padding.
func TestIm2ColMatchesSpec(t *testing.T) {
	cases := []isa.ConvParams{
		{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2},                              // Fig. 5
		{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2},                            // overlap
		{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 1, Sw: 1},                              // max overlap
		{Ih: 9, Iw: 9, Kh: 3, Kw: 3, Sh: 3, Sw: 3},                              // no overlap
		{Ih: 7, Iw: 7, Kh: 3, Kw: 3, Sh: 2, Sw: 2, Pt: 1, Pb: 1, Pl: 1, Pr: 1},  // padding
		{Ih: 5, Iw: 11, Kh: 2, Kw: 4, Sh: 1, Sw: 3, Pt: 0, Pb: 1, Pl: 2, Pr: 0}, // asymmetric
	}
	for _, cp := range cases {
		for _, c1Len := range []int{1, 2} {
			c := newCore()
			rng := rand.New(rand.NewSource(9))
			in := tensor.New(1, c1Len, cp.Ih, cp.Iw, tensor.C0)
			in.FillRandom(rng, 4)
			l1Addr, err := c.Mem.PlaceTensor(isa.L1, in)
			if err != nil {
				t.Fatal(err)
			}
			outBytes := c1Len * cp.Kh * cp.Kw * cp.PaddedPatches() * tensor.C0 * fp16.Bytes
			ubAddr := c.Mem.Space(isa.UB).MustAlloc(outBytes)
			p := cce.New("im2col")
			p.EmitIm2Col(l1Addr, isa.UB, ubAddr, cp, c1Len)
			if _, err := c.Run(p); err != nil {
				t.Fatalf("%+v: %v", cp, err)
			}
			got := c.Mem.ReadTensor(isa.UB, ubAddr, 1, c1Len, cp.Kh, cp.Kw, cp.PaddedPatches(), tensor.C0)
			want := scu.Im2col(in, cp)
			if tensor.MaxAbsDiff(got, want) != 0 {
				t.Errorf("params %+v c1=%d: instruction-level im2col diverges from spec", cp, c1Len)
			}
		}
	}
}

// The instruction-level Col2Im must agree with the whole-tensor transform.
func TestCol2ImMatchesSpec(t *testing.T) {
	cases := []isa.ConvParams{
		{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2},
		{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2},
		{Ih: 7, Iw: 7, Kh: 3, Kw: 3, Sh: 1, Sw: 1, Pt: 1, Pb: 1, Pl: 1, Pr: 1},
	}
	for _, cp := range cases {
		for _, c1Len := range []int{1, 2} {
			c := newCore()
			rng := rand.New(rand.NewSource(11))
			cols := tensor.New(1, c1Len, cp.Kh, cp.Kw, cp.PaddedPatches(), tensor.C0)
			for i := 0; i < cols.Len(); i++ {
				cols.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(5))))
			}
			srcAddr, err := c.Mem.PlaceTensor(isa.UB, cols)
			if err != nil {
				t.Fatal(err)
			}
			dstBytes := c1Len * cp.Ih * cp.Iw * tensor.C0 * fp16.Bytes
			dstAddr := c.Mem.Space(isa.UB).MustAlloc(dstBytes)
			p := cce.New("col2im")
			p.EmitDup(isa.UB, dstAddr, dstBytes/fp16.Bytes, fp16.Zero)
			p.EmitCol2Im(srcAddr, dstAddr, cp, c1Len)
			if _, err := c.Run(p); err != nil {
				t.Fatalf("%+v: %v", cp, err)
			}
			got := c.Mem.ReadTensor(isa.UB, dstAddr, 1, c1Len, cp.Ih, cp.Iw, tensor.C0)
			want := scu.Col2im(cols, cp, cp.Ih, cp.Iw)
			if tensor.MaxAbsDiff(got, want) != 0 {
				t.Errorf("params %+v c1=%d: instruction-level col2im diverges from spec", cp, c1Len)
			}
		}
	}
}

func TestMmadMatchesNaive(t *testing.T) {
	c := newCore()
	rng := rand.New(rand.NewSource(13))
	M, K, N := 2, 3, 2 // in fractals
	rows, inner, cols := M*16, K*16, N*16
	// Build plain row-major matrices, convert to fractal tiling.
	a := tensor.New(rows, inner)
	b := tensor.New(inner, cols)
	a.FillRandom(rng, 1)
	b.FillRandom(rng, 1)

	aFrac := tensor.New(M, K, 16, 16)
	bFrac := tensor.New(K, N, 16, 16)
	for i := 0; i < rows; i++ {
		for j := 0; j < inner; j++ {
			aFrac.Set(a.At(i, j), i/16, j/16, i%16, j%16)
		}
	}
	for i := 0; i < inner; i++ {
		for j := 0; j < cols; j++ {
			bFrac.Set(b.At(i, j), i/16, j/16, i%16, j%16)
		}
	}
	aAddr, _ := c.Mem.PlaceTensor(isa.L0A, aFrac)
	bAddr, _ := c.Mem.PlaceTensor(isa.L0B, bFrac)
	cAddr := c.Mem.Space(isa.L0C).MustAlloc(M * N * 256 * 4)
	ubAddr := c.Mem.Space(isa.UB).MustAlloc(M * N * 256 * 2)

	p := cce.New("mmad")
	p.Emit(&isa.MmadInstr{AAddr: aAddr, BAddr: bAddr, CAddr: cAddr, M: M, K: K, N: N})
	p.Emit(&isa.ConvCopyInstr{SrcAddr: cAddr, DstAddr: ubAddr, Elems: M * N * 256})
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	out := c.Mem.ReadTensor(isa.UB, ubAddr, M, N, 16, 16)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var want float32
			for k := 0; k < inner; k++ {
				want += a.At(i, k).Float32() * b.At(k, j).Float32()
			}
			got := out.At(i/16, j/16, i%16, j%16).Float32()
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			// One final rounding to fp16 on the fp32 accumulator.
			if diff > 0.05 {
				t.Fatalf("C[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestCapacityViolationReported(t *testing.T) {
	c := newCore()
	p := cce.New("overflow")
	p.EmitCopy(isa.GM, 0, isa.UB, buffer.DefaultUBSize-16, 64)
	if _, err := c.Run(p); err == nil {
		t.Fatal("write past UB capacity not reported")
	}
}

func TestHazardTiming(t *testing.T) {
	cm := isa.DefaultCostModel()
	// Two independent instructions on different pipes overlap...
	c := newCore()
	ub := c.Mem.Space(isa.UB)
	a := ub.MustAlloc(4096)
	b := ub.MustAlloc(4096)
	d := ub.MustAlloc(4096)
	p := cce.New("overlap")
	p.EmitCopy(isa.GM, 0, isa.UB, a, 4096)                                                                 // MTE2
	p.EmitVec(isa.VDup, isa.Contig(isa.UB, b), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 16) // VEC, independent
	st, err := c.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	copyCost := (&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, NBurst: 1, BurstBytes: 4096}).Cycles(cm)
	dupCost := cm.VecIssue + 16*cm.VecPerRepeat
	if st.Cycles != max64(copyCost, dupCost) {
		t.Errorf("independent ops: cycles = %d, want %d", st.Cycles, max64(copyCost, dupCost))
	}

	// ...but a RAW dependency serializes them.
	c2 := newCore()
	ub2 := c2.Mem.Space(isa.UB)
	a2 := ub2.MustAlloc(4096)
	d2 := ub2.MustAlloc(4096)
	p2 := cce.New("raw")
	p2.EmitCopy(isa.GM, 0, isa.UB, a2, 4096)
	p2.EmitVec(isa.VCopy, isa.Contig(isa.UB, d2), isa.Contig(isa.UB, a2), isa.Operand{}, 0, isa.FullMask(), 16)
	st2, err := c2.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cycles != copyCost+dupCost {
		t.Errorf("RAW chain: cycles = %d, want %d", st2.Cycles, copyCost+dupCost)
	}
	_ = d
}

func TestSerializeModeNeverFaster(t *testing.T) {
	build := func() (*Core, *cce.Program) {
		c := newCore()
		ub := c.Mem.Space(isa.UB)
		p := cce.New("mix")
		for i := 0; i < 20; i++ {
			addr := ub.MustAlloc(2048)
			p.EmitCopy(isa.GM, i*2048, isa.UB, addr, 2048)
			p.EmitDup(isa.UB, addr, 1024, fp16.One)
		}
		return c, p
	}
	c1, p1 := build()
	st1, err := c1.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	c2, p2 := build()
	c2.Serialize = true
	st2, err := c2.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cycles < st1.Cycles {
		t.Errorf("serialized (%d) faster than overlapped (%d)", st2.Cycles, st1.Cycles)
	}
	if st1.Instrs != st2.Instrs {
		t.Error("instruction counts differ between modes")
	}
}

func TestBarrierSerializes(t *testing.T) {
	c := newCore()
	ub := c.Mem.Space(isa.UB)
	a := ub.MustAlloc(4096)
	b := ub.MustAlloc(4096)
	p := cce.New("barrier")
	p.EmitCopy(isa.GM, 0, isa.UB, a, 4096)
	p.EmitBarrier()
	p.EmitDup(isa.UB, b, 1024, fp16.One)
	st, err := c.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	cm := isa.DefaultCostModel()
	copyCost := (&isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.UB, NBurst: 1, BurstBytes: 4096}).Cycles(cm)
	wantMin := copyCost + cm.Barrier + cm.VecIssue
	if st.Cycles < wantMin {
		t.Errorf("barrier did not serialize: %d < %d", st.Cycles, wantMin)
	}
}

func TestStatsAggregation(t *testing.T) {
	a := &Stats{Cycles: 100, Instrs: 5}
	b := &Stats{Cycles: 60, Instrs: 3}
	s := &Stats{}
	s.AddSerial(a)
	s.AddSerial(b)
	if s.Cycles != 160 || s.Instrs != 8 {
		t.Errorf("serial: %+v", s)
	}
	pp := &Stats{}
	pp.AddParallel(a)
	pp.AddParallel(b)
	if pp.Cycles != 100 || pp.Instrs != 8 {
		t.Errorf("parallel: %+v", pp)
	}
	if (&Stats{}).String() == "" {
		t.Error("empty stats string")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
