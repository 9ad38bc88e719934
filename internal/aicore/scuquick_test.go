package aicore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
	"davinci/internal/tensor"
)

// Property: a row-banded Im2Col load produces exactly the fractals of the
// whole-tensor transform for its patch range, for arbitrary random layer
// configurations and fractal-aligned patch windows — interpreted by Run
// and replayed as the coalesced trace on a fresh core alike.
func TestQuickIm2ColRowBands(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := isa.ConvParams{
			Ih: rng.Intn(20) + 6,
			Iw: rng.Intn(20) + 6,
			Kh: rng.Intn(3) + 1,
			Kw: rng.Intn(3) + 1,
			Sh: rng.Intn(3) + 1,
			Sw: rng.Intn(3) + 1,
		}
		if rng.Intn(2) == 0 {
			p.Pt = min(1, p.Kh-1)
			p.Pb, p.Pl, p.Pr = p.Pt, min(1, p.Kw-1), min(1, p.Kw-1)
		}
		if p.Validate() != nil {
			return true
		}
		in := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
		in.FillRandom(rng, 8)
		spec := scu.Im2col(in, p)

		// Random fractal-aligned patch window.
		fracs := p.Fractals()
		f0 := rng.Intn(fracs)
		fb := rng.Intn(fracs-f0) + 1
		pa := f0 * isa.FractalPatches
		lo, hi := rowRange(p, pa, pa+fb*isa.FractalPatches)

		outBytes := p.Kh * p.Kw * fb * isa.FractalBytes
		rowB := p.Iw * tensor.C0 * fp16.Bytes
		band := tensor.New(1, 1, hi-lo, p.Iw, tensor.C0)
		copy(band.Data, in.Data[lo*rowB:hi*rowB])
		for _, replay := range []bool{false, true} {
			// Load only rows [lo, hi) into L1.
			core := New(buffer.Config{}, nil)
			l1Addr, err := core.Mem.PlaceTensor(isa.L1, band)
			if err != nil {
				t.Log(err)
				return false
			}
			ubAddr := core.Mem.Space(isa.UB).MustAlloc(outBytes)

			prog := cce.New("banded")
			prog.EmitIm2ColRange(l1Addr, isa.UB, ubAddr, p, 1, 0, pa, fb, lo, hi-lo)
			if err := runOrReplay(core, prog, replay); err != nil {
				t.Logf("replay=%v %+v band [%d,%d) patches %d+%d: %v", replay, p, lo, hi, pa, fb*16, err)
				return false
			}
			got := core.Mem.ReadTensor(isa.UB, ubAddr, p.Kh, p.Kw, fb*isa.FractalPatches, tensor.C0)
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := 0; pt < fb*isa.FractalPatches; pt++ {
						for c0 := 0; c0 < tensor.C0; c0++ {
							var want fp16.Float16
							if pa+pt < p.PaddedPatches() {
								want = spec.At(0, 0, xk, yk, pa+pt, c0)
							}
							if got.At(xk, yk, pt, c0) != want {
								t.Logf("replay=%v %+v mismatch at (%d,%d,%d,%d)", replay, p, xk, yk, pt, c0)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// rowRange mirrors the kernels' band computation (ops.patchRowRange).
func rowRange(p isa.ConvParams, pa, pb int) (lo, hi int) {
	_, ow := p.OutDims()
	if pb > p.Patches() {
		pb = p.Patches()
	}
	lo = (pa/ow)*p.Sh - p.Pt
	if lo < 0 {
		lo = 0
	}
	hi = ((pb-1)/ow)*p.Sh - p.Pt + p.Kh
	if hi > p.Ih {
		hi = p.Ih
	}
	return lo, hi
}

// runOrReplay executes prog on core through the interpreter (Run) or as
// a coalesced trace (Replay of a fresh Executable).
func runOrReplay(core *Core, prog *cce.Program, replay bool) error {
	var err error
	if replay {
		_, err = core.Replay(NewExecutable(prog))
	} else {
		_, err = core.Run(prog)
	}
	return err
}

// Property: a row-banded Col2Im merge over a full patch set reproduces the
// whole-tensor col2im when the bands are stitched back together, through
// Run and through a Replay of the coalesced trace alike.
func TestQuickCol2ImRowBands(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := isa.ConvParams{
			Ih: rng.Intn(14) + 8,
			Iw: rng.Intn(14) + 8,
			Kh: rng.Intn(2) + 2,
			Kw: rng.Intn(2) + 2,
			Sh: rng.Intn(2) + 1,
			Sw: rng.Intn(2) + 1,
		}
		if p.Validate() != nil {
			return true
		}
		cols := tensor.New(1, 1, p.Kh, p.Kw, p.PaddedPatches(), tensor.C0)
		for i := 0; i < cols.Len(); i++ {
			cols.SetFlat(i, fp16.FromFloat64(float64(rng.Intn(4))))
		}
		want := scu.Col2im(cols, p, p.Ih, p.Iw)

		// Merge in two fractal bands with boundary-row accumulation.
		fracs := p.Fractals()
		split := rng.Intn(fracs) + 1
		if split >= fracs {
			split = fracs
		}
		rowB := p.Iw * tensor.C0 * fp16.Bytes
		for _, replay := range []bool{false, true} {
			out := tensor.New(1, 1, p.Ih, p.Iw, tensor.C0)
			prevHi := 0
			for _, rangeFr := range [][2]int{{0, split}, {split, fracs}} {
				f0, f1 := rangeFr[0], rangeFr[1]
				if f0 >= f1 {
					continue
				}
				pa := f0 * isa.FractalPatches
				lo, hi := rowRange(p, pa, f1*isa.FractalPatches)
				core := New(buffer.Config{}, nil)
				// Source: the band's fractal slices, packed per (xk, yk).
				fb := f1 - f0
				src := tensor.New(p.Kh*p.Kw, fb*isa.FractalPatches, tensor.C0)
				for s := 0; s < p.Kh*p.Kw; s++ {
					for pt := 0; pt < fb*isa.FractalPatches; pt++ {
						for c0 := 0; c0 < tensor.C0; c0++ {
							src.Set(cols.At(0, 0, s/p.Kw, s%p.Kw, pa+pt, c0), s, pt, c0)
						}
					}
				}
				srcAddr, err := core.Mem.PlaceTensor(isa.UB, src)
				if err != nil {
					return false
				}
				dstAddr := core.Mem.Space(isa.UB).MustAlloc((hi - lo) * rowB)
				// Carry in partial sums from the previous band's overlap rows.
				overlap := prevHi - lo
				if overlap < 0 {
					overlap = 0
				}
				copy(core.Mem.Mem(isa.UB)[dstAddr:dstAddr+overlap*rowB], out.Data[lo*rowB:])
				core.Mem.ZeroRange(isa.UB, dstAddr+overlap*rowB, (hi-lo-overlap)*rowB)

				prog := cce.New("col2im-band")
				prog.EmitCol2ImRange(srcAddr, dstAddr, p, pa, fb, lo, hi-lo)
				if err := runOrReplay(core, prog, replay); err != nil {
					t.Logf("replay=%v %+v: %v", replay, p, err)
					return false
				}
				copy(out.Data[lo*rowB:hi*rowB], core.Mem.Mem(isa.UB)[dstAddr:dstAddr+(hi-lo)*rowB])
				prevHi = hi
			}
			if tensor.MaxAbsDiff(out, want) != 0 {
				t.Logf("replay=%v %+v split %d: stitched col2im diverges", replay, p, split)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// An SCU walk that leaves its loaded band, or a kernel-mode repeat that
// walks past its C1 extent, fails when execution reaches the instruction:
// Run, RunExplicit and a Replay of the coalesced trace must each return
// the same message naming the same instruction.
func TestSCUWalkErrors(t *testing.T) {
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	load := &isa.CopyInstr{SrcBuf: isa.GM, DstBuf: isa.L1, NBurst: 1, BurstBytes: 8 * 8 * isa.BlockBytes}
	// Rows [0,2) hold only the first patch row; patch 4 needs image row 2.
	bandIm2Col := &isa.Im2ColInstr{SrcBuf: isa.L1, DstBuf: isa.UB, P: p, C1Len: 1,
		Rows: 2, RepeatMode: isa.Im2ColRepeatPatches, Repeat: 1}
	bandCol2Im := &isa.Col2ImInstr{SrcBuf: isa.UB, DstBuf: isa.UB, DstAddr: isa.FractalBytes,
		P: p, C1Len: 1, Rows: 2, Repeat: 1}
	// Kernel mode visits Kh*Kw = 4 positions per c1 slice; a fifth repeat
	// needs a second slice the tile does not have.
	pastC1 := &isa.Im2ColInstr{SrcBuf: isa.L1, DstBuf: isa.UB, P: p, C1Len: 1,
		RepeatMode: isa.Im2ColRepeatKernel, Repeat: 5}
	for _, tc := range []struct {
		in   isa.Instr
		want string
	}{
		{bandIm2Col, "im2col patch 4 row 2 outside band [0,2)"},
		{bandCol2Im, "col2im patch 4 row 2 outside band [0,2)"},
		{pastC1, "im2col repeat walked past c1 extent 1"},
	} {
		prog := cce.New("walk")
		prog.Emit(load)
		prog.Emit(tc.in)
		prog.Emit(load)
		want := fmt.Sprintf("aicore: walk instr 1 (%s): %s", tc.in, tc.want)
		for name, run := range map[string]func(*Core) (*Stats, error){
			"Run":         func(c *Core) (*Stats, error) { return c.Run(prog) },
			"RunExplicit": func(c *Core) (*Stats, error) { return c.RunExplicit(prog) },
			"Replay":      func(c *Core) (*Stats, error) { return c.Replay(NewExecutable(prog)) },
		} {
			_, err := run(New(buffer.Config{}, nil))
			if err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", name, err, want)
			}
		}
	}
}

// The SCU transpose must be an involution and match a plain Go transpose.
func TestTransposeInstr(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	core := New(buffer.Config{}, nil)
	src := tensor.New(3, isa.FractalPatches, isa.FractalC0) // 3 fractals
	src.FillRandom(rng, 4)
	l1Addr, err := core.Mem.PlaceTensor(isa.L1, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := core.Mem.Space(isa.L0A).MustAlloc(3 * isa.FractalBytes)
	prog := cce.New("transpose")
	prog.Emit(&isa.TransposeInstr{SrcBuf: isa.L1, SrcAddr: l1Addr, DstBuf: isa.L0A, DstAddr: dst, Repeat: 3})
	if _, err := core.Run(prog); err != nil {
		t.Fatal(err)
	}
	got := core.Mem.ReadTensor(isa.L0A, dst, 3, isa.FractalPatches, isa.FractalC0)
	for f := 0; f < 3; f++ {
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				if got.At(f, c, r) != src.At(f, r, c) {
					t.Fatalf("fractal %d (%d,%d) not transposed", f, r, c)
				}
			}
		}
	}
	// Validation rejects bad endpoints.
	bad := &isa.TransposeInstr{SrcBuf: isa.UB, DstBuf: isa.L0A, Repeat: 1}
	if err := bad.Validate(); err == nil {
		t.Error("transpose from UB accepted")
	}
	bad2 := &isa.TransposeInstr{SrcBuf: isa.L1, DstBuf: isa.UB, Repeat: 1}
	if err := bad2.Validate(); err == nil {
		t.Error("transpose to UB accepted")
	}
}
