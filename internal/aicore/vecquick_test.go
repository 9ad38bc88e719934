package aicore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
)

// scalarVecModel is an independent interpretation of the vector
// instruction's addressing semantics, written as plainly as possible: it
// walks repeats, blocks and lanes and applies the op. The simulator's
// lowering (flat.go), interpreted per instruction by Run and replayed as a
// coalesced trace, must agree with it for arbitrary strides, masks and
// repeats.
func scalarVecModel(mem []byte, v *isa.VecInstr) {
	read := func(o isa.Operand, r, b, e int) fp16.Float16 {
		return fp16.Load(mem, o.Addr+(r*o.RepStride+b*o.BlkStride)*isa.BlockBytes+e*fp16.Bytes)
	}
	for r := 0; r < v.Repeat; r++ {
		for b := 0; b < isa.BlocksPerRepeat; b++ {
			for e := 0; e < isa.ElemsPerBlock; e++ {
				if !v.Mask.Bit(b*isa.ElemsPerBlock + e) {
					continue
				}
				var out fp16.Float16
				switch v.Op {
				case isa.VDup:
					out = v.Scalar
				case isa.VCopy:
					out = read(v.Src0, r, b, e)
				case isa.VAdds:
					out = fp16.Add(read(v.Src0, r, b, e), v.Scalar)
				case isa.VMuls:
					out = fp16.Mul(read(v.Src0, r, b, e), v.Scalar)
				case isa.VAdd:
					out = fp16.Add(read(v.Src0, r, b, e), read(v.Src1, r, b, e))
				case isa.VSub:
					out = fp16.Sub(read(v.Src0, r, b, e), read(v.Src1, r, b, e))
				case isa.VMul:
					out = fp16.Mul(read(v.Src0, r, b, e), read(v.Src1, r, b, e))
				case isa.VMax:
					out = fp16.Max(read(v.Src0, r, b, e), read(v.Src1, r, b, e))
				case isa.VMin:
					out = fp16.Min(read(v.Src0, r, b, e), read(v.Src1, r, b, e))
				case isa.VCmpEq:
					if fp16.Equal(read(v.Src0, r, b, e), read(v.Src1, r, b, e)) {
						out = fp16.One
					} else {
						out = fp16.Zero
					}
				}
				addr := v.Dst.Addr + (r*v.Dst.RepStride+b*v.Dst.BlkStride)*isa.BlockBytes + e*fp16.Bytes
				fp16.Store(mem, addr, out)
			}
		}
	}
}

// Property: Run, a Replay of the coalesced trace and the scalar model
// produce identical UB contents for random instructions (random ops,
// strides, masks, repeats, aliasing allowed within the same region
// family). Half the inputs are contiguous full-mask spans split over
// several instructions, which the coalesced trace merges back into one
// op; the split program must still match the model of the unsplit one.
func TestQuickVecAddressing(t *testing.T) {
	const region = 64 << 10
	ops := []isa.VecOp{isa.VAdd, isa.VSub, isa.VMul, isa.VMax, isa.VMin, isa.VAdds, isa.VMuls, isa.VDup, isa.VCopy, isa.VCmpEq}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		op := ops[rng.Intn(len(ops))]
		split := rng.Intn(2) == 0
		repeat := rng.Intn(6) + 1
		if split {
			repeat++
		}

		randOperand := func() isa.Operand {
			// Keep spans inside the region: addr + (rep*RepStride +
			// 7*BlkStride + 1) * 32 <= region.
			blk := rng.Intn(4)  // 0..3
			rep := rng.Intn(12) // 0..11
			if split {
				blk, rep = 1, isa.BlocksPerRepeat
			}
			maxAddr := region - ((repeat-1)*rep+7*blk+1)*isa.BlockBytes
			return isa.Operand{
				Buf:       isa.UB,
				Addr:      rng.Intn(maxAddr/isa.BlockBytes) * isa.BlockBytes,
				BlkStride: blk,
				RepStride: rep,
			}
		}
		var mask isa.Mask
		mask[0], mask[1] = rng.Uint64(), rng.Uint64()
		if split {
			mask = isa.FullMask()
		}
		v := &isa.VecInstr{
			Op:     op,
			Dst:    randOperand(),
			Src0:   randOperand(),
			Src1:   randOperand(),
			Scalar: fp16.FromFloat64(float64(rng.Intn(9)) - 4),
			Mask:   mask,
			Repeat: repeat,
		}

		p := cce.New("quick")
		if split {
			// Split v at random repeat boundaries; each piece starts
			// where the previous one ended.
			for done := 0; done < v.Repeat; {
				piece := *v
				piece.Repeat = rng.Intn(v.Repeat-done) + 1
				for _, o := range []*isa.Operand{&piece.Dst, &piece.Src0, &piece.Src1} {
					o.Addr += done * o.RepStride * isa.BlockBytes
				}
				p.Emit(&piece)
				done += piece.Repeat
			}
			if n := len(flatten(p).ops); n != 1 {
				t.Logf("%d-instruction contiguous span flattened to %d ops, want 1", p.Len(), n)
				return false
			}
		} else {
			p.Emit(v)
		}

		// Random initial contents, and the model's result from them.
		init := make([]byte, region)
		for i := 0; i < region; i += 2 {
			fp16.Store(init, i, fp16.FromFloat64(float64(rng.Intn(64))-32))
		}
		model := append([]byte(nil), init...)
		scalarVecModel(model, v)
		for _, replay := range []bool{false, true} {
			core := New(buffer.Config{}, nil)
			ub := core.Mem.Mem(isa.UB)
			copy(ub, init)
			core.Mem.Space(isa.UB).MustAlloc(region)
			if err := runOrReplay(core, p, replay); err != nil {
				t.Logf("replay=%v: %v (%+v)", replay, err, v)
				return false
			}
			for i := 0; i < region; i++ {
				if ub[i] != model[i] {
					t.Logf("replay=%v: byte %d differs for %+v split into %d", replay, i, v, p.Len())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
