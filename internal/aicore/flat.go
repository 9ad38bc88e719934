package aicore

import (
	"encoding/binary"
	"fmt"
	"math"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
)

// flatKind selects the primitive a flatOp performs.
type flatKind uint8

const (
	// fInstr falls back to generic execution of the original instruction.
	fInstr flatKind = iota
	// fMove copies n bytes (memmove semantics, like the burst copies it
	// replaces; only emitted when that matches the instruction order).
	fMove
	// fZero clears n bytes.
	fZero
	// fVec applies an element-wise vector op to n contiguous lanes.
	fVec
	// fVecMasked applies a vector op to one 16-lane block under a mask.
	fVecMasked
	// fAcc accumulates dst += src over n contiguous lanes (Col2Im merge).
	fAcc
	// fCvt converts n float32 elements to Float16 (L0C -> UB move).
	fCvt
)

// flatOp is one primitive data operation of a flattened program. Byte
// offsets are resolved; n counts lanes for fVec/fVecMasked/fAcc/fCvt and
// bytes for fMove/fZero.
type flatOp struct {
	kind   flatKind
	op     isa.VecOp
	dBuf   isa.BufID
	sBuf   isa.BufID
	s1Buf  isa.BufID
	dst    int
	src    int
	src1   int
	n      int
	scalar fp16.Float16
	msk16  uint16 // fVecMasked: the block's 16 mask bits
	idx    int    // originating instruction (fInstr runs it; errors name it)
}

// flatProgram is a pre-flattened functional execution trace of a program:
// instruction decode, lane masking, repeat/block address arithmetic and the
// SCU's positional walk are resolved once into a linear list of primitive
// data operations, with adjacent operations coalesced whenever doing so
// preserves the exact elementary load/op/store order. Running the trace is
// bit-identical to interpreting the program instruction by instruction,
// but amortizes all per-lane bookkeeping — which is what makes untraced
// Replay cheap. Flattening never affects timing: an Executable takes its
// Stats from the static board.
type flatProgram struct {
	prog *cce.Program
	ops  []flatOp
}

// flatten builds the functional trace of prog. It depends only on the
// instruction stream, so one flatProgram may run on any core whose
// buffers fit the program's footprint.
func flatten(prog *cce.Program) *flatProgram {
	fp := &flatProgram{prog: prog}
	for idx, in := range prog.Instrs {
		switch v := in.(type) {
		case *isa.VecInstr:
			fp.flattenVec(idx, v)
		case *isa.CopyInstr:
			fp.flattenCopy(idx, v)
		case *isa.ConvCopyInstr:
			fp.ops = append(fp.ops, flatOp{
				kind: fCvt, dBuf: isa.UB, sBuf: isa.L0C,
				dst: v.DstAddr, src: v.SrcAddr, n: v.Elems, idx: idx,
			})
		case *isa.Im2ColInstr:
			fp.flattenIm2Col(idx, v)
		case *isa.Col2ImInstr:
			fp.flattenCol2Im(idx, v)
		case *isa.ScalarInstr, *isa.BarrierInstr, *isa.SetFlagInstr, *isa.WaitFlagInstr:
			// Functional no-ops: synchronization shapes the schedule, not
			// the data, and the schedule comes from the static board.
		default:
			fp.fallback(idx)
		}
	}
	return fp
}

func (fp *flatProgram) fallback(idx int) {
	fp.ops = append(fp.ops, flatOp{kind: fInstr, idx: idx})
}

// maskBlock extracts the 16 mask bits covering block b's lanes.
func maskBlock(m isa.Mask, b int) uint16 {
	return uint16(m[b>>2] >> uint((b&3)*16))
}

// flattenVec expands a vector instruction block by block, in repeat order.
// Fully-masked blocks become fVec ops and merge with a contiguous
// predecessor: a merged tight loop executes the identical sequence of
// elementary load/op/store steps, so coalescing is always safe even for
// reduction-style (overlapping or in-place) addressing. Partially masked
// blocks stay per-block; fully disabled blocks are dropped.
func (fp *flatProgram) flattenVec(idx int, v *isa.VecInstr) {
	unary, binary := v.Op.IsUnary(), v.Op.IsBinary()
	for r := 0; r < v.Repeat; r++ {
		for b := 0; b < isa.BlocksPerRepeat; b++ {
			sub := maskBlock(v.Mask, b)
			if sub == 0 {
				continue
			}
			op := flatOp{
				kind: fVec, op: v.Op,
				dBuf: v.Dst.Buf, dst: v.Dst.BlockAddr(r, b),
				n: isa.ElemsPerBlock, scalar: v.Scalar, idx: idx,
			}
			if unary || binary {
				op.sBuf = v.Src0.Buf
				op.src = v.Src0.BlockAddr(r, b)
			}
			if binary {
				op.s1Buf = v.Src1.Buf
				op.src1 = v.Src1.BlockAddr(r, b)
			}
			if sub != 0xffff {
				op.kind = fVecMasked
				op.msk16 = sub
				fp.ops = append(fp.ops, op)
				continue
			}
			if ln := len(fp.ops); ln > 0 {
				prev := &fp.ops[ln-1]
				if prev.kind == fVec && prev.op == v.Op && prev.scalar == v.Scalar &&
					prev.dBuf == op.dBuf && prev.dst+prev.n*fp16.Bytes == op.dst &&
					(!(unary || binary) || (prev.sBuf == op.sBuf && prev.src+prev.n*fp16.Bytes == op.src)) &&
					(!binary || (prev.s1Buf == op.s1Buf && prev.src1+prev.n*fp16.Bytes == op.src1)) {
					prev.n += isa.ElemsPerBlock
					continue
				}
			}
			fp.ops = append(fp.ops, op)
		}
	}
}

// appendMove emits an n-byte copy, merging with a contiguous predecessor
// only while the merged source and destination ranges stay disjoint — a
// larger memmove must not observe bytes an earlier burst wrote.
func (fp *flatProgram) appendMove(idx int, dBuf, sBuf isa.BufID, dst, src, n int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fMove && prev.dBuf == dBuf && prev.sBuf == sBuf &&
			prev.dst+prev.n == dst && prev.src+prev.n == src {
			mn := prev.n + n
			if dBuf != sBuf || prev.dst+mn <= prev.src || prev.src+mn <= prev.dst {
				prev.n = mn
				return
			}
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fMove, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: n, idx: idx})
}

func (fp *flatProgram) appendZero(idx int, dBuf isa.BufID, dst, n int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fZero && prev.dBuf == dBuf && prev.dst+prev.n == dst {
			prev.n += n
			return
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fZero, dBuf: dBuf, dst: dst, n: n, idx: idx})
}

func (fp *flatProgram) flattenCopy(idx int, m *isa.CopyInstr) {
	sOff, dOff := m.SrcAddr, m.DstAddr
	for b := 0; b < m.NBurst; b++ {
		fp.appendMove(idx, m.DstBuf, m.SrcBuf, dOff, sOff, m.BurstBytes)
		sOff += m.BurstBytes + m.SrcGap
		dOff += m.BurstBytes + m.DstGap
	}
}

// flattenIm2Col resolves the SCU's positional walk into plain 32-byte row
// moves and pad zeroes. Any condition the interpreter would reject at run
// time falls back to the original instruction so the error surfaces
// identically.
func (fp *flatProgram) flattenIm2Col(idx int, im *isa.Im2ColInstr) {
	start := len(fp.ops)
	patches := im.P.Patches()
	rows := im.EffRows()
	c1, xk, yk, patch0 := im.C1Idx, im.Xk, im.Yk, im.Patch0
	const rowBytes = isa.FractalC0 * fp16.Bytes

	for f := 0; f < im.Repeat; f++ {
		fracBase := im.DstAddr + f*isa.FractalBytes
		for row := 0; row < isa.FractalPatches; row++ {
			rowAddr := fracBase + row*rowBytes
			patch := patch0 + row
			if patch >= patches {
				fp.appendZero(idx, im.DstBuf, rowAddr, rowBytes)
				continue
			}
			h, w, pad := scu.SourceCoord(im.P, patch, xk, yk)
			if pad {
				fp.appendZero(idx, im.DstBuf, rowAddr, rowBytes)
				continue
			}
			if h < im.RowBase || h >= im.RowBase+rows {
				fp.ops = fp.ops[:start]
				fp.fallback(idx)
				return
			}
			srcOff := im.SrcAddr + ((c1*rows+h-im.RowBase)*im.P.Iw+w)*rowBytes
			fp.appendMove(idx, im.DstBuf, im.SrcBuf, rowAddr, srcOff, rowBytes)
		}
		if im.RepeatMode == isa.Im2ColRepeatPatches {
			patch0 += isa.FractalPatches
			if patch0 >= im.P.PaddedPatches() {
				patch0 = 0
				c1, xk, yk = scu.KernelStep(im.P, c1, xk, yk)
			}
		} else {
			c1, xk, yk = scu.KernelStep(im.P, c1, xk, yk)
		}
		if c1 >= im.C1Len && f != im.Repeat-1 {
			fp.ops = fp.ops[:start]
			fp.fallback(idx)
			return
		}
	}
}

// appendAcc emits a 16-lane accumulate, merging contiguous rows; a merged
// loop runs the identical read-add-write sequence, so merging is
// unconditionally order-preserving.
func (fp *flatProgram) appendAcc(idx int, dBuf, sBuf isa.BufID, dst, src int) {
	if ln := len(fp.ops); ln > 0 {
		prev := &fp.ops[ln-1]
		if prev.kind == fAcc && prev.dBuf == dBuf && prev.sBuf == sBuf &&
			prev.dst+prev.n*fp16.Bytes == dst && prev.src+prev.n*fp16.Bytes == src {
			prev.n += isa.FractalC0
			return
		}
	}
	fp.ops = append(fp.ops, flatOp{kind: fAcc, dBuf: dBuf, sBuf: sBuf, dst: dst, src: src, n: isa.FractalC0, idx: idx})
}

func (fp *flatProgram) flattenCol2Im(idx int, ci *isa.Col2ImInstr) {
	start := len(fp.ops)
	patches := ci.P.Patches()
	patch0 := ci.Patch0
	rows := ci.EffRows()
	const rowBytes = isa.FractalC0 * fp16.Bytes

	for f := 0; f < ci.Repeat; f++ {
		fracBase := ci.SrcAddr + f*isa.FractalBytes
		for row := 0; row < isa.FractalPatches; row++ {
			patch := patch0 + row
			if patch >= patches {
				continue
			}
			h, w, pad := scu.SourceCoord(ci.P, patch, ci.Xk, ci.Yk)
			if pad {
				continue
			}
			if h < ci.RowBase || h >= ci.RowBase+rows {
				fp.ops = fp.ops[:start]
				fp.fallback(idx)
				return
			}
			rowAddr := fracBase + row*rowBytes
			dstOff := ci.DstAddr + ((ci.C1Idx*rows+h-ci.RowBase)*ci.P.Iw+w)*rowBytes
			fp.appendAcc(idx, ci.DstBuf, ci.SrcBuf, dstOff, rowAddr)
		}
		patch0 += isa.FractalPatches
	}
}

// runFlat functionally executes a flattened trace, in trace (= program)
// order. It performs no scheduling and records no timing; buffer
// contents afterwards are bit-identical to Run on the original program.
func (c *Core) runFlat(fp *flatProgram) error {
	for i := range fp.ops {
		op := &fp.ops[i]
		if c.interrupted() {
			return fmt.Errorf("aicore: %s instr %d: %w", fp.prog.Name, op.idx, ErrInterrupted)
		}
		if err := c.execFlat(fp.prog, op); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", fp.prog.Name, op.idx, fp.prog.Instrs[op.idx], err)
		}
	}
	return nil
}

func flatBounds(off, n, size int) error {
	if off < 0 || off+n > size {
		return fmt.Errorf("access [%d:%d) exceeds capacity %d", off, off+n, size)
	}
	return nil
}

func (c *Core) execFlat(prog *cce.Program, op *flatOp) error {
	switch op.kind {
	case fInstr:
		return c.exec(prog.Instrs[op.idx])
	case fMove:
		dst := c.Mem.Mem(op.dBuf)
		src := c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.dst, op.n, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.src, op.n, len(src)); err != nil {
			return err
		}
		copy(dst[op.dst:op.dst+op.n], src[op.src:op.src+op.n])
	case fZero:
		dst := c.Mem.Mem(op.dBuf)
		if err := flatBounds(op.dst, op.n, len(dst)); err != nil {
			return err
		}
		clear(dst[op.dst : op.dst+op.n])
	case fCvt:
		src := c.Mem.Mem(op.sBuf)
		dst := c.Mem.Mem(op.dBuf)
		if err := flatBounds(op.src, op.n*4, len(src)); err != nil {
			return err
		}
		if err := flatBounds(op.dst, op.n*fp16.Bytes, len(dst)); err != nil {
			return err
		}
		for i := 0; i < op.n; i++ {
			f := math.Float32frombits(binary.LittleEndian.Uint32(src[op.src+i*4:]))
			fp16.Store(dst, op.dst+i*fp16.Bytes, fp16.FromFloat32(f))
		}
	case fAcc:
		dst := c.Mem.Mem(op.dBuf)
		src := c.Mem.Mem(op.sBuf)
		nb := op.n * fp16.Bytes
		if err := flatBounds(op.dst, nb, len(dst)); err != nil {
			return err
		}
		if err := flatBounds(op.src, nb, len(src)); err != nil {
			return err
		}
		d := dst[op.dst : op.dst+nb]
		fp16.AddSlice(d, d, src[op.src:op.src+nb])
	case fVec:
		return c.execFlatVec(op)
	case fVecMasked:
		return c.execFlatVecMasked(op)
	}
	return nil
}

// execFlatVec runs one coalesced full-mask vector span with a single op
// dispatch and a tight per-lane loop in original lane order.
func (c *Core) execFlatVec(op *flatOp) error {
	nb := op.n * fp16.Bytes
	d := c.Mem.Mem(op.dBuf)
	if err := flatBounds(op.dst, nb, len(d)); err != nil {
		return err
	}
	dst := d[op.dst : op.dst+nb]
	var s0, s1 []byte
	if op.op.IsUnary() || op.op.IsBinary() {
		m := c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.src, nb, len(m)); err != nil {
			return err
		}
		s0 = m[op.src : op.src+nb]
	}
	if op.op.IsBinary() {
		m := c.Mem.Mem(op.s1Buf)
		if err := flatBounds(op.src1, nb, len(m)); err != nil {
			return err
		}
		s1 = m[op.src1 : op.src1+nb]
	}
	switch op.op {
	case isa.VDup:
		fp16.DupSlice(dst, op.scalar)
	case isa.VCopy:
		// The subslices alias the same backing arrays, so an overlapping
		// in-buffer copy must keep the per-lane forward order.
		if op.dBuf != op.sBuf || op.dst+nb <= op.src || op.src+nb <= op.dst {
			copy(dst, s0)
		} else {
			for i := 0; i < nb; i += fp16.Bytes {
				fp16.Store(dst, i, fp16.Load(s0, i))
			}
		}
	case isa.VAdds:
		fp16.AddsSlice(dst, s0, op.scalar)
	case isa.VMuls:
		fp16.MulsSlice(dst, s0, op.scalar)
	case isa.VAdd:
		fp16.AddSlice(dst, s0, s1)
	case isa.VSub:
		fp16.SubSlice(dst, s0, s1)
	case isa.VMul:
		fp16.MulSlice(dst, s0, s1)
	case isa.VMax:
		fp16.MaxSlice(dst, s0, s1)
	case isa.VMin:
		fp16.MinSlice(dst, s0, s1)
	case isa.VCmpEq:
		fp16.CmpEqSlice(dst, s0, s1)
	default:
		return fmt.Errorf("unknown vector op %v", op.op)
	}
	return nil
}

// execFlatVecMasked runs one partially masked 16-lane block.
func (c *Core) execFlatVecMasked(op *flatOp) error {
	const nb = isa.ElemsPerBlock * fp16.Bytes
	dst := c.Mem.Mem(op.dBuf)
	if err := flatBounds(op.dst, nb, len(dst)); err != nil {
		return err
	}
	var s0, s1 []byte
	if op.op.IsUnary() || op.op.IsBinary() {
		s0 = c.Mem.Mem(op.sBuf)
		if err := flatBounds(op.src, nb, len(s0)); err != nil {
			return err
		}
	}
	if op.op.IsBinary() {
		s1 = c.Mem.Mem(op.s1Buf)
		if err := flatBounds(op.src1, nb, len(s1)); err != nil {
			return err
		}
	}
	for e := 0; e < isa.ElemsPerBlock; e++ {
		if op.msk16>>uint(e)&1 == 0 {
			continue
		}
		var out fp16.Float16
		switch op.op {
		case isa.VDup:
			out = op.scalar
		case isa.VCopy:
			out = fp16.Load(s0, op.src+e*fp16.Bytes)
		case isa.VAdds:
			out = fp16.Add(fp16.Load(s0, op.src+e*fp16.Bytes), op.scalar)
		case isa.VMuls:
			out = fp16.Mul(fp16.Load(s0, op.src+e*fp16.Bytes), op.scalar)
		default:
			a := fp16.Load(s0, op.src+e*fp16.Bytes)
			b := fp16.Load(s1, op.src1+e*fp16.Bytes)
			switch op.op {
			case isa.VAdd:
				out = fp16.Add(a, b)
			case isa.VSub:
				out = fp16.Sub(a, b)
			case isa.VMul:
				out = fp16.Mul(a, b)
			case isa.VMax:
				out = fp16.Max(a, b)
			case isa.VMin:
				out = fp16.Min(a, b)
			case isa.VCmpEq:
				if fp16.Equal(a, b) {
					out = fp16.One
				} else {
					out = fp16.Zero
				}
			default:
				return fmt.Errorf("unknown vector op %v", op.op)
			}
		}
		fp16.Store(dst, op.dst+e*fp16.Bytes, out)
	}
	return nil
}
