package aicore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
)

// flatKind selects the primitive a flatOp performs.
type flatKind uint8

const (
	// fInstr runs the original instruction through its interpreter in
	// exec.go; only MmadInstr and TransposeInstr lower to it.
	fInstr flatKind = iota
	// fMove copies n bytes (memmove semantics, like the burst copies it
	// replaces; only emitted when that matches the instruction order).
	fMove
	// fZero clears n bytes.
	fZero
	// fVec applies an element-wise vector op to n contiguous lanes.
	fVec
	// fAcc accumulates dst += src over n contiguous lanes (Col2Im merge).
	fAcc
	// fCvt converts n float32 elements to Float16 (L0C -> UB move).
	fCvt
	// fFail aborts execution with the lowering error errs[n]: an SCU walk
	// that leaves its source band or walks past its C1 extent.
	fFail
)

// flatOp is one primitive data operation of a flattened program. Byte
// offsets are resolved; n counts lanes for fVec/fAcc/fCvt and bytes for
// fMove/fZero.
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
	idx    int // originating instruction (fInstr runs it; errors name it)
}

// flatProgram is the one statement of what each instruction does to the
// data: instruction decode, lane masking, repeat/block address arithmetic
// and the SCU's positional walk resolved into a linear list of primitive
// data operations. It is built at two granularities from the same
// lowering (appendInstr). flatten lowers a whole program, coalescing
// adjacent operations across instructions whenever doing so preserves the
// exact elementary load/op/store order, which amortizes all per-lane
// bookkeeping and makes untraced Replay cheap. The interpreter (step)
// lowers one instruction at a time into a reused scratch flatProgram, so
// nothing merges across an instruction boundary and per-instruction
// observers see every instruction. Flattening never affects timing: an
// Executable takes its Stats from the static board. The errors fFail ops
// return sit beside the ops, so the op list stays pointer-free.
type flatProgram struct {
	prog *cce.Program
	ops  []flatOp
	errs []error
}

// flatten builds the functional trace of prog. It depends only on the
// instruction stream, so one flatProgram may run on any core whose
// buffers fit the program's footprint.
func flatten(prog *cce.Program) *flatProgram {
	fp := &flatProgram{prog: prog}
	for idx, in := range prog.Instrs {
		fp.appendInstr(idx, in)
	}
	return fp
}

// appendInstr lowers instruction idx onto the end of fp.ops.
func (fp *flatProgram) appendInstr(idx int, in isa.Instr) {
	switch v := in.(type) {
	case *isa.VecInstr:
		fp.appendVec(idx, v)
	case *isa.CopyInstr:
		sOff, dOff := v.SrcAddr, v.DstAddr
		for b := 0; b < v.NBurst; b++ {
			fp.appendMove(idx, v.DstBuf, v.SrcBuf, dOff, sOff, v.BurstBytes)
			sOff += v.BurstBytes + v.SrcGap
			dOff += v.BurstBytes + v.DstGap
		}
	case *isa.ConvCopyInstr:
		fp.ops = append(fp.ops, flatOp{
			kind: fCvt, dBuf: isa.UB, sBuf: isa.L0C,
			dst: v.DstAddr, src: v.SrcAddr, n: v.Elems, idx: idx,
		})
	case *isa.Im2ColInstr:
		fp.appendIm2Col(idx, v)
	case *isa.Col2ImInstr:
		fp.appendCol2Im(idx, v)
	case *isa.MmadInstr, *isa.TransposeInstr:
		fp.ops = append(fp.ops, flatOp{kind: fInstr, idx: idx})
	case *isa.ScalarInstr, *isa.BarrierInstr, *isa.SetFlagInstr, *isa.WaitFlagInstr:
		// Functional no-ops: synchronization shapes the schedule, not
		// the data.
	default:
		fp.fail(idx, fmt.Errorf("unknown instruction type %T", in))
	}
}

func (fp *flatProgram) fail(idx int, err error) {
	fp.ops = append(fp.ops, flatOp{kind: fFail, n: len(fp.errs), idx: idx})
	fp.errs = append(fp.errs, err)
}

// maskBlock extracts the 16 mask bits covering block b's lanes.
func maskBlock(m isa.Mask, b int) uint16 {
	return uint16(m[b>>2] >> uint((b&3)*16))
}

// appendVec expands a vector instruction block by block, in repeat order;
// within a repeat lanes run in order, which gives the hardware's
// sequential-repeat semantics for reduction-style addressing (destination
// repeat stride 0). Each run of enabled lanes in a block becomes one fVec
// op and merges with a contiguous predecessor: a merged tight loop
// executes the identical sequence of elementary load/op/store steps, so
// coalescing is always safe even for overlapping or in-place addressing.
func (fp *flatProgram) appendVec(idx int, v *isa.VecInstr) {
	unary, binary := v.Op.IsUnary(), v.Op.IsBinary()
	for r := 0; r < v.Repeat; r++ {
		for b := 0; b < isa.BlocksPerRepeat; b++ {
			sub := maskBlock(v.Mask, b)
			for e := 0; sub != 0; {
				skip := bits.TrailingZeros16(sub)
				sub >>= skip
				e += skip
				n := bits.TrailingZeros16(^sub)
				sub >>= n
				lane := e * fp16.Bytes
				e += n
				op := flatOp{
					kind: fVec, op: v.Op,
					dBuf: v.Dst.Buf, dst: v.Dst.BlockAddr(r, b) + lane,
					n: n, scalar: v.Scalar, idx: idx,
				}
				if unary || binary {
					op.sBuf = v.Src0.Buf
					op.src = v.Src0.BlockAddr(r, b) + lane
				}
				if binary {
					op.s1Buf = v.Src1.Buf
					op.src1 = v.Src1.BlockAddr(r, b) + lane
				}
				if ln := len(fp.ops); ln > 0 {
					prev := &fp.ops[ln-1]
					pb := prev.n * fp16.Bytes
					if prev.kind == fVec && prev.op == v.Op && prev.scalar == v.Scalar &&
						prev.dBuf == op.dBuf && prev.dst+pb == op.dst &&
						(!(unary || binary) || (prev.sBuf == op.sBuf && prev.src+pb == op.src)) &&
						(!binary || (prev.s1Buf == op.s1Buf && prev.src1+pb == op.src1)) {
						prev.n += n
						continue
					}
				}
				fp.ops = append(fp.ops, op)
			}
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

// appendIm2Col performs the SCU load transform (paper §III-C): one
// fractal per repeat, each row a 32-byte move from the loaded band or a
// pad zero, with the positional parameters advancing according to the
// repeat mode. A walk that leaves the band or its C1 extent lowers to an
// fFail op at the point the walk goes wrong.
func (fp *flatProgram) appendIm2Col(idx int, im *isa.Im2ColInstr) {
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
				fp.fail(idx, fmt.Errorf("im2col patch %d row %d outside band [%d,%d)",
					patch, h, im.RowBase, im.RowBase+rows))
				return
			}
			srcOff := im.SrcAddr + ((c1*rows+h-im.RowBase)*im.P.Iw+w)*rowBytes
			fp.appendMove(idx, im.DstBuf, im.SrcBuf, rowAddr, srcOff, rowBytes)
		}
		// Advance positional parameters for the next automatic reissue.
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
			fp.fail(idx, fmt.Errorf("im2col repeat walked past c1 extent %d", im.C1Len))
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

// appendCol2Im performs the vector-unit merge: per fractal row, add it
// into its output position (paper Fig. 6). The tail rows of the last
// fractal and padding positions are discarded; a row outside the band
// lowers to an fFail op.
func (fp *flatProgram) appendCol2Im(idx int, ci *isa.Col2ImInstr) {
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
				fp.fail(idx, fmt.Errorf("col2im patch %d row %d outside band [%d,%d)",
					patch, h, ci.RowBase, ci.RowBase+rows))
				return
			}
			rowAddr := fracBase + row*rowBytes
			dstOff := ci.DstAddr + ((ci.C1Idx*rows+h-ci.RowBase)*ci.P.Iw+w)*rowBytes
			fp.appendAcc(idx, ci.DstBuf, ci.SrcBuf, dstOff, rowAddr)
		}
		patch0 += isa.FractalPatches
	}
}

// runFlat functionally executes fp's ops in order, polling Cancel before
// each. It performs no scheduling and records no timing; buffer contents
// afterwards are bit-identical to interpreting the original program.
func (c *Core) runFlat(fp *flatProgram) error {
	for i := range fp.ops {
		op := &fp.ops[i]
		if c.interrupted() {
			return fmt.Errorf("aicore: %s instr %d: %w", fp.prog.Name, op.idx, ErrInterrupted)
		}
		if err := c.execFlat(fp, op); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", fp.prog.Name, op.idx, fp.prog.Instrs[op.idx], err)
		}
	}
	return nil
}

// span returns the n bytes at off in buf, or an error naming the buffer
// when they exceed its capacity.
func (c *Core) span(buf isa.BufID, off, n int) ([]byte, error) {
	mem := c.Mem.Mem(buf)
	if off < 0 || off+n > len(mem) {
		return nil, fmt.Errorf("access [%d:%d) exceeds %v capacity %d", off, off+n, buf, len(mem))
	}
	return mem[off : off+n], nil
}

func (c *Core) execFlat(fp *flatProgram, op *flatOp) error {
	switch op.kind {
	case fInstr:
		switch v := fp.prog.Instrs[op.idx].(type) {
		case *isa.MmadInstr:
			return c.execMmad(v)
		case *isa.TransposeInstr:
			return c.execTranspose(v)
		}
	case fFail:
		return fp.errs[op.n]
	case fMove:
		dst, err := c.span(op.dBuf, op.dst, op.n)
		if err != nil {
			return err
		}
		src, err := c.span(op.sBuf, op.src, op.n)
		if err != nil {
			return err
		}
		copy(dst, src)
	case fZero:
		dst, err := c.span(op.dBuf, op.dst, op.n)
		if err != nil {
			return err
		}
		clear(dst)
	case fCvt:
		src, err := c.span(op.sBuf, op.src, op.n*4)
		if err != nil {
			return err
		}
		dst, err := c.span(op.dBuf, op.dst, op.n*fp16.Bytes)
		if err != nil {
			return err
		}
		for i := 0; i < op.n; i++ {
			f := math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
			fp16.Store(dst, i*fp16.Bytes, fp16.FromFloat32(f))
		}
	case fAcc:
		dst, err := c.span(op.dBuf, op.dst, op.n*fp16.Bytes)
		if err != nil {
			return err
		}
		src, err := c.span(op.sBuf, op.src, op.n*fp16.Bytes)
		if err != nil {
			return err
		}
		fp16.AddSlice(dst, dst, src)
	case fVec:
		return c.execFlatVec(op)
	}
	return nil
}

// execFlatVec runs one coalesced vector span with a single op dispatch
// and a tight per-lane loop in original lane order.
func (c *Core) execFlatVec(op *flatOp) error {
	nb := op.n * fp16.Bytes
	dst, err := c.span(op.dBuf, op.dst, nb)
	if err != nil {
		return err
	}
	var s0, s1 []byte
	if op.op.IsUnary() || op.op.IsBinary() {
		if s0, err = c.span(op.sBuf, op.src, nb); err != nil {
			return err
		}
	}
	if op.op.IsBinary() {
		if s1, err = c.span(op.s1Buf, op.src1, nb); err != nil {
			return err
		}
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
