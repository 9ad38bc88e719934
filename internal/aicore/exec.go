package aicore

import (
	"encoding/binary"
	"math"

	"davinci/internal/fp16"
	"davinci/internal/isa"
)

// The Cube's matrix multiply and the SCU transpose are interpreted here,
// whole instructions at a time, and reached through flat.go's fInstr op;
// flat.go lowers every other instruction to primitive ops.

// checkAll bounds-checks every region in reads or writes.
func (c *Core) checkAll(in isa.Instr) error {
	for _, r := range in.Reads() {
		if _, err := c.span(r.Buf, r.Off, r.End-r.Off); err != nil {
			return err
		}
	}
	for _, w := range in.Writes() {
		if _, err := c.span(w.Buf, w.Off, w.End-w.Off); err != nil {
			return err
		}
	}
	return nil
}

// execMmad multiplies fractal matrices with fp32 accumulation in L0C.
// Fractal (i, j) of an (R x S)-fractal matrix sits at base + (i*S+j)*512;
// element (r, c) of a fractal is row-major.
func (c *Core) execMmad(mm *isa.MmadInstr) error {
	if err := c.checkAll(mm); err != nil {
		return err
	}
	a := c.Mem.Mem(isa.L0A)
	b := c.Mem.Mem(isa.L0B)
	cc := c.Mem.Mem(isa.L0C)
	const fp32Bytes = 4
	fracElems := isa.FractalPatches * isa.FractalC0

	for m := 0; m < mm.M; m++ {
		for n := 0; n < mm.N; n++ {
			cBase := mm.CAddr + (m*mm.N+n)*fracElems*fp32Bytes
			for r := 0; r < isa.FractalPatches; r++ {
				for col := 0; col < isa.FractalC0; col++ {
					cOff := cBase + (r*isa.FractalC0+col)*fp32Bytes
					var acc float32
					if mm.Accumulate {
						acc = math.Float32frombits(binary.LittleEndian.Uint32(cc[cOff:]))
					}
					for k := 0; k < mm.K; k++ {
						aBase := mm.AAddr + (m*mm.K+k)*isa.FractalBytes
						bBase := mm.BAddr + (k*mm.N+n)*isa.FractalBytes
						for j := 0; j < isa.FractalC0; j++ {
							av := fp16.ToFloat32(fp16.Load(a, aBase+(r*isa.FractalC0+j)*fp16.Bytes))
							bv := fp16.ToFloat32(fp16.Load(b, bBase+(j*isa.FractalC0+col)*fp16.Bytes))
							acc += av * bv
						}
					}
					binary.LittleEndian.PutUint32(cc[cOff:], math.Float32bits(acc))
				}
			}
		}
	}
	return nil
}

// execTranspose transposes 16x16 Float16 tiles between buffers.
func (c *Core) execTranspose(tr *isa.TransposeInstr) error {
	if err := c.checkAll(tr); err != nil {
		return err
	}
	src := c.Mem.Mem(tr.SrcBuf)
	dst := c.Mem.Mem(tr.DstBuf)
	stride := tr.EffDstStride()
	for f := 0; f < tr.Repeat; f++ {
		sBase := tr.SrcAddr + f*isa.FractalBytes
		dBase := tr.DstAddr + f*stride
		for r := 0; r < isa.FractalPatches; r++ {
			for col := 0; col < isa.FractalC0; col++ {
				v := fp16.Load(src, sBase+(r*isa.FractalC0+col)*fp16.Bytes)
				fp16.Store(dst, dBase+(col*isa.FractalC0+r)*fp16.Bytes, v)
			}
		}
	}
	return nil
}
