package ops

import (
	"fmt"

	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/scu"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// avgScale returns the binary16 value of 1/(Kh*Kw), the element-wise
// division factor applied before saving the final output (§V-C).
func avgScale(p isa.ConvParams) fp16.Float16 {
	return fp16.FromFloat64(1 / float64(p.Kh*p.Kw))
}

// planAvgPoolBwdStandard and planAvgPoolBwdCol2im are the two Avgpool
// backward lowering modes as schedule-parameterized planners.
func planAvgPoolBwdStandard(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planAvgPoolBackward(spec, p, false, sp)
}

func planAvgPoolBwdCol2im(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	return planAvgPoolBackward(spec, p, true, sp)
}

// PlanAvgPoolBackward compiles the Avgpool backward pass with the
// hand-tuned default schedule (or a searched one, under an AutoSchedule
// Spec). The equivalent mask contains 1 in all positions (every input
// contributes to a sum, §V-C), so the kernel scales the incoming
// gradients by 1/(Kh*Kw) and merges them — with 16-lane vadds when
// useCol2im is false (the standard lowering) or with Col2Im instructions
// when true. Run takes (grad) and returns (dx).
func PlanAvgPoolBackward(spec Spec, p isa.ConvParams, useCol2im bool) (*Plan, error) {
	variant := "standard"
	if useCol2im {
		variant = "col2im"
	}
	return planVariant(trace.Ctx{}, "avgpool_bwd", "avgpool backward", variant, spec, p)
}

func planAvgPoolBackward(spec Spec, p isa.ConvParams, useCol2im bool, sp ScheduleParams) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	name := "avgpool_bwd_standard"
	if useCol2im {
		name = "avgpool_bwd_col2im"
	}
	if err := noKnob(name, sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if err := noKnob(name, sp.Gather, "gather"); err != nil {
		return nil, err
	}
	b := newPlanner(name, spec, p)
	core := b.core
	oh, ow := p.OutDims()
	patches := p.Patches()
	fracs := p.Fractals()
	gradGM, err := b.input(oh * ow * Block)
	if err != nil {
		return nil, err
	}
	outGM, err := core.Mem.Space(isa.GM).Alloc(p.Ih * p.Iw * Block)
	if err != nil {
		return nil, err
	}
	inRowB := p.Iw * Block
	rowsFor := func(b int) int {
		patchRows := (b*isa.FractalPatches+ow-1)/ow + 1
		return min(p.Ih, (patchRows-1)*p.Sh+p.Kh)
	}
	band, buffers, err := resolveBand(name, p, ubAvail(core), fracs, sp, func(b, n int) int {
		return n*b*isa.FractalBytes + rowsFor(b)*inRowB
	})
	if err != nil {
		return nil, err
	}
	ub := core.Mem.Space(isa.UB)
	var gradUB [2]int
	for i := 0; i < buffers; i++ {
		gradUB[i] = ub.MustAlloc(band * isa.FractalBytes)
	}
	outUB := ub.MustAlloc(rowsFor(band) * inRowB)

	prog := cce.New(name)
	prevHi := 0
	for f0, bi := 0, 0; f0 < fracs; f0, bi = f0+band, bi+1 {
		fb := min(band, fracs-f0)
		gUB := gradUB[bi%buffers]
		pa := f0 * isa.FractalPatches
		bandPatches := fb * isa.FractalPatches
		valid := min(patches, pa+bandPatches) - pa

		prog.EmitCopy(isa.GM, gradGM+pa*Block, isa.UB, gUB, valid*Block)
		if tail := bandPatches - valid; tail > 0 {
			prog.EmitDup(isa.UB, gUB+valid*Block, tail*tensor.C0, fp16.Zero)
		}
		// Scale by 1/(Kh*Kw), sliced at the schedule's repeat-chunk cap
		// (bandPatches*C0 is a whole number of full-mask repeats).
		emitVecChunked(prog, sp, isa.VMuls, isa.Contig(isa.UB, gUB), isa.Contig(isa.UB, gUB),
			isa.Contig(isa.UB, 0), avgScale(p), isa.FullMask(), fb*2)

		// Output row band with boundary accumulation (as in backward max).
		lo, hi := patchRowRange(p, ow, patches, pa, pa+bandPatches)
		overlap := max(0, prevHi-lo)
		if overlap > 0 {
			prog.EmitCopy(isa.GM, outGM+lo*inRowB, isa.UB, outUB, overlap*inRowB)
		}
		if fresh := hi - lo - overlap; fresh > 0 {
			prog.EmitDup(isa.UB, outUB+overlap*inRowB, fresh*p.Iw*tensor.C0, fp16.Zero)
		}

		if useCol2im {
			// The same scaled gradient band merges once per (kh, kw): the
			// Col2Im source is identical for every kernel position.
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					pt := pa
					src := gUB
					for _, rep := range isa.SplitRepeat(fb) {
						prog.Emit(&isa.Col2ImInstr{
							SrcBuf: isa.UB, SrcAddr: src,
							DstBuf: isa.UB, DstAddr: outUB,
							P: p, C1Len: 1, Xk: xk, Yk: yk,
							Patch0: pt, RowBase: lo, Rows: hi - lo, Repeat: rep,
						})
						pt += rep * isa.FractalPatches
						src += rep * isa.FractalBytes
					}
				}
			}
		} else {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					for pt := pa; pt < pa+valid; pt++ {
						h, w, pad := scu.SourceCoord(p, pt, xk, yk)
						if pad {
							continue
						}
						dst := isa.Operand{Buf: isa.UB, Addr: outUB + ((h-lo)*p.Iw+w)*Block, BlkStride: 1, RepStride: 0}
						src := isa.Operand{Buf: isa.UB, Addr: gUB + (pt-pa)*Block, BlkStride: 1, RepStride: 0}
						prog.EmitVec(isa.VAdd, dst, dst, src, 0, isa.MaskFirstN(tensor.C0), 1)
					}
				}
			}
		}
		prog.EmitCopy(isa.UB, outUB, isa.GM, outGM+lo*inRowB, (hi-lo)*inRowB)
		prevHi = hi
	}
	b.output(outGM, 1, 1, p.Ih, p.Iw, tensor.C0)
	pl, err := b.seal(prog, spec)
	if err != nil {
		return nil, err
	}
	pl.bind = func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs("avgpool_bwd", 1, inputs); err != nil {
			return nil, err
		}
		grad := inputs[0]
		if len(grad.Shape) != 5 || grad.Shape[2] != oh || grad.Shape[3] != ow {
			return nil, fmt.Errorf("ops: avgpool_bwd: grad shape %v, want (1,1,%d,%d,%d)", grad.Shape, oh, ow, tensor.C0)
		}
		return inputs, nil
	}
	pl.Sched = ScheduleParams{
		Mode: sp.Mode, Band: band, Buffers: buffers, RepeatChunk: resolvedRepeatChunk(sp),
	}
	return pl, nil
}
