package ops

import (
	"davinci/internal/isa"
	"davinci/internal/tensor"
)

// planAvgPoolFwdCube compiles average pooling on the Cube unit by mapping
// it to convolution — the paper's §VIII future-work direction, following
// the Suita et al. observation (§VII) that Avgpool "can be mapped to
// convolution where the kernel's weights are equal to 1/(Kh*Kw)". Each C0
// channel uses a diagonal weight matrix, so channels stay independent; the
// Im2Col loads feed L0A in repeat mode 0 and the MMAD accumulates in fp32,
// which makes this variant *more* accurate than the Float16 vector-sum
// reduction (results may differ from the vector kernels by final-rounding
// ULPs).
//
// Unlike the vector variants this one cannot produce Maxpool ("CNNs tend
// to use Maxpool, which cannot be fused in the same way", §VII), so it
// complements rather than replaces the Im2col vector kernel. The plan is
// the conv plan with a bind step that synthesizes the diagonal weights, so
// Run takes just (in) like the other forward variants.
func planAvgPoolFwdCube(spec Spec, p isa.ConvParams, sp ScheduleParams) (*Plan, error) {
	// The Cube lowering delegates its schedule to the conv planner, which
	// exposes no vector-schedule axes; only the mode itself is searchable.
	if err := noKnob("avgpool_fwd_cube", sp.Band, "band"); err != nil {
		return nil, err
	}
	if err := noKnob("avgpool_fwd_cube", sp.Buffers, "buffers"); err != nil {
		return nil, err
	}
	if err := noKnob("avgpool_fwd_cube", sp.Saturate, "saturate"); err != nil {
		return nil, err
	}
	if err := noKnob("avgpool_fwd_cube", sp.RepeatChunk, "repeat_chunk"); err != nil {
		return nil, err
	}
	if err := noKnob("avgpool_fwd_cube", sp.Epilogue, "epilogue"); err != nil {
		return nil, err
	}
	if err := noKnob("avgpool_fwd_cube", sp.Gather, "gather"); err != nil {
		return nil, err
	}
	spec.AutoSchedule = false
	pl, err := PlanConv2D(spec, p, tensor.C0, tensor.C0)
	if err != nil {
		return nil, err
	}
	pl.Sched = ScheduleParams{Mode: sp.Mode}
	convBind := pl.bind
	pl.Name = "avgpool_fwd_cube"
	pl.bind = func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if err := wantInputs("avgpool_fwd_cube", 1, inputs); err != nil {
			return nil, err
		}
		in := inputs[0]
		if err := checkTile(in, p); err != nil {
			return nil, err
		}
		// Diagonal 16x16-channel weights scaled by 1/(Kh*Kw).
		w := tensor.New(tensor.C0, tensor.C0, p.Kh, p.Kw)
		inv := avgScale(p)
		for ch := 0; ch < tensor.C0; ch++ {
			for xk := 0; xk < p.Kh; xk++ {
				for yk := 0; yk < p.Kw; yk++ {
					w.Set(inv, ch, ch, xk, yk)
				}
			}
		}
		return convBind([]*tensor.Tensor{in, w})
	}
	return pl, nil
}
