package fp16

// Slice kernels: lane-wise operations over packed little-endian binary16
// byte slices, used by the simulator's flattened replay path (see
// aicore.Executable). All slices must have the same even length. dst may
// alias a or b: lanes are processed in increasing order, so aliased
// operands observe earlier lanes' results exactly as a sequential
// per-lane loop would.
//
// MaxSlice and MinSlice split off a fast path for the overwhelmingly
// common case (no NaN operand, not two zeroes): a single orderKey compare
// per lane. The remaining cases defer to the scalar functions, so the
// results are bit-identical to calling Max/Min per lane.

// MaxSlice stores lane-wise Max(a, b) into dst.
func MaxSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		x, y := Load(a, i), Load(b, i)
		if (x|y)&0x7fff != 0 && x&0x7fff <= 0x7c00 && y&0x7fff <= 0x7c00 {
			if orderKey(x) < orderKey(y) {
				x = y
			}
			Store(dst, i, x)
			continue
		}
		Store(dst, i, Max(x, y))
	}
}

// MinSlice stores lane-wise Min(a, b) into dst.
func MinSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		x, y := Load(a, i), Load(b, i)
		if (x|y)&0x7fff != 0 && x&0x7fff <= 0x7c00 && y&0x7fff <= 0x7c00 {
			// Equal keys imply identical bit patterns, so either pick
			// matches Min exactly.
			if orderKey(y) < orderKey(x) {
				x = y
			}
			Store(dst, i, x)
			continue
		}
		Store(dst, i, Min(x, y))
	}
}

// AddSlice stores lane-wise a+b into dst.
func AddSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, Add(Load(a, i), Load(b, i)))
	}
}

// SubSlice stores lane-wise a-b into dst.
func SubSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, Sub(Load(a, i), Load(b, i)))
	}
}

// MulSlice stores lane-wise a*b into dst.
func MulSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, Mul(Load(a, i), Load(b, i)))
	}
}

// AddsSlice stores lane-wise a+s into dst.
func AddsSlice(dst, a []byte, s Float16) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, Add(Load(a, i), s))
	}
}

// MulsSlice stores lane-wise a*s into dst.
func MulsSlice(dst, a []byte, s Float16) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, Mul(Load(a, i), s))
	}
}

// DupSlice broadcasts s into every lane of dst.
func DupSlice(dst []byte, s Float16) {
	for i := 0; i < len(dst); i += Bytes {
		Store(dst, i, s)
	}
}

// CmpEqSlice stores lane-wise (a == b ? 1.0 : 0.0) into dst.
func CmpEqSlice(dst, a, b []byte) {
	for i := 0; i < len(dst); i += Bytes {
		out := Zero
		if Equal(Load(a, i), Load(b, i)) {
			out = One
		}
		Store(dst, i, out)
	}
}
