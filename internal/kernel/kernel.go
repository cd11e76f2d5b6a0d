// Package kernel implements the covariance (kernel) functions the paper
// evaluates for the Gaussian-process surrogate of Naive BO: the Radial
// Basis Function kernel and the Matérn family with smoothness 1/2, 3/2 and
// 5/2 (Section III-B, Figure 7). CherryPick's prescribed default is
// Matérn 5/2.
package kernel

import (
	"errors"
	"fmt"
	"math"
)

// ErrMismatch reports that two points passed to a kernel have different
// dimensionality.
var ErrMismatch = errors.New("kernel: dimension mismatch")

// Kind enumerates the covariance functions studied in the paper.
type Kind int

// The kernel kinds. Enums start at one so the zero value is invalid and
// an uninitialized Kind fails loudly.
const (
	RBF Kind = iota + 1
	Matern12
	Matern32
	Matern52
)

// String returns the paper's name for the kernel.
func (k Kind) String() string {
	switch k {
	case RBF:
		return "RBF"
	case Matern12:
		return "MATERN 1/2"
	case Matern32:
		return "MATERN 3/2"
	case Matern52:
		return "MATERN 5/2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// All lists every kernel the paper compares, in Figure 7's order.
func All() []Kind {
	return []Kind{RBF, Matern12, Matern32, Matern52}
}

// Kernel is a stationary covariance function with either an isotropic
// length scale or per-dimension (ARD, automatic relevance determination)
// length scales, plus a signal variance. Implementations must be symmetric
// and produce positive semi-definite Gram matrices.
type Kernel struct {
	Kind        Kind
	LengthScale float64 // l > 0; distance over which correlation decays
	Variance    float64 // sigma_f^2 > 0; prior marginal variance

	// ARDScales, when non-nil, replaces the isotropic LengthScale with a
	// per-dimension scale: larger scale = the dimension matters less.
	ARDScales []float64
}

// New constructs an isotropic kernel, validating hyperparameters.
func New(kind Kind, lengthScale, variance float64) (*Kernel, error) {
	switch kind {
	case RBF, Matern12, Matern32, Matern52:
	default:
		return nil, fmt.Errorf("kernel: invalid kind %d", int(kind))
	}
	if !(lengthScale > 0) || math.IsInf(lengthScale, 0) {
		return nil, fmt.Errorf("kernel: length scale must be positive and finite, got %v", lengthScale)
	}
	if !(variance > 0) || math.IsInf(variance, 0) {
		return nil, fmt.Errorf("kernel: variance must be positive and finite, got %v", variance)
	}
	return &Kernel{Kind: kind, LengthScale: lengthScale, Variance: variance}, nil
}

// NewARD constructs an anisotropic kernel with one length scale per input
// dimension (automatic relevance determination).
func NewARD(kind Kind, scales []float64, variance float64) (*Kernel, error) {
	if len(scales) == 0 {
		return nil, fmt.Errorf("kernel: ARD needs at least one scale")
	}
	for i, s := range scales {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("kernel: ARD scale %d must be positive and finite, got %v", i, s)
		}
	}
	k, err := New(kind, 1, variance)
	if err != nil {
		return nil, err
	}
	k.ARDScales = append([]float64(nil), scales...)
	return k, nil
}

// Eval returns k(a, b).
func (k *Kernel) Eval(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("kernel: points of dim %d and %d: %w", len(a), len(b), ErrMismatch)
	}
	var r float64
	if k.ARDScales != nil {
		if len(a) != len(k.ARDScales) {
			return 0, fmt.Errorf("kernel: point dim %d but %d ARD scales: %w", len(a), len(k.ARDScales), ErrMismatch)
		}
		d2 := 0.0
		for i := range a {
			diff := (a[i] - b[i]) / k.ARDScales[i]
			d2 += diff * diff
		}
		r = math.Sqrt(d2)
	} else {
		d2 := 0.0
		for i := range a {
			diff := a[i] - b[i]
			d2 += diff * diff
		}
		r = math.Sqrt(d2) / k.LengthScale
	}
	return k.Variance * k.correlation(r), nil
}

// correlation evaluates the unit-variance correlation at scaled distance r.
func (k *Kernel) correlation(r float64) float64 {
	switch k.Kind {
	case RBF:
		return math.Exp(-0.5 * r * r)
	case Matern12:
		// exp(-r): the Ornstein-Uhlenbeck kernel, continuous but not
		// differentiable — the weakest smoothness assumption.
		return math.Exp(-r)
	case Matern32:
		s := math.Sqrt(3) * r
		return (1 + s) * math.Exp(-s)
	case Matern52:
		s := math.Sqrt(5) * r
		return (1 + s + s*s/3) * math.Exp(-s)
	default:
		// New validates Kind, so this is unreachable through the public API.
		panic(fmt.Sprintf("kernel: invalid kind %d", int(k.Kind)))
	}
}

// Gram fills the n x n Gram matrix K[i][j] = k(xs[i], xs[j]).
func (k *Kernel) Gram(xs [][]float64) ([][]float64, error) {
	n := len(xs)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v, err := k.Eval(xs[i], xs[j])
			if err != nil {
				return nil, err
			}
			out[i][j] = v
			out[j][i] = v
		}
	}
	return out, nil
}
