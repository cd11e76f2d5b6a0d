package kernel

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		kind    Kind
		ls, v   float64
		wantErr bool
	}{
		{"valid rbf", RBF, 1, 1, false},
		{"valid matern", Matern52, 0.5, 2, false},
		{"zero kind", 0, 1, 1, true},
		{"bad kind", Kind(99), 1, 1, true},
		{"zero length scale", RBF, 0, 1, true},
		{"negative length scale", RBF, -1, 1, true},
		{"inf length scale", RBF, math.Inf(1), 1, true},
		{"zero variance", RBF, 1, 0, true},
		{"negative variance", RBF, 1, -2, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.kind, tt.ls, tt.v)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%v, %v, %v) error = %v, wantErr %v", tt.kind, tt.ls, tt.v, err, tt.wantErr)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{RBF, "RBF"},
		{Matern12, "MATERN 1/2"},
		{Matern32, "MATERN 3/2"},
		{Matern52, "MATERN 5/2"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestEvalAtZeroDistanceEqualsVariance(t *testing.T) {
	for _, kind := range All() {
		k, err := New(kind, 0.7, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{1, 2, 3}
		got, err := k.Eval(x, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-2.5) > 1e-12 {
			t.Errorf("%v: k(x,x) = %v, want variance 2.5", kind, got)
		}
	}
}

func TestEvalSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range All() {
		k, _ := New(kind, 0.9, 1.3)
		for trial := 0; trial < 100; trial++ {
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b := []float64{rng.NormFloat64(), rng.NormFloat64()}
			kab, err := k.Eval(a, b)
			if err != nil {
				t.Fatal(err)
			}
			kba, err := k.Eval(b, a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(kab-kba) > 1e-14 {
				t.Fatalf("%v not symmetric: %v vs %v", kind, kab, kba)
			}
		}
	}
}

func TestEvalDecreasesWithDistance(t *testing.T) {
	for _, kind := range All() {
		k, _ := New(kind, 1, 1)
		prev := math.Inf(1)
		for d := 0.0; d <= 5; d += 0.25 {
			v, err := k.Eval([]float64{0}, []float64{d})
			if err != nil {
				t.Fatal(err)
			}
			if v > prev+1e-12 {
				t.Errorf("%v not monotone decreasing at distance %v", kind, d)
			}
			if v < 0 || v > 1 {
				t.Errorf("%v correlation %v out of [0,1] at distance %v", kind, v, d)
			}
			prev = v
		}
	}
}

func TestEvalDimensionMismatch(t *testing.T) {
	k, _ := New(RBF, 1, 1)
	if _, err := k.Eval([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrMismatch) {
		t.Errorf("error = %v, want ErrMismatch", err)
	}
}

// TestSmoothnessOrdering pins the Matérn family's key property: at equal
// distance, smoother kernels (higher nu) retain more correlation at short
// range but the ordering reverses nowhere that breaks monotonicity in nu
// at moderate distance.
func TestSmoothnessOrderingAtUnitDistance(t *testing.T) {
	vals := map[Kind]float64{}
	for _, kind := range All() {
		k, _ := New(kind, 1, 1)
		v, err := k.Eval([]float64{0}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		vals[kind] = v
	}
	// Known closed-form values at r=1, l=1.
	if want := math.Exp(-1); math.Abs(vals[Matern12]-want) > 1e-12 {
		t.Errorf("Matern12(1) = %v, want %v", vals[Matern12], want)
	}
	if want := math.Exp(-0.5); math.Abs(vals[RBF]-want) > 1e-12 {
		t.Errorf("RBF(1) = %v, want %v", vals[RBF], want)
	}
	s3 := math.Sqrt(3)
	if want := (1 + s3) * math.Exp(-s3); math.Abs(vals[Matern32]-want) > 1e-12 {
		t.Errorf("Matern32(1) = %v, want %v", vals[Matern32], want)
	}
	s5 := math.Sqrt(5)
	if want := (1 + s5 + 5.0/3) * math.Exp(-s5); math.Abs(vals[Matern52]-want) > 1e-12 {
		t.Errorf("Matern52(1) = %v, want %v", vals[Matern52], want)
	}
	// Rougher kernels decay faster at unit distance.
	if !(vals[Matern12] < vals[Matern32] && vals[Matern32] < vals[Matern52]) {
		t.Errorf("Matérn ordering broken: %v", vals)
	}
}

// TestGramPSDProperty checks positive semi-definiteness of random Gram
// matrices by Cholesky-factoring them with a small jitter.
func TestGramPSDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range All() {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(10)
			dim := 1 + rng.Intn(4)
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = make([]float64, dim)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64() * 3
				}
			}
			k, _ := New(kind, 0.5+rng.Float64(), 0.5+rng.Float64())
			gram, err := k.Gram(xs)
			if err != nil {
				t.Fatal(err)
			}
			m := mat.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := gram[i][j]
					if i == j {
						v += 1e-9
					}
					m.Set(i, j, v)
				}
			}
			if _, err := mat.NewCholesky(m); err != nil {
				t.Errorf("%v trial %d: Gram not PSD: %v", kind, trial, err)
			}
		}
	}
}

func TestGramSymmetric(t *testing.T) {
	k, _ := New(Matern52, 1, 1)
	xs := [][]float64{{0}, {1}, {2.5}}
	gram, err := k.Gram(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gram {
		for j := range gram {
			if gram[i][j] != gram[j][i] {
				t.Errorf("Gram[%d][%d] != Gram[%d][%d]", i, j, j, i)
			}
		}
	}
}

func TestAllListsFourKernels(t *testing.T) {
	if got := len(All()); got != 4 {
		t.Errorf("All() has %d kernels, want 4", got)
	}
}
