package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func ar1Series(phi float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	xs[0] = 100
	for i := 1; i < n; i++ {
		xs[i] = 100 + phi*(xs[i-1]-100) + rng.NormFloat64()
	}
	return xs
}

func TestFromACFValidation(t *testing.T) {
	if _, err := FromACF([]float64{1, 0.5}, 0); err == nil {
		t.Fatal("order 0 should be rejected")
	}
	if _, err := FromACF([]float64{1, 0.5}, 2); err == nil {
		t.Fatal("insufficient lags should be rejected")
	}
	if _, err := FromACF([]float64{1, 1, 1}, 2); err == nil {
		t.Fatal("singular ACF should be rejected")
	}
}

func TestAR1OptimalPredictorIsPhi(t *testing.T) {
	// For an AR(1) process, the optimal one-step MA(1) predictor is
	// R̂_k = φ·R_{k-1}. With exact ACF ρ(k) = φ^k, FromACF must recover φ
	// at any order (higher coefficients zero).
	const phi = 0.7
	rho := []float64{1, phi, phi * phi, phi * phi * phi, phi * phi * phi * phi}
	p1, err := FromACF(rho, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.Coef[0]-phi) > 1e-12 {
		t.Fatalf("order-1 coef = %v, want [%g]", p1.Coef, phi)
	}
	p3, err := FromACF(rho, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p3.Coef[0]-phi) > 1e-9 || math.Abs(p3.Coef[1]) > 1e-9 || math.Abs(p3.Coef[2]) > 1e-9 {
		t.Fatalf("order-3 coef = %v, want [%g 0 0]", p3.Coef, phi)
	}
}

// raw is the paper's literal predictor: Centered at level 0.
func raw(coef ...float64) *Centered { return &Centered{P: &Predictor{Coef: coef}} }

func TestPredictUsesRecentHistory(t *testing.T) {
	p := raw(0.5, 0.25)
	// R̂ = 0.5·last + 0.25·second-to-last.
	got, err := p.Predict([]float64{9, 9, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5*8 + 0.25*4; got != want {
		t.Fatalf("prediction = %g, want %g", got, want)
	}
	if _, err := p.Predict([]float64{1}); err == nil {
		t.Fatal("short history should be rejected")
	}
}

func TestEvaluateOnPredictableSeries(t *testing.T) {
	// A deterministic geometric decay x_k = 0.9·x_{k-1} is perfectly
	// predicted by the order-1 predictor with coefficient 0.9.
	p := raw(0.9)
	xs := make([]float64, 200)
	xs[0] = 40
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.9 * xs[i-1]
	}
	got := p.PredictSeries(xs)
	for k := 1; k < len(xs); k++ {
		if math.Abs(got[k]-xs[k]) > 1e-9 {
			t.Fatalf("deterministic series mispredicted at %d: %g vs %g", k, got[k], xs[k])
		}
	}
	e, err := p.Evaluate(xs)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-12 {
		t.Fatalf("relative error = %g, want 0", e)
	}
}

func TestEvaluateErrorMetric(t *testing.T) {
	// Constant series, identity predictor: zero error.
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 42
	}
	p := raw(1)
	e, err := p.Evaluate(xs)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("error on constant series = %g, want 0", e)
	}
	// A predictor that always predicts 0 has error σ-ish/mean.
	pz := raw(0)
	e, err = pz.Evaluate(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-12 {
		t.Fatalf("zero predictor error = %g, want 1 (predicting 0 on constant 42)", e)
	}
	if _, err := p.Evaluate([]float64{1, 2}); err == nil {
		t.Fatal("too-short series should be rejected")
	}
}

func TestEvaluateOnNoisyAR1(t *testing.T) {
	// With φ = 0.9, σ_noise = 1, mean 100: optimal one-step error is
	// σ_noise; relative error ≈ 1%.
	xs := ar1Series(0.9, 20000, 3)
	centred := make([]float64, len(xs))
	for i, x := range xs {
		centred[i] = x - 100
	}
	rho := stats.AutoCorrelation(centred, 5)
	fit, err := FromACF(rho, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &Centered{P: fit}
	// Evaluate on the centred series shifted up to avoid the zero-mean
	// guard while keeping the predictor's assumptions (an MA predictor is
	// scale-free but not shift-free; the paper's rate series has a large
	// mean, giving its MA predictor an implicit level to lean on).
	var se, count float64
	for k := 2; k < len(centred); k++ {
		hat, err := p.Predict(centred[:k])
		if err != nil {
			t.Fatal(err)
		}
		d := hat - centred[k]
		se += d * d
		count++
	}
	rmse := math.Sqrt(se / count)
	if rmse > 1.1 {
		t.Fatalf("one-step RMSE = %g, want ≈ 1 (noise floor)", rmse)
	}
}

func TestPredictSeriesAlignment(t *testing.T) {
	p := raw(1, 0)
	xs := []float64{1, 2, 3, 4}
	out := p.PredictSeries(xs)
	if !math.IsNaN(out[0]) || !math.IsNaN(out[1]) {
		t.Fatal("seed samples should be NaN")
	}
	// Order-2 identity-on-last: out[k] = xs[k-1].
	if out[2] != 2 || out[3] != 3 {
		t.Fatalf("predictions = %v", out)
	}
}

func TestModelACF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	flows := &core.FlowPop{}
	for range 500 {
		s := 1e5 * math.Exp(rng.NormFloat64())
		flows.Append(s, 1+3*rng.Float64())
	}
	m, err := core.NewModel(50, core.Triangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := ModelACF(m, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rho[0] != 1 {
		t.Fatalf("ρ(0) = %g", rho[0])
	}
	for k := 1; k < len(rho); k++ {
		if rho[k] > rho[k-1]+1e-12 || rho[k] < 0 {
			t.Fatalf("model ACF not decreasing at %d: %v", k, rho)
		}
	}
	// Beyond the max duration (4 s) the correlation must be zero.
	if rho[9] != 0 {
		t.Fatalf("ρ beyond max duration = %g, want 0", rho[9])
	}
	if _, err := ModelACF(m, 0, 5); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := ModelACF(m, 1, 0); err == nil {
		t.Fatal("zero lags should be rejected")
	}
}

func TestSelectOrder(t *testing.T) {
	xs := ar1Series(0.8, 5000, 5)
	rho := stats.AutoCorrelation(xs, 12)
	p, trainErr, err := SelectOrder(rho, xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.P.Order() < 1 || p.P.Order() > 10 {
		t.Fatalf("selected order %d out of range", p.P.Order())
	}
	if !(trainErr > 0) {
		t.Fatalf("training error = %g", trainErr)
	}
	// In-sample MSE declines (weakly) with order, so the paper's rule may
	// legitimately run to maxM; the real check is that the selected
	// predictor reaches the noise floor.
	// One-step noise floor is σ=1 on a mean-100 process: ~1% error.
	if trainErr > 0.015 {
		t.Fatalf("training error %g, want ≈ 0.01", trainErr)
	}
	if _, _, err := SelectOrder(rho, xs, 0); err == nil {
		t.Fatal("maxM 0 should be rejected")
	}
}

func TestSelectOrderDegenerate(t *testing.T) {
	// Constant series: the ACF is 1, 0, 0, ...; the centred LMMSE solution
	// predicts the level exactly, so the training error is 0. Selection
	// must return that cleanly rather than crash or loop.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5
	}
	rho := stats.AutoCorrelation(xs, 5)
	p, trainErr, err := SelectOrder(rho, xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.P.Coef {
		if c != 0 {
			t.Fatalf("coefficients = %v, want all zero", p.P.Coef)
		}
	}
	if trainErr != 0 {
		t.Fatalf("training error = %g, want 0", trainErr)
	}
	if p.Level != 5 {
		t.Fatalf("level = %g, want 5", p.Level)
	}
}

func TestCenteredRemovesLevelBias(t *testing.T) {
	// AR(1) around mean 100: the raw MA predictor is biased by
	// (1-Σa)·μ = 20; the centred one sits at the noise floor.
	xs := ar1Series(0.8, 8000, 6)
	rho := stats.AutoCorrelation(xs, 3)
	p, err := FromACF(rho, 1)
	if err != nil {
		t.Fatal(err)
	}
	rawErr, err := (&Centered{P: p}).Evaluate(xs)
	if err != nil {
		t.Fatal(err)
	}
	c := &Centered{P: p, Level: stats.Mean(xs)}
	cent, err := c.Evaluate(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !(cent < rawErr/5) {
		t.Fatalf("centred error %g should be far below raw %g", cent, rawErr)
	}
	if cent > 0.015 {
		t.Fatalf("centred error %g, want ≈ 0.01 (noise floor)", cent)
	}
}

func TestCenteredPredictSeriesAndValidation(t *testing.T) {
	c := &Centered{P: &Predictor{Coef: []float64{1}}, Level: 10}
	if _, err := c.Predict(nil); err == nil {
		t.Fatal("short history should be rejected")
	}
	out := c.PredictSeries([]float64{12, 14})
	if !math.IsNaN(out[0]) {
		t.Fatal("seed sample should be NaN")
	}
	// Prediction = 10 + 1·(12-10) = 12.
	if out[1] != 12 {
		t.Fatalf("centred prediction = %g, want 12", out[1])
	}
	if _, err := c.Evaluate([]float64{1, 2}); err == nil {
		t.Fatal("short series should be rejected")
	}
}
