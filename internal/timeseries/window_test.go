package timeseries

import (
	"reflect"
	"testing"
)

func TestWindowEvictsOldest(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Values(); got != nil {
		t.Fatalf("fresh window holds %v", got)
	}
	for i := 1; i <= 5; i++ {
		w.Push(float64(i))
	}
	if got := w.Values(); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("Values = %v after 5 pushes into cap 3, want [3 4 5]", got)
	}
}

func TestWindowAppendValuesNoAlloc(t *testing.T) {
	w, _ := NewWindow(4)
	for i := 0; i < 6; i++ {
		w.Push(float64(i))
	}
	scratch := make([]float64, 0, 8)
	got := w.AppendValues(scratch)
	if !reflect.DeepEqual(got, []float64{2, 3, 4, 5}) {
		t.Fatalf("AppendValues = %v", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendValues reallocated despite sufficient capacity")
	}
}

func TestWindowRestore(t *testing.T) {
	w, _ := NewWindow(4)
	for i := 0; i < 9; i++ {
		w.Push(float64(i))
	}
	vals := w.Values()

	w2, _ := NewWindow(4)
	if err := w2.RestoreValues(vals); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.Values(), vals) {
		t.Fatalf("restored Values = %v, want %v", w2.Values(), vals)
	}
	// Continued pushes behave identically to the live window.
	w.Push(100)
	w2.Push(100)
	if !reflect.DeepEqual(w.Values(), w2.Values()) {
		t.Fatalf("post-restore divergence: %v vs %v", w.Values(), w2.Values())
	}

	if err := w2.RestoreValues(make([]float64, 5)); err == nil {
		t.Fatal("RestoreValues accepted more samples than capacity")
	}
	if _, err := NewWindow(0); err == nil {
		t.Fatal("NewWindow accepted capacity 0")
	}
}

func TestBinnerStateRoundTrip(t *testing.T) {
	live, err := NewBinner(2.0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		live.Add(float64(i)*0.2, 800)
	}
	st := live.State()

	restored, err := NewBinner(1.0, 0.5) // different geometry, re-targeted by restore
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// Same subsequent additions must yield identical series.
	live.Add(1.9, 400)
	restored.Add(1.9, 400)
	if !reflect.DeepEqual(live.Series(), restored.Series()) {
		t.Fatal("binner series diverged after restore")
	}

	bad := st
	bad.Bits = st.Bits[:len(st.Bits)-1]
	if err := restored.RestoreState(bad); err == nil {
		t.Fatal("RestoreState accepted a bin-count mismatch")
	}
	bad = st
	bad.Delta = -1
	if err := restored.RestoreState(bad); err == nil {
		t.Fatal("RestoreState accepted a negative delta")
	}
}
