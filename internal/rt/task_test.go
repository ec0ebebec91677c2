package rt

import (
	"math"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	good := Task{ID: 1, Arrival: 0, Sigma: 10, RelDeadline: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Task{
		{Sigma: 0, RelDeadline: 1},
		{Sigma: -1, RelDeadline: 1},
		{Sigma: math.Inf(1), RelDeadline: 1},
		{Sigma: 1, RelDeadline: 0},
		{Sigma: 1, RelDeadline: -2},
		{Sigma: 1, RelDeadline: math.NaN()},
		{Arrival: math.NaN(), Sigma: 1, RelDeadline: 1},
		{Arrival: math.Inf(-1), Sigma: 1, RelDeadline: 1},
	}
	for i, task := range bad {
		if err := task.Validate(); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, task)
		}
	}
}

func TestAbsDeadline(t *testing.T) {
	task := Task{Arrival: 10, RelDeadline: 5}
	if task.AbsDeadline() != 15 {
		t.Fatalf("AbsDeadline = %v", task.AbsDeadline())
	}
}

func TestPolicyString(t *testing.T) {
	if EDF.String() != "EDF" || FIFO.String() != "FIFO" {
		t.Fatalf("policy names wrong: %v %v", EDF, FIFO)
	}
	if Policy(9).String() == "" {
		t.Fatalf("unknown policy should still format")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"edf": EDF, "EDF": EDF, "Edf": EDF, "fifo": FIFO, "FIFO": FIFO, "fIfO": FIFO} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatalf("expected error for unknown policy")
	}
}

func TestEDFOrder(t *testing.T) {
	early := &Task{ID: 2, Arrival: 5, RelDeadline: 10} // absD 15
	late := &Task{ID: 1, Arrival: 0, RelDeadline: 100} // absD 100
	if !EDF.Less(early, late) {
		t.Fatalf("EDF must order by absolute deadline")
	}
	if EDF.Less(late, early) {
		t.Fatalf("EDF comparison not antisymmetric")
	}
	// Deadline tie: earlier arrival first.
	a := &Task{ID: 9, Arrival: 1, RelDeadline: 9}
	b := &Task{ID: 3, Arrival: 4, RelDeadline: 6}
	if !EDF.Less(a, b) {
		t.Fatalf("EDF tie must break by arrival")
	}
	// Full tie: smaller ID first.
	c := &Task{ID: 1, Arrival: 1, RelDeadline: 9}
	d := &Task{ID: 2, Arrival: 1, RelDeadline: 9}
	if !EDF.Less(c, d) || EDF.Less(d, c) {
		t.Fatalf("EDF tie must break by ID")
	}
}

func TestFIFOOrder(t *testing.T) {
	first := &Task{ID: 2, Arrival: 1, RelDeadline: 1000}
	second := &Task{ID: 1, Arrival: 5, RelDeadline: 1}
	if !FIFO.Less(first, second) {
		t.Fatalf("FIFO must order by arrival regardless of deadline")
	}
	// Arrival tie: smaller ID first.
	a := &Task{ID: 1, Arrival: 5}
	b := &Task{ID: 2, Arrival: 5}
	if !FIFO.Less(a, b) || FIFO.Less(b, a) {
		t.Fatalf("FIFO tie must break by ID")
	}
}

func TestPlanFirstStartRn(t *testing.T) {
	p := Plan{Starts: []float64{3, 7, 5}}
	if p.FirstStart() != 3 {
		t.Fatalf("FirstStart = %v", p.FirstStart())
	}
	if p.Rn() != 7 {
		t.Fatalf("Rn = %v", p.Rn())
	}
}

func TestAvailView(t *testing.T) {
	v := NewAvailView([]float64{30, 10, 20})
	if v.N() != 3 {
		t.Fatalf("N = %d", v.N())
	}
	ids, times := earliest(v, 2)
	if ids[0] != 1 || ids[1] != 2 || times[0] != 10 || times[1] != 20 {
		t.Fatalf("Earliest(2) = %v %v", ids, times)
	}
	v.Apply([]int{1}, []float64{50})
	ids, times = earliest(v, 3)
	if ids[0] != 2 || ids[1] != 0 || ids[2] != 1 {
		t.Fatalf("after Apply: %v %v", ids, times)
	}
	if times[2] != 50 {
		t.Fatalf("release not applied: %v", times)
	}
}

func TestAvailViewTieBreaksByID(t *testing.T) {
	v := NewAvailView([]float64{5, 5, 5})
	ids, _ := earliest(v, 3)
	for i, id := range ids {
		if id != i {
			t.Fatalf("equal times must order by id: %v", ids)
		}
	}
}

func TestAvailViewPanics(t *testing.T) {
	v := NewAvailView([]float64{1, 2})
	for name, fn := range map[string]func(){
		"zero":      func() { earliest(v, 0) },
		"too many":  func() { earliest(v, 3) },
		"apply len": func() { v.Apply([]int{0}, []float64{1, 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}
