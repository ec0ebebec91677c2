package fleet_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/fleet"
)

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in   string
		want fleet.Schedule
	}{
		{"", nil},
		{"   ;  ; ", nil},
		{"t=5 fail n3", fleet.Schedule{{At: 5, State: cluster.NodeDown, Node: 3}}},
		{"t=5s fail n3", fleet.Schedule{{At: 5, State: cluster.NodeDown, Node: 3}}},
		{"t=250ms drain 0", fleet.Schedule{{At: 0.25, State: cluster.NodeDraining, Node: 0}}},
		{"t=1.5 restore n12", fleet.Schedule{{At: 1.5, State: cluster.NodeUp, Node: 12}}},
		{
			"t=5s fail n3; t=12s restore n3",
			fleet.Schedule{
				{At: 5, State: cluster.NodeDown, Node: 3},
				{At: 12, State: cluster.NodeUp, Node: 3},
			},
		},
		{
			"  t=0 drain n1 ;t=2 fail n0;  ",
			fleet.Schedule{
				{At: 0, State: cluster.NodeDraining, Node: 1},
				{At: 2, State: cluster.NodeDown, Node: 0},
			},
		},
	}
	for _, tc := range cases {
		got, err := fleet.ParseSchedule(tc.in)
		if err != nil {
			t.Errorf("ParseSchedule(%q): unexpected error %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSchedule(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseScheduleRejects(t *testing.T) {
	bad := []string{
		"fail n3",              // missing t=
		"t=5 fail",             // missing node
		"t=5 explode n3",       // unknown action
		"t=-1 fail n3",         // negative offset
		"t=NaN fail n3",        // non-finite offset
		"t=+Inf fail n3",       // non-finite offset
		"t=x fail n3",          // unparsable offset
		"t=5 fail n-1",         // negative node
		"t=5 fail nx",          // unparsable node
		"t=5 fail n03",         // non-canonical node id
		"t=5 fail n3 extra",    // trailing token
		"t=5s fail n3; waffle", // bad second entry
	}
	for _, in := range bad {
		if _, err := fleet.ParseSchedule(in); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("ParseSchedule(%q): want ErrBadConfig, got %v", in, err)
		}
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	sch := fleet.Schedule{
		{At: 0.25, State: cluster.NodeDraining, Node: 0},
		{At: 5, State: cluster.NodeDown, Node: 3},
		{At: 12, State: cluster.NodeUp, Node: 3},
	}
	s := sch.String()
	back, err := fleet.ParseSchedule(s)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s, err)
	}
	if !reflect.DeepEqual(back, sch) {
		t.Fatalf("round trip: %q parsed to %+v, want %+v", s, back, sch)
	}
}

func TestSortedIsStableAndNonMutating(t *testing.T) {
	sch := fleet.Schedule{
		{At: 12, State: cluster.NodeUp, Node: 3},
		{At: 5, State: cluster.NodeDown, Node: 3},
		{At: 5, State: cluster.NodeDraining, Node: 1}, // same offset: keeps written order
	}
	orig := make(fleet.Schedule, len(sch))
	copy(orig, sch)
	got := sch.Sorted()
	want := fleet.Schedule{sch[1], sch[2], sch[0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted() = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(sch, orig) {
		t.Fatalf("Sorted() mutated its receiver: %+v", sch)
	}
}

// recorder records the ops it is handed, in schedule grammar.
type recorder struct{ ops []string }

func (r *recorder) apply(op fleet.Op) error {
	r.ops = append(r.ops, fmt.Sprintf("%s n%d", fleet.Verb(op.State), op.Node))
	return nil
}

func TestVerbsMapToStates(t *testing.T) {
	for verb, want := range map[string]cluster.NodeState{
		"drain": cluster.NodeDraining, "fail": cluster.NodeDown, "restore": cluster.NodeUp,
	} {
		st, err := fleet.ParseVerb(verb)
		if err != nil || st != want {
			t.Fatalf("ParseVerb(%q) = %v, %v; want %v", verb, st, err, want)
		}
		if got := fleet.Verb(st); got != verb {
			t.Fatalf("Verb(%v) = %q, want %q", st, got, verb)
		}
	}
	if _, err := fleet.ParseVerb("reboot"); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("ParseVerb(reboot): err = %v, want ErrBadConfig", err)
	}
}

func TestRunExecutesInOrderAndStopsOnError(t *testing.T) {
	rec := &recorder{}
	sch := fleet.Schedule{
		{At: 0.002, State: cluster.NodeUp, Node: 1},
		{At: 0, State: cluster.NodeDown, Node: 1},
	}
	err := fleet.Run(nil, sch, rec.apply)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fail n1", "restore n1"}
	if !reflect.DeepEqual(rec.ops, want) {
		t.Fatalf("run order = %v, want %v", rec.ops, want)
	}

	boom := errors.New("boom")
	calls := 0
	err = fleet.Run(nil, sch, func(fleet.Op) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run after apply failure: want boom, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("Run kept going after apply failure: %d calls", calls)
	}
}

func TestRunHonoursDone(t *testing.T) {
	done := make(chan struct{})
	close(done)
	sch := fleet.Schedule{{At: 3600, State: cluster.NodeDown, Node: 0}}
	start := time.Now()
	if err := fleet.Run(done, sch, func(fleet.Op) error {
		t.Fatal("apply called after done")
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run ignored done for %v", elapsed)
	}
}

// FuzzParseSchedule checks that the parser never panics and that every
// schedule it accepts survives a String→ParseSchedule round trip intact —
// the property the CI fuzz smoke exercises.
func FuzzParseSchedule(f *testing.F) {
	f.Add("t=5s fail n3; t=12s restore n3")
	f.Add("t=0 drain 0")
	f.Add("t=1.5e-3 restore n12")
	f.Add(" ; ;; ")
	f.Add("t=250ms drain n1")
	f.Add("t=5 fail n3 extra")
	f.Add("t=NaN fail n3")
	f.Fuzz(func(t *testing.T, in string) {
		sch, err := fleet.ParseSchedule(in)
		if err != nil {
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("ParseSchedule(%q): non-config error %v", in, err)
			}
			return
		}
		s := sch.String()
		back, err := fleet.ParseSchedule(s)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) ok, but re-parse of %q failed: %v", in, s, err)
		}
		if len(back) != len(sch) {
			t.Fatalf("round trip of %q: %d ops became %d", in, len(sch), len(back))
		}
		for i := range sch {
			if back[i] != sch[i] {
				t.Fatalf("round trip of %q: op %d %+v became %+v", in, i, sch[i], back[i])
			}
		}
	})
}
