package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/stream"
)

// tinyStream: two unit slices at t=0, one size-2 slice at t=1.
func tinyStream(t *testing.T) *stream.Stream {
	t.Helper()
	return stream.NewBuilder().
		Add(0, 1, 3).
		Add(0, 1, 5).
		Add(1, 2, 4).
		MustBuild()
}

// legalSchedule builds, by hand, a legal schedule for tinyStream with
// B=2, R=1, D=2, P=0: slice 0 sent at 0, slice 1 sent at 1, slice 2
// dropped at the server at 1.
func legalSchedule(t *testing.T) *Schedule {
	t.Helper()
	return &Schedule{
		Stream: tinyStream(t),
		Params: Params{ServerBuffer: 2, ClientBuffer: 2, Rate: 1, Delay: 2, LinkDelay: 0},
		Outcomes: []Outcome{
			{First: 0, End: 1, SendStart: 0, SendEnd: 0, DropTime: None, PlayTime: 2},
			{First: 1, End: 2, SendStart: 1, SendEnd: 1, DropTime: None, PlayTime: 2},
			{First: 2, End: 3, SendStart: None, SendEnd: None, DropTime: 1, DropSite: SiteServer, PlayTime: None},
		},
		SentPerStep: []int{1, 1, 0},
		ServerOcc:   []int{1, 0, 0},
		ClientOcc:   []int{1, 2, 0},
		Algorithm:   "hand",
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{ServerBuffer: 1, ClientBuffer: 1, Rate: 1, Delay: 0, LinkDelay: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{ServerBuffer: 0, ClientBuffer: 1, Rate: 1},
		{ServerBuffer: 1, ClientBuffer: 0, Rate: 1},
		{ServerBuffer: 1, ClientBuffer: 1, Rate: 0},
		{ServerBuffer: 1, ClientBuffer: 1, Rate: 1, Delay: -1},
		{ServerBuffer: 1, ClientBuffer: 1, Rate: 1, LinkDelay: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %d accepted: %+v", i, p)
		}
	}
}

func TestMetrics(t *testing.T) {
	s := legalSchedule(t)
	if got := s.Throughput(); got != 2 {
		t.Errorf("Throughput = %d, want 2", got)
	}
	if got := s.Benefit(); got != 8 {
		t.Errorf("Benefit = %v, want 8", got)
	}
	if got := s.DroppedSlices(); got != 1 {
		t.Errorf("DroppedSlices = %d, want 1", got)
	}
	if got := s.DroppedAt(SiteServer); got != 1 {
		t.Errorf("DroppedAt(server) = %d, want 1", got)
	}
	if got := s.DroppedAt(SiteClient); got != 0 {
		t.Errorf("DroppedAt(client) = %d, want 0", got)
	}
	// Weighted loss: total weight 12, played 8 -> 1/3.
	if got := s.WeightedLoss(); got < 0.333 || got > 0.334 {
		t.Errorf("WeightedLoss = %v, want 1/3", got)
	}
	// Byte loss: 2 of 4 bytes.
	if got := s.ByteLoss(); got != 0.5 {
		t.Errorf("ByteLoss = %v, want 0.5", got)
	}
	if got := s.ServerBufferRequirement(); got != 1 {
		t.Errorf("ServerBufferRequirement = %d, want 1", got)
	}
	if got := s.ClientBufferRequirement(); got != 2 {
		t.Errorf("ClientBufferRequirement = %d, want 2", got)
	}
	if got := s.LinkRateRequirement(); got != 1 {
		t.Errorf("LinkRateRequirement = %d, want 1", got)
	}
	cum := s.CumulativeSent()
	if len(cum) != 3 || cum[0] != 1 || cum[1] != 2 || cum[2] != 2 {
		t.Errorf("CumulativeSent = %v", cum)
	}
	if !strings.Contains(s.String(), "hand") {
		t.Errorf("String() missing algorithm: %q", s.String())
	}
}

func TestZeroWeightLoss(t *testing.T) {
	st := stream.NewBuilder().Add(0, 1, 0).MustBuild()
	s := &Schedule{
		Stream:      st,
		Params:      Params{ServerBuffer: 1, ClientBuffer: 1, Rate: 1, Delay: 1},
		Outcomes:    []Outcome{{First: 0, End: 1, SendStart: 0, SendEnd: 0, DropTime: None, PlayTime: 1}},
		SentPerStep: []int{1, 0},
		ServerOcc:   []int{0, 0},
		ClientOcc:   []int{1, 0},
	}
	if got := s.WeightedLoss(); got != 0 {
		t.Errorf("WeightedLoss with zero total weight = %v, want 0", got)
	}
}

func TestValidateAcceptsLegal(t *testing.T) {
	if err := legalSchedule(t).Validate(); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
}

// mutate applies f to a fresh legal schedule and asserts Validate rejects
// it with the given rule.
func expectViolation(t *testing.T, rule string, f func(*Schedule)) {
	t.Helper()
	s := legalSchedule(t)
	f(s)
	err := s.Validate()
	if err == nil {
		t.Fatalf("expected %q violation, got nil", rule)
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("expected ValidationError, got %T: %v", err, err)
	}
	if ve.Rule != rule {
		t.Fatalf("expected rule %q, got %q (%v)", rule, ve.Rule, err)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Run("nil stream", func(t *testing.T) {
		s := legalSchedule(t)
		s.Stream = nil
		if s.Validate() == nil {
			t.Fatal("nil stream accepted")
		}
	})
	t.Run("outcome count", func(t *testing.T) {
		expectViolation(t, "shape", func(s *Schedule) { s.Outcomes = s.Outcomes[:2] })
	})
	t.Run("series lengths", func(t *testing.T) {
		expectViolation(t, "shape", func(s *Schedule) { s.ServerOcc = s.ServerOcc[:2] })
	})
	t.Run("double fate", func(t *testing.T) {
		expectViolation(t, "fate", func(s *Schedule) {
			s.Outcomes[0].DropTime = 1
			s.Outcomes[0].DropSite = SiteServer
		})
	})
	t.Run("no fate", func(t *testing.T) {
		expectViolation(t, "fate", func(s *Schedule) {
			s.Outcomes[2].DropTime = None
			s.Outcomes[2].DropSite = SiteNone
		})
	})
	t.Run("drop site missing", func(t *testing.T) {
		expectViolation(t, "fate", func(s *Schedule) { s.Outcomes[2].DropSite = SiteNone })
	})
	t.Run("send before arrival", func(t *testing.T) {
		expectViolation(t, "causality", func(s *Schedule) {
			// Slice 2 arrives at 1; pretend it was sent from step 0 and
			// played.
			s.Outcomes[2] = Outcome{First: 2, End: 3, SendStart: 0, SendEnd: 0, DropTime: None, PlayTime: 3}
		})
	})
	t.Run("server drop after send", func(t *testing.T) {
		expectViolation(t, "preemption", func(s *Schedule) {
			s.Outcomes[0] = Outcome{First: 0, End: 1, SendStart: 0, SendEnd: 0, DropTime: 1, DropSite: SiteServer, PlayTime: None}
		})
	})
	t.Run("wrong play time", func(t *testing.T) {
		expectViolation(t, "real-time", func(s *Schedule) { s.Outcomes[1].PlayTime = 3 })
	})
	t.Run("rate exceeded", func(t *testing.T) {
		expectViolation(t, "rate", func(s *Schedule) { s.SentPerStep[0] = 2 })
	})
	t.Run("fifo inversion", func(t *testing.T) {
		expectViolation(t, "fifo", func(s *Schedule) {
			s.Outcomes[0].SendStart, s.Outcomes[0].SendEnd = 1, 1
			s.Outcomes[1].SendStart, s.Outcomes[1].SendEnd = 0, 0
		})
	})
	t.Run("server occupancy mismatch", func(t *testing.T) {
		expectViolation(t, "server-occ", func(s *Schedule) { s.ServerOcc[0] = 0 })
	})
	t.Run("client occupancy mismatch", func(t *testing.T) {
		expectViolation(t, "client-occ", func(s *Schedule) { s.ClientOcc[0] = 0 })
	})
	t.Run("server capacity", func(t *testing.T) {
		expectViolation(t, "server-capacity", func(s *Schedule) {
			// Shrink the declared buffer below the occupancy implied by
			// holding both step-0 slices through step 0.
			s.Params.ServerBuffer = 1
			s.Outcomes[0].SendStart, s.Outcomes[0].SendEnd = 1, 1
			s.Outcomes[1].SendStart, s.Outcomes[1].SendEnd = 2, 2
			s.SentPerStep = []int{0, 1, 1}
			s.ServerOcc = []int{2, 1, 0}
			s.ClientOcc = []int{0, 1, 0}
		})
	})
	t.Run("underflow", func(t *testing.T) {
		expectViolation(t, "underflow", func(s *Schedule) {
			// Last byte of slice 1 sent after its play time (play at 2,
			// sent at 3).
			s.Outcomes[1].SendStart, s.Outcomes[1].SendEnd = 3, 3
			s.SentPerStep = []int{1, 0, 0, 1}
			s.ServerOcc = []int{1, 1, 1, 0}
			s.ClientOcc = []int{1, 1, 0, 0}
		})
	})
}

// TestValidateSpanShape feeds Validate one malformed outcome list per
// shape rule; each must be rejected as "shape".
func TestValidateSpanShape(t *testing.T) {
	o := func(first, end int) Outcome {
		return Outcome{First: first, End: end, SendStart: None, SendEnd: None, DropTime: 1, DropSite: SiteServer, PlayTime: None}
	}
	for _, tc := range []struct {
		name  string
		spans []Outcome
	}{
		{"gap", []Outcome{o(0, 1), o(2, 3)}},
		{"overlap", []Outcome{o(0, 2), o(1, 3)}},
		{"empty span", []Outcome{o(0, 2), o(2, 2), o(2, 3)}},
		{"inverted span", []Outcome{o(0, 2), o(2, 1), o(1, 3)}},
		{"below the stream", []Outcome{o(-1, 2), o(2, 3)}},
		{"beyond the stream", []Outcome{o(0, 2), o(2, 4)}},
		{"short of the end", []Outcome{o(0, 1), o(1, 2)}},
		{"late start", []Outcome{o(1, 3)}},
		{"no spans", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectViolation(t, "shape", func(s *Schedule) { s.Outcomes = tc.spans })
		})
	}
}

func TestAtAndAppendSpan(t *testing.T) {
	played := func(first, end, sendAt int) Outcome {
		return Outcome{First: first, End: end, SendStart: sendAt, SendEnd: sendAt, DropTime: None, PlayTime: 5}
	}
	var spans []Outcome
	spans = AppendSpan(spans, played(0, 2, 1))
	spans = AppendSpan(spans, played(2, 3, 1)) // same fate: extends
	spans = AppendSpan(spans, played(3, 4, 2)) // another send step: new span
	if len(spans) != 2 || spans[0].End != 3 || spans[1].First != 3 {
		t.Fatalf("AppendSpan = %+v", spans)
	}
	s := &Schedule{Outcomes: spans}
	for id, want := range []int{0, 0, 0, 1} {
		if got := s.At(id); got != spans[want] {
			t.Errorf("At(%d) = %+v, want %+v", id, got, spans[want])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("At beyond the spans did not panic")
		}
	}()
	s.At(4)
}

func TestValidateClientDropWithSendSpan(t *testing.T) {
	// A client-dropped (late) slice may legally have a send span. B=1,
	// R=1, D=1: slice of size 2 cannot make its deadline.
	st := stream.NewBuilder().Add(0, 2, 2).MustBuild()
	s := &Schedule{
		Stream: st,
		Params: Params{ServerBuffer: 2, ClientBuffer: 2, Rate: 1, Delay: 1, LinkDelay: 0},
		Outcomes: []Outcome{
			{First: 0, End: 1, SendStart: 0, SendEnd: 1, DropTime: 1, DropSite: SiteClient, PlayTime: None},
		},
		SentPerStep: []int{1, 1},
		ServerOcc:   []int{1, 0},
		ClientOcc:   []int{1, 0},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("legal late-drop schedule rejected: %v", err)
	}
}

func TestDropSiteString(t *testing.T) {
	if SiteNone.String() != "none" || SiteServer.String() != "server" || SiteClient.String() != "client" {
		t.Error("DropSite.String() wrong")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	o := Outcome{SendStart: None, SendEnd: None, DropTime: None, PlayTime: 5}
	if !o.Played() || o.Dropped() {
		t.Error("played outcome misclassified")
	}
	o = Outcome{SendStart: None, SendEnd: None, DropTime: 3, DropSite: SiteServer, PlayTime: None}
	if o.Played() || !o.Dropped() {
		t.Error("dropped outcome misclassified")
	}
}

func TestValidationErrorMessage(t *testing.T) {
	err := &ValidationError{Rule: "fifo", Detail: "details here"}
	msg := err.Error()
	if !strings.Contains(msg, "fifo") || !strings.Contains(msg, "details here") {
		t.Errorf("Error() = %q", msg)
	}
}

// TestBenefitMatchesPerSliceSum checks Benefit bit for bit against adding
// every played slice's weight on its own in ID order, over integer weights
// (where Benefit adds whole pieces at once), fractional ones, and integer
// sums that cross 2^53.
func TestBenefitMatchesPerSliceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := [][]float64{
		{1, 8, 12},
		{0.1, 1.0 / 3, 2.5},
		{1, 0.5, 3},
		{4, 7, 0},
		{1 << 50, 3 << 48, 1},
		{math.MaxFloat64 / 4, 1},
	}
	for trial := 0; trial < 300; trial++ {
		ws := weights[trial%len(weights)]
		b := stream.NewBuilder()
		for a := 0; a < 8; a++ {
			for j := rng.Intn(3); j >= 0; j-- {
				b.AddRun(a, 1+rng.Intn(40), 1, ws[rng.Intn(len(ws))])
			}
		}
		st := b.MustBuild()
		s := &Schedule{Stream: st}
		var want float64
		for id := 0; id < st.Len(); {
			end := min(st.Len(), id+1+rng.Intn(30))
			o := Outcome{First: id, End: end, SendStart: None, SendEnd: None, DropTime: None, PlayTime: None}
			if rng.Intn(3) > 0 {
				o.PlayTime = 1
				for i := id; i < end; i++ {
					want += st.Slice(i).Weight
				}
			} else {
				o.DropTime, o.DropSite = 0, SiteServer
			}
			s.Outcomes = AppendSpan(s.Outcomes, o)
			id = end
		}
		if got := s.Benefit(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Benefit = %v (%#x), per-slice sum %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
