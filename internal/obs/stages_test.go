package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestStagesSumToWall: each stage books as it ends, to the trace and to
// its histogram; the remainder takes what no stage claimed, so the
// trace's stages sum to the clock's wall time.
func TestStagesSumToWall(t *testing.T) {
	r := NewRegistry()
	p := &Path{Rest: 3, Stages: StageFamily(r, "t_stage_seconds", "h", "probe", "fold", "merge", "encode")}
	tr := NewTrace("")
	st := p.Start(tr)
	time.Sleep(time.Millisecond) // unclaimed: goes to the remainder
	st.Begin()
	time.Sleep(time.Millisecond)
	st.End(1)
	st.End(0)
	total := st.Close()

	got := tr.Stages()
	var names []string
	var sum time.Duration
	for _, s := range got {
		names = append(names, s.Name)
		if s.D < 0 {
			t.Errorf("stage %s took %v", s.Name, s.D)
		}
		sum += s.D
	}
	if want := "fold probe encode"; strings.Join(names, " ") != want {
		t.Fatalf("stages %q, want %q (merge never ran)", strings.Join(names, " "), want)
	}
	if got[0].D < time.Millisecond || got[2].D < time.Millisecond {
		t.Errorf("fold %v, encode %v: each slept 1ms", got[0].D, got[2].D)
	}
	// The clock opens just behind the trace and closes on the reading
	// that ends the request, so the stages fall short of it by only that
	// instant.
	if sum >= total || sum < total-time.Millisecond {
		t.Errorf("stages sum to %v of a %v request", sum, total)
	}
	snap := r.Snapshot()
	for name, want := range map[string]float64{"probe": 1, "fold": 1, "merge": 0, "encode": 1} {
		if got := snap.Value(`t_stage_seconds{stage="` + name + `"}_count`); got != want {
			t.Errorf("%s observed %v times, want %v", name, got, want)
		}
	}
}

// TestStagesEvery: an Every path sums each stage over the request and
// books every stage once at close, in path order, a stage that never ran
// at zero, so each histogram counts requests.
func TestStagesEvery(t *testing.T) {
	r := NewRegistry()
	p := &Path{Every: true, Stages: StageFamily(r, "t_every_seconds", "h", "decode", "store", "ring")}
	tr := NewTrace("")
	st := p.Start(tr)
	st.End(2)
	time.Sleep(time.Millisecond)
	st.End(2)
	st.Close()
	got := tr.Stages()
	if len(got) != 3 || got[0].Name != "decode" || got[1].D != 0 || got[2].D < time.Millisecond {
		t.Fatalf("stages %+v", got)
	}
	snap := r.Snapshot()
	for _, name := range []string{"decode", "store", "ring"} {
		if n := snap.Value(`t_every_seconds{stage="` + name + `"}_count`); n != 1 {
			t.Errorf("%s observed %v times", name, n)
		}
	}
}

func TestStagesNilAndContext(t *testing.T) {
	var st *Stages
	st.Begin()
	st.End(0)
	q := &Path{Stages: StageFamily(NewRegistry(), "t_ctx_seconds", "h", "a")}
	other := &Path{Stages: q.Stages}
	open := q.Start(nil)
	ctx := WithStages(context.Background(), open)
	if StagesFrom(ctx, q) != open || StagesFrom(ctx, other) != nil || StagesFrom(context.Background(), q) != nil {
		t.Fatal("StagesFrom returned a clock of another path")
	}
	open.Close() // no trace: histograms only
}
