package workload

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

func mixBase(n int) *dataset.Table {
	rng := rand.New(rand.NewSource(7))
	t := dataset.NewTable([]string{"x", "d"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		t.Append([]float64{x, 2 * x})
	}
	return t
}

func TestMixGeneratorMaintainsLiveMultiset(t *testing.T) {
	tab := mixBase(500)
	g := NewMixGenerator(tab, 1, MixConfig{
		InsertWeight: 1, DeleteWeight: 1, UpdateWeight: 1, QueryWeight: 1,
		OutlierFrac: 0.2,
	})
	// Mirror multiset keyed by the row pair.
	count := map[[2]float64]int{}
	for i := 0; i < tab.Len(); i++ {
		r := tab.Row(i)
		count[[2]float64{r[0], r[1]}]++
	}
	kinds := map[OpKind]int{}
	// Every fourth op is a write aimed at aim: while a live row lies inside
	// it, its inserted, deleted or replaced row does too.
	aim := index.Rect{Min: []float64{20, 0}, Max: []float64{30, 1000}}
	aimed := 0
	for i := 0; i < 5000; i++ {
		var op MixOp
		if i%4 != 3 {
			op = g.Next()
		} else {
			view, held := g.LiveView(), false
			for j := 0; j < view.Len() && !held; j++ {
				held = aim.Contains(view.Row(j))
			}
			op = g.NextWriteIn(aim)
			written := op.Row
			if op.Kind == OpUpdate {
				written = op.Old
			}
			if held && !aim.Contains(written) {
				t.Fatalf("op %d: %v aimed at %v wrote %v", i, op.Kind, aim, written)
			}
			if held {
				aimed++
			}
		}
		kinds[op.Kind]++
		switch op.Kind {
		case OpInsert:
			count[[2]float64{op.Row[0], op.Row[1]}]++
		case OpDelete:
			k := [2]float64{op.Row[0], op.Row[1]}
			if count[k] == 0 {
				t.Fatalf("op %d deleted a row not in the multiset: %v", i, op.Row)
			}
			count[k]--
		case OpUpdate:
			k := [2]float64{op.Old[0], op.Old[1]}
			if count[k] == 0 {
				t.Fatalf("op %d updated a row not in the multiset: %v", i, op.Old)
			}
			count[k]--
			count[[2]float64{op.New[0], op.New[1]}]++
		case OpQuery:
			if op.Rect.Empty() && g.LiveLen() > 0 {
				t.Fatalf("op %d produced an empty rect over live data", i)
			}
		default:
			t.Fatalf("op %d has unknown kind %v", i, op.Kind)
		}
	}
	for _, k := range []OpKind{OpQuery, OpInsert, OpDelete, OpUpdate} {
		if kinds[k] == 0 {
			t.Errorf("kind %v never generated", k)
		}
	}
	if aimed == 0 {
		t.Error("no aimed write found a live row inside its rect")
	}
	// The generator's view must agree with the mirror.
	view := g.LiveView()
	got := map[[2]float64]int{}
	for i := 0; i < view.Len(); i++ {
		r := view.Row(i)
		got[[2]float64{r[0], r[1]}]++
	}
	for k, c := range count {
		if c != 0 && got[k] != c {
			t.Fatalf("multiset mismatch at %v: view %d, mirror %d", k, got[k], c)
		}
	}
	if view.Len() != g.LiveLen() {
		t.Fatalf("LiveView %d rows, LiveLen %d", view.Len(), g.LiveLen())
	}
}

func TestMixGeneratorDeterministic(t *testing.T) {
	tab := mixBase(200)
	cfg := DefaultMixConfig()
	a := NewMixGenerator(tab, 9, cfg)
	b := NewMixGenerator(tab, 9, cfg)
	for i := 0; i < 500; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Kind != ob.Kind {
			t.Fatalf("op %d: kinds %v vs %v", i, oa.Kind, ob.Kind)
		}
	}
}

func TestMixGeneratorPerturbTargetsColumns(t *testing.T) {
	tab := mixBase(300)
	g := NewMixGenerator(tab, 3, MixConfig{
		InsertWeight: 1, OutlierFrac: 1, PerturbCols: []int{1},
	})
	// Every op is an insert with column 1 perturbed: far from 2·x.
	perturbed := 0
	for i := 0; i < 200; i++ {
		op := g.Next()
		if op.Kind != OpInsert {
			t.Fatalf("op %d is %v, want insert", i, op.Kind)
		}
		if diff := op.Row[1] - 2*op.Row[0]; diff > 150 || diff < -150 {
			perturbed++
		}
	}
	// A re-perturbed copy of an earlier outlier can land back near the
	// line, so demand a strong majority rather than every row.
	if perturbed < 150 {
		t.Fatalf("only %d/200 inserts perturbed on the dependent column", perturbed)
	}
}

func TestMixGeneratorEmptyPoolFallsBackToInsert(t *testing.T) {
	tab := mixBase(3)
	g := NewMixGenerator(tab, 5, MixConfig{DeleteWeight: 1})
	deletes, inserts := 0, 0
	for i := 0; i < 20; i++ {
		op := g.Next()
		switch op.Kind {
		case OpDelete:
			deletes++
		case OpInsert:
			// Pool was empty: the fallback insert must be valid.
			if len(op.Row) != 2 {
				t.Fatalf("fallback insert row %v", op.Row)
			}
			inserts++
		default:
			t.Fatalf("unexpected kind %v", op.Kind)
		}
		if g.LiveLen() < 0 || g.LiveLen() > 3 {
			t.Fatalf("op %d: live pool %d rows", i, g.LiveLen())
		}
	}
	if deletes < 3 || inserts == 0 {
		t.Fatalf("deletes=%d inserts=%d: empty-pool fallback never fired", deletes, inserts)
	}
}
