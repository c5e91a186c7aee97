package fifo

import (
	"slices"
	"testing"
	"testing/quick"
)

// Random operation sequences against a plain-slice model: the queue
// holds the same entries in the same order after every step.
func TestQueueMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue[int]
		var model []int
		next := 0
		for _, op := range ops {
			switch {
			case op < 128:
				q.Push(next)
				model = append(model, next)
				next++
			case op < 200 && len(model) > 0:
				if q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			case op < 220 && len(model) > 0:
				i := int(op) % len(model)
				q.Remove(i)
				model = slices.Delete(model, i, i+1)
			case op < 240 && len(model) > 0:
				n := int(op) % (len(model) + 1)
				q.Drop(n)
				model = model[n:]
			case op >= 240:
				q.Reset()
				model = nil
			}
			if q.Len() != len(model) || !slices.Equal(q.Items(), model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A queue that stays short stops allocating: its array is reused.
func TestQueueReusesArray(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f times, want 0", allocs)
	}
}
